import dataclasses
import json
import math

import pytest

from curvex import sphere, width
from curvex.cli import main

WIDTH_SIN3 = {"d": 20, "f": {"parity": "antiperiodic", "constant": 0.0,
                             "harmonics": [[3, 0.0, 1.0]]}}
SPHERE_SIN3 = {
    "x": {"parity": "antiperiodic", "constant": 0.0, "harmonics": [[1, 1.0, 0.0]]},
    "y": {"parity": "antiperiodic", "constant": 0.0, "harmonics": [[1, 0.0, 1.0]]},
    "z": {"parity": "antiperiodic", "constant": 0.0, "harmonics": [[3, 0.0, 0.1]]},
}


def write_input(tmp_path, payload, name="in.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(tmp_path, payload, mode, *extra):
    inp = write_input(tmp_path, payload)
    report = tmp_path / "report.json"
    code = main(["--input", inp, "--mode", mode,
                 "--out-report", str(report), *extra])
    data = json.loads(report.read_text()) if report.exists() else None
    return code, data


def test_width_census_mode(tmp_path):
    code, data = run(tmp_path, WIDTH_SIN3, "width-census",
                     "--out-csv", str(tmp_path / "c.csv"),
                     "--out-svg", str(tmp_path / "c.svg"),
                     "--plot-samples", "256")
    assert code == 0
    assert data["i"] == 3 and data["delta"] == 0 and data["identity_holds"]
    assert data["clean_points"] == pytest.approx(
        [0.0, math.pi / 3, 2 * math.pi / 3], abs=1e-6)
    csv_lines = (tmp_path / "c.csv").read_text().splitlines()
    assert len(csv_lines) == 257 and csv_lines[0] == "t,x,y"
    assert (tmp_path / "c.svg").read_text().startswith("<svg")
    assert (tmp_path / "report.json.meta.json").exists()


def test_sphere_census_mode(tmp_path):
    code, data = run(tmp_path, SPHERE_SIN3, "sphere-census", "--plot-samples", "256",
                     "--out-svg", str(tmp_path / "s.svg"),
                     "--out-csv", str(tmp_path / "s.csv"))
    assert code == 0
    assert data["i"] == 3 and data["delta"] == 0 and data["identity_holds"]
    csv_lines = (tmp_path / "s.csv").read_text().splitlines()
    assert csv_lines[0] == "t,x,y,z" and len(csv_lines) == 257
    # no double tangents here, so no chord overlay in the scene
    assert "<polyline" not in (tmp_path / "s.svg").read_text()


def test_axioms_mode(tmp_path):
    code, data = run(tmp_path, WIDTH_SIN3, "axioms", "--axiom-grid", "32")
    assert code == 0
    assert data["all_pass"] is True


def test_theorem_c_mode(tmp_path):
    code, data = run(tmp_path, WIDTH_SIN3, "theorem-c",
                     "--out-svg", str(tmp_path / "tc.svg"), "--plot-samples", "256")
    assert code == 0
    assert len(data["certificates"]) == 3
    svg = (tmp_path / "tc.svg").read_text()
    assert svg.count("<circle") >= 3


def test_flexes_mode(tmp_path):
    code, data = run(tmp_path, WIDTH_SIN3, "flexes", "--plot-samples", "256")
    assert code == 0
    assert len(data["d_inflections"]) == 6


def test_truncate_mode(tmp_path):
    payload = {"d": 40, "f": {"parity": "antiperiodic", "constant": 0.0,
                              "harmonics": [[3, 0.0, 1.0], [5, 0.0, 0.4],
                                            [9, 0.0, 1e-5]]}}
    code, data = run(tmp_path, payload, "truncate", "--truncate-n", "4")
    assert code == 0
    assert data["agree"] is True
    assert data["at_n"]["i"] == data["at_n_plus_2"]["i"] == 5


def test_malformed_input_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    code = main(["--input", str(path), "--mode", "axioms"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_wrong_input_kind_exits_2(tmp_path):
    code, _ = run(tmp_path, WIDTH_SIN3, "sphere-census")
    assert code == 2


@pytest.mark.parametrize("flag, value", [("--plot-samples", "1000"),
                                         ("--axiom-grid", "0"),
                                         ("--axiom-grid", "-3")])
def test_bad_grid_exits_2(tmp_path, flag, value):
    inp = write_input(tmp_path, WIDTH_SIN3)
    assert main(["--input", inp, "--mode", "axioms", flag, value]) == 2


@pytest.mark.parametrize("mode", ["width-census", "flexes", "theorem-c"])
def test_eps_contact_reaches_limiting_function(tmp_path, monkeypatch, mode):
    seen = []
    real = width.limiting_function

    def spy(sf, p, eps_contact=width.EPS_CONTACT):
        seen.append(eps_contact)
        return real(sf, p, eps_contact)

    monkeypatch.setattr(width, "limiting_function", spy)
    run(tmp_path, WIDTH_SIN3, mode, "--eps-contact", "3e-8")
    assert seen and set(seen) == {3e-8}


def test_identity_failure_exits_1(tmp_path):
    # a warped, non-anti-convex curve cannot complete a sphere census
    payload = {
        "x": {"parity": "antiperiodic", "constant": 0.0,
              "harmonics": [[1, 1.0, 0.0]]},
        "y": {"parity": "antiperiodic", "constant": 0.0,
              "harmonics": [[1, 0.0, 1.0], [3, 0.7, 0.0]]},
        "z": {"parity": "antiperiodic", "constant": 0.0,
              "harmonics": [[3, 0.0, 0.05]]},
    }
    code, data = run(tmp_path, payload, "sphere-census")
    assert code == 1
    assert "error" in data


def test_report_byte_stability(tmp_path):
    inp = write_input(tmp_path, WIDTH_SIN3)
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["--input", inp, "--mode", "width-census",
                 "--out-report", str(r1)]) == 0
    assert main(["--input", inp, "--mode", "width-census",
                 "--out-report", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


@pytest.mark.parametrize("payload, mode", [(SPHERE_SIN3, "sphere-census"),
                                           (WIDTH_SIN3, "width-census"),
                                           (WIDTH_SIN3, "flexes"),
                                           (WIDTH_SIN3, "theorem-c"),
                                           (WIDTH_SIN3, "axioms")])
def test_contact_warnings_reach_the_sidecar(tmp_path, monkeypatch, payload, mode):
    def sidecar(sub):
        (tmp_path / sub).mkdir()
        report = tmp_path / sub / "report.json"
        main(["--input", write_input(tmp_path / sub, payload), "--mode", mode,
              "--axiom-grid", "32", "--out-report", str(report)])
        meta = json.loads((tmp_path / sub / "report.json.meta.json").read_text())
        return report.read_bytes(), meta["contact_warnings"]

    clean_report, clean = sidecar("clean")
    assert clean == {}

    # the first circle solved reports a fallback
    real, fallen = sphere._limits, []

    def limits(curve, ts, eps_contact):
        out = real(curve, ts, eps_contact)
        if not fallen:
            fallen.append(out[0].base)
            out[0] = dataclasses.replace(out[0], warnings=(sphere.FALLBACK,))
        return out

    monkeypatch.setattr(sphere, "_limits", limits)
    monkeypatch.setattr(width, "_limits", limits)
    report, warnings = sidecar("fallen")
    assert fallen and warnings == {sphere.FALLBACK: 1}
    assert report == clean_report
