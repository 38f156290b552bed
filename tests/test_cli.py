import json
import math
import sys

import pytest

from curvex import cli, sphere, width
from curvex.cli import main

WIDTH_SIN3 = {"d": 20, "f": {"parity": "antiperiodic", "constant": 0.0,
                             "harmonics": [[3, 0.0, 1.0]]}}
SPHERE_SIN3 = {
    "x": {"parity": "antiperiodic", "constant": 0.0, "harmonics": [[1, 1.0, 0.0]]},
    "y": {"parity": "antiperiodic", "constant": 0.0, "harmonics": [[1, 0.0, 1.0]]},
    "z": {"parity": "antiperiodic", "constant": 0.0, "harmonics": [[3, 0.0, 0.1]]},
}

CURVE7 = dict(SPHERE_SIN3, z={"parity": "antiperiodic", "constant": 0.0,
                             "harmonics": [[3, 0.0, 0.05], [5, 0.0, 0.05], [7, 0.0, 0.025]]})


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


@pytest.mark.parametrize("payload, mode", [(WIDTH_SIN3, "width-census"),
                                           (SPHERE_SIN3, "sphere-census")])
def test_plot_is_sampled_only_for_a_plot_path(tmp_path, monkeypatch, payload, mode):
    def refuse(*args, **kw):
        raise AssertionError("plot sampled without a plot path")
    monkeypatch.setattr(cli, "curve_points", refuse)
    lift_many = sphere.ProjectiveCurve.lift_many

    def lift_many_unless_cli(self, ts):
        # the census samples the lift too; only the plot's samples are refused
        if sys._getframe(1).f_globals["__name__"] == "curvex.cli":
            refuse()
        return lift_many(self, ts)
    monkeypatch.setattr(sphere.ProjectiveCurve, "lift_many", lift_many_unless_cli)
    code, _ = run(tmp_path, payload, mode)
    assert code == 0
    monkeypatch.undo()
    code, _ = run(tmp_path, payload, mode, "--out-csv", str(tmp_path / "p.csv"),
                  "--plot-samples", "512")
    assert code == 0
    assert len((tmp_path / "p.csv").read_text().splitlines()) == 513


def test_axioms_mode(tmp_path):
    code, data = run(tmp_path, WIDTH_SIN3, "axioms", "--axiom-grid", "32")
    assert code == 0
    assert data["all_pass"] is True


def test_axioms_sidecar_times_each_axiom(tmp_path):
    code, data = run(tmp_path, WIDTH_SIN3, "axioms", "--axiom-grid", "32")
    meta = json.loads((tmp_path / "report.json.meta.json").read_text())
    names = ["L1", "L2", "L3", "L4", "L5", "L6", "L7"]
    assert sorted(meta["axiom_seconds"]) == names
    assert all(v == round(v, 3) >= 0.0 for v in meta["axiom_seconds"].values())
    assert sum(meta["axiom_seconds"].values()) <= meta["seconds"] + 0.01
    # the grid prefetch, timed apart from the axioms
    solve = meta["axiom_solve_seconds"]
    assert solve == round(solve, 3) >= 0.0
    assert solve + sum(meta["axiom_seconds"].values()) <= meta["seconds"] + 0.01
    # 32 bases, 7 lags below half a period, both passes
    l4 = next(r for r in data["axioms"] if r["axiom"] == "L4")
    assert meta["l4_configurations"] == {"tried": 448, "checked": l4["checked"]}
    # L3 and L5 compare a row per base; L6 the 31 + 30 + 29 neighbours up
    # to 3 apart, as every base component here is a point
    assert meta["axiom_rows"] == {"L3": 32, "L5": 32, "L6": 90, "merged": 0}
    assert "axiom_seconds" not in data and "l4_configurations" not in data
    assert "axiom_rows" not in data


def test_axioms_sidecar_counts_contact_solves(tmp_path):
    # the 256 grid bases in one call; L6 reads no base off the grid here,
    # and the first four depths of the L7 chains are grid bases, so the
    # other 10 depths of all 6 chains come in one more call
    code, _ = run(tmp_path, CURVE7, "axioms")
    meta = json.loads((tmp_path / "report.json.meta.json").read_text())
    assert code == 0
    assert meta["contact_solves"] == {"calls": 2, "bases": 256 + 6 * 10}
    assert "clean_search" not in meta  # the axiom check searches nothing


def test_sphere_census_sidecar_counts_lockstep_steps(tmp_path):
    # the triple is picked from curve7's 3 exactly-clean inflections, and
    # the check reads the contact set of each point in its own call
    code, _ = run(tmp_path, CURVE7, "sphere-census")
    meta = json.loads((tmp_path / "report.json.meta.json").read_text())
    assert code == 0
    assert meta["contact_solves"] == {"calls": 3, "bases": 3}
    assert meta["clean_search"] == {"exact_clean": 3, "halvings": 0}


MIX7 = {"d": 120.0, "f": {"parity": "antiperiodic", "constant": 0.0,
                          "harmonics": [[3, 0.0, 1.0], [5, 0.0, 1.0], [7, 0.0, 0.5]]}}


@pytest.mark.parametrize("payload, mode", [(CURVE7, "sphere-census"), (MIX7, "width-census")])
def test_census_sidecar_counts_newton(tmp_path, payload, mode):
    # one seed per nonzero lattice cell: both ends of the 6 double
    # tangents, of which the 6 seen from the far end fail the side filter
    code, data = run(tmp_path, payload, mode)
    meta = json.loads((tmp_path / "report.json.meta.json").read_text())
    assert code == 0
    assert meta["newton"] == {"seeds": 12, "converged": 12, "steps": 4}
    assert meta["dropped_candidates"] == 6
    assert meta["dropped_by"] == {"diverged": 0, "outside_band": 0, "degenerate_chord": 0,
                                  "on_chord": 0, "side": 6, "direction": 0}
    text = json.dumps(data)
    assert "newton" not in text and "dropped_candidates" not in text and "dropped_by" not in text


@pytest.mark.parametrize("payload, additivity", [(MIX7, {"i1": 5, "i2": 3}),
                                                  (WIDTH_SIN3, None)], ids=["mix7", "sin3"])
def test_width_census_sidecar_keeps_the_additivity_counts(tmp_path, payload, additivity):
    # the two reduction counts of the cross-check go to the sidecar; a
    # census without a double tangent runs no check and writes no key
    code, data = run(tmp_path, payload, "width-census")
    meta = json.loads((tmp_path / "report.json.meta.json").read_text())
    assert code == 0 and data["warnings"] == {}
    assert meta.get("additivity") == additivity
    if additivity:
        assert additivity["i1"] + additivity["i2"] - 1 == data["i"]
    assert "additivity" not in data


def inflection_solves(tmp_path, monkeypatch, payload, mode):
    """The exit code of a run and its number of true_inflections calls."""
    real, calls = sphere.true_inflections, []

    def spy(curve):
        calls.append(curve)
        return real(curve)

    for name, module in list(sys.modules.items()):
        if name.startswith("curvex") and getattr(module, "true_inflections", None) is real:
            monkeypatch.setattr(module, "true_inflections", spy)
    code, _ = run(tmp_path, payload, mode)
    return code, len(calls)


def test_sphere_census_reads_the_inflections_once(tmp_path, monkeypatch):
    # the clean-point search takes the exactly-clean points from the
    # census's own inflection report instead of solving the indicator again
    assert inflection_solves(tmp_path, monkeypatch, CURVE7, "sphere-census") == (0, 1)


@pytest.mark.parametrize("mode", ["width-census", "flexes"])
def test_width_modes_read_the_inflections_once(tmp_path, monkeypatch, mode):
    # the clean-flex search and the census (or the d-inflections) read the
    # flexes the support function keeps
    assert inflection_solves(tmp_path, monkeypatch, MIX7, mode) == (0, 1)


def test_width_census_builds_the_indicator_once(tmp_path, monkeypatch):
    # the flexes and a2's line check read det(F, F', F'') cached on the lift
    real, calls = sphere.triple_product, []

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(sphere, "triple_product", spy)
    assert run(tmp_path, MIX7, "width-census")[0] == 0
    assert len(calls) == 1


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


@pytest.mark.parametrize("mode", ["width-census", "flexes", "theorem-c"])
def test_support_modes_refuse_a_curve_input(tmp_path, capsys, mode):
    code, data = run(tmp_path, SPHERE_SIN3, mode)
    assert code == 2 and data is None
    assert not (tmp_path / "report.json.meta.json").exists()
    assert "expects a d/f support input" in capsys.readouterr().err


def with_coefficient(payload, key, value):
    """A copy of payload whose series key (f, or x/y/z) has value as the
    sine coefficient of its first harmonic."""
    series = payload[key]
    (k, a, _), *rest = series["harmonics"]
    return dict(payload, **{key: dict(series, harmonics=[[k, a, value], *rest])})


@pytest.mark.parametrize("payload, mode, extra", [
    ({"d": 1, "f": WIDTH_SIN3["f"]}, "width-census", ()),  # not convex
    (dict(SPHERE_SIN3, y={"parity": "antiperiodic", "harmonics": []},
          z={"parity": "antiperiodic", "harmonics": []}), "sphere-census", ()),  # |F| = 0
    (dict(WIDTH_SIN3, d=math.nan), "width-census", ()),
    (dict(WIDTH_SIN3, d=math.inf), "theorem-c", ()),
    (with_coefficient(WIDTH_SIN3, "f", math.nan), "width-census", ()),
    (with_coefficient(SPHERE_SIN3, "z", math.inf), "sphere-census", ()),
    (WIDTH_SIN3, "width-census", ("--eps-contact", "nan")),
    (WIDTH_SIN3, "width-census", ("--eps-contact", "inf")),
], ids=["not-convex", "zero-F", "d-nan", "d-inf", "coefficient-nan",
        "coefficient-inf", "eps-contact-nan", "eps-contact-inf"])
def test_bad_input_exits_2_without_a_report(tmp_path, capsys, payload, mode, extra):
    code, data = run(tmp_path, payload, mode, *extra)
    assert code == 2 and data is None
    assert not (tmp_path / "report.json.meta.json").exists()
    assert "curvex: error:" in capsys.readouterr().err


def with_harmonic(payload, key, row):
    """A copy of payload whose series key has the one harmonic row."""
    return dict(payload, **{key: dict(payload[key], harmonics=[row])})


@pytest.mark.parametrize("payload", [
    {"x": 1, "y": 1, "z": 1},
    {"d": 20, "f": [1, 2]},
    {"d": None, "f": WIDTH_SIN3["f"]},
    dict(WIDTH_SIN3, f=dict(WIDTH_SIN3["f"], harmonics={"3": [0.0, 1.0]})),
    with_harmonic(WIDTH_SIN3, "f", [3, 1.0]),
    with_harmonic(WIDTH_SIN3, "f", [3, 0.0, None]),
    with_harmonic(WIDTH_SIN3, "f", [3, 0.0, "1.0"]),
    with_harmonic(WIDTH_SIN3, "f", [3, 0.0, 10 ** 400]),
    dict(WIDTH_SIN3, f=dict(WIDTH_SIN3["f"], constant=None)),
    with_harmonic(WIDTH_SIN3, "f", [3.7, 0.0, 1.0]),
    with_harmonic(WIDTH_SIN3, "f", [True, 0.0, 1.0]),
    with_harmonic(SPHERE_SIN3, "z", [3.0, 0.0, 0.1]),
], ids=["series-not-objects", "f-a-list", "d-null", "harmonics-not-a-list",
        "harmonic-of-two", "coefficient-null", "coefficient-string", "coefficient-huge-int",
        "constant-null", "index-fraction", "index-bool", "index-float"])
def test_malformed_series_cannot_be_read(tmp_path, capsys, payload):
    code, data = run(tmp_path, payload, "flexes")
    assert code == 2 and data is None
    assert "cannot read input" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--plot-samples", "1000"),
                                         ("--axiom-grid", "0"),
                                         ("--axiom-grid", "-3"),
                                         ("--axiom-grid", "33")])
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
    # its detector keeps no interval: the census's own check of the start
    # bases names the first without an admissible line
    assert data["error"] == "NotAntiConvex" and data["message"].endswith("t=0.0")


def test_sphere_census_of_a_line_says_so(tmp_path):
    # the inflections are read before the clean points are picked, so a
    # curve on a line fails on its vanishing indicator
    code, data = run(tmp_path, dict(SPHERE_SIN3, z={"parity": "antiperiodic",
                                                    "constant": 0.0, "harmonics": []}),
                     "sphere-census")
    assert code == 1
    assert data["error"] == "LineCurve"


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
def test_contact_warnings_reach_the_sidecar(tmp_path, payload, mode):
    # no solver sets a warning, so the sidecar keeps no contact_warnings:
    # what reaches it are the contact solves and, but for axioms, the
    # clean search
    report = tmp_path / "report.json"
    main(["--input", write_input(tmp_path, payload), "--mode", mode,
          "--axiom-grid", "32", "--out-report", str(report)])
    meta = json.loads((tmp_path / "report.json.meta.json").read_text())
    assert "contact_warnings" not in meta
    assert meta["contact_solves"]["bases"] >= meta["contact_solves"]["calls"] > 0
    assert ("clean_search" in meta) == (mode != "axioms")
