"""Self-test of the benchmark at a tiny size.

    python -m pytest bench

Runs every workload untraced and traced on a few jobs, checks the metric
names and units against BENCHMARK.json, the oracle against census_fn on
the corpus and its truncations, how failures are counted, and the
per-layer predictions (zeros where a layer is off a workload's path,
nonzero where the table says the layer works).
"""

import json
import math
import sys
from pathlib import Path

import pytest

import run
import workloads
from layertrace import PER_LAYER, PREDICTED_ZERO

sys.path.insert(0, str(run.SRC))

import curvex.cli as cli  # noqa: E402
from curvex.trig import ANTIPERIODIC, TrigSeries, truncate  # noqa: E402
from curvex.width import SupportFunction, census_fn  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
# the sphere and width corpus plus one random input; one axioms job
TINY = {"sphere": 4, "width": 5, "axioms": 1}


CORPUS = [h for _, h in workloads.CORPUS_WIDTH.values()] \
    + list(workloads.CORPUS_SPHERE.values())


@pytest.mark.parametrize("harmonics", CORPUS + [workloads.truncation(h)[1] for h in CORPUS
                                                if len(h) > 1])
def test_oracle_agrees_with_census_fn_on_corpus(harmonics):
    sf = SupportFunction(workloads.support_width(harmonics),
                         TrigSeries(0.0, harmonics, ANTIPERIODIC))
    rep = census_fn(sf)
    assert (rep.i, rep.delta) == workloads.oracle(harmonics)


@pytest.mark.parametrize("harmonics", CORPUS)
def test_truncation_drops_only_the_top_harmonic(harmonics):
    n, kept = workloads.truncation(harmonics)
    top = max(k for k, _, _ in harmonics)
    assert 2 * (n + 2) - 1 >= top
    assert kept == (harmonics if len(harmonics) == 1 else
                    tuple(h for h in harmonics if h[0] < top))


def test_inputs_repeat_for_a_seed_and_differ_across_seeds(tmp_path):
    def files(seed, sub):
        workloads.build_jobs("width", seed, 6, tmp_path / sub)
        return {p.name: p.read_bytes() for p in (tmp_path / sub).iterdir()}

    assert files(5, "a") == files(5, "b")
    assert files(5, "a") != files(6, "c")
    for seed in (0, 1, 2**31 - 1, 12345678901):
        jobs = workloads.build_jobs("width", seed, 9, tmp_path / f"s{seed}")
        for job in jobs[len(workloads.CORPUS_WIDTH):]:
            call = job.calls[-1]
            obj = json.loads(Path(call.input).read_text())
            f = TrigSeries.from_json(obj["f"])
            n = int(call.extra[-1])
            for series in (f, truncate(f, n), truncate(f, n + 2)):
                SupportFunction(obj["d"], series)  # convex, or NotConvex
            assert truncate(f, n + 2) == f and truncate(f, n) != f
            assert call.cut is not None and call.exit_code == 1


def test_wrong_count_is_a_silent_failure(tmp_path):
    """An exit-0 report whose (i, delta) differs from the oracle is a
    failure the program did not flag, which makes a run incorrect."""
    job = workloads.build_jobs("sphere", 1, 1, tmp_path / "in")[0]
    job.expected = (job.expected[0] + 2, job.expected[1] + 1)
    res = run.run_job(cli, job, tmp_path / "out")
    assert res.failed and res.silent


def test_error_exit_is_a_flagged_failure(tmp_path):
    job = workloads.build_jobs("sphere", 1, 1, tmp_path / "in")[0]
    job.calls[0].mode = "width-census"  # a lift is no support input: exit 2
    res = run.run_job(cli, job, tmp_path / "out")
    assert res.failed and not res.silent
    assert run.check_report(job.calls[0], {"error": "CertificateFailed"}, job.expected)


def test_truncate_verdict_is_checked():
    rep = {"agree": True, "at_n": {"i": 5, "delta": 1},
           "at_n_plus_2": {"i": 5, "delta": 1}}
    whole = workloads.Call("truncate", "in.json")
    cut = workloads.Call("truncate", "in.json", cut=(5, 1))
    assert run.check_report(whole, rep, (5, 1)) == []
    assert run.check_report(cut, rep, (5, 1)) == ["agree is true"]
    assert run.check_report(cut, dict(rep, agree=False), (7, 2)) \
        == ["at_n_plus_2 (i, delta) = (5, 1), oracle (7, 2)"]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_runs_and_reports_every_metric(workload, trace):
    lines, result = run.measure(workload, 1, TINY[workload], trace, math.inf)
    assert result["correct"] is True
    assert result["attempted"] == TINY[workload]
    spec = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} \
        == {k: v["unit"] for k, v in result["metrics"].items()}
    text = "\n".join(lines)
    for m in spec:
        assert any(line.split()[:1] == [m["name"]] and m["unit"] in line.split()
                   for line in lines), m["name"]
    assert f"digest {workload} sha256=" in text and "census " in text
    assert sum(line.startswith("  failed ") for line in lines) >= result["failed"]
    if not trace:
        return
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for name, (_, on) in PER_LAYER.items():
        if workload in on.split():
            assert values[name] > 0, name
    for name, zero_on in PREDICTED_ZERO.items():
        if workload in zero_on:
            assert values[name] == 0, name
