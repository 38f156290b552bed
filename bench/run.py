"""Closed-loop benchmark of the curvex command line.

Run from the root of a checkout:

    python3 bench/run.py --workload sphere --seed 1 --seconds 30 --trace 0

One client drives ``curvex.cli.main(argv)`` in-process on JSON inputs made
from the seed, each job starting when the previous one ends.  Every
job's reports are checked against the oracle and the CLI's own
assertions.  Times are wall clock rescaled to a reference host speed
(see speedref.py); the raw wall values are printed beside them.
``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs the same job list untraced and then traced and prints per-layer
metrics, per job.  The last line of stdout is one JSON object; the lines
before it repeat every metric with its unit and sample count, each job's
latency, the failed/attempted counts and the output digest.  Metric
names, units and the workloads come from BENCHMARK.json; what each
workload's jobs hold is in workloads.build_jobs.

``--seconds`` sets the size of the fixed job list, not a deadline, so
parent and child commits do identical work for a seed.  On the reference
machine (2 shared cores, Python 3.11, numpy 2.4) 30 seconds give 22
sphere jobs (about 30 s), 11 width jobs (about 30 s) and 11 axioms jobs
(about 40 s).  Each list starts with the fixed corpus of
tests/conftest.py (which holds the known theorem-c failures); the rest
are seeded random deviations.
"""

from __future__ import annotations

import os

# BLAS and OpenMP pools are pinned to one thread before numpy loads: the
# default two-thread pool was slower and noisier on two shared cores.
# CURVEX_THREADS is left unset, which is curvex's default of one worker.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)
os.environ.pop("CURVEX_THREADS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import speedref  # noqa: E402
import workloads  # noqa: E402
from layertrace import Tracer, per_layer_metrics, traced  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# jobs in the list per second of --seconds, per workload
JOBS_PER_SECOND = {"sphere": 0.73, "width": 0.37, "axioms": 0.37}
TAIL_PERCENTILE = 90
SETUP_SAMPLES = 9  # fresh interpreters timed after one untimed cache warm-up
SETUP_TIMEOUT = 60
DEADLINE_S = 150  # no job starts later than this after launch


def load_spec() -> dict:
    """BENCHMARK.json: the workloads and the metrics' names and units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@dataclass
class CallResult:
    mode: str
    code: object  # exit code, or "crash" when main raised
    problems: list[str]
    report: bytes | None
    census: tuple[int, int] | None = None


@dataclass
class JobResult:
    name: str
    seconds: float = 0.0  # wall time inside cli.main
    busy: float = 0.0  # wall time including the harness's checks
    scale: float = 1.0  # wall to reference seconds, from speedref
    calls: list[CallResult] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return any(c.problems for c in self.calls)

    @property
    def silent(self) -> bool:
        """A call that exited 0 although its report fails a check: a wrong
        answer the program did not flag, unlike an exit 1 or a crash."""
        return any(c.code == 0 and c.problems for c in self.calls)


def check_report(call, rep: dict, expected: tuple[int, int]) -> list[str]:
    """Checks a report must pass for its job to count as done."""
    if "error" in rep:
        return [f"{rep['error']}: {rep.get('message', '')}"]
    mode = call.mode
    problems = []
    if mode in ("sphere-census", "width-census"):
        if not rep["identity_holds"]:
            problems.append("identity_holds is false")
        if (rep["i"], rep["delta"]) != expected:
            problems.append(f"(i, delta) = ({rep['i']}, {rep['delta']}), "
                            f"oracle {expected}")
    elif mode == "flexes":
        if len(rep["clean_flexes"]) != 3:
            problems.append(f"{len(rep['clean_flexes'])} clean flexes")
    elif mode == "theorem-c":
        if len(rep["certificates"]) != 3:
            problems.append(f"{len(rep['certificates'])} certificates")
    elif mode == "truncate":
        if rep["agree"] != (call.cut is None):
            problems.append(f"agree is {str(rep['agree']).lower()}")
        for key, want in (("at_n", call.cut or expected), ("at_n_plus_2", expected)):
            got = (rep[key]["i"], rep[key]["delta"])
            if got != want:
                problems.append(f"{key} (i, delta) = {got}, oracle {want}")
    elif mode == "axioms":
        if not rep["all_pass"]:
            failing = [a["axiom"] for a in rep["axioms"] if not a["pass"]]
            problems.append(f"axioms fail: {','.join(failing)}")
    return problems


def run_call(cli, call, report: Path, expected) -> tuple[CallResult, float]:
    argv = ["--input", call.input, "--mode", call.mode,
            "--out-report", str(report), *call.extra]
    report.unlink(missing_ok=True)
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    except Exception:  # a crash is a failed job, not a failed benchmark
        traceback.print_exc(file=sys.stderr)
        code = "crash"
    seconds = time.perf_counter() - start
    if not report.exists():
        return CallResult(call.mode, code, [f"exit {code}, no report"], None), seconds
    data = report.read_bytes()
    rep = json.loads(data)
    problems = check_report(call, rep, expected)
    if code != call.exit_code:
        problems.insert(0, f"exit {code}")
    census = (rep["i"], rep["delta"]) if "identity_holds" in rep else None
    return CallResult(call.mode, code, problems, data, census), seconds


def run_job(cli, job, outdir: Path) -> JobResult:
    result = JobResult(job.name)
    for k, call in enumerate(job.calls):
        res, seconds = run_call(cli, call, outdir / f"{job.name}.{k}.{call.mode}.json",
                                job.expected)
        result.calls.append(res)
        result.seconds += seconds
    return result


def run_jobs(cli, jobs, outdir: Path, deadline: float,
             probe: "SetupProbe | None" = None) -> list[JobResult]:
    """One closed-loop pass over the job list.

    Every job, and every set-up probe due before it, is bracketed by
    reference-kernel samples that set its wall-to-reference scale.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    results = []
    before = speedref.sample()
    for k, job in enumerate(jobs):
        if k and time.perf_counter() > deadline:
            break
        for _ in range(probe.due(k) if probe else 0):
            seconds = probe.once()
            after = speedref.sample()
            probe.samples.append(seconds * speedref.scale(before, after))
            probe.raw.append(seconds)
            before = after
        start = time.perf_counter()
        res = run_job(cli, job, outdir)
        res.busy = time.perf_counter() - start
        after = speedref.sample()
        res.scale = speedref.scale(before, after)
        before = after
        results.append(res)
    return results


class SetupProbe:
    """Times fresh interpreters that import curvex and build the inputs.

    The samples are spread over the run, between jobs, so they see the
    same host as the jobs do.
    """

    def __init__(self, workload: str, seed: int, n_jobs: int, outdir: Path):
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
        self.cmd = [sys.executable, str(BENCH / "setup_probe.py"), workload,
                    str(seed), str(n_jobs), str(outdir)]
        self.n_jobs = n_jobs
        self.samples: list[float] = []  # reference seconds
        self.raw: list[float] = []  # wall seconds
        self.once()  # untimed: warms the file and bytecode caches

    def once(self) -> float:
        out = subprocess.run(self.cmd, env=self.env, capture_output=True, text=True,
                             timeout=SETUP_TIMEOUT, check=True)
        return float(out.stdout.split()[-1])

    def due(self, k: int) -> int:
        """Probes to take before job k: SETUP_SAMPLES spread evenly."""
        return (k + 1) * SETUP_SAMPLES // self.n_jobs - k * SETUP_SAMPLES // self.n_jobs


def tail_latency(latencies: list[float]) -> float:
    """The TAIL_PERCENTILE job latency, interpolated between jobs.

    A list of 11 to 16 jobs cannot have ten jobs beyond a percentile
    above its median, so the tail is a fixed high percentile instead.
    """
    if len(latencies) < 2:
        return latencies[0]
    return statistics.quantiles(latencies, n=100, method="inclusive")[TAIL_PERCENTILE - 1]


def digest(jobs, results: list[JobResult]) -> str:
    h = hashlib.sha256()
    for job, res in zip(jobs, results):
        for call in res.calls:
            h.update(f"{job.name}/{call.mode}\n".encode())
            h.update(call.report or b"<none>")
    return h.hexdigest()


def census_list(results: list[JobResult]) -> list[str]:
    """Per-job (i, delta) from the first census report of each job."""
    out = []
    for res in results:
        pairs = [c.census for c in res.calls if c.census is not None]
        out.append(f"{res.name}={pairs[0][0]},{pairs[0][1]}" if pairs
                   else f"{res.name}={'fail' if res.failed else 'pass'}")
    return out


def summarize_failures(results: list[JobResult]) -> list[str]:
    lines = []
    for res in results:
        for call in res.calls:
            if call.problems:
                lines.append(f"  failed {res.name} {call.mode}: {'; '.join(call.problems)}")
    return lines


def measure(workload: str, seed: int, n_jobs: int, trace: bool,
            deadline: float) -> tuple[list[str], dict]:
    """Run one workload; return the report lines and the result object.

    Jobs stop being started after ``deadline`` (a perf_counter time), so
    a much slower program still exits in time; the lines say so.
    """
    import curvex.cli as cli

    spec = load_spec()
    workdir = WORK / workload
    shutil.rmtree(workdir, ignore_errors=True)
    probe = None if trace else SetupProbe(workload, seed, n_jobs, workdir / "setup")
    jobs = workloads.build_jobs(workload, seed, n_jobs, workdir / "inputs")
    outdir = workdir / "reports"
    warm = run_jobs(cli, jobs[:1], outdir, deadline)  # untimed warm-up

    results = run_jobs(cli, jobs, outdir, deadline, probe)
    passes = [results]
    if trace:
        with traced(Tracer()) as tracer:
            traced_results = run_jobs(cli, jobs, outdir, deadline)
        passes.append(traced_results)
        overhead = sum(r.seconds * r.scale for r in traced_results) \
            - sum(r.seconds * r.scale for r in results[:len(traced_results)])
        scale = sum(r.seconds * r.scale for r in traced_results) \
            / sum(r.seconds for r in traced_results)
        metrics = per_layer_metrics(tracer, spec["per_layer"], len(traced_results),
                                    overhead, scale)
        results = traced_results

    # reports are byte-stable by design: every pass must reproduce the
    # warm-up job's bytes and the first pass's bytes
    stable = all(a.report == b.report for a, b in zip(warm[0].calls, passes[0][0].calls))
    for later in passes[1:]:
        stable &= all(a.report == b.report for ra, rb in zip(passes[0], later)
                      for a, b in zip(ra.calls, rb.calls))
    correct = stable and not any(r.silent for p in passes for r in p)

    first = passes[0]
    n = len(first)
    latencies = [r.seconds * r.scale for r in first]
    raw = [r.seconds for r in first]
    jobs_per_s = n / sum(r.busy * r.scale for r in first)
    raw_jobs_per_s = n / sum(r.busy for r in first)
    failed = sum(r.failed for r in results)
    tail = tail_latency(latencies)
    p50 = statistics.median(latencies)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not trace:
        values = {
            "setup_s": statistics.median(probe.samples),
            "jobs_per_s": jobs_per_s,
            "job_s.p50": p50,
            "job_s.tail": tail,
            "peak_rss_mb": rss_mb,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    pins = " ".join(f"{k}={v}" for k, v in THREAD_PINS.items())
    lines = [f"# curvex bench: workload={workload} seed={seed} jobs={n_jobs} "
             f"closed loop, 1 client; {pins}; CURVEX_THREADS unset; times in "
             f"reference seconds (speedref kernel {speedref.NOMINAL_S} s), wall in ()"]
    if len(results) < n_jobs or n < n_jobs:
        lines.append(f"# deadline reached: ran {n} and {len(results)} of {n_jobs} jobs")
    if probe is not None:
        lines.append(f"setup_s      {statistics.median(probe.samples):.4f} s    "
                     f"(wall {statistics.median(probe.raw):.4f}; median of "
                     f"{len(probe.samples)} fresh interpreters)")
    lines += [
        f"jobs_per_s   {jobs_per_s:.4f} 1/s  (wall {raw_jobs_per_s:.4f}; {n} jobs)",
        f"job_s.p50    {p50:.4f} s    (wall {statistics.median(raw):.4f}; n={n})",
        f"job_s.tail   {tail:.4f} s    (wall {tail_latency(raw):.4f}; "
        f"p{TAIL_PERCENTILE}, n={n})",
        "job_s " + " ".join(f"{r.name}={lat:.3f}" for r, lat in zip(first, latencies)),
        f"fail_share   {failed / len(results):.4f} 1    ({failed} failed of "
        f"{len(results)} attempted)",
        f"peak_rss_mb  {rss_mb:.1f} MB",
        *summarize_failures(results),
        f"digest {workload} sha256={digest(jobs, first)} "
        f"byte_stable={str(stable).lower()}",
        "census " + " ".join(census_list(first)),
    ]
    if trace:
        lines += [f"{name:44s} {m['value']:.6g} {m['unit']}"
                  for name, m in metrics.items()]
    return lines, {"correct": correct, "attempted": len(results), "failed": failed,
                   "metrics": metrics}


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in load_spec()["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "curvex" / "__init__.py").is_file():
        print(f"bench: no curvex package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    n_jobs = max(2, round(args.seconds * JOBS_PER_SECOND[args.workload]))
    lines, result = measure(args.workload, args.seed, n_jobs, bool(args.trace),
                            started + DEADLINE_S)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
