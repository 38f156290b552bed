"""Seeded inputs, the inflection oracle and the job lists of the benchmark.

Everything here is plain numpy and JSON, so building the inputs does not
touch curvex: the benchmark hands the program only the generated files.

Random deviations follow one recipe: f(t) = sum over odd k in 3..9 of
a_k cos kt + b_k sin kt with a_k, b_k ~ N(0, 1) / k**1.5.  A sphere input
is the lift (cos t, sin t, f(t)); a width input is the support function
h = d/2 + f with d set from the convexity bound h + h'' > 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HARMONICS = (3, 5, 7, 9)
WIDTH_MARGIN = 1.25  # d/2 exceeds max(-(f + f'')) by this factor
ORACLE_SAMPLES = 4096  # per half period; 1024 already matches 2**17 on 3000 draws
# the oracle grid starts off zero so that no root of the corpus (sin 3t
# vanishes at 0) falls exactly on a sample
ORACLE_OFFSET = math.pi / ORACLE_SAMPLES * (math.sqrt(5.0) - 1.0) / 2.0

# the seven curves of tests/conftest.py, declared again so the benchmark
# does not import the test suite: sphere lifts z = f and support functions
CORPUS_SPHERE = {
    "curve3": ((3, 0.0, 0.1),),
    "curve5": ((3, 0.0, 0.05), (5, 0.0, 0.05)),
    "curve7": ((3, 0.0, 0.05), (5, 0.0, 0.05), (7, 0.0, 0.025)),
}
CORPUS_WIDTH = {
    "sin3": (20.0, ((3, 0.0, 1.0),)),
    "mix25": (30.0, ((3, 0.0, 1.0), (5, 0.0, 0.25))),
    "mix4": (40.0, ((3, 0.0, 1.0), (5, 0.0, 0.4))),
    "mix7": (120.0, ((3, 0.0, 1.0), (5, 0.0, 1.0), (7, 0.0, 0.5))),
}


def random_harmonics(rng: np.random.Generator) -> tuple:
    return tuple((k, rng.normal() / k ** 1.5, rng.normal() / k ** 1.5)
                 for k in HARMONICS)


def flex_indicator(harmonics, ts: np.ndarray) -> np.ndarray:
    """f + f'' on a grid; for a lift it equals det(F, F', F'')."""
    out = np.zeros_like(ts)
    for k, a, b in harmonics:
        out += (1 - k * k) * (a * np.cos(k * ts) + b * np.sin(k * ts))
    return out


def oracle(harmonics) -> tuple[int, int]:
    """Expected (i, delta) of the census of f, independent of both detectors.

    i is the number of sign changes of f + f'' on a half period, counted
    cyclically with the antiperiodic closure sign(t + pi) = -sign(t); the
    theorem i - 2*delta = 3 then fixes delta.
    """
    ts = ORACLE_OFFSET + np.linspace(0.0, math.pi, ORACLE_SAMPLES, endpoint=False)
    s = np.signbit(flex_indicator(harmonics, ts))
    i = int(np.count_nonzero(s[1:] != s[:-1])) + int(s[-1] == s[0])
    return i, (i - 3) // 2


def truncation(harmonics) -> tuple[int, tuple]:
    """The truncate mode's index n for f and the harmonics kept at n.

    n is the largest index whose cut (k <= 2n - 1) drops the top harmonic,
    so the cut at n + 2 keeps the whole series.  A series of k = 3 alone
    would be left constant; it is cut at n = 2, which keeps it whole.
    """
    top = max(k for k, _, _ in harmonics)
    n = max(2, (top - 1) // 2)
    return n, tuple(h for h in harmonics if h[0] <= 2 * n - 1)


def support_width(harmonics) -> float:
    """A width that clears h + h'' > 0 with margin, rounded up to 1/8, for
    f and for its truncation (the truncate mode builds both)."""
    ts = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    deficit = max(0.0, *(float(-np.min(flex_indicator(h, ts)))
                         for h in (harmonics, truncation(harmonics)[1])))
    return math.ceil(2.0 * WIDTH_MARGIN * deficit * 8.0 + 1.0) / 8.0


def series_json(harmonics) -> dict:
    return {"parity": "antiperiodic", "constant": 0.0,
            "harmonics": [[int(k), float(a), float(b)] for k, a, b in harmonics]}


def lift_json(harmonics) -> dict:
    return {"x": series_json(((1, 1.0, 0.0),)),
            "y": series_json(((1, 0.0, 1.0),)),
            "z": series_json(harmonics)}


def support_json(d: float, harmonics) -> dict:
    return {"d": d, "f": series_json(harmonics)}


@dataclass
class Call:
    """One CLI invocation: a mode, the input file and the extra flags.

    ``cut`` is for truncate: the oracle (i, delta) of the lower truncation,
    or None when that truncation keeps the whole series.
    """

    mode: str
    input: str
    extra: tuple[str, ...] = ()
    cut: tuple[int, int] | None = None

    @property
    def exit_code(self) -> int:
        """The right exit code.  truncate exits 1 when its two truncations
        disagree, which they must when the lower one drops a harmonic:
        the flexes move by far more than its 1e-4 tolerance."""
        return 0 if self.cut is None else 1


@dataclass
class Job:
    """One unit of closed-loop load: CLI calls on one deviation f."""

    name: str
    expected: tuple[int, int]
    calls: list[Call] = field(default_factory=list)


def _deviations(corpus: list, n_jobs: int, rng: np.random.Generator) -> list:
    """(name, d, harmonics) for each job: the corpus first, then seeded
    random deviations with d from the convexity bound."""
    out = list(corpus)[:n_jobs]
    for j in range(n_jobs - len(out)):
        h = random_harmonics(rng)
        out.append((f"r{j:03d}", support_width(h), h))
    return out


def build_jobs(workload: str, seed: int, n_jobs: int, workdir: Path) -> list[Job]:
    """The fixed job list of a workload at a seed; writes the input JSON.

    The corpus is always part of the list, so known defects on it are in
    every run; the rest are random deviations from the seed.
    """
    rng = np.random.default_rng(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = []

    def write(name: str, payload: dict) -> str:
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
        return str(path)

    sphere = [(name, support_width(h), h) for name, h in CORPUS_SPHERE.items()]
    width = [(name, d, h) for name, (d, h) in CORPUS_WIDTH.items()]
    if workload == "sphere":
        for name, _, h in _deviations(sphere, n_jobs, rng):
            job = Job(name, oracle(h))
            job.calls.append(Call("sphere-census", write(name, lift_json(h))))
            jobs.append(job)
    elif workload == "width":
        for name, d, h in _deviations(width, n_jobs, rng):
            path = write(name, support_json(d, h))
            n, kept = truncation(h)
            cut = oracle(kept) if len(kept) < len(h) else None
            job = Job(name, oracle(h))
            job.calls += [Call("width-census", path), Call("flexes", path),
                          Call("theorem-c", path),
                          Call("truncate", path, ("--truncate-n", str(n)), cut)]
            jobs.append(job)
    elif workload == "axioms":
        # all seven corpus deviations (the systems tests/conftest.py checks
        # the axioms on) keep most of this short list fixed across seeds
        for name, d, h in _deviations(sphere + width, n_jobs, rng):
            job = Job(name, oracle(h))
            job.calls += [Call("axioms", write(f"{name}-lift", lift_json(h))),
                          Call("axioms", write(f"{name}-support", support_json(d, h)))]
            jobs.append(job)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs
