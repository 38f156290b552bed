"""Outside-in layer trace: wraps curvex's public functions from the benchmark.

Nothing in the package is edited.  Each traced function is replaced at
every module attribute that holds it, because curvex imports functions
by name (cli imports ``census``, width imports
``count_inflections_topological``, census imports ``true_inflections``,
and so on); patching only the defining module would miss those calls.

Spans record inclusive time (outermost call of a name only, so
recursion and re-entry are not counted twice) and self time (duration
minus the time covered by child spans).  Hot, small calls get plain
counters instead of spans, since a span per call would cost more than
the call.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np


def _observe_detection(result, counts, name):
    counts[f"{name}.intervals"] += len(result.intervals)
    counts[f"{name}.dropped"] += result.dropped


def _observe_a2(result, counts, name):
    counts[f"{name}.dropped"] += result[1]


def _observe_limiting_circle(result, counts, name):
    if result.warnings:
        counts[f"{name}.fallbacks"] += 1


# (module, attribute, span name, observer of the return value).  Spans
# not reported themselves (census.census, width.census_fn,
# width.clean_flexes) still split time, so cli.main.self_s is the CLI's
# own parsing, plotting and report writing.
SPANS = (
    ("curvex.cli", "main", "cli.main", None),
    ("curvex.census", "census", "census.census", None),
    ("curvex.census", "detect_double_tangents", "census.detect_double_tangents",
     _observe_detection),
    ("curvex.census", "chord", "census.chord", None),
    ("curvex.census", "count_inflections_topological",
     "census.count_inflections_topological", None),
    ("curvex.sphere", "true_inflections", "sphere.true_inflections", None),
    ("curvex.sphere", "admissible_normal_arc", "sphere.admissible_normal_arc", None),
    ("curvex.sphere", "limiting_circle", "sphere.limiting_circle",
     _observe_limiting_circle),
    ("curvex.width", "census_fn", "width.census_fn", None),
    ("curvex.width", "clean_flexes", "width.clean_flexes", None),
    ("curvex.width", "limiting_function", "width.limiting_function", None),
    ("curvex.width", "a2_double_tangents", "width.a2_double_tangents", _observe_a2),
    ("curvex.width", "theorem_c_certificates", "width.theorem_c_certificates", None),
    ("curvex.linesys", "three_clean_inflections", "linesys.three_clean_inflections",
     None),
    ("curvex.linesys", "check_axioms", "linesys.check_axioms", None),
    ("curvex.trig", "isolate_sign_changes", "trig.isolate_sign_changes", None),
)

# (module, class, method, counter name): counted, not timed
COUNTED_METHODS = (
    ("curvex.circle", "CircularSet", "extremum_in_window", "circle.extremum_in_window"),
    ("curvex.circle", "CircularSet", "set_equal", "circle.set_equal"),
)


# What each per-layer metric of BENCHMARK.json should move: the
# end-to-end metric and the workloads it moves it on, which the
# benchmark's schema has no room for.  Every value is per job.  ``*.s``
# is inclusive busy time, ``*.self_s`` that time minus child spans,
# counts repeat exactly for a seed.
PER_LAYER = {
    "census.detect_double_tangents.calls": ("job_s.p50", "sphere"),
    "census.detect_double_tangents.s": ("job_s.p50 jobs_per_s", "sphere"),
    "census.detect_double_tangents.intervals": ("fail_share", "sphere"),
    "census.detect_double_tangents.dropped": ("job_s.p50", "sphere"),
    "census.chord.calls": ("job_s.p50", "sphere"),
    "census.chord.s": ("job_s.p50", "sphere"),
    "sphere.admissible_normal_arc.calls": ("job_s.p50", "sphere"),
    "census.count_inflections_topological.calls": ("job_s.p50 jobs_per_s", "width"),
    "census.count_inflections_topological.s": ("job_s.p50 jobs_per_s", "width"),
    "sphere.limiting_circle.calls": ("jobs_per_s", "axioms sphere"),
    "sphere.limiting_circle.s": ("jobs_per_s", "axioms sphere"),
    "sphere.limiting_circle.fallbacks": ("jobs_per_s", ""),
    "sphere.true_inflections.s": ("job_s.p50", "sphere"),
    "width.limiting_function.calls": ("jobs_per_s", "width axioms"),
    "width.limiting_function.s": ("jobs_per_s", "width axioms"),
    "width.a2_double_tangents.s": ("job_s.p50", "width"),
    "width.a2_double_tangents.dropped": ("job_s.p50", "width"),
    "width.theorem_c_certificates.s": ("job_s.p50 fail_share", "width"),
    "linesys.F.calls": ("jobs_per_s", "axioms sphere"),
    "linesys.F.misses": ("jobs_per_s", "axioms sphere"),
    "linesys.three_clean_inflections.self_s": ("job_s.p50", "sphere width"),
    "linesys.check_axioms.self_s": ("jobs_per_s", "axioms"),
    "circle.extremum_in_window.calls": ("jobs_per_s", "axioms"),
    "circle.set_equal.calls": ("jobs_per_s", "axioms"),
    "trig.eval.scalar_calls": ("jobs_per_s", "sphere width axioms"),
    "trig.eval.array_calls": ("jobs_per_s", "sphere width axioms"),
    "trig.isolate_sign_changes.calls": ("job_s.p50", "width"),
    "trig.isolate_sign_changes.s": ("job_s.p50", "width"),
    "cli.main.self_s": ("setup_s job_s.p50", "sphere width axioms"),
    "trace.overhead_s": ("", ""),
}
# metrics that must read exactly zero on a workload: the layer is not on
# that workload's path at all
PREDICTED_ZERO = {
    "census.detect_double_tangents.calls": ("width", "axioms"),
    "census.count_inflections_topological.calls": ("sphere", "axioms"),
    "sphere.limiting_circle.calls": ("width",),
}


class Tracer:
    """Span and counter store for one traced stretch of jobs."""

    def __init__(self):
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self._stack: list[list] = []  # [name, start, child seconds]
        self._depth = Counter()

    def _enter(self, name):
        self.counts[f"{name}.calls"] += 1
        self._depth[name] += 1
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self, name):
        _, start, children = self._stack.pop()
        dur = time.perf_counter() - start
        self._depth[name] -= 1
        if not self._depth[name]:
            self.inclusive[name] += dur
        self.self_time[name] += dur - children
        if self._stack:
            self._stack[-1][2] += dur

    def span(self, fn, name, observe=None):
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name)
            if observe is not None:
                observe(result, self.counts, name)
            return result
        return traced

    def counted(self, fn, name):
        counts = self.counts

        def count(*args, **kwargs):
            counts[f"{name}.calls"] += 1
            return fn(*args, **kwargs)
        return count

    def line_system_F(self, fn):
        """LineSystem.F as a span that also counts cache misses (calls
        that grow the system's cache)."""
        traced = self.span(fn, "linesys.F")
        counts = self.counts

        def F(system, p):
            before = len(system._cache)
            out = traced(system, p)
            if len(system._cache) > before:
                counts["linesys.F.misses"] += 1
            return out
        return F

    def trig_call(self, fn):
        """TrigSeries.__call__, counted by scalar and array argument."""
        counts = self.counts

        def call(series, t):
            if isinstance(t, np.ndarray):
                counts["trig.eval.array_calls"] += 1
            else:
                counts["trig.eval.scalar_calls"] += 1
            return fn(series, t)
        return call


def _replace_everywhere(original, replacement, undo):
    """Point every curvex module attribute bound to ``original`` at the
    replacement, recording each site for restoration."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "curvex" or modname.startswith("curvex.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))


@contextmanager
def traced(tracer: Tracer):
    """Install the tracer on the imported curvex package; restore on exit."""
    import curvex.cli  # noqa: F401  (loads every traced module)

    undo: list[tuple] = []
    try:
        for modname, attr, name, observe in SPANS:
            # modules come from sys.modules: the package attribute
            # ``curvex.census`` is the function that shadows the submodule
            original = getattr(sys.modules[modname], attr)
            _replace_everywhere(original, tracer.span(original, name, observe), undo)
        def patch(cls, meth, wrap):
            original = vars(cls)[meth]
            undo.append((cls, meth, original))
            setattr(cls, meth, wrap(original))

        for modname, cls_name, meth, name in COUNTED_METHODS:
            patch(getattr(sys.modules[modname], cls_name), meth,
                  lambda fn, name=name: tracer.counted(fn, name))
        patch(sys.modules["curvex.linesys"].LineSystem, "F", tracer.line_system_F)
        patch(sys.modules["curvex.trig"].TrigSeries, "__call__", tracer.trig_call)
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def per_layer_metrics(tracer: Tracer, spec: list[dict], n_jobs: int,
                      overhead_s: float, scale: float) -> dict:
    """The per-layer metrics named in ``spec`` (BENCHMARK.json's
    ``per_layer``) from a tracer, per job; span times are multiplied by
    ``scale`` (wall to reference seconds of the traced pass), while
    ``overhead_s`` comes in reference seconds already."""
    values = {}
    for metric in spec:
        name = metric["name"]
        if name == "trace.overhead_s":
            total = overhead_s
        elif name.endswith(".self_s"):
            total = tracer.self_time[name[:-len(".self_s")]] * scale
        elif name.endswith(".s"):
            total = tracer.inclusive[name[:-len(".s")]] * scale
        else:
            total = tracer.counts[name]
        values[name] = {"value": total / n_jobs, "unit": metric["unit"]}
    return values
