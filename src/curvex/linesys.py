"""Contact-set families on the circle: axioms, clean-point search, bounds.

A line system wraps a map p -> closed subset F(p) of the parameter
circle (the contact set of the limiting circle at p, or of the limiting
support-line function).  Everything here is written against that
abstract map: the seven structural axioms are checked extensionally on
grids, positive clean points are located by interval halving, and the
monotone bounds mu-/mu+ on admissible intervals feed the
intermediate-value construction.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .circle import (
    Arc,
    CircularSet,
    EPS_GROUP,
    TWO_PI,
    antipode,
    canonical,
    circle_dist,
    cyclic_between,
    cyclic_midpoint,
    forward_gap,
)
from .errors import (
    AxiomViolation,
    EmptyIntersection,
    EmptyY,
    NoConvergence,
    PreconditionFailed,
    SearchFailed,
)

CLEAN_TOL = 1e-5
MEMBER_TOL = 1e-6
BISECT_CAP = 200
EPS_SEARCH = 1e-9


def _reflected_set(s: CircularSet) -> CircularSet:
    return CircularSet([Arc(-a.end, a.length, s.period) for a in s.arcs],
                       s.period, merge_tol=0.0)


class LineSystem:
    """Cached view over a contact map on the full circle.

    The map takes a list of bases and returns their contact sets in
    order, with the warnings its solver raised; the system caches the
    sets by base and counts the warnings by message.
    """

    def __init__(self, contact_fn: Callable[[list[float]], tuple[list[CircularSet], list[str]]],
                 period: float = TWO_PI, name: str = ""):
        self._fn = contact_fn
        self.period = period
        self.name = name
        self._cache: dict[float, CircularSet] = {}
        self.warnings: Counter[str] = Counter()

    def T(self, p: float) -> float:
        return antipode(p, self.period)

    def F(self, p: float) -> CircularSet:
        return self.F_many([p])[0]

    def F_many(self, ps) -> list[CircularSet]:
        """F at every base of ps; the bases not cached yet go to the
        contact map in one call."""
        keys = [round(canonical(p, self.period), 12) for p in ps]
        missing = list(dict.fromkeys(k for k in keys if k not in self._cache))
        if missing:
            sets, warnings = self._fn(missing)
            self._cache.update(zip(missing, sets))
            self.warnings.update(warnings)
        return [self._cache[k] for k in keys]

    def F0(self, p: float) -> Arc:
        """The component of F(p) containing p."""
        p = canonical(p, self.period)
        comp = self.F(p).component_containing(p, tol=MEMBER_TOL)
        if comp is None:
            raise AxiomViolation("L1", f"p={p} not in its own contact set")
        return comp

    def is_positive_clean(self, p: float, tol: float = CLEAN_TOL) -> bool:
        """Whether the projected contact set equals its base component."""
        F = self.F(p)
        if F.is_full():
            return False
        base = CircularSet([self.F0(p)], self.period)
        return F.project_half().contained_in(base.project_half(), tol)

    def y_plus(self, p: float) -> CircularSet:
        """Contacts in the forward half window, base components removed."""
        p = canonical(p, self.period)
        F = self.F(p)
        base = CircularSet([self.F0(p)], self.period)
        core = F.drop_components_touching(base, EPS_GROUP)
        core = core.drop_components_touching(base.antipodal_image(), EPS_GROUP)
        window = Arc.from_endpoints(p, self.T(p), self.period)
        return CircularSet(core.intersect_window(window), self.period, merge_tol=0.0)

    def reversed(self) -> "LineSystem":
        """The same family seen with the circle orientation reversed."""
        period = self.period

        def rev_fn(ps):
            sets = self.F_many([canonical(-p, period) for p in ps])
            return [_reflected_set(s) for s in sets], []

        return LineSystem(rev_fn, period, name=f"{self.name}~rev")


# -- clean-point search ----------------------------------------------------


def find_clean_inflection(sys: LineSystem, p: float, q: float, *,
                          eps_search: float = EPS_SEARCH,
                          clean_tol: float = CLEAN_TOL,
                          max_iter: int = BISECT_CAP) -> float:
    """Positive clean point inside (p, q), by midpoint halving.

    Requires q in F(p) strictly inside the forward half window and the
    open gap (p, q) clear of p's own component.  Each step replaces the
    interval by a half bracketed between a point of the midpoint's base
    component and a witness of its non-cleanliness.
    """
    period = sys.period
    p, q = canonical(p, period), canonical(q, period)
    if not cyclic_between(p, q, sys.T(p), period):
        raise PreconditionFailed(f"q={q} not strictly inside (p, Tp) for p={p}")
    if not sys.F(p).contains(q, MEMBER_TOL):
        raise PreconditionFailed(f"q={q} is not a contact of p={p}")
    base = sys.F0(p)
    fwd = forward_gap(p, base.end, period)
    if base.contains(q, MEMBER_TOL) or \
            MEMBER_TOL < fwd < forward_gap(p, q, period) - MEMBER_TOL:
        raise PreconditionFailed("the gap (p, q) meets the base component of p")

    lo, hi = p, q
    for _ in range(max_iter):
        if forward_gap(lo, hi, period) < eps_search:
            return cyclic_midpoint(lo, hi, period)
        r = cyclic_midpoint(lo, hi, period)
        Fr = sys.F(r)
        F0r = CircularSet([sys.F0(r)], period)
        if Fr.project_half().contained_in(F0r.project_half(), clean_tol):
            return r
        q1 = _noncleanness_witness(sys, r, Fr, F0r, lo, hi, clean_tol)
        if q1 is None:
            return r
        window = Arc.from_endpoints(lo, hi, period)
        if cyclic_between(r, q1, hi, period):
            try:
                p1 = F0r.extremum_in_window(window, "sup")
            except EmptyIntersection:
                p1 = r
            lo, hi = p1, q1
        else:
            try:
                p1 = F0r.extremum_in_window(window, "inf")
            except EmptyIntersection:
                p1 = r
            lo, hi = q1, p1
        if forward_gap(lo, hi, period) > forward_gap(p, q, period):
            raise NoConvergence("halving interval grew; contact family inconsistent")
    raise SearchFailed(f"no clean point located within {max_iter} halvings")


def _noncleanness_witness(sys, r, Fr, F0r, lo, hi, clean_tol):
    """A contact of r, projectively away from r's base component, placed
    inside the current interval."""
    base_proj = F0r.project_half()
    cands = []
    for comp in Fr.components():
        mid = comp.midpoint
        d = base_proj.distance_to(canonical(mid, base_proj.period))
        if d > clean_tol:
            cands.append((d, mid))
    if not cands:
        return None
    cands.sort(reverse=True)
    for _, mid in cands:
        for rep in (mid, antipode(mid, sys.period)):
            if cyclic_between(lo, rep, hi, sys.period):
                return rep
    raise NoConvergence(
        "non-clean witness escaped the bracketing interval (containment failed)")


def clean_point_between(sys: LineSystem, base: float, contact: float, **kw) -> float:
    """Positive clean point in the open interval bounded by base and contact.

    Handles both sides of the base point; the backward side runs the
    forward search on the orientation-reversed system.
    """
    period = sys.period
    base, contact = canonical(base, period), canonical(contact, period)
    if cyclic_between(base, contact, sys.T(base), period):
        window = Arc.from_endpoints(base, contact, period)
        try:
            p1 = CircularSet([sys.F0(base)], period).extremum_in_window(window, "sup")
        except EmptyIntersection:
            p1 = base
        return find_clean_inflection(sys, p1, contact, **kw)
    rsys = sys.reversed()
    s = clean_point_between(rsys, canonical(-base, period),
                            canonical(-contact, period), **kw)
    return canonical(-s, period)


def three_clean_inflections(sys: LineSystem, *, scan: int = 64,
                            clean_tol: float = CLEAN_TOL,
                            **kw) -> tuple[float, float, float]:
    """Three positive clean points s1, s2, s3 with s2 in (s1, Ts1),
    s3 in (Ts1, s1) and mutually disjoint contact sets."""
    period = sys.period
    grid = [float(t) for t in np.linspace(0.0, period, scan, endpoint=False)]
    best, best_count = None, -1
    for t, F in zip(grid, sys.F_many(grid)):
        if len(F) > best_count:
            best, best_count = t, len(F)
    if best is None or best_count <= 2:
        raise SearchFailed("no non-clean starting point found on the scan grid")
    p = best
    q = _far_witness(sys, p, sys.F(p), clean_tol)
    s1 = clean_point_between(sys, p, q, clean_tol=clean_tol, **kw)

    ts1 = sys.T(s1)
    u = _far_witness(sys, ts1, sys.F(ts1), clean_tol)
    if not cyclic_between(s1, u, ts1, period):
        u = sys.T(u)
    if not cyclic_between(s1, u, ts1, period):
        raise SearchFailed("witness for the second search escaped (s1, Ts1)")
    s2 = clean_point_between(sys, ts1, u, clean_tol=clean_tol, **kw)
    s3 = clean_point_between(sys, ts1, sys.T(u), clean_tol=clean_tol, **kw)

    if not cyclic_between(s1, s2, ts1, period) or not cyclic_between(ts1, s3, s1, period):
        raise SearchFailed("clean points violate the cyclic placement")
    sets = [sys.F(s) for s in (s1, s2, s3)]
    for i in range(3):
        for j in range(i + 1, 3):
            if not sets[i].disjoint_from(sets[j], tol=1e-9):
                raise SearchFailed(
                    f"contact sets of clean points {i + 1} and {j + 1} overlap")
    return s1, s2, s3


def _far_witness(sys, p, F, clean_tol):
    """Contact of p farthest (projectively) from its base component."""
    base_proj = CircularSet([sys.F0(p)], sys.period).project_half()
    best, best_d = None, clean_tol
    for comp in F.components():
        mid = comp.midpoint
        d = base_proj.distance_to(canonical(mid, base_proj.period))
        if d > best_d:
            best, best_d = mid, d
    if best is None:
        raise SearchFailed(f"p={p} looks clean; no witness component")
    return best


# -- admissible intervals and the monotone bounds ---------------------------


@dataclass(frozen=True)
class AdmissibleInterval:
    a: float
    b: float

    def __post_init__(self):
        object.__setattr__(self, "a", canonical(self.a))
        object.__setattr__(self, "b", canonical(self.b))


def validate_admissible(sys: LineSystem, interval: AdmissibleInterval,
                        grid: int = 16, clean_tol: float = CLEAN_TOL) -> bool:
    """Spot check: b in (a, Ta) and no positive clean point strictly inside."""
    a, b = interval.a, interval.b
    if not cyclic_between(a, b, sys.T(a), sys.period):
        return False
    gap = forward_gap(a, b, sys.period)
    for frac in np.linspace(0.08, 0.92, grid):
        if sys.is_positive_clean(canonical(a + float(frac) * gap, sys.period), clean_tol):
            return False
    return True


@dataclass(frozen=True)
class MuBounds:
    mu_minus: float
    mu_plus: float


def mu_bounds(sys: LineSystem, interval: AdmissibleInterval, p: float, *,
              clean_tol: float = CLEAN_TOL, edge_tol: float = 1e-11) -> MuBounds:
    """Infimum and supremum of the forward witness set at p, with the
    special branches at the interval endpoints."""
    period = sys.period
    p = canonical(p, period)
    a, b = interval.a, interval.b
    window = Arc.from_endpoints(p, sys.T(p), period)

    if circle_dist(p, a, period) <= edge_tol and sys.is_positive_clean(a, clean_tol):
        tf0 = CircularSet([sys.F0(a)], period).antipodal_image()
        mu_minus = tf0.extremum_in_window(window, "inf")
        y = sys.y_plus(a)
        mu_plus = y.extremum_in_window(window, "sup") if y else mu_minus
        return MuBounds(mu_minus, mu_plus)
    if circle_dist(p, b, period) <= edge_tol and sys.is_positive_clean(b, clean_tol):
        f0 = CircularSet([sys.F0(b)], period)
        mu_plus = f0.extremum_in_window(window, "sup")
        y = sys.y_plus(b)
        mu_minus = y.extremum_in_window(window, "inf") if y else mu_plus
        return MuBounds(mu_minus, mu_plus)

    y = sys.y_plus(p)
    if not y:
        raise EmptyY(f"no forward witnesses at p={p}")
    return MuBounds(y.extremum_in_window(window, "inf"),
                    y.extremum_in_window(window, "sup"))


def intermediate_point(sys: LineSystem, interval: AdmissibleInterval, q: float, *,
                       tol: float = EPS_GROUP, clean_tol: float = CLEAN_TOL) -> float:
    """A point p in (a, b) whose witness bounds straddle q.

    q must lie strictly inside the window (mu+(b), mu-(a)); the point is
    the infimum of {x : mu+(x) <= q}, located by bisection using the
    monotonicity of mu+.
    """
    period = sys.period
    a, b = interval.a, interval.b
    q = canonical(q, period)
    mu_plus_b = mu_bounds(sys, interval, b, clean_tol=clean_tol).mu_plus
    mu_minus_a = mu_bounds(sys, interval, a, clean_tol=clean_tol).mu_minus
    if not cyclic_between(mu_plus_b, q, mu_minus_a, period):
        raise PreconditionFailed(
            f"q={q} outside the window ({mu_plus_b}, {mu_minus_a})")

    anchor = a
    qpos = forward_gap(anchor, q, period)
    gap = forward_gap(a, b, period)

    def predicate(x: float) -> bool:
        mb = mu_bounds(sys, interval, x, clean_tol=clean_tol)
        return forward_gap(anchor, mb.mu_plus, period) <= qpos

    lo_frac, hi_frac = 0.02, 0.98
    if predicate(canonical(a + lo_frac * gap, period)):
        hi_frac = lo_frac
    elif not predicate(canonical(a + hi_frac * gap, period)):
        lo_frac = hi_frac
    while hi_frac - lo_frac > 1e-11:
        mid = 0.5 * (lo_frac + hi_frac)
        if predicate(canonical(a + mid * gap, period)):
            hi_frac = mid
        else:
            lo_frac = mid

    for frac in (0.5 * (lo_frac + hi_frac), hi_frac, lo_frac):
        x = canonical(a + frac * gap, period)
        try:
            mb = mu_bounds(sys, interval, x, clean_tol=clean_tol)
        except EmptyY:
            continue
        lo_ok = forward_gap(anchor, mb.mu_minus, period) <= qpos + tol
        hi_ok = forward_gap(anchor, mb.mu_plus, period) >= qpos - tol
        if lo_ok and hi_ok:
            return x
    raise NoConvergence(f"bounds never straddled q={q}")


# -- the axiom checker ------------------------------------------------------


@dataclass
class AxiomResult:
    axiom: str
    passed: bool
    checked: int
    witnesses: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {"axiom": self.axiom, "pass": self.passed,
                "checked": self.checked,
                "witness": self.witnesses[0] if self.witnesses else None}


@dataclass
class AxiomReport:
    results: list[AxiomResult]

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self) -> dict:
        return {"all_pass": self.all_pass,
                "axioms": [r.to_json() for r in self.results]}


def check_axioms(sys: LineSystem, grid_size: int = 256, *,
                 set_tol: float = 1e-3, margin: float = 1e-3,
                 clean_tol: float = CLEAN_TOL) -> AxiomReport:
    """Extensional check of the seven contact-family axioms on a grid.

    Sampled configurations only: the order axiom runs over lagged pairs,
    the closedness axiom over grid-refinement sequences.  Failures are
    collected with witnesses instead of raised.
    """
    period = sys.period
    if grid_size % 2:
        grid_size += 1
    grid = [canonical(i * period / grid_size, period) for i in range(grid_size)]
    sets = dict(zip(grid, sys.F_many(grid)))

    results = [
        _check_l1(sys, grid, sets),
        _check_l2(sys, grid, sets),
        _check_l3(sys, grid, sets, set_tol),
        _check_l4(sys, grid, sets, set_tol, margin),
        _check_l5(sys, grid, clean_tol),
        _check_l6(sys, grid, sets, set_tol, margin),
        _check_l7(sys, grid, set_tol),
    ]
    return AxiomReport(results)


def _check_l1(sys, grid, sets):
    res = AxiomResult("L1", True, len(grid))
    for p in grid:
        if not sets[p].contains(p, MEMBER_TOL):
            res.passed = False
            res.witnesses.append({"p": p})
    return res


def _check_l2(sys, grid, sets, max_components: int = 64):
    res = AxiomResult("L2", True, len(grid))
    for p in grid:
        F = sets[p]
        if not F or F.is_full() or len(F) > max_components \
                or F.measure > sys.period - 0.05:
            res.passed = False
            res.witnesses.append({"p": p, "components": len(F),
                                  "measure": F.measure})
    return res


def _check_l3(sys, grid, sets, set_tol):
    res = AxiomResult("L3", True, len(grid))
    for p in grid:
        if not sets[p].set_equal(sets[p].antipodal_image(), set_tol):
            res.passed = False
            res.witnesses.append({"p": p})
    return res


def _l4_config(period, sets, p, q, margin):
    """Find p' in F(p), q' in F(q) with p < q < p' < q' < Tp, every gap
    at least the margin; returns the pair or None.

    Degenerate chains with coinciding points (e.g. q = p' = q', which
    needs only one shared circle point) carry no two-intersection
    rigidity and fail even on honest families, so only strictly
    separated configurations are tested."""
    tp = antipode(p, period)
    if forward_gap(p, q, period) < margin or \
            forward_gap(q, tp, period) < 3.0 * margin:
        return None
    try:
        w1 = Arc.from_endpoints(canonical(q + margin, period),
                                canonical(tp - margin, period), period)
        p1 = sets[p].extremum_in_window(w1, "inf")
        if forward_gap(p1, tp, period) < 2.0 * margin:
            return None
        w2 = Arc.from_endpoints(canonical(p1 + margin, period),
                                canonical(tp - margin, period), period)
        q1 = sets[q].extremum_in_window(w2, "sup")
    except EmptyIntersection:
        return None
    return (p1, q1)


def _check_l4(sys, grid, sets, set_tol, margin, lags=(1, 2, 3, 5, 8, 13, 21, 34)):
    res = AxiomResult("L4", True, 0)
    period = sys.period
    # the descending configuration is the ascending one after an
    # orientation flip, so run both passes on (possibly reflected) caches
    rsets = {canonical(-p, period): _reflected_set(sets[p]) for p in grid}
    rgrid = sorted(rsets.keys())
    for pass_grid, pass_sets, tag in ((grid, sets, "asc"), (rgrid, rsets, "desc")):
        n = len(pass_grid)
        for i in range(n):
            for lag in lags:
                p, q = pass_grid[i], pass_grid[(i + lag) % n]
                if forward_gap(p, q, period) >= 0.5 * period:
                    continue
                cfg = _l4_config(period, pass_sets, p, q, margin)
                if cfg is None:
                    continue
                res.checked += 1
                if not pass_sets[p].set_equal(pass_sets[q], set_tol):
                    res.passed = False
                    if len(res.witnesses) < 3:
                        res.witnesses.append({"p": p, "q": q, "p1": cfg[0],
                                              "q1": cfg[1], "pass": tag})
    return res


def _check_l5(sys, grid, clean_tol):
    res = AxiomResult("L5", True, 0)
    for p in grid:
        if sys.is_positive_clean(p, clean_tol):
            res.checked += 1
            if sys.is_positive_clean(sys.T(p), clean_tol):
                res.passed = False
                res.witnesses.append({"p": p})
    return res


def _check_l6(sys, grid, sets, set_tol, margin):
    res = AxiomResult("L6", True, 0)
    period = sys.period
    for p in grid:
        comp = sets[p].component_containing(p, MEMBER_TOL)
        if comp is None:
            continue
        for rep in (comp.start, comp.end, comp.midpoint):
            if circle_dist(rep, p, period) <= margin:
                continue
            res.checked += 1
            if not sys.F(rep).set_equal(sets[p], set_tol):
                res.passed = False
                if len(res.witnesses) < 3:
                    res.witnesses.append({"p": p, "q": rep, "direction": "forward"})
    n = len(grid)
    for i in range(n):
        for j in range(i + 1, min(i + 4, n)):
            p, q = grid[i], grid[j]
            if circle_dist(p, q, period) <= margin:
                continue
            if sets[p].set_equal(sets[q], set_tol):
                res.checked += 1
                comp = sets[p].component_containing(p, MEMBER_TOL)
                if comp is None or not comp.contains(q, set_tol):
                    res.passed = False
                    if len(res.witnesses) < 3:
                        res.witnesses.append({"p": p, "q": q, "direction": "reverse"})
    return res


def _check_l7(sys, grid, set_tol, bases: int = 6, depth: int = 14):
    res = AxiomResult("L7", True, 0)
    period = sys.period
    step0 = period / 16.0
    for k in range(bases):
        p = grid[(k * len(grid)) // bases]
        s_prev = None
        ok_chain = True
        for d in range(1, depth + 1):
            pk = canonical(p + step0 * 0.5 ** d, period)
            Fk = sys.F(pk)
            tp = sys.T(pk)
            if s_prev is None:
                # track a contact away from both base components, so the
                # check is not trivially satisfied by p or Tp themselves
                mids = [c.midpoint for c in Fk.components()
                        if circle_dist(c.midpoint, pk, period) > 0.1
                        and circle_dist(c.midpoint, tp, period) > 0.1]
                if not mids:
                    ok_chain = False
                    break
                s_prev = mids[0]
            else:
                mids = [c.midpoint for c in Fk.components()]
                mids.sort(key=lambda m: circle_dist(m, s_prev, period))
                s_prev = mids[0]
        if not ok_chain or s_prev is None:
            continue
        res.checked += 1
        if sys.F(p).distance_to(s_prev) > 10.0 * set_tol:
            res.passed = False
            res.witnesses.append({"p": p, "limit": s_prev,
                                  "dist": sys.F(p).distance_to(s_prev)})
    return res
