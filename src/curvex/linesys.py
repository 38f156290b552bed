"""Contact-set families on the circle: axioms, clean-point search, bounds.

A line system wraps a map p -> closed subset F(p) of the parameter
circle (the contact set of the limiting circle at p, or of the limiting
support-line function).  Everything here is written against that
abstract map: the seven structural axioms are checked extensionally on
grids, positive clean points are located by interval halving, and the
monotone bounds mu-/mu+ on admissible intervals feed the
intermediate-value construction.

The one input from outside the map is optional: given the curve's
exactly-clean inflections (sphere.clean_inflections), three_clean_inflections
picks its triple among them instead of searching.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .circle import (
    Arc,
    CircularSet,
    EPS_ANGLE,
    EPS_GROUP,
    TWO_PI,
    antipode,
    canonical,
    canonicals,
    circle_dist,
    circle_dists,
    contained_rows,
    cyclic_between,
    cyclic_midpoint,
    dilated_rows,
    equal_rows,
    forward_gap,
    holds_rows,
    merged_rows,
    projected_rows,
    span_table,
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
SCAN = 64  # bases of the search's start scan; the anti-convexity check of census takes half
SET_TOL = 1e-3  # set equality in the axioms
MARGIN = 1e-3  # least separation of the points an axiom compares
L2_MAX_COMPONENTS = 64
L4_LAGS = (1, 2, 3, 5, 8, 13, 21, 34)
L7_CHAINS, L7_DEPTH = 6, 14


def _reflected_set(s: CircularSet) -> CircularSet:
    return CircularSet([Arc(-a.end, a.length, s.period) for a in s.arcs],
                       s.period, merge_tol=0.0)


class LineSystem:
    """Cached view over a contact map on the full circle.

    The map takes a list of bases and returns their contact sets in
    order; the system caches the sets by base and counts the bases asked
    for (reads), its calls to the map and the bases they solved.
    clean_search counts what three_clean_inflections did: the clean
    points it was given and the midpoints its search asked for.
    """

    def __init__(self, contact_fn: Callable[[list[float]], list[CircularSet]],
                 period: float = TWO_PI):
        self._fn = contact_fn
        self.period = period
        self._cache: dict[float, CircularSet] = {}
        self.solves = {"calls": 0, "bases": 0}
        self.reads = 0  # bases asked for through F and F_many, cached or not
        self.clean_search = {"exact_clean": 0, "halvings": 0}

    def T(self, p: float) -> float:
        return antipode(p, self.period)

    def _key(self, p: float) -> float:
        """The base under which F(p) is solved and cached."""
        return round(canonical(p, self.period), 12)

    def F(self, p: float) -> CircularSet:
        return self.F_many([p])[0]

    def F_many(self, ps) -> list[CircularSet]:
        """F at every base of ps; the bases not cached yet go to the
        contact map in one call."""
        keys = [self._key(p) for p in ps]
        self.reads += len(keys)
        missing = list(dict.fromkeys(k for k in keys if k not in self._cache))
        if missing:
            self._cache.update(zip(missing, self._fn(missing)))
            self.solves["calls"] += 1
            self.solves["bases"] += len(missing)
        return [self._cache[k] for k in keys]

    def F0(self, p: float) -> Arc:
        """The component of F(p) containing p."""
        p = canonical(p, self.period)
        return _own_component(self.F(p), p)

    def is_positive_clean(self, p: float, tol: float = CLEAN_TOL) -> bool:
        """Whether the projected contact set equals its base component."""
        F = self.F(p)
        if F.is_full():
            return False
        base = CircularSet([_own_component(F, canonical(p, self.period))], self.period)
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


# -- clean-point search ----------------------------------------------------


def _own_component(F: CircularSet, p: float) -> Arc:
    """The component of the contact set F of p containing p."""
    comp = F.component_containing(p, tol=MEMBER_TOL)
    if comp is None:
        raise AxiomViolation("L1", f"p={p} not in its own contact set")
    return comp


def find_clean_inflection(sys: LineSystem, p: float, q: float) -> float:
    """Positive clean point inside (p, q), by midpoint halving.

    Requires q in F(p) strictly inside the forward half window and the
    open gap (p, q) clear of p's own component.  Each step replaces the
    interval by a half bracketed between a point of the midpoint's base
    component and a witness of its non-cleanliness.
    """
    period = sys.period
    p, q = canonical(p, period), canonical(q, period)
    if not cyclic_between(p, q, antipode(p, period), period):
        raise PreconditionFailed(f"q={q} not strictly inside (p, Tp) for p={p}")
    Fp = sys.F(p)
    if not Fp.contains(q, MEMBER_TOL):
        raise PreconditionFailed(f"q={q} is not a contact of p={p}")
    base = _own_component(Fp, p)
    fwd = forward_gap(p, base.end, period)
    if base.contains(q, MEMBER_TOL) or \
            MEMBER_TOL < fwd < forward_gap(p, q, period) - MEMBER_TOL:
        raise PreconditionFailed("the gap (p, q) meets the base component of p")

    lo, hi = p, q
    for _ in range(BISECT_CAP):
        gap = forward_gap(lo, hi, period)
        if gap < EPS_SEARCH:
            return cyclic_midpoint(lo, hi, period)
        r = cyclic_midpoint(lo, hi, period)
        sys.clean_search["halvings"] += 1
        Fr = sys.F(r)
        F0r = CircularSet([_own_component(Fr, r)], period)
        if Fr.project_half().contained_in(F0r.project_half(), CLEAN_TOL):
            return r
        q1 = _noncleanness_witness(period, Fr, F0r, lo, hi)
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
    raise SearchFailed(f"no clean point located within {BISECT_CAP} halvings")


def _far_contacts(F: CircularSet, base: CircularSet) -> list[tuple[float, float]]:
    """(distance, midpoint) of each component of F, in order, whose
    midpoint lies projectively farther than CLEAN_TOL from the base
    component."""
    base_proj = base.project_half()
    out = []
    for comp in F.components():
        d = base_proj.distance_to(canonical(comp.midpoint, base_proj.period))
        if d > CLEAN_TOL:
            out.append((d, comp.midpoint))
    return out


def _noncleanness_witness(period, Fr, F0r, lo, hi):
    """A contact of r, projectively away from r's base component, placed
    inside the current interval."""
    cands = _far_contacts(Fr, F0r)
    if not cands:
        return None
    cands.sort(reverse=True)
    for _, mid in cands:
        for rep in (mid, antipode(mid, period)):
            if cyclic_between(lo, rep, hi, period):
                return rep
    raise NoConvergence(
        "non-clean witness escaped the bracketing interval (containment failed)")


class _Mirrored:
    """sys as the circle with its orientation reversed shows it: the set
    at p is the reflection of the set of sys at the reflection of p's
    key.  It reads through the cache of sys and counts its halvings there."""

    def __init__(self, sys: LineSystem):
        self._sys, self.period, self.clean_search = sys, sys.period, sys.clean_search

    def F(self, p: float) -> CircularSet:
        return _reflected_set(self._sys.F(canonical(-self._sys._key(p), self.period)))


def clean_point_between(sys: LineSystem, base: float, contact: float) -> float:
    """Positive clean point in the open interval bounded by base and contact.

    Handles both sides of the base point; the backward side runs the
    forward search between the reflected points, on the mirrored system,
    and reflects its point back.
    """
    period = sys.period
    base, contact = canonical(base, period), canonical(contact, period)
    if cyclic_between(base, contact, sys.T(base), period):
        return _forward_search(sys, base, contact)
    return canonical(-_forward_search(_Mirrored(sys), canonical(-base, period),
                                      canonical(-contact, period)), period)


def _forward_search(sys, base, contact):
    """Halving from the far end of base's own component towards the
    contact, which lies in the forward half window of base."""
    period = sys.period
    own = CircularSet([_own_component(sys.F(base), base)], period)
    try:
        p1 = own.extremum_in_window(Arc.from_endpoints(base, contact, period), "sup")
    except EmptyIntersection:
        p1 = base
    return find_clean_inflection(sys, p1, contact)


def three_clean_inflections(sys: LineSystem, clean=None) -> tuple[float, float, float]:
    """Three positive clean points s1, s2, s3 with s2 in (s1, Ts1),
    s3 in (Ts1, s1) and mutually disjoint contact sets.

    Given positive clean points clean, s1 is the first of them, in
    ascending order on [0, period), with one in (s1, Ts1) and one in
    (Ts1, s1), and s2 and s3 are the first after s1 and after Ts1; with
    no such s1 it raises SearchFailed before solving any base.  Without
    clean it runs the paper's search: s1, then s2 and s3 from Ts1 towards
    the witness u and its antipode.  Either way each point's contact set
    is read on its own to check the triple."""
    period = sys.period
    if clean is not None:
        sys.clean_search["exact_clean"] = len(clean)
        s1, s2, s3 = _placed_triple(clean, period)
    else:
        grid = [float(t) for t in np.linspace(0.0, period, SCAN, endpoint=False)]
        counts = [len(F) for F in sys.F_many(grid)]
        if max(counts) <= 2:
            raise SearchFailed("no non-clean starting point found on the scan grid")
        p = grid[counts.index(max(counts))]
        s1 = clean_point_between(sys, p, _far_witness(sys, p))
        ts1 = sys.T(s1)
        u = _far_witness(sys, ts1)
        if not cyclic_between(s1, u, ts1, period):
            u = sys.T(u)
        if not cyclic_between(s1, u, ts1, period):
            raise SearchFailed("witness for the second search escaped (s1, Ts1)")
        s2 = clean_point_between(sys, ts1, u)
        s3 = clean_point_between(sys, ts1, sys.T(u))
    ts1 = sys.T(s1)
    if not cyclic_between(s1, s2, ts1, period) or not cyclic_between(ts1, s3, s1, period):
        raise SearchFailed("clean points violate the cyclic placement")
    sets = [sys.F(s) for s in (s1, s2, s3)]
    for i in range(3):
        for j in range(i + 1, 3):
            if not sets[i].disjoint_from(sets[j], tol=1e-9):
                raise SearchFailed(
                    f"contact sets of clean points {i + 1} and {j + 1} overlap")
    return s1, s2, s3


def _placed_triple(clean, period):
    """The triple three_clean_inflections picks from the points clean."""
    pts = sorted(canonical(c, period) for c in clean)
    for k, s1 in enumerate(pts):
        ts1 = antipode(s1, period)
        after = pts[k + 1:] + pts[:k]  # forward from s1
        s2 = next((c for c in after if cyclic_between(s1, c, ts1, period)), None)
        s3 = next((c for c in after if cyclic_between(ts1, c, s1, period)), None)
        if s2 is not None and s3 is not None:
            return s1, s2, s3
    raise SearchFailed(f"no placed triple among the {len(clean)} clean points given")


def _far_witness(sys, p):
    """Contact of p farthest (projectively) from its base component, the
    first in order on a tie."""
    cands = _far_contacts(sys.F(p), CircularSet([sys.F0(p)], sys.period))
    if not cands:
        raise SearchFailed(f"p={p} looks clean; no witness component")
    return max(cands, key=lambda c: c[0])[1]


# -- admissible intervals and the monotone bounds ---------------------------


@dataclass(frozen=True)
class AdmissibleInterval:
    a: float
    b: float

    def __post_init__(self):
        object.__setattr__(self, "a", canonical(self.a))
        object.__setattr__(self, "b", canonical(self.b))


def validate_admissible(sys: LineSystem, interval: AdmissibleInterval) -> bool:
    """Spot check: b in (a, Ta) and no positive clean point at 16 points
    strictly inside."""
    a, b = interval.a, interval.b
    if not cyclic_between(a, b, sys.T(a), sys.period):
        return False
    gap = forward_gap(a, b, sys.period)
    for frac in np.linspace(0.08, 0.92, 16):
        if sys.is_positive_clean(canonical(a + float(frac) * gap, sys.period)):
            return False
    return True


@dataclass(frozen=True)
class MuBounds:
    mu_minus: float
    mu_plus: float


def mu_bounds(sys: LineSystem, interval: AdmissibleInterval, p: float) -> MuBounds:
    """Infimum and supremum of the forward witness set at p, with the
    special branches at a clean endpoint within 1e-11 of p."""
    period = sys.period
    p = canonical(p, period)
    a, b = interval.a, interval.b
    window = Arc.from_endpoints(p, sys.T(p), period)

    if circle_dist(p, a, period) <= 1e-11 and sys.is_positive_clean(a):
        tf0 = CircularSet([sys.F0(a)], period).antipodal_image()
        mu_minus = tf0.extremum_in_window(window, "inf")
        y = sys.y_plus(a)
        mu_plus = y.extremum_in_window(window, "sup") if y else mu_minus
        return MuBounds(mu_minus, mu_plus)
    if circle_dist(p, b, period) <= 1e-11 and sys.is_positive_clean(b):
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


def intermediate_point(sys: LineSystem, interval: AdmissibleInterval, q: float) -> float:
    """A point p in (a, b) whose witness bounds straddle q within EPS_GROUP.

    q must lie strictly inside the window (mu+(b), mu-(a)); the point is
    the infimum of {x : mu+(x) <= q}, located by bisection using the
    monotonicity of mu+.
    """
    period = sys.period
    a, b = interval.a, interval.b
    q = canonical(q, period)
    mu_plus_b = mu_bounds(sys, interval, b).mu_plus
    mu_minus_a = mu_bounds(sys, interval, a).mu_minus
    if not cyclic_between(mu_plus_b, q, mu_minus_a, period):
        raise PreconditionFailed(
            f"q={q} outside the window ({mu_plus_b}, {mu_minus_a})")

    anchor = a
    qpos = forward_gap(anchor, q, period)
    gap = forward_gap(a, b, period)

    def predicate(x: float) -> bool:
        mb = mu_bounds(sys, interval, x)
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
            mb = mu_bounds(sys, interval, x)
        except EmptyY:
            continue
        lo_ok = forward_gap(anchor, mb.mu_minus, period) <= qpos + EPS_GROUP
        hi_ok = forward_gap(anchor, mb.mu_plus, period) >= qpos - EPS_GROUP
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
    # run metadata, not part of the report
    seconds: float = 0.0
    counts: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"axiom": self.axiom, "pass": self.passed,
                "checked": self.checked,
                "witness": self.witnesses[0] if self.witnesses else None}


@dataclass
class AxiomReport:
    results: list[AxiomResult]
    solve_seconds: float = 0.0  # the prefetch; run metadata, not part of the report
    table_seconds: float = 0.0  # the span table and its dilation; run metadata too

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self) -> dict:
        return {"all_pass": self.all_pass,
                "axioms": [r.to_json() for r in self.results]}


def check_axioms(sys: LineSystem, grid_size: int = 256) -> AxiomReport:
    """Extensional check of the seven contact-family axioms on a grid of
    a positive even size, so that every grid point's antipode is on it.

    The grid and the L7 chain bases are solved in one contact-map call;
    L1 to L6 read the grid's sets as one span table, built and dilated by
    SET_TOL once, in array passes.  Sampled configurations only: the order
    axiom runs over lagged pairs, the closedness axiom over grid-refinement sequences.
    Failures are collected with witnesses instead of raised.
    """
    if grid_size < 2 or grid_size % 2:
        raise ValueError(f"the axiom grid must have a positive even size, got {grid_size}")
    period = sys.period
    grid = [canonical(i * period / grid_size, period) for i in range(grid_size)]
    chained = [q for chain in _l7_chains(grid, period)[1] for q in chain]  # cached for L7
    started = time.perf_counter()
    sets = dict(zip(grid, sys.F_many(grid + chained)))
    solved = time.perf_counter()
    tab = span_table([sets[p] for p in grid])
    fat = dilated_rows(tab, SET_TOL, period)
    seconds = (solved - started, time.perf_counter() - solved)
    results = []
    for check in (_check_l1, _check_l2, _check_l3, _check_l4, _check_l5,
                  _check_l6, _check_l7):
        started = time.perf_counter()
        res = check(sys, grid, sets, tab, fat)
        res.seconds = time.perf_counter() - started
        results.append(res)
    return AxiomReport(results, *seconds)


def _at(tab, rows):  # the rows of a span table
    return tab[0][rows], tab[1][rows]


def _check_l1(sys, grid, sets, tab, fat):
    found = _own_rows(tab, np.array(grid), sys.period)[0]
    return AxiomResult("L1", bool(found.all()), len(grid),
                       [{"p": p} for p, ok in zip(grid, found) if not ok])


def _check_l2(sys, grid, sets, tab, fat):
    """Size bounds on all rows in one array pass; each measure is summed
    in order, as CircularSet.measure sums it, and a full set fails on it."""
    count = np.count_nonzero(~np.isnan(tab[0]), axis=1)
    measure = np.cumsum(np.nan_to_num(tab[1]), axis=1)[:, -1]
    bad = (count == 0) | (count > L2_MAX_COMPONENTS) | (measure > sys.period - 0.05)
    witnesses = [{"p": p, "components": len(sets[p]), "measure": sets[p].measure}
                 for p in np.take(grid, np.flatnonzero(bad)).tolist()]
    return AxiomResult("L2", not witnesses, len(grid), witnesses)


def _check_l3(sys, grid, sets, tab, fat):
    """Antipodal symmetry: every grid set equals its half-turn image, all
    rows in one array pass."""
    period = sys.period
    start, length = tab
    turned = merged_rows(canonicals(start + 0.5 * period, period), length, period, 0.0)
    equal, joined = equal_rows(tab, turned, fat, dilated_rows(turned, SET_TOL, period), period)
    res = AxiomResult("L3", bool(equal.all()), len(grid),
                      [{"p": grid[i]} for i in np.flatnonzero(~equal)])
    res.counts = {"rows": len(grid), "merged": int(joined.sum())}
    return res


def _l4_configs(tab_p, tab_q, g, margin, half):
    """Offsets from p of p' in F(p) and q' in F(q) with
    p < q < p' < q' < Tp, every gap at least the margin, for pairs p, q
    at forward gaps g, one per row of the (lo, hi) offset tables tab_p
    and tab_q: arrays (found, p1, q1), one entry per pair.

    p' is the first contact of p in [g + margin, half - margin], q' the
    last contact of q in [p' + margin, half - margin]; window ends count
    within EPS_ANGLE.  Degenerate chains with coinciding points (e.g.
    q = p' = q', which needs only one shared circle point) carry no
    two-intersection rigidity and fail even on honest families, so only
    strictly separated configurations are tested."""
    (lo_p, hi_p), (lo_q, hi_q) = tab_p, tab_q
    top, g = half - margin, g[:, None]
    start = g + margin
    p1 = np.where((hi_p >= start - EPS_ANGLE) & (lo_p <= top + EPS_ANGLE),
                  np.maximum(lo_p, start), math.inf).min(axis=1, initial=math.inf)
    start = (p1 + margin)[:, None]
    lo_q, hi_q = lo_q + g, hi_q + g
    on = (hi_q >= start - EPS_ANGLE) & (lo_q <= top + EPS_ANGLE)
    q1 = np.where(on, np.maximum(np.maximum(np.minimum(hi_q, top), lo_q), start),
                  -math.inf).max(axis=1, initial=-math.inf)
    return (g[:, 0] >= margin) & (half - p1 >= 2.0 * margin) & on.any(axis=1), p1, q1


def _check_l4(sys, grid, sets, tab, fat):
    """The order axiom as a counterexample search over lagged pairs, in
    both orientations: every configuration _l4_configs finds must have
    F(p) = F(q).  Each lag is one array step over the bases of both
    passes; the sets of the configurations found are then compared in one
    more, and witnesses come ascending pass first, then by base and lag."""
    res = AxiomResult("L4", True, 0)
    period, half, n = sys.period, 0.5 * sys.period, len(grid)
    # every set's spans, one row per base, padded with NaN: no test keeps it
    start, length = tab
    # rows 0 .. n-1 are the ascending pass, on the grid in order, and rows
    # n .. 2n-1 the descending one: the ascending pass on the reflected
    # bases -p, sorted, whose forward offsets are the backward offsets of
    # the sets at p; src maps each row to its grid index
    base = np.array(grid, dtype=float)
    reflected = canonicals(-base, period)
    order = np.argsort(reflected, kind="stable")
    bases, src = np.concatenate([base, reflected[order]]), np.concatenate([np.arange(n), order])
    lo = np.concatenate([canonicals(start - base[:, None], period), canonicals(
        base[:, None] - canonicals(start + length, period), period)[order]])
    # offsets clipped to [0, half], padded with (inf, -inf); a component
    # that runs past the base also appears shifted by -period, so the
    # part of it just after the base is kept
    lo, length = np.concatenate([lo, lo - period], axis=1), np.tile(length[src], 2)
    keep = (lo + length >= 0.0) & (lo <= half)
    offs = (np.where(keep, np.maximum(lo, 0.0), math.inf),
            np.where(keep, np.minimum(lo + length, half), -math.inf))
    rows, found = np.arange(2 * n), []
    for lag in L4_LAGS:
        nxt = rows - rows % n + (rows + lag) % n  # q, in the pass of p
        g = canonicals(bases[nxt] - bases, period)
        ok, p1, q1 = _l4_configs(offs, (offs[0][nxt], offs[1][nxt]), g, MARGIN, half)
        found.append((g < half, ok & (g < half), p1, q1))
    tried, ok, p1, q1 = (np.stack(x, axis=1) for x in zip(*found))
    i, k = np.nonzero(ok)
    j = i - i % n + (i + np.take(L4_LAGS, k)) % n
    equal, _ = equal_rows(_at(tab, src[i]), _at(tab, src[j]), _at(fat, src[i]), _at(fat, src[j]),
                          period)
    res.checked, res.passed = len(i), bool(equal.all())
    bad = np.flatnonzero(~equal)[:3]
    for row, lag, other in zip(i[bad], k[bad], j[bad]):
        p = float(bases[row])
        res.witnesses.append(
            {"p": p, "q": float(bases[other]), "p1": canonical(p + float(p1[row, lag]), period),
             "q1": canonical(p + float(q1[row, lag]), period),
             "pass": "asc" if row < n else "desc"})
    res.counts = {"tried": int(np.count_nonzero(tried)), "checked": res.checked}
    return res


def _own_rows(tab, bases, period):
    """The component of each row's set that _own_component picks for the
    row's base: (found, start, length)."""
    start, length = tab
    holds = holds_rows(start, length, bases[:, None], MEMBER_TOL, period)
    k = np.argmax(holds, axis=1)[:, None]
    return (holds.any(axis=1), np.take_along_axis(start, k, axis=1)[:, 0],
            np.take_along_axis(length, k, axis=1)[:, 0])


def _clean_rows(tab, bases, period):
    """LineSystem.is_positive_clean on every row, where a set that misses
    its base is not clean."""
    found, start, length = _own_rows(tab, bases, period)
    own = projected_rows(merged_rows(start[:, None], length[:, None], period, EPS_GROUP), period)
    inside = contained_rows(projected_rows(tab, period), dilated_rows(own, CLEAN_TOL, 0.5 * period),
                            0.5 * period)
    return found & (tab[1][:, 0] < period - EPS_ANGLE) & inside


def _check_l5(sys, grid, sets, tab, fat):
    """The clean-point axiom: no clean p with T(p) clean.  Every grid row
    is classified in one array pass, and T(p) read by index, as the grid
    holds the antipode of each of its points; where the system keys T(p)
    apart from that point, the sets of those T(p) are read in one call and
    classified as rows of their own.  A set that misses its base is not
    clean: L1 reports it."""
    period, n = sys.period, len(grid)
    clean = _clean_rows(tab, np.array(grid), period)
    asked = np.flatnonzero(clean)
    opposite = (asked + n // 2) % n
    far = sys.F_many([sys.T(grid[i]) for i in asked])
    far_clean = clean[opposite]
    odd = [k for k, F in enumerate(far) if F is not sets[grid[opposite[k]]]]
    if odd:
        far_clean[odd] = _clean_rows(span_table([far[k] for k in odd]),
                                     np.array([sys.T(grid[asked[k]]) for k in odd]), period)
    res = AxiomResult("L5", not far_clean.any(), len(asked),
                      [{"p": grid[i]} for i in asked[far_clean]])
    res.counts = {"rows": n + len(odd)}
    return res


def _check_l6(sys, grid, sets, tab, fat):
    """The component axiom.  Forward: every point of a base component
    farther than MARGIN from its base (its ends and middle) has the set of
    the base; their sets are read in one call.  Reverse: grid neighbours
    up to 3 apart with equal sets lie in one component.  Each part is one
    array pass over its rows; witnesses come forward first, in order,
    then by base and lag."""
    period, n = sys.period, len(grid)
    base = np.array(grid)
    found, own, size = _own_rows(tab, base, period)
    reps = np.stack([own, canonicals(own + size, period), canonicals(own + 0.5 * size, period)], 1)
    far = found[:, None] & (circle_dists(reps, base[:, None], period) > MARGIN)
    rows, qs = np.nonzero(far)[0], reps[far].tolist()
    ahead = span_table(sys.F_many(qs))
    forward, joined = equal_rows(ahead, _at(tab, rows), dilated_rows(ahead, SET_TOL, period),
                                 _at(fat, rows), period)
    i = np.repeat(np.arange(n), 3)
    j = i + np.tile([1, 2, 3], n)
    i, j = i[j < n], j[j < n]
    apart = circle_dists(base[i], base[j], period) > MARGIN
    i, j = i[apart], j[apart]
    equal, joined_ij = equal_rows(_at(tab, i), _at(tab, j), _at(fat, i), _at(fat, j), period)
    off = equal & ~(found[i] & holds_rows(own[i], size[i], base[j], SET_TOL, period))
    bad = [{"p": grid[r], "q": q, "direction": "forward"}
           for r, q, ok in zip(rows, qs, forward) if not ok]
    bad += [{"p": grid[r], "q": grid[c], "direction": "reverse"} for r, c in zip(i[off], j[off])]
    res = AxiomResult("L6", not bad, len(qs) + int(equal.sum()), bad[:3])
    res.counts = {"rows": len(qs) + len(i), "merged": int(joined.sum() + joined_ij.sum())}
    return res


def _l7_chains(grid, period):
    """L7_CHAINS grid starts p and their chains p + (period / 16) / 2^d, d = 1 .. L7_DEPTH."""
    starts = [grid[(k * len(grid)) // L7_CHAINS] for k in range(L7_CHAINS)]
    return starts, [[canonical(p + period / 16.0 * 0.5 ** d, period)
                     for d in range(1, L7_DEPTH + 1)] for p in starts]


def _check_l7(sys, grid, sets, tab, fat):
    """Closedness along the refinement chains of _l7_chains: a contact
    tracked down the chain must end in F(p).  The chain sets are read in two
    blocks, the first depth of every chain and then the rest of the chains
    that find a contact to track there, which step together, a nearest
    midpoint per depth; check_axioms solved them with the grid."""
    res = AxiomResult("L7", True, 0)
    period = sys.period
    starts, chains = _l7_chains(grid, period)
    tracked = []
    for chain, F1 in zip(chains, sys.F_many([c[0] for c in chains])):
        # track a contact away from both base components, so the check
        # is not trivially satisfied by p or Tp themselves
        tp = sys.T(chain[0])
        tracked.append(next((c.midpoint for c in F1.components()
                             if circle_dist(c.midpoint, chain[0], period) > 0.1
                             and circle_dist(c.midpoint, tp, period) > 0.1), None))
    live = [k for k, s in enumerate(tracked) if s is not None]
    start, length = span_table(sys.F_many([pk for k in live for pk in chains[k][1:]]))
    mids = canonicals(start + 0.5 * length, period).reshape(len(live), L7_DEPTH - 1,
                                                              start.shape[1])
    s_prev, rows = np.array([tracked[k] for k in live]), np.arange(len(live))
    for d in range(L7_DEPTH - 1):
        # an empty set raises ValueError, as min over no components did
        near = np.nanargmin(circle_dists(mids[:, d], s_prev[:, None], period), axis=1)
        s_prev = mids[rows, d, near]
    for k, s_prev in zip(live, s_prev.tolist()):
        p = starts[k]
        res.checked += 1
        dist = sys.F(p).distance_to(s_prev)
        if dist > 10.0 * SET_TOL:
            res.passed = False
            res.witnesses.append({"p": p, "limit": s_prev, "dist": dist})
    return res
