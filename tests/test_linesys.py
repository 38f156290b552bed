import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvex.circle import (
    TWO_PI,
    Arc,
    CircularSet,
    antipode,
    canonical,
    circle_dist,
    cyclic_between,
    forward_gap,
)
from curvex.errors import (
    EmptyIntersection,
    EmptyY,
    NoConvergence,
    PreconditionFailed,
    SearchFailed,
)
from curvex import linesys, width
from curvex.linesys import (
    MEMBER_TOL,
    SET_TOL,
    AdmissibleInterval,
    AxiomResult,
    LineSystem,
    _check_l4,
    _far_witness,
    _l4_configs,
    _reflected_set,
    check_axioms,
    clean_point_between,
    find_clean_inflection,
    intermediate_point,
    mu_bounds,
    three_clean_inflections,
    validate_admissible,
)
from curvex.sphere import (
    ProjectiveCurve,
    contact_map,
    exact_clean_points,
    nearest_inflection,
    true_inflections,
)
from curvex.trig import ANTIPERIODIC, TrigSeries, VectorSeries, cos_series, sin_series

FLEX3 = [k * math.pi / 3 for k in range(6)]


def test_f0_picks_base_component(sys3):
    comp = sys3.F0(0.35)
    assert comp.contains(0.35, 1e-9)


def test_positive_clean_classification(sys3):
    # tangent-at-base points of the 3-inflection curve
    assert sys3.is_positive_clean(0.0)
    assert sys3.is_positive_clean(2 * math.pi / 3)
    assert not sys3.is_positive_clean(math.pi)  # antipode of a clean point
    assert not sys3.is_positive_clean(0.8)  # generic point


def test_find_clean_inflection_converges(sys3):
    # start just past the clean point at 0; the nearest forward witness
    # bounds the search interval containing the flex at 2pi/3
    p = 0.15
    F = sys3.F(p)
    comps = [c.midpoint for c in F.components()
             if 0.3 < forward_gap(p, c.midpoint) < math.pi - 1e-6]
    q = comps[0]
    s = find_clean_inflection(sys3, p, q)
    dist = min(abs(s - f) for f in FLEX3 + [2 * math.pi])
    assert dist < 1e-4


def test_find_clean_inflection_bad_precondition(sys3):
    with pytest.raises(PreconditionFailed):
        find_clean_inflection(sys3, 0.35, 0.35 + 1e-9)  # q in base component
    with pytest.raises(PreconditionFailed):
        find_clean_inflection(sys3, 0.35, 0.7)  # q not a contact at all


def test_clean_point_between_backward_side(sys3):
    p = 0.15
    comps = [c.midpoint for c in sys3.F(p).components()]
    back = [m for m in comps if cyclic_between(sys3.T(p), m, p)
            and forward_gap(m, p) > 0.05]
    assert back
    s = clean_point_between(sys3, p, back[0])
    assert cyclic_between(back[0], s, p)
    dist = min(abs(s - f) for f in FLEX3 + [2 * math.pi])
    assert dist < 1e-4


@pytest.mark.parametrize("fixture", ["sys3", "sys5", "sys7"])
def test_three_clean_inflections_structure(fixture, request):
    sys = request.getfixturevalue(fixture)
    s1, s2, s3 = three_clean_inflections(sys)
    assert cyclic_between(s1, s2, sys.T(s1))
    assert cyclic_between(sys.T(s1), s3, s1)
    sets = [sys.F(s) for s in (s1, s2, s3)]
    assert sets[0].disjoint_from(sets[1])
    assert sets[0].disjoint_from(sets[2])
    assert sets[1].disjoint_from(sets[2])


def test_three_clean_locations_sin3(sys3):
    found = sorted(three_clean_inflections(sys3))
    expected = [0.0, 2 * math.pi / 3, 4 * math.pi / 3]
    for s, e in zip(found, expected):
        assert min(abs(s - e), 2 * math.pi - abs(s - e)) < 1e-4


def test_width_system_three_clean(wsys_sin3):
    # compared on the circle mod pi, where a point just below 2*pi is at 0
    found = three_clean_inflections(wsys_sin3)
    assert len(found) == 3
    for e in (0.0, math.pi / 3, 2 * math.pi / 3):
        assert min(circle_dist(s, e, math.pi) for s in found) < 1e-4


def sequential_triple(sys):
    """three_clean_inflections with the s2 and s3 searches run one after
    the other through clean_point_between, each base read through F."""
    grid = [float(t) for t in np.linspace(0.0, sys.period, 64, endpoint=False)]
    p = grid[int(np.argmax([len(F) for F in sys.F_many(grid)]))]
    s1 = clean_point_between(sys, p, _far_witness(sys, p))
    ts1 = sys.T(s1)
    u = _far_witness(sys, ts1)
    if not cyclic_between(s1, u, ts1):
        u = sys.T(u)
    s2 = clean_point_between(sys, ts1, u)
    s3 = clean_point_between(sys, ts1, sys.T(u))
    for s in (s1, s2, s3):  # the disjointness check reads these too
        sys.F(s)
    return s1, s2, s3


def _random_lift(rng):
    g = TrigSeries(0.0, tuple((k, rng.normal() / k ** 1.5, rng.normal() / k ** 1.5)
                              for k in (3, 5, 7, 9)), ANTIPERIODIC)
    return ProjectiveCurve(VectorSeries(cos_series(1), sin_series(1), g))


_RNG5 = np.random.default_rng(5)
LOCKSTEP_CASES = ["curve3", "curve5", "curve7", "sf_sin3", "sf_mix25", "sf_mix4",
                  "sf_mix7"] + [pytest.param(_random_lift(_RNG5), id=f"rng5-{k}")
                                for k in range(10)]


@pytest.mark.parametrize("case", LOCKSTEP_CASES)
def test_lockstep_triple_equals_the_sequential_searches(case, request):
    # the s2 and s3 searches share every step's call to the contact map;
    # their points and the bases they solve must not change
    obj = request.getfixturevalue(case) if isinstance(case, str) else case
    if isinstance(obj, ProjectiveCurve):
        lock, seq = (LineSystem(contact_map(obj)) for _ in range(2))
    else:
        lock, seq = (width.contact_system(obj) for _ in range(2))
    assert three_clean_inflections(lock) == sequential_triple(seq)
    assert lock._cache.keys() == seq._cache.keys()
    assert lock.solves["bases"] == seq.solves["bases"]
    assert lock.solves["calls"] < seq.solves["calls"]


@pytest.mark.parametrize("case", LOCKSTEP_CASES)
def test_exact_clean_points_keep_the_snapped_triple(case, request):
    # the picked triple is placed, made of exactly-clean points whose
    # contact sets are their tangent circles' {s, s + pi}, read once each;
    # where the corpus has just three such points, the plain search ends on them
    obj = request.getfixturevalue(case) if isinstance(case, str) else case
    if isinstance(obj, ProjectiveCurve):
        curve, (plain, picked) = obj, (LineSystem(contact_map(obj)) for _ in range(2))
    else:
        curve, (plain, picked) = obj.lift, (width.contact_system(obj) for _ in range(2))
    entries = true_inflections(curve).entries
    clean = exact_clean_points(curve, entries)
    triple = three_clean_inflections(picked, clean=clean)
    s1, s2, s3 = triple
    assert set(triple) <= set(clean)
    assert cyclic_between(s1, s2, picked.T(s1)) and cyclic_between(picked.T(s1), s3, s1)
    sets = [picked.F(s) for s in triple]
    for s, F in zip(triple, sets):
        assert len(F) == 2 and F.contains(s, MEMBER_TOL) and F.contains(s + math.pi, MEMBER_TOL)
    assert all(sets[i].disjoint_from(sets[j]) for i, j in ((0, 1), (0, 2), (1, 2)))
    assert picked.solves == {"calls": 3, "bases": 3}
    assert picked.clean_search == {"exact_clean": len(clean), "halvings": 0}
    if isinstance(case, str) and len(clean) == 3:
        assert sorted(triple) == sorted(nearest_inflection(entries, s)[0]
                                        for s in three_clean_inflections(plain))


@pytest.mark.parametrize("clean", [(), (2.0,), (0.5, 2.0), (1.0, 1.0, 2.0)],
                         ids=["none", "one", "two", "repeated"])
def test_clean_points_without_a_placed_triple_fail(clean):
    # three points distinct mod pi always hold a placed triple; with fewer,
    # no point has a clean point on both sides, and SearchFailed names how
    # many were given, before any base is solved and without searching instead
    sys = LineSystem(lambda ps: pytest.fail(f"solved {ps}"))
    with pytest.raises(SearchFailed, match=f"among the {len(clean)} clean points given"):
        three_clean_inflections(sys, clean=clean)
    assert sys.solves == {"calls": 0, "bases": 0}


def reflect(F):
    """F with the orientation of the circle reversed, t -> -t."""
    return CircularSet([Arc(-a.end, a.length) for a in F.arcs], merge_tol=0.0)


def fake_search(bases, error):
    """Asks for each base in turn, then raises error, or returns the
    last base when error is None."""
    for p in bases:
        yield p
    if error is not None:
        raise error
    return bases[-1]


def failing_map(bad):
    """A contact map that cannot solve the bases in bad."""
    def fn(ps):
        hit = [p for p in ps if any(circle_dist(p, b) < 1e-9 for b in bad)]
        if hit:
            raise NoConvergence(f"no limit at {hit[0]}")
        return [CircularSet.from_points([p]) for p in ps]
    return fn


# the (bases, error) of the s2 and s3 searches, with True appended for a
# reversed search, and the bases the map fails on; a reversed search's
# base p is solved at -p
FAILURES = {
    "both-fail-s3-first": (([0.1, 0.2, 0.3], SearchFailed("s2")), ([1.1], SearchFailed("s3")), ()),
    "s3-fails": (([0.1, 0.2, 0.3], None), ([1.1], SearchFailed("s3")), ()),
    "s2-fails-first": (([0.1], SearchFailed("s2")), ([1.1, 1.2, 1.3], None), ()),
    "none-fails": (([0.1, 0.2], None), ([1.1], None), ()),
    "map-fails-s3-then-s2-fails": (([0.1, 0.2], SearchFailed("s2")), ([1.1], None), (1.1,)),
    "map-fails-s3": (([0.1, 0.2], None), ([1.1], None), (1.1,)),
    "map-fails-s2-late": (([0.1, 0.2], None), ([1.1], SearchFailed("s3")), (0.2,)),
    "map-fails-both": (([0.1], None), ([1.1], None), (0.1, 1.1)),
    "rev-none-fails": (([0.1, 0.2], None, True), ([1.1], None, True), ()),
    "rev-s2-fails-first": (([0.1], SearchFailed("s2"), True), ([1.1, 1.2], None), ()),
    "rev-both-fail-s3-first": (([0.1, 0.2, 0.3], SearchFailed("s2")),
                               ([1.1], SearchFailed("s3"), True), ()),
    "map-fails-rev-s3": (([0.1, 0.2], None), ([1.1, 1.2], None, True), (TWO_PI - 1.2,)),
    "map-fails-rev-s2-late": (([0.1, 0.2], None, True), ([1.1], SearchFailed("s3")),
                              (TWO_PI - 0.2,)),
    "map-fails-at-p-not-at-rev-p": (([0.1, 0.2], None, True), ([1.1], None), (0.2,)),
}


@pytest.mark.parametrize("s2,s3,bad", list(FAILURES.values()), ids=list(FAILURES))
def test_lockstep_raises_what_the_sequential_searches_raise(s2, s3, bad):
    # the first failing search in list order names the error, whichever
    # search fails at an earlier step, as when s2 runs to its end first
    def one_by_one(sys, searches):
        """Each search to its end in turn, its bases read through F; a
        reversed search reads the set at -p reflected, and its point
        is reflected back."""
        out = []
        for rev, search in searches:
            try:
                p = next(search)
                while True:
                    if rev:
                        p = search.send(reflect(sys.F(canonical(-sys._key(p)))))
                    else:
                        p = search.send(sys.F(p))
            except StopIteration as done:
                out.append(canonical(-done.value) if rev else done.value)
        return out

    def pair(bases, error, rev=False):
        return rev, fake_search(bases, error)

    def outcome(run):
        sys = LineSystem(failing_map(bad))
        try:
            return run(sys, [pair(*s2), pair(*s3)]), sys
        except (NoConvergence, SearchFailed) as err:
            return (type(err), str(err)), sys

    seq, seq_sys = outcome(one_by_one)
    lock, lock_sys = outcome(linesys._lockstep)
    assert lock == seq
    assert seq_sys._cache.keys() <= lock_sys._cache.keys()


class TestMuBounds:
    def interval(self, sys):
        # consecutive positive clean points of the 3-flex system
        return AdmissibleInterval(0.0, 2 * math.pi / 3)

    def test_validate(self, sys3):
        iv = self.interval(sys3)
        assert validate_admissible(sys3, iv)
        assert not validate_admissible(sys3, AdmissibleInterval(0.0, math.pi + 0.3))

    def test_interior_bounds_in_range(self, sys3):
        iv = self.interval(sys3)
        a, b = iv.a, iv.b
        for p in np.linspace(0.25, 1.9, 7):
            mb = mu_bounds(sys3, iv, float(p))
            # strict range: b < mu- <= mu+ < Ta
            assert forward_gap(a, mb.mu_minus) > forward_gap(a, b)
            assert forward_gap(a, mb.mu_plus) < math.pi
            assert forward_gap(float(p), mb.mu_minus) <= \
                forward_gap(float(p), mb.mu_plus) + 1e-9

    def test_clean_endpoint_branches(self, sys3):
        iv = self.interval(sys3)
        mba = mu_bounds(sys3, iv, iv.a)
        mbb = mu_bounds(sys3, iv, iv.b)
        # base components are points here, so the special branches give
        # exactly Ta and b
        assert mba.mu_minus == pytest.approx(math.pi, abs=1e-6)
        assert mbb.mu_plus == pytest.approx(iv.b, abs=1e-6)

    def test_monotonicity(self, sys5):
        iv = AdmissibleInterval(0.0, 1.3033945566)
        gap = forward_gap(iv.a, iv.b)
        prev = None
        for frac in np.linspace(0.05, 0.95, 16):
            mb = mu_bounds(sys5, iv, iv.a + frac * gap)
            lo = forward_gap(iv.a, mb.mu_minus)
            hi = forward_gap(iv.a, mb.mu_plus)
            if prev is not None:
                assert lo <= prev[0] + 1e-7
                assert hi <= prev[1] + 1e-7
            prev = (lo, hi)

    def test_semicontinuity_at_b(self, sys5):
        iv = AdmissibleInterval(0.0, 1.3033945566)
        target = mu_bounds(sys5, iv, iv.b).mu_plus
        approach = [mu_bounds(sys5, iv, iv.b - eps).mu_plus
                    for eps in (1e-2, 1e-3, 1e-4)]
        gaps = [abs(forward_gap(iv.a, x) - forward_gap(iv.a, target))
                for x in approach]
        assert gaps[-1] < 1e-2
        assert gaps[-1] <= gaps[0] + 1e-9


def test_intermediate_point(sys5):
    iv = AdmissibleInterval(0.0, 1.3033945566)
    mba = mu_bounds(sys5, iv, iv.a)
    mbb = mu_bounds(sys5, iv, iv.b)
    window = forward_gap(mbb.mu_plus, mba.mu_minus)
    assert window > 0.1
    for frac in (0.2, 0.5, 0.8):
        q = (mbb.mu_plus + frac * window) % (2 * math.pi)
        p = intermediate_point(sys5, iv, q)
        mb = mu_bounds(sys5, iv, p)
        qpos = forward_gap(iv.a, q)
        assert forward_gap(iv.a, mb.mu_minus) <= qpos + 1e-6
        assert forward_gap(iv.a, mb.mu_plus) >= qpos - 1e-6


def test_intermediate_point_outside_window(sys3):
    iv = AdmissibleInterval(0.0, 2 * math.pi / 3)
    with pytest.raises(PreconditionFailed):
        intermediate_point(sys3, iv, 0.3)  # q inside (a, b), not the window


def test_empty_y_raises():
    sys = LineSystem(lambda ps: [CircularSet.from_points([p, p + math.pi]) for p in ps])
    iv = AdmissibleInterval(0.1, 0.9)
    with pytest.raises(EmptyY):
        mu_bounds(sys, iv, 0.5)


def test_axioms_pass_on_corpus(sys3, wsys_sin3):
    for sys in (sys3, wsys_sin3):
        rep = check_axioms(sys, grid_size=64)
        assert rep.all_pass, [r.to_json() for r in rep.results if not r.passed]


def broken(ps):
    # contact family without antipodal symmetry
    return [CircularSet.from_points([p, p + math.pi, p + 1.0]) for p in ps]


def test_axioms_fault_injection():
    rep = check_axioms(LineSystem(broken), grid_size=32)
    by_name = {r.axiom: r for r in rep.results}
    assert not by_name["L3"].passed
    assert by_name["L3"].witnesses
    assert not rep.all_pass


@pytest.mark.parametrize("grid_size", [0, 33])
def test_axioms_refuse_an_odd_or_empty_grid(grid_size):
    with pytest.raises(ValueError, match="positive even"):
        check_axioms(LineSystem(broken), grid_size=grid_size)


def test_axiom_report_serializes(sys3):
    rep = check_axioms(sys3, grid_size=32)
    payload = rep.to_json()
    assert payload["all_pass"] is True
    assert {r["axiom"] for r in payload["axioms"]} == \
        {"L1", "L2", "L3", "L4", "L5", "L6", "L7"}


def test_sphere_and_width_systems_agree(sys3):
    # the sphere curve (cos t, sin t, g) and the support deviation f = g
    # induce the same contact family: circles through a lifted point and
    # its antipode correspond exactly to the width-circle supports
    # through (p, f(p))
    from curvex.trig import sin_series
    from curvex.width import SupportFunction, contact_system
    wsys = contact_system(SupportFunction(2.0, sin_series(3, 0.1)))
    for p in (0.0, math.pi / 3, 0.8, 2.6):
        assert sys3.F(p).set_equal(wsys.F(p), 1e-6), p


def l6_lazy(sys, grid, sets):
    """The component axiom with one contact-map call per base it reads."""
    res = AxiomResult("L6", True, 0)
    period = sys.period
    for p in grid:
        comp = sets[p].component_containing(p, MEMBER_TOL)
        if comp is None:
            continue
        for rep in (comp.start, comp.end, comp.midpoint):
            if circle_dist(rep, p, period) <= linesys.MARGIN:
                continue
            res.checked += 1
            if not sys.F(rep).set_equal(sets[p], SET_TOL):
                res.passed = False
                if len(res.witnesses) < 3:
                    res.witnesses.append({"p": p, "q": rep, "direction": "forward"})
    n = len(grid)
    for i in range(n):
        for j in range(i + 1, min(i + 4, n)):
            p, q = grid[i], grid[j]
            if circle_dist(p, q, period) <= linesys.MARGIN:
                continue
            if sets[p].set_equal(sets[q], SET_TOL):
                res.checked += 1
                comp = sets[p].component_containing(p, MEMBER_TOL)
                if comp is None or not comp.contains(q, SET_TOL):
                    res.passed = False
                    if len(res.witnesses) < 3:
                        res.witnesses.append({"p": p, "q": q, "direction": "reverse"})
    return res


def l7_lazy(sys, grid, sets, bases=6, depth=14):
    """The closedness axiom walking each chain base by base, stopping a
    chain at depth 1 when it finds no contact to track."""
    res = AxiomResult("L7", True, 0)
    period = sys.period
    step0 = period / 16.0
    for k in range(bases):
        p = grid[(k * len(grid)) // bases]
        s_prev = None
        for d in range(1, depth + 1):
            pk = canonical(p + step0 * 0.5 ** d, period)
            Fk = sys.F(pk)
            tp = sys.T(pk)
            if s_prev is None:
                mids = [c.midpoint for c in Fk.components()
                        if circle_dist(c.midpoint, pk, period) > 0.1
                        and circle_dist(c.midpoint, tp, period) > 0.1]
                if not mids:
                    break
                s_prev = mids[0]
            else:
                mids = [c.midpoint for c in Fk.components()]
                mids.sort(key=lambda m: circle_dist(m, s_prev, period))
                s_prev = mids[0]
        if s_prev is None:
            continue
        res.checked += 1
        if sys.F(p).distance_to(s_prev) > 10.0 * SET_TOL:
            res.passed = False
            res.witnesses.append({"p": p, "limit": s_prev,
                                  "dist": sys.F(p).distance_to(s_prev)})
    return res


def one_base_per_call(fn):
    def solve(ps):
        return [fn([p])[0] for p in ps]
    return solve


def patchy(ps):
    # base components of positive length, so that L6 reads bases off the
    # grid, and a far contact on part of the circle only, so that some
    # L7 chains stop at depth 1
    sets = []
    for p in ps:
        arcs = [Arc(p - 0.01, 0.03)] + ([Arc.point(p + 1.0)] if math.sin(3 * p) > 0 else [])
        sets.append(CircularSet(arcs + [a.shifted(math.pi) for a in arcs]))
    return sets


@pytest.mark.parametrize("case", ["curve7", "sf_mix7", "patchy"])
def test_prefetch_solves_what_the_lazy_path_solves(case, request, monkeypatch):
    if case == "patchy":
        fn = patchy
    else:
        obj = request.getfixturevalue(case)
        fn = contact_map(obj) if case.startswith("curve") else width.contact_map(obj)
    blocked = LineSystem(fn)
    report = check_axioms(blocked).to_json()
    monkeypatch.setattr(linesys, "_check_l6", l6_lazy)
    monkeypatch.setattr(linesys, "_check_l7", l7_lazy)
    lazy = LineSystem(one_base_per_call(fn))
    assert check_axioms(lazy).to_json() == report
    assert blocked._cache.keys() == lazy._cache.keys()
    assert all(blocked._cache[k].arcs == lazy._cache[k].arcs for k in lazy._cache)
    assert blocked.solves["bases"] == lazy.solves["bases"] == len(lazy._cache)
    # the grid, the bases of L6, then the first depth and the rest of L7
    assert blocked.solves["calls"] <= 4
    if case == "patchy":
        by_name = {r["axiom"]: r for r in report["axioms"]}
        assert by_name["L6"]["checked"] > 0 and 0 < by_name["L7"]["checked"] < 6


def mirrored(sys):
    """The line system whose set at p is the set of sys at -p, reflected."""
    return LineSystem(lambda ps: [reflect(F) for F in sys.F_many([canonical(-p) for p in ps])])


_RNG5_AGAIN = np.random.default_rng(5)
MIRROR_CASES = ["curve3", "curve5", "sf_mix4"] + [
    pytest.param(_random_lift(_RNG5_AGAIN), id=f"rng5-{k}") for k in range(5)]


@pytest.mark.parametrize("case", MIRROR_CASES)
def test_backward_search_is_the_mirrored_forward_search(case, request):
    # _lockstep reads a backward search's bases reflected; the search must
    # find the reflection of the forward search on a system that reflects
    # every set by hand, from the same solved bases
    obj = request.getfixturevalue(case) if isinstance(case, str) else case
    if isinstance(obj, ProjectiveCurve):
        probe, back, under = (LineSystem(contact_map(obj)) for _ in range(3))
    else:
        probe, back, under = (width.contact_system(obj) for _ in range(3))
    grid = [float(t) for t in np.linspace(0.0, TWO_PI, 64, endpoint=False)]
    p = grid[int(np.argmax([len(F) for F in probe.F_many(grid)]))]
    c = _far_witness(probe, p)
    if cyclic_between(p, c, probe.T(p)):
        c = probe.T(c)  # its antipode, a contact on the backward side of p
    s = clean_point_between(back, p, c)
    assert cyclic_between(c, s, p)
    assert s == canonical(-clean_point_between(mirrored(under), canonical(-p), canonical(-c)))
    assert back._cache.keys() == under._cache.keys()
    assert all(back._cache[k].arcs == under._cache[k].arcs for k in back._cache)


LAGS = (1, 2, 3, 5, 8, 13, 21, 34)
MARGIN = 1e-3


def l4_reference(sys, grid, sets, set_tol, margin, lags=LAGS):
    """The order axiom with the configuration found by intersecting the
    contact sets with Arc windows, on eagerly reflected sets for the
    descending pass."""
    period = sys.period

    def config(sets, p, q):
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

    res = AxiomResult("L4", True, 0)
    rsets = {canonical(-p, period): _reflected_set(sets[p]) for p in grid}
    rgrid = sorted(rsets.keys())
    for pass_grid, pass_sets, tag in ((grid, sets, "asc"), (rgrid, rsets, "desc")):
        n = len(pass_grid)
        for i in range(n):
            for lag in lags:
                p, q = pass_grid[i], pass_grid[(i + lag) % n]
                if forward_gap(p, q, period) >= 0.5 * period:
                    continue
                cfg = config(pass_sets, p, q)
                if cfg is None:
                    continue
                res.checked += 1
                if not pass_sets[p].set_equal(pass_sets[q], set_tol):
                    res.passed = False
                    if len(res.witnesses) < 3:
                        res.witnesses.append({"p": p, "q": q, "p1": cfg[0],
                                              "q1": cfg[1], "pass": tag})
    return res


def l4_both(sys, grid_size):
    """_check_l4 and l4_reference on the grid check_axioms builds; the
    witness angles are computed along different paths, so they agree
    within rounding."""
    grid = [canonical(i * sys.period / grid_size, sys.period) for i in range(grid_size)]
    sets = dict(zip(grid, sys.F_many(grid)))
    fast = _check_l4(sys, grid, sets)
    ref = l4_reference(sys, grid, sets, 1e-3, MARGIN)
    assert (fast.passed, fast.checked) == (ref.passed, ref.checked)
    assert [w["pass"] for w in fast.witnesses] == [w["pass"] for w in ref.witnesses]
    for w, v in zip(fast.witnesses, ref.witnesses):
        for key in ("p", "q", "p1", "q1"):
            assert circle_dist(w[key], v[key]) < 1e-12, (key, w, v)
    return fast


@pytest.mark.parametrize("fixture", ["sys3", "sys5", "wsys_sin3", "wsys_mix25",
                                     "wsys_mix4"])
def test_l4_matches_reference_on_corpus(fixture, request):
    res = l4_both(request.getfixturevalue(fixture), 64)
    # honest families have no configuration to check
    assert res.counts == {"tried": 896, "checked": 0}


@pytest.mark.parametrize("grid_size", [64, 250, 256])
@pytest.mark.parametrize("fixture", ["sys3", "sys7", "wsys_sin3", "wsys_mix4"])
def test_l4_matches_reference_on_dilated_corpus(fixture, grid_size, request):
    # every contact set dilated by 0.3: its arcs are wide enough to hold
    # p' and q' on most pairs, and the dilated sets of nearby bases
    # differ, so the array pass finds configurations and witnesses
    honest = request.getfixturevalue(fixture)
    dilated = LineSystem(lambda ps: [F.dilated(0.3) for F in honest.F_many(ps)],
                         honest.period)
    res = l4_both(dilated, grid_size)
    # both passes try every lag whose q lies less than half a period ahead
    tried = 2 * grid_size * sum(2 * lag < grid_size for lag in LAGS)
    assert res.counts == {"tried": tried, "checked": res.checked}
    assert res.checked > 0.5 * tried and not res.passed


@pytest.mark.parametrize("grid_size", [32, 256])
def test_l4_matches_reference_on_broken_family(grid_size):
    res = l4_both(LineSystem(broken), grid_size)
    assert res.checked > 0 and not res.passed


def test_l4_fails_on_interleaved_contacts():
    def interleaved(ps):
        return [CircularSet.from_points([p, p + 1.0, p + math.pi, p + 1.0 + math.pi])
                for p in ps]

    rep = check_axioms(LineSystem(interleaved), grid_size=256)
    l4 = {r.axiom: r for r in rep.results}["L4"]
    assert not l4.passed
    assert l4.checked == 4096
    assert l4.counts == {"tried": 4096, "checked": 4096}
    assert l4.witnesses[0]["pass"] == "asc"
    assert l4.to_json()["witness"] == l4.witnesses[0]


def test_l4_config_keeps_the_margin_between_p_and_q():
    # contacts at offsets 1 from p and 1.5 from q make a configuration,
    # unless q lies within the margin of p
    tab_p = (np.array([[0.0, 1.0]] * 2), np.array([[0.0, 1.0]] * 2))
    tab_q = (np.array([[0.0, 1.5]] * 2), np.array([[0.0, 1.5]] * 2))
    found, p1, q1 = _l4_configs(tab_p, tab_q, np.array([0.01, 0.5 * MARGIN]), MARGIN, math.pi)
    assert found.tolist() == [True, False]
    assert (p1[0], q1[0]) == (1.0, 1.51)


@pytest.mark.parametrize("p_off,q_arc", [
    # p' inside the 2 * EPS_ANGLE band past Tp - 2 margin, q' at Tp - margin
    (math.pi - 2 * MARGIN + 1e-10, (math.pi - MARGIN, 0.0)),
    # p' at Tp - 1.5 margin and a contact arc of q over [Tp - 2 margin, Tp]
    (math.pi - 1.5 * MARGIN, (math.pi - 2 * MARGIN, 2 * MARGIN)),
], ids=["in-band", "beyond-band"])
def test_l4_needs_two_margins_between_p1_and_the_antipode(p_off, q_arc):
    # only bases 0 and 1 carry a contact beside their own pair.  Without
    # the test that p' leaves two margins before Tp, _l4_config finds a
    # configuration in both cases, which l4_reference does not: in the
    # band q' = p' + margin, within EPS_ANGLE past Tp - margin; beyond
    # it the q' window is empty, but the arc of q reaches across it, and
    # q' = p' + margin lies half a margin past Tp - margin
    n = 16

    def family(ps):
        sets = []
        for p in ps:
            arcs = [Arc(p, 0.0)]
            k = round(p * n / TWO_PI) % n
            if k == 0:
                arcs.append(Arc(p + p_off, 0.0))
            elif k == 1:
                arcs.append(Arc(*q_arc))
            sets.append(CircularSet(arcs + [a.shifted(math.pi) for a in arcs]))
        return sets

    res = l4_both(LineSystem(family), n)
    assert (res.passed, res.checked) == (True, 0)


@st.composite
def symmetric_families(draw):
    """Grid size and a translation-invariant, antipodally symmetric
    family: a base arc and contacts at offsets d, some of them on the
    edges of the L4 windows of one lag."""
    n = draw(st.sampled_from([16, 32, 64]))
    g = draw(st.sampled_from(LAGS)) * TWO_PI / n
    d1 = draw(st.floats(0.01, 3.0))
    edges = [g + MARGIN, d1, d1 + MARGIN - g, math.pi - MARGIN, math.pi - MARGIN - g]
    contacts = draw(st.lists(st.tuples(st.sampled_from(edges) | st.floats(0.01, 3.1),
                                       # points half of the time
                                       st.sampled_from([0.0, 0.0, 0.002, 0.05])),
                             max_size=4))
    back = draw(st.sampled_from([0.0, 0.0005, 0.02]))
    ahead = draw(st.sampled_from([0.0, 0.0005, 0.3, 1.2]))

    def family(ps):
        sets = []
        for p in ps:
            arcs = [Arc(p - back, back + ahead)] + [Arc(p + d, w) for d, w in contacts]
            sets.append(CircularSet(arcs + [a.shifted(math.pi) for a in arcs]))
        return sets

    return n, family


def test_l4_matches_reference_on_random_families():
    checked = []

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(symmetric_families())
    def sweep(case):
        n, family = case
        checked.append(l4_both(LineSystem(family), n).checked)

    sweep()
    # the sweep reaches families on which L4 checks pairs, and others
    assert any(checked) and not all(checked)
