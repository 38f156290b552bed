import math

import numpy as np
import pytest
from conftest import admissible_angles
from hypothesis import given, settings, strategies as st

from curvex.circle import (
    Arc,
    CircularSet,
    EPS_ANGLE,
    EPS_GROUP,
    TWO_PI,
    admissible_arcs,
    antipode,
    canonical,
    canonicals,
    circle_dist,
    contained_rows,
    cyclic_between,
    cyclic_midpoint,
    cyclic_runs,
    dilated_rows,
    equal_rows,
    forward_gap,
    merged_rows,
    projected_rows,
    span_table,
)
from curvex.errors import EmptyIntersection

angles = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def test_cyclic_between_examples():
    assert cyclic_between(0.0, 1.0, 2.0)
    assert not cyclic_between(0.0, 3.0, 2.0)
    assert cyclic_between(5.5, 0.1, 1.0)


def test_cyclic_between_excludes_endpoints():
    assert not cyclic_between(0.0, 0.0, 2.0)
    assert not cyclic_between(0.0, 2.0, 2.0)


@given(angles)
def test_antipode_involution(t):
    assert circle_dist(antipode(antipode(t)), canonical(t)) < 1e-9


@given(angles, angles)
def test_midpoint_lies_between(a, b):
    a, b = canonical(a), canonical(b)
    if circle_dist(a, b) < 1e-6:
        return
    m = cyclic_midpoint(a, b)
    assert cyclic_between(a, m, b)


def test_antipodal_image_shifts_arcs():
    s = CircularSet([Arc.from_endpoints(0.0, 0.1)])
    img = s.antipodal_image()
    assert len(img) == 1
    assert abs(img.arcs[0].start - math.pi) < 1e-12
    assert abs(img.arcs[0].end - (math.pi + 0.1)) < 1e-12


def test_antipodal_image_of_empty_and_symmetric_sets():
    assert not CircularSet.empty().antipodal_image()
    sym = CircularSet([Arc.from_endpoints(0.0, 0.1),
                       Arc.from_endpoints(math.pi, math.pi + 0.1)])
    assert sym.antipodal_image().set_equal(sym, 1e-12)


@given(st.lists(st.tuples(angles, st.floats(min_value=0.0, max_value=2.0)), max_size=6))
def test_antipodal_image_is_involution(raw):
    s = CircularSet([Arc(a, ln) for a, ln in raw])
    assert s.antipodal_image().antipodal_image().set_equal(s, 1e-9)


def test_components_merge_touching_arcs():
    s = CircularSet([Arc.from_endpoints(0.0, 0.1), Arc.from_endpoints(0.1, 0.2)])
    assert len(s.components()) == 1
    two = CircularSet([Arc.from_endpoints(0.0, 0.1),
                       Arc.from_endpoints(math.pi, math.pi + 0.1)])
    assert len(two.components()) == 2


def test_components_merge_across_wraparound():
    s = CircularSet([Arc.from_endpoints(TWO_PI - 0.1, TWO_PI - 1e-12),
                     Arc.from_endpoints(0.0, 0.1)])
    assert len(s.components()) == 1


def test_full_circle_is_single_component():
    s = CircularSet([Arc.full()])
    assert len(s.components()) == 1
    assert abs(s.measure - TWO_PI) < 1e-12
    assert s.contains(3.7)


@given(st.lists(st.tuples(angles, st.floats(min_value=0.0, max_value=1.0)), max_size=8))
def test_no_adjacent_components_within_group_tol(raw):
    s = CircularSet([Arc(a, ln) for a, ln in raw])
    comps = s.components()
    for i, a in enumerate(comps):
        for b in comps[i + 1:]:
            gap = min(forward := (b.start - a.end) % TWO_PI, TWO_PI - forward)
            # endpoints of distinct maximal arcs must be separated
            assert s.is_full() or gap > EPS_GROUP / 2


def test_extremum_in_window():
    s = CircularSet([Arc.from_endpoints(0.2, 0.3), Arc.from_endpoints(1.0, 1.1)])
    w = Arc.from_endpoints(0.0, math.pi)
    assert abs(s.extremum_in_window(w, "sup") - 1.1) < 1e-12
    assert abs(s.extremum_in_window(w, "inf") - 0.2) < 1e-12


def test_extremum_empty_intersection_raises():
    s = CircularSet([Arc.from_endpoints(0.0, 0.1)])
    with pytest.raises(EmptyIntersection):
        s.extremum_in_window(Arc.from_endpoints(2.0, 3.0), "sup")


def test_extremum_window_wrapping():
    s = CircularSet([Arc.point(0.2), Arc.point(6.0)])
    w = Arc.from_endpoints(5.0, 1.0)  # wraps through 0
    assert abs(s.extremum_in_window(w, "inf") - 6.0) < 1e-12
    assert abs(s.extremum_in_window(w, "sup") - 0.2) < 1e-12


@given(st.lists(st.tuples(angles, st.floats(min_value=0.0, max_value=1.5)),
                min_size=1, max_size=6),
       angles, st.floats(min_value=0.2, max_value=6.0))
def test_inf_le_sup_in_window_order(raw, wstart, wlen):
    s = CircularSet([Arc(a, ln) for a, ln in raw])
    w = Arc(wstart, min(wlen, TWO_PI))
    try:
        lo = s.extremum_in_window(w, "inf")
        hi = s.extremum_in_window(w, "sup")
    except EmptyIntersection:
        return
    assert w.position_of(lo) <= w.position_of(hi) + 1e-9


def test_point_components_are_legal():
    s = CircularSet.from_points([1.0, 2.0, 2.0 + 1e-9])
    assert len(s) == 2
    assert s.contains(1.0)
    assert s.component_containing(2.0) is not None


def test_project_half():
    s = CircularSet([Arc.point(0.5), Arc.point(0.5 + math.pi), Arc.point(2.0)])
    p = s.project_half()
    assert p.period == pytest.approx(math.pi)
    assert len(p) == 2
    assert p.contains(0.5) and p.contains(2.0)


def test_containment_and_equality():
    a = CircularSet([Arc.from_endpoints(0.0, 1.0)])
    b = CircularSet([Arc.from_endpoints(0.1, 0.9)])
    assert b.contained_in(a)
    assert not a.contained_in(b)
    assert a.set_equal(CircularSet([Arc.from_endpoints(0.0, 0.5),
                                    Arc.from_endpoints(0.5, 1.0)]))


def test_drop_components_touching():
    s = CircularSet([Arc.point(0.0), Arc.point(1.0), Arc.point(3.0)])
    pruned = s.drop_components_touching(CircularSet.from_points([1.0 + 1e-9]), tol=1e-6)
    assert len(pruned) == 2
    assert not pruned.contains(1.0)


def test_disjointness():
    a = CircularSet([Arc.from_endpoints(0.0, 1.0)])
    b = CircularSet([Arc.from_endpoints(2.0, 3.0)])
    c = CircularSet([Arc.from_endpoints(0.5, 2.5)])
    assert a.disjoint_from(b)
    assert not a.disjoint_from(c)
    assert not b.disjoint_from(c)


def test_cyclic_runs_examples():
    # the run starting at 5 wraps past the seam to index 1
    assert cyclic_runs([True, True, False, True, False, True]) == [(3, 1), (5, 3)]
    assert cyclic_runs([True] * 4) == [(0, 4)]
    assert cyclic_runs([False] * 4) == []
    assert cyclic_runs([]) == []


@given(st.lists(st.booleans(), max_size=40))
def test_cyclic_runs_match_a_cyclic_walk(mask):
    n = len(mask)
    if n and all(mask):
        expected = [(0, n)]
    else:
        expected = []
        for i in range(n):
            if mask[i] and not mask[i - 1]:
                k = 1
                while mask[(i + k) % n]:
                    k += 1
                expected.append((i, k))
    assert cyclic_runs(mask) == expected


def _side_max(A, B, thetas):
    """max_j cos(theta) A[j] + sin(theta) B[j] at each theta."""
    thetas = np.asarray(thetas, dtype=float)
    return np.max(np.cos(thetas)[:, None] * np.asarray(A)[None, :]
                  + np.sin(thetas)[:, None] * np.asarray(B)[None, :], axis=1)


def _samples(directions, radii):
    d, r = np.asarray(directions), np.asarray(radii)
    return r * np.cos(d), r * np.sin(d)


def test_admissible_angles_empty_intersection():
    # three directions 2 apart leave no gap wider than pi
    A, B = _samples([0.0, 2.0, 4.0], [1.0, 0.5, 2.0])
    assert admissible_angles(A, B) is None
    assert np.all(_side_max(A, B, np.linspace(0.0, TWO_PI, 4096)) > 0.0)


def test_admissible_angles_zero_sample_rules_out_everything():
    assert admissible_angles([1.0], [0.0]) == Arc(0.5 * math.pi, math.pi)
    assert admissible_angles([1.0, 0.0], [0.0, 0.0]) is None


def test_admissible_angles_finds_an_arc_between_grid_angles():
    # the arc fits between two angles of a 1024-step grid, which
    # therefore sees no admissible angle at all
    step = TWO_PI / 1024
    start, width = 0.5 * math.pi + 0.3 * step, 0.4 * step
    A, B = _samples([start - 0.5 * math.pi, start + width + 0.5 * math.pi],
                    [1.0, 3.0])
    grid = np.linspace(0.0, TWO_PI, 1024, endpoint=False)
    assert not np.any(_side_max(A, B, grid) < 0.0)
    arc = admissible_angles(A, B)
    assert arc.start == pytest.approx(start, abs=1e-12)
    assert arc.length == pytest.approx(width, abs=1e-12)
    assert _side_max(A, B, [arc.midpoint])[0] < 0.0


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.floats(0.0, TWO_PI),
       st.lists(st.tuples(st.floats(-1.7, 1.7), st.floats(0.0, 2.0)),
                min_size=1, max_size=8))
def test_admissible_angles_match_a_dense_scan(centre, samples):
    # directions within about pi/2 of a centre: the intersection is
    # sometimes empty, sometimes an arc
    A, B = _samples([centre + d for d, _ in samples], [r for _, r in samples])
    arc = admissible_angles(A, B)
    scale = max(r for _, r in samples)
    thetas = np.linspace(0.0, TWO_PI, 1 << 14, endpoint=False)
    side = _side_max(A, B, thetas)
    inside = [arc is not None and arc.contains(th, tol=0.0) for th in thetas]
    margin = 1e-9 * scale
    assert all(inside[k] for k in np.nonzero(side < -margin)[0])
    assert not any(inside[k] for k in np.nonzero(side > margin)[0])
    if arc is not None:
        assert _side_max(A, B, [arc.midpoint])[0] <= 1e-12 * scale


def test_admissible_arcs_hold_the_floats_of_their_arcs():
    # the rows' (start, length) are what an Arc of the widest gap's middle
    # holds, its start canonical, built one row at a time; rows with no
    # arc read length -1
    rng = np.random.default_rng(5)
    A, B = rng.normal(size=(2, 400, 5))
    A[:200] = np.abs(A[:200])  # directions within pi/2 of 0: mostly an arc
    A[7, 2] = B[7, 2] = 0.0
    start, length = admissible_arcs(A, B)
    for r in range(len(A)):
        phi = np.sort(np.arctan2(B[r], A[r]))
        gaps = np.diff(phi, append=phi[0] + TWO_PI)
        i = int(np.argmax(gaps))
        if gaps[i] > math.pi and r != 7:
            arc = Arc(float(phi[i]) + 0.5 * math.pi, float(gaps[i]) - math.pi)
            assert (start[r], length[r]) == (arc.start, arc.length)
        else:
            assert length[r] == -1.0
    assert np.count_nonzero(length >= 0.0) > 100 and np.any(start[length >= 0.0] > math.pi)


# -- the float-backed sets against the Arc-object sets they replaced --------

SET_TOL, CLEAN_TOL, MEMBER_TOL = 1e-3, 1e-5, 1e-6  # the tolerances of linesys


def _ref_contains(a, t, tol=EPS_ANGLE):
    if a.is_full():
        return True
    return forward_gap(a.start, t, a.period) <= a.length + tol or \
        forward_gap(a.start, t, a.period) >= a.period - tol


def _ref_inside(a, b):
    if b.is_full():
        return True
    off = forward_gap(b.start, a.start, b.period)
    return off <= b.length + EPS_ANGLE and off + a.length <= b.length + EPS_ANGLE


def _ref_merge(arcs, period, merge_tol):
    arcs = [a for a in arcs if a is not None]
    if not arcs:
        return []
    if any(a.is_full() for a in arcs):
        return [Arc.full(period)]
    items = sorted([a.start, a.start + a.length] for a in arcs)
    for _ in range(len(items) + 2):
        merged = []
        for s, e in items:
            if merged and s <= merged[-1][1] + merge_tol:
                merged[-1][1] = max(merged[-1][1], e)
            else:
                merged.append([s, e])
        wrapped = False
        if len(merged) > 1 and merged[0][0] + period <= merged[-1][1] + merge_tol:
            merged[0][0] = merged[-1][0] - period
            merged[0][1] = max(merged[0][1], merged[-1][1] - period)
            merged.pop()
            wrapped = True
        if len(merged) == len(items) and not wrapped:
            items = merged
            break
        items = sorted(merged)
    out = []
    for s, e in items:
        if e - s >= period - merge_tol:
            return [Arc.full(period)]
        out.append(Arc(canonical(s, period), e - s, period))
    out.sort(key=lambda a: a.start)
    return out


class RefSet:
    """CircularSet as it was when every set was merged from Arc objects:
    the reference whose arcs the float-backed sets must hold bit for bit,
    and whose decisions they must make."""

    def __init__(self, arcs, period=TWO_PI, merge_tol=EPS_GROUP):
        self.period = period
        self.arcs = tuple(_ref_merge(arcs, period, merge_tol))

    @classmethod
    def from_points(cls, points, period=TWO_PI):
        return cls([Arc.point(t, period) for t in points], period)

    def shifted(self, delta):
        return RefSet([a.shifted(delta) for a in self.arcs], self.period, merge_tol=0.0)

    def antipodal_image(self):
        return self.shifted(0.5 * self.period)

    def dilated(self, eps):
        return RefSet([Arc(a.start - eps, min(a.length + 2.0 * eps, self.period), self.period)
                       for a in self.arcs], self.period)

    def project_half(self):
        half = 0.5 * self.period
        if any(a.length >= half for a in self.arcs):
            return RefSet([Arc.full(half)], half)
        return RefSet([Arc(canonical(a.start, half), a.length, half) for a in self.arcs], half)

    def contained_in(self, other, tol=EPS_GROUP):
        fat = other.dilated(tol)
        return all(any(_ref_inside(a, b) for b in fat.arcs) for a in self.arcs)

    def set_equal(self, other, tol=EPS_GROUP):
        return self.contained_in(other, tol) and other.contained_in(self, tol)

    def distance_to(self, t):
        best = math.inf
        for a in self.arcs:
            if _ref_contains(a, t):
                return 0.0
            best = min(best, circle_dist(t, a.start, self.period),
                       circle_dist(t, a.end, self.period))
        return best


def _ulps(x, k):
    """x moved k ulps."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


# starts and ends within a few EPS_ANGLE of the seam (and of pi), gaps
# within a few ulps of the merge and dilation thresholds
near_seam = st.sampled_from([0.0, TWO_PI, math.pi]).flatmap(
    lambda x: st.floats(x - 3 * EPS_ANGLE, x + 3 * EPS_ANGLE))
thresholds = [0.0, EPS_GROUP, SET_TOL, 2 * SET_TOL, 2 * SET_TOL + EPS_GROUP, CLEAN_TOL,
              2 * CLEAN_TOL + EPS_GROUP]
gaps = st.one_of(st.tuples(st.sampled_from(thresholds), st.integers(-4, 4)).map(
    lambda g: _ulps(*g)), st.floats(0.0, 1.0))
lengths = st.one_of(st.just(0.0), st.floats(0.0, 1e-3), st.floats(0.0, 2.0))
# shifts that put a start of a set's shifted copy within a few EPS_ANGLE of
# a start of its dilation, on either side
tol_shifts = st.tuples(st.sampled_from([SET_TOL, CLEAN_TOL, EPS_GROUP]),
                       st.floats(-3 * EPS_ANGLE, 3 * EPS_ANGLE), st.sampled_from([-1.0, 1.0])
                       ).map(lambda x: x[2] * (x[0] + x[1]))


@st.composite
def arc_lists(draw):
    s = draw(st.one_of(near_seam, st.floats(0.0, TWO_PI)))
    arcs = []
    for length, gap in draw(st.lists(st.tuples(lengths, gaps), max_size=6)):
        arcs.append(Arc(s, length))
        s += length + gap
    if draw(st.booleans()):  # an arc ending at the seam
        length = draw(lengths)
        arcs.append(Arc(draw(near_seam) - length, length))
    return arcs


def _same(new, ref):
    assert new.period == ref.period
    assert repr(new.spans) == repr(tuple((a.start, a.length) for a in ref.arcs))
    assert new.arcs == ref.arcs


@settings(max_examples=200, derandomize=True, deadline=None)
@given(arc_lists(), arc_lists(), st.one_of(near_seam, st.floats(-7.0, 7.0), gaps, tol_shifts))
def test_set_algebra_matches_the_arc_reference(arcs, other_arcs, delta):
    for merge_tol in (EPS_GROUP, 0.0):
        _same(CircularSet(arcs, merge_tol=merge_tol), RefSet(arcs, merge_tol=merge_tol))
    pts = [a.start for a in arcs + other_arcs]
    _same(CircularSet.from_points(pts), RefSet.from_points(pts))
    new, ref = CircularSet(arcs), RefSet(arcs)
    other, other_ref = CircularSet(other_arcs), RefSet(other_arcs)
    images = [(new.shifted(delta), ref.shifted(delta)),
              (new.antipodal_image(), ref.antipodal_image()),
              (new.project_half(), ref.project_half())]
    for img, img_ref in images:
        _same(img, img_ref)
    for tol in (SET_TOL, CLEAN_TOL, EPS_GROUP, 0.0):
        _same(new.dilated(tol), ref.dilated(tol))
    pairs = [((new, ref), (other, other_ref))] + [((new, ref), image) for image in images[:2]] \
        + [(images[2], (other.project_half(), other_ref.project_half()))]
    for (a, a_ref), (b, b_ref) in pairs:
        for tol in (SET_TOL, CLEAN_TOL, EPS_GROUP):
            assert a.contained_in(b, tol) == a_ref.contained_in(b_ref, tol)
            assert b.contained_in(a, tol) == b_ref.contained_in(a_ref, tol)
            assert a.set_equal(b, tol) == a_ref.set_equal(b_ref, tol)
    # points of the other set, and the seam
    for t in pts + [0.0, _ulps(TWO_PI, -1), delta]:
        assert repr(new.distance_to(t)) == repr(ref.distance_to(t))
        for tol in (EPS_ANGLE, MEMBER_TOL):
            hit = next((a for a in ref.arcs if _ref_contains(a, t, tol)), None)
            assert new.contains(t, tol) == (hit is not None)
            assert new.component_containing(t, tol) == hit


# -- span tables against the set algebra -------------------------------------


def _rows(tab):
    """The spans of each row of a span table, as repr strings."""
    return [repr(tuple((s, n) for s, n in zip(*row) if not math.isnan(s)))
            for row in zip(tab[0].tolist(), tab[1].tolist())]


def test_span_tables_match_the_set_algebra():
    seen = []

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(st.lists(st.tuples(arc_lists() | st.just([Arc.full()]),
                              st.none() | tol_shifts | arc_lists() | st.just([Arc.full()])),
                    min_size=1, max_size=5))
    def sweep(rows):
        # rows of wrapping spans, gaps within ulps of the dilations' merge
        # thresholds, full and empty sets, and shifts that put the starts of
        # a dilation within EPS_ANGLE of a span's start: every row function
        # gives bit for bit what its method gives on the row's set
        sets = [CircularSet(a) for a, _ in rows]
        others = [s.antipodal_image() if b is None else s.shifted(b) if isinstance(b, float)
                  else CircularSet(b) for s, (_, b) in zip(sets, rows)]
        tab, other = span_table(sets), span_table(others)
        assert _rows(tab) == [repr(s.spans) for s in sets]
        turned = merged_rows(canonicals(tab[0] + math.pi, TWO_PI), tab[1], TWO_PI, 0.0)
        assert _rows(turned) == [repr(s.antipodal_image().spans) for s in sets]
        assert _rows(projected_rows(tab, TWO_PI)) == [repr(s.project_half().spans) for s in sets]
        for tol in (SET_TOL, CLEAN_TOL, EPS_GROUP):
            assert _rows(dilated_rows(tab, tol, TWO_PI)) == [repr(s.dilated(tol).spans)
                                                             for s in sets]
            inside = contained_rows(tab, dilated_rows(other, tol, TWO_PI), TWO_PI)
            assert inside.tolist() == [a.contained_in(b, tol) for a, b in zip(sets, others)]
            equal, joined = equal_rows(tab, other, dilated_rows(tab, tol, TWO_PI),
                                       dilated_rows(other, tol, TWO_PI), TWO_PI)
            assert equal.tolist() == [a.set_equal(b, tol) for a, b in zip(sets, others)]
            assert joined.tolist() == [len(a.dilated(tol)) < len(a) or len(b.dilated(tol)) < len(b)
                                       for a, b in zip(sets, others)]
            seen.append((tol, equal.tolist(), joined.tolist()))
        half = projected_rows(other, TWO_PI)
        inside = contained_rows(projected_rows(tab, TWO_PI), dilated_rows(half, CLEAN_TOL, math.pi),
                                math.pi)
        assert inside.tolist() == [a.project_half().contained_in(b.project_half(), CLEAN_TOL)
                                   for a, b in zip(sets, others)]

    sweep()
    # the sweep reaches equal and unequal rows, and SET_TOL dilations that
    # join components and others that do not
    flat = [(e, j) for tol, equal, joined in seen if tol == SET_TOL for e, j in zip(equal, joined)]
    assert {e for e, _ in flat} == {True, False} and {j for _, j in flat} == {True, False}


def test_rows_of_a_dilated_table_are_the_dilated_rows():
    # a table is dilated once and its rows are read by index: each read
    # row, repeated or reordered, is what dilating that row alone gives,
    # and so are equal_rows' answers and joined counts on the rows
    seen = set()

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.lists(st.tuples(arc_lists() | st.just([Arc.full()]), arc_lists()),
                    min_size=1, max_size=5),
           st.lists(st.integers(0, 4), min_size=1, max_size=8))
    def sweep(rows, picks):
        tab, other = (span_table([CircularSet(r[k]) for r in rows]) for k in (0, 1))
        idx = np.array([k % len(rows) for k in picks])
        at = [(t[0][idx], t[1][idx]) for t in (tab, other)]
        for tol in (SET_TOL, CLEAN_TOL, EPS_GROUP):
            fat = [dilated_rows(t, tol, TWO_PI) for t in (tab, other)]
            read = [(f[0][idx], f[1][idx]) for f in fat]
            alone = [dilated_rows(t, tol, TWO_PI) for t in at]
            assert [_rows(f) for f in read] == [_rows(f) for f in alone]
            equal, joined = equal_rows(*at, *read, TWO_PI)
            assert (equal.tolist(), joined.tolist()) == \
                tuple(x.tolist() for x in equal_rows(*at, *alone, TWO_PI))
            seen.update(zip(equal.tolist(), joined.tolist()))

    sweep()
    assert {e for e, _ in seen} == {j for _, j in seen} == {True, False}
