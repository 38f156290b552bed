import math

import pytest
from hypothesis import given, strategies as st

from curvex.circle import (
    Arc,
    CircularSet,
    EPS_GROUP,
    TWO_PI,
    antipode,
    canonical,
    circle_dist,
    cyclic_between,
    cyclic_midpoint,
    cyclic_runs,
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
