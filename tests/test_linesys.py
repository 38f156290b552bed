import math

import numpy as np
import pytest

from curvex.circle import CircularSet, circle_dist, cyclic_between, forward_gap
from curvex.errors import EmptyY, PreconditionFailed
from curvex.linesys import (
    AdmissibleInterval,
    LineSystem,
    check_axioms,
    clean_point_between,
    find_clean_inflection,
    intermediate_point,
    mu_bounds,
    three_clean_inflections,
    validate_admissible,
)

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


class TestMuBounds:
    def interval(self, sys):
        # consecutive positive clean points of the 3-flex system
        return AdmissibleInterval(0.0, 2 * math.pi / 3)

    def test_validate(self, sys3):
        iv = self.interval(sys3)
        assert validate_admissible(sys3, iv, grid=6)
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
    sys = LineSystem(lambda ps: ([CircularSet.from_points([p, p + math.pi])
                                  for p in ps], []))
    iv = AdmissibleInterval(0.1, 0.9)
    with pytest.raises(EmptyY):
        mu_bounds(sys, iv, 0.5)


def test_axioms_pass_on_corpus(sys3, wsys_sin3):
    for sys in (sys3, wsys_sin3):
        rep = check_axioms(sys, grid_size=64)
        assert rep.all_pass, [r.to_json() for r in rep.results if not r.passed]


def test_axioms_fault_injection():

    def broken(ps):
        # contact family without antipodal symmetry
        return [CircularSet.from_points([p, p + math.pi, p + 1.0]) for p in ps], []

    rep = check_axioms(LineSystem(broken), grid_size=32)
    by_name = {r.axiom: r for r in rep.results}
    assert not by_name["L3"].passed
    assert by_name["L3"].witnesses
    assert not rep.all_pass


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


def test_reversed_system_view(sys3):
    rev = sys3.reversed()
    F = sys3.F(0.35)
    Frev = rev.F((2 * math.pi - 0.35) % (2 * math.pi))
    mids = sorted(c.midpoint for c in F.components())
    rmids = sorted((2 * math.pi - c.midpoint) % (2 * math.pi)
                   for c in Frev.components())
    assert mids == pytest.approx(rmids, abs=1e-9)
