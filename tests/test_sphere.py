import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvex import sphere
from curvex.census import anti_convexity_grid_test
from curvex.circle import TWO_PI, Arc
from curvex.errors import DegeneratePoint, LineCurve
from curvex.sphere import (
    EPS_CONTACT,
    FALLBACK,
    ProjectiveCurve,
    _limits,
    _through_point_series,
    admissible_normal_arc,
    inflection_indicator,
    limiting_circle,
    normal_direction,
    true_inflections,
)
from curvex.trig import ANTIPERIODIC, TrigSeries, VectorSeries, cos_series, sin_series


def make_curve(g):
    return ProjectiveCurve(VectorSeries(cos_series(1), sin_series(1), g))


def test_lift_basics():
    c = make_curve(sin_series(3, 0.1))
    assert np.allclose(make_curve(TrigSeries.zero("antiperiodic")).lift(0.0),
                       [1.0, 0.0, 0.0])
    v = c.lift(math.pi / 2)
    expect = np.array([0.0, 1.0, -0.1])
    assert np.allclose(v, expect / np.linalg.norm(expect))
    for t in np.linspace(0, TWO_PI, 9):
        assert np.allclose(c.lift(t + math.pi), -c.lift(t), atol=1e-12)


def test_degenerate_point_rejected():
    # z-dominated series whose xy part vanishes at t = 0
    F = VectorSeries(sin_series(1), sin_series(1), sin_series(1, 1e-12))
    with pytest.raises(DegeneratePoint):
        ProjectiveCurve(F)


def test_indicator_closed_form():
    g = sin_series(3, 0.1)
    c = make_curve(g)
    w = inflection_indicator(c)
    expect = g.derivative(2) + g
    t = np.linspace(0, TWO_PI, 200)
    assert np.allclose(w(t), expect(t), atol=1e-13)


def test_indicator_matches_numeric_determinant():
    rng = np.random.default_rng(3)
    harmonics = tuple((k, rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1))
                      for k in (1, 3, 5, 7))
    g = TrigSeries(0.0, harmonics, "antiperiodic")
    c = make_curve(g)
    w = inflection_indicator(c)
    ts = np.linspace(0, TWO_PI, 64)
    for t in ts:
        M = np.stack([c.F(t), c.F1(t), c.F2(t)])
        assert w(float(t)) == pytest.approx(float(np.linalg.det(M)), abs=1e-12)


@pytest.mark.parametrize("amp5,expected", [(0.0, 3), (0.05, 5)])
def test_inflection_counts(amp5, expected):
    g = sin_series(3, 0.05) + sin_series(5, amp5) if amp5 else sin_series(3, 0.1)
    rep = true_inflections(make_curve(g))
    assert rep.count == expected


def test_seven_inflections(curve7):
    assert true_inflections(curve7).count == 7


def test_inflection_signs_alternate(curve3):
    rep = true_inflections(curve3)
    signs = [e.sign for e in rep.entries if e.crossing]
    assert signs == [1, -1, 1]
    params = [e.parameter for e in rep.entries]
    assert params == pytest.approx([0.0, math.pi / 3, 2 * math.pi / 3], abs=1e-9)


def test_line_curve_rejected():
    c = make_curve(TrigSeries.zero("antiperiodic"))
    with pytest.raises(LineCurve):
        true_inflections(c)


def test_admissible_arc_on_great_circle():
    c = make_curve(TrigSeries.zero("antiperiodic"))
    arc, _ = admissible_normal_arc(c, 0.3)
    assert arc is not None
    assert arc.length == pytest.approx(math.pi, abs=1e-2)


def test_admissible_arc_nonempty_on_corpus(curve3):
    for t in np.linspace(0, math.pi, 16, endpoint=False):
        arc, _ = admissible_normal_arc(curve3, float(t))
        assert arc is not None and arc.length > 0


def test_anti_convexity_violated_for_warped_curve():
    # graphs over a great circle always admit separating circles; folding
    # the horizontal part with a third harmonic breaks that
    F = VectorSeries(cos_series(1), sin_series(1) + cos_series(3, 0.7),
                     sin_series(3, 0.05))
    assert not anti_convexity_grid_test(ProjectiveCurve(F).lift_many)


def test_limiting_circle_clean_point(curve3):
    cd = limiting_circle(curve3, 0.0)
    assert cd.tangent_at_base
    assert len(cd.contact) == 2


def test_limiting_circle_interior_touch(curve3):
    # the touch location follows from the closed-form tangent-contact
    # function 4 sin^3(t - p) structure of this curve at p = pi/3
    cd = limiting_circle(curve3, math.pi / 3)
    assert not cd.tangent_at_base
    assert len(cd.contact) == 4
    assert cd.touches[0] == pytest.approx(5 * math.pi / 6, abs=1e-8)


def test_limiting_circle_touch_between_arc_samples():
    # the touch falls between samples of the forward arc, 7.8e-6 below
    # the end of the sampled admissible arc, so the Newton bracket must
    # reach that far down
    g = (cos_series(3, 0.06904597456304642) + sin_series(3, 0.29072998350509477)
         + cos_series(5, -0.15977432307836448) + sin_series(5, 0.1508552982858421)
         + cos_series(7, -0.0025548893081229047) + sin_series(7, -0.04319478343743177)
         + cos_series(9, -0.029739137718161553) + sin_series(9, -0.04010431542898485))
    cd = limiting_circle(make_curve(g), 5.744224069843841)
    assert not cd.tangent_at_base
    assert len(cd.contact) == 4


def test_limiting_circle_generic_has_three_components(curve3):
    for t in (0.35, 1.2, 1.9, 2.8):
        cd = limiting_circle(curve3, t)
        if not cd.tangent_at_base:
            assert len(cd.contact) >= 3


def test_contact_sets_are_antipodally_symmetric(curve5):
    for t in (0.1, 0.9, 2.2):
        contact = limiting_circle(curve5, t).contact
        assert contact.set_equal(contact.antipodal_image(), 1e-9)


def test_limiting_circle_side_condition(curve5):
    rng = np.random.default_rng(11)
    for t in rng.uniform(0, TWO_PI, 8):
        cd = limiting_circle(curve5, float(t))
        n = cd.circle.normal
        ss = float(t) + np.linspace(1e-3, math.pi - 1e-3, 4096)
        vals = curve5.lift_many(ss) @ n
        assert float(np.max(vals)) <= 2e-8


def test_contact_tangency_away_from_base(curve5):
    cd = limiting_circle(curve5, 0.9)
    n = cd.circle.normal
    for s in cd.touches:
        tangent = curve5.frame(s)[1]
        assert abs(float(np.dot(n, tangent))) <= 1e-6


def test_theta_parametrization_consistency(curve3):
    cd = limiting_circle(curve3, 1.0)
    frame = curve3.frame(1.0)
    assert np.allclose(cd.circle.normal, normal_direction(frame, cd.theta),
                       atol=1e-12)


@pytest.mark.parametrize("fixture", ["curve3", "curve5", "curve7"])
def test_batched_limits_equal_single_solves(fixture, request):
    # 70 bases span three blocks; a base's circle must not depend on the
    # bases solved beside it, so that a cached contact set never depends
    # on how the cache was filled
    curve = request.getfixturevalue(fixture)
    ts = np.linspace(0.0, TWO_PI, 70, endpoint=False)
    for t, cd in zip(ts, _limits(curve, ts, EPS_CONTACT)):
        one = _limits(curve, [t], EPS_CONTACT)[0]
        assert np.array_equal(cd.circle.normal, one.circle.normal)
        assert (cd.theta, cd.tangent_at_base, cd.touches, cd.warnings) == \
            (one.theta, one.tangent_at_base, one.touches, one.warnings)
        assert cd.contact.arcs == one.contact.arcs


def test_curve7_base_tangent_at_zero(curve7):
    # rounding leaves one side sample of the tangent circle at t = 0
    # positive (4e-17), so the sampled arc ends 7e-9 short of angle 0
    # and only the snap to the base tangent recovers it
    cd = limiting_circle(curve7, 0.0)
    assert cd.tangent_at_base and cd.theta == 0.0
    assert cd.touches == () and len(cd.contact) == 2


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.0, TWO_PI, exclude_max=True))
def test_limiting_circle_is_extremal_on_random_lifts(seed, t):
    rng = np.random.default_rng(seed)
    g = TrigSeries(0.0, tuple((k, rng.normal() / k ** 1.5, rng.normal() / k ** 1.5)
                              for k in (3, 5, 7, 9)), ANTIPERIODIC)
    curve = make_curve(g)
    cd = limiting_circle(curve, t)
    # the forward arc on 2^14 points, its ends and the touches
    ss = np.concatenate([t + np.linspace(1e-6, math.pi - 1e-6, 2 ** 14),
                         [t + 1e-7, t + math.pi - 1e-7], cd.touches])
    units = curve.lift_many(ss)
    assert float(np.max(units @ cd.circle.normal)) <= 2.0 * EPS_CONTACT
    turned = normal_direction(curve.frame(t), cd.theta + 1e-6)
    assert float(np.max(units @ turned)) > 0.0


def test_vanishing_top_coefficient_raises_no_warning():
    # only y carries cos 3t and only z the top harmonic, so the top
    # coefficient of T_t is a multiple of x(t) = sin t, exactly 0 at t = 0
    curve = ProjectiveCurve(VectorSeries(sin_series(1), cos_series(1) + cos_series(3, 0.1),
                                         sin_series(5, 0.05)))
    assert _through_point_series(curve, np.array([0.0]))[0, -1] == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cd = limiting_circle(curve, 0.0)
    assert cd.contact.set_equal(limiting_circle(curve, 1e-9).contact, 1e-6)


def test_fallback_to_the_sampled_arc_end(curve3, monkeypatch):
    # an arc ending 2e-9 before the limiting angle leaves no candidate
    # inside it; the end of the arc then still touches within eps_contact
    cd = limiting_circle(curve3, 1.0)
    real = sphere.admissible_arcs

    def short(A, B):
        return [Arc(a.start, (cd.theta - 2e-9 - a.start) % TWO_PI) for a in real(A, B)]

    monkeypatch.setattr(sphere, "admissible_arcs", short)
    fallen = limiting_circle(curve3, 1.0)
    assert fallen.warnings == (FALLBACK,)
    assert fallen.theta == pytest.approx(cd.theta - 2e-9, abs=1e-12)
    assert fallen.contact.set_equal(cd.contact, 1e-6)
