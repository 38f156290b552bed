import math
import warnings

import numpy as np
import pytest
from conftest import anti_convexity_grid_test
from hypothesis import given, settings, strategies as st

from curvex import sphere
from curvex.circle import TWO_PI, CircularSet, canonical, circle_dist
from curvex.errors import (
    CurvexError,
    DegeneratePoint,
    LineCurve,
    NoConvergence,
    NotAntiConvex,
)
from curvex.linesys import _l7_chains
from curvex.sphere import (
    EPS_CONTACT,
    ProjectiveCurve,
    _contact_sets,
    _cross3,
    _dot3,
    _interior_zeros,
    _divided,
    _limits,
    admissible_normal_arc,
    arc_zeros,
    inflection_indicator,
    limiting_circle,
    normal_direction,
    true_inflections,
)
from curvex import trig
from curvex.trig import (
    ANTIPERIODIC,
    TrigSeries,
    VectorSeries,
    circle_zeros,
    companion_roots,
    cos_series,
    laurent_rows,
    real_seeds,
    roots,
    sin_series,
    tan_rows,
)


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
    # the indicator is cached on the curve; the verdict is not
    with pytest.raises(LineCurve):
        true_inflections(c)


def test_admissible_arc_on_great_circle():
    c = make_curve(TrigSeries.zero("antiperiodic"))
    [(arc, _)] = admissible_normal_arc(c, np.array([0.3]))
    assert arc is not None
    assert arc.length == pytest.approx(math.pi, abs=1e-2)


def test_admissible_arc_nonempty_on_corpus(curve3):
    for arc, _ in admissible_normal_arc(curve3, np.linspace(0, math.pi, 16, endpoint=False)):
        assert arc is not None and arc.length > 0


def test_cross3_matches_np_cross_bit_for_bit():
    rng = np.random.default_rng(4)
    a, b = rng.normal(size=(200, 3)), rng.normal(size=(200, 3)) * 1e3
    assert np.array_equal(_cross3(a, b), np.cross(a, b))
    assert np.array_equal(_cross3(a, b[7]), np.cross(a, b[7]))
    assert np.array_equal(_cross3(a[3], b[5]), np.cross(a[3], b[5]))
    assert _cross3(a[3], b[5]).shape == (3,)


@pytest.mark.parametrize("fixture", ["curve3", "curve5", "curve7"])
def test_admissible_normal_arc_on_many_bases_equals_single_calls(fixture, request):
    curve = request.getfixturevalue(fixture)
    ts = np.linspace(0.1, 0.1 + TWO_PI, 37, endpoint=False)
    found = admissible_normal_arc(curve, ts)
    assert len(found) == len(ts)
    for t, (arc, (nu, that)) in zip(ts, found):
        [(one, (nu1, that1))] = admissible_normal_arc(curve, np.array([t]))
        assert (arc.start, arc.length) == (one.start, one.length)
        assert np.array_equal(nu, nu1) and np.array_equal(that, that1)


def warped_curve():
    return ProjectiveCurve(VectorSeries(cos_series(1), sin_series(1) + cos_series(3, 0.7),
                                        sin_series(3, 0.05)))


@pytest.mark.parametrize("fixture", ["curve3", "curve5", "curve7", "sf_mix7", "curve7_gl3"])
def test_admissible_normal_arc_middle_circle_keeps_the_half_curve_negative(fixture, request):
    # the exact arc against 2^14 samples of each base's open forward arc
    obj = request.getfixturevalue(fixture)
    curve = obj if isinstance(obj, ProjectiveCurve) else obj.lift
    ts = np.linspace(0.0, TWO_PI, 128, endpoint=False) + 0.01
    offsets = np.linspace(0.0, math.pi, 2 ** 14 + 2)[1:-1]
    for t, (arc, frame) in zip(ts, admissible_normal_arc(curve, ts)):
        n = normal_direction(frame, arc.midpoint)
        assert np.max(curve.lift_many(t + offsets) @ n) < 0.0


def test_admissible_normal_arc_is_none_exactly_where_limits_are_not_anti_convex():
    curve = warped_curve()
    ts = np.linspace(0.0, TWO_PI, 128, endpoint=False) + 0.01
    failing = []
    for t in ts:
        try:
            limiting_circle(curve, t)
            failing.append(False)
        except NotAntiConvex:
            failing.append(True)
    assert 0 < sum(failing) < len(ts)
    assert [arc is None for arc, _ in admissible_normal_arc(curve, ts)] == failing


def test_anti_convexity_violated_for_warped_curve():
    # graphs over a great circle always admit separating circles; folding
    # the horizontal part with a third harmonic breaks that
    assert not anti_convexity_grid_test(warped_curve().lift_many)


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
    # the touch fell between the samples of the forward arc, 7.8e-6
    # below the end of the sampled admissible arc; the exact arc ends at
    # its candidate
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
    # 70 bases in one pass; a base's circle must not depend on the bases
    # solved beside it, so that a cached contact set never depends on how
    # the cache was filled
    curve = request.getfixturevalue(fixture)
    assert _limits(curve, [], EPS_CONTACT) == []
    ts = np.linspace(0.0, TWO_PI, 70, endpoint=False)
    for t, cd in zip(ts, _limits(curve, ts, EPS_CONTACT)):
        one = _limits(curve, [t], EPS_CONTACT)[0]
        assert np.array_equal(cd.circle.normal, one.circle.normal)
        assert (cd.theta, cd.tangent_at_base, cd.touches, cd.warnings) == \
            (one.theta, one.tangent_at_base, one.touches, one.warnings)
        assert cd.contact.arcs == one.contact.arcs


def limit_block_loop(curve, ts, eps_contact):
    """A block of limiting circles solved base after base, each from the
    directions at its own zeros of T_t: the reference that the block
    pass must match bit for bit, errors included."""
    out = []
    for t in ts.tolist():
        base = np.array([t])
        Ft = curve.F.eval_many(base)
        nu, that = sphere._frames(Ft, curve.F1.eval_many(base), base)
        rows, ss = _interior_zeros(curve, base, Ft)
        Fs = curve.F.eval_many(ss)
        radii = np.sqrt(_dot3(Fs, Fs))
        A, B = _dot3(nu[0], Fs) / radii, _dot3(that[0], Fs) / radii
        [start], [length] = sphere._exact_arcs(curve, base, (nu, that), rows, A, B)
        if length < 0.0:
            raise NotAntiConvex(t)
        planes = _cross3(Ft[0], Fs)
        pn, pt = _dot3(planes, nu[0]), _dot3(planes, that[0])
        up = np.where(pn * _dot3(that[0], Fs) < pt * _dot3(nu[0], Fs), -1.0, 1.0)
        angles = np.arctan2(up * pt, up * pn)

        def side_max(theta):  # the ends of the forward arc read 0
            return float(np.max(math.cos(theta) * A + math.sin(theta) * B, initial=0.0))

        theta_hat = start + length
        for theta_star in (0.0, math.pi):
            if circle_dist(theta_hat, theta_star) < 1e-4 and side_max(theta_star) <= eps_contact:
                tangent_at_base = True
                break
        else:
            tangent_at_base = False
            normals = np.cos(angles)[:, None] * nu[0] + np.sin(angles)[:, None] * that[0]
            over = np.max(_dot3(normals[:, None], Fs) / radii, axis=1, initial=-math.inf)
            pos = (angles - start) % TWO_PI
            ok = (pos <= length + 1e-9) & (over <= eps_contact)
            if not ok.any():
                raise NoConvergence(f"limiting circle at t={t} not found in its admissible arc")
            theta_star = canonical(float(angles[ok][np.argmax(pos[ok])]))
        normal = math.cos(theta_star) * nu[0] + math.sin(theta_star) * that[0]
        leave = side_max(theta_star)
        if leave > 2.0 * eps_contact:
            raise NoConvergence(
                f"limiting circle at t={t} leaves the half-curve by {leave:.3g}")
        side = np.abs(_dot3(normal, Fs)) / radii
        touches = np.sort(ss[side <= eps_contact])
        touches = touches[np.diff(touches, prepend=-math.inf) > 1e-9].tolist()
        contact = CircularSet.from_points([t, t + math.pi] + touches
                                          + [s + math.pi for s in touches])
        if not tangent_at_base and len(contact) < 3:
            raise NoConvergence(
                f"transversal limiting circle at t={t} shows {len(contact)} contact "
                "components; expected at least three")
        out.append(sphere.ContactData(sphere.GreatCircle(normal), contact, canonical(t),
                                      theta_star, tangent_at_base, tuple(touches)))
    return out


def _solved(solve, curve, ts, eps):
    """Every float of the solved circles, or the error raised, by type and message."""
    try:
        return [(cd.circle.normal.tobytes(), repr(cd.contact.spans), cd.base, cd.theta,
                 cd.tangent_at_base, cd.touches, cd.warnings)
                for cd in solve(curve, ts, eps)]
    except CurvexError as err:
        return type(err), str(err)


@pytest.mark.parametrize("eps,shorten", [(EPS_CONTACT, 0.0), (1e-6, 0.0), (1e-12, 0.0),
                                         (EPS_CONTACT, 2e-9), (EPS_CONTACT, 1e-6)])
@pytest.mark.parametrize("case", ["curve3", "curve7", "sf_mix7", "warped", "rng"])
def test_block_pass_matches_the_per_base_loop(case, eps, shorten, request, monkeypatch):
    # arcs past t = pi cut short of their end leave transversal bases
    # there without their candidate, so a pass fails past its middle, and
    # the warped curve has bases with no admissible arc; the pass raises
    # what the loop raises, on the 32 bases of a block that the axiom
    # grid held before, on the 256 of that grid and on one base
    real = sphere._exact_arcs

    def cut(curve, ts, *rest):
        start, length = real(curve, ts, *rest)
        return start, np.where(length < 0.0, length,
                               np.maximum(length - shorten * (ts > math.pi), 0.0))

    monkeypatch.setattr(sphere, "_exact_arcs", cut)
    if case == "rng":
        rng = np.random.default_rng(3)
        curves = [make_curve(TrigSeries(0.0, tuple(
            (k, rng.normal() / k ** 1.5, rng.normal() / k ** 1.5) for k in (3, 5, 7, 9)),
            ANTIPERIODIC)) for _ in range(4)]
    elif case == "warped":  # the curve of test_anti_convexity_violated_for_warped_curve
        curves = [warped_curve()]
    else:
        obj = request.getfixturevalue(case)
        curves = [obj if isinstance(obj, ProjectiveCurve) else obj.lift]
    for curve in curves:
        for ts in (np.linspace(0.0, TWO_PI, 32, endpoint=False) + 0.01,
                   np.linspace(0.0, TWO_PI, 256, endpoint=False) + 0.01, np.array([0.7])):
            assert _solved(_limits, curve, ts, eps) == _solved(limit_block_loop, curve, ts, eps)


def test_curve7_base_tangent_at_zero(curve7):
    # the admissible arc ends where the forward arc does, along that,
    # which is angle 0 only up to rounding; the base tangent is snapped
    # to exactly 0
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


def per_series_jet(curve, ts):
    return np.concatenate([curve.F.eval_many(ts), curve.F1.eval_many(ts),
                           curve.F2.eval_many(ts)], axis=1)


@pytest.mark.parametrize("n", [0, 1, 2, 257])
def test_jet_is_bit_equal_to_per_series_evaluation(curve3, curve5, curve7, n):
    # beside the lifts, a curve with harmonics of its own in x and y
    other = ProjectiveCurve(VectorSeries(sin_series(1) + cos_series(3, 0.2),
                                         cos_series(1) + sin_series(5, -0.1),
                                         sin_series(3, 0.05) + cos_series(7, 0.01)))
    ts = np.linspace(-1.0, 7.0, n)
    for curve in (curve3, curve5, curve7, other):
        jet = curve.jet(ts)
        assert jet.shape == (n, 9)
        assert np.array_equal(jet, per_series_jet(curve, ts))


odd_terms = st.lists(st.tuples(st.sampled_from((1, 3, 5, 7, 9, 11)), st.floats(-2.0, 2.0),
                               st.floats(-2.0, 2.0)), max_size=4)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(odd_terms, odd_terms, odd_terms, st.lists(st.floats(-20.0, 20.0), max_size=6))
def test_jet_is_bit_equal_on_random_series(x, y, z, ts):
    try:
        curve = ProjectiveCurve(VectorSeries(*(TrigSeries(0.0, tuple(h), ANTIPERIODIC)
                                               for h in (x, y, z))))
    except DegeneratePoint:
        return
    ts = np.array(ts, dtype=float)
    assert np.array_equal(curve.jet(ts), per_series_jet(curve, ts))


class PerSeriesCurve(ProjectiveCurve):
    """A curve whose jet evaluates F, F' and F'' series by series."""

    def jet(self, ts):
        return per_series_jet(self, np.asarray(ts, dtype=float))


def test_frames_and_limits_through_the_jet_are_bit_equal(curve7):
    # beside curve7, an anti-convex curve with harmonics of its own in x and y
    other = ProjectiveCurve(VectorSeries(cos_series(1) + cos_series(3, 0.1),
                                         sin_series(1) + sin_series(3, 0.05), curve7.F.z))
    ts = np.linspace(0.0, math.pi, 40, endpoint=False)
    for curve in (curve7, other):
        reference = PerSeriesCurve(curve.F)
        assert all(np.array_equal(x, y)
                   for x, y in zip(curve.frames(ts), reference.frames(ts)))
        for cd, ref in zip(_limits(curve, ts, EPS_CONTACT), _limits(reference, ts, EPS_CONTACT)):
            assert np.array_equal(cd.circle.normal, ref.circle.normal)
            assert cd.contact.spans == ref.contact.spans
            assert (cd.theta, cd.tangent_at_base, cd.touches, cd.warnings) == \
                (ref.theta, ref.tangent_at_base, ref.touches, ref.warnings)


def test_vanishing_top_coefficient_raises_no_warning():
    # only y carries cos 3t and only z the top harmonic, so the top
    # coefficient of T_t is a multiple of x(t) = sin t, exactly 0 at t = 0
    curve = ProjectiveCurve(VectorSeries(sin_series(1), cos_series(1) + cos_series(3, 0.1),
                                         sin_series(5, 0.05)))
    assert curve._tangent_planes[:, -1] @ curve.F(0.0) == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cd = limiting_circle(curve, 0.0)
    assert cd.contact.set_equal(limiting_circle(curve, 1e-9).contact, 1e-6)


def _turned(start, length):
    # the admissible arc turned by pi to a point: no candidate lies on it
    return start + math.pi, 0.0


def _lost(start, length):
    return start, -1.0


@pytest.mark.parametrize("first,second,error,words", [
    (_lost, _turned, NotAntiConvex, "no admissible line at t="),
    (_turned, _lost, NoConvergence, "limiting circle at t="),
], ids=["not-anti-convex-first", "no-convergence-first"])
def test_a_block_raises_the_error_of_its_first_failing_base(curve3, monkeypatch,
                                                           first, second, error, words):
    # bases 5 and 9 of one 32-base pass fail, each in its own way; the
    # pass raises what solving its bases one by one in order raises: the
    # error of base 5
    ts = np.linspace(0.0, TWO_PI, 32, endpoint=False)
    real = sphere._exact_arcs
    broken = {5: first, 9: second}

    def failing(*args):
        start, length = real(*args)
        for i, make in broken.items():
            start[i], length[i] = make(start[i], length[i])
        return start, length

    monkeypatch.setattr(sphere, "_exact_arcs", failing)
    with pytest.raises(error) as block:
        _limits(curve3, ts, EPS_CONTACT)
    assert str(block.value).startswith(f"{words}{float(ts[5])!r}")


@pytest.mark.parametrize("fixture", ["curve3", "curve5", "curve7", "curve7_gl3", "sf_mix7"])
def test_row_built_contact_sets_equal_single_solves(fixture, request):
    # the contact maps merge the point tables of a whole block in one
    # merged_rows pass; each row must be the set that limiting_circle
    # merges by from_points, float for float, on the axiom grid, on the
    # grid with the L7 chain bases in one BLOCK pass of 316 bases as the
    # axiom check sends them, and on 70 random bases, whatever bases are
    # solved beside it
    obj = request.getfixturevalue(fixture)
    curve = obj if isinstance(obj, ProjectiveCurve) else obj.lift
    grid = np.array([canonical(i * TWO_PI / 256) for i in range(256)])
    chained = [q for chain in _l7_chains(grid.tolist(), TWO_PI)[1] for q in chain]
    axiom_pass = np.array(list(dict.fromkeys(round(canonical(q), 12)
                                             for q in [*grid.tolist(), *chained])))
    assert len(axiom_pass) == 316 <= sphere.BLOCK
    rand = np.random.default_rng(4).uniform(0.0, TWO_PI, 70)
    for ts in (grid, axiom_pass, rand):
        sets = _contact_sets(curve, ts, EPS_CONTACT)
        assert [repr(s.spans) for s in sets] == \
            [repr(limiting_circle(curve, t).contact.spans) for t in ts]
    beside = _contact_sets(curve, np.concatenate([rand[::-1], grid[::3]]), EPS_CONTACT)
    assert [s.spans for s in beside[:70]] == [s.spans for s in sets[::-1]]


@pytest.mark.parametrize("shift", [0.0, 5e-8])
def test_a_zero_found_twice_is_one_contact_component(curve7, monkeypatch, shift):
    # each zero of T_t reported twice, the copy shift later: at the same s
    # it is one touch, and 5e-8 apart, within EPS_GROUP, the two touches
    # merge into one component, in the row merge as in from_points
    ts = np.linspace(0.0, TWO_PI, 64, endpoint=False)
    once = _limits(curve7, ts, EPS_CONTACT)
    real = sphere._interior_zeros

    def twice(*args):
        rows, ss = real(*args)
        return np.repeat(rows, 2), np.repeat(ss, 2) + np.tile([0.0, shift], len(ss))

    monkeypatch.setattr(sphere, "_interior_zeros", twice)
    doubled = _limits(curve7, ts, EPS_CONTACT)
    assert sum(len(cd.touches) for cd in once) > 0
    assert [len(cd.touches) for cd in doubled] == \
        [len(cd.touches) * (1 if shift == 0.0 else 2) for cd in once]
    assert [len(cd.contact) for cd in doubled] == [len(cd.contact) for cd in once]
    assert [s.spans for s in _contact_sets(curve7, ts, EPS_CONTACT)] == \
        [cd.contact.spans for cd in doubled]


def _outcome(solve, curve, ts):
    """The spans of the solved contact sets, or the error raised."""
    try:
        return [repr(s.spans) for s in solve(curve, ts)]
    except CurvexError as err:
        return type(err), str(err)


@pytest.mark.parametrize("broken,error,words", [
    ({}, NotAntiConvex, "no admissible line at t=0.0"),
    ({5: _lost, 9: _turned, 40: _lost}, NotAntiConvex, "no admissible line at t="),
    ({5: _turned, 9: _lost, 40: _turned}, NoConvergence, "limiting circle at t="),
], ids=["warped", "not-anti-convex-first", "no-convergence-first"])
def test_row_built_sets_raise_the_error_of_the_first_failing_base(curve3, monkeypatch,
                                                                  broken, error, words):
    # several bases of a block fail: on the warped curve, many with no
    # admissible arc; on curve3, bases 5, 9 and 40 broken each in its own
    # way.  The row-built pass raises the error of the first, as _limits
    # and, on the warped curve, the per-base loop do
    ts = np.linspace(0.0, TWO_PI, 256, endpoint=False)
    if broken:
        curve, real = curve3, sphere._exact_arcs

        def failing(*args):
            start, length = real(*args)
            for i, make in broken.items():
                start[i], length[i] = make(start[i], length[i])
            return start, length

        monkeypatch.setattr(sphere, "_exact_arcs", failing)
        words += repr(float(ts[5]))
    else:
        curve = warped_curve()
        assert sum(arc is None for arc, _ in admissible_normal_arc(curve, ts)) > 1
        assert _outcome(lambda c, ts: _contact_sets(c, ts, EPS_CONTACT), curve, ts) == \
            _outcome(lambda c, ts: [cd.contact for cd in limit_block_loop(c, ts, EPS_CONTACT)],
                     curve, ts)
    got = _outcome(lambda c, ts: _contact_sets(c, ts, EPS_CONTACT), curve, ts)
    assert got == _outcome(lambda c, ts: [cd.contact for cd in _limits(c, ts, EPS_CONTACT)],
                           curve, ts)
    assert got[0] is error and got[1].startswith(words)


@pytest.mark.parametrize("check,words", [
    ("arc", "no admissible line at t=1.5"),
    ("found", "limiting circle at t=1.5 not found in its admissible arc"),
    ("leaves", "limiting circle at t=1.5 leaves the half-curve by 0.25"),
    ("components", "transversal limiting circle at t=1.5 shows 2 contact components; "
                   "expected at least three"),
])
def test_a_block_checks_its_bases_in_order_and_each_check_in_order(check, words):
    # base 2 fails the named check and every later one, base 3 fails every
    # check: the block raises the first failing base's first error
    order = ["arc", "found", "leaves", "components"]
    fails = {name: np.array([False, False, order.index(name) >= order.index(check), True])
             for name in order}
    block = sphere._Block(np.array([0.5, 1.0, 1.5, 2.0]), [0.0] * 4, np.zeros(4, dtype=bool),
                          np.zeros((4, 3)), ~fails["arc"], ~fails["found"], np.full(4, 0.25),
                          fails["leaves"], np.zeros(0, dtype=int), np.zeros(0))
    with pytest.raises((NotAntiConvex, NoConvergence)) as err:
        block.raise_first(np.where(fails["components"], 2, 3))
    assert str(err.value) == words
    clean = block._replace(arc=np.ones(4, dtype=bool), found=np.ones(4, dtype=bool),
                           leaves=np.zeros(4, dtype=bool))
    clean.raise_first([3, 3, 3, 3])
    # a tangent circle needs no third component
    clean._replace(tangent=np.ones(4, dtype=bool)).raise_first([2, 2, 2, 2])


def test_certificate_top_coefficient_vanishing_raises_no_warning():
    # F(0) = (0, 1.12, 0), so every normal of the frame at 0 has an exact
    # 0 in y, and only y carries the top harmonic: the certificate's
    # polynomial n . F at t = 0 has a top coefficient of exactly 0
    curve = ProjectiveCurve(VectorSeries(sin_series(1),
                                         cos_series(1) + cos_series(3, 0.1) + cos_series(5, 0.02),
                                         sin_series(3, 0.05)))
    nu, that = curve.frame(0.0)
    assert nu[1] == that[1] == 0.0
    top = laurent_rows(curve.F.components)[:, -1]
    assert top[0] == top[2] == 0.0 and top[1] != 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cd = limiting_circle(curve, 0.0)
    assert not cd.tangent_at_base
    assert cd.contact.set_equal(limiting_circle(curve, 1e-9).contact, 1e-6)


def winding_curve():
    """A curve with no constant terms that is not anti-convex: near
    t = 1.645 and 4.786 the direction of F winds once round within one
    stretch between zeros of T_t."""
    rows = [((1, 1.446575, -0.700275), (3, 0.143955, 0.162697), (5, -0.117589, 0.052095),
             (7, 0.060464, -0.068545), (9, -0.056762, 0.027743)),
            ((1, 0.563071, 0.53664), (3, 0.206901, 0.016527), (5, 0.047096, 0.094563),
             (7, -0.00571, 0.006473), (9, 0.00536, -0.00262)),
            ((1, -0.537036, -0.091843), (3, -0.045038, -0.0957), (5, 0.015087, -0.04441),
             (7, -0.027737, 0.031444), (9, 0.026039, -0.012727))]
    return ProjectiveCurve(VectorSeries(*(TrigSeries(0.0, h, ANTIPERIODIC) for h in rows)))


def direction_span(curve, t, n=2 ** 14):
    """How far the direction atan2(that . F, nu . F) turns over n points
    of the forward arc (t + 1e-6, t + pi - 1e-6)."""
    nu, that = curve.frame(t)
    P = curve.F.eval_many(t + np.linspace(1e-6, math.pi - 1e-6, n))
    return float(np.ptp(np.unwrap(np.arctan2(P @ that, P @ nu))))


@pytest.mark.parametrize("t", [1.633, 1.657, 4.774, 4.799])
def test_certificate_catches_a_direction_winding_between_zeros(t):
    curve = winding_curve()
    assert direction_span(curve, t) > TWO_PI
    # the directions at the zeros of T_t and at the ends alone leave an arc
    ts = np.array([t])
    Ft = curve.F.eval_many(ts)
    nu, that = curve.frames(ts)
    rows, ss = _interior_zeros(curve, ts, Ft)
    P = curve.F.eval_many(ss)
    _, [length] = sphere.admissible_arcs(np.append(P @ nu[0], 0.0)[None],
                                         np.append(P @ that[0], 1.0)[None])
    assert length == pytest.approx(2.93, abs=0.01)
    with pytest.raises(NotAntiConvex):
        limiting_circle(curve, t)


@pytest.mark.parametrize("t", [0.5, 3.0])
def test_certificate_passes_admissible_bases_of_the_winding_curve(t):
    curve = winding_curve()
    assert direction_span(curve, t) < math.pi
    cd = limiting_circle(curve, t)
    units = curve.lift_many(t + np.linspace(1e-6, math.pi - 1e-6, 2 ** 14))
    assert float(np.max(units @ cd.circle.normal)) <= 2.0 * EPS_CONTACT


def exact_arcs_reference(curve, ts, frames, rows, A, B):
    """_exact_arcs with the companion test on every base and no bound:
    the reference for the certificate."""
    nu, that = frames
    col = np.arange(len(rows)) - np.searchsorted(rows, rows)
    a, b = np.zeros((2, len(ts), int(col.max(initial=0)) + 2))
    b += 1.0
    a[rows, col], b[rows, col] = A, B
    start, length = sphere.admissible_arcs(a, b)
    mid = start + 0.5 * length
    n_mid = np.cos(mid)[:, None] * nu + np.sin(mid)[:, None] * that
    Q = n_mid @ laurent_rows(curve.F.components)[:, ::2]
    M = Q.shape[1] - 1
    met, u, degree = companion_roots(tan_rows(Q, 2.0 * ts)[:, 1:])
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.arctan(u)
    off = x.real % math.pi
    length[met[(np.abs(x.imag) < 5e-4) & (off > 1e-6) & (off < math.pi - 1e-6)]] = -1.0
    length[degree < M - 1] = -1.0
    return start, length


def exact_arcs_inputs(curve, ts):
    """The arguments that _arcs hands to _exact_arcs at the bases ts."""
    _, frames, rows, _, _, _, A, B, _, _ = sphere._arcs(curve, ts)
    return curve, ts, frames, rows, A, B


@pytest.fixture
def companion_spy(monkeypatch):
    """The number of rows each companion_roots call of sphere receives."""
    seen = []

    def spy(P):
        seen.append(len(P))
        return companion_roots(P)

    monkeypatch.setattr(sphere, "companion_roots", spy)
    return seen


def assert_certified_arcs_match_the_reference(curve, ts):
    """(start, length) of _exact_arcs bit-equal to the reference's;
    returns the reference's lengths."""
    args = exact_arcs_inputs(curve, ts)
    got, want = sphere._exact_arcs(*args), exact_arcs_reference(*args)
    assert got[0].tolist() == want[0].tolist()
    assert got[1].tolist() == want[1].tolist()
    return want[1]


@pytest.mark.parametrize("fixture", ["curve3", "curve5", "curve7", "sf_sin3", "sf_mix25",
                                     "sf_mix4", "sf_mix7", "curve7_gl3"])
def test_bound_clears_every_grid_base_of_the_corpus(fixture, request, companion_spy):
    obj = request.getfixturevalue(fixture)
    curve = obj if isinstance(obj, ProjectiveCurve) else obj.lift
    grid = np.linspace(0.0, TWO_PI, 256, endpoint=False)
    assert (assert_certified_arcs_match_the_reference(curve, grid) >= 0.0).all()
    # the reference's own companion calls go straight to trig
    assert companion_spy == []


def test_certified_arcs_match_the_reference_on_general_curves(companion_spy):
    grid = np.linspace(0.0, TWO_PI, 64, endpoint=False)
    draws = rejected = 0
    for seed in range(12):
        for e in (0.0, 1.0, 1.5):
            try:
                curve = ProjectiveCurve(general_curve(seed, e))
                curve.frames(grid)
            except DegeneratePoint:
                continue
            draws += 1
            rejected += int((assert_certified_arcs_match_the_reference(curve, grid) < 0.0).sum())
    assert draws >= 30 and rejected > 0
    # some bases were left open to the companion test
    assert sum(companion_spy) > 0


def test_certified_arcs_match_the_reference_on_the_winding_curve():
    ts = np.concatenate([np.linspace(0.0, TWO_PI, 256, endpoint=False),
                         [0.5, 1.633, 1.657, 3.0, 4.774, 4.799]])
    length = assert_certified_arcs_match_the_reference(winding_curve(), ts)
    assert (length < 0.0).any() and (length >= 0.0).any()


def middle_circle_frames(Ft, n):
    """Frames (nu, that) at a base with point Ft, orthogonal to it, under
    which _exact_arcs, given no zero of T_t, takes the middle circle of
    normal n: its gaps then leave a fixed arc, whose middle the frames
    turn onto n."""
    e1 = n / np.linalg.norm(n)
    e2 = np.cross(Ft / np.linalg.norm(Ft), e1)
    start, length = sphere.admissible_arcs(np.zeros((1, 2)), np.ones((1, 2)))
    mid = float(start[0] + 0.5 * length[0])
    return (math.cos(mid) * e1 - math.sin(mid) * e2)[None], \
        (math.sin(mid) * e1 + math.cos(mid) * e2)[None]


def test_a_middle_circle_met_a_quarter_turn_on_fails_the_base(curve3, companion_spy):
    # at base 0 of curve3, the circle through F(0) and F(pi/2) touches the
    # curve at pi/2: a double zero at the pole x = pi/2 of the polynomial in
    # tan(x), which only lowers its degree, so the degree test alone rejects
    # the base.  Tilted by 1e-3, the circle crosses the curve twice near
    # pi/2 and the companion sees both zeros; the base's own middle circle
    # passes, cleared by the bound
    def F(s):
        return curve3.F.eval_many(np.array([s]))[0]

    _, (nu, that), _, _, _, _, _, _, start, length = sphere._arcs(curve3, np.zeros(1))
    mid = float(start[0] + 0.5 * length[0])
    own = math.cos(mid) * nu[0] + math.sin(mid) * that[0]
    for n, holds in [(np.cross(F(0.0), F(math.pi / 2)), False),
                     (np.cross(F(0.0), F(math.pi / 2 + 1e-3)), False), (own, True)]:
        none = np.zeros(0)
        args = (curve3, np.zeros(1), middle_circle_frames(F(0.0), n), none.astype(int), none, none)
        assert (sphere._exact_arcs(*args)[1] >= 0.0).tolist() == [holds]
        assert (exact_arcs_reference(*args)[1] >= 0.0).tolist() == [holds]
    assert companion_spy == [1, 1]


@pytest.mark.parametrize("t, admissible", [(1.178, True), (1.633, False)])
def test_bases_the_bound_leaves_open_go_to_the_companion(t, admissible, companion_spy):
    # near the winding stretch the middle circle comes within the bound
    # of a zero: at 1.178 the companion finds none, at 1.633 it finds one
    [(arc, _)] = admissible_normal_arc(winding_curve(), [t])
    assert companion_spy == [1]
    assert (arc is not None) == admissible


def general_curve(seed, e):
    """e = 0: a random lift; otherwise a random GL(3) image of the general
    curve x = cos t + e dx, y = sin t + e dy, z = dz with harmonics 3, 5."""
    rng = np.random.default_rng(seed)

    def dev(ks):
        return TrigSeries(0.0, tuple((k, rng.normal() / k ** 1.5, rng.normal() / k ** 1.5)
                                     for k in ks), ANTIPERIODIC)

    if e == 0.0:
        F = VectorSeries(cos_series(1), sin_series(1), dev((3, 5, 7, 9)))
    else:
        xyz = (cos_series(1) + dev((3, 5)).scaled(e), sin_series(1) + dev((3, 5)).scaled(e),
               dev((3, 5)))
        F = VectorSeries(*(sum((c.scaled(float(g)) for g, c in zip(row, xyz)),
                               TrigSeries.zero(ANTIPERIODIC))
                           for row in rng.normal(size=(3, 3))))
    return F


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([0.0, 1.0, 1.5]),
       st.floats(0.0, math.pi, exclude_max=True))
def test_not_anti_convex_exactly_where_the_direction_spans_pi(seed, e, t):
    try:
        curve = ProjectiveCurve(general_curve(seed, e))
        curve.frames(t + np.linspace(0.0, math.pi, 8, endpoint=False))
    except DegeneratePoint:
        return
    for base in (t + np.linspace(0.0, math.pi, 8, endpoint=False)).tolist():
        try:
            limiting_circle(curve, base)
            raised = False
        except NotAntiConvex:
            raised = True
        assert raised == (direction_span(curve, base) >= math.pi)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([0.0, 1.0, 1.5]))
def test_admissible_normal_arc_has_the_same_verdict_at_antipodal_bases(seed, e):
    # the circles at t + pi are those at t with theta read as pi - theta,
    # so the census checks anti-convexity on [0, pi) only
    ts = np.linspace(0.0, math.pi, 32, endpoint=False)
    try:
        curve = ProjectiveCurve(general_curve(seed, e))
        curve.frames(np.concatenate([ts, ts + math.pi]))
    except DegeneratePoint:
        return
    here, there = (admissible_normal_arc(curve, bases) for bases in (ts, ts + math.pi))
    assert [a is None for a, _ in here] == [a is None for a, _ in there]
    for (a, _), (b, _) in zip(here, there):
        if a is not None:
            assert circle_dist(a.start + a.length, math.pi - b.start) < 1e-9
            assert abs(a.length - b.length) < 1e-9


@pytest.mark.parametrize("fixture", ["curve3", "curve5", "curve7", "sf_sin3", "sf_mix25",
                                     "sf_mix4", "sf_mix7"])
def test_interior_zeros_match_roots_of_the_series(fixture, request):
    # the batch divides out the double zero at s = t, t + pi; roots solves
    # T_t whole, and its zeros inside (t, t + pi) must be the same
    obj = request.getfixturevalue(fixture)
    curve = obj if isinstance(obj, ProjectiveCurve) else obj.lift
    W = curve.F.cross(curve.F1)
    ts = np.linspace(0.0, TWO_PI, 16, endpoint=False)
    rows, ss = _interior_zeros(curve, ts, curve.F.eval_many(ts))
    for i, t in enumerate(ts):
        x, y, z = curve.F(t)
        T = W.x.scaled(x) + W.y.scaled(y) + W.z.scaled(z)
        offsets = sorted((s - t) % TWO_PI for s, _ in roots(T))
        expected = [off for off in offsets if 1e-6 < off < math.pi - 1e-6]
        assert ss[rows == i] - t == pytest.approx(expected, abs=1e-10)


def tangent_plane_rows(curve, ts):
    """The rows of T_t(s) = W(s) . F(t) in y = exp(2is) that
    _interior_zeros hands to arc_zeros."""
    Ft = curve.F.eval_many(ts)
    W = curve._tangent_planes
    return Ft[:, :1] * W[0] + Ft[:, 1:2] * W[1] + Ft[:, 2:] * W[2]


def tangent_line_rows(curve, ts):
    """The rows of n(a) . F(b) that tangent_line_zeros hands to arc_zeros."""
    jet = curve.jet(ts)
    return _cross3(jet[:, :3], jet[:, 3:6]) @ laurent_rows(curve.F.components)[:, ::2]


def complex_arc_zeros(Q, ts):
    """arc_zeros seeded from the complex companion in y, as roots() is:
    the reference for its real seeds."""
    w = np.exp(2j * ts)
    P = _divided(_divided(Q, w), w)
    rows, s, m = circle_zeros(P, -4.0 * w, ts, step=2)
    off = s - ts[rows]
    keep = (off > 1e-6) & (off < math.pi - 1e-6)
    return rows[keep], s[keep], m[keep]


def assert_matches_complex_seeds(Q, ts):
    """arc_zeros finds the reference's zeros, row for row with the same
    multiplicities, within 1e-12; returns their number."""
    got, want = arc_zeros(Q, ts), complex_arc_zeros(Q, ts)
    assert got[0].tolist() == want[0].tolist()
    assert got[2].tolist() == want[2].tolist()
    np.testing.assert_allclose(got[1], want[1], rtol=0, atol=1e-12)
    return len(got[0])


@pytest.mark.parametrize("fixture", ["curve3", "curve5", "curve7", "curve7_gl3", "sf_sin3",
                                     "sf_mix25", "sf_mix4", "sf_mix7"])
def test_real_seeds_find_the_zeros_of_the_complex_companion(fixture, request):
    obj = request.getfixturevalue(fixture)
    curve = obj if isinstance(obj, ProjectiveCurve) else obj.lift
    grid = np.linspace(0.0, TWO_PI, 256, endpoint=False)
    for ts in (grid, np.random.default_rng(7).uniform(0.0, TWO_PI, 64)):
        assert assert_matches_complex_seeds(tangent_plane_rows(curve, ts), ts) > 0
        assert_matches_complex_seeds(tangent_line_rows(curve, ts), ts)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([0.0, 1.0, 1.5]))
def test_real_seeds_find_the_zeros_of_the_complex_companion_on_general_curves(seed, e):
    ts = np.random.default_rng(seed).uniform(0.0, TWO_PI, 64)
    try:
        curve = ProjectiveCurve(general_curve(seed, e))
        curve.frames(ts)
    except DegeneratePoint:
        return
    assert_matches_complex_seeds(tangent_plane_rows(curve, ts), ts)
    assert_matches_complex_seeds(tangent_line_rows(curve, ts), ts)


@pytest.mark.parametrize("t", [round(2 * math.pi / 3, 12), 0.0, math.pi])
def test_real_seeds_keep_a_zero_a_quarter_turn_from_the_base(curve3, t):
    # at curve3's inflection bases 0 and pi, T_t has its one zero at
    # t + pi/2, which a pole fixed at x = pi/2 would drop with the degree;
    # at the clean-point key 2.094395102393 the roots in tan(s - t) would
    # span 2.9e-13 to 3.4e12
    ts = np.array([t])
    assert assert_matches_complex_seeds(tangent_plane_rows(curve3, ts), ts) == 1
    grid = np.linspace(0.0, TWO_PI, 256, endpoint=False)
    assert_matches_complex_seeds(tangent_plane_rows(curve3, grid), grid)


@pytest.mark.parametrize("fixture", ["curve7", "curve7_gl3", "sf_mix7"])
def test_arc_zeros_of_a_batch_equal_each_row_alone(fixture, request):
    obj = request.getfixturevalue(fixture)
    curve = obj if isinstance(obj, ProjectiveCurve) else obj.lift
    ts = np.linspace(0.0, TWO_PI, 256, endpoint=False)
    for Q in (tangent_plane_rows(curve, ts), tangent_line_rows(curve, ts)):
        rows, ss, m = arc_zeros(Q, ts)
        # the unpolished seeds too, which a batch-dependent sum moves first
        w = np.exp(2j * ts)
        P = _divided(_divided(Q, w), w)
        seed_rows, angles = real_seeds(P, -4.0 * w)
        for i in range(len(ts)):
            _, alone, m_alone = arc_zeros(Q[i:i + 1], ts[i:i + 1])
            assert alone.tolist() == ss[rows == i].tolist()
            assert m_alone.tolist() == m[rows == i].tolist()
            assert real_seeds(P[i:i + 1], -4.0 * w[i:i + 1])[1].tolist() \
                == angles[seed_rows == i].tolist()


def test_a_zero_bouncing_by_one_ulp_above_8_ends_its_polish(curve7, monkeypatch):
    # at this base one zero of T_t near s = 8.19 bounces between two
    # neighbouring floats, a step of one ulp (1.8e-15 above 8); a stop at
    # a fixed 1e-15 would polish it for all 16 steps
    steps = []

    class CountingNumpy:
        """numpy, counting exp: one call for the real seeds' tan_rows,
        then one per polish step."""

        def __getattr__(self, name):
            return getattr(np, name)

        def exp(self, x):
            steps.append(x.shape)
            return np.exp(x)

    ts = np.array([451 * TWO_PI / 512])
    monkeypatch.setattr(trig, "np", CountingNumpy())
    rows, ss = _interior_zeros(curve7, ts, curve7.F.eval_many(ts))
    assert len(ss) == 6 and 8.0 < ss[-1] < 8.2
    assert len(steps) - 1 <= 4
