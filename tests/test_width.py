import math
import time

import numpy as np
import pytest

from curvex import sphere, width
from curvex.circle import canonical, forward_gap
from curvex.errors import CertificateFailed, IdenticallyZero, NotConvex
from curvex.trig import (
    TrigSeries,
    VectorSeries,
    apply_flex_operator,
    cos_series,
    osculating_in_am,
    sin_series,
)
from curvex.width import (
    SupportFunction,
    a2_double_tangents,
    census_fn,
    clean_flexes,
    curve_point,
    curve_points,
    d_inflections,
    limiting_function,
    theorem_c_certificates,
)
from curvex.census import (
    census,
    count_inflections_topological,
    detect_double_tangents,
    reduction,
)
from curvex.sphere import (
    ProjectiveCurve,
    exact_clean_points,
    limiting_circle,
    tangent_line_zeros,
    true_inflections,
)
from test_census import RANDOM_LIFTS

PI3 = math.pi / 3
FIXTURES = ["sf_sin3", "sf_mix25", "sf_mix4", "sf_mix7"]


def is_clean(sf, p):
    """The osculating circle at p meets the curve only at p and p + pi:
    the lift's tangent line at p meets it nowhere in (p, p + pi)."""
    return tangent_line_zeros(sf.lift, [p])[0].size == 0


def test_convexity_guard():
    with pytest.raises(NotConvex):
        SupportFunction(10.0, sin_series(3))  # needs d > 16


def test_circle_case():
    sf = SupportFunction(8.0, TrigSeries.zero("antiperiodic"))
    for t in (0.0, 1.0, 2.5):
        p = curve_point(sf, t)
        assert np.linalg.norm(p) == pytest.approx(4.0)
    with pytest.raises(IdenticallyZero):
        d_inflections(sf)


def test_translated_circle_fails_its_precondition():
    # a first-harmonic deviation is a translated circle: every width
    # circle osculates, which is the input's fault, not the search's
    with pytest.raises(IdenticallyZero):
        clean_flexes(SupportFunction(4.0, sin_series(1, 0.5)))


@pytest.mark.parametrize("call", [d_inflections, census_fn, a2_double_tangents])
def test_near_circle_offset_is_identically_zero(call):
    # f + f'' = -8e-13 sin 3t lies below the lift's line-curve threshold
    # (1e-12 times the cube of its largest coefficient), which is the
    # one test of a circle offset for every width mode
    sf = SupportFunction(4.0, sin_series(1) + sin_series(3, 1e-13))
    with pytest.raises(IdenticallyZero, match="circle-support space"):
        call(sf)


def test_circle_support_deviation_fails_fast_in_a2():
    # f - phi vanishes for every osculating member here, so without the
    # up front check the lift's tangent lines would meet it everywhere
    start = time.perf_counter()
    with pytest.raises(IdenticallyZero, match="circle-support space"):
        a2_double_tangents(SupportFunction(4.0, sin_series(1, 0.3)))
    assert time.perf_counter() - start < 1.0


def test_curve_point_example(sf_sin3):
    assert curve_point(sf_sin3, 0.0) == pytest.approx([3.0, -10.0])


def test_support_identity(sf_sin3):
    # distance from origin to the tangent line of direction t equals h(t)
    ts = np.linspace(0, 2 * math.pi, 33)
    pts = curve_points(sf_sin3, ts)
    h = 10.0 + sf_sin3.f(ts)
    n = np.stack([-np.sin(ts), np.cos(ts)], axis=-1)
    dist = -np.sum(pts * n, axis=1)
    assert np.allclose(dist, h, atol=1e-12)


def test_translation_invariance_of_support_difference(sf_sin3, sf_mix25):
    # translating two bodies together shifts both supports by the same
    # first harmonic, leaving the difference series unchanged
    shift = cos_series(1, -0.7) + sin_series(1, 1.3)
    d1 = sf_sin3.f - sf_mix25.f
    f1 = sf_sin3.f + shift
    f2 = sf_mix25.f + shift
    d2 = f1 - f2
    ts = np.linspace(0, 2 * math.pi, 50)
    assert np.allclose(d1(ts), d2(ts), atol=1e-12)
    moved = curve_points(SupportFunction(sf_sin3.d, f1),
                         np.array([0.3, 1.1]))
    base = curve_points(sf_sin3, np.array([0.3, 1.1]))
    assert np.allclose(moved - base, [[1.3, 0.7], [1.3, 0.7]], atol=1e-12)


def test_d_inflections_sin3(sf_sin3):
    pts = d_inflections(sf_sin3)
    assert pts == pytest.approx([k * PI3 for k in range(6)], abs=1e-10)
    for t in pts:
        assert sf_sin3.curvature_radius(t) == pytest.approx(10.0, abs=1e-9)


class TestLimitingFunction:
    def test_clean_point(self, sf_sin3):
        lf = limiting_function(sf_sin3, 0.0)
        assert lf.s0 == pytest.approx(3.0, abs=1e-12)
        assert lf.psi.harmonics == ((1, 0.0, 3.0),)
        assert len(lf.contact) == 2
        assert lf.contact.contains(0.0, 1e-9)
        assert lf.contact.contains(math.pi, 1e-9)

    def test_negative_clean_point(self, sf_sin3):
        # the osculant dips under f here; the limit has slope 1 and four
        # contact points
        lf = limiting_function(sf_sin3, PI3)
        assert lf.s0 == pytest.approx(1.0, abs=1e-10)
        assert len(lf.contact) == 4
        assert lf.touches[0] == pytest.approx(5 * math.pi / 6, abs=1e-8)

    def test_maximality_property(self, sf_sin3):
        for p in (0.4, 1.7, 3.0):
            lf = limiting_function(sf_sin3, p)
            ts = p + np.linspace(1e-3, math.pi - 1e-3, 2048)
            assert float(np.min(lf.psi(ts) - sf_sin3.f(ts))) >= -1e-8

    def test_contact_count_criterion(self, sf_sin3):
        # two-point contact of the limiting function marks the clean
        # flexes whose circle supports the curve from the forward side
        for p in (0.0, 2 * PI3, 4 * PI3):
            assert len(limiting_function(sf_sin3, p).contact) == 2
        for p in (PI3, math.pi, 5 * PI3, 0.8):
            assert len(limiting_function(sf_sin3, p).contact) != 2

    def test_nonclean_point_of_mixed_deviation(self, sf_mix25):
        lf = limiting_function(sf_mix25, 0.45)
        assert len(lf.contact) > 2


@pytest.mark.parametrize("fixture", FIXTURES)
def test_limiting_function_is_the_lifts_limiting_circle(fixture, request):
    sf = request.getfixturevalue(fixture)
    lift = ProjectiveCurve(VectorSeries(cos_series(1), sin_series(1), sf.f))
    offsets = np.concatenate([np.geomspace(1e-7, 1e-2, 64),
                              np.linspace(1e-2, math.pi - 1e-2, 4096)])
    for k, p in enumerate(np.linspace(0.0, 2 * math.pi, 64, endpoint=False)):
        lf = limiting_function(sf, float(p))
        assert lf.contact.set_equal(limiting_circle(lift, float(p)).contact, 1e-6)
        if k % 8:
            continue
        # admissible on the forward arc, and minimal: a smaller slope
        # dips below f, right after p or at an interior touch
        ts = np.concatenate([p + offsets, lf.touches])
        assert float(np.min(lf.psi(ts) - sf.f(ts))) >= -1e-8
        lower = lf.psi + TrigSeries(0.0, ((1, math.sin(p) * 1e-6,
                                           -math.cos(p) * 1e-6),), "antiperiodic")
        assert float(np.min(lower(ts) - sf.f(ts))) < 0.0


def test_unsigned_clean_flexes_sin3(sf_sin3):
    # every flex of this deviation is clean, of one sign or the other
    for k in range(6):
        assert is_clean(sf_sin3, k * PI3)


def test_clean_flexes_locations_and_signs(sf_sin3):
    triple = clean_flexes(sf_sin3)
    assert triple.points == pytest.approx([0.0, PI3, 2 * PI3], abs=1e-10)
    assert triple.signs == (-1, +1, -1)
    # difference to the osculant flips sign as stated at each flex
    res = sf_sin3.f - osculating_in_am(sf_sin3.f, 0.0, 2)
    assert res(-0.1) > 0 > res(0.1)


def test_clean_flexes_of_mix7(sf_mix7):
    triple = clean_flexes(sf_mix7)
    assert triple.points == pytest.approx([0.0, 0.5563627423087762, 2.585229911281017],
                                          abs=1e-12)
    assert triple.signs == (-1, +1, -1)


def test_exact_clean_points_of_mix7(sf_mix7):
    # the crossing at pi/3 is not clean; the three clean flexes are, each
    # as its positive representative: the flex, or the flex + pi for a
    # negative one
    entries = true_inflections(sf_mix7.lift).entries
    flex_of = {e.parameter + (0.0 if e.sign > 0 else math.pi): e.parameter
               for e in entries if e.crossing}
    clean = exact_clean_points(sf_mix7.lift, entries)
    assert clean == tuple(sorted(clean)) and set(clean) <= flex_of.keys()
    flexes = [flex_of[t] for t in clean]
    assert all(is_clean(sf_mix7, t) for t in flexes)
    assert not any(abs(t - PI3) < 1e-9 for t in flexes)
    assert set(clean_flexes(sf_mix7).points) <= set(flexes)


@pytest.mark.parametrize("fixture", FIXTURES)
def test_flexes_are_the_lifts_true_inflections(fixture, request):
    sf = request.getfixturevalue(fixture)
    crossings = [e.parameter for e in true_inflections(sf.lift).entries if e.crossing]
    assert census_fn(sf, additivity_check=False).inflection_points == crossings
    assert d_inflections(sf) == sorted(crossings + [t + math.pi for t in crossings])


class TestA2DoubleTangents:
    def test_mix7_counts_and_endpoints(self, sf_mix7):
        intervals, dropped = a2_double_tangents(sf_mix7)
        assert dropped == 6
        # the last bits of the endpoints follow the host's BLAS kernels
        np.testing.assert_allclose([(iv.a, iv.b) for iv in intervals], [
            (0.8918632830405767, 2.2497293705492165),
            (0.9072907832212983, 1.600888875262956),
            (1.2397237089721207, 1.9018689446176729),
            (1.5407037783268362, 2.234301870367826),
            (1.862577274417784, 4.056411280470219),
            (2.226774026709368, 4.420608032761803)], rtol=0, atol=1e-12)

    def test_sin3_has_none(self, sf_sin3):
        intervals, _ = a2_double_tangents(sf_sin3)
        assert intervals == []

    def test_mix4_has_one(self, sf_mix4):
        intervals, _ = a2_double_tangents(sf_mix4)
        assert len(intervals) >= 1
        iv = intervals[0]
        f = sf_mix4.f
        phi = osculating_in_am(f, iv.a, 2)
        assert f(iv.b) == pytest.approx(phi(iv.b), abs=1e-10)
        assert f.derivative()(iv.b) == pytest.approx(
            phi.derivative()(iv.b), abs=1e-9)

    def test_reversed_interval_fails_condition(self, sf_mix4):
        # equal curvature-defect signs at the ends flip on the complement
        from curvex.trig import apply_flex_operator
        intervals, _ = a2_double_tangents(sf_mix4)
        lf = apply_flex_operator(sf_mix4.f, 2)
        a, b = intervals[0].a, intervals[0].b
        assert lf(a) * lf(b) > 0
        assert lf(b) * lf(a + math.pi) < 0


def as_support(f):
    """f at a width that clears its convexity bound."""
    grid = np.linspace(0.0, 2 * math.pi, 4096, endpoint=False)
    deficit = max(0.0, -float(np.min(apply_flex_operator(f, 2)(grid))))
    return SupportFunction(2.0 + 2.5 * deficit, f)


def lift_detector_inputs():
    """The RANDOM_LIFTS harmonics of test_census and default_rng(11) draws
    of the benchmark's recipe (odd k in 3..9, coefficients N(0, 1) /
    k**1.5), as deviations."""
    series = {name: TrigSeries(0.0, harmonics, "antiperiodic")
              for name, (_, harmonics) in RANDOM_LIFTS.items()}
    rng = np.random.default_rng(11)
    for j in range(10):
        series[f"rng11-{j}"] = TrigSeries(0.0, tuple(
            (k, rng.normal() / k ** 1.5, rng.normal() / k ** 1.5)
            for k in (3, 5, 7, 9)), "antiperiodic")
    return series


LIFT_DETECTOR_INPUTS = lift_detector_inputs()


@pytest.mark.parametrize("name", FIXTURES + sorted(LIFT_DETECTOR_INPUTS))
def test_a2_is_the_lifts_detector(name, request):
    # the width detector runs the lift's seeds, Newton solve and filters,
    # so the width census is the sphere census of the lift but for its kind
    if name in FIXTURES:
        sf = request.getfixturevalue(name)
    else:
        sf = as_support(LIFT_DETECTOR_INPUTS[name])
    intervals, dropped = a2_double_tangents(sf)
    det = detect_double_tangents(sf.lift)
    assert [(iv.a, iv.b) for iv in intervals] == [(iv.a, iv.b) for iv in det.intervals]
    assert dropped == det.dropped
    width_report = census_fn(sf, additivity_check=False).to_json()
    lift_report = census(sf.lift).to_json()
    assert (width_report.pop("kind"), lift_report.pop("kind")) == \
        ("width-census", "sphere-census")
    assert width_report == lift_report


def test_skipped_chart_check_would_pass(sf_sin3, sf_mix25, sf_mix4, sf_mix7):
    # a2 skips detect_double_tangents' chart check, which a lift passes:
    # an admissible arc at the middle of every complementary arc
    rng = np.random.default_rng(43)
    supports = [sf_sin3, sf_mix25, sf_mix4, sf_mix7] + [as_support(TrigSeries(0.0, tuple(
        (k, rng.normal() / k ** 1.5, rng.normal() / k ** 1.5) for k in (3, 5, 7, 9)),
        "antiperiodic")) for _ in range(40)]
    checked = 0
    for sf in supports:
        charts = [canonical(iv.b + 0.5 * forward_gap(iv.b, iv.a + math.pi))
                  for iv in a2_double_tangents(sf).intervals]
        if charts:
            assert all(arc is not None for arc, _ in sphere.admissible_normal_arc(sf.lift, charts))
            checked += len(charts)
    assert checked > 40


def test_a2_does_not_depend_on_the_unit_of_length(sf_mix7):
    # c*f at width c*d is the same curve drawn c times as large
    small = SupportFunction(1e-3 * sf_mix7.d, sf_mix7.f.scaled(1e-3))
    intervals, dropped = a2_double_tangents(sf_mix7)
    small_intervals, small_dropped = a2_double_tangents(small)
    assert small_dropped == dropped
    np.testing.assert_allclose([(iv.a, iv.b) for iv in small_intervals],
                               [(iv.a, iv.b) for iv in intervals], rtol=0, atol=1e-9)


class TestWidthCensus:
    @pytest.mark.parametrize("fixture,i,delta", [
        ("sf_sin3", 3, 0), ("sf_mix25", 3, 0), ("sf_mix4", 5, 1),
        ("sf_mix7", 7, 2)])
    def test_identity(self, fixture, i, delta, request):
        sf = request.getfixturevalue(fixture)
        rep = census_fn(sf)
        assert (rep.i, rep.delta) == (i, delta)
        assert rep.identity_holds
        assert "additivity_mismatch" not in rep.warnings
        assert "greedy_family_mismatch" not in rep.warnings

    def test_reduction_counts(self, sf_mix4):
        intervals, _ = a2_double_tangents(sf_mix4)
        a, b = intervals[0].a, intervals[0].b
        i1, _ = count_inflections_topological(
            reduction(sf_mix4.lift, a, b, check_simple=False).unit_many)
        i2, _ = count_inflections_topological(
            reduction(sf_mix4.lift, b, a + math.pi, check_simple=False).unit_many)
        assert (i1, i2) == (3, 3)

    def test_even_topological_count_is_flagged(self, sf_mix4, monkeypatch):
        # an antiperiodic curve has an odd number of inflections: an even
        # count is the counter's fault and must not read as a failed identity
        counts = iter([(2, [0.5, 1.5]), (3, [0.2, 1.2, 2.2])])
        monkeypatch.setattr(width, "count_inflections_topological",
                            lambda unit_many: next(counts))
        rep = census_fn(sf_mix4)
        assert rep.warnings["topological_count_even"] == {"i1": 2, "i2": 3}
        assert "additivity_mismatch" not in rep.warnings
        assert (rep.i, rep.delta, rep.identity_holds) == (5, 1, True)


class TestCertificates:
    def test_sin3_certificates(self, sf_sin3):
        certs = theorem_c_certificates(sf_sin3)
        assert len(certs) == 3
        for cert in certs:
            assert cert.circle.radius == 10.0
            assert cert.contact_components == 2
            assert cert.crossings == 2
            assert cert.curvature_radius == pytest.approx(10.0, abs=1e-8)

    @pytest.mark.parametrize("fixture", ["sf_mix25", "sf_mix4", "sf_mix7"])
    def test_mixed_deviation_certificates(self, fixture, request):
        # each residual has a triple zero at its flex, which must count
        # as one crossing contact
        sf = request.getfixturevalue(fixture)
        certs = theorem_c_certificates(sf)
        assert len(certs) == 3
        for cert in certs:
            assert (cert.contact_components, cert.crossings) == (2, 2)
            assert is_clean(sf, cert.flex)

    def test_non_clean_flex_fails_the_contact_clause(self, sf_mix7, monkeypatch):
        # the flex at pi/3 is a crossing of f + f'' whose osculating
        # circle meets the curve again at 5pi/6 and near 3.018
        assert not is_clean(sf_mix7, PI3)
        monkeypatch.setattr(sphere, "three_clean_inflections",
                            lambda system, **kw: [0.0, PI3, 2.585229911281017])
        with pytest.raises(CertificateFailed) as err:
            theorem_c_certificates(sf_mix7)
        assert err.value.clause == "contact"
        assert "2.617993" in str(err.value)

    def test_circle_centers_match_center_of_curvature(self, sf_sin3):
        for cert in theorem_c_certificates(sf_sin3):
            t = cert.flex
            p = curve_point(sf_sin3, t)
            n = np.array([-math.sin(t), math.cos(t)])
            center = p + 10.0 * n
            assert np.allclose(cert.circle.center, center, atol=1e-8)

    def test_truncation_convergence(self):
        # a small high-order tail must not move the certificates
        f = sin_series(3) + sin_series(5, 0.4) + sin_series(9, 1e-5)
        from curvex.trig import truncate
        low = SupportFunction(40.0, truncate(f, 4))
        high = SupportFunction(40.0, truncate(f, 6))
        flex_low = clean_flexes(low).points
        flex_high = clean_flexes(high).points
        assert max(abs(a - b) for a, b in zip(flex_low, flex_high)) < 1e-4
