import math

import numpy as np
import pytest

from curvex.census import (
    DoubleTangentInterval,
    anti_convexity_grid_test,
    census,
    chord,
    count_inflections_topological,
    detect_double_tangents,
    greedy_maximal_family,
    maximal_independent_family,
    reduction,
    row_minima,
)
from curvex.errors import DegenerateChord
from curvex.linesys import three_clean_inflections
from curvex.sphere import inflection_indicator, true_inflections
from curvex.trig import TrigSeries, isolate_sign_changes


def interval(a, b):
    return DoubleTangentInterval(a, b, None)


class TestChord:
    def test_basic_geometry(self, curve5):
        ch = chord(curve5, 0.5, 1.4)
        assert np.allclose(ch.pa, curve5.lift(0.5))
        assert np.allclose(ch.pb, curve5.lift(1.4))
        assert abs(np.dot(ch.normal, ch.pa)) < 1e-12
        assert abs(np.dot(ch.normal, ch.pb)) < 1e-12
        mid = ch.point(0.5)
        assert abs(np.dot(ch.normal, mid)) < 1e-12
        assert np.linalg.norm(mid) == pytest.approx(1.0)

    def test_swap_gives_same_point_set(self, curve5):
        ch = chord(curve5, 0.5, 1.4)
        rev = chord(curve5, 1.4, 0.5)
        fr = np.linspace(0, 1, 9)
        pts = np.array([ch.point(f) for f in fr])
        rpts = np.array([rev.point(f) for f in fr[::-1]])
        assert np.allclose(pts, rpts, atol=1e-12)

    @pytest.mark.parametrize("a,b", [(0.5, 1.4), (1.4, 0.5)])
    def test_points_match_point(self, curve5, a, b):
        ch = chord(curve5, a, b)
        fr = np.linspace(-0.25, 1.25, 61)
        np.testing.assert_allclose(ch.points(fr), [ch.point(f) for f in fr],
                                   rtol=0, atol=1e-15)

    def test_degenerate_chord(self, curve5):
        with pytest.raises(DegenerateChord):
            chord(curve5, 0.5, 0.5 + math.pi)  # antipodal pair

    def test_intersection_ordering_along_chord(self, curve5):
        # order of curve/line meeting points along the chord is monotone
        normal = np.array([0.02, 0.0, 1.0])
        normal /= np.linalg.norm(normal)
        side = sum((c.scaled(float(v)) for c, v in zip(curve5.F.components, normal)),
                   TrigSeries.zero("antiperiodic"))
        roots = [r.value for r in isolate_sign_changes(side, domain="full")]
        inside = sorted(t for t in roots if 0.0 < t < math.pi)
        assert len(inside) >= 3
        ch = chord(curve5, inside[0], inside[-1])
        fracs = [ch.position_of(curve5.lift(t)) for t in inside]
        assert fracs == sorted(fracs)


@pytest.mark.parametrize("cyclic", [True, False])
def test_row_minima_matches_a_double_loop(cyclic):
    rng = np.random.default_rng(3)
    # few distinct values make ties common
    R = rng.integers(0, 6, size=(40, 9)).astype(float)
    R[rng.random(R.shape) < 0.15] = np.inf
    R[0, :] = [0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.5]  # ends lowest
    R[1, :] = [0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0]
    n = R.shape[1]
    expected = []
    for i in range(R.shape[0]):
        for k in range(n):
            if not R[i, k] < 4.0:
                continue
            if not cyclic and not 0 < k < n - 1:
                continue
            if R[i, k] <= R[i, (k - 1) % n] and R[i, k] <= R[i, (k + 1) % n]:
                expected.append((i, k))
    rows, cols = row_minima(R, 4.0, cyclic)
    assert list(zip(rows.tolist(), cols.tolist())) == expected
    assert ((0, 0) in expected) == cyclic and ((1, n - 1) in expected) == cyclic


class TestDetection:
    def test_curve7_counts_and_endpoints(self, curve7):
        det = detect_double_tangents(curve7)
        assert det.dropped == 668
        # the last bits of the endpoints follow the host's BLAS kernels
        np.testing.assert_allclose([(iv.a, iv.b) for iv in det.intervals], [
            (0.8918632830405467, 2.2497293705492143),
            (0.9072907832213061, 1.6008888752629555),
            (1.2397237089548756, 1.9018689446106243),
            (1.540703778322574, 2.234301870362566),
            (1.862577274417784, 4.056411280470218),
            (2.226774026709368, 4.420608032761803)], rtol=0, atol=1e-12)

    def test_no_double_tangents_at_three_inflections(self, curve3):
        det = detect_double_tangents(curve3)
        assert det.intervals == []

    def test_five_inflection_curve_has_double_tangent(self, curve5):
        det = detect_double_tangents(curve5)
        assert det.intervals
        fam = maximal_independent_family(det.intervals)
        assert len(fam) == 1

    def test_detected_tangency_residuals(self, curve5):
        for iv in detect_double_tangents(curve5).intervals:
            n = iv.chord.normal
            assert abs(np.dot(n, curve5.lift(iv.b))) < 1e-9
            assert abs(np.dot(n, curve5.frame(iv.b)[1])) < 1e-8

    def test_complement_interval_rejected(self, curve5):
        # if (a, b) qualifies, the complementary interval must fail the
        # same-side condition
        from curvex.census import _passes_filters
        iv = detect_double_tangents(curve5).intervals[0]
        assert _passes_filters(curve5, iv.a, iv.b) is not None
        assert _passes_filters(curve5, iv.b, iv.a + math.pi) is None


class TestLaminar:
    def test_nested_and_disjoint_all_kept(self):
        ivs = [interval(0.1, 1.0), interval(0.2, 0.5), interval(1.5, 2.0)]
        fam = maximal_independent_family(ivs)
        assert len(fam) == 3

    def test_overlap_drops_one(self):
        ivs = [interval(0.1, 1.0), interval(0.5, 1.4)]
        fam = maximal_independent_family(ivs)
        assert len(fam) == 1

    def test_greedy_matches_optimum(self):
        ivs = [interval(0.1, 1.2), interval(0.2, 0.6), interval(0.7, 1.1),
               interval(1.4, 2.2), interval(2.0, 2.8)]
        best = maximal_independent_family(ivs)
        for start in range(len(ivs)):
            greedy = greedy_maximal_family(ivs, start=start)
            assert len(greedy) == len(best)

    def test_touching_closures_incompatible(self):
        ivs = [interval(0.1, 1.0), interval(1.0, 1.8)]
        assert len(maximal_independent_family(ivs)) == 1


class TestReduction:
    def test_reduction_matches_base_off_interval(self, curve5):
        iv = detect_double_tangents(curve5).intervals[0]
        red = reduction(curve5, iv.a, iv.b)
        t = iv.b + 0.4
        assert np.allclose(red.unit(t), curve5.lift(t), atol=1e-12)
        inside = iv.a + 0.4 * (iv.b - iv.a)
        assert abs(np.dot(red.unit(inside), iv.chord.normal)) < 1e-12

    def test_reduction_is_continuous_and_tangent(self, curve5):
        iv = detect_double_tangents(curve5).intervals[0]
        red = reduction(curve5, iv.a, iv.b)
        h = 1e-7
        for junction in (iv.a, iv.b):
            left = red.unit(junction - h)
            right = red.unit(junction + h)
            assert np.linalg.norm(left - right) < 1e-5
            d_left = (red.unit(junction) - red.unit(junction - h)) / h
            d_right = (red.unit(junction + h) - red.unit(junction)) / h
            cosang = np.dot(d_left, d_right) / (
                np.linalg.norm(d_left) * np.linalg.norm(d_right))
            assert cosang > 1 - 1e-4

    def test_reduction_antiperiodic(self, curve5):
        iv = detect_double_tangents(curve5).intervals[0]
        red = reduction(curve5, iv.a, iv.b)
        for t in (iv.a + 0.2, iv.b + 0.5, 0.0):
            assert np.allclose(red.unit(t + math.pi), -red.unit(t), atol=1e-12)

    def test_additivity_and_anti_convexity(self, curve5):
        iv = detect_double_tangents(curve5).intervals[0]
        r1 = reduction(curve5, iv.a, iv.b)
        r2 = reduction(curve5, iv.b, iv.a + math.pi)
        i_base = true_inflections(curve5).count
        i1, _ = count_inflections_topological(r1.unit_many)
        i2, _ = count_inflections_topological(r2.unit_many)
        assert i1 + i2 - 1 == i_base
        assert anti_convexity_grid_test(r1.unit_many, n_base=48)
        assert anti_convexity_grid_test(r2.unit_many, n_base=48)


class TestTopologicalCounter:
    def test_matches_analytic_counts(self, curve3, curve5, curve7):
        for crv, expected in ((curve3, 3), (curve5, 5), (curve7, 7)):
            count, params = count_inflections_topological(
                lambda ts, c=crv: c.lift_many(np.atleast_1d(ts)))
            assert count == expected
            analytic = [e.parameter for e in true_inflections(crv).entries]
            for p in params:
                assert min(abs(p - q) for q in analytic) < 5e-3


class TestCensus:
    @pytest.mark.parametrize("fixture,i,delta", [
        ("curve3", 3, 0), ("curve5", 5, 1), ("curve7", 7, 2)])
    def test_identity(self, fixture, i, delta, request):
        crv = request.getfixturevalue(fixture)
        rep = census(crv)
        assert rep.i == i
        assert rep.delta == delta
        assert rep.identity_holds
        assert "greedy_family_mismatch" not in rep.warnings

    @pytest.mark.parametrize("fixture", ["curve3", "curve5", "curve7"])
    def test_clean_points_are_true_inflections(self, fixture, request):
        crv = request.getfixturevalue(fixture)
        system = request.getfixturevalue("sys" + fixture[-1])
        rep = census(crv, clean_points=three_clean_inflections(system))
        assert len(set(rep.clean_points)) == 3
        # one Newton step from each point: its distance to a simple zero
        w = inflection_indicator(crv)
        dw = w.derivative()
        for p in rep.clean_points:
            assert abs(w(p) / dw(p)) < 1e-12

    def test_report_serializes(self, curve3):
        payload = census(curve3).to_json()
        assert payload["kind"] == "sphere-census"
        assert payload["i"] - 2 * payload["delta"] == 3
