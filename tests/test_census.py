import json
import math
import types

import numpy as np
import pytest
from conftest import admissible_angles, anti_convexity_grid_test

from curvex.census import (
    DEDUPE_TOL,
    FILTERS,
    GAP_MARGIN,
    LATTICE_CELLS,
    NEWTON_RESIDUAL,
    OFF_CHORD_MIN,
    OFF_CHORD_SAMPLES,
    SCAN,
    DoubleTangentInterval,
    _failed_filters,
    _first_distinct,
    _cell_seeds,
    _rowdot,
    _tangency_system,
    _winding_cells,
    census,
    chord,
    count_inflections_topological,
    detect_double_tangents,
    greedy_maximal_family,
    maximal_independent_family,
    reduction,
    tangent_pairs,
)
from curvex.circle import TWO_PI, canonical, circle_dist, forward_gap
from curvex.cli import main
from curvex.errors import DegenerateChord, NotAntiConvex
from curvex.sphere import (
    ProjectiveCurve,
    _cross3,
    admissible_normal_arc,
    inflection_indicator,
    normal_direction,
    true_inflections,
)
from curvex.trig import (
    ANTIPERIODIC,
    TrigSeries,
    VectorSeries,
    cos_series,
    isolate_sign_changes,
    newton2,
    sin_series,
)


def interval(a, b):
    return DoubleTangentInterval(a, b, None)


def test_census_names_the_submodule():
    import curvex.census as module
    assert isinstance(module, types.ModuleType)
    assert module.census is census


def lift(z: TrigSeries) -> ProjectiveCurve:
    """The curve (cos t, sin t, z(t))."""
    return ProjectiveCurve(VectorSeries(cos_series(1), sin_series(1), z))


class TestChord:
    def test_basic_geometry(self, curve5):
        ch = chord(curve5, 0.5, 1.4)
        assert np.allclose(ch.pa, curve5.lift(0.5))
        assert np.allclose(ch.pb, curve5.lift(1.4))
        assert abs(np.dot(ch.normal, ch.pa)) < 1e-12
        assert abs(np.dot(ch.normal, ch.pb)) < 1e-12
        mid = ch.points(0.5)
        assert abs(np.dot(ch.normal, mid)) < 1e-12
        assert np.linalg.norm(mid) == pytest.approx(1.0)

    def test_swap_gives_same_point_set(self, curve5):
        ch = chord(curve5, 0.5, 1.4)
        rev = chord(curve5, 1.4, 0.5)
        fr = np.linspace(0, 1, 9)
        assert np.allclose(ch.points(fr), rev.points(fr[::-1]), atol=1e-12)

    @pytest.mark.parametrize("a,b", [(0.5, 1.4), (1.4, 0.5)])
    def test_points_match_point(self, curve5, a, b):
        ch = chord(curve5, a, b)
        fr = np.linspace(-0.25, 1.25, 61)
        # each row as if alone, and the short arc: turns below pi
        np.testing.assert_allclose(ch.points(fr), [ch.points(f) for f in fr],
                                   rtol=0, atol=1e-15)
        assert 0.0 < ch.turn < math.pi

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
        u = curve5.lift_many(np.array(inside))
        fracs = np.arctan2(_cross3(ch.pa, u) @ ch.normal, u @ ch.pa) / ch.turn
        assert list(fracs) == sorted(fracs)


class TestFilterPass:
    def test_decides_as_the_reference(self, curve3, curve5, curve7, curve7_gl3, sf_sin3,
                                      sf_mix25, sf_mix4, sf_mix7):
        # every candidate of the detector, and a grid of pairs with gaps
        # from 1e-5 (on the chord) to pi (antipodal ends), is decided as
        # the scalar reference decides it alone
        corpus = [curve3, curve5, curve7, curve7_gl3] + [sf.lift for sf in (sf_sin3, sf_mix25,
                                                                           sf_mix4, sf_mix7)]
        grid_a = np.repeat(np.linspace(0.0, math.pi, 8, endpoint=False), 9)
        grid_b = grid_a + np.tile(np.r_[1e-5, np.linspace(0.0, math.pi, 9)[1:]], 8)
        seen = set()
        for curve in corpus + random_lifts(5, 40):
            found, _, _ = tangent_pairs(*_cell_seeds(curve), _tangency_system(curve))
            a, gap = np.array(found).reshape(-1, 2).T
            a, b = np.r_[a, grid_a], np.r_[a + gap, grid_b]
            failed = [(FILTERS + (None,))[k] for k in _failed_filters(curve, a, b)]
            assert failed == [reference_filter(curve, x, y) for x, y in zip(a.tolist(), b.tolist())]
            seen.update(failed)
        assert seen == set(FILTERS) | {None}


class TestDetection:
    def test_curve7_counts_and_endpoints(self, curve7):
        det = detect_double_tangents(curve7)
        # one seed per nonzero lattice cell, and each of the 6 intervals
        # seen from its other end fails a chord filter
        assert det.dropped == 6
        found = [(iv.a, iv.b) for iv in det.intervals]
        # the last bits of the endpoints follow the host's BLAS kernels
        np.testing.assert_allclose(found, [
            (0.8918632830405765, 2.249729370549217),
            (0.9072907832219648, 1.6008888752629564),
            (1.2397237089721203, 1.9018689446176726),
            (1.5407037783268362, 2.234301870367826),
            (1.8625772744177813, 4.05641128047021),
            (2.2267740267093683, 4.420608032761803)], rtol=0, atol=1e-12)
        # the same intervals as seeding from a residual grid found
        np.testing.assert_allclose(found, [
            (0.8918632830405467, 2.2497293705492143),
            (0.9072907832213061, 1.6008888752629555),
            (1.2397237089548756, 1.9018689446106243),
            (1.540703778322574, 2.234301870362566),
            (1.862577274417784, 4.056411280470218),
            (2.226774026709368, 4.420608032761803)], rtol=0, atol=1e-10)

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
        iv = detect_double_tangents(curve5).intervals[0]
        failed = _failed_filters(curve5, np.array([iv.a, iv.b]), np.array([iv.b, iv.a + math.pi]))
        assert failed.tolist() == [len(FILTERS), FILTERS.index("side")]


def side_sign(curve, normal, t, direction):
    """Sign of the chord-circle side function just beyond t."""
    for h in (1e-3, 2e-3, 4e-3, 8e-3, 1.6e-2):
        v = float(np.dot(normal, curve.lift(t + direction * h)))
        if abs(v) > 1e-9:
            return math.copysign(1.0, v)
    return 0.0


def reference_filter(curve, a, b):
    """The first of FILTERS that the candidate (a, b) fails, or None: the
    detector's conditions one candidate at a time with scalar numpy."""
    try:
        ch = chord(curve, a, b)
    except DegenerateChord:
        return "degenerate_chord"
    n = ch.normal
    samples = curve.lift_many(a + np.linspace(0.0, 1.0, OFF_CHORD_SAMPLES) * (b - a))
    if np.max(np.abs(samples @ n)) <= OFF_CHORD_MIN:
        return "on_chord"
    sa = side_sign(curve, n, a, -1.0)
    sb = side_sign(curve, n, b, +1.0)
    if sa == 0.0 or sa != sb:
        return "side"
    ta = float(np.dot(_cross3(n, curve.lift(a)), curve.F1(a)))
    tb = float(np.dot(_cross3(n, curve.lift(b)), curve.F1(b)))
    if ta * tb <= 0.0:
        return "direction"
    return None


def per_series_tangency_system(curve):
    """The tangency system with each end evaluated series by series: six
    eval_many calls per step, as before the jet."""
    F, F1, F2 = curve.F, curve.F1, curve.F2

    def system(a, b):
        fa = F.eval_many(a)
        n = _cross3(fa, F1.eval_many(a))
        fb, f1b = F.eval_many(b), F1.eval_many(b)
        r1, r2 = _rowdot(n, fb), _rowdot(n, f1b)
        scale = np.sqrt(_rowdot(n, n)) * np.sqrt(_rowdot(fb, fb))
        done = (np.abs(r1) + np.abs(r2)) / scale < NEWTON_RESIDUAL
        run = ~done
        n, fb, f1b, r1, r2 = n[run], fb[run], f1b[run], r1[run], r2[run]
        dn = _cross3(fa[run], F2.eval_many(a[run]))
        J = np.empty((len(r1), 2, 2))
        J[:, 0, 0] = _rowdot(dn, fb)
        J[:, 0, 1] = r2
        J[:, 1, 0] = _rowdot(dn, f1b)
        J[:, 1, 1] = _rowdot(n, F2.eval_many(b[run]))
        return done, J, np.stack([r1, r2], axis=1)
    return system


def scanned_pairs(sol_a, sol_b, converged):
    """tangent_pairs' (found, dropped) by a scan of each row against the
    rows kept before it."""
    found, dropped = [], 0
    for a, b, ok in zip(sol_a.tolist(), sol_b.tolist(), converged.tolist()):
        if not ok:
            dropped += 1
            continue
        gap = forward_gap(a, b)
        if not GAP_MARGIN * 0.5 < gap < math.pi - GAP_MARGIN * 0.5:
            dropped += 1
            continue
        a = canonical(a, math.pi)
        if not any(circle_dist(a, fa, math.pi) < DEDUPE_TOL
                   and abs(gap - fg) < DEDUPE_TOL for fa, fg in found):
            found.append((a, gap))
    return sorted(found), dropped


def random_lifts(seed, n):
    rng = np.random.default_rng(seed)
    return [lift(TrigSeries(0.0, tuple((k, rng.normal() / k ** 1.5, rng.normal() / k ** 1.5)
                                       for k in (3, 5, 7, 9)), ANTIPERIODIC))
            for _ in range(n)]


def test_one_jet_per_newton_step_is_bit_equal(curve7):
    mix7 = lift(sin_series(3) + sin_series(5) + sin_series(7, 0.5))
    for curve in [curve7, mix7] + random_lifts(5, 10):
        a0, b0 = _cell_seeds(curve)
        solved = newton2(_tangency_system(curve), a0, b0)
        reference = newton2(per_series_tangency_system(curve), a0, b0)
        assert all(np.array_equal(x, y) for x, y in zip(solved, reference))
        found, dropped, newton = tangent_pairs(a0, b0, _tangency_system(curve))
        assert (found, dropped) == scanned_pairs(*reference)
        assert newton["seeds"] == a0.size
        assert newton["converged"] == int(reference[2].sum())


def shifted(curve, phi):
    """The curve t -> F(t - phi): its double tangents move by phi."""
    def shift(s):
        return TrigSeries(s.constant, tuple(
            (k, a * math.cos(k * phi) - b * math.sin(k * phi),
             a * math.sin(k * phi) + b * math.cos(k * phi)) for k, a, b in s.harmonics),
            s.parity)
    return ProjectiveCurve(VectorSeries(*(shift(s) for s in curve.F.components)))


def full_lattice_cells(g, gb):
    """The cells (i, m) around which the field (g, gb) winds, from the
    winding of every cell of the lattice."""
    theta = np.arctan2(gb, g)
    theta = np.concatenate([theta, theta[:1] + math.pi])
    # the angle differences along the edges, wrapped into [-pi, pi]
    along, across = (d - TWO_PI * np.rint(d / TWO_PI)
                     for d in (np.diff(theta, axis=1), np.diff(theta, axis=0)))
    winding = along[:-1] + across[:, 1:] - along[1:] - across[:, :-1]
    return np.nonzero(np.abs(winding) > math.pi)  # windings are multiples of 2 pi


def full_lattice_seeds(curve, cells=LATTICE_CELLS):
    """_cell_seeds from the field gathered at every node of the lattice."""
    h = math.pi / cells
    F, F1, _ = np.split(curve.jet(np.arange(2 * cells) * h), 3, axis=1)
    n = _cross3(F[:cells], F1[:cells])
    i, m = np.arange(cells)[:, None], np.arange(1, cells)
    i, m = full_lattice_cells((n @ F.T)[i, i + m], (n @ F1.T)[i, i + m])
    a0 = (i + 0.5) * h
    return a0, a0 + (m + 1.5) * h


def degree_lift(K, seed):
    """A random lift of degree up to K: each odd k in 3..K kept with
    probability 0.6, then coefficients normal/k for the kept ones."""
    rng = np.random.default_rng(1000 * K + seed)
    ks = np.arange(3, K + 1, 2)
    ks = ks[rng.random(len(ks)) < 0.6]
    coeffs = rng.normal(size=(len(ks), 2)) / ks[:, None]
    return lift(TrigSeries(0.0, tuple((int(k), float(a), float(b)) for k, (a, b) in zip(ks, coeffs)),
                           ANTIPERIODIC))


class TestLatticeSeeds:
    def test_seeds_equal_the_full_lattice(self, curve3, curve5, curve7, curve7_gl3, sf_sin3,
                                          sf_mix25, sf_mix4, sf_mix7):
        # the winding read only where both components change sign gives
        # every seed of the full lattice, in the same order; the K = 31
        # lifts hold the two misses of seeds 23 and 31 (ROADMAP)
        corpus = [curve3, curve5, curve7, curve7_gl3] + [sf.lift for sf in (sf_sin3, sf_mix25,
                                                                           sf_mix4, sf_mix7)]
        for curve in corpus + random_lifts(5, 19) + [degree_lift(31, s) for s in range(40)]:
            seeds, reference = _cell_seeds(curve), full_lattice_seeds(curve)
            assert all(np.array_equal(x, y) for x, y in zip(seeds, reference))
        fine = 4 * LATTICE_CELLS
        assert all(np.array_equal(x, y)
                   for x, y in zip(_cell_seeds(curve7, fine), full_lattice_seeds(curve7, fine)))

    @pytest.mark.parametrize("zero, turn", [(-0.0, 0.0), (0.0, math.pi)])
    def test_a_zero_corner_keeps_its_cell(self, zero, turn):
        # g keeps one strict sign at three corners of cell (0, 0) and is
        # a signed zero at the fourth, where the angle reads pi or 0: the
        # field winds around the cell, which must be read
        g, gb = np.ones((4, 3)), np.full((4, 3), 0.5)
        for node, angle in (((0, 0), turn - 1.5), ((1, 1), turn + 1.5), ((1, 0), turn)):
            g[node], gb[node] = math.cos(angle), math.sin(angle)
        g[0, 1], gb[0, 1] = zero, 0.0
        cells = _winding_cells(g, gb)
        assert all(np.array_equal(x, y) for x, y in zip(cells, full_lattice_cells(g, gb)))
        assert (0, 0) in zip(*cells)

    def test_gap_band_starts_at_the_first_cell(self):
        # the band tangent_pairs keeps is the lattice's: a pair at a gap
        # within one cell of 0 or pi lies in no cell, and is not kept
        h = math.pi / LATTICE_CELLS
        assert GAP_MARGIN / 2 == h
        gaps = np.array([0.99, 1.01, LATTICE_CELLS - 1.01, LATTICE_CELLS - 0.99]) * h

        def converged(a, b):
            return np.ones(len(a), dtype=bool), np.empty((0, 2, 2)), np.empty((0, 2))

        found, dropped, _ = tangent_pairs(np.full(4, 0.5), 0.5 + gaps, converged)
        np.testing.assert_allclose(found, [(0.5, gaps[1]), (0.5, gaps[2])], rtol=0, atol=1e-15)
        assert dropped == 2

    @pytest.mark.parametrize("end", [0.3, LATTICE_CELLS - 0.3])
    def test_closure_at_pi(self, curve7, end):
        # turn curve7 so that a double tangent's first end lies 0.3 cells
        # past 0, or 0.3 cells short of pi, in the cell the closure row
        # a = pi bounds; the row from that end is found there, not only
        # the twin row from the other end
        h = math.pi / LATTICE_CELLS
        a, b = 0.9072907832219648, 1.6008888752629564
        turned = shifted(curve7, end * h - a)
        found, _, _ = tangent_pairs(*_cell_seeds(turned), _tangency_system(turned))
        assert len(found) == 12
        assert any(circle_dist(x, end * h, math.pi) < 1e-9 and abs(gap - (b - a)) < 1e-9
                   for x, gap in found)

    def test_double_folds_of_random_lifts(self):
        # seeds taken where the zero count of g_a changes between 512
        # bases missed these: two folds in one base step, at both ends
        for z, intervals in SEED5_DOUBLE_FOLDS:
            curve = lift(TrigSeries(0.0, z, ANTIPERIODIC))
            found = [(iv.a, iv.b) for iv in detect_double_tangents(curve).intervals]
            for a, b in intervals:
                assert any(abs(a - x) < 1e-5 and abs(b - y) < 1e-5 for x, y in found)

    def test_lattice_resolves_every_zero(self, curve3, curve5, curve7, sf_sin3, sf_mix25,
                                         sf_mix4, sf_mix7):
        # a lattice 4 times finer finds no more nonzero cells
        corpus = [curve3, curve5, curve7] + [sf.lift for sf in (sf_sin3, sf_mix25,
                                                                sf_mix4, sf_mix7)]
        for curve in corpus + random_lifts(5, 19):
            fine = _cell_seeds(curve, 4 * LATTICE_CELLS)[0].size
            assert _cell_seeds(curve)[0].size == fine


# lifts of the seed-5 sphere benchmark, with the double tangents (a, b)
# that seeding from zero-count changes missed
SEED5_DOUBLE_FOLDS = (
    (((3, -0.016107339817685556, -0.22386294296556333),
      (5, -0.0562852382301167, -0.04364856777051209),
      (7, -0.03851530179991657, 0.0298796288459619),
      (9, -0.0023365174787144134, -0.021830787334540917)),
     [(0.28451, 1.68521)]),
    (((3, 0.11992948300926896, 0.02491673103926555),
      (5, 0.06349930418804232, -0.08220892072663266),
      (7, -0.018234344483257305, 0.042829900305084594),
      (9, 0.023362470373847553, 0.05734672929004749)),
     [(1.25405, 2.73656), (2.82604, 4.39777)]),
)


def test_dedupe_keeps_the_first_of_each_chain():
    # 0 ~ 1 ~ 2 ~ 3 in a chain, 0 !~ 2: 1 goes with 0, so 2 is kept and 3
    # goes with 2; 4 is close to nothing
    close = np.zeros((5, 5), dtype=bool)
    for i in (1, 2, 3):
        close[i, i - 1] = True
    assert _first_distinct(close).tolist() == [True, False, True, False, True]
    assert _first_distinct(np.zeros((0, 0), dtype=bool)).size == 0


# (i, delta) of lifts z = sum a_k cos kt + b_k sin kt, as (k, a_k, b_k)
RANDOM_LIFTS = {
    # seeding Newton from a residual grid below a fixed threshold got
    # these three wrong
    "rng7-3": ((7, 2), (
        (3, 0.03016676068608758, -0.035974877067325065),
        (5, -0.2251058318570952, -0.04818215736437174),
        (7, -0.002618804895566496, 0.006118110168850006),
        (9, -0.05667169501871828, -0.017694565779034468))),
    "rng7-20": ((9, 3), (
        (3, -0.20286044401184525, 0.06491848297231442),
        (5, 0.1258702520421622, -0.1300518872513879),
        (7, -0.011259121497885936, -0.03412763006602051),
        (9, -0.06522294349360751, 0.027219507750310797))),
    "rng7-133": ((7, 2), (
        (3, -0.13452071264414645, -0.4292654873872359),
        (5, 0.06706592907325741, -0.05635165890699026),
        (7, 0.02598741516701337, 0.10088006165032311),
        (9, 0.043444285449365336, -0.042634623627666325))),
    # seeded only from the midpoints of adjacent zeros at the base with
    # more zeros, none transposed, the detector misses a double tangent
    # here; with every seed but none transposed, the greedy family comes
    # out one short of the optimum
    "sphere5-r007": ((7, 2), (
        (3, 0.27880846654745356, 0.1093526620399476),
        (5, 0.2175007671783038, 0.057414746379943704),
        (7, 0.04562531904239919, 0.04539260861364437),
        (9, -0.022467093922575985, -0.002593646171791929))),
    # at two double tangents two folds fall in one step of the 512 bases,
    # so the zero count does not change there: both are found only from
    # their other ends, through the transposed seeds
    "sphere21-r001": ((9, 3), (
        (3, -0.04304056929318401, 0.1604810851791361),
        (5, 0.05224024828583506, 0.057090037572996175),
        (7, -0.09151105152094155, -0.08482398127581303),
        (9, 0.05754826571443156, 0.035884643165061486))),
}


def chart_middle(iv: DoubleTangentInterval) -> float:
    """The middle of the complementary arc (b, a + pi) of an interval."""
    return canonical(iv.b + 0.5 * forward_gap(iv.b, iv.a + math.pi))


def chart_curve():
    """A curve that is not anti-convex, whose detector keeps an interval."""
    return ProjectiveCurve(VectorSeries(cos_series(1), sin_series(1) + cos_series(3, 0.7),
                                        sin_series(3, 0.05) + sin_series(5, 0.05)))


class TestChartCheck:
    def test_census_raises_where_a_chord_has_no_chart(self):
        # an interval passes the filters, but at the middle of its
        # complementary arc no line meets the curve only once
        curve = chart_curve()
        with pytest.raises(NotAntiConvex) as err:
            census(curve)
        t = err.value.t
        assert t == pytest.approx(3.2058, abs=1e-4)
        # 2^16 samples of the forward arc already leave no admissible angle
        nu, that = curve.frame(t)
        P = curve.lift_many(t + np.linspace(0.0, math.pi, 2 ** 16 + 2)[1:-1])
        assert admissible_angles(P @ nu, P @ that) is None

    def test_a_chart_point_fails_before_the_start_bases(self):
        # the curve fails at start bases too (0 among them), but the one
        # call reads the chart points first, so the census raises the
        # chart point's t, as the detector alone does
        curve = chart_curve()
        grid = np.linspace(0.0, math.pi, SCAN // 2, endpoint=False)
        assert admissible_normal_arc(curve, grid)[0][0] is None
        with pytest.raises(NotAntiConvex) as alone:
            detect_double_tangents(curve)
        with pytest.raises(NotAntiConvex) as err:
            census(curve)
        assert err.value.t == alone.value.t == pytest.approx(3.2058, abs=1e-4)

    def test_census_without_a_system_checks_anti_convexity(self):
        # the detector of this warped curve keeps no interval, so only the
        # start bases can see that it is not anti-convex
        warped = ProjectiveCurve(VectorSeries(cos_series(1), sin_series(1) + cos_series(3, 0.7),
                                              sin_series(3, 0.05)))
        with pytest.raises(NotAntiConvex) as err:
            census(warped)
        assert err.value.t == 0.0

    def test_truncate_checks_the_lower_cut(self, tmp_path):
        # the lower cut at n = 2 is the warped curve above; truncate
        # censuses it first and stops at its first start base, not at
        # the detector's chart check of the upper cut (t = 3.2058)
        path, report = tmp_path / "chart.json", tmp_path / "report.json"
        path.write_text(json.dumps(chart_curve().F.to_json()))
        code = main(["--input", str(path), "--mode", "truncate", "--truncate-n", "2",
                     "--out-report", str(report)])
        data = json.loads(report.read_text())
        assert code == 1 and data["error"] == "NotAntiConvex" and data["message"].endswith("t=0.0")

    @pytest.mark.parametrize("fixture", ["curve5", "curve7", "sf_mix7", "curve7_gl3"])
    def test_detected_chords_lie_inside_their_charts(self, fixture, request):
        # the line at the middle of the complementary arc keeps the lifted
        # arc (a, b), and so the short chord, on its positive side
        obj = request.getfixturevalue(fixture)
        curve = obj if isinstance(obj, ProjectiveCurve) else obj.lift
        intervals = detect_double_tangents(curve).intervals
        assert intervals
        probes = admissible_normal_arc(curve, [chart_middle(iv) for iv in intervals])
        for iv, (arc, frame) in zip(intervals, probes):
            n = normal_direction(frame, arc.midpoint)
            assert np.min(iv.chord.points(np.linspace(0.0, 1.0, 65)) @ n) > 0.0
            assert np.min(curve.lift_many(np.linspace(iv.a, iv.b, 65)) @ n) > 0.0


class TestDetectionRegressions:
    @pytest.mark.parametrize("scale", [10.0, 20.0, 50.0])
    def test_projective_images_of_curve7(self, curve7, scale):
        # scaling z is a projective map, which cannot change the census
        rep = census(lift(curve7.F.z.scaled(scale)))
        assert (rep.i, rep.delta) == (7, 2)

    def test_mix7_lift(self):
        rep = census(lift(sin_series(3) + sin_series(5) + sin_series(7, 0.5)))
        assert (rep.i, rep.delta) == (7, 2)
        assert any(abs(a - 0.8919) < 1e-4 and abs(b - 2.2497) < 1e-4
                   for a, b in rep.double_tangents)

    def test_general_projective_image_of_curve7(self, curve7_gl3):
        rep = census(curve7_gl3)
        assert (rep.i, rep.delta) == (7, 2) and rep.identity_holds

    @pytest.mark.parametrize("name", sorted(RANDOM_LIFTS))
    def test_random_lifts(self, name):
        expected, harmonics = RANDOM_LIFTS[name]
        rep = census(lift(TrigSeries(0.0, harmonics, ANTIPERIODIC)))
        assert (rep.i, rep.delta) == expected
        assert "greedy_family_mismatch" not in rep.warnings


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
        inside = iv.a + 0.4 * (iv.b - iv.a)
        off, on = red.unit_many(np.array([t, inside]))
        assert np.allclose(off, curve5.lift(t), atol=1e-12)
        assert abs(np.dot(on, iv.chord.normal)) < 1e-12

    def test_reduction_is_continuous_and_tangent(self, curve5):
        iv = detect_double_tangents(curve5).intervals[0]
        red = reduction(curve5, iv.a, iv.b)
        h = 1e-7
        for junction in (iv.a, iv.b):
            left, mid, right = red.unit_many(np.array([junction - h, junction,
                                                       junction + h]))
            assert np.linalg.norm(left - right) < 1e-5
            d_left = (mid - left) / h
            d_right = (right - mid) / h
            cosang = np.dot(d_left, d_right) / (
                np.linalg.norm(d_left) * np.linalg.norm(d_right))
            assert cosang > 1 - 1e-4

    def test_reduction_antiperiodic(self, curve5):
        iv = detect_double_tangents(curve5).intervals[0]
        red = reduction(curve5, iv.a, iv.b)
        ts = np.array([iv.a + 0.2, iv.b + 0.5, 0.0])
        assert np.allclose(red.unit_many(ts + math.pi), -red.unit_many(ts), atol=1e-12)

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
        rep = census(crv, system)
        assert len(set(rep.clean_points)) == 3
        # one Newton step from each point: its distance to a simple zero
        w = inflection_indicator(crv)
        dw = w.derivative()
        for p in rep.clean_points:
            assert abs(w(p) / dw(p)) < 1e-12

    def test_anti_convexity_check_reads_each_projective_point_once(self, curve7,
                                                                    monkeypatch):
        # one call: the middles of the complementary arcs of the detector's
        # 6 intervals, then the 32 start bases of [0, pi), keyed as the
        # line system keys the first 32 of the 64 bases of [0, 2 pi)
        import curvex.census as module
        charts = [chart_middle(iv) for iv in detect_double_tangents(curve7).intervals]
        asked = []

        def spy(curve, ts):
            asked.append(list(ts))
            return admissible_normal_arc(curve, ts)

        monkeypatch.setattr(module, "admissible_normal_arc", spy)
        census(curve7)
        keys = [round(canonical(t), 12) for t in np.linspace(0.0, 2 * math.pi, SCAN, endpoint=False)]
        assert len(charts) == 6 and asked == [charts + keys[:32]]

    def test_report_serializes(self, curve3):
        payload = census(curve3).to_json()
        assert payload["kind"] == "sphere-census"
        assert payload["i"] - 2 * payload["delta"] == 3
