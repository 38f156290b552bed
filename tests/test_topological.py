"""The topological inflection count against the per-sample walk that
defines it: the certified jumps over runs of equal tangent normals, the
band of first positions every walk reads, and the blocked full walk of
the rows the band leaves open."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from curvex import census
from curvex.census import (
    FD_STEP,
    GROUP_TOL,
    count_inflections_topological,
    detect_double_tangents,
    maximal_independent_family,
    reduction,
)
from curvex.circle import cyclic_runs
from curvex.errors import LineCurve
from curvex.trig import apply_flex_operator, cos_series, sin_series
from curvex.width import SupportFunction, a2_double_tangents


def walk_reference(unit_many, n_grid=2048, escape=1e-7, fd_step=1e-5):
    """The topological count as a scalar walk: from each sample, step
    along the full circle [U; -U] in both directions until the side value
    of its tangent circle leaves the escape band."""
    ts = np.linspace(0.0, math.pi, n_grid, endpoint=False)
    U = unit_many(ts)
    T = unit_many(ts + fd_step) - unit_many(ts - fd_step)
    T /= np.linalg.norm(T, axis=1)[:, None]
    N = np.cross(U, T)
    N /= np.linalg.norm(N, axis=1)[:, None]
    V = np.concatenate([U, -U], axis=0)
    m = 2 * n_grid
    crossing = np.zeros(n_grid, dtype=bool)
    for j in range(n_grid):
        sigma = V @ N[j]
        signs = []
        for direction in (1, -1):
            k = j
            sgn = 0.0
            for _ in range(m // 2):
                k = (k + direction) % m
                if abs(sigma[k]) > escape:
                    sgn = math.copysign(1.0, sigma[k])
                    break
            signs.append(sgn)
        crossing[j] = signs[0] != 0.0 and signs[1] != 0.0 and signs[0] != signs[1]
    if crossing.all():
        return 1, [0.0]
    params = [float(ts[((2 * start + length - 1) // 2) % n_grid])
              for start, length in cyclic_runs(crossing)]
    return len(params), params


def assert_same_count(unit_many, n_grid=2048):
    result = count_inflections_topological(unit_many, n_grid=n_grid)
    assert result == walk_reference(unit_many, n_grid=n_grid)
    return result


def width_reductions(sf):
    """The lift's reductions at the first double tangent of the census
    family and at the rest of its half period, or None when the family
    is empty."""
    family = maximal_independent_family(a2_double_tangents(sf)[0])
    if not family:
        return None
    a, b = family[0].a, family[0].b
    return [reduction(sf.lift, lo, hi, check_simple=False).unit_many
            for lo, hi in ((a, b), (b, a + math.pi))]


def random_support(seed):
    """Odd harmonics 3..9 with N(0, 1)/k^1.5 coefficients, at a width that
    clears the convexity bound."""
    rng = np.random.default_rng(seed)
    f = None
    for k in (3, 5, 7, 9):
        term = cos_series(k, rng.normal() / k ** 1.5) + sin_series(k, rng.normal() / k ** 1.5)
        f = term if f is None else f + term
    grid = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    deficit = max(0.0, -float(np.min(apply_flex_operator(f, 2)(grid))))
    return SupportFunction(2.5 * deficit + 1.0, f)


@pytest.mark.parametrize("fixture", ["curve3", "curve5", "curve7"])
def test_corpus_lifts(fixture, request):
    crv = request.getfixturevalue(fixture)
    assert_same_count(crv.lift_many)


def test_curve5_reductions(curve5):
    iv = detect_double_tangents(curve5).intervals[0]
    for a, b in ((iv.a, iv.b), (iv.b, iv.a + math.pi)):
        assert_same_count(reduction(curve5, a, b).unit_many)


@pytest.mark.parametrize("fixture", ["sf_mix4", "sf_mix7"])
def test_width_reductions(fixture, request):
    for unit_many in width_reductions(request.getfixturevalue(fixture)):
        assert_same_count(unit_many)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.booleans())
def test_random_width_reductions(seed, outside):
    reductions = width_reductions(random_support(seed))
    assume(reductions is not None)
    # a quarter of the default grid keeps the scalar walk affordable
    assert_same_count(reductions[outside], n_grid=512)


def test_great_circle_never_escapes():
    e1 = np.array([1.0, 2.0, 3.0]) / math.sqrt(14.0)
    e2 = np.cross(e1, [0.0, 0.0, 1.0])
    e2 /= np.linalg.norm(e2)

    def unit_many(ts):
        ts = np.atleast_1d(ts)[:, None]
        return np.cos(ts) * e1 + np.sin(ts) * e2

    assert assert_same_count(unit_many, n_grid=256) == (0, [])


def test_escapes_found_past_the_antipode():
    # The equator with one bump on (0.8, 2.3), negated past pi.  The
    # tangent circle at an equator sample is the equator, so the walk from
    # a sample before the bump escapes backward only after wrapping past
    # t = 0, and from a sample after it forward only past t = pi.
    lo, hi = 0.8, 2.3

    def unit_many(ts):
        ts = np.atleast_1d(ts)
        s = np.mod(ts, math.pi)
        bump = np.where((s > lo) & (s < hi),
                        0.1 * np.sin(math.pi * (s - lo) / (hi - lo)) ** 2, 0.0)
        sign = np.where(np.mod(ts, 2.0 * math.pi) < math.pi, 1.0, -1.0)
        pts = np.stack([np.cos(ts), np.sin(ts), sign * bump], axis=-1)
        return pts / np.linalg.norm(pts, axis=-1)[:, None]

    count, params = assert_same_count(unit_many, n_grid=512)
    # the equator crossed from the bump to its antipode is one
    # inflection, found only with the sign flip; the bump adds two
    assert count == 3
    assert sum(lo < p < hi for p in params) == 2


def test_peak_memory_stays_small(sf_mix7):
    # the whole 2048 x 4096 side-value matrix would take 64 MB
    _, outside = width_reductions(sf_mix7)
    tracemalloc.start()
    try:
        count_inflections_topological(outside)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def bump_unit_many(ts):
    """The equator with the bump 0.05 sin^4(pi (t - 1.2) / 0.7) on
    (1.2, 1.9), negated past pi so that the curve is antiperiodic."""
    ts = np.asarray(ts, dtype=float)
    t = np.mod(ts, math.pi)
    z = np.where((t > 1.2) & (t < 1.9), 0.05 * np.sin(math.pi * (t - 1.2) / 0.7) ** 4, 0.0)
    z = np.where(np.mod(ts, 2.0 * math.pi) < math.pi, z, -z)
    P = np.stack([np.cos(ts), np.sin(ts), z], axis=-1)
    return P / np.linalg.norm(P, axis=-1)[..., None]


@pytest.mark.parametrize("n_grid,count", [(256, 3), (512, 2), (1024, 3), (2048, 3)])
def test_flat_inflection_can_be_stepped_over(n_grid, count):
    # a known fault of the definition: at 512 samples no tangent circle
    # separates the first escapes around the flat inflection near
    # t = 1.667, and the count is even, which no antiperiodic curve has;
    # width.census_fn flags such a count as topological_count_even
    assert assert_same_count(bump_unit_many, n_grid=n_grid)[0] == count


def antiperiodic_z(z_of):
    """The normalized curve (cos t, sin t, z(t)) with z(t) = z_of(t mod pi)
    on [0, pi) and its negation past pi, so that the curve is antiperiodic."""

    def unit_many(ts):
        ts = np.asarray(ts, dtype=float)
        z = z_of(np.mod(ts, math.pi))
        z = np.where(np.mod(ts, 2.0 * math.pi) < math.pi, z, -z)
        P = np.stack([np.cos(ts), np.sin(ts), z], axis=-1)
        return P / np.linalg.norm(P, axis=-1)[..., None]

    return unit_many


def equator_bump(lo, hi, height, power=2):
    """The equator with the bump height sin^power(pi (t - lo) / (hi - lo))
    on (lo, hi)."""
    return antiperiodic_z(lambda t: np.where(
        (t > lo) & (t < hi), height * np.sin(math.pi * (t - lo) / (hi - lo)) ** power, 0.0))


def spied_count(monkeypatch, unit_many, n_grid):
    """The count, the (n_grid, 2) jumps of its samples and the block starts
    each full-walk call was given."""
    real_jumps, real_walk = census._jumps, census._walk_blocks
    seen = {"blocks": []}

    def jumps(N, U):
        seen["jumps"] = real_jumps(N, U)
        return seen["jumps"]

    def walk(N, U, starts, crossing):
        seen["blocks"].append([int(lo) for lo in starts])
        return real_walk(N, U, starts, crossing)

    monkeypatch.setattr(census, "_jumps", jumps)
    monkeypatch.setattr(census, "_walk_blocks", walk)
    result = count_inflections_topological(unit_many, n_grid=n_grid)
    assert result == walk_reference(unit_many, n_grid=n_grid)
    return result, seen["jumps"], seen["blocks"]


def stalled_curve(vanish):
    """An antiperiodic curve whose parameter stops on (1.0, 1.5); with
    vanish, its points there are 0/0 = NaN instead of the stopping point."""

    def unit_many(ts):
        ts = np.asarray(ts, dtype=float)
        t = np.mod(ts, math.pi)
        stop = (t >= 1.0) & (t < 1.5)
        s = np.where(t < 1.0, t, np.where(
            stop, 1.0, 1.0 + (t - 1.5) * (math.pi - 1.0) / (math.pi - 1.5)))
        P = np.stack([np.cos(s), np.sin(s), 0.3 * np.sin(3.0 * s)], axis=-1)
        if vanish:
            P[stop] = 0.0
        with np.errstate(invalid="ignore"):
            P /= np.linalg.norm(P, axis=-1)[..., None]
        return np.where((np.mod(ts, 2.0 * math.pi) < math.pi)[..., None], P, -P)

    return unit_many


@pytest.mark.parametrize("vanish", [False, True], ids=["zero-tangent", "nan-points"])
def test_degenerate_frame_raises_instead_of_counting(vanish):
    # a zero finite-difference tangent used to give NaN normals, which
    # passed the guard (NaN < EPS_NORM is false) and yielded a count
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LineCurve, match="degenerate tangent frame"):
            count_inflections_topological(stalled_curve(vanish))


def test_great_circle_stretch_wraps_across_zero(monkeypatch):
    # the equator outside the bump on (0.6, 2.0) is one run of samples
    # from t = 2.0 round to t = 0.6; the walk from t = 0 jumps across the
    # seam both ways
    (count, _), jumps, blocks = spied_count(monkeypatch, equator_bump(0.6, 2.0, 0.1), 512)
    ts = np.linspace(0.0, math.pi, 512, endpoint=False)
    assert count == 3
    # the walk resumes at the first sample past either end of the run
    assert tuple(jumps[0]) == (np.sum(ts < 0.6), np.sum(ts > 2.0) + 1)
    assert blocks == []


def test_whole_great_circle_is_one_certified_run(monkeypatch):
    e1 = np.array([1.0, 2.0, 3.0]) / math.sqrt(14.0)
    e2 = np.cross(e1, [0.0, 0.0, 1.0])
    e2 /= np.linalg.norm(e2)

    def unit_many(ts):
        ts = np.atleast_1d(ts)[:, None]
        return np.cos(ts) * e1 + np.sin(ts) * e2

    (count, _), jumps, blocks = spied_count(monkeypatch, unit_many, 256)
    assert count == 0 and (jumps == 256).all() and blocks == []


@pytest.mark.parametrize("height, certified", [(1.2e-7, 0), (1.0e-7, 45)])
def test_nearly_flat_stretch_is_grouped_but_not_certified(monkeypatch, height, certified):
    # a plateau z = height bends so little that neighbouring normals
    # agree within GROUP_TOL, but over the plateau the normals turn and
    # the curve leaves the tangent circles by more than ESCAPE; at 1e-7
    # the bound certifies the samples near the middle only
    unit_many = antiperiodic_z(lambda t: height * np.tanh(30.0 * np.sin(t)) / np.tanh(30.0))
    ts = np.linspace(0.0, math.pi, 512, endpoint=False)
    U = unit_many(ts)
    N = np.cross(U, unit_many(ts + FD_STEP) - unit_many(ts - FD_STEP))
    N /= np.linalg.norm(N, axis=1)[:, None]
    assert np.sum(np.linalg.norm(np.roll(N, -1, axis=0) - N, axis=1) <= GROUP_TOL) > 400
    _, jumps, blocks = spied_count(monkeypatch, unit_many, 512)
    assert np.sum((jumps > 1).any(axis=1)) == certified
    assert blocks


def test_walk_escaping_beyond_the_band_takes_the_full_walk(monkeypatch):
    # a bump of height 1e-6 on (0.8, 2.2) rises above ESCAPE only about 23
    # samples in, so the walks that jump along the equator to its start
    # still have not escaped at the end of their band
    _, jumps, blocks = spied_count(monkeypatch, equator_bump(0.8, 2.2, 1e-6), 512)
    jumped = np.nonzero((jumps > 1).any(axis=1))[0]
    assert len(blocks) == 1 and len(jumped)
    assert set(jumped // census.ESCAPE_BLOCK * census.ESCAPE_BLOCK) <= set(blocks[0])


def test_band_value_at_the_escape_edge_takes_the_full_walk(monkeypatch):
    # the equator, then a plateau at exactly ESCAPE (1e-7 less 5e-22 once
    # normalized) and a dip below the equator: the walks from the equator
    # meet a value within ESCAPE_SLACK of the edge, which the full walk
    # must judge; it passes the plateau and escapes downward in the dip
    step = math.pi / 512
    lo, mid, hi = 0.8 + step / 2, 1.2 + step / 2, 2.0
    unit_many = antiperiodic_z(lambda t: np.where(
        (t > lo) & (t < mid), 1e-7,
        np.where((t >= mid) & (t < hi), -0.05 * np.sin(math.pi * (t - mid) / (hi - mid)) ** 2, 0.0)))
    (count, _), _, blocks = spied_count(monkeypatch, unit_many, 512)
    assert count == 3 and blocks


def test_no_width_row_reaches_the_full_walk(monkeypatch, sf_mix7):
    # the chord of the outside reduction is jumped, and every other walk
    # escapes inside its band
    _, outside = width_reductions(sf_mix7)
    calls = []
    monkeypatch.setattr(census, "_walk_blocks", lambda *args: calls.append(args))
    assert count_inflections_topological(outside)[0] % 2 == 1
    assert calls == []
