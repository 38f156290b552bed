"""The blocked topological inflection count against the per-sample walk
that defines it."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from curvex.census import (
    count_inflections_topological,
    detect_double_tangents,
    maximal_independent_family,
    reduction,
)
from curvex.circle import cyclic_runs
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
