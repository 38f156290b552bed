import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvex.errors import IdenticallyZero, SingularSystem
from curvex.trig import (
    ANTIPERIODIC,
    PERIODIC,
    TWO_PI,
    TrigSeries,
    VectorSeries,
    apply_flex_operator,
    basis_of_am,
    circle_zeros,
    complex_seeds,
    cos_series,
    isolate_sign_changes,
    laurent_rows,
    newton2,
    osculating_in_am,
    real_seeds,
    roots,
    sin_series,
    tan_rows,
    triple_product,
    truncate,
)

small_floats = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


def random_series(rng, degree=7, parity=PERIODIC):
    ks = range(1, degree + 1) if parity == PERIODIC else range(1, degree + 1, 2)
    harmonics = tuple((k, rng.uniform(-1, 1) / k, rng.uniform(-1, 1) / k) for k in ks)
    c = rng.uniform(-1, 1) if parity == PERIODIC else 0.0
    return TrigSeries(c, harmonics, parity)


@pytest.mark.parametrize("n", [4096, 64, 7])
@pytest.mark.parametrize("degree", [0, 1, 3, 7, 31, 64, 100])
@pytest.mark.parametrize("parity", [PERIODIC, ANTIPERIODIC])
def test_on_grid_is_the_series_on_the_grid(parity, degree, n):
    # one inverse FFT gives the values at 2 pi j / n, also where the
    # degree reaches n / 2 and the FFT is longer than the grid
    rng = np.random.default_rng(1000 * degree + n)
    s = random_series(rng, degree, parity)
    v = VectorSeries(s, random_series(rng, degree, parity), TrigSeries.zero(parity))
    ts = np.arange(n) * TWO_PI / n
    scale = 1.0 + sum(abs(a) + abs(b) for _, a, b in s.harmonics)
    assert np.abs(s.on_grid(n) - s(ts)).max() <= 1e-14 * max(degree, 1) * scale
    assert v.on_grid(n).shape == (n, 3)
    assert np.abs(v.on_grid(n) - v.eval_many(ts)).max() <= 1e-14 * max(degree, 1) * 4 * scale


def test_eval_derivative_examples():
    s = sin_series(3)
    assert s.eval_derivative(math.pi / 6, 0) == pytest.approx(1.0)
    assert s.eval_derivative(0.0, 1) == pytest.approx(3.0)
    assert s.eval_derivative(0.0, 2) == pytest.approx(0.0, abs=1e-12)


@given(st.integers(1, 9), small_floats, st.integers(0, 4))
def test_derivative_matches_finite_difference(k, t, order):
    s = TrigSeries(0.0, ((k, 0.3, -0.7),), PERIODIC)
    h = 1e-5
    d = s.derivative(order + 1)(t)
    fd = (s.derivative(order)(t + h) - s.derivative(order)(t - h)) / (2 * h)
    assert d == pytest.approx(fd, abs=1e-4 * k ** (order + 2))


def test_antiperiodic_validation():
    with pytest.raises(ValueError):
        TrigSeries(1.0, (), ANTIPERIODIC)
    with pytest.raises(ValueError):
        TrigSeries(0.0, ((2, 1.0, 0.0),), ANTIPERIODIC)


def test_antiperiodicity_holds():
    s = TrigSeries(0.0, ((1, 0.5, 0.2), (3, 0.0, 1.0)), ANTIPERIODIC)
    for t in np.linspace(0, 2 * math.pi, 17):
        assert s(t + math.pi) == pytest.approx(-s(t), abs=1e-12)


def test_flex_operator_order2():
    assert apply_flex_operator(sin_series(1), 2).is_zero()
    out = apply_flex_operator(sin_series(3), 2)
    assert out.harmonics == ((3, 0.0, -8.0),)


def test_flex_operator_order3_does_not_kill_cos2t():
    # kernel of the order-3 operator is span{1, cos t, sin t}; cos 2t
    # maps to D(-3 cos 2t) = 6 sin 2t
    out = apply_flex_operator(cos_series(2), 3)
    assert out.harmonics == ((2, 0.0, 6.0),)
    assert apply_flex_operator(cos_series(2), 5).is_zero()


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7])
def test_flex_operator_kernel_is_exactly_am(m):
    rng = np.random.default_rng(m)
    member = TrigSeries.zero()
    for e in basis_of_am(m):
        member = member + e.scaled(rng.uniform(-1, 1))
    assert apply_flex_operator(member, m).is_zero(1e-12)
    outside_k = (m + 1) if m % 2 == 1 else (m + 1)
    outside = sin_series(outside_k, parity=PERIODIC)
    assert not apply_flex_operator(outside, m).is_zero(1e-6)


def test_flex_operator_order2_equals_second_derivative_plus_identity():
    rng = np.random.default_rng(7)
    for _ in range(5):
        s = random_series(rng, degree=6)
        t = np.linspace(0, 2 * math.pi, 64)
        lhs = apply_flex_operator(s, 2)(t)
        rhs = s.derivative(2)(t) + s(t)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_osculating_m2_closed_form():
    phi = osculating_in_am(sin_series(3), 0.0, 2)
    assert phi.harmonics == ((1, 0.0, 3.0),)


def test_osculating_m2_at_pi_over_6():
    # independent 2x2 solve: f(pi/6) = 1, f'(pi/6) = 0
    f, fp = 1.0, 0.0
    p = math.pi / 6
    a = f * math.cos(p) - fp * math.sin(p)
    b = f * math.sin(p) + fp * math.cos(p)
    phi = osculating_in_am(sin_series(3), p, 2)
    assert phi(0.33) == pytest.approx(a * math.cos(0.33) + b * math.sin(0.33))


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_osculating_jet_system_at_a_non_finite_point_is_singular(m):
    # every order, the closed form of order 2 among them, fails the same
    # way at NaN and at either infinity, where the jet is undefined
    for p, name in ((math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")):
        with pytest.raises(SingularSystem, match=f"ill-conditioned at p={name}$"):
            osculating_in_am(sin_series(3), p, m)


def test_osculating_fixes_members():
    f = TrigSeries(0.0, ((1, 0.4, -1.2),), ANTIPERIODIC)
    phi = osculating_in_am(f, 1.234, 2)
    assert phi.harmonics[0][1] == pytest.approx(0.4)
    assert phi.harmonics[0][2] == pytest.approx(-1.2)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.0, max_value=6.28), st.integers(2, 6))
def test_osculating_matches_jet(p, m):
    rng = np.random.default_rng(42)
    s = random_series(rng, degree=8)
    phi = osculating_in_am(s, p, m)
    for j in range(m):
        assert phi.eval_derivative(p, j) == pytest.approx(
            s.eval_derivative(p, j), abs=1e-9)


def test_truncate_examples():
    s = sin_series(1) + sin_series(9, 0.1)
    assert truncate(s, 1).harmonics == ((1, 0.0, 1.0),)
    assert truncate(s, 5).harmonics == s.harmonics
    t = truncate(s, 2)
    assert truncate(t, 2) is not t and truncate(t, 2).harmonics == t.harmonics


def test_truncate_periodic_keeps_constant():
    s = TrigSeries(2.0, ((1, 1.0, 0.0), (4, 0.0, 0.5)), PERIODIC)
    out = truncate(s, 2)
    assert out.constant == 2.0
    assert out.harmonics == ((1, 1.0, 0.0),)


def test_isolate_sign_changes_sin3():
    roots = isolate_sign_changes(apply_flex_operator(sin_series(3), 2), domain="half")
    vals = [r.value for r in roots]
    assert vals == pytest.approx([0.0, math.pi / 3, 2 * math.pi / 3], abs=1e-10)
    dirs = [r.direction for r in roots]
    assert dirs in ([1, -1, 1], [-1, 1, -1])
    assert dirs[0] != dirs[1] != dirs[2]


def test_isolate_sign_changes_sin_t_full():
    roots = isolate_sign_changes(sin_series(1), domain="full")
    assert [r.value for r in roots] == pytest.approx([0.0, math.pi], abs=1e-10)


def test_isolate_five_changes():
    s = sin_series(3, -8.0) + sin_series(5, -24.0)
    roots = [r for r in isolate_sign_changes(s, domain="half") if r.direction != 0]
    # dense-grid oracle, counting flips cyclically around the whole circle
    t = np.linspace(0, 2 * math.pi, 400001, endpoint=False)
    v = s(t)
    sign = np.sign(v[np.abs(v) > 1e-9])
    flips = int(np.sum(sign[1:] != sign[:-1])) + int(sign[0] != sign[-1])
    assert len(roots) == flips // 2 == 5


def test_isolate_tangential_zero():
    s = sin_series(1) * sin_series(1)  # sin^2 t: double zeros at 0, pi
    roots = isolate_sign_changes(s, domain="full", tangential_tol=1e-9)
    assert all(r.direction == 0 for r in roots)
    assert [r.value for r in roots] == pytest.approx([0.0, math.pi], abs=1e-7)


@pytest.mark.parametrize("s, zeros, directions", [
    (sin_series(1) * sin_series(1) * sin_series(1), [(0.0, 3), (math.pi, 3)], [1, -1]),
    (TrigSeries(1.0, ((1, -1.0, 0.0),)), [(0.0, 2)], [0]),
    (TrigSeries(-math.cos(1e-3), ((1, 1.0, 0.0),)),
     [(1e-3, 1), (TWO_PI - 1e-3, 1)], [-1, 1]),
    # two crossings inside one 1e-4 cluster of eigenvalues
    (TrigSeries(-math.cos(1e-5), ((1, 1.0, 0.0),)),
     [(1e-5, 1), (TWO_PI - 1e-5, 1)], [-1, 1]),
    # a minimum that misses zero by 1e-12 stays one tangential zero
    (TrigSeries(1.0 + 1e-12, ((1, -1.0, 0.0),)), [(0.0, 2)], [0]),
], ids=["sin^3", "1-cos", "two-close-crossings", "crossings-in-one-cluster",
        "near-miss-minimum"])
def test_roots_multiplicities_and_directions(s, zeros, directions):
    got = roots(s)
    assert [m for _, m in got] == [m for _, m in zeros]
    assert [t for t, _ in got] == pytest.approx([t for t, _ in zeros], abs=1e-10)
    isolated = isolate_sign_changes(s, tangential_tol=1e-9)
    assert [r.value for r in isolated] == [t for t, _ in got]
    assert [r.direction for r in isolated] == directions


def double_and_triple(a, b):
    """(1 - cos(t - a)) sin^3(t - b): a double zero at a and triple zeros
    at b and b + pi, none on a grid or at a multiple of pi/2."""
    d = TrigSeries(1.0, ((1, -math.cos(a), -math.sin(a)),))
    s = TrigSeries(0.0, ((1, -math.sin(b), math.cos(b)),), ANTIPERIODIC)
    return d * s * s * s, sorted([(a, 2), (b, 3), ((b + math.pi) % TWO_PI, 3)])


GENERIC_ANGLES = [(0.7, 2.3), (2.9, 0.4), (5.1, 3.3), (2.195, 4.745)]


@pytest.mark.parametrize("a, b", GENERIC_ANGLES)
def test_roots_of_double_and_triple_zeros_at_generic_angles(a, b):
    s, zeros = double_and_triple(a, b)
    got = roots(s)
    assert [m for _, m in got] == [m for _, m in zeros]
    np.testing.assert_allclose([t for t, _ in got], [t for t, _ in zeros], rtol=0, atol=1e-13)


@pytest.mark.parametrize("a, b", GENERIC_ANGLES)
def test_multiple_zeros_are_polished_from_off_centre_seeds(a, b):
    # every seed moved by 3e-7, well inside the 1e-4 clusters: only Newton
    # on the (m-1)-th derivative brings a zero of multiplicity m back
    s, zeros = double_and_triple(a, b)

    def moved(P, scale):
        rows, angle = complex_seeds(P, scale)
        return rows, angle + 3e-7

    P = laurent_rows([s])
    origin = np.argmax(np.abs(np.fft.ifft(P[0], 32))) * TWO_PI / 32 - TWO_PI
    _, t, m = circle_zeros(P, np.ones(1), np.array([origin]), seeds=moved)
    got = sorted(zip((t % TWO_PI).tolist(), m.tolist()))
    assert [m for _, m in got] == [m for _, m in zeros]
    np.testing.assert_allclose([t for t, _ in got], [t for t, _ in zeros], rtol=0, atol=1e-13)


def test_circle_zeros_of_a_batch_equal_each_row_alone():
    # degrees 3, 1, 1, 9 and 5: the lower rows carry zero leading
    # coefficients, and the two rows of degree 1 share one eigvals call
    rng = np.random.default_rng(3)
    series = [sin_series(1) * sin_series(1) * sin_series(1),
              TrigSeries(1.0, ((1, -1.0, 0.0),)),
              TrigSeries(-math.cos(1e-5), ((1, 1.0, 0.0),)),
              TrigSeries(0.3, tuple((k, rng.normal(), rng.normal()) for k in range(1, 10))),
              TrigSeries(0.0, tuple((k, rng.normal(), rng.normal()) for k in (1, 3, 5)),
                         ANTIPERIODIC)]
    P = laurent_rows(series)
    grid = np.linspace(0.0, TWO_PI, 1024, endpoint=False)
    origin = np.array([grid[np.argmax(np.abs(s(grid)))] for s in series])
    scale = np.linspace(0.5, 2.5, len(series))
    rows, zeros, mult = circle_zeros(P, scale, origin)
    assert rows.tolist() == sorted(rows.tolist())
    # a triple zero, a double zero and a close pair of simple zeros
    assert [mult[rows == i].tolist() for i in range(3)] == [[3, 3], [2], [1, 1]]
    for i in range(len(series)):
        alone = circle_zeros(P[i:i + 1], scale[i:i + 1], origin[i:i + 1])
        assert alone[1].tolist() == zeros[rows == i].tolist()
        assert alone[2].tolist() == mult[rows == i].tolist()


@pytest.mark.parametrize("s", [sin_series(1) * sin_series(1) * sin_series(1)] + [
    random_series(np.random.default_rng(seed), parity=ANTIPERIODIC) for seed in range(4)])
def test_circle_zeros_of_odd_degree_rows_match_roots(s):
    # odd harmonics only: every other Laurent column is a row in
    # y = exp(2it), of odd degree (3 for sin^3, 7 for the others)
    P = laurent_rows([s])[:, ::2]
    assert (P.shape[1] - 1) % 2 == 1
    grid = np.linspace(0.0, math.pi, 512, endpoint=False)
    origin = grid[np.argmax(np.abs(s(grid)))]
    _, zeros, mult = circle_zeros(P, np.ones(1), np.array([origin]), step=2)
    # the zeros of an antiperiodic series repeat after pi
    expected = sorted(((t - origin) % math.pi, m) for t, m in roots(s))[::2]
    assert mult.tolist() == [m for _, m in expected]
    np.testing.assert_allclose(zeros - origin, [t for t, _ in expected],
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("N", [4, 7])
def test_tan_rows_are_the_series_times_a_power_of_one_plus_u_squared(N):
    # C[N - j] = conj(C[j]): a real series in y = exp(i theta), which
    # tan_rows writes in u with theta = c + 2 arctan u
    rng = np.random.default_rng(N)
    C = rng.normal(size=(3, N + 1)) + 1j * rng.normal(size=(3, N + 1))
    C = C + C[:, ::-1].conj()
    c = rng.uniform(0.0, TWO_PI, 3)
    u = np.linspace(-3.0, 3.0, 13)
    theta = c[:, None, None] + 2.0 * np.arctan(u)
    series = (C[:, :, None] * np.exp(1j * (np.arange(N + 1) - N / 2)[:, None] * theta)).sum(axis=1)
    got = np.array([np.polyval(row[::-1], u) for row in tan_rows(C, c)])
    np.testing.assert_allclose(got, (1.0 + u ** 2) ** (N / 2) * series.real, rtol=1e-10)


@pytest.mark.parametrize("s", [sin_series(1) * sin_series(1) * sin_series(1),
                               TrigSeries(1.0, ((1, -1.0, 0.0),)),
                               TrigSeries(-math.cos(1e-5), ((1, 1.0, 0.0),))] + [
    random_series(np.random.default_rng(seed)) for seed in range(4)],
    ids=["sin^3", "1-cos", "crossings-in-one-cluster", "r0", "r1", "r2", "r3"])
def test_real_seeds_give_the_zeros_of_roots(s):
    P = laurent_rows([s])
    K = s.degree
    origin = np.argmax(np.abs(np.fft.ifft(P[0], 8 * K))) * TWO_PI / (8 * K) - TWO_PI
    _, zeros, mult = circle_zeros(P, np.ones(1), np.array([origin]), seeds=real_seeds)
    zeros %= TWO_PI
    zeros[TWO_PI - zeros < 1e-10] = 0.0
    got, expected = sorted(zip(zeros.tolist(), mult.tolist())), roots(s)
    assert [m for _, m in got] == [m for _, m in expected]
    np.testing.assert_allclose([t for t, _ in got], [t for t, _ in expected], rtol=0, atol=1e-12)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(st.integers(0, 22), st.integers(0, 2 ** 32 - 1))
def test_crossings_match_a_fine_grid(n, seed):
    # odd harmonics 1..2n+1, so the degree reaches 45
    rng = np.random.default_rng(seed)
    s = TrigSeries(0.0, tuple((k, rng.normal(), rng.normal())
                              for k in range(1, 2 * n + 2, 2)), ANTIPERIODIC)
    crossings = [r for r in isolate_sign_changes(s) if r.direction != 0]
    t = np.linspace(0.0, TWO_PI, 2 ** 16, endpoint=False) + 0.37 * TWO_PI / 2 ** 16
    sign = np.sign(s(t))
    assert len(crossings) == int(np.sum(sign != np.roll(sign, 1)))


def test_isolate_identically_zero_raises():
    with pytest.raises(IdenticallyZero):
        isolate_sign_changes(TrigSeries.zero())


def test_product_expansion():
    # sin 3t = 3 sin t - 4 sin^3 t
    s1 = sin_series(1)
    cube = s1 * s1 * s1
    expected = sin_series(1, 0.75) + sin_series(3, -0.25)
    t = np.linspace(0, 2 * math.pi, 50)
    assert np.allclose(cube(t), expected(t), atol=1e-12)
    assert cube.parity == ANTIPERIODIC


def test_product_parity_rules():
    anti = sin_series(1)
    per = cos_series(2)
    assert (anti * anti).parity == PERIODIC
    assert (anti * per).parity == ANTIPERIODIC
    assert (per * per).parity == PERIODIC


def test_vector_series_roundtrip_and_ops():
    F = VectorSeries(cos_series(1), sin_series(1), sin_series(3, 0.1))
    back = VectorSeries.from_json(F.to_json())
    assert back == F
    w = triple_product(F, F.derivative(), F.derivative(2))
    g = sin_series(3, 0.1)
    expect = g.derivative(2) + g
    t = np.linspace(0, 2 * math.pi, 97)
    assert np.allclose(w(t), expect(t), atol=1e-12)


def test_series_json_roundtrip():
    s = TrigSeries(0.25, ((2, 1.0, -0.5), (5, 0.0, 0.125)), PERIODIC)
    assert TrigSeries.from_json(s.to_json()) == s


def test_newton2_solves_and_gives_up():
    # row i has residual (a - 10 i - 1, b - 2) with its own Jacobian; the
    # system recognizes a row by a, which stays within 0.5 of 10 i + 1
    mats = [[[1.0, 0.0], [0.0, 1.0]],  # converges in one step
            [[1.0, 1.0], [1.0, 1.0]],  # singular
            [[1.0, 0.0], [0.0, 1.0]],  # first step longer than 0.5
            [[1e-320, 0.0], [0.0, 1.0]],  # non-finite step
            # each step undoes a tenth of the residual: 40 steps run out
            [[10.0, 0.0], [0.0, 10.0]]]
    seeds = [(0.8, 2.3), (10.8, 2.3), (20.4, 2.0), (30.8, 2.3), (40.8, 2.3)]
    sizes = []

    def system(a, b):
        sizes.append(len(a))
        row = np.rint(a / 10.0).astype(int)
        r = np.stack([a - (10.0 * row + 1.0), b - 2.0], axis=1)
        done = np.abs(r).max(axis=1) < 1e-14
        return done, np.array(mats)[row[~done]], r[~done]

    def solve(rows):
        a0, b0 = np.array([seeds[i] for i in rows]).T
        return newton2(system, a0, b0)

    a, b, converged = solve(range(5))
    assert converged.tolist() == [True, False, False, False, False]
    assert (a[0], b[0]) == pytest.approx((1.0, 2.0))
    # the singular row sends the first step through the row-by-row
    # fallback, after which only the slow row keeps running
    assert sizes[:3] == [5, 2, 1] and len(sizes) == 40
    # a row's outcome does not depend on the rows beside it
    for i in range(5):
        ai, bi, ci = solve([i])
        assert (ai[0], bi[0], ci[0]) == (a[i], b[i], converged[i])
    a, b, converged = solve([0, 1])
    assert converged.tolist() == [True, False]
    assert newton2(system, [], [])[2].size == 0
