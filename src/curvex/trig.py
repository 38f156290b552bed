"""Finite trigonometric polynomials with exact calculus.

A series is a constant plus harmonics a_k cos(kt) + b_k sin(kt).  Two
parity classes are tracked: ordinary 2*pi-periodic series, and
pi-antiperiodic ones (f(t+pi) = -f(t)), which carry only odd harmonics
and no constant term.  Differentiation, products, the flex operators
annihilating the low-harmonic spaces, osculating approximants and sign
change isolation are all exact up to floating arithmetic.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .errors import IdenticallyZero, SingularSystem

TWO_PI = 2.0 * math.pi

PERIODIC = "periodic"
ANTIPERIODIC = "antiperiodic"

# coefficients below this (relative to the largest) are dropped after products
COEFF_PRUNE = 1e-13
MAX_OSCULATE_ORDER = 15


@dataclass(frozen=True)
class TrigSeries:
    constant: float
    harmonics: tuple[tuple[int, float, float], ...]
    parity: str = PERIODIC

    def __post_init__(self):
        if self.parity not in (PERIODIC, ANTIPERIODIC):
            raise ValueError(f"unknown parity {self.parity!r}")
        seen: dict[int, tuple[float, float]] = {}
        for k, a, b in self.harmonics:
            if k <= 0:
                raise ValueError("harmonic index must be positive")
            pa, pb = seen.get(k, (0.0, 0.0))
            seen[k] = (pa + a, pb + b)
        if self.parity == ANTIPERIODIC:
            if abs(self.constant) > 0.0:
                raise ValueError("antiperiodic series cannot have a constant term")
            for k in seen:
                if k % 2 == 0:
                    raise ValueError("antiperiodic series carry odd harmonics only")
        cleaned = tuple(sorted((k, a, b) for k, (a, b) in seen.items()
                               if a != 0.0 or b != 0.0))
        object.__setattr__(self, "harmonics", cleaned)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, parity: str = PERIODIC) -> "TrigSeries":
        return cls(0.0, (), parity)

    @classmethod
    def const(cls, c: float) -> "TrigSeries":
        return cls(c, (), PERIODIC)

    # -- basic queries --------------------------------------------------

    @property
    def degree(self) -> int:
        return max((k for k, _, _ in self.harmonics), default=0)

    def max_coeff(self) -> float:
        m = abs(self.constant)
        for _, a, b in self.harmonics:
            m = max(m, abs(a), abs(b))
        return m

    def is_zero(self, tol: float = 0.0) -> bool:
        return self.max_coeff() <= tol

    # -- evaluation -----------------------------------------------------

    def __call__(self, t):
        if isinstance(t, np.ndarray):
            out = np.full_like(t, self.constant, dtype=float)
            for k, a, b in self.harmonics:
                out += a * np.cos(k * t) + b * np.sin(k * t)
            return out
        v = self.constant
        for k, a, b in self.harmonics:
            v += a * math.cos(k * t) + b * math.sin(k * t)
        return v

    def on_grid(self, n: int) -> np.ndarray:
        """The values at t = 2 pi j / n, j < n, equal to __call__ up to rounding."""
        return _on_grid([self], n)[0]

    def eval_derivative(self, t, order: int):
        """Value of the order-th derivative at t (order 0 is the value)."""
        if order == 0:
            return self(t)
        return self.derivative(order)(t)

    def derivative(self, order: int = 1) -> "TrigSeries":
        if order < 0:
            raise ValueError("order must be nonnegative")
        harmonics = self.harmonics
        for _ in range(order):
            harmonics = tuple((k, k * b, -k * a) for k, a, b in harmonics)
        return TrigSeries(0.0 if order else self.constant, harmonics, self.parity)

    # -- ring operations ------------------------------------------------

    def __add__(self, other: "TrigSeries") -> "TrigSeries":
        parity = self.parity if self.parity == other.parity else PERIODIC
        return TrigSeries(self.constant + other.constant,
                          self.harmonics + other.harmonics, parity)

    def __sub__(self, other: "TrigSeries") -> "TrigSeries":
        return self + other.scaled(-1.0)

    def scaled(self, c: float) -> "TrigSeries":
        return TrigSeries(c * self.constant,
                          tuple((k, c * a, c * b) for k, a, b in self.harmonics),
                          self.parity)

    def __mul__(self, other: "TrigSeries") -> "TrigSeries":
        coeffs: dict[int, complex] = {}

        def put(k: int, c: complex):
            coeffs[k] = coeffs.get(k, 0.0 + 0.0j) + c

        def spectrum(s: TrigSeries) -> dict[int, complex]:
            d: dict[int, complex] = {}
            if s.constant:
                d[0] = complex(s.constant, 0.0)
            for k, a, b in s.harmonics:
                d[k] = complex(0.5 * a, -0.5 * b)
                d[-k] = complex(0.5 * a, 0.5 * b)
            return d

        for k1, c1 in spectrum(self).items():
            for k2, c2 in spectrum(other).items():
                put(k1 + k2, c1 * c2)
        if self.parity == other.parity:
            parity = PERIODIC
        elif ANTIPERIODIC in (self.parity, other.parity):
            parity = ANTIPERIODIC
        else:
            parity = PERIODIC
        constant = coeffs.get(0, 0j).real
        harmonics = []
        for k in sorted(c for c in coeffs if c > 0):
            a = 2.0 * coeffs[k].real
            b = -2.0 * coeffs[k].imag
            harmonics.append((k, a, b))
        return _pruned(constant, harmonics, parity)

    # -- serialization --------------------------------------------------

    def to_json(self) -> dict:
        return {
            "parity": self.parity,
            "constant": self.constant,
            "harmonics": [[k, a, b] for k, a, b in self.harmonics],
        }

    @classmethod
    def from_json(cls, obj) -> "TrigSeries":
        """The series of a to_json object; ValueError for any other shape,
        a harmonic index that is not an integer or a coefficient that is
        not a finite number."""
        if not isinstance(obj, dict):
            raise ValueError(f"a series must be a JSON object, got {obj!r}")
        rows = obj.get("harmonics", [])
        if not isinstance(rows, list) or not all(  # a bool or 3.7 is no index k
                isinstance(r, list) and len(r) == 3 and type(r[0]) is int for r in rows):
            raise ValueError("harmonics must be a list of [k, a, b] triples, k an integer")
        harmonics = tuple((k, json_number(a), json_number(b)) for k, a, b in rows)
        return cls(json_number(obj.get("constant", 0.0)), harmonics,
                   obj.get("parity", PERIODIC))


def json_number(v) -> float:
    """A finite JSON number as a float; ValueError for anything else."""
    if type(v) not in (int, float) or not abs(v) <= sys.float_info.max:  # nan, inf, 10**400
        raise ValueError(f"expected a finite number, got {v!r}")
    return float(v)


def _on_grid(series: Sequence[TrigSeries], n: int) -> np.ndarray:
    """Each series at t = 2 pi j / n, one row each: one inverse FFT of size
    m, the least multiple of n with m / 2 > degree, read every m / n."""
    m = n * (2 * max(s.degree for s in series) // n + 1)
    X = np.zeros((len(series), m // 2 + 1), dtype=complex)
    for row, s in zip(X, series):
        row[0] = s.constant
        for k, a, b in s.harmonics:
            row[k] = 0.5 * complex(a, -b)
    return np.fft.irfft(X, m, norm="forward")[:, ::m // n]


def _pruned(constant: float, harmonics: Sequence[tuple[int, float, float]], parity: str) -> TrigSeries:
    scale = max([abs(constant)] + [max(abs(a), abs(b)) for _, a, b in harmonics] + [0.0])
    if scale == 0.0:
        return TrigSeries.zero(parity)
    tol = COEFF_PRUNE * scale
    if abs(constant) <= tol:
        constant = 0.0
    kept = tuple((k, a, b) for k, a, b in harmonics
                 if max(abs(a), abs(b)) > tol)
    if parity == ANTIPERIODIC and (constant != 0.0 or any(k % 2 == 0 for k, _, _ in kept)):
        parity = PERIODIC
    return TrigSeries(constant, kept, parity)


def sin_series(k: int, amp: float = 1.0, parity: str | None = None) -> TrigSeries:
    if parity is None:
        parity = ANTIPERIODIC if k % 2 == 1 else PERIODIC
    return TrigSeries(0.0, ((k, 0.0, amp),), parity)


def cos_series(k: int, amp: float = 1.0, parity: str | None = None) -> TrigSeries:
    if parity is None:
        parity = ANTIPERIODIC if k % 2 == 1 else PERIODIC
    return TrigSeries(0.0, ((k, amp, 0.0),), parity)


# -- flex operators and osculating approximants --------------------------


def _operator_factors(m: int) -> tuple[list[int], bool]:
    """Squared-shift factors (D^2 + j^2) and whether a plain D is applied.

    Even m = 2n uses j = 1, 3, ..., 2n-1; odd m = 2n+1 uses a leading D
    and j = 1, ..., n.  The kernel is exactly the m-dimensional space of
    low harmonics matching those j.
    """
    if m < 1:
        raise ValueError("operator order must be >= 1")
    if m % 2 == 0:
        return list(range(1, m, 2)), False
    return list(range(1, (m - 1) // 2 + 1)), True


def apply_flex_operator(s: TrigSeries, m: int) -> TrigSeries:
    """Apply the order-m flex operator; members of its kernel map to zero."""
    js, with_d = _operator_factors(m)
    harmonics = []
    for k, a, b in s.harmonics:
        factor = 1.0
        for j in js:
            factor *= float(j * j - k * k)
        if factor == 0.0:
            continue
        aa, bb = factor * a, factor * b
        if with_d:
            aa, bb = k * bb, -k * aa
        harmonics.append((k, aa, bb))
    constant = s.constant
    if with_d:
        constant = 0.0
    else:
        for j in js:
            constant *= float(j * j)
    return TrigSeries(constant, tuple(harmonics), s.parity)


def basis_of_am(m: int) -> list[TrigSeries]:
    """Basis of the kernel of the order-m flex operator."""
    js, with_d = _operator_factors(m)
    basis: list[TrigSeries] = []
    if with_d:
        basis.append(TrigSeries.const(1.0))
        parity = PERIODIC
    else:
        parity = ANTIPERIODIC
    for j in js:
        basis.append(cos_series(j, 1.0, parity))
        basis.append(sin_series(j, 1.0, parity))
    return basis


def osculating_in_am(s: TrigSeries, p: float, m: int) -> TrigSeries:
    """The kernel member matching s to order m-1 at p.

    For m = 2 this is a*cos t + b*sin t with a = f(p)cos p - f'(p)sin p,
    b = f(p)sin p + f'(p)cos p; general m solves the m x m jet system.
    SingularSystem at a non-finite p, for every order.
    """
    if m > MAX_OSCULATE_ORDER:
        raise ValueError(f"order capped at {MAX_OSCULATE_ORDER}")
    if not math.isfinite(p):
        raise SingularSystem(f"jet system ill-conditioned at p={p}")
    if m == 2:
        f, fp = s(p), s.derivative()(p)
        a = f * math.cos(p) - fp * math.sin(p)
        b = f * math.sin(p) + fp * math.cos(p)
        return TrigSeries(0.0, ((1, a, b),), ANTIPERIODIC)
    basis = basis_of_am(m)
    mat = np.empty((m, m))
    rhs = np.empty(m)
    for j in range(m):
        for i, e in enumerate(basis):
            mat[j, i] = e.eval_derivative(p, j)
        rhs[j] = s.eval_derivative(p, j)
    try:
        coef = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"jet system singular at p={p}") from exc
    if not np.all(np.isfinite(coef)):
        raise SingularSystem(f"jet system ill-conditioned at p={p}")
    out = TrigSeries.zero(basis[-1].parity if m % 2 == 0 else PERIODIC)
    for c, e in zip(coef, basis):
        out = out + e.scaled(float(c))
    return out


def truncate(s: TrigSeries, n: int) -> TrigSeries:
    """Keep the first n harmonic groups (k <= 2n-1 antiperiodic, k <= n periodic)."""
    if n < 1:
        raise ValueError("truncation index must be >= 1")
    kmax = 2 * n - 1 if s.parity == ANTIPERIODIC else n
    return TrigSeries(s.constant,
                      tuple(h for h in s.harmonics if h[0] <= kmax),
                      s.parity)


# -- root isolation -------------------------------------------------------


class Root(NamedTuple):
    value: float
    direction: int  # +1 neg-to-pos, -1 pos-to-neg, 0 tangential


def newton2(system, a, b):
    """Two-variable Newton from every seed (a[i], b[i]) in lockstep.

    system(a, b) is called on the rows still running and returns their
    converged mask (residual small enough) with the stacked Jacobians
    (k, 2, 2) and residuals (k, 2) of the k rows that have not
    converged.  A row gives up on a singular matrix, a non-finite step,
    a step longer than 0.5 in either variable, or after 40 steps; the
    rows never see each other.  Returns the final a, b and the
    converged mask.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    converged = np.zeros(a.shape, dtype=bool)
    live = np.arange(a.size)
    for _ in range(40):
        if not live.size:
            break
        done, J, r = system(a[live], b[live])
        converged[live[done]] = True
        live = live[~done]
        try:
            step = np.linalg.solve(J, r[:, :, None])[:, :, 0]
            ok = np.ones(len(live), dtype=bool)
        except np.linalg.LinAlgError:
            # one singular matrix fails the whole batch: solve this
            # step row by row and drop only the singular rows
            step = np.zeros(r.shape)
            ok = np.zeros(len(live), dtype=bool)
            for i in range(len(live)):
                try:
                    step[i] = np.linalg.solve(J[i], r[i])
                    ok[i] = True
                except np.linalg.LinAlgError:
                    pass
        ok &= np.isfinite(step).all(axis=1) & (np.abs(step).max(axis=1) <= 0.5)
        live, step = live[ok], step[ok]
        a[live] -= step[:, 0]
        b[live] -= step[:, 1]
    return a, b, converged


def laurent_rows(series: Sequence[TrigSeries], step: int = 1) -> np.ndarray:
    """The series as rows of Laurent coefficients in y = exp(i*step*t):
    column M + j holds the coefficient of y^j, with step*M the largest
    degree.  Every harmonic index must be a multiple of step."""
    M = max(s.degree for s in series) // step
    out = np.zeros((len(series), 2 * M + 1), dtype=complex)
    for row, s in zip(out, series):
        row[M] = s.constant
        for k, a, b in s.harmonics:
            row[M + k // step] = complex(0.5 * a, -0.5 * b)
            row[M - k // step] = complex(0.5 * a, 0.5 * b)
    return out


def companion_roots(P: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The roots of each row of P (coefficients of y^0 .. y^N, real or
    complex) as flat arrays (row, root), and each row's degree: companion
    eigenvalues, one eigvals call per degree once leading coefficients
    below 1e-14 of a row's largest are dropped (J. P. Boyd, J. Eng. Math.
    56 (2006) 203-219)."""
    N = P.shape[1] - 1
    mag = np.abs(P)
    big = mag > 1e-14 * mag.max(axis=1, initial=0.0)[:, None]
    degree = np.where(big.any(axis=1), N - np.argmax(big[:, ::-1], axis=1), 0)
    rows, zs = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=complex)]
    for D in np.unique(degree[degree > 0]):
        sel = np.nonzero(degree == D)[0]
        companion = np.zeros((len(sel), D, D), dtype=P.dtype)
        companion[:, np.arange(1, D), np.arange(D - 1)] = 1.0
        companion[:, :, -1] = -P[sel, :D] / P[sel, D:D + 1]
        rows.append(np.repeat(sel, D))
        zs.append(np.linalg.eigvals(companion).ravel())
    return np.concatenate(rows), np.concatenate(zs), degree


def complex_seeds(P: np.ndarray, scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Seeds for circle_zeros: the companion_roots y of each row of P,
    as flat arrays (row, angle of y), kept when |log|y|| < 1e-3."""
    rows, z, _ = companion_roots(P)
    keep = (np.abs(z) > math.exp(-1e-3)) & (np.abs(z) < math.exp(1e-3))
    return rows[keep], np.angle(z[keep])


def real_seeds(P: np.ndarray, scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Seeds for circle_zeros from real companion matrices, as flat
    arrays (row, angle of y).  With y = exp(ic)(1 + iu)/(1 - iu), each
    row's series is a real polynomial in u (tan_rows); its roots give
    y = exp(i(c + 2 arctan u)), kept when |Im 2 arctan u| < 1e-3, as
    complex_seeds keeps |log|y|| < 1e-3.  The pole y = -exp(ic) is put
    where |P| is largest on 8N points: by Bernstein's inequality no zero
    lies within about 2/N of it, so |u| stays of order N, and the leading
    coefficient is the series there, so no degree drops."""
    N = P.shape[1] - 1
    n = 8 * max(N, 1)
    # |ifft| of a row padded to n points is |P(y)| / n on the grid
    c = np.argmax(np.abs(np.fft.ifft(P, n, axis=1)), axis=1) * TWO_PI / n + math.pi
    rows, u, _ = companion_roots(tan_rows(scale[:, None] * P, c))
    with np.errstate(divide="ignore", invalid="ignore"):  # u = +-i is no zero
        x = 2.0 * np.arctan(u)
    keep = np.abs(x.imag) < 1e-3
    return rows[keep], c[rows[keep]] + x.real[keep]


def tan_rows(C: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The real series sum_j C_j y^(j - N/2), one row of C (coefficients
    of y^0 .. y^N) per entry of c, times (1 + u^2)^(N/2) at
    y = exp(ic)(1 + iu)/(1 - iu): the real coefficients of u^0 .. u^N of
    Re sum_j C_j exp(i(j - N/2)c) (1 + iu)^j (1 - iu)^(N - j).  The sum
    over j is taken elementwise, so a row does not depend on the rows
    beside it."""
    N = C.shape[1] - 1
    E = C * np.exp(1j * (np.arange(N + 1) - N / 2) * c[:, None])
    return (E[:, :, None] * _tan_basis(N)).sum(axis=1).real


@lru_cache
def _tan_basis(N: int) -> np.ndarray:
    """Row j: (1 + iu)^j (1 - iu)^(N - j) as coefficients of u^0 .. u^N."""
    basis = np.array([np.convolve([math.comb(j, a) * 1j ** a for a in range(j + 1)],
                                  [math.comb(N - j, b) * (-1j) ** b for b in range(N - j + 1)])
                      for j in range(N + 1)])
    basis.flags.writeable = False  # shared by every call
    return basis


def circle_zeros(P: np.ndarray, scale: np.ndarray, origin: np.ndarray,
                 step: int = 1, seeds=complex_seeds) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Real zeros of the series scale * y^(-N/2) P(y), y = exp(i*step*t),
    for each row of P (coefficients of y^0 .. y^N): flat arrays (row, t,
    multiplicity) sorted by row, then by t - origin in [0, 2*pi/step).

    The zeros start from seeds(P, scale), the rows and angles of y of
    the eigenvalues near the unit circle, unpolished: complex_seeds (the
    default) or real_seeds.  An m-fold zero splits into m eigenvalues
    about eps^(1/m) apart, so those whose offsets from the origin (where
    no zero may lie) are within 1e-4 form one zero.  A pair is two
    simple zeros, each bounded by its half of the cluster, when the
    series at its centre beats rounding and has the opposite sign at
    both edges (5e-5 outside).  Newton steps on the (m-1)-th derivative
    polish all zeros in lockstep; a zero stops at a step of 1e-4 or more
    or one leaving its bounds (not taken), at one of at most
    max(1e-15, ulp of t), or after 16 steps."""
    N = P.shape[1] - 1
    rows, angle = seeds(P, scale)
    off = ((angle - step * origin[rows]) % TWO_PI) / step
    order = np.lexsort((off, rows))
    rows, off = rows[order], off[order]
    first = np.ones(len(off), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (np.diff(off) >= 1e-4)
    k = step * (np.arange(N + 1) - N / 2)

    def clusters():
        cluster = np.cumsum(first) - 1
        m = np.bincount(cluster)
        return np.nonzero(first)[0], m, np.bincount(cluster, weights=off) / m

    start, m, centre = clusters()
    bounds = np.tile([[-math.inf], [math.inf]], len(off))
    pair, mid = start[m == 2], centre[m == 2]
    if pair.size:
        left, right = off[pair] - 0.5e-4, off[pair + 1] + 0.5e-4
        C = scale[rows[pair], None] * P[rows[pair]]
        at = [(C * np.exp(1j * (origin[rows[pair]] + x)[:, None] * k)).sum(axis=1).real
              for x in (mid, left, right)]
        # a value beyond the rounding of evaluating the series has a reliable sign
        split = (np.abs(at[0]) > 1e-13 * np.abs(C).sum(axis=1)) \
            & (at[0] * at[1] < 0.0) & (at[0] * at[2] < 0.0)
        pair, mid = pair[split], mid[split]
        first[pair + 1] = True
        bounds[:, pair] = left[split], mid
        bounds[:, pair + 1] = mid, right[split]
        start, m, centre = clusters()
    rows = rows[start]
    t = origin[rows] + centre
    lo, hi = origin[rows] + bounds[:, start]

    C = scale[rows, None] * P[rows]
    # i^o k^o for each order o, indexed: the same pow on the same operands
    o = np.arange(m.max(initial=0) + 1)
    powers = np.array([1.0, 1j, -1.0, -1j])[o % 4, None] * k ** o[:, None]
    G = [C * powers[o] for o in (m - 1, m)]
    live = np.arange(len(t))
    for _ in range(16):
        if not live.size:
            break
        E = np.exp(1j * t[live, None] * k)
        g, slope = ((Gi[live] * E).sum(axis=1).real for Gi in G)
        step_t = np.divide(g, slope, out=np.full_like(g, np.inf), where=slope != 0.0)
        moved = t[live] - step_t
        ok = (np.abs(step_t) < 1e-4) & (lo[live] <= moved) & (moved <= hi[live])
        t[live[ok]] = moved[ok]
        live = live[ok & (np.abs(step_t) > np.maximum(1e-15, np.spacing(np.abs(t[live]))))]
    return rows, t, m


def roots(s: TrigSeries) -> list[tuple[float, int]]:
    """Zeros of s in [0, 2*pi) as sorted (angle, multiplicity) pairs,
    from circle_zeros of z^K s(z) with z = exp(it); angles within 1e-10
    of 2*pi map to 0.  The origin is where |s| is largest on 8K points:
    by Bernstein's inequality |s'| <= K max|s|, so no zero lies within
    about 0.5/K of it.  It is taken one period back, so that |t| < 2*pi,
    where a step that moves t by its last bit (8.9e-16) ends the polish."""
    K = s.degree
    if K == 0:
        return []
    P = laurent_rows([s])
    # |ifft| of the row padded to 8K points is |s| / (8K) on the grid
    origin = np.array([np.argmax(np.abs(np.fft.ifft(P[0], 8 * K))) * TWO_PI / (8 * K) - TWO_PI])
    _, t, m = circle_zeros(P, np.ones(1), origin)
    t %= TWO_PI
    t[TWO_PI - t < 1e-10] = 0.0
    return sorted(zip(t.tolist(), m.tolist()))


def isolate_sign_changes(s: TrigSeries, domain: str = "full",
                         tangential_tol: float = 1e-12) -> list[Root]:
    """The zeros of `roots` in one period (or the half period [0, pi)).

    A zero of odd multiplicity m is one crossing, in the direction of
    the sign of s^(m) there.  A zero of even multiplicity is tangential
    (direction 0) when |s| <= tangential_tol there, and dropped
    otherwise: a near-double eigenvalue pair off the circle is a local
    extremum that misses zero.
    """
    if domain not in ("full", "half"):
        raise ValueError("domain must be 'full' or 'half'")
    if s.is_zero():
        raise IdenticallyZero("series is zero")
    span = math.pi if domain == "half" else TWO_PI
    out = []
    for t, m in roots(s):
        if t >= span - 1e-12:
            continue
        if m % 2:
            out.append(Root(t, 1 if s.eval_derivative(t, m) > 0.0 else -1))
        elif abs(s(t)) <= tangential_tol:
            out.append(Root(t, 0))
    return out


# -- vector-valued series -------------------------------------------------


@dataclass(frozen=True)
class VectorSeries:
    x: TrigSeries
    y: TrigSeries
    z: TrigSeries

    @property
    def components(self) -> tuple[TrigSeries, TrigSeries, TrigSeries]:
        return (self.x, self.y, self.z)

    def is_antiperiodic(self) -> bool:
        return all(c.parity == ANTIPERIODIC or c.is_zero() for c in self.components)

    def __call__(self, t: float) -> np.ndarray:
        return np.array([self.x(t), self.y(t), self.z(t)])

    def eval_many(self, ts: np.ndarray) -> np.ndarray:
        return np.stack([self.x(ts), self.y(ts), self.z(ts)], axis=-1)

    def on_grid(self, n: int) -> np.ndarray:
        """TrigSeries.on_grid of the components, as (n, 3) rows."""
        return _on_grid(self.components, n).T

    def derivative(self, order: int = 1) -> "VectorSeries":
        return VectorSeries(*(c.derivative(order) for c in self.components))

    def truncate(self, n: int) -> "VectorSeries":
        return VectorSeries(*(truncate(c, n) for c in self.components))

    def dot(self, other: "VectorSeries") -> TrigSeries:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "VectorSeries") -> "VectorSeries":
        ax, ay, az = self.components
        bx, by, bz = other.components
        return VectorSeries(ay * bz - az * by,
                            az * bx - ax * bz,
                            ax * by - ay * bx)

    def to_json(self) -> dict:
        return {"x": self.x.to_json(), "y": self.y.to_json(), "z": self.z.to_json()}

    @classmethod
    def from_json(cls, obj) -> "VectorSeries":
        if not isinstance(obj, dict) or not {"x", "y", "z"} <= obj.keys():
            raise ValueError("a curve must be a JSON object with x, y and z series")
        return cls(TrigSeries.from_json(obj["x"]),
                   TrigSeries.from_json(obj["y"]),
                   TrigSeries.from_json(obj["z"]))


def triple_product(a: VectorSeries, b: VectorSeries, c: VectorSeries) -> TrigSeries:
    return a.dot(b.cross(c))
