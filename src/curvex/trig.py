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
from dataclasses import dataclass
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
    def from_json(cls, obj: dict) -> "TrigSeries":
        return cls(float(obj.get("constant", 0.0)),
                   tuple((int(k), float(a), float(b)) for k, a, b in obj.get("harmonics", [])),
                   obj.get("parity", PERIODIC))


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
    """
    if m > MAX_OSCULATE_ORDER:
        raise ValueError(f"order capped at {MAX_OSCULATE_ORDER}")
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


# offsets of extra samples packed against the ends of a half-period arc;
# contact functions vanish at the endpoints, so both the transition at a
# base-tangent member and the touch structures budding off a nearby clean
# point live at small offsets of every scale
_END_LADDER = np.geomspace(1e-9, 0.05, 48)


def arc_offsets(n: int) -> np.ndarray:
    """Sorted sample offsets along the open arc (0, pi): n interior
    points plus the geometric ladder against both ends."""
    interior = np.linspace(1e-4, math.pi - 1e-4, n)
    return np.sort(np.concatenate([_END_LADDER, interior, math.pi - _END_LADDER]))


def roots(s: TrigSeries) -> list[tuple[float, int]]:
    """Zeros of s in [0, 2*pi) as sorted (angle, multiplicity) pairs.

    With z = exp(it), z^K s(z) is a polynomial of degree 2K whose roots
    on the unit circle are the real zeros of s; they are taken from the
    eigenvalues of its companion matrix (J. P. Boyd, J. Eng. Math. 56
    (2006) 203-219).  A zero of multiplicity m splits into m eigenvalues
    about eps^(1/m) apart (5e-6 for a triple zero), so eigenvalues whose
    angles lie within 1e-4 of each other, cyclically, form one zero and
    their number is its multiplicity.  Each zero is polished by Newton
    steps on s^(m-1).
    """
    K = s.degree
    if K == 0:
        return []
    # c[j] is the coefficient of z^j in z^K s(z)
    c = np.zeros(2 * K + 1, dtype=complex)
    c[K] = s.constant
    for k, a, b in s.harmonics:
        c[K + k] = complex(0.5 * a, -0.5 * b)
        c[K - k] = complex(0.5 * a, 0.5 * b)
    companion = np.zeros((2 * K, 2 * K), dtype=complex)
    companion[np.arange(1, 2 * K), np.arange(2 * K - 1)] = 1.0
    companion[:, -1] = -c[:-1] / c[-1]
    z = np.linalg.eigvals(companion)
    z = z[np.abs(np.log(np.abs(z))) < 1e-3]
    if not z.size:
        return []
    clusters = [[]]
    for t in np.sort(np.angle(z) % TWO_PI):
        if clusters[-1] and t - clusters[-1][-1] >= 1e-4:
            clusters.append([])
        clusters[-1].append(float(t))
    if len(clusters) > 1 and clusters[0][0] + TWO_PI - clusters[-1][-1] < 1e-4:
        clusters[0] = [t - TWO_PI for t in clusters.pop()] + clusters[0]
    out = []
    for cluster in clusters:
        m = len(cluster)
        g, dg = s.derivative(m - 1), s.derivative(m)
        x = sum(cluster) / m
        for _ in range(16):
            slope = dg(x)
            if slope == 0.0:
                break
            step = g(x) / slope
            if not abs(step) < 1e-4:  # would leave the cluster
                break
            x -= step
            if abs(step) <= 1e-15:
                break
        x %= TWO_PI
        if TWO_PI - x < 1e-10:
            x = 0.0
        out.append((x, m))
    return sorted(out)


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
    def from_json(cls, obj: dict) -> "VectorSeries":
        return cls(TrigSeries.from_json(obj["x"]),
                   TrigSeries.from_json(obj["y"]),
                   TrigSeries.from_json(obj["z"]))


def triple_product(a: VectorSeries, b: VectorSeries, c: VectorSeries) -> TrigSeries:
    return a.dot(b.cross(c))
