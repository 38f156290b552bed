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
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import IdenticallyZero, SingularSystem

TWO_PI = 2.0 * math.pi

PERIODIC = "periodic"
ANTIPERIODIC = "antiperiodic"

EPS_ROOT = 1e-12
N_SCAN = 4096
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


def refine_bisect(fn: Callable[[float], float], lo: float, hi: float,
                  flo: float, eps: float = EPS_ROOT, max_steps: int = 200) -> float:
    """Bisect a bracketing interval down to eps width (or a tiny residual)."""
    for _ in range(max_steps):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if abs(fm) <= eps or hi - lo <= 1e-15 * (1.0 + abs(mid)):
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def newton_root(s: TrigSeries, x0: float, tol: float = 1e-13, max_steps: int = 60) -> float:
    """Polish a root of s with Newton iterations; falls back to x0 on stall."""
    ds = s.derivative()
    x = x0
    for _ in range(max_steps):
        f = s(x)
        d = ds(x)
        if d == 0.0:
            break
        step = f / d
        x -= step
        if abs(step) <= tol * (1.0 + abs(x)):
            break
    return x


def bisect(pred: Callable[[float], bool], lo: float, hi: float,
           steps: int) -> tuple[float, float]:
    """Halve the bracket `steps` times, moving lo to the midpoints where
    pred holds and hi to the others; lo may lie above hi."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def safeguarded_newton(h, x: float, lo: float, hi: float, tol: float,
                       min_width: float):
    """Root of an increasing function inside the bracket (lo, hi).

    h(x) returns None where it is undefined, else (value, slope) with
    slope a zero-argument callable, so the derivative is only computed
    for steps actually taken.  Newton proposals leaving the bracket are
    replaced by its midpoint.  Returns (root, lo, hi) with root None when
    |h| never fell to tol, and the bracket as shrunk so far.
    """
    for _ in range(60):
        got = h(x)
        if got is None:
            break
        v, slope = got
        if abs(v) <= tol:
            return x, lo, hi
        if v < 0.0:
            lo = max(lo, x)
        else:
            hi = min(hi, x)
        dv = slope()
        prop = x - v / dv if dv != 0.0 else None
        if prop is None or not lo < prop < hi:
            prop = 0.5 * (lo + hi)
        if hi - lo < min_width or prop == x:
            break
        x = prop
    return None, lo, hi


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


def critical_points(g1: Callable[[float], float], g2: Callable[[float], float],
                    ts: np.ndarray, d: np.ndarray, base: float) -> list[float]:
    """Zeros of g1 (a derivative sampled as d on the increasing grid ts),
    strictly inside the open arc (base, base + pi).

    Each sign flip of d is bisected 20 times on g1 and polished with up
    to 20 Newton steps using g2, the derivative of g1."""
    out = []
    for i in np.nonzero(d[:-1] * d[1:] <= 0.0)[0]:
        lo, hi, flo = float(ts[i]), float(ts[i + 1]), float(d[i])
        if flo == 0.0:
            s = lo
        else:
            positive = flo > 0.0
            lo, hi = bisect(lambda x: (g1(x) > 0.0) == positive, lo, hi, 20)
            s = 0.5 * (lo + hi)
            for _ in range(20):
                d2 = g2(s)
                if d2 == 0.0:
                    break
                step = g1(s) / d2
                s -= step
                if abs(step) < 1e-14:
                    break
        off = (s - base) % TWO_PI
        if 1e-6 < off < math.pi - 1e-6:
            out.append(s)
    return out


def isolate_sign_changes(s: TrigSeries, domain: str = "full",
                         n_scan: int = N_SCAN, eps_root: float = EPS_ROOT,
                         include_tangential: bool = True,
                         tangential_tol: float | None = None) -> list[Root]:
    """All transversal zeros in one period (or half period), bisection refined.

    Tangential zeros (value ~ 0 without a sign flip) are detected through
    the derivative's zeros and reported with direction 0.
    """
    span = math.pi if domain == "half" else TWO_PI
    if domain not in ("full", "half"):
        raise ValueError("domain must be 'full' or 'half'")
    grid = np.linspace(0.0, TWO_PI, n_scan, endpoint=False)
    vals = s(grid)
    if np.max(np.abs(vals)) < eps_root or s.is_zero():
        raise IdenticallyZero("series is numerically zero")

    roots: list[Root] = []
    n = len(grid)
    for j in range(n):
        v0, v1 = vals[j], vals[(j + 1) % n]
        t0 = grid[j]
        t1 = grid[j] + TWO_PI / n_scan
        if v0 == 0.0:
            before = vals[(j - 1) % n]
            after = v1
            k = 2
            while after == 0.0 and k < n:
                after = vals[(j + k) % n]
                k += 1
            if before != 0.0 and after != 0.0 and (before > 0) != (after > 0):
                roots.append(Root(t0, +1 if after > 0 else -1))
        elif v0 * v1 < 0.0:
            r = refine_bisect(s, t0, t1, v0, eps_root)
            roots.append(Root(r % TWO_PI, +1 if v1 > 0 else -1))

    if include_tangential:
        tol = tangential_tol if tangential_tol is not None else eps_root
        ds = s.derivative()
        dvals = ds(grid)
        for j in range(n):
            v0, v1 = dvals[j], dvals[(j + 1) % n]
            if v0 == 0.0 or v0 * v1 < 0.0:
                r = grid[j] if v0 == 0.0 else refine_bisect(
                    ds, grid[j], grid[j] + TWO_PI / n_scan, v0, 0.0)
                if abs(s(r)) <= tol and not any(
                        _close_mod(r, x.value, TWO_PI, 2e-9) for x in roots):
                    roots.append(Root(r % TWO_PI, 0))

    roots.sort(key=lambda r: r.value)
    deduped: list[Root] = []
    for r in roots:
        if deduped and _close_mod(r.value, deduped[-1].value, TWO_PI, 1e-9):
            continue
        deduped.append(r)
    if deduped and _close_mod(deduped[0].value, deduped[-1].value, TWO_PI, 1e-9) \
            and len(deduped) > 1:
        deduped.pop()
    return [r for r in deduped if r.value < span - 1e-12]


def _close_mod(a: float, b: float, period: float, tol: float) -> bool:
    d = abs(a - b) % period
    return d < tol or period - d < tol


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

    def dot_const(self, v: Sequence[float]) -> TrigSeries:
        """The scalar series v . F(t) for a constant vector v."""
        return self.x.scaled(float(v[0])) + self.y.scaled(float(v[1])) \
            + self.z.scaled(float(v[2]))

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
