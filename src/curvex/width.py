"""Support-function geometry of constant-width curves.

A strictly convex curve of constant width d is encoded by its support
function h(t) = d/2 + f(t) with f pi-antiperiodic.  The low-harmonic
space a*cos t + b*sin t plays the role lines play for projective
curves: its members are support functions of circles of the same width,
the osculating member at p matches value and slope, and rotating the
slope down to the admissible limit gives the limiting function whose
contact set defines the intrinsic system driving the clean-flex search
and the census of width-circle double tangents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circle import CircularSet, TWO_PI, canonical, circle_dist, forward_gap
from .errors import CertificateFailed, IdenticallyZero, NotConvex
from .census import (
    CensusReport,
    DoubleTangentInterval,
    count_inflections_topological,
    family_and_warnings,
    row_minima,
    tangent_pairs,
)
from .linesys import LineSystem, three_clean_inflections
from .sphere import EPS_CONTACT
from .trig import (
    ANTIPERIODIC,
    TrigSeries,
    apply_flex_operator,
    arc_offsets,
    bisect,
    critical_points,
    isolate_sign_changes,
    osculating_in_am,
    safeguarded_newton,
)

SEED_THRESHOLD = 1e-2


@dataclass(frozen=True)
class SupportFunction:
    """Width d and the antiperiodic deviation f; h = d/2 + f."""

    d: float
    f: TrigSeries

    def __post_init__(self):
        if self.f.parity != ANTIPERIODIC:
            raise ValueError("the deviation must be pi-antiperiodic")
        if self.d <= 0:
            raise ValueError("width must be positive")
        lf = apply_flex_operator(self.f, 2)
        grid = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
        if float(np.min(0.5 * self.d + lf(grid))) <= 0.0:
            raise NotConvex(
                "h + h'' <= 0 somewhere; increase d or shrink the deviation")

    @property
    def h(self) -> TrigSeries:
        return TrigSeries(0.5 * self.d, self.f.harmonics)

    def curvature_radius(self, t: float) -> float:
        return 0.5 * self.d + apply_flex_operator(self.f, 2)(t)


def curve_point(sf: SupportFunction, t: float) -> np.ndarray:
    """Boundary point whose tangent line makes angle t with the x-axis:
    h'(t) e(t) - h(t) n(t)."""
    h, h1 = 0.5 * sf.d + sf.f(t), sf.f.derivative()(t)
    e = np.array([math.cos(t), math.sin(t)])
    n = np.array([-math.sin(t), math.cos(t)])
    return h1 * e - h * n


def curve_points(sf: SupportFunction, ts: np.ndarray) -> np.ndarray:
    h = 0.5 * sf.d + sf.f(ts)
    h1 = sf.f.derivative()(ts)
    return np.stack([h1 * np.cos(ts) + h * np.sin(ts),
                     h1 * np.sin(ts) - h * np.cos(ts)], axis=-1)


def d_inflections(sf: SupportFunction) -> list[float]:
    """Parameters where the osculating width-circle has higher contact,
    i.e. the curvature radius equals d/2; antipodal partners included."""
    lf = apply_flex_operator(sf.f, 2)
    if lf.is_zero(1e-14):
        raise IdenticallyZero("every width circle osculates; f is a circle offset")
    roots = isolate_sign_changes(lf, domain="full")
    return [r.value for r in roots if r.direction != 0]


# -- limiting functions ------------------------------------------------------


@dataclass(frozen=True)
class LimitingFunction:
    base: float
    s0: float
    psi: TrigSeries
    contact: CircularSet
    touches: tuple[float, ...]


def _slope_family(sf: SupportFunction, p: float, s: float) -> TrigSeries:
    """Member of the circle-support space through (p, f(p)) with slope s."""
    fp = sf.f(p)
    a = fp * math.cos(p) - s * math.sin(p)
    b = fp * math.sin(p) + s * math.cos(p)
    return TrigSeries(0.0, ((1, a, b),), ANTIPERIODIC)


class _ResidualSamples:
    """Offsets along (p, p + pi) and tools for the residual psi - f."""

    def __init__(self, sf: SupportFunction, p: float, n_s: int = 1024):
        self.ts = p + arc_offsets(n_s)
        self.f_vals = sf.f(self.ts)
        self.sin_vals = np.sin(self.ts - p)
        fp = sf.f(p)
        self.cos_part = fp * np.cos(self.ts - p)

    def grid_min(self, s: float) -> float:
        return float(np.min(self.cos_part + s * self.sin_vals - self.f_vals))


def _residual_critical_points(sf, p, s, scans: dict) -> list[float]:
    """Interior critical parameters of psi_{p,s} - f via bracketed sign
    changes of the derivative; scans holds those already found, keyed
    by the exact (p, s)."""
    got = scans.get((p, s))
    if got is None:
        res = _slope_family(sf, p, s) - sf.f
        r1, r2 = res.derivative(), res.derivative(2)
        ts = p + arc_offsets(1024)
        got = scans[(p, s)] = critical_points(r1, r2, ts, r1(ts), p)
    return got


def _refined_min(sf, p, s, scans: dict):
    """Smallest residual value over interior critical points, with its
    parameter; (None, None) for a monotone-between-endpoints residual."""
    res = _slope_family(sf, p, s) - sf.f
    best_v, best_t = None, None
    for t in _residual_critical_points(sf, p, s, scans):
        v = res(t)
        if best_v is None or v < best_v:
            best_v, best_t = v, t
    return best_v, best_t


def limiting_function(sf: SupportFunction, p: float,
                      eps_contact: float = EPS_CONTACT) -> LimitingFunction:
    """The smallest-slope circle support through (p, f(p)) staying above
    f on the forward half period, with its contact set.

    The slope is bracketed by doubling, bisected on the sampled minimum
    and polished with safeguarded Newton steps on the refined minimum
    over interior critical points.
    """
    p = canonical(p)
    if not sf.f.harmonics:
        raise IdenticallyZero("circle supports have no limiting structure")
    f1p = sf.f.derivative()(p)
    scans: dict = {}  # critical-point scans of this call

    # the osculating member is the limit exactly when it is admissible:
    # any smaller slope dips below f right after p, and admissibility of
    # the osculant caps the infimum at its own slope
    s_star = None
    v_osc, _ = _refined_min(sf, p, f1p, scans)
    if v_osc is None or v_osc >= -eps_contact:
        samples = _ResidualSamples(sf, p, n_s=256)
        if samples.grid_min(f1p) >= -eps_contact:
            s_star = f1p

    if s_star is None:
        samples = _ResidualSamples(sf, p)
        span = max(1.0, 2.0 * max(abs(a) + abs(b) for _, a, b in sf.f.harmonics)
                   * max(k for k, _, _ in sf.f.harmonics))
        s_hi = f1p + span
        while samples.grid_min(s_hi) <= 0.0:
            s_hi = f1p + 2.0 * (s_hi - f1p)
        s_lo = f1p - span
        while samples.grid_min(s_lo) > 0.0:
            s_lo = f1p - 2.0 * (f1p - s_lo)
        # keep the bracket coarse: the sampled minimum undershoots the
        # true one by the grid discretization gap, so a tight bisection
        # would hand the polish an end that is not actually admissible
        s_hi, s_lo = bisect(lambda s: samples.grid_min(s) > 0.0, s_hi, s_lo, 6)
        s_star = _polish_slope(sf, p, s_hi, s_lo, eps_contact, scans)

    psi = _slope_family(sf, p, s_star)
    res = psi - sf.f
    touches = []
    for t in _residual_critical_points(sf, p, s_star, scans):
        if abs(res(t)) <= eps_contact:
            touches.append(canonical(t))
    pts = [p, canonical(p + math.pi)]
    for t in touches:
        pts.extend([t, canonical(t + math.pi)])
    contact = CircularSet.from_points(pts)
    return LimitingFunction(p, s_star, psi, contact, tuple(sorted(touches)))


def _polish_slope(sf, p, s_admissible, s_out, eps_contact, scans):
    """Drive the refined interior minimum of the residual to zero from
    above (safeguarded Newton on the slope; the envelope derivative is
    sin(t* - p))."""
    def v_at(s):
        v, t = _refined_min(sf, p, s, scans)
        if v is None:
            return None
        return v, lambda: math.sin((t - p) % TWO_PI)

    s, _, x_pos = safeguarded_newton(
        v_at, s_admissible, s_out, s_admissible,
        1e-12 * max(1.0, abs(sf.f.max_coeff())), 1e-16)
    if s is not None:
        return s
    v, _ = _refined_min(sf, p, x_pos, scans)
    if v is None or v >= 0.0:
        return x_pos
    return s_admissible


def contact_map(sf: SupportFunction, **kwargs):
    def fn(p: float) -> CircularSet:
        return limiting_function(sf, p, **kwargs).contact
    return fn


def contact_system(sf: SupportFunction, **kwargs) -> LineSystem:
    return LineSystem(contact_map(sf, **kwargs), name="width")


def is_positive_clean_flex(sf: SupportFunction, p: float,
                           eps_contact: float = EPS_CONTACT) -> bool:
    """Two-point contact of the limiting function marks the clean flexes
    whose circle supports the curve from the forward side."""
    return len(limiting_function(sf, p, eps_contact).contact) == 2


def _contacts(res: TrigSeries):
    """Zeros of the residual f - phi of an osculating member, and their
    components on the circle (zeros within 1e-6 merged)."""
    roots = isolate_sign_changes(res, domain="full",
                                 tangential_tol=1e-9 * max(res.max_coeff(), 1.0))
    return roots, CircularSet.from_points([r.value for r in roots], merge_tol=1e-6)


def is_clean_flex(sf: SupportFunction, p: float) -> bool:
    """Zero set of f minus its osculating member connected modulo pi.

    The residual is antiperiodic, so its contact components come in
    antipodal pairs; one pair is one component modulo pi."""
    return len(_contacts(sf.f - osculating_in_am(sf.f, p, 2))[1]) <= 2


# -- clean flexes and the census ---------------------------------------------


@dataclass(frozen=True)
class FlexTriple:
    points: tuple[float, float, float]  # on the half-period circle, sorted
    signs: tuple[int, int, int]  # sign change of f - phi at each (+1 = up)
    circle_points: tuple[float, float, float]  # the positive clean points on S^1


def clean_flexes(sf: SupportFunction, eps_contact: float = EPS_CONTACT,
                 **kw) -> FlexTriple:
    """Three clean flexes in a half period, found by the intrinsic-system
    search and snapped to the nearest sign change of the flex operator."""
    system = contact_system(sf, eps_contact=eps_contact)
    raw = three_clean_inflections(system, **kw)
    flexes = d_inflections(sf)
    polished = tuple(min(flexes, key=lambda r: circle_dist(r, s)) for s in raw)
    half = sorted(canonical(s, math.pi) for s in polished)
    signs = []
    for t in half:
        res = sf.f - osculating_in_am(sf.f, t, 2)
        h = 1e-4
        left, right = res(t - h), res(t + h)
        if left < 0.0 < right:
            signs.append(+1)
        elif left > 0.0 > right:
            signs.append(-1)
        else:
            signs.append(0)
    return FlexTriple(tuple(half), tuple(signs), polished)


def a2_double_tangents(sf: SupportFunction, n_a: int = 512, n_b: int = 512,
                       margin: float = 0.02) -> tuple[list[DoubleTangentInterval], int]:
    """Intervals whose endpoints share a tangent circle-support member.

    Solves value and slope matching with Newton from residual-scan seeds
    and filters by the off-member condition and equal curvature-defect
    signs at the endpoints (which is what same-sided local extrema of
    the difference mean)."""
    f = sf.f
    f1 = f.derivative()
    lf = apply_flex_operator(f, 2)

    a_grid = np.linspace(0.0, math.pi, n_a, endpoint=False)
    off_grid = np.linspace(margin, math.pi - margin, n_b)
    fa, f1a = f(a_grid), f1(a_grid)
    B = a_grid[:, None] + off_grid[None, :]
    cosd, sind = np.cos(off_grid)[None, :], np.sin(off_grid)[None, :]
    phi = fa[:, None] * cosd + f1a[:, None] * sind
    dphi = -fa[:, None] * sind + f1a[:, None] * cosd
    R = np.abs(f(B) - phi) + np.abs(f1(B) - dphi)

    # the residual carries the units of f and f', so the seeding band
    # scales with their coefficient bounds
    scale = max(1.0, sum(abs(a) + abs(b) for _, a, b in f.harmonics)
                * (1.0 + f.degree))
    rows, cols = row_minima(R, SEED_THRESHOLD * scale, cyclic=False)
    found, dropped = tangent_pairs(a_grid[rows], B[rows, cols],
                                   _a2_system(f, f1, lf, scale), margin)
    intervals = []
    for a, gap in found:
        b = a + gap
        phi_ab = osculating_in_am(f, a, 2)
        diff = f - phi_ab
        inner = a + np.linspace(0.0, 1.0, 257) * gap
        if float(np.max(np.abs(diff(inner)))) <= 1e-7 * scale:
            dropped += 1
            continue
        la, lb = lf(a), lf(b)
        if la * lb <= 0.0 or min(abs(la), abs(lb)) < 1e-9 * scale:
            dropped += 1
            continue
        intervals.append(DoubleTangentInterval(a, b, None))
    return intervals, dropped


def _a2_system(f, f1, lf, scale):
    """Value/slope matching for newton2; the Jacobian is closed-form in
    the curvature defect: d(r1)/da = -L2f(a) sin(b-a), d(r2)/da = -L2f(a)
    cos(b-a), d(r1)/db = r2, d(r2)/db = L2f(b) - r1."""
    def system(a, b):
        d = b - a
        fa, f1a = f(a), f1(a)
        cosd, sind = np.cos(d), np.sin(d)
        phi = fa * cosd + f1a * sind
        dphi = -fa * sind + f1a * cosd
        r1 = f(b) - phi
        r2 = f1(b) - dphi
        done = (np.abs(r1) + np.abs(r2)) / scale < 1e-12
        run = ~done
        a, b, cosd, sind, r1, r2 = a[run], b[run], cosd[run], sind[run], r1[run], r2[run]
        la = lf(a)
        J = np.empty((len(a), 2, 2))
        J[:, 0, 0] = -la * sind
        J[:, 0, 1] = r2
        J[:, 1, 0] = -la * cosd
        J[:, 1, 1] = lf(b) - r1
        return done, J, np.stack([r1, r2], axis=1)
    return system


def width_reduction_eval(sf: SupportFunction, a: float, b: float, outside: bool):
    """Sphere evaluator of the reduction replacing f by the shared member
    on [a, b] (outside=False) or on its complement (outside=True)."""
    f = sf.f
    phi = osculating_in_am(f, a, 2)
    gap = forward_gap(a, b, math.pi)

    def unit_many(ts):
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        on = np.mod(ts - a, math.pi) <= gap
        if outside:
            on = ~on
        vals = np.where(on, phi(ts), f(ts))
        pts = np.stack([np.cos(ts), np.sin(ts), vals], axis=-1)
        return pts / np.linalg.norm(pts, axis=-1)[..., None]

    return unit_many


def census_fn(sf: SupportFunction, clean_points: list[float] | None = None,
              additivity_check: bool = True) -> CensusReport:
    """Census of order-2 flexes and independent width double tangents,
    with the identity i - 2*delta = 3 and, when a double tangent exists,
    the reduction additivity cross-check."""
    lf = apply_flex_operator(sf.f, 2)
    if lf.is_zero(1e-14):
        raise IdenticallyZero("deviation lies in the circle-support space")
    roots = isolate_sign_changes(lf, domain="half")
    flexes = [r.value for r in roots if r.direction != 0]
    i = len(flexes)
    intervals, dropped = a2_double_tangents(sf)
    family, warnings = family_and_warnings(intervals, dropped)
    delta = len(family)
    if additivity_check and family:
        iv = family[0]
        i1, _ = count_inflections_topological(
            width_reduction_eval(sf, iv.a, iv.b, outside=False))
        i2, _ = count_inflections_topological(
            width_reduction_eval(sf, iv.a, iv.b, outside=True))
        if i1 + i2 - 1 != i:
            warnings["additivity_mismatch"] = {"i1": i1, "i2": i2, "i": i}
    return CensusReport(
        kind="width-census",
        i=i,
        delta=delta,
        identity_holds=(i - 2 * delta == 3),
        inflection_points=flexes,
        clean_points=list(clean_points or []),
        double_tangents=[(iv.a, iv.b) for iv in family],
        warnings=warnings,
    )


# -- osculating width circles -------------------------------------------------


@dataclass(frozen=True)
class DCircle:
    center: tuple[float, float]
    radius: float


@dataclass(frozen=True)
class DCircleCertificate:
    flex: float
    circle: DCircle
    contact_components: int
    crossings: int
    tangential: bool
    curvature_radius: float


def theorem_c_certificates(sf: SupportFunction, radius_tol: float = 1e-8,
                           eps_contact: float = EPS_CONTACT) -> list[DCircleCertificate]:
    """Certificates for the three osculating width circles that cross the
    curve exactly twice, both times tangentially, at the clean flexes."""
    triple = clean_flexes(sf, eps_contact=eps_contact)
    out = []
    for t in triple.points:
        phi = osculating_in_am(sf.f, t, 2)
        b = phi.harmonics[0][1] if phi.harmonics else 0.0
        c = phi.harmonics[0][2] if phi.harmonics else 0.0
        circle = DCircle((c, -b), 0.5 * sf.d)
        res = sf.f - phi
        roots, comp = _contacts(res)
        ncomp = len(comp)
        if ncomp != 2:
            raise CertificateFailed(
                "contact", f"flex {t}: {ncomp} contact components")
        crossings = sum(1 for r in roots if r.direction != 0)
        if crossings != 2:
            raise CertificateFailed(
                "crossing", f"flex {t}: {crossings} sign-changing contacts")
        h = 1e-4
        if not (abs(res(t)) <= 1e-9 and abs(res.derivative()(t)) <= 1e-7
                and res(t - h) * res(t + h) < 0.0):
            raise CertificateFailed(
                "tangential", f"flex {t}: contact is not a tangential crossing")
        radius = sf.curvature_radius(t)
        if abs(radius - 0.5 * sf.d) > radius_tol:
            raise CertificateFailed(
                "radius", f"flex {t}: curvature radius {radius} != {0.5 * sf.d}")
        out.append(DCircleCertificate(t, circle, ncomp, crossings, True, radius))
    return out
