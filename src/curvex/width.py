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
from functools import cached_property

import numpy as np

from .circle import CircularSet, TWO_PI, canonical, circle_dist
from .errors import CertificateFailed, IdenticallyZero, NotConvex
from .census import (
    CensusReport,
    DoubleTangentInterval,
    count_inflections_topological,
    family_and_warnings,
    reduction,
    row_minima,
    tangent_pairs,
)
from .linesys import LineSystem, three_clean_inflections
from .sphere import EPS_CONTACT, ProjectiveCurve, _limits, _sets_and_warnings
from .trig import (
    ANTIPERIODIC,
    TrigSeries,
    VectorSeries,
    apply_flex_operator,
    cos_series,
    isolate_sign_changes,
    osculating_in_am,
    sin_series,
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

    @cached_property
    def lift(self) -> ProjectiveCurve:
        """The sphere curve (cos t, sin t, f(t)), built once."""
        return ProjectiveCurve(VectorSeries(cos_series(1), sin_series(1), self.f))

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
    warnings: tuple[str, ...] = ()


def _slope_family(sf: SupportFunction, p: float, s: float) -> TrigSeries:
    """Member of the circle-support space through (p, f(p)) with slope s."""
    fp = sf.f(p)
    a = fp * math.cos(p) - s * math.sin(p)
    b = fp * math.sin(p) + s * math.cos(p)
    return TrigSeries(0.0, ((1, a, b),), ANTIPERIODIC)


def limiting_function(sf: SupportFunction, p: float,
                      eps_contact: float = EPS_CONTACT) -> LimitingFunction:
    """The smallest-slope circle support through (p, f(p)) staying above
    f on the forward half period, with its contact set.

    It is the limiting great circle of the lift at p: a circle of normal
    n meets the lift where n . (cos t, sin t, f(t)) = -n_z (psi - f)(t),
    for the member psi = -(n_x cos t + n_y sin t) / n_z, so the two share
    their contact set and eps_contact bounds the lift's normalized side
    value.
    """
    p = canonical(p)
    lim = _limits(_lift(sf), [p], eps_contact)[0]
    if lim.tangent_at_base:
        s0 = sf.f.derivative()(p)  # the osculating member, exactly
    else:
        nx, ny, nz = lim.circle.normal
        s0 = float((nx * math.sin(p) - ny * math.cos(p)) / nz)
    return LimitingFunction(p, s0, _slope_family(sf, p, s0), lim.contact,
                            tuple(sorted(canonical(t) for t in lim.touches)),
                            lim.warnings)


def _lift(sf: SupportFunction) -> ProjectiveCurve:
    if not sf.f.harmonics:
        raise IdenticallyZero("circle supports have no limiting structure")
    return sf.lift


def contact_map(sf: SupportFunction, eps_contact: float = EPS_CONTACT):
    """bases -> (contact sets, warnings) of their limiting functions.  A
    single base is solved by limiting_function, so that its name counts
    single solves (bench/layertrace.py traces it); more bases are solved
    together on the lift."""
    def fn(ps):
        if len(ps) == 1:
            return _sets_and_warnings([limiting_function(sf, ps[0], eps_contact)])
        return _sets_and_warnings(_limits(_lift(sf), ps, eps_contact))
    return fn


def contact_system(sf: SupportFunction, eps_contact: float = EPS_CONTACT) -> LineSystem:
    return LineSystem(contact_map(sf, eps_contact), name="width")


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


def clean_flexes(sf: SupportFunction, system: LineSystem | None = None,
                 **kw) -> FlexTriple:
    """Three clean flexes in a half period, found by the intrinsic-system
    search (on contact_system(sf) unless a system is given) and snapped
    to the nearest sign change of the flex operator."""
    raw = three_clean_inflections(system or contact_system(sf), **kw)
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
    rows, cols = row_minima(R, SEED_THRESHOLD * scale)
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


def census_fn(sf: SupportFunction, clean_points: list[float] | None = None,
              additivity_check: bool = True) -> CensusReport:
    """Census of order-2 flexes and independent width double tangents,
    with the identity i - 2*delta = 3 and, when a double tangent exists,
    the additivity cross-check on the lift's two reductions at the first
    (without their self-intersection test, which doubles its cost)."""
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
        inside = reduction(sf.lift, iv.a, iv.b, check_simple=False)
        outside = reduction(sf.lift, iv.b, iv.a + math.pi, check_simple=False)
        i1, _ = count_inflections_topological(inside.unit_many)
        i2, _ = count_inflections_topological(outside.unit_many)
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
                           system: LineSystem | None = None) -> list[DCircleCertificate]:
    """Certificates for the three osculating width circles that cross the
    curve exactly twice, both times tangentially, at the clean flexes
    (found on the system as in clean_flexes)."""
    triple = clean_flexes(sf, system)
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
