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

from .circle import CircularSet, TWO_PI, canonical
from .errors import CertificateFailed, IdenticallyZero, LineCurve, NotConvex
from .census import (
    CensusReport,
    DetectionResult,
    _double_tangents,
    census_report,
    count_inflections_topological,
    reduction,
)
from .linesys import LineSystem
from .sphere import (
    EPS_CONTACT,
    InflectionEntry,
    ProjectiveCurve,
    _limits,
    clean_inflections,
    nonzero_indicator,
    tangent_line_zeros,
    true_inflections,
)
from .trig import (
    ANTIPERIODIC,
    TrigSeries,
    VectorSeries,
    apply_flex_operator,
    cos_series,
    osculating_in_am,
    sin_series,
)

CIRCLE_OFFSET = "deviation lies in the circle-support space; every width circle osculates"


@dataclass(frozen=True)
class SupportFunction:
    """Width d and the antiperiodic deviation f; h = d/2 + f."""

    d: float
    f: TrigSeries

    def __post_init__(self):
        if self.f.parity != ANTIPERIODIC:
            raise ValueError("the deviation must be pi-antiperiodic")
        if not 0.0 < self.d < math.inf:
            raise ValueError(f"width must be positive and finite, got {self.d}")
        lf = apply_flex_operator(self.f, 2)
        grid = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
        if float(np.min(0.5 * self.d + lf(grid))) <= 0.0:
            raise NotConvex(
                "h + h'' <= 0 somewhere; increase d or shrink the deviation")

    @cached_property
    def lift(self) -> ProjectiveCurve:
        """The sphere curve (cos t, sin t, f(t)), built once."""
        return ProjectiveCurve(VectorSeries(cos_series(1), sin_series(1), self.f))

    @cached_property
    def flexes(self) -> tuple[InflectionEntry, ...]:
        """The crossings on [0, pi) of the lift's inflection indicator
        det(F, F', F''), which for F = (cos t, sin t, f) is f + f'',
        solved once.  When that indicator vanishes, the lift lies on a
        line and f on the circle-support space."""
        try:
            entries = true_inflections(self.lift).entries
        except LineCurve:
            raise IdenticallyZero(CIRCLE_OFFSET) from None
        return tuple(e for e in entries if e.crossing)

    def curvature_radius(self, t: float) -> float:
        return 0.5 * self.d + apply_flex_operator(self.f, 2)(t)


def curve_point(sf: SupportFunction, t: float) -> np.ndarray:
    return curve_points(sf, np.array([t]))[0]


def curve_points(sf: SupportFunction, ts: np.ndarray) -> np.ndarray:
    """Boundary points whose tangent lines make the angles ts with the
    x-axis: h'(t) e(t) - h(t) n(t), as (n, 2) rows."""
    h = 0.5 * sf.d + sf.f(ts)
    h1 = sf.f.derivative()(ts)
    return np.stack([h1 * np.cos(ts) + h * np.sin(ts),
                     h1 * np.sin(ts) - h * np.cos(ts)], axis=-1)


def d_inflections(sf: SupportFunction) -> list[float]:
    """Parameters where the osculating width-circle has higher contact,
    i.e. the curvature radius equals d/2; antipodal partners included."""
    return sorted(e.parameter + h for e in sf.flexes for h in (0.0, math.pi))


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
                            tuple(sorted(canonical(t) for t in lim.touches)))


def _lift(sf: SupportFunction) -> ProjectiveCurve:
    if not sf.f.harmonics:
        raise IdenticallyZero("circle supports have no limiting structure")
    return sf.lift


def contact_map(sf: SupportFunction, eps_contact: float = EPS_CONTACT):
    """bases -> contact sets of their limiting functions.  A single base
    is solved by limiting_function, so that its name counts single
    solves (bench/layertrace.py traces it); more bases are solved
    together on the lift."""
    def fn(ps):
        if len(ps) == 1:
            return [limiting_function(sf, ps[0], eps_contact).contact]
        return [f.contact for f in _limits(_lift(sf), ps, eps_contact)]
    return fn


def contact_system(sf: SupportFunction, eps_contact: float = EPS_CONTACT) -> LineSystem:
    return LineSystem(contact_map(sf, eps_contact))


# -- clean flexes and the census ---------------------------------------------


@dataclass(frozen=True)
class FlexTriple:
    points: tuple[float, float, float]  # on the half-period circle, sorted
    signs: tuple[int, int, int]  # sign change of f - phi at each (+1 = up)
    circle_points: tuple[float, float, float]  # the positive clean points on S^1


def clean_flexes(sf: SupportFunction, system: LineSystem | None = None) -> FlexTriple:
    """Three clean flexes in a half period: the lift's clean_inflections
    on contact_system(sf), unless a system is given.

    f - phi solves y'' + y = f + f'' with a double zero at the flex, so
    it changes sign there as f + f'' does: against the entry's sign."""
    snapped = clean_inflections(sf.lift, system or contact_system(sf), sf.flexes)
    points, signs = zip(*sorted((e.parameter, -e.sign) for _, e in snapped))
    return FlexTriple(points, signs, tuple(t for t, _ in snapped))


def a2_double_tangents(sf: SupportFunction) -> DetectionResult:
    """Intervals whose endpoints share a tangent circle-support member,
    with the number of dropped candidates: the lift's DetectionResult,
    which unpacks as (intervals, dropped).

    They are the lift's double tangents: n(a) = F(a) x F'(a) has
    z-component 1 on F = (cos t, sin t, f(t)), so n(a).F(b) = f(b) - phi(b)
    and n(a).F'(b) = f'(b) - phi'(b) for the member phi osculating f at a.
    The sphere detector's own seeds, Newton solve and chord filters run
    on the lift.  IdenticallyZero when f lies in the circle-support
    space, where the tangency system vanishes identically."""
    try:
        nonzero_indicator(sf.lift)
    except LineCurve:
        raise IdenticallyZero(CIRCLE_OFFSET) from None
    return _double_tangents(sf.lift)


def census_fn(sf: SupportFunction, clean_points: list[float] | None = None,
              additivity_check: bool = True) -> CensusReport:
    """The census of the lift as a width-census: order-2 flexes and
    independent width double tangents, with the identity i - 2*delta = 3
    and, when a double tangent exists, the additivity cross-check on the
    lift's two reductions at the first (without their self-intersection
    test, which doubles its cost).  An even count of either reduction is
    flagged as topological_count_even instead of an additivity mismatch.
    The two counts go to the sidecar counters as additivity: {i1, i2}.

    Only the width census runs the check.  In the sphere census its two
    counts would add about 40 % to a job (7 of 19 ms in process on the
    benchmark's seed-5 sphere inputs); dropped here, the census would
    lose its one cross-check of i and delta by an independent method,
    the crossing walk."""
    report = census_report("width-census", sf.flexes, a2_double_tangents(sf),
                           clean_points or [])
    if additivity_check and report.double_tangents:
        a, b = report.double_tangents[0]
        inside = reduction(sf.lift, a, b, check_simple=False)
        outside = reduction(sf.lift, b, a + math.pi, check_simple=False)
        i1, _ = count_inflections_topological(inside.unit_many)
        i2, _ = count_inflections_topological(outside.unit_many)
        report.counters["additivity"] = {"i1": i1, "i2": i2}
        # an antiperiodic curve has an odd number of inflections, so an
        # even count is the counter's fault, not a failed identity
        if i1 % 2 == 0 or i2 % 2 == 0:
            report.warnings["topological_count_even"] = {"i1": i1, "i2": i2}
        elif i1 + i2 - 1 != report.i:
            report.warnings["additivity_mismatch"] = {"i1": i1, "i2": i2, "i": report.i}
    return report


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
    (found on the system as in clean_flexes).

    The osculating member at a flex t is the lift's tangent line there,
    so it meets f only at t and t + pi when that line meets the lift
    nowhere in (t, t + pi).  Both are tangential crossings: a crossing of f + f''
    is an odd zero of order at least three of f minus the member."""
    triple = clean_flexes(sf, system)
    rows, zeros, _ = tangent_line_zeros(sf.lift, triple.points)
    out = []
    for k, t in enumerate(triple.points):
        if np.any(rows == k):
            raise CertificateFailed("contact", f"flex {t}: the osculating circle "
                                    f"meets the curve again at {zeros[rows == k].tolist()}")
        radius = sf.curvature_radius(t)
        if abs(radius - 0.5 * sf.d) > radius_tol:
            raise CertificateFailed(
                "radius", f"flex {t}: curvature radius {radius} != {0.5 * sf.d}")
        _, b, c = (osculating_in_am(sf.f, t, 2).harmonics or ((1, 0.0, 0.0),))[0]
        out.append(DCircleCertificate(t, DCircle((c, -b), 0.5 * sf.d), 2, 2, True, radius))
    return out
