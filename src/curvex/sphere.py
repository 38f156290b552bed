"""Sphere lift of a projective curve and its limiting great circles.

A curve in the projective plane is given as a pi-antiperiodic vector
series F; its lift to the unit sphere is F/|F|.  For each parameter t
the great circles through the lifted point and its antipode are
parametrized by an angle theta in the plane normal to the point, and the
circles keeping the forward half of the curve strictly on their right
form an open theta-interval.  Rotating to the positive end of that
interval gives the limiting circle, whose intersection with the curve
is the contact set driving everything downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circle import CircularSet, TWO_PI, admissible_angles, canonical, circle_dist
from .errors import DegeneratePoint, LineCurve, NoConvergence, NotAntiConvex
from .trig import (
    TrigSeries,
    VectorSeries,
    arc_offsets,
    critical_points,
    isolate_sign_changes,
    safeguarded_newton,
    triple_product,
)

EPS_CONTACT = 1e-8
EPS_TANGENT = 1e-6
EPS_NORM = 1e-9
N_GRID = 4096


@dataclass(frozen=True)
class GreatCircle:
    """Oriented great circle {u : normal . u = 0}; H+ is normal . u >= 0."""

    normal: np.ndarray

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float)
        norm = float(np.linalg.norm(n))
        if norm < EPS_NORM:
            raise ValueError("degenerate normal")
        object.__setattr__(self, "normal", n / norm)


class ProjectiveCurve:
    """Antiperiodic vector series with its cached sphere lift."""

    def __init__(self, F: VectorSeries, n_grid: int = N_GRID):
        if not F.is_antiperiodic():
            raise ValueError("curve components must be pi-antiperiodic")
        self.F = F
        self.F1 = F.derivative()
        self.F2 = F.derivative(2)
        self.grid = np.linspace(0.0, TWO_PI, n_grid, endpoint=False)
        pts = F.eval_many(self.grid)
        norms = np.linalg.norm(pts, axis=1)
        if float(np.min(norms)) < EPS_NORM:
            raise DegeneratePoint("|F| vanishes on the sample grid")
        self.units = pts / norms[:, None]
        self.norms = norms

    # -- pointwise geometry ------------------------------------------------

    def radius(self, t: float) -> float:
        return float(np.linalg.norm(self.F(t)))

    def lift(self, t: float) -> np.ndarray:
        v = self.F(t)
        n = float(np.linalg.norm(v))
        if n < EPS_NORM:
            raise DegeneratePoint(f"|F({t})| = {n}")
        return v / n

    def lift_many(self, ts: np.ndarray) -> np.ndarray:
        pts = self.F.eval_many(ts)
        norms = np.linalg.norm(pts, axis=1)
        if norms.size and float(np.min(norms)) < EPS_NORM:
            raise DegeneratePoint("|F| vanishes at a requested sample")
        return pts / norms[:, None]

    def unit_tangent(self, t: float) -> np.ndarray:
        u = self.lift(t)
        v = self.F1(t) / float(np.linalg.norm(self.F(t)))
        v = v - u * float(np.dot(u, v))
        n = float(np.linalg.norm(v))
        if n < EPS_NORM:
            raise DegeneratePoint(f"curve not regular at t={t}")
        return v / n

    def frame(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Left normal nu = lift x tangent, and the unit tangent."""
        that = self.unit_tangent(t)
        nu = np.cross(self.lift(t), that)
        return nu / float(np.linalg.norm(nu)), that


def normal_direction(frame: tuple[np.ndarray, np.ndarray], theta: float) -> np.ndarray:
    """Normal at rotation angle theta: cos(theta) nu + sin(theta) tangent.

    Increasing theta turns the left normal towards the travel direction,
    which is the positive (clockwise) rotation of circles around the
    base point.
    """
    nu, that = frame
    return math.cos(theta) * nu + math.sin(theta) * that


def inflection_indicator(curve: ProjectiveCurve) -> TrigSeries:
    """The exact scalar series det(F, F', F''); sign changes mark true
    inflections of the projective curve."""
    return triple_product(curve.F, curve.F1, curve.F2)


@dataclass(frozen=True)
class InflectionEntry:
    parameter: float
    sign: int  # +1 positive (tangent circle crosses right-to-left), -1 negative
    crossing: bool  # False for grouped tangential (non-independent) zeros


@dataclass(frozen=True)
class InflectionReport:
    entries: tuple[InflectionEntry, ...]
    count: int  # independent true inflections on the projective line


def true_inflections(curve: ProjectiveCurve) -> InflectionReport:
    """Independent true inflections on the half-period circle.

    Zeros of the indicator come in antipodal pairs, so each pair is
    counted once; tangential zeros are reported but not counted.
    """
    w = inflection_indicator(curve)
    scale = max(c.max_coeff() for c in curve.F.components) or 1.0
    if w.is_zero(1e-12 * scale ** 3):
        raise LineCurve("indicator vanishes identically; curve lies on a line")
    roots = isolate_sign_changes(w, domain="half",
                                 tangential_tol=1e-9 * max(w.max_coeff(), 1.0))
    entries = []
    count = 0
    for r in roots:
        if r.direction == 0:
            entries.append(InflectionEntry(r.value, 0, False))
        else:
            # w falling through zero = positive inflection (left-normal,
            # clockwise-rotation convention)
            entries.append(InflectionEntry(r.value, -r.direction, True))
            count += 1
    return InflectionReport(tuple(entries), count)


@dataclass(frozen=True)
class ContactData:
    """Limiting circle at a base parameter together with its contact set."""

    circle: GreatCircle
    contact: CircularSet
    base: float
    theta: float
    tangent_at_base: bool
    touches: tuple[float, ...] = ()
    warnings: tuple[str, ...] = ()


class _ArcSamples:
    """Contact-function samples along the open arc (t, t + pi).

    The geometric ladder packed against the endpoints (where the
    function vanishes) resolves the sign flip of the base slope, which
    is what delimits admissibility at base-tangent circles; the interior
    slice is what touch refinement may use, since the ladder values
    hug zero and would mask interior maxima."""

    def __init__(self, curve: ProjectiveCurve, t: float,
                 frame: tuple[np.ndarray, np.ndarray], n_s: int):
        self.base = t
        self.qn = qn = curve.F.dot_const(frame[0])
        self.qt = qt = curve.F.dot_const(frame[1])
        self.ss = t + arc_offsets(n_s)
        norms = np.linalg.norm(curve.F.eval_many(self.ss), axis=1)
        self.A = qn(self.ss) / norms
        self.B = qt(self.ss) / norms
        self.qn1, self.qt1 = qn.derivative(), qt.derivative()
        self.qn2, self.qt2 = qn.derivative(2), qt.derivative(2)
        self.A1 = self.qn1(self.ss)
        self.B1 = self.qt1(self.ss)
        self._critical: dict[float, list[float]] = {}

    def grid_max(self, theta: float) -> float:
        return float(np.max(math.cos(theta) * self.A + math.sin(theta) * self.B))

    def critical_points(self, theta: float) -> list[float]:
        """Interior critical parameters of the side function, located by
        bracketed sign changes of its derivative plus Newton polish;
        remembered by the exact angle for the life of the samples."""
        got = self._critical.get(theta)
        if got is None:
            c, sn = math.cos(theta), math.sin(theta)
            d = c * self.A1 + sn * self.B1
            g1 = self.qn1.scaled(c) + self.qt1.scaled(sn)
            g2 = self.qn2.scaled(c) + self.qt2.scaled(sn)
            got = self._critical[theta] = critical_points(g1, g2, self.ss, d, self.base)
        return got


def admissible_normal_arc(curve: ProjectiveCurve, t: float, n_s: int = 512):
    """The open arc of rotation angles whose circles keep the forward
    half-curve strictly on the right, or None when no such circle exists.

    Returns (arc, frame); map angles to normals with normal_direction.
    """
    frame = curve.frame(t)
    samples = _ArcSamples(curve, t, frame, n_s)
    return admissible_angles(samples.A, samples.B), frame


def limiting_circle(curve: ProjectiveCurve, t: float,
                    eps_contact: float = EPS_CONTACT) -> ContactData:
    """Rotate the transversal circle at t as far as possible in the
    positive direction and return it with its contact set.

    The positive end of the admissible arc of the sampled half-curve is
    polished either by snapping to the base-tangent circle or by solving
    the interior tangency system with Newton steps over that arc.
    """
    frame = curve.frame(t)
    samples = _ArcSamples(curve, t, frame, 1024)
    arc = admissible_angles(samples.A, samples.B)
    if arc is None:
        raise NotAntiConvex(t)

    warnings: list[str] = []
    theta_star, tangent_at_base = _polish_touch(curve, samples, arc,
                                                eps_contact, warnings)

    normal = normal_direction(frame, theta_star)
    g = samples.qn.scaled(math.cos(theta_star)) + samples.qt.scaled(math.sin(theta_star))
    touches, refined_max = _interior_touches(curve, g, samples, theta_star,
                                             eps_contact)

    side_max = max(samples.grid_max(theta_star), refined_max)
    if side_max > 2.0 * eps_contact:
        raise NoConvergence(
            f"limiting circle at t={t} leaves the half-curve by {side_max:.3g}")

    pts = [canonical(t), canonical(t + math.pi)]
    for s in touches:
        pts.append(canonical(s))
        pts.append(canonical(s + math.pi))
    contact = CircularSet.from_points(pts)

    if not tangent_at_base and len(contact) < 3:
        raise NoConvergence(
            f"transversal limiting circle at t={t} shows {len(contact)} contact "
            "components; expected at least three")
    return ContactData(GreatCircle(normal), contact, canonical(t), canonical(theta_star),
                       tangent_at_base, tuple(touches), tuple(warnings))


def _refined_arc_max(curve, samples, theta):
    """Largest side-function value over the interior critical points of
    the arc, as (value, parameter); (None, None) when the side function
    is monotone between the endpoints (no interior structure)."""
    c, sn = math.cos(theta), math.sin(theta)
    best_v, best_s = None, None
    for s in samples.critical_points(theta):
        m = (c * samples.qn(s) + sn * samples.qt(s)) / curve.radius(s)
        if best_v is None or m > best_v:
            best_v, best_s = m, s
    return best_v, best_s


def _polish_touch(curve, samples, arc, eps_contact, warnings):
    """Classify the extremal circle: tangent at the base point, or touching
    the open arc at an interior maximum.

    The interior case drives the refined arc maximum to zero from below
    with safeguarded Newton steps (envelope derivative in theta, sign
    bracket maintained for bisection fallback).  The touching circle
    keeps every sample strictly on its right, so the sampled admissible
    arc brackets it; angles are handled in a local unwrapped coordinate
    around the arc's positive end."""
    theta_hat = arc.start + arc.length
    for theta_t in (0.0, math.pi):
        if circle_dist(theta_hat, theta_t) < 1e-4 and \
                samples.grid_max(theta_t) <= eps_contact:
            return theta_t, True

    def h_at(x):
        theta = theta_hat + x
        h, s = _refined_arc_max(curve, samples, theta)
        if h is None:
            return None
        return h, lambda: (-math.sin(theta) * samples.qn(s)
                           + math.cos(theta) * samples.qt(s)) / curve.radius(s)

    x, x_neg, _ = safeguarded_newton(h_at, 0.0, -arc.length, 0.0, 1e-12, 1e-17)
    if x is not None:
        return canonical(theta_hat + x), False
    h, _ = _refined_arc_max(curve, samples, theta_hat + x_neg)
    if h is not None and (abs(h) <= 1e-9 or h <= 0.0):
        return canonical(theta_hat + x_neg), False
    warnings.append("touch polish fell back to the end of the sampled arc")
    return canonical(theta_hat), False


def _interior_touches(curve, g, samples, theta, eps_contact):
    """Interior contact parameters and the refined arc maximum, both
    taken over the polished critical points of the side function."""
    out = []
    refined_max = -math.inf
    for s in samples.critical_points(theta):
        m = g(s) / curve.radius(s)
        refined_max = max(refined_max, m)
        if abs(m) <= eps_contact:
            out.append(s)
    out.sort()
    deduped = []
    for s in out:
        if not deduped or abs(s - deduped[-1]) > 1e-9:
            deduped.append(s)
    return deduped, refined_max


def contact_map(curve: ProjectiveCurve, **kwargs):
    """p -> contact set of the limiting circle, for building line systems."""
    def fn(p: float) -> CircularSet:
        return limiting_circle(curve, p, **kwargs).contact
    return fn
