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
from functools import cached_property

import numpy as np

from .circle import (
    CircularSet,
    TWO_PI,
    admissible_angles,
    admissible_arcs,
    canonical,
    circle_dist,
)
from .errors import DegeneratePoint, LineCurve, NoConvergence, NotAntiConvex
from .trig import TrigSeries, VectorSeries, arc_offsets, isolate_sign_changes, triple_product

EPS_CONTACT = 1e-8
EPS_NORM = 1e-9
N_GRID = 4096
BLOCK = 32  # bases whose limiting circles are solved together
N_SIDE = 1024  # interior side samples of each base's forward arc
FALLBACK = "no tangent circle inside the sampled arc; fell back to its end"


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

    def frames(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Left normals nu = lift x tangent and unit tangents at the bases
        ts, as (n, 3) rows computed elementwise, so that a row does not
        depend on the rows beside it."""
        P, D = self.F.eval_many(ts), self.F1.eval_many(ts)
        r = np.sqrt(_dot3(P, P))
        if float(np.min(r)) < EPS_NORM:
            raise DegeneratePoint("|F| vanishes at a requested base")
        u, v = P / r[:, None], D / r[:, None]
        v = v - u * _dot3(u, v)[:, None]
        vn = np.sqrt(_dot3(v, v))
        if float(np.min(vn)) < EPS_NORM:
            raise DegeneratePoint(f"curve not regular at t={ts[np.argmin(vn)]}")
        that = v / vn[:, None]
        nu = np.cross(u, that)
        return nu / np.sqrt(_dot3(nu, nu))[:, None], that

    def frame(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Left normal nu = lift x tangent, and the unit tangent."""
        nu, that = self.frames(np.array([t]))
        return nu[0], that[0]

    @cached_property
    def _tangent_planes(self) -> np.ndarray:
        """W = F x F' as a (3, 2M + 1) complex array: column M + j holds
        the coefficient of y^j, y = exp(2is), in each component.  W has
        even harmonics only, since F and F' are antiperiodic."""
        W = self.F.cross(self.F1).components
        M = max(c.degree for c in W) // 2
        out = np.zeros((3, 2 * M + 1), dtype=complex)
        for row, c in zip(out, W):
            row[M] = c.constant
            for k, a, b in c.harmonics:
                row[M + k // 2] = complex(0.5 * a, -0.5 * b)
                row[M - k // 2] = complex(0.5 * a, 0.5 * b)
        return out


def _dot3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, written out so that each entry
    is rounded the same whatever the shape of the arrays."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


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


def _side_samples(curve: ProjectiveCurve, ts: np.ndarray,
                  frames: tuple[np.ndarray, np.ndarray], n_s: int):
    """Normalized side values A = nu . F / |F| and B = that . F / |F| of
    each base's frame normals at the offsets arc_offsets(n_s) along its
    open forward arc (t, t + pi), as (n, m) rows."""
    P = curve.F.eval_many(ts[:, None] + arc_offsets(n_s))
    r = np.sqrt(_dot3(P, P))
    nu, that = frames
    return _dot3(nu[:, None], P) / r, _dot3(that[:, None], P) / r


def admissible_normal_arc(curve: ProjectiveCurve, t: float, n_s: int = 512):
    """The open arc of rotation angles whose circles keep the forward
    half-curve strictly on the right, or None when no such circle exists.

    Returns (arc, frame); map angles to normals with normal_direction.
    """
    nu, that = curve.frames(np.array([t]))
    A, B = _side_samples(curve, np.array([t]), (nu, that), n_s)
    return admissible_angles(A[0], B[0]), (nu[0], that[0])


def limiting_circle(curve: ProjectiveCurve, t: float,
                    eps_contact: float = EPS_CONTACT) -> ContactData:
    """Rotate the transversal circle at t as far as possible in the
    positive direction and return it with its contact set."""
    return _limits(curve, [t], eps_contact)[0]


def _limits(curve: ProjectiveCurve, ts, eps_contact: float) -> list[ContactData]:
    """The limiting circles at the bases ts, solved BLOCK bases at a
    time: the one solver behind limiting_circle, the contact maps and
    width.limiting_function (on the lift of a support).

    The limiting circle at t passes through the lifted point and is
    either the tangent circle at t or tangent to the curve at an
    interior s of the forward arc (t, t + pi), a zero of
    T_t(s) = det(F(t), F(s), F'(s)) = W(s) . F(t).  Each zero gives one
    candidate, the circle of normal +-F(t) x F(s) that turning further
    would carry past L(s).  The tangent circle at t (angle 0 or pi) is
    taken when it lies within 1e-4 of the positive end of the sampled
    admissible arc and keeps the samples within eps_contact.  Otherwise
    the limiting angle is the candidate inside the sampled arc nearest
    its positive end that keeps every zero within eps_contact: the
    sampled arc may reach past the limiting angle between samples.  With
    no such candidate the end of the arc is taken and FALLBACK reported.
    Touches are the zeros whose normalized side value is at most
    eps_contact.  Every step is elementwise in the bases, so a base's
    circle does not depend on the bases solved beside it.
    """
    ts = np.asarray(ts, dtype=float).reshape(-1)
    out = []
    for lo in range(0, len(ts), BLOCK):
        out += _limit_block(curve, ts[lo:lo + BLOCK], eps_contact)
    return out


def _limit_block(curve, ts, eps_contact):
    nu, that = curve.frames(ts)
    A, B = _side_samples(curve, ts, (nu, that), N_SIDE)
    arcs = admissible_arcs(A, B)
    rows, ss = _interior_zeros(curve, ts)
    Fs = curve.F.eval_many(ss)
    planes = np.cross(curve.F.eval_many(ts)[rows], Fs)
    pn, pt = _dot3(planes, nu[rows]), _dot3(planes, that[rows])
    # orient each plane so that turning it further gives L(s) a positive side
    up = np.where(pn * _dot3(that[rows], Fs) < pt * _dot3(nu[rows], Fs), -1.0, 1.0)
    angles = np.arctan2(up * pt, up * pn)
    radii = np.sqrt(_dot3(Fs, Fs))
    bounds = np.searchsorted(rows, np.arange(len(ts) + 1))

    out = []
    for i, arc in enumerate(arcs):
        t = float(ts[i])
        if arc is None:
            raise NotAntiConvex(t)
        mine = slice(bounds[i], bounds[i + 1])

        def grid_max(theta):
            return float(np.max(math.cos(theta) * A[i] + math.sin(theta) * B[i]))

        warnings = []
        theta_hat = arc.start + arc.length
        for theta_star in (0.0, math.pi):
            if circle_dist(theta_hat, theta_star) < 1e-4 and \
                    grid_max(theta_star) <= eps_contact:
                tangent_at_base = True
                break
        else:
            tangent_at_base = False
            cand = angles[mine]
            normals = np.cos(cand)[:, None] * nu[i] + np.sin(cand)[:, None] * that[i]
            over = np.max(_dot3(normals[:, None], Fs[mine]) / radii[mine], axis=1,
                          initial=-math.inf)
            pos = (cand - arc.start) % TWO_PI
            pos = pos[(pos <= arc.length + 1e-9) & (over <= eps_contact)]
            if pos.size:
                theta_star = canonical(arc.start + float(np.max(pos)))
            else:
                warnings.append(FALLBACK)
                theta_star = canonical(theta_hat)

        normal = math.cos(theta_star) * nu[i] + math.sin(theta_star) * that[i]
        side_max = grid_max(theta_star)
        if side_max > 2.0 * eps_contact:
            raise NoConvergence(
                f"limiting circle at t={t} leaves the half-curve by {side_max:.3g}")

        side = np.abs(_dot3(normal, Fs[mine])) / radii[mine]
        touches = np.sort(ss[mine][side <= eps_contact])
        touches = touches[np.diff(touches, prepend=-math.inf) > 1e-9].tolist()
        contact = CircularSet.from_points([t, t + math.pi] + touches
                                          + [s + math.pi for s in touches])

        if not tangent_at_base and len(contact) < 3:
            raise NoConvergence(
                f"transversal limiting circle at t={t} shows {len(contact)} contact "
                "components; expected at least three")
        out.append(ContactData(GreatCircle(normal), contact, canonical(t), theta_star,
                               tangent_at_base, tuple(touches), tuple(warnings)))
    return out


def _through_point_series(curve: ProjectiveCurve, ts: np.ndarray) -> np.ndarray:
    """The coefficients of T_t(s) = W(s) . F(t) for every base t, as an
    (n, 2M + 1) complex array over y^(-M) .. y^M with y = exp(2is)."""
    W = curve._tangent_planes
    Ft = curve.F.eval_many(ts)
    return Ft[:, :1] * W[0] + Ft[:, 1:2] * W[1] + Ft[:, 2:] * W[2]


def _interior_zeros(curve: ProjectiveCurve, ts: np.ndarray):
    """Zeros of T_t in the open arc (t, t + pi) for every base t, as flat
    arrays (row, s) sorted by row.

    In y = exp(2is) the arc is the unit circle without w = exp(2it),
    where T_t has the double zero of s = t and s = t + pi.  That zero is
    divided out, and the zeros of the quotients are the eigenvalues of
    their companion matrices, taken in one call per degree (a leading
    coefficient below 1e-14 of the largest is dropped first).  As in
    trig.roots, eigenvalues with |log|y|| < 1e-3 are kept, those within
    1e-4 of each other form one zero whose multiplicity is their number,
    and each zero is polished by Newton steps on the (m-1)-th derivative
    of the quotient.
    """
    w = np.exp(2j * ts)
    Q = _through_point_series(curve, ts)
    if Q.shape[1] < 3:  # W is constant: the curve is a great circle
        return np.zeros(0, dtype=int), np.zeros(0)
    for _ in range(2):
        Q = _divided(Q, w)
    mag = np.abs(Q)
    big = mag > 1e-14 * mag.max(axis=1, initial=0.0)[:, None]
    degree = np.where(big.any(axis=1), Q.shape[1] - 1 - np.argmax(big[:, ::-1], axis=1), 0)
    rows, zs = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=complex)]
    for D in np.unique(degree[degree > 0]):
        sel = np.nonzero(degree == D)[0]
        companion = np.zeros((len(sel), D, D), dtype=complex)
        companion[:, np.arange(1, D), np.arange(D - 1)] = 1.0
        companion[:, :, -1] = -Q[sel, :D] / Q[sel, D:D + 1]
        rows.append(np.repeat(sel, D))
        zs.append(np.linalg.eigvals(companion).ravel())
    rows, z = np.concatenate(rows), np.concatenate(zs)
    r = np.abs(z)
    keep = (r > math.exp(-1e-3)) & (r < math.exp(1e-3))
    rows, z = rows[keep], z[keep]
    off = ((np.angle(z) - 2.0 * ts[rows]) % TWO_PI) / 2.0
    order = np.lexsort((off, rows))
    rows, off = rows[order], off[order]
    first = np.ones(len(off), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (np.diff(off) >= 1e-4)
    cluster = np.cumsum(first) - 1
    m = np.bincount(cluster)
    rows = rows[first]
    # (y - w)^2 = -4 y w sin^2(s - t), so R = -4 w y^(1-M) Q is the real
    # series T_t / sin^2(s - t), whose zeros are polished away from the
    # double zero that would drown theirs in rounding near s = t
    R = -4.0 * w[rows, None] * Q[rows]
    s = _polished(R, ts[rows] + np.bincount(cluster, weights=off) / m, m)
    off = s - ts[rows]
    keep = (off > 1e-6) & (off < math.pi - 1e-6)
    return rows[keep], s[keep]


def _divided(p: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Row-wise quotient of the polynomials p (coefficients of y^0 .. y^N
    in each row) by y - w, by synthetic division from the top."""
    q = np.empty((p.shape[0], p.shape[1] - 1), dtype=complex)
    q[:, -1] = p[:, -1]
    for m in range(p.shape[1] - 2, 0, -1):
        q[:, m - 1] = p[:, m] + w * q[:, m]
    return q


def _polished(C: np.ndarray, s: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Newton steps on the (m-1)-th derivative of the series with
    coefficient rows C (as in _through_point_series) from each s, with
    the stop rules of trig.roots, run in lockstep."""
    M = (C.shape[1] - 1) // 2
    k = 2.0 * np.arange(-M, M + 1)
    i_pow = np.array([1.0, 1j, -1.0, -1j])

    def derivative(live, order):
        scale = i_pow[order % 4][:, None] * k ** order[:, None]
        return (C[live] * scale * np.exp(1j * s[live, None] * k)).sum(axis=1).real

    s = s.copy()
    live = np.arange(len(s))
    for _ in range(16):
        if not live.size:
            break
        g, slope = derivative(live, m[live] - 1), derivative(live, m[live])
        step = np.divide(g, slope, out=np.full_like(g, np.inf), where=slope != 0.0)
        ok = np.abs(step) < 1e-4  # a longer step would leave the cluster
        s[live[ok]] -= step[ok]
        live = live[ok & (np.abs(step) > 1e-15)]
    return s


def _sets_and_warnings(found) -> tuple[list[CircularSet], list[str]]:
    """The contact sets and the warnings of solved limits, for a line system."""
    return [f.contact for f in found], [w for f in found for w in f.warnings]


def contact_map(curve: ProjectiveCurve, eps_contact: float = EPS_CONTACT):
    """bases -> (contact sets, warnings) of their limiting circles, for
    building line systems.  A single base is solved by limiting_circle,
    so that its name counts single solves (bench/layertrace.py traces
    it); more bases are solved together."""
    def fn(ps):
        if len(ps) == 1:
            return _sets_and_warnings([limiting_circle(curve, ps[0], eps_contact)])
        return _sets_and_warnings(_limits(curve, ps, eps_contact))
    return fn
