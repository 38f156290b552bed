"""Sphere lift of a projective curve and its limiting great circles.

A curve in the projective plane is given as a pi-antiperiodic vector
series F; its lift to the unit sphere is F/|F|.  For each parameter t
the great circles through the lifted point and its antipode are
parametrized by an angle theta in the plane normal to the point, and the
circles keeping the forward half of the curve strictly on their right
form an open theta-interval that the zeros of T_t bound.  Rotating to
its positive end gives the limiting circle, whose intersection with
the curve is the contact set driving everything downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .circle import (
    Arc,
    CircularSet,
    TWO_PI,
    admissible_arcs,
    canonical,
    circle_dist,
)
from .errors import DegeneratePoint, LineCurve, NoConvergence, NotAntiConvex
from .linesys import LineSystem, three_clean_inflections
from .trig import (
    TrigSeries,
    VectorSeries,
    circle_zeros,
    isolate_sign_changes,
    laurent_rows,
    triple_product,
    unit_circle_roots,
)

EPS_CONTACT = 1e-8
EPS_NORM = 1e-9
N_GRID = 4096
BLOCK = 256  # bases solved in one pass: the default axiom grid


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

    def __init__(self, F: VectorSeries):
        if not F.is_antiperiodic():
            raise ValueError("curve components must be pi-antiperiodic")
        self.F = F
        self.F1 = F.derivative()
        self.F2 = F.derivative(2)
        pts = F.eval_many(np.linspace(0.0, TWO_PI, N_GRID, endpoint=False))
        if float(np.min(np.linalg.norm(pts, axis=1))) < EPS_NORM:
            raise DegeneratePoint("|F| vanishes on the sample grid")

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
        return _frames(*np.split(self.jet(ts), 3, axis=1)[:2], ts)

    def frame(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Left normal nu = lift x tangent, and the unit tangent."""
        nu, that = self.frames(np.array([t]))
        return nu[0], that[0]

    def jet(self, ts) -> np.ndarray:
        """F, F' and F'' at the parameters ts as (n, 9) rows.

        Each harmonic k of the nine component series takes one cos(k ts)
        and one sin(k ts); the rows add a cos + b sin in ascending k, as
        TrigSeries evaluation adds each series' terms, and a component
        without k adds an exact zero.  So every entry equals the
        eval_many of F, F1 and F2."""
        ks, A, B, const = self._jet_table
        ts = np.asarray(ts, dtype=float)
        out = np.empty((len(ts), 9))
        out[:] = const
        for k, a, b in zip(ks, A, B):
            out += a * np.cos(k * ts)[:, None] + b * np.sin(k * ts)[:, None]
        return out

    @cached_property
    def _jet_table(self):
        """The distinct harmonics of F, F' and F'' with their cos and sin
        coefficients as (K, 9) arrays, zero-padded, and the constants."""
        series = self.F.components + self.F1.components + self.F2.components
        ks = sorted({k for s in series for k, _, _ in s.harmonics})
        A, B = np.zeros((len(ks), 9)), np.zeros((len(ks), 9))
        for j, s in enumerate(series):
            for k, a, b in s.harmonics:
                A[ks.index(k), j], B[ks.index(k), j] = a, b
        return ks, A, B, np.array([s.constant for s in series])

    @cached_property
    def _tangent_planes(self) -> np.ndarray:
        """W = F x F' as three Laurent rows in y = exp(2is): W has even
        harmonics only, since F and F' are antiperiodic."""
        return laurent_rows(self.F.cross(self.F1).components, step=2)


def _frames(P: np.ndarray, D: np.ndarray, ts: np.ndarray):
    """ProjectiveCurve.frames from F and F' at the bases ts."""
    r = np.sqrt(_dot3(P, P))
    if float(np.min(r)) < EPS_NORM:
        raise DegeneratePoint("|F| vanishes at a requested base")
    u, v = P / r[:, None], D / r[:, None]
    v = v - u * _dot3(u, v)[:, None]
    vn = np.sqrt(_dot3(v, v))
    if float(np.min(vn)) < EPS_NORM:
        raise DegeneratePoint(f"curve not regular at t={ts[np.argmin(vn)]}")
    that = v / vn[:, None]
    nu = _cross3(u, that)
    return nu / np.sqrt(_dot3(nu, nu))[:, None], that


def _cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross products over the last axis, written out without np.cross's
    axis handling; each entry is rounded as np.cross rounds it, one
    product minus another."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


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


def nonzero_indicator(curve: ProjectiveCurve) -> TrigSeries:
    """The indicator, or LineCurve when it vanishes identically."""
    w = inflection_indicator(curve)
    scale = max(c.max_coeff() for c in curve.F.components) or 1.0
    if w.is_zero(1e-12 * scale ** 3):
        raise LineCurve("indicator vanishes identically; curve lies on a line")
    return w


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
    w = nonzero_indicator(curve)
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


def nearest_inflection(entries, p: float) -> tuple[float, InflectionEntry]:
    """The crossing entry whose parameter, or parameter + pi, lies
    nearest p on the circle, with that point."""
    return min(((e.parameter + h, e) for e in entries if e.crossing
                for h in (0.0, math.pi)), key=lambda c: circle_dist(c[0], p))


@dataclass(frozen=True)
class ContactData:
    """Limiting circle at a base parameter together with its contact set."""

    circle: GreatCircle
    contact: CircularSet
    base: float
    theta: float
    tangent_at_base: bool
    touches: tuple[float, ...] = ()
    warnings: tuple[str, ...] = ()  # no solver sets one; bench/layertrace.py reads it


def admissible_normal_arc(curve: ProjectiveCurve, ts):
    """At each base of ts, the open arc of rotation angles whose circles
    keep the forward half-curve strictly on the right, or None when no
    such circle exists: the exact arc of _limits, so None at a base is
    where _limits raises NotAntiConvex.

    Returns a list of (arc, frame), one per base, each computed as if
    its base were alone; map angles to normals with normal_direction.
    """
    _, (nu, that), *_, start, length = _arcs(curve, np.asarray(ts, dtype=float).reshape(-1))
    return [(Arc(s, n) if n >= 0.0 else None, frame)
            for s, n, frame in zip(start.tolist(), length.tolist(), zip(nu, that))]


def limiting_circle(curve: ProjectiveCurve, t: float,
                    eps_contact: float = EPS_CONTACT) -> ContactData:
    """Rotate the transversal circle at t as far as possible in the
    positive direction and return it with its contact set."""
    return _limits(curve, [t], eps_contact)[0]


def _limits(curve: ProjectiveCurve, ts, eps_contact: float) -> list[ContactData]:
    """The limiting circles at the bases ts, solved BLOCK bases per pass,
    so that the default axiom grid is one pass and a larger grid keeps
    its arrays bounded; [] for no bases.  The one solver behind
    limiting_circle, the contact maps and width.limiting_function (on
    the lift of a support).

    The limiting circle at t passes through the lifted point and is
    either the tangent circle at t or tangent to the curve at an
    interior s of the forward arc (t, t + pi), a zero of
    T_t(s) = det(F(t), F(s), F'(s)) = W(s) . F(t).  Each zero gives one
    candidate, the circle of normal +-F(t) x F(s) that turning further
    would carry past L(s).  The tangent circle at t (angle 0 or pi) is
    taken when it lies within 1e-4 of the positive end of the exact
    admissible arc and keeps the zeros within eps_contact.  Otherwise
    the limiting angle is the candidate inside the arc nearest its
    positive end that keeps every zero within eps_contact, and with none
    the base raises NoConvergence.  Touches are the zeros whose
    normalized side value is at most eps_contact.  Every step is
    elementwise in the bases, so a base's circle does not depend on the
    bases solved beside it, and a pass raises the error of its first
    failing base.
    """
    ts = np.asarray(ts, dtype=float).reshape(-1)
    out = []
    for lo in range(0, len(ts), BLOCK):
        out += _limit_block(curve, ts[lo:lo + BLOCK], eps_contact)
    return out


def _arcs(curve, ts):
    """The exact admissible arcs at the bases ts and what they are built
    from: (F(ts), frames, rows, ss, F(ss), |F(ss)|, A, B, start, length),
    with (rows, ss) the zeros of T_t, A and B the normalized side values
    of the frame normals there and (start, length) _exact_arcs."""
    Ft, F1t, _ = np.split(curve.jet(ts), 3, axis=1)
    nu, that = _frames(Ft, F1t, ts)
    rows, ss = _interior_zeros(curve, ts, Ft)
    Fs = curve.F.eval_many(ss)
    radii = np.sqrt(_dot3(Fs, Fs))
    A, B = _dot3(nu[rows], Fs) / radii, _dot3(that[rows], Fs) / radii
    start, length = _exact_arcs(curve, ts, (nu, that), rows, A, B)
    return Ft, (nu, that), rows, ss, Fs, radii, A, B, start, length


def _limit_block(curve, ts, eps_contact):
    """_limits on one block; the side values A, B at the zeros, with 0 at
    the ends of the forward arc, stand in for the whole arc."""
    Ft, (nu, that), rows, ss, Fs, radii, A, B, start, length = _arcs(curve, ts)
    planes = _cross3(Ft[rows], Fs)
    pn, pt = _dot3(planes, nu[rows]), _dot3(planes, that[rows])
    # orient each plane so that turning it further gives L(s) a positive side
    up = np.where(pn * _dot3(that[rows], Fs) < pt * _dot3(nu[rows], Fs), -1.0, 1.0)
    angles = np.arctan2(up * pt, up * pn)
    theta_hat = (start + length).tolist()

    def side_max(theta):
        c, s = (np.array([f(x) for x in theta]) for f in (math.cos, math.sin))
        out = np.zeros(len(ts))
        np.maximum.at(out, rows, c[rows] * A + s[rows] * B)
        return out

    # the tangent circle at angle 0 or pi, when theta_hat lies within 1e-4 of it
    theta_t = [0.0 if circle_dist(h, 0.0) < 1e-4 else
               math.pi if circle_dist(h, math.pi) < 1e-4 else None for h in theta_hat]
    tangent = (np.array([th is not None for th in theta_t])
               & (side_max([th or 0.0 for th in theta_t]) <= eps_contact))
    # each candidate against the zeros of its row, as (candidate, zero) pairs
    bounds = np.searchsorted(rows, np.arange(len(ts) + 1))
    row_zeros = np.diff(bounds)[rows]
    cand = np.repeat(np.arange(len(rows)), row_zeros)
    zero = np.repeat(bounds[rows] - np.cumsum(row_zeros) + row_zeros, row_zeros) \
        + np.arange(len(cand))
    normals = np.cos(angles)[:, None] * nu[rows] + np.sin(angles)[:, None] * that[rows]
    over = np.full(len(rows), -math.inf)
    np.maximum.at(over, cand, _dot3(normals[cand], Fs[zero]) / radii[zero])
    pos = (angles - start[rows]) % TWO_PI
    ok = (pos <= length[rows] + 1e-9) & (over <= eps_contact)
    # the first ok candidate of largest pos in each row, or -1
    best = np.full(len(ts), -math.inf)
    np.maximum.at(best, rows[ok], pos[ok])
    hits = np.nonzero(ok & (pos == best[rows]))[0]
    first = np.full(len(ts), len(rows))
    np.minimum.at(first, rows[hits], hits)
    pick = np.where(first < len(rows), first, -1)
    # a base with neither circle keeps angle 0 here and fails below
    theta = [th if tg else canonical(float(angles[j])) if j >= 0 else 0.0
             for th, tg, j in zip(theta_t, tangent.tolist(), pick.tolist())]

    cos, sin = (np.array([f(x) for x in theta])[:, None] for f in (math.cos, math.sin))
    normal = cos * nu + sin * that
    leave = side_max(theta).tolist()
    touching = (np.abs(_dot3(normal[rows], Fs)) / radii <= eps_contact).tolist()
    bounds = bounds.tolist()
    ss = ss.tolist()

    out = []
    for i, t in enumerate(ts.tolist()):
        if length[i] < 0.0:
            raise NotAntiConvex(t)
        if not tangent[i] and pick[i] < 0:
            raise NoConvergence(f"limiting circle at t={t} not found in its admissible arc")
        if leave[i] > 2.0 * eps_contact:
            raise NoConvergence(
                f"limiting circle at t={t} leaves the half-curve by {leave[i]:.3g}")
        mine = slice(bounds[i], bounds[i + 1])
        found = sorted(s for s, on in zip(ss[mine], touching[mine]) if on)
        touches = [s for k, s in enumerate(found) if k == 0 or s - found[k - 1] > 1e-9]
        contact = CircularSet.from_points([t, t + math.pi] + touches
                                          + [s + math.pi for s in touches])
        if not tangent[i] and len(contact) < 3:
            raise NoConvergence(
                f"transversal limiting circle at t={t} shows {len(contact)} contact "
                "components; expected at least three")
        out.append(ContactData(GreatCircle(normal[i]), contact, canonical(t), theta[i],
                               bool(tangent[i]), tuple(touches)))
    return out


def _exact_arcs(curve, ts, frames, rows, A, B):
    """The admissible arcs (start, length) of the bases, length -1 for
    none, from the side values A = nu . F / |F|, B = that . F / |F| at
    their zeros of T_t (rows index ts).  Along the forward arc (A, B)
    leaves and returns along (0, 1) and turns only at the zeros, but may
    wind once round between two; so an arc holds when its middle circle,
    n . F in y = exp(2is), has no unit_circle_roots in the open arc
    (t + 1e-6, t + pi - 1e-6)."""
    nu, that = frames
    col = np.arange(len(rows)) - np.searchsorted(rows, rows)
    a, b = np.zeros((2, len(ts), int(col.max(initial=0)) + 2))
    b += 1.0
    a[rows, col], b[rows, col] = A, B
    start, length = np.array([(arc.start, arc.length) if arc else (0.0, -1.0)
                              for arc in admissible_arcs(a, b)]).reshape(-1, 2).T
    mid = start + 0.5 * length
    n_mid = np.cos(mid)[:, None] * nu + np.sin(mid)[:, None] * that
    met, off = unit_circle_roots(n_mid @ laurent_rows(curve.F.components)[:, ::2], ts, 2)
    length[met[(off > 1e-6) & (off < math.pi - 1e-6)]] = -1.0
    return start, length


def _interior_zeros(curve: ProjectiveCurve, ts: np.ndarray, Ft: np.ndarray):
    """Zeros of T_t(s) = W(s) . F(t) in the open arc (t, t + pi) for
    every base t, with Ft = F(t) as rows, as flat arrays (row, s) sorted
    by row: arc_zeros of T_t in y = exp(2is), one row per base."""
    W = curve._tangent_planes
    rows, s, _ = arc_zeros(Ft[:, :1] * W[0] + Ft[:, 1:2] * W[1] + Ft[:, 2:] * W[2], ts)
    return rows, s


def tangent_line_zeros(curve: ProjectiveCurve, ts):
    """Where the tangent line at each base a in ts meets the curve again:
    the zeros of g_a(b) = n(a) . F(b), n(a) = F(a) x F'(a), in the open
    arc (a, a + pi), as arc_zeros gives them (rows index ts)."""
    ts = np.asarray(ts, dtype=float)
    jet = curve.jet(ts)
    N = _cross3(jet[:, :3], jet[:, 3:6])
    # F has odd harmonics only: every other Laurent column is a row in exp(2ib)
    return arc_zeros(N @ laurent_rows(curve.F.components)[:, ::2], ts)


def exact_clean_points(curve: ProjectiveCurve, entries) -> tuple[float, ...]:
    """The exactly-clean inflections among the crossing entries, sorted:
    the parameters p whose tangent line meets the curve nowhere in
    (p, p + pi), from one tangent_line_zeros call, each as its positive
    representative, p for a positive entry and p + pi for a negative one."""
    crossing = [e for e in entries if e.crossing]
    met = set(tangent_line_zeros(curve, [e.parameter for e in crossing])[0].tolist())
    return tuple(sorted(e.parameter + (0.0 if e.sign > 0 else math.pi)
                        for k, e in enumerate(crossing) if k not in met))


def clean_inflections(curve: ProjectiveCurve, system: LineSystem,
                      entries) -> list[tuple[float, InflectionEntry]]:
    """The three clean inflections of the Theorem, as (point, entry)
    pairs snapped by nearest_inflection: three_clean_inflections picks
    them from exact_clean_points and checks them on the system."""
    found = three_clean_inflections(system, clean=exact_clean_points(curve, entries))
    return [nearest_inflection(entries, s) for s in found]


def arc_zeros(Q: np.ndarray, ts: np.ndarray):
    """Zeros in the open arc (t, t + pi) of series with a double zero at
    s = t, t + pi, one row of Q (coefficients of y^0 .. y^N, y = exp(2is),
    N even or odd) per base t, as flat arrays (row, s, multiplicity)
    sorted by row, then by s.

    The double zero at y = w = exp(2it) is divided out, and circle_zeros
    solves the quotients from the origin t.  As (y - w)^2 =
    -4 y w sin^2(s - t), the zeros are polished on the quotient scaled
    by -4 w, the row's series over sin^2(s - t), away from the double
    zero that would drown theirs in rounding near s = t."""
    if Q.shape[1] < 3:  # nothing is left beside the double zero
        return np.zeros(0, dtype=int), np.zeros(0), np.zeros(0, dtype=int)
    w = np.exp(2j * ts)
    for _ in range(2):
        Q = _divided(Q, w)
    rows, s, m = circle_zeros(Q, -4.0 * w, ts, step=2)
    off = s - ts[rows]
    keep = (off > 1e-6) & (off < math.pi - 1e-6)
    return rows[keep], s[keep], m[keep]


def _divided(p: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Row-wise quotient of the polynomials p (coefficients of y^0 .. y^N
    in each row) by y - w, by synthetic division from the top."""
    q = np.empty((p.shape[0], p.shape[1] - 1), dtype=complex)
    q[:, -1] = p[:, -1]
    for m in range(p.shape[1] - 2, 0, -1):
        q[:, m - 1] = p[:, m] + w * q[:, m]
    return q


def contact_map(curve: ProjectiveCurve, eps_contact: float = EPS_CONTACT):
    """bases -> contact sets of their limiting circles, for building line
    systems.  A single base is solved by limiting_circle, so that its
    name counts single solves (bench/layertrace.py traces it); more
    bases are solved together."""
    def fn(ps):
        if len(ps) == 1:
            return [limiting_circle(curve, ps[0], eps_contact).contact]
        return [f.contact for f in _limits(curve, ps, eps_contact)]
    return fn
