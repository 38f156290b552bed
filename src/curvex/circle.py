"""Cyclic-order arithmetic on a circle and closed subsets as unions of arcs.

Angles live on R/(period Z); the default period is 2*pi (the parameter
circle of a lifted curve) and period pi is used for the projective
quotient.  A closed subset is kept as an ordered tuple of pairwise
disjoint arcs, merged within a grouping tolerance so that numerically
fragmented contact sets collapse to their true components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptyIntersection

TWO_PI = 2.0 * math.pi

# endpoint-equality tolerance for canonical angles
EPS_ANGLE = 1e-10
# nearby numeric fragments of one true component are merged within this
EPS_GROUP = 1e-7


def canonical(t: float, period: float = TWO_PI) -> float:
    """Reduce an angle to its canonical representative in [0, period)."""
    t = math.fmod(t, period)
    if t < 0.0:
        t += period
    if period - t < EPS_ANGLE:
        t = 0.0
    return t


def antipode(t: float, period: float = TWO_PI) -> float:
    """The point half a period away (the antipodal involution T)."""
    return canonical(t + 0.5 * period, period)


def forward_gap(a: float, b: float, period: float = TWO_PI) -> float:
    """Length of the oriented arc from a to b, in [0, period)."""
    return canonical(b - a, period)


def cyclic_between(a: float, b: float, c: float, period: float = TWO_PI) -> bool:
    """True iff b lies in the open oriented arc (a, c).

    The degenerate window (a, a) is the full circle minus the point a,
    matching the limit of (a, c) as c approaches a from behind.
    """
    db = forward_gap(a, b, period)
    dc = forward_gap(a, c, period)
    if dc == 0.0:
        return db > 0.0
    return 0.0 < db < dc


def cyclic_midpoint(a: float, b: float, period: float = TWO_PI) -> float:
    """Midpoint of the oriented arc from a to b."""
    return canonical(a + 0.5 * forward_gap(a, b, period), period)


def circle_dist(a: float, b: float, period: float = TWO_PI) -> float:
    """Unoriented distance between two points on the circle."""
    d = forward_gap(a, b, period)
    return min(d, period - d)


def cyclic_runs(mask) -> list[tuple[int, int]]:
    """Maximal runs of True in a cyclic boolean sequence, as (start,
    length) pairs in order of start; a run may wrap past the last index,
    and an all-True sequence is the single run (0, n)."""
    mask = np.asarray(mask, dtype=bool)
    if mask.all():
        return [(0, len(mask))] if len(mask) else []
    starts = np.nonzero(mask & ~np.roll(mask, 1))[0]
    lasts = np.nonzero(mask & ~np.roll(mask, -1))[0]
    if len(lasts) and lasts[0] < starts[0]:
        lasts = np.roll(lasts, -1)  # the first run ends after the seam
    return [(int(s), int((e - s) % len(mask)) + 1) for s, e in zip(starts, lasts)]


@dataclass(frozen=True)
class Arc:
    """Closed oriented arc [start, start+length]; length 0 is a point,
    length == period the full circle."""

    start: float
    length: float
    period: float = TWO_PI

    def __post_init__(self):
        if not 0.0 <= self.length <= self.period + EPS_ANGLE:
            raise ValueError(f"arc length {self.length} outside [0, period]")
        object.__setattr__(self, "start", canonical(self.start, self.period))
        object.__setattr__(self, "length", min(self.length, self.period))

    @classmethod
    def from_endpoints(cls, start: float, end: float, period: float = TWO_PI) -> "Arc":
        return cls(start, forward_gap(start, end, period), period)

    @classmethod
    def point(cls, t: float, period: float = TWO_PI) -> "Arc":
        return cls(t, 0.0, period)

    @classmethod
    def full(cls, period: float = TWO_PI) -> "Arc":
        return cls(0.0, period, period)

    @property
    def end(self) -> float:
        return canonical(self.start + self.length, self.period)

    @property
    def midpoint(self) -> float:
        return canonical(self.start + 0.5 * self.length, self.period)

    def is_full(self) -> bool:
        return self.length >= self.period - EPS_ANGLE

    def contains(self, t: float, tol: float = EPS_ANGLE) -> bool:
        if self.is_full():
            return True
        return forward_gap(self.start, t, self.period) <= self.length + tol or \
            forward_gap(self.start, t, self.period) >= self.period - tol

    def position_of(self, t: float) -> float:
        """Offset of t from start along the arc orientation (in [0, period))."""
        return forward_gap(self.start, t, self.period)

    def shifted(self, delta: float) -> "Arc":
        return Arc(self.start + delta, self.length, self.period)

    def dilated(self, eps: float) -> "Arc":
        length = min(self.length + 2.0 * eps, self.period)
        return Arc(self.start - eps, length, self.period)

    def intersections(self, other: "Arc") -> list["Arc"]:
        """Intersection with another arc, as 0, 1 or 2 arcs."""
        if self.is_full():
            return [other]
        if other.is_full():
            return [self]
        p = self.period
        lo, hi = self.start, self.start + self.length
        out = []
        # shift copies of `other` onto the linear window [lo, hi]
        base = other.start
        k0 = math.floor((lo - base - other.length) / p)
        for k in range(int(k0), int(k0) + 4):
            s = base + k * p
            e = s + other.length
            a, b = max(lo, s), min(hi, e)
            if b >= a - EPS_ANGLE:
                out.append(Arc(a, max(b - a, 0.0), p))
        # dedupe identical shifted copies
        uniq: list[Arc] = []
        for arc in out:
            if not any(
                circle_dist(arc.start, u.start, p) < EPS_ANGLE
                and abs(arc.length - u.length) < EPS_ANGLE
                for u in uniq
            ):
                uniq.append(arc)
        return uniq


def admissible_angles(A, B) -> Arc | None:
    """The open arc of angles theta with cos(theta) A[j] + sin(theta) B[j] < 0
    for every j, returned as its closure; None when no angle qualifies.

    Sample j rules out the closed half circle centred on its direction
    atan2(B[j], A[j]) (all of the circle when A[j] = B[j] = 0), so the
    admissible angles are the middle of the one cyclic gap between
    neighbouring directions that is wider than pi.
    """
    return admissible_arcs(np.asarray(A, dtype=float)[None],
                           np.asarray(B, dtype=float)[None])[0]


def admissible_arcs(A: np.ndarray, B: np.ndarray) -> list[Arc | None]:
    """admissible_angles of each row of the (n, m) arrays A and B."""
    phi = np.sort(np.arctan2(B, A), axis=1)
    gaps = np.diff(phi, axis=1, append=phi[:, :1] + TWO_PI)
    i = np.argmax(gaps, axis=1)
    rows = np.arange(len(phi))
    widest = gaps[rows, i]
    ok = (widest > math.pi) & ~np.any((A == 0.0) & (B == 0.0), axis=1)
    return [Arc(float(phi[r, i[r]]) + 0.5 * math.pi, float(widest[r]) - math.pi)
            if ok[r] else None for r in rows]


class CircularSet:
    """A closed subset of the circle: ordered, pairwise-disjoint maximal arcs."""

    __slots__ = ("arcs", "period")

    def __init__(self, arcs: Sequence[Arc], period: float = TWO_PI, merge_tol: float = EPS_GROUP):
        self.period = period
        self.arcs: tuple[Arc, ...] = tuple(_merge(arcs, period, merge_tol))

    @classmethod
    def empty(cls, period: float = TWO_PI) -> "CircularSet":
        return cls((), period)

    @classmethod
    def full(cls, period: float = TWO_PI) -> "CircularSet":
        return cls((Arc.full(period),), period)

    @classmethod
    def from_points(cls, points: Iterable[float], period: float = TWO_PI,
                    merge_tol: float = EPS_GROUP) -> "CircularSet":
        return cls([Arc.point(t, period) for t in points], period, merge_tol)

    def __bool__(self) -> bool:
        return bool(self.arcs)

    def __len__(self) -> int:
        return len(self.arcs)

    def __repr__(self) -> str:
        spans = ", ".join(f"[{a.start:.6f},{a.end:.6f}]" for a in self.arcs)
        return f"CircularSet({spans or 'empty'}; period={self.period:.6f})"

    def is_full(self) -> bool:
        return len(self.arcs) == 1 and self.arcs[0].is_full()

    @property
    def measure(self) -> float:
        return sum(a.length for a in self.arcs)

    def components(self) -> list[Arc]:
        """Maximal arcs in cyclic order, starting from the component
        containing or first following angle 0."""
        return list(self.arcs)

    def contains(self, t: float, tol: float = EPS_ANGLE) -> bool:
        return any(a.contains(t, tol) for a in self.arcs)

    def component_containing(self, t: float, tol: float = EPS_ANGLE) -> Arc | None:
        for a in self.arcs:
            if a.contains(t, tol):
                return a
        return None

    def distance_to(self, t: float) -> float:
        """Distance from t to the set (0 if inside)."""
        best = math.inf
        for a in self.arcs:
            if a.contains(t):
                return 0.0
            best = min(best, circle_dist(t, a.start, self.period),
                       circle_dist(t, a.end, self.period))
        return best

    def shifted(self, delta: float) -> "CircularSet":
        return CircularSet([a.shifted(delta) for a in self.arcs], self.period, merge_tol=0.0)

    def antipodal_image(self) -> "CircularSet":
        """The set shifted by half a period (rotation by pi when period=2*pi)."""
        return self.shifted(0.5 * self.period)

    def dilated(self, eps: float) -> "CircularSet":
        return CircularSet([a.dilated(eps) for a in self.arcs], self.period)

    def union(self, other: "CircularSet") -> "CircularSet":
        return CircularSet(self.arcs + other.arcs, self.period)

    def intersect_window(self, window: Arc) -> list[Arc]:
        out: list[Arc] = []
        for a in self.arcs:
            out.extend(a.intersections(window))
        return out

    def extremum_in_window(self, window: Arc, which: str) -> float:
        """Sup or inf of (set ∩ window) in the window's linear order.

        Raises EmptyIntersection when the set misses the window.
        """
        pieces = self.intersect_window(window)
        if not pieces:
            raise EmptyIntersection(f"set misses window [{window.start}, {window.end}]")
        positions: list[tuple[float, float]] = []
        for a in pieces:
            lo = window.position_of(a.start)
            positions.append((lo, lo + a.length))
        if which == "sup":
            pos = max(hi for _, hi in positions)
        elif which == "inf":
            pos = min(lo for lo, _ in positions)
        else:
            raise ValueError(f"which must be 'sup' or 'inf', got {which!r}")
        return canonical(window.start + pos, self.period)

    def drop_components_touching(self, other: "CircularSet", tol: float = EPS_GROUP) -> "CircularSet":
        """Remove whole components that intersect `other` dilated by tol."""
        fat = other.dilated(tol)
        keep = [a for a in self.arcs
                if not any(a.intersections(b) for b in fat.arcs)]
        return CircularSet(keep, self.period, merge_tol=0.0)

    def project_half(self) -> "CircularSet":
        """Image under the projection to the circle of half the period."""
        half = 0.5 * self.period
        arcs = []
        for a in self.arcs:
            if a.length >= half:
                return CircularSet.full(half)
            arcs.append(Arc(canonical(a.start, half), a.length, half))
        return CircularSet(arcs, half)

    def contained_in(self, other: "CircularSet", tol: float = EPS_GROUP) -> bool:
        """Every component of self lies inside `other` dilated by tol."""
        if not self.arcs:
            return True
        fat = other.dilated(tol)
        for a in self.arcs:
            inside = any(
                _arc_inside(a, b) for b in fat.arcs
            )
            if not inside:
                return False
        return True

    def set_equal(self, other: "CircularSet", tol: float = EPS_GROUP) -> bool:
        return self.contained_in(other, tol) and other.contained_in(self, tol)

    def disjoint_from(self, other: "CircularSet", tol: float = 0.0) -> bool:
        a = self.dilated(tol) if tol > 0 else self
        for x in a.arcs:
            for y in other.arcs:
                if x.intersections(y):
                    return False
        return True


def _arc_inside(a: Arc, b: Arc) -> bool:
    if b.is_full():
        return True
    off = forward_gap(b.start, a.start, b.period)
    return off <= b.length + EPS_ANGLE and off + a.length <= b.length + EPS_ANGLE


def _merge(arcs: Sequence[Arc], period: float, merge_tol: float) -> list[Arc]:
    arcs = [a for a in arcs if a is not None]
    if not arcs:
        return []
    if any(a.period != period for a in arcs):
        raise ValueError("mixed periods in one CircularSet")
    if any(a.is_full() for a in arcs):
        return [Arc.full(period)]
    items = sorted([a.start, a.start + a.length] for a in arcs)
    # merging around the wrap can create new adjacencies at the seam, so
    # iterate the linear + wraparound passes to a fixpoint
    for _ in range(len(items) + 2):
        merged: list[list[float]] = []  # [start, end_unwrapped]
        for s, e in items:
            if merged and s <= merged[-1][1] + merge_tol:
                merged[-1][1] = max(merged[-1][1], e)
            else:
                merged.append([s, e])
        wrapped = False
        if len(merged) > 1 and merged[0][0] + period <= merged[-1][1] + merge_tol:
            merged[0][0] = merged[-1][0] - period
            merged[0][1] = max(merged[0][1], merged[-1][1] - period)
            merged.pop()
            wrapped = True
        if len(merged) == len(items) and not wrapped:
            items = merged
            break
        items = sorted(merged)
    out = []
    for s, e in items:
        if e - s >= period - merge_tol:
            return [Arc.full(period)]
        out.append(Arc(canonical(s, period), e - s, period))
    out.sort(key=lambda a: a.start)
    return out
