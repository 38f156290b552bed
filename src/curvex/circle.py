"""Cyclic-order arithmetic on a circle and closed subsets as unions of arcs.

Angles live on R/(period Z); the default period is 2*pi (the parameter
circle of a lifted curve) and period pi is used for the projective
quotient.  A closed subset is kept as the sorted spans of its pairwise
disjoint arcs, merged within a grouping tolerance so that numerically
fragmented contact sets collapse to their true components.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
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


def canonicals(t: np.ndarray, period: float = TWO_PI) -> np.ndarray:
    """canonical elementwise over an array, rounded as it rounds."""
    t = np.fmod(t, period)
    t[t < 0.0] += period
    t[period - t < EPS_ANGLE] = 0.0
    return t


def circle_dists(a: np.ndarray, b: np.ndarray, period: float = TWO_PI) -> np.ndarray:
    """circle_dist elementwise over broadcast arrays, rounded as it rounds."""
    d = canonicals(b - a, period)
    return np.minimum(d, period - d)


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
        return _holds(self.start, self.length, t, tol, self.period)

    def position_of(self, t: float) -> float:
        """Offset of t from start along the arc orientation (in [0, period))."""
        return forward_gap(self.start, t, self.period)

    def shifted(self, delta: float) -> "Arc":
        return Arc(self.start + delta, self.length, self.period)

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


def admissible_arcs(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each row of the (n, m) arrays A and B, the open arc of angles
    theta with cos(theta) A[j] + sin(theta) B[j] < 0 for every j, as the
    (start, length) of its closure, the floats its Arc would hold, with
    length -1 where there is none.  Sample j rules out the closed half
    circle centred on atan2(B[j], A[j]) (all of it when A[j] = B[j] = 0),
    so the arc is the middle of the one cyclic gap wider than pi between
    neighbouring directions."""
    phi = np.sort(np.arctan2(B, A), axis=1)
    gaps = np.diff(phi, axis=1, append=phi[:, :1] + TWO_PI)
    i = np.argmax(gaps, axis=1)
    rows = np.arange(len(phi))
    widest = gaps[rows, i]
    ok = (widest > math.pi) & ~np.any((A == 0.0) & (B == 0.0), axis=1)
    return (np.where(ok, canonicals(phi[rows, i] + 0.5 * math.pi), 0.0),
            np.where(ok, widest - math.pi, -1.0))


class CircularSet:
    """A closed subset of the circle: pairwise-disjoint maximal arcs, held
    as spans, the (start, length) floats of their Arcs, sorted by start;
    Arc objects are built only when asked for."""

    __slots__ = ("spans", "period")

    def __init__(self, arcs: Sequence[Arc], period: float = TWO_PI, merge_tol: float = EPS_GROUP):
        arcs = [a for a in arcs if a is not None]
        if any(a.period != period for a in arcs):
            raise ValueError("mixed periods in one CircularSet")
        self.period = period
        self.spans = _merge([(a.start, a.length) for a in arcs], period, merge_tol)

    @classmethod
    def _of(cls, spans, period: float, merge_tol: float) -> "CircularSet":
        """The set of canonical (start, length) spans, merged as arcs are."""
        return cls._wrap(_merge(spans, period, merge_tol), period)

    @classmethod
    def _wrap(cls, spans: tuple, period: float) -> "CircularSet":
        """The set of spans already merged, as they are."""
        s = cls.__new__(cls)
        s.period, s.spans = period, spans
        return s

    @classmethod
    def empty(cls, period: float = TWO_PI) -> "CircularSet":
        return cls((), period)

    @classmethod
    def from_points(cls, points: Iterable[float], period: float = TWO_PI,
                    merge_tol: float = EPS_GROUP) -> "CircularSet":
        return cls._of([(canonical(t, period), 0.0) for t in points], period, merge_tol)

    @property
    def arcs(self) -> tuple[Arc, ...]:
        return tuple(Arc(s, n, self.period) for s, n in self.spans)

    def __bool__(self) -> bool:
        return bool(self.spans)

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:
        spans = ", ".join(f"[{a.start:.6f},{a.end:.6f}]" for a in self.arcs)
        return f"CircularSet({spans or 'empty'}; period={self.period:.6f})"

    def is_full(self) -> bool:
        return len(self.spans) == 1 and self.spans[0][1] >= self.period - EPS_ANGLE

    @property
    def measure(self) -> float:
        return sum(n for _, n in self.spans)

    def components(self) -> list[Arc]:
        """Maximal arcs sorted by start in [0, period); a component that
        wraps past 0 starts last, so it comes last."""
        return list(self.arcs)

    def contains(self, t: float, tol: float = EPS_ANGLE) -> bool:
        return any(_holds(s, n, t, tol, self.period) for s, n in self.spans)

    def component_containing(self, t: float, tol: float = EPS_ANGLE) -> Arc | None:
        return next((Arc(s, n, self.period) for s, n in self.spans
                     if _holds(s, n, t, tol, self.period)), None)

    def distance_to(self, t: float) -> float:
        """Distance from t to the set (0 if inside)."""
        if self.contains(t):
            return 0.0
        return min((circle_dist(t, end, self.period) for s, n in self.spans
                    for end in (s, canonical(s + n, self.period))), default=math.inf)

    def shifted(self, delta: float) -> "CircularSet":
        return CircularSet._of([(canonical(s + delta, self.period), n) for s, n in self.spans],
                               self.period, 0.0)

    def antipodal_image(self) -> "CircularSet":
        """The set shifted by half a period (rotation by pi when period=2*pi)."""
        return self.shifted(0.5 * self.period)

    def dilated(self, eps: float) -> "CircularSet":
        return CircularSet._of([(canonical(s - eps, self.period), min(n + 2.0 * eps, self.period))
                                for s, n in self.spans], self.period, EPS_GROUP)

    def intersect_window(self, window: Arc) -> list[Arc]:
        out: list[Arc] = []
        for a in self.arcs:
            out.extend(a.intersections(window))
        return out

    def extremum_in_window(self, window: Arc, which: str) -> float:
        """Sup or inf of (set ∩ window) in the window's linear order; raises
        EmptyIntersection when the set misses the window."""
        pieces = self.intersect_window(window)
        if not pieces:
            raise EmptyIntersection(f"set misses window [{window.start}, {window.end}]")
        los = [window.position_of(a.start) for a in pieces]
        if which == "sup":
            pos = max(lo + a.length for lo, a in zip(los, pieces))
        elif which == "inf":
            pos = min(los)
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
        if any(n >= half for _, n in self.spans):
            return CircularSet([Arc.full(half)], half)
        return CircularSet._of([(canonical(s, half), n) for s, n in self.spans], half, EPS_GROUP)

    def contained_in(self, other: "CircularSet", tol: float = EPS_GROUP) -> bool:
        """Every component of self lies inside `other` dilated by tol.  The
        components of the dilation lie more than EPS_GROUP apart, so only
        the last one starting at or before a component, or the next one
        (canonical snaps a start by up to EPS_ANGLE), can hold it."""
        fat, period = other.dilated(tol), self.period
        if not fat.spans:
            return not self.spans
        starts = [s for s, _ in fat.spans]
        for s, n in self.spans:
            k = bisect_right(starts, s) - 1
            for b, m in (fat.spans[k], fat.spans[(k + 1) % len(starts)]):
                off = forward_gap(b, s, period)
                if m >= period - EPS_ANGLE or off <= m + EPS_ANGLE and off + n <= m + EPS_ANGLE:
                    break
            else:
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


def _holds(start: float, length: float, t: float, tol: float, period: float) -> bool:
    """Arc.contains on a span."""
    if length >= period - EPS_ANGLE:
        return True
    off = forward_gap(start, t, period)
    return off <= length + tol or off >= period - tol


def _merge(spans, period: float, merge_tol: float) -> tuple[tuple[float, float], ...]:
    """Canonical (start, length) spans merged into sorted maximal ones,
    joining those at most merge_tol apart: a linear pass over the sorted
    [start, unwrapped end] pairs, and while the last run reaches round to
    the first, a join at the seam and another pass."""
    if any(n >= period - EPS_ANGLE for _, n in spans):
        return ((0.0, period),)
    items = _runs(sorted([s, s + n] for s, n in spans), merge_tol)
    while len(items) > 1 and items[0][0] + period <= items[-1][1] + merge_tol:
        s, e = items.pop()
        items = _runs([[s - period, max(items[0][1], e - period)]] + items[1:], merge_tol)
    if any(e - s >= period - merge_tol for s, e in items):
        return ((0.0, period),)
    return tuple(sorted(((canonical(s, period), e - s) for s, e in items), key=lambda a: a[0]))


def _runs(items, merge_tol: float) -> list[list[float]]:
    """One linear pass of _merge: each run of sorted items that start at
    most merge_tol past the running end, as [start, end]."""
    runs: list[list[float]] = []
    for s, e in items:
        if runs and s <= runs[-1][1] + merge_tol:
            runs[-1][1] = max(runs[-1][1], e)
        else:
            runs.append([s, e])
    return runs


# -- span tables: many sets as arrays, one set per row ----------------------
#
# A table is a pair (start, length) of (rows, width >= 1) arrays, each
# row's spans padded with NaN at its end.  Each *_rows function does what
# the method or helper it names does to each row's set, with the same
# float operations, so it gives the same floats and answers.


def span_table(sets) -> tuple[np.ndarray, np.ndarray]:
    """The spans of the sets, one row each."""
    spans = [s.spans for s in sets]
    counts = np.fromiter(map(len, spans), int, len(spans))
    flat = np.fromiter(chain.from_iterable(chain.from_iterable(spans)), float, 2 * counts.sum())
    tab = np.full((2, len(spans), max(1, counts.max(initial=0))), math.nan)
    cols = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    tab[:, np.repeat(np.arange(len(spans)), counts), cols] = flat.reshape(-1, 2).T
    return tab[0], tab[1]


def row_sets(tab, period: float) -> list[CircularSet]:
    """The sets of a table whose rows are merged already, as merged_rows
    leaves them, without merging them again: span_table's inverse."""
    start, length = tab
    counts = np.count_nonzero(~np.isnan(start), axis=1).tolist()
    return [CircularSet._wrap(tuple(zip(s[:k], n[:k])), period)
            for s, n, k in zip(start.tolist(), length.tolist(), counts)]


def holds_rows(start, length, t, tol: float, period: float) -> np.ndarray:
    """_holds elementwise over broadcast arrays."""
    off = canonicals(t - start, period)
    return (length >= period - EPS_ANGLE) | (off <= length + tol) | (off >= period - tol)


def merged_rows(start, length, period: float, merge_tol: float):
    """_merge on every row: a linear pass keeps a running max of the sorted
    ends, and a row whose last run reaches round to its first joins them
    at the seam and passes again."""
    order = np.argsort(start, axis=1, kind="stable")
    s = np.take_along_axis(start, order, axis=1)
    e = s + np.take_along_axis(length, order, axis=1)
    full, rows = np.any(length >= period - EPS_ANGLE, axis=1), np.arange(len(s))
    while True:
        valid = ~np.isnan(s)
        reach = np.maximum.accumulate(np.where(valid, e, -math.inf), axis=1)
        new = valid.copy()
        new[:, 1:] &= ~(s[:, 1:] <= reach[:, :-1] + merge_tol)
        last = valid & np.append(new[:, 1:] | ~valid[:, 1:], np.ones((len(s), 1), bool), axis=1)
        run = np.cumsum(new, axis=1) - 1
        runs = np.full((2, len(s), max(1, run[:, -1].max(initial=0) + 1)), math.nan)
        runs[0][new.nonzero()[0], run[new]] = s[new]
        runs[1][last.nonzero()[0], run[last]] = reach[last]
        (s, e), k = runs, run[:, -1]  # k: each row's last run
        seam = (k > 0) & (s[:, 0] + period <= e[rows, k] + merge_tol)
        if not seam.any():
            break
        r, k = rows[seam], k[seam]
        s[r, 0], e[r, 0] = s[r, k] - period, np.maximum(e[r, 0], e[r, k] - period)
        s[r, k] = e[r, k] = math.nan
    full |= np.any(e - s >= period - merge_tol, axis=1)
    start, length = canonicals(s, period), e - s
    order = np.argsort(start, axis=1, kind="stable")
    s, length = np.take_along_axis(start, order, axis=1), np.take_along_axis(length, order, axis=1)
    s[full], length[full] = math.nan, math.nan
    s[full, 0], length[full, 0] = 0.0, period
    return s, length


def dilated_rows(tab, eps: float, period: float):
    """CircularSet.dilated on every row."""
    return merged_rows(canonicals(tab[0] - eps, period), np.minimum(tab[1] + 2.0 * eps, period),
                       period, EPS_GROUP)


def projected_rows(tab, period: float):
    """CircularSet.project_half on every row."""
    return merged_rows(canonicals(tab[0], 0.5 * period), tab[1], 0.5 * period, EPS_GROUP)


def contained_rows(tab, fat, period: float) -> np.ndarray:
    """CircularSet.contained_in on every row, given fat, the other table
    already dilated."""
    (s, n), (b, m) = tab, fat
    count = np.count_nonzero(~np.isnan(b), axis=1)[:, None]
    k = np.count_nonzero(b[:, None, :] <= s[:, :, None], axis=2) - 1
    k = np.where(k < 0, count - 1, k)
    inside = np.isnan(s)
    for j in (k, (k + 1) % np.maximum(count, 1)):
        bj, mj = np.take_along_axis(b, j, axis=1), np.take_along_axis(m, j, axis=1)
        off = canonicals(s - bj, period)
        inside |= (mj >= period - EPS_ANGLE) | (off <= mj + EPS_ANGLE) & (off + n <= mj + EPS_ANGLE)
    return inside.all(axis=1)


def equal_rows(a, b, fat_a, fat_b, period: float) -> tuple[np.ndarray, np.ndarray]:
    """CircularSet.set_equal on every row, given fat_a and fat_b, the two
    tables dilated by the tolerance, and which rows had a dilation that
    joined components."""
    joined = [np.count_nonzero(~np.isnan(f[0]), axis=1) < np.count_nonzero(~np.isnan(x[0]), axis=1)
              for x, f in ((a, fat_a), (b, fat_b))]
    return contained_rows(a, fat_b, period) & contained_rows(b, fat_a, period), joined[0] | joined[1]
