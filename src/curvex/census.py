"""Chords, curve reductions, double tangents and the inflection census.

A double tangent interval is a zero of the two-equation tangency system
(the tangent line normal at one parameter annihilating position and
velocity at the other), Newton-refined from the lattice cells around
which that system's field winds and kept by one array pass of the
defining conditions (_failed_filters).  A chord is the short
great-circle arc between its ends; for each interval it keeps, the
detector checks the line that puts the chord in an affine chart (see
chord).  Replacing the arc by the chord yields the reduction, a
piecewise evaluator on which inflections are counted topologically
(crossing tangent lines), since the determinant criterion needs two
derivatives the junctions do not have.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .circle import (
    Arc,
    TWO_PI,
    canonical,
    circle_dists,
    cyclic_runs,
    forward_gap,
)
from .errors import DegenerateChord, LineCurve, NotAntiConvex, SelfIntersection
from .linesys import SCAN, LineSystem
from .sphere import (
    EPS_NORM,
    ProjectiveCurve,
    _cross3,
    _dot3,
    admissible_normal_arc,
    clean_inflections,
    true_inflections,
)
from .trig import newton2

NEWTON_RESIDUAL = 1e-11
DEDUPE_TOL = 1e-6
OFF_CHORD_MIN = 1e-7
OFF_CHORD_SAMPLES = 257  # arc samples tested against a candidate's chord
ESCAPE = 1e-7  # side-value band a tangent circle's walk must leave
ESCAPE_BAND = 16  # positions each way every walk reads at once
ESCAPE_BLOCK = 32  # tangent circles per block of the full walk
ESCAPE_SLACK = 1e-12  # margin to ESCAPE of a jump certificate or band verdict
GROUP_TOL = 1e-9  # neighbouring tangent normals this close form one run
FD_STEP = 1e-5  # central-difference step of the topological tangent
LATTICE_CELLS = 256  # lattice cells per half period in a that seed double tangents
GAP_MARGIN = 2 * math.pi / LATTICE_CELLS  # pairs keep a gap in (h, pi - h), h one cell
SIDE_STEPS = (1e-3, 2e-3, 4e-3, 8e-3, 1.6e-2)  # probes beyond each end of a chord
SIDE_MIN = 1e-9  # a probe's side value must exceed this to give the side
FILTERS = ("degenerate_chord", "on_chord", "side", "direction")  # _failed_filters


@dataclass(frozen=True)
class Chord:
    """Great-circle segment between two curve points."""

    a: float
    b: float
    pa: np.ndarray
    pb: np.ndarray
    normal: np.ndarray  # unit normal of the great circle through pa, pb

    @property
    def turn(self) -> float:
        """Signed rotation angle from pa to pb about the normal."""
        return math.atan2(float(np.dot(self.normal, _cross3(self.pa, self.pb))),
                          float(np.dot(self.pa, self.pb)))

    def points(self, fracs: np.ndarray) -> np.ndarray:
        """Points at an array of fractions of the way from pa to pb, as rows."""
        ang = self.turn * np.asarray(fracs, dtype=float)[..., None]
        axis_part = _cross3(self.normal, self.pa)
        return self.pa * np.cos(ang) + axis_part * np.sin(ang)


def chord(curve: ProjectiveCurve, a: float, b: float) -> Chord:
    """The short great-circle arc between the lifted points at a and b,
    which is the chord in an affine chart of the curve.

    At a point q of the complementary arc (b, a + pi) of an anti-convex
    curve, a line through q that meets the curve only at q is a great
    circle with the lifted arc (a, b) in one of its open hemispheres.
    A hemisphere holds the short arc between any two of its points, so
    the short arc is the segment that stays inside that line's chart;
    detect_double_tangents checks that the line exists."""
    pa, pb = curve.lift(a), curve.lift(b)
    cr = _cross3(pa, pb)
    ncr = float(np.linalg.norm(cr))
    if ncr < EPS_NORM:
        raise DegenerateChord(f"curve points at {a} and {b} are (anti)aligned")
    return Chord(a, b, pa, pb, cr / ncr)


@dataclass(frozen=True)
class DoubleTangentInterval:
    a: float  # in [0, pi)
    b: float  # in (a, a + pi)
    chord: Chord | None = None  # the detector's chord; None when built by hand

    @property
    def arc(self) -> Arc:
        return Arc(canonical(self.a, math.pi), self.b - self.a, math.pi)


class ReducedCurve:
    """The base curve with one parameter interval replaced by its chord,
    extended antiperiodically; continuous and tangent at the junctions."""

    def __init__(self, base: ProjectiveCurve, a: float, b: float,
                 check_simple: bool = True):
        self.base = base
        self.a = canonical(a)
        self.gap = forward_gap(a, b)
        if not 0.0 < self.gap < math.pi:
            raise ValueError("replaced interval must be shorter than a half period")
        self.chord = chord(base, self.a, canonical(b))
        if check_simple:
            self._assert_simple()

    def unit_many(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        off = np.mod(ts - self.a, TWO_PI)
        out = np.empty(ts.shape + (3,))
        on1 = off <= self.gap
        on2 = (off >= math.pi) & (off - math.pi <= self.gap)
        rest = ~(on1 | on2)
        if np.any(rest):
            out[rest] = self.base.lift_many(ts[rest])
        for mask, sign, shift in ((on1, 1.0, 0.0), (on2, -1.0, math.pi)):
            out[mask] = sign * self.chord.points((off[mask] - shift) / self.gap)
        return out

    def _assert_simple(self):
        """Fail when two of 512 samples on [0, pi), more than 0.05 apart in
        parameter, lie within 1e-4 of each other projectively."""
        n = 512
        ts = np.linspace(0.0, math.pi, n, endpoint=False)
        U = self.unit_many(ts)
        dots = np.abs(U @ U.T)
        close = dots > math.cos(1e-4)
        idx = np.arange(n)
        param_sep = np.minimum(np.abs(idx[:, None] - idx[None, :]),
                               n - np.abs(idx[:, None] - idx[None, :]))
        bad = close & (param_sep > int(0.05 / (math.pi / n)))
        if np.any(bad):
            i, j = np.argwhere(bad)[0]
            raise SelfIntersection(
                f"reduced curve nearly meets itself at t={ts[i]:.4f}, {ts[j]:.4f}")


def reduction(curve: ProjectiveCurve, a: float, b: float,
              check_simple: bool = True) -> ReducedCurve:
    """Replace the arc over [a, b] by its chord."""
    return ReducedCurve(curve, a, b, check_simple=check_simple)


# -- topological inflection counting ---------------------------------------


def _first_nonzero(walks: np.ndarray) -> np.ndarray:
    """Per row, the first nonzero entry, or 0 when there is none."""
    first = (walks != 0).argmax(axis=1)
    return walks[np.arange(len(walks)), first]


def _walk_blocks(N: np.ndarray, U: np.ndarray, starts, crossing: np.ndarray) -> None:
    """The full walk, which defines the count: set crossing for every
    sample of the blocks of ESCAPE_BLOCK samples that begin at starts."""
    # Row i of walk holds the escape signs of the side values sigma(p) of
    # the tangent circle at sample j = lo + i, at the full-circle positions
    # p in [-n, 2n) (index p + n), using sigma(p +- n) = -sigma(p).  The
    # walk visits p = j+1 .. j+n forward and p = j-1 .. j-n backward; the
    # latter is a window of the reversed row, whose index is 2n - 1 - p.
    n = len(U)
    for lo in starts:
        j = np.arange(lo, min(lo + ESCAPE_BLOCK, n))
        S = N[j] @ U.T
        side = (S > ESCAPE).view(np.int8) - (S < -ESCAPE).view(np.int8)
        walk = np.concatenate([-side, side, -side], axis=1)
        fwd = sliding_window_view(walk, n, axis=1)[j - lo, n + j + 1]
        bwd = sliding_window_view(walk[:, ::-1], n, axis=1)[j - lo, 2 * n - j]
        crossing[j] = _first_nonzero(fwd) * _first_nonzero(bwd) < 0


def _unit_rows(X: np.ndarray) -> np.ndarray:
    """The rows of X over their norms; LineCurve when a norm is below
    EPS_NORM or not finite."""
    norms = np.linalg.norm(X, axis=1)
    if not np.all(np.isfinite(norms) & (norms >= EPS_NORM)):
        raise LineCurve("degenerate tangent frame")
    return X / norms[:, None]


def _jumps(N: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Per sample, the offsets (ahead, behind) at which its walk leaves
    its run of tangent circles, or (1, 1) when it has none: an (n, 2)
    array whose entry n, the walk's end, means the run fills the walk.

    A run is a maximal cyclic stretch of samples whose neighbouring unit
    normals differ by at most GROUP_TOL, such as a chord; m is the normal
    of its middle sample and rho = max |m.U_p| over it.  For unit vectors
    N_j = cos(th) m + sin(th) w with w a unit vector normal to m, so
    |N_j.V_p| <= |m.V_p| + |N_j x m| for the positions V_p = +-U_p of the
    run.  When |N_j x m| + rho + ESCAPE_SLACK <= ESCAPE, no position of
    the run escapes the walk from sample j; the rounding of a 3-term dot
    product of unit vectors is below 1e-15, far inside the slack."""
    n = len(N)
    jumps = np.ones((n, 2), dtype=np.intp)
    runs = cyclic_runs(np.linalg.norm(np.roll(N, -1, axis=0) - N, axis=1) <= GROUP_TOL)
    if not runs:
        return jumps
    starts, links = np.array(runs).T
    lengths = np.minimum(links + 1, n)  # samples per run
    run = np.repeat(np.arange(len(runs)), lengths)
    heads = np.cumsum(lengths) - lengths  # where each run begins in idx
    w = np.arange(len(run)) - heads[run]
    idx = (starts[run] + w) % n
    m = N[(starts + lengths // 2) % n][run]
    rho = np.maximum.reduceat(np.abs(_rowdot(m, U[idx])), heads)
    tilt = np.linalg.norm(_cross3(N[idx], m), axis=1)
    ok = tilt + rho[run] + ESCAPE_SLACK <= ESCAPE
    ahead, behind = lengths[run] - w, w + 1
    if links[0] == n:  # one run linked all the way round
        ahead = behind = np.full(n, n)
    jumps[idx[ok]] = np.stack([ahead, behind], axis=1)[ok]
    return jumps


def count_inflections_topological(unit_many, n_grid: int = 2048) -> tuple[int, list[float]]:
    """Independent true inflections of a piecewise-smooth antiperiodic
    evaluator of unit vectors, by crossing tests of tangent great circles.

    At each sample the side function of the tangent circle is walked
    outward along the full circle of samples [U; -U], n_grid steps each
    way, until it escapes the band ESCAPE; opposite escape signs mean the
    tangent circle crosses there.  Consecutive crossing samples (e.g. a
    whole chord segment of a reduction) group into one independent
    inflection.

    The walks stop at their first escape, read in three stages:
    - a sample on a run of (nearly) equal tangent normals, such as a
      chord, jumps past the run when the bound of _jumps certifies that
      no side value on the run escapes;
    - the band: for every sample at once, the side values of the next
      ESCAPE_BAND positions each way after its jump, from one gathered
      dot product;
    - the blocks of ESCAPE_BLOCK samples that hold a walk the band leaves
      open, or whose first band value lies within ESCAPE_SLACK of the
      band edge, run the full walk (_walk_blocks), as the count was
      defined.
    A band verdict outside the slack is the full walk's, since the two
    dot products round apart by far less, so the count is the full
    walk's on any evaluator.  LineCurve when a tangent or normal of the
    finite-difference frame is shorter than EPS_NORM or not finite.
    """
    ts = np.linspace(0.0, math.pi, n_grid, endpoint=False)
    U, U_fwd, U_bwd = np.split(unit_many(np.concatenate([ts, ts + FD_STEP, ts - FD_STEP])), 3)
    N = _unit_rows(_cross3(U, _unit_rows(U_fwd - U_bwd)))

    # off[j, 0] holds the forward offsets of sample j's band, off[j, 1]
    # the backward ones, clipped at the walk's end n, which is read again
    # in their place; the full circle of positions p in [-n, 2n] is
    # [-U; U; -U] at index p + n, as in _walk_blocks
    n = n_grid
    off = _jumps(N, U)[:, :, None] + np.arange(ESCAPE_BAND)
    np.minimum(off, n, out=off)
    off[:, 1] *= -1
    at = np.arange(n, 2 * n)[:, None, None] + off
    S = (np.take(np.concatenate([-U, U, -U]), at.reshape(n, -1), axis=0)
         @ N[:, :, None]).reshape(off.shape)
    # a walk ends at its first value above ESCAPE - ESCAPE_SLACK; it stays
    # open when that value lies within the slack of ESCAPE, or when there
    # is none and the band stops short of the walk's end
    stop = np.abs(S) > ESCAPE - ESCAPE_SLACK
    first = np.take_along_axis(S, stop.argmax(axis=2)[..., None], axis=2)[..., 0]
    hit = np.abs(first) > ESCAPE - ESCAPE_SLACK
    settled = np.where(hit, np.abs(first) > ESCAPE + ESCAPE_SLACK,
                       np.abs(off[:, :, -1]) == n)
    crossing = hit.all(axis=1) & (first[:, 0] * first[:, 1] < 0)
    open_rows = np.nonzero(~settled.all(axis=1))[0]
    if len(open_rows):
        _walk_blocks(N, U, np.unique(open_rows // ESCAPE_BLOCK) * ESCAPE_BLOCK, crossing)

    if crossing.all():
        return 1, [0.0]
    params = [float(ts[((2 * start + length - 1) // 2) % n_grid])
              for start, length in cyclic_runs(crossing)]
    return len(params), params


# -- double tangent detection ----------------------------------------------


@dataclass
class DetectionResult:
    """Unpacks as (intervals, dropped), the pair a2_double_tangents gives."""

    intervals: list[DoubleTangentInterval]
    dropped_by: dict = field(default_factory=dict)  # diverged, outside_band, FILTERS
    newton: dict = field(default_factory=dict)  # tangent_pairs' Newton counters

    dropped = property(lambda self: sum(self.dropped_by.values()))

    def __iter__(self):
        return iter((self.intervals, self.dropped))

    def __getitem__(self, i):
        return tuple(self)[i]


def _rowdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (m, 3) arrays, each rounded exactly
    like np.dot of the two rows (stacked matmul takes the same BLAS dot
    per row; einsum and (x * y).sum(1) round differently)."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def _tangency_system(curve: ProjectiveCurve):
    """The residual (n(a).F(b), n(a).F'(b)) and its Jacobian, for newton2:
    one curve.jet call per step gives F, F' and F'' at both ends."""

    def system(a, b):
        jet = curve.jet(np.concatenate([a, b])).reshape(2, len(a), 3, 3)
        (fa, f1a, f2a), (fb, f1b, f2b) = jet.transpose(0, 2, 1, 3)
        n = _cross3(fa, f1a)
        r1, r2 = _rowdot(n, fb), _rowdot(n, f1b)
        scale = np.sqrt(_rowdot(n, n)) * np.sqrt(_rowdot(fb, fb))
        done = (np.abs(r1) + np.abs(r2)) / scale < NEWTON_RESIDUAL
        run = ~done
        n, fb, f1b, r1, r2 = n[run], fb[run], f1b[run], r1[run], r2[run]
        dn = _cross3(fa[run], f2a[run])
        J = np.empty((len(r1), 2, 2))
        J[:, 0, 0] = _rowdot(dn, fb)
        J[:, 0, 1] = r2
        J[:, 1, 0] = _rowdot(dn, f1b)
        J[:, 1, 1] = _rowdot(n, f2b[run])
        return done, J, np.stack([r1, r2], axis=1)
    return system


def _first_distinct(close: np.ndarray) -> np.ndarray:
    """The rows a pass in order keeps when it drops each row close to an
    earlier kept one (close[i, j] for j < i): decided from the earliest
    undecided rows on, one array step per link of the longest chain."""
    kept = np.zeros(len(close), dtype=bool)
    out = np.zeros(len(close), dtype=bool)
    while not (kept | out).all():
        kept |= ~(close & ~out).any(axis=1)
        out |= (close & kept).any(axis=1)
    return kept


def tangent_pairs(a0, b0, system) -> tuple[list[tuple[float, float]], int, dict]:
    """Solve the seeds (a0[i], b0[i]) with newton2 on the system and keep
    the solutions whose forward gap lies in (GAP_MARGIN/2, pi - GAP_MARGIN/2),
    deduplicated as (a mod pi, gap) pairs in seed order; returns them
    sorted, with the number of seeds that failed or landed outside and
    the Newton counters (seeds, converged, steps: the system calls)."""
    steps = 0

    def counted(a, b):
        nonlocal steps
        steps += 1
        return system(a, b)

    sol_a, sol_b, converged = newton2(counted, a0, b0)
    ends = [(a, forward_gap(a, b)) for a, b, ok in
            zip(sol_a.tolist(), sol_b.tolist(), converged.tolist()) if ok]
    rows = [(canonical(a, math.pi), gap) for a, gap in ends
            if GAP_MARGIN * 0.5 < gap < math.pi - GAP_MARGIN * 0.5]
    a, gap = np.array(rows).reshape(-1, 2).T
    # close[i, j], j < i: row i lies within DEDUPE_TOL of the earlier row j
    i, j = np.nonzero(np.tril(np.abs(gap[:, None] - gap) < DEDUPE_TOL, -1))
    near = circle_dists(a[i], a[j], math.pi) < DEDUPE_TOL
    close = np.zeros((len(rows), len(rows)), dtype=bool)
    close[i[near], j[near]] = True
    found = [rows[k] for k in np.flatnonzero(_first_distinct(close))]
    newton = {"seeds": converged.size, "converged": len(ends), "steps": steps}
    return sorted(found), converged.size - len(rows), newton


def _failed_filters(curve: ProjectiveCurve, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per candidate (a[k], b[k]), the index in FILTERS of the first
    condition beyond tangency it fails, or len(FILTERS) when it passes:
    its chord exists (chord), an arc point of OFF_CHORD_SAMPLES leaves it
    by more than OFF_CHORD_MIN, the arc lies on one side of it just beyond
    both ends (at the first of the SIDE_STEPS probes whose side value
    exceeds SIDE_MIN), and the tangent directions along it at the ends
    agree.  Elementwise (_dot3, _cross3): each is decided as if alone.
    The middle arc sample is lifted with the side probes; it is one of the
    OFF_CHORD_SAMPLES, so only a candidate it leaves within OFF_CHORD_MIN
    needs the others to settle on_chord."""
    k, steps = len(a), np.array(SIDE_STEPS)
    fracs = np.linspace(0.0, 1.0, OFF_CHORD_SAMPLES)
    ts = np.concatenate([a[:, None] + fracs[OFF_CHORD_SAMPLES // 2] * (b - a)[:, None],
                         a[:, None] - steps, b[:, None] + steps], axis=1)
    P = curve.lift_many(ts.ravel()).reshape(ts.shape + (3,))
    F, F1, _ = np.split(curve.jet(np.concatenate([a, b])).reshape(2, k, 9), 3, axis=2)
    ends = F / np.sqrt(_dot3(F, F))[..., None]
    cr = _cross3(ends[0], ends[1])
    ncr = np.sqrt(_dot3(cr, cr))
    normal = cr / np.maximum(ncr, EPS_NORM)[:, None]
    off = np.abs(_dot3(P[:, 0], normal))
    near = np.flatnonzero(off <= OFF_CHORD_MIN)
    if len(near):
        arc = a[near, None] + fracs * (b - a)[near, None]
        Q = curve.lift_many(arc.ravel()).reshape(arc.shape + (3,))
        off[near] = np.abs(_dot3(Q, normal[near, None])).max(axis=1)
    side = _dot3(P[:, 1:], normal[:, None]).reshape(k, 2, len(steps))
    big = np.abs(side) > SIDE_MIN
    sign = np.sign(np.take_along_axis(side, big.argmax(axis=2)[..., None], axis=2)[..., 0])
    sa, sb = np.where(big.any(axis=2), sign, 0.0).T
    turn = _dot3(_cross3(normal, ends), F1)
    fails = np.stack([ncr < EPS_NORM, off <= OFF_CHORD_MIN, (sa == 0.0) | (sa != sb),
                      turn[0] * turn[1] <= 0.0])
    return np.where(fails.any(axis=0), fails.argmax(axis=0), len(FILTERS))


def _winding_cells(g: np.ndarray, gb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cells (i, m), in np.nonzero order, around which the field
    (g, gb) of the nodes (i, m) winds, row 0 turned by pi closing the
    lattice.  The winding, the sum of the wrapped angle differences along
    a cell's edges, is read only where no component has one strict sign
    at the four corners, which puts the field in an open half-plane."""
    read = True
    for x in (g, gb):
        pos, neg = x > 0.0, x < 0.0
        for s in (np.concatenate([pos, neg[:1]]), np.concatenate([neg, pos[:1]])):
            s = s[:, :-1] & s[:, 1:]
            read = read & ~(s[:-1] & s[1:])
    i, m = np.nonzero(read)
    # the corners (i, m), (i, m + 1), (i + 1, m), (i + 1, m + 1) of each cell
    rows, cols = np.stack([i, i, i + 1, i + 1]) % len(g), np.stack([m, m + 1, m, m + 1])
    theta = np.arctan2(gb[rows, cols], g[rows, cols])
    theta[2:, i + 1 == len(g)] += math.pi  # the closing row
    along, across, along_b, across_b = (d - TWO_PI * np.rint(d / TWO_PI) for d in (
        theta[1] - theta[0], theta[3] - theta[1], theta[3] - theta[2], theta[2] - theta[0]))
    keep = np.abs(along + across - along_b - across_b) > math.pi  # multiples of 2 pi
    return i[keep], m[keep]


def _cell_seeds(curve: ProjectiveCurve,
                cells: int = LATTICE_CELLS) -> tuple[np.ndarray, np.ndarray]:
    """Newton seeds (a0, b0) for the double tangents of the curve: the
    centres of the cells of the lattice a = i h, b = a + m h, h = pi/cells,
    0 < m < cells, around which the field (g, dg/db), g(a, b) = n(a).F(b),
    n = F x F', winds, as it does around each zero inside.  The lattice
    closes at a = pi on the a = 0 row turned by pi, as n(a + pi) = n(a)
    and F(b + pi) = -F(b); the bands m = 0, cells it leaves out hold the
    double zero at b = a, a + pi.  The nodes are skewed views of n @ F.T
    and n @ F1.T (row stride plus one column)."""
    h = math.pi / cells
    F, F1, _ = np.split(curve.jet(np.arange(2 * cells) * h), 3, axis=1)
    n = _cross3(F[:cells], F1[:cells])
    g, gb = (as_strided(G[:, 1:], (cells, cells - 1), (G.strides[0] + G.itemsize, G.itemsize),
                        writeable=False) for G in (n @ F.T, n @ F1.T))
    i, m = _winding_cells(g, gb)
    a0 = (i + 0.5) * h
    return a0, a0 + (m + 1.5) * h


def detect_double_tangents(curve: ProjectiveCurve, grid=()) -> DetectionResult:
    """All double tangent intervals on the projective line
    (_double_tangents), with their chords' charts checked.  Each kept
    interval takes its chord from chord: the short arc, which needs a
    line through the middle q of the complementary arc (b, a + pi) that
    meets the curve only at q.  One admissible_normal_arc call checks
    every q, then the bases grid, and raises NotAntiConvex at the first
    base without an arc."""
    found = _double_tangents(curve)
    bases = [canonical(iv.b + 0.5 * forward_gap(iv.b, iv.a + math.pi))
             for iv in found.intervals] + list(grid)
    for t, (arc, _) in zip(bases, admissible_normal_arc(curve, bases) if bases else []):
        if arc is None:
            raise NotAntiConvex(t)
    return found


def _double_tangents(curve: ProjectiveCurve) -> DetectionResult:
    """detect_double_tangents without the chart check, which a lift
    (width.a2_double_tangents) passes by construction.  newton2 solves
    the tangency system from the _cell_seeds of the curve; converged
    pairs are deduplicated and decided by one filter pass, and each kept
    pair takes its chord from chord."""
    found, dropped, newton = tangent_pairs(*_cell_seeds(curve), _tangency_system(curve))
    a, gap = np.array(found).reshape(-1, 2).T
    b = a + gap
    failed = _failed_filters(curve, a, b)
    keep = failed == len(FILTERS)
    intervals = [DoubleTangentInterval(x, y, chord(curve, x, y))
                 for x, y in zip(a[keep].tolist(), b[keep].tolist())]
    diverged = newton["seeds"] - newton["converged"]
    dropped_by = {"diverged": diverged, "outside_band": dropped - diverged,
                  **dict(zip(FILTERS, np.bincount(failed, minlength=len(FILTERS)).tolist()))}
    return DetectionResult(intervals, dropped_by, newton)


# -- independent (laminar) families -----------------------------------------


def _compatible(x: Arc, y: Arc, tol: float = 1e-9) -> bool:
    """Disjoint, or the closure of one inside the other."""
    period = x.period

    def inside(inner: Arc, outer: Arc) -> bool:
        off = forward_gap(outer.start, inner.start, period)
        return off >= -tol and off + inner.length <= outer.length + tol

    if inside(x, y) or inside(y, x):
        return True
    gap_xy = forward_gap(x.end, y.start, period)
    gap_yx = forward_gap(y.end, x.start, period)
    return gap_xy + gap_yx <= period - x.length - y.length + tol \
        and gap_xy > tol and gap_yx > tol


def _compatibility(intervals: list[DoubleTangentInterval]):
    """The intervals' arcs and their pairwise compatibility matrix."""
    arcs = [iv.arc for iv in intervals]
    return arcs, [[_compatible(x, y) for y in arcs] for x in arcs]


def maximal_independent_family(intervals: list[DoubleTangentInterval],
                               max_exact: int = 20) -> list[DoubleTangentInterval]:
    """A maximum-cardinality pairwise-compatible subfamily (exact for
    small inputs, greedy beyond); ties prefer shorter intervals."""
    n = len(intervals)
    arcs, comp = _compatibility(intervals)
    order = sorted(range(n), key=lambda i: arcs[i].length)
    if n <= max_exact:
        best: list[int] = []

        def grow(chosen: list[int], rest: list[int]):
            nonlocal best
            if len(chosen) + len(rest) <= len(best):
                return
            if not rest:
                if len(chosen) > len(best):
                    best = chosen[:]
                return
            head, tail = rest[0], rest[1:]
            grow(chosen + [head], [r for r in tail if comp[head][r]])
            grow(chosen, tail)

        grow([], order)
        return [intervals[i] for i in best]
    return [intervals[i] for i in greedy_maximal_indices(comp, order)]


def greedy_maximal_indices(comp: list[list[bool]], order: list[int]) -> list[int]:
    chosen: list[int] = []
    for i in order:
        if all(comp[i][j] for j in chosen):
            chosen.append(i)
    return chosen


def greedy_maximal_family(intervals: list[DoubleTangentInterval],
                          start: int = 0) -> list[DoubleTangentInterval]:
    """Inclusion-maximal compatible family grown from a rotated order;
    by the census identity its size must match the optimum."""
    n = len(intervals)
    _, comp = _compatibility(intervals)
    order = [(start + k) % n for k in range(n)]
    return [intervals[i] for i in greedy_maximal_indices(comp, order)]


# -- the census --------------------------------------------------------------


@dataclass
class CensusReport:
    kind: str
    i: int
    delta: int
    identity_holds: bool
    inflection_points: list[float]
    clean_points: list[float]
    double_tangents: list[tuple[float, float]]
    warnings: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)  # the detection's, for the sidecar

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "i": self.i,
            "delta": self.delta,
            "identity_holds": self.identity_holds,
            "inflection_points": self.inflection_points,
            "clean_points": self.clean_points,
            "double_tangents": [[a, b] for a, b in self.double_tangents],
            "warnings": self.warnings,
        }


def census_report(kind: str, flexes, detection: DetectionResult,
                  clean_points) -> CensusReport:
    """The report of a census: the crossing inflection entries flexes,
    counted as independent inflections, a maximal independent family of
    the detection's intervals, the identity check i - 2*delta = 3 and
    the clean points as given.  It warns of a greedy family (grown from
    the middle) whose size differs from the optimum's.  It carries the
    detection's counters outside its JSON: newton, dropped_candidates and
    dropped_by."""
    intervals = detection.intervals
    family = maximal_independent_family(intervals)
    warnings = {}
    cross = greedy_maximal_family(intervals, start=len(intervals) // 2)
    if len(cross) != len(family):
        warnings["greedy_family_mismatch"] = len(cross)
    i, delta = len(flexes), len(family)
    return CensusReport(kind=kind, i=i, delta=delta, identity_holds=(i - 2 * delta == 3),
                        inflection_points=[e.parameter for e in flexes],
                        clean_points=list(clean_points),
                        double_tangents=[(iv.a, iv.b) for iv in family], warnings=warnings,
                        counters={"newton": detection.newton,
                                  "dropped_candidates": detection.dropped,
                                  "dropped_by": detection.dropped_by})


def census(curve: ProjectiveCurve, system: LineSystem | None = None) -> CensusReport:
    """Counts of independent inflections and double tangents with the
    identity check i - 2*delta = 3.  With or without a line system, the
    detector's one admissible_normal_arc call checks anti-convexity at
    the intervals it keeps, then at the SCAN // 2 bases of
    linspace(0, pi, SCAN // 2), keyed as a line system keys the first
    half of linspace(0, 2 pi, SCAN); the first base without an arc raises
    NotAntiConvex.  The circles at t + pi are those at t with theta read
    as pi - theta, so this checks each projective point once.  Given the
    curve's line system, the report also carries, sorted, the three clean
    inflections that sphere.clean_inflections picks and checks on it.  A
    support's lift needs no such check, as the great circle through the
    pole meets it only at the base and its antipode, so the width census
    runs _double_tangents, the detector without it."""
    flexes = [e for e in true_inflections(curve).entries if e.crossing]
    grid = [round(canonical(t), 12)
            for t in np.linspace(0.0, math.pi, SCAN // 2, endpoint=False)]
    found = detect_double_tangents(curve, grid)
    clean = [] if system is None else sorted(t for t, _ in clean_inflections(curve, system, flexes))
    return census_report("sphere-census", flexes, found, clean)
