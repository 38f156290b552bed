"""Acceptance suite: one test per top-level acceptance criterion.

Each test checks its criterion at the stated tolerance against
independent oracles (dense-grid sign counts, finite differences,
refinement-free scans) and prints a PASS line; run with -s to see them.
"""

import json
import math

import numpy as np

from curvex.census import (
    anti_convexity_grid_test,
    census,
    count_inflections_topological,
    detect_double_tangents,
    maximal_independent_family,
    reduction,
)
from curvex.circle import TWO_PI, cyclic_between, forward_gap
from curvex.cli import main as cli_main
from curvex.linesys import (
    AdmissibleInterval,
    check_axioms,
    intermediate_point,
    mu_bounds,
    three_clean_inflections,
)
from curvex.sphere import limiting_circle, true_inflections
from curvex.trig import TrigSeries, sin_series, truncate
from curvex.width import SupportFunction, census_fn, clean_flexes, theorem_c_certificates

PI = math.pi


def announce(num, text):
    print(f"\n[criterion {num:02d}] PASS: {text}")


# -- independent oracles ------------------------------------------------------


def sign_change_count_half(fn, n=400001):
    """Dense cyclic sign-change count on a half period of an antiperiodic
    scalar sampled as plain floats."""
    t = np.linspace(0.0, TWO_PI, n, endpoint=False)
    v = fn(t)
    s = np.sign(v[np.abs(v) > 1e-10])
    flips = int(np.sum(s[1:] != s[:-1])) + int(s[0] != s[-1])
    assert flips % 2 == 0
    return flips // 2


def numeric_indicator(curve):
    def fn(ts):
        F = curve.F.eval_many(ts)
        F1 = curve.F1.eval_many(ts)
        F2 = curve.F2.eval_many(ts)
        return np.linalg.det(np.stack([F, F1, F2], axis=1))
    return fn


def fd_flex_indicator(f, n=400001):
    """f'' + f through central second differences of plain samples."""
    t = np.linspace(0.0, TWO_PI, n, endpoint=False)
    v = f(t)
    h = TWO_PI / n
    second = (np.roll(v, -1) - 2.0 * v + np.roll(v, 1)) / (h * h)
    return t, second + v


def refined_side_maximum(curve, normal, t, n=16384):
    """Max of the circle side function over the open forward arc, by a
    dense scan plus golden-section refinement of the top maxima."""
    ss = t + np.linspace(1e-6, PI - 1e-6, n)
    vals = curve.lift_many(ss) @ normal
    idx = np.argsort(vals)[-8:]
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    best = float(np.max(vals))
    for i in idx:
        lo = float(ss[max(int(i) - 1, 0)])
        hi = float(ss[min(int(i) + 1, n - 1)])
        a, b = lo, hi
        for _ in range(80):
            c1 = b - gr * (b - a)
            c2 = a + gr * (b - a)
            f1 = float(curve.lift(c1) @ normal)
            f2 = float(curve.lift(c2) @ normal)
            if f1 < f2:
                a = c1
            else:
                b = c2
        best = max(best, float(curve.lift(0.5 * (a + b)) @ normal))
    return best


def brute_double_tangent_intervals(curve, n=384, margin=0.1):
    """Double tangent intervals from a pure residual-grid clustering scan,
    filters applied at cluster centers; no Newton refinement involved.

    The bands offset ~ 0 and offset ~ pi are solution manifolds of the
    bare tangency system (same point, antipodal point), so clusters
    touching the domain edges are discarded as artifacts."""
    a_grid = np.linspace(0.0, PI, n, endpoint=False)
    off_grid = np.linspace(margin, PI - margin, n)
    FA = curve.F.eval_many(a_grid)
    F1A = curve.F1.eval_many(a_grid)
    N = np.cross(FA, F1A)
    N /= np.linalg.norm(N, axis=1)[:, None]
    B = a_grid[:, None] + off_grid[None, :]
    flatB = B.ravel()
    UB = curve.lift_many(flatB).reshape(n, n, 3)
    TB = curve.F1.eval_many(flatB).reshape(n, n, 3)
    TB -= UB * np.sum(UB * TB, axis=2)[..., None]
    TB /= np.linalg.norm(TB, axis=2)[..., None]
    R = np.abs(np.einsum("ik,ijk->ij", N, UB)) \
        + np.abs(np.einsum("ik,ijk->ij", N, TB))
    mask = R < 3e-2

    # seeds: every interior row-wise local minimum under the threshold;
    # valleys crossing rows diagonally then seed several zooms that all
    # land on the same solution and deduplicate
    centers = []
    for i, j in np.argwhere(mask):
        if j <= 1 or j >= n - 2:
            continue
        if R[i, j] <= R[i, j - 1] and R[i, j] <= R[i, j + 1]:
            centers.append((float(a_grid[i]), float(B[i, j])))

    def residuals(a, b):
        normal = np.cross(curve.F.eval_many(a), curve.F1.eval_many(a))
        normal /= np.linalg.norm(normal, axis=1)[:, None]
        tb = curve.F1.eval_many(b)
        ub = curve.lift_many(b)
        tb -= ub * np.sum(ub * tb, axis=1)[:, None]
        tb /= np.linalg.norm(tb, axis=1)[:, None]
        return np.abs(np.sum(normal * ub, axis=1)) + np.abs(np.sum(normal * tb, axis=1))

    # grid-zoom refinement: a genuine tangency keeps shrinking with the
    # cell size, a near-miss bottoms out at its positive floor; the 81
    # cells of a zoom step are evaluated together, a-offset major
    refined = []
    step0 = PI / n
    for a, b in centers:
        a0, b0, step = a, b, step0
        for _ in range(5):
            offsets = np.linspace(-step, step, 9)
            da, db = np.repeat(offsets, 9), np.tile(offsets, 9)
            cand = zip(residuals(a0 + da, b0 + db).tolist(),
                       (a0 + da).tolist(), (b0 + db).tolist())
            _, a0, b0 = min(cand)
            step /= 6.0
        if residuals(np.array([a0]), np.array([b0]))[0] < 1e-4:
            refined.append((a0, b0))

    kept = []
    for a, b in refined:
        gap = (b - a) % TWO_PI
        if not margin * 0.5 < gap < PI - margin * 0.5:
            continue
        normal = np.cross(curve.F(a), curve.F1(a))
        normal /= np.linalg.norm(normal)
        sa = sb = 0.0
        for h in (2e-2, 4e-2, 8e-2):
            va = float(curve.lift(a - h) @ normal)
            vb = float(curve.lift(b + h) @ normal)
            if abs(va) > 1e-5 and abs(vb) > 1e-5:
                sa, sb = math.copysign(1, va), math.copysign(1, vb)
                break
        if sa != 0.0 and sa == sb:
            kept.append((a % PI, gap))
    out = []
    for a, gap in kept:
        if not any(abs(a - a2) % PI < 5e-2 and abs(gap - g2) < 5e-2
                   for a2, g2 in out):
            out.append((a, gap))
    return out


def positive_clean_points(curve):
    """Full-circle positive clean candidates: inflection parameters or
    their antipodes, picked by the falling-indicator convention."""
    rep = true_inflections(curve)
    out = []
    for e in rep.entries:
        if not e.crossing:
            continue
        out.append(e.parameter if e.sign > 0 else e.parameter + PI)
    return sorted(x % TWO_PI for x in out)


# -- criteria -----------------------------------------------------------------


def test_criterion_01_clean_flexes_of_sin3(tmp_path):
    payload = {"d": 20, "f": {"parity": "antiperiodic", "constant": 0.0,
                              "harmonics": [[3, 0.0, 1.0]]}}
    inp = tmp_path / "w.json"
    inp.write_text(json.dumps(payload))
    report_path = tmp_path / "report.json"
    code = cli_main(["--input", str(inp), "--mode", "width-census",
                     "--out-report", str(report_path)])
    assert code == 0
    found = json.loads(report_path.read_text())["clean_points"]
    targets = [0.0, PI / 3, 2 * PI / 3]
    errors = [min(abs(a - b) for b in targets + [PI]) for a in found]
    assert len(found) == 3
    assert max(errors) <= 1e-6
    announce(1, f"width census locates clean flexes 0, pi/3, 2pi/3 "
                f"(max error {max(errors):.2e} <= 1e-6)")


def test_criterion_02_census_identity_on_corpus(curve3, curve5, curve7,
                                                sf_sin3, sf_mix25):
    rows = []
    for name, crv in (("sphere-3", curve3), ("sphere-5", curve5),
                      ("sphere-7", curve7)):
        rep = census(crv)
        oracle_i = sign_change_count_half(numeric_indicator(crv))
        assert rep.i == oracle_i, name
        assert rep.i in (3, 5, 7)
        assert rep.i - 2 * rep.delta == 3, name
        brute = brute_double_tangent_intervals(crv)
        assert len(brute) == len(detect_double_tangents(crv).intervals), name
        from curvex.census import DoubleTangentInterval
        brute_family = maximal_independent_family(
            [DoubleTangentInterval(a, a + gap, None) for a, gap in brute])
        assert len(brute_family) == rep.delta, name
        rows.append((name, rep.i, rep.delta))
    for name, sf in (("width-sin3", sf_sin3), ("width-mix25", sf_mix25)):
        rep = census_fn(sf)
        ts, vals = fd_flex_indicator(sf.f)
        s = np.sign(vals[np.abs(vals) > 1e-6])
        flips = (int(np.sum(s[1:] != s[:-1])) + int(s[0] != s[-1])) // 2
        assert rep.i == flips, name
        assert rep.i in (3, 5, 7)
        assert rep.i - 2 * rep.delta == 3, name
        rows.append((name, rep.i, rep.delta))
    announce(2, "census identity i - 2*delta = 3 on the 5-curve corpus: "
                + ", ".join(f"{n}: i={i}, delta={d}" for n, i, d in rows))


def test_criterion_03_axioms_on_corpus(sys3, sys5, sys7, wsys_sin3, wsys_mix25):
    systems = [("sphere-3", sys3), ("sphere-5", sys5), ("sphere-7", sys7),
               ("width-sin3", wsys_sin3), ("width-mix25", wsys_mix25)]
    for name, system in systems:
        rep = check_axioms(system, grid_size=256)
        failures = [r.to_json() for r in rep.results if not r.passed]
        assert rep.all_pass, (name, failures)
    announce(3, "axioms L1-L7 pass with zero witnesses on a 256-point grid "
                "for all five corpus systems")


def test_criterion_04_three_clean_inflections(sys3, sys5, sys7, wsys_sin3,
                                              wsys_mix25):
    for name, system in (("sphere-3", sys3), ("sphere-5", sys5),
                         ("sphere-7", sys7), ("width-sin3", wsys_sin3),
                         ("width-mix25", wsys_mix25)):
        s1, s2, s3 = three_clean_inflections(system)
        assert cyclic_between(s1, s2, system.T(s1)), name
        assert cyclic_between(system.T(s1), s3, s1), name
        sets = [system.F(s) for s in (s1, s2, s3)]
        for i in range(3):
            for j in range(i + 1, 3):
                assert sets[i].disjoint_from(sets[j]), name
    announce(4, "three positive clean points with exact cyclic placement "
                "and pairwise-disjoint contact sets on all five systems")


def test_criterion_05_limiting_circle_contract(curve3, curve5, curve7):
    rng = np.random.default_rng(2024)
    worst = 0.0
    for crv in (curve3, curve5, curve7):
        for t in rng.uniform(0.0, TWO_PI, 64):
            cd = limiting_circle(crv, float(t))
            side = refined_side_maximum(crv, cd.circle.normal, float(t))
            assert -1e-8 <= side <= 1e-8
            worst = max(worst, abs(side))
            if not cd.tangent_at_base:
                assert len(cd.contact) >= 3
    announce(5, f"side condition within [-1e-8, 1e-8] at 64 random bases "
                f"per curve (worst |max| {worst:.2e}); transversal bases "
                f"show >= 3 contact components")


def test_criterion_06_reduction_additivity(curve5):
    det = detect_double_tangents(curve5)
    fam = maximal_independent_family(det.intervals)
    iv = fam[0]
    r1 = reduction(curve5, iv.a, iv.b)
    r2 = reduction(curve5, iv.b, iv.a + PI)
    i_base = true_inflections(curve5).count
    i1, _ = count_inflections_topological(r1.unit_many)
    i2, _ = count_inflections_topological(r2.unit_many)
    assert i_base == i1 + i2 - 1 == 5
    assert anti_convexity_grid_test(r1.unit_many)
    assert anti_convexity_grid_test(r2.unit_many)
    announce(6, f"additivity i = i1 + i2 - 1 holds exactly ({i_base} = "
                f"{i1} + {i2} - 1); both reductions pass the "
                "anti-convexity grid test")


def _admissible_intervals(system, cleans):
    out = []
    for idx in range(len(cleans)):
        a = cleans[idx]
        b = cleans[(idx + 1) % len(cleans)]
        if 1e-3 < forward_gap(a, b) < PI - 1e-3:
            out.append(AdmissibleInterval(a, b))
    return out


def _mu_checks(system, intervals, n_grid=128, n_q=16):
    checked_q = 0
    for iv in intervals:
        gap = forward_gap(iv.a, iv.b)
        prev = None
        for frac in np.linspace(0.02, 0.98, n_grid):
            mb = mu_bounds(system, iv, iv.a + float(frac) * gap)
            lo = forward_gap(iv.a, mb.mu_minus)
            hi = forward_gap(iv.a, mb.mu_plus)
            if prev is not None:
                assert lo <= prev[0] + 1e-7
                assert hi <= prev[1] + 1e-7
            prev = (lo, hi)
    widest = max(intervals, key=lambda iv: forward_gap(iv.a, iv.b))
    mu_plus_b = mu_bounds(system, widest, widest.b).mu_plus
    mu_minus_a = mu_bounds(system, widest, widest.a).mu_minus
    window = forward_gap(mu_plus_b, mu_minus_a)
    for frac in np.linspace(0.05, 0.95, n_q):
        q = (mu_plus_b + float(frac) * window) % TWO_PI
        p = intermediate_point(system, widest, q)
        mb = mu_bounds(system, widest, p)
        qpos = forward_gap(widest.a, q)
        assert forward_gap(widest.a, mb.mu_minus) <= qpos + 1e-6
        assert forward_gap(widest.a, mb.mu_plus) >= qpos - 1e-6
        checked_q += 1
    return checked_q


def test_criterion_07_monotonicity_and_intermediate(curve5, sys5, sf_mix4,
                                                    wsys_mix4):
    cleans_sphere = positive_clean_points(curve5)
    assert all(sys5.is_positive_clean(p, 1e-4) for p in cleans_sphere)
    iv_sphere = _admissible_intervals(sys5, cleans_sphere)
    n_sphere = _mu_checks(sys5, iv_sphere)

    lf = sf_mix4.f.derivative(2) + sf_mix4.f
    from curvex.trig import isolate_sign_changes
    roots = isolate_sign_changes(lf, domain="full")
    cleans_width = []
    for r in roots:
        if r.direction == -1:  # falling indicator marks the positive side
            cleans_width.append(r.value)
    cleans_width = sorted(c for c in cleans_width
                          if wsys_mix4.is_positive_clean(c, 1e-4))
    assert len(cleans_width) >= 3
    iv_width = _admissible_intervals(wsys_mix4, cleans_width)
    n_width = _mu_checks(wsys_mix4, iv_width)

    announce(7, f"mu bounds non-increasing over 128-point grids on "
                f"{len(iv_sphere)} + {len(iv_width)} admissible intervals; "
                f"intermediate point straddles q for {n_sphere} + {n_width} "
                "window samples")


def test_criterion_08_theorem_c_certificates(sf_sin3):
    certs = theorem_c_certificates(sf_sin3, radius_tol=1e-8)
    assert len(certs) == 3
    for cert in certs:
        assert cert.contact_components == 2
        assert cert.crossings == 2
        assert cert.tangential
        assert abs(cert.curvature_radius - 10.0) <= 1e-8
    announce(8, "exactly three osculating-circle certificates, two "
                "tangential crossings each, curvature radius within "
                "1e-8 of 10")


def test_criterion_09_truncation_robustness():
    f = sin_series(3) + sin_series(5, 0.4) + sin_series(9, 1e-5)
    reports = {}
    for n in (4, 6):
        sf = SupportFunction(40.0, truncate(f, n))
        rep = census_fn(sf, additivity_check=False)
        flexes = sorted(clean_flexes(sf).points)
        reports[n] = (rep.i, rep.delta, flexes)
    i4, d4, fl4 = reports[4]
    i6, d6, fl6 = reports[6]
    assert (i4, d4) == (i6, d6) == (5, 1)
    shift = max(abs(a - b) for a, b in zip(fl4, fl6))
    assert shift <= 1e-4
    announce(9, f"censuses at truncation 4 and 6 agree (i=5, delta=1); "
                f"clean flexes shift by {shift:.2e} <= 1e-4")


def test_criterion_10_determinant_identity():
    rng = np.random.default_rng(77)
    ts = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
    worst = 0.0
    for _ in range(10):
        harmonics = tuple((k, rng.uniform(-0.2, 0.2) / k, rng.uniform(-0.2, 0.2) / k)
                          for k in (1, 3, 5, 7))
        g = TrigSeries(0.0, harmonics, "antiperiodic")
        from curvex.sphere import ProjectiveCurve
        from curvex.trig import VectorSeries, cos_series
        crv = ProjectiveCurve(VectorSeries(cos_series(1), sin_series(1), g))
        det = numeric_indicator(crv)(ts)
        target = g(ts) + g.derivative(2)(ts)
        worst = max(worst, float(np.max(np.abs(det - target))))
    assert worst <= 1e-10
    announce(10, f"det(F, F', F'') = g + g'' pointwise within 1e-10 over "
                 f"4096 samples for 10 random deviations (worst {worst:.2e})")
