"""Command-line front end: censuses, axiom checks, certificates, plots.

Reports are JSON with sorted keys and no volatile fields, so reruns on
the same input are byte-identical; run metadata (timing, tool version)
goes to a separate sidecar file.  Exit codes: 0 all checks pass, 1 an
asserted identity or certificate failed (report still written), 2 input
or configuration errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import CurvexError
from .census import census
from .linesys import LineSystem, check_axioms
from .sphere import EPS_CONTACT, ProjectiveCurve, contact_map as sphere_contact_map
from .trig import TrigSeries, VectorSeries, json_number, truncate
from .width import (
    SupportFunction,
    census_fn,
    clean_flexes,
    contact_system,
    curve_points,
    d_inflections,
    theorem_c_certificates,
)

MODES = ("sphere-census", "width-census", "flexes", "axioms", "theorem-c", "truncate")
# the input kind each mode needs; the modes not listed take either kind
CURVE, SUPPORT = (ProjectiveCurve, "an x/y/z curve"), (SupportFunction, "a d/f support")
NEEDS = {"sphere-census": CURVE, "width-census": SUPPORT, "flexes": SUPPORT, "theorem-c": SUPPORT}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvex",
        description="Inflection and double-tangent censuses for projective "
                    "curves and constant-width support functions.")
    parser.add_argument("--input", required=True, help="JSON curve or support input")
    parser.add_argument("--mode", required=True, choices=MODES)
    parser.add_argument("--plot-samples", type=int, default=4096,
                        help="CSV and SVG samples (power of two in [256, 65536])")
    parser.add_argument("--axiom-grid", type=int, default=256,
                        help="base-point grid for the axiom checker")
    parser.add_argument("--eps-contact", type=float, default=EPS_CONTACT)
    parser.add_argument("--truncate-n", type=int, default=None)
    parser.add_argument("--out-report", default=None)
    parser.add_argument("--out-csv", default=None)
    parser.add_argument("--out-svg", default=None)
    return parser


def _fail(msg: str) -> int:
    print(f"curvex: error: {msg}", file=sys.stderr)
    return 2


def _validate(args) -> str | None:
    n = args.plot_samples
    if n < 256 or n > 65536 or n & (n - 1):
        return f"--plot-samples must be a power of two in [256, 65536], got {n}"
    if args.axiom_grid < 2 or args.axiom_grid % 2:
        return f"--axiom-grid must be a positive even number, got {args.axiom_grid}"
    if not 0.0 < args.eps_contact < math.inf:
        return f"--eps-contact must be positive and finite, got {args.eps_contact}"
    return None


def _load_input(path: str):
    """Parse the input as a sphere curve or a support function."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError("input must be a JSON object")
    if {"x", "y", "z"} <= obj.keys():
        return ProjectiveCurve(VectorSeries.from_json(obj))
    if {"d", "f"} <= obj.keys():
        return SupportFunction(json_number(obj["d"]), TrigSeries.from_json(obj["f"]))
    raise ValueError("input must carry either x/y/z series or d and f")


def _plain(obj):
    """JSON-ready copy with numpy scalars flattened to floats."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def _write_report(path: str | None, payload: dict, meta: dict) -> None:
    if path is None:
        print(json.dumps(_plain(payload), indent=2, sort_keys=True))
        return
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(_plain(payload), indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    out.with_suffix(out.suffix + ".meta.json").write_text(
        json.dumps(_plain(meta), indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_csv(path: str | None, header: list[str], rows) -> None:
    if path is None:
        return
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.12g}" for v in row) + "\n")


# -- svg ---------------------------------------------------------------------


def _svg_document(paths: list[str], box: tuple[float, float, float, float]) -> str:
    x0, y0, w, h = box
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'viewBox="{x0:.6f} {y0:.6f} {w:.6f} {h:.6f}" '
            f'width="640" height="640">\n')
    return head + "\n".join(paths) + "\n</svg>\n"


def _svg_polyline(points: np.ndarray, color: str, width: float,
                  closed: bool = True) -> str:
    coords = " ".join(f"{x:.6f},{y:.6f}" for x, y in points)
    tag = "polygon" if closed else "polyline"
    return (f'<{tag} points="{coords}" fill="none" '
            f'stroke="{color}" stroke-width="{width:.6f}"/>')


def _svg_circle(cx: float, cy: float, r: float, color: str, width: float) -> str:
    return (f'<circle cx="{cx:.6f}" cy="{cy:.6f}" r="{r:.6f}" fill="none" '
            f'stroke="{color}" stroke-width="{width:.6f}"/>')


def _svg_dot(cx: float, cy: float, r: float, color: str) -> str:
    return f'<circle cx="{cx:.6f}" cy="{cy:.6f}" r="{r:.6f}" fill="{color}"/>'


def _scene_box(points: np.ndarray, extra: float = 0.1) -> tuple[float, float, float, float]:
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    span = float(max(hi - lo)) or 1.0
    pad = extra * span
    return (float(lo[0]) - pad, float(lo[1]) - pad,
            float(hi[0] - lo[0]) + 2 * pad, float(hi[1] - lo[1]) + 2 * pad)


def emit_sphere_plot(curve: ProjectiveCurve, svg_path: str | None,
                     csv_path: str | None, samples: int,
                     inflections: list[float] = (), chords=()) -> None:
    if svg_path is None and csv_path is None:
        return
    ts = np.linspace(0.0, 2 * math.pi, samples, endpoint=False)
    pts = curve.lift_many(ts)
    _write_csv(csv_path, ["t", "x", "y", "z"],
               ([float(t)] + [float(v) for v in p] for t, p in zip(ts, pts)))
    if svg_path is None:
        return
    flat = pts[:, :2]
    paths = [_svg_polyline(flat, "#1f4e79", 0.01)]
    for t in inflections:
        u = curve.lift(float(t))
        paths.append(_svg_dot(float(u[0]), float(u[1]), 0.02, "#c02020"))
    for a, b in chords:
        ch_ts = np.linspace(0.0, 1.0, 64)
        ua, ub = curve.lift(float(a)), curve.lift(float(b))
        seg = np.array([(ua * (1 - f) + ub * f) for f in ch_ts])
        seg /= np.linalg.norm(seg, axis=1)[:, None]
        paths.append(_svg_polyline(seg[:, :2], "#208020", 0.008, closed=False))
    doc = _svg_document(paths, _scene_box(flat))
    Path(svg_path).parent.mkdir(parents=True, exist_ok=True)
    Path(svg_path).write_text(doc, encoding="utf-8")


def emit_width_plot(sf: SupportFunction, svg_path: str | None,
                    csv_path: str | None, samples: int,
                    flexes: list[float] = (), circles=()) -> None:
    if svg_path is None and csv_path is None:
        return
    ts = np.linspace(0.0, 2 * math.pi, samples, endpoint=False)
    pts = curve_points(sf, ts)
    _write_csv(csv_path, ["t", "x", "y"],
               ([float(t), float(p[0]), float(p[1])] for t, p in zip(ts, pts)))
    if svg_path is None:
        return
    paths = [_svg_polyline(pts, "#1f4e79", 0.05)]
    for t in flexes:
        p = curve_points(sf, np.array([float(t)]))[0]
        paths.append(_svg_dot(float(p[0]), float(p[1]), 0.25, "#c02020"))
    all_pts = [pts]
    for circ in circles:
        cx, cy = circ.center
        paths.append(_svg_circle(float(cx), float(cy), float(circ.radius),
                                 "#208020", 0.04))
        all_pts.append(np.array([[cx - circ.radius, cy - circ.radius],
                                 [cx + circ.radius, cy + circ.radius]]))
    doc = _svg_document(paths, _scene_box(np.concatenate(all_pts)))
    Path(svg_path).parent.mkdir(parents=True, exist_ok=True)
    Path(svg_path).write_text(doc, encoding="utf-8")


# -- modes -------------------------------------------------------------------


def _contact_system(obj, args) -> LineSystem:
    if isinstance(obj, SupportFunction):
        return contact_system(obj, args.eps_contact)
    return LineSystem(sphere_contact_map(obj, args.eps_contact))


def _run_sphere_census(curve: ProjectiveCurve, system, args, meta: dict) -> tuple[dict, bool]:
    rep = census(curve, system)
    meta.update(rep.counters)
    report = rep.to_json()
    emit_sphere_plot(curve, args.out_svg, args.out_csv, args.plot_samples,
                     inflections=report["inflection_points"],
                     chords=report["double_tangents"])
    return report, report["identity_holds"]


def _run_width_census(sf: SupportFunction, system, args, meta: dict) -> tuple[dict, bool]:
    triple = clean_flexes(sf, system)
    rep = census_fn(sf, clean_points=list(triple.points))
    meta.update(rep.counters)
    report = rep.to_json()
    report["clean_signs"] = list(triple.signs)
    emit_width_plot(sf, args.out_svg, args.out_csv, args.plot_samples,
                    flexes=list(triple.points))
    return report, report["identity_holds"]


def _run_flexes(obj, system, args) -> tuple[dict, bool]:
    triple = clean_flexes(obj, system)
    report = {
        "kind": "flexes",
        "clean_flexes": list(triple.points),
        "sign_changes": list(triple.signs),
        "full_circle_points": list(triple.circle_points),
        "d_inflections": d_inflections(obj),
    }
    emit_width_plot(obj, args.out_svg, args.out_csv, args.plot_samples,
                    flexes=list(triple.points))
    return report, True


def _run_axioms(obj, system, args, meta: dict) -> tuple[dict, bool]:
    rep = check_axioms(system, grid_size=args.axiom_grid)
    meta["axiom_seconds"] = {r.axiom: round(r.seconds, 3) for r in rep.results}
    meta["axiom_solve_seconds"] = round(rep.solve_seconds, 3)
    meta["axiom_table_seconds"] = round(rep.table_seconds, 3)
    meta["l4_configurations"] = next(r.counts for r in rep.results if r.axiom == "L4")
    rows = {r.axiom: r.counts for r in rep.results if "rows" in r.counts}
    meta["axiom_rows"] = {**{a: c["rows"] for a, c in rows.items()},
                          "merged": sum(c.get("merged", 0) for c in rows.values())}
    return {"kind": "axioms", **rep.to_json()}, rep.all_pass


def _run_theorem_c(obj, system, args) -> tuple[dict, bool]:
    certs = theorem_c_certificates(obj, system=system)
    report = {
        "kind": "theorem-c",
        "certificates": [{
            "flex": c.flex,
            "center": list(c.circle.center),
            "radius": c.circle.radius,
            "contact_components": c.contact_components,
            "crossings": c.crossings,
            "curvature_radius": c.curvature_radius,
        } for c in certs],
    }
    emit_width_plot(obj, args.out_svg, args.out_csv, args.plot_samples,
                    flexes=[c.flex for c in certs],
                    circles=[c.circle for c in certs])
    return report, len(certs) >= 3


def _census_summary(obj) -> dict:
    if isinstance(obj, SupportFunction):
        rep = census_fn(obj, additivity_check=False)
    else:
        rep = census(obj)
    return {"i": rep.i, "delta": rep.delta,
            "flexes": sorted(rep.inflection_points)}


def _run_truncate(obj, args) -> tuple[dict, bool]:
    if args.truncate_n is None:
        raise ValueError("truncate mode needs --truncate-n")
    n = args.truncate_n

    def cut(o, k):
        if isinstance(o, SupportFunction):
            return SupportFunction(o.d, truncate(o.f, k))
        return ProjectiveCurve(o.F.truncate(k))

    low, high = cut(obj, n), cut(obj, n + 2)
    rep_low, rep_high = _census_summary(low), _census_summary(high)
    flex_dist = None
    if len(rep_low["flexes"]) == len(rep_high["flexes"]):
        flex_dist = max((abs(a - b) for a, b in
                         zip(rep_low["flexes"], rep_high["flexes"])), default=0.0)
    agree = (rep_low["i"] == rep_high["i"]
             and rep_low["delta"] == rep_high["delta"]
             and flex_dist is not None and flex_dist <= 1e-4)
    report = {
        "kind": "truncate",
        "n": n,
        "at_n": rep_low,
        "at_n_plus_2": rep_high,
        "max_flex_shift": flex_dist,
        "agree": agree,
    }
    return report, agree


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    err = _validate(args)
    if err:
        return _fail(err)
    try:
        obj = _load_input(args.input)
    except (OSError, ValueError, CurvexError) as exc:
        return _fail(f"cannot read input: {exc}")
    kind, name = NEEDS.get(args.mode, (object, ""))
    if not isinstance(obj, kind):
        return _fail(f"{args.mode} expects {name} input")

    # every mode but truncate reads the contact family of the input
    system = None if args.mode == "truncate" else _contact_system(obj, args)
    meta = {"tool": "curvex", "version": __version__, "mode": args.mode,
            "input": args.input, "plot_samples": args.plot_samples,
            "eps_contact": args.eps_contact}
    started = time.perf_counter()
    try:
        if args.mode == "sphere-census":
            report, ok = _run_sphere_census(obj, system, args, meta)
        elif args.mode == "width-census":
            report, ok = _run_width_census(obj, system, args, meta)
        elif args.mode == "flexes":
            report, ok = _run_flexes(obj, system, args)
        elif args.mode == "axioms":
            report, ok = _run_axioms(obj, system, args, meta)
        elif args.mode == "theorem-c":
            report, ok = _run_theorem_c(obj, system, args)
        else:
            report, ok = _run_truncate(obj, args)
    except ValueError as exc:
        return _fail(str(exc))
    except CurvexError as exc:
        report = {"kind": args.mode, "error": type(exc).__name__,
                  "message": str(exc)}
        ok = False

    meta["seconds"] = round(time.perf_counter() - started, 3)
    if system is not None:
        meta["contact_solves"] = dict(system.solves)
        meta["contact_reads"] = system.reads
        if args.mode != "axioms":  # the other modes find clean points
            meta["clean_search"] = dict(system.clean_search)
    _write_report(args.out_report, report, meta)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
