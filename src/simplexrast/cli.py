"""Command-line surface: rasterize, gradcheck, bench, fit, subdivide.

Exit codes: 0 success, 1 I/O failure, 2 validation failure, 3 tolerance
failure, 4 fit diverged (non-finite loss).  All paths are relative to the
working directory.  DDSL_WORKERS caps library parallelism and changes no
output; every command is deterministic given --seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .deform import PoseQuat, make_rig
from .gradients import backward_mesh, numeric_backward
from .meshcore import MeshValidationError, _check_int, _nonfinite_violations, load_mesh, save_mesh
from .optimizer import FitDivergedError, FitProblem, Schedule, fit
from .pipeline import (
    RasterizeConfig,
    finite_difference_gradient,
    polygon_subdivide,
    rasterize,
    rasterize_backward,
)
from .sampling import random_mesh, random_raster_cotangent
from .spectral import adjoint_transform, build_grid, load_raster, save_pgm, save_raster

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_TOLERANCE = 3
EXIT_DIVERGED = 4

BENCH_CSV_HEADER = ["j", "d", "n_points", "resolution", "repetitions",
                    "analytic_ms_mean", "analytic_ms_std",
                    "numeric_ms_mean", "numeric_ms_std", "speedup"]
TRAJECTORY_CSV_HEADER = ["iteration", "loss", "grad_norm"]


def _parse_int_list(text: str, option: str) -> list[int]:
    """Comma list '4,8,16' or inclusive range 'a:b' or 'a:b:s' of integers.
    An empty result, or text of any other form, is a ValueError naming
    ``option``."""
    try:
        if ":" in text:
            parts = [int(p) for p in text.split(":")]
            if len(parts) == 2:
                parts.append(1)
            a, b, s = parts
            values = list(range(a, b + 1, s)) if s > 0 else []
        else:
            values = [int(p) for p in text.split(",") if p]
    except ValueError:  # not an integer, or not two or three range parts
        values = []
    if not values:
        raise ValueError(f"{option} must be a non-empty comma list of integers or a range "
                         f"a:b[:s] with a <= b and s > 0, got {text!r}")
    return values


def cmd_rasterize(args) -> int:
    mesh = load_mesh(args.mesh)
    config = RasterizeConfig(resolution=args.res, filter_width=args.filter,
                             mode=args.mode, strict=args.strict)
    raster = rasterize(mesh, config)
    save_raster(raster, args.out)
    if args.pgm:
        save_pgm(raster, args.pgm)
    print(f"wrote {args.out} (R={args.res}, mean={raster.values.mean():.6g})")
    return EXIT_OK


def _check_mesh_options(d, j_list, points_list, res_list) -> None:
    """Checks of the random-mesh options of ``gradcheck`` and ``bench``,
    made before any work: each failure names its option."""
    if d not in (2, 3):
        raise ValueError(f"--d must be 2 or 3, got {d}")
    bad = [j for j in j_list if not 0 <= j <= d]
    if bad:
        raise ValueError(f"--j must be in [0, --d] = [0, {d}], got {bad[0]}")
    if min(points_list) < max(j_list) + 1:
        raise ValueError(f"--points must be at least max(--j) + 1 = {max(j_list) + 1}, "
                         f"got {min(points_list)}")
    if min(res_list) < 2:
        raise ValueError(f"--res must be at least 2, got {min(res_list)}")


def cmd_gradcheck(args) -> int:
    _check_mesh_options(args.d, [args.j], [args.points], [args.res])
    if not args.tol >= 0:  # a NaN tolerance would fail every check
        raise ValueError(f"--tol must be a number >= 0, got {args.tol}")
    rng = np.random.default_rng(args.seed)
    mesh = random_mesh(args.j, args.d, args.points, rng)
    cotangent = random_raster_cotangent(args.d, args.res, rng)
    config = RasterizeConfig(resolution=args.res, filter_width=args.filter)
    analytic = rasterize_backward(mesh, config, cotangent)
    numeric = finite_difference_gradient(mesh, config, cotangent, h=args.h)
    rel = gradient_relative_error(analytic, numeric)
    print(f"gradcheck j={args.j} d={args.d} points={args.points} res={args.res} "
          f"h={args.h:g}: max relative error {rel:.3e} (tol {args.tol:g})")
    return EXIT_OK if rel <= args.tol else EXIT_TOLERANCE


def gradient_relative_error(analytic, numeric) -> float:
    """Infinity-norm error of the analytic gradient relative to the
    finite-difference gradient's scale (floored to dodge 0/0)."""
    num = np.concatenate([numeric.d_vertices.reshape(-1),
                          numeric.d_densities.reshape(-1)])
    ana = np.concatenate([analytic.d_vertices.reshape(-1),
                          analytic.d_densities.reshape(-1)])
    scale = max(float(np.abs(num).max(initial=0.0)), 1e-10)
    return float(np.abs(ana - num).max(initial=0.0) / scale)


@dataclass
class BenchRecord:
    j: int
    d: int
    n_points: int
    resolution: int
    repetitions: int
    analytic_ms: tuple[float, float]
    numeric_ms: tuple[float, float]

    @property
    def speedup(self) -> float:
        return self.numeric_ms[0] / self.analytic_ms[0]

    def row(self) -> list:
        return [self.j, self.d, self.n_points, self.resolution, self.repetitions,
                f"{self.analytic_ms[0]:.6f}", f"{self.analytic_ms[1]:.6f}",
                f"{self.numeric_ms[0]:.6f}", f"{self.numeric_ms[1]:.6f}",
                f"{self.speedup:.3f}"]


def _time_call(fn, reps: int) -> tuple[float, float]:
    fn()  # warm-up discarded
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return float(np.mean(times)), float(np.std(times))


def run_bench(j_list, points_list, res_list, reps, d=3, seed=0) -> list[BenchRecord]:
    """Time both backward passes at DDSL_WORKERS; every option is checked first."""
    _check_mesh_options(d, j_list, points_list, res_list)
    if reps < 1:
        raise ValueError(f"--reps must be at least 1, got {reps}")
    rng = np.random.default_rng(seed)
    records = []
    for j in j_list:
        for n_points in points_list:
            for res in res_list:
                mesh = random_mesh(j, d, n_points, rng)
                grid = build_grid(d, res)
                cot = adjoint_transform(random_raster_cotangent(d, res, rng), grid)
                analytic_ms = _time_call(lambda: backward_mesh(mesh, grid, cot), reps)
                numeric_ms = _time_call(lambda: numeric_backward(mesh, grid, cot), reps)
                records.append(BenchRecord(j, d, n_points, res, reps,
                                           analytic_ms, numeric_ms))
    return records


def cmd_bench(args) -> int:
    records = run_bench(_parse_int_list(args.j, "--j"), _parse_int_list(args.points, "--points"),
                        _parse_int_list(args.res, "--res"), args.reps, d=args.d,
                        seed=args.seed)
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(BENCH_CSV_HEADER)
            for rec in records:
                writer.writerow(rec.row())
    for rec in records:
        print(f"j={rec.j} d={rec.d} points={rec.n_points} R={rec.resolution}: "
              f"analytic {rec.analytic_ms[0]:.3f} ms, numeric {rec.numeric_ms[0]:.3f} ms, "
              f"speedup {rec.speedup:.1f}x")
    speedups = [rec.speedup for rec in records]  # never empty: every list has a value
    print(f"speedup: min {min(speedups):.1f}x, median {np.median(speedups):.1f}x, "
          f"max {max(speedups):.1f}x")
    return EXIT_OK


def _finite_mesh(mesh, role: str):
    """Reject a non-finite fit mesh as a validation error.  The library fit
    would report it as a divergence; coordinates outside the unit box stay
    allowed."""
    violations = _nonfinite_violations(mesh.vertices, mesh.densities)
    if violations:
        raise MeshValidationError([f"{role} mesh: {v}" for v in violations])
    return mesh


#: the keys a fit spec, its ``rig`` and its ``pose`` may hold; any other is a typo
_FIT_KEYS = ("mesh", "target_mesh", "target_raster", "resolution", "filter_width", "mode",
             "step", "max_iters", "tol", "snapshot_every", "rig", "pose",
             "variable", "loss", "smooth_weight", "mres_resolutions")
_RIG_KEYS = ("centers", "controls", "weights")
_POSE_KEYS = ("q", "t", "pivot")


def _json_object(value, what: str, keys=None) -> dict:
    """``value`` if it is a JSON object holding none but ``keys`` (any, if None)."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(value).__name__}")
    unknown = [] if keys is None else [key for key in value if key not in keys]
    if unknown:
        raise ValueError(f"{what} has unknown key {unknown[0]!r} (known: {', '.join(keys)})")
    return value


def _load_fit_problem(path) -> tuple[FitProblem, int]:
    """The fit problem a JSON spec describes, and its snapshot interval
    (0: none).  A value of the wrong type is a ValueError."""
    with open(path, encoding="utf-8") as fh:
        spec = _json_object(json.load(fh), "fit problem", _FIT_KEYS)
    try:
        problem = _fit_problem(spec)
    except (TypeError, OverflowError) as exc:  # e.g. null where a list belongs
        raise ValueError(f"fit problem has a value of the wrong type: {exc}") from exc
    every = spec.get("snapshot_every", 0)
    _check_int(every, "snapshot_every", 0)
    return problem, every


def _fit_problem(spec: dict) -> FitProblem:
    mesh = _finite_mesh(load_mesh(spec["mesh"]), "start")
    if "target_mesh" in spec:
        target = _finite_mesh(load_mesh(spec["target_mesh"]), "target")
    elif "target_raster" in spec:
        target = load_raster(spec["target_raster"])
    else:
        raise ValueError("fit problem needs target_mesh or target_raster")
    config = RasterizeConfig(resolution=spec.get("resolution", 32),
                             filter_width=spec.get("filter_width", 2.0),
                             mode=spec.get("mode", "simplex"))
    schedule = Schedule(step=spec.get("step", 1e-3),
                        max_iters=spec.get("max_iters", 500),
                        tol=spec.get("tol", 0.0))
    rig = None
    if spec.get("rig"):
        rig_spec = _json_object(spec["rig"], "rig", _RIG_KEYS)
        if spec.get("variable") == "rig":  # no other fit reads the rig
            rig = make_rig(mesh.vertices, rig_spec["centers"],
                           controls=rig_spec.get("controls"),
                           weights=rig_spec.get("weights"))
    pose = None
    if spec.get("pose"):
        pose_spec = _json_object(spec["pose"], "pose", _POSE_KEYS)
        pose = PoseQuat(pose_spec.get("q", [1, 0, 0, 0]),
                        pose_spec.get("t", [0, 0, 0]),
                        pose_spec.get("pivot"))
    return FitProblem(mesh=mesh, target=target, config=config, schedule=schedule,
                      variable=spec.get("variable", "vertices"),
                      loss=spec.get("loss", "l2"), rig=rig, pose=pose,
                      smooth_weight=spec.get("smooth_weight", 0.0),
                      mres_resolutions=tuple(spec.get("mres_resolutions", ())))


def cmd_fit(args) -> int:
    problem, every = _load_fit_problem(args.problem)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = fit(problem)
    with open(out_dir / "trajectory.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAJECTORY_CSV_HEADER)
        for point in result.trajectory:
            writer.writerow([point.iteration, f"{point.loss:.12g}",
                             f"{point.grad_norm:.12g}"])
    for point in result.trajectory:
        if every and point.iteration % every == 0:
            save_mesh(problem.geometry(point.state),
                      out_dir / f"snapshot_{point.iteration:06d}.json")
    save_mesh(problem.geometry(result.state), out_dir / "final.json")
    final = result.trajectory[-1]
    print(f"fit finished after {final.iteration} iterations: "
          f"loss {final.loss:.6g} ({result.message})")
    return EXIT_OK


def cmd_subdivide(args) -> int:
    with open(args.polygon, encoding="utf-8") as fh:
        data = _json_object(json.load(fh), "polygon file")
    try:
        polygon = np.asarray(data["polygon"], dtype=np.float64)
        if args.deltas:
            with open(args.deltas, encoding="utf-8") as fh:
                deltas = np.asarray(json.load(fh), dtype=np.float64)
        else:
            deltas = np.full(polygon.shape[:1], args.delta)
    except TypeError as exc:  # e.g. an object where numbers belong
        raise ValueError(f"polygon or deltas have a value of the wrong type: {exc}") from exc
    refined = polygon_subdivide(polygon, deltas)
    n_edges = polygon.shape[0]
    text = json.dumps({"polygon": refined.tolist()}, allow_nan=False)  # fails before any write
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print(f"subdivided {n_edges} -> {refined.shape[0]} vertices")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplexrast",
        description="Differentiable spectral rasterization of simplex meshes")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rasterize", help="rasterize a mesh JSON to a raw raster")
    p.add_argument("--mesh", required=True)
    p.add_argument("--res", type=int, required=True)
    p.add_argument("--filter", type=float, default=2.0)
    p.add_argument("--mode", choices=("simplex", "auxnode"), default="simplex")
    p.add_argument("--out", required=True)
    p.add_argument("--pgm", default=None, help="also write an 8-bit PGM (2D, 1 channel)")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(fn=cmd_rasterize)

    p = sub.add_parser("gradcheck", help="analytic vs finite-difference gradients")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--points", type=int, default=12)
    p.add_argument("--res", type=int, default=8)
    p.add_argument("--filter", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--h", type=float, default=1e-6)
    p.add_argument("--tol", type=float, default=1e-5)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("bench", help="time analytic vs numeric backward passes")
    p.add_argument("--j", default="2", help="comma list or a:b:s range")
    p.add_argument("--points", default="5:50:15")
    p.add_argument("--res", default="16")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", default=None)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("fit", help="run a gradient-descent fit problem")
    p.add_argument("--problem", required=True, help="fit problem JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_fit)

    p = sub.add_parser("subdivide", help="refine a polygon one hierarchy level")
    p.add_argument("--polygon", required=True, help='JSON {"polygon": [[x, y], ...]}')
    p.add_argument("--delta", type=float, default=0.0, help="uniform normal offset")
    p.add_argument("--deltas", default=None, help="JSON list of per-edge offsets")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_subdivide)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except MeshValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except FitDivergedError as exc:
        print(f"fit diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
