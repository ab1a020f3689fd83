"""Seeded benchmark workloads, their timed calls and their output checks.

Every workload is built from ``numpy.random.default_rng(seed)`` alone, so
the same seed gives bit-identical inputs.  A round is the unit of timed
work: one forward + backward pair on the raster workloads, one
fixed-length fit followed by a few forward + backward pairs on the fit
workloads.  The checks use only numpy and the benchmark's own formulas, not
the library code being timed.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import statistics

import numpy as np

from simplexrast import nuft, optimizer, pipeline, sampling
from simplexrast.deform import PoseQuat, quat_apply
from simplexrast.meshcore import SimplexMesh
from simplexrast.optimizer import FitProblem, Schedule
from simplexrast.pipeline import RasterizeConfig
from spans import clock

#: criterion C3: raster mean against total mass, relative
MASS_RTOL = 1e-9
#: L = sum(cotangent * raster) is linear in the densities, so
#: sum(rho * dL/drho) = L up to round-off (~1e-15 of sum|cotangent * raster|)
EULER_RTOL = 1e-10
#: one central difference of L along a seeded unit direction, relative to
#: the norm of the analytic vertex gradient
DIRECTIONAL_RTOL = 1e-6
DIRECTIONAL_STEP = 1e-6
#: recorded value at the reference seed: raster workloads compare L relative
#: to sum|cotangent * raster|, fits compare the final loss relative to itself
REFERENCE_RTOL = {"raster": 1e-9, "fit": 1e-6}

#: corners of the rigid box that the pose fit moves, centred on the pivot
POSE_BOX = ((0.30, 0.70), (0.35, 0.65), (0.40, 0.60))


class Record:
    """Timing samples and operation outcomes of one run."""

    def __init__(self):
        self.samples = {"forward_s": [], "backward_s": [], "fit_iter_s": []}
        self.windows = []  # (start, end, round) of every timed iteration
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.worst = {}  # largest relative error seen per check

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


# ---------------------------------------------------------------------------
# output checks

def _mass(mesh: SimplexMesh, auxnode: bool) -> np.ndarray:
    """Total mass per channel from determinants (full-dimensional elements)."""
    pts = mesh.element_points()
    mat = pts if auxnode else pts[:, 1:, :] - pts[:, :1, :]
    vol = np.linalg.det(mat) / math.factorial(mesh.dim)
    return (vol if auxnode else np.abs(vol)) @ mesh.densities


def _note(rec, check, rel):
    rec.worst[check] = max(rec.worst.get(check, 0.0), rel)
    return rel


def check_forward(rec, raster, mesh, auxnode):
    mean = raster.values.reshape(-1, raster.channels).mean(axis=0)
    mass = _mass(mesh, auxnode)
    rel = _note(rec, "mass", float(np.max(np.abs(mean - mass) / np.abs(mass))))
    return rel <= MASS_RTOL, f"raster mean off total mass by {rel:.2e} relative"


def check_backward(rec, grad, mesh, raster, cot):
    terms = cot * raster.values
    loss = float(terms.sum())
    euler = float(np.sum(mesh.densities * grad.d_densities))
    rel = _note(rec, "euler", abs(euler - loss) / float(np.abs(terms).sum()))
    return rel <= EULER_RTOL, f"Euler identity off by {rel:.2e} relative"


def timed_pair(mesh, config, cot):
    """One forward then one backward call: (raster, grad, t_forward, t_backward, start)."""
    t0 = clock()
    raster = pipeline.rasterize(mesh, config)
    t1 = clock()
    grad = pipeline.rasterize_backward(mesh, config, cot)
    t2 = clock()
    return raster, grad, t1 - t0, t2 - t1, t0


def record_pair(rec, mesh, config, cot, round_idx, window: bool):
    """Time one pair, check both outputs, and return (raster, grad) or None."""
    auxnode = config.mode == "auxnode"
    try:
        raster, grad, t_f, t_b, t0 = timed_pair(mesh, config, cot)
    except Exception as exc:  # a failing call is counted, the run goes on
        rec.op(False, f"forward/backward raised {exc!r}")
        rec.op(False, "backward not checked")
        return None
    rec.samples["forward_s"].append(t_f)
    rec.samples["backward_s"].append(t_b)
    if window:
        rec.samples["fit_iter_s"].append(t_f + t_b)
        rec.windows.append((t0, t0 + t_f + t_b, round_idx))
    rec.op(*check_forward(rec, raster, mesh, auxnode))
    rec.op(*check_backward(rec, grad, mesh, raster, cot))
    return raster, grad


def directional_check(rec, mesh, config, cot, direction):
    """Central difference of L along ``direction`` against the analytic gradient."""
    def loss(vertices):
        return float(np.sum(cot * pipeline.rasterize(mesh.with_vertices(vertices), config).values))

    try:
        grad = pipeline.rasterize_backward(mesh, config, cot).d_vertices
        h = DIRECTIONAL_STEP
        fd = (loss(mesh.vertices + h * direction) - loss(mesh.vertices - h * direction)) / (2 * h)
    except Exception as exc:
        rec.op(False, f"directional check raised {exc!r}")
        return
    rel = _note(rec, "directional",
                abs(fd - float(np.sum(grad * direction))) / float(np.linalg.norm(grad)))
    rec.op(rel <= DIRECTIONAL_RTOL, f"directional difference off by {rel:.2e} relative")


def _unit(rng, shape):
    u = rng.standard_normal(shape)
    return u / np.linalg.norm(u)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# workloads

class RasterWorkload:
    """Forward and backward calls alternate on one fixed mesh."""

    kind = "raster"
    #: rounds (pairs) after which the process reads its peak RSS
    rss_rounds = 2

    def __init__(self, mesh, config, rng):
        self.mesh = mesh
        self.config = config
        self.cot = rng.standard_normal((config.resolution,) * mesh.dim + (mesh.channels,))
        self.direction = _unit(rng, mesh.vertices.shape)
        self.final_loss = None
        self._loss_scale = None

    def probe(self):
        """(mesh, config, cotangent) of the standalone forward/backward calls."""
        return self.mesh, self.config, self.cot

    def setup(self):
        pipeline.rasterize(self.mesh, self.config)
        pipeline.rasterize_backward(self.mesh, self.config, self.cot)

    def run_round(self, rec, tracer, round_idx):
        out = record_pair(rec, self.mesh, self.config, self.cot, round_idx, window=True)
        if out is not None and self.final_loss is None:
            self.final_loss = float(np.sum(self.cot * out[0].values))
            self._loss_scale = float(np.sum(np.abs(self.cot * out[0].values)))

    def finish(self, rec, reference):
        directional_check(rec, self.mesh, self.config, self.cot, self.direction)
        if reference is not None and self.final_loss is not None:
            gap = abs(self.final_loss - reference) / self._loss_scale
            rec.op(gap <= REFERENCE_RTOL["raster"],
                   f"L {self.final_loss!r} differs from the recorded {reference!r}")

    def digest(self):
        m = self.mesh
        return _digest(m.vertices, m.elements, m.densities, self.cot, self.direction)


class FitWorkload:
    """Fixed-length fits, each followed by a few standalone forward/backward pairs.

    Iterations are clocked by replacing ``optimizer.TrajectoryPoint``, which
    ``fit`` builds once after each accepted iteration: a timestamp per
    iteration, present in the untraced runs as well.
    """

    kind = "fit"
    #: rounds (whole fits and their pairs) after which the process reads its peak RSS
    rss_rounds = 1

    def __init__(self, problem, iters, probe_mesh, probe_config, rng, pairs_per_round,
                 target_mesh=None):
        self.problem = problem
        self.iters = iters
        self.target_mesh = target_mesh
        self.probe_mesh = probe_mesh
        self.probe_config = probe_config
        self.cot = rng.standard_normal(
            (probe_config.resolution,) * probe_mesh.dim + (probe_mesh.channels,))
        self.direction = _unit(rng, probe_mesh.vertices.shape)
        self.pairs_per_round = pairs_per_round
        self.final_losses = []
        self.marks = []

    def probe(self):
        return self.probe_mesh, self.probe_config, self.cot

    def setup(self):
        point = optimizer.TrajectoryPoint

        def stamped(*args, **kwargs):
            self.marks.append(clock())
            return point(*args, **kwargs)

        optimizer.TrajectoryPoint = stamped
        if self.target_mesh is not None:  # target raster, built once
            self.problem.target = pipeline.rasterize(self.target_mesh, self.problem.config)
        optimizer.make_objective(self.problem)(self.problem.initial_state())

    def run_round(self, rec, tracer, round_idx):
        self.marks.clear()
        try:
            with tracer.span("optimizer.fit"):
                result = optimizer.fit(self.problem)
        except Exception as exc:
            for _ in range(self.iters):
                rec.op(False, f"fit raised {exc!r}")
            result = None
        if result is not None:
            self._check_fit(rec, result, round_idx)
        for _ in range(self.pairs_per_round):
            record_pair(rec, self.probe_mesh, self.probe_config, self.cot, round_idx, window=False)

    def _check_fit(self, rec, result, round_idx):
        marks = self.marks
        rec.samples["fit_iter_s"].extend(np.diff(marks).tolist())
        rec.windows.extend((a, b, round_idx) for a, b in zip(marks[:-1], marks[1:]))
        losses = result.losses
        for k in range(1, len(losses)):
            rec.op(bool(np.isfinite(losses[k]) and losses[k] <= losses[k - 1]),
                   f"iteration {k}: loss {losses[k - 1]!r} -> {losses[k]!r}")
        for k in range(len(losses), self.iters + 1):
            rec.op(False, f"iteration {k} not reached: {result.message}")
        self.final_losses.append(float(losses[-1]))

    def finish(self, rec, reference):
        directional_check(rec, self.probe_mesh, self.probe_config, self.cot, self.direction)
        if self.final_losses:
            rec.op(len(set(self.final_losses)) == 1,
                   f"fits of one seed ended at different losses {sorted(set(self.final_losses))}")
        if reference is not None and self.final_losses:
            loss = self.final_losses[0]
            rec.op(abs(loss - reference) <= REFERENCE_RTOL["fit"] * abs(reference),
                   f"final loss {loss!r} differs from the recorded {reference!r}")

    @property
    def final_loss(self):
        return self.final_losses[0] if self.final_losses else None

    def digest(self):
        p = self.problem
        target = self.target_mesh.vertices if self.target_mesh is not None else p.target
        return _digest(p.mesh.vertices, p.mesh.elements, p.mesh.densities, target,
                       p.initial_state(), self.cot, self.direction)


def kuhn_lattice(cells: int, lo: float = 0.1, hi: float = 0.9) -> tuple[np.ndarray, np.ndarray]:
    """Axis-aligned cube lattice, each cube cut into the 6 Kuhn tetrahedra."""
    axis = np.linspace(lo, hi, cells + 1)
    vertices = np.array(list(itertools.product(axis, axis, axis)))

    def index(c):
        return (c[0] * (cells + 1) + c[1]) * (cells + 1) + c[2]

    tets = []
    for corner in itertools.product(range(cells), repeat=3):
        for order in itertools.permutations(range(3)):
            c = list(corner)
            row = [index(c)]
            for axis_step in order:
                c[axis_step] += 1
                row.append(index(c))
            tets.append(row)
    return vertices, np.array(tets)


def mesh2d(rng, smoke):
    n, res = (12, 8) if smoke else (400, 64)
    mesh = sampling.random_mesh(2, 2, n, rng, channels=3)
    return RasterWorkload(mesh, RasterizeConfig(resolution=res), rng)


def lattice3d(rng, smoke):
    cells, res = (1, 8) if smoke else (2, 32)
    vertices, tets = kuhn_lattice(cells)
    mesh = SimplexMesh(3, 3, vertices, tets, rng.uniform(0.5, 1.5, size=(len(tets), 1)))
    return RasterWorkload(mesh, RasterizeConfig(resolution=res), rng)


def posefit3d(rng, smoke):
    # C8b fits one tetrahedron, whose calls run on one core; from run to run
    # their time varied several times more than that of the same calls on
    # a box of 6 tetrahedra, which keeps both cores busy
    res, iters = (8, 2) if smoke else (32, 5)
    unit, tets = kuhn_lattice(1, 0.0, 1.0)
    lo, hi = np.array(POSE_BOX).T
    mesh = SimplexMesh(3, 3, lo + unit * (hi - lo), tets, np.ones(len(tets)))
    # C8b's 30 degrees about z, jittered: wider draws change the number of
    # line-search halvings per iteration, and with it the work per iteration
    angle = np.deg2rad(rng.uniform(29.5, 30.5))
    axis = np.array([rng.normal(0.0, 0.005), rng.normal(0.0, 0.005), 1.0])
    axis /= np.linalg.norm(axis)
    q = np.concatenate([[np.cos(angle / 2)], np.sin(angle / 2) * axis])
    target = mesh.with_vertices(quat_apply(PoseQuat(q, [0, 0, 0]), mesh.vertices))
    config = RasterizeConfig(resolution=res)
    problem = FitProblem(
        mesh=mesh, target=target, config=config,
        schedule=Schedule(step=2e-3, max_iters=iters, tol=0.0),
        variable="pose", loss="l1", pose=PoseQuat([1, 0, 0, 0], [0, 0, 0]))
    return FitWorkload(problem, iters, mesh, config, rng, pairs_per_round=8,
                       target_mesh=target)


def polyfit2d(rng, smoke):
    sides = 24
    resolutions, iters = ((8, 16), 2) if smoke else ((16, 32, 64), 12)
    start = sampling.random_convex_polygon(sides, rng)
    target = sampling.random_simple_polygon(sides, rng)
    config = RasterizeConfig(resolution=resolutions[-1], mode="auxnode")
    mesh = pipeline.polygon_boundary_mesh(start)
    # the step is small enough that every iteration accepts its first
    # candidate: 12 forward and 6 backward calls per iteration
    problem = FitProblem(
        mesh=mesh, target=target, config=config,
        schedule=Schedule(step=2e-5, max_iters=iters, tol=0.0),
        variable="vertices", loss="mres_smooth", smooth_weight=1.0,
        mres_resolutions=resolutions)
    return FitWorkload(problem, iters, mesh, config, rng, pairs_per_round=16)


WORKLOADS = {"mesh2d": mesh2d, "lattice3d": lattice3d,
             "posefit3d": posefit3d, "polyfit2d": polyfit2d}


def build(name: str, seed: int, smoke: bool):
    return WORKLOADS[name](np.random.default_rng(seed), smoke)


def sizes(workload) -> dict:
    mesh, config, _ = workload.probe()
    grid = pipeline.build_grid(mesh.dim, config.resolution)
    out = {"elements": mesh.n_elements, "vertices": mesh.n_vertices, "degree": mesh.degree,
           "dim": mesh.dim, "channels": mesh.channels, "resolution": config.resolution,
           "modes": grid.n_modes, "mode": config.mode,
           "pairs_per_call": mesh.n_elements * grid.n_modes}
    if workload.kind == "fit":
        out["fit_iterations"] = workload.iters
    return out


def parallel_eff(workload, workers: int, reps: int = 5) -> float:
    """Single-worker forward time over workers x the forward time at ``workers``."""
    mesh, config, _ = workload.probe()
    grid = pipeline.build_grid(mesh.dim, config.resolution)
    forward = nuft.forward_auxnode if config.mode == "auxnode" else nuft.forward_mesh

    def seconds(w):
        t0 = clock()
        forward(mesh, grid, workers=w)
        return clock() - t0

    one, many = [], []
    for _ in range(reps):
        one.append(seconds(1))
        many.append(seconds(workers))
    return statistics.median(one) / (workers * statistics.median(many))
