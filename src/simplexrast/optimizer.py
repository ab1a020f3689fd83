"""Gradient-descent drivers for raster-matching shape and pose fits.

The losses compare the rasterization of the current geometry with a fixed
target raster, so every gradient flows through the analytic backward pass.
Gradient descent with backtracking (halve the step while it would increase
the loss) keeps the recorded loss sequence non-increasing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .deform import ControlRig, PoseQuat, lbs_apply, lbs_pullback, quat_apply, quat_pullback
from .meshcore import SimplexMesh, _check_int, _check_real
from .pipeline import RasterizeConfig, _ccw_loop, _rasters, _rasters_backward, loss_smooth
# not called here: perfbench/layers.py wraps these two module attributes by name
from .pipeline import rasterize, rasterize_backward  # noqa: F401
from .spectral import Raster

VARIABLES = ("vertices", "rig", "pose")
LOSSES = ("l1", "l2", "mres_smooth")

#: step halvings one iteration may try before the fit stops
_MAX_HALVINGS = 20


class FitDivergedError(RuntimeError):
    """Optimization hit a non-finite loss."""


@dataclass
class Schedule:
    step: float
    max_iters: int = 500
    tol: float = 0.0

    def __post_init__(self):
        _check_real(self.step, "step")
        if self.step <= 0:
            raise ValueError(f"step must be positive, got {self.step!r}")
        _check_int(self.max_iters, "max_iters", 0)
        _check_real(self.tol, "tol")


@dataclass
class FitProblem:
    """One shape/pose fitting task.

    ``variable`` picks what moves: raw vertices, control-rig DOFs, or a
    quaternion pose.  ``loss`` is a raster L1/L2 against the target, or
    the multi-resolution + smoothness composite for polygon boundaries.
    ``target`` may be a raster or a mesh (rasterized once at ``config``).
    ``mres_smooth`` replaces ``mesh`` by its vertex loop at unit density,
    walked counter-clockwise (``pipeline._ccw_loop``), and takes a polygon
    or its boundary mesh as target.
    """

    mesh: SimplexMesh
    target: object
    config: RasterizeConfig
    schedule: Schedule
    variable: str = "vertices"
    loss: str = "l2"
    rig: ControlRig = None
    pose: PoseQuat = None
    smooth_weight: float = 0.0
    mres_resolutions: tuple = ()

    def __post_init__(self):
        if self.variable not in VARIABLES:
            raise ValueError(f"variable must be one of {VARIABLES}")
        if self.loss not in LOSSES:
            raise ValueError(f"loss must be one of {LOSSES}")
        if self.variable == "rig" and self.rig is None:
            raise ValueError("rig variable needs a ControlRig")
        if self.variable == "pose" and self.pose is None:
            raise ValueError("pose variable needs a PoseQuat")
        dim = {"rig": 2, "pose": 3}.get(self.variable)  # the rig is planar, the pose 3D
        if dim is not None and self.mesh.dim != dim:
            raise ValueError(f"{self.variable} variable needs a {dim}D mesh, "
                             f"got dim={self.mesh.dim}")
        if self.variable == "rig" and self.rig.rest_vertices.shape != self.mesh.vertices.shape:
            raise ValueError(f"rig rest vertices {self.rig.rest_vertices.shape} are not "
                             f"the mesh vertices {self.mesh.vertices.shape}")
        if self.loss == "mres_smooth":
            if self.mesh.degree != 1 or self.mesh.dim != 2:
                raise ValueError("mres_smooth loss runs on a polygon boundary mesh")
            if not self.mres_resolutions:
                raise ValueError("mres_smooth loss needs resolutions")
            if self.variable != "vertices":
                raise ValueError("mres_smooth fits polygon vertices directly")
            if isinstance(self.target, Raster):
                raise ValueError("mres_smooth target must be a polygon or its boundary mesh, "
                                 "not a Raster: a raster has one resolution and cannot "
                                 "serve mres_resolutions")
            self.mesh = _ccw_loop(self.mesh.vertices, self.mesh.elements)
        for r in self.mres_resolutions:
            _check_int(r, "mres_resolutions", 2)
        _check_real(self.smooth_weight, "smooth_weight")
        if self.smooth_weight < 0:
            raise ValueError(f"smooth_weight must be >= 0, got {self.smooth_weight!r}")

    def initial_state(self) -> np.ndarray:
        if self.variable == "vertices":
            return self.mesh.vertices.reshape(-1).copy()
        if self.variable == "rig":
            return self.rig.controls.reshape(-1).copy()
        return np.concatenate([self.pose.q, self.pose.t])

    def geometry(self, state: np.ndarray) -> SimplexMesh:
        """Mesh realized by a state vector."""
        if self.variable == "vertices":
            return self.mesh.with_vertices(state.reshape(self.mesh.vertices.shape))
        if self.variable == "rig":
            rig = replace(self.rig, controls=state.reshape(-1, 3))
            return self.mesh.with_vertices(lbs_apply(rig))
        pose = PoseQuat(state[:4], state[4:], self.pose.pivot)
        return self.mesh.with_vertices(quat_apply(pose, self.mesh.vertices))


@dataclass
class TrajectoryPoint:
    iteration: int
    loss: float
    grad_norm: float
    state: np.ndarray


@dataclass
class FitResult:
    trajectory: list = field(default_factory=list)
    state: np.ndarray = None
    converged: bool = False
    message: str = ""

    @property
    def losses(self) -> np.ndarray:
        return np.array([p.loss for p in self.trajectory])


def _raster_loss(diff: np.ndarray, squared: bool):
    """Raster L2 (``squared``) or L1 distance of a raster difference, and
    its cotangent.

    The L1 cotangent is the sign subgradient (sign(0) = 0, so the gradient
    is exactly zero at a perfect match).
    """
    if squared:
        return float((diff ** 2).sum()), 2.0 * diff
    return float(np.abs(diff).sum()), np.sign(diff)


def loss_mres(candidates, target_polygon, config: RasterizeConfig):
    """Multi-resolution raster L1 against a target polygon.

    ``candidates`` is a list of (polygon, resolution) pairs; the loss sums
    the raster L1 terms at each listed resolution and returns one vertex
    gradient per candidate, in the candidate's own vertex order.  The
    target is rasterized once per call, at every listed resolution from one
    forward sweep at the largest; each candidate then costs one forward
    and one backward sweep at its own resolution.
    """
    candidates = list(candidates)
    config = replace(config, mode="auxnode")
    target = _ccw_loop(target_polygon)
    if not candidates:
        return 0.0, []
    targets = _rasters(target, config, [r for _, r in candidates])
    total, grads = 0.0, []
    for (polygon, resolution), target_raster in zip(candidates, targets):
        loop = _ccw_loop(polygon)
        (raster,) = _rasters(loop, config, [resolution])
        value, cot = _raster_loss(raster.values - target_raster.values, squared=False)
        total += value
        grads.append(_rasters_backward(loop, config, [resolution], [cot]).d_vertices)
    return total, grads


def make_objective(problem: FitProblem):
    """Callable (state, need_grad=True) -> (loss, gradient-or-None).

    Sums the raster L2 (``l2``) or L1 distance to each target, rasterized
    here once, plus for ``mres_smooth`` the weighted loop smoothness.  The
    resolutions are ``mres_resolutions`` for ``mres_smooth`` and the
    config's one resolution otherwise.  A call rasterizes every resolution
    from one forward sweep at the largest and takes the gradient of all of
    them from one backward sweep there (``pipeline._rasters``).  A target
    whose channel count is not the mesh's is a ValueError.

    A ``need_grad=False`` call on a finite state keeps its raster
    differences for the next call only.  If that call asks for the gradient
    at a state of the same shape, dtype and bytes, as ``fit`` does for an
    accepted line-search candidate, it runs only the backward pass.
    """
    config, target, resolutions = problem.config, problem.target, (problem.config.resolution,)
    if problem.loss == "mres_smooth":
        config, resolutions = replace(config, mode="auxnode"), problem.mres_resolutions
        target = (_ccw_loop(target.vertices, target.elements) if isinstance(target, SimplexMesh)
                  else _ccw_loop(target))
    if isinstance(target, Raster):
        if target.resolution != config.resolution:
            raise ValueError("target raster resolution does not match config")
        targets = [target]
    elif isinstance(target, SimplexMesh):
        targets = _rasters(target, config, resolutions)
    else:
        raise TypeError("target must be a Raster or a SimplexMesh")
    if target.channels != problem.mesh.channels:
        raise ValueError(f"target {type(target).__name__} has {target.channels} channel(s), "
                         f"mesh has {problem.mesh.channels}")
    smooth = problem.loss == "mres_smooth" and problem.smooth_weight > 0
    probe = None  # (state key, raster differences) of the last finite need_grad=False call

    def objective(state, need_grad=True):
        nonlocal probe
        state = np.asarray(state)
        held, probe = probe, None
        mesh = problem.geometry(state) if np.all(np.isfinite(state)) else None
        if mesh is None or not np.all(np.isfinite(mesh.vertices)):
            # the pose and the rasterizer reject non-finite input; a diverged
            # state gets the non-finite loss that ``fit`` stops on
            return np.nan, (np.full(state.shape, np.nan) if need_grad else None)
        key = (state.shape, state.dtype.str, state.tobytes())
        if need_grad and held is not None and held[0] == key:
            diffs = held[1]
        else:
            rasters = _rasters(mesh, config, resolutions)
            diffs = [r.values - t.values for r, t in zip(rasters, targets)]
        if not need_grad:
            probe = key, diffs
        value, cots = 0.0, []
        for diff in diffs:
            term, cot = _raster_loss(diff, problem.loss == "l2")
            value += term
            cots.append(cot)
        if smooth:
            s_val, s_grad = loss_smooth(mesh.vertices)
            value += problem.smooth_weight * s_val
        if not need_grad:
            return value, None
        dv = _rasters_backward(mesh, config, resolutions, cots).d_vertices
        if smooth:
            dv = dv + problem.smooth_weight * s_grad
        if problem.variable == "vertices":
            return value, dv.reshape(-1)
        if problem.variable == "rig":
            rig = replace(problem.rig, controls=state.reshape(-1, 3))
            return value, lbs_pullback(rig, dv).reshape(-1)
        pose = PoseQuat(state[:4], state[4:], problem.pose.pivot)
        d_q, d_t = quat_pullback(pose, problem.mesh.vertices, dv)
        return value, np.concatenate([d_q, d_t])

    return objective


def fit(problem: FitProblem) -> FitResult:
    """Minimize the problem's loss by gradient descent.

    Each iteration restarts from the scheduled step and halves it while
    the move would increase the loss, so recorded losses never increase.
    Candidates are probed with ``need_grad=False``; the gradient call at
    the accepted candidate that follows reuses the probe's rasters (see
    ``make_objective``), so each candidate is rasterized once.  Stops at the iteration cap, when no
    halving yields a decrease, when the loss hits zero, or when the loss
    improved by less than ``tol`` over the last 10 iterations.
    """
    objective = make_objective(problem)
    sched = problem.schedule
    state = problem.initial_state()
    loss, grad = objective(state)
    if not np.isfinite(loss):
        raise FitDivergedError("non-finite loss at the initial state")
    result = FitResult(trajectory=[
        TrajectoryPoint(0, loss, float(np.linalg.norm(grad)), state.copy())])
    for it in range(1, sched.max_iters + 1):
        if loss == 0.0:
            result.converged = True
            result.message = "loss reached zero"
            break
        step = sched.step
        for _ in range(_MAX_HALVINGS + 1):
            cand = state - step * grad
            cand_loss, _ = objective(cand, need_grad=False)
            if not np.isfinite(cand_loss):
                raise FitDivergedError(f"non-finite loss at iteration {it}")
            if cand_loss <= loss:
                break
            step *= 0.5
        else:  # every halving raised the loss
            result.converged = True
            result.message = "no descent direction within the halving budget"
            break
        state, loss = cand, cand_loss
        _, grad = objective(state)
        result.trajectory.append(
            TrajectoryPoint(it, loss, float(np.linalg.norm(grad)), state.copy()))
        if len(result.trajectory) > 10:
            if result.trajectory[-11].loss - loss < sched.tol:
                result.converged = True
                result.message = "loss change below tolerance over 10 iterations"
                break
    else:
        result.message = "iteration cap reached"
    result.state = state
    return result


def iou(raster_a, raster_b) -> float:
    """Intersection over union of the rasters thresholded at 0.5 (half the
    unit density); 1.0 if both empty."""
    a = raster_a.values if isinstance(raster_a, Raster) else np.asarray(raster_a)
    b = raster_b.values if isinstance(raster_b, Raster) else np.asarray(raster_b)
    if a.shape != b.shape:
        raise ValueError("rasters must have the same shape")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("rasters must be finite")
    sa = a > 0.5
    sb = b > 0.5
    union = np.logical_or(sa, sb).sum()
    if union == 0:
        return 1.0
    return float(np.logical_and(sa, sb).sum() / union)
