"""Differentiable mesh deformation rigs.

Two parameterizations with hand-derived pullbacks: 2D control points with
translate + rotate-about-center degrees of freedom blended by per-vertex
skinning weights, and a 3D rigid pose as a unit quaternion plus
translation.  Both are pure functions of their parameters so vertex-space
cotangents chain back through transposed Jacobians.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: softening of the inverse-square default skinning weights
WEIGHT_EPS = 1e-4


@dataclass
class ControlRig:
    """2D linear-blend-skinning rig.

    controls: (m, 3) rows (t_x, t_y, theta); centers: (m, 2) rest positions;
    weights: (n_v, m) rows non-negative, summing to 1; rest_vertices: (n_v, 2).
    """

    controls: np.ndarray
    centers: np.ndarray
    weights: np.ndarray
    rest_vertices: np.ndarray

    def __post_init__(self):
        self.controls = np.asarray(self.controls, dtype=np.float64).reshape(-1, 3)
        self.centers = np.asarray(self.centers, dtype=np.float64).reshape(-1, 2)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.rest_vertices = _planar_vertices(self.rest_vertices)
        if self.controls.shape[0] != self.centers.shape[0]:
            raise ValueError("one control row per center required")
        if self.weights.shape != (self.rest_vertices.shape[0], self.centers.shape[0]):
            raise ValueError("weights must be (n_vertices, n_controls)")

    @property
    def n_controls(self) -> int:
        return self.centers.shape[0]

    def check_weights(self) -> None:
        if np.any(self.weights < 0):
            raise ValueError("skinning weights must be non-negative")
        if np.any(np.abs(self.weights.sum(axis=1) - 1.0) > 1e-9):
            raise ValueError("skinning weight rows must sum to 1")


def _planar_vertices(rest_vertices) -> np.ndarray:
    """``rest_vertices`` as an (n, 2) float array; any other shape is an
    error, never reshaped into planar points."""
    rest = np.asarray(rest_vertices, dtype=np.float64)
    if rest.ndim != 2 or rest.shape[1] != 2:
        raise ValueError(f"rest_vertices must be an (n, 2) array, got shape {rest.shape}")
    return rest


def inverse_square_weights(vertices, centers, eps: float = WEIGHT_EPS) -> np.ndarray:
    """Default skinning weights: normalized 1 / (|v - c|^2 + eps)."""
    v = np.asarray(vertices, dtype=np.float64)
    c = np.asarray(centers, dtype=np.float64)
    d2 = np.sum((v[:, None, :] - c[None, :, :]) ** 2, axis=2)
    w = 1.0 / (d2 + eps)
    return w / w.sum(axis=1, keepdims=True)


def make_rig(rest_vertices, centers, controls=None, weights=None) -> ControlRig:
    rest_vertices = _planar_vertices(rest_vertices)
    centers = np.asarray(centers, dtype=np.float64).reshape(-1, 2)
    if weights is None:
        weights = inverse_square_weights(rest_vertices, centers)
    if controls is None:
        controls = np.zeros((centers.shape[0], 3))
    return ControlRig(controls, centers, weights, rest_vertices)


def lbs_apply(rig: ControlRig) -> np.ndarray:
    """Deformed vertex positions: weighted rotate-about-center plus translate.

    With all controls at (0, 0, 0) the rest vertices come back unchanged
    (weight rows sum to 1).
    """
    rig.check_weights()
    t = rig.controls[:, :2]
    theta = rig.controls[:, 2]
    cos, sin = np.cos(theta), np.sin(theta)
    rel = rig.rest_vertices[:, None, :] - rig.centers[None, :, :]  # (n_v, m, 2)
    rot_x = cos[None, :] * rel[:, :, 0] - sin[None, :] * rel[:, :, 1]
    rot_y = sin[None, :] * rel[:, :, 0] + cos[None, :] * rel[:, :, 1]
    per_control = np.stack([rot_x, rot_y], axis=2) + rig.centers[None] + t[None]
    return np.einsum("vm,vmd->vd", rig.weights, per_control)


def lbs_pullback(rig: ControlRig, d_vertices) -> np.ndarray:
    """Vertex cotangents -> control cotangents, (m, 3)."""
    dv = np.asarray(d_vertices, dtype=np.float64)
    if dv.shape != rig.rest_vertices.shape:
        raise ValueError("d_vertices must match the rest vertices")
    theta = rig.controls[:, 2]
    cos, sin = np.cos(theta), np.sin(theta)
    rel = rig.rest_vertices[:, None, :] - rig.centers[None, :, :]
    drot_x = -sin[None, :] * rel[:, :, 0] - cos[None, :] * rel[:, :, 1]
    drot_y = cos[None, :] * rel[:, :, 0] - sin[None, :] * rel[:, :, 1]
    d_controls = np.zeros((rig.n_controls, 3))
    d_controls[:, 0] = np.einsum("vm,v->m", rig.weights, dv[:, 0])
    d_controls[:, 1] = np.einsum("vm,v->m", rig.weights, dv[:, 1])
    d_controls[:, 2] = np.einsum("vm,vm->m", rig.weights,
                                 drot_x * dv[:, 0, None] + drot_y * dv[:, 1, None])
    return d_controls


# ---------------------------------------------------------------------------
# quaternion pose

@dataclass
class PoseQuat:
    """Rigid 3D pose: quaternion (a, b, c, d) and translation, pivoted rotation."""

    q: np.ndarray
    t: np.ndarray
    pivot: np.ndarray = None

    def __post_init__(self):
        self.q = _finite_vector(self.q, 4, "q")
        self.t = _finite_vector(self.t, 3, "t")
        self.pivot = _finite_vector(np.full(3, 0.5) if self.pivot is None else self.pivot,
                                    3, "pivot")


def _finite_vector(value, n: int, name: str) -> np.ndarray:
    """``value`` as exactly ``n`` finite floats; any other shape is an error, not reshaped."""
    v = np.asarray(value, dtype=np.float64)
    if v.shape != (n,) or not np.all(np.isfinite(v)):
        raise ValueError(f"pose {name} must be {n} finite numbers, got {value!r}")
    return v


def _rotation_matrix(q: np.ndarray) -> np.ndarray:
    a, b, c, d = q
    return np.array([
        [1 - 2 * (c * c + d * d), 2 * (b * c - a * d), 2 * (b * d + a * c)],
        [2 * (b * c + a * d), 1 - 2 * (b * b + d * d), 2 * (c * d - a * b)],
        [2 * (b * d - a * c), 2 * (c * d + a * b), 1 - 2 * (b * b + c * c)],
    ])


def _rotation_matrix_grads(q: np.ndarray) -> np.ndarray:
    """dR/dq for a unit quaternion, shape (4, 3, 3)."""
    a, b, c, d = q
    da = 2 * np.array([[0, -d, c], [d, 0, -b], [-c, b, 0]], dtype=np.float64)
    db = 2 * np.array([[0, c, d], [c, -2 * b, -a], [d, a, -2 * b]], dtype=np.float64)
    dc = 2 * np.array([[-2 * c, b, a], [b, 0, d], [-a, d, -2 * c]], dtype=np.float64)
    dd = 2 * np.array([[-2 * d, -a, b], [a, -2 * d, c], [b, c, 0]], dtype=np.float64)
    return np.stack([da, db, dc, dd])


def quat_apply(pose: PoseQuat, vertices) -> np.ndarray:
    """Rotate about the pivot by the (internally normalized) quaternion, then translate."""
    v = np.asarray(vertices, dtype=np.float64)
    norm = np.linalg.norm(pose.q)
    if norm < 1e-8:
        raise ValueError("quaternion norm too small to normalize")
    rot = _rotation_matrix(pose.q / norm)
    return (v - pose.pivot) @ rot.T + pose.pivot + pose.t


def quat_pullback(pose: PoseQuat, vertices, d_vertices) -> tuple[np.ndarray, np.ndarray]:
    """Vertex cotangents -> (d_q, d_t); gradient flows through the normalization."""
    v = np.asarray(vertices, dtype=np.float64)
    dv = np.asarray(d_vertices, dtype=np.float64)
    norm = np.linalg.norm(pose.q)
    if norm < 1e-8:
        raise ValueError("quaternion norm too small to normalize")
    unit = pose.q / norm
    rel = v - pose.pivot
    grads = _rotation_matrix_grads(unit)
    # dL/d(unit_i) = sum_v dv . (dR/dq_i) rel
    d_unit = np.einsum("vr,irc,vc->i", dv, grads, rel)
    jac_norm = (np.eye(4) - np.outer(unit, unit)) / norm
    d_q = jac_norm @ d_unit
    d_t = dv.sum(axis=0)
    return d_q, d_t
