"""Simplex meshes and their measure geometry.

A mesh of degree ``j`` in ``d`` dimensions is the triple (vertices,
elements, densities): float coordinates ``(n_v, d)``, integer connectivity
``(n_e, j + 1)``, and per-element signal densities ``(n_e, c)``.  Degrees
0..3 cover point clouds, line meshes, triangle meshes, and tetrahedral
meshes.  Coordinates canonically live in the unit box; values outside it
alias periodically rather than clip, so validation flags them instead of
rejecting.

Element measure ("content": length / area / volume) comes from the
Cayley-Menger determinant of pairwise squared distances, which is uniform
across degrees and needs no embedding-specific formula.  The distortion
factor is ``j! * content`` (content relative to the unit orthogonal
simplex) and is the geometric weight used by the spectral transform.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: content at or below this is degenerate for strict validation / gradients
DEGENERACY_EPS = 1e-12

#: adjugate falls back to cofactor expansion below this determinant magnitude
_ADJUGATE_DET_FLOOR = 1e-300


class MeshValidationError(ValueError):
    """A mesh failed validation where a valid mesh is required."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("mesh validation failed: " + "; ".join(self.violations))


class DegenerateElementError(MeshValidationError):
    """Strict-mode gradient request on an element with ~zero content."""


@dataclass
class SimplexMesh:
    """Homogeneous simplicial complex with per-element densities."""

    dim: int
    degree: int
    vertices: np.ndarray
    elements: np.ndarray
    densities: np.ndarray

    def __post_init__(self):
        self.vertices = np.atleast_2d(np.asarray(self.vertices, dtype=np.float64))
        self.elements = np.asarray(self.elements, dtype=np.int64)
        if self.elements.ndim == 1:
            self.elements = self.elements.reshape(-1, self.degree + 1)
        self.densities = np.asarray(self.densities, dtype=np.float64)
        if self.densities.ndim == 1:
            self.densities = self.densities[:, None]
        if self.vertices.shape[1] != self.dim and self.vertices.size > 0:
            raise ValueError(
                f"vertices have {self.vertices.shape[1]} coordinates, expected dim={self.dim}"
            )
        if self.elements.shape[1] != self.degree + 1:
            raise ValueError(
                f"elements have {self.elements.shape[1]} nodes, expected degree+1={self.degree + 1}"
            )
        if self.densities.shape[0] != self.elements.shape[0]:
            raise ValueError(
                f"{self.densities.shape[0]} density rows for {self.elements.shape[0]} elements"
            )

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    @property
    def channels(self) -> int:
        return self.densities.shape[1]

    def element_points(self) -> np.ndarray:
        """Vertex coordinates gathered per element, shape (n_e, degree+1, dim)."""
        return self.vertices[self.elements]

    def with_vertices(self, vertices: np.ndarray) -> "SimplexMesh":
        return SimplexMesh(self.dim, self.degree, np.asarray(vertices, float),
                           self.elements, self.densities)


def validate(mesh: SimplexMesh, strict: bool = False) -> list[str]:
    """Collect invariant violations; empty list means the mesh is usable.

    Always checked: degree/dimension support, finiteness, index range,
    repeated nodes within an element.  Coordinates outside [0, 1] are
    flagged (periodic aliasing hazard) but the mesh stays usable.  With
    ``strict=True`` every element of degree >= 1 must have content above
    ``DEGENERACY_EPS``.
    """
    v: list[str] = []
    if mesh.dim not in (2, 3):
        v.append(f"dimension {mesh.dim} unsupported (expected 2 or 3)")
    if not 0 <= mesh.degree <= 3:
        v.append(f"degree {mesh.degree} unsupported (expected 0..3)")
    if mesh.degree > mesh.dim:
        v.append(f"degree {mesh.degree} exceeds dimension {mesh.dim}")
    if not np.all(np.isfinite(mesh.vertices)):
        v.append("non-finite vertex coordinates")
    if not np.all(np.isfinite(mesh.densities)):
        v.append("non-finite densities")
    # The unit box is half-open in principle, but a coordinate exactly at 1
    # aliases to 0 without harm, so only strictly-outside values are flagged.
    if mesh.vertices.size and np.all(np.isfinite(mesh.vertices)):
        outside = np.any((mesh.vertices < 0.0) | (mesh.vertices > 1.0), axis=1)
        if outside.any():
            v.append(f"{int(outside.sum())} vertices outside the unit box (periodic wrap applies)")
    bad_index, messages = _index_violations(mesh)
    v.extend(messages)
    if mesh.degree >= 1:
        sorted_rows = np.sort(mesh.elements, axis=1)
        repeated = (np.diff(sorted_rows, axis=1) == 0).any(axis=1)
        repeated &= ~bad_index
        for e in np.nonzero(repeated)[0]:
            v.append(f"element {e}: repeated vertex index")
    if strict and mesh.degree >= 1 and not bad_index.any():
        contents = element_contents(mesh)
        for e in np.nonzero(contents <= DEGENERACY_EPS)[0]:
            v.append(f"element {e}: degenerate (content {contents[e]:.3e} <= {DEGENERACY_EPS:.0e})")
    return v


def require_valid(mesh: SimplexMesh, strict: bool = False) -> None:
    violations = validate(mesh, strict=strict)
    if violations:
        raise MeshValidationError(violations)


def _index_violations(mesh: SimplexMesh) -> tuple[np.ndarray, list[str]]:
    """Elements with a node index outside [0, n_vertices): mask and messages."""
    bad = ((mesh.elements < 0) | (mesh.elements >= mesh.n_vertices)).any(axis=1)
    return bad, [f"element {e}: vertex index out of range [0, {mesh.n_vertices})"
                 for e in np.nonzero(bad)[0]]


def content(points) -> float:
    """j-dimensional measure of the simplex spanned by j+1 points.

    Works for any degree j <= ambient dimension; a lone point has content 1
    by convention.  Tiny negative round-off under the square root is
    clamped to zero, so exactly-degenerate simplices report 0.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("points must be a (j+1, d) array")
    j = pts.shape[0] - 1
    if j > pts.shape[1]:
        raise ValueError(f"simplex degree {j} exceeds ambient dimension {pts.shape[1]}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("non-finite point coordinates")
    return float(_batch_content(pts[None])[0])


def distortion_factor(points) -> float:
    """``j! * content``: measure relative to the unit orthogonal simplex."""
    pts = np.asarray(points, dtype=np.float64)
    j = pts.shape[0] - 1
    return math.factorial(j) * content(pts)


def signed_distortion(offsets) -> float:
    """Signed distortion of the auxiliary simplex (origin, x_1, ..., x_j).

    ``offsets`` holds the j non-origin nodes as rows and must be square
    (the auxiliary simplex lives in d = j dimensions).  Equals
    ``j! * det([x_1 ... x_j])`` including orientation sign, so swapping two
    nodes negates it.
    """
    m = np.asarray(offsets, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("signed distortion needs a square (j, j) offset matrix (d == j)")
    j = m.shape[0]
    return math.factorial(j) * float(np.linalg.det(m))


def _adjugate_cofactor(a: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    if n == 1:
        return np.ones((1, 1))
    adj = np.empty_like(a)
    rows = np.arange(n)
    for p in range(n):
        for q in range(n):
            minor = a[np.ix_(rows != p, rows != q)]
            adj[q, p] = (-1.0) ** (p + q) * np.linalg.det(minor)
    return adj


# ---------------------------------------------------------------------------
# batched per-mesh geometry (hot path for the transform and its gradients)

def _batch_cayley_menger(pts: np.ndarray) -> np.ndarray:
    """CM matrices for a stack of elements, pts shape (n_e, j+1, d)."""
    n_e, m, _ = pts.shape
    diff = pts[:, :, None, :] - pts[:, None, :, :]
    d2 = np.einsum("estd,estd->est", diff, diff)
    b = np.zeros((n_e, m + 1, m + 1))
    b[:, 0, 1:] = 1.0
    b[:, 1:, 0] = 1.0
    b[:, 1:, 1:] = d2
    return b


def _batch_content(pts: np.ndarray) -> np.ndarray:
    j = pts.shape[1] - 1
    if j == 0:
        return np.ones(pts.shape[0])
    det = np.linalg.det(_batch_cayley_menger(pts))
    val = ((-1.0) ** (j + 1) / (2.0 ** j * math.factorial(j) ** 2)) * det
    return np.sqrt(np.clip(val, 0.0, None))


def _batch_adjugate(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Adjugates and determinants for a stack of small matrices."""
    det = np.linalg.det(b)
    adj = np.empty_like(b)
    ok = np.abs(det) > _ADJUGATE_DET_FLOOR
    if ok.any():
        adj[ok] = det[ok, None, None] * np.linalg.inv(b[ok])
    for i in np.nonzero(~ok)[0]:
        adj[i] = _adjugate_cofactor(b[i])
    return adj, det


def element_contents(mesh: SimplexMesh) -> np.ndarray:
    """Content of every element, shape (n_e,)."""
    if mesh.n_elements == 0:
        return np.zeros(0)
    return _batch_content(mesh.element_points())


def total_mass(mesh: SimplexMesh) -> np.ndarray:
    """Integral of the piecewise-constant field per channel: sum rho_n * C_n."""
    if mesh.n_elements == 0:
        return np.zeros(mesh.channels)
    return element_contents(mesh) @ mesh.densities


# ---------------------------------------------------------------------------
# JSON interchange

def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON literal {name!r} not allowed in mesh files")


def mesh_from_dict(data: dict) -> SimplexMesh:
    try:
        dim = int(data["dim"])
        degree = int(data["degree"])
        vertices = np.asarray(data["vertices"], dtype=np.float64)
        elements = np.asarray(data["elements"], dtype=np.int64)
        densities = np.asarray(data["densities"], dtype=np.float64)
    except KeyError as exc:
        raise ValueError(f"mesh JSON missing key {exc}") from exc
    return SimplexMesh(dim, degree, vertices, elements, densities)


def mesh_to_dict(mesh: SimplexMesh) -> dict:
    dens = mesh.densities[:, 0] if mesh.channels == 1 else mesh.densities
    return {
        "dim": mesh.dim,
        "degree": mesh.degree,
        "vertices": mesh.vertices.tolist(),
        "elements": mesh.elements.tolist(),
        "densities": dens.tolist(),
    }


def load_mesh(path) -> SimplexMesh:
    with open(Path(path), encoding="utf-8") as f:
        data = json.load(f, parse_constant=_reject_constant)
    return mesh_from_dict(data)


def save_mesh(mesh: SimplexMesh, path) -> None:
    with open(Path(path), "w", encoding="utf-8") as f:
        json.dump(mesh_to_dict(mesh), f, allow_nan=False)
        f.write("\n")
