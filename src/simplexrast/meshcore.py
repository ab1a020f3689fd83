"""Simplex meshes and their measure geometry.

A mesh of degree ``j`` in ``d`` dimensions is the triple (vertices,
elements, densities): float coordinates ``(n_v, d)``, integer connectivity
``(n_e, j + 1)``, and per-element signal densities ``(n_e, c)``.  Degrees
0..3 cover point clouds, line meshes, triangle meshes, and tetrahedral
meshes.  Coordinates canonically live in the unit box; values outside it
alias periodically rather than clip, so validation flags them instead of
rejecting.

Element measure ("content": length / area / volume) comes from the Gram
determinant of the edge rows ``E = x_1..x_j - x_0``: the distortion factor
``j! * content`` (content relative to the unit orthogonal simplex) is
``sqrt(det(E E^T))``, uniform across degrees and embeddings.  It is the
geometric weight of the spectral transform; an auxiliary simplex (origin,
x_1..x_j) with d == j weighs ``det J`` instead, J the matrix of rows
x_1..x_j.  The weights, their vertex gradients and the degeneracy rule
are all defined here.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: content at or below this is degenerate for strict validation / gradients
DEGENERACY_EPS = 1e-12


class MeshValidationError(ValueError):
    """A mesh failed validation where a valid mesh is required."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("mesh validation failed: " + "; ".join(self.violations))


@dataclass
class SimplexMesh:
    """Homogeneous simplicial complex with per-element densities."""

    dim: int
    degree: int
    vertices: np.ndarray
    elements: np.ndarray
    densities: np.ndarray

    def __post_init__(self):
        self.vertices = np.atleast_2d(_real_array(self.vertices, "vertices"))
        if self.vertices.size == 0:
            self.vertices = self.vertices.reshape(0, self.dim)
        self.elements = _node_indices(self.elements)
        if self.elements.ndim == 1:
            self.elements = self.elements.reshape(-1, self.degree + 1)
        self.densities = _real_array(self.densities, "densities")
        if self.densities.ndim == 1:
            self.densities = self.densities[:, None]
        for name, array in (("vertices", self.vertices), ("elements", self.elements),
                            ("densities", self.densities)):
            if array.ndim != 2:
                raise ValueError(f"{name} must be a 1-D or 2-D array, got {array.ndim} dimensions")
        if self.densities.shape[1] == 0:
            raise ValueError("densities have no channels")
        if self.vertices.shape[1] != self.dim:
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


def _check_int(value, name: str, minimum: int) -> None:
    """An integer (numpy integers too, bool not) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _check_real(value, name: str) -> None:
    """A finite real number (numpy floats too, bool not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")


def _real_array(values, name: str) -> np.ndarray:
    """``values`` as float64; complex values are an error, not cast to their
    real part."""
    if np.iscomplexobj(values):
        raise ValueError(f"{name} must be real, got complex values")
    return np.asarray(values, dtype=np.float64)


def _node_indices(elements) -> np.ndarray:
    """Element connectivity as int64; a non-integral index is an error, not
    truncated to the vertex below it."""
    raw = np.asarray(elements)
    if raw.dtype.kind in "iu":
        return np.asarray(raw, dtype=np.int64)
    if raw.dtype.kind != "f":
        raise ValueError(f"element node indices must be integers, got dtype {raw.dtype}")
    values = raw.astype(np.float64)
    if not np.all(np.isfinite(values) & (values == np.round(values))):
        raise MeshValidationError(["non-integral element node indices"])
    return values.astype(np.int64)


def _structure_violations(mesh: SimplexMesh) -> list[str]:
    """Unsupported dimension or degree, and a degree above the dimension."""
    v = []
    if mesh.dim not in (2, 3):
        v.append(f"dimension {mesh.dim} unsupported (expected 2 or 3)")
    if not 0 <= mesh.degree <= 3:
        v.append(f"degree {mesh.degree} unsupported (expected 0..3)")
    if mesh.degree > mesh.dim:
        v.append(f"degree {mesh.degree} exceeds dimension {mesh.dim}")
    return v


def _nonfinite_violations(vertices: np.ndarray, densities: np.ndarray) -> list[str]:
    v = []
    if not np.all(np.isfinite(vertices)):
        v.append("non-finite vertex coordinates")
    if not np.all(np.isfinite(densities)):
        v.append("non-finite densities")
    return v


def validate(mesh: SimplexMesh, strict: bool = False) -> list[str]:
    """Collect invariant violations; empty list means the mesh is usable.

    Always checked: degree/dimension support, finiteness, index range,
    repeated nodes within an element.  Coordinates outside [0, 1] are
    flagged (periodic aliasing hazard) but the mesh stays usable.  With
    ``strict=True`` every element of degree >= 1 must have content above
    ``DEGENERACY_EPS``.
    """
    v = _structure_violations(mesh) + _nonfinite_violations(mesh.vertices, mesh.densities)
    finite = bool(np.all(np.isfinite(mesh.vertices)))
    # The unit box is half-open in principle, but a coordinate exactly at 1
    # aliases to 0 without harm, so only strictly-outside values are flagged.
    if mesh.vertices.size and finite:
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
    if strict and mesh.degree >= 1 and finite and not bad_index.any():
        contents = _batch_content(mesh.element_points())
        for e in np.nonzero(contents <= DEGENERACY_EPS)[0]:
            v.append(f"element {e}: degenerate (content {contents[e]:.3e} <= {DEGENERACY_EPS:.0e})")
    return v


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


# ---------------------------------------------------------------------------
# batched element weights (hot path for the transform and its gradients)

def _edge_gram(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edge rows x_1..x_j - x_0 and their Gram matrices, pts shape (n_e, j+1, d)."""
    edges = pts[:, 1:] - pts[:, :1]
    return edges, edges @ np.swapaxes(edges, 1, 2)


def _element_weights(pts: np.ndarray, auxnode: bool) -> np.ndarray:
    """Kernel weight per element: j! * content = sqrt(det G), or det J for
    the auxiliary simplex (its distortion |det J| with the orientation sign;
    a j!-scaled weight would overcount by j!).  Tiny negative round-off of
    det G is clamped, so exactly-degenerate simplices weigh 0."""
    if auxnode:
        return np.linalg.det(pts)
    return np.sqrt(np.clip(np.linalg.det(_edge_gram(pts)[1]), 0.0, None))


def _batch_content(pts: np.ndarray) -> np.ndarray:
    return _element_weights(pts, False) / math.factorial(pts.shape[1] - 1)


def _cofactor_rows(rows: np.ndarray) -> np.ndarray:
    """d(det)/d(row) of square 2x2 or 3x3 matrices given by their rows.

    Closed-form cofactors: exact at det = 0, so no fallback is needed.
    """
    if rows.shape[1] == 2:
        r0, r1 = rows[:, 0], rows[:, 1]
        return np.stack([np.stack([r1[:, 1], -r1[:, 0]], axis=-1),
                         np.stack([-r0[:, 1], r0[:, 0]], axis=-1)], axis=1)
    r0, r1, r2 = rows[:, 0], rows[:, 1], rows[:, 2]
    return np.stack([np.cross(r1, r2), np.cross(r2, r0), np.cross(r0, r1)], axis=1)


def boundary_closure_defect(mesh: SimplexMesh) -> float:
    """Norm of the summed oriented boundary measure, relative to its total.

    Zero (to round-off) exactly when the signed auxnode contributions
    telescope: a watertight, consistently oriented boundary.  An element's
    cofactor rows (the gradient of its weight det J) sum to its measure,
    turned 90 degrees in 2D and doubled in 3D; the ratio sees neither.
    """
    if (mesh.dim, mesh.degree) not in ((2, 1), (3, 2)):
        raise ValueError("boundary closure defined for (dim=2, degree=1) and (dim=3, degree=2)")
    measures = _cofactor_rows(mesh.element_points()).sum(axis=1)
    total = np.linalg.norm(measures, axis=1).sum()
    if total == 0.0:
        return 0.0
    return float(np.linalg.norm(measures.sum(axis=0)) / total)


def _weight_gradients(pts: np.ndarray, weights: np.ndarray,
                      auxnode: bool) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of each element weight per vertex slot, shape (n_e, j+1, d),
    and the mask of degenerate elements (content <= ``DEGENERACY_EPS``).

    Simplex: edge row i gets ``gamma * (G^-1 E)_i`` and node 0 minus their
    sum; degenerate elements solve against G := I and get zero rows.
    Auxiliary simplex: the cofactor rows of J, never degenerate.
    """
    if auxnode:
        return _cofactor_rows(pts), np.zeros(len(pts), dtype=bool)
    j = pts.shape[1] - 1
    degenerate = weights / math.factorial(j) <= DEGENERACY_EPS
    edges, gram = _edge_gram(pts)
    gram[degenerate] = np.eye(j)
    rows = weights[:, None, None] * np.linalg.solve(gram, edges)
    rows[degenerate] = 0.0
    return np.concatenate([-rows.sum(axis=1, keepdims=True), rows], axis=1), degenerate


# ---------------------------------------------------------------------------
# JSON interchange

def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON literal {name!r} not allowed in mesh files")


def mesh_from_dict(data: dict) -> SimplexMesh:
    if not isinstance(data, dict):
        raise ValueError(f"mesh JSON must be an object, got {type(data).__name__}")
    try:
        for key in ("vertices", "elements", "densities"):
            if _holds_bool(data[key]):  # numpy would read true as 1
                raise ValueError(f"mesh JSON {key!r} holds a boolean where numbers belong")
        return SimplexMesh(_json_int(data["dim"], "dim"), _json_int(data["degree"], "degree"),
                           data["vertices"], data["elements"], data["densities"])
    except KeyError as exc:
        raise ValueError(f"mesh JSON missing key {exc}") from exc
    except (TypeError, OverflowError) as exc:  # e.g. an object or 1e999 where numbers belong
        raise ValueError(f"mesh JSON has a value of the wrong type: {exc}") from exc


def _json_int(value, name: str, what: str = "mesh JSON") -> int:
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} {name!r} must be an integer, got {value!r}")
    return value


def _holds_bool(value) -> bool:
    if isinstance(value, list):
        return any(_holds_bool(v) for v in value)
    return isinstance(value, bool)


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
    text = json.dumps(mesh_to_dict(mesh), allow_nan=False)  # fails before any write
    with open(Path(path), "w", encoding="utf-8") as f:
        f.write(text + "\n")
