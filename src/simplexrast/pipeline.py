"""End-to-end rasterization pipeline and the polygon losses built on it.

Forward: mesh -> spectral transform -> Gaussian filter -> inverse
transform.  Backward: raster cotangent -> adjoint transform -> filter
(self-adjoint) -> mesh gradients.  Polygons are closed 2D vertex loops
rasterized through their boundary via the auxiliary-node transform, which
also works for non-convex shapes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .gradients import MeshGradient, _central_differences, backward_auxnode, backward_mesh
from .meshcore import MeshValidationError, SimplexMesh, require_valid
from .nuft import boundary_closure_defect, forward_auxnode, forward_mesh
from .spectral import (
    Raster,
    _filter_width,
    adjoint_transform,
    apply_filter,
    build_grid,
    gaussian_filter,
    inverse_transform,
)

MODES = ("simplex", "auxnode")


@dataclass
class RasterizeConfig:
    """Resolution, filter width (grid cells), forward mode, strictness."""

    resolution: int
    filter_width: float = 2.0
    mode: str = "simplex"
    strict: bool = False

    def __post_init__(self):
        _check_int(self.resolution, "resolution", 2)
        _filter_width(self.filter_width)
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")


def _check_int(value, name: str, minimum: int) -> None:
    """An integer (numpy integers too, bool not) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _check_real(value, name: str) -> None:
    """A finite real number (numpy floats too, bool not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")


def _check_strict(mesh: SimplexMesh, config: RasterizeConfig) -> None:
    """The strict rule, one for every pass: with ``config.strict`` the mesh
    must pass ``validate`` (in simplex mode also without degenerate
    elements), and an auxnode boundary must be watertight and consistently
    oriented.  A wrong auxnode degree is left to the transform's own check."""
    if not config.strict:
        return
    require_valid(mesh, strict=config.mode == "simplex")
    if config.mode == "auxnode" and mesh.degree == mesh.dim - 1:
        defect = boundary_closure_defect(mesh)
        if defect > 1e-9:
            raise MeshValidationError(
                [f"boundary not watertight or inconsistently oriented "
                 f"(closure defect {defect:.3e})"])


def rasterize(mesh: SimplexMesh, config: RasterizeConfig) -> Raster:
    """Filtered raster of the mesh's piecewise-constant field."""
    _check_strict(mesh, config)
    grid = build_grid(mesh.dim, config.resolution)
    forward = forward_mesh if config.mode == "simplex" else forward_auxnode
    field = forward(mesh, grid)
    field = apply_filter(field, gaussian_filter(grid, config.filter_width))
    return inverse_transform(field)


def rasterize_backward(mesh: SimplexMesh, config: RasterizeConfig,
                       raster_cotangent) -> MeshGradient:
    """Gradient of ``L = sum_pixels cotangent * raster`` in mesh parameters."""
    _check_strict(mesh, config)
    grid = build_grid(mesh.dim, config.resolution)
    cot = adjoint_transform(raster_cotangent, grid)
    cot = apply_filter(cot, gaussian_filter(grid, config.filter_width))
    backward = backward_mesh if config.mode == "simplex" else backward_auxnode
    return backward(mesh, grid, cot)


def finite_difference_gradient(mesh: SimplexMesh, config: RasterizeConfig,
                               raster_cotangent, h: float = 1e-6) -> MeshGradient:
    """Central-difference reference for :func:`rasterize_backward`.

    Works in the spectral form of the same loss (filtered adjoint of the
    cotangent paired against the forward transform; the pairing equals the
    pixel sum by the adjoint identity) and re-evaluates per probe only the
    elements that contain the perturbed vertex: the others cancel exactly
    in the central difference.
    """
    _check_strict(mesh, config)
    grid = build_grid(mesh.dim, config.resolution)
    cot = adjoint_transform(np.asarray(raster_cotangent, float), grid)
    cot = apply_filter(cot, gaussian_filter(grid, config.filter_width))
    forward = forward_mesh if config.mode == "simplex" else forward_auxnode
    return _central_differences(mesh, forward, grid, cot, h, local=True)


# ---------------------------------------------------------------------------
# polygons

def polygon_signed_area(polygon) -> float:
    p = np.asarray(polygon, dtype=np.float64)
    x, y = p[:, 0], p[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _check_polygon(polygon) -> np.ndarray:
    p = np.asarray(polygon, dtype=np.float64)
    if p.ndim != 2 or p.shape[1] != 2 or p.shape[0] < 3:
        raise ValueError("polygon must be an (n >= 3, 2) vertex loop")
    closing = np.roll(p, -1, axis=0) - p
    if np.any(np.all(closing == 0.0, axis=1)):
        raise ValueError("polygon repeats a consecutive vertex (is it explicitly closed?)")
    return p


def polygon_boundary_mesh(polygon, density: float = 1.0) -> SimplexMesh:
    """Closed polygon as a degree-1 boundary mesh (one segment per edge)."""
    p = _check_polygon(polygon)
    n = p.shape[0]
    elements = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
    return SimplexMesh(2, 1, p, elements, np.full(n, float(density)))


def polygon_fan_mesh(polygon, density: float = 1.0) -> SimplexMesh:
    """Fan triangulation from vertex 0 (valid for convex polygons)."""
    p = _check_polygon(polygon)
    n = p.shape[0]
    tris = [[0, i, i + 1] for i in range(1, n - 1)]
    return SimplexMesh(2, 2, p, np.asarray(tris), np.full(n - 2, float(density)))


def _undirected(elements) -> set:
    return {frozenset(row) for row in np.asarray(elements).tolist()}


def _ccw_loop(polygon, elements=None) -> SimplexMesh:
    """Boundary mesh of a vertex loop whose edges walk it counter-clockwise.

    Keeps the caller's vertex order: a clockwise loop gets the elements
    ``n - 1 - (i, i + 1)``, the same segments walked backwards.  A boundary
    mesh's ``elements`` must be the loop's n undirected edges
    ``{i, i + 1 mod n}``; any other wiring would be read as a different loop.
    """
    mesh = polygon_boundary_mesh(polygon)
    if elements is not None and (len(elements) != mesh.n_elements
                                 or _undirected(elements) != _undirected(mesh.elements)):
        raise MeshValidationError(
            ["boundary elements are not the edges {i, i+1 mod n} of its vertex loop"])
    if polygon_signed_area(mesh.vertices) < 0:
        mesh.elements = mesh.n_vertices - 1 - mesh.elements
    return mesh


def rasterize_polygon(polygon, config: RasterizeConfig) -> Raster:
    return rasterize(_ccw_loop(polygon), replace(config, mode="auxnode"))


def _ccw_corners(polygon):
    """Whether walking the loop counter-clockwise reverses it, and per corner
    of that walk the edges in and out, their cross and dot, and the angle."""
    p = _check_polygon(polygon)
    flipped = polygon_signed_area(p) < 0
    q = p[::-1].copy() if flipped else p
    e_in = q - np.roll(q, 1, axis=0)
    e_out = np.roll(q, -1, axis=0) - q
    cross = e_in[:, 0] * e_out[:, 1] - e_in[:, 1] * e_out[:, 0]
    dot = np.einsum("nd,nd->n", e_in, e_out)
    return flipped, e_in, e_out, cross, dot, np.pi - np.arctan2(cross, dot)


def interior_angles(polygon) -> np.ndarray:
    """Interior angle at every vertex of a simple polygon, in input order."""
    flipped, *_, angles = _ccw_corners(polygon)
    return angles[::-1].copy() if flipped else angles


def loss_smooth(polygon):
    """Mean squared deviation of interior angles from straightness.

    ``mean((angle / pi - 1)^2)`` over the vertices, plus its analytic
    vertex gradient.  Zero exactly when the boundary is locally straight
    everywhere.
    """
    flipped, e_in, e_out, cross, dot, angles = _ccw_corners(polygon)
    n = len(angles)
    residual = angles / np.pi - 1.0
    value = float(np.mean(residual ** 2))

    # d(angle)/d(edges) via d atan2(c, q) = (q dc - c dq) / (c^2 + q^2)
    denom = cross ** 2 + dot ** 2
    coeff = -(2.0 / (n * np.pi)) * residual / denom  # d(loss)/d(angle) * d(angle)/d(atan2)
    perp = lambda v: np.stack([-v[:, 1], v[:, 0]], axis=1)
    dc_din = perp(e_out) * -1.0  # d cross / d e_in = (e_out_y, -e_out_x)
    dc_dout = perp(e_in)         # d cross / d e_out = (-e_in_y, e_in_x)
    dg_din = coeff[:, None] * (dot[:, None] * dc_din - cross[:, None] * e_out)
    dg_dout = coeff[:, None] * (dot[:, None] * dc_dout - cross[:, None] * e_in)
    d_vertices = np.zeros_like(e_in)
    # e_in(k) = q_k - q_{k-1}; e_out(k) = q_{k+1} - q_k
    d_vertices += dg_din - dg_dout
    d_vertices += np.roll(dg_dout, 1, axis=0)   # as the next vertex of k-1
    d_vertices -= np.roll(dg_din, -1, axis=0)   # as the previous vertex of k+1
    if flipped:
        d_vertices = d_vertices[::-1].copy()
    return value, d_vertices


def polygon_subdivide(polygon, deltas) -> np.ndarray:
    """One hierarchy level: insert per-edge midpoints offset along outward normals.

    Output interleaves original and inserted vertices (2n total); zero
    offsets reproduce the same shape with doubled vertex count.
    """
    p = _check_polygon(polygon)
    d = np.asarray(deltas, dtype=np.float64)
    n = p.shape[0]
    if d.shape != (n,):
        raise ValueError(f"need one offset per edge ({n}), got shape {d.shape}")
    ccw = polygon_signed_area(p) >= 0
    edges = np.roll(p, -1, axis=0) - p
    lengths = np.linalg.norm(edges, axis=1)
    if np.any(lengths == 0):
        raise ValueError("zero-length edge")
    # outward of a CCW loop is the right-hand normal of the edge direction
    normals = np.stack([edges[:, 1], -edges[:, 0]], axis=1) / lengths[:, None]
    if not ccw:
        normals = -normals
    mids = p + 0.5 * edges + d[:, None] * normals
    out = np.empty((2 * n, 2))
    out[0::2] = p
    out[1::2] = mids
    return out
