"""End-to-end rasterization pipeline and the polygon losses built on it.

Forward: mesh -> spectral transform -> Gaussian filter -> inverse
transform.  Backward: raster cotangent -> adjoint transform -> filter
(self-adjoint) -> mesh gradients.  Each direction has one builder, which
serves a list of resolutions from one sweep at the largest (``_rasters``,
``_rasters_backward``).  Central differences are the reference for both
the raster and the spectral backward.  Polygons are closed 2D vertex
loops rasterized through their boundary via the auxiliary-node transform,
which also works for non-convex shapes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .meshcore import (MeshValidationError, SimplexMesh, _check_int, boundary_closure_defect,
                       validate)
from .nuft import MeshGradient, backward_auxnode, backward_mesh, forward_auxnode, forward_mesh
from .spectral import (
    Raster,
    SpectralField,
    SpectralGrid,
    _filter_width,
    adjoint_transform,
    apply_filter,
    build_grid,
    gaussian_filter,
    inverse_transform,
    spectral_inner,
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


def _check_strict(mesh: SimplexMesh, config: RasterizeConfig) -> None:
    """The strict rule, one for every pass: with ``config.strict`` the mesh
    must pass ``validate`` (in simplex mode also without degenerate
    elements), then an auxnode boundary must be watertight and consistently
    oriented.  A wrong auxnode degree is left to the transform's own check."""
    if not config.strict:
        return
    violations = validate(mesh, strict=config.mode == "simplex")
    if not violations and config.mode == "auxnode" and mesh.degree == mesh.dim - 1:
        defect = boundary_closure_defect(mesh)
        if defect > 1e-9:
            violations.append(f"boundary not watertight or inconsistently oriented "
                              f"(closure defect {defect:.3e})")
    if violations:
        raise MeshValidationError(violations)


def rasterize(mesh: SimplexMesh, config: RasterizeConfig) -> Raster:
    """Filtered raster of the mesh's piecewise-constant field."""
    return _rasters(mesh, config, (config.resolution,))[0]


def rasterize_backward(mesh: SimplexMesh, config: RasterizeConfig,
                       raster_cotangent) -> MeshGradient:
    """Gradient of ``L = sum_pixels cotangent * raster`` in mesh parameters."""
    return _rasters_backward(mesh, config, (config.resolution,), [raster_cotangent])


def finite_difference_gradient(mesh: SimplexMesh, config: RasterizeConfig,
                               raster_cotangent, h: float = 1e-6) -> MeshGradient:
    """Central-difference reference for :func:`rasterize_backward`, taking
    the same cotangent forms.

    Works in the spectral form of the same loss (filtered adjoint of the
    cotangent paired against the forward transform; the pairing equals the
    pixel sum by the adjoint identity) and re-evaluates per probe only the
    elements that contain the perturbed vertex: the others cancel exactly
    in the central difference.
    """
    grid, cot = _fine_cotangent(mesh, config, (config.resolution,), [raster_cotangent])
    forward = forward_mesh if config.mode == "simplex" else forward_auxnode
    return _central_differences(mesh, forward, grid, cot, h, local=True)


def numeric_backward(mesh: SimplexMesh, grid: SpectralGrid, cotangent: SpectralField,
                     h: float = 1e-6) -> MeshGradient:
    """Central-difference gradient of the simplex transform by re-running it.

    Every probe transforms the whole mesh: Theta((j+1) n_e^2 m) against
    the analytic pass's Theta((j+1) n_e m).
    """
    return _central_differences(mesh, forward_mesh, grid, cotangent, h, local=False)


def _central_differences(mesh: SimplexMesh, forward, grid: SpectralGrid,
                         cotangent: SpectralField, h: float, local: bool) -> MeshGradient:
    """Central differences of ``spectral_inner(forward(mesh, grid), cotangent)``.

    Perturbs every vertex coordinate and density by +-h.  ``local``
    re-transforms per probe only the elements that the perturbed value
    touches (the others cancel exactly in the difference); otherwise every
    probe transforms the whole mesh.  Unused vertices get a zero gradient.
    """
    if not 0 < h < np.inf:
        raise ValueError(f"finite-difference step h must be positive and finite, got {h!r}")

    def loss(vertices, densities, rows):
        rows = rows if local else slice(None)
        probe = SimplexMesh(mesh.dim, mesh.degree, vertices, mesh.elements[rows], densities[rows])
        return spectral_inner(forward(probe, grid), cotangent)

    grad = MeshGradient(np.zeros_like(mesh.vertices), np.zeros_like(mesh.densities))
    probes = []
    for v in range(mesh.n_vertices):
        rows = np.nonzero((mesh.elements == v).any(axis=1))[0]
        if rows.size:
            probes += [("vertices", (v, ax), rows) for ax in range(mesh.dim)]
    probes += [("densities", (e, ch), [e])
               for e in range(mesh.n_elements) for ch in range(mesh.channels)]
    for name, idx, rows in probes:
        values = []
        for step in (h, -h):
            args = {"vertices": mesh.vertices.copy(), "densities": mesh.densities.copy()}
            args[name][idx] += step
            values.append(loss(rows=rows, **args))
        getattr(grad, "d_" + name)[idx] = (values[0] - values[1]) / (2.0 * h)
    return grad


# ---------------------------------------------------------------------------
# every raster term from one spectrum at the finest resolution

@functools.lru_cache(maxsize=64)
def _fine_rows(dim: int, resolution: int, fine_resolution: int):
    """Row of each mode of the grid at ``resolution`` in the one at
    ``fine_resolution``, no coarser: a full-axis frequency m sits at index
    m mod R_f, a last-axis one at itself.  Every row at equal resolutions;
    read-only, since cached."""
    if resolution == fine_resolution:
        return slice(None)
    modes = build_grid(dim, resolution).modes % fine_resolution
    rows = np.ravel_multi_index(tuple(modes.T), build_grid(dim, fine_resolution).half_shape)
    rows.flags.writeable = False
    return rows


def _rasters(mesh: SimplexMesh, config: RasterizeConfig, resolutions) -> list:
    """Filtered rasters of ``mesh`` at each of ``resolutions`` (in that
    order, repeats allowed), from one forward sweep at the largest.

    The coefficients are exact per integer mode and every coarser grid's
    modes are modes of the fine grid, so each raster equals a sweep at its
    own resolution bit for bit.
    """
    for r in resolutions:
        _check_int(r, "resolution", 2)
    _check_strict(mesh, config)
    grids = [build_grid(mesh.dim, r) for r in resolutions]
    fine = max(grids, key=lambda grid: grid.resolution)
    forward = forward_mesh if config.mode == "simplex" else forward_auxnode
    coeffs = forward(mesh, fine).coeffs
    rasters = []
    for grid in grids:
        field = SpectralField(grid, coeffs[_fine_rows(mesh.dim, grid.resolution, fine.resolution)])
        field = apply_filter(field, gaussian_filter(grid, config.filter_width))
        rasters.append(inverse_transform(field))
    return rasters


def _fine_cotangent(mesh: SimplexMesh, config: RasterizeConfig, resolutions,
                    raster_cotangents) -> tuple[SpectralGrid, SpectralField]:
    """The set-up of every raster-space gradient: the strict check, then the
    largest resolution's grid and one cotangent there for ``sum_R
    sum_pixels cotangent_R * raster_R`` (each cotangent a ``Raster`` or an
    array of raster shape, with or without the channel axis).  Each
    filtered adjoint joins it scaled by ``w_R / w_f``, the ratio of the
    grids' fold weights (1/2 at a coarse last-axis Nyquist, whose conjugate
    the fine half-spectrum leaves out)."""
    _check_strict(mesh, config)
    grids = [build_grid(mesh.dim, r) for r in resolutions]
    fine = max(grids, key=lambda grid: grid.resolution)
    fields = [apply_filter(adjoint_transform(raster_cotangent, grid),
                           gaussian_filter(grid, config.filter_width))
              for grid, raster_cotangent in zip(grids, raster_cotangents, strict=True)]
    cot = np.zeros((fine.n_modes, mesh.channels), dtype=np.complex128)
    for grid, field in zip(grids, fields):
        if field.channels != mesh.channels:
            raise ValueError(f"cotangent has {field.channels} channels, mesh has {mesh.channels}")
        rows = _fine_rows(mesh.dim, grid.resolution, fine.resolution)  # distinct within one grid
        cot[rows] += field.coeffs * (grid.fold_weights / fine.fold_weights[rows])[:, None]
    return fine, SpectralField(fine, cot)


def _rasters_backward(mesh: SimplexMesh, config: RasterizeConfig, resolutions,
                      raster_cotangents) -> MeshGradient:
    """Gradient of ``sum_R sum_pixels cotangent_R * raster_R`` over the
    rasters of :func:`_rasters`, from one backward sweep at the largest
    resolution.  It equals the sum of per-resolution sweeps up to round-off.
    """
    fine, cot = _fine_cotangent(mesh, config, resolutions, raster_cotangents)
    backward = backward_mesh if config.mode == "simplex" else backward_auxnode
    return backward(mesh, fine, cot)


# ---------------------------------------------------------------------------
# polygons

def polygon_signed_area(polygon) -> float:
    return _signed_area(_check_polygon(polygon))


def _signed_area(p: np.ndarray) -> float:
    x, y = p[:, 0], p[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _check_polygon(polygon) -> np.ndarray:
    p = np.asarray(polygon, dtype=np.float64)
    if p.ndim != 2 or p.shape[1] != 2 or p.shape[0] < 3:
        raise ValueError("polygon must be an (n >= 3, 2) vertex loop")
    if not np.all(np.isfinite(p)):
        raise ValueError("polygon vertices must be finite")
    closing = np.roll(p, -1, axis=0) - p
    if np.any(np.all(closing == 0.0, axis=1)):
        raise ValueError("polygon repeats a consecutive vertex (is it explicitly closed?)")
    return p


def polygon_boundary_mesh(polygon) -> SimplexMesh:
    """Closed polygon as a unit-density degree-1 boundary mesh (one segment
    per edge)."""
    p = _check_polygon(polygon)
    n = p.shape[0]
    elements = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
    return SimplexMesh(2, 1, p, elements, np.ones(n))


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
    if _signed_area(mesh.vertices) < 0:
        mesh.elements = mesh.n_vertices - 1 - mesh.elements
    return mesh


def rasterize_polygon(polygon, config: RasterizeConfig) -> Raster:
    return rasterize(_ccw_loop(polygon), replace(config, mode="auxnode"))


def _ccw_corners(polygon):
    """Whether walking the loop counter-clockwise reverses it, and per corner
    of that walk the edges in and out, their cross and dot, and the angle."""
    p = _check_polygon(polygon)
    flipped = _signed_area(p) < 0
    q = p[::-1].copy() if flipped else p
    e_in = q - np.roll(q, 1, axis=0)
    e_out = np.roll(q, -1, axis=0) - q
    cross = e_in[:, 0] * e_out[:, 1] - e_in[:, 1] * e_out[:, 0]
    dot = np.einsum("nd,nd->n", e_in, e_out)
    return flipped, e_in, e_out, cross, dot, np.pi - np.arctan2(cross, dot)


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
    if not np.all(np.isfinite(d)):
        raise ValueError("polygon offsets must be finite")
    ccw = _signed_area(p) >= 0
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
