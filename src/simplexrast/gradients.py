"""Analytic backward pass: spectral cotangents -> mesh gradients.

Per element and mode, the coefficient derivative with respect to a vertex
splits into a kernel part (derivative of the phase divided difference,
scaled by the element weight and pointing along the wavevector) and a
weight part (the weight's vertex gradient from ``meshcore``: Gram rows
``gamma * G^-1 E`` for a simplex, cofactor rows of the offset matrix for
an auxiliary simplex, scaled by the kernel).  The kernel derivative with
respect to one phase equals the divided difference with that node
repeated, which is how near-confluent phases stay accurate.

Cotangents follow the real-loss convention: a cotangent G encodes the
linear functional ``L(F) = sum_m w(m) Re[conj(G) F]`` with the grid's fold
weights, and the backward pass returns the exact gradient of that L.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .meshcore import SimplexMesh, _weight_gradients
from .nuft import _I_POW, _LANES, _checked_elements, _sweep, forward_mesh
from .spectral import SpectralField, SpectralGrid, spectral_inner


@dataclass
class MeshGradient:
    """Per-vertex spatial gradients and per-element density gradients."""

    d_vertices: np.ndarray
    d_densities: np.ndarray


def _backward(mesh: SimplexMesh, grid: SpectralGrid, cotangent: SpectralField,
              auxnode: bool, workers) -> MeshGradient:
    if not cotangent.grid.matches(grid):
        raise ValueError("cotangent grid does not match the requested grid")
    if cotangent.channels != mesh.channels:
        raise ValueError(
            f"cotangent has {cotangent.channels} channels, mesh has {mesh.channels}")
    pts, weights = _checked_elements(mesh, grid, auxnode)
    dweights, degenerate = _weight_gradients(pts, weights, auxnode)
    n_e, slots, d = pts.shape
    wavevectors, dens = grid.wavevectors, mesh.densities
    # i**j, the fold weights and the cotangent as one per-(mode, channel) factor
    wcot = (_I_POW[(slots - 1 + auxnode) % 4] * grid.fold_weights[:, None]
            * np.conj(cotangent.coeffs))

    # per-lane real sums over the modes, with ghat = dens wcot^T: the kernel
    # part b_epd = sum Re[ghat coef_p] k_d (auxiliary origin slot dropped, it
    # is fixed) and the density rows dd_ec = sum Re[S wcot_c]
    b = np.zeros((_LANES, slots, n_e, d))
    dd = np.zeros((_LANES, n_e, mesh.channels))

    def add(lane, elems, modes, kernel):  # each lane is written by one thread only
        s, coefs = kernel
        ghat = dens[elems] @ wcot[modes].T
        b[lane, :, elems] += (ghat * coefs[int(auxnode):]).real @ wavevectors[modes]
        dd[lane, elems] += (s @ wcot[modes]).real

    _sweep(mesh, wavevectors, auxnode, True, workers, add)
    # in lane order; a lane without tiles adds exact zeros
    b, dd = (sum(lanes[1:], lanes[0]) for lanes in (b, dd))
    # the weight part: a_e = sum Re[ghat S] = sum_c rho_ec dd_ec, as rho is real
    a = np.einsum("ec,ec->e", dens, dd)
    slot_grad = a[:, None, None] * dweights + weights[:, None, None] * b.transpose(1, 0, 2)
    slot_grad[degenerate] = 0.0
    d_vertices = np.zeros((mesh.n_vertices, d))
    np.add.at(d_vertices, mesh.elements.reshape(-1), slot_grad.reshape(-1, d))
    if degenerate.any():
        warnings.warn(f"{int(degenerate.sum())} degenerate elements received zero "
                      "vertex gradient", RuntimeWarning, stacklevel=3)
    return MeshGradient(d_vertices, weights[:, None] * dd)


def backward_mesh(mesh: SimplexMesh, grid: SpectralGrid, cotangent: SpectralField,
                  workers=None) -> MeshGradient:
    """Gradient of ``L(F) = sum_m w(m) Re[conj(G) F]`` in vertices and densities.

    Vertices shared by several elements accumulate; vertices unused by any
    element stay exactly zero.  Elements at or below the degeneracy
    threshold contribute zero vertex gradient, with a warning.
    """
    return _backward(mesh, grid, cotangent, False, workers)


def backward_auxnode(boundary_mesh: SimplexMesh, grid: SpectralGrid,
                     cotangent: SpectralField, workers=None) -> MeshGradient:
    """Backward pass through the auxiliary-node transform.

    Each auxiliary simplex keeps the origin node fixed (it receives no
    gradient); the signed distortion differentiates through the cofactor
    rows of the offset matrix, so no division by the (possibly ~zero)
    signed content occurs.
    """
    return _backward(boundary_mesh, grid, cotangent, True, workers)


# ---------------------------------------------------------------------------
# finite-difference reference

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


def numeric_backward(mesh: SimplexMesh, grid: SpectralGrid, cotangent: SpectralField,
                     h: float = 1e-6) -> MeshGradient:
    """Central-difference gradient of the simplex transform by re-running it.

    Every probe transforms the whole mesh: Theta((j+1) n_e^2 m) against
    the analytic pass's Theta((j+1) n_e m).
    """
    return _central_differences(mesh, forward_mesh, grid, cotangent, h, local=False)
