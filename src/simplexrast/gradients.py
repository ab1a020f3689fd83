"""Analytic backward pass: spectral cotangents -> mesh gradients.

Per element and mode, the coefficient derivative with respect to a vertex
splits into a kernel part (derivative of the phase divided difference,
scaled by the element weight and pointing along the wavevector) and a
weight part (a row of the Cayley-Menger adjugate against the doubled
coordinate differences, or for an auxiliary simplex a row of the adjugate
of its offset matrix, scaled by the kernel).  The kernel derivative with
respect to one phase equals the divided difference with that node
repeated, which is how near-confluent phases stay accurate.

Cotangents follow the real-loss convention: a cotangent G encodes the
linear functional ``L(F) = sum_m w(m) Re[conj(G) F]`` with the grid's fold
weights, and the backward pass returns the exact gradient of that L.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .meshcore import (
    DEGENERACY_EPS,
    DegenerateElementError,
    SimplexMesh,
    _batch_adjugate,
    _batch_cayley_menger,
)
from .nuft import (
    _I_POW,
    _checked_elements,
    _divided_diff_series,
    _eval_kernel,
    _lagrange_terms,
    _phases,
    _run_chunks,
    forward_auxnode,
    forward_mesh,
    resolve_workers,
)
from .spectral import SpectralField, SpectralGrid, spectral_inner

# Lagrange kernel-derivative error grows by an extra 1/gap over the kernel
# itself; route to the stable path before that amplification bites.
_DS_AMP_MAX = 1e5


@dataclass
class MeshGradient:
    """Per-vertex spatial gradients and per-element density gradients."""

    d_vertices: np.ndarray
    d_densities: np.ndarray

    def __add__(self, other: "MeshGradient") -> "MeshGradient":
        return MeshGradient(self.d_vertices + other.d_vertices,
                            self.d_densities + other.d_densities)

    def scaled(self, a: float) -> "MeshGradient":
        return MeshGradient(a * self.d_vertices, a * self.d_densities)


# ---------------------------------------------------------------------------
# batched kernel derivatives (shared by the mesh-level backward passes)

def _kernel_batch(sig):
    """Kernel values plus derivative coefficients per node slot, both
    stability-routed, for phase rows sig (..., n).

    The slot-p derivative is -i S_p + sum_{t != p} (S_t + S_p) / (s_t - s_p),
    assembled for all slots at once from the inverse-gap matrix.
    """
    n = sig.shape[-1]
    lk = _lagrange_terms(sig, with_idiff=True)
    with np.errstate(invalid="ignore", over="ignore"):
        col_sum = lk.idiff.sum(axis=-2)  # sum_t 1/(s_t - s_p) over t != p
        cross = np.einsum("...t,...tp->...p", lk.terms, lk.idiff)
        coefs = -1j * lk.terms + cross + lk.terms * col_sum
    # amp * (1 + 2/gap) >= cap, rearranged so exact collisions do not overflow
    gap = np.minimum(np.maximum(lk.min_gap, 1e-300), 1e6)
    risky = lk.unsafe | (lk.amp * (gap + 2.0) >= _DS_AMP_MAX * gap)
    if risky.any():
        bad = sig[risky]
        # one table build over all slots: row p gets its node repeated
        rep = np.broadcast_to(bad[:, None, :], (bad.shape[0], n, n))
        nodes = np.concatenate([rep, bad[:, :, None]], axis=2)
        coefs[risky] = _divided_diff_series(nodes.reshape(-1, n + 1)).reshape(bad.shape[0], n)
    return _eval_kernel(sig, lk), coefs


def _weight_gradients(pts, weights, degenerate, auxnode: bool) -> np.ndarray:
    """Gradient of each element weight per vertex slot, shape (n_e, nodes, d).

    Simplex: row p+1 of the Cayley-Menger adjugate against the doubled
    coordinate differences, over the weight (degenerate rows are left
    for the caller to zero).  Auxiliary simplex: row p of the adjugate of
    the offset matrix, which never divides by the possibly ~zero weight.
    """
    if auxnode:
        return _batch_adjugate(np.swapaxes(pts, 1, 2))[0]
    j = pts.shape[1] - 1
    adj, _ = _batch_adjugate(_batch_cayley_menger(pts))
    dmat = 2.0 * (pts[:, :, None, :] - pts[:, None, :, :])  # zero on the diagonal
    scale = (-1.0) ** (j + 1) / 2.0 ** j
    safe = np.where(degenerate, 1.0, weights)
    return scale / safe[:, None, None] * np.einsum("epm,epmd->epd", adj[:, 1:, 1:], dmat)


def _backward_chunk(pts, elements, dens, weights, dweights, degenerate,
                    grid, cot, n_vertices, auxnode: bool, d_densities) -> np.ndarray:
    """Vertex gradient of one element span; its density rows go to ``d_densities``."""
    wavevectors = grid.wavevectors
    j = pts.shape[1] - 1 + auxnode
    s, coefs = _kernel_batch(_phases(pts, wavevectors, auxnode))
    coefs = coefs[..., int(auxnode):]  # the auxiliary origin node is fixed

    # fold cotangent, densities, and weights into one per-(element, mode) factor
    w = grid.fold_weights
    ghat = np.einsum("ec,m,mc->em", dens, w, np.conj(cot))
    ij = _I_POW[j % 4]
    a_e = np.einsum("em,em->e", ghat, s)
    b_epd = np.einsum("em,emp,md->epd", ghat, coefs, wavevectors)
    slot_grad = (ij * (a_e[:, None, None] * dweights
                       + weights[:, None, None] * b_epd)).real
    slot_grad[degenerate] = 0.0

    d = pts.shape[2]
    d_vertices = np.zeros((n_vertices, d))
    np.add.at(d_vertices, elements.reshape(-1), slot_grad.reshape(-1, d))
    d_densities[:] = (ij * weights[:, None]
                      * np.einsum("em,m,mc->ec", s, w, np.conj(cot))).real
    return d_vertices


def _backward(mesh: SimplexMesh, grid: SpectralGrid, cotangent: SpectralField,
              auxnode: bool, strict: bool, degeneracy_eps: float, workers) -> MeshGradient:
    if not cotangent.grid.matches(grid):
        raise ValueError("cotangent grid does not match the requested grid")
    if cotangent.channels != mesh.channels:
        raise ValueError(
            f"cotangent has {cotangent.channels} channels, mesh has {mesh.channels}")
    pts, weights = _checked_elements(mesh, grid, auxnode)
    # only the simplex weight gradient divides by the weight
    degenerate = (np.zeros(mesh.n_elements, dtype=bool) if auxnode
                  else weights <= degeneracy_eps * math.factorial(mesh.degree))
    if degenerate.any() and strict:
        raise DegenerateElementError(
            [f"element {e}: degenerate content" for e in np.nonzero(degenerate)[0]])
    d_densities = np.zeros_like(mesh.densities)
    dweights = _weight_gradients(pts, weights, degenerate, auxnode)
    d_vertices = _run_chunks(
        mesh.n_elements,
        lambda lo, hi: _backward_chunk(
            pts[lo:hi], mesh.elements[lo:hi], mesh.densities[lo:hi], weights[lo:hi],
            dweights[lo:hi], degenerate[lo:hi], grid, cotangent.coeffs, mesh.n_vertices,
            auxnode, d_densities[lo:hi]),
        resolve_workers(workers))
    if degenerate.any():
        warnings.warn(f"{int(degenerate.sum())} degenerate elements received zero "
                      "vertex gradient", RuntimeWarning, stacklevel=3)
    return MeshGradient(d_vertices, d_densities)


def backward_mesh(mesh: SimplexMesh, grid: SpectralGrid, cotangent: SpectralField,
                  strict: bool = False, degeneracy_eps: float = DEGENERACY_EPS,
                  workers=None) -> MeshGradient:
    """Gradient of ``L(F) = sum_m w(m) Re[conj(G) F]`` in vertices and densities.

    Vertices shared by several elements accumulate; vertices unused by any
    element stay exactly zero.  Elements at or below the degeneracy
    threshold contribute zero vertex gradient (with a warning) unless
    ``strict`` raises.
    """
    return _backward(mesh, grid, cotangent, False, strict, degeneracy_eps, workers)


def backward_auxnode(boundary_mesh: SimplexMesh, grid: SpectralGrid,
                     cotangent: SpectralField, workers=None) -> MeshGradient:
    """Backward pass through the auxiliary-node transform.

    Each auxiliary simplex keeps the origin node fixed (it receives no
    gradient); the signed distortion differentiates through the column
    adjugate of the offset matrix, so no division by the (possibly ~zero)
    signed content occurs.
    """
    if boundary_mesh.degree != boundary_mesh.dim - 1:
        raise ValueError("auxnode backward needs a boundary of degree dim-1")
    return _backward(boundary_mesh, grid, cotangent, True, False, DEGENERACY_EPS, workers)


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
    if h <= 0:
        raise ValueError("step must be positive")

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
                     h: float = 1e-6, mode: str = "simplex") -> MeshGradient:
    """Central-difference gradient by re-running the forward transform.

    Every probe transforms the whole mesh: Theta((j+1) n_e^2 m) against
    the analytic pass's Theta((j+1) n_e m).
    """
    forward = forward_mesh if mode == "simplex" else forward_auxnode
    return _central_differences(mesh, forward, grid, cotangent, h, local=False)
