"""Forward spectral transform of simplex meshes.

Evaluates exact Fourier coefficients of the piecewise-constant field
carried by a mesh at every mode of a uniform frequency grid.  Per element
the coefficient is ``rho * i**j * distortion * S`` where ``S`` is the
summation kernel over the per-vertex phases ``sigma_t = k . x_t``.

``S`` is exactly the divided difference of ``f(s) = exp(-i s)`` over the
phase multiset, which this module exploits for numerical stability: the
explicit Lagrange-form sum is used when the phases are well separated, and
a confluent divided-difference table (local Taylor series around phase
clusters plus the standard recurrence across them) takes over when phases
collide.  Phase collisions are not exotic: every mesh hits one at the DC
mode, and axis-aligned geometry hits them on whole mode rows.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np

from .meshcore import (
    MeshValidationError,
    SimplexMesh,
    _batch_content,
    _index_violations,
    require_valid,
)
from .spectral import SpectralField, SpectralGrid

#: pairwise phase-gap (radians) below which the Lagrange form is abandoned
EPS_CONFLUENT = 1e-5

# The Lagrange sum also degrades when several gaps are merely small: its
# absolute error is ~eps_machine * (largest term magnitude).  Cap that
# amplification so the stable path takes over before accuracy drops below
# ~1e-12, not only at exact collisions.
_LAGRANGE_AMP_MAX = 1e4

# Contiguous node groups spanning less than this evaluate via the local
# series; the table recurrence then never divides by anything smaller.
_SERIES_SPAN = 0.25
_SERIES_TERMS = 12

_I_POW = np.array([1, 1j, -1, -1j], dtype=np.complex128)      # exact i**n cycle
_NEG_I_POW = np.array([1, -1j, -1, 1j], dtype=np.complex128)  # exact (-i)**n cycle
_FACTORIALS = np.array([math.factorial(n) for n in range(_SERIES_TERMS + 8)], dtype=np.float64)


def resolve_workers(workers=None) -> int:
    """Worker count: explicit argument, else DDSL_WORKERS, else 1."""
    if workers is None:
        workers = os.environ.get("DDSL_WORKERS", "1")
    workers = int(workers)
    if workers < 1:
        raise ValueError("worker count must be >= 1")
    return workers


# ---------------------------------------------------------------------------
# divided differences of exp(-i s)

def _homogeneous_sums(u: np.ndarray) -> np.ndarray:
    """Complete homogeneous symmetric sums h_0..h_{T-1} of the last axis."""
    out = np.zeros(u.shape[:-1] + (_SERIES_TERMS,))
    out[..., 0] = 1.0
    for q in range(u.shape[-1]):
        uq = u[..., q]
        for r in range(1, _SERIES_TERMS):
            out[..., r] += uq * out[..., r - 1]
    return out


def _dd_series_entry(z: np.ndarray, width: int) -> np.ndarray:
    """Series value of the divided difference over all width+1 nodes of z."""
    center = 0.5 * (z[..., 0] + z[..., -1])
    h = _homogeneous_sums(z - center[..., None])
    r_idx = np.arange(_SERIES_TERMS)
    coef = _NEG_I_POW[(width + r_idx) % 4] / _FACTORIALS[width + r_idx]
    return np.exp(-1j * center) * (h @ coef)


def _divided_diff_series(z: np.ndarray) -> np.ndarray:
    """Divided difference of exp(-i s) over each row's node multiset.

    Accurate for arbitrarily close or repeated nodes.  Builds the full
    table over sorted nodes; entries whose span fits ``_SERIES_SPAN`` come
    from a Taylor series around the local midpoint (exact offsets, so no
    snapping error), wider entries from the recurrence, whose denominator
    is then never small.  Two-node entries have the uniformly stable
    closed form -i exp(-i center) sin(half-gap)/half-gap.
    """
    z = np.sort(np.asarray(z, dtype=np.float64), axis=-1)
    n = z.shape[-1]
    if n == 1:
        return np.exp(-1j * z[..., 0])
    table = {(i, i): np.exp(-1j * z[..., i]) for i in range(n)}
    for i in range(n - 1):
        center = 0.5 * (z[..., i] + z[..., i + 1])
        half = 0.5 * (z[..., i + 1] - z[..., i])
        table[(i, i + 1)] = -1j * np.exp(-1j * center) * np.sinc(half / np.pi)
    for width in range(2, n):
        for i in range(n - width):
            k = i + width
            span = z[..., k] - z[..., i]
            narrow = span <= _SERIES_SPAN
            out = np.empty(span.shape, dtype=np.complex128)
            if narrow.any():
                out[narrow] = _dd_series_entry(z[narrow][..., i:k + 1], width)
            wide = ~narrow
            if wide.any():
                out[wide] = ((table[(i + 1, k)][wide] - table[(i, k - 1)][wide])
                             / span[wide])
            table[(i, k)] = out
    return table[(0, n - 1)]


class LagrangeKernel(NamedTuple):
    """Lagrange-form kernel pieces for a batch of phase rows."""

    s: np.ndarray         # summed kernel
    terms: np.ndarray     # individual terms S_t
    min_gap: np.ndarray   # smallest pairwise phase gap per row
    amp: np.ndarray       # largest term amplification per row
    unsafe: np.ndarray    # rows that must use the stable path
    idiff: np.ndarray | None  # 1/(sigma_t - sigma_l), zero diagonal


def _lagrange_terms(sig: np.ndarray, with_idiff: bool = False) -> LagrangeKernel:
    n = sig.shape[-1]
    ex = np.exp(-1j * sig)
    diff = sig[..., :, None] - sig[..., None, :]
    eye = np.eye(n, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        agaps = np.abs(diff)
        agaps[..., eye] = np.inf
        min_gap = agaps.min(axis=(-2, -1))
        idiff = None
        if with_idiff:
            idiff = 1.0 / diff
            idiff[..., eye] = 0.0
            idiff = np.where(np.isfinite(idiff), idiff, 0.0)
        diff[..., eye] = 1.0
        prod = diff.prod(axis=-1)
        amp = 1.0 / np.maximum(np.abs(prod).min(axis=-1), 1e-300)
        terms = ex / prod
        s = terms.sum(axis=-1)
    unsafe = (min_gap <= EPS_CONFLUENT) | (amp >= _LAGRANGE_AMP_MAX)
    return LagrangeKernel(s, terms, min_gap, amp, unsafe, idiff)


def _eval_kernel(sig: np.ndarray, lk: LagrangeKernel | None = None) -> np.ndarray:
    """Kernel S for phase rows (..., n), routed per-row for stability.

    ``lk`` passes in the rows' Lagrange pieces when they are already built.
    """
    if sig.shape[-1] == 1:
        return np.exp(-1j * sig[..., 0])
    if lk is None:
        lk = _lagrange_terms(sig)
    s = lk.s
    if lk.unsafe.any():
        s = np.where(lk.unsafe, 0.0, s)  # clear the inf/nan placeholders
        s[lk.unsafe] = _divided_diff_series(sig[lk.unsafe])
    return s


def eval_S(sigmas) -> complex:
    """Summation kernel over j+1 phases: divided difference of exp(-i s).

    Total function; repeated or nearly-equal phases take the confluent
    limit, e.g. all-zero phases give (-i)**j / j!.
    """
    sig = np.asarray(sigmas, dtype=np.float64).reshape(1, -1)
    if not np.all(np.isfinite(sig)):
        raise ValueError("phases must be finite")
    return complex(_eval_kernel(sig)[0])


# ---------------------------------------------------------------------------
# forward transform: one core for simplices and auxiliary simplices
#
# Auxnode rasterization applies the simplex transform to the auxiliary
# simplices (origin, x_1..x_j) of a boundary: the origin adds a zero phase,
# and the signed weight det(J) replaces j! * content.

def _phases(pts, wavevectors, auxnode: bool) -> np.ndarray:
    """Phase rows k . x_t, shape (n_e, n_modes, nodes)."""
    sig = np.einsum("end,md->emn", pts, wavevectors)
    if auxnode:
        sig = np.concatenate([np.zeros(sig.shape[:-1] + (1,)), sig], axis=-1)
    return sig


def _checked_elements(mesh: SimplexMesh, grid: SpectralGrid, auxnode: bool):
    """Entry checks of the shared core, then the node coordinates per element
    and each element's kernel weight: j! * content, or det(J) for the
    auxiliary simplex (its distortion |det(J)| with the orientation sign;
    a j!-scaled weight would overcount by j!).

    The index range is checked on every call, strict or not: a negative
    index would wrap silently and a large one escape as an IndexError.
    """
    if mesh.dim != grid.dim:
        raise ValueError(f"mesh dim {mesh.dim} != grid dim {grid.dim}")
    _, violations = _index_violations(mesh)
    if violations:
        raise MeshValidationError(violations)
    pts = mesh.element_points()
    if auxnode:
        return pts, np.linalg.det(np.swapaxes(pts, 1, 2))
    return pts, math.factorial(mesh.degree) * _batch_content(pts)


def _forward_chunk(pts, weights, dens, wavevectors, auxnode: bool):
    j = pts.shape[1] - 1 + auxnode
    s = _eval_kernel(_phases(pts, wavevectors, auxnode))
    weighted = _I_POW[j % 4] * weights[:, None] * s
    return np.einsum("em,ec->mc", weighted, dens)


def _run_chunks(n_elements: int, chunk_fn, workers: int):
    """Call ``chunk_fn(lo, hi)`` on one contiguous element span per worker
    and add the partial results in span order."""
    workers = min(workers, n_elements)
    if workers <= 1:
        return chunk_fn(0, n_elements)
    bounds = np.linspace(0, n_elements, workers + 1).astype(int)  # no empty span
    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(chunk_fn, bounds[:-1], bounds[1:]))
    return sum(parts[1:], parts[0])


def _forward(mesh: SimplexMesh, grid: SpectralGrid, auxnode: bool, workers) -> SpectralField:
    pts, weights = _checked_elements(mesh, grid, auxnode)
    coeffs = _run_chunks(
        mesh.n_elements,
        lambda lo, hi: _forward_chunk(pts[lo:hi], weights[lo:hi], mesh.densities[lo:hi],
                                      grid.wavevectors, auxnode),
        resolve_workers(workers))
    return SpectralField(grid, coeffs)


def forward_mesh(mesh: SimplexMesh, grid: SpectralGrid, strict: bool = False,
                 workers=None) -> SpectralField:
    """Spectral coefficients of the whole mesh on ``grid``.

    The DC coefficient equals the total mass (sum of density * content)
    in every channel.  ``strict`` validates the mesh first and raises
    :class:`MeshValidationError` on any violation.
    """
    if strict:
        require_valid(mesh, strict=True)
    return _forward(mesh, grid, False, workers)


# ---------------------------------------------------------------------------
# auxiliary-node transform of a watertight boundary

def boundary_closure_defect(mesh: SimplexMesh) -> float:
    """Norm of the summed oriented boundary measure, relative to its total.

    Zero (to round-off) for a watertight, consistently oriented boundary;
    used as the strict-mode orientation check because a non-zero defect is
    exactly what makes the signed-content telescoping (and hence the DC
    coefficient) pivot-dependent.
    """
    pts = mesh.element_points()
    if mesh.dim == 2 and mesh.degree == 1:
        measures = pts[:, 1, :] - pts[:, 0, :]
    elif mesh.dim == 3 and mesh.degree == 2:
        measures = 0.5 * np.cross(pts[:, 1, :] - pts[:, 0, :], pts[:, 2, :] - pts[:, 0, :])
    else:
        raise ValueError("boundary closure defined for (dim=2, degree=1) and (dim=3, degree=2)")
    total = np.linalg.norm(measures, axis=1).sum()
    if total == 0.0:
        return 0.0
    return float(np.linalg.norm(measures.sum(axis=0)) / total)


def forward_auxnode(boundary_mesh: SimplexMesh, grid: SpectralGrid,
                    strict: bool = False, workers=None) -> SpectralField:
    """Transform of the solid enclosed by a watertight oriented boundary.

    The boundary is a (j-1)-mesh in d = j dimensions; each boundary
    element is adjoined with the origin into an auxiliary j-simplex whose
    signed distortion weights its kernel, and the signed contributions
    telescope to the enclosed solid.  A CCW polygon boundary (outward
    2D orientation) yields positive densities; reversing the orientation
    negates the field.
    """
    j = boundary_mesh.dim
    if boundary_mesh.degree != j - 1:
        raise ValueError(
            f"auxnode needs a boundary of degree dim-1, got degree {boundary_mesh.degree} in {j}D")
    if strict:
        require_valid(boundary_mesh)
        defect = boundary_closure_defect(boundary_mesh)
        if defect > 1e-9:
            raise MeshValidationError(
                [f"boundary not watertight or inconsistently oriented "
                 f"(closure defect {defect:.3e})"])
    return _forward(boundary_mesh, grid, True, workers)
