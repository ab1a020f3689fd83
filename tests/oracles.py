"""Scalar per-element reference implementations, used only by the tests.

These evaluate one element at one wavevector with plain loops, the way the
formulas are written, so the batched library paths have something
independent to be checked against.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from simplexrast.gradients import _DS_AMP_MAX
from simplexrast.meshcore import (
    DEGENERACY_EPS,
    DegenerateElementError,
    _ADJUGATE_DET_FLOOR,
    _adjugate_cofactor,
    _batch_cayley_menger,
    content,
)
from simplexrast.nuft import _I_POW, _divided_diff_series, _lagrange_terms, eval_S
from simplexrast.spectral import Raster, SpectralField


def imaginary_power(j: int) -> complex:
    """i**j from the exact 4-cycle (never via floating-point pow)."""
    return complex(_I_POW[j % 4])


def sigma(k, x) -> float:
    """Phase of a point against a wavevector: plain dot product."""
    kv = np.asarray(k, dtype=np.float64)
    xv = np.asarray(x, dtype=np.float64)
    if kv.shape != xv.shape:
        raise ValueError(f"wavevector shape {kv.shape} != coordinate shape {xv.shape}")
    return float(kv @ xv)


def forward_element(points, density, k) -> complex:
    """Spectral coefficient of one simplex at wavevector ``k``.

    At k = 0 this is exactly density * content (real), via the confluent
    kernel path.
    """
    pts = np.asarray(points, dtype=np.float64)
    kv = np.asarray(k, dtype=np.float64)
    j = pts.shape[0] - 1
    gamma = math.factorial(j) * content(pts)
    s = eval_S(pts @ kv)
    return complex(density * imaginary_power(j) * gamma * s)


# ---------------------------------------------------------------------------
# element geometry

def cayley_menger_matrix(points) -> np.ndarray:
    """Bordered squared-distance matrix of a point tuple, shape (j+2, j+2)."""
    return _batch_cayley_menger(np.asarray(points, dtype=np.float64)[None])[0]


def adjugate(matrix) -> np.ndarray:
    """Adjugate via det * inverse, with a cofactor fallback near singularity."""
    a = np.asarray(matrix, dtype=np.float64)
    det = float(np.linalg.det(a))
    if abs(det) > _ADJUGATE_DET_FLOOR:
        try:
            return det * np.linalg.inv(a)
        except np.linalg.LinAlgError:
            pass
    return _adjugate_cofactor(a)


def element_geometry(points) -> SimpleNamespace:
    """Measure data of one element: content, distortion, and the CM matrix."""
    pts = np.asarray(points, dtype=np.float64)
    c = content(pts)
    b = cayley_menger_matrix(pts)
    return SimpleNamespace(content=c, distortion=math.factorial(pts.shape[0] - 1) * c,
                           cayley_menger=b, cm_adjugate=adjugate(b))


# ---------------------------------------------------------------------------
# single-element derivative pieces

def dgamma_dx(points, p: int, strict: bool = False) -> np.ndarray:
    """Gradient of the distortion factor w.r.t. vertex slot ``p``.

    Uses the adjugate of the Cayley-Menger matrix: slot p reads row p+1 of
    the adjugate against the doubled coordinate differences.  Degenerate
    elements (distortion ~ 0) return a zero vector by default because the
    expression divides by the distortion; ``strict`` raises instead.
    """
    pts = np.asarray(points, dtype=np.float64)
    j = pts.shape[0] - 1
    gamma = math.factorial(j) * content(pts)
    if gamma <= DEGENERACY_EPS * math.factorial(j):
        if strict:
            raise DegenerateElementError([f"element content {gamma / math.factorial(j):.3e}"])
        return np.zeros(pts.shape[1])
    adj = adjugate(cayley_menger_matrix(pts))
    scale = (-1.0) ** (j + 1) / 2.0 ** j / gamma
    acc = np.zeros(pts.shape[1])
    for m in range(j + 1):
        if m == p:
            continue
        acc += adj[p + 1, m + 1] * 2.0 * (pts[p] - pts[m])
    return scale * acc


def _kernel_and_coef(sig: np.ndarray, p: int) -> tuple[complex, complex]:
    lk = _lagrange_terms(sig[None])
    if lk.unsafe[0]:
        kernel = complex(_divided_diff_series(sig[None])[0])
    else:
        kernel = complex(lk.s[0])
    gap = min(max(float(lk.min_gap[0]), 1e-300), 1e6)
    if lk.unsafe[0] or float(lk.amp[0]) * (gap + 2.0) >= _DS_AMP_MAX * gap:
        # d(kernel)/d(sigma_p): the divided difference with node p repeated
        coef = complex(_divided_diff_series(np.append(sig, sig[p])[None])[0])
    else:
        gaps = sig - sig[p]
        gaps[p] = 1.0
        inv = 1.0 / gaps
        inv[p] = 0.0
        coef = complex(-1j * lk.terms[0, p]
                       + np.sum((lk.terms[0] + lk.terms[0, p]) * inv))
    return kernel, coef


def dS_dx(sigmas, p: int, k) -> np.ndarray:
    """Gradient of the summation kernel w.r.t. vertex slot ``p`` (a complex d-vector).

    Equals the per-phase derivative times the wavevector.  Well-separated
    phases use the explicit term-pair form; confluent ones route through
    the repeated-node divided difference.
    """
    sig = np.asarray(sigmas, dtype=np.float64)
    _, coef = _kernel_and_coef(sig, p)
    return coef * np.asarray(k, dtype=np.float64)


def dF_dx(points, density, k, p: int) -> np.ndarray:
    """Coefficient gradient w.r.t. vertex slot ``p``: the split form.

    ``rho * i**j * (freq_scale * k + edge_scale * adjugate_pairs)`` with
    freq_scale = distortion * d(kernel)/d(phase_p),
    edge_scale = sign / 2^j / distortion * kernel, and adjugate_pairs the
    slot's adjugate row against the doubled coordinate differences.
    """
    pts = np.asarray(points, dtype=np.float64)
    kv = np.asarray(k, dtype=np.float64)
    j = pts.shape[0] - 1
    gamma = math.factorial(j) * content(pts)
    sig = pts @ kv
    kernel, coef = _kernel_and_coef(sig, p)
    freq_scale = gamma * coef
    edge_scale = (-1.0) ** (j + 1) / 2.0 ** j / gamma * kernel
    adj = adjugate(cayley_menger_matrix(pts))
    acc = np.zeros(pts.shape[1])
    for m in range(j + 1):
        if m != p:
            acc += adj[p + 1, m + 1] * 2.0 * (pts[p] - pts[m])
    return density * imaginary_power(j) * (freq_scale * kv + edge_scale * acc)


def dF_dx_product(points, density, k, p: int) -> np.ndarray:
    """Coefficient gradient via the product rule, as an independent route:
    ``rho * i**j * (kernel * dgamma + distortion * dkernel)``."""
    pts = np.asarray(points, dtype=np.float64)
    kv = np.asarray(k, dtype=np.float64)
    j = pts.shape[0] - 1
    gamma = math.factorial(j) * content(pts)
    sig = pts @ kv
    kernel, _ = _kernel_and_coef(sig, p)
    return density * imaginary_power(j) * (kernel * dgamma_dx(pts, p)
                                           + gamma * dS_dx(sig, p, kv))


def dF_drho(points, k) -> complex:
    """Coefficient derivative in the density: the unit-density coefficient."""
    return forward_element(points, 1.0, k)


# ---------------------------------------------------------------------------
# inverse transform by direct summation

def inverse_transform_direct(f: SpectralField) -> Raster:
    """Reference synthesis by direct summation; O(N^2)."""
    grid = f.grid
    r, d = grid.resolution, grid.dim
    full = _full_spectrum(f)  # (r,)*d + (c,)
    # one DFT-by-matrix per axis: exp(+2 pi i q x / r) with q the array index
    e = np.exp(2j * np.pi * np.outer(np.arange(r), np.arange(r)) / r)
    out = full
    for axis in range(d):
        out = np.tensordot(e, np.moveaxis(out, axis, 0), axes=(1, 0))
        out = np.moveaxis(out, 0, axis)
    return Raster(dim=d, resolution=r, values=out.real)


def _full_spectrum(f: SpectralField) -> np.ndarray:
    """Expand the stored half-spectrum to all R^d modes (stored values win)."""
    grid = f.grid
    r, d = grid.resolution, grid.dim
    half = f.coeffs.reshape(grid.half_shape + (f.channels,))
    full = np.zeros((r,) * d + (f.channels,), dtype=np.complex128)
    keep = r // 2 + 1
    full[..., :keep, :] = half
    flip = (-np.arange(r)) % r
    for q in range(keep, r):
        sub = half[..., r - q, :]
        for axis in range(d - 1):
            sub = np.take(sub, flip, axis=axis)
        full[..., q, :] = np.conj(sub)
    return full
