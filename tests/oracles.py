"""Scalar per-element reference implementations, used only by the tests.

These evaluate one element at one wavevector with plain loops, the way the
formulas are written, so the batched library paths have something
independent to be checked against.  The scalar and row-layout views of the
batched kernel, and the few helpers only the tests need, live here too.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from simplexrast.gradients import _central_differences
from simplexrast.meshcore import DEGENERACY_EPS, SimplexMesh, _batch_content, content
from simplexrast.nuft import (
    _DS_AMP_MAX,
    _I_POW,
    _LAGRANGE_AMP_MAX,
    _SERIES_SPAN,
    EPS_CONFLUENT,
    _dd_series_entry,
    _kernel,
    forward_auxnode,
)
from simplexrast.pipeline import _ccw_corners, _check_polygon, rasterize
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


# ---------------------------------------------------------------------------
# scalar and row-layout views of the library's batched paths

def eval_S(sigmas) -> complex:
    """Summation kernel over j+1 phases: divided difference of exp(-i s).

    Total function; repeated or nearly-equal phases take the confluent
    limit, e.g. all-zero phases give (-i)**j / j!.
    """
    sig = np.asarray(sigmas, dtype=np.float64).reshape(-1, 1)
    if not np.all(np.isfinite(sig)):
        raise ValueError("phases must be finite")
    return complex(direct_kernel(sig, False)[0])


def direct_kernel(sig: np.ndarray, slots: bool):
    """``nuft._kernel`` of node-major phases sig (n, ...), every node its own
    row of a one-mode phase table.  The results come back in sig's layout,
    copied out of the thread's reused buffers."""
    sig = np.asarray(sig, dtype=np.float64)
    sv = sig.reshape(-1, 1)
    out = _kernel(sv, np.arange(sv.size).reshape(len(sig), -1), slots)
    if not slots:
        return out.reshape(sig.shape[1:]).copy()
    return out[0].reshape(sig.shape[1:]).copy(), out[1].reshape(sig.shape).copy()


def lagrange_terms(sig: np.ndarray):
    """Lagrange form of the kernel over phase rows (..., n), node by node.

    Term t is exp(-i s_t) / prod_{l != t} (s_t - s_l), its factors taken in
    ``l`` order, and the sum adds the terms in node order.  Rows whose
    smallest gap or largest term amplification crosses the library's
    thresholds are flagged unsafe.  Returns s, terms (node axis last),
    min_gap, amp and unsafe.
    """
    sig = np.asarray(sig, dtype=np.float64)
    n = sig.shape[-1]
    terms = np.empty(sig.shape, dtype=np.complex128)
    min_gap = np.full(sig.shape[:-1], np.inf)
    min_prod = np.full(sig.shape[:-1], np.inf)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for t in range(n):
            prod = np.ones(sig.shape[:-1])
            for l in range(n):
                if l != t:
                    gap = sig[..., t] - sig[..., l]
                    prod = prod * gap
                    min_gap = np.minimum(min_gap, np.abs(gap))
            min_prod = np.minimum(min_prod, np.abs(prod))
            terms[..., t] = np.exp(-1j * sig[..., t]) / prod
        s = terms[..., 0]
        for t in range(1, n):
            s = s + terms[..., t]
        amp = 1.0 / np.maximum(min_prod, 1e-300)
    unsafe = (min_gap <= EPS_CONFLUENT) | (amp >= _LAGRANGE_AMP_MAX)
    return SimpleNamespace(s=s, terms=terms, min_gap=min_gap, amp=amp, unsafe=unsafe)


def kernel_batch(sig):
    """Kernel values and derivative coefficients of phase rows (..., n);
    the coefficients keep that layout."""
    s, coefs = direct_kernel(np.moveaxis(sig, -1, 0), True)
    return s, np.moveaxis(coefs, 0, -1)


def divided_diff_table(z: np.ndarray) -> np.ndarray:
    """Reference divided difference of exp(-i s) over each row's node
    multiset: one full table per row, entry by entry, in a dict.

    Same entry rules as the library's shared table (leaves, the two-node
    closed form, the series for spans within ``_SERIES_SPAN``, the
    recurrence above), but nothing is shared between rows of different
    node multisets, so a derivative slot is a separate row with its node
    repeated.
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
                out[narrow] = _dd_series_entry(z[narrow][..., i:k + 1].T, width)
            wide = ~narrow
            if wide.any():
                out[wide] = ((table[(i + 1, k)][wide] - table[(i, k - 1)][wide])
                             / span[wide])
            table[(i, k)] = out
    return table[(0, n - 1)]


def slot_tables(z: np.ndarray) -> np.ndarray:
    """Reference phase derivatives of rows z (rows, n): column p is the
    divided difference with node p repeated, one reference table each."""
    z = np.asarray(z, dtype=np.float64)
    return np.stack([divided_diff_table(np.concatenate([z, z[:, p:p + 1]], axis=1))
                     for p in range(z.shape[1])], axis=1)


def total_mass(mesh) -> np.ndarray:
    """Integral of the piecewise-constant field per channel: sum rho_n * C_n."""
    return _batch_content(mesh.element_points()) @ mesh.densities


def polygon_fan_mesh(polygon) -> SimplexMesh:
    """Unit-density fan triangulation from vertex 0 (valid for convex polygons)."""
    p = _check_polygon(polygon)
    n = p.shape[0]
    tris = [[0, i, i + 1] for i in range(1, n - 1)]
    return SimplexMesh(2, 2, p, np.asarray(tris), np.ones(n - 2))


def interior_angles(polygon) -> np.ndarray:
    """Interior angle at every vertex of a simple polygon, in input order."""
    flipped, *_, angles = _ccw_corners(polygon)
    return angles[::-1].copy() if flipped else angles


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


def lbs_jacobian(rig, vertex: int) -> np.ndarray:
    """Jacobian of one deformed vertex in the control DOFs, shape (m, 2, 3).

    Translation columns are the weight times identity; the rotation column
    is the weight times the quarter-turn of the rotated center offset
    (perpendicular to the offset at zero rotation).
    """
    rig.check_weights()
    theta = rig.controls[:, 2]
    cos, sin = np.cos(theta), np.sin(theta)
    rel = rig.rest_vertices[vertex][None, :] - rig.centers  # (m, 2)
    drot_x = -sin * rel[:, 0] - cos * rel[:, 1]
    drot_y = cos * rel[:, 0] - sin * rel[:, 1]
    w = rig.weights[vertex]
    jac = np.zeros((rig.n_controls, 2, 3))
    jac[:, 0, 0] = w
    jac[:, 1, 1] = w
    jac[:, 0, 2] = w * drot_x
    jac[:, 1, 2] = w * drot_y
    return jac


def raster_loss(mesh, config, raster_cotangent) -> float:
    """The linear functional ``sum_pixels cotangent * raster`` itself."""
    cot = np.asarray(raster_cotangent, dtype=np.float64)
    values = rasterize(mesh, config).values
    if cot.shape != values.shape:
        cot = cot[..., None]
    return float(np.sum(cot * values))


def numeric_backward_auxnode(boundary, grid, cotangent):
    """Central-difference gradient of the auxnode transform (step 1e-6),
    every probe transforming the whole boundary."""
    return _central_differences(boundary, forward_auxnode, grid, cotangent, 1e-6, local=False)


def random_spectral_cotangent(grid, rng: np.random.Generator,
                              channels: int = 1) -> SpectralField:
    shape = (grid.n_modes, channels)
    return SpectralField(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def forward_element(points, density, k) -> complex:
    """Spectral coefficient of one simplex at wavevector ``k``.

    At k = 0 this is exactly density * content (real), via the confluent
    kernel path.
    """
    pts = np.asarray(points, dtype=np.float64)
    kv = np.asarray(k, dtype=np.float64)
    j = pts.shape[0] - 1
    s = eval_S(pts @ kv)
    return complex(density * imaginary_power(j) * cm_distortion(pts) * s)


# ---------------------------------------------------------------------------
# element geometry: the Cayley-Menger route, independent of the library's
# Gram-determinant weights

def cayley_menger_matrix(points) -> np.ndarray:
    """Bordered squared-distance matrix of a point tuple, shape (j+2, j+2)."""
    pts = np.asarray(points, dtype=np.float64)
    m = pts.shape[0]
    b = np.zeros((m + 1, m + 1))
    b[0, 1:] = 1.0
    b[1:, 0] = 1.0
    for s in range(m):
        for t in range(m):
            b[s + 1, t + 1] = np.sum((pts[s] - pts[t]) ** 2)
    return b


def adjugate(matrix) -> np.ndarray:
    """Adjugate by cofactor expansion; also defined for singular matrices."""
    a = np.asarray(matrix, dtype=np.float64)
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


def cm_content(points) -> float:
    """Content from the Cayley-Menger determinant; round-off below 0 clamps to 0."""
    pts = np.asarray(points, dtype=np.float64)
    j = pts.shape[0] - 1
    det = np.linalg.det(cayley_menger_matrix(pts))
    val = (-1.0) ** (j + 1) / (2.0 ** j * math.factorial(j) ** 2) * det
    return math.sqrt(max(val, 0.0))


def cm_distortion(points) -> float:
    """``j! * content`` via Cayley-Menger."""
    return math.factorial(np.shape(points)[0] - 1) * cm_content(points)


def element_geometry(points) -> SimpleNamespace:
    """Measure data of one element: content, distortion, and the CM matrix."""
    pts = np.asarray(points, dtype=np.float64)
    c = cm_content(pts)
    b = cayley_menger_matrix(pts)
    return SimpleNamespace(content=c, distortion=math.factorial(pts.shape[0] - 1) * c,
                           cayley_menger=b, cm_adjugate=adjugate(b))


# ---------------------------------------------------------------------------
# single-element derivative pieces

def dgamma_dx(points, p: int) -> np.ndarray:
    """Gradient of the distortion factor w.r.t. vertex slot ``p``.

    Uses the adjugate of the Cayley-Menger matrix: slot p reads row p+1 of
    the adjugate against the doubled coordinate differences.  Degenerate
    elements (distortion ~ 0) return a zero vector, as the library's
    backward pass does, because the expression divides by the distortion.
    """
    pts = np.asarray(points, dtype=np.float64)
    j = pts.shape[0] - 1
    gamma = cm_distortion(pts)
    if gamma <= DEGENERACY_EPS * math.factorial(j):
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
    lk = lagrange_terms(sig[None])
    if lk.unsafe[0]:
        kernel = complex(divided_diff_table(sig[None])[0])
    else:
        kernel = complex(lk.s[0])
    gap = min(max(float(lk.min_gap[0]), 1e-300), 1e6)
    if lk.unsafe[0] or float(lk.amp[0]) * (gap + 2.0) >= _DS_AMP_MAX * gap:
        # d(kernel)/d(sigma_p): the divided difference with node p repeated
        coef = complex(divided_diff_table(np.append(sig, sig[p])[None])[0])
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
    gamma = cm_distortion(pts)
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
    gamma = cm_distortion(pts)
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
