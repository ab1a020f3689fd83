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

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .meshcore import (
    MeshValidationError,
    SimplexMesh,
    _element_weights,
    _index_violations,
    _nonfinite_violations,
    _structure_violations,
)
from .spectral import SpectralField, SpectralGrid

#: pairwise phase-gap (radians) below which the Lagrange form is abandoned
EPS_CONFLUENT = 1e-5

# The Lagrange sum also degrades when several gaps are merely small: its
# absolute error is ~eps_machine * (largest term magnitude).  Cap that
# amplification so the stable path takes over before accuracy drops below
# ~1e-12, not only at exact collisions.
_LAGRANGE_AMP_MAX = 1e4

# Lagrange kernel-derivative error grows by an extra 1/gap over the kernel
# itself; route to the stable path before that amplification bites.
_DS_AMP_MAX = 1e5

# Contiguous node groups spanning less than this evaluate via the local
# series; the table recurrence then never divides by anything smaller.
_SERIES_SPAN = 0.25
_SERIES_TERMS = 12

# Element x mode pairs in one kernel tile.  A tile's temporaries take a
# few hundred bytes per pair (tetrahedra), so this caps the kernel's memory
# per worker at a few MiB whatever the size of the mesh x grid product.
_TILE_PAIRS = 1 << 15

_I_POW = np.array([1, 1j, -1, -1j], dtype=np.complex128)      # exact i**n cycle
_NEG_I_POW = np.array([1, -1j, -1, 1j], dtype=np.complex128)  # exact (-i)**n cycle
_FACTORIALS = np.array([math.factorial(n) for n in range(_SERIES_TERMS + 8)], dtype=np.float64)


def resolve_workers(workers=None) -> int:
    """Worker count: explicit argument, else DDSL_WORKERS, else 1.

    The threads one call starts are capped further by ``_thread_count``.
    """
    if workers is None:
        workers = os.environ.get("DDSL_WORKERS", "1")
    workers = int(workers)
    if workers < 1:
        raise ValueError("worker count must be >= 1")
    return workers


def _thread_count(workers: int, n_tiles: int) -> int:
    """Threads for one call: the worker count capped by the mode-tile count
    and by ``os.cpu_count()``, so a huge DDSL_WORKERS starts no more
    threads than there are CPUs."""
    return min(workers, n_tiles, os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# divided differences of exp(-i s)

def _dd_series_entry(z: np.ndarray, width: int) -> np.ndarray:
    """Series value of the divided difference over all width+1 nodes of the
    node-major z (width+1, ...), sorted along the node axis: the complete
    homogeneous sums h_r of the offsets from the midpoint weigh the Taylor
    coefficients of exp(-i s) there."""
    center = 0.5 * (z[0] + z[-1])
    h = np.zeros((_SERIES_TERMS,) + z.shape[1:])
    h[0] = 1.0
    for u in z - center:
        for r in range(1, _SERIES_TERMS):
            h[r] += u * h[r - 1]
    r_idx = np.arange(_SERIES_TERMS)
    coef = _NEG_I_POW[(width + r_idx) % 4] / _FACTORIALS[width + r_idx]
    return np.exp(-1j * center) * (np.moveaxis(h, 0, -1) @ coef)


@functools.lru_cache(maxsize=None)
def _table_plan(n: int, slots: bool) -> tuple:
    """Static divided-difference table over n sorted node columns, per width:
    each entry's node columns and the rows of its two sub-entries (the
    columns minus the last, minus the first) in the previous width.

    Sequence 0 is the sorted nodes; with ``slots``, sequence q+1 repeats
    position q.  An entry of sequence q+1 that does not cover both copies
    of q is an entry of sequence 0, so entries are kept once per column
    tuple.  The kernel is row 0 of width n-1, slot q row q of width n.
    """
    seqs = [tuple(range(n))] + [tuple(range(q + 1)) + tuple(range(q, n))
                                for q in range(n) if slots]
    plan, rows = [], {}
    for width in range(n + slots):
        cols = list(dict.fromkeys(s[i:i + width + 1] for s in seqs
                                  for i in range(len(s) - width)))
        rows.update((c, r) for r, c in enumerate(cols))
        plan.append((np.array(cols), [rows[c[:-1]] for c in cols] if width else None,
                     [rows[c[1:]] for c in cols] if width else None))
    return tuple(plan)


def _dd_table(z: np.ndarray, slots: bool):
    """Divided difference of exp(-i s) over the nodes of each phase row of
    z (rows, n), accurate for arbitrarily close or repeated nodes; with
    ``slots`` also, per input column p, the one with node p repeated (the
    phase derivatives).

    One table over the sorted nodes serves the kernel and every slot, one
    width at a time.  Entries whose span fits ``_SERIES_SPAN`` come from a
    Taylor series around the local midpoint (exact offsets, so no snapping
    error), wider entries from the recurrence, whose denominator is then
    never small.  Two-node entries have the uniformly stable closed form
    -i exp(-i center) sin(half-gap)/half-gap.  Returns the kernel (rows,),
    or the kernel and the slots (rows, n).
    """
    z = np.asarray(z, dtype=np.float64)
    n = z.shape[-1]
    if slots:
        order = np.argsort(z, axis=-1)
        z = np.take_along_axis(z, order, axis=-1)
    else:
        z = np.sort(z, axis=-1)
    z = np.ascontiguousarray(z.T)  # node-major: an entry gathers whole rows
    for width, (cols, left, right) in enumerate(_table_plan(n, slots)):
        lo, hi = z[cols[:, 0]], z[cols[:, -1]]
        if width == 0:  # the leaves; wider entries never read them
            table = np.exp(-1j * lo) if n == 1 else None
        elif width == 1:
            center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            table = -1j * np.exp(-1j * center) * np.sinc(half / np.pi)
        else:
            span = hi - lo
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                table = (table[right] - table[left]) / span
            e, r = np.nonzero(span <= _SERIES_SPAN)
            if e.size:  # the narrow entries overwrite their rows
                table[e, r] = _dd_series_entry(z[cols[e].T, r], width)
        if width == n - 1:
            kernel = table[0]
    if not slots:
        return kernel
    out = np.empty(table.shape[::-1], dtype=np.complex128)
    np.put_along_axis(out, order, table.T, axis=-1)
    return kernel, out


def _kernel(sig: np.ndarray, slots: bool):
    """Kernel S of node-major phase slices sig (n, ...), stability-routed;
    with ``slots`` also the derivative coefficient per node slot (n, ...).

    One pass over the gaps g_tl = s_t - s_l (t < l) builds the Lagrange
    terms S_t = exp(-i s_t) / prod_{l != t} (s_t - s_l), each denominator
    in ``l`` order.  The slot-p derivative is
    -i S_p + sum_{t != p} (S_t + S_p) / (s_t - s_p): each gap adds
    u = (S_t + S_l) / g_tl to slot l and subtracts it from slot t.
    Unsafe rows, and with ``slots`` the risky rows the derivative's extra
    1/gap would spoil, take one table each (``_dd_table``): it patches the
    unsafe kernels and every risky slot.  Returns s, or (s, coefs).
    """
    pairs = list(zip(*np.triu_indices(sig.shape[0], 1)))
    gaps = np.empty((len(pairs),) + sig.shape[1:])
    prod = np.ones(sig.shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for q, (t, l) in enumerate(pairs):
            g = np.subtract(sig[t], sig[l], out=gaps[q])
            prod[t] *= g
            prod[l] *= g
        np.negative(prod[1::2], out=prod[1::2])  # node t has t gaps g_lt = -(s_t - s_l)
        min_gap = np.abs(gaps).min(axis=0, initial=np.inf)
        amp = 1.0 / np.maximum(np.abs(prod).min(axis=0), 1e-300)
        terms = np.exp(-1j * sig) / prod
        del prod
        s = terms.sum(axis=0)
        if slots:
            coefs = -1j * terms
            for q, (t, l) in enumerate(pairs):
                u = terms[t] + terms[l]
                u *= 1.0 / gaps[q]
                coefs[l] += u
                coefs[t] -= u
    unsafe = (min_gap <= EPS_CONFLUENT) | (amp >= _LAGRANGE_AMP_MAX)
    risky = unsafe
    if slots:
        # amp * (1 + 2/gap) >= cap, rearranged so exact collisions do not overflow
        gap = np.minimum(np.maximum(min_gap, 1e-300), 1e6)
        risky = unsafe | (amp * (gap + 2.0) >= _DS_AMP_MAX * gap)
    if risky.any():
        kernel = _dd_table(sig[:, risky].T, slots)
        if slots:
            kernel, slot = kernel
            coefs[:, risky] = slot.T
        if unsafe.any():
            s = np.where(unsafe, 0.0, s)  # clear the inf/nan placeholders
            s[unsafe] = kernel[unsafe[risky]]
    return (s, coefs) if slots else s


# ---------------------------------------------------------------------------
# forward transform: one core for simplices and auxiliary simplices
#
# Auxnode rasterization applies the simplex transform to the auxiliary
# simplices (origin, x_1..x_j) of a boundary: the origin adds a zero phase,
# and the signed weight det(J) replaces j! * content.

def _checked_elements(mesh: SimplexMesh, grid: SpectralGrid, auxnode: bool):
    """Entry checks of the shared core, then the node coordinates per element
    and each element's kernel weight (``meshcore._element_weights``).

    Dimension and degree, index range and finiteness are checked on every
    call, strict or not: a degree above the dimension would rasterize to
    zeros, a negative index wrap silently, a large one escape as an
    IndexError, and a non-finite value turn the whole raster into NaN.
    An auxnode boundary must have degree dim-1 in both passes.
    """
    if mesh.dim != grid.dim:
        raise ValueError(f"mesh dim {mesh.dim} != grid dim {grid.dim}")
    violations = _structure_violations(mesh) + _index_violations(mesh)[1]
    if auxnode and mesh.degree != mesh.dim - 1:
        violations.append(f"auxnode needs a boundary of degree dim-1, "
                          f"got degree {mesh.degree} in {mesh.dim}D")
    if violations:
        raise MeshValidationError(violations)
    pts = mesh.element_points()
    violations = _nonfinite_violations(pts, mesh.densities)
    if violations:
        raise MeshValidationError(violations)
    return pts, _element_weights(pts, auxnode)


def _tiles(n_elements: int, n_modes: int):
    """Tile plan: element-span and mode-span bounds.

    A mode tile holds at most ``_TILE_PAIRS`` element x mode pairs of every
    element block; the elements are split into blocks only when they alone
    exceed the budget.  The plan depends on the sizes alone, never on the
    worker count.
    """
    blocks = max(1, -(-n_elements // _TILE_PAIRS))
    e_bounds = np.arange(blocks + 1) * n_elements // blocks
    per_tile = _TILE_PAIRS // max(1, -(-n_elements // blocks))
    tiles = min(n_modes, max(1, -(-n_modes // per_tile)))
    return e_bounds, np.arange(tiles + 1) * n_modes // tiles


def _sweep(pts, wavevectors, auxnode: bool, slots: bool, workers, reduce) -> list:
    """Run ``_kernel(sig, slots)`` over every tile and return each worker's
    ``reduce`` result, in worker order.

    ``reduce`` gets a generator of (element span, mode span, kernel) over
    its worker's tiles.  Worker w gets mode tiles w, w + W, w + 2W, ... and
    runs each tile's element blocks in order.  The assignment is static,
    so a fixed worker count gives the same result on every run.
    """
    e_bounds, m_bounds = _tiles(len(pts), len(wavevectors))
    n_tiles = len(m_bounds) - 1
    workers = _thread_count(resolve_workers(workers), n_tiles)

    def tiles(w):
        for t in range(w, n_tiles, workers):
            modes = slice(m_bounds[t], m_bounds[t + 1])
            for e0, e1 in zip(e_bounds[:-1], e_bounds[1:]):
                # node-major phases k . x_t (nodes, elements, modes)
                sig = np.matmul(pts[e0:e1].transpose(1, 0, 2), wavevectors[modes].T)
                if auxnode:  # the auxiliary origin's zero phase
                    sig = np.concatenate([np.zeros((1,) + sig.shape[1:]), sig])
                yield slice(e0, e1), modes, _kernel(sig, slots)

    if workers == 1:
        return [reduce(tiles(0))]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda w: reduce(tiles(w)), range(workers)))


def _forward(mesh: SimplexMesh, grid: SpectralGrid, auxnode: bool, workers) -> SpectralField:
    pts, weights = _checked_elements(mesh, grid, auxnode)
    # i**j, the weight and the densities as one factor per (element, channel)
    factor = _I_POW[(pts.shape[1] - 1 + auxnode) % 4] * weights[:, None] * mesh.densities
    coeffs = np.zeros((grid.n_modes, mesh.channels), dtype=np.complex128)

    def reduce(tiles):  # each mode tile writes only its own rows of coeffs
        for elems, modes, s in tiles:
            coeffs[modes] += s.T @ factor[elems]

    _sweep(pts, grid.wavevectors, auxnode, False, workers, reduce)
    return SpectralField(grid, coeffs)


def forward_mesh(mesh: SimplexMesh, grid: SpectralGrid, workers=None) -> SpectralField:
    """Spectral coefficients of the whole mesh on ``grid``.

    The DC coefficient equals the total mass (sum of density * content)
    in every channel.
    """
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
                    workers=None) -> SpectralField:
    """Transform of the solid enclosed by a watertight oriented boundary.

    The boundary is a (j-1)-mesh in d = j dimensions; each boundary
    element is adjoined with the origin into an auxiliary j-simplex whose
    signed distortion weights its kernel, and the signed contributions
    telescope to the enclosed solid.  A CCW polygon boundary (outward
    2D orientation) yields positive densities; reversing the orientation
    negates the field.
    """
    return _forward(boundary_mesh, grid, True, workers)
