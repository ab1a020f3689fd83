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
collide; the backward has a closed form for one exact tie among wide gaps.
Phase collisions are not exotic: every mesh hits one at the DC mode, and
axis-aligned geometry hits them on whole mode rows.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from .meshcore import (
    MeshValidationError,
    SimplexMesh,
    _check_int,
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

#: accumulation lanes of a sweep, fixed whatever the worker count (see ``_sweep``)
_LANES = 8

_I_POW = np.array([1, 1j, -1, -1j], dtype=np.complex128)  # exact i**n cycle; (-i)**n at -n % 4
_FACTORIALS = np.array([math.factorial(n) for n in range(_SERIES_TERMS + 8)], dtype=np.float64)


def _thread_count(workers, lanes: int) -> int:
    """Threads for one call: the ``workers`` argument, else DDSL_WORKERS,
    else 1, capped by the lanes that hold tiles and by ``os.cpu_count()``, so a
    huge DDSL_WORKERS starts no more threads than there are CPUs.  A count
    that is not an integer >= 1 is an error naming where it came from."""
    source = "workers"
    if workers is None:
        source, workers = "DDSL_WORKERS", os.environ.get("DDSL_WORKERS", "1")
        workers = int(workers) if workers.isdecimal() else workers
    _check_int(workers, source, 1)
    return min(workers, lanes, os.cpu_count() or 1)


@functools.lru_cache(maxsize=None)
def _pool(workers: int) -> ThreadPoolExecutor:
    """The process's executor of ``workers`` threads: started on first use,
    idle between calls."""
    return ThreadPoolExecutor(max_workers=workers, thread_name_prefix="simplexrast")


if hasattr(os, "register_at_fork"):
    # a forked child has none of the parent's threads, and a task queued on
    # the parent's executor would wait for them forever
    os.register_at_fork(after_in_child=_pool.cache_clear)

_workspace = threading.local()


def _reused(name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    """This thread's buffer ``name`` as an array of ``shape``, grown when a
    larger tile arrives and kept across tiles and calls: its contents last
    until the thread next asks for ``name``."""
    size = math.prod(shape)
    buf = getattr(_workspace, name, None)
    if buf is None or buf.size < size:
        buf = np.empty(size, dtype)
        setattr(_workspace, name, buf)
    return buf[:size].reshape(shape)


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
    coef = _I_POW[-(width + r_idx) % 4] / _FACTORIALS[width + r_idx]
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


@functools.lru_cache(maxsize=None)
def _pair_plan(n: int) -> tuple:
    """The node pairs (t, l), t < l, of n nodes in gap order, and per pair a
    node order that puts t and l first and the other nodes after them."""
    pairs = [(t, l) for t in range(n) for l in range(t + 1, n)]
    orders = [[t, l] + [m for m in range(n) if m not in (t, l)] for t, l in pairs]
    return pairs, np.array(orders, dtype=np.intp)


def _tie_form(y: np.ndarray, f: np.ndarray):
    """Kernel (rows,) and slots (n, rows) of phase rows y (n, rows) whose
    nodes 0 and 1 tie at a, the others x_j distinct and every other gap past
    ``_SERIES_SPAN``; f (n-1, rows) holds exp(-i y[1:]).  A distinct node of
    multiplicity m adds h, h L1 or h (L1^2 + sum m_o / (node - o)^2) / 2 for
    m = 1, 2, 3, where h is exp(-i node) / prod (node - o)^m_o and
    L1 = -i - sum m_o / (node - o) over the other nodes o.  The kernel has a
    double at a; the tie's slot (both positions) a triple; the slot of x_p
    doubles at a and x_p."""
    a, x = y[0], y[2:]
    inv = 1.0 / (a - x)
    h_a = f[0] * np.prod(inv, axis=0)
    l1 = -1j - inv.sum(axis=0)
    h = f[1:] * inv * inv  # f_j / (x_j - a)^2, then over prod_{m != j} (x_j - x_m)
    l1x = 2.0 * inv - 1j  # L1 of x_j doubled, then minus sum_{m != j} 1 / (x_j - x_m)
    pairs = [(j, m, 1.0 / (x[j] - x[m])) for j, m in _pair_plan(len(x))[0]]
    for j, m, r in pairs:
        h[j] *= r
        h[m] *= -r
        l1x[j] -= r
        l1x[m] += r
    slots = np.empty(y.shape, dtype=np.complex128)
    slots[0] = slots[1] = 0.5 * h_a * (l1 * l1 + (inv * inv).sum(axis=0)) - (h * inv).sum(axis=0)
    slots[2:] = h_a * inv * (l1 - inv) + h * l1x
    for j, m, r in pairs:  # the single x_m over (x_m - x_j) in slot j
        slots[2 + j] -= h[m] * r
        slots[2 + m] += h[j] * r
    return h_a * l1 + h.sum(axis=0), slots


def _kernel(sv: np.ndarray, inv: np.ndarray, slots: bool):
    """Kernel S of the phases ``sv[inv]`` (n, elements, modes), gathered by
    the node-major index inv (n, elements) from one tile's per-vertex phase
    table sv (vertices, modes), stability-routed; with ``slots`` also the
    derivative coefficient per node slot (n, elements, modes).

    The exps exp(-i sv) are taken once per vertex and gathered by the same
    index.  One pass over the gaps g_tl = s_t - s_l (t < l) builds the
    Lagrange terms S_t = exp(-i s_t) / prod_{l != t} (s_t - s_l), each
    denominator in ``l`` order.  The slot-p derivative is
    -i S_p + sum_{t != p} (S_t + S_p) / (s_t - s_p): each gap adds
    u = (S_t + S_l) / g_tl to slot l and subtracts it from slot t.  The
    exps, gaps, denominators, ``s`` and ``coefs`` go into this thread's
    reused buffers (``_reused``), so ``s`` and ``coefs`` last until the
    thread's next call.
    Unsafe rows, and with ``slots`` the risky rows the derivative's extra
    1/gap would spoil, leave this form.  With ``slots``, those with one zero
    gap and every other gap past ``_SERIES_SPAN`` (a single exact tie) take
    ``_tie_form``, their exps gathered from the vertex table; the others
    take one table each (``_dd_table``), which patches the unsafe kernels
    and every slot.  Returns s, or (s, coefs).
    """
    ev = np.multiply(sv, -1j, out=_reused("ev", sv.shape, np.complex128))
    np.exp(ev, out=ev)
    sig = sv[inv]
    n = sig.shape[0]
    pairs, orders = _pair_plan(n)
    gaps = _reused("gaps", (len(pairs),) + sig.shape[1:])
    prod = _reused("prod", sig.shape)
    prod.fill(1.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for q, (t, l) in enumerate(pairs):
            g = np.subtract(sig[t], sig[l], out=gaps[q])
            prod[t] *= g
            prod[l] *= g
        np.negative(prod[1::2], out=prod[1::2])  # node t has t gaps g_lt = -(s_t - s_l)
        min_gap = np.abs(gaps).min(axis=0, initial=np.inf)
        amp = 1.0 / np.maximum(np.abs(prod).min(axis=0), 1e-300)
        terms = ev[inv] / prod
        s = terms.sum(axis=0, out=_reused("s", terms.shape[1:], np.complex128))
        if slots:
            coefs = np.multiply(-1j, terms, out=_reused("coefs", terms.shape, np.complex128))
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
    # flat row indices; s and coefs are C-ordered, so their flat views write through
    rows, sig = np.flatnonzero(risky), sig.reshape(n, -1)
    if slots and rows.size:
        g = np.abs(gaps.reshape(len(pairs), -1)[:, rows])
        tie = ((min_gap.reshape(-1)[rows] == 0.0)
               & (np.count_nonzero(g > _SERIES_SPAN, axis=0) == len(pairs) - 1))
        if tie.any():
            ties = rows[tie]
            order = orders[g[:, tie].argmin(axis=0)].T  # (n, ties): the tied pair first
            e, m = np.divmod(ties, sv.shape[1])
            kernel, slot = _tie_form(sig[order, ties], ev[inv[order[1:], e], m])
            s.reshape(-1)[ties] = kernel
            coefs.reshape(n, -1)[order, ties] = slot
            rows = rows[~tie]
    if rows.size:
        kernel = _dd_table(sig[:, rows].T, slots)
        if slots:
            kernel, slot = kernel
            coefs.reshape(n, -1)[:, rows] = slot.T
        patch = unsafe.reshape(-1)[rows]
        s.reshape(-1)[rows[patch]] = kernel[patch]
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


def _sweep(mesh: SimplexMesh, wavevectors, auxnode: bool, slots: bool, workers,
           add) -> None:
    """Run ``_kernel`` over every tile and hand each result to ``add``.

    Per element block the used vertices are found once, with a node-major
    (nodes, elements) index into them; in auxnode mode the auxiliary
    origin is row 0.  Per tile the phases ``k . x`` are computed once per
    used vertex and mode, and ``_kernel`` takes that table with the index,
    so the table is bounded by the used set, never by the whole mesh.

    ``add(lane, element span, mode span, kernel)`` is called once per tile.
    Mode tile t is in lane t mod ``_LANES``, and thread w of W runs the
    tiles of the lanes congruent to w mod W in tile order, so each lane's
    tiles come in one thread and one order whatever W.  The threads are the
    persistent ``_pool(W)``, or the caller's alone at W = 1.  Each thread
    builds its tiles in its own reused buffers (``_reused``), so a kernel's
    results hold only until ``add`` returns.
    """
    n_elements, n_nodes = mesh.elements.shape
    e_bounds, m_bounds = _tiles(n_elements, len(wavevectors))
    n_tiles = len(m_bounds) - 1
    workers = _thread_count(workers, min(_LANES, n_tiles))
    blocks = []
    for e0, e1 in zip(e_bounds[:-1], e_bounds[1:]):
        used, inv = np.unique(mesh.elements[e0:e1].T, return_inverse=True)
        inv = inv.reshape(n_nodes, e1 - e0)
        if auxnode:  # the auxiliary origin is row 0 of every table
            inv = np.concatenate([np.zeros((1, e1 - e0), dtype=inv.dtype), inv + 1])
        blocks.append((slice(e0, e1), mesh.vertices[used], inv))

    def run(w):
        for t in range(n_tiles):
            if t % _LANES % workers != w:
                continue
            modes = slice(m_bounds[t], m_bounds[t + 1])
            k = wavevectors[modes].T
            for elems, verts, inv in blocks:
                # phases k . x per used vertex, below the auxiliary origin's zero row
                sv = _reused("sv", (len(verts) + auxnode, k.shape[1]))
                sv[:auxnode] = 0.0
                np.matmul(verts, k, out=sv[auxnode:])
                add(t % _LANES, elems, modes, _kernel(sv, inv, slots))

    if workers == 1:
        return run(0)
    futures = [_pool(workers).submit(run, w) for w in range(workers)]
    wait(futures)  # no thread still writes the caller's sums when one raises
    for future in futures:
        future.result()


def _forward(mesh: SimplexMesh, grid: SpectralGrid, auxnode: bool, workers) -> SpectralField:
    pts, weights = _checked_elements(mesh, grid, auxnode)
    # i**j, the weight and the densities as one factor per (element, channel)
    factor = _I_POW[(pts.shape[1] - 1 + auxnode) % 4] * weights[:, None] * mesh.densities
    coeffs = np.zeros((grid.n_modes, mesh.channels), dtype=np.complex128)

    def add(lane, elems, modes, s):  # each mode tile writes only its own rows of coeffs
        coeffs[modes] += s.T @ factor[elems]

    _sweep(mesh, grid.wavevectors, auxnode, False, workers, add)
    return SpectralField(grid, coeffs)


def forward_mesh(mesh: SimplexMesh, grid: SpectralGrid, workers=None) -> SpectralField:
    """Spectral coefficients of the whole mesh on ``grid``.

    The DC coefficient equals the total mass (sum of density * content)
    in every channel.
    """
    return _forward(mesh, grid, False, workers)


# ---------------------------------------------------------------------------
# auxiliary-node transform of a watertight boundary

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
