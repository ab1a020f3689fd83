import functools
import itertools
import multiprocessing
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import simplexrast as sr
from simplexrast import nuft
from simplexrast.nuft import _DS_AMP_MAX, _SERIES_SPAN, _dd_table, _kernel, _table_plan
import oracles
from conftest import mp_confluent_diff, mp_divided_diff

TWO_PI = 2.0 * np.pi
UNIT_TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

# Frozen oracle: 4M-sample Monte-Carlo quadrature of the triangle integral
# below at k = 2 pi (1, 0), seed 20240817 (regenerate with mc_triangle_oracle).
MC_TRIANGLE = np.array([[0.2, 0.3], [0.7, 0.25], [0.45, 0.8]])
MC_DENSITY = 1.3
MC_VALUE = -0.13150181191197613 - 0.042718200897617215j


def mc_triangle_oracle(pts, density, k, n=4_000_000, seed=20240817):
    """Uniform Monte-Carlo quadrature of density * exp(-i k.x) over a triangle."""
    rng = np.random.default_rng(seed)
    r1 = np.sqrt(rng.random(n))
    r2 = rng.random(n)
    a, b, c = np.asarray(pts, float)
    x = (1 - r1)[:, None] * a + (r1 * (1 - r2))[:, None] * b + (r1 * r2)[:, None] * c
    area = 0.5 * abs((b - a)[0] * (c - a)[1] - (b - a)[1] * (c - a)[0])
    return density * area * np.exp(-1j * (x @ np.asarray(k, float))).mean()


class TestSigma:
    def test_direct_dot(self):
        assert oracles.sigma([TWO_PI, 0.0], [0.5, 0.3]) == pytest.approx(np.pi)

    def test_zero_wavevector(self):
        assert oracles.sigma([0.0, 0.0], [0.9, 0.1]) == 0.0

    def test_diagonal(self):
        assert oracles.sigma([TWO_PI, TWO_PI], [0.25, 0.25]) == pytest.approx(np.pi)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            oracles.sigma([1.0, 2.0, 3.0], [0.5, 0.3])


class TestEvalS:
    def test_single_phase(self):
        assert oracles.eval_S([np.pi]) == pytest.approx(-1.0, abs=1e-12)

    def test_two_phases(self):
        assert oracles.eval_S([0.0, np.pi]) == pytest.approx(-2.0 / np.pi, abs=1e-12)

    def test_triple_zero_confluent(self):
        assert oracles.eval_S([0.0, 0.0, 0.0]) == pytest.approx(-0.5, abs=1e-15)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            oracles.eval_S([0.0, np.inf])

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.floats(-40, 40), min_size=2, max_size=4))
    def test_matches_high_precision_reference(self, sigmas):
        gaps = [abs(a - b) for i, a in enumerate(sigmas) for b in sigmas[i + 1:]]
        assume(min(gaps) > 1e-12)
        ref = mp_divided_diff(sigmas)
        assert oracles.eval_S(sigmas) == pytest.approx(ref, abs=1e-10 + 1e-10 * abs(ref))

    def test_confluent_limit_continuity(self):
        # gap swept from 1e-2 to 0: |S(gap) - S(0)| decays monotonically
        # below 1e-4 with no spike at any branch switch
        for base in ([0.0, 1.3], [0.0, 0.9, 2.2], [0.0, 0.4, 1.1, 2.7]):
            base = np.array(base)
            s0 = oracles.eval_S(base)
            gaps = np.logspace(-2, -9, 36)
            dist = [abs(oracles.eval_S(base + g * np.arange(len(base))) - s0) for g in gaps]
            below = [d for g, d in zip(gaps, dist) if g <= 1e-4]
            assert all(x >= y - 1e-13 for x, y in zip(below, below[1:]))
            assert dist[-1] < 1e-8

    def test_series_path_matches_reference_at_tiny_gaps(self):
        for g in (1e-5, 1e-6, 1e-7, 1e-8):
            sig = np.array([0.3, 0.3 + g, 1.1, 1.1 + 2 * g])
            ref = mp_divided_diff(sig)
            mine = complex(_dd_table(sig[None], False)[0])
            assert abs(mine - ref) < 1e-12

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.floats(-30, 30), min_size=1, max_size=4),
           st.integers(0, 10_000))
    def test_symmetric_under_phase_permutation(self, sigmas, seed):
        perm = np.random.default_rng(seed).permutation(len(sigmas))
        a = oracles.eval_S(sigmas)
        b = oracles.eval_S(np.asarray(sigmas)[perm])
        assert b == pytest.approx(a, abs=1e-11 + 1e-11 * abs(a))


def confluent_rows(rng, n, rows=200):
    """Unsorted phase rows with exact pairs, triples, 2+2 clusters, ties and
    near-confluent clusters at gaps from 1e-12 up, phases up to +-100."""
    z = rng.uniform(-100, 100, (rows, 1)) + rng.uniform(-3, 3, (rows, n))
    gaps = 10.0 ** rng.uniform(-12, 0, rows)
    for r, kind in enumerate(rng.integers(0, 6, rows)):
        if kind == 1 and n >= 2:
            z[r, 1] = z[r, 0]
        elif kind == 2 and n >= 3:
            z[r, 1:3] = z[r, 0]
        elif kind == 3 and n >= 4:
            z[r, 1], z[r, 3] = z[r, 0], z[r, 2] + gaps[r]
        elif kind == 4:
            z[r] = z[r, 0] + gaps[r] * rng.integers(-2, 3, n)
        elif kind == 5:  # two exact ties and a near one
            z[r] = z[r, 0] + gaps[r] * np.array([0, 0, 1, 0])[:n]
        z[r] = rng.permutation(z[r])
    return z


def risky_rows(z):
    """The rows the kernel derivative routes to the tables (oracle rule)."""
    lk = oracles.lagrange_terms(z)
    gap = np.minimum(np.maximum(lk.min_gap, 1e-300), 1e6)
    return lk.unsafe, lk.unsafe | (lk.amp * (gap + 2.0) >= _DS_AMP_MAX * gap)


def single_ties(z):
    """The rows of z (rows, n) with exactly one zero gap and every other gap
    past ``_SERIES_SPAN``: the backward's closed confluent form takes them
    when they are risky (oracle rule)."""
    i, j = np.triu_indices(z.shape[1], 1)
    g = np.abs(z[:, i] - z[:, j])
    return ((g == 0).sum(axis=1) == 1) & ((g > _SERIES_SPAN) | (g == 0)).all(axis=1)


def high_precision_errors(z, s, coefs):
    """Largest error of the kernels s (rows,) and of the slots coefs
    (rows, n) of phase rows z against the 60-digit divided differences."""
    kernel = slot = 0.0
    for row, k, c in zip(z, s, coefs):
        kernel = max(kernel, abs(k - mp_confluent_diff(row)))
        for p in range(len(row)):
            slot = max(slot, abs(c[p] - mp_confluent_diff(np.append(row, row[p]))))
    return kernel, slot


def kuhn_lattice_mesh(cells):
    """Axis-aligned cube lattice in [0.1, 0.9]^3, each cube cut into its 6
    Kuhn tetrahedra, with seeded densities."""
    axis = np.linspace(0.1, 0.9, cells + 1)
    vertices = np.array(list(itertools.product(axis, repeat=3)))
    tets = []
    for corner in itertools.product(range(cells), repeat=3):
        for order in itertools.permutations(range(3)):
            c = list(corner)
            tet = [np.ravel_multi_index(c, (cells + 1,) * 3)]
            for step in order:
                c[step] += 1
                tet.append(np.ravel_multi_index(c, (cells + 1,) * 3))
            tets.append(tet)
    densities = np.random.default_rng(3).uniform(0.5, 1.5, len(tets))
    return sr.SimplexMesh(3, 3, vertices, np.array(tets), densities)


class TestSharedTable:
    """One sorted table per row serves the kernel and every derivative slot."""

    @pytest.mark.parametrize("n, kernel_only, with_slots", [(2, 3, 7), (3, 6, 16), (4, 10, 30)])
    def test_plan_entry_counts(self, n, kernel_only, with_slots):
        def entries(slots):
            return sum(len(cols) for cols, _, _ in _table_plan(n, slots))
        assert (entries(False), entries(True)) == (kernel_only, with_slots)

    def test_matches_reference_tables_bit_for_bit(self):
        """Every row the tables serve matches the reference tables bit for
        bit; the backward's single ties match the 60-digit reference."""
        rng = np.random.default_rng(20261018)
        tied = 0
        for batch in range(48):
            n = 1 + batch % 4
            z = confluent_rows(rng, n)
            ref = oracles.divided_diff_table(z)
            ref_slots = oracles.slot_tables(z)
            assert np.array_equal(_dd_table(z, False), ref)
            kernel, slots = _dd_table(z, True)
            assert np.array_equal(kernel, ref)
            assert np.array_equal(slots, ref_slots)
            unsafe, risky = risky_rows(z)
            tie = risky & single_ties(z)
            s, coefs = oracles.direct_kernel(z.T, True)
            assert np.array_equal(coefs.T[risky & ~tie], ref_slots[risky & ~tie])
            assert np.array_equal(s[unsafe & ~tie], ref[unsafe & ~tie])
            assert max(high_precision_errors(z[tie], s[tie], coefs.T[tie])) <= 1e-12
            tied += tie.sum()
            s = oracles.direct_kernel(z.T, False)  # the forward routing
            assert np.array_equal(s[unsafe], ref[unsafe])
            assert np.array_equal(s[~unsafe], oracles.lagrange_terms(z).s[~unsafe])
        assert tied > 1000

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_single_tie_census(self, n, monkeypatch):
        """Rows with one exact tie and the other gaps drawn down to just past
        ``_SERIES_SPAN``, phases up to +-100: the closed form is within
        1e-12 of the 60-digit reference and no worse than the table."""
        rng = np.random.default_rng(20261020 + n)
        rows = 200
        gaps = _SERIES_SPAN + 10.0 ** rng.uniform(-9, 0.3, (rows, n - 2))
        distinct = rng.uniform(-100, 100, (rows, 1)) + np.concatenate(
            [np.zeros((rows, 1)), np.cumsum(gaps, axis=1)], axis=1)
        z = rng.permuted(np.concatenate([distinct, distinct[:, :1]], axis=1), axis=1)
        assert single_ties(z).all()
        table = high_precision_errors(z, *_dd_table(z, True))
        monkeypatch.setattr(nuft, "_dd_table", None)  # every row takes the closed form
        s, coefs = oracles.direct_kernel(z.T, True)
        form = high_precision_errors(z, s, coefs.T)
        assert max(form) <= 1e-12
        assert form[0] <= table[0] and form[1] <= table[1]

    def test_tables_take_no_single_tie_of_the_backward(self, monkeypatch):
        """On a Kuhn lattice the forward sends its single ties to the table,
        the backward none of them, and the other confluent rows to both."""
        received = []

        def recording(z, slots):
            received.append((slots, z))
            return _dd_table(z, slots)

        mesh = kuhn_lattice_mesh(1)
        grid = sr.build_grid(3, 16)
        cot = sr.SpectralField(grid, np.random.default_rng(4).standard_normal((grid.n_modes, 1)))
        monkeypatch.setattr(nuft, "_dd_table", recording)
        sr.forward_mesh(mesh, grid, workers=1)
        sr.backward_mesh(mesh, grid, cot, workers=1)
        forward = np.concatenate([z for slots, z in received if not slots])
        backward = np.concatenate([z for slots, z in received if slots])
        assert single_ties(forward).sum() > 1000
        assert not single_ties(backward).any()
        assert len(backward) > 100

    def test_vertex_table_matches_direct_exps_bit_for_bit(self):
        """Exps gathered from a table of per-vertex phases give the same bits
        as the exps of the gathered phases, in the kernel and every slot."""
        rng = np.random.default_rng(20261019)
        for batch in range(24):
            n = 1 + batch % 4
            z = confluent_rows(rng, n) if batch % 2 else rng.uniform(-100, 100, (200, n))
            # one vertex row per distinct phase, one mode: exact ties share a row
            verts, inv = np.unique(z.T, return_inverse=True)
            sv, inv = verts[:, None], inv.reshape(z.T.shape)
            sig = verts[inv]
            got = _kernel(sv, inv, False)[:, 0].copy()  # before the buffers are reused
            assert np.array_equal(got, oracles.direct_kernel(sig, False))
            kept = [a[..., 0].copy() for a in _kernel(sv, inv, True)]
            for got, ref in zip(kept, oracles.direct_kernel(sig, True)):
                assert np.array_equal(got, ref)

    def test_lattice_rows_match_high_precision(self):
        # phases of Kuhn-lattice tetrahedra at integer modes: exact pairs,
        # triples and near-pairs, as axis-aligned geometry produces them
        x = np.array([[0.1, 0.1, 0.1], [0.5, 0.1, 0.1], [0.5, 0.5, 0.1], [0.5, 0.5, 0.5]])
        modes = [(0, 0, 0), (1, 0, 0), (0, 3, 0), (2, -1, 0), (0, 0, 5), (4, 4, -7), (1, 1, 1),
                 (1, 0, 1), (0, 2, 1)]
        z = np.array([x @ (TWO_PI * np.array(m, float)) for m in modes])
        z = np.vstack([z, z + [0.0, 0.0, 1e-9, 0.0]])
        s, coefs = oracles.direct_kernel(z.T, True)
        assert single_ties(z).sum() == 4
        for kernel, slots in (_dd_table(z, True), (s, coefs.T)):
            assert max(high_precision_errors(z, kernel, slots)) < 1e-12


class TestForwardElement:
    def test_dc_is_density_times_content(self):
        val = oracles.forward_element(UNIT_TRIANGLE, 1.0, [0.0, 0.0])
        assert val.real == pytest.approx(0.5, rel=1e-12)
        assert val.imag == 0.0

    def test_point_is_plane_wave(self):
        x = np.array([0.3, 0.4])
        k = np.array([TWO_PI, -2 * TWO_PI])
        val = oracles.forward_element(x[None, :], 1.0, k)
        assert val == pytest.approx(np.exp(-1j * (k @ x)), abs=1e-12)

    def test_matches_monte_carlo_quadrature(self):
        val = oracles.forward_element(MC_TRIANGLE, MC_DENSITY, TWO_PI * np.array([1.0, 0.0]))
        assert abs(val - MC_VALUE) <= 1e-3 * abs(MC_VALUE)

    def test_segment_matches_dense_quadrature(self):
        seg = np.array([[0.15, 0.45], [0.8, 0.3]])
        k = TWO_PI * np.array([2.0, -1.0])
        t = np.linspace(0.0, 1.0, 200001)[:, None]
        xs = (1 - t) * seg[0] + t * seg[1]
        length = np.linalg.norm(seg[1] - seg[0])
        ref = length * np.trapezoid(np.exp(-1j * (xs @ k)), t[:, 0], axis=0)
        assert oracles.forward_element(seg, 1.0, k) == pytest.approx(ref, rel=1e-8)


class TestForwardMesh:
    def test_empty_mesh(self):
        mesh = sr.SimplexMesh(2, 2, np.zeros((0, 2)), np.zeros((0, 3), int),
                              np.zeros((0, 1)))
        field = sr.forward_mesh(mesh, sr.build_grid(2, 4))
        assert np.all(field.coeffs == 0)

    def test_linearity_over_elements(self):
        tri_a = sr.SimplexMesh(2, 2, [[0.1, 0.1], [0.4, 0.1], [0.1, 0.4]], [[0, 1, 2]], [1.3])
        tri_b = sr.SimplexMesh(2, 2, [[0.6, 0.6], [0.9, 0.6], [0.6, 0.9]], [[0, 1, 2]], [0.7])
        both = sr.SimplexMesh(2, 2, np.vstack([tri_a.vertices, tri_b.vertices]),
                              [[0, 1, 2], [3, 4, 5]], [1.3, 0.7])
        grid = sr.build_grid(2, 8)
        fa = sr.forward_mesh(tri_a, grid).coeffs
        fb = sr.forward_mesh(tri_b, grid).coeffs
        fab = sr.forward_mesh(both, grid).coeffs
        assert np.allclose(fab, fa + fb, atol=1e-12)

    def test_dc_equals_total_mass(self, rng):
        for j, d in [(0, 2), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3)]:
            mesh = sr.random_mesh(j, d, 10, rng, channels=2)
            field = sr.forward_mesh(mesh, sr.build_grid(d, 4))
            mass = oracles.total_mass(mesh)
            dc = field.coeffs[0]  # row 0 of every grid is the zero mode
            assert np.allclose(dc.real, mass, rtol=1e-12)
            assert np.all(np.abs(dc.imag) <= 1e-9 * (1 + np.abs(mass)))

    def test_strict_propagates_validation(self):
        mesh = sr.SimplexMesh(2, 2, UNIT_TRIANGLE, [[0, 1, 5]], [1.0])
        config = sr.RasterizeConfig(4, strict=True)
        with pytest.raises(sr.MeshValidationError, match="out of range"):
            sr.rasterize(mesh, config)
        with pytest.raises(sr.MeshValidationError, match="out of range"):
            sr.rasterize_backward(mesh, config, np.ones((4, 4)))

    def test_translation_phase_property(self, rng):
        for j, d in [(0, 2), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3)]:
            mesh = sr.random_mesh(j, d, 8, rng)
            grid = sr.build_grid(d, 4)
            t = rng.uniform(-0.05, 0.05, d)
            f0 = sr.forward_mesh(mesh, grid).coeffs[:, 0]
            f1 = sr.forward_mesh(mesh.with_vertices(mesh.vertices + t), grid).coeffs[:, 0]
            phase = np.exp(-1j * (grid.wavevectors @ t))
            scale = np.abs(f0).max()
            assert np.abs(f1 - phase * f0).max() <= 1e-10 * scale
            assert np.abs(np.abs(f1) - np.abs(f0)).max() <= 1e-10 * scale

    def test_hermitian_symmetry_via_negated_wavevector(self, rng):
        mesh = sr.random_mesh(2, 2, 8, rng)
        grid = sr.build_grid(2, 8)
        for m in grid.modes[:: max(1, grid.n_modes // 12)]:
            k = TWO_PI * m.astype(float)
            total_pos = sum(
                oracles.forward_element(mesh.element_points()[e], mesh.densities[e, 0], k)
                for e in range(mesh.n_elements))
            total_neg = sum(
                oracles.forward_element(mesh.element_points()[e], mesh.densities[e, 0], -k)
                for e in range(mesh.n_elements))
            assert total_neg == pytest.approx(np.conj(total_pos), abs=1e-12)

    def test_forward_bit_identical_across_workers(self, rng, monkeypatch):
        """Each mode tile writes only its own rows, so the worker count
        cannot change a single bit, one-element meshes included.  A single
        tetrahedron at R=64 has five tiles at the default budget; the other
        cases use a small budget, so that they have many tiles too.  Four
        CPUs are reported, so that ``workers=3`` starts three threads."""
        monkeypatch.setattr(sr.nuft.os, "cpu_count", lambda: 4)
        tet = sr.SimplexMesh(3, 3, [[0.1, 0.2, 0.1], [0.8, 0.3, 0.2], [0.3, 0.9, 0.3],
                                    [0.4, 0.4, 0.8]], [[0, 1, 2, 3]], [1.0])
        cases = [(sr.forward_mesh, tet, sr.build_grid(3, 64), None)]
        grid2, grid3 = sr.build_grid(2, 32), sr.build_grid(3, 8)
        cases += [(sr.forward_mesh, sr.random_mesh(2, 2, 17, rng), grid2, 512),
                  (sr.forward_mesh, sr.random_mesh(3, 3, 9, rng), grid3, 512),
                  (sr.forward_mesh, sr.SimplexMesh(2, 2, UNIT_TRIANGLE, [[0, 1, 2]], [1.0]),
                   grid2, 512),
                  (sr.forward_auxnode,
                   sr.polygon_boundary_mesh(sr.random_convex_polygon(17, rng)), grid2, 512)]
        for forward, mesh, grid, budget in cases:
            if budget:
                monkeypatch.setattr(sr.nuft, "_TILE_PAIRS", budget)
            assert len(sr.nuft._tiles(mesh.n_elements, grid.n_modes)[1]) > 2
            f1 = forward(mesh, grid, workers=1).coeffs
            for workers in (2, 3):
                assert np.array_equal(forward(mesh, grid, workers=workers).coeffs, f1)

    def test_split_element_blocks_match(self, rng, monkeypatch):
        """A budget below the element count splits every mode tile into
        element blocks; the result is the same up to round-off, and still
        bit-identical across worker counts.  Both backward passes sweep
        the same blocks and match their unsplit result too."""
        grid = sr.build_grid(2, 8)
        mesh = sr.random_mesh(2, 2, 13, rng)
        mesh.densities = rng.random((mesh.n_elements, 2))
        boundary = sr.polygon_boundary_mesh(sr.random_convex_polygon(13, rng))
        cot = oracles.random_spectral_cotangent(grid, rng, channels=2)
        backwards = [(sr.backward_mesh, mesh, cot.coeffs),
                     (sr.backward_auxnode, boundary, cot.coeffs[:, :1])]

        def gradients():
            return [backward(m, grid, sr.SpectralField(grid, c), workers=1)
                    for backward, m, c in backwards]

        whole, whole_grads = sr.forward_mesh(mesh, grid).coeffs, gradients()
        monkeypatch.setattr(sr.nuft, "_TILE_PAIRS", 5)
        e_bounds, _ = sr.nuft._tiles(mesh.n_elements, grid.n_modes)
        assert len(e_bounds) > 2
        split = sr.forward_mesh(mesh, grid, workers=1).coeffs
        assert np.abs(split - whole).max() <= 1e-13 * np.abs(whole).max()
        assert np.array_equal(sr.forward_mesh(mesh, grid, workers=2).coeffs, split)
        # split blocks hold one mode per tile, whose phase product can round
        # one ulp apart from a wider tile's; an unrouted Lagrange derivative
        # amplifies that by at most _DS_AMP_MAX (seen: 1.1e-12 relative)
        for ref, got in zip(whole_grads, gradients()):
            for name in ("d_vertices", "d_densities"):
                a, b = getattr(ref, name), getattr(got, name)
                assert np.abs(b - a).max() <= _DS_AMP_MAX * 2.0 ** -52 * np.abs(a).max()

    def test_complexity_contract_phase_count(self, rng):
        # forward evaluates (j+1) * n_e * n_modes phases: shape check on sigma
        mesh = sr.random_mesh(2, 2, 6, rng)
        grid = sr.build_grid(2, 8)
        pts = mesh.element_points()
        sig = np.einsum("end,md->emn", pts, grid.wavevectors)
        assert sig.shape == (mesh.n_elements, grid.n_modes, mesh.degree + 1)


class TestVertexTables:
    """The sweep takes each tile's exps once per used vertex of an element
    block; which vertex rows the elements share must not change a bit."""

    @pytest.mark.parametrize("budget", [None, 64], ids=["whole blocks", "split blocks"])
    def test_shared_vertices_match_own_copies(self, rng, monkeypatch, budget):
        if budget:
            monkeypatch.setattr(sr.nuft, "_TILE_PAIRS", budget)
        shared = sr.random_mesh(2, 2, 30, rng, channels=2, n_elements=90)
        own = sr.SimplexMesh(2, 2, shared.element_points().reshape(-1, 2),
                             np.arange(3 * shared.n_elements).reshape(-1, 3),
                             shared.densities)
        grid = sr.build_grid(2, 32)
        assert len(sr.nuft._tiles(shared.n_elements, grid.n_modes)[1]) > 2
        cot = oracles.random_spectral_cotangent(grid, rng, channels=2)
        for workers in (1, 2):
            assert np.array_equal(sr.forward_mesh(shared, grid, workers=workers).coeffs,
                                  sr.forward_mesh(own, grid, workers=workers).coeffs)
            g_shared = sr.backward_mesh(shared, grid, cot, workers=workers)
            g_own = sr.backward_mesh(own, grid, cot, workers=workers)
            assert np.array_equal(g_shared.d_densities, g_own.d_densities)
            # the copies' gradients add up to the shared vertex's, up to summation order
            summed = np.zeros_like(g_shared.d_vertices)
            np.add.at(summed, shared.elements.reshape(-1), g_own.d_vertices)
            scale = np.abs(g_shared.d_vertices).max()
            assert np.abs(summed - g_shared.d_vertices).max() <= 1e-13 * scale

    def test_unused_vertices_cost_no_memory(self, rng):
        """One triangle among 20 000 unused vertices: a whole-mesh table
        would take ~250 MiB at R=32, the used-vertex table 3 rows.  The
        result equals that of the compacted 3-vertex mesh bit for bit."""
        tri = np.array([[0.2, 0.3], [0.7, 0.25], [0.45, 0.8]])
        used = [12345, 17, 5000]
        vertices = rng.uniform(0.0, 1.0, (20_000, 2))
        vertices[used] = tri
        mesh = sr.SimplexMesh(2, 2, vertices, [used], [[1.3]])
        compact = sr.SimplexMesh(2, 2, tri, [[0, 1, 2]], [[1.3]])
        grid = sr.build_grid(2, 32)
        assert grid.n_modes == 544
        cot = oracles.random_spectral_cotangent(grid, rng)
        peaks = []
        tracemalloc.start()
        try:
            for call in (lambda: sr.forward_mesh(mesh, grid, workers=1),
                         lambda: sr.backward_mesh(mesh, grid, cot, workers=1)):
                tracemalloc.reset_peak()
                out = call()
                peaks.append(tracemalloc.get_traced_memory()[1])
                del out
        finally:
            tracemalloc.stop()
        assert max(peaks) < 8 * 2 ** 20, peaks
        assert np.array_equal(sr.forward_mesh(mesh, grid, workers=1).coeffs,
                              sr.forward_mesh(compact, grid, workers=1).coeffs)
        g = sr.backward_mesh(mesh, grid, cot, workers=1)
        g_compact = sr.backward_mesh(compact, grid, cot, workers=1)
        assert np.array_equal(g.d_vertices[used], g_compact.d_vertices)
        assert np.array_equal(g.d_densities, g_compact.d_densities)
        assert not np.delete(g.d_vertices, used, axis=0).any()


SQUARE = np.array([[0.2, 0.2], [0.8, 0.2], [0.8, 0.8], [0.2, 0.8]])


def box_solid_and_surface(center=(0.5, 0.5, 0.5), half=(0.22, 0.13, 0.08)):
    """A box as a 5-tet solid mesh and as its outward-oriented surface."""
    c = np.asarray(center)
    verts = c + np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1)
                          for sz in (-1, 1)], float) * np.asarray(half)

    def idx(x, y, z):
        return x * 4 + y * 2 + z

    tets = [[idx(0, 0, 0), idx(1, 0, 0), idx(0, 1, 0), idx(0, 0, 1)],
            [idx(1, 1, 0), idx(1, 0, 0), idx(0, 1, 0), idx(1, 1, 1)],
            [idx(1, 0, 1), idx(1, 0, 0), idx(0, 0, 1), idx(1, 1, 1)],
            [idx(0, 1, 1), idx(0, 1, 0), idx(0, 0, 1), idx(1, 1, 1)],
            [idx(1, 0, 0), idx(0, 1, 0), idx(0, 0, 1), idx(1, 1, 1)]]
    solid = sr.SimplexMesh(3, 3, verts, tets, np.ones(5))

    faces = []
    for axis in range(3):
        for side in (0, 1):
            a, b, cc, d = [i for i in range(8) if (i >> (2 - axis)) & 1 == side]
            for tri in ([a, b, d], [a, d, cc]):
                p = verts[tri]
                if np.cross(p[1] - p[0], p[2] - p[0]) @ (p.mean(0) - c) < 0:
                    tri = [tri[0], tri[2], tri[1]]
                faces.append(tri)
    surface = sr.SimplexMesh(3, 2, verts, faces, np.ones(12))
    return solid, surface


class TestAuxNode:
    def test_unit_square_dc_is_area(self):
        big = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        field = sr.forward_auxnode(sr.polygon_boundary_mesh(big), sr.build_grid(2, 4))
        assert field.coeffs[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_triangulated_square(self):
        grid = sr.build_grid(2, 8)
        fb = sr.forward_auxnode(sr.polygon_boundary_mesh(SQUARE), grid).coeffs
        tris = sr.SimplexMesh(2, 2, SQUARE, [[0, 1, 2], [0, 2, 3]], [1.0, 1.0])
        ft = sr.forward_mesh(tris, grid).coeffs
        assert np.abs(fb - ft).max() <= 1e-9 * np.abs(ft).max()

    def test_clockwise_negates(self):
        grid = sr.build_grid(2, 8)
        ccw = sr.forward_auxnode(sr.polygon_boundary_mesh(SQUARE), grid).coeffs
        cw = sr.forward_auxnode(sr.polygon_boundary_mesh(SQUARE[::-1]), grid).coeffs
        assert np.abs(ccw + cw).max() <= 1e-12 * max(1.0, np.abs(ccw).max())

    def test_convex_polygons_match_fan(self, rng):
        grid = sr.build_grid(2, 8)
        for _ in range(10):
            poly = sr.random_convex_polygon(int(rng.integers(4, 9)), rng)
            fb = sr.forward_auxnode(sr.polygon_boundary_mesh(poly), grid).coeffs
            ft = sr.forward_mesh(oracles.polygon_fan_mesh(poly), grid).coeffs
            assert np.abs(fb - ft).max() <= 1e-9 * np.abs(ft).max()

    def test_open_boundary_rejected_strict(self):
        open_mesh = sr.SimplexMesh(2, 1, SQUARE, [[0, 1], [1, 2], [2, 3]],
                                   np.ones(3))
        config = sr.RasterizeConfig(4, mode="auxnode", strict=True)
        with pytest.raises(sr.MeshValidationError, match="not watertight"):
            sr.rasterize(open_mesh, config)
        with pytest.raises(sr.MeshValidationError, match="not watertight"):
            sr.rasterize_backward(open_mesh, config, np.ones((4, 4)))
        # lax mode computes anyway
        sr.forward_auxnode(open_mesh, sr.build_grid(2, 4))

    def test_degree_dimension_contract(self):
        tris = sr.SimplexMesh(2, 2, SQUARE, [[0, 1, 2]], [1.0])
        with pytest.raises(ValueError):
            sr.forward_auxnode(tris, sr.build_grid(2, 4))

    def test_closure_defect(self):
        closed = sr.polygon_boundary_mesh(SQUARE)
        assert sr.boundary_closure_defect(closed) <= 1e-15
        open_mesh = sr.SimplexMesh(2, 1, SQUARE, [[0, 1], [1, 2], [2, 3]], np.ones(3))
        assert sr.boundary_closure_defect(open_mesh) > 0.1

    def test_3d_surface_matches_solid(self):
        solid, surface = box_solid_and_surface()
        assert sr.boundary_closure_defect(surface) <= 1e-15
        grid = sr.build_grid(3, 8)
        fs = sr.forward_auxnode(surface, grid).coeffs
        ft = sr.forward_mesh(solid, grid).coeffs
        assert fs[0, 0].real == pytest.approx(0.44 * 0.26 * 0.16, rel=1e-12)
        assert np.abs(fs - ft).max() <= 1e-12 * np.abs(ft).max()
        # strict mode accepts the closed surface in both passes
        config = sr.RasterizeConfig(8, mode="auxnode", strict=True)
        rs = sr.rasterize(surface, config).values
        rt = sr.rasterize(solid, sr.RasterizeConfig(8, strict=True)).values
        assert np.abs(rs - rt).max() <= 1e-12 * np.abs(rt).max()
        assert np.all(np.isfinite(sr.rasterize_backward(surface, config, rt).d_vertices))


def test_imaginary_power_cycle():
    assert [oracles.imaginary_power(j) for j in range(5)] == [1, 1j, -1, -1j, 1]


def test_resolve_workers_env(monkeypatch):
    """The argument wins over DDSL_WORKERS; both are read by the pure helper,
    so no thread is started."""
    monkeypatch.setenv("DDSL_WORKERS", "3")
    monkeypatch.setattr(sr.nuft.os, "cpu_count", lambda: 4)
    assert sr.nuft._thread_count(None, 10) == 3
    assert sr.nuft._thread_count(2, 10) == 2
    monkeypatch.setenv("DDSL_WORKERS", "0")
    with pytest.raises(ValueError):
        sr.nuft._thread_count(None, 10)


@pytest.mark.parametrize("workers,env,source", [
    (2.7, None, "workers"), (True, None, "workers"), (0, None, "workers"), ("2", None, "workers"),
    (None, "2.5", "DDSL_WORKERS"), (None, "0", "DDSL_WORKERS"), (None, "-1", "DDSL_WORKERS"),
    (None, "", "DDSL_WORKERS")])
def test_worker_count_must_be_integer(monkeypatch, workers, env, source):
    """A count that is not an integer >= 1 is an error naming its source, not
    truncated; checked on the pure helper and on a transform."""
    if env is not None:
        monkeypatch.setenv("DDSL_WORKERS", env)
    with pytest.raises(ValueError, match=f"{source} must be an integer >= 1, got"):
        sr.nuft._thread_count(workers, 10)
    mesh = sr.SimplexMesh(2, 2, SQUARE, [[0, 1, 2]], [1.0])
    with pytest.raises(ValueError, match=source):
        sr.forward_mesh(mesh, sr.build_grid(2, 4), workers=workers)


@pytest.mark.parametrize("n_elements,n_modes,n_tiles", [
    (1, 544, 1), (1, 17408, 1), (1, 135168, 5), (1, 3, 1), (7, 40, 1), (400, 2112, 27),
    (48, 17408, 26), (32767, 5, 5), (40000, 5, 5), (100003, 7, 7), (0, 40, 1)])
def test_tile_plan(n_elements, n_modes, n_tiles):
    """Pure planner: tiles fit the pair budget, the mode spans cover every
    mode exactly once and the element blocks every element.  A one-element
    mesh gets several mode tiles once it has more modes than the budget
    (one tetrahedron at R=64).  Starts no thread."""
    e_bounds, m_bounds = sr.nuft._tiles(n_elements, n_modes)
    assert len(m_bounds) - 1 == n_tiles
    assert e_bounds[0] == 0 and e_bounds[-1] == n_elements
    assert m_bounds[0] == 0 and m_bounds[-1] == n_modes
    assert np.all(np.diff(m_bounds) >= 1)
    assert np.all(np.diff(e_bounds) >= (1 if n_elements else 0))
    assert np.diff(e_bounds).max() * np.diff(m_bounds).max() <= sr.nuft._TILE_PAIRS
    covered = np.zeros(n_modes, dtype=int)
    for lo, hi in zip(m_bounds[:-1], m_bounds[1:]):
        covered[lo:hi] += 1
    assert np.all(covered == 1)


def test_each_lane_in_one_thread_in_tile_order(rng, monkeypatch):
    """Mode tile t goes to lane t mod ``_LANES`` at every worker count, and
    each lane's tiles reach ``add`` in one thread and in tile order,
    which is what keeps per-lane sums independent of the worker count."""
    monkeypatch.setattr(sr.nuft, "_TILE_PAIRS", 256)
    monkeypatch.setattr(sr.nuft.os, "cpu_count", lambda: 8)
    mesh, grid = sr.random_mesh(2, 2, 11, rng), sr.build_grid(2, 32)
    starts = list(sr.nuft._tiles(mesh.n_elements, grid.n_modes)[1][:-1])
    assert len(starts) > 2 * sr.nuft._LANES
    for workers in (1, 2, 3, 5, 8):
        seen = []

        def add(lane, elems, modes, s):
            seen.append((threading.get_ident(), lane, modes.start))

        sr.nuft._sweep(mesh, grid.wavevectors, False, False, workers, add)
        assert sorted(start for *_, start in seen) == starts
        for lane in range(sr.nuft._LANES):
            mine = [(ident, start) for ident, tile_lane, start in seen if tile_lane == lane]
            assert [start for _, start in mine] == starts[lane::sr.nuft._LANES]
            assert len({ident for ident, _ in mine}) == 1


def test_thread_count_clamped_to_cpus(monkeypatch):
    """A huge DDSL_WORKERS starts no more threads than os.cpu_count(); checked
    on the pure helper, so no thread is started."""
    monkeypatch.setenv("DDSL_WORKERS", "100000")
    monkeypatch.setattr(sr.nuft.os, "cpu_count", lambda: 4)
    assert sr.nuft._thread_count(None, 10**6) == 4
    assert sr.nuft._thread_count(None, 3) == 3
    monkeypatch.setattr(sr.nuft.os, "cpu_count", lambda: None)
    assert sr.nuft._thread_count(None, 10**6) == 1


def _pass_bytes(mesh, config, cot):
    """The bytes of one raster and one gradient of ``mesh``."""
    raster = sr.rasterize(mesh, config)
    grad = sr.rasterize_backward(mesh, config, cot)
    return raster.values.tobytes() + grad.d_vertices.tobytes() + grad.d_densities.tobytes()


def _forked_passes(conn, mesh, config, cot):
    conn.send_bytes(_pass_bytes(mesh, config, cot))
    conn.close()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork start method on this platform")
def test_forked_child_starts_its_own_threads(monkeypatch):
    """A child forked after a threaded call has none of the parent's pool
    threads; its own 2-worker forward and backward must finish and give the
    parent's bytes, not wait forever on the parent's executor."""
    monkeypatch.setenv("DDSL_WORKERS", "2")
    monkeypatch.setattr(sr.nuft.os, "cpu_count", lambda: 2)
    rng = np.random.default_rng(7)
    mesh = sr.random_mesh(2, 2, 30, rng)
    config = sr.RasterizeConfig(resolution=32)
    cot = rng.standard_normal((32, 32, 1))
    monkeypatch.setattr(sr.nuft, "_TILE_PAIRS", 1024)
    assert len(sr.nuft._tiles(mesh.n_elements, sr.build_grid(2, 32).n_modes)[1]) > 2
    expected = _pass_bytes(mesh, config, cot)
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_forked_passes, args=(send, mesh, config, cot))
    with warnings.catch_warnings():  # forking a threaded process is the point here
        warnings.simplefilter("ignore", DeprecationWarning)
        child.start()
    send.close()
    try:
        assert receive.poll(60), "the forked child's threaded passes did not finish"
        got = receive.recv_bytes()
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join()
        receive.close()
    assert child.exitcode == 0
    assert got == expected


def test_interleaved_calls_bit_identical(monkeypatch):
    """Each thread reuses its tile buffers across calls, so calls of other
    dimensions, degrees, sizes, transforms and passes, run in between at 1,
    2 and 3 workers, must not change a bit of any result against the same
    call made on fresh buffers."""
    monkeypatch.setattr(sr.nuft.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(sr.nuft, "_TILE_PAIRS", 512)
    rng = np.random.default_rng(11)
    grid2, grid3 = sr.build_grid(2, 16), sr.build_grid(3, 8)
    boundary = sr.polygon_boundary_mesh(sr.random_convex_polygon(9, rng))
    cases = [(grid2, sr.random_mesh(2, 2, 12, rng), False),
             (grid2, sr.random_mesh(1, 2, 7, rng, channels=2), False),
             (grid2, sr.random_mesh(2, 2, 700, rng, n_elements=600), False),  # element blocks
             (grid3, sr.random_mesh(3, 3, 9, rng), False),
             (grid3, kuhn_lattice_mesh(1), False),  # single ties in the backward
             (grid3, sr.random_mesh(2, 3, 6, rng), False),
             (grid2, boundary, True)]

    def forward(auxnode, mesh, grid, workers):
        return (sr.forward_auxnode if auxnode else sr.forward_mesh)(mesh, grid, workers).coeffs

    def backward(auxnode, mesh, grid, cot, workers):
        g = (sr.backward_auxnode if auxnode else sr.backward_mesh)(mesh, grid, cot, workers)
        return np.concatenate([g.d_vertices.ravel(), g.d_densities.ravel()])

    calls = []
    for grid, mesh, auxnode in cases:
        cot = oracles.random_spectral_cotangent(grid, rng, channels=mesh.channels)
        calls += [functools.partial(forward, auxnode, mesh, grid),
                  functools.partial(backward, auxnode, mesh, grid, cot)]
    assert len(sr.nuft._tiles(600, grid2.n_modes)[0]) > 2
    reference = []
    for call in calls:
        monkeypatch.setattr(sr.nuft, "_workspace", threading.local())  # fresh buffers
        reference.append(call(1))
    monkeypatch.setattr(sr.nuft, "_workspace", threading.local())
    runs = [(i, w) for i in range(len(calls)) for w in (1, 2, 3)]
    for i, workers in (runs[j] for j in rng.permutation(len(runs))):
        assert np.array_equal(calls[i](workers), reference[i]), (i, workers)


def test_direct_kernel_results_are_not_reused(rng):
    """The direct oracle copies ``_kernel``'s reused coefficients out: neither
    a second direct call nor a sweep in the same thread changes what the
    first returned."""
    z = confluent_rows(rng, 4)
    s, coefs = oracles.direct_kernel(z.T, True)
    kept = s.copy(), coefs.copy()
    oracles.direct_kernel(confluent_rows(rng, 4).T, True)
    oracles.direct_kernel(rng.uniform(-50, 50, (3, 20, 30)), True)
    mesh, grid = sr.random_mesh(3, 3, 9, rng), sr.build_grid(3, 8)
    sr.backward_mesh(mesh, grid, oracles.random_spectral_cotangent(grid, rng), workers=1)
    assert np.array_equal(s, kept[0]) and np.array_equal(coefs, kept[1])


def test_concurrent_callers_share_the_pool(monkeypatch):
    """Two caller threads run 2-worker backward passes on different meshes
    at once, four threads' work on two CPUs' worth of pool: they must not
    deadlock, and their bytes must equal those of sequential calls."""
    monkeypatch.setenv("DDSL_WORKERS", "2")
    monkeypatch.setattr(sr.nuft.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(sr.nuft, "_TILE_PAIRS", 1024)
    rng = np.random.default_rng(13)
    config = sr.RasterizeConfig(resolution=16)
    jobs = [(sr.random_mesh(2, 2, 40, rng), rng.standard_normal((16, 16, 1))),
            (sr.random_mesh(1, 2, 25, rng, channels=2), rng.standard_normal((16, 16, 2)))]

    def run(mesh, cot):
        g = sr.rasterize_backward(mesh, config, cot)
        return g.d_vertices.tobytes() + g.d_densities.tobytes()

    expected = [run(*job) for job in jobs]
    results = [[] for _ in jobs]

    def caller(i):
        for _ in range(4):
            results[i].append(run(*jobs[i]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(i,)) for i in range(len(jobs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads), "concurrent callers deadlocked"
    assert results == [[b] * 4 for b in expected]
