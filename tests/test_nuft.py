import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import simplexrast as sr
from simplexrast.nuft import _divided_diff_series
import oracles
from conftest import mp_divided_diff

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
        assert sr.eval_S([np.pi]) == pytest.approx(-1.0, abs=1e-12)

    def test_two_phases(self):
        assert sr.eval_S([0.0, np.pi]) == pytest.approx(-2.0 / np.pi, abs=1e-12)

    def test_triple_zero_confluent(self):
        assert sr.eval_S([0.0, 0.0, 0.0]) == pytest.approx(-0.5, abs=1e-15)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            sr.eval_S([0.0, np.inf])

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.floats(-40, 40), min_size=2, max_size=4))
    def test_matches_high_precision_reference(self, sigmas):
        gaps = [abs(a - b) for i, a in enumerate(sigmas) for b in sigmas[i + 1:]]
        assume(min(gaps) > 1e-12)
        ref = mp_divided_diff(sigmas)
        assert sr.eval_S(sigmas) == pytest.approx(ref, abs=1e-10 + 1e-10 * abs(ref))

    def test_confluent_limit_continuity(self):
        # gap swept from 1e-2 to 0: |S(gap) - S(0)| decays monotonically
        # below 1e-4 with no spike at any branch switch
        for base in ([0.0, 1.3], [0.0, 0.9, 2.2], [0.0, 0.4, 1.1, 2.7]):
            base = np.array(base)
            s0 = sr.eval_S(base)
            gaps = np.logspace(-2, -9, 36)
            dist = [abs(sr.eval_S(base + g * np.arange(len(base))) - s0) for g in gaps]
            below = [d for g, d in zip(gaps, dist) if g <= 1e-4]
            assert all(x >= y - 1e-13 for x, y in zip(below, below[1:]))
            assert dist[-1] < 1e-8

    def test_series_path_matches_reference_at_tiny_gaps(self):
        for g in (1e-5, 1e-6, 1e-7, 1e-8):
            sig = np.array([0.3, 0.3 + g, 1.1, 1.1 + 2 * g])
            ref = mp_divided_diff(sig)
            mine = complex(_divided_diff_series(sig[None])[0])
            assert abs(mine - ref) < 1e-12

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.floats(-30, 30), min_size=1, max_size=4),
           st.integers(0, 10_000))
    def test_symmetric_under_phase_permutation(self, sigmas, seed):
        perm = np.random.default_rng(seed).permutation(len(sigmas))
        a = sr.eval_S(sigmas)
        b = sr.eval_S(np.asarray(sigmas)[perm])
        assert b == pytest.approx(a, abs=1e-11 + 1e-11 * abs(a))


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
            mass = sr.total_mass(mesh)
            assert np.allclose(field.dc.real, mass, rtol=1e-12)
            assert np.all(np.abs(field.dc.imag) <= 1e-9 * (1 + np.abs(mass)))

    def test_strict_propagates_validation(self):
        mesh = sr.SimplexMesh(2, 2, UNIT_TRIANGLE, [[0, 1, 5]], [1.0])
        with pytest.raises(sr.MeshValidationError):
            sr.forward_mesh(mesh, sr.build_grid(2, 4), strict=True)

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

    def test_element_parallel_chunks_match(self, rng):
        grid = sr.build_grid(2, 8)
        cases = [(sr.forward_mesh, sr.random_mesh(2, 2, 17, rng)),
                 (sr.forward_auxnode,
                  sr.polygon_boundary_mesh(sr.random_convex_polygon(17, rng)))]
        for forward, mesh in cases:
            f1 = forward(mesh, grid, workers=1).coeffs
            f4 = forward(mesh, grid, workers=4).coeffs
            assert np.abs(f4 - f1).max() <= 1e-12 * max(1.0, np.abs(f1).max())

    def test_complexity_contract_phase_count(self, rng):
        # forward evaluates (j+1) * n_e * n_modes phases: shape check on sigma
        mesh = sr.random_mesh(2, 2, 6, rng)
        grid = sr.build_grid(2, 8)
        pts = mesh.element_points()
        sig = np.einsum("end,md->emn", pts, grid.wavevectors)
        assert sig.shape == (mesh.n_elements, grid.n_modes, mesh.degree + 1)


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
        assert field.dc[0] == pytest.approx(1.0, abs=1e-12)

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
            ft = sr.forward_mesh(sr.polygon_fan_mesh(poly), grid).coeffs
            assert np.abs(fb - ft).max() <= 1e-9 * np.abs(ft).max()

    def test_open_boundary_rejected_strict(self):
        open_mesh = sr.SimplexMesh(2, 1, SQUARE, [[0, 1], [1, 2], [2, 3]],
                                   np.ones(3))
        with pytest.raises(sr.MeshValidationError):
            sr.forward_auxnode(open_mesh, sr.build_grid(2, 4), strict=True)
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
        fs = sr.forward_auxnode(surface, grid, strict=True).coeffs
        ft = sr.forward_mesh(solid, grid).coeffs
        assert fs[0, 0].real == pytest.approx(0.44 * 0.26 * 0.16, rel=1e-12)
        assert np.abs(fs - ft).max() <= 1e-12 * np.abs(ft).max()


def test_imaginary_power_cycle():
    assert [oracles.imaginary_power(j) for j in range(5)] == [1, 1j, -1, -1j, 1]


def test_resolve_workers_env(monkeypatch):
    monkeypatch.setenv("DDSL_WORKERS", "3")
    assert sr.nuft.resolve_workers(None) == 3
    assert sr.nuft.resolve_workers(2) == 2
    monkeypatch.setenv("DDSL_WORKERS", "0")
    with pytest.raises(ValueError):
        sr.nuft.resolve_workers(None)
