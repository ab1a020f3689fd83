import numpy as np
import pytest

import simplexrast as sr
from simplexrast.meshcore import distortion_factor
import oracles

TWO_PI = 2.0 * np.pi
UNIT_TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def fd_vector(fn, pts, p, h=1e-6):
    d = pts.shape[1]
    out = np.zeros(d, dtype=np.result_type(fn(pts), float))
    for ax in range(d):
        plus = pts.copy()
        plus[p, ax] += h
        minus = pts.copy()
        minus[p, ax] -= h
        out[ax] = (fn(plus) - fn(minus)) / (2 * h)
    return out


class TestDGamma:
    def test_segment_endpoint_unit_tangent(self):
        assert np.allclose(oracles.dgamma_dx([[0.0, 0.0], [1.0, 0.0]], 1), [1.0, 0.0])

    def test_matches_finite_differences(self, rng):
        for _ in range(40):
            j = int(rng.integers(1, 4))
            d = int(rng.integers(max(2, j), 4))
            pts = rng.uniform(0, 1, (j + 1, d))
            if sr.content(pts) < 1e-3:
                continue
            for p in range(j + 1):
                fd = fd_vector(distortion_factor, pts, p)
                ana = oracles.dgamma_dx(pts, p)
                assert np.abs(ana - fd).max() <= 1e-6 * max(np.abs(fd).max(), 1.0)

    def test_translation_invariance_sums_to_zero(self, rng):
        for _ in range(20):
            j = int(rng.integers(1, 4))
            d = int(rng.integers(max(2, j), 4))
            pts = rng.uniform(0, 1, (j + 1, d))
            if sr.content(pts) < 1e-3:
                continue
            total = sum(oracles.dgamma_dx(pts, p) for p in range(j + 1))
            scale = max(np.abs(oracles.dgamma_dx(pts, 0)).max(), 1e-9)
            assert np.abs(total).max() <= 1e-9 * scale * (j + 1)

    def test_degenerate_policy(self):
        flat = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]])
        assert np.all(oracles.dgamma_dx(flat, 0) == 0.0)
        with pytest.raises(sr.DegenerateElementError):
            oracles.dgamma_dx(flat, 0, strict=True)


class TestDS:
    def test_single_phase_formula(self):
        k = np.array([TWO_PI, 0.0])
        sig = np.array([1.1])
        assert np.allclose(oracles.dS_dx(sig, 0, k), -1j * np.exp(-1j * 1.1) * k)

    def test_zero_wavevector(self):
        assert np.all(oracles.dS_dx(np.array([0.3, 0.9]), 0, np.zeros(2)) == 0.0)

    def test_matches_finite_differences(self, rng):
        for _ in range(40):
            j = int(rng.integers(0, 4))
            d = int(rng.integers(2, 4))
            pts = rng.uniform(0, 1, (j + 1, d))
            k = TWO_PI * rng.integers(-4, 5, d).astype(float)
            for p in range(j + 1):
                ana = oracles.dS_dx(pts @ k, p, k)
                fd = fd_vector(lambda q: sr.eval_S(q @ k), pts, p, h=1e-7)
                assert np.abs(ana - fd).max() <= 1e-6 * max(np.abs(fd).max(), 1e-3)

    def test_confluent_phases_route_stably(self):
        k = np.array([TWO_PI, 0.0])
        sig = np.array([0.5, 0.5, 1.7])
        pts = np.array([[0.5 / TWO_PI, 0.1], [0.5 / TWO_PI, 0.9], [1.7 / TWO_PI, 0.4]])
        ana = oracles.dS_dx(sig, 0, k)
        fd = fd_vector(lambda q: sr.eval_S(q @ k), pts, 0, h=1e-7)
        assert np.abs(ana - fd).max() <= 1e-6 * max(np.abs(fd).max(), 1e-3)


class TestDF:
    def test_point_plane_wave(self):
        x = np.array([[0.3, 0.6]])
        k = TWO_PI * np.array([2.0, 1.0])
        rho = 1.7
        ana = oracles.dF_dx(x, rho, k, 0)
        ref = -1j * rho * k * np.exp(-1j * (k @ x[0]))
        assert np.allclose(ana, ref, atol=1e-12)

    def test_matches_finite_differences(self, rng):
        for _ in range(60):
            j = int(rng.integers(1, 4))
            d = int(rng.integers(max(2, j), 4))
            pts = rng.uniform(0.1, 0.9, (j + 1, d))
            if sr.content(pts) < 1e-3:
                continue
            k = TWO_PI * rng.integers(-4, 5, d).astype(float)
            rho = float(rng.uniform(0.5, 1.5))
            for p in range(j + 1):
                ana = oracles.dF_dx(pts, rho, k, p)
                fd = fd_vector(lambda q: oracles.forward_element(q, rho, k), pts, p)
                assert np.abs(ana - fd).max() <= 1e-5 * max(np.abs(fd).max(), 1e-6)

    def test_split_equals_product_rule_form(self, rng):
        for _ in range(100):
            j = int(rng.integers(0, 4))
            d = int(rng.integers(max(2, j or 2), 4))
            pts = rng.uniform(0.1, 0.9, (j + 1, d))
            if j and sr.content(pts) < 1e-3:
                continue
            k = TWO_PI * rng.integers(-4, 5, d).astype(float)
            rho = float(rng.uniform(0.5, 1.5))
            for p in range(j + 1):
                a = oracles.dF_dx(pts, rho, k, p)
                b = oracles.dF_dx_product(pts, rho, k, p)
                assert np.abs(a - b).max() <= 1e-12 * max(np.abs(a).max(), 1e-12)

    def test_translation_nullspace_of_magnitude_loss(self, rng):
        # translating all vertices only rotates F's phase, so the net
        # translation gradient of |F|^2 vanishes in every direction
        for _ in range(20):
            j = int(rng.integers(1, 4))
            d = int(rng.integers(max(2, j), 4))
            pts = rng.uniform(0.1, 0.9, (j + 1, d))
            if sr.content(pts) < 1e-3:
                continue
            k = TWO_PI * rng.integers(-3, 4, d).astype(float)
            f = oracles.forward_element(pts, 1.0, k)
            total = sum(np.real(np.conj(f) * oracles.dF_dx(pts, 1.0, k, p))
                        for p in range(j + 1))
            assert np.abs(total).max() <= 1e-9 * max(abs(f) ** 2, 1e-12)


class TestDRho:
    def test_dc_is_content(self):
        assert oracles.dF_drho(UNIT_TRIANGLE, [0.0, 0.0]) == pytest.approx(0.5)

    def test_linearity_exact(self, rng):
        pts = rng.uniform(0, 1, (3, 2))
        k = TWO_PI * np.array([1.0, -2.0])
        f1 = oracles.forward_element(pts, 1.3, k)
        f2 = oracles.forward_element(pts, 2.6, k)
        assert f2 - 2 * f1 == 0

    def test_finite_difference_exact(self, rng):
        pts = rng.uniform(0, 1, (3, 2))
        k = TWO_PI * np.array([2.0, 1.0])
        h = 1e-3
        fd = (oracles.forward_element(pts, 1.0 + h, k)
              - oracles.forward_element(pts, 1.0 - h, k)) / (2 * h)
        assert oracles.dF_drho(pts, k) == pytest.approx(fd, abs=1e-12)


class TestBackwardMesh:
    def test_zero_cotangent_zero_gradient(self, rng):
        mesh = sr.random_mesh(2, 2, 8, rng)
        grid = sr.build_grid(2, 8)
        cot = sr.SpectralField(grid, np.zeros((grid.n_modes, 1), complex))
        grad = sr.backward_mesh(mesh, grid, cot)
        assert np.all(grad.d_vertices == 0.0)
        assert np.all(grad.d_densities == 0.0)

    def test_unused_vertex_zero_row(self, rng):
        vertices = np.vstack([UNIT_TRIANGLE, [0.9, 0.9]])
        mesh = sr.SimplexMesh(2, 2, vertices, [[0, 1, 2]], [1.0])
        grid = sr.build_grid(2, 8)
        grad = sr.backward_mesh(mesh, grid, sr.random_spectral_cotangent(grid, rng))
        assert np.all(grad.d_vertices[3] == 0.0)
        assert np.abs(grad.d_vertices[:3]).max() > 0

    def test_linearity_in_cotangent(self, rng):
        mesh = sr.random_mesh(2, 2, 8, rng)
        grid = sr.build_grid(2, 4)
        g1 = sr.random_spectral_cotangent(grid, rng)
        g2 = sr.random_spectral_cotangent(grid, rng)
        mix = sr.SpectralField(grid, 0.7 * g1.coeffs + 1.9 * g2.coeffs)
        lhs = sr.backward_mesh(mesh, grid, mix)
        a = sr.backward_mesh(mesh, grid, g1)
        b = sr.backward_mesh(mesh, grid, g2)
        rhs = a.scaled(0.7) + b.scaled(1.9)
        scale = max(np.abs(rhs.d_vertices).max(), 1.0)
        assert np.abs(lhs.d_vertices - rhs.d_vertices).max() <= 1e-12 * scale

    def test_gradcheck_against_numeric(self, rng):
        for j, d in [(0, 2), (1, 2), (2, 2), (0, 3), (1, 3), (2, 3), (3, 3)]:
            mesh = sr.random_mesh(j, d, 8, rng)
            grid = sr.build_grid(d, 4)
            cot = sr.random_spectral_cotangent(grid, rng)
            ana = sr.backward_mesh(mesh, grid, cot)
            num = sr.numeric_backward(mesh, grid, cot, h=1e-6)
            sv = max(np.abs(num.d_vertices).max(), 1e-10)
            sd = max(np.abs(num.d_densities).max(), 1e-10)
            assert np.abs(ana.d_vertices - num.d_vertices).max() / sv <= 1e-5
            assert np.abs(ana.d_densities - num.d_densities).max() / sd <= 1e-5

    def test_multichannel_gradcheck(self, rng):
        mesh = sr.random_mesh(2, 2, 8, rng, channels=3)
        grid = sr.build_grid(2, 4)
        cot = sr.random_spectral_cotangent(grid, rng, channels=3)
        ana = sr.backward_mesh(mesh, grid, cot)
        num = sr.numeric_backward(mesh, grid, cot, h=1e-6)
        sv = max(np.abs(num.d_vertices).max(), 1e-10)
        assert np.abs(ana.d_vertices - num.d_vertices).max() / sv <= 1e-5

    def test_translation_nullspace_for_self_cotangent(self, rng):
        mesh = sr.random_mesh(2, 2, 10, rng)
        grid = sr.build_grid(2, 8)
        field = sr.forward_mesh(mesh, grid)
        grad = sr.backward_mesh(mesh, grid, field)
        per_axis = grad.d_vertices.sum(axis=0)
        assert np.abs(per_axis).max() <= 1e-9 * np.linalg.norm(grad.d_vertices)

    def test_degenerate_element_policy(self, rng):
        vertices = np.array([[0.1, 0.1], [0.5, 0.1], [0.9, 0.1], [0.5, 0.8]])
        mesh = sr.SimplexMesh(2, 2, vertices, [[0, 1, 2], [0, 1, 3]], [1.0, 1.0])
        grid = sr.build_grid(2, 4)
        cot = sr.random_spectral_cotangent(grid, rng)
        with pytest.warns(RuntimeWarning, match="degenerate"):
            grad = sr.backward_mesh(mesh, grid, cot)
        assert np.all(grad.d_vertices[2] == 0.0)  # only in the flat element
        assert np.abs(grad.d_vertices[3]).max() > 0
        with pytest.raises(sr.DegenerateElementError):
            sr.backward_mesh(mesh, grid, cot, strict=True)

    def test_grid_and_channel_mismatch(self, rng):
        mesh = sr.random_mesh(2, 2, 6, rng)
        grid = sr.build_grid(2, 4)
        with pytest.raises(ValueError):
            sr.backward_mesh(mesh, grid, sr.random_spectral_cotangent(sr.build_grid(2, 8), rng))
        with pytest.raises(ValueError):
            sr.backward_mesh(mesh, grid, sr.random_spectral_cotangent(grid, rng, channels=2))

    def test_worker_chunks_match(self, rng):
        grid = sr.build_grid(2, 8)
        cases = [(sr.backward_mesh, sr.random_mesh(2, 2, 13, rng)),
                 (sr.backward_auxnode,
                  sr.polygon_boundary_mesh(sr.random_convex_polygon(13, rng)))]
        for backward, mesh in cases:
            cot = sr.random_spectral_cotangent(grid, rng)
            g1 = backward(mesh, grid, cot, workers=1)
            g4 = backward(mesh, grid, cot, workers=4)
            scale = max(np.abs(g1.d_vertices).max(), 1.0)
            assert np.abs(g4.d_vertices - g1.d_vertices).max() <= 1e-12 * scale
            # each worker writes its own span of density rows into one array
            scale = max(np.abs(g1.d_densities).max(), 1.0)
            assert np.abs(g4.d_densities - g1.d_densities).max() <= 1e-12 * scale

    def test_per_mode_coefficients_match_oracle(self):
        """The batched backward read out per mode against the product-rule
        oracle, on the 1000 seeded (element, wavevector, slot) pairs of
        acceptance criterion 2.  At R = 13 every mode in [-6, 6]^d is
        stored either as itself or as its conjugate partner."""
        rng = np.random.default_rng(2)
        worst = 0.0
        count = 0
        while count < 1000:
            j = int(rng.integers(0, 4))
            d = int(rng.integers(max(2, j or 2), 4))
            pts = rng.uniform(0.1, 0.9, (j + 1, d))
            if j and sr.content(pts) < 1e-3:
                continue
            k = TWO_PI * rng.integers(-6, 7, d).astype(float)
            rho = float(rng.uniform(0.5, 1.5))
            p = int(rng.integers(0, j + 1))
            grid = sr.build_grid(d, 13)
            mode = np.rint(k / TWO_PI).astype(int)
            flipped = mode[-1] < 0  # stored as -m, whose coefficient is conj(F(m))
            q = int(np.nonzero((grid.modes == (-mode if flipped else mode)).all(axis=1))[0][0])
            mesh = sr.SimplexMesh(d, j, pts, [list(range(j + 1))], [rho])
            # a cotangent of 1 at mode q reads w * Re(dF_q/dx), one of i reads w * Im
            units = np.zeros((2, grid.n_modes), dtype=complex)
            units[:, q] = [1.0, 1j]
            re, im = (sr.backward_mesh(mesh, grid, sr.SpectralField(grid, u)).d_vertices[p]
                      for u in units)
            a = (re + 1j * im) / grid.fold_weights[q]
            if flipped:
                a = np.conj(a)
            b = oracles.dF_dx_product(pts, rho, k, p)
            scale = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
            worst = max(worst, np.abs(a - b).max() / scale)
            count += 1
        assert worst <= 1e-10, f"batched coefficient off the oracle by {worst:.3e}"


class TestNumericBackward:
    def test_richardson_order(self, rng):
        mesh = sr.random_mesh(2, 2, 6, rng)
        grid = sr.build_grid(2, 4)
        cot = sr.random_spectral_cotangent(grid, rng)
        exact = sr.backward_mesh(mesh, grid, cot)
        err = {}
        for h in (2e-3, 1e-3):
            num = sr.numeric_backward(mesh, grid, cot, h=h)
            err[h] = np.abs(num.d_vertices - exact.d_vertices).max()
        ratio = err[2e-3] / err[1e-3]
        assert 2.0 < ratio < 8.0  # central differences: error ~ h^2

    def test_single_triangle_small_grid(self):
        mesh = sr.SimplexMesh(2, 2, [[0.2, 0.2], [0.7, 0.3], [0.4, 0.8]],
                              [[0, 1, 2]], [1.0])
        grid = sr.build_grid(2, 4)
        cot = sr.random_spectral_cotangent(grid, np.random.default_rng(1))
        ana = sr.backward_mesh(mesh, grid, cot)
        num = sr.numeric_backward(mesh, grid, cot, h=1e-6)
        scale = max(np.abs(num.d_vertices).max(), 1e-10)
        assert np.abs(ana.d_vertices - num.d_vertices).max() / scale <= 1e-5

    def test_step_must_be_positive(self, rng):
        mesh = sr.random_mesh(1, 2, 4, rng)
        grid = sr.build_grid(2, 4)
        with pytest.raises(ValueError):
            sr.numeric_backward(mesh, grid, sr.random_spectral_cotangent(grid, rng), h=0)


class TestBackwardAuxnode:
    def test_matches_finite_differences(self, rng):
        poly = sr.random_convex_polygon(6, rng)
        boundary = sr.polygon_boundary_mesh(poly)
        grid = sr.build_grid(2, 8)
        cot = sr.random_spectral_cotangent(grid, rng)
        ana = sr.backward_auxnode(boundary, grid, cot)
        num = sr.numeric_backward(boundary, grid, cot, h=1e-6, mode="auxnode")
        sv = max(np.abs(num.d_vertices).max(), 1e-10)
        assert np.abs(ana.d_vertices - num.d_vertices).max() / sv <= 1e-5
        sd = max(np.abs(num.d_densities).max(), 1e-10)
        assert np.abs(ana.d_densities - num.d_densities).max() / sd <= 1e-5

    def test_zero_cotangent(self):
        poly = np.array([[0.2, 0.2], [0.8, 0.2], [0.5, 0.8]])
        boundary = sr.polygon_boundary_mesh(poly)
        grid = sr.build_grid(2, 4)
        cot = sr.SpectralField(grid, np.zeros((grid.n_modes, 1), complex))
        grad = sr.backward_auxnode(boundary, grid, cot)
        assert np.all(grad.d_vertices == 0)

    def test_3d_surface_matches_finite_differences(self, rng):
        from test_nuft import box_solid_and_surface

        _, surface = box_solid_and_surface()
        grid = sr.build_grid(3, 4)
        cot = sr.random_spectral_cotangent(grid, rng)
        ana = sr.backward_auxnode(surface, grid, cot)
        num = sr.numeric_backward(surface, grid, cot, h=1e-6, mode="auxnode")
        sv = max(np.abs(num.d_vertices).max(), 1e-10)
        assert np.abs(ana.d_vertices - num.d_vertices).max() / sv <= 1e-5


@pytest.mark.parametrize("bad", [-1, 7])
def test_out_of_range_index_rejected(bad):
    """Forward and backward, simplex and auxnode, strict or not: a node
    index outside [0, n_vertices) raises instead of wrapping or escaping."""
    tri = sr.SimplexMesh(2, 2, UNIT_TRIANGLE, [[0, 1, bad]], [1.0])
    loop = sr.SimplexMesh(2, 1, UNIT_TRIANGLE, [[0, 1], [1, 2], [2, bad]], np.ones(3))
    grid = sr.build_grid(2, 4)
    cot = sr.SpectralField(grid, np.ones(grid.n_modes))
    for strict in (False, True):
        for call in (lambda: sr.forward_mesh(tri, grid, strict=strict),
                     lambda: sr.backward_mesh(tri, grid, cot, strict=strict),
                     lambda: sr.forward_auxnode(loop, grid, strict=strict),
                     lambda: sr.backward_auxnode(loop, grid, cot)):
            with pytest.raises(sr.MeshValidationError, match="out of range"):
                call()
