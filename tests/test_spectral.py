import numpy as np
import pytest

import simplexrast as sr
import oracles


class TestBuildGrid:
    def test_mode_count_2d(self):
        assert sr.build_grid(2, 4).n_modes == 4 * 3

    def test_mode_count_3d(self):
        assert sr.build_grid(3, 4).n_modes == 16 * 3

    def test_dc_present_once(self):
        grid = sr.build_grid(2, 8)
        dc = np.all(grid.modes == 0, axis=1)
        assert dc.sum() == 1

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            sr.build_grid(2, 1)

    def test_mode_ranges(self):
        grid = sr.build_grid(2, 8)
        assert grid.modes[:, -1].min() == 0 and grid.modes[:, -1].max() == 4
        assert grid.modes[:, 0].min() == -3 and grid.modes[:, 0].max() == 4

    def test_fold_weights_cover_full_spectrum(self):
        # stored multiplicities must add up to the full R^d mode count
        for d, r in [(2, 4), (2, 8), (3, 4), (3, 8), (2, 5)]:
            grid = sr.build_grid(d, r)
            assert grid.fold_weights.sum() == r ** d

    def test_cached(self):
        assert sr.build_grid(2, 8) is sr.build_grid(2, 8)


class TestGaussianFilter:
    def test_unit_dc_gain(self):
        grid = sr.build_grid(2, 16)
        filt = sr.gaussian_filter(grid, 2.0)
        dc = np.all(grid.modes == 0, axis=1)
        assert filt.gains[dc][0] == 1.0

    def test_gains_bounded_monotone(self):
        grid = sr.build_grid(2, 16)
        filt = sr.gaussian_filter(grid, 1.5)
        assert np.all(filt.gains > 0) and np.all(filt.gains <= 1)
        m2 = np.einsum("md,md->m", grid.modes, grid.modes)
        order = np.argsort(m2)
        assert np.all(np.diff(filt.gains[order]) <= 1e-15)

    def test_nyquist_gain(self):
        grid = sr.build_grid(2, 16)
        filt = sr.gaussian_filter(grid, 1.0)
        nyq = np.all(grid.modes == [0, 8], axis=1)
        assert filt.gains[nyq][0] == pytest.approx(np.exp(-np.pi ** 2 / 2), rel=1e-12)

    def test_vanishing_width_is_identity(self, rng):
        grid = sr.build_grid(2, 8)
        field = sr.random_spectral_cotangent(grid, rng)
        out = sr.apply_filter(field, sr.gaussian_filter(grid, 1e-9))
        assert np.allclose(out.coeffs, field.coeffs, rtol=0, atol=1e-12)

    def test_dc_unchanged(self, rng):
        grid = sr.build_grid(2, 8)
        field = sr.random_spectral_cotangent(grid, rng)
        out = sr.apply_filter(field, sr.gaussian_filter(grid, 3.0))
        assert out.dc == pytest.approx(field.dc)

    def test_grid_mismatch(self, rng):
        field = sr.random_spectral_cotangent(sr.build_grid(2, 8), rng)
        with pytest.raises(ValueError):
            sr.apply_filter(field, sr.gaussian_filter(sr.build_grid(2, 16), 2.0))

    def test_width_must_be_positive(self):
        with pytest.raises(ValueError):
            sr.gaussian_filter(sr.build_grid(2, 8), 0.0)


class TestInverseTransform:
    def test_dc_only_constant_raster(self):
        grid = sr.build_grid(2, 8)
        coeffs = np.zeros((grid.n_modes, 1), complex)
        coeffs[np.all(grid.modes == 0, axis=1)] = 0.5
        raster = sr.inverse_transform(sr.SpectralField(grid, coeffs))
        assert np.allclose(raster.values, 0.5, atol=1e-14)

    def test_full_domain_square_all_ones(self):
        poly = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        for r in (4, 8, 16):
            grid = sr.build_grid(2, r)
            field = sr.forward_auxnode(sr.polygon_boundary_mesh(poly), grid)
            raster = sr.inverse_transform(field)
            assert np.abs(raster.values - 1.0).max() <= 1e-9

    def test_linearity(self, rng):
        grid = sr.build_grid(2, 8)
        f1 = sr.random_spectral_cotangent(grid, rng)
        f2 = sr.random_spectral_cotangent(grid, rng)
        mix = sr.SpectralField(grid, 2.0 * f1.coeffs - 0.5 * f2.coeffs)
        lhs = sr.inverse_transform(mix).values
        rhs = 2.0 * sr.inverse_transform(f1).values - 0.5 * sr.inverse_transform(f2).values
        assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max()

    def test_mean_equals_dc(self, rng):
        mesh = sr.random_mesh(2, 2, 10, rng)
        grid = sr.build_grid(2, 8)
        field = sr.forward_mesh(mesh, grid)
        raster = sr.inverse_transform(field)
        assert raster.values.mean() == pytest.approx(float(field.dc.real[0]), rel=1e-9)

    def test_fast_matches_direct_summation(self, rng):
        for d, r, c in [(2, 4, 1), (2, 8, 2), (3, 8, 1), (2, 5, 1)]:
            grid = sr.build_grid(d, r)
            field = sr.random_spectral_cotangent(grid, rng, channels=c)
            fast = sr.inverse_transform(field).values
            direct = oracles.inverse_transform_direct(field).values
            assert np.abs(fast - direct).max() <= 1e-10 * max(1.0, np.abs(direct).max())

    def test_centered_half_square_indicator(self):
        # half-domain square: interior ~1, far exterior ~0
        poly = np.array([[0.25, 0.25], [0.75, 0.25], [0.75, 0.75], [0.25, 0.75]])
        raster = sr.rasterize_polygon(poly, sr.RasterizeConfig(resolution=64, filter_width=2.0))
        vals = raster.values[..., 0]
        assert abs(vals[32, 32] - 1.0) <= 0.01
        assert abs(vals[4, 4]) <= 0.01
        assert abs(vals[32, 4]) <= 0.01


class TestAdjoint:
    def test_adjoint_identity_random_pairs(self, rng):
        for r in (4, 8, 16, 32):
            grid = sr.build_grid(2, r)
            for _ in range(20 if r == 8 else 5):
                field = sr.random_spectral_cotangent(grid, rng)
                g = rng.standard_normal((r, r, 1))
                lhs = float(np.sum(sr.inverse_transform(field).values * g))
                rhs = sr.spectral_inner(field, sr.adjoint_transform(g, grid))
                assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    def test_adjoint_identity_3d(self, rng):
        grid = sr.build_grid(3, 8)
        field = sr.random_spectral_cotangent(grid, rng)
        g = rng.standard_normal((8, 8, 8, 1))
        lhs = float(np.sum(sr.inverse_transform(field).values * g))
        rhs = sr.spectral_inner(field, sr.adjoint_transform(g, grid))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    def test_delta_raster_constant_coefficients(self):
        grid = sr.build_grid(2, 8)
        g = np.zeros((8, 8, 1))
        g[0, 0, 0] = 1.0
        coeffs = sr.adjoint_transform(g, grid).coeffs[:, 0]
        assert np.allclose(coeffs, 1.0, atol=1e-12)

    def test_zero_raster(self):
        grid = sr.build_grid(2, 8)
        out = sr.adjoint_transform(np.zeros((8, 8, 1)), grid)
        assert np.all(out.coeffs == 0)

    def test_parseval_with_real_field(self, rng):
        mesh = sr.random_mesh(2, 2, 10, rng)
        grid = sr.build_grid(2, 8)
        field = sr.apply_filter(sr.forward_mesh(mesh, grid), sr.gaussian_filter(grid, 2.0))
        raster = sr.inverse_transform(field)
        energy = float(np.sum(raster.values ** 2))
        spectral = 8 ** 2 * float(
            np.sum(grid.fold_weights[:, None] * np.abs(field.coeffs) ** 2))
        assert energy == pytest.approx(spectral, rel=1e-9)


class TestRasterIO:
    def test_roundtrip(self, tmp_path, rng):
        raster = sr.Raster(2, 8, rng.random((8, 8, 2)))
        path = tmp_path / "out.f32"
        sidecar = sr.save_raster(raster, path)
        assert sidecar.exists()
        loaded = sr.load_raster(path)
        assert loaded.dim == 2 and loaded.resolution == 8 and loaded.channels == 2
        assert np.allclose(loaded.values, raster.values, atol=1e-6)

    def test_row_major_layout(self, tmp_path):
        values = np.arange(16, dtype=float).reshape(4, 4, 1)
        path = tmp_path / "r.f32"
        sr.save_raster(sr.Raster(2, 4, values), path)
        raw = np.fromfile(path, dtype="<f4")
        assert np.allclose(raw, np.arange(16))

    def test_pgm(self, tmp_path):
        values = np.linspace(-0.2, 1.2, 16).reshape(4, 4, 1)
        path = tmp_path / "img.pgm"
        sr.save_pgm(sr.Raster(2, 4, values), path)
        data = path.read_bytes()
        assert data.startswith(b"P5 4 4 255\n")
        pixels = np.frombuffer(data.split(b"\n", 1)[1], dtype=np.uint8)
        assert pixels.min() == 0 and pixels.max() == 255

    def test_pgm_needs_2d_single_channel(self):
        with pytest.raises(ValueError):
            sr.save_pgm(sr.Raster(3, 4, np.zeros((4, 4, 4, 1))), "nope.pgm")


def test_spectral_field_shape_checks():
    grid = sr.build_grid(2, 4)
    with pytest.raises(ValueError):
        sr.SpectralField(grid, np.zeros(5, complex))
    field = sr.SpectralField(grid, np.zeros(grid.n_modes, complex))
    assert field.channels == 1
