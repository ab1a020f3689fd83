import contextlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simplexrast as sr
import oracles

SQUARE = np.array([[0.3, 0.3], [0.7, 0.3], [0.7, 0.7], [0.3, 0.7]])

# meshes that only strict mode rejects: mesh, mode, the violation named, and
# whether the lax backward warns about degenerate elements
STRICT_PROBES = {
    "open auxnode boundary": (
        sr.SimplexMesh(2, 1, SQUARE, [[0, 1], [1, 2], [2, 3]], np.ones(3)),
        "auxnode", "not watertight", False),
    "vertex outside the unit box": (
        sr.SimplexMesh(2, 2, [[0.2, 0.2], [1.8, 0.3], [0.4, 0.7]], [[0, 1, 2]], [1.0]),
        "simplex", "outside the unit box", False),
    "repeated node index": (
        sr.SimplexMesh(2, 1, SQUARE, [[0, 1], [1, 1], [1, 2], [2, 3], [3, 0]], np.ones(5)),
        "auxnode", "repeated vertex index", False),
    "degenerate triangle": (
        sr.SimplexMesh(2, 2, [[0.2, 0.2], [0.5, 0.5], [0.8, 0.8]], [[0, 1, 2]], [1.0]),
        "simplex", "degenerate", True),
}


@pytest.mark.parametrize("probe", STRICT_PROBES)
def test_strict_rule_same_in_both_passes(probe):
    """Strict mode rejects the same meshes in the forward pass, the backward
    pass and the finite-difference reference; lax mode runs them all."""
    mesh, mode, violation, lax_warns = STRICT_PROBES[probe]
    config = sr.RasterizeConfig(8, mode=mode, strict=True)
    cot = np.ones((8, 8))
    for call in (sr.rasterize, sr.rasterize_backward, sr.finite_difference_gradient):
        args = (mesh, config) if call is sr.rasterize else (mesh, config, cot)
        with pytest.raises(sr.MeshValidationError, match=violation):
            call(*args)
    lax = replace(config, strict=False)
    assert np.all(np.isfinite(sr.rasterize(mesh, lax).values))
    with (pytest.warns(RuntimeWarning, match="degenerate") if lax_warns
          else contextlib.nullcontext()):
        grad = sr.rasterize_backward(mesh, lax, cot)
    assert np.all(np.isfinite(grad.d_vertices))


@st.composite
def _mesh_args(draw):
    """SimplexMesh arguments with at most one flaw: a wrong dim, degree or
    array shape, an index out of range, a NaN or infinite value, or complex
    vertices or densities.  Values are otherwise finite in +-10, indices in
    range."""
    flaw = draw(st.sampled_from([None] * 8 + ["dim", "degree", "cols", "nodes", "rows",
                                              "channels", "index", "vertex", "density",
                                              "complex vertices", "complex densities"]))
    dim = draw(st.sampled_from([1, 4] if flaw == "dim" else [2, 3]))
    degree = draw(st.sampled_from([-1, 4]) if flaw == "degree" else st.integers(0, dim))
    n_vertices, n_elements = draw(st.integers(1, 6)), draw(st.integers(1, 3))

    def size(right, wrong):
        return draw(st.integers(0, 4).filter(lambda n: n != right)) if wrong else right

    def array(strategy, shape, dtype, bad=()):
        n = int(np.prod(shape))
        values = draw(st.lists(strategy, min_size=n, max_size=n))
        if bad and n:
            values[draw(st.integers(0, n - 1))] = draw(st.sampled_from(bad))
        return np.array(values, dtype=dtype).reshape(shape)

    non_finite = [float("nan"), float("inf"), -float("inf")]
    channels = 0 if flaw == "channels" else draw(st.sampled_from([None, 1, 2]))
    rows = size(n_elements, flaw == "rows")
    vertices = array(st.floats(-10, 10), (n_vertices, size(dim, flaw == "cols")), float,
                     non_finite if flaw == "vertex" else ())
    elements = array(st.integers(0, n_vertices - 1),
                     (n_elements, size(degree + 1, flaw == "nodes")), np.int64,
                     [-2, -1, n_vertices, n_vertices + 1] if flaw == "index" else ())
    densities = array(st.floats(-10, 10), (rows,) if channels is None else (rows, channels),
                      float, non_finite if flaw == "density" else ())
    if flaw == "complex vertices":  # an array, and below a list
        vertices = vertices + 1j
    if flaw == "complex densities":
        densities = (densities + 1j).tolist()
    return dim, degree, vertices, elements, densities


@pytest.mark.filterwarnings(r"ignore:\d+ degenerate elements:RuntimeWarning")
@settings(max_examples=400, deadline=None)
@given(args=_mesh_args(), mode=st.sampled_from(sr.pipeline.MODES), strict=st.booleans())
def test_library_boundary_never_uncaught(args, mode, strict):
    """Any mesh either fails as a ValueError or runs both passes to finite
    outputs; a mesh the forward pass accepts, the backward pass accepts too."""
    config = sr.RasterizeConfig(4, mode=mode, strict=strict)
    try:
        mesh = sr.SimplexMesh(*args)
        raster = sr.rasterize(mesh, config)
    except ValueError:
        return
    grad = sr.rasterize_backward(mesh, config, np.ones_like(raster.values))
    for out in (raster.values, grad.d_vertices, grad.d_densities):
        assert np.all(np.isfinite(out))


class TestRasterize:
    def test_empty_mesh_zero_raster(self):
        mesh = sr.SimplexMesh(2, 2, np.zeros((0, 2)), np.zeros((0, 3), int),
                              np.zeros((0, 1)))
        raster = sr.rasterize(mesh, sr.RasterizeConfig(resolution=8))
        assert np.all(raster.values == 0.0)

    def test_mean_equals_total_mass(self, rng):
        for _ in range(5):
            mesh = sr.random_mesh(2, 2, 10, rng)
            raster = sr.rasterize(mesh, sr.RasterizeConfig(resolution=16))
            assert raster.values.mean() == pytest.approx(
                float(oracles.total_mass(mesh)[0]), rel=1e-9)

    def test_half_domain_polygon_probe_pixels(self):
        left_half = np.array([[0.0, 0.0], [0.5, 0.0], [0.5, 1.0], [0.0, 1.0]])
        raster = sr.rasterize_polygon(left_half, sr.RasterizeConfig(resolution=64))
        vals = raster.values[..., 0]
        assert abs(vals[16, 32] - 1.0) <= 0.01  # (0.25, 0.5) inside
        assert abs(vals[48, 32]) <= 0.01        # (0.75, 0.5) outside

    def test_deterministic(self, rng):
        mesh = sr.random_mesh(2, 2, 10, rng)
        cfg = sr.RasterizeConfig(resolution=16)
        a = sr.rasterize(mesh, cfg).values
        b = sr.rasterize(mesh, cfg).values
        assert np.array_equal(a, b)

    def test_strict_mode_raises_on_bad_mesh(self):
        mesh = sr.SimplexMesh(2, 2, SQUARE[:3], [[0, 1, 9]], [1.0])
        with pytest.raises(sr.MeshValidationError):
            sr.rasterize(mesh, sr.RasterizeConfig(resolution=8, strict=True))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            sr.RasterizeConfig(resolution=1)
        with pytest.raises(ValueError):
            sr.RasterizeConfig(resolution=8, filter_width=0.0)
        with pytest.raises(ValueError):
            sr.RasterizeConfig(resolution=8, mode="nearest")

    @pytest.mark.parametrize("resolution", [64.5, 8.0, float("nan"), True, "8", None])
    def test_resolution_must_be_integer(self, resolution):
        with pytest.raises(ValueError, match="resolution"):
            sr.RasterizeConfig(resolution=resolution)

    def test_numpy_integer_resolution_accepted(self):
        assert sr.rasterize(oracles.polygon_fan_mesh(SQUARE),
                            sr.RasterizeConfig(resolution=np.int64(8))).resolution == 8

    @pytest.mark.parametrize("width", [1e200, 1e154, float("inf"), -1.0, "2", True])
    def test_filter_width_square_must_be_finite(self, width):
        with pytest.raises(ValueError, match="filter_width"):
            sr.RasterizeConfig(resolution=8, filter_width=width)


class TestRasterizeBackward:
    @pytest.mark.parametrize("j,d", [(0, 2), (1, 2), (2, 2), (0, 3), (2, 3), (3, 3)])
    def test_full_chain_gradcheck(self, j, d, rng):
        mesh = sr.random_mesh(j, d, 7, rng)
        cfg = sr.RasterizeConfig(resolution=4)
        cot = sr.random_raster_cotangent(d, 4, rng)
        ana = sr.rasterize_backward(mesh, cfg, cot)
        num = sr.finite_difference_gradient(mesh, cfg, cot, h=1e-6)
        sv = max(np.abs(num.d_vertices).max(), 1e-10)
        assert np.abs(ana.d_vertices - num.d_vertices).max() / sv <= 1e-5
        sd = max(np.abs(num.d_densities).max(), 1e-10)
        assert np.abs(ana.d_densities - num.d_densities).max() / sd <= 1e-5

    def test_flat_cotangent_triangle_edge_direction_null(self):
        # with a flat cotangent the loss is proportional to the area, and
        # sliding a vertex parallel to the opposite edge preserves area
        mesh = sr.SimplexMesh(2, 2, [[0.2, 0.2], [0.8, 0.3], [0.4, 0.7]],
                              [[0, 1, 2]], [1.0])
        cfg = sr.RasterizeConfig(resolution=16)
        grad = sr.rasterize_backward(mesh, cfg, np.ones((16, 16, 1)))
        edge = mesh.vertices[2] - mesh.vertices[1]  # opposite vertex 0
        directional = grad.d_vertices[0] @ edge
        assert abs(directional) <= 1e-8 * max(np.abs(grad.d_vertices).max(), 1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_cotangent_rejected(self, rng, bad):
        """Both gradients take the cotangent as an array or a ``Raster``:
        a non-finite one is rejected in either form, and a finite one gives
        the same gradient in either form."""
        mesh = sr.random_mesh(2, 2, 6, rng)
        cfg = sr.RasterizeConfig(resolution=8)
        cot = np.zeros((8, 8, 1))
        cot[3, 4] = bad
        good = sr.random_raster_cotangent(2, 8, rng)
        for call in (sr.rasterize_backward, sr.finite_difference_gradient):
            for form in (cot, sr.Raster(2, 8, cot)):
                with pytest.raises(ValueError, match="finite"):
                    call(mesh, cfg, form)
            a, b = call(mesh, cfg, good), call(mesh, cfg, sr.Raster(2, 8, good))
            assert np.array_equal(a.d_vertices, b.d_vertices)
            assert np.array_equal(a.d_densities, b.d_densities)

    def test_cotangent_channel_mismatch_rejected(self, rng):
        """Both gradients reject a cotangent whose channel count is not the
        mesh's, with the same message: one channel is not broadcast."""
        mesh = sr.random_mesh(2, 2, 6, rng, channels=3)
        cfg = sr.RasterizeConfig(resolution=8)
        for call in (sr.rasterize_backward, sr.finite_difference_gradient):
            for channels in (1, 2):
                with pytest.raises(ValueError, match=f"cotangent has {channels} channels, "
                                                     "mesh has 3"):
                    call(mesh, cfg, np.ones((8, 8, channels)))

    def test_zero_cotangent(self, rng):
        mesh = sr.random_mesh(2, 2, 6, rng)
        cfg = sr.RasterizeConfig(resolution=8)
        grad = sr.rasterize_backward(mesh, cfg, np.zeros((8, 8, 1)))
        assert np.all(grad.d_vertices == 0) and np.all(grad.d_densities == 0)


@pytest.mark.parametrize("mode, d", [("simplex", 2), ("simplex", 3), ("auxnode", 2)],
                         ids=["simplex-2d", "simplex-3d", "auxnode-2d"])
def test_passes_equal_stage_composition(mode, d, rng):
    """``rasterize`` and ``rasterize_backward`` equal, bit for bit, the
    stages composed by hand at the config's one resolution."""
    mesh = (sr.pipeline._ccw_loop(sr.random_simple_polygon(12, rng)) if mode == "auxnode"
            else sr.random_mesh(d, d, 9, rng, channels=2))
    cfg = sr.RasterizeConfig(resolution=8, filter_width=1.5, mode=mode)
    forward, backward = ((sr.forward_mesh, sr.backward_mesh) if mode == "simplex"
                         else (sr.forward_auxnode, sr.backward_auxnode))
    grid = sr.build_grid(d, 8)
    gains = sr.gaussian_filter(grid, 1.5)
    expected = sr.inverse_transform(sr.apply_filter(forward(mesh, grid), gains))
    assert np.array_equal(sr.rasterize(mesh, cfg).values, expected.values)
    cot = rng.standard_normal(expected.values.shape)
    want = backward(mesh, grid, sr.apply_filter(sr.adjoint_transform(cot, grid), gains))
    grad = sr.rasterize_backward(mesh, cfg, cot)
    assert np.array_equal(grad.d_vertices, want.d_vertices)
    assert np.array_equal(grad.d_densities, want.d_densities)


class TestLossMres:
    def test_zero_at_match_with_zero_gradient(self):
        cfg = sr.RasterizeConfig(resolution=16)
        loss, grads = sr.loss_mres([(SQUARE, 16), (SQUARE, 8)], SQUARE, cfg)
        assert loss == 0.0
        assert all(np.all(g == 0.0) for g in grads)

    def test_symmetric(self, rng):
        poly = sr.random_simple_polygon(6, rng)
        cfg = sr.RasterizeConfig(resolution=16)
        a, _ = sr.loss_mres([(poly, 16)], SQUARE, cfg)
        b, _ = sr.loss_mres([(SQUARE, 16)], poly, cfg)
        assert a == pytest.approx(b, rel=1e-12)

    def test_shift_sweep_monotone(self):
        cfg = sr.RasterizeConfig(resolution=32)
        shifts = np.linspace(0.1, 0.0, 10)
        losses = [sr.loss_mres([(SQUARE + [s, 0.0], 32)], SQUARE, cfg)[0]
                  for s in shifts]
        assert all(x > y for x, y in zip(losses, losses[1:]))
        assert losses[-1] == 0.0

    def test_gradient_matches_finite_differences(self, rng):
        cand = SQUARE + [0.04, -0.03]
        cfg = sr.RasterizeConfig(resolution=16)
        _, grads = sr.loss_mres([(cand, 16)], SQUARE, cfg)
        h = 1e-6
        fd = np.zeros_like(cand)
        for i in range(len(cand)):
            for ax in range(2):
                plus = cand.copy()
                plus[i, ax] += h
                minus = cand.copy()
                minus[i, ax] -= h
                fd[i, ax] = (sr.loss_mres([(plus, 16)], SQUARE, cfg)[0]
                             - sr.loss_mres([(minus, 16)], SQUARE, cfg)[0]) / (2 * h)
        assert np.abs(grads[0] - fd).max() <= 1e-5 * np.abs(fd).max()

    def test_open_polygon_rejected(self):
        closed_ring = np.vstack([SQUARE, SQUARE[:1]])  # explicit closing vertex
        with pytest.raises(ValueError):
            sr.loss_mres([(closed_ring, 16)], SQUARE, sr.RasterizeConfig(resolution=16))

    def test_clockwise_candidate_gradient_maps_back(self):
        cand = SQUARE + [0.04, -0.03]
        cfg = sr.RasterizeConfig(resolution=16)
        loss_ccw, grads_ccw = sr.loss_mres([(cand, 16)], SQUARE, cfg)
        loss_cw, grads_cw = sr.loss_mres([(cand[::-1], 16)], SQUARE, cfg)
        assert loss_cw == pytest.approx(loss_ccw, rel=1e-12)
        assert np.allclose(grads_cw[0], grads_ccw[0][::-1])


MRES_LISTS = {"sorted": (16, 32, 64), "odd": (15, 31, 33), "unsorted": (64, 16, 32),
              "repeated": (8, 8, 20)}


class TestFineSpectrum:
    """Every resolution's raster term from one sweep at the largest."""

    @staticmethod
    def loop(rng):
        return sr.pipeline._ccw_loop(sr.random_simple_polygon(12, rng))

    @pytest.mark.parametrize("resolutions", MRES_LISTS.values(), ids=MRES_LISTS)
    def test_rasters_equal_separate_calls(self, resolutions, rng):
        mesh, cfg = self.loop(rng), sr.RasterizeConfig(4, mode="auxnode")
        rasters = sr.pipeline._rasters(mesh, cfg, resolutions)
        assert [r.resolution for r in rasters] == list(resolutions)
        for raster, r in zip(rasters, resolutions):
            assert np.array_equal(raster.values,
                                  sr.rasterize(mesh, replace(cfg, resolution=r)).values)

    @pytest.mark.parametrize("resolutions, cotangent", [
        *(pytest.param(res, "random", id=name) for name, res in MRES_LISTS.items()),
        pytest.param((16, 32, 64), "nyquist32", id="nyquist32")])
    def test_gradient_matches_per_resolution_sum(self, resolutions, cotangent, rng):
        """``nyquist32`` is supported only on R=32's last-axis Nyquist
        column, whose fold weight is 1 at R=32 but 2 at R=64."""
        mesh, cfg = self.loop(rng), sr.RasterizeConfig(4, filter_width=1.0, mode="auxnode")
        if cotangent == "random":
            cots = [rng.standard_normal((r, r)) for r in resolutions]
        else:
            cots = [np.zeros((r, r)) for r in resolutions]
            cots[1] = np.outer(rng.standard_normal(32), (-1.0) ** np.arange(32))
            spectrum = np.fft.rfft(cots[1], axis=1)
            assert np.abs(spectrum[:, :-1]).max() <= 1e-12 * np.abs(spectrum[:, -1]).max()
        grad = sr.pipeline._rasters_backward(mesh, cfg, resolutions, cots).d_vertices
        expected = sum(sr.rasterize_backward(mesh, replace(cfg, resolution=r), cot).d_vertices
                       for r, cot in zip(resolutions, cots))
        assert np.abs(expected).max() > 0
        assert np.abs(grad - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("dim, resolution, fine", [(2, 16, 64), (2, 15, 32), (3, 4, 9)])
    def test_fine_rows_hold_the_same_modes(self, dim, resolution, fine):
        """The cached rows pick each coarse mode out of the fine grid, once
        per size, and callers cannot write to them."""
        rows = sr.pipeline._fine_rows(dim, resolution, fine)
        assert rows is sr.pipeline._fine_rows(dim, resolution, fine)
        assert not rows.flags.writeable
        assert np.array_equal(sr.build_grid(dim, fine).modes[rows],
                              sr.build_grid(dim, resolution).modes)

    def test_strict_rule_in_both_passes(self):
        open_loop = STRICT_PROBES["open auxnode boundary"][0]
        cfg = sr.RasterizeConfig(4, mode="auxnode", strict=True)
        with pytest.raises(sr.MeshValidationError, match="not watertight"):
            sr.pipeline._rasters(open_loop, cfg, (8, 16))
        with pytest.raises(sr.MeshValidationError, match="not watertight"):
            sr.pipeline._rasters_backward(open_loop, cfg, (8, 16),
                                                 [np.ones((8, 8)), np.ones((16, 16))])

    @pytest.mark.parametrize("resolution", [1, 16.0, True])
    def test_loss_mres_rejects_bad_resolution(self, resolution):
        with pytest.raises(ValueError, match="resolution"):
            sr.loss_mres([(SQUARE, 16), (SQUARE, resolution)], SQUARE,
                         sr.RasterizeConfig(resolution=16))


class TestLossSmooth:
    def test_square_exact(self):
        value, _ = sr.loss_smooth(SQUARE)
        assert abs(value - 0.25) <= 1e-12

    def test_equilateral_exact(self):
        tri = np.array([[0.2, 0.2], [0.8, 0.2], [0.5, 0.2 + 0.6 * np.sqrt(3) / 2]])
        value, _ = sr.loss_smooth(tri)
        assert abs(value - 4.0 / 9.0) <= 1e-12

    def test_straight_through_vertices_contribute_zero(self):
        # midpoint-refined square: the four inserted vertices sit on straight
        # runs (angle pi, zero residual), diluting the corner mean by half
        refined = sr.polygon_subdivide(SQUARE, np.zeros(4))
        value, _ = sr.loss_smooth(refined)
        assert value == pytest.approx(0.125, abs=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        poly = sr.random_simple_polygon(7, rng)
        _, grad = sr.loss_smooth(poly)
        h = 1e-7
        fd = np.zeros_like(poly)
        for i in range(len(poly)):
            for ax in range(2):
                plus = poly.copy()
                plus[i, ax] += h
                minus = poly.copy()
                minus[i, ax] -= h
                fd[i, ax] = (sr.loss_smooth(plus)[0] - sr.loss_smooth(minus)[0]) / (2 * h)
        assert np.abs(grad - fd).max() <= 1e-6 * max(np.abs(fd).max(), 1e-9)

    def test_orientation_insensitive(self, rng):
        poly = sr.random_simple_polygon(6, rng)
        v_ccw, g_ccw = sr.loss_smooth(poly)
        v_cw, g_cw = sr.loss_smooth(poly[::-1])
        assert v_cw == pytest.approx(v_ccw, rel=1e-12)
        assert np.allclose(g_cw, g_ccw[::-1])

    def test_repeated_vertex_rejected(self):
        bad = np.array([[0.2, 0.2], [0.2, 0.2], [0.7, 0.3], [0.5, 0.8]])
        with pytest.raises(ValueError):
            sr.loss_smooth(bad)

    def test_interior_angles_square(self):
        assert np.allclose(oracles.interior_angles(SQUARE), np.pi / 2)

    def test_interior_angles_clockwise_in_input_order(self):
        tri = np.array([[0.1, 0.1], [0.8, 0.2], [0.3, 0.6]])  # scalene, CCW
        ccw = oracles.interior_angles(tri)
        assert np.isclose(ccw.sum(), np.pi)
        assert len(np.unique(np.round(ccw, 6))) == 3
        assert np.array_equal(oracles.interior_angles(tri[::-1]), ccw[::-1])


class TestSubdivide:
    def test_zero_offsets_double_without_shape_change(self):
        refined = sr.polygon_subdivide(SQUARE, np.zeros(4))
        assert refined.shape == (8, 2)
        assert np.allclose(refined[0::2], SQUARE)
        cfg = sr.RasterizeConfig(resolution=32)
        a = sr.rasterize_polygon(SQUARE, cfg).values
        b = sr.rasterize_polygon(refined, cfg).values
        assert np.abs(a - b).max() <= 1e-9

    def test_positive_offsets_grow_area(self):
        tri = np.array([[0.3, 0.3], [0.7, 0.3], [0.5, 0.7]])
        grown = sr.polygon_subdivide(tri, np.full(3, 0.05))
        assert sr.polygon_signed_area(grown) > sr.polygon_signed_area(tri)

    def test_offsets_toward_circle_reduce_hausdorff_distance(self):
        center = np.array([0.5, 0.5])
        radius = 0.3
        square = center + radius * np.array([[1, 1], [-1, 1], [-1, -1], [1, -1]]) / np.sqrt(2)
        mids = 0.5 * (square + np.roll(square, -1, axis=0))
        deltas = radius - np.linalg.norm(mids - center, axis=1)
        refined = sr.polygon_subdivide(square, deltas)

        def hausdorff_to_circle(poly):
            t = np.linspace(0, 1, 4000)[:, None]
            edges = np.roll(poly, -1, axis=0)
            pts = np.concatenate([(1 - t) * poly[i] + t * edges[i]
                                  for i in range(len(poly))])
            return np.abs(np.linalg.norm(pts - center, axis=1) - radius).max()

        assert hausdorff_to_circle(refined) < hausdorff_to_circle(square)

    def test_orientation_aware_outward(self):
        grown_ccw = sr.polygon_subdivide(SQUARE, np.full(4, 0.05))
        grown_cw = sr.polygon_subdivide(SQUARE[::-1], np.full(4, 0.05))
        assert sr.polygon_signed_area(grown_ccw) > sr.polygon_signed_area(SQUARE)
        assert abs(sr.polygon_signed_area(grown_cw)) > abs(sr.polygon_signed_area(SQUARE))

    def test_delta_count_mismatch(self):
        with pytest.raises(ValueError):
            sr.polygon_subdivide(SQUARE, np.zeros(3))


class TestPolygonHelpers:
    def test_signed_area(self):
        assert sr.polygon_signed_area(SQUARE) == pytest.approx(0.16)
        assert sr.polygon_signed_area(SQUARE[::-1]) == pytest.approx(-0.16)

    def test_boundary_mesh(self):
        mesh = sr.polygon_boundary_mesh(SQUARE)
        assert mesh.degree == 1 and mesh.n_elements == 4
        assert np.all(mesh.densities == 1.0)

    def test_too_few_vertices(self):
        with pytest.raises(ValueError):
            sr.polygon_boundary_mesh(SQUARE[:2])

    @pytest.mark.parametrize("path", [
        lambda p: sr.polygon_signed_area(p),
        lambda p: sr.polygon_boundary_mesh(p),
        lambda p: sr.pipeline._ccw_loop(p),
        lambda p: sr.loss_smooth(p),
        lambda p: sr.polygon_subdivide(p, np.zeros(len(p))),
    ], ids=["signed_area", "boundary_mesh", "ccw_loop", "loss_smooth", "subdivide"])
    def test_each_path_checks_its_polygon_once(self, monkeypatch, path):
        """The orientation comes from the array already checked, not from a
        second check through ``polygon_signed_area``."""
        calls = []
        check = sr.pipeline._check_polygon
        monkeypatch.setattr(sr.pipeline, "_check_polygon",
                            lambda polygon: calls.append(polygon) or check(polygon))
        for polygon in (SQUARE, SQUARE[::-1]):
            calls.clear()
            path(polygon)
            assert len(calls) == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_signed_area_rejects_non_finite_vertex(self, bad):
        with pytest.raises(ValueError, match="finite"):
            sr.polygon_signed_area(np.vstack([SQUARE[:3], [0.3, bad]]))

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_loss_smooth_rejects_non_finite_vertex(self, bad):
        with pytest.raises(ValueError, match="finite"):
            sr.loss_smooth(np.vstack([SQUARE[:3], [bad, 0.7]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_subdivide_rejects_non_finite_offset(self, bad):
        with pytest.raises(ValueError, match="finite"):
            sr.polygon_subdivide(SQUARE, [0.0, bad, 0.0, 0.0])
