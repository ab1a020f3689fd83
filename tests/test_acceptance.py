"""Acceptance suite: one test per criterion, each printing a PASS line.

Tolerances are pinned here, not calibrated elsewhere.  Criterion 5 is
implemented exactly as stated and is expected to fail: its error bounds
are unattainable under the pinned Gaussian gain curve (see the strict
xfail reason and the companion plateau test for what does hold).
"""

import time

import numpy as np
import pytest

import simplexrast as sr
from simplexrast.cli import gradient_relative_error, run_bench
from simplexrast.gradients import _kernel_batch
from simplexrast.nuft import _divided_diff_series
import oracles
from conftest import supersampled_indicator

TWO_PI = 2.0 * np.pi
GRADCHECK_COMBOS = [(0, 2), (1, 2), (2, 2), (0, 3), (1, 3), (2, 3), (3, 3)]


def _report(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_1_gradcheck_suite():
    """Analytic vs central-FD mesh gradients: 7 (j, d) combos, 50 seeded
    meshes of 5-20 points each, R in {4, 8}, h = 1e-6, tol 1e-5, < 2 min."""
    rng = np.random.default_rng(1234)
    start = time.perf_counter()
    worst = 0.0
    checked = 0
    for j, d in GRADCHECK_COMBOS:
        for _ in range(50):
            mesh = sr.random_mesh(j, d, int(rng.integers(5, 21)), rng)
            for res in (4, 8):
                config = sr.RasterizeConfig(resolution=res)
                cot = sr.random_raster_cotangent(d, res, rng)
                analytic = sr.rasterize_backward(mesh, config, cot)
                numeric = sr.finite_difference_gradient(mesh, config, cot, h=1e-6)
                worst = max(worst, gradient_relative_error(analytic, numeric))
                checked += 1
    elapsed = time.perf_counter() - start
    assert worst <= 1e-5, f"max relative gradient error {worst:.3e} > 1e-5"
    assert elapsed < 120.0, f"gradcheck suite took {elapsed:.1f}s >= 2 min"
    _report("C1", f"{checked} cases, max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_1_spectral_loss_matches_pixel_loss():
    """The FD oracle's spectral-form loss is the pixel-sum loss (adjoint
    identity through the filter), so criterion 1's FD is full-chain."""
    rng = np.random.default_rng(77)
    for j, d in [(2, 2), (3, 3)]:
        mesh = sr.random_mesh(j, d, 9, rng)
        config = sr.RasterizeConfig(resolution=8)
        cot = sr.random_raster_cotangent(d, 8, rng)
        pixel = sr.pipeline.raster_loss(mesh, config, cot)
        grid = sr.build_grid(d, 8)
        filt = sr.gaussian_filter(grid, config.filter_width)
        spectral = sr.spectral_inner(
            sr.forward_mesh(mesh, grid),
            sr.apply_filter(sr.adjoint_transform(cot, grid), filt))
        assert abs(pixel - spectral) <= 1e-10 * max(abs(pixel), 1.0)
    _report("C1b", "pixel-sum and spectral-form losses agree to 1e-10")


def test_criterion_2_derivative_forms_consistent():
    """Split (freq/edge-scale) form equals the product-rule form of the
    coefficient derivative to 1e-12 relative on 1000 random pairs."""
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
        a = oracles.dF_dx(pts, rho, k, p)
        b = oracles.dF_dx_product(pts, rho, k, p)
        scale = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
        worst = max(worst, np.abs(a - b).max() / scale)
        count += 1
    assert worst <= 1e-12, f"derivative forms disagree at {worst:.3e}"
    _report("C2", f"1000 pairs, worst rel gap {worst:.2e}")


def test_criterion_3_mass_conservation():
    """Mean raster value equals the total mass (sum density * content) to
    1e-9 relative for 100 random meshes across degrees and resolutions."""
    rng = np.random.default_rng(3)
    combos = [(j, d) for j in range(4) for d in (2, 3) if j <= d]
    worst = 0.0
    for i in range(100):
        j, d = combos[i % len(combos)]
        mesh = sr.random_mesh(j, d, int(rng.integers(5, 15)), rng)
        mass = float(sr.total_mass(mesh)[0])
        for res in (4, 8, 16):
            raster = sr.rasterize(mesh, sr.RasterizeConfig(resolution=res))
            worst = max(worst, abs(raster.values.mean() - mass) / abs(mass))
    assert worst <= 1e-9, f"mass drift {worst:.3e}"
    _report("C3", f"100 meshes x 3 resolutions, worst rel drift {worst:.2e}")


def test_criterion_4_auxnode_matches_triangulation():
    """Boundary (auxnode) transform equals the fan-triangulated transform
    at every mode to 1e-9 relative for 100 random convex polygons."""
    rng = np.random.default_rng(4)
    grid = sr.build_grid(2, 16)
    worst = 0.0
    for _ in range(100):
        poly = sr.random_convex_polygon(int(rng.integers(4, 12)), rng)
        via_boundary = sr.forward_auxnode(sr.polygon_boundary_mesh(poly), grid).coeffs
        via_fan = sr.forward_mesh(sr.polygon_fan_mesh(poly), grid).coeffs
        scale = np.abs(via_fan).max()
        worst = max(worst, float(np.abs(via_boundary - via_fan).max() / scale))
    assert worst <= 1e-9, f"auxnode/triangulation gap {worst:.3e}"
    _report("C4", f"100 convex polygons, worst rel gap {worst:.2e}")


@pytest.mark.xfail(
    strict=True,
    reason="Unattainable as stated: with the pinned gain curve "
    "exp(-2 pi^2 g^2 |m|^2 / R^2), g = 2 cells smooths edges with a spatial "
    "sigma of 2 cells, so against a sharp box-averaged indicator a straight "
    "edge alone contributes ~0.40 max error and polygon corners reach "
    "0.5-0.75 (measured); the mean error for unit-scale polygons lands near "
    "0.03.  No filter width satisfies both pinned example gains and these "
    "bounds; see the companion plateau test for the fidelity that does hold.")
def test_criterion_5_indicator_fidelity():
    """20 random simple polygons at R=64, g=2 vs a 16x-per-axis
    supersampled point-in-polygon oracle: MAE <= 0.02 and max <= 0.3."""
    rng = np.random.default_rng(5)
    worst_mae = worst_max = 0.0
    for _ in range(20):
        poly = sr.random_simple_polygon(int(rng.integers(5, 12)), rng)
        raster = sr.rasterize_polygon(
            poly, sr.RasterizeConfig(resolution=64, filter_width=2.0))
        oracle = supersampled_indicator(poly, 64)
        err = np.abs(raster.values[..., 0] - oracle)
        worst_mae = max(worst_mae, float(err.mean()))
        worst_max = max(worst_max, float(err.max()))
    assert worst_mae <= 0.02, f"MAE {worst_mae:.4f} > 0.02"
    assert worst_max <= 0.3, f"max error {worst_max:.4f} > 0.3"
    _report("C5", f"20 polygons, worst MAE {worst_mae:.4f}, worst max {worst_max:.4f}")


def test_criterion_5_companion_plateau_fidelity():
    """The attainable part of the indicator claim: away from edges the
    raster sits within 0.01 of the indicator for all 20 polygons."""
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(20):
        poly = sr.random_simple_polygon(int(rng.integers(5, 12)), rng)
        raster = sr.rasterize_polygon(
            poly, sr.RasterizeConfig(resolution=64, filter_width=2.0))
        oracle = supersampled_indicator(poly, 64)
        err = np.abs(raster.values[..., 0] - oracle)
        plateau = (oracle == 0.0) | (oracle == 1.0)
        # strip an 8-cell band around the boundary: cells whose oracle
        # neighborhood is uniform
        from scipy.ndimage import minimum_filter, maximum_filter
        uniform = (maximum_filter(oracle, 17, mode="wrap")
                   == minimum_filter(oracle, 17, mode="wrap"))
        mask = plateau & uniform
        assert mask.any()
        worst = max(worst, float(err[mask].max()))
    assert worst <= 0.01, f"plateau error {worst:.4f} > 0.01"
    _report("C5-companion", f"plateau max err {worst:.4f} <= 0.01")


def test_criterion_6_speedup_and_scaling():
    """Analytic backward beats the numeric one >= 5x at (j=2, d=3,
    50 points, R=16) and its log-log point-count slope is flatter by
    >= 0.7."""
    headline = run_bench([2], [50], [16], reps=1, d=3, seed=0)[0]
    assert headline.speedup >= 5.0, f"speedup {headline.speedup:.2f} < 5"
    sweep = run_bench([2], [8, 16, 32, 50], [8], reps=3, d=3, seed=1)
    pts = np.log([r.n_points for r in sweep])
    slope_analytic = np.polyfit(pts, np.log([r.analytic_ms[0] for r in sweep]), 1)[0]
    slope_numeric = np.polyfit(pts, np.log([r.numeric_ms[0] for r in sweep]), 1)[0]
    gap = slope_numeric - slope_analytic
    assert gap >= 0.7, f"slope gap {gap:.2f} < 0.7"
    _report("C6", f"speedup {headline.speedup:.0f}x, slope gap {gap:.2f}")


def test_criterion_7_confluence_continuity():
    """Kernel and kernel-derivative sweeps through the confluence
    threshold: no discontinuity above 1e-7 at any branch switch.

    Certified by tracking a 60-digit oracle pointwise along dense gap
    sweeps (a branch jump would show up as twice the tracking error), plus
    a direct comparison of the two evaluation branches near the switch."""
    from conftest import mp_confluent_diff

    families = [
        np.array([0.0, 1.3]),
        np.array([0.0, 0.9, 2.2]),
        np.array([0.0, 0.0, 1.1]),            # gap sweep inside a collision
        np.array([0.0, 0.4, 1.1, 2.7]),
        np.array([0.0, 0.0, 0.0, 1.3]),       # triple cluster
    ]
    gaps = np.logspace(-3, -8, 26)  # dense sweep across eps_confluent = 1e-5
    worst_track = 0.0
    for base in families:
        n = len(base)
        for g in gaps:
            sig = base + g * np.arange(n)
            err_s = abs(sr.eval_S(sig) - mp_confluent_diff(sig))
            worst_track = max(worst_track, err_s)
            _, coefs = _kernel_batch(sig[None])
            for p in range(n):
                coef = coefs[0, p]
                ref = mp_confluent_diff(np.append(sig, sig[p]))
                worst_track = max(worst_track, abs(coef - ref))
    worst_jump = 2.0 * worst_track  # bound on any branch-switch jump
    # explicit branch agreement wherever the fast branch is actually taken
    # (at the switch boundary both branches must produce the same value)
    worst_branch = 0.0
    for base in families:
        n = len(base)
        for g in (1e-3, 3e-4, 1e-4, 3e-5, 1e-5):
            sig = np.sort(base + g * np.arange(n))
            lk = sr.nuft._lagrange_terms(sig[None])
            if lk.unsafe[0]:
                continue  # routing already uses the stable branch here
            stable = complex(_divided_diff_series(sig[None])[0])
            worst_branch = max(worst_branch, abs(complex(lk.s[0]) - stable))
    assert worst_jump <= 1e-7, f"possible branch jump {worst_jump:.3e}"
    assert worst_branch <= 1e-7, f"branch disagreement {worst_branch:.3e}"
    _report("C7", f"oracle tracking {worst_track:.2e}, branch gap {worst_branch:.2e}")


SQUARE = np.array([[0.3, 0.3], [0.7, 0.3], [0.7, 0.7], [0.3, 0.7]])


def test_criterion_8_translated_square_recovery():
    """Vertex-variable fit of a square translated by 0.1 at R=32: IoU of
    the thresholded rasters >= 0.95, non-increasing loss, <= 500 iters."""
    target_poly = SQUARE + [0.1, 0.0]
    config = sr.RasterizeConfig(resolution=32, mode="auxnode")
    problem = sr.FitProblem(
        mesh=sr.polygon_boundary_mesh(SQUARE),
        target=sr.polygon_boundary_mesh(target_poly),
        config=config,
        schedule=sr.Schedule(step=1e-3, max_iters=500, tol=1e-12),
        loss="l2")
    result = sr.fit(problem)
    assert result.trajectory[-1].iteration <= 500
    assert np.all(np.diff(result.losses) <= 0.0), "loss increased"
    fitted = sr.rasterize(problem.geometry(result.state), config)
    target = sr.rasterize(problem.target, config)
    score = sr.iou(fitted, target, 0.5)
    assert score >= 0.95, f"IoU {score:.3f} < 0.95"
    assert result.trajectory[-1].loss < 0.01 * result.trajectory[0].loss
    _report("C8a", f"IoU {score:.3f} after {result.trajectory[-1].iteration} iters")


def test_criterion_8_pose_recovery():
    """Quaternion pose fit at R=32 with an L1 raster loss recovers a 30
    degree rotation within 2 degrees."""
    base = sr.SimplexMesh(3, 3, np.array([[0.22, 0.30, 0.32],
                                          [0.80, 0.38, 0.36],
                                          [0.38, 0.78, 0.42],
                                          [0.46, 0.42, 0.78]]), [[0, 1, 2, 3]], [1.0])
    angle = np.deg2rad(30.0)
    q_true = np.array([np.cos(angle / 2), 0.0, 0.0, np.sin(angle / 2)])
    target = base.with_vertices(sr.quat_apply(sr.PoseQuat(q_true, [0, 0, 0]),
                                              base.vertices))
    problem = sr.FitProblem(
        mesh=base, target=target,
        config=sr.RasterizeConfig(resolution=32),
        schedule=sr.Schedule(step=2e-3, max_iters=220, tol=1e-6),
        variable="pose", loss="l1", pose=sr.PoseQuat([1, 0, 0, 0], [0, 0, 0]))
    result = sr.fit(problem)
    assert np.all(np.diff(result.losses) <= 0.0), "loss increased"
    q_fit = result.state[:4] / np.linalg.norm(result.state[:4])
    err_deg = 2.0 * np.degrees(np.arccos(min(1.0, abs(float(q_fit @ q_true)))))
    assert err_deg <= 2.0, f"pose error {err_deg:.2f} degrees > 2"
    _report("C8b", f"pose error {err_deg:.3f} deg after "
                   f"{result.trajectory[-1].iteration} iters")


def test_criterion_9_loss_values():
    """Pinned loss values: smoothness of a square is 1/4, of an
    equilateral triangle 4/9 (to 1e-12); the multi-resolution loss of a
    polygon against itself is zero with a zero gradient."""
    square_val, _ = sr.loss_smooth(SQUARE)
    assert abs(square_val - 0.25) <= 1e-12
    tri = np.array([[0.2, 0.2], [0.8, 0.2], [0.5, 0.2 + 0.6 * np.sqrt(3) / 2]])
    tri_val, _ = sr.loss_smooth(tri)
    assert abs(tri_val - 4.0 / 9.0) <= 1e-12
    loss, grads = sr.loss_mres([(SQUARE, 32), (SQUARE, 16)], SQUARE,
                               sr.RasterizeConfig(resolution=32))
    assert loss == 0.0
    assert all(np.all(g == 0.0) for g in grads)
    _report("C9", "smoothness 1/4 and 4/9 exact; self multi-res loss 0")


def test_criterion_10_adjoint_identity():
    """Pixel pairing of the synthesized raster equals the fold-weighted
    spectral pairing with the adjoint, to 1e-10 relative, R in {4, 8, 16}."""
    rng = np.random.default_rng(10)
    worst = 0.0
    for res in (4, 8, 16):
        grid = sr.build_grid(2, res)
        for _ in range(20):
            field = sr.random_spectral_cotangent(grid, rng)
            g = rng.standard_normal((res, res, 1))
            lhs = float(np.sum(sr.inverse_transform(field).values * g))
            rhs = sr.spectral_inner(field, sr.adjoint_transform(g, grid))
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1.0))
    assert worst <= 1e-10, f"adjoint identity gap {worst:.3e}"
    _report("C10", f"worst rel gap {worst:.2e} over R in {{4, 8, 16}}")
