"""The public surface of the package, pinned: adding or removing a name
needs an edit here."""

import types

import simplexrast as sr

PUBLIC_NAMES = """
    ControlRig DEGENERACY_EPS DegenerateElementError EPS_CONFLUENT FitDivergedError
    FitProblem FitResult GaussianFilter MeshGradient MeshValidationError PoseQuat Raster
    RasterizeConfig Schedule SimplexMesh SpectralField SpectralGrid TrajectoryPoint
    adjoint_transform apply_filter backward_auxnode backward_mesh boundary_closure_defect
    build_grid content distortion_factor element_contents ensure_ccw eval_S
    finite_difference_gradient fit forward_auxnode forward_mesh gaussian_filter
    interior_angles inverse_square_weights inverse_transform iou lbs_apply lbs_jacobian
    lbs_pullback load_mesh load_raster loss_mres loss_smooth make_objective make_rig
    numeric_backward polygon_boundary_mesh polygon_fan_mesh polygon_signed_area
    polygon_subdivide quat_apply quat_pullback random_convex_polygon random_mesh
    random_raster_cotangent random_simple_polygon random_spectral_cotangent raster_loss
    rasterize rasterize_backward rasterize_polygon save_mesh save_pgm save_raster
    signed_distortion spectral_inner total_mass validate
""".split()


def test_public_names_pinned():
    names = sorted(name for name, value in vars(sr).items()
                   if not name.startswith("_")
                   and not isinstance(value, types.ModuleType))  # sr.nuft, sr.cli, ...
    assert names == PUBLIC_NAMES
