"""Differentiable spectral rasterization of simplex meshes.

Point clouds, line meshes, triangle meshes, and tetrahedral meshes turn
into raster grids through an exact per-mode Fourier transform, a Gaussian
anti-aliasing filter, and an inverse transform; raster-space cotangents
propagate analytically back to vertex coordinates and densities.
"""

__version__ = "0.1.0"

from .deform import (
    ControlRig,
    PoseQuat,
    inverse_square_weights,
    lbs_apply,
    lbs_jacobian,
    lbs_pullback,
    make_rig,
    quat_apply,
    quat_pullback,
)
from .gradients import (
    MeshGradient,
    backward_auxnode,
    backward_mesh,
    numeric_backward,
)
from .meshcore import (
    DEGENERACY_EPS,
    DegenerateElementError,
    MeshValidationError,
    SimplexMesh,
    content,
    distortion_factor,
    element_contents,
    load_mesh,
    save_mesh,
    signed_distortion,
    total_mass,
    validate,
)
from .nuft import (
    EPS_CONFLUENT,
    boundary_closure_defect,
    eval_S,
    forward_auxnode,
    forward_mesh,
)
from .optimizer import (
    FitDivergedError,
    FitProblem,
    FitResult,
    Schedule,
    TrajectoryPoint,
    fit,
    iou,
    make_objective,
)
from .pipeline import (
    RasterizeConfig,
    ensure_ccw,
    finite_difference_gradient,
    interior_angles,
    loss_mres,
    loss_smooth,
    polygon_boundary_mesh,
    polygon_fan_mesh,
    polygon_signed_area,
    polygon_subdivide,
    raster_loss,
    rasterize,
    rasterize_backward,
    rasterize_polygon,
)
from .sampling import (
    random_convex_polygon,
    random_mesh,
    random_raster_cotangent,
    random_simple_polygon,
    random_spectral_cotangent,
)
from .spectral import (
    GaussianFilter,
    Raster,
    SpectralField,
    SpectralGrid,
    adjoint_transform,
    apply_filter,
    build_grid,
    gaussian_filter,
    inverse_transform,
    load_raster,
    save_pgm,
    save_raster,
    spectral_inner,
)
