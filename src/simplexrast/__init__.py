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
    lbs_apply,
    lbs_pullback,
    make_rig,
    quat_apply,
    quat_pullback,
)
from .meshcore import (
    MeshValidationError,
    SimplexMesh,
    boundary_closure_defect,
    content,
    load_mesh,
    save_mesh,
    validate,
)
from .nuft import (
    MeshGradient,
    backward_auxnode,
    backward_mesh,
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
    loss_mres,
    make_objective,
)
from .pipeline import (
    RasterizeConfig,
    finite_difference_gradient,
    loss_smooth,
    numeric_backward,
    polygon_boundary_mesh,
    polygon_signed_area,
    polygon_subdivide,
    rasterize,
    rasterize_backward,
    rasterize_polygon,
)
from .sampling import (
    random_convex_polygon,
    random_mesh,
    random_raster_cotangent,
    random_simple_polygon,
)
from .spectral import (
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
