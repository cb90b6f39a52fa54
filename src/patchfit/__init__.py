"""Local Bezier surface patches from voxel occupancy grids.

Fits tensor-product polynomial patches to weighted point clouds by
alternating foot-point updates with closed-form control-point solves, and
selects the surface order automatically with an information criterion.
Includes point selection from binary occupancy grids and a simulation
harness for noise/size studies.
"""

from .bezier import (
    BezierSurface,
    basis_vector,
    bernstein,
    design_matrix,
    g_eval,
    g_value,
    surface_eval,
    surface_jacobian,
)
from .control import (
    CenteredCloud,
    center_cloud,
    regularized_objective,
    solve_control_points,
    translate_surface,
    weighted_objective,
)
from .errors import (
    DegenerateGeometryError,
    EmptySelectionError,
    FileFormatError,
    PatchFitError,
    PerimeterTruncationWarning,
    ProjectionError,
    RankDeficiencyError,
)
from .pipeline import FitIteration, FitSettings, fit_surface, init_uv, outer_iterations
from .projection import (
    BatchProjection,
    ProjectionResult,
    ProjectionSettings,
    project_all,
    project_nearest,
    project_point,
)
from .selection import FitModel, bic_statistic, mdl_select, param_count, sigma2_hat
from .simulate import (
    Dataset,
    EvalMetrics,
    ExperimentSpec,
    LatentSurface,
    StudyRow,
    TrialRecord,
    eval_fit,
    latent_eval,
    latent_height,
    make_dataset,
    random_rotation,
    run_study,
    run_trial,
)
from .voxel import (
    Kernel3,
    PointCloud,
    VoxelGrid,
    boundary_mask,
    convolve3,
    extract_cloud,
    laplacian_kernel,
    ones_kernel,
    select_points,
)

__version__ = "0.1.0"
