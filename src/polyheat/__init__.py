"""polyheat: polynomial eigensystems and spectral heat kernels on the
interval, unit ball, and simplex, with empirical certification of Gaussian
bounds, doubling, Green's identities, chart correspondences, and spectral
multiplier localization."""

from .basis import (
    OrthonormalBasis,
    basis_from_json_obj,
    build_basis,
    christoffel_diag,
    eigenvalue,
    level_dimension,
    projection_kernel,
    verify_eigenrelation,
)
from .config import RunConfig, default_config, load_config
from .domains import (
    BALL,
    INTERVAL,
    SIMPLEX,
    DomainSpec,
    chart_lift,
    contains,
    distance,
    distance_many,
    distance_matrix,
    inverse_metric,
    metric_det,
    metric_tensor,
    perturbed_identity_det,
    rho_to_boundary,
    total_mass,
    weight_density,
    weight_log_gradient,
)
from .errors import (
    BoundarySingularityError,
    CapacityError,
    DomainError,
    ParameterError,
    PrecisionError,
)
from .heat import (HeatKernelEvaluator, MultiplierSpec, PointSet, TruncationPolicy,
                   default_t_min)
from .polynomials import (
    MultiPoly,
    apply_ball_operator,
    apply_jacobi_operator,
    apply_simplex_operator,
    poly_eval,
    poly_partial,
)
from .quadrature import QuadratureRule, build_quadrature, jacobi_recurrence
from .validation import (
    CorrespondenceReport,
    DoublingReport,
    FiniteSpeedReport,
    FluxReport,
    GaussBoundReport,
    GaussianBump,
    LocalizationReport,
    PolyField,
    boundary_flux_decay,
    chart_laplacian_check,
    doubling_scan,
    finite_speed_scan,
    gauss_ratio_scan,
    geodesic_ray,
    green_identity_check,
    interior_points,
    jacobi_simplex_correspondence,
    kernel_selfadjointness_residual,
    localization_check,
    operator_symmetry_residual,
    random_poly,
)
from .volumes import VolumeEstimate, VolumeSource, ball_volume, sample_measure, volume_surrogate

__version__ = "0.1.0"
