"""Structured covariance estimation for sparse activity detection.

Covers deterministic and Gaussian codebook construction, the rank-one-sum
measurement operator, non-negative least squares and relaxed maximum
likelihood estimation by coordinate descent, signed-kernel-condition
verification through an exactly computed robustness constant, the closed-form
robustness radii and antenna-count thresholds, and a reproducible experiment
harness.
"""

from .channel import (
    ChannelRealization,
    FadingVector,
    draw_sparse_fading,
    perturb_hermitian,
    sample_complex_gaussian,
    sample_covariance,
    simulate_measurements,
    stream,
)
from .codebook import (
    Codebook,
    MeasurementOperator,
    StackedRealMatrix,
    build_deterministic_codebook,
    build_gaussian_codebook,
    nth_prime,
)
from .config import ExperimentConfig, parse_config
from .errors import (
    CovactError,
    DomainError,
    EmptyLevelSet,
    InvalidInput,
    NoAdversary,
    NotConverged,
    NotPositiveDefinite,
    SetupFailed,
    StepRejected,
    TooLarge,
)
from .estimators import (
    DetectionResult,
    MlTrace,
    NnlsResult,
    coordinate_step,
    kkt_residual,
    ml_coordinate_descent,
    ml_coordinate_descent_batch,
    ml_objective,
    nnls_estimate,
    nnls_estimate_batch,
    sherman_morrison_update,
    threshold_detect,
)
from .gtuple import (
    PenaltyCheckReport,
    PenaltyTuple,
    check_sufficiently_convex,
    gsum_objective,
    level_set_bound_check,
    trace_logdet_tuple,
)
from .hermitian import (
    HermitianMatrix,
    HpdMatrix,
    hpd_inverse,
    hpd_sqrt,
    operator_norm,
)
from .lambertw import lambert_w
from .robustness import BoundInputs, delta_radius, empirical_concentration, k0_antennas
from .skc import SkcReport, adversarial_fading, tau_prime, tau_prime_curve

__version__ = "0.1.0"

__all__ = [
    "BoundInputs",
    "ChannelRealization",
    "Codebook",
    "CovactError",
    "DetectionResult",
    "DomainError",
    "EmptyLevelSet",
    "ExperimentConfig",
    "FadingVector",
    "HermitianMatrix",
    "HpdMatrix",
    "InvalidInput",
    "MeasurementOperator",
    "MlTrace",
    "NnlsResult",
    "NoAdversary",
    "NotConverged",
    "NotPositiveDefinite",
    "PenaltyCheckReport",
    "PenaltyTuple",
    "SetupFailed",
    "SkcReport",
    "StackedRealMatrix",
    "StepRejected",
    "TooLarge",
    "adversarial_fading",
    "build_deterministic_codebook",
    "build_gaussian_codebook",
    "check_sufficiently_convex",
    "coordinate_step",
    "delta_radius",
    "draw_sparse_fading",
    "empirical_concentration",
    "gsum_objective",
    "hpd_inverse",
    "hpd_sqrt",
    "k0_antennas",
    "kkt_residual",
    "lambert_w",
    "level_set_bound_check",
    "ml_coordinate_descent",
    "ml_coordinate_descent_batch",
    "ml_objective",
    "nnls_estimate",
    "nnls_estimate_batch",
    "nth_prime",
    "operator_norm",
    "parse_config",
    "perturb_hermitian",
    "sample_complex_gaussian",
    "sample_covariance",
    "sherman_morrison_update",
    "simulate_measurements",
    "stream",
    "tau_prime",
    "tau_prime_curve",
    "threshold_detect",
    "trace_logdet_tuple",
]
