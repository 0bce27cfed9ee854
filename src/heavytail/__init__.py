"""Heavy-tail Lambert W x F_X distributions.

Generate heavy-tailed versions of standard distributions with the
bijective transform ``h_tau`` / ``w_tau``, evaluate their closed-form
cdf/pdf/quantile, estimate the transformation from data by maximum
likelihood or an iterative method of moments, and "Gaussianize"
heavy-tailed series for downstream analysis.
"""

from .distributions import (
    ChiSquared,
    Exponential,
    Gamma,
    Gaussian,
    LambertWDist,
    StudentT,
    Uniform,
    family_from_name,
    kurtosis_gaussian,
    kurtosis_student_t,
    moment_gaussian,
    tail_index,
    variance_factor,
)
from .estimation import (
    FitResult,
    LoglikParts,
    delta_gmm,
    grad_delta,
    igmm,
    igmm_double_tail,
    loglik,
    mle_delta_only,
    mle_joint,
    sample_moments,
    taylor_delta,
)
from .exceptions import (
    ConvergenceError,
    DataError,
    DomainError,
    HeavytailError,
    NotFittedError,
    SeriesParseError,
)
from .gaussianize import Gaussianizer
from .lambertw import BRANCH_POINT, lambert_w0
from .normality import anderson_darling
from .simulate import (
    CauchyDemo,
    ReplicationTable,
    StudyPlan,
    cauchy_demo,
    rlambertw,
    run_study,
)
from .transform import (
    TailParams,
    h_delta,
    h_tau,
    w_delta,
    w_tau,
)

__version__ = "0.1.0"

__all__ = [
    "BRANCH_POINT",
    "CauchyDemo",
    "ChiSquared",
    "ConvergenceError",
    "DataError",
    "DomainError",
    "Exponential",
    "FitResult",
    "Gamma",
    "Gaussian",
    "Gaussianizer",
    "HeavytailError",
    "LambertWDist",
    "LoglikParts",
    "NotFittedError",
    "ReplicationTable",
    "SeriesParseError",
    "StudentT",
    "StudyPlan",
    "TailParams",
    "Uniform",
    "anderson_darling",
    "cauchy_demo",
    "delta_gmm",
    "family_from_name",
    "grad_delta",
    "h_delta",
    "h_tau",
    "igmm",
    "igmm_double_tail",
    "kurtosis_gaussian",
    "kurtosis_student_t",
    "lambert_w0",
    "loglik",
    "mle_delta_only",
    "mle_joint",
    "moment_gaussian",
    "rlambertw",
    "run_study",
    "sample_moments",
    "tail_index",
    "taylor_delta",
    "variance_factor",
    "w_delta",
    "w_tau",
]
