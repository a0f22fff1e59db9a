"""Stieltjes integration on the circle and its disk transforms.

The package computes generalized Riemann-Stieltjes integrals against rough
integrators (jumps, singular-continuous parts), the four boundary-to-disk
transforms built from the Poisson, conjugate Poisson, Schwartz and Cauchy
kernels, the principal-value conjugate integral on the boundary, and graded
checks that the disk fields actually reach their boundary limits along
non-tangential approach paths.
"""

from .accel import aitken_step, aitken_tail
from .core import (
    ApproachPath,
    BoundaryFunction,
    DiskPoint,
    DomainError,
    LimitEstimate,
    RSResult,
    RSStatus,
    reduce_angle,
)
from .kernels import (
    SingularityError,
    analytic_kernel,
    boundary_cot_kernel,
    cauchy_kernel,
    conj_poisson,
    conj_poisson_dt,
    poisson,
    poisson_dtheta,
)
from .limits import (
    LimitCheckReport,
    LimitCheckRow,
    analytic_limit_check,
    angular_limit,
    conjugate_limit_check,
    poisson_limit_check,
)
from .quadrature import (
    NonConvergentError,
    QuadratureOptions,
    by_parts_residual,
    require_converged,
    rs_integral,
)
from .singular import (
    JumpAtEvaluationPoint,
    PVResult,
    SingularConsistency,
    conjugate_truncation_trace,
    hilbert_stieltjes,
    singular_cauchy_consistency,
    singular_cauchy_stieltjes,
    truncated_conjugate_integral,
)
from .transforms import (
    cauchy_identity_residual,
    cauchy_stieltjes,
    conj_poisson_stieltjes,
    conjugacy_residual,
    duality_residual,
    harmonicity_diagnostics,
    poisson_stieltjes,
    schwartz_stieltjes,
)
from .zoo import catalog, make

__version__ = "0.1.0"

__all__ = [
    "ApproachPath",
    "BoundaryFunction",
    "DiskPoint",
    "DomainError",
    "JumpAtEvaluationPoint",
    "LimitCheckReport",
    "LimitCheckRow",
    "LimitEstimate",
    "NonConvergentError",
    "PVResult",
    "QuadratureOptions",
    "RSResult",
    "RSStatus",
    "SingularConsistency",
    "SingularityError",
    "aitken_step",
    "aitken_tail",
    "analytic_kernel",
    "analytic_limit_check",
    "angular_limit",
    "boundary_cot_kernel",
    "by_parts_residual",
    "catalog",
    "cauchy_identity_residual",
    "cauchy_kernel",
    "cauchy_stieltjes",
    "conj_poisson",
    "conj_poisson_dt",
    "conj_poisson_stieltjes",
    "conjugacy_residual",
    "conjugate_limit_check",
    "conjugate_truncation_trace",
    "duality_residual",
    "harmonicity_diagnostics",
    "hilbert_stieltjes",
    "make",
    "poisson",
    "poisson_dtheta",
    "poisson_limit_check",
    "poisson_stieltjes",
    "reduce_angle",
    "require_converged",
    "rs_integral",
    "schwartz_stieltjes",
    "singular_cauchy_consistency",
    "singular_cauchy_stieltjes",
    "truncated_conjugate_integral",
]
