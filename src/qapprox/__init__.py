"""q-Durrmeyer-Stancu operators, their limit operators and
statistical-convergence experiment tooling."""

__version__ = "0.1.0"

from .qcore import (  # noqa: F401
    DEFAULT_POLICY,
    NumericError,
    QApproxError,
    SeriesLimitError,
    TruncationPolicy,
    jackson_integral,
    q_binomial,
    q_factorial,
    q_integer,
)
from .basis import INFINITE, limit_basis  # noqa: F401
from .durrmeyer import (  # noqa: F401
    OperatorSpec,
    StancuParams,
    apply_finite,
    apply_limit,
    limit_basis_identity_sums,
)
from .moments import central_moments, finite_moment, limit_moment, verify_moments  # noqa: F401
from .statconv import (  # noqa: F401
    AlphaBetaPair,
    DensityQuery,
    WeightSequence,
    ab_stat_trajectory,
    empirical_density,
    korovkin_harness,
    qn_sequence,
    weighted_mean,
    weighted_trajectory,
    window,
)
from .analysis import (  # noqa: F401
    GridSpec,
    basis_inequality_check,
    fixed_point_check,
    modulus_of_continuity,
    q_to_one_experiment,
    rate_experiment,
    sup_norm_diff,
)
from .funcreg import RealFunction, builtin, from_expression, parse  # noqa: F401
