"""Balancedness and projective-inducedness of canonical metrics.

The package decides, in exact rational arithmetic, whether the scaled
Bergman metrics on the bounded symmetric (Cartan) domains and the canonical
metrics on the Hartogs domains built over them are balanced or projectively
induced, and backs the symbolic verdicts with independent numeric evidence
(power-series immersions checked against closed forms, and epsilon-function
evaluation from closed-form Beta norms on the rank-one cases).
"""

__version__ = "0.1.0"

from .balanced import (
    BalancedVerdict,
    CorollaryReport,
    CorollaryRow,
    HartogsSpec,
    ScanRow,
    balanced_scan,
    cartan_balanced,
    corollary_scan,
    final_quantity,
    hartogs_balanced,
    hartogs_necessary,
    norm_chain_ratio,
)
from .calabi import (
    ImmersionCoefficients,
    PullbackCheck,
    ball_h_coefficients,
    build_immersion,
    multi_index_enumerate,
    verify_pullback,
)
from .catalog import (
    CartanDomain,
    Family,
    ball,
    enumerate_catalog,
    make_domain,
    parse_domain,
)
from .epsilon import (
    DiscGrid,
    EpsilonReport,
    WeightedBasisNorms,
    ball_monomial_norms,
    constancy_verdict,
    epsilon_ball,
    epsilon_hartogs_disc,
    epsilon_point_ball,
    epsilon_point_hartogs,
    hartogs_disc_norms,
)
from .errors import (
    BallNotAllowedError,
    CartanbalError,
    DomainParseError,
    InternalConsistencyError,
    InvalidSizeError,
    NonpositiveParameterError,
    PoleError,
    PreconditionError,
    SampleOutsideDomainError,
    TrivialSpaceError,
)
from .exactnum import (
    FactoredRational,
    LinearFactor,
    format_rational,
    parse_rational,
    rising,
)
from .moments import MomentRatio, block_lengths, moment_converges, moment_ratio
from .wallach import (
    WallachSet,
    cartan_projectively_induced,
    corollary_witness,
    hartogs_projective_failure,
    hartogs_projectively_induced,
    wallach_set,
)

__all__ = [
    "__version__",
    # catalog
    "Family",
    "CartanDomain",
    "make_domain",
    "ball",
    "parse_domain",
    "enumerate_catalog",
    # exact arithmetic
    "parse_rational",
    "format_rational",
    "rising",
    "LinearFactor",
    "FactoredRational",
    # wallach
    "WallachSet",
    "wallach_set",
    "cartan_projectively_induced",
    "hartogs_projective_failure",
    "hartogs_projectively_induced",
    "corollary_witness",
    # moments
    "MomentRatio",
    "block_lengths",
    "moment_ratio",
    "moment_converges",
    # balanced
    "HartogsSpec",
    "BalancedVerdict",
    "cartan_balanced",
    "hartogs_necessary",
    "final_quantity",
    "norm_chain_ratio",
    "hartogs_balanced",
    "ScanRow",
    "balanced_scan",
    "CorollaryRow",
    "CorollaryReport",
    "corollary_scan",
    # calabi
    "multi_index_enumerate",
    "ball_h_coefficients",
    "ImmersionCoefficients",
    "build_immersion",
    "PullbackCheck",
    "verify_pullback",
    # epsilon
    "WeightedBasisNorms",
    "EpsilonReport",
    "DiscGrid",
    "ball_monomial_norms",
    "epsilon_ball",
    "epsilon_point_ball",
    "hartogs_disc_norms",
    "epsilon_hartogs_disc",
    "epsilon_point_hartogs",
    "constancy_verdict",
    # errors
    "CartanbalError",
    "InvalidSizeError",
    "DomainParseError",
    "NonpositiveParameterError",
    "PoleError",
    "BallNotAllowedError",
    "PreconditionError",
    "InternalConsistencyError",
    "SampleOutsideDomainError",
    "TrivialSpaceError",
]
