"""Numerical certification of proper scoring rules on positive cones.

Densities are unnormalised fields on the line, the plane, or a grid;
entropies are 1-homogeneous convex functionals of those fields; scores
are their subgradients. Everything downstream (divergences, directional
derivatives, Euler identities, propriety certificates) is evaluated on
frozen quadrature node sets so that repeated runs agree byte for byte.

Importing the package allocates and frees one 4 MB array, so that glibc
keeps up to 8 MB of freed heap (its malloc raises the mmap threshold to the
largest mmapped chunk freed and trims the heap top past twice that) and
node-set temporaries stop paging; elsewhere this is a no-op.
"""

import numpy as _np

_np.empty(1 << 19)

from .densities import (
    Bump,
    Combination,
    ConeReport,
    Field,
    GaussianDensity,
    GridDensity,
    GridField,
    GridInfo,
    GridPositive,
    HyvarinenGrowth,
    MixtureDensity,
    PowerLawDensity,
    QuadraticNorm,
    ShannonEnvelope,
    cone_check,
    cone_spec_from_config,
    density_from_config,
    require_cone,
)
from .pairing import NodeSet, QuadratureScheme, boundary_term, nodes_for, total_mass, weighted_norm
from .rules import (
    RULE_IDS,
    ModeIndicator,
    ModeSet,
    canonical_rule,
    default_cone_spec,
    divergence,
    entropy,
    euler_residual,
    expected_score,
    hyvarinen_divergence_direct,
    mode_pairing,
    mode_set,
    score_at,
    sup_subgradient,
)
from .convexity import (
    CaseResult,
    DerivativeEstimate,
    TwoSidedDerivative,
    VerificationReport,
    analytic_directional_derivative,
    certify_directional_derivatives,
    certify_sublinearity,
    entropy_line,
    gateaux_check,
    left_directional_derivative,
    right_directional_derivative,
    run_suite,
    two_sided_derivative,
)
from .boundary import (
    BlowupTrace,
    DyadicSequence,
    SupDichotomyReport,
    binary_shannon,
    boundary_blowup_trace,
    nowhere_dense_witness,
    sup_dichotomy_demo,
)
from .errors import (
    ConeMembershipError,
    ConescoreError,
    DivergenceError,
    DomainError,
    InfeasibleStepError,
    InvalidParameterError,
    ModeMeasureZeroError,
    NodeBudgetError,
    NoWitnessError,
    OneSidedOnlyError,
    UnsupportedFamilyError,
    ZeroDensityError,
    ZeroMassError,
)

__version__ = "0.1.0"
