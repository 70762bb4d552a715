"""Harmonic-ball machinery: extended kernels, radial operators, weighted
quadrature, space norms, level sets and the verification harness."""

from .calculus import (
    DiffPair,
    GeneralSeriesAtom,
    HarmonicExpansion,
    KernelAtom,
    ZonalTerm,
    apply_D,
    apply_I,
    constant,
    evaluate,
    expansion_from_json,
    expansion_to_json,
    homogeneous_coefficient,
)
from .errors import AdmissibilityError, EvaluationFailure, NonConvergent, UnsupportedPair
from .kernel import (
    KernelCoefficient,
    KernelEval,
    gamma_coeff,
    gamma_ratio,
    kernel_eval,
    kernel_growth_exponent_probe,
)
from .quadrature import (
    BallQuadrature,
    ShellDecomposition,
    SphereRule,
    Verdict,
    integrate_ball,
    integrate_shells,
    shell_decomposition,
    sphere_rule,
    sup_norm_probe,
)
from .spaces import (
    BergmanBesov,
    Bloch,
    DecayVerdict,
    DistanceEstimate,
    Inclusion,
    LevelSetReport,
    LittleBloch,
    Membership,
    besov_norm,
    besov_norm_shells,
    bloch_norm,
    default_shell_grid,
    distance_estimate,
    inclusion_predicate,
    level_set,
    little_bloch_test,
    membership_kernel_atom,
    reproduce,
    reproducing_rule,
)
from .special import (
    WeightConstant,
    dim_spherical_harmonics,
    gegenbauer,
    pochhammer,
    weight_constant,
    zonal,
)

__version__ = "0.1.0"
