"""Random integers weighted by multiplicative functions.

Exact sieving and sampling of the measure P(n) = alpha(n)/S(x) on [1, x],
extraction of prime-factor statistics, the permutation-side Ewens
machinery, and quantitative comparison against the limiting laws (normal,
Poisson-Dirichlet, gamma, geometric-type) and explicit asymptotic
predictors.
"""

from .arith import (
    CapacityError,
    FactorProfile,
    big_omega_table,
    build_spf,
    factor_matrix,
    factorize,
    largest_prime_table,
    nu_p_table,
    omega_table,
    primes_upto,
)
from .asympt import (
    B_constant,
    EwensAsymptotic,
    G_eval,
    PolySaddle,
    euler_constant,
    gamma_law_params,
    predict_S_ewens,
    predict_S_poly,
    predict_mean_omega_poly,
    sigma_leading_order,
    solve_saddle,
)
from .limitlaws import (
    DickmanSolution,
    beta_sample,
    dickman_rho,
    gamma_cdf,
    ks_distance,
    normal_cdf,
    residual_ratios,
)
from .permutations import (
    CycleWeights,
    PartitionFunctionTable,
    constant_weights,
    enumerate_Sn,
    partition_function,
    poly_weights,
    sample_cycle_types,
)
from .sampling import (
    ExactPmf,
    WeightedIntegerSampler,
    exact_pmf_from_mass,
    nu_p_limit_pmf,
    size_biased_prime,
    spectrum,
)
from .weights import (
    EwensRegime,
    MultiplicativeWeight,
    PolyRegime,
    build_weight_table,
    builtin_weight,
    catalog_weights,
    condition_I_residuals,
)

__version__ = "0.1.0"
