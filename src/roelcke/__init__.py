"""Exact finite-scale laboratory for the Roelcke uniformity on the group of
measure-preserving automorphisms and its Markov-operator compactification.

Everything runs on a space of N equal-mass atoms with exact rational
arithmetic; floating point appears only in spectral certificates and in the
averaged-power limits, each with a documented tolerance.
"""

from roelcke.space import (
    AtomSpace,
    Automorphism,
    Partition,
    compose,
    identity,
    inverse,
    joint_matrix,
    koopman_matrix,
    make_partition,
    swap,
)
from roelcke.markov import (
    CouplingMatrix,
    MarkovMatrix,
    check_markov,
    compress,
    convex_combination,
    product,
)
from roelcke.uniformity import (
    NetInfeasibleError,
    precompactness_net,
    roelcke_related,
    u_deviation,
    w_distance,
)
from roelcke.factorization import (
    FactorizationPreconditionError,
    FactorizationWitness,
    LEFT_FACTOR_CONSTANT,
    factorize,
    forward_bound_check,
)
from roelcke.density import RealizationError, birkhoff, realize, round_to_grid
from roelcke.wap import (
    ObservableVector,
    gram_psd_check,
    matrix_coefficient,
    roelcke_modulus_check,
)
from roelcke.semigroup import (
    IdempotentReport,
    block_average,
    cesaro_idempotent,
    cesaro_limit_exact,
    conjugate,
    invariant_idempotent_classify,
    is_idempotent,
    order_check,
    power_idempotent_exact,
)

__all__ = [
    "AtomSpace",
    "Automorphism",
    "CouplingMatrix",
    "FactorizationPreconditionError",
    "FactorizationWitness",
    "IdempotentReport",
    "LEFT_FACTOR_CONSTANT",
    "MarkovMatrix",
    "NetInfeasibleError",
    "ObservableVector",
    "Partition",
    "RealizationError",
    "birkhoff",
    "block_average",
    "cesaro_idempotent",
    "cesaro_limit_exact",
    "check_markov",
    "compose",
    "compress",
    "conjugate",
    "convex_combination",
    "factorize",
    "forward_bound_check",
    "gram_psd_check",
    "identity",
    "invariant_idempotent_classify",
    "inverse",
    "is_idempotent",
    "joint_matrix",
    "koopman_matrix",
    "make_partition",
    "matrix_coefficient",
    "power_idempotent_exact",
    "precompactness_net",
    "product",
    "realize",
    "roelcke_modulus_check",
    "roelcke_related",
    "round_to_grid",
    "swap",
    "u_deviation",
    "w_distance",
]
