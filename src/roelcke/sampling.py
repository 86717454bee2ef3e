"""Seeded random generators for experiments.

Everything takes an explicit `random.Random` (Mersenne Twister); with a
fixed seed the generated objects, and therefore the experiment reports,
are reproducible across runs and platforms.  Permutations come from the
unbiased Fisher-Yates shuffle.  A small-deviation automorphism is a
cell-preserving one perturbed by swaps, each kept only while `u_deviation`,
the one definition of the deviation, stays under epsilon.  A Markov matrix is
the `convex_combination`, with normalized rational weights, of random
permutations' `koopman_matrix`es, which keeps it exactly doubly stochastic
without any iterative balancing.
"""
from __future__ import annotations

from fractions import Fraction
from random import Random

from roelcke import markov
from roelcke.markov import MarkovMatrix
from roelcke.space import (
    AtomSpace,
    Automorphism,
    Partition,
    compose,
    koopman_matrix,
    make_partition,
)
from roelcke.uniformity import u_deviation
from roelcke.wap import ObservableVector


def random_permutation(rng: Random, atom_count: int) -> Automorphism:
    markov._require_ints((atom_count,), "atom_count", 1)
    fwd = list(range(atom_count))
    rng.shuffle(fwd)
    return Automorphism(tuple(fwd))


def random_partition(rng: Random, atom_count: int, cell_count: int) -> Partition:
    """Uniformly shuffled labels with every cell guaranteed nonempty."""
    markov._require_ints((atom_count, cell_count), "atom_count and cell_count")
    if not 1 <= cell_count <= atom_count:
        raise ValueError(
            f"need 1 <= cell_count <= atom_count, got {cell_count} and {atom_count}"
        )
    labels = [1 + (x % cell_count) for x in range(atom_count)]
    rng.shuffle(labels)
    return make_partition(AtomSpace(atom_count), labels)


def random_cell_preserving(rng: Random, partition: Partition) -> Automorphism:
    """A random automorphism fixing every cell setwise (deviation zero)."""
    fwd = [0] * partition.space.atom_count
    for cell in partition.cells:
        targets = list(cell)
        rng.shuffle(targets)
        for x, y in zip(cell, targets):
            fwd[x] = y
    return Automorphism(tuple(fwd))


def random_small_deviation(
    rng: Random, partition: Partition, epsilon: Fraction
) -> Automorphism:
    """A random automorphism with u_deviation strictly below epsilon.

    Starts cell-preserving, then for each of a random number of attempts
    swaps the images of two random atoms, and undoes the swap unless
    u_deviation stays strictly under epsilon, which must be positive.
    """
    markov._require_positive(epsilon)
    N = partition.space.atom_count
    fwd = list(random_cell_preserving(rng, partition).forward)
    for _ in range(rng.randrange(0, N)):
        x, y = rng.randrange(N), rng.randrange(N)
        fwd[x], fwd[y] = fwd[y], fwd[x]  # still a permutation: trusted
        if not u_deviation(Automorphism._trusted(tuple(fwd)), partition) < epsilon:
            fwd[x], fwd[y] = fwd[y], fwd[x]
    result = Automorphism(tuple(fwd))
    assert u_deviation(result, partition) < epsilon
    return result


def random_close_pair(
    rng: Random, partition: Partition, epsilon: Fraction
) -> tuple[Automorphism, Automorphism]:
    """A pair (S, T) with w_distance strictly below epsilon / n^2.

    T is produced from S by small-deviation outer factors at half the
    target tolerance, which forces the coupling distance under it.  Epsilon
    must be positive.
    """
    markov._require_positive(epsilon)
    n = partition.cell_count
    half = Fraction(epsilon, 2 * n * n)
    S = random_permutation(rng, partition.space.atom_count)
    P = random_small_deviation(rng, partition, half)
    Q = random_small_deviation(rng, partition, half)
    T = compose(P, compose(S, Q))
    return S, T


def random_markov(rng: Random, size: int, terms: int = 4) -> MarkovMatrix:
    """Normalized rational-weight sum of random Koopman matrices."""
    markov._require_ints((size, terms), "size and terms", 1)
    perms = [random_permutation(rng, size) for _ in range(terms)]
    raw = [rng.randrange(1, 100) for _ in range(terms)]
    total = sum(raw)
    weights = [Fraction(w, total) for w in raw]
    return markov.convex_combination(weights, [koopman_matrix(T) for T in perms])


def random_observable(rng: Random, atom_count: int) -> ObservableVector:
    """Rational-valued observable with entries k/8, k in [-8, 8]."""
    markov._require_ints((atom_count,), "atom_count", 1)
    return ObservableVector(
        tuple(Fraction(rng.randrange(-8, 9), 8) for _ in range(atom_count))
    )
