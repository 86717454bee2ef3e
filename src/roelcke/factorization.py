"""Two-sided factorization of automorphisms close in coupling distance.

Forward direction: if T = P*S*Q with both outer factors of cell deviation
below epsilon, the joint distributions of S and T differ by less than
2*epsilon in every entry.  `forward_bound_check` evaluates the distance and
the bound.

Backward direction: given w_distance(S, T) < epsilon/n^2, `factorize`
builds R and P = T*R^{-1}*S^{-1} with T = P*S*R exactly and both factors of
small deviation.  The construction intersects the partition with its T- and
S-preimages (each map's cell routes: the atoms of A_i sent into A_j), pairs
off atoms cell-by-cell (order-preservingly, lowest index first, so witnesses
are reproducible), and routes the leftover atoms by a single
order-preserving bijection.  `factorize` checks the precondition and hands
the pair to one private builder.  R and P are bijections by construction
(the pairing and the leftover bijection together cover every atom once), so
the builder makes them without re-validating them.

P moves no paired atom across cells, so u_deviation(P) depends only on the
joint counts of S and T and on the target cells of the leftover atoms, in
atom order (the lemma in `exhaustive_left_factor_scan`).  The scan
therefore stores signature classes of permutations, not permutations, and
makes one builder call per class of pairs sharing those data.

Exact accounting at finite scale gives u_deviation(R) <= 2*leftover < 2eps
and the same bound for P: the left factor maps, for each cell pair (i, j),
the set S(R(B_ij)) into A_j, and the mass missing from those good sets per
cell is at most the leftover.  The shipped guarantee for both factors is
therefore the constant 2; `exhaustive_left_factor_scan` measures it
empirically on complete small cases.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from roelcke.markov import _require_positive
from roelcke.space import Automorphism, Partition, compose
from roelcke.uniformity import u_deviation, w_distance

#: The shipped bound on u_deviation/epsilon for both factors R and P of the
#: canonical witness, by the per-cell leftover argument above; for P,
#: exhaustive_left_factor_scan measures it (see tests).  Must never exceed 4.
LEFT_FACTOR_CONSTANT = Fraction(2)


class FactorizationPreconditionError(ValueError):
    """The input pair is not close enough in coupling distance."""

    def __init__(self, observed: Fraction, required: Fraction):
        self.observed = observed
        self.required = required
        super().__init__(
            f"w_distance {observed} is not below the required {required}"
        )


@dataclass(frozen=True)
class FactorizationWitness:
    """The data realizing T = P*S*R, with its exact accounting.

    cell_table rows are (i, j, |A_ij|, |A'_ij|, |B_ij|) where A_ij collects
    the atoms of A_i sent into A_j by T, A'_ij the ones sent by S, and B_ij
    the paired-off subset.
    """

    R: Automorphism
    P: Automorphism
    r_deviation: Fraction
    p_deviation: Fraction
    leftover_mass: Fraction
    cell_table: tuple[tuple[int, int, int, int, int], ...]


def forward_bound_check(
    S: Automorphism,
    P: Automorphism,
    Q: Automorphism,
    partition: Partition,
    epsilon: Fraction,
) -> tuple[Fraction, bool]:
    """Distance between S and P*S*Q, and whether it is below 2*epsilon.

    Requires both outer factors to have deviation strictly below epsilon;
    under that hypothesis the bound always holds.
    """
    _require_positive(epsilon)
    dp = u_deviation(P, partition)
    dq = u_deviation(Q, partition)
    if dp >= epsilon:
        raise ValueError(f"u_deviation(P) = {dp} is not below epsilon = {epsilon}")
    if dq >= epsilon:
        raise ValueError(f"u_deviation(Q) = {dq} is not below epsilon = {epsilon}")
    T = compose(P, compose(S, Q))
    distance = w_distance(S, T, partition)
    return distance, distance < 2 * epsilon


def _required(epsilon: Fraction, partition: Partition) -> Fraction:
    """The strict bound epsilon/n^2 on w_distance(S, T), n the cell count,
    under which the backward construction runs; epsilon must be positive."""
    _require_positive(epsilon)
    return Fraction(epsilon, partition.cell_count ** 2)


def _cell_routes(T: Automorphism, partition: Partition) -> list[list[int]]:
    """T's n^2 cell routes: entry i*n + j lists, ascending, the atoms of A_i
    sent into A_j.  Their lengths are joint_counts(T) read row by row."""
    n = partition.cell_count
    labels = partition.labels
    routes: list[list[int]] = [[] for _ in range(n * n)]
    for x, y in enumerate(T.forward):
        routes[(labels[x] - 1) * n + labels[y] - 1].append(x)
    return routes


def _build_witness(
    S: Automorphism, T: Automorphism, partition: Partition
) -> FactorizationWitness:
    """The canonical R and P with T = P*S*R, from both maps' cell routes."""
    N = partition.space.atom_count
    n = partition.cell_count
    forward_r = [-1] * N
    leftover_src: list[int] = []
    leftover_dst: list[int] = []
    table: list[tuple[int, int, int, int, int]] = []
    routes = zip(_cell_routes(T, partition), _cell_routes(S, partition))
    for k, (src, dst) in enumerate(routes):
        b = min(len(src), len(dst))
        for x, y in zip(src, dst):  # the first b of each
            forward_r[x] = y
        leftover_src.extend(src[b:])
        leftover_dst.extend(dst[b:])
        table.append((*divmod(k, n), len(src), len(dst), b))

    leftover_src.sort()
    leftover_dst.sort()
    for x, y in zip(leftover_src, leftover_dst):
        forward_r[x] = y

    R = Automorphism._trusted(tuple(forward_r))
    # P = T * R^{-1} * S^{-1}: for every x, P sends S(R(x)) to T(x).
    s, t = S.forward, T.forward
    forward_p = [-1] * N
    for x in range(N):
        forward_p[s[forward_r[x]]] = t[x]
    P = Automorphism._trusted(tuple(forward_p))

    return FactorizationWitness(
        R=R,
        P=P,
        r_deviation=u_deviation(R, partition),
        p_deviation=u_deviation(P, partition),
        leftover_mass=Fraction(len(leftover_src), N),
        cell_table=tuple(table),
    )


def factorize(
    S: Automorphism,
    T: Automorphism,
    partition: Partition,
    epsilon: Fraction,
) -> FactorizationWitness:
    """Construct R and P with T = P*S*R and both factors of small deviation.

    Precondition (strict): w_distance(S, T) < epsilon / n^2 with n the cell
    count.  Guarantees: the product identity holds atom-exactly,
    leftover_mass < epsilon, and u_deviation(R) <= 2*leftover_mass.
    """
    required = _required(epsilon, partition)
    observed = w_distance(S, T, partition)
    if not observed < required:
        raise FactorizationPreconditionError(observed, required)
    return _build_witness(S, T, partition)


def budget_identity(witness: FactorizationWitness) -> tuple[Fraction, Fraction]:
    """Both sides of the leftover identity, for exact comparison.

    Left: total leftover mass.  Right: sum over cell pairs of
    max(0, mu(A_ij) - mu(A'_ij)), with masses over the witness's N atoms.
    Equality follows from the min-cardinality pairing and is asserted in
    the suite.
    """
    lhs = witness.leftover_mass
    rhs = sum(
        (Fraction(max(0, a_count - ap_count), witness.R.atom_count)
         for _, _, a_count, ap_count, _ in witness.cell_table),
        Fraction(0),
    )
    return lhs, rhs


def exhaustive_left_factor_scan(
    partition: Partition, epsilon: Fraction
) -> tuple[Fraction, int]:
    """Max of u_deviation(P)/epsilon over all qualifying automorphism pairs.

    Exhausts every ordered pair (S, T) with w_distance(S, T) < epsilon/n^2
    for the given partition, measures the canonical construction's left
    factor, and returns (max ratio, number of pairs scanned).  Feasible up
    to 6 atoms, and refused above; epsilon must be positive.

    One walk over each permutation's atoms gives its joint counts and its
    signature: for each atom x, ascending, the route index k = i*n + j of
    (A_i containing x, A_j containing T(x)) and x's rank r among the
    earlier atoms of route k.  Permutations are grouped by joint counts,
    so the largest count gap between two groups is N*w_distance for every
    pair across them, and one comparison per pair of groups settles the
    precondition.

    Lemma: for a pair (S, T) from groups (ka, kb), u_deviation(P) depends
    only on the two leftover keys.  Route k pairs off its atoms of rank
    below b_k = min(ka_k, kb_k).  A paired atom x has S(R(x)) and T(x)
    both in A_j, so P = T*R^{-1}*S^{-1} moves no paired atom across cells.
    The leftover bijection pairs the sorted T-leftovers (rank >= b_k) with
    the sorted S-leftovers, so P's cell-to-cell counts, and with them its
    deviation, are fixed by the target cells j of each map's leftover
    atoms, in ascending atom order: that tuple is the map's leftover key.
    Every pair across the two groups is counted, but the builder runs once
    per class, on the first pair with a given (S key, T key).
    A signature fixes every atom's target cell, so a signature class is one
    permutation followed by each permutation of the atoms within every
    cell: exactly prod_j |A_j|! members, sharing joint counts and leftover
    keys.  A group stores each class as its first member only, and its size
    is derived, not counted: its number of classes times prod_j |A_j|!.  A
    key's first permutation is the first member of its class, so the
    builder gets a per-permutation scan's pairs, in order.  The walk over
    all N! permutations stays until the scan enumerates target-cell
    patterns.
    """
    N = partition.space.atom_count
    if N > 6:
        raise ValueError("the exhaustive scan is limited to 6 atoms")
    n = partition.cell_count
    required = _required(epsilon, partition)

    # An atom x sent to y lies on route row[x] + col[y] = i*n + j.
    row = [(lab - 1) * n for lab in partition.labels]
    col = [lab - 1 for lab in partition.labels]
    # Joint counts -> signature -> the class's first permutation.
    groups: dict[tuple[int, ...], dict] = {}
    for fwd in itertools.permutations(range(N)):
        counts = [0] * (n * n)
        signature = []
        for x, y in enumerate(fwd):
            k = row[x] + col[y]
            signature.append((k, counts[k]))
            counts[k] += 1
        groups.setdefault(tuple(counts), {}).setdefault(tuple(signature), fwd)
    class_size = math.prod(map(math.factorial, partition.cell_sizes))
    sizes = {k: len(g) * class_size for k, g in groups.items()}

    keys = list(groups)
    worst = Fraction(0)
    scanned = 0
    for ka in keys:
        for kb in keys:
            gap = max(abs(u - v) for u, v in zip(ka, kb))
            if not Fraction(gap, N) < required:
                continue
            scanned += sizes[ka] * sizes[kb]
            paired = [min(u, v) for u, v in zip(ka, kb)]
            s_reps = _class_representatives(groups[ka], paired, partition)
            t_reps = _class_representatives(groups[kb], paired, partition)
            for S in s_reps:
                for T in t_reps:
                    witness = _build_witness(S, T, partition)
                    if witness.p_deviation > worst:
                        worst = witness.p_deviation
    return worst / epsilon, scanned


def _class_representatives(
    group: dict, paired: list[int], partition: Partition
) -> list[Automorphism]:
    """The first member of `group` for each leftover key.

    `group` maps each signature, a (route index k, rank r) per atom, to its
    class's first member.  An atom is a leftover exactly when
    r >= paired[k]: its target cell j = k % n joins the key.
    """
    n = partition.cell_count
    reps: dict[tuple[int, ...], tuple[int, ...]] = {}
    for signature, fwd in group.items():
        reps.setdefault(tuple([k % n for k, r in signature if r >= paired[k]]), fwd)
    # Permutations are bijections by construction: no validation needed.
    return [Automorphism._trusted(fwd) for fwd in reps.values()]
