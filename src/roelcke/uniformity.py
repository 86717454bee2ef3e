"""Entourage systems on the automorphism group, as exact predicates.

Three indexed families, all parametrized by a partition and a positive
rational tolerance:

* u_deviation  — how far an automorphism is from preserving every cell
  setwise (max over cells of the mass of A_i symmetric-difference its
  preimage); membership in the one-sided entourage is deviation < epsilon,
  strictly.
* w_distance   — max-entry distance between the joint distributions of two
  automorphisms; the pseudometric induced by the Markov compactification.
* roelcke_related — the two-sided relation: T factors exactly as P*S*Q with
  both outer factors of small deviation.

Deviations and distances are returned as exact values; all memberships are
strict comparisons.  A constructive total-boundedness witness (a finite net
of automorphisms covering everything in w_distance) completes the module.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterator

from roelcke import density, markov
from roelcke.space import Automorphism, Partition, compose, joint_counts


def u_deviation(T: Automorphism, partition: Partition) -> Fraction:
    """max over cells of mu(A_i symmetric-difference T^{-1}A_i).

    Read off the joint table c: T sends |A_i| - c_ii atoms of A_i out of
    A_i, and as many atoms from outside into it, since |T^{-1}A_i| = |A_i|.
    So the deviation is 2 * max_i (|A_i| - c_ii) / N, and deviation * N is
    even.  Zero exactly when T maps every cell onto itself.
    """
    counts = joint_counts(T, partition)
    moved = max(size - counts[i][i] for i, size in enumerate(partition.cell_sizes))
    return Fraction(2 * moved, partition.space.atom_count)


def w_distance(S: Automorphism, T: Automorphism, partition: Partition) -> Fraction:
    """Max-entry distance between the joint distributions of S and T.

    A pseudometric: distinct automorphisms that transport the partition
    identically are at distance zero.
    """
    N = partition.space.atom_count
    cs = joint_counts(S, partition)
    ct = joint_counts(T, partition)
    worst = max(
        abs(a - b) for ra, rb in zip(cs, ct) for a, b in zip(ra, rb)
    )
    return Fraction(worst, N)


def roelcke_related(
    S: Automorphism,
    T: Automorphism,
    P: Automorphism,
    Q: Automorphism,
    partition: Partition,
    epsilon: Fraction,
) -> bool:
    """Does (P, Q) witness the two-sided relation T = P*S*Q at level epsilon?

    Requires the product identity to hold atom-exactly and both outer
    factors to have deviation strictly below epsilon.
    """
    markov._require_positive(epsilon)
    if compose(P, compose(S, Q)).forward != T.forward:
        return False
    return (
        u_deviation(P, partition) < epsilon
        and u_deviation(Q, partition) < epsilon
    )


class NetInfeasibleError(ValueError):
    """Raised when the net's grid has more points than `NET_GRID_CAP`.

    The grid is never empty: the step divides every cell size, so the
    diagonal table, the identity's, is on it."""


def _grid_rows(total: int, caps: list[int], step: int) -> Iterator[list[int]]:
    """Rows of nonnegative multiples of `step` summing to `total`, under `caps`."""
    if len(caps) == 1:
        if total <= caps[0] and total % step == 0:
            yield [total]
        return
    # Values that leave more than the other caps can hold yield nothing.
    low = max(0, total - sum(caps[1:]))
    for v in range(low + -low % step, min(total, caps[0]) + 1, step):
        for rest in _grid_rows(total - v, caps[1:], step):
            yield [v, *rest]


def _enumerate_grid(
    row_rem: list[int], col_rem: list[int], step: int
) -> Iterator[list[list[int]]]:
    """Matrices of nonnegative multiples of `step` with given margins, lazily.

    Rows are enumerated in lexicographic order, first row outermost.
    """

    def fill(i: int, cols: list[int]) -> Iterator[list[list[int]]]:
        if i == len(row_rem):
            yield []
            return
        for row in _grid_rows(row_rem[i], cols, step):
            for rest in fill(i + 1, [c - v for c, v in zip(cols, row)]):
                yield [row, *rest]

    return fill(0, col_rem)


#: Most grid points `precompactness_net` enumerates; one more is an error.
NET_GRID_CAP = 100_000


def _net_step(partition: Partition, epsilon: Fraction) -> int:
    """The net's grid step s in atoms: the largest divisor of all cell sizes
    not exceeding epsilon*N (at least 1).  epsilon must be positive."""
    markov._require_positive(epsilon)
    g = math.gcd(*partition.cell_sizes)
    cap = max(1, math.floor(epsilon * partition.space.atom_count))
    return max(d for d in range(1, cap + 1) if g % d == 0)


def precompactness_net(partition: Partition, epsilon: Fraction) -> list[Automorphism]:
    """A finite net of automorphisms covering the whole group in w_distance.

    Enumerates joint count tables (margins the cell sizes) on the sub-grid
    of step s = `_net_step`, and realizes each exactly; more than
    `NET_GRID_CAP` tables is an error.  Theorem, for every number of cells:
    the net covers every automorphism T strictly within epsilon.  Controlled
    rounding of T's joint table onto the step-s grid (`density.round_to_grid`
    at N/s) moves each count to an adjacent multiple of s, so by at most
    s - 1 atoms, and keeps the margins, which are multiples of s; the result
    is one of the enumerated tables, and s - 1 < epsilon*N.
    """
    step = _net_step(partition, epsilon)
    sizes = list(partition.cell_sizes)

    grids = list(
        itertools.islice(_enumerate_grid(sizes, sizes, step), NET_GRID_CAP + 1)
    )
    if len(grids) > NET_GRID_CAP:
        raise NetInfeasibleError(f"grid has more points than the cap {NET_GRID_CAP}")
    return [density._realize_counts(counts, partition) for counts in grids]
