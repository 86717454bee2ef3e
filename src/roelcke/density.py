"""Constructive density of automorphisms among Markov operators.

Three pieces: exact realization of a partition-level coupling by a
permutation (row-major, order-preserving filling), controlled rounding of an
exact coupling onto the (1/N)-grid (every entry to an adjacent multiple of
1/N, so within 1/N, with the marginals exact), and Birkhoff's convex
decomposition of a doubly stochastic matrix via perfect matchings into
weighted automorphisms, whose `koopman_matrix`es `convex_combination` sums
back to the matrix.  Rounding and then realizing approximates any Markov
operator's partition image by an automorphism's joint distribution.
"""
from __future__ import annotations

import math
from fractions import Fraction

from roelcke.markov import CouplingMatrix, MarkovMatrix, _require_ints
from roelcke.space import Automorphism, Partition, inverse


class RealizationError(ValueError):
    """Raised when a coupling cannot be realized on the atom grid."""


def realize(C: CouplingMatrix, partition: Partition) -> Automorphism:
    """Build a permutation whose joint distribution equals C exactly.

    N is the partition's atom count.  Requires every entry of C to be a
    multiple of 1/N and the marginals of C to equal the cell masses; C's
    counts N*C[i][j] are then filled in by `_realize_counts`.
    """
    N = partition.space.atom_count
    n = partition.cell_count
    if C.size != n:
        raise RealizationError("coupling size does not match cell count")
    if C.marginals != partition.masses:
        raise RealizationError(
            f"marginals {C.marginals} do not match cell masses {partition.masses}"
        )
    counts = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            scaled = C.entries[i][j] * N
            if scaled.denominator != 1:
                raise RealizationError(
                    f"entry ({i}, {j}) = {C.entries[i][j]} is not a multiple of 1/{N}"
                )
            counts[i][j] = int(scaled)
    return _realize_counts(counts, partition)


def _realize_counts(counts: list[list[int]], partition: Partition) -> Automorphism:
    """The permutation with joint count table `counts` (margins |A_i|).

    For each (i, j) in row-major order, the next counts[i][j] unassigned
    atoms of A_i go, order-preservingly, to the next unassigned atoms of A_j.
    """
    n = partition.cell_count
    cells = partition.cells
    src_pos = [0] * n  # next unassigned source atom within each cell
    dst_pos = [0] * n  # next unassigned target atom within each cell
    forward = [-1] * partition.space.atom_count
    for i in range(n):
        for j in range(n):
            k = counts[i][j]
            srcs = cells[i][src_pos[i] : src_pos[i] + k]
            dsts = cells[j][dst_pos[j] : dst_pos[j] + k]
            src_pos[i] += k
            dst_pos[j] += k
            for x, y in zip(srcs, dsts):
                forward[x] = y
    return Automorphism(tuple(forward))


def round_to_grid(C: CouplingMatrix, N: int) -> CouplingMatrix:
    """Controlled rounding of C onto the (1/N)-grid (Cox 1987).

    Theorem, for every size n: every entry moves to an adjacent multiple of
    1/N, so its error is below 1/N, and the marginals stay exact.  Floor
    N*C; each row and column then falls short by the sum of its remainders,
    an integer.  The remainders are a fractional way to raise cells with a
    nonzero remainder by at most one unit each so that every shortfall is
    met, so an integral way exists (flow integrality), and
    `_zero_one_table` finds it.  N must be an int; RealizationError unless
    N >= 1 and the marginals are multiples of 1/N.
    """
    _require_ints((N,), "N")
    if N < 1:
        raise RealizationError(f"N must be >= 1, got {N}")
    for m in C.marginals:
        if (m * N).denominator != 1:
            raise RealizationError(f"marginal {m} is not a multiple of 1/{N}")
    scaled = [[v * N for v in row] for row in C.entries]
    floors = [[math.floor(v) for v in row] for row in scaled]
    up = _zero_one_table(
        [[v != f for v, f in zip(*pair)] for pair in zip(scaled, floors)],
        [int(m * N) - sum(row) for m, row in zip(C.marginals, floors)],
        [int(m * N) - sum(col) for m, col in zip(C.marginals, zip(*floors))],
    )
    return CouplingMatrix(
        entries=tuple(
            tuple(Fraction(f + u, N) for f, u in zip(*pair))
            for pair in zip(floors, up)
        ),
        marginals=C.marginals,
    )


def _zero_one_table(
    support: list[list[bool]], row_sums: list[int], col_sums: list[int]
) -> list[list[int]]:
    """A 0/1 table on `support` with the given row and column sums.

    With all sums 1 it is a perfect matching.  One augmenting path per
    unit, columns tried in increasing order, so the table is deterministic:
    a full column makes room by moving one of its units to another column.
    ArithmeticError when no such table exists, which no exact caller meets.
    """
    n = len(support)
    holders: list[list[int]] = [[] for _ in range(n)]  # column -> its rows

    def augment(i: int, seen: list[bool]) -> bool:
        for j in range(n):
            if support[i][j] and not seen[j] and i not in holders[j]:
                seen[j] = True
                if len(holders[j]) < col_sums[j]:
                    holders[j].append(i)
                    return True
                for slot, k in enumerate(holders[j]):
                    if augment(k, seen):
                        holders[j][slot] = i
                        return True
        return False

    for i in range(n):
        for _ in range(row_sums[i]):
            if not augment(i, [False] * n):
                raise ArithmeticError(f"no 0/1 table on the support: row {i} stuck")
    table = [[0] * n for _ in range(n)]
    for j, rows in enumerate(holders):
        for i in rows:
            table[i][j] = 1
    return table


def birkhoff(D: MarkovMatrix) -> list[tuple[Fraction, Automorphism]]:
    """Decompose a doubly stochastic matrix into Koopman matrices.

    Greedy: extract a permutation supported on the positive entries,
    subtract its minimal weight, repeat.  Exact rational arithmetic gives an
    exact reconstruction in at most (n-1)^2 + 1 terms.  Term k is
    (weight_k, T_k) with D = sum of weight_k * koopman_matrix(T_k): the
    matching is the row -> column map T_k^{-1}, since T_k(x) is the row that
    holds column x's entry.
    """
    n = D.size
    work = [list(row) for row in D.entries]
    terms: list[tuple[Fraction, Automorphism]] = []
    remaining = Fraction(1)
    while remaining > 0:
        support = [[v > 0 for v in row] for row in work]
        perm = [row.index(1) for row in _zero_one_table(support, [1] * n, [1] * n)]
        weight = min(work[r][perm[r]] for r in range(n))
        for r in range(n):
            work[r][perm[r]] -= weight
        terms.append((weight, inverse(Automorphism(tuple(perm)))))
        remaining -= weight
    return terms
