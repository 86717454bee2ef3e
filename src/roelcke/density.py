"""Constructive density of automorphisms among Markov operators.

Three pieces: exact realization of a partition-level coupling by a
permutation (row-major, order-preserving filling), rounding of an arbitrary
real coupling onto the (1/N)-grid with exact marginals, and the classical
convex decomposition of a doubly stochastic matrix into permutation
matrices via perfect matchings.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from roelcke.markov import CouplingMatrix, MarkovMatrix
from roelcke.space import Automorphism, Partition


class RealizationError(ValueError):
    """Raised when a coupling cannot be realized on the atom grid."""


#: Float slack in `round_to_grid`'s input entries (n times it in a sum).
GRID_TOLERANCE = 1e-9


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
    masses = partition.masses
    if C.row_marginals != masses or C.col_marginals != masses:
        raise RealizationError(
            f"marginals {C.row_marginals}/{C.col_marginals} do not match "
            f"cell masses {masses}"
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


def round_to_grid(
    D: Sequence[Sequence[float]],
    N: int,
    row_marginals: Sequence[Fraction],
    col_marginals: Sequence[Fraction],
) -> CouplingMatrix:
    """Round a real coupling onto the (1/N)-grid, keeping marginals exact.

    D may miss nonnegativity and its marginals by `GRID_TOLERANCE`.
    Largest-remainder apportionment per row makes the row sums exact; column
    repair then moves one unit at a time from the first surplus to the first
    deficit column, out of the lowest row that has one.  Max-entry error is
    at most n/N; entry accuracy is sacrificed, never the marginals, because
    realization requires them exact.
    """
    if N < 1:
        raise RealizationError(f"N must be >= 1, got {N}")
    n = len(D)
    for i, m in enumerate(row_marginals):
        if (m * N).denominator != 1:
            raise RealizationError(f"row marginal {i} not a multiple of 1/{N}")
    for j, m in enumerate(col_marginals):
        if (m * N).denominator != 1:
            raise RealizationError(f"column marginal {j} not a multiple of 1/{N}")
    for i, row in enumerate(D):
        if any(v < -GRID_TOLERANCE for v in row):
            raise RealizationError(f"negative entry in row {i}")
        if abs(sum(row) - float(row_marginals[i])) > GRID_TOLERANCE * n:
            raise RealizationError(
                f"row {i} sums to {sum(row)}, expected {float(row_marginals[i])}"
            )
    for j in range(n):
        s = sum(D[i][j] for i in range(n))
        if abs(s - float(col_marginals[j])) > GRID_TOLERANCE * n:
            raise RealizationError(
                f"column {j} sums to {s}, expected {float(col_marginals[j])}"
            )

    # Per-row largest-remainder apportionment of N*D[i] into integers.
    units = [[0] * n for _ in range(n)]
    for i in range(n):
        target = int(row_marginals[i] * N)
        scaled = [max(0.0, D[i][j] * N) for j in range(n)]
        floors = [math.floor(v) for v in scaled]
        short = target - sum(floors)
        if short < 0:
            # Floating overshoot; trim from the smallest remainders.
            order = sorted(range(n), key=lambda j: (scaled[j] - floors[j], j))
            for j in order:
                if short == 0:
                    break
                if floors[j] > 0:
                    floors[j] -= 1
                    short += 1
        else:
            order = sorted(
                range(n), key=lambda j: (-(scaled[j] - floors[j]), j)
            )
            for j in order[:short]:
                floors[j] += 1
        units[i] = floors

    # Column repair.  A surplus column sums to more than its target, so it
    # has a positive entry; each move cuts the total imbalance by 2.
    col_target = [int(m * N) for m in col_marginals]
    while True:
        excess = [sum(col) - t for col, t in zip(zip(*units), col_target)]
        surplus = [j for j, e in enumerate(excess) if e > 0]
        deficit = [j for j, e in enumerate(excess) if e < 0]
        if not (surplus and deficit):
            break
        js, jd = surplus[0], deficit[0]
        i = next(i for i in range(n) if units[i][js] > 0)
        units[i][js] -= 1
        units[i][jd] += 1
    if surplus or deficit:
        raise RealizationError(
            f"column repair stuck: surplus {surplus}, deficit {deficit}"
        )

    entries = tuple(
        tuple(Fraction(units[i][j], N) for j in range(n)) for i in range(n)
    )
    return CouplingMatrix(
        entries=entries,
        row_marginals=tuple(row_marginals),
        col_marginals=tuple(col_marginals),
    )


def _perfect_matching(support: list[list[bool]]) -> list[int] | None:
    """Row -> column perfect matching on a boolean support, or None.

    Augmenting-path search; columns are tried in increasing index order so
    the matching (and hence the decomposition) is deterministic.
    """
    n = len(support)
    match_col = [-1] * n  # column -> row

    def augment(r: int, seen: list[bool]) -> bool:
        for c in range(n):
            if support[r][c] and not seen[c]:
                seen[c] = True
                if match_col[c] == -1 or augment(match_col[c], seen):
                    match_col[c] = r
                    return True
        return False

    for r in range(n):
        if not augment(r, [False] * n):
            return None
    perm = [-1] * n
    for c, r in enumerate(match_col):
        perm[r] = c
    return perm


def birkhoff(D: MarkovMatrix) -> list[tuple[Fraction, tuple[int, ...]]]:
    """Decompose a doubly stochastic matrix into permutation matrices.

    Greedy: extract a permutation supported on the positive entries,
    subtract its minimal weight, repeat.  Exact rational arithmetic gives an
    exact reconstruction in at most (n-1)^2 + 1 terms.  Returned
    permutations are row -> column maps, i.e. term k contributes weight_k at
    entries (r, perm_k[r]).
    """
    n = D.size
    work = [list(row) for row in D.entries]
    terms: list[tuple[Fraction, tuple[int, ...]]] = []
    remaining = Fraction(1)
    while remaining > 0:
        support = [[v > 0 for v in row] for row in work]
        perm = _perfect_matching(support)
        if perm is None:
            # Cannot happen for an exactly doubly stochastic matrix.
            raise ArithmeticError(
                "no perfect matching on positive support; input is not "
                "doubly stochastic or arithmetic is broken"
            )
        weight = min(work[r][perm[r]] for r in range(n))
        for r in range(n):
            work[r][perm[r]] -= weight
        terms.append((weight, tuple(perm)))
        remaining -= weight
    return terms


def birkhoff_reconstruct(
    terms: Sequence[tuple[Fraction, Sequence[int]]], size: int
) -> list[list[Fraction]]:
    """Sum the weighted permutation matrices of a decomposition."""
    rows = [[Fraction(0)] * size for _ in range(size)]
    for weight, perm in terms:
        for r, c in enumerate(perm):
            rows[r][c] += weight
    return rows
