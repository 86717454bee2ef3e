"""Doubly stochastic matrices with exact rational entries.

Under equal atom masses the conditions "K1 = 1, K*1 = 1, K positive" reduce
to double stochasticity, so "Markov" and "doubly stochastic" coincide here.
With non-uniform masses the marginal conditions would become weighted
row/column sums; this module does not support that.

Matrices act on column vectors indexed by atoms; entry (y, x) is the weight
transported from atom x to atom y.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from roelcke.space import Partition

Rows = Sequence[Sequence[Fraction]]


@dataclass(frozen=True)
class MarkovCheck:
    """Result of the Markov predicate: ok flag plus first violated constraint."""

    ok: bool
    violation: str | None = None


def check_markov(rows: Rows) -> MarkovCheck:
    """Exact test for nonnegativity and unit row and column sums."""
    n = len(rows)
    for row in rows:
        if len(row) != n:
            return MarkovCheck(False, "matrix is not square")
    for y, row in enumerate(rows):
        for x, v in enumerate(row):
            if v < 0:
                return MarkovCheck(False, f"negative entry at ({y}, {x}): {v}")
    for y, row in enumerate(rows):
        s = sum(row)
        if s != 1:
            return MarkovCheck(False, f"row {y} sums to {s}")
    for x in range(n):
        s = sum(rows[y][x] for y in range(n))
        if s != 1:
            return MarkovCheck(False, f"column {x} sums to {s}")
    return MarkovCheck(True)


def is_markov(rows: Rows) -> bool:
    return check_markov(rows).ok


@dataclass(frozen=True)
class MarkovMatrix:
    """An N x N doubly stochastic matrix of exact rationals."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        check = check_markov(self.entries)
        if not check.ok:
            raise ValueError(f"not a Markov matrix: {check.violation}")

    @classmethod
    def from_rows(cls, rows: Rows) -> "MarkovMatrix":
        return cls(tuple(tuple(Fraction(v) for v in row) for row in rows))

    @classmethod
    def identity(cls, size: int) -> "MarkovMatrix":
        return cls.from_rows(
            [[1 if x == y else 0 for x in range(size)] for y in range(size)]
        )

    @classmethod
    def uniform(cls, size: int) -> "MarkovMatrix":
        """The all-1/N matrix: projection onto the constant vectors."""
        w = Fraction(1, size)
        return cls(tuple((w,) * size for _ in range(size)))

    @classmethod
    def from_permutation(cls, forward: Sequence[int]) -> "MarkovMatrix":
        """Permutation matrix U with U e_x = e_{forward[x]}."""
        size = len(forward)
        rows = [[Fraction(0)] * size for _ in range(size)]
        for x, y in enumerate(forward):
            rows[y][x] = Fraction(1)
        return cls(tuple(tuple(r) for r in rows))

    @property
    def size(self) -> int:
        return len(self.entries)

    def transpose(self) -> "MarkovMatrix":
        return MarkovMatrix(tuple(zip(*self.entries)))

    def to_strings(self) -> list[list[str]]:
        return [[str(v) for v in row] for row in self.entries]

    @classmethod
    def from_strings(cls, rows: Sequence[Sequence[str]]) -> "MarkovMatrix":
        return cls.from_rows([[Fraction(s) for s in row] for row in rows])


def product(K1: MarkovMatrix, K2: MarkovMatrix) -> MarkovMatrix:
    """Matrix product; Markov matrices are closed under it."""
    if K1.size != K2.size:
        raise ValueError(f"size mismatch: {K1.size} vs {K2.size}")
    a, b = K1.entries, K2.entries
    n = K1.size
    cols = list(zip(*b))
    rows = tuple(
        tuple(sum(a[y][k] * cols[x][k] for k in range(n)) for x in range(n))
        for y in range(n)
    )
    return MarkovMatrix(rows)


def convex_combination(
    weights: Sequence[Fraction], matrices: Sequence[MarkovMatrix]
) -> MarkovMatrix:
    """Rational convex combination; stays Markov."""
    if len(weights) != len(matrices) or not matrices:
        raise ValueError("weights and matrices must be nonempty and aligned")
    if sum(weights) != 1 or any(w < 0 for w in weights):
        raise ValueError("weights must be nonnegative and sum to 1")
    n = matrices[0].size
    rows = [[Fraction(0)] * n for _ in range(n)]
    for w, m in zip(weights, matrices):
        if m.size != n:
            raise ValueError("matrix sizes differ")
        for y in range(n):
            for x in range(n):
                rows[y][x] += w * m.entries[y][x]
    return MarkovMatrix(tuple(tuple(r) for r in rows))


@dataclass(frozen=True)
class CouplingMatrix:
    """An n x n nonnegative matrix with prescribed row and column marginals.

    Partition-level shadow of a Markov operator: entry (i, j) records how
    much mass moves from cell A_i to cell A_j.
    """

    entries: tuple[tuple[Fraction, ...], ...]
    row_marginals: tuple[Fraction, ...]
    col_marginals: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        n = len(self.entries)
        if len(self.row_marginals) != n or len(self.col_marginals) != n:
            raise ValueError("marginal vectors must match matrix size")
        if sum(self.row_marginals) != 1 or sum(self.col_marginals) != 1:
            raise ValueError("marginals must sum to 1")
        for i, row in enumerate(self.entries):
            if len(row) != n:
                raise ValueError("matrix is not square")
            if any(v < 0 for v in row):
                raise ValueError(f"negative entry in row {i}")
            if sum(row) != self.row_marginals[i]:
                raise ValueError(
                    f"row {i} sums to {sum(row)}, expected {self.row_marginals[i]}"
                )
        for j in range(n):
            s = sum(self.entries[i][j] for i in range(n))
            if s != self.col_marginals[j]:
                raise ValueError(
                    f"column {j} sums to {s}, expected {self.col_marginals[j]}"
                )

    @property
    def size(self) -> int:
        return len(self.entries)

    def to_strings(self) -> list[list[str]]:
        return [[str(v) for v in row] for row in self.entries]


def compress(K: MarkovMatrix, partition: "Partition") -> CouplingMatrix:
    """Partition-level image of K.

    Entry (i, j) = (1/N) * sum of K[y][x] over x in A_i, y in A_j.  The
    sign of the convention: compressing the permutation matrix of T gives
    exactly the joint distribution of the partition under T.
    """
    N = partition.space.atom_count
    if K.size != N:
        raise ValueError("matrix and partition live on different spaces")
    n = partition.cell_count
    cells = partition.cells
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            total = sum(K.entries[y][x] for x in cells[i] for y in cells[j])
            row.append(Fraction(total) / N)
        rows.append(tuple(row))
    masses = partition.masses
    return CouplingMatrix(
        entries=tuple(rows), row_marginals=masses, col_marginals=masses
    )
