"""Doubly stochastic matrices with exact rational entries.

Under equal atom masses the conditions "K1 = 1, K*1 = 1, K positive" reduce
to double stochasticity, so "Markov" and "doubly stochastic" coincide here.
With non-uniform masses the marginal conditions would become weighted
row/column sums; this module does not support that.

Matrices act on column vectors indexed by atoms; entry (y, x) is the weight
transported from atom x to atom y.

Entries are exact: each is an ``int`` (not a ``bool``) or a ``Fraction``,
and both constructors reject anything else (a coupling's marginals too), so
no float reaches the exact arithmetic.  `product` multiplies integers, not
fractions: it scales each factor to integer numerators over the lcm of its
denominators, takes integer dot products, and lets ``Fraction`` reduce each
result once.  The entries it returns equal those of the schoolbook
``Fraction`` product, in lowest terms, so equality stays structural.
Python ints cannot overflow, whatever the denominators.  The speed rests on
each factor's entries sharing a small common denominator (see `product`).

Every product, like every other closed operation here, still passes through
the validating constructor, which costs about as much as a 32x32 integer
product.  Skipping it needs a trusted constructor and integer storage, and
those come together (ROADMAP item 2).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import lcm
from operator import mul
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from roelcke.space import Partition

Rows = Sequence[Sequence[Fraction]]
_EXACT = {int, Fraction}
_PARSED = {int, Fraction, str}  # what `MarkovMatrix.from_rows` converts


def _require_exact(rows: Rows, what: str) -> None:
    """Raise unless every value in rows is exactly an int or a Fraction."""
    # type(), not isinstance: a bool is an int, but prints as True.
    if not set(map(type, chain.from_iterable(rows))) <= _EXACT:
        v = next(v for v in chain.from_iterable(rows) if type(v) not in _EXACT)
        raise ValueError(f"{what} {v!r} is not an int or a Fraction")


def check_markov(rows: Rows) -> str | None:
    """Exact test for nonnegativity and unit row and column sums: the first
    violated constraint, or None."""
    return _sums_violation(rows, (1,) * len(rows))


def _sums_violation(rows: Rows, sums: Sequence[Fraction]) -> str | None:
    """The first way rows fails to be square and nonnegative with every row
    and every column summing to `sums`, or None."""
    n = len(rows)
    for row in rows:
        if len(row) != n:
            return "matrix is not square"
    for y, row in enumerate(rows):
        for x, v in enumerate(row):
            if v < 0:
                return f"negative entry at ({y}, {x}): {v}"
    for y, row in enumerate(rows):
        s = sum(row)
        if s != sums[y]:
            return f"row {y} sums to {s}, expected {sums[y]}"
    for x in range(n):
        s = sum(rows[y][x] for y in range(n))
        if s != sums[x]:
            return f"column {x} sums to {s}, expected {sums[x]}"
    return None


@dataclass(frozen=True)
class MarkovMatrix:
    """An N x N doubly stochastic matrix of exact rationals, N >= 1."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("not a Markov matrix: size 0")
        _require_exact(self.entries, "not a Markov matrix: entry")
        violation = check_markov(self.entries)
        if violation:
            raise ValueError(f"not a Markov matrix: {violation}")

    @classmethod
    def from_rows(cls, rows: Rows) -> "MarkovMatrix":
        """Parse ints, Fractions and "p/q" strings; the constructor rejects
        any other value, floats and bools included."""
        return cls(tuple(
            tuple(Fraction(v) if type(v) in _PARSED else v for v in row)
            for row in rows
        ))

    @classmethod
    def identity(cls, size: int) -> "MarkovMatrix":
        return cls.from_rows(
            [[1 if x == y else 0 for x in range(size)] for y in range(size)]
        )

    @classmethod
    def uniform(cls, size: int) -> "MarkovMatrix":
        """The all-1/N matrix: projection onto the constant vectors."""
        if size < 1:
            raise ValueError(f"not a Markov matrix: size {size}")
        w = Fraction(1, size)
        return cls(tuple((w,) * size for _ in range(size)))

    @property
    def size(self) -> int:
        return len(self.entries)

    def to_strings(self) -> list[list[str]]:
        return [[str(v) for v in row] for row in self.entries]

    @cached_property
    def _idempotent(self) -> bool:
        """Exact K*K = K, proven once per object: the entries never change.
        The verdict lives in the instance ``__dict__``, which the frozen
        dataclass leaves writable; it is no field, so ``==`` ignores it."""
        return product(self, self).entries == self.entries


def product(K1: MarkovMatrix, K2: MarkovMatrix) -> MarkovMatrix:
    """Matrix product; Markov matrices are closed under it.

    K1's rows become integer numerators over D1, the lcm of K1's
    denominators, and K2's columns integer numerators over D2.  Entry
    (y, x) is then one integer dot product over D1 * D2, reduced by
    ``Fraction``, which equals the schoolbook sum of ``Fraction`` products.
    The result is still validated by the constructor: the kernel is not
    trusted to be closed on its own word.

    The gain assumes each factor's denominators share a small lcm, as they
    do for block averages (the lcm of the cell sizes) and for
    `random_markov` (one total per matrix).  Entries over many coprime
    denominators push D1 towards their product, and the integer kernel can
    then be slower than the schoolbook one, though its answer stays exact.
    """
    if K1.size != K2.size:
        raise ValueError(f"size mismatch: {K1.size} vs {K2.size}")
    rows, d1 = _scaled(K1.entries)
    cols, d2 = _scaled(tuple(zip(*K2.entries)))
    d = d1 * d2
    return MarkovMatrix(
        tuple(
            tuple(Fraction(sum(map(mul, row, col)), d) for col in cols) for row in rows
        )
    )


def _scaled(vectors: Rows) -> tuple[list[list[int]], int]:
    """Integer numerators of `vectors` over the lcm of their denominators."""
    d = lcm(*(v.denominator for vec in vectors for v in vec))
    return [[v.numerator * (d // v.denominator) for v in vec] for vec in vectors], d


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
    """An n x n nonnegative matrix whose rows and columns both sum to the
    marginals.

    Partition-level shadow of a Markov operator: entry (i, j) records how
    much mass moves from cell A_i to cell A_j.  A measure-preserving
    operator moves each cell's mass out and takes as much in, so one
    vector, the cell masses, serves as both margins.
    """

    entries: tuple[tuple[Fraction, ...], ...]
    marginals: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        _require_exact(
            (*self.entries, self.marginals), "not a coupling matrix: value"
        )
        if len(self.marginals) != len(self.entries):
            raise ValueError("marginal vector must match matrix size")
        if sum(self.marginals) != 1:
            raise ValueError("marginals must sum to 1")
        violation = _sums_violation(self.entries, self.marginals)
        if violation:
            raise ValueError(f"not a coupling matrix: {violation}")

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
    return CouplingMatrix(entries=tuple(rows), marginals=partition.masses)
