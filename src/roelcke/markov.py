"""Doubly stochastic matrices with exact rational entries.

Under equal atom masses the conditions "K1 = 1, K*1 = 1, K positive" reduce
to double stochasticity, so "Markov" and "doubly stochastic" coincide here.
With non-uniform masses the marginal conditions would become weighted
row/column sums; this module does not support that.

Matrices act on column vectors indexed by atoms; entry (y, x) is the weight
transported from atom x to atom y.

Entries are exact: each is an ``int`` (not a ``bool``) or a ``Fraction``,
and the constructor rejects anything else (a coupling's marginals too), so
no float reaches the exact arithmetic.  Each matrix also has one derived
integer view, built on first use and cached like its idempotency verdict:
D, the lcm of its denominators, and the numpy array A = D*K of integer
numerators.  `product` multiplies two such arrays, in ``int64`` where an
overflow bound is proved and in Python ints past it (see `product`), and
lets ``Fraction`` reduce each result once.  The entries it returns equal
those of the schoolbook ``Fraction`` product, in lowest terms, so equality
stays structural.  The speed rests on each factor's entries sharing a small
common denominator.

Every product, like every other closed operation here, still passes through
the validating constructor.  Both work on the support: `product` and
`convex_combination` build a ``Fraction`` only for a nonzero entry (every
zero is one shared object, in `space.koopman_matrix` too), and validation
reads each row once, skipping zeros (see `_sums_violation`).  In a traced
run of 32 x 32 products of `random_markov` matrices (each a
`convex_combination` of four Koopman matrices), 60 % zeros, a product took
0.58 ms per call and its validation 2.09 ms: validation is still most of
the cost.  Skipping it needs a trusted constructor and integer storage
(ROADMAP item 2).  Those wait for the benchmark to stop keeping a record per
item (item 1): until then a faster `order_check` reads there as a rise in
peak memory.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import lcm
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from roelcke.space import Partition

Rows = Sequence[Sequence[Fraction]]
_EXACT = {int, Fraction}
_INT64_MAX = 2**63 - 1
_ZERO = Fraction(0)  # every zero entry of a built matrix


def _dtype(bound: int) -> type:
    """Array type for integers in [0, bound]: int64 if bound fits, else int."""
    return np.int64 if bound <= _INT64_MAX else object


def _require_exact(rows: Rows, what: str) -> None:
    """Raise unless every value in rows is exactly an int or a Fraction."""
    # type(), not isinstance: a bool is an int, but prints as True.
    if not set(map(type, chain.from_iterable(rows))) <= _EXACT:
        v = next(v for v in chain.from_iterable(rows) if type(v) not in _EXACT)
        raise ValueError(f"{what} {v!r} is not an int or a Fraction")


def _require_positive(epsilon: Fraction) -> None:
    """Raise unless epsilon is an int (not a bool) or a Fraction, above 0."""
    if type(epsilon) not in _EXACT or not epsilon > 0:
        raise ValueError(f"epsilon must be positive and exact, got {epsilon}")


def _require_ints(values: Sequence[int], what: str, low: int | None = None) -> None:
    """Raise unless every value is exactly an int, and at least `low` if
    given.  For a bad value v the message is what.format(v) if `what` has a
    field, else "<what> <v!r> is not an int" or "<what> must be >= <low>"."""
    # type(), not isinstance: a bool is an int, but prints as True.
    if not set(map(type, values)) <= {int}:
        v = next(v for v in values if type(v) is not int)
        why = f"{what} {v!r} is not an int"
    elif low is not None and min(values, default=low) < low:
        v = min(values)
        why = f"{what} must be >= {low}, got {v}"
    else:
        return
    raise ValueError(what.format(v) if "{" in what else why)


def check_markov(rows: Rows) -> str | None:
    """Exact test for nonnegativity and unit row and column sums: the first
    violated constraint, or None."""
    return _sums_violation(rows, (1,) * len(rows))


def _sums_violation(rows: Rows, sums: Sequence[Fraction]) -> str | None:
    """The first way rows fails to be square and nonnegative with every row
    and every column summing to `sums`, or None.

    One pass reads each row once and only its support: a zero can be
    neither negative nor change a sum.  It stops at the first negative entry
    in row-major order; after it the first bad row, then the first bad
    column, is reported.  Each sum adds the same terms, left to right, as a
    scan of all entries, so every verdict and message is that scan's (an
    empty sum is 0 and prints as "0").  Skipping zeros pays where they are
    common, as in a product of two ``random_markov(32, terms=4)`` matrices
    (60 % zeros).  Where it buys nothing, on 32 x 32 matrices without
    zeros, the pass takes about 1.04 times as long as three scans (signs,
    rows, columns) that skip nothing.
    """
    n = len(rows)
    for row in rows:
        if len(row) != n:
            return "matrix is not square"
    row_sums, col_sums = [], [0] * n
    for y, row in enumerate(rows):
        s = 0
        for x, v in enumerate(row):
            if v:
                if v < 0:
                    return f"negative entry at ({y}, {x}): {v}"
                s += v
                col_sums[x] += v
        row_sums.append(s)
    for y, s in enumerate(row_sums):
        if s != sums[y]:
            return f"row {y} sums to {s}, expected {sums[y]}"
    for x, s in enumerate(col_sums):
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
    def identity(cls, size: int) -> "MarkovMatrix":
        _require_ints((size,), "not a Markov matrix: size {!r}", 1)
        one = Fraction(1)
        return cls(tuple(
            tuple(one if x == y else _ZERO for x in range(size)) for y in range(size)
        ))

    @classmethod
    def uniform(cls, size: int) -> "MarkovMatrix":
        """The all-1/N matrix: projection onto the constant vectors."""
        _require_ints((size,), "not a Markov matrix: size {!r}", 1)
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

    @cached_property
    def _numerators(self) -> tuple[np.ndarray, int]:
        """(A, D): D is the lcm of the denominators and A = D*K the integer
        numerators, each in [0, D].  Cached like `_idempotent`, and like it
        no field, so ``==``, ``hash`` and ``repr`` ignore it."""
        d = lcm(*(v.denominator for row in self.entries for v in row))
        rows = [[v.numerator * (d // v.denominator) for v in row]
                for row in self.entries]
        return np.array(rows, dtype=_dtype(d)), d


def product(K1: MarkovMatrix, K2: MarkovMatrix) -> MarkovMatrix:
    """Matrix product; Markov matrices are closed under it.

    With (A1, D1) and (A2, D2) the factors' cached integer views, entry
    (y, x) is (A1 @ A2)[y][x] / (D1 * D2), reduced by ``Fraction``, which
    equals the schoolbook sum of ``Fraction`` products.

    The arrays are multiplied as ``int64`` when D1 * D2 <= 2**63 - 1, and
    that cannot overflow: K1 and K2 are Markov, so A1 >= 0, each row of A1
    sums to D1 and every entry of A2 is at most D2, and every partial sum
    of (A1 @ A2)[y][x] lies in [0, D1 * D2], in any order of summation.  Past the bound they are
    multiplied as Python ints, which cannot overflow; one expression serves
    both.  Every zero entry is the one shared ``Fraction(0)``; a
    ``Fraction`` is built only where (A1 @ A2)[y][x] != 0.  The result is
    still validated by the constructor: the kernel is not trusted to be
    closed on its own word.

    The gain assumes each factor's denominators share a small lcm, as they
    do for block averages (the lcm of the cell sizes) and for
    `random_markov` (one total per matrix).  Entries over many coprime
    denominators push D1 towards their product, past the int64 bound, and
    the integer kernel can then be slower than the schoolbook one, though
    its answer stays exact.
    """
    if K1.size != K2.size:
        raise ValueError(f"size mismatch: {K1.size} vs {K2.size}")
    A1, d1 = K1._numerators
    A2, d2 = K2._numerators
    d = d1 * d2
    dtype = _dtype(d)
    rows = (A1.astype(dtype, copy=False) @ A2.astype(dtype, copy=False)).tolist()
    return MarkovMatrix(tuple(
        tuple(Fraction(v, d) if v else _ZERO for v in row) for row in rows
    ))


def convex_combination(
    weights: Sequence[Fraction], matrices: Sequence[MarkovMatrix]
) -> MarkovMatrix:
    """Rational convex combination; stays Markov.  Built on the support:
    only nonzero w * K[y][x] are added, and every zero is the shared one."""
    if len(weights) != len(matrices) or not matrices:
        raise ValueError("weights and matrices must be nonempty and aligned")
    if sum(weights) != 1 or any(w < 0 for w in weights):
        raise ValueError("weights must be nonnegative and sum to 1")
    n = matrices[0].size
    rows = [[_ZERO] * n for _ in range(n)]
    for w, m in zip(weights, matrices):
        if m.size != n:
            raise ValueError("matrix sizes differ")
        for out, row in zip(rows, m.entries):
            for x, v in enumerate(row):
                if v and w:
                    out[x] += w * v
    return MarkovMatrix(tuple(map(tuple, rows)))


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
