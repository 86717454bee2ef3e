"""Finite measure algebra: equal-mass atoms, partitions, and automorphisms.

The model is a space of N atoms, each of exact mass 1/N.  Automorphisms are
permutations of the atom indices; every measure-theoretic quantity is an
exact `fractions.Fraction`.  The permutation-matrix (Koopman) picture and
the partition-level joint distribution live here as well.

Convention used throughout the package: for an automorphism T and a cell A,
the preimage T^{-1}A is the set {x : T(x) in A}.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from roelcke import markov


@dataclass(frozen=True)
class AtomSpace:
    """N atoms, each of measure 1/N; total measure exactly 1."""

    atom_count: int

    def __post_init__(self) -> None:
        markov._require_ints((self.atom_count,), "atom_count", 1)


@dataclass(frozen=True)
class Partition:
    """A labeling of the atoms into cell_count nonempty cells.

    Labels are 1-based ints (values in 1..cell_count) to match the text
    serialization; cell i (0-based) collects the atoms with label i+1.
    The labels determine everything else, cell_count included, and are
    validated on construction.
    """

    space: AtomSpace
    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        labels = self.labels
        markov._require_ints(labels, "label", 1)
        if len(labels) != self.space.atom_count:
            raise ValueError(
                f"labels has length {len(labels)}, expected {self.space.atom_count}"
            )
        seen = set(labels)
        for cell in range(1, max(labels) + 1):
            if cell not in seen:
                raise ValueError(f"cell {cell} is empty")

    @cached_property
    def cell_count(self) -> int:
        return max(self.labels)

    @cached_property
    def cells(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.cell_count)]
        for x, lab in enumerate(self.labels):
            out[lab - 1].append(x)
        return tuple(tuple(c) for c in out)

    @cached_property
    def cell_sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.cells)

    @cached_property
    def masses(self) -> tuple[Fraction, ...]:
        N = self.space.atom_count
        return tuple(Fraction(s, N) for s in self.cell_sizes)


def make_partition(space: AtomSpace, labels: Sequence[int]) -> Partition:
    """The partition of `space` with the given labels (see `Partition`)."""
    return Partition(space, tuple(labels))


@dataclass(frozen=True)
class Automorphism:
    """A measure-preserving automorphism: a permutation of atom indices,
    given as the tuple of images of 0..N-1, N >= 1."""

    forward: tuple[int, ...]

    def __post_init__(self) -> None:
        if type(self.forward) is not tuple:  # a list is unhashable
            raise ValueError(f"forward {self.forward!r} is not a tuple")
        markov._require_ints((len(self.forward),), "atom_count", 1)
        markov._require_ints(self.forward, "image")
        N = len(self.forward)
        seen = [False] * N
        for y in self.forward:
            if not 0 <= y < N or seen[y]:
                raise ValueError(f"forward is not a permutation of 0..{N - 1}")
            seen[y] = True

    @classmethod
    def _trusted(cls, forward: tuple[int, ...]) -> Automorphism:
        """Wrap a tuple already known to be a permutation, without validation."""
        T = object.__new__(cls)
        object.__setattr__(T, "forward", forward)
        return T

    @property
    def atom_count(self) -> int:
        return len(self.forward)

    def __call__(self, x: int) -> int:
        return self.forward[x]


def identity(atom_count: int) -> Automorphism:
    markov._require_ints((atom_count,), "atom_count", 1)
    return Automorphism(tuple(range(atom_count)))


def compose(S: Automorphism, T: Automorphism) -> Automorphism:
    """The automorphism x -> S(T(x))."""
    if S.atom_count != T.atom_count:
        raise ValueError(
            f"size mismatch: {S.atom_count} vs {T.atom_count}"
        )
    t = T.forward
    s = S.forward
    return Automorphism(tuple(s[t[x]] for x in range(len(t))))


def inverse(T: Automorphism) -> Automorphism:
    inv = [0] * T.atom_count
    for x, y in enumerate(T.forward):
        inv[y] = x
    return Automorphism(tuple(inv))


def swap(atom_count: int, a: int, b: int) -> Automorphism:
    """The transposition of atoms a and b, both in 0..atom_count-1."""
    markov._require_ints((atom_count, a, b), "atom_count and atoms")
    if not (0 <= a < atom_count and 0 <= b < atom_count):
        raise ValueError(f"atoms {a} and {b} are not both in 0..{atom_count - 1}")
    fwd = list(range(atom_count))
    fwd[a], fwd[b] = fwd[b], fwd[a]
    return Automorphism(tuple(fwd))


def koopman_matrix(T: Automorphism) -> markov.MarkovMatrix:
    """The permutation matrix U with U e_x = e_{T(x)}.

    Acting on observables, (Uf)(y) = f(T^{-1}(y)), so U represents
    composition with the inverse map.
    """
    N = T.atom_count
    rows = [[markov._ZERO] * N for _ in range(N)]
    for x, y in enumerate(T.forward):
        rows[y][x] = Fraction(1)
    return markov.MarkovMatrix(tuple(map(tuple, rows)))


def joint_counts(T: Automorphism, partition: Partition) -> list[list[int]]:
    """Atom counts #{x in A_i : T(x) in A_j}, the unnormalized joint table."""
    if T.atom_count != partition.space.atom_count:
        raise ValueError("automorphism and partition live on different spaces")
    n = partition.cell_count
    counts = [[0] * n for _ in range(n)]
    labels = partition.labels
    for x, y in enumerate(T.forward):
        counts[labels[x] - 1][labels[y] - 1] += 1
    return counts


def joint_matrix(T: Automorphism, partition: Partition) -> markov.CouplingMatrix:
    """Joint distribution of the partition under T.

    Entry (i, j) is the measure of A_i intersected with T^{-1}A_j, i.e.
    #{x in A_i : T(x) in A_j} / N.  Marginals are the cell masses.
    """
    N = partition.space.atom_count
    counts = joint_counts(T, partition)
    entries = tuple(
        tuple(Fraction(c, N) for c in row) for row in counts
    )
    return markov.CouplingMatrix(entries=entries, marginals=partition.masses)
