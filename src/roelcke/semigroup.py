"""Idempotent structure of the Markov matrix semigroup.

Covers: exact and float idempotency tests, block-averaging (conditional
expectation) idempotents, the two-sided order p <= q and the equivalence of
its one-sided conditions, least idempotents of singly generated closed
convex subsemigroups via averaged powers, the idempotent of the powers'
closure, conjugation by automorphisms, and the classification of
permutation-conjugation-invariant idempotents, which for every size is
exactly {identity, projection onto constants}, in closed form.  The zero
entries built here are `markov._ZERO`, the package's one zero; `conjugate`
only moves K's own entries.

Averaging runs in floating point with a stopping rule based on successive
window averages; the window average of powers K^{m+1}..K^{2m} converges
geometrically whenever K has a spectral gap and terminates exactly for
periodic K once the window length, a power of 2, is divisible by the
period; other periods run out the power budget.  One walk over supp K gives
both exact objects, for every doubly stochastic K: the averaged limit p
(block average over its classes, which names the float limit) and the
power idempotent E (over their cyclic subclasses), with p <= E.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import sympy  # unused; perfbench times this import until ROADMAP item 1

from roelcke.markov import (
    MarkovMatrix, _ZERO, _require_ints, _require_tolerance, product,
)
from roelcke.space import AtomSpace, Automorphism, Partition, inverse, make_partition


def is_idempotent(K: MarkovMatrix) -> bool:
    """Exact test K*K = K, proven once per matrix object and kept on it;
    an equal but distinct object is proven afresh."""
    return K._idempotent


def idempotency_defect(A: np.ndarray) -> float:
    """Max-entry norm of A@A - A, for float-mode candidates."""
    return float(np.max(np.abs(A @ A - A)))


def block_average(partition: Partition) -> MarkovMatrix:
    """Averaging over the cells of a partition: a Markov idempotent.

    Entry (y, x) is 1/|cell| when x and y share a cell, else 0.  Singleton
    cells give the identity; a single cell gives the projection onto the
    constant vectors.
    """
    N = partition.space.atom_count
    labels = partition.labels
    # One row per cell, shared by the cell's atoms, so a block average holds
    # O(cells * N) entry objects; sharing is safe because rows are tuples.
    cell_rows = []
    for label, size in enumerate(partition.cell_sizes, 1):
        w = Fraction(1, size)
        cell_rows.append(tuple(w if labels[x] == label else _ZERO for x in range(N)))
    return MarkovMatrix(tuple(cell_rows[label - 1] for label in labels))


@dataclass(frozen=True)
class OrderCheck:
    pq_eq_p: bool
    qp_eq_p: bool

    @property
    def equivalent(self) -> bool:
        return self.pq_eq_p == self.qp_eq_p

    @property
    def below(self) -> bool:
        """p <= q in the idempotent order."""
        return self.pq_eq_p and self.qp_eq_p


def order_check(p: MarkovMatrix, q: MarkovMatrix) -> OrderCheck:
    """Exact one-sided absorption tests pq = p and qp = p.

    Both inputs must be idempotent; for Markov idempotents the two
    conditions always agree, which is what makes the order well defined.
    """
    if not is_idempotent(p):
        raise ValueError("first argument is not idempotent")
    if not is_idempotent(q):
        raise ValueError("second argument is not idempotent")
    return OrderCheck(
        pq_eq_p=product(p, q).entries == p.entries,
        qp_eq_p=product(q, p).entries == p.entries,
    )


class CesaroConvergenceError(RuntimeError):
    def __init__(self, last_defect: float, iterations: int):
        self.last_defect = last_defect
        self.iterations = iterations
        super().__init__(
            f"no convergence after {iterations} powers "
            f"(last defect {last_defect:.3e}): K mixes slowly or has a period "
            "that is not a power of 2; cesaro_limit_exact gives the exact limit"
        )


@dataclass(frozen=True)
class IdempotentReport:
    """Detected limit idempotent of the averaged powers of one matrix."""

    matrix: np.ndarray
    idempotency_defect: float
    absorb_left: float  # max-entry norm of pK - p
    absorb_right: float  # max-entry norm of Kp - p
    classification: str  # identity | constants_projection | block_average | other
    iterations: int


def _support_classes(K: MarkovMatrix) -> tuple[list[int], list[int]]:
    """Labels of the classes of supp K and of their cyclic subclasses.

    One breadth-first walk over x -> y when K[y][x] != 0 from each atom not
    yet reached, in index order, labels the c-th root's class c; that class
    is closed and strongly connected (see `cesaro_limit_exact`).  Its period
    d is the gcd of level[x] + 1 - level[y] over its edges, and a cyclic
    subclass is its atoms of one level mod d, numbered in atom order.
    """
    N = K.size
    labels = [0] * N
    level = [0] * N
    period = {}
    for root in range(N):
        if labels[root]:
            continue
        c = labels[root] = max(labels) + 1
        walk = [root]
        for x in walk:  # grows as it goes: breadth first
            for y in range(N):
                if K.entries[y][x] and not labels[y]:
                    labels[y], level[y] = c, level[x] + 1
                    walk.append(y)
        period[c] = math.gcd(*(level[x] + 1 - level[y]
                               for x in walk for y in range(N) if K.entries[y][x]))
    ids: dict[tuple[int, int], int] = {}
    return labels, [ids.setdefault((c, level[x] % period[c]), len(ids) + 1)
                    for x, c in enumerate(labels)]


def cesaro_limit_exact(K: MarkovMatrix) -> MarkovMatrix:
    """Exact limit of the averaged powers (K + ... + K^m) / m, for any period.

    It is the block average over the classes of supp K, since on each class
    the averages tend to the uniform distribution there.  Those classes are
    its connected components: the uniform distribution is stationary for a
    doubly stochastic K, so no atom is transient, every communicating class
    is closed, and x reaches y exactly when y reaches x.
    """
    return block_average(make_partition(AtomSpace(K.size), _support_classes(K)[0]))


def power_idempotent_exact(K: MarkovMatrix) -> MarkovMatrix:
    """The one idempotent E among the limits of K's powers: the block average
    over the cyclic subclasses of supp K, which K shifts round each class.
    K^m E = E when m is a multiple of every class's period; p <= E for p
    the Cesaro limit."""
    return block_average(make_partition(AtomSpace(K.size), _support_classes(K)[1]))


#: Longest power of K that `cesaro_idempotent` averages before giving up.
CESARO_MAX_POWERS = 10**5


def cesaro_idempotent(K: MarkovMatrix, tol: float = 1e-8) -> IdempotentReport:
    """Least idempotent of the closed convex semigroup generated by K.

    The limit p satisfies pK = Kp = p, so it lies below every idempotent of
    that semigroup.  The powers alone can miss p: a 2-cycle's are {K, I},
    while p is the all-1/2 matrix.

    Averages consecutive powers, in floating point, over doubling windows
    until two successive window averages agree to tol and the limit
    candidate is idempotent and absorbing to tol.  Raises
    `CesaroConvergenceError` once the next window would pass power
    `CESARO_MAX_POWERS`.  The limit lies below `power_idempotent_exact(K)`,
    the one idempotent among the limits of the powers.  tol must be an
    int or a float, positive and finite.

    The classification names `cesaro_limit_exact(K)` by the classes of supp
    K: `identity` (all singletons), `constants_projection` (one class) or
    `block_average`; it is `other` when the window is max(tol, 1e-6) or
    more from that exact limit in some entry.
    """
    _require_tolerance(tol)
    A = np.array([[float(v) for v in row] for row in K.entries])

    power = A.copy()  # K^k
    cum = A.copy()  # sum of K^1..K^k
    k = 1
    m = 1
    cum_at_m = cum.copy()
    prev_window = None
    last_defect = float("inf")
    while 2 * m <= CESARO_MAX_POWERS:
        while k < 2 * m:
            power = power @ A
            cum = cum + power
            k += 1
        window = (cum - cum_at_m) / m
        if prev_window is not None:
            drift = float(np.max(np.abs(window - prev_window)))
            defect = idempotency_defect(window)
            left = float(np.max(np.abs(window @ A - window)))
            right = float(np.max(np.abs(A @ window - window)))
            last_defect = defect
            if drift < tol and defect < tol and left < tol and right < tol:
                labels = np.array(_support_classes(K)[0])
                same = labels[:, None] == labels
                exact = same / same.sum(axis=1, keepdims=True)
                if float(np.max(np.abs(window - exact))) >= max(tol, 1e-6):
                    classification = "other"
                elif labels.max() == len(labels):
                    classification = "identity"
                elif labels.max() == 1:
                    classification = "constants_projection"
                else:
                    classification = "block_average"
                return IdempotentReport(
                    matrix=window,
                    idempotency_defect=defect,
                    absorb_left=left,
                    absorb_right=right,
                    classification=classification,
                    iterations=k,
                )
        prev_window = window
        cum_at_m = cum.copy()
        m *= 2
    raise CesaroConvergenceError(last_defect, k)


def conjugate(K: MarkovMatrix, g: Automorphism) -> MarkovMatrix:
    """U_g K U_g^{-1}: relabels both indices of K by g."""
    if g.atom_count != K.size:
        raise ValueError("size mismatch")
    inv = inverse(g).forward  # entry (g(y), g(x)) is K's (y, x)
    return MarkovMatrix(tuple(tuple(K.entries[y][x] for x in inv) for y in inv))


def _pair_orbits(N: int) -> list[list[tuple[int, int]]]:
    """Orbits of index pairs under the transposition (0 1) and the N-cycle.

    These two generate the full symmetric group, so invariance under them
    is invariance under every permutation.
    """
    gens = []
    t = list(range(N))
    if N >= 2:
        t[0], t[1] = t[1], t[0]
    gens.append(t)
    gens.append([(x + 1) % N for x in range(N)])

    seen = [[False] * N for _ in range(N)]
    orbits = []
    for y0 in range(N):
        for x0 in range(N):
            if seen[y0][x0]:
                continue
            orbit = []
            stack = [(y0, x0)]
            seen[y0][x0] = True
            while stack:
                y, x = stack.pop()
                orbit.append((y, x))
                for g in gens:
                    ny, nx = g[y], g[x]
                    if not seen[ny][nx]:
                        seen[ny][nx] = True
                        stack.append((ny, nx))
            orbits.append(orbit)
    return orbits


#: Largest atom count `invariant_idempotent_classify` accepts.
CLASSIFY_MAX_ATOMS = 64


def invariant_idempotent_classify(N: int) -> list[MarkovMatrix]:
    """All Markov idempotents fixed by conjugation with every permutation:
    [identity, all-1/N], for 2 <= N <= CLASSIFY_MAX_ATOMS.

    Invariance makes K constant on the index-pair orbits, which S_N, being
    2-transitive, cuts into two: a on the diagonal, b off it.  A permutation
    taking (y, x) to (y', x') takes row y, column x and entry (y, x) of
    K^2 - K to row y', column x' and entry (y', x'), so three equations at
    each orbit's first pair solve the whole system.  Row and column sums
    give a + (N-1)b = 1 at both orbits.  With a = 1 - (N-1)b,
      diagonal:  a^2 + (N-1)b^2 - a = (N-1)b(Nb - 1)
      off it:    2ab + (N-2)b^2 - b = b(1 - Nb)
    so b(1 - Nb) = 0 as N > 1: b = 0 gives I and b = 1/N the all-1/N
    matrix, both nonnegative.  Each root is built through the validating
    constructor and proven idempotent; a failed proof raises.
    """
    regime = f"regime is 2 <= N <= {CLASSIFY_MAX_ATOMS}, got {{!r}}"
    _require_ints((N,), regime, 2)
    if N > CLASSIFY_MAX_ATOMS:
        raise ValueError(regime.format(N))
    orbits = _pair_orbits(N)
    if [{y == x for y, x in orbit} for orbit in orbits] != [{True}, {False}]:
        raise RuntimeError(f"pair orbits at N={N} are not the diagonal and the rest")
    out = []
    for b in (_ZERO, Fraction(1, N)):
        rows = [[None] * N for _ in range(N)]
        for orbit, v in zip(orbits, (1 - (N - 1) * b, b)):
            for y, x in orbit:
                rows[y][x] = v
        candidate = MarkovMatrix(tuple(map(tuple, rows)))
        if not is_idempotent(candidate):
            raise RuntimeError(f"root b={b} at N={N} is not idempotent")
        out.append(candidate)
    return out
