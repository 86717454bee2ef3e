"""Matrix-coefficient functions K -> <Kf, g> and their certificates.

These coefficient functions are positive definite on the group and
uniformly continuous for the two-sided entourages; the two facts are
certified here by the exact group law, which makes the coefficient matrix
a Gram matrix, and an explicit modulus inequality.  They also separate
distinct Markov operators, but that needs no search: <K 1_x, 1_y> for the
indicators of atoms x and y is K's entry (y, x) over N, so matrix equality
decides it.  Observable values are exact (ints or Fractions), so every
inner product and coefficient is an exact rational; only the Gram spectrum
and the modulus run in floating point, the modulus with a documented
tolerance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from roelcke.markov import MarkovMatrix, _require_exact
from roelcke.space import Automorphism, compose, inverse

#: Slack for the uniform-continuity modulus inequality, checked in floats.
MODULUS_TOLERANCE = 1e-12


@dataclass(frozen=True)
class ObservableVector:
    """One exact value (an int or a Fraction) per atom; inner products are
    weighted by the atom mass 1/N."""

    values: tuple

    def __post_init__(self):
        if not self.values:
            raise ValueError("an observable needs at least one atom")
        _require_exact((self.values,), "observable value")

    @property
    def atom_count(self) -> int:
        return len(self.values)

    def inner(self, other: "ObservableVector") -> Fraction:
        if self.atom_count != other.atom_count:
            raise ValueError("dimension mismatch")
        total = sum(a * b for a, b in zip(self.values, other.values))
        return Fraction(total, self.atom_count)

    def translate(self, g: Automorphism) -> "ObservableVector":
        """The composition with g^{-1}: value at g(x) is the value at x."""
        if g.atom_count != self.atom_count:
            raise ValueError("dimension mismatch")
        out = [None] * self.atom_count
        for x, y in enumerate(g.forward):
            out[y] = self.values[x]
        return ObservableVector(tuple(out))


def matrix_coefficient(K: MarkovMatrix, f: ObservableVector, g: ObservableVector):
    """The exact <Kf, g>, with the mass-weighted inner product."""
    N = K.size
    if f.atom_count != N:
        raise ValueError("dimension mismatch")
    kf = tuple(sum(K.entries[y][x] * f.values[x] for x in range(N)) for y in range(N))
    return ObservableVector(kf).inner(g)


def gram_psd_check(
    f: ObservableVector, elements: Sequence[Automorphism]
) -> tuple[float, bool]:
    """Minimum eigenvalue, in floats, of G[a][b] = <U_{a^{-1}b} f, f>, and
    the exact verdict that G is PSD: the group law G[a][b] = <U_a f, U_b f>
    for every pair, through `translate`, `compose`, `inverse` and `inner`,
    makes G a Gram matrix.  A float Gram matrix of translates is PSD even
    when `translate` is no unitary action.
    """
    if not elements:
        raise ValueError("need at least one group element")
    translates = [f.translate(g) for g in elements]
    vecs = np.array([[float(v) for v in t.values] for t in translates])
    gram = vecs @ vecs.T / f.atom_count
    min_eig = float(np.linalg.eigvalsh(gram)[0])
    return min_eig, all(
        f.translate(compose(inverse(a), b)).inner(f) == ta.inner(tb)
        for a, ta in zip(elements, translates)
        for b, tb in zip(elements, translates)
    )


@dataclass(frozen=True)
class ModulusCheck:
    lhs: float
    rhs: float
    ok: bool


def roelcke_modulus_check(
    P: Automorphism,
    S: Automorphism,
    Q: Automorphism,
    f: ObservableVector,
) -> ModulusCheck:
    """Two-sided uniform continuity of the coefficient function of f.

    Compares |<U_{PSQ} f, f> - <U_S f, f>| against
    ||f|| * (||U_Q f - f|| + ||U_{P^{-1}} f - f||); Cauchy-Schwarz makes
    the bound hold for every input.
    """
    N = f.atom_count

    def floats(v: ObservableVector) -> np.ndarray:
        return np.array([float(x) for x in v.values])

    def ip(a: np.ndarray, b: np.ndarray) -> float:
        return float(a @ b) / N

    fv = floats(f)
    t = compose(P, compose(S, Q))
    lhs = abs(ip(floats(f.translate(t)), fv) - ip(floats(f.translate(S)), fv))
    norm_f = math.sqrt(ip(fv, fv))
    dq = floats(f.translate(Q)) - fv
    dp = floats(f.translate(inverse(P))) - fv
    rhs = norm_f * (math.sqrt(ip(dq, dq)) + math.sqrt(ip(dp, dp)))
    return ModulusCheck(lhs=lhs, rhs=rhs, ok=lhs <= rhs + MODULUS_TOLERANCE)
