"""Coefficient functions: values, positivity, continuity."""
from fractions import Fraction
from random import Random

import pytest

import roelcke as rk
from roelcke.sampling import random_markov, random_observable, random_permutation
from roelcke.wap import ObservableVector


class TestObservable:
    def test_no_atoms_rejected(self):
        # Without the check, `inner` divides by the zero atom count.
        with pytest.raises(ValueError, match="at least one atom"):
            ObservableVector(())

    def test_inner_exact_on_int_values(self):
        # Dividing an int sum by the atom count used to give the float 4.666...
        f = ObservableVector((1, 2, 3))
        assert type(f.inner(f)) is Fraction and f.inner(f) == Fraction(14, 3)
        assert f.inner(f) == rk.matrix_coefficient(rk.MarkovMatrix.identity(3), f, f)

    def test_dimension_mismatch(self):
        f, g = ObservableVector((1, 0)), ObservableVector((1, 0, 0))
        with pytest.raises(ValueError, match="dimension mismatch"):
            f.inner(g)
        with pytest.raises(ValueError, match="dimension mismatch"):
            f.translate(rk.identity(3))


class TestMatrixCoefficient:
    def test_identity_gives_squared_norm(self):
        f = ObservableVector((Fraction(1), Fraction(2), Fraction(-1)))
        K = rk.MarkovMatrix.identity(3)
        assert rk.matrix_coefficient(K, f, f) == f.inner(f) == Fraction(2)

    def test_indicator_overlap(self):
        # Translating the indicator of {0, 1} by swap(1, 2) gives the
        # indicator of {0, 2}; the overlap is one atom of mass 1/4.
        f = ObservableVector((1, 1, 0, 0))
        K = rk.koopman_matrix(rk.swap(4, 1, 2))
        assert rk.matrix_coefficient(K, f, f) == Fraction(1, 4)

    def test_uniform_gives_squared_mean(self):
        rng = Random(1)
        for _ in range(20):
            f = random_observable(rng, 6)
            K = rk.MarkovMatrix.uniform(6)
            mean = sum(f.values, Fraction(0)) / 6
            assert rk.matrix_coefficient(K, f, f) == mean * mean

    def test_contraction_bound(self):
        # Markov matrices contract the mass-weighted L2 norm, so the
        # diagonal coefficient never exceeds the squared norm; exact check.
        rng = Random(2)
        for _ in range(100):
            f = random_observable(rng, 8)
            K = random_markov(rng, 8)
            value = rk.matrix_coefficient(K, f, f)
            assert abs(value) <= f.inner(f)

    def test_dimension_mismatch(self):
        f = ObservableVector((1, 0, 0))
        with pytest.raises(ValueError, match="dimension"):
            rk.matrix_coefficient(rk.MarkovMatrix.identity(4), f, f)


class TestGramPsd:
    def test_no_elements_rejected(self):
        with pytest.raises(ValueError, match="need at least one group element"):
            rk.gram_psd_check(ObservableVector((1, 0)), [])

    def test_single_element(self):
        f = ObservableVector((Fraction(1), Fraction(-3)))
        min_eig, ok = rk.gram_psd_check(f, [rk.identity(2)])
        assert ok
        assert min_eig == pytest.approx(float(f.inner(f)))

    def test_two_elements(self):
        f = ObservableVector((1, 1, 0, 0))
        min_eig, ok = rk.gram_psd_check(f, [rk.identity(4), rk.swap(4, 1, 2)])
        assert ok and min_eig >= -1e-9

    def test_random_sweep(self):
        rng = Random(3)
        for _ in range(50):
            f = random_observable(rng, 32)
            elements = [random_permutation(rng, 32) for _ in range(10)]
            min_eig, ok = rk.gram_psd_check(f, elements)
            assert ok, min_eig

    def test_group_law_rejects_a_non_action(self, monkeypatch):
        # A translate that composes with a fixed shift is not a group
        # action, yet the float Gram matrix of its translates stays positive
        # semidefinite; the exact group-law verdict must fail on criterion
        # 9's inputs, while the eigenvalue still reads nonnegative.
        shift = rk.Automorphism(tuple((x + 1) % 32 for x in range(32)))
        lawful = ObservableVector.translate
        monkeypatch.setattr(ObservableVector, "translate",
                            lambda self, g: lawful(self, rk.compose(g, shift)))
        rng = Random(20260830)
        for _ in range(10):
            f = random_observable(rng, 32)
            elements = [random_permutation(rng, 32) for _ in range(10)]
            min_eig, ok = rk.gram_psd_check(f, elements)
            assert min_eig >= -1e-9 and not ok


class TestModulus:
    def test_identity_factors(self):
        f = ObservableVector((1, 0, 1, 0))
        S = rk.swap(4, 0, 3)
        check = rk.roelcke_modulus_check(rk.identity(4), S, rk.identity(4), f)
        assert check.lhs == 0 and check.rhs == 0 and check.ok

    def test_invariance_case(self):
        # Q = identity and P permuting only atoms where f is constant:
        # the translated coefficient agrees with the original.
        f = ObservableVector((Fraction(1), Fraction(1), Fraction(0), Fraction(0)))
        P = rk.swap(4, 0, 1)
        S = rk.swap(4, 1, 2)
        check = rk.roelcke_modulus_check(P, S, rk.identity(4), f)
        assert check.lhs == pytest.approx(0.0, abs=1e-12)
        assert check.ok

    def test_random_sweep(self):
        rng = Random(4)
        for _ in range(300):
            P = random_permutation(rng, 32)
            S = random_permutation(rng, 32)
            Q = random_permutation(rng, 32)
            f = random_observable(rng, 32)
            assert rk.roelcke_modulus_check(P, S, Q, f).ok
