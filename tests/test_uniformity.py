"""Entourage deviations, the coupling pseudometric, and the net."""
from fractions import Fraction
from random import Random

import conftest
import pytest

import roelcke as rk
from roelcke.sampling import random_cell_preserving, random_partition, random_permutation
from roelcke.space import AtomSpace
from roelcke import uniformity
from roelcke.uniformity import NetInfeasibleError


def halves4():
    return rk.make_partition(AtomSpace(4), [1, 1, 2, 2])


class TestUDeviation:
    def test_identity_is_zero(self):
        assert rk.u_deviation(rk.identity(4), halves4()) == 0

    def test_cross_swap(self):
        # Each cell loses one of its two atoms.
        assert rk.u_deviation(rk.swap(4, 1, 2), halves4()) == Fraction(1, 2)

    def test_within_cell_swap(self):
        assert rk.u_deviation(rk.swap(4, 0, 1), halves4()) == 0

    def test_zero_iff_cell_preserving(self):
        rng = Random(1)
        alpha = random_partition(rng, 10, 3)
        for _ in range(20):
            g = random_cell_preserving(rng, alpha)
            assert rk.u_deviation(g, alpha) == 0

    def test_equal_for_inverse(self):
        # mu(A symm-diff T^{-1}A) = mu(TA symm-diff A), so the deviations of
        # T and its inverse agree exactly, cell by cell in the max.
        rng = Random(2)
        alpha = random_partition(rng, 12, 4)
        for _ in range(100):
            T = random_permutation(rng, 12)
            assert rk.u_deviation(T, alpha) == rk.u_deviation(rk.inverse(T), alpha)


    def test_matches_set_oracle(self):
        # max_i mu(A_i symm-diff T^{-1}A_i), straight from the sets.
        rng = Random(4)
        for _ in range(300):
            N = rng.randint(1, 24)
            alpha = random_partition(rng, N, rng.randint(1, N))
            T = random_permutation(rng, N)
            oracle = max(
                len(set(cell) ^ {x for x in range(N) if T(x) in cell})
                for cell in alpha.cells
            )
            assert rk.u_deviation(T, alpha) == Fraction(oracle, N)


class TestWDistance:
    def test_reflexive(self):
        T = rk.swap(6, 0, 5)
        alpha = rk.make_partition(AtomSpace(6), [1, 1, 1, 2, 2, 2])
        assert rk.w_distance(T, T, alpha) == 0

    def test_identity_vs_cross_swap(self):
        assert rk.w_distance(rk.identity(4), rk.swap(4, 1, 2), halves4()) \
            == Fraction(1, 4)

    def test_pseudometric_not_metric(self):
        # Distinct automorphisms at distance zero.
        assert rk.w_distance(rk.identity(4), rk.swap(4, 0, 1), halves4()) == 0

    def test_size_mismatch(self):
        # 4-atom automorphisms against a 6-atom partition: no joint table.
        alpha = rk.make_partition(AtomSpace(6), [1, 1, 1, 2, 2, 2])
        with pytest.raises(ValueError, match="different spaces"):
            rk.w_distance(rk.identity(4), rk.swap(4, 0, 3), alpha)

    def test_pseudometric_axioms(self):
        rng = Random(3)
        alpha = random_partition(rng, 8, 3)
        for _ in range(1000):
            a = random_permutation(rng, 8)
            b = random_permutation(rng, 8)
            c = random_permutation(rng, 8)
            dab = rk.w_distance(a, b, alpha)
            dba = rk.w_distance(b, a, alpha)
            dac = rk.w_distance(a, c, alpha)
            dcb = rk.w_distance(c, b, alpha)
            assert dab == dba
            assert dab <= dac + dcb
            assert 0 <= dab <= 1

    def test_right_translation_by_cell_preserving(self):
        rng = Random(4)
        alpha = random_partition(rng, 9, 3)
        for _ in range(50):
            S = random_permutation(rng, 9)
            T = random_permutation(rng, 9)
            g = random_cell_preserving(rng, alpha)
            assert rk.w_distance(S, T, alpha) == rk.w_distance(
                rk.compose(S, g), rk.compose(T, g), alpha
            )


class TestRoelckeRelated:
    def test_identity_witness(self):
        rng = Random(5)
        S = random_permutation(rng, 6)
        alpha = rk.make_partition(AtomSpace(6), [1, 1, 1, 2, 2, 2])
        assert rk.roelcke_related(
            S, S, rk.identity(6), rk.identity(6), alpha, Fraction(1, 100)
        )

    def test_wrong_product_rejected(self):
        alpha = halves4()
        S = rk.identity(4)
        T = rk.swap(4, 0, 1)
        assert not rk.roelcke_related(
            S, T, rk.identity(4), rk.identity(4), alpha, Fraction(1)
        )

    def test_within_cell_witness(self):
        alpha = halves4()
        assert rk.roelcke_related(
            rk.identity(4), rk.swap(4, 0, 1),
            rk.swap(4, 0, 1), rk.identity(4),
            alpha, Fraction(1, 8),
        )

    def test_strictness(self):
        # Deviation exactly epsilon is not membership.
        alpha = halves4()
        P = rk.swap(4, 1, 2)  # deviation 1/2
        S = rk.identity(4)
        T = rk.compose(P, S)
        assert not rk.roelcke_related(S, T, P, rk.identity(4), alpha, Fraction(1, 2))
        assert rk.roelcke_related(S, T, P, rk.identity(4), alpha, Fraction(5, 8))

    def test_strictness_right_factor(self):
        # The mirror image: Q at deviation exactly epsilon is not membership.
        alpha = halves4()
        Q = rk.swap(4, 1, 2)  # deviation 1/2
        S = rk.identity(4)
        T = rk.compose(S, Q)
        assert not rk.roelcke_related(S, T, rk.identity(4), Q, alpha, Fraction(1, 2))
        assert rk.roelcke_related(S, T, rk.identity(4), Q, alpha, Fraction(5, 8))


class TestNet:
    def test_trivial_partition(self):
        sp = AtomSpace(6)
        alpha = rk.make_partition(sp, [1] * 6)
        net = rk.precompactness_net(alpha, Fraction(1, 4))
        assert len(net) == 1
        assert net[0].forward == rk.identity(6).forward

    def test_two_cells_eight_atoms(self):
        alpha = rk.make_partition(AtomSpace(8), [1, 1, 1, 1, 2, 2, 2, 2])
        net = rk.precompactness_net(alpha, Fraction(1, 4))
        assert len(net) <= 5
        # The single off-diagonal parameter runs over {0, 1/8, ..., 1/2};
        # every realizable value must be within 1/4 of some center.
        rng = Random(6)
        for _ in range(200):
            T = random_permutation(rng, 8)
            assert min(rk.w_distance(T, c, alpha) for c in net) < Fraction(1, 4)

    def test_thirtytwo_atoms_nine_centers(self):
        alpha = rk.make_partition(AtomSpace(32), [1] * 16 + [2] * 16)
        net = rk.precompactness_net(alpha, Fraction(1, 16))
        assert len(net) <= 9

    @pytest.mark.parametrize("eps", [Fraction(0), Fraction(-1)])
    def test_epsilon_not_positive_rejected(self, monkeypatch, eps):
        def refuse(*args):
            raise AssertionError("grid enumerated before the check")

        monkeypatch.setattr(uniformity, "_enumerate_grid", refuse)
        alpha = rk.make_partition(AtomSpace(4), [1, 1, 2, 2])
        with pytest.raises(ValueError, match="positive"):
            rk.precompactness_net(alpha, eps)

    def test_oversized_grid_rejected(self, monkeypatch):
        monkeypatch.setattr(uniformity, "NET_GRID_CAP", 3)
        alpha = rk.make_partition(AtomSpace(12), [1 + x % 4 for x in range(12)])
        with pytest.raises(NetInfeasibleError, match="cap"):
            rk.precompactness_net(alpha, Fraction(1, 1000))

    @pytest.mark.parametrize("sizes, tables, worst", [
        ((3, 3, 3), 55, Fraction(0)),
        ((4, 4, 4), 120, Fraction(1, 3)),
        ((2, 2, 2, 2), 282, Fraction(1, 2)),
        ((3, 3, 3, 3), 2008, Fraction(2, 3)),
    ])
    def test_covers_every_joint_table(self, sizes, tables, worst):
        # Past two cells coverage is not guaranteed, so every table is
        # checked; the worst nearest centre is recorded, not only bounded.
        labels = [i + 1 for i, s in enumerate(sizes) for _ in range(s)]
        alpha = rk.make_partition(AtomSpace(len(labels)), labels)
        ratios = conftest.net_coverage(alpha, Fraction(1, 4))
        assert (len(ratios), max(ratios)) == (tables, worst)

    def test_cap_checked_before_full_enumeration(self, monkeypatch):
        # Three cells of 16 atoms at step 1: the full grid has 11,781 points.
        sizes = [16, 16, 16]
        assert sum(1 for _ in uniformity._enumerate_grid(sizes, sizes, 1)) == 11781
        draws = 0
        enumerate_grid = uniformity._enumerate_grid

        def counting(*args):
            nonlocal draws
            for grid in enumerate_grid(*args):
                draws += 1
                yield grid

        monkeypatch.setattr(uniformity, "_enumerate_grid", counting)
        monkeypatch.setattr(uniformity, "NET_GRID_CAP", 3)
        alpha = rk.make_partition(AtomSpace(48), [1 + x % 3 for x in range(48)])
        with pytest.raises(NetInfeasibleError, match="cap"):
            rk.precompactness_net(alpha, Fraction(1, 48))
        assert 0 < draws <= 4
