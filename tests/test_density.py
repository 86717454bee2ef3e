"""Realization of couplings, grid rounding, and the convex decomposition."""
from fractions import Fraction
from random import Random

import pytest

import roelcke as rk
from roelcke.density import RealizationError, round_to_grid
from roelcke.markov import CouplingMatrix
from roelcke.sampling import random_markov, random_partition, random_permutation
from roelcke.space import AtomSpace


def coupling(rows, masses):
    return CouplingMatrix(
        entries=tuple(tuple(Fraction(v) for v in row) for row in rows),
        marginals=tuple(masses),
    )


def blended_coupling(rng, N, n):
    """A random coupling with exact cell-mass marginals, generally off the
    (1/N)-grid: two realizable ones blended exactly with a random weight."""
    alpha = random_partition(rng, N, n)
    A = rk.joint_matrix(random_permutation(rng, N), alpha)
    B = rk.joint_matrix(random_permutation(rng, N), alpha)
    t = Fraction(rng.random())
    rows = [
        [t * a + (1 - t) * b for a, b in zip(ra, rb)]
        for ra, rb in zip(A.entries, B.entries)
    ]
    return coupling(rows, alpha.masses)


def assert_controlled_rounding(R, C, N):
    """R is C moved entrywise to an adjacent multiple of 1/N, same marginals."""
    assert R.marginals == C.marginals
    for r_row, c_row in zip(R.entries, C.entries):
        for r, c in zip(r_row, c_row):
            assert (r * N).denominator == 1
            assert abs(r - c) < Fraction(1, N)


class TestRealize:
    def test_diagonal_gives_identity(self):
        alpha = rk.make_partition(AtomSpace(4), [1, 1, 2, 2])
        h = Fraction(1, 2)
        C = coupling([[h, 0], [0, h]], [h, h])
        T = rk.realize(C, alpha)
        assert T.forward == rk.identity(4).forward

    def test_uniform_cross(self):
        alpha = rk.make_partition(AtomSpace(4), [1, 1, 2, 2])
        q = Fraction(1, 4)
        C = coupling([[q, q], [q, q]], [Fraction(1, 2)] * 2)
        T = rk.realize(C, alpha)
        assert rk.joint_matrix(T, alpha).entries == C.entries

    def test_random_sweep_exact(self):
        rng = Random(1)
        for trial in range(200):
            N = rng.choice((8, 32, 256))
            n = rng.randrange(2, 5)
            alpha = random_partition(rng, N, n)
            C = rk.joint_matrix(random_permutation(rng, N), alpha)
            T = rk.realize(C, alpha)
            assert rk.joint_matrix(T, alpha).entries == C.entries

    def test_off_grid_rejected(self):
        alpha = rk.make_partition(AtomSpace(4), [1, 1, 2, 2])
        third = Fraction(1, 6)
        C = coupling([[third, Fraction(2, 6)], [Fraction(2, 6), third]],
                     [Fraction(1, 2)] * 2)
        with pytest.raises(RealizationError, match="multiple"):
            rk.realize(C, alpha)

    def test_marginal_mismatch_rejected(self):
        alpha = rk.make_partition(AtomSpace(4), [1, 1, 1, 2])
        h = Fraction(1, 2)
        C = coupling([[h, 0], [0, h]], [h, h])
        with pytest.raises(RealizationError, match="marginals"):
            rk.realize(C, alpha)

    def test_coupling_size_mismatch_rejected(self):
        alpha = rk.make_partition(AtomSpace(3), [1, 2, 3])
        h = Fraction(1, 2)
        C = coupling([[h, 0], [0, h]], [h, h])
        with pytest.raises(RealizationError, match="coupling size does not match"):
            rk.realize(C, alpha)


class TestRoundToGrid:
    def test_already_on_grid_unchanged(self):
        masses = (Fraction(1, 2), Fraction(1, 2))
        C = coupling([["3/10", "1/5"], ["1/5", "3/10"]], masses)
        assert round_to_grid(C, 10).to_strings() == [["3/10", "1/5"], ["1/5", "3/10"]]

    def test_exhaustive_small_grid_targets(self):
        # Oracle: every realizable two-cell coupling must come back unchanged.
        for N in (4, 8, 16):
            half = N // 2
            masses = (Fraction(half, N), Fraction(half, N))
            for k in range(half + 1):
                rows = [[Fraction(half - k, N), Fraction(k, N)],
                        [Fraction(k, N), Fraction(half - k, N)]]
                C = round_to_grid(coupling(rows, masses), N)
                assert [list(r) for r in C.entries] == rows

    def test_random_error_bound(self):
        rng = Random(2)
        N, n = 1024, 3
        for _ in range(50):
            C = blended_coupling(rng, N, n)
            assert_controlled_rounding(round_to_grid(C, N), C, N)

    def test_every_size_rounds_to_adjacent_multiples(self):
        # The theorem holds for every n, not only for the small n of the
        # density criterion: partition images of random Markov operators,
        # rounded onto r-fold finer grids.
        rng = Random(6)
        for trial in range(60):
            n = 2 + trial % 7
            alpha = random_partition(rng, 2 * n + trial % 5, n)
            C = rk.compress(random_markov(rng, alpha.space.atom_count), alpha)
            for r in (1, 3, 8):
                N = r * alpha.space.atom_count
                assert_controlled_rounding(round_to_grid(C, N), C, N)

    @pytest.mark.parametrize("N", [0, -2])
    def test_atom_count_below_one_rejected(self, N):
        masses = (Fraction(1, 2), Fraction(1, 2))
        C = coupling([[Fraction(1, 2), 0], [0, Fraction(1, 2)]], masses)
        with pytest.raises(RealizationError, match="N must be >= 1"):
            round_to_grid(C, N)

    def test_marginals_off_the_grid_rejected(self):
        masses = (Fraction(1, 2), Fraction(1, 2))
        C = coupling([[Fraction(1, 2), 0], [0, Fraction(1, 2)]], masses)
        with pytest.raises(RealizationError, match="not a multiple of 1/3"):
            round_to_grid(C, 3)

    @pytest.mark.parametrize("rows, match", [
        ([[Fraction(3, 5), Fraction(-1, 10)], [Fraction(-1, 10), Fraction(3, 5)]],
         "negative"),
        ([[0.5, 0.0], [0.0, 0.5]], "not an int or a Fraction"),
        ([[Fraction(1, 2), 0], [Fraction(1, 4), Fraction(1, 4)]], "sums to"),
    ])
    def test_inexact_or_non_coupling_input_rejected(self, rows, match):
        # The float, negative and wrong-marginal inputs the rounding used to
        # screen itself never reach it: CouplingMatrix refuses them.
        masses = (Fraction(1, 2), Fraction(1, 2))
        with pytest.raises(ValueError, match=match):
            CouplingMatrix(tuple(map(tuple, rows)), masses)


class TestBirkhoff:
    def test_permutation_is_single_term(self):
        K = rk.koopman_matrix(rk.swap(4, 0, 3))
        terms = rk.birkhoff(K)
        assert len(terms) == 1
        assert terms[0][0] == 1

    def test_half_half(self):
        D = rk.MarkovMatrix.uniform(2)
        terms = rk.birkhoff(D)
        assert sorted(t[1].forward for t in terms) == [(0, 1), (1, 0)]
        assert all(t[0] == Fraction(1, 2) for t in terms)

    def test_random_sweep_exact_reconstruction(self):
        rng = Random(3)
        for trial in range(200):
            n = 2 + trial % 7
            D = random_markov(rng, n, terms=n + 1)
            terms = rk.birkhoff(D)
            assert len(terms) <= (n - 1) ** 2 + 1
            assert sum(t[0] for t in terms) == 1
            # Each term is an automorphism T carrying its weight at (T(x), x).
            assert all(type(w) is Fraction and type(T) is rk.Automorphism
                       for w, T in terms)
            matrices = [rk.koopman_matrix(T) for _, T in terms]
            assert rk.convex_combination([w for w, _ in terms], matrices) == D

    def test_deterministic(self):
        D = random_markov(Random(4), 5)
        assert rk.birkhoff(D) == rk.birkhoff(D)


class TestDensityExperiment:
    def test_quantified_density(self):
        # Any partition-level Markov target is approximated by an
        # automorphism within 1/N in every coupling entry, for every N.
        rng = Random(5)
        for _ in range(20):
            n = rng.randrange(2, 5)
            eps = Fraction(1, 8)
            N = int(n / eps) * 4  # comfortably above n/eps, multiple of n
            alpha = rk.make_partition(AtomSpace(N), [1 + x % n for x in range(N)])
            K = random_markov(rng, n, terms=3)
            target = coupling(
                [[K.entries[i][j] * alpha.masses[i] for j in range(n)]
                 for i in range(n)],
                alpha.masses,
            )
            T = rk.realize(round_to_grid(target, N), alpha)
            J = rk.joint_matrix(T, alpha)
            err = max(
                abs(J.entries[i][j] - target.entries[i][j])
                for i in range(n) for j in range(n)
            )
            assert err < Fraction(1, N) < eps
