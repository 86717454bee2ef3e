"""Doubly stochastic matrices: predicate, closure, compression."""
from fractions import Fraction
from math import lcm
from random import Random

import pytest

import roelcke as rk
from roelcke import markov
from roelcke.markov import CouplingMatrix, MarkovMatrix, check_markov, compress
from roelcke.sampling import random_markov
from roelcke.space import AtomSpace


class TestPredicate:
    def test_identity(self):
        assert check_markov(MarkovMatrix.identity(3).entries) is None

    def test_uniform_two(self):
        h = Fraction(1, 2)
        assert check_markov([[h, h], [h, h]]) is None

    def test_bad_columns(self):
        violation = check_markov([[Fraction(1), Fraction(0)],
                                  [Fraction(1), Fraction(0)]])
        assert "column" in violation

    def test_negative_entry(self):
        violation = check_markov([[Fraction(3, 2), Fraction(-1, 2)],
                                  [Fraction(-1, 2), Fraction(3, 2)]])
        assert "negative" in violation

    def test_not_square(self):
        assert check_markov([[Fraction(1)], [Fraction(1)]]) == "matrix is not square"

    def test_constructor_rejects(self):
        with pytest.raises(ValueError, match="row 0"):
            MarkovMatrix(((Fraction(1, 2), Fraction(1, 4)),
                          (Fraction(1, 2), Fraction(3, 4))))


H, Q = Fraction(1, 2), Fraction(1, 4)


class TestSupport:
    """Validation reads only the nonzero entries; around the zeros every
    verdict and message is the one a scan of all entries gives."""

    @pytest.mark.parametrize("rows, message", [
        ([[0, 0, 1], [0, Fraction(3, 2), -H], [1, -H, H]],
         "negative entry at (1, 2): -1/2"),
        ([[0, H, 0, Q], [Q, 0, H, Q], [H, Q, 0, Q], [Q, Q, H, 0]],
         "row 0 sums to 3/4, expected 1"),
        ([[H, H, 0], [0, 0, 0], [H, H, 1]],
         "row 1 sums to 0, expected 1"),
        ([[0, H, H], [0, H, H], [0, H, H]],
         "column 0 sums to 0, expected 1"),
        ([[1, 0, 0], [0, H, H], [1, 0, 0]],
         "column 0 sums to 2, expected 1"),
        # One pass reads every row before any sum is compared: a negative
        # entry outranks an earlier bad row, and a bad row an earlier bad
        # column.  An all-zero last column adds nothing to its sum.
        ([[H, 0, 0], [0, 1, H], [H, -H, 1]],
         "negative entry at (2, 1): -1/2"),
        ([[1, 0, 0], [H, 0, 0], [H, 1, 1]],
         "row 1 sums to 1/2, expected 1"),
        ([[H, H, 0], [H, H, 0], [0, 1, 0]],
         "column 1 sums to 2, expected 1"),
    ], ids=["negative-after-zeros", "row-support-misses-1", "all-zero-row",
            "zero-column-behind-valid-rows", "column-behind-valid-rows",
            "negative-after-bad-row", "bad-row-before-bad-column",
            "all-zero-last-column"])
    def test_violation_messages(self, rows, message):
        assert check_markov(rows) == message
        with pytest.raises(ValueError) as err:
            MarkovMatrix(tuple(map(tuple, rows)))
        assert str(err.value) == f"not a Markov matrix: {message}"

    def test_coupling_with_zero_cells(self):
        marginals = (H, Q, Q)
        entries = ((H, 0, 0), (0, 0, Q), (0, Q, 0))
        assert CouplingMatrix(entries, marginals).entries == entries
        for bad, message in [
            (((H, 0, 0), (0, 0, 0), (0, Q, Q)), "row 1 sums to 0, expected 1/4"),
            (((0, 0, H), (0, Q, 0), (H, 0, -Q)), "negative entry at (2, 2): -1/4"),
            (((0, H, 0), (Q, 0, 0), (Q, 0, 0)), "column 1 sums to 1/2, expected 1/4"),
        ]:
            with pytest.raises(ValueError) as err:
                CouplingMatrix(bad, marginals)
            assert str(err.value) == f"not a coupling matrix: {message}"


class TestInputRegime:
    """Entries (and a coupling's marginals) are ints or Fractions, and the
    size is at least 1."""

    @pytest.mark.parametrize("entries", [
        ((0.5, 0.5), (0.5, 0.5)),
        ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), 0.5)),
        ((True, False), (False, True)),
    ], ids=["floats", "one-float", "bools"])
    def test_inexact_entries_rejected(self, entries):
        with pytest.raises(ValueError, match="not a Markov matrix: entry .* "
                                             "is not an int or a Fraction"):
            MarkovMatrix(entries)

    @pytest.mark.parametrize("entries, marginals", [
        (((0.5, 0.0), (0.0, 0.5)), (0.5, 0.5)),
        (((Fraction(1, 2), 0), (0, Fraction(1, 2))), (0.5, 0.5)),
        (((True,),), (1,)),
        (((1,),), (True,)),
    ], ids=["float-entries", "float-marginals", "bool-entries", "bool-marginals"])
    def test_coupling_inexact_values_rejected(self, entries, marginals):
        with pytest.raises(ValueError, match="not an int or a Fraction"):
            CouplingMatrix(entries, marginals)

    @pytest.mark.parametrize("entries, marginals, match", [
        (((Fraction(1, 2), 0), (0, Fraction(1, 2))), (1,), "match matrix size"),
        (((Fraction(1, 2), 0), (0, Fraction(1, 4))), (Fraction(1, 2), Fraction(1, 4)),
         "sum to 1"),
        (((Fraction(1, 2), 0), (Fraction(1, 2), 0)), (Fraction(1, 2), Fraction(1, 2)),
         "column 0 sums to 1"),
    ], ids=["short-marginals", "marginals-not-1", "column-off-marginal"])
    def test_coupling_marginals_checked(self, entries, marginals, match):
        # One vector is both margins: every row and every column sums to it.
        with pytest.raises(ValueError, match=match):
            CouplingMatrix(entries, marginals)

    def test_size_zero_rejected(self):
        with pytest.raises(ValueError, match="size 0"):
            MarkovMatrix(())
        with pytest.raises(ValueError, match="size 0"):
            MarkovMatrix.identity(0)

    def test_uniform_size_zero_rejected(self):
        with pytest.raises(ValueError, match="size 0"):
            MarkovMatrix.uniform(0)

    @pytest.mark.parametrize("size", [-3, 0])
    @pytest.mark.parametrize("constructor", ["identity", "uniform"])
    def test_size_below_one_named(self, constructor, size):
        with pytest.raises(ValueError) as err:
            getattr(MarkovMatrix, constructor)(size)
        assert str(err.value) == f"not a Markov matrix: size {size}"

    @pytest.mark.parametrize("size", [2.5, True], ids=["float", "bool"])
    @pytest.mark.parametrize("constructor", ["identity", "uniform"])
    def test_size_not_an_int_named(self, constructor, size):
        with pytest.raises(ValueError) as err:
            getattr(MarkovMatrix, constructor)(size)
        assert str(err.value) == f"not a Markov matrix: size {size!r}"

    def test_int_entries_accepted_by_product(self):
        swap = MarkovMatrix(((0, 1), (1, 0)))
        half = Fraction(1, 2)
        K = MarkovMatrix(((half, half), (half, half)))
        assert rk.product(swap, swap).entries == MarkovMatrix.identity(2).entries
        assert rk.product(swap, K).entries == K.entries


def reference_product(K1, K2):
    """Schoolbook triple loop over Fraction entries, independent of roelcke."""
    a, b = K1.entries, K2.entries
    n = len(a)
    out = []
    for y in range(n):
        row = []
        for x in range(n):
            total = Fraction(0)
            for k in range(n):
                total += Fraction(a[y][k]) * Fraction(b[k][x])
            row.append(total)
        out.append(row)
    return out


def assert_matches_reference(K1, K2):
    got = rk.product(K1, K2).entries
    want = reference_product(K1, K2)
    for y, (got_row, want_row) in enumerate(zip(got, want, strict=True)):
        for x, (g, w) in enumerate(zip(got_row, want_row, strict=True)):
            assert g == w, (y, x, g, w)
            assert str(g) == str(w), (y, x, g, w)


def random_block_average(rng, N):
    """Block average of a random partition whose cells have mixed sizes."""
    labels = [rng.randrange(1, 4) for _ in range(N)]
    used = sorted(set(labels))
    labels = [used.index(v) + 1 for v in labels]
    return rk.block_average(rk.make_partition(AtomSpace(N), labels))


INT64_MAX = 2**63 - 1


def denominators_lcm(K):
    return lcm(*(v.denominator for row in K.entries for v in row))


def near_identity(d):
    """3x3: a 2x2 block mixing over d, and a fixed third atom."""
    a, b = Fraction(d - 1, d), Fraction(1, d)
    return MarkovMatrix(((a, b, 0), (b, a, 0), (0, 0, 1)))


class TestProductReference:
    """`product` equals an independent schoolbook Fraction product."""

    SIZES = (1, 2, 5, 6, 32)

    @pytest.mark.parametrize("N", SIZES)
    def test_random_markov_different_terms(self, N):
        rng = Random(100 + N)
        for _ in range(2 if N == 32 else 20):
            K1 = random_markov(rng, N, terms=rng.randrange(1, 4))
            K2 = random_markov(rng, N, terms=rng.randrange(4, 7))
            assert_matches_reference(K1, K2)
            assert_matches_reference(K2, K1)

    @pytest.mark.parametrize("N", SIZES)
    def test_block_averages(self, N):
        rng = Random(200 + N)
        for _ in range(2 if N == 32 else 20):
            B1, B2 = random_block_average(rng, N), random_block_average(rng, N)
            assert_matches_reference(B1, B2)
            assert_matches_reference(B1, random_markov(rng, N))

    @pytest.mark.parametrize("N", SIZES)
    def test_permutations(self, N):
        rng = Random(300 + N)
        for _ in range(2 if N == 32 else 20):
            a, b = list(range(N)), list(range(N))
            rng.shuffle(a)
            rng.shuffle(b)
            P1 = rk.koopman_matrix(rk.Automorphism(tuple(a)))
            P2 = rk.koopman_matrix(rk.Automorphism(tuple(b)))
            assert_matches_reference(P1, P2)
            assert_matches_reference(P1, random_markov(rng, N))

    def test_large_coprime_denominators(self):
        p, q = 1_000_000_007, 998_244_353
        K1 = MarkovMatrix(((Fraction(1, p), Fraction(p - 1, p)),
                           (Fraction(p - 1, p), Fraction(1, p))))
        K2 = MarkovMatrix(((Fraction(2, q), Fraction(q - 2, q)),
                           (Fraction(q - 2, q), Fraction(2, q))))
        assert_matches_reference(K1, K2)
        assert rk.product(K1, K2).entries[0][0].denominator == p * q

    # Pairs of denominators whose product is just below, at and just above
    # 2**63 - 1, the largest int64: (2**31 - 1)(2**32 + 2) = 2**63 - 2, and
    # 2**63 - 1 = 7*7*73*127*337 * 92737*649657.
    @pytest.mark.parametrize("d1, d2, side", [
        (2**31 - 1, 2**32 + 2, -1),
        (7 * 7 * 73 * 127 * 337, 92737 * 649657, 0),
        (2**31 + 1, 2**32 + 1, 1),
    ], ids=["below", "at", "above"])
    def test_across_the_int64_bound(self, d1, d2, side):
        # Entry (2, 2) of the product is exactly 1, so its numerator over
        # d1 * d2 is d1 * d2 itself, the largest int64 in the "at" case.
        K1, K2 = near_identity(d1), near_identity(d2)
        product_of_lcms = denominators_lcm(K1) * denominators_lcm(K2)
        assert (product_of_lcms > INT64_MAX) - (product_of_lcms < INT64_MAX) == side
        assert_matches_reference(K1, K2)
        assert_matches_reference(K2, K1)

    def test_power_chain_crosses_the_int64_bound(self):
        # K^m has denominator 7^m; each step multiplies K^m by K, over
        # 7^(m+1), which passes 2**63 - 1 at m + 1 = 23.
        K = MarkovMatrix(tuple(
            tuple(Fraction(k, 7) for k in row) for row in ((1, 2, 4), (4, 1, 2), (2, 4, 1))
        ))
        power, sides = K, set()
        for _ in range(30):
            sides.add(denominators_lcm(power) * denominators_lcm(K) > INT64_MAX)
            assert_matches_reference(power, K)
            assert_matches_reference(K, power)
            power = rk.product(power, K)
        assert sides == {False, True}
        assert denominators_lcm(power) == 7**31


class TestIntegerView:
    """The integer view `product` multiplies is derived once per object and
    is invisible to equality, hashing and printing."""

    def test_built_once_per_object(self, monkeypatch):
        # The first product fills the cache; the later ones read it and
        # must still equal the schoolbook product.
        calls = []

        def counting_lcm(*args):
            calls.append(args)
            return lcm(*args)

        K = random_markov(Random(11), 5)
        monkeypatch.setattr(markov, "lcm", counting_lcm)
        first = rk.product(K, K)
        assert len(calls) == 1
        for _ in range(3):
            assert rk.product(K, K) == first
        assert len(calls) == 1
        assert [list(row) for row in first.entries] == reference_product(K, K)

    def test_invisible_to_eq_hash_repr(self):
        K = random_markov(Random(12), 4)
        before = (hash(K), repr(K))
        fresh = MarkovMatrix(K.entries)
        rk.product(K, K)
        assert "_numerators" in vars(K) and "_numerators" not in vars(fresh)
        assert K == fresh
        assert (hash(K), repr(K)) == before == (hash(fresh), repr(fresh))


class TestProduct:
    def test_identity_neutral(self):
        K = random_markov(Random(1), 4)
        assert rk.product(K, MarkovMatrix.identity(4)).entries == K.entries
        assert rk.product(MarkovMatrix.identity(4), K).entries == K.entries

    def test_permutation_products_compose(self):
        rng = Random(2)
        a, b = list(range(5)), list(range(5))
        rng.shuffle(a)
        rng.shuffle(b)
        S, T = rk.Automorphism(tuple(a)), rk.Automorphism(tuple(b))
        got = rk.product(rk.koopman_matrix(S), rk.koopman_matrix(T))
        assert got.entries == rk.koopman_matrix(rk.compose(S, T)).entries

    def test_uniform_absorbs(self):
        # Direct multiplication: the all-1/2 matrix eats any 2x2 Markov K.
        U = MarkovMatrix.uniform(2)
        K = MarkovMatrix(((Fraction(1, 3), Fraction(2, 3)),
                          (Fraction(2, 3), Fraction(1, 3))))
        assert rk.product(U, K).entries == U.entries

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            rk.product(MarkovMatrix.identity(2), MarkovMatrix.identity(3))

    def test_zeros_are_one_shared_object(self):
        # A fresh Fraction(0, d) per zero would pass every other test; only
        # identity tells the shared zero apart.
        rng = Random(31)
        zeros = []
        for _ in range(5):
            K1, K2 = random_markov(rng, 6, terms=2), random_markov(rng, 6, terms=2)
            K, want = rk.product(K1, K2), reference_product(K1, K2)
            assert [list(row) for row in K.entries] == want
            assert K.to_strings() == [[str(v) for v in row] for row in want]
            zeros += [v for row in K.entries for v in row if v == 0]
        assert zeros and all(v == Fraction(0) and v is zeros[0] for v in zeros)

    def test_closure_random_pairs(self):
        rng = Random(42)
        for _ in range(1000):
            K1 = random_markov(rng, 4, terms=3)
            K2 = random_markov(rng, 4, terms=3)
            K = rk.product(K1, K2)
            assert check_markov(K.entries) is None
            assert K.entries == tuple(
                tuple(row) for row in reference_product(K1, K2)
            )

    def test_convex_combination_stays_markov(self):
        rng = Random(9)
        for _ in range(50):
            mats = [random_markov(rng, 4) for _ in range(3)]
            raw = [rng.randrange(1, 10) for _ in range(3)]
            weights = [Fraction(w, sum(raw)) for w in raw]
            K = rk.convex_combination(weights, mats)
            assert check_markov(K.entries) is None

    def test_convex_combination_is_the_entrywise_sum(self):
        # A zero weight adds nothing; it must not leave a fresh Fraction(0)
        # either, since only identity tells it from the shared zero.
        rng = Random(32)
        weights = [Fraction(1, 3), Fraction(0), Fraction(2, 3)]
        mats = [random_markov(rng, 6, terms=2) for _ in weights]
        K = rk.convex_combination(weights, mats)
        assert [list(row) for row in K.entries] == [
            [sum(w * m.entries[y][x] for w, m in zip(weights, mats))
             for x in range(6)] for y in range(6)
        ]
        zeros = [v for row in K.entries for v in row if v == 0]
        assert zeros and all(v is markov._ZERO for v in zeros)

    def test_convex_combination_refuses_negative_weights(self):
        # Weights (2, -1) sum to 1, and 2K - K = K is Markov, so only the
        # weight check refuses this non-convex combination.
        K = random_markov(Random(9), 4)
        with pytest.raises(ValueError, match="nonnegative"):
            rk.convex_combination([Fraction(2), Fraction(-1)], [K, K])

    @pytest.mark.parametrize("weights, sizes, message", [
        ([], [], "weights and matrices must be nonempty and aligned"),
        ([Fraction(1)], [2, 2], "weights and matrices must be nonempty and aligned"),
        ([H, Q], [2, 2], "weights must be nonnegative and sum to 1"),
        ([H, H], [2, 3], "matrix sizes differ"),
    ], ids=["empty", "misaligned", "sum-below-1", "sizes-differ"])
    def test_convex_combination_refuses(self, weights, sizes, message):
        matrices = [MarkovMatrix.identity(n) for n in sizes]
        with pytest.raises(ValueError) as err:
            rk.convex_combination(weights, matrices)
        assert str(err.value) == message


class TestCompress:
    def setup_method(self):
        self.alpha = rk.make_partition(AtomSpace(4), [1, 1, 2, 2])

    def test_identity_gives_diagonal_masses(self):
        C = compress(MarkovMatrix.identity(4), self.alpha)
        assert C.to_strings() == [["1/2", "0"], ["0", "1/2"]]

    def test_koopman_swap_matches_joint(self):
        T = rk.swap(4, 1, 2)
        C = compress(rk.koopman_matrix(T), self.alpha)
        assert C.entries == rk.joint_matrix(T, self.alpha).entries
        assert C.to_strings() == [["1/4", "1/4"], ["1/4", "1/4"]]

    def test_different_spaces_rejected(self):
        with pytest.raises(ValueError) as err:
            compress(MarkovMatrix.identity(3), self.alpha)
        assert str(err.value) == "matrix and partition live on different spaces"

    def test_uniform_gives_product_masses(self):
        alpha = rk.make_partition(AtomSpace(4), [1, 1, 1, 2])
        C = compress(MarkovMatrix.uniform(4), alpha)
        for i in range(2):
            for j in range(2):
                assert C.entries[i][j] == alpha.masses[i] * alpha.masses[j]

    def test_multiplicative_on_koopman(self):
        rng = Random(23)
        alpha = rk.make_partition(AtomSpace(6), [1, 1, 2, 2, 2, 2])
        for _ in range(20):
            a, b = list(range(6)), list(range(6))
            rng.shuffle(a)
            rng.shuffle(b)
            S, T = rk.Automorphism(tuple(a)), rk.Automorphism(tuple(b))
            lhs = compress(
                rk.product(rk.koopman_matrix(S), rk.koopman_matrix(T)), alpha
            )
            rhs = rk.joint_matrix(rk.compose(S, T), alpha)
            assert lhs.entries == rhs.entries


class TestSerialization:
    def test_round_trip(self):
        K = random_markov(Random(77), 5)
        parsed = tuple(tuple(map(Fraction, row)) for row in K.to_strings())
        assert MarkovMatrix(parsed).entries == K.entries

    def test_strings_are_lowest_terms(self):
        K = MarkovMatrix(((Fraction(2, 4), Fraction(1, 2)),
                          (Fraction(1, 2), Fraction(1, 2))))
        assert K.to_strings() == [["1/2", "1/2"], ["1/2", "1/2"]]
