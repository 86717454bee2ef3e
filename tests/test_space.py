"""Atoms, partitions, automorphisms, and their matrix pictures."""
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, strategies as st

import roelcke as rk
from roelcke.markov import check_markov, compress
from roelcke.space import AtomSpace, Partition, joint_counts


def brute_joint(T, partition):
    """Independent oracle: count atom transitions cell by cell."""
    N = partition.space.atom_count
    n = partition.cell_count
    out = [[Fraction(0)] * n for _ in range(n)]
    for x in range(N):
        i = partition.labels[x] - 1
        j = partition.labels[T(x)] - 1
        out[i][j] += Fraction(1, N)
    return out


@st.composite
def permutations(draw, size):
    fwd = list(range(size))
    rng = Random(draw(st.integers(0, 2**32)))
    rng.shuffle(fwd)
    return rk.Automorphism(tuple(fwd))


class TestAtomSpace:
    @pytest.mark.parametrize("count", [2.5, True, "3"], ids=["float", "bool", "str"])
    def test_atom_count_must_be_an_int(self, count):
        with pytest.raises(ValueError) as err:
            AtomSpace(count)
        assert str(err.value) == f"atom_count {count!r} is not an int"


class TestPartition:
    def test_two_halves(self):
        alpha = rk.make_partition(AtomSpace(4), [1, 1, 2, 2])
        assert alpha.cells == ((0, 1), (2, 3))
        assert alpha.masses == (Fraction(1, 2), Fraction(1, 2))

    def test_single_cell(self):
        alpha = rk.make_partition(AtomSpace(4), [1, 1, 1, 1])
        assert alpha.cell_count == 1
        assert alpha.masses == (Fraction(1),)

    def test_three_cells(self):
        alpha = rk.make_partition(AtomSpace(4), [1, 1, 2, 3])
        assert alpha.masses == (
            Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)
        )

    def test_empty_cell_rejected(self):
        with pytest.raises(ValueError, match="cell 2"):
            rk.make_partition(AtomSpace(4), [1, 1, 3, 3])

    def test_constructor_validates(self):
        # The dataclass checks its own labels; make_partition only wraps it.
        with pytest.raises(ValueError, match="cell 2 is empty"):
            Partition(AtomSpace(2), (1, 3))
        with pytest.raises(ValueError, match=">= 1"):
            Partition(AtomSpace(2), (0, 1))
        # Labels must be ints: a bool would make cell_count True.
        with pytest.raises(ValueError, match="label True is not an int"):
            rk.make_partition(AtomSpace(2), (True, True))
        with pytest.raises(ValueError, match="label 1.0 is not an int"):
            rk.make_partition(AtomSpace(2), (1.0, 2.0))

    def test_cell_count_is_derived_from_labels(self):
        # There is no cell_count argument to contradict the labels.
        with pytest.raises(TypeError):
            Partition(AtomSpace(2), (1, 1), 3)
        alpha = Partition(AtomSpace(3), (2, 1, 2))
        assert alpha.cell_count == 2
        assert alpha.cells == ((1,), (0, 2))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            rk.make_partition(AtomSpace(4), [1, 1, 2])

    def test_masses_sum_to_one(self):
        alpha = rk.make_partition(AtomSpace(7), [1, 2, 2, 3, 3, 3, 1])
        assert sum(alpha.masses) == 1


class TestGroup:
    def test_compose_with_inverse_is_identity(self):
        rng = Random(7)
        fwd = list(range(9))
        rng.shuffle(fwd)
        T = rk.Automorphism(tuple(fwd))
        assert rk.compose(T, rk.inverse(T)).forward == rk.identity(9).forward
        assert rk.compose(rk.inverse(T), T).forward == rk.identity(9).forward

    def test_inverse_of_identity(self):
        assert rk.inverse(rk.identity(5)).forward == rk.identity(5).forward

    def test_three_cycle(self):
        # Brute-force oracle on 4 atoms: apply the two swaps pointwise.
        s01, s12 = rk.swap(4, 0, 1), rk.swap(4, 1, 2)
        expected = tuple(s01(s12(x)) for x in range(4))
        got = rk.compose(s01, s12)
        assert got.forward == expected
        # The composite is the cycle 0 -> 1 -> 2 -> 0.
        assert got.forward == (1, 2, 0, 3)

    @pytest.mark.parametrize("forward, message", [
        ((0, 0, 1), "not a permutation"),
        ((-1, 0), "not a permutation"),
        ((5,), "not a permutation"),
        ((0, 0), "not a permutation"),
        ((1, 2), "not a permutation"),
        ((True, False), "image True is not an int"),
        ((1.0, 0.0), "image 1.0 is not an int"),
    ])
    def test_non_permutation_rejected(self, forward, message):
        with pytest.raises(ValueError, match=message):
            rk.Automorphism(forward)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rk.compose(rk.identity(3), rk.identity(4))

    @pytest.mark.parametrize("a, b", [(-1, 0), (0, -1), (4, 0), (0, 4)])
    def test_swap_out_of_range_rejected(self, a, b):
        # A negative index would wrap round to the last atom.
        with pytest.raises(ValueError, match="not both in 0..3"):
            rk.swap(4, a, b)

    def test_swap_of_an_atom_with_itself(self):
        assert rk.swap(4, 3, 3).forward == rk.identity(4).forward

    @given(st.data())
    def test_associativity(self, data):
        a = data.draw(permutations(6))
        b = data.draw(permutations(6))
        c = data.draw(permutations(6))
        lhs = rk.compose(rk.compose(a, b), c)
        rhs = rk.compose(a, rk.compose(b, c))
        assert lhs.forward == rhs.forward


class TestKoopman:
    def test_identity(self):
        assert rk.koopman_matrix(rk.identity(3)).entries == \
            rk.MarkovMatrix.identity(3).entries

    def test_two_atom_swap(self):
        got = rk.koopman_matrix(rk.swap(2, 0, 1))
        assert got.to_strings() == [["0", "1"], ["1", "0"]]

    def test_multiplicative(self):
        rng = Random(11)
        for _ in range(20):
            a, b = list(range(6)), list(range(6))
            rng.shuffle(a)
            rng.shuffle(b)
            S, T = rk.Automorphism(tuple(a)), rk.Automorphism(tuple(b))
            lhs = rk.koopman_matrix(rk.compose(S, T))
            rhs = rk.product(rk.koopman_matrix(S), rk.koopman_matrix(T))
            assert lhs.entries == rhs.entries

    def test_always_markov(self):
        rng = Random(3)
        for _ in range(20):
            fwd = list(range(8))
            rng.shuffle(fwd)
            U = rk.koopman_matrix(rk.Automorphism(tuple(fwd)))
            assert check_markov(U.entries) is None


class TestJointMatrix:
    def setup_method(self):
        self.alpha = rk.make_partition(AtomSpace(4), [1, 1, 2, 2])

    def test_identity_is_diagonal(self):
        J = rk.joint_matrix(rk.identity(4), self.alpha)
        assert J.to_strings() == [["1/2", "0"], ["0", "1/2"]]

    def test_cross_swap(self):
        J = rk.joint_matrix(rk.swap(4, 1, 2), self.alpha)
        assert J.to_strings() == [["1/4", "1/4"], ["1/4", "1/4"]]

    def test_within_cell_swap(self):
        J = rk.joint_matrix(rk.swap(4, 0, 1), self.alpha)
        assert J.to_strings() == [["1/2", "0"], ["0", "1/2"]]

    def test_matches_brute_force(self):
        rng = Random(5)
        alpha = rk.make_partition(AtomSpace(9), [1, 2, 3, 1, 2, 3, 1, 2, 3])
        for _ in range(50):
            fwd = list(range(9))
            rng.shuffle(fwd)
            T = rk.Automorphism(tuple(fwd))
            got = rk.joint_matrix(T, alpha)
            assert [list(r) for r in got.entries] == brute_joint(T, alpha)

    def test_marginals_are_cell_masses(self):
        rng = Random(13)
        alpha = rk.make_partition(AtomSpace(8), [1, 1, 1, 2, 2, 3, 3, 3])
        for _ in range(30):
            fwd = list(range(8))
            rng.shuffle(fwd)
            J = rk.joint_matrix(rk.Automorphism(tuple(fwd)), alpha)
            for i, row in enumerate(J.entries):
                assert sum(row) == alpha.masses[i]
            for j in range(3):
                assert sum(J.entries[i][j] for i in range(3)) == alpha.masses[j]

    def test_inverse_transposes(self):
        rng = Random(17)
        alpha = rk.make_partition(AtomSpace(8), [1, 1, 2, 2, 3, 3, 3, 3])
        for _ in range(30):
            fwd = list(range(8))
            rng.shuffle(fwd)
            T = rk.Automorphism(tuple(fwd))
            J = rk.joint_matrix(T, alpha)
            Jinv = rk.joint_matrix(rk.inverse(T), alpha)
            assert Jinv.entries == tuple(zip(*J.entries))

    def test_joint_equals_compressed_koopman(self):
        rng = Random(19)
        alpha = rk.make_partition(AtomSpace(6), [1, 2, 2, 3, 3, 3])
        for _ in range(10):
            fwd = list(range(6))
            rng.shuffle(fwd)
            T = rk.Automorphism(tuple(fwd))
            assert compress(rk.koopman_matrix(T), alpha).entries == \
                rk.joint_matrix(T, alpha).entries

    def test_joint_counts_total(self):
        T = rk.swap(4, 1, 2)
        assert sum(map(sum, joint_counts(T, self.alpha))) == 4
