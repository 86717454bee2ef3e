"""Idempotents, their order, averaged-power limits, and conjugation."""
import math
from collections import Counter
from fractions import Fraction
from random import Random

import numpy as np
import pytest

import roelcke as rk
from roelcke import markov, semigroup
from roelcke.sampling import (
    random_cell_preserving,
    random_markov,
    random_partition,
    random_permutation,
)
from roelcke.semigroup import CESARO_MAX_POWERS, CesaroConvergenceError
from roelcke.space import AtomSpace


def set_partitions(N):
    """All partitions of {0..N-1} as label arrays (restricted growth)."""
    out = []

    def rec(prefix, used):
        if len(prefix) == N:
            out.append([1 + v for v in prefix])
            return
        for v in range(used + 1):
            rec(prefix + [v], max(used, v + 1))

    rec([], 0)
    return out


class TestIdempotents:
    def test_identity(self):
        assert rk.is_idempotent(rk.MarkovMatrix.identity(4))

    def test_uniform(self):
        assert rk.is_idempotent(rk.MarkovMatrix.uniform(5))

    def test_block_average_always_idempotent(self):
        for labels in set_partitions(5):
            beta = rk.make_partition(AtomSpace(5), labels)
            B = rk.block_average(beta)
            assert rk.is_idempotent(B)
            assert rk.check_markov(B.entries) is None

    def test_generic_markov_is_not(self):
        K = random_markov(Random(1), 4)
        assert not rk.is_idempotent(K)


class TestBlockAverage:
    def test_singletons_give_identity(self):
        beta = rk.make_partition(AtomSpace(4), [1, 2, 3, 4])
        assert rk.block_average(beta).entries == rk.MarkovMatrix.identity(4).entries

    def test_one_cell_gives_uniform(self):
        beta = rk.make_partition(AtomSpace(4), [1, 1, 1, 1])
        assert rk.block_average(beta).entries == rk.MarkovMatrix.uniform(4).entries

    def test_two_blocks(self):
        beta = rk.make_partition(AtomSpace(4), [1, 1, 2, 2])
        B = rk.block_average(beta)
        h = Fraction(1, 2)
        assert B.entries[0] == (h, h, Fraction(0), Fraction(0))
        assert B.entries[3] == (Fraction(0), Fraction(0), h, h)
        assert rk.product(B, B).entries == B.entries

    def test_interleaved_cells_share_one_row_each(self):
        labels = [1, 2, 2, 1, 3]
        B = rk.block_average(rk.make_partition(AtomSpace(5), labels))
        size = {1: 2, 2: 2, 3: 1}
        assert B.entries == tuple(
            tuple(Fraction(1, size[a]) if a == b else Fraction(0) for b in labels)
            for a in labels
        )
        assert B.entries[0] is B.entries[3] and B.entries[1] is B.entries[2]


class TestOrder:
    def test_uniform_below_identity(self):
        p = rk.MarkovMatrix.uniform(3)
        q = rk.MarkovMatrix.identity(3)
        check = rk.order_check(p, q)
        assert check.pq_eq_p and check.qp_eq_p and check.below

    def test_reflexive(self):
        p = rk.MarkovMatrix.uniform(4)
        assert rk.order_check(p, p).below

    def test_rejects_non_idempotent(self):
        # On every call: a cached verdict must not let the second one through.
        K = random_markov(Random(2), 3)
        for _ in range(2):
            with pytest.raises(ValueError, match="first argument is not idempotent"):
                rk.order_check(K, rk.MarkovMatrix.identity(3))

    def test_rejects_non_idempotent_second_argument(self):
        K = random_markov(Random(2), 3)
        with pytest.raises(ValueError, match="second argument is not idempotent"):
            rk.order_check(rk.MarkovMatrix.identity(3), K)

    def test_idempotency_proven_once_per_object(self, monkeypatch):
        calls = []
        original = markov.product

        def counting(K1, K2):
            calls.append((K1, K2))
            return original(K1, K2)

        monkeypatch.setattr(markov, "product", counting)
        monkeypatch.setattr(semigroup, "product", counting)
        space = AtomSpace(4)
        p = rk.block_average(rk.make_partition(space, [1, 1, 2, 2]))
        q = rk.block_average(rk.make_partition(space, [1, 2, 3, 3]))
        assert rk.order_check(p, q).below and rk.order_check(p, q).below
        # Two proofs, then two absorption products per call.
        assert len(calls) == 6
        assert [c for c in calls if c[0] is c[1]] == [(p, p), (q, q)]

        calls.clear()
        twins = [rk.block_average(rk.make_partition(space, [1, 2, 2, 1]))
                 for _ in range(2)]
        assert twins[0] == twins[1] and twins[0] is not twins[1]
        for K in twins + twins:
            assert rk.is_idempotent(K)
        assert len(calls) == 2
        assert calls[0][0] is twins[0] and calls[1][0] is twins[1]

    def test_equivalence_exhaustive_small(self):
        # One-sided absorption is two-sided for block averages; N = 4.
        blocks = [
            rk.block_average(rk.make_partition(AtomSpace(4), labels))
            for labels in set_partitions(4)
        ]
        for p in blocks:
            for q in blocks:
                assert rk.order_check(p, q).equivalent


class TestCesaro:
    def test_identity_fixed(self):
        rep = rk.cesaro_idempotent(rk.MarkovMatrix.identity(3))
        assert rep.classification == "identity"
        assert rep.idempotency_defect < 1e-12

    def test_slow_mixing_window_classified_other(self):
        # K = (1 - d) I + d C, C a 4-cycle: the support is one class, so the
        # exact limit is J/4, but with d = 1/1000 the first windows of powers
        # agree to tol = 1e-2 while they are still near I.
        d = Fraction(1, 1000)
        C = rk.koopman_matrix(rk.Automorphism((1, 2, 3, 0)))
        K = rk.convex_combination([1 - d, d], [rk.MarkovMatrix.identity(4), C])
        rep = rk.cesaro_idempotent(K, tol=1e-2)
        assert rep.classification == "other"
        assert rep.iterations == 4

    def test_two_cycle(self):
        rep = rk.cesaro_idempotent(rk.koopman_matrix(rk.swap(2, 0, 1)))
        assert np.allclose(rep.matrix, 0.5)
        assert rep.classification == "constants_projection"

    def test_block_average_is_fixed_point(self):
        beta = rk.make_partition(AtomSpace(4), [1, 1, 2, 2])
        rep = rk.cesaro_idempotent(rk.block_average(beta))
        expected = [[float(v) for v in row] for row in rk.block_average(beta).entries]
        assert np.allclose(rep.matrix, expected)
        assert rep.classification == "block_average"

    def test_random_markov_converges(self):
        rng = Random(3)
        for _ in range(10):
            K = random_markov(rng, 6, terms=3)
            rep = rk.cesaro_idempotent(K, tol=1e-8)
            assert rep.idempotency_defect < 1e-8
            assert rep.absorb_left < 1e-8
            assert rep.absorb_right < 1e-8
            # Below the power idempotent, exactly.
            p = rk.cesaro_limit_exact(K)
            assert rk.order_check(p, rk.power_idempotent_exact(K)).below

    def test_nonconvergent_raises(self):
        # No float window average agrees with the next to 1e-30, so the
        # full power budget runs out.
        K = random_markov(Random(4), 6, terms=3)
        with pytest.raises(CesaroConvergenceError) as info:
            rk.cesaro_idempotent(K, tol=1e-30)
        assert CESARO_MAX_POWERS // 2 < info.value.iterations <= CESARO_MAX_POWERS

    def test_nonconvergent_message_names_the_period(self):
        # A 3-cycle does not mix slowly: its windows, of power-of-2 length,
        # never cover a whole number of periods.
        K = rk.koopman_matrix(rk.Automorphism((1, 2, 0)))
        with pytest.raises(CesaroConvergenceError) as info:
            rk.cesaro_idempotent(K)
        message = str(info.value)
        assert "period that is not a power of 2" in message
        assert "cesaro_limit_exact" in message
        assert CESARO_MAX_POWERS // 2 < info.value.iterations <= CESARO_MAX_POWERS
        assert info.value.last_defect > 1e-8
        assert rk.cesaro_limit_exact(K).entries == rk.MarkovMatrix.uniform(3).entries

    @pytest.mark.parametrize("tol", [0, -1e-8, float("inf"), float("nan"),
                                     Fraction(1, 10**8)])
    def test_tol_outside_regime_rejected(self, tol):
        # tol = 0 used to run the whole power budget on the identity, whose
        # defect is exactly 0, and blame slow mixing.
        with pytest.raises(ValueError, match="positive and finite"):
            rk.cesaro_idempotent(rk.MarkovMatrix.identity(2), tol=tol)

    def test_permutation_period_average_exact(self):
        rng = Random(5)
        for _ in range(10):
            T = random_permutation(rng, 7)
            U = rk.koopman_matrix(T)
            p = rk.cesaro_limit_exact(U)
            assert rk.is_idempotent(p)
            assert rk.product(p, U).entries == p.entries
            assert rk.product(U, p).entries == p.entries

    def test_classification_names_the_exact_limit(self):
        # Reducible K hide a partition: convex combinations of permutations
        # that preserve its cells.  Periodic permutation matrices converge
        # only when their period is a power of 2; for the others the float
        # windows never settle, and the exact limit is the only answer.
        rng = Random(12)
        inputs = []
        for t in range(30):
            N = 6 + t % 6
            hidden = random_partition(rng, N, 1 + t % 4)
            perms = [random_cell_preserving(rng, hidden) for _ in range(3)]
            weights = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]
            inputs.append(rk.convex_combination(
                weights, [rk.koopman_matrix(T) for T in perms]))
        for cycles in [(1, 1, 1), (2, 2, 1), (4,), (4, 2, 2), (3,), (2, 3), (5, 1)]:
            forward, start = [], 0
            for length in cycles:
                forward += [start + (i + 1) % length for i in range(length)]
                start += length
            K = rk.koopman_matrix(rk.Automorphism(tuple(forward)))
            # The powers repeat with the period, so one period's average is
            # the limit.
            period = math.lcm(*cycles)
            powers = [K]
            while len(powers) < period:
                powers.append(rk.product(powers[-1], K))
            average = rk.convex_combination([Fraction(1, period)] * period, powers)
            assert rk.cesaro_limit_exact(K).entries == average.entries
            inputs.append(K)
        counts = Counter()
        for K in inputs:
            p = rk.cesaro_limit_exact(K)
            try:
                rep = rk.cesaro_idempotent(K)
            except CesaroConvergenceError:
                assert rk.is_idempotent(p)
                assert rk.product(p, K).entries == p.entries
                assert rk.product(K, p).entries == p.entries
                counts["diverged"] += 1
                continue
            expected = np.array([[float(v) for v in row] for row in p.entries])
            assert np.max(np.abs(rep.matrix - expected)) < 1e-6
            counts[rep.classification] += 1
        assert counts["other"] == 0
        assert counts["identity"] > 0
        assert counts["block_average"] > 0
        assert counts["constants_projection"] > 0
        assert counts["diverged"] == 3


def block_cycle(weights):
    """K on 2*len(weights) atoms moving pair r onto pair r + 1 (mod the
    count) through the doubly stochastic 2x2 [[w, 1-w], [1-w, w]]."""
    d = len(weights)
    rows = [[Fraction(0)] * (2 * d) for _ in range(2 * d)]
    for r, w in enumerate(weights):
        s = (r + 1) % d
        for a in range(2):
            for b in range(2):
                rows[2 * s + b][2 * r + a] = w if a == b else 1 - w
    return rk.MarkovMatrix(tuple(map(tuple, rows)))


class TestPowerIdempotent:
    def test_permutation_gives_identity(self):
        rng = Random(6)
        for _ in range(10):
            U = rk.koopman_matrix(random_permutation(rng, 7))
            E = rk.power_idempotent_exact(U)
            assert E.entries == rk.MarkovMatrix.identity(7).entries
            assert rk.order_check(rk.cesaro_limit_exact(U), E).below

    def test_period_two_blocks(self):
        K = block_cycle([Fraction(1, 2), Fraction(1, 2)])
        halves = rk.block_average(rk.make_partition(AtomSpace(4), [1, 1, 2, 2]))
        assert rk.power_idempotent_exact(K).entries == halves.entries
        assert rk.product(K, K).entries == halves.entries
        assert rk.cesaro_limit_exact(K).entries == rk.MarkovMatrix.uniform(4).entries

    def test_powers_tend_to_it(self):
        # Period 3, with a mixing step inside each pair: K^(3m) approaches
        # E geometrically, while K^(3m+1) stays a block-averaged shift.
        K = block_cycle([Fraction(3, 4), Fraction(2, 3), Fraction(1, 5)])
        E = rk.power_idempotent_exact(K)
        assert E.entries == rk.block_average(
            rk.make_partition(AtomSpace(6), [1, 1, 2, 2, 3, 3])).entries
        A = np.array([[float(v) for v in row] for row in K.entries])
        expected = np.array([[float(v) for v in row] for row in E.entries])
        assert np.max(np.abs(np.linalg.matrix_power(A, 90) - expected)) < 1e-9
        assert np.max(np.abs(np.linalg.matrix_power(A, 91) - expected)) > 0.4

    def test_aperiodic_equals_cesaro_limit(self):
        rng = Random(7)
        for _ in range(10):
            K = random_markov(rng, 6, terms=3)
            assert rk.power_idempotent_exact(K) == rk.cesaro_limit_exact(K)

    def test_classes_numbered_first_root_first(self):
        # Classes {0} and {1, 2, 3, 4}; the second alternates between its
        # subclasses {1, 3} and {2, 4}.
        h = Fraction(1, 2)
        K = rk.MarkovMatrix((
            (1, 0, 0, 0, 0),
            (0, 0, h, 0, h),
            (0, h, 0, h, 0),
            (0, 0, h, 0, h),
            (0, h, 0, h, 0),
        ))
        labels, sublabels = semigroup._support_classes(K)
        assert labels == [1, 2, 2, 2, 2]
        assert sublabels == [1, 2, 3, 2, 3]


class TestClassify:
    @pytest.mark.parametrize("N", [2, 3, 4, 5, 6, 7, 8, 12, 16, 32, 64])
    def test_exactly_two(self, N):
        found = rk.invariant_idempotent_classify(N)
        assert [m.entries for m in found] == [
            rk.MarkovMatrix.identity(N).entries,
            rk.MarkovMatrix.uniform(N).entries,
        ]

    @pytest.mark.parametrize("N", [2, 6, 64])
    def test_closed_form_calls_no_sympy(self, N, monkeypatch):
        def solver(*args, **kwargs):
            raise AssertionError("the classifier called sympy")

        monkeypatch.setattr(semigroup.sympy, "solve", solver)
        monkeypatch.setattr(semigroup.sympy, "symbols", solver)
        found = rk.invariant_idempotent_classify(N)
        assert [m.entries for m in found] == [
            rk.MarkovMatrix.identity(N).entries,
            rk.MarkovMatrix.uniform(N).entries,
        ]

    def test_unproven_root_raises(self, monkeypatch):
        monkeypatch.setattr(semigroup, "is_idempotent", lambda K: False)
        with pytest.raises(RuntimeError, match="not idempotent"):
            rk.invariant_idempotent_classify(4)

    def test_orbits_other_than_diagonal_and_rest_raise(self, monkeypatch):
        pair_orbits = semigroup._pair_orbits

        def walk(N):  # the off-diagonal orbit split in two
            diagonal, rest = pair_orbits(N)
            return [diagonal, rest[:1], rest[1:]]

        monkeypatch.setattr(semigroup, "_pair_orbits", walk)
        with pytest.raises(RuntimeError, match="pair orbits"):
            rk.invariant_idempotent_classify(4)

    @pytest.mark.parametrize("N", [1, semigroup.CLASSIFY_MAX_ATOMS + 1,
                                   Fraction(5, 2), True],
                             ids=["1", "65", "5-halves", "True"])
    def test_regime_checked_before_orbit_walk(self, N, monkeypatch):
        def walk(N):
            raise AssertionError("orbit walk ran before the regime check")

        monkeypatch.setattr(semigroup, "_pair_orbits", walk)
        with pytest.raises(ValueError, match="regime"):
            rk.invariant_idempotent_classify(N)

    def test_known_solutions_are_invariant(self):
        rng = Random(6)
        for N in (2, 4, 6):
            for p in (rk.MarkovMatrix.identity(N), rk.MarkovMatrix.uniform(N)):
                assert rk.is_idempotent(p)
                for _ in range(10):
                    g = random_permutation(rng, N)
                    assert rk.conjugate(p, g).entries == p.entries


class TestConjugate:
    def test_identity_element(self):
        K = random_markov(Random(7), 4)
        assert rk.conjugate(K, rk.identity(4)).entries == K.entries

    def test_uniform_is_central(self):
        rng = Random(8)
        U = rk.MarkovMatrix.uniform(5)
        for _ in range(10):
            g = random_permutation(rng, 5)
            assert rk.conjugate(U, g).entries == U.entries

    def test_block_average_relabels(self):
        beta = rk.make_partition(AtomSpace(4), [1, 1, 2, 2])
        g = rk.swap(4, 1, 2)
        moved = rk.conjugate(rk.block_average(beta), g)
        relabeled = rk.make_partition(AtomSpace(4), [1, 2, 1, 2])
        assert moved.entries == rk.block_average(relabeled).entries

    def test_semigroup_automorphism(self):
        rng = Random(9)
        for _ in range(20):
            K1 = random_markov(rng, 4)
            K2 = random_markov(rng, 4)
            g = random_permutation(rng, 4)
            lhs = rk.conjugate(rk.product(K1, K2), g)
            rhs = rk.product(rk.conjugate(K1, g), rk.conjugate(K2, g))
            assert lhs.entries == rhs.entries

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="size mismatch"):
            rk.conjugate(rk.MarkovMatrix.identity(3), rk.identity(4))

    def test_markov_preserved(self):
        rng = Random(10)
        for _ in range(20):
            K = random_markov(rng, 5)
            g = random_permutation(rng, 5)
            assert rk.check_markov(rk.conjugate(K, g).entries) is None
