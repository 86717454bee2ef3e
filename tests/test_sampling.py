"""Sampler inputs outside their regime raise before drawing anything, and
the benchmark's draws stay pinned."""
import hashlib
import json
from fractions import Fraction
from random import Random

import pytest

import roelcke as rk
from roelcke.sampling import (
    random_close_pair,
    random_markov,
    random_partition,
    random_small_deviation,
)
from roelcke.space import AtomSpace


def halves4():
    return rk.make_partition(AtomSpace(4), [1, 1, 2, 2])


class TestInputRegime:
    @pytest.mark.parametrize("atoms, cells", [(4, 0), (4, -1), (4, 5)])
    def test_partition_cell_count_out_of_range(self, atoms, cells):
        rng = Random(0)
        state = rng.getstate()
        with pytest.raises(ValueError, match="cell_count"):
            random_partition(rng, atoms, cells)
        assert rng.getstate() == state

    @pytest.mark.parametrize("sampler", [random_small_deviation, random_close_pair])
    @pytest.mark.parametrize("epsilon", [Fraction(0), Fraction(-1, 4)])
    def test_nonpositive_epsilon(self, sampler, epsilon):
        rng = Random(0)
        state = rng.getstate()
        with pytest.raises(ValueError, match="epsilon must be positive"):
            sampler(rng, halves4(), epsilon)
        assert rng.getstate() == state

    @pytest.mark.parametrize("terms", [0, -1])
    def test_markov_needs_a_term(self, terms):
        rng = Random(0)
        state = rng.getstate()
        with pytest.raises(ValueError, match="terms must be >= 1"):
            random_markov(rng, 4, terms)
        assert rng.getstate() == state


# sha256 of json.dumps of the to_strings() of the 16 random_markov(rng, 32,
# terms=4) matrices drawn from Random(2700): the benchmark's markov-dense
# pool, whose products are checked there but whose inputs are not.
MARKOV_DENSE_POOL = "dd77806cdb881cc1752d4a56410b43f28df86ae10401913e0e72e55776b8ae95"


def test_random_markov_draws_pinned_at_the_benchmark_size():
    rng = Random(2700)
    pool = [random_markov(rng, 32, terms=4).to_strings() for _ in range(16)]
    assert hashlib.sha256(json.dumps(pool).encode()).hexdigest() == MARKOV_DENSE_POOL
