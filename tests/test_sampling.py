"""Sampler inputs outside their regime raise before drawing anything."""
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
