"""Inputs outside a routine's regime raise ValueError, through one helper.

Every public boundary check of a size, of an ε or of a float tolerance is
one call to `markov._require_ints`, `markov._require_positive` or
`markov._require_tolerance`.  The table below holds one out-of-regime input
per routine that makes such a call, with the exact message it must raise,
so merging or moving the checks cannot drop one silently;
`test_every_helper_call_has_a_row` ties the table to the calls in
`src/`.  No row draws from its random generator before it raises.
"""
import ast
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

import roelcke as rk
from roelcke import semigroup
from roelcke.cli import ExperimentConfig
from roelcke.factorization import exhaustive_left_factor_scan, forward_bound_check
from roelcke.sampling import (
    random_close_pair,
    random_markov,
    random_observable,
    random_partition,
    random_permutation,
    random_small_deviation,
)
from roelcke.space import AtomSpace
from roelcke.wap import ObservableVector

SRC = Path(__file__).resolve().parent.parent / "src" / "roelcke"
HELPERS = {"_require_ints", "_require_positive", "_require_tolerance"}


# Built in each test, not at import: a mutant that breaks either constructor
# then fails the tests instead of the module's collection.
@pytest.fixture
def P():
    return rk.make_partition(AtomSpace(4), [1, 1, 2, 2])


@pytest.fixture
def S():
    return rk.identity(4)


# (id, the helper call's site as module.qualname, the call on (rng, P, S),
# its message)
ROWS = [
    ("atom-space-zero", "space.AtomSpace.__post_init__",
     lambda rng, P, S: AtomSpace(0), "atom_count must be >= 1, got 0"),
    ("label-zero", "space.Partition.__post_init__",
     lambda rng, P, S: rk.make_partition(AtomSpace(2), [0, 1]), "label must be >= 1, got 0"),
    ("automorphism-no-atoms", "space.Automorphism.__post_init__",
     lambda rng, P, S: rk.Automorphism(()), "atom_count must be >= 1, got 0"),
    ("automorphism-list", "space.Automorphism.__post_init__",
     lambda rng, P, S: rk.Automorphism([1, 0]), "forward [1, 0] is not a tuple"),
    ("identity-zero", "space.identity",
     lambda rng, P, S: rk.identity(0), "atom_count must be >= 1, got 0"),
    ("identity-float", "space.identity",
     lambda rng, P, S: rk.identity(2.5), "atom_count 2.5 is not an int"),
    ("markov-identity-zero", "markov.MarkovMatrix.identity",
     lambda rng, P, S: rk.MarkovMatrix.identity(0), "not a Markov matrix: size 0"),
    ("markov-uniform-float", "markov.MarkovMatrix.uniform",
     lambda rng, P, S: rk.MarkovMatrix.uniform(2.5), "not a Markov matrix: size 2.5"),
    ("permutation-zero", "sampling.random_permutation",
     lambda rng, P, S: random_permutation(rng, 0), "atom_count must be >= 1, got 0"),
    ("permutation-float", "sampling.random_permutation",
     lambda rng, P, S: random_permutation(rng, 2.5), "atom_count 2.5 is not an int"),
    ("markov-size-zero", "sampling.random_markov",
     lambda rng, P, S: random_markov(rng, 0), "size and terms must be >= 1, got 0"),
    ("markov-size-float", "sampling.random_markov",
     lambda rng, P, S: random_markov(rng, 2.5), "size and terms 2.5 is not an int"),
    ("markov-terms-float", "sampling.random_markov",
     lambda rng, P, S: random_markov(rng, 3, terms=2.5), "size and terms 2.5 is not an int"),
    ("classify-one", "semigroup.invariant_idempotent_classify",
     lambda rng, P, S: rk.invariant_idempotent_classify(1),
     f"regime is 2 <= N <= {semigroup.CLASSIFY_MAX_ATOMS}, got 1"),
    ("related-float", "uniformity.roelcke_related",
     lambda rng, P, S: rk.roelcke_related(S, S, S, S, P, 0.5),
     "epsilon must be positive and exact, got 0.5"),
    ("related-bool", "uniformity.roelcke_related",
     lambda rng, P, S: rk.roelcke_related(S, S, S, S, P, True),
     "epsilon must be positive and exact, got True"),
    ("net-float", "uniformity._net_step",
     lambda rng, P, S: rk.precompactness_net(P, 0.3),
     "epsilon must be positive and exact, got 0.3"),
    ("forward-float", "factorization.forward_bound_check",
     lambda rng, P, S: forward_bound_check(S, S, S, P, 0.5),
     "epsilon must be positive and exact, got 0.5"),
    ("factorize-float", "factorization._required",
     lambda rng, P, S: rk.factorize(S, S, P, 0.9),
     "epsilon must be positive and exact, got 0.9"),
    ("scan-float", "factorization._required",
     lambda rng, P, S: exhaustive_left_factor_scan(P, 0.5),
     "epsilon must be positive and exact, got 0.5"),
    ("small-deviation-float", "sampling.random_small_deviation",
     lambda rng, P, S: random_small_deviation(rng, P, 0.5),
     "epsilon must be positive and exact, got 0.5"),
    ("close-pair-float", "sampling.random_close_pair",
     lambda rng, P, S: random_close_pair(rng, P, 0.5),
     "epsilon must be positive and exact, got 0.5"),
    ("config-epsilon-zero", "cli.ExperimentConfig.__post_init__",
     lambda rng, P, S: ExperimentConfig("forward", epsilon=Fraction(0)),
     "epsilon must be positive and exact, got 0"),
    ("config-trials-zero", "cli.ExperimentConfig.__post_init__",
     lambda rng, P, S: ExperimentConfig("forward", trials=0),
     "atoms, cells and trials must be >= 1, got 0"),
    ("config-tol-nan", "cli.ExperimentConfig.__post_init__",
     lambda rng, P, S: ExperimentConfig("cesaro", tol=float("nan")),
     "tol must be positive and finite, got nan"),
    ("cesaro-tol-bool", "semigroup.cesaro_idempotent",
     lambda rng, P, S: rk.cesaro_idempotent(rk.MarkovMatrix.identity(2), tol=True),
     "tol must be positive and finite, got True"),
    ("swap-float", "space.swap",
     lambda rng, P, S: rk.swap(2.5, 0, 1), "atom_count and atoms 2.5 is not an int"),
    ("partition-float", "sampling.random_partition",
     lambda rng, P, S: random_partition(rng, 2.5, 1),
     "atom_count and cell_count 2.5 is not an int"),
    ("observable-float", "sampling.random_observable",
     lambda rng, P, S: random_observable(rng, 2.5), "atom_count 2.5 is not an int"),
    ("round-to-grid-float", "density.round_to_grid",
     lambda rng, P, S: rk.round_to_grid(rk.joint_matrix(S, P), 2.5), "N 2.5 is not an int"),
    ("observable-float-value", None,
     lambda rng, P, S: ObservableVector((0.5, 1.5)),
     "observable value 0.5 is not an int or a Fraction"),
]


@pytest.mark.parametrize("call, message", [row[2:] for row in ROWS],
                         ids=[row[0] for row in ROWS])
def test_out_of_regime_input_raises(call, message, P, S):
    rng = Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError) as err:
        call(rng, P, S)
    assert str(err.value) == message
    assert rng.getstate() == state


def _helper_sites() -> set[str]:
    """module.qualname of every function in src/ that calls a helper."""
    sites = set()

    def walk(node, module, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = [*scope, child.name]
            elif isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "attr", getattr(func, "id", None)) in HELPERS:
                    sites.add(".".join([module, *scope]))
            walk(child, module, inner)

    for path in SRC.glob("*.py"):
        walk(ast.parse(path.read_text()), path.stem, [])
    return sites


def test_every_helper_call_has_a_row():
    assert _helper_sites() == {row[1] for row in ROWS} - {None}


class TestExactEpsilon:
    """An int ε is exact too: it gives what the equal Fraction gives."""

    def test_int_and_fraction_agree(self, P, S):
        one = Fraction(1)
        assert rk.roelcke_related(S, S, S, S, P, 1)
        assert forward_bound_check(S, S, S, P, 1) == forward_bound_check(S, S, S, P, one)
        assert rk.precompactness_net(P, 1) == rk.precompactness_net(P, one)
        assert exhaustive_left_factor_scan(P, 1) == exhaustive_left_factor_scan(P, one)
        assert rk.factorize(S, S, P, 1) == rk.factorize(S, S, P, one)
        assert random_close_pair(Random(5), P, 1) == random_close_pair(Random(5), P, one)

    def test_required_distance_stays_a_fraction_for_an_int(self, P, S):
        # 1 / n**2 is the float 0.25; the precondition must stay exact.
        with pytest.raises(rk.FactorizationPreconditionError) as err:
            rk.factorize(S, rk.swap(4, 0, 2), P, 1)
        assert type(err.value.required) is Fraction
        assert err.value.required == Fraction(1, 4)
