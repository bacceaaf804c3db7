"""A chain far past Python's default recursion limit.

Every tree walk in the package is iterative, so depth costs time linear in
the number of blocks and never a ``RecursionError``.  Hazards of 1/2 keep
the exact numbers at about T bits, so the whole file runs in seconds.
"""

from fractions import Fraction as F

import pytest

from stopwright import (
    BOTH,
    INFINITY,
    ONLY_1,
    ONLY_2,
    adapted_process,
    behavior,
    best_response_value,
    build_space,
    constant_process,
    convert,
    enumerate_pure_stopping_times,
    equivalent,
    payoff,
    randomized,
    snell_value,
    stopping_game,
)
from stopwright.games import auxiliary_problem

T = 5000


def build_chain(horizon):
    nodes = [{"id": "c0", "parent": None}]
    nodes += [{"id": f"c{n}", "parent": f"c{n - 1}"} for n in range(1, horizon + 1)]
    nodes[-1]["prob"] = "1"
    return build_space(nodes)


@pytest.fixture(scope="module")
def chain():
    return build_chain(T)


@pytest.fixture(scope="module")
def halving(chain):
    """Stop mass 2^-n at time n: the behavior form has hazard 1/2 everywhere."""
    rho = {n: {chain.blocks(n)[0]: F(1, 2**n)} for n in range(1, T + 1)}
    return randomized(rho=rho, rho_inf={chain.atoms[0]: F(1, 2**T)})


def test_round_trip_through_behavior(chain, halving):
    hazards = convert(halving, "behavior", chain)
    assert all(level == {chain.blocks(n)[0]: F(1, 2)} for n, level in hazards.beta.items())
    back = convert(hazards, "randomized", chain)
    assert equivalent(back, halving, chain)
    assert back == halving


def test_snell_value_and_strategy(chain):
    # On a chain the optimum is the best single stop time, here deep in the tree.
    reward = {n: F(n % 97, 97) + F(n, T) for n in range(1, T + 1)}
    best = max(reward, key=reward.get)
    assert best == 4946
    problem = adapted_process(
        values={n: {chain.blocks(n)[0]: r} for n, r in reward.items()},
        infinity={chain.atoms[0]: 0},
    )
    result = snell_value(problem, chain)
    assert result.value == reward[best]
    assert result.strategy.stop == {chain.atoms[0]: best}
    assert payoff(result.strategy, problem, chain) == result.value


def test_best_response_attains_its_value(chain, halving):
    game = stopping_game(
        {
            (j, c): constant_process(chain, value)
            for j in (1, 2)
            for c, value in ((ONLY_1, 1), (ONLY_2, 2), (BOTH, 0))
        }
    )
    result = best_response_value(halving, game, 1, chain)
    # Stopping at n pays 2 - (3/2) 2^-(n-1): the opponent's stops bank 2 each,
    # our own stop earns 1 only if the opponent does not stop too.  Never
    # stopping pays 2 - 2^-(T-1), more than stopping at any time.
    assert result.value == 2 - F(2, 2**T)
    assert result.strategy.stop == {chain.atoms[0]: INFINITY}
    assert payoff(result.strategy, auxiliary_problem(halving, game, chain, 1), chain) == result.value


def test_enumeration_has_one_rule_per_stop_time(chain):
    rules = enumerate_pure_stopping_times(chain)
    assert len(rules) == T + 1
    assert [rule.stop[chain.atoms[0]] for rule in rules] == list(range(1, T + 1)) + [INFINITY]


def test_behavior_to_mixed_is_equivalent():
    # Every time carries stop mass, so there are T+1 sections; checking the
    # mixed form costs T per section, hence the shorter chain.
    horizon = 1200
    short = build_chain(horizon)
    hazards = behavior(beta={n: {short.blocks(n)[0]: F(1, 2)} for n in range(1, horizon + 1)})
    mixture = convert(hazards, "mixed", short)
    assert len(mixture.sections) == horizon + 1
    assert equivalent(mixture, hazards, short)
