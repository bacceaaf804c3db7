"""The space's memo of checked rules and games: reused only while exact, kept only while alive."""

import copy
import gc
import pickle
import random
from fractions import Fraction as F

import pytest

from stopwright import (
    INFINITY,
    ValidationError,
    auxiliary_problem,
    best_response_value,
    check_epsilon_equilibrium,
    check_epsilon_optimal,
    convert,
    densities,
    detailed_distribution,
    distinguish,
    empirical_detailed_distribution,
    empirical_game_payoff,
    equivalent,
    game_payoff,
    is_zero_sum,
    payoff,
    validate,
    zero_sum_value,
)
from stopwright.convert import TARGET_TYPES
from stopwright.games import game_tables
from stopwright.space import Violation

from fuzz import (
    random_behavior,
    random_game,
    random_mixed,
    random_process,
    random_pure,
    random_randomized,
    random_space,
    random_stopping_time,
    random_zero_sum_game,
)


def outcome(call):
    """What a call returns, or the ValidationError it raises as its text and Violation."""
    try:
        return call()
    except ValidationError as error:
        return ("ValidationError", str(error), error.violation)


def rule_results(eta, space, other, problem, game) -> dict:
    """Everything the public rule calls give for ``eta``."""
    return {
        "validate": validate(eta, space),
        "detailed_distribution": outcome(lambda: detailed_distribution(eta, space)),
        "densities": outcome(lambda: densities(eta, space)),
        "convert": [outcome(lambda: convert(eta, target, space)) for target in TARGET_TYPES],
        "equivalent": outcome(lambda: equivalent(eta, other, space)),
        "distinguish": outcome(lambda: distinguish(other, eta, space)),
        "payoff": outcome(lambda: payoff(eta, problem, space)),
        "check_epsilon_optimal": outcome(lambda: check_epsilon_optimal(eta, problem, 0, space)),
        "game_payoff": outcome(lambda: game_payoff(other, eta, game, space)),
        "best_response_value": outcome(lambda: best_response_value(eta, game, 2, space)),
        "auxiliary_problem": outcome(lambda: auxiliary_problem(eta, game, space, 1)),
        "empirical": outcome(lambda: empirical_detailed_distribution(eta, space, 300, 2)),
    }


def change_pure(rng, stop, space):
    """One stop index in place: never at a stop at T, else T; now and then out of range."""
    atom = rng.choice(space.atoms)
    stop[atom] = rng.choice([INFINITY if stop[atom] == space.horizon else space.horizon, 0])


def change_randomized(rng, eta, space):
    """A horizon block's stop mass with its atom's never-stop mass, or the latter alone."""
    atom = rng.choice(space.atoms)
    block = space.block_of(space.horizon, atom)
    if rng.random() < 0.7:
        eta.rho[space.horizon][block] += eta.rho_inf[atom]
        eta.rho_inf[atom] = F(0)
    else:
        eta.rho_inf[atom] += F(1, 3)


def change_behavior(rng, eta, space):
    n = rng.randint(1, space.horizon)
    eta.beta[n][rng.choice(space.blocks(n))] = rng.choice([F(1, 7), F(1), F(9, 7)])


CHANGES = {
    "pure": (random_pure, lambda rng, eta, space: change_pure(rng, eta.stop, space)),
    "randomized": (random_randomized, change_randomized),
    "behavior": (random_behavior, change_behavior),
    "mixed": (
        random_mixed,
        lambda rng, eta, space: change_pure(rng, rng.choice(eta.sections).stop, space),
    ),
}


class TestChangedRule:
    @pytest.mark.parametrize("kind", sorted(CHANGES))
    def test_changed_rule_gives_the_results_of_a_fresh_one(self, kind):
        make, change = CHANGES[kind]
        rng = random.Random(f"memo {kind}")
        invalid = 0
        for _ in range(8):
            space = random_space(rng, max_depth=3)
            eta, other = make(rng, space), random_stopping_time(rng, space)
            problem, game = random_process(rng, space), random_game(rng, space)
            before = rule_results(eta, space, other, problem, game)
            change(rng, eta, space)
            changed = rule_results(eta, space, other, problem, game)
            assert changed == rule_results(copy.deepcopy(eta), space, other, problem, game)
            invalid += isinstance(changed["validate"], Violation)
            assert changed != before or changed["validate"] is None
            # and again, from the check kept of the changed rule
            assert rule_results(eta, space, other, problem, game) == changed
        assert 0 < invalid < 8


def kept_state(space) -> list[bytes]:
    """Every kept check's parts and what was derived from them, as bytes."""
    return sorted(
        pickle.dumps((kept.parts, list(kept.derived.values()))) for kept in space._kept.values()
    )


class TestRepeatedCalls:
    def test_every_call_twice_gives_equal_results_and_mutates_nothing_kept(self):
        rng = random.Random(4242)
        for _ in range(4):
            space = random_space(rng, max_depth=3)
            rules = [make(rng, space) for make, _ in CHANGES.values()]
            problem, game = random_process(rng, space), random_game(rng, space)
            zero_sum = random_zero_sum_game(rng, space)

            def results():
                out = [
                    rule_results(eta, space, other, problem, game)
                    for eta, other in zip(rules, rules[1:] + rules[:1])
                ]
                out.append(
                    [
                        is_zero_sum(zero_sum, space),
                        zero_sum_value(zero_sum, space),
                        check_epsilon_equilibrium(*rules[2:], zero_sum, 0, space),
                        empirical_game_payoff(rules[0], rules[3], game, space, 300, 5),
                    ]
                )
                return out

            first = results()
            state = kept_state(space)
            assert results() == first
            assert kept_state(space) == state


class TestLifetime:
    def test_an_entry_lives_no_longer_than_its_input(self):
        rng = random.Random(77)
        space = random_space(rng, max_depth=3)
        eta, game = random_stopping_time(rng, space), random_game(rng, space)
        detailed_distribution(eta, space)
        game_tables(game, space)
        keys = [(type(eta), id(eta)), (type(game), id(game))]
        assert all(key in space._kept for key in keys)
        del eta, game
        gc.collect()
        assert not any(key in space._kept for key in keys)

    def test_invalid_and_slow_read_rules_are_not_kept(self, e1, r1):
        bad = copy.deepcopy(r1)
        bad.rho_inf["w1"] = F(1, 2)
        assert validate(bad, e1).kind == "SumNotOne"
        subclassed = copy.deepcopy(r1)
        subclassed.rho[1]["A"] = type("Half", (F,), {})(1, 2)
        assert validate(subclassed, e1) is None
        assert e1._kept == {}
        assert validate(r1, e1) is None
        assert list(e1._kept) == [(type(r1), id(r1))]
