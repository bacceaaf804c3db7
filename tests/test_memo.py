"""Read-only rules, processes and games, and the space's memo of their checks: reused by
identity, kept only while alive."""

import copy
import dataclasses
import gc
import operator
import pickle
import random
from fractions import Fraction as F
from types import MappingProxyType

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
    snell_value,
    validate,
    zero_sum_value,
)
from stopwright.convert import TARGET_TYPES
from stopwright.games import StoppingGame, _auxiliary, game_tables
from stopwright.space import AdaptedProcess, ReadOnly, Violation
from stopwright.stopping import (
    BehaviorStoppingTime,
    MixedStoppingTime,
    PureStoppingTime,
    RandomizedStoppingTime,
)

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


def change_pure(rng, stop, space) -> PureStoppingTime:
    """One stop index changed, in a copy: never at a stop at T, else T; now and then out of
    range."""
    stop = dict(stop)
    atom = rng.choice(space.atoms)
    stop[atom] = rng.choice([INFINITY if stop[atom] == space.horizon else space.horizon, 0])
    return PureStoppingTime(stop=stop)


def change_randomized(rng, eta, space) -> RandomizedStoppingTime:
    """In a copy, a horizon block's stop mass with its atom's never-stop mass, or the latter
    alone."""
    rho, rho_inf = {n: dict(level) for n, level in eta.rho.items()}, dict(eta.rho_inf)
    atom = rng.choice(space.atoms)
    block = space.block_of(space.horizon, atom)
    if rng.random() < 0.7:
        rho[space.horizon][block] += rho_inf[atom]
        rho_inf[atom] = F(0)
    else:
        rho_inf[atom] += F(1, 3)
    return RandomizedStoppingTime(rho=rho, rho_inf=rho_inf)


def change_behavior(rng, eta, space) -> BehaviorStoppingTime:
    beta = {n: dict(level) for n, level in eta.beta.items()}
    n = rng.randint(1, space.horizon)
    beta[n][rng.choice(space.blocks(n))] = rng.choice([F(1, 7), F(1), F(9, 7)])
    return BehaviorStoppingTime(beta=beta)


def change_mixed(rng, eta, space) -> MixedStoppingTime:
    sections = list(eta.sections)
    k = rng.randrange(len(sections))
    sections[k] = change_pure(rng, sections[k].stop, space)
    return dataclasses.replace(eta, sections=sections)


CHANGES = {
    "pure": (random_pure, lambda rng, eta, space: change_pure(rng, eta.stop, space)),
    "randomized": (random_randomized, change_randomized),
    "behavior": (random_behavior, change_behavior),
    "mixed": (random_mixed, change_mixed),
}


def tables_of(source) -> list:
    """Every table and row a space reads of a rule, a process or a game."""
    if isinstance(source, PureStoppingTime):
        return [source.stop]
    if isinstance(source, MixedStoppingTime):
        return [section.stop for section in source.sections]
    if isinstance(source, StoppingGame):
        return [source.payoffs] + [t for p in source.payoffs.values() for t in tables_of(p)]
    if isinstance(source, RandomizedStoppingTime):
        return [source.rho, *source.rho.values(), source.rho_inf]
    if isinstance(source, BehaviorStoppingTime):
        return [source.beta, *source.beta.values()]
    return [source.values, *source.values.values(), source.infinity]


#: Every way a dict changes in place, as ``edit(table, key)``.
EDITS = {
    "setitem": lambda table, key: operator.setitem(table, key, table[key]),
    "delitem": operator.delitem,
    "ior": lambda table, key: operator.ior(table, {key: table[key]}),
    "clear": lambda table, key: table.clear(),
    "pop": lambda table, key: table.pop(key),
    "popitem": lambda table, key: table.popitem(),
    "setdefault": lambda table, key: table.setdefault(key, table[key]),
    "update": lambda table, key: table.update({key: table[key]}),
}

SOURCES = {
    **{kind: make for kind, (make, _) in CHANGES.items()},
    "process": random_process,
    "game": random_game,
}


def results_of(source, space) -> list:
    """What the space computes from a rule, a process or a game."""
    if isinstance(source, AdaptedProcess):
        return [snell_value(source, space)]
    if isinstance(source, StoppingGame):
        return [game_tables(source, space)]
    return [detailed_distribution(source, space), densities(source, space)]


class TestReadOnly:
    @pytest.mark.parametrize("kind", sorted(SOURCES))
    def test_every_table_refuses_change_in_place(self, kind):
        rng = random.Random(f"read-only {kind}")
        space = random_space(rng, max_depth=3)
        source = SOURCES[kind](rng, space)
        before, results = copy.deepcopy(source), results_of(source, space)
        for table in tables_of(source):
            key = next(iter(table))
            for edit in EDITS.values():
                with pytest.raises(TypeError, match="read-only"):
                    edit(table, key)
        assert source == before
        assert results_of(source, space) == results

    @pytest.mark.parametrize("kind", sorted(SOURCES))
    def test_copies_are_read_only_and_give_the_same_results(self, kind):
        rng = random.Random(f"copies {kind}")
        space = random_space(rng, max_depth=3)
        source = SOURCES[kind](rng, space)
        copies = [
            copy.deepcopy(source),
            pickle.loads(pickle.dumps(source)),
            dataclasses.replace(source),
        ]
        for twin in copies:
            assert twin == source and twin is not source
            assert all(type(table) is ReadOnly for table in tables_of(twin))
            assert results_of(twin, space) == results_of(source, space)
        if kind == "mixed":
            assert type(source.breakpoints) is type(source.sections) is tuple

    def test_other_mappings_are_copied_to_read_only_tables(self, e1, b1):
        beta = MappingProxyType({n: MappingProxyType(dict(row)) for n, row in b1.beta.items()})
        twin = BehaviorStoppingTime(beta=beta)
        assert all(type(table) is ReadOnly for table in tables_of(twin))
        assert twin == b1
        assert detailed_distribution(twin, e1) == detailed_distribution(b1, e1)


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
            table = tables_of(eta)[-1]
            with pytest.raises(TypeError):
                table[next(iter(table))] = 0
            assert rule_results(eta, space, other, problem, game) == before
            edited = change(rng, eta, space)
            changed = rule_results(edited, space, other, problem, game)
            assert changed == rule_results(copy.deepcopy(edited), space, other, problem, game)
            invalid += isinstance(changed["validate"], Violation)
            assert changed != before or changed["validate"] is None
            # and again, from the check kept of the edited copy
            assert rule_results(edited, space, other, problem, game) == changed
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

    def test_invalid_rules_are_not_kept_and_subclass_valued_ones_are(self, e1, r1):
        bad = RandomizedStoppingTime(rho=r1.rho, rho_inf={**r1.rho_inf, "w1": F(1, 2)})
        assert validate(bad, e1).kind == "SumNotOne"
        assert e1._kept == {}
        rho = {n: dict(level) for n, level in r1.rho.items()}
        rho[1]["A"] = type("Half", (F,), {})(1, 2)
        subclassed = RandomizedStoppingTime(rho=rho, rho_inf=r1.rho_inf)
        assert validate(subclassed, e1) is None
        assert validate(r1, e1) is None
        assert list(e1._kept) == [(type(subclassed), id(subclassed)), (type(r1), id(r1))]


class TestDerived:
    """A rule's mass table, its densities and each fold against it are built once per kept check,
    shared read-only, and kept no longer than the rule."""

    @pytest.mark.parametrize("kind", sorted(CHANGES))
    def test_repeat_calls_share_one_read_only_result(self, kind):
        rng = random.Random(f"derived {kind}")
        space = random_space(rng, max_depth=3)
        eta = CHANGES[kind][0](rng, space)
        nu, rho = detailed_distribution(eta, space), densities(eta, space)
        assert detailed_distribution(eta, space) is nu and densities(eta, space) is rho
        atom = space.atoms[0]
        with pytest.raises(TypeError, match="read-only"):
            nu.mass[atom][INFINITY] = F(0)
        for table in (nu.mass, rho.rho, rho.rho[1], rho.rho_inf):
            with pytest.raises(TypeError, match="read-only"):
                table[next(iter(table))] = F(0)
        twin = copy.deepcopy(eta)
        assert detailed_distribution(twin, space) == nu
        assert detailed_distribution(twin, space) is not nu
        assert densities(twin, space) == rho and densities(twin, space) is not rho
        key = (type(eta), id(eta))
        del eta
        gc.collect()
        assert key not in space._kept
        assert (type(twin), id(twin)) in space._kept

    def test_folds_are_kept_with_the_opponent_not_the_game(self):
        rng = random.Random(1300)
        space = random_space(rng, max_depth=3)
        game, rule = random_game(rng, space), random_stopping_time(rng, space)
        empirical_game_payoff(rule, rule, game, space, 50, 1)
        kept = space._kept[type(game), id(game)]
        size = len(kept.derived)
        fold = _auxiliary(rule, game, space, 1)
        assert _auxiliary(rule, game, space, 1) is fold
        for _ in range(200):
            opponent = random_stopping_time(rng, space)
            game_payoff(rule, opponent, game, space)
            best_response_value(opponent, game, 1, space)
            auxiliary_problem(opponent, game, space, 2)
            assert len(kept.derived) == size
        del opponent
        gc.collect()
        assert len(space._kept) == 3  # the game, the rule and the space's own sampling arrays

    def test_a_new_game_is_folded_afresh(self):
        rng = random.Random(1301)
        space = random_space(rng, max_depth=3)
        rule = random_stopping_time(rng, space)
        for _ in range(20):  # a collected game's id is often reused by the next
            game = random_game(rng, space)
            fresh = best_response_value(copy.deepcopy(rule), copy.deepcopy(game), 2, space)
            assert best_response_value(rule, game, 2, space) == fresh
            del game
            gc.collect()
