"""Read-only rules, processes and games, and the space's memo of their checks: reused by
identity, kept only while alive."""

import copy
import dataclasses
import gc
import operator
import pickle
import random
import re
import tracemalloc
import weakref
from fractions import Fraction as F
from types import MappingProxyType

import pytest

from stopwright import (
    INFINITY,
    NotAStoppingMeasure,
    NotZeroSum,
    StoppingMeasure,
    StructureError,
    ValidationError,
    auxiliary_problem,
    best_response_value,
    build_space,
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
    is_stopping_measure,
    is_zero_sum,
    measure_to_randomized,
    payoff,
    snell_value,
    stopping_game,
    validate,
    zero_sum_value,
)
from stopwright.convert import TARGET_TYPES
from stopwright.games import KEYS, StoppingGame, _against, _folded, kept_game
from stopwright.montecarlo import _stop_columns, detailed_counts_chunk
from stopwright.space import AdaptedProcess, FilteredSpace, ReadOnly, Violation
from stopwright.stopping import (
    BehaviorStoppingTime,
    MixedStoppingTime,
    PureStoppingTime,
    RandomizedStoppingTime,
    check,
    density_of,
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
        return [kept_game(source, space).parts]
    return [detailed_distribution(source, space), densities(source, space)]


#: Every library entry point that takes a problem, as ``call(problem, rule, space)``.
PROBLEM_CALLS = {
    "payoff": lambda x, eta, space: payoff(eta, x, space),
    "snell_value": lambda x, eta, space: snell_value(x, space),
    "check_epsilon_optimal": lambda x, eta, space: check_epsilon_optimal(eta, x, 0, space),
}

#: Every library entry point that takes a game, as ``call(game, rule, space)``.
GAME_CALLS = {
    "is_zero_sum": lambda x, eta, space: is_zero_sum(x, space),
    "zero_sum_value": lambda x, eta, space: zero_sum_value(x, space),
    "game_payoff": lambda x, eta, space: game_payoff(eta, eta, x, space),
    "auxiliary_problem": lambda x, eta, space: auxiliary_problem(eta, x, space, 1),
    "best_response_value": lambda x, eta, space: best_response_value(eta, x, 2, space),
    "check_epsilon_equilibrium": lambda x, eta, space: check_epsilon_equilibrium(
        eta, eta, x, 0, space
    ),
    "empirical_game_payoff": lambda x, eta, space: empirical_game_payoff(
        eta, eta, x, space, 10, 0
    ),
}


class TestWrongTypedInputs:
    """A problem or a game of the wrong type is refused by its type, with a TypeError that names
    it, whether or not the space has kept a check of that object under another role.  A value
    whose fields have the wrong type is refused by the package's own errors: a game's payoff
    slot by ``StoppingGame``, a measure by the stopping-measure decision, a mixed rule by its
    check and a tree by ``build_space``; none raises a bare TypeError or AttributeError."""

    @pytest.mark.parametrize(
        "name, noun, wrong_kind",
        [(name, "stopping problem", "game") for name in PROBLEM_CALLS]
        + [(name, "stopping game", "process") for name in GAME_CALLS],
    )
    @pytest.mark.parametrize("wrong", ["None", "rule", "other kind"])
    def test_is_refused_before_and_after_it_is_kept(self, name, noun, wrong_kind, wrong):
        rng = random.Random(f"wrong {name} {wrong}")
        space = random_space(rng, max_depth=3)
        eta = random_behavior(rng, space)
        call = {**PROBLEM_CALLS, **GAME_CALLS}[name]
        thing = {
            "None": None,
            "rule": random_randomized(rng, space),
            "other kind": SOURCES[wrong_kind](rng, space),
        }[wrong]
        message = f"not a {noun}: {type(thing).__name__}$"
        with pytest.raises(TypeError, match=message):
            call(thing, eta, space)
        if thing is not None:
            results_of(thing, space)  # now the space keeps a check of it
            assert space._kept[type(thing), id(thing)].ref() is thing
            with pytest.raises(TypeError, match=message):
                call(thing, eta, space)

    @pytest.mark.parametrize("build", [StoppingGame, stopping_game], ids=["class", "builder"])
    @pytest.mark.parametrize("wrong", ["None", "5", "[]", "rule", "game"])
    @pytest.mark.parametrize("slot", KEYS, ids=[f"{j}|{sorted(c)}" for j, c in KEYS])
    def test_a_game_slot_that_is_no_process_is_refused_by_its_key(self, build, wrong, slot):
        rng = random.Random(f"slot {slot} {wrong}")
        space = random_space(rng, max_depth=3)
        game = random_game(rng, space)
        thing = {
            "None": None,
            "5": 5,
            "[]": [],
            "rule": random_randomized(rng, space),
            "game": game,
        }[wrong]
        payoffs = {**game.payoffs, slot: thing}
        key = re.escape(str([(slot[0], set(slot[1]))]))
        with pytest.raises(ValidationError, match=f"game payoffs for {key} are not"):
            build(payoffs)

    @pytest.mark.parametrize("mass", ["None", "5", "None row"])
    def test_a_mass_table_of_the_wrong_type_is_no_stopping_measure(self, mass):
        space = random_space(random.Random(f"mass {mass}"), max_depth=3)
        nu = StoppingMeasure(mass={"None": None, "5": 5, "None row": {space.atoms[0]: None}}[mass])
        assert not is_stopping_measure(nu, space)
        with pytest.raises(NotAStoppingMeasure):
            measure_to_randomized(nu, space)

    @pytest.mark.parametrize("field", ["breakpoints", "sections"])
    @pytest.mark.parametrize("wrong", [None, 5])
    def test_a_mixed_rule_with_a_field_of_the_wrong_type_is_malformed(self, e1, field, wrong):
        fields = {"breakpoints": (F(0), F(1)), "sections": (PureStoppingTime({}),), field: wrong}
        eta = MixedStoppingTime(**fields)
        assert getattr(eta, field) is wrong
        violation = validate(eta, e1)
        assert violation.kind == "Malformed" and "must be sequences" in violation.detail
        with pytest.raises(ValidationError, match="Malformed"):
            densities(eta, e1)

    @pytest.mark.parametrize("tree", [None, 5, 1.5])
    def test_a_tree_that_is_no_node_list_is_a_structure_error(self, tree):
        with pytest.raises(StructureError, match="the tree is not a node list"):
            build_space(tree)


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
    """Every kept check's parts and what was derived from them, weakly keyed results too, as
    bytes."""
    return sorted(
        pickle.dumps(
            (kept.parts, [*kept.derived.values()], [[*d.values()] for d in kept.crossed.values()])
        )
        for kept in space._kept.values()
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
        kept_game(game, space).parts
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

    def test_a_used_space_copies_and_pickles_with_no_kept_checks(self, e1, r1):
        """A copy or a pickle of a space starts with an empty memo, so a space that has
        checked rules can go to a process worker, and the copy counts as the original does."""
        assert validate(r1, e1) is None
        chunk = detailed_counts_chunk(r1, e1, 500, 7, 2)
        kept = dict(e1._kept)
        assert kept
        for copied in (pickle.loads(pickle.dumps(e1)), copy.deepcopy(e1)):
            assert copied._kept == {}
            assert (copied.ids, copied.levels, copied.prob) == (e1.ids, e1.levels, e1.prob)
            assert (detailed_counts_chunk(r1, copied, 500, 7, 2) == chunk).all()
        assert e1._kept == kept


class TestDerived:
    """A rule's mass table, its densities, each fold against it and its optimum, a problem's
    optimum and a game's zero-sum solution are built once per kept check, shared read-only,
    and kept no longer than any input they were derived from."""

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

    @pytest.mark.parametrize("target", TARGET_TYPES)
    @pytest.mark.parametrize("kind", sorted(CHANGES))
    def test_a_conversion_is_shared_but_checked_on_its_own(self, kind, target, checked):
        rng = random.Random(f"convert {kind} {target}")
        space = random_space(rng, max_depth=3)
        eta, problem = CHANGES[kind][0](rng, space), random_process(rng, space)
        converted = convert(eta, target, space)
        assert convert(eta, target, space) is converted
        assert checked == [eta]
        assert equivalent(eta, converted, space)  # the first call handed it checks it
        assert checked == [eta, converted]
        assert (density_of,) in space._kept[type(converted), id(converted)].derived
        assert payoff(converted, problem, space) == payoff(eta, problem, space)
        assert distinguish(eta, converted, space) is None
        assert checked == [eta, converted, problem]
        ref = weakref.ref(converted)
        checked.clear()
        del eta, converted
        gc.collect()
        assert ref() is None
        assert list(space._kept) == [(type(problem), id(problem))]

    @pytest.mark.parametrize("target", TARGET_TYPES)
    def test_an_invalid_rule_is_refused_on_every_conversion(self, e1, r1, target):
        bad = RandomizedStoppingTime(rho=r1.rho, rho_inf={**r1.rho_inf, "w1": F(1, 2)})
        for _ in range(3):
            with pytest.raises(ValidationError, match="SumNotOne"):
                convert(bad, target, e1)
        assert e1._kept == {}

    def test_folds_are_kept_with_the_opponent_not_the_game(self):
        rng = random.Random(1300)
        space = random_space(rng, max_depth=3)
        game, rule = random_game(rng, space), random_stopping_time(rng, space)
        empirical_game_payoff(rule, rule, game, space, 50, 1)
        kept = space._kept[type(game), id(game)]
        size = len(kept.derived)
        fold = _against(_folded, rule, game, space, 1)
        assert _against(_folded, rule, game, space, 1) is fold
        for _ in range(200):
            opponent = random_stopping_time(rng, space)
            game_payoff(rule, opponent, game, space)
            best_response_value(opponent, game, 1, space)
            auxiliary_problem(opponent, game, space, 2)
            assert len(kept.derived) == size
            assert len(space._kept) == 4  # the game, the rule, the arrays, the live opponent
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

    def test_solutions_are_shared_and_a_repeat_profile_check_does_no_work(
        self, checked, translated, monkeypatch
    ):
        rng = random.Random(1302)
        space = random_space(rng, max_depth=3)
        game, problem = random_zero_sum_game(rng, space), random_process(rng, space)
        rule = random_stopping_time(rng, space)
        calls = {
            "zero_sum_value": lambda: zero_sum_value(game, space),
            "snell_value": lambda: snell_value(problem, space),
            "best_response_value": lambda: best_response_value(rule, game, 2, space),
        }
        first = {name: call() for name, call in calls.items()}
        profile = first["zero_sum_value"].strategies
        assert check_epsilon_equilibrium(*profile, game, 0, space)
        inductions = []
        real = type(space).backward_induction
        monkeypatch.setattr(
            type(space), "backward_induction", lambda *args: inductions.append(1) or real(*args)
        )
        checked.clear()
        translated.clear()
        for name, call in calls.items():
            assert call() is first[name], name
        assert zero_sum_value(game, space).strategies[0] is profile[0]
        assert check_epsilon_equilibrium(*profile, game, 0, space)
        assert checked == [] and translated == [] and inductions == []
        twin = copy.deepcopy(game)
        assert zero_sum_value(twin, space) == first["zero_sum_value"]
        assert zero_sum_value(twin, space) is not first["zero_sum_value"]

    def test_a_game_that_is_not_zero_sum_raises_on_every_call(self):
        rng = random.Random(1303)
        space = random_space(rng, max_depth=3)
        game = random_game(rng, space)
        assert not is_zero_sum(game, space)
        for _ in range(3):
            with pytest.raises(NotZeroSum):
                zero_sum_value(game, space)

    def test_a_game_takes_its_solution_and_every_entry_of_its_strategies_along(self):
        rng = random.Random(1304)
        space = random_space(rng, max_depth=3)
        game, rule = random_zero_sum_game(rng, space), random_stopping_time(rng, space)
        result = zero_sum_value(game, space)
        check_epsilon_equilibrium(*result.strategies, game, 0, space)
        game_payoff(result.strategies[0], rule, game, space)
        best_response_value(result.strategies[1], game, 1, space)
        replies = [rule]  # past this test's names, each is held only by the entry it answers
        for player in (2, 1, 2, 1):
            replies.append(best_response_value(replies[-1], game, player, space).strategy)
        check(replies[-1], space)
        strategies = (*result.strategies, *replies[1:])
        refs = [weakref.ref(eta) for eta in strategies]
        keys = [(type(eta), id(eta)) for eta in strategies]
        assert all(key in space._kept for key in keys)
        del result, replies, strategies, game  # the game last, so it alone holds them
        gc.collect()
        assert all(ref() is None for ref in refs)
        assert not any(key in space._kept for key in keys)
        assert list(space._kept) == [(type(rule), id(rule))]

    def test_a_rule_lets_go_of_its_folds_against_each_dead_game(self):
        rng = random.Random(1305)
        space = random_space(rng, max_depth=3)
        rule = random_stopping_time(rng, space)
        kept = check(rule, space)
        detailed_distribution(rule, space)
        # one game, dead at once, so the rule's own entries, its stop-mass Table among them, exist
        first = random_zero_sum_game(random.Random(0), space)
        check_epsilon_equilibrium(rule, rule, first, 1, space)
        del first
        size = len(kept.derived)
        for _ in range(300):
            game = random_zero_sum_game(rng, space)
            best_response_value(rule, game, 2, space)
            check_epsilon_equilibrium(rule, rule, game, 1, space)
            assert len(kept.crossed) == 1 and len(kept.derived) == size
            del game  # collected here: nothing derived from a game holds it in a cycle
            assert len(kept.crossed) == 0 and len(kept.derived) == size
        gc.collect()
        assert list(space._kept) == [(type(rule), id(rule))]

    def test_a_randomized_rule_takes_its_stop_table_along(self):
        """A randomized rule's sampler and its stop table are derived on the rule's check, so rule
        after rule built, sampled and dropped leaves neither kept entries nor memory behind."""
        rng = random.Random(1307)
        nodes, frontier = [{"id": "r", "parent": None}], ["r"]
        for _ in range(6):  # 64 atoms, T = 6: a table of 64 x 128 buckets
            frontier = [f"{parent}.{i}" for parent in frontier for i in range(2)]
            nodes += [{"id": node, "parent": node.rsplit(".", 1)[0]} for node in frontier]
        for node in nodes[-len(frontier) :]:
            node["prob"] = F(1, len(frontier))
        space = FilteredSpace(nodes)
        other, game = random_behavior(rng, space), random_game(rng, space)

        def run() -> int:
            rule = random_randomized(rng, space)
            empirical_detailed_distribution(rule, space, 500, 1)
            empirical_game_payoff(rule, other, game, space, 500, 1)
            return _stop_columns(rule, space).args[0][1].nbytes

        table = run()  # the space's arrays, and the opponent's and the game's, are kept from here
        entries = set(space._kept)
        tracemalloc.start()
        try:
            for _ in range(3):
                run()
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(60):
                run()
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert table == 64 * 128 and set(space._kept) == entries
        assert grown < table

    def test_a_game_takes_everything_derived_from_it_along_by_refcount_alone(self):
        rng = random.Random(1306)
        space = random_space(rng, max_depth=3)
        game, rule = random_zero_sum_game(rng, space), random_stopping_time(rng, space)
        kept = check(rule, space)
        gc.collect()
        gc.disable()
        try:
            result = zero_sum_value(game, space)
            check_epsilon_equilibrium(*result.strategies, game, 0, space)
            game_payoff(rule, result.strategies[1], game, space)
            replies = [rule]
            for player in (2, 1, 2, 1):
                replies.append(best_response_value(replies[-1], game, player, space).strategy)
            check(replies[-1], space)
            strategies = (*result.strategies, *replies[1:])
            refs = [weakref.ref(eta) for eta in (game, *strategies)]
            folded = [check(eta, space) for eta in (rule, *result.strategies)]
            assert all(len(entry.crossed) == 1 for entry in folded)
            del result, replies, strategies, folded, game
            assert all(ref() is None for ref in refs)
            assert len(kept.crossed) == 0
            assert list(space._kept) == [(type(rule), id(rule))]
        finally:
            gc.enable()
