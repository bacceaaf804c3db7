import random
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from stopwright import (
    INFINITY,
    AdaptedProcess,
    BehaviorStoppingTime,
    DistinguishResult,
    MixedStoppingTime,
    PureStoppingTime,
    RandomizedStoppingTime,
    BOTH,
    COALITIONS,
    SpaceMismatch,
    ValidationError,
    Violation,
    adapted_process,
    check_epsilon_optimal,
    constant_process,
    convert,
    detailed_distribution,
    distinguish,
    enumerate_pure_stopping_times,
    equivalent,
    game_payoff,
    is_zero_sum,
    payoff,
    pure,
    snell_value,
    stopping_game,
    witness_problem,
    zero_sum_value,
)

import oracles
from fuzz import (
    MAKERS,
    fixture_spaces,
    random_event,
    random_process,
    random_space,
    random_stopping_time,
)


def pure_payoff(eta, problem, space):
    values = (space.prob[a] * problem.value_at(space, eta.stop[a], a) for a in space.atoms)
    return sum(values, start=F(0))


def randomized_payoff(eta, problem, space):
    total = F(0)
    for atom in space.atoms:
        acc = eta.rho_inf[atom] * problem.infinity[atom]
        for n in range(1, space.horizon + 1):
            acc += eta.rho[n][space.block_of(n, atom)] * problem.value_at(space, n, atom)
        total += space.prob[atom] * acc
    return total


def behavior_payoff(eta, problem, space):
    total = F(0)
    for atom in space.atoms:
        acc = F(0)
        survival = F(1)
        for n in range(1, space.horizon + 1):
            b = eta.beta[n][space.block_of(n, atom)]
            acc += survival * b * problem.value_at(space, n, atom)
            survival *= 1 - b
        acc += survival * problem.infinity[atom]
        total += space.prob[atom] * acc
    return total


def mixed_payoff(eta, problem, space):
    return sum(
        (w * pure_payoff(section, problem, space) for section, w in zip(eta.sections, eta.weights())),
        start=F(0),
    )


#: Each representation's own payoff formula, written without its densities.
DIRECT_PAYOFF = {
    PureStoppingTime: pure_payoff,
    RandomizedStoppingTime: randomized_payoff,
    BehaviorStoppingTime: behavior_payoff,
    MixedStoppingTime: mixed_payoff,
}


def late_reward(e1):
    return adapted_process(
        values={1: {"A": 0, "B": 0}, 2: {a: 1 for a in e1.atoms}},
        infinity={a: 0 for a in e1.atoms},
    )


def spread_reward(e1):
    return adapted_process(
        values={1: {"A": 1, "B": 0}, 2: {"w1": 0, "w2": 2, "w3": 1, "w4": 1}},
        infinity={a: 0 for a in e1.atoms},
    )


class TestPayoff:
    def test_r1_on_late_reward(self, e1, r1):
        assert payoff(r1, late_reward(e1), e1) == F(3, 8)

    def test_constant_problem_pays_constant(self, e1, r1, b1):
        problem = constant_process(e1, "5/7")
        for eta in (r1, b1, pure({a: INFINITY for a in e1.atoms})):
            assert payoff(eta, problem, e1) == F(5, 7)

    def test_indicator_expectation(self, e1):
        problem = adapted_process(
            values={1: {"A": 1, "B": 0}, 2: {a: 0 for a in e1.atoms}},
            infinity={a: 0 for a in e1.atoms},
        )
        assert payoff(pure({a: 1 for a in e1.atoms}), problem, e1) == F(1, 2)

    def test_space_mismatch(self, singleton, e1, r1):
        with pytest.raises(SpaceMismatch):
            payoff(r1, constant_process(singleton, 1), e1)

    def test_bilinearity_against_mass_table(self):
        rng = random.Random(31)
        for _ in range(20):
            space = random_space(rng, max_depth=3)
            eta = random_stopping_time(rng, space)
            problem = random_process(rng, space)
            nu = detailed_distribution(eta, space)
            paired = sum(
                nu.mass[a][t] * problem.value_at(space, t, a)
                for a in space.atoms
                for t in space.times
            )
            assert payoff(eta, problem, space) == paired

    def test_direct_formulas_agree(self):
        rng = random.Random(29)
        for _ in range(40):
            space = random_space(rng)
            problem = random_process(rng, space)
            for maker in MAKERS:
                eta = maker(rng, space)
                direct = DIRECT_PAYOFF[type(eta)](eta, problem, space)
                assert payoff(eta, problem, space) == direct


class TestSnell:
    def test_constant_problem(self, e1):
        result = snell_value(constant_process(e1, 4), e1)
        assert result.value == 4
        assert result.strategy.stop == {a: 1 for a in e1.atoms}

    def test_spread_reward_value_one(self, e1):
        result = snell_value(spread_reward(e1), e1)
        assert result.value == 1
        assert payoff(result.strategy, spread_reward(e1), e1) == 1

    def test_never_stopping_dominates(self, e1):
        problem = adapted_process(
            values={1: {"A": 0, "B": 0}, 2: {a: 0 for a in e1.atoms}},
            infinity={a: 5 for a in e1.atoms},
        )
        result = snell_value(problem, e1)
        assert result.value == 5
        assert result.strategy.stop == {a: INFINITY for a in e1.atoms}

    def test_matches_exhaustive_maximum(self, e1, uneven):
        rng = random.Random(59)
        for space in (e1, uneven):
            rules = enumerate_pure_stopping_times(space)
            for _ in range(10):
                problem = random_process(rng, space)
                best = max(payoff(sigma, problem, space) for sigma in rules)
                result = snell_value(problem, space)
                assert result.value == best
                assert payoff(result.strategy, problem, space) == best

    def test_ties_break_toward_early_stopping(self, singleton):
        problem = adapted_process(values={1: {"w": 2}}, infinity={"w": 2})
        assert snell_value(problem, singleton).strategy.stop == {"w": 1}

    def test_no_randomized_rule_beats_it(self, e1):
        rng = random.Random(61)
        problem = spread_reward(e1)
        top = snell_value(problem, e1).value
        for _ in range(25):
            eta = random_stopping_time(rng, e1)
            assert payoff(eta, problem, e1) <= top

    def test_randomized_supremum_is_the_pure_maximum(self, e1):
        # a sample that includes every pure rule in randomized form attains
        # the pure maximum and nothing in it ever exceeds that maximum
        rng = random.Random(67)
        problem = spread_reward(e1)
        sample = [convert(sigma, "randomized", e1) for sigma in enumerate_pure_stopping_times(e1)]
        sample += [random_stopping_time(rng, e1) for _ in range(20)]
        pure_max = max(payoff(s, problem, e1) for s in enumerate_pure_stopping_times(e1))
        sample_max = max(payoff(eta, problem, e1) for eta in sample)
        assert sample_max == pure_max == snell_value(problem, e1).value


class TestWitnessProblem:
    def test_block_event_at_time_one(self, e1, r1):
        problem = witness_problem({"w1", "w2"}, 1, e1)
        assert problem.values[1] == {"A": F(1), "B": F(0)}
        assert payoff(r1, problem, e1) == F(1, 4)

    def test_full_event_gives_stop_time_marginal(self, e1, r1):
        nu = detailed_distribution(r1, e1)
        for t in e1.times:
            marginal = sum(nu.mass[a][t] for a in e1.atoms)
            assert payoff(r1, witness_problem(e1.atoms, t, e1), e1) == marginal

    def test_empty_event_pays_nothing(self, e1, r1):
        for t in e1.times:
            assert payoff(r1, witness_problem((), t, e1), e1) == 0

    def test_identity_on_arbitrary_events(self):
        rng = random.Random(37)
        for _ in range(15):
            space = random_space(rng, max_depth=3)
            eta = random_stopping_time(rng, space)
            event = random_event(rng, space)
            t = rng.choice(space.times)
            nu = detailed_distribution(eta, space)
            assert payoff(eta, witness_problem(event, t, space), space) == nu.event_mass(
                event, t
            )


    def test_equals_the_conditional_expectation_oracle(self):
        """Values, INFINITY slot and key order, by repr: every event and time of the fixture
        spaces, and drawn events at every time of fuzzed spaces."""
        rng = random.Random(53)
        cases = []
        for space in fixture_spaces():
            masks = range(1 << len(space.atoms))
            events = [[a for k, a in enumerate(space.atoms) if mask >> k & 1] for mask in masks]
            cases.append((space, events))
        for _ in range(24):
            space = random_space(rng)
            cases.append((space, [(), space.atoms, *(random_event(rng, space) for _ in range(6))]))
        for space, events in cases:
            for event in events:
                for t in space.times:
                    got = witness_problem(event, t, space)
                    assert repr(got) == repr(oracles.witness_problem(event, t, space))

    @pytest.mark.parametrize("t", [0, -1, 3, True, 2.0, "1", None])
    def test_refuses_a_time_outside_1_to_T(self, e1, t):
        with pytest.raises(ValidationError, match="time must be an int in 1..2 or INFINITY"):
            witness_problem({"w1"}, t, e1)

    @pytest.mark.parametrize("event", [{"zz"}, {"w1", "A"}, {"w1", 5}])
    def test_refuses_an_atom_outside_the_space(self, e1, event):
        with pytest.raises(ValidationError, match="is not an atom of the space"):
            witness_problem(event, 1, e1)


def mass_table_witness(eta1, eta2, space):
    """The first cell, atom by atom then time by time, where the mass tables differ."""
    nu1 = detailed_distribution(eta1, space)
    nu2 = detailed_distribution(eta2, space)
    for atom in space.atoms:
        for t in space.times:
            gap = nu1.mass[atom][t] - nu2.mass[atom][t]
            if gap != 0:
                return DistinguishResult(event=frozenset({atom}), time=t, payoff_gap=abs(gap))
    return None


class TestDistinguish:
    def test_equivalent_rules_are_indistinguishable(self, e1, r1, b1):
        assert distinguish(r1, b1, e1) is None
        assert distinguish(r1, r1, e1) is None

    def test_witness_separates_r1_from_stop_now(self, e1, r1):
        stop_now = pure({a: 1 for a in e1.atoms})
        witness = distinguish(r1, stop_now, e1)
        assert witness is not None
        nu1 = detailed_distribution(r1, e1)
        nu2 = detailed_distribution(stop_now, e1)
        assert witness.payoff_gap == abs(
            nu1.event_mass(witness.event, witness.time)
            - nu2.event_mass(witness.event, witness.time)
        )
        problem = witness_problem(witness.event, witness.time, e1)
        assert abs(payoff(r1, problem, e1) - payoff(stop_now, problem, e1)) == witness.payoff_gap

    def test_witness_gap_matches_payoff_gap_on_fuzz(self):
        rng = random.Random(43)
        found = 0
        while found < 10:
            space = random_space(rng, max_depth=3)
            eta1 = random_stopping_time(rng, space)
            eta2 = random_stopping_time(rng, space)
            witness = distinguish(eta1, eta2, space)
            if witness is None:
                assert equivalent(eta1, eta2, space)
                continue
            found += 1
            problem = witness_problem(witness.event, witness.time, space)
            gap = abs(payoff(eta1, problem, space) - payoff(eta2, problem, space))
            assert gap == witness.payoff_gap > 0

    def test_matches_mass_table_scan(self):
        rng = random.Random(47)
        separated = 0
        for _ in range(40):
            space = random_space(rng)
            rules = [maker(rng, space) for maker in MAKERS]
            for eta1 in rules:
                for eta2 in rules:
                    witness = distinguish(eta1, eta2, space)
                    assert witness == mass_table_witness(eta1, eta2, space)
                    separated += witness is not None
        assert separated > 40 * 8


class TestEpsilonOptimal:
    def test_snell_strategy_is_optimal(self, e1):
        problem = spread_reward(e1)
        strategy = snell_value(problem, e1).strategy
        assert check_epsilon_optimal(strategy, problem, 0, e1)

    def test_r1_needs_five_eighths(self, e1, r1):
        problem = late_reward(e1)
        assert snell_value(problem, e1).value == 1
        assert payoff(r1, problem, e1) == F(3, 8)
        assert not check_epsilon_optimal(r1, problem, "1/2", e1)
        assert not check_epsilon_optimal(r1, problem, F(5, 8) - F(1, 1000), e1)
        assert check_epsilon_optimal(r1, problem, "5/8", e1)
        assert check_epsilon_optimal(r1, problem, 1, e1)

    def test_constant_problem_everything_optimal(self, e1, b1):
        assert check_epsilon_optimal(b1, constant_process(e1, 9), 0, e1)

    def test_negative_epsilon_rejected(self, e1, r1, checked):
        with pytest.raises(ValidationError):
            check_epsilon_optimal(r1, constant_process(e1, 0), "-1/2", e1)
        assert checked == []  # refused before the rule or the problem is checked

    def test_transfers_across_equivalent_rules(self):
        rng = random.Random(53)
        for _ in range(10):
            space = random_space(rng, max_depth=3)
            eta = random_stopping_time(rng, space)
            problem = random_process(rng, space)
            gap = snell_value(problem, space).value - payoff(eta, problem, space)
            for target in ("randomized", "behavior", "mixed"):
                twin = convert(eta, target, space)
                assert check_epsilon_optimal(twin, problem, max(gap, 0), space)
                if gap > 0:
                    assert not check_epsilon_optimal(
                        twin, problem, max(gap - F(1, 1000), 0), space
                    )


def faulty(space, fault) -> AdaptedProcess:
    """``constant_process(space, 0)`` with ``fault`` applied to plain copies of its tables, before
    the process is built: a built process cannot change."""
    base = constant_process(space, 0)
    draft = SimpleNamespace(
        values={n: dict(level) for n, level in base.values.items()}, infinity=dict(base.infinity)
    )
    fault(draft)
    return AdaptedProcess(values=draft.values, infinity=draft.infinity)


class TestStrictProcessRead:
    """A process value is an int or a Fraction, as a rule's is; a key fault is a SpaceMismatch."""

    def calls(self, e1, r1, b1):
        """Each process-reading entry point, as a function of the problem it reads."""

        def game(problem):
            payoffs = {(j, c): constant_process(e1, 0) for j in (1, 2) for c in COALITIONS}
            payoffs[2, BOTH] = problem
            return stopping_game(payoffs)

        return {
            "payoff": lambda p: payoff(r1, p, e1),
            "snell_value": lambda p: snell_value(p, e1),
            "game_payoff": lambda p: game_payoff(r1, b1, game(p), e1),
            "is_zero_sum": lambda p: is_zero_sum(game(p), e1),
            "zero_sum_value": lambda p: zero_sum_value(game(p), e1),
        }

    @pytest.mark.parametrize("bad", [1.5, "1/2", None, True])
    def test_non_exact_value_is_a_validation_error(self, e1, r1, b1, bad):
        problem = faulty(e1, lambda p: p.values[2].update(w3=bad))
        for name, call in self.calls(e1, r1, b1).items():
            with pytest.raises(ValidationError) as raised:
                call(problem)
            assert raised.value.violation == Violation(
                "Malformed", time=2, where="w3", detail="values holds a non-exact value"
            ), name

    def test_non_exact_infinity_value(self, e1, r1, b1):
        problem = faulty(e1, lambda p: p.infinity.update(w2=0.0))
        for call in self.calls(e1, r1, b1).values():
            with pytest.raises(ValidationError, match="Malformed n=inf at w2"):
                call(problem)

    def test_exact_subclasses_are_read(self, e1, r1, b1):
        class Exact(F):
            pass

        class Count(int):
            pass

        plain = constant_process(e1, 0)

        def subclassed(p):
            p.values[1]["A"] = Exact(0)
            p.infinity["w4"] = Count(0)

        problem = faulty(e1, subclassed)
        for name, call in self.calls(e1, r1, b1).items():
            assert call(problem) == call(plain), name

    def test_subclasses_read_in_atom_order(self, e1, r1, b1):
        """The INFINITY slot is read in atom order, whatever the order of its keys."""

        class Exact(F):
            pass

        infinity = {a: F(k, 3) for k, a in reversed([*enumerate(e1.atoms)])}
        assert list(infinity) != list(e1.atoms)

        def plain_fault(p):
            p.infinity = infinity

        def subclassed(p):
            p.infinity = infinity
            p.values[1]["A"] = Exact(0)

        plain, problem = faulty(e1, plain_fault), faulty(e1, subclassed)
        assert list(problem.infinity) == list(plain.infinity) == list(infinity)
        calls = self.calls(e1, r1, b1)
        for name in ("payoff", "snell_value", "game_payoff"):
            assert calls[name](problem) == calls[name](plain), name

    def test_rows_out_of_partition_order(self, e1, r1, b1):
        """A table whose times and blocks are listed out of partition order is gathered by key."""
        times = range(1, e1.horizon + 1)
        values = {n: {b: F(k + n, 7) for k, b in enumerate(e1.blocks(n))} for n in times}
        infinity = {a: F(k, 5) for k, a in enumerate(e1.atoms)}
        ordered = AdaptedProcess(values, infinity)
        shuffled = AdaptedProcess(
            {n: dict(reversed(row.items())) for n, row in reversed(values.items())},
            dict(reversed(infinity.items())),
        )
        assert [list(row) for row in shuffled.values.values()] != [
            list(row) for row in ordered.values.values()
        ]
        cells = e1.read(ordered.values, "values", ordered.infinity)
        assert e1.read(shuffled.values, "values", shuffled.infinity) == cells
        calls = self.calls(e1, r1, b1)
        for name in ("payoff", "snell_value", "game_payoff", "is_zero_sum"):
            assert calls[name](shuffled) == calls[name](ordered), name
        beta = BehaviorStoppingTime({n: dict(reversed(row.items())) for n, row in b1.beta.items()})
        assert detailed_distribution(beta, e1) == detailed_distribution(b1, e1)

    @pytest.mark.parametrize("keys, first", [((5, "zz"), "zz"), (("D", "C"), "C"), ((7, 5), 5)])
    def test_unknown_keys_of_any_types(self, e1, r1, b1, keys, first):
        problem = faulty(e1, lambda p: p.values[1].update(dict.fromkeys(keys, F(0))))
        for name, call in self.calls(e1, r1, b1).items():
            with pytest.raises(SpaceMismatch) as raised:
                call(problem)
            assert str(raised.value) == "process blocks at time 1 do not match the space", name
            assert raised.value.violation == Violation(
                "Malformed", 1, first, "unknown block in values"
            ), name

    @pytest.mark.parametrize(
        "fault, message",
        [
            (lambda p: p.values.pop(2), "process defined at times [1], space has 1..2"),
            (lambda p: p.values[1].pop("B"), "process blocks at time 1 do not match the space"),
            (lambda p: p.values[1].update(C=F(0)), "process blocks at time 1 do not match the space"),
            (lambda p: p.values.update({3: {}}), "process defined at times [1, 2, 3], space has 1..2"),
            (lambda p: p.infinity.pop("w1"), "process INFINITY slot does not match the atom set"),
            (lambda p: p.infinity.update(w9=F(0)), "process INFINITY slot does not match the atom set"),
        ],
    )
    def test_key_faults_are_a_space_mismatch(self, e1, r1, b1, fault, message):
        problem = faulty(e1, fault)
        for name, call in self.calls(e1, r1, b1).items():
            with pytest.raises(SpaceMismatch) as raised:
                call(problem)
            assert str(raised.value) == message, name
            assert isinstance(raised.value.violation, Violation), name

    @pytest.mark.parametrize("key", [1.0, F(1), True])
    def test_a_time_key_equal_to_an_int_is_a_space_mismatch(self, e1, r1, b1, key):
        """A process keyed ``{1.0: ..., 2: ...}`` is no process of 1..2, as a rule is none."""
        problem = faulty(e1, lambda p: p.values.update({key: p.values.pop(1)}))
        message = f"process defined at times {sorted([key, 2])}, space has 1..2"
        for name, call in self.calls(e1, r1, b1).items():
            with pytest.raises(SpaceMismatch) as raised:
                call(problem)
            assert str(raised.value) == message, name
            assert raised.value.violation == Violation(
                "OutOfRange", detail=f"values has time {key!r} outside 1..2"
            ), name
