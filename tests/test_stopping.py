import copy
import random
import re
import sys
from collections import Counter, defaultdict
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from stopwright import (
    INFINITY,
    BehaviorStoppingTime,
    RandomizedStoppingTime,
    SpaceMismatch,
    ValidationError,
    adapted_process,
    behavior,
    build_space,
    constant_process,
    detailed_distribution,
    enumerate_pure_stopping_times,
    equivalent,
    is_stopping_measure,
    mixed,
    pure,
    randomized,
    repair_densities,
    stopping_measure,
    validate,
)

from stopwright import (
    auxiliary_problem,
    best_response_value,
    check_epsilon_equilibrium,
    check_epsilon_optimal,
    convert,
    game_payoff,
    is_zero_sum,
    payoff,
    snell_value,
    stopping_game,
    zero_sum_value,
)
from stopwright.games import BOTH, COALITIONS
from stopwright.space import FilteredSpace, Violation
from stopwright.stopping import (
    MixedStoppingTime,
    PureStoppingTime,
    StoppingMeasure,
    _check_pure,
    check,
    density_table,
)
from stopwright.serialize import stopping_time_to_doc
from stopwright.convert import TARGET_TYPES

import oracles
from fuzz import (
    MAKERS,
    fixture_spaces,
    make_r1,
    negate_process,
    random_game,
    random_process,
    random_space,
    random_stopping_time,
)

#: The interpreter's limit on the digits of an int string; 0 where it has none.
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()

needs_digit_limit = pytest.mark.skipif(
    not DIGIT_LIMIT, reason="this interpreter puts no limit on the digits of an int string"
)

R1_TABLE = {
    "w1": {1: F(1, 8), 2: F(1, 8), INFINITY: F(0)},
    "w2": {1: F(1, 8), 2: F(0), INFINITY: F(1, 8)},
    "w3": {1: F(1, 16), 2: F(1, 16), INFINITY: F(1, 8)},
    "w4": {1: F(1, 16), 2: F(3, 16), INFINITY: F(0)},
}


class TestValidate:
    def test_r1_is_valid(self, e1, r1):
        assert validate(r1, e1) is None

    def test_pure_not_adapted(self, e1):
        bad = pure({"w1": 1, "w2": 2, "w3": 1, "w4": 1})
        violation = validate(bad, e1)
        assert violation is not None
        assert violation.kind == "NotAdapted"
        assert violation.time == 1
        assert violation.where == "A"

    def test_degenerate_mixture_is_valid(self, e1):
        sigma = pure({a: 1 for a in e1.atoms})
        assert validate(mixed([0, 1], [sigma]), e1) is None

    def test_pure_stop_index_out_of_range(self, e1):
        bad = pure({"w1": 3, "w2": 3, "w3": 3, "w4": 3})
        violation = validate(bad, e1)
        assert violation.kind == "OutOfRange"

    @pytest.mark.parametrize("index, label", [(2.5, "2.5"), (float("nan"), "nan")])
    def test_pure_float_stop_index_is_reported_as_given(self, e1, index, label):
        bad = pure({"w1": index, "w2": 2, "w3": 2, "w4": 2})
        expected = f"OutOfRange n={label} at w1 (stop index {index!r} outside 1..2, inf)"
        assert str(validate(bad, e1)) == expected
        problem = constant_process(e1, 1)
        for call in (check, detailed_distribution, lambda eta, space: payoff(eta, problem, space)):
            with pytest.raises(ValidationError) as raised:
                call(bad, e1)
            assert str(raised.value) == expected

    @pytest.mark.parametrize("index", [1.0, 2.0, F(1)])
    def test_pure_stop_index_is_an_int(self, e1, index):
        """An index equal to a time but not an int is refused, with no time: 1.0 is no n=1."""
        stop = {"w1": index, "w2": index, "w3": 2, "w4": INFINITY}
        assert validate(pure({**stop, "w1": int(index), "w2": int(index)}), e1) is None
        detail = f"stop index {index!r} outside 1..2, inf"
        violation = validate(pure(stop), e1)
        assert violation == Violation("OutOfRange", None, "w1", detail)
        assert str(violation) == f"OutOfRange at w1 ({detail})"
        section = validate(mixed([0, 1], [pure(stop)]), e1)
        assert section == Violation("SectionNotStoppingTime", None, "sections[0]", str(violation))
        with pytest.raises(ValidationError, match="OutOfRange at w1"):
            detailed_distribution(pure(stop), e1)

    @needs_digit_limit
    @pytest.mark.parametrize("kind", [int, type("Index", (int,), {})])
    def test_pure_stop_index_past_the_int_digit_limit(self, e1, kind):
        bad = pure({"w1": kind(10**5000), "w2": 1, "w3": 1, "w4": 1})
        violation = validate(bad, e1)
        label = f"an int of {(10**5000).bit_length()} bits"
        shown = f"OutOfRange n={label} at w1 " if kind is int else "OutOfRange at w1 "
        assert str(violation) == f"{shown}(stop index {label} outside 1..2, inf)"
        with pytest.raises(ValidationError, match="OutOfRange"):
            check(bad, e1)

    def test_pure_bool_stop_index(self, e1):
        violation = validate(pure({a: True for a in e1.atoms}), e1)
        assert violation.kind == "OutOfRange"

    def test_pure_stop_for_unknown_atom(self, e1):
        bad = pure({**{a: 1 for a in e1.atoms}, "zz": 7})
        violation = validate(bad, e1)
        assert violation.kind == "Malformed"
        assert violation.where == "zz"

    def test_rho_inf_for_unknown_atom(self, e1, r1):
        bad = randomized(rho=r1.rho, rho_inf={**r1.rho_inf, "zz": "7"})
        violation = validate(bad, e1)
        assert violation.kind == "Malformed"
        assert violation.where == "zz"

    def test_rho_time_past_horizon(self, e1, r1):
        bad = randomized(rho={**r1.rho, 3: {a: 0 for a in e1.atoms}}, rho_inf=r1.rho_inf)
        assert validate(bad, e1).kind == "OutOfRange"

    def test_beta_time_zero(self, e1, b1):
        bad = behavior(beta={0: {"root": 1}, **b1.beta})
        assert validate(bad, e1).kind == "OutOfRange"

    def test_randomized_sum_not_one(self, e1, r1):
        broken = randomized(rho=r1.rho, rho_inf={**r1.rho_inf, "w1": F(1, 2)})
        violation = validate(broken, e1)
        assert violation.kind == "SumNotOne"
        assert violation.where == "w1"

    def test_randomized_negative_mass(self, e1):
        bad = randomized(
            rho={1: {"A": F(-1, 2), "B": 0}, 2: {a: 0 for a in e1.atoms}},
            rho_inf={a: 1 for a in e1.atoms},
        )
        violation = validate(bad, e1)
        assert violation.kind == "OutOfRange"
        assert violation.time == 1

    def test_missing_block_reported(self, e1):
        bad = randomized(
            rho={1: {"A": 1}, 2: {a: 0 for a in e1.atoms}},
            rho_inf={a: 0 for a in e1.atoms},
        )
        violation = validate(bad, e1)
        assert violation.kind == "Malformed"
        assert violation.where == "B"

    def test_behavior_out_of_range(self, e1):
        bad = behavior(beta={1: {"A": F(3, 2), "B": 0}, 2: {a: 0 for a in e1.atoms}})
        violation = validate(bad, e1)
        assert violation.kind == "OutOfRange"

    def test_mixed_bad_breakpoints(self, e1):
        sigma = pure({a: 1 for a in e1.atoms})
        assert validate(mixed([0, "1/2"], [sigma]), e1).kind == "Malformed"
        assert validate(mixed(["1/4", 1], [sigma]), e1).kind == "Malformed"

    def test_non_exact_rho_inf(self, e1, r1):
        bad = RandomizedStoppingTime(rho=r1.rho, rho_inf={**r1.rho_inf, "w2": 0.125})
        assert validate(bad, e1) == Violation(
            "Malformed", INFINITY, "w2", "rho_inf holds a non-exact value"
        )

    @pytest.mark.parametrize("name", ["rho", "beta"])
    def test_float_in_a_block_table(self, e1, r1, b1, name):
        table = {n: dict(level) for n, level in getattr(r1 if name == "rho" else b1, name).items()}
        table[2]["w3"] = float(table[2]["w3"])
        if name == "rho":
            bad = RandomizedStoppingTime(rho=table, rho_inf=r1.rho_inf)
        else:
            bad = BehaviorStoppingTime(beta=table)
        assert validate(bad, e1) == Violation(
            "Malformed", 2, "w3", f"{name} holds a non-exact value"
        )

    @pytest.mark.parametrize(
        "breakpoints, count, detail",
        [
            ((0, F(1, 2), 1), 1, "1 sections for 3 breakpoints"),
            ((0, 0.5, 1), 2, "non-exact breakpoint"),
            ((0, F(1, 2), F(1, 2), 1), 3, "breakpoints must increase strictly"),
        ],
    )
    def test_mixed_malformed_breakpoints(self, e1, breakpoints, count, detail):
        sigma = pure({a: 1 for a in e1.atoms})
        bad = MixedStoppingTime(breakpoints=breakpoints, sections=(sigma,) * count)
        assert validate(bad, e1) == Violation("Malformed", detail=detail)

    def test_mixed_bad_section(self, e1):
        bad_section = pure({"w1": 1, "w2": 2, "w3": 1, "w4": 1})
        violation = validate(mixed([0, 1], [bad_section]), e1)
        assert violation.kind == "SectionNotStoppingTime"
        assert violation.where == "sections[0]"

    def test_time_keys_are_ints_not_floats_or_bools(self, e1, b1):
        rows = {float(n): dict(row) for n, row in reversed(b1.beta.items())}
        assert validate(BehaviorStoppingTime(rows), e1) == Violation(
            "OutOfRange", detail="beta has time 2.0 outside 1..2"
        )
        rows = {True: b1.beta[1], 2: b1.beta[2]}
        assert validate(BehaviorStoppingTime(rows), e1) == Violation(
            "OutOfRange", detail="beta has time True outside 1..2"
        )

    @pytest.mark.parametrize("key", [1.0, F(1), True])
    def test_a_time_key_equal_to_an_int_is_refused_in_every_rule_table(self, e1, r1, b1, key):
        """A key equal to time 1 that is not an int is no time 1: the table is not gathered by
        key, and the walk that names its fault refuses the same key."""
        rho = RandomizedStoppingTime({key: r1.rho[1], 2: r1.rho[2]}, r1.rho_inf)
        beta = BehaviorStoppingTime({key: b1.beta[1], 2: b1.beta[2]})
        for eta, name in ((rho, "rho"), (beta, "beta")):
            expected = Violation("OutOfRange", detail=f"{name} has time {key!r} outside 1..2")
            assert validate(eta, e1) == expected
            with pytest.raises(ValidationError) as raised:
                detailed_distribution(eta, e1)
            assert raised.value.violation == expected

    def test_int_subclass_time_keys_are_read_as_their_times(self, e1, r1, b1):
        Time = type("Time", (int,), {})
        rho = RandomizedStoppingTime({Time(n): row for n, row in r1.rho.items()}, r1.rho_inf)
        beta = BehaviorStoppingTime({Time(n): row for n, row in reversed(b1.beta.items())})
        assert validate(rho, e1) is None and validate(beta, e1) is None
        assert detailed_distribution(rho, e1).mass == R1_TABLE
        assert detailed_distribution(beta, e1).mass == R1_TABLE

    def test_mixed_section_that_is_not_a_pure_rule(self, e1):
        violation = validate(MixedStoppingTime((0, 1), ({"w1": 1},)), e1)
        assert violation.kind == "SectionNotStoppingTime"
        assert violation.where == "sections[0]"

    @pytest.mark.parametrize("shape", [[1, 2], "12", None])
    def test_tables_of_other_shapes_are_violations(self, e1, r1, b1, shape):
        """A row, rho_inf or stop table that is not a mapping is a Malformed Violation."""
        rows = {n: dict(level) for n, level in b1.beta.items()}
        rows[2] = shape
        detail = "beta missing time 2" if shape is None else "beta is not a mapping"
        assert validate(BehaviorStoppingTime(rows), e1) == Violation("Malformed", 2, None, detail)
        assert validate(RandomizedStoppingTime(r1.rho, shape), e1) == Violation(
            "Malformed", INFINITY, None, "rho_inf is not a mapping"
        )
        assert validate(PureStoppingTime(shape), e1) == Violation(
            "Malformed", None, None, "stop is not a mapping"
        )

    @pytest.mark.parametrize("shape", [5, [1], None])
    def test_behavior_keeps_a_row_that_is_not_a_mapping_for_the_check(self, e1, shape):
        """The builder keeps such a row as it is, so the rule check reports it as it does for
        a rule built directly, never by a bare AttributeError."""
        detail = "beta missing time 1" if shape is None else "beta is not a mapping"
        assert validate(behavior({1: shape, 2: {}}), e1) == Violation("Malformed", 1, None, detail)
        assert validate(behavior(shape), e1) == validate(BehaviorStoppingTime(shape), e1)

    @pytest.mark.parametrize("shape", [5, [1], None])
    def test_randomized_keeps_a_row_that_is_not_a_mapping_for_the_check(self, e1, r1, shape):
        """As ``behavior`` does, for a row of ``rho`` and for ``rho_inf``."""
        detail = "rho missing time 1" if shape is None else "rho is not a mapping"
        rows = {1: shape, 2: r1.rho[2]}
        assert validate(randomized(rows, r1.rho_inf), e1) == Violation(
            "Malformed", 1, None, detail
        )
        assert validate(randomized(r1.rho, shape), e1) == Violation(
            "Malformed", INFINITY, None, "rho_inf is not a mapping"
        )

    @pytest.mark.parametrize("shape", [5, [1], "ab"])
    def test_a_built_process_with_a_row_that_is_not_a_mapping_is_a_mismatch(self, e1, r1, shape):
        """``adapted_process`` keeps a row, or an INFINITY slot, that is not a mapping as it
        is, for ``check_process`` to refuse."""
        bad_row = adapted_process({1: shape, 2: r1.rho[2]}, r1.rho_inf)
        with pytest.raises(SpaceMismatch, match="process blocks at time 1 do not match"):
            payoff(r1, bad_row, e1)
        with pytest.raises(SpaceMismatch, match="INFINITY slot does not match"):
            payoff(r1, adapted_process(r1.rho, shape), e1)

    @pytest.mark.parametrize("shape", [5, [1], None])
    def test_repair_densities_refuses_a_row_that_is_not_a_mapping(self, e1, r1, shape):
        with pytest.raises(ValidationError, match="candidate row at time 1 is not a mapping"):
            repair_densities({1: shape, 2: r1.rho[2]}, e1)
        with pytest.raises(ValidationError, match="candidate is not a mapping"):
            repair_densities([1], e1)

    @pytest.mark.parametrize("shape", [[], 5, None])
    def test_stopping_measure_refuses_a_table_that_is_not_a_mapping(self, e1, shape):
        with pytest.raises(ValidationError, match="mass table is not a mapping"):
            stopping_measure(shape, e1)
        with pytest.raises(ValidationError, match="mass table row at 'w1' is not a mapping"):
            stopping_measure({"w1": shape}, e1)

    def test_an_unknown_key_is_reported_as_itself(self, e1, b1):
        rows = {n: dict(level) for n, level in b1.beta.items()}
        rows[2][5] = F(0)
        violation = validate(BehaviorStoppingTime(rows), e1)
        assert violation == Violation("Malformed", 2, 5, "unknown block in beta")
        assert str(violation) == "Malformed n=2 at 5 (unknown block in beta)"

    def test_a_row_that_fills_missing_keys_is_read_as_a_plain_dict(self, e1):
        """No lookup calls a row's or a table's ``__missing__``: a key it lacks is reported
        as a plain dict's is, and it is left as it was."""
        level = {a: 0 for a in e1.atoms}
        for row in (defaultdict(int, {"A": 1}), defaultdict(int, {"A": 1, "C": 0})):
            held = dict(row)
            assert e1.read({1: row, 2: level}, "beta", slot=None) == Violation(
                "Malformed", 1, "B", "beta missing block"
            )
            assert row == held
        table = defaultdict(dict, {1: {"A": 0, "B": 0}})
        assert e1.read(table, "beta", slot=None) == Violation(
            "Malformed", 2, None, "beta missing time 2"
        )
        assert dict(table) == {1: {"A": 0, "B": 0}}
        never = Counter({"w1": 1, "w2": 1, "w3": 1, "zz": 1})
        assert e1.read({1: {"A": 0, "B": 0}, 2: level}, "rho", never, "rho_inf") == Violation(
            "Malformed", INFINITY, "w4", "rho_inf missing atom"
        )
        stops = SimpleNamespace(stop=Counter({"w1": 1, "w2": 1, "w3": 2, "zz": 2}))
        assert _check_pure(stops, e1) == Violation("Malformed", None, "w4", "stop missing atom")
        assert "w4" not in stops.stop


def binary_tree(depth: int):
    """Binary tree of uniform leaves; a node's id spells its path, "1" before "0"."""
    nodes = [{"id": "r", "parent": None}]
    frontier = ["r"]
    for _ in range(depth):
        frontier = [f"{p}{side}" if p != "r" else side for p in frontier for side in "10"]
        nodes.extend({"id": c, "parent": c[:-1] or "r"} for c in frontier)
    for node in nodes[-len(frontier):]:
        node["prob"] = f"1/{len(frontier)}"
    return build_space(nodes)


def violation_fields(violation):
    return (violation.kind, violation.time, violation.where, violation.detail)


class TestFirstViolation:
    """The first violation reported, among several, is pinned: the CLI prints it."""

    @pytest.fixture
    def tree(self):
        return binary_tree(3)

    def splitting(self, tree):
        # {stop=2} splits "11" and "00"; {stop=1} splits "0"; the atom listed
        # first ("111") is in a split time-2 block, the split time-1 block
        # comes later in atom order
        stop = {a: INFINITY for a in tree.atoms}
        stop.update({"111": 2, "101": 2, "100": 2, "011": 1, "001": 2, "000": 3})
        return pure(stop)

    def test_pure_reports_the_earliest_time_then_partition_order(self, tree):
        assert tree.atoms[0] == "111"
        violation = validate(self.splitting(tree), tree)
        assert violation_fields(violation) == ("NotAdapted", 1, "0", "{stop=1} splits block 0")

    def test_pure_atom_checks_come_before_adaptedness(self, tree):
        stop = dict(self.splitting(tree).stop)
        stop["001"] = 7
        violation = validate(pure(stop), tree)
        assert violation_fields(violation) == (
            "OutOfRange", 7, "001", "stop index 7 outside 1..3, inf"
        )

    def test_pure_same_time_reports_partition_order(self, tree):
        stop = {a: INFINITY for a in tree.atoms}
        stop.update({"000": 2, "100": 2, "110": 3})
        violation = validate(pure(stop), tree)
        assert violation_fields(violation) == ("NotAdapted", 2, "10", "{stop=2} splits block 10")

    def test_mixed_reports_the_first_bad_section(self, tree):
        good = pure({a: 3 for a in tree.atoms})
        late = {a: INFINITY for a in tree.atoms}
        late.update({"110": 2, "011": 3})
        rule = mixed([0, "1/4", "1/2", 1], [good, pure(late), self.splitting(tree)])
        violation = validate(rule, tree)
        assert violation_fields(violation) == (
            "SectionNotStoppingTime",
            2,
            "sections[1]",
            "NotAdapted n=2 at 11 ({stop=2} splits block 11)",
        )

    def test_exact_values_of_other_types_are_checked_one_by_one(self, e1, r1, b1):
        class Exact(F):
            pass

        class Index(int):
            pass

        rho_inf = {a: Exact(v) for a, v in r1.rho_inf.items()}
        assert validate(RandomizedStoppingTime(rho=r1.rho, rho_inf=rho_inf), e1) is None
        beta = {n: {b: Exact(v) for b, v in level.items()} for n, level in b1.beta.items()}
        assert validate(BehaviorStoppingTime(beta=beta), e1) is None
        beta[2]["w3"] = Exact(4, 3)
        assert violation_fields(validate(BehaviorStoppingTime(beta=beta), e1)) == (
            "OutOfRange", 2, "w3", "beta=4/3"
        )
        assert validate(pure({a: Index(2) for a in e1.atoms}), e1) is None
        assert validate(pure({a: Index(3) for a in e1.atoms}), e1).kind == "OutOfRange"

    def test_mixed_malformed_section_before_later_split(self, tree):
        missing = {a: 3 for a in tree.atoms if a != "010"}
        rule = mixed([0, "1/3", 1], [pure(missing), self.splitting(tree)])
        violation = validate(rule, tree)
        assert violation_fields(violation) == (
            "SectionNotStoppingTime",
            None,
            "sections[0]",
            "Malformed at 010 (stop missing atom)",
        )


class TestDetailedDistribution:
    def test_r1_mass_table(self, e1, r1):
        assert detailed_distribution(r1, e1).mass == R1_TABLE

    def test_pure_stop_now_everywhere(self, e1):
        nu = detailed_distribution(pure({a: 1 for a in e1.atoms}), e1)
        for a in e1.atoms:
            assert nu.mass[a][1] == e1.prob[a]
            assert nu.mass[a][2] == 0
            assert nu.mass[a][INFINITY] == 0

    def test_behavior_b1_matches_r1(self, e1, b1):
        assert detailed_distribution(b1, e1).mass == R1_TABLE

    def test_invalid_input_raises(self, e1):
        with pytest.raises(ValidationError):
            detailed_distribution(pure({"w1": 1, "w2": 2, "w3": 1, "w4": 1}), e1)

    @pytest.mark.parametrize(
        "event, first", [({"zz"}, "zz"), (("w1", "B", "A"), "A"), (["w2", 5], 5)]
    )
    def test_event_mass_refuses_an_atom_outside_the_table(self, e1, r1, event, first):
        nu = detailed_distribution(r1, e1)
        message = f"event atom {first!r} is not an atom of the space"
        with pytest.raises(ValidationError, match=message):
            nu.event_mass(event, 1)
        assert nu.event_mass(iter(("w1", "w2")), 1) == F(1, 4)

    @pytest.mark.parametrize("t", [3, 0, 1.0, True, F(1), "1", None])
    def test_event_mass_and_density_refuse_a_time_off_the_table(self, e1, r1, t):
        nu = detailed_distribution(r1, e1)
        message = f"time must be an int time of the table or INFINITY, got {t!r}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            nu.event_mass({"w1"}, t)
        with pytest.raises(ValidationError, match=re.escape(message)):
            nu.event_mass((), t)
        with pytest.raises(ValidationError, match=re.escape(message)):
            nu.density(e1, "w1", t)
        assert nu.event_mass({"w1"}, 1) == F(1, 8) and nu.event_mass((), INFINITY) == 0
        assert nu.density(e1, "w1", 1) == F(1, 2) and nu.density(e1, "w1", INFINITY) == 0

    def test_density_refuses_an_atom_outside_the_table(self, e1, r1):
        with pytest.raises(ValidationError, match="atom 'zz' is not an atom of the space"):
            detailed_distribution(r1, e1).density(e1, "zz", 1)

    def test_total_mass_is_one_on_fuzz(self):
        rng = random.Random(5)
        for _ in range(25):
            space = random_space(rng)
            eta = random_stopping_time(rng, space)
            assert detailed_distribution(eta, space).total_mass() == 1


class TestIsStoppingMeasure:
    def test_distribution_outputs_qualify(self, e1):
        rng = random.Random(17)
        for _ in range(12):
            eta = random_stopping_time(rng, e1)
            assert is_stopping_measure(detailed_distribution(eta, e1), e1)

    def test_density_not_adapted(self, e1):
        nu = stopping_measure(
            {
                "w1": {1: F(1, 8), 2: F(1, 8)},
                "w2": {1: F(1, 4)},
                "w3": {INFINITY: F(1, 4)},
                "w4": {INFINITY: F(1, 4)},
            },
            e1,
        )
        assert not is_stopping_measure(nu, e1)

    def test_wrong_projection(self, e1):
        nu = stopping_measure({a: {1: F(1, 8)} for a in e1.atoms}, e1)
        assert not is_stopping_measure(nu, e1)

    def test_negative_mass(self, e1):
        nu = stopping_measure(
            {a: {1: F(-1, 4), 2: F(1, 2)} for a in e1.atoms}, e1
        )
        assert not is_stopping_measure(nu, e1)

    def test_unknown_atom(self, e1):
        with pytest.raises(ValidationError, match=r"unknown atoms \['zz'\]"):
            stopping_measure({"zz": {1: F(1, 4)}}, e1)

    def test_a_row_that_is_not_a_mapping(self, e1):
        with pytest.raises(ValidationError, match="'w1'"):
            stopping_measure({"w1": [1, 2]}, e1)

    def test_key_sets_must_match_the_space(self, e1, r1):
        mass = detailed_distribution(r1, e1).mass
        missing_atom = {a: row for a, row in mass.items() if a != "w4"}
        assert not is_stopping_measure(StoppingMeasure(mass=missing_atom), e1)
        missing_time = {a: {t: m for t, m in row.items() if t != 2} for a, row in mass.items()}
        assert not is_stopping_measure(StoppingMeasure(mass=missing_time), e1)


class TestEquivalent:
    def test_r1_equivalent_to_b1(self, e1, r1, b1):
        assert equivalent(r1, b1, e1)

    def test_r1_not_equivalent_to_stop_now(self, e1, r1):
        assert not equivalent(r1, pure({a: 1 for a in e1.atoms}), e1)

    def test_reflexive(self, e1, r1):
        assert equivalent(r1, r1, e1)

    def test_equivalence_relation_on_fuzz(self):
        rng = random.Random(71)
        space = random_space(rng, max_depth=3)
        etas = [random_stopping_time(rng, space) for _ in range(6)]
        for x in etas:
            assert equivalent(x, x, space)
            for y in etas:
                assert equivalent(x, y, space) == equivalent(y, x, space)
                for z in etas:
                    if equivalent(x, y, space) and equivalent(y, z, space):
                        assert equivalent(x, z, space)

    def test_breakpoint_refinement_invariance(self, e1):
        rng = random.Random(3)
        sigma_a = pure({a: 1 for a in e1.atoms})
        sigma_b = pure({"w1": 2, "w2": 2, "w3": INFINITY, "w4": INFINITY})
        coarse = mixed([0, "1/3", 1], [sigma_a, sigma_b])
        fine = mixed([0, "1/6", "1/3", "2/3", 1], [sigma_a, sigma_a, sigma_b, sigma_b])
        assert equivalent(coarse, fine, e1)
        del rng


@pytest.mark.parametrize("thing", [None, {"w1": 1}, StoppingMeasure({})])
def test_a_non_rule_is_refused_by_its_type(e1, thing):
    """``density_table`` and the rule writer raise TypeError naming what they were handed."""
    name = type(thing).__name__
    with pytest.raises(TypeError, match=f"not a stopping rule: {name}$"):
        density_table(thing, e1)
    with pytest.raises(TypeError, match=f"not a stopping rule: {name}$"):
        stopping_time_to_doc(thing)


class TestEnumeration:
    def test_e1_has_25_pure_rules(self, e1):
        rules = enumerate_pure_stopping_times(e1)
        assert len(rules) == 25
        seen = {tuple(sorted(r.stop.items(), key=str)) for r in rules}
        assert len(seen) == 25
        for r in rules:
            assert validate(r, e1) is None

    def test_singleton_has_two(self, singleton):
        assert len(enumerate_pure_stopping_times(singleton)) == 2

    def test_counts_on_random_spaces(self):
        rng = random.Random(9)
        for _ in range(5):
            space = random_space(rng, max_depth=2, max_branch=2)
            rules = enumerate_pure_stopping_times(space)
            assert len({tuple(sorted(r.stop.items(), key=str)) for r in rules}) == len(rules)
            for r in rules:
                assert validate(r, space) is None

    def test_agrees_with_the_construction_on_block_ids(self):
        """The same rules in the same order, each stop table keyed in the same order, as the
        oracle's merge of block-keyed tables: on the fixture spaces, on drawn spaces of depth
        up to 3, and on a chain of 40 periods."""
        rng = random.Random(27)
        drawn = [random_space(rng, max_depth=3, max_branch=2) for _ in range(20)]
        nodes = [{"id": f"c{n}", "parent": f"c{n - 1}" if n else None} for n in range(41)]
        chain = build_space(nodes[:-1] + [{**nodes[-1], "prob": 1}])
        for space in fixture_spaces() + drawn + [chain]:
            rules = enumerate_pure_stopping_times(space)
            expected = oracles.enumerate_pure_stopping_times(space)
            assert [list(r.stop.items()) for r in rules] == [list(r.stop.items()) for r in expected]
            assert rules == expected
        assert len(rules) == 41

    def test_r1_reachable_as_mixture_support(self, e1):
        table = detailed_distribution(make_r1(), e1)
        assert table.event_mass(("w1", "w2"), 1) == F(1, 4)


def refuses_touch(eta) -> None:
    """Putting an equal but new object in one cell of ``eta``, in place, raises TypeError."""
    if isinstance(eta, (PureStoppingTime, MixedStoppingTime)):
        table = (eta.sections[0] if isinstance(eta, MixedStoppingTime) else eta).stop
    else:
        table = eta.rho_inf if isinstance(eta, RandomizedStoppingTime) else eta.beta[1]
    key = next(iter(table))
    with pytest.raises(TypeError):
        table[key] = copy.copy(table[key])


class TestValidatesOnce:
    """Each public entry point reads each rule, process and game it is given once per lifetime:
    a first call checks it once, and no later call checks it again while it lives.  It cannot
    change in place, and an equal copy is a new input, checked once."""

    @pytest.fixture
    def cases(self):
        rng = random.Random(17)
        space = random_space(rng, max_depth=3)
        return space, [maker(rng, space) for maker in MAKERS], random_process(rng, space)

    def test_detailed_distribution_and_payoff(self, checked, cases):
        space, rules, problem = cases
        for eta in rules:
            detailed_distribution(eta, space)
            assert checked == [eta]
            checked.clear()
            value = payoff(eta, problem, space)
            detailed_distribution(eta, space)
            assert checked == ([problem] if eta is rules[0] else [])
            checked.clear()
            refuses_touch(eta)
            twin = copy.deepcopy(eta)
            assert payoff(twin, problem, space) == value
            assert checked == [twin]
            checked.clear()

    def test_problem_read_once(self, checked, read, cases):
        space, rules, problem = cases
        payoff(rules[0], problem, space)
        assert read == [problem]
        snell_value(problem, space)
        check_epsilon_optimal(rules[0], problem, 0, space)
        assert read == [problem]
        assert checked == [rules[0], problem]
        twin = copy.deepcopy(problem)
        assert check_epsilon_optimal(rules[0], twin, 0, space) == check_epsilon_optimal(
            rules[0], problem, 0, space
        )
        assert read == [problem, twin]
        assert checked == [rules[0], problem, twin]

    def test_convert_every_target(self, checked, cases):
        space, rules, _ = cases
        for eta in rules:
            converted = [convert(eta, target, space) for target in TARGET_TYPES]
            assert checked == [eta]
            checked.clear()
            refuses_touch(eta)
            twin = copy.deepcopy(eta)
            assert [convert(twin, target, space) for target in TARGET_TYPES] == converted
            assert checked == [twin]
            checked.clear()

    def test_equivalent_validates_both(self, checked, cases):
        space, rules, _ = cases
        equivalent(rules[0], rules[1], space)
        assert checked == [rules[0], rules[1]]
        equivalent(rules[1], rules[0], space)
        assert checked == [rules[0], rules[1]]
        refuses_touch(rules[1])
        twin = copy.deepcopy(rules[1])
        assert equivalent(rules[0], twin, space) == equivalent(rules[0], rules[1], space)
        assert checked == [rules[0], rules[1], twin]

    def test_game_calls_validate_each_rule_once(self, checked, cases, monkeypatch):
        space, rules, _ = cases
        game = random_game(random.Random(18), space)
        translated = []
        real = FilteredSpace.tables
        monkeypatch.setattr(
            FilteredSpace, "tables", lambda *args: translated.append(1) or real(*args)
        )
        fresh = [game, *rules]  # each is checked by the first call given it, and only then
        for eta1, eta2 in zip(rules, rules[1:] + rules[:1]):
            for repeat in (False, True):
                translated.clear()
                game_payoff(eta1, eta2, game, space)
                # a first call for the pair translates the game at most once, a repeat not at all
                assert len(translated) <= (0 if repeat else 1)
                check_epsilon_equilibrium(eta1, eta2, game, 0, space)
                for player in (1, 2):
                    auxiliary_problem(eta1, game, space, player)
                    best_response_value(eta1, game, player, space)
                given = [x for x in fresh if any(x is y for y in (game, eta1, eta2))]
                assert sorted(checked, key=id) == sorted(given, key=id)
                assert len(translated) == any(x is game for x in given)
                fresh = [x for x in fresh if all(x is not y for y in given)]
                checked.clear()
        for eta in rules:
            refuses_touch(eta)
            twin = copy.deepcopy(eta)
            assert best_response_value(twin, game, 1, space) == best_response_value(
                eta, game, 1, space
            )
            assert checked == [twin]
            checked.clear()
        with pytest.raises(TypeError):
            game.payoffs[1, BOTH].infinity[space.atoms[0]] += 1
        twin = copy.deepcopy(game)
        assert best_response_value(rules[0], twin, 1, space) == best_response_value(
            rules[0], game, 1, space
        )
        assert checked == [twin]

    def test_game_processes_read_once_per_call(self, read, cases):
        space, rules, _ = cases
        game = random_game(random.Random(19), space)
        calls = [
            lambda: game_payoff(rules[0], rules[1], game, space),
            lambda: check_epsilon_equilibrium(rules[0], rules[1], game, 0, space),
            lambda: best_response_value(rules[0], game, 2, space),
            lambda: auxiliary_problem(rules[0], game, space, 1),
            lambda: is_zero_sum(game, space),
        ]
        for call in calls * 2:  # the first call reads the game; the others reuse its translation
            call()
            assert sorted(read, key=id) == sorted(game.payoffs.values(), key=id)

    def test_zero_sum_value_reads_each_process_once(self, read):
        rng = random.Random(20)
        space = random_space(rng, max_depth=3)
        own = {c: random_process(rng, space) for c in COALITIONS}
        payoffs = {(1, c): p for c, p in own.items()}
        payoffs.update({(2, c): negate_process(p) for c, p in own.items()})
        game = stopping_game(payoffs)
        zero_sum_value(game, space)
        assert sorted(read, key=id) == sorted(game.payoffs.values(), key=id)
