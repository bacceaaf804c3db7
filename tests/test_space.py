import random
from fractions import Fraction as F

import pytest

from stopwright import (
    INFINITY,
    ProbabilitySumError,
    SpaceMismatch,
    StructureError,
    ZeroProbabilityError,
    adapted_process,
    as_fraction,
    build_space,
    check_process,
    conditional_expectation,
    constant_process,
    densities,
    event_is_measurable,
    expectation,
    is_measurable,
    snell_value,
)
from stopwright.space import FilteredSpace
from stopwright.stopping import density_table

from fuzz import E1_NODES, random_process, random_randomized, random_space


class TestBuildSpace:
    def test_trivial_single_leaf(self):
        space = build_space(
            [{"id": "r", "parent": None}, {"id": "w", "parent": "r", "prob": "1"}]
        )
        assert space.horizon == 1
        assert space.atoms == ("w",)
        assert space.prob["w"] == 1

    def test_probabilities_and_partitions_refuse_change_in_place(self, e1):
        with pytest.raises(TypeError, match="read-only"):
            e1.prob["w1"] = F(1, 2)
        for level in e1.levels:
            with pytest.raises(TypeError, match="read-only"):
                level[next(iter(level))] = ("w1",)
        one = {a: F(1) for a in e1.atoms}
        assert expectation(e1, one) == 1
        assert snell_value(constant_process(e1, 1), e1).value == 1

    def test_e1_structure(self, e1):
        assert e1.horizon == 2
        assert len(e1.blocks(1)) == 2
        assert len(e1.blocks(2)) == 4
        assert set(e1.members(1, "A")) == {"w1", "w2"}
        assert set(e1.members(1, "B")) == {"w3", "w4"}
        assert e1.block_of(1, "w3") == "B"
        assert e1.children(1, "A") == ("w1", "w2")
        assert e1.block_prob(1, "A") == F(1, 2)

    def test_probability_sum_error(self):
        for w3, w4, total in (("1/4", "1/3", "13/12"), ("1/8", "1/8", "3/4")):
            nodes = [dict(n) for n in E1_NODES]
            nodes[-2]["prob"], nodes[-1]["prob"] = w3, w4
            with pytest.raises(ProbabilitySumError, match=f"sum to {total}, expected 1"):
                build_space(nodes)

    def test_zero_probability_error(self):
        nodes = [dict(n) for n in E1_NODES]
        nodes[-1]["prob"] = "0"
        nodes[-2]["prob"] = "1/2"
        with pytest.raises(ZeroProbabilityError):
            build_space(nodes)
        # reported before the sum check: here the other three sum to 3/4
        for prob, shown in (("0", "0"), ("-1/4", "-1/4"), ("0/7", "0")):
            nodes = [dict(n) for n in E1_NODES]
            nodes[-1]["prob"] = prob
            with pytest.raises(ZeroProbabilityError, match=f"'w4' has probability {shown} <= 0"):
                build_space(nodes)

    def test_uneven_leaf_depths(self):
        nodes = [
            {"id": "r", "parent": None},
            {"id": "a", "parent": "r", "prob": "1/2"},
            {"id": "b", "parent": "r"},
            {"id": "b1", "parent": "b", "prob": "1/2"},
        ]
        with pytest.raises(StructureError):
            build_space(nodes)

    def test_orphaned_node(self):
        with pytest.raises(StructureError):
            build_space(
                [
                    {"id": "r", "parent": None},
                    {"id": "w", "parent": "ghost", "prob": "1"},
                ]
            )

    def test_two_roots(self):
        with pytest.raises(StructureError):
            build_space(
                [
                    {"id": "r1", "parent": None},
                    {"id": "r2", "parent": None},
                    {"id": "w", "parent": "r1", "prob": "1"},
                ]
            )

    def test_root_leaf_rejected(self):
        with pytest.raises(StructureError):
            build_space([{"id": "r", "parent": None, "prob": "1"}])

    def test_leaf_without_probability(self):
        with pytest.raises(StructureError):
            build_space([{"id": "r", "parent": None}, {"id": "w", "parent": "r"}])

    def test_internal_node_with_probability(self):
        nodes = [dict(n) for n in E1_NODES]
        nodes[1]["prob"] = "1/2"
        with pytest.raises(StructureError):
            build_space(nodes)


class TestFilteredSpaceInvariants:
    def test_partition_must_refine(self):
        with pytest.raises(StructureError):
            FilteredSpace(
                horizon=2,
                atoms=("x", "y"),
                prob={"x": F(1, 2), "y": F(1, 2)},
                levels=[{"a": ("x",), "b": ("y",)}, {"c": ("x", "y")}],
            )

    def test_horizon_partition_must_separate(self):
        with pytest.raises(StructureError):
            FilteredSpace(
                horizon=1,
                atoms=("x", "y"),
                prob={"x": F(1, 2), "y": F(1, 2)},
                levels=[{"a": ("x", "y")}],
            )

    def test_partition_must_cover(self):
        with pytest.raises(StructureError):
            FilteredSpace(
                horizon=1,
                atoms=("x", "y"),
                prob={"x": F(1, 2), "y": F(1, 2)},
                levels=[{"a": ("x",)}],
            )

    HALVES = {"x": F(1, 2), "y": F(1, 2)}

    @pytest.mark.parametrize(
        "horizon, atoms, prob, levels, message",
        [
            (0, ("x", "y"), HALVES, [], "horizon must be at least 1"),
            (2, ("x", "y"), HALVES, [{"x": ("x",), "y": ("y",)}], "expected 2 partition levels, got 1"),
            (1, ("x", "x"), HALVES, [{"x": ("x",)}], "duplicate atom ids"),
            (1, ("x", "y"), {"x": 1}, [{"x": ("x",), "y": ("y",)}], "probability table does not match"),
            (1, ("x", "y"), HALVES, [{"x": ("x",), "y": ("y",), "e": ()}], "block 'e' at time 1 is empty"),
            (1, ("x", "y"), HALVES, [{"x": ("x", "z")}], "block 'x' references unknown atom 'z'"),
            (1, ("x", "y"), HALVES, [{"a": ("x",), "b": ("x", "y")}], "atom 'x' appears in two blocks at time 1"),
        ],
    )
    def test_direct_construction_faults(self, horizon, atoms, prob, levels, message):
        with pytest.raises(StructureError, match=message):
            FilteredSpace(horizon, atoms, prob, levels)

    @pytest.mark.parametrize(
        "nodes, message",
        [
            (E1_NODES + [{"id": "A", "parent": "root"}], "duplicate node id 'A'"),
            ([{"id": "a", "parent": "b", "prob": "1"}, {"id": "b", "parent": "a"}], "no root node"),
            (
                E1_NODES + [{"id": "x", "parent": "y", "prob": "0"}, {"id": "y", "parent": "x"}],
                "tree contains nodes unreachable from the root",
            ),
        ],
    )
    def test_build_space_faults(self, nodes, message):
        with pytest.raises(StructureError, match=message):
            build_space(nodes)


class TestAsFraction:
    def test_accepts_strings_and_ints(self):
        assert as_fraction("3/4") == F(3, 4)
        assert as_fraction(2) == F(2)
        assert as_fraction(F(1, 3)) == F(1, 3)

        class Sub(F):
            pass

        for value, expected in ((Sub(3, 4), F(3, 4)), (3, F(3)), ("3/4", F(3, 4))):
            got = as_fraction(value)
            assert type(got) is F and got == expected

    def test_a_fraction_comes_back_as_it_is(self):
        q = F(5, 7)
        assert as_fraction(q) is q

    def test_rejects_floats_and_bools(self):
        with pytest.raises(TypeError):
            as_fraction(0.25)
        with pytest.raises(TypeError):
            as_fraction(True)


class TestExpectation:
    def test_constant(self, e1):
        assert expectation(e1, {a: F(7, 3) for a in e1.atoms}) == F(7, 3)

    def test_indicator_of_one_atom(self, e1):
        f = {"w1": F(1), "w2": F(0), "w3": F(0), "w4": F(0)}
        assert expectation(e1, f) == F(1, 4)

    def test_hand_computed_sum(self, e1):
        f = {"w1": F(1, 2), "w2": F(0), "w3": F(1, 4), "w4": F(3, 4)}
        assert expectation(e1, f) == F(3, 8)

    def test_linearity(self, e1):
        rng = random.Random(11)
        for _ in range(20):
            f = {a: F(rng.randint(-9, 9), rng.randint(1, 4)) for a in e1.atoms}
            g = {a: F(rng.randint(-9, 9), rng.randint(1, 4)) for a in e1.atoms}
            a, b = F(rng.randint(-3, 3)), F(rng.randint(-3, 3), 2)
            combo = {w: a * f[w] + b * g[w] for w in e1.atoms}
            assert expectation(e1, combo) == a * expectation(e1, f) + b * expectation(e1, g)


class TestConditionalExpectation:
    def test_constant_stays_constant(self, e1):
        f = {a: F(5, 2) for a in e1.atoms}
        assert conditional_expectation(e1, f, 1) == {"A": F(5, 2), "B": F(5, 2)}

    def test_indicator_ratio(self, e1):
        f = {"w1": F(1), "w2": F(0), "w3": F(0), "w4": F(0)}
        assert conditional_expectation(e1, f, 1) == {"A": F(1, 2), "B": F(0)}

    def test_per_block_average(self, e1):
        f = {"w1": F(0), "w2": F(2), "w3": F(1), "w4": F(1)}
        assert conditional_expectation(e1, f, 1) == {"A": F(1), "B": F(1)}

    def test_tower_property_on_random_spaces(self):
        rng = random.Random(23)
        for _ in range(15):
            space = random_space(rng)
            f = {a: F(rng.randint(-9, 9), rng.randint(1, 4)) for a in space.atoms}
            for n in range(1, space.horizon + 1):
                cond = conditional_expectation(space, f, n)
                lifted = {a: cond[space.block_of(n, a)] for a in space.atoms}
                assert expectation(space, lifted) == expectation(space, f)
                assert is_measurable(space, lifted, n)


class TestMeasurability:
    def test_constant_is_measurable_everywhere(self, e1):
        f = {a: F(1, 7) for a in e1.atoms}
        assert is_measurable(e1, f, 1)
        assert is_measurable(e1, f, 2)

    def test_block_constant(self, e1):
        f = {"w1": F(1), "w2": F(1), "w3": F(0), "w4": F(0)}
        assert is_measurable(e1, f, 1)

    def test_varies_within_block(self, e1):
        f = {"w1": F(1), "w2": F(0), "w3": F(0), "w4": F(0)}
        assert not is_measurable(e1, f, 1)

    def test_event_measurability(self, e1):
        assert event_is_measurable(e1, {"w1", "w2"}, 1)
        assert not event_is_measurable(e1, {"w1"}, 1)
        assert event_is_measurable(e1, {"w1"}, 2)


class TestTreePasses:
    def test_contracts_on_e1(self, e1, r1, b1):
        asked = []

        def stops_at(i):
            asked.append(e1.ids[i])
            return e1.ids[i] in ("A", "w3")

        assert e1.first_stop(stops_at) == {"w1": 1, "w2": 1, "w3": 2, "w4": INFINITY}
        assert sorted(asked) == ["A", "B", "w3", "w4"]  # nothing below a stop is asked

        rng = random.Random(5)
        rules = [r1, densities(b1, e1)] + [random_randomized(rng, e1) for _ in range(20)]
        for eta in rules:
            d = density_table(eta, e1)
            spent = e1.spent(d.blocks)
            for atom in e1.atoms:
                assert F(spent[e1.number(2, e1.block_of(2, atom))], d.den) + eta.rho_inf[atom] == 1

        for _ in range(10):
            problem = random_process(rng, e1)
            (table,) = e1.tables(problem)
            stop = [m * v for m, v in zip(e1.block_mass, table.blocks)]
            value, values = e1.backward_induction(
                [m * v for m, v in zip(e1.atom_mass, table.atoms)],
                lambda i, continuation: max(stop[i], continuation),
            )
            assert F(value, e1.denominator * table.den) == snell_value(problem, e1).value
            assert set(e1.by_block(values)[2]) == set(e1.blocks(2))

    def test_flat_numbering_on_e1(self, e1):
        assert e1.ids == ["A", "B", "w1", "w2", "w3", "w4"]
        assert e1.depth == [1, 1, 2, 2, 2, 2]
        assert e1.parent == [6, 6, 0, 0, 1, 1] and e1.root == 6
        assert e1.starts == [0, 2, 6]
        assert e1.paths == [(0, 2), (0, 3), (1, 4), (1, 5)]
        assert e1.leaf == [2, 3, 4, 5]
        assert e1.denominator == 4
        assert e1.atom_mass == [1, 1, 1, 1] and e1.block_mass == [2, 2, 1, 1, 1, 1]


class TestProcesses:
    def test_value_at_reads_blocks_and_infinity(self, e1):
        proc = adapted_process(
            values={1: {"A": "1/2", "B": 0}, 2: {"w1": 1, "w2": 2, "w3": 3, "w4": 4}},
            infinity={"w1": 0, "w2": 0, "w3": 0, "w4": "9/2"},
        )
        from stopwright import INFINITY

        assert proc.value_at(e1, 1, "w2") == F(1, 2)
        assert proc.value_at(e1, 2, "w3") == 3
        assert proc.value_at(e1, INFINITY, "w4") == F(9, 2)

    def test_constant_process(self, e1):
        proc = constant_process(e1, "2/3")
        assert all(v == F(2, 3) for level in proc.values.values() for v in level.values())
        assert all(v == F(2, 3) for v in proc.infinity.values())

    def test_space_mismatch(self, e1, singleton):
        proc = constant_process(singleton, 1)
        with pytest.raises(SpaceMismatch):
            check_process(e1, proc)
