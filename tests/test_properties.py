"""Properties of every space built from a node list, and of every table read on it, on
drawn trees.

A space is checked once, from its nodes, and numbered in the same pass.
The first two properties state what its levels and its flat numbering then
satisfy with no second check; the third is the paper's equivalence of the
mixed, behavior and randomized notions of a random stopping time, and the
fourth that rules of all four types, processes and games survive their
wire documents.  The fifth and sixth are the paper's first equivalence in
its constructive half: a witness problem pays a rule's stop mass on its
event and time, so ``distinguish``'s witness separates two rules that are
not equivalent by exactly its gap.  The seventh is that equivalence's game
half: the witness, paid to player 1 stopping alone against an opponent who
never stops, separates the two rules' game payoffs by the same gap, while a
rule and its conversions pay alike against every opponent drawn.  The
eighth decides the paper's second equivalence as it is defined, by player
1's payoffs in the one-cell games against that same opponent, and finds
``game_equivalent``'s answer.  The paper's theorem comes as a number next: the total variation distance D of
two rules' detailed distributions bounds every payoff gap of a problem or
a game with payoffs in [0, 1], and the indicator of the cells where the
first rule has more mass attains it.  Four more state that density
Tables are in lowest terms, so that their equality decides equivalence as
cross-multiplied densities do; that a rule's stop-mass Table, which every
payoff pairs, is its detailed distribution summed per cell; that ``snell_value`` and
``best_response_value`` reach the best pure rule; and that sampling gives,
to the bit, what the first form of its chunk kernels gave.  The last two
draw mutations of valid rule and process tables: every one is read to a
Violation or a reader's error, never a crash, and every table accepted is
read as a lookup key by key reads it.
"""

import json
import math
import random
from collections.abc import Mapping
from fractions import Fraction as F
from itertools import accumulate
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stopwright import (
    BOTH,
    COALITIONS,
    INFINITY,
    ONLY_1,
    ONLY_2,
    AdaptedProcess,
    BehaviorStoppingTime,
    MixedStoppingTime,
    PureStoppingTime,
    RandomizedStoppingTime,
    SpaceMismatch,
    StoppingGame,
    ValidationError,
    adapted_process,
    best_response_value,
    build_space,
    check_process,
    constant_process,
    convert,
    detailed_distribution,
    distinguish,
    empirical_detailed_distribution,
    empirical_game_payoff,
    enumerate_pure_stopping_times,
    equivalent,
    game_equivalent,
    game_payoff,
    payoff,
    snell_value,
    stopping_game,
    validate,
    witness_problem,
)
from stopwright import montecarlo
from stopwright.convert import TARGET_TYPES
from stopwright.serialize import (
    game_from_doc,
    game_to_doc,
    process_from_doc,
    process_to_doc,
    stopping_time_from_doc,
    stopping_time_to_doc,
)
from stopwright.space import Violation
from stopwright.stopping import check, density_table, mass_of

import oracles
from fuzz import MAKERS, random_game, random_process

#: the same examples on every run and no example database, as in the CLI fuzz
PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=80)


@st.composite
def node_lists(draw, max_depth=4, max_atoms=16):
    """A scenario tree as a node list in shuffled order with random ids.

    Every leaf sits at the drawn depth, and each node has one to three
    children while the leaves stay at most ``max_atoms``.  Examples shrink
    towards a chain of depth one.
    """
    depth = draw(st.integers(1, max_depth))
    parents = [None]  # per node, breadth first, the place of its parent
    level = [0]
    for _ in range(depth):
        below = []
        for k, p in enumerate(level):
            room = max_atoms - len(below) - (len(level) - k - 1)  # each later node needs a child
            for _ in range(draw(st.integers(1, min(3, room)))):
                below.append(len(parents))
                parents.append(p)
        level = below
    ids = draw(
        st.lists(
            st.text("abxyz01", min_size=1, max_size=3),
            min_size=len(parents),
            max_size=len(parents),
            unique=True,
        )
    )
    weights = draw(st.lists(st.integers(1, 9), min_size=len(level), max_size=len(level)))
    nodes = [{"id": ids[k], "parent": None if p is None else ids[p]} for k, p in enumerate(parents)]
    for k, w in zip(level, weights):
        nodes[k]["prob"] = F(w, sum(weights))
    return draw(st.permutations(nodes))


@PROPERTY
@given(node_lists())
def test_levels_partition_refine_and_separate(nodes):
    space = build_space(nodes)
    atoms = {node["id"] for node in nodes if "prob" in node}
    assert set(space.atoms) == atoms and len(space.levels) == space.horizon
    previous = None
    for level in space.levels:
        members = [a for block in level.values() for a in block]
        assert all(level.values()) and len(members) == len(atoms) and set(members) == atoms
        if previous is not None:
            for block in map(set, level.values()):
                meeting = [set(up) for up in previous.values() if block & set(up)]
                assert len(meeting) == 1 and block <= meeting[0]
        previous = level
    assert dict(space.levels[-1]) == {a: (a,) for a in space.atoms}


@PROPERTY
@given(node_lists())
def test_numbering_agrees_with_levels_prob_and_nodes(nodes):
    space = build_space(nodes)
    T, B = space.horizon, space.root
    flat = [(n, b) for n, level in enumerate(space.levels, start=1) for b in level]
    assert space.ids == [b for _, b in flat] and space.depth == [n for n, _ in flat]
    assert B == len(flat) and space.starts == [0, *accumulate(map(len, space.levels))]
    members = [set(space.members(n, b)) for n, b in flat]
    up = {node["id"]: node["parent"] for node in nodes}
    for i, p in enumerate(space.parent):
        if space.depth[i] == 1:
            assert p == B and up[up[space.ids[i]]] is None
        else:
            assert space.depth[p] == space.depth[i] - 1 and members[i] <= members[p]
            assert space.ids[p] == up[space.ids[i]]
    assert list(space.prob) == list(space.atoms) and sum(space.prob.values()) == 1
    for j, a in enumerate(space.atoms):
        path = [row[j] for row in space.slots[:-1]]
        assert [space.depth[i] for i in path] == list(range(1, T + 1))
        assert all(a in members[i] for i in path)
        assert space.leaf[j] == path[-1] and space.ids[path[-1]] == a
        assert F(space.atom_mass[j], space.denominator) == space.prob[a]
    for i in range(B):
        mass = sum(space.prob[a] for a in members[i])
        assert F(space.block_mass[i], space.denominator) == mass


@PROPERTY
@given(node_lists(max_depth=3, max_atoms=8), st.integers(0, 2**32 - 1))
def test_every_conversion_is_equivalent_with_the_same_payoff(nodes, seed):
    space = build_space(nodes)
    rng = random.Random(seed)
    problem = random_process(rng, space)
    for make in MAKERS:
        eta = make(rng, space)
        for target in TARGET_TYPES:
            converted = convert(eta, target, space)
            assert equivalent(eta, converted, space), (make.__name__, target)
            assert payoff(converted, problem, space) == payoff(eta, problem, space)


@PROPERTY
@given(node_lists(max_depth=3, max_atoms=8), st.integers(0, 2**32 - 1), st.data())
def test_a_witness_problem_pays_the_stop_mass_on_its_cell(nodes, seed, data):
    space, rng = build_space(nodes), random.Random(seed)
    event = data.draw(st.sets(st.sampled_from(space.atoms)))
    t = data.draw(st.sampled_from(space.times))
    problem = witness_problem(event, t, space)
    for make in MAKERS:
        eta = make(rng, space)
        assert payoff(eta, problem, space) == detailed_distribution(eta, space).event_mass(event, t)


@PROPERTY
@given(node_lists(max_depth=3, max_atoms=8), st.integers(0, 2**32 - 1), st.data())
def test_the_witness_of_two_rules_separates_them_by_its_gap(nodes, seed, data):
    space, rng = build_space(nodes), random.Random(seed)
    eta1 = data.draw(st.sampled_from(MAKERS))(rng, space)
    eta2 = data.draw(st.sampled_from(MAKERS))(rng, space)
    witness = distinguish(eta1, eta2, space)
    assert (witness is None) == equivalent(eta1, eta2, space)
    if witness is not None:
        problem = witness_problem(witness.event, witness.time, space)
        gap = payoff(eta1, problem, space) - payoff(eta2, problem, space)
        assert abs(gap) == witness.payoff_gap > 0


@PROPERTY
@given(node_lists(max_depth=3, max_atoms=8), st.integers(0, 2**32 - 1), st.data())
def test_a_witness_game_separates_two_rules_and_no_rule_from_its_conversions(nodes, seed, data):
    """The game half of the first equivalence: player 1 stopping alone is paid the witness
    problem of two rules that ``distinguish`` separates, every other payoff is zero, and the
    opponent never stops, so the rules' game payoffs differ by exactly the witness's gap;
    a rule and each of its conversions pay the same, there and in a drawn game against a
    drawn opponent."""
    space, rng = build_space(nodes), random.Random(seed)
    eta1 = data.draw(st.sampled_from(MAKERS))(rng, space)
    eta2 = data.draw(st.sampled_from(MAKERS))(rng, space)
    witness = distinguish(eta1, eta2, space)
    if witness is None:
        return
    zero = constant_process(space, 0)
    payoffs = {(j, c): zero for j in (1, 2) for c in COALITIONS}
    payoffs[1, ONLY_1] = witness_problem(witness.event, witness.time, space)
    witness_game = stopping_game(payoffs)
    never = PureStoppingTime(dict.fromkeys(space.atoms, INFINITY))
    first, second = (game_payoff(eta, never, witness_game, space) for eta in (eta1, eta2))
    assert first[1] == second[1] == 0
    assert abs(first[0] - second[0]) == witness.payoff_gap > 0
    drawn, opponent = random_game(rng, space), data.draw(st.sampled_from(MAKERS))(rng, space)
    for eta, paid in ((eta1, first), (eta2, second)):
        against = game_payoff(eta, opponent, drawn, space)
        for target in TARGET_TYPES:
            converted = convert(eta, target, space)
            assert game_payoff(converted, never, witness_game, space) == paid, target
            assert game_payoff(converted, opponent, drawn, space) == against, target


@PROPERTY
@given(node_lists(max_depth=3, max_atoms=8), st.integers(0, 2**32 - 1), st.data())
def test_game_equivalence_by_its_definition_agrees_with_the_package(nodes, seed, data):
    """The paper's second equivalence, decided as it is defined, by the payoffs of the
    one-cell games against a never-stopping opponent, is ``game_equivalent``'s answer: for a
    rule against each of its conversions and against a rule drawn apart."""
    space, rng = build_space(nodes), random.Random(seed)
    for make in MAKERS:
        eta = make(rng, space)
        other = data.draw(st.sampled_from(MAKERS))(rng, space)
        for twin in (other, *(convert(eta, target, space) for target in TARGET_TYPES)):
            assert game_equivalent(eta, twin, space) == oracles.game_equivalent(eta, twin, space)


@PROPERTY
@given(node_lists(), st.integers(0, 2**32 - 1), st.data())
def test_density_tables_are_in_lowest_terms_so_equal_exactly_when_equivalent(nodes, seed, data):
    """Every rule type's density Table, and its conversions', has ``gcd(den, *cells) == 1``;
    ``equivalent`` agrees with cross-multiplied densities, on a rule against its conversions
    and against a rule drawn apart, and ``distinguish`` finds no witness exactly then."""
    space, rng = build_space(nodes), random.Random(seed)
    for make in MAKERS:
        eta = make(rng, space)
        other = data.draw(st.sampled_from(MAKERS))(rng, space)
        for twin in (other, *(convert(eta, target, space) for target in TARGET_TYPES)):
            for rule in (eta, twin):
                table = density_table(rule, space)
                assert math.gcd(table.den, *table.cells) == 1
            same = oracles.cross_equivalent(density_table(eta, space), density_table(twin, space))
            assert equivalent(eta, twin, space) == same
            assert (distinguish(eta, twin, space) is None) == same
        assert all(equivalent(eta, convert(eta, target, space), space) for target in TARGET_TYPES)


@PROPERTY
@given(node_lists(max_depth=3), st.integers(0, 2**32 - 1))
def test_a_stop_mass_table_is_the_detailed_distribution_summed_per_cell(nodes, seed):
    """For every rule type, ``mass_of``'s support, scattered back onto every cell, gives each
    cell's mass over its ``den`` as the rule's stop mass on that cell, zero cells included: its
    detailed distribution summed over a block's atoms at the block's time, or an atom's own at
    INFINITY.  The support lists exactly the nonzero cells, in increasing order."""
    space, rng = build_space(nodes), random.Random(seed)
    for make in MAKERS:
        eta = make(rng, space)
        mass = check(eta, space).derive(mass_of, space)
        nu = detailed_distribution(eta, space).mass
        cells = [sum(nu[a][n] for a in space.members(n, b)) for n, b in zip(space.depth, space.ids)]
        cells += [nu[a][INFINITY] for a in space.atoms]
        scattered = [F(0)] * len(space.cell_ids)
        for k, c in zip(mass.numbers, mass.cells, strict=True):
            scattered[k] = F(c, mass.den)
        assert scattered == cells
        assert mass.numbers == [k for k, c in enumerate(cells) if c]
        assert all(mass.cells)


def unit_process(rng, space) -> AdaptedProcess:
    """A process with values in [0, 1], each a multiple of 1/6."""
    return adapted_process(
        values={n: {b: F(rng.randint(0, 6), 6) for b in space.blocks(n)} for n in space.times[:-1]},
        infinity={a: F(rng.randint(0, 6), 6) for a in space.atoms},
    )


def more_mass(d1, d2, space) -> AdaptedProcess:
    """1 on the cells where ``d1`` has more mass than ``d2``, else 0.  A time-n cell is a block,
    read at one of its atoms: densities are constant on blocks and atoms have mass."""

    def more(atom, t):
        return F(int(d1.mass[atom][t] > d2.mass[atom][t]))

    times = space.times[:-1]
    values = {n: {b: more(space.members(n, b)[0], n) for b in space.blocks(n)} for n in times}
    return AdaptedProcess(values=values, infinity={a: more(a, INFINITY) for a in space.atoms})


def onto_unit_interval(game) -> StoppingGame:
    """``game`` with every payoff mapped affinely onto [0, 1]: its least to 0, its greatest to 1."""
    processes = game.payoffs.values()
    cells = [v for p in processes for row in (*p.values.values(), p.infinity) for v in row.values()]
    lo, width = min(cells), (max(cells) - min(cells)) or 1

    def scaled(rows):
        return {key: (v - lo) / width for key, v in rows.items()}

    return stopping_game(
        {
            key: AdaptedProcess({n: scaled(row) for n, row in p.values.items()}, scaled(p.infinity))
            for key, p in game.payoffs.items()
        }
    )


def distance(data, rng, space):
    """Two drawn rules, their detailed distributions, and their distance D."""
    eta1 = data.draw(st.sampled_from(MAKERS))(rng, space)
    eta2 = data.draw(st.sampled_from(MAKERS))(rng, space)
    d1, d2 = detailed_distribution(eta1, space), detailed_distribution(eta2, space)
    D = oracles.total_variation(d1, d2)
    assert D == oracles.total_variation(d2, d1) and (D == 0) == equivalent(eta1, eta2, space)
    return eta1, eta2, d1, d2, D


@PROPERTY
@given(node_lists(max_depth=3), st.integers(0, 2**32 - 1), st.data())
def test_the_distance_bounds_every_unit_problem_and_the_indicator_attains_it(nodes, seed, data):
    """No problem with values in [0, 1] pays two rules more than D apart, and the indicator of
    the cells where the first rule has more mass pays them exactly D apart."""
    space, rng = build_space(nodes), random.Random(seed)
    eta1, eta2, d1, d2, D = distance(data, rng, space)
    for problem in [unit_process(rng, space) for _ in range(3)]:
        assert abs(payoff(eta1, problem, space) - payoff(eta2, problem, space)) <= D
    indicator = more_mass(d1, d2, space)
    assert payoff(eta1, indicator, space) - payoff(eta2, indicator, space) == D


@PROPERTY
@given(node_lists(max_depth=3), st.integers(0, 2**32 - 1), st.data())
def test_the_distance_bounds_every_unit_game_against_drawn_opponents(nodes, seed, data):
    """In a drawn game rescaled into [0, 1], neither player's payoff moves by more than D when
    either seat's rule changes from one rule to the other, whatever rule the other seat plays."""
    space, rng = build_space(nodes), random.Random(seed)
    eta1, eta2, _, _, D = distance(data, rng, space)
    game = onto_unit_interval(random_game(rng, space))
    for _ in range(2):
        opponent = data.draw(st.sampled_from(MAKERS))(rng, space)
        seats = (((eta1, opponent), (eta2, opponent)), ((opponent, eta1), (opponent, eta2)))
        for one, two in seats:
            first, second = game_payoff(*one, game, space), game_payoff(*two, game, space)
            assert all(abs(x - y) <= D for x, y in zip(first, second))


@PROPERTY
@given(node_lists(max_depth=3), st.integers(0, 2**32 - 1), st.data())
def test_a_never_stopping_opponent_attains_the_distance(nodes, seed, data):
    """Against an opponent who never stops, the player in either seat is paid the indicator of
    the cells where the first rule has more mass, by stopping alone at a time or, if nobody
    stops, by the both-stop process's INFINITY slot; the two rules' payoffs differ by D."""
    space, rng = build_space(nodes), random.Random(seed)
    eta1, eta2, d1, d2, D = distance(data, rng, space)
    indicator, zero = more_mass(d1, d2, space), constant_process(space, 0)
    never = PureStoppingTime(dict.fromkeys(space.atoms, INFINITY))
    for player, alone in ((1, ONLY_1), (2, ONLY_2)):
        payoffs = {(j, c): zero for j in (1, 2) for c in COALITIONS}
        payoffs[player, alone] = payoffs[player, BOTH] = indicator
        game = stopping_game(payoffs)

        def paid(eta):
            profile = (eta, never) if player == 1 else (never, eta)
            return game_payoff(*profile, game, space)

        first, second, k = paid(eta1), paid(eta2), player - 1
        assert first[k] - second[k] == D and first[1 - k] == second[1 - k] == 0


def pure_rule_count(space) -> int:
    """How many rules ``enumerate_pure_stopping_times`` lists, counted without listing them."""
    below = {}
    for n in range(space.horizon, 0, -1):
        below = {
            b: 2 if n == space.horizon else 1 + math.prod(below[c] for c in space.children(n, b))
            for b in space.blocks(n)
        }
    return math.prod(below.values())


@settings(PROPERTY, max_examples=40)
@given(node_lists(max_depth=4, max_atoms=16), st.integers(0, 2**32 - 1), st.sampled_from((1, 2)))
def test_optimal_values_reach_the_best_pure_rule(nodes, seed, player):
    """``snell_value`` and ``best_response_value`` are the maxima over every pure rule."""
    space, rng = build_space(nodes), random.Random(seed)
    assume(pure_rule_count(space) <= 500)
    problem, game = random_process(rng, space), random_game(rng, space)
    opponent = MAKERS[seed % 4](rng, space)
    rules = enumerate_pure_stopping_times(space)
    assert len(rules) == pure_rule_count(space)
    snell = snell_value(problem, space)
    assert snell.value == max(payoff(eta, problem, space) for eta in rules)
    assert payoff(snell.strategy, problem, space) == snell.value

    def paid(eta):
        profile = (eta, opponent) if player == 1 else (opponent, eta)
        return game_payoff(*profile, game, space)[player - 1]

    best = best_response_value(opponent, game, player, space)
    assert best.value == max(map(paid, rules)) == paid(best.strategy)


#: the chunk kernels as first written, in place of the module's own
ORACLE_KERNELS = {
    "_outcomes": oracles.outcomes,
    "_threshold": oracles.threshold,
    "_hazards": oracles.hazard_stops,
}


@settings(PROPERTY, max_examples=40)
@given(node_lists(), st.integers(0, 2**32 - 1), st.integers(1, 9000))
def test_sampling_equals_the_oracle_kernels_to_the_bit(nodes, seed, samples):
    """``empirical_detailed_distribution`` and ``empirical_game_payoff`` of every rule type give
    what they gave on the first form of the chunk kernels (``oracles``).  Each side builds its
    space and rules anew, so each builds its own samplers."""

    def run():
        space, rng = build_space(nodes), random.Random(seed)
        rules, game = [make(rng, space) for make in MAKERS], random_game(rng, space)
        counts = [empirical_detailed_distribution(eta, space, samples, seed) for eta in rules]
        means = [
            [x.hex() for x in empirical_game_payoff(eta, other, game, space, samples, seed)]
            for eta, other in zip(rules, rules[1:] + rules[:1])
        ]
        return counts, means

    new = run()
    with mock.patch.multiple(montecarlo, **ORACLE_KERNELS):
        assert run() == new


def through_json(doc):
    """``doc`` as a JSON text reads it back."""
    return json.loads(json.dumps(doc))


@PROPERTY
@given(node_lists(max_depth=3, max_atoms=8), st.integers(0, 2**32 - 1))
def test_rules_processes_and_games_survive_their_documents(nodes, seed):
    space = build_space(nodes)
    rng = random.Random(seed)
    for make in MAKERS:
        eta = make(rng, space)
        assert stopping_time_from_doc(through_json(stopping_time_to_doc(eta))) == eta
    process = random_process(rng, space)
    assert process_from_doc(through_json(process_to_doc(process))) == process
    game = random_game(rng, space)
    assert game_from_doc(through_json(game_to_doc(game, space)), space) == game


class Exact(F):
    """A Fraction subclass: exact, so read as a Fraction is."""


class Count(int):
    """An int subclass: exact, so read as an int is."""


#: what a mutation writes into a cell: inexact values, non-numbers, exact subclasses and exact
#: values outside [0, 1]
CELLS = (0.5, 1.0, True, False, None, "1/2", Exact(1, 2), Count(1), Count(0), F(3, 2), -1, F(1, 3))
#: what a mutation writes into a stop table
INDICES = (1, 2, 3, INFINITY, 0, 99, 1.0, True, None, "1", Count(1), Exact(1), float("nan"))
#: keys a mutation adds to a row or renames a key to, besides the space's ids
KEYS = ("zz", 5, "")
#: time keys a mutation adds to a table or renames a time to, besides 1..3
TIMES = (0, 99, True, False, 1.0, "1", F(1), -1, 1, 2, 3)
#: what a mutation puts in place of a row
SHAPES = ([], [1, 2], "ab", None)


def mutated_row(choose, row, space, values):
    """``row`` as a dict with one change, each choice made by ``choose(options)``: a key
    dropped, added or renamed, the keys reversed, a value replaced, or the row replaced by
    a list, a string or None.  A row that is not a mapping stays as it is."""
    op = choose(("drop", "add", "rename", "reverse", "value", "shape"))
    if op == "shape" or not isinstance(row, Mapping) or not row:
        return choose(SHAPES) if op == "shape" else row
    row, key, other = dict(row), choose(list(row)), choose(KEYS + tuple(space.ids))
    if op == "drop":
        del row[key]
    elif op == "add":
        row[other] = choose(values)
    elif op == "rename":
        row[other] = row.pop(key)
    elif op == "reverse":
        row = dict(reversed(row.items()))
    else:
        row[key] = choose(values)
    return row


def mutated_table(choose, table, space, values):
    """A per-time table with one change: a time dropped, added or renamed (bool, ``1.0``
    and string times among them), the times reversed, or one row changed by ``mutated_row``."""
    if not isinstance(table, Mapping) or not table:
        return table
    op = choose(("drop", "add", "rename", "reverse", "row"))
    table, n, other = dict(table), choose(list(table)), choose(TIMES)
    if op == "drop":
        del table[n]
    elif op == "add":
        table[other] = table[n]
    elif op == "rename":
        table = {(other if k is n else k): row for k, row in table.items()}
    elif op == "reverse":
        table = dict(reversed(table.items()))
    else:
        table[n] = mutated_row(choose, table[n], space, values)
    return table


def mutated_rule(choose, eta, space):
    """``eta`` with one change to one of its tables, built with no check; a mixed rule's
    section may become its bare stop table."""
    if isinstance(eta, BehaviorStoppingTime):
        return BehaviorStoppingTime(mutated_table(choose, eta.beta, space, CELLS))
    if isinstance(eta, RandomizedStoppingTime):
        if choose((True, False)):
            return RandomizedStoppingTime(mutated_table(choose, eta.rho, space, CELLS), eta.rho_inf)
        return RandomizedStoppingTime(eta.rho, mutated_row(choose, eta.rho_inf, space, CELLS))
    if isinstance(eta, PureStoppingTime):
        return PureStoppingTime(mutated_row(choose, eta.stop, space, INDICES))
    k = choose(range(len(eta.sections)))
    section = eta.sections[k]
    if isinstance(section, PureStoppingTime):
        section = choose((mutated_rule(choose, section, space), section.stop))
    return MixedStoppingTime(eta.breakpoints, (*eta.sections[:k], section, *eta.sections[k + 1 :]))


def mutated_process(choose, process, space):
    """``process`` with one change to its values or to its INFINITY slot."""
    if choose((True, False)):
        return AdaptedProcess(mutated_table(choose, process.values, space, CELLS), process.infinity)
    return AdaptedProcess(process.values, mutated_row(choose, process.infinity, space, CELLS))


def read_by_key(eta, space):
    """A valid rule's kept parts as its tables give them looked up key by key: the hazards,
    the stop masses then never-stop masses, per atom its stop cell (its own past the blocks
    if it never stops), or per section that."""
    if isinstance(eta, BehaviorStoppingTime):
        return oracles.gathered(space, eta.beta)
    if isinstance(eta, RandomizedStoppingTime):
        return oracles.gathered(space, eta.rho, eta.rho_inf)
    if isinstance(eta, PureStoppingTime):
        stops = [(j, a, eta.stop[a]) for j, a in enumerate(space.atoms)]
        return [
            space.root + j if t == INFINITY else space.number(t, space.block_of(t, a))
            for j, a, t in stops
        ]
    return [read_by_key(section, space) for section in eta.sections]


def kept_cells(eta, space):
    """``read_by_key``'s form of a valid rule's kept parts."""
    parts = check(eta, space).parts
    if isinstance(eta, RandomizedStoppingTime):
        table, spent = parts
        assert [table.den - spent[i] for i in space.leaf] == table.cells[space.root :]
        return [F(x, table.den) for x in table.cells]
    return parts[0] if isinstance(eta, MixedStoppingTime) else parts


#: mutations are many and cheap: more examples, on small trees
MUTATIONS = settings(PROPERTY, max_examples=150)


def chooser(data):
    return lambda options: data.draw(st.sampled_from(options))


#: a small tree, a seed for its rules and processes, and a count of mutations
MUTATED = (node_lists(max_depth=3, max_atoms=8), st.integers(0, 2**32 - 1), st.integers(0, 2))


@MUTATIONS
@given(*MUTATED, st.data())
def test_mutated_rules_validate_to_a_violation_or_their_cells(nodes, seed, count, data):
    space, rng, choose = build_space(nodes), random.Random(seed), chooser(data)
    for make in MAKERS:
        eta = make(rng, space)
        for _ in range(count):
            eta = mutated_rule(choose, eta, space)
        violation = validate(eta, space)
        assert violation is None or isinstance(violation, Violation)
        if violation is None:
            assert kept_cells(eta, space) == read_by_key(eta, space)


@MUTATIONS
@given(*MUTATED, st.data())
def test_mutated_processes_raise_only_reader_errors(nodes, seed, count, data):
    space, rng, choose = build_space(nodes), random.Random(seed), chooser(data)
    rule, process = MAKERS[seed % 4](rng, space), random_process(rng, space)
    for _ in range(count):
        process = mutated_process(choose, process, space)
    for call in (lambda: payoff(rule, process, space), lambda: snell_value(process, space)):
        try:
            call()
        except (SpaceMismatch, ValidationError):
            continue
        cells = oracles.gathered(space, process.values, process.infinity)
        assert check_process(space, process) == cells
