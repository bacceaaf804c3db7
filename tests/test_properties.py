"""Properties of every space built from a node list, and of every table read on it, on
drawn trees.

A space is checked once, from its nodes, and numbered in the same pass.
The first two properties state what its levels and its flat numbering then
satisfy with no second check; the third is the paper's equivalence of the
mixed, behavior and randomized notions of a random stopping time, and the
fourth that rules of all four types, processes and games survive their
wire documents.  The last two draw mutations of valid rule and process tables: every one is
read to a Violation or a reader's error, never a crash, and every table
accepted is read as a lookup key by key reads it.
"""

import json
import random
from collections.abc import Mapping
from fractions import Fraction as F
from itertools import accumulate

from hypothesis import given, settings
from hypothesis import strategies as st

from stopwright import (
    INFINITY,
    AdaptedProcess,
    BehaviorStoppingTime,
    MixedStoppingTime,
    PureStoppingTime,
    RandomizedStoppingTime,
    SpaceMismatch,
    ValidationError,
    build_space,
    check_process,
    convert,
    equivalent,
    payoff,
    snell_value,
    validate,
)
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
from stopwright.stopping import check

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
        path = space.paths[j]
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
    the stop masses then never-stop masses, per atom its stop block, or per section that."""
    if isinstance(eta, BehaviorStoppingTime):
        return oracles.gathered(space, eta.beta)
    if isinstance(eta, RandomizedStoppingTime):
        return oracles.gathered(space, eta.rho, eta.rho_inf)
    if isinstance(eta, PureStoppingTime):
        stops = [(a, eta.stop[a]) for a in space.atoms]
        return [None if t == INFINITY else space.number(t, space.block_of(t, a)) for a, t in stops]
    return [read_by_key(section, space) for section in eta.sections]


def kept_cells(eta, space):
    """``read_by_key``'s form of a valid rule's kept parts."""
    parts = check(eta, space).parts
    if isinstance(eta, RandomizedStoppingTime):
        rho, den, spent = parts
        return [F(x, den) for x in rho] + [F(den - spent[i], den) for i in space.leaf]
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
