"""Properties of every space built from a node list, on drawn trees.

A space is checked once, from its nodes, and numbered in the same pass.
The first two properties state what its levels and its flat numbering then
satisfy with no second check; the third is the paper's equivalence of the
mixed, behavior and randomized notions of a random stopping time.
"""

import random
from fractions import Fraction as F
from itertools import accumulate

from hypothesis import given, settings
from hypothesis import strategies as st

from stopwright import build_space, convert, equivalent, payoff
from stopwright.convert import TARGET_TYPES

from fuzz import MAKERS, random_process

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
