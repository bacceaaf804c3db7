"""Seeded, recursion-free generators for the benchmark's inputs.

``tests/fuzz.py`` walks the tree recursively to build pure and randomized
rules, which raises ``RecursionError`` on a chain near T=1,000.  The
generators here draw from the same distributions as ``tests/fuzz.py`` but
walk the tree level by level; processes and games, which do not recurse,
come from ``tests/fuzz.py`` itself.  The package under test only ever sees
the objects these functions return.

One rule is different: ``grid_behavior`` spends its stop mass in
multiples of ``1/GRID``.  The workloads convert that rule to a mixed rule,
and a mixed rule has one section per distinct cumulative stop mass: with
``tests/fuzz.py``'s compounding shares that is about ``atoms * T``
sections (minutes per conversion on 1,024 atoms), on the grid at most
``GRID``.
"""

from __future__ import annotations

import random
from fractions import Fraction

from fuzz import unit_fraction
from stopwright import INFINITY, AdaptedProcess, FilteredSpace, behavior, mixed, pure, randomized

GRID = 12


def tree_nodes(rng: random.Random, branching: list[int]) -> list[dict]:
    """Node list of a tree with ``branching[d]`` children per depth-``d`` node.

    Leaf probabilities are seeded integer weights in 1..9 over their total,
    as in ``tests/fuzz.py``.
    """
    nodes = [{"id": "r", "parent": None}]
    frontier = ["r"]
    for depth, width in enumerate(branching, start=1):
        grown = []
        for parent in frontier:
            for i in range(width):
                node_id = f"{parent}.{i}" if depth > 1 else f"n{i}"
                nodes.append({"id": node_id, "parent": parent})
                grown.append(node_id)
        frontier = grown
    weights = [rng.randint(1, 9) for _ in frontier]
    total = sum(weights)
    for node, w in zip(nodes[-len(frontier):], weights):
        node["prob"] = str(Fraction(w, total))
    return nodes


def _top_down(space: FilteredSpace):
    """Yield (n, block) parent-before-child without recursion."""
    for n in range(1, space.horizon + 1):
        for block_id in space.blocks(n):
            yield n, block_id


def _pure_stop(rng: random.Random, space: FilteredSpace) -> dict:
    """Stop a whole block with probability 0.4; at the horizon stop w.p. 0.6 or never."""
    stop = {}
    for n, block_id in _top_down(space):
        members = space.members(n, block_id)
        if members[0] in stop:
            continue
        if n == space.horizon:
            t = n if rng.random() < 0.6 else INFINITY
        elif rng.random() < 0.4:
            t = n
        else:
            continue
        for a in members:
            stop[a] = t
    return stop


def random_pure(rng: random.Random, space: FilteredSpace):
    return pure(_pure_stop(rng, space))


def random_randomized(rng: random.Random, space: FilteredSpace):
    """Stick-breaking down the tree: spend a ``unit_fraction`` share of the remaining mass."""
    T = space.horizon
    rho: dict[int, dict[str, Fraction]] = {n: {} for n in range(1, T + 1)}
    rho_inf: dict[str, Fraction] = {}
    remaining = {b: Fraction(1) for b in space.blocks(1)}
    for n, block_id in _top_down(space):
        share, mass = unit_fraction(rng), remaining.pop(block_id)
        rho[n][block_id] = share * mass
        left = mass * (1 - share)
        if n == T:
            rho_inf.update((a, left) for a in space.members(n, block_id))
        else:
            remaining.update((child, left) for child in space.children(n, block_id))
    return randomized(rho=rho, rho_inf=rho_inf)


def grid_behavior(rng: random.Random, space: FilteredSpace):
    """Behavior rule whose cumulative stop masses are multiples of ``1/GRID``.

    Stick-breaking in units: each block spends up to half (rounded up) of
    the units still unspent on arrival, and its hazard is spent over unspent.
    """
    unspent = {b: GRID for b in space.blocks(1)}
    beta: dict[int, dict[str, Fraction]] = {n: {} for n in range(1, space.horizon + 1)}
    for n, block_id in _top_down(space):
        units = unspent.pop(block_id)
        spend = rng.randint(0, (units + 1) // 2)
        beta[n][block_id] = Fraction(spend, units) if units else Fraction(0)
        if n < space.horizon:
            unspent.update((child, units - spend) for child in space.children(n, block_id))
    return behavior(beta)


def random_mixed(rng: random.Random, space: FilteredSpace):
    """``tests/fuzz.py``'s mixed rule: up to four pure sections on a grid of 5, 7, 8 or 12."""
    den = rng.choice((5, 7, 8, 12))
    interior = sorted({Fraction(rng.randint(1, den - 1), den) for _ in range(rng.randint(0, 3))})
    breakpoints = [Fraction(0), *interior, Fraction(1)]
    return mixed(breakpoints, [_pure_stop(rng, space) for _ in range(len(breakpoints) - 1)])


RULE_MAKERS = {
    "pure": random_pure,
    "randomized": random_randomized,
    "behavior": grid_behavior,
    "mixed": random_mixed,
}


def all_rules(rng: random.Random, space: FilteredSpace) -> dict:
    """One seeded rule of each of the four types, in a fixed order."""
    return {kind: make(rng, space) for kind, make in RULE_MAKERS.items()}


def drifting_process(rng: random.Random, space: FilteredSpace):
    """Payoffs rising strictly with time (n + k/4), never-stop paying 0.

    The optimal rule then waits to the horizon on every path, so any walk
    that follows it reaches full depth.
    """
    return AdaptedProcess(
        values={
            n: {b: n + Fraction(rng.randint(0, 3), 4) for b in space.blocks(n)}
            for n in range(1, space.horizon + 1)
        },
        infinity={a: Fraction(0) for a in space.atoms},
    )


def chain_hazards(rng: random.Random, space: FilteredSpace):
    """Behavior rule on a chain with hazards strictly inside (0, 1).

    Hazards are 1/2 (p=0.8), 1/3 or 2/3 (p=0.1 each), so survival
    denominators grow by about 1.1 bits per level.
    """
    beta = {}
    for n, block_id in _top_down(space):
        u = rng.random()
        h = Fraction(1, 2) if u < 0.8 else Fraction(1, 3) if u < 0.9 else Fraction(2, 3)
        beta[n] = {block_id: h}
    return behavior(beta)
