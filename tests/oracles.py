"""The tree passes as they were written on Fraction dicts keyed ``(n, block_id)``.

The package runs these passes over its flat block numbering, in integers
over one denominator per table.  The versions here walk the tree block by
block in Fractions, the way the definitions read, and the tests assert
that every kernel agrees with its oracle exactly.  The per-cell loop of
``empirical_game_payoff`` is kept here too, as the reference for the
numpy sum's float means, and the separating problem as it was built from
the conditional expectation of an event's indicator.  So are the equality
of two density Tables by cross-multiplication, the total variation distance
of two detailed distributions, the enumeration of pure rules as it merged
block-keyed stop tables, the second equivalence decided by its definition
(``game_equivalent``), and the Monte-Carlo samplers twice: as one
exact run of a rule per sample from explicit uniform draws
(``sample_stop_time``), and as the chunk kernels as first written, one
sorted search per outcome draw and a per-row first True for a stop, with
the chunk plan as the loop it was.  The stopping-measure decision is kept
as it was first built: a candidate rule read off one member atom per block,
validated, and its detailed distribution compared with the measure.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from stopwright import (
    INFINITY,
    AdaptedProcess,
    BehaviorStoppingTime,
    FilteredSpace,
    PureStoppingTime,
    RandomizedStoppingTime,
    RandomStoppingTime,
    Time,
    game_payoff,
    stopping_game,
)
from stopwright.games import BOTH, COALITIONS, ONLY_1, ONLY_2, PLAYERS
from stopwright.montecarlo import CHUNK_SIZE
from stopwright.space import ReadOnly, _exact
from stopwright.stopping import check, detailed_distribution, validate


def top_down(space):
    """Every block with its parent, ``(n, block_id, parent_id)``, level by level.

    Time-1 blocks have parent None.
    """
    for n, level in enumerate(space.levels, start=1):
        for block_id, members in level.items():
            yield n, block_id, (None if n == 1 else space.block_of(n - 1, members[0]))


def spent(space, rho) -> dict:
    """``(n, block_id)`` -> the block-keyed ``rho`` summed down the path to it; root 0."""
    total: dict[tuple[int, Optional[str]], Fraction] = {(0, None): Fraction(0)}
    for n, block_id, parent_id in top_down(space):
        total[n, block_id] = total[n - 1, parent_id] + rho[n][block_id]
    return total


def first_stop(space, stops_at) -> dict:
    """Per atom, the first ``n`` on its path with ``stops_at(n, block_id)``, else INFINITY."""
    stopped: dict[tuple[int, Optional[str]], object] = {(0, None): INFINITY}
    for n, block_id, parent_id in top_down(space):
        t = stopped[n - 1, parent_id]
        stopped[n, block_id] = n if t == INFINITY and stops_at(n, block_id) else t
    return {a: stopped[space.horizon, space.block_of(space.horizon, a)] for a in space.atoms}


def backward_induction(space, terminal, stage) -> tuple:
    """``(time-0 value, {n: {block_id: value}})``.

    The continuation is the conditional expectation of the children's values.
    """
    T = space.horizon
    values: dict[int, dict[str, Fraction]] = {n: {} for n in range(1, T + 1)}

    def weighted(n, blocks):
        return sum((space.block_prob(n, c) * values[n][c] for c in blocks), start=Fraction(0))

    for block_id, (atom,) in space.levels[T - 1].items():
        values[T][block_id] = stage(T, block_id, terminal[atom])
    for n in range(T - 1, 0, -1):
        for block_id in space.levels[n - 1]:
            below = weighted(n + 1, space.children(n, block_id))
            values[n][block_id] = stage(n, block_id, below / space.block_prob(n, block_id))
    return weighted(1, space.levels[0]), values


def snell(problem: AdaptedProcess, space) -> tuple:
    """Snell value, per-block values and the earliest optimal stops, on the oracle passes."""
    value, values = backward_induction(
        space, problem.infinity, lambda n, b, c: max(problem.values[n][b], c)
    )
    stop = first_stop(space, lambda n, b: problem.values[n][b] == values[n][b])
    return value, values, stop


def behavior_densities(beta, space) -> RandomizedStoppingTime:
    """Survive past 1..n-1, then stop at n: the survival product carried down the tree."""
    T = space.horizon
    rho: dict[int, dict[str, Fraction]] = {n: {} for n in range(1, T + 1)}
    survival: dict[tuple[int, Optional[str]], Fraction] = {(0, None): Fraction(1)}
    for n, block_id, parent_id in top_down(space):
        alive = survival[n - 1, parent_id]
        hazard = Fraction(beta[n][block_id])
        rho[n][block_id] = alive * hazard
        survival[n, block_id] = alive * (1 - hazard)
    rho_inf = {a: survival[T, space.block_of(T, a)] for a in space.atoms}
    return RandomizedStoppingTime(rho=rho, rho_inf=rho_inf)


def hazards(rho, space) -> dict:
    """Stop masses to hazards: each block's mass over the mass its parent left unspent, carried
    down the tree; 0 once nothing is left."""
    beta: dict[int, dict[str, Fraction]] = {n: {} for n in range(1, space.horizon + 1)}
    unspent: dict[tuple[int, Optional[str]], Fraction] = {(0, None): Fraction(1)}
    for n, block_id, parent_id in top_down(space):
        left, mass = unspent[n - 1, parent_id], rho[n][block_id]
        beta[n][block_id] = mass / left if left else Fraction(0)
        unspent[n, block_id] = left - mass
    return beta


def repair(candidate, space) -> RandomizedStoppingTime:
    """Each block's candidate mass, 0 where it has none, clipped into [0, the mass its parent
    left unspent], carried down the tree; the never-stop slot takes what the horizon leaves."""
    T = space.horizon
    rho: dict[int, dict[str, Fraction]] = {n: {} for n in range(1, T + 1)}
    unspent: dict[tuple[int, Optional[str]], Fraction] = {(0, None): Fraction(1)}
    for n, block_id, parent_id in top_down(space):
        left = unspent[n - 1, parent_id]
        mass = max(Fraction(0), min(Fraction(candidate.get(n, {}).get(block_id, 0)), left))
        rho[n][block_id] = mass
        unspent[n, block_id] = left - mass
    rho_inf = {a: unspent[T, space.block_of(T, a)] for a in space.atoms}
    return RandomizedStoppingTime(rho=rho, rho_inf=rho_inf)


def fold(rho, game, space, player: int) -> AdaptedProcess:
    """The auxiliary problem from the opponent's block-keyed stop masses."""
    other = 2 if player == 1 else 1
    solo = game.process(player, frozenset({player}))
    opp_stops = game.process(player, frozenset({other}))
    both = game.process(player, BOTH)
    T = space.horizon
    values: dict[int, dict[str, Fraction]] = {n: {} for n in range(1, T + 1)}
    carried = {(0, None): (Fraction(0), Fraction(1))}
    for n, block_id, parent_id in top_down(space):
        collected, unspent = carried[n - 1, parent_id]
        stops = rho[n][block_id]
        left = unspent - stops
        values[n][block_id] = (
            collected + stops * both.values[n][block_id] + left * solo.values[n][block_id]
        )
        carried[n, block_id] = (collected + stops * opp_stops.values[n][block_id], left)
    infinity = {}
    for atom in space.atoms:
        collected, unspent = carried[T, space.block_of(T, atom)]
        infinity[atom] = collected + unspent * both.infinity[atom]
    return AdaptedProcess(values=values, infinity=infinity)


def pair(d: RandomizedStoppingTime, problem: AdaptedProcess, space) -> Fraction:
    """Densities paired with a process: block probability times stop mass times value."""
    total = Fraction(0)
    for n, level in d.rho.items():
        for block_id, rho in level.items():
            total += space.block_prob(n, block_id) * rho * problem.values[n][block_id]
    for atom, rho_inf in d.rho_inf.items():
        total += space.prob[atom] * rho_inf * problem.infinity[atom]
    return total


def is_zero_sum(game, space) -> bool:
    """The players' payoffs add to zero for every coalition, time, and atom."""
    space.tables(*game.payoffs.values())  # the boundary check
    for c in COALITIONS:
        one, two = game.process(1, c), game.process(2, c)
        for n in range(1, space.horizon + 1):
            for b in space.blocks(n):
                if one.values[n][b] + two.values[n][b] != 0:
                    return False
        for a in space.atoms:
            if one.infinity[a] + two.infinity[a] != 0:
                return False
    return True


def empirical_game_payoff(total, game, space, samples: int) -> tuple[float, float]:
    """Mean payoffs of joint counts ``total`` (atoms x times x times).

    Each realized cell, in C order, looks its payoffs up in the game's
    Fraction dicts and adds ``count * float(payoff)`` to each player's sum.
    """
    times = space.times
    cells = np.nonzero(total)
    means = [0.0, 0.0]
    for i, j1, j2, count in zip(*(axis.tolist() for axis in cells), total[cells].tolist()):
        atom, t1, t2 = space.atoms[i], times[j1], times[j2]
        # both stopping includes nobody stopping, t1 = t2 = INFINITY
        c = ONLY_1 if t1 < t2 else ONLY_2 if t2 < t1 else BOTH
        for k, player in enumerate(PLAYERS):
            means[k] += count * float(game.process(player, c).value_at(space, min(t1, t2), atom))
    return means[0] / samples, means[1] / samples


def gathered(space, table, infinity=None) -> list:
    """A table's cells looked up key by key: ``table[n][block]`` for every time-``n`` block,
    level by level in partition order, then ``infinity[atom]`` for every atom if given."""
    cells = [table[n][b] for n, level in enumerate(space.levels, start=1) for b in level]
    return cells if infinity is None else cells + [infinity[a] for a in space.atoms]


def expectation(space, f) -> Fraction:
    """Exact expected value of an atom-indexed function."""
    return sum((space.prob[a] * f[a] for a in space.atoms), start=Fraction(0))


def conditional_expectation(space, f, n: int) -> dict:
    """Average the atom-indexed ``f`` over each time-``n`` block: block id -> E[f | block]."""
    out = {}
    for block_id in space.blocks(n):
        total = sum((space.prob[a] * f[a] for a in space.members(n, block_id)), start=Fraction(0))
        out[block_id] = total / space.block_prob(n, block_id)
    return out


def is_measurable(space, f, n: int) -> bool:
    """True iff the atom-indexed ``f`` is constant on every time-``n`` block."""
    return all(len({f[a] for a in members}) == 1 for members in space.level(n).values())


def witness_problem(event, t, space) -> AdaptedProcess:
    """The problem that pays, at ``t`` only, the conditional expectation of the event's
    indicator given the time-``t`` block, or at INFINITY the indicator itself."""
    event = frozenset(event)
    indicator = {a: Fraction(1 if a in event else 0) for a in space.atoms}
    values = {
        n: {b: Fraction(0) for b in space.blocks(n)} for n in range(1, space.horizon + 1)
    }
    infinity = {a: Fraction(0) for a in space.atoms}
    if t == INFINITY:
        infinity = indicator
    else:
        values[t] = conditional_expectation(space, indicator, t)
    return AdaptedProcess(values=values, infinity=infinity)


def enumerate_pure_stopping_times(space) -> list[PureStoppingTime]:
    """Every pure rule, level by level from the horizon on the block ids: a block stops all
    its members now or defers to an independent choice per child, its children's stop
    tables merged; a horizon block stops at T or never."""
    below: dict[str, list[dict]] = {}
    for n in range(space.horizon, 0, -1):
        options: dict[str, list[dict]] = {}
        for block_id in space.blocks(n):
            here = [{a: n for a in space.members(n, block_id)}]
            if n == space.horizon:
                here.append({a: INFINITY for a in space.members(n, block_id)})
            else:
                combos = itertools.product(*(below[c] for c in space.children(n, block_id)))
                here.extend(merged(combo) for combo in combos)
            options[block_id] = here
        below = options
    return [PureStoppingTime(stop=merged(combo)) for combo in itertools.product(*below.values())]


def merged(tables) -> dict:
    """One stop table from the tables of disjoint blocks, in their order."""
    out: dict = {}
    for table in tables:
        out.update(table)
    return out


def one_cell_game(space, t, where):
    """The game that pays 1 on one cell and 0 elsewhere: to player 1 stopping alone at time
    ``t`` in block ``where``, or, for ``t`` INFINITY, in atom ``where``'s both-stop slot."""

    def process(paid: bool) -> AdaptedProcess:
        def one(n, key):
            return Fraction(int(paid and (n, key) == (t, where)))

        values = {n: {b: one(n, b) for b in level} for n, level in enumerate(space.levels, 1)}
        return AdaptedProcess(values, {a: one(INFINITY, a) for a in space.atoms})

    key = (1, BOTH if t == INFINITY else ONLY_1)
    return stopping_game({(j, c): process((j, c) == key) for j in PLAYERS for c in COALITIONS})


def game_equivalent(eta1, eta2, space) -> bool:
    """The paper's second equivalence by its definition: player 1's two rules pay alike in
    every game against an opponent.  Against a never-stopping one it suffices to ask the
    B + atoms games ``one_cell_game``, one per cell of (outcome, stop index)."""
    never = PureStoppingTime(dict.fromkeys(space.atoms, INFINITY))
    blocks = [(n, b) for n, level in enumerate(space.levels, start=1) for b in level]
    for t, where in blocks + [(INFINITY, a) for a in space.atoms]:
        game = one_cell_game(space, t, where)
        if game_payoff(eta1, never, game, space)[0] != game_payoff(eta2, never, game, space)[0]:
            return False
    return True


def cross_equivalent(d1, d2) -> bool:
    """Equal densities, from two density Tables in any terms: each one's cells over the
    other's denominator, compared cell by cell."""
    return [x * d2.den for x in d1.cells] == [y * d1.den for y in d2.cells]


def total_variation(d1, d2) -> Fraction:
    """The distance of two detailed distributions: the sum over (atom, stop index) cells of the
    positive parts of ``d1``'s mass less ``d2``'s, the most mass one event can gain."""
    gains = (m - d2.mass[a][t] for a, row in d1.mass.items() for t, m in row.items())
    return sum((g for g in gains if g > 0), start=Fraction(0))


def measure_rule(nu, space) -> Optional[RandomizedStoppingTime]:
    """The randomized rule whose mass table is ``nu``, or None: its densities read off one
    member atom per block, kept only if the rule is valid and its mass table is ``nu``.
    ``nu`` must hold an exact mass at every atom and time of the space and no other key."""
    width = len(space.times)
    if set(nu.mass) != set(space.atoms) or not all(
        len(row) == width and all(map(space.is_time, row)) and all(map(_exact, row.values()))
        for row in nu.mass.values()
    ):
        return None
    cells = [(space.members(n, b)[0], n) for n, b in zip(space.depth, space.ids)]
    rho = [nu.mass[a][t] / space.prob[a] for a, t in cells + [(a, INFINITY) for a in space.atoms]]
    rho_inf = ReadOnly(zip(space.atoms, rho[space.root :]))
    eta = RandomizedStoppingTime(rho=space.by_block(rho), rho_inf=rho_inf)
    if validate(eta, space) is None and detailed_distribution(eta, space).mass == nu.mass:
        return eta
    return None


def chunk_plan(samples: int) -> list[tuple[int, int]]:
    """(chunk_index, chunk_size) pairs covering ``samples`` draws, one chunk at a time."""
    plan = []
    index, remaining = 0, samples
    while remaining > 0:
        size = min(CHUNK_SIZE, remaining)
        plan.append((index, size))
        index += 1
        remaining -= size
    return plan


def sample_stop_time(
    eta: RandomStoppingTime, space: FilteredSpace, atom: str, uniforms: Iterable[float]
) -> Time:
    """Run one realization of the rule at ``atom`` from explicit uniform draws.

    Pure rules consume no draws; randomized and mixed rules consume one;
    behavior rules consume one per period until they stop (at most T).
    Draws are compared against exact rationals, so thresholds are hit
    exactly.  Draws lie in [0, 1): a hazard stops only on a draw strictly
    below it, and a cumulative threshold selects the first time whose
    positive cumulative mass reaches the draw, so a draw of 0 never
    realizes a stop with zero mass.
    """
    check(eta, space)
    draws = iter(uniforms)
    if isinstance(eta, PureStoppingTime):
        return eta.stop[atom]
    if isinstance(eta, RandomizedStoppingTime):
        r = next(draws)
        cumulative = Fraction(0)
        for n in range(1, space.horizon + 1):
            cumulative += eta.rho[n][space.block_of(n, atom)]
            if cumulative > 0 and cumulative >= r:
                return n
        return INFINITY
    if isinstance(eta, BehaviorStoppingTime):
        for n in range(1, space.horizon + 1):
            r = next(draws)
            if r < eta.beta[n][space.block_of(n, atom)]:
                return n
        return INFINITY
    r = next(draws)
    for k in range(1, len(eta.breakpoints)):
        if eta.breakpoints[k] >= r:
            return eta.sections[k - 1].stop[atom]
    return eta.sections[-1].stop[atom]


def first_true(mask, never: int):
    """Per row, the column of the first True, else ``never``."""
    return np.where(mask.any(axis=1), mask.argmax(axis=1), never)


def outcomes(cum, buckets, u):
    """Per draw, the first atom whose cumulative probability reaches it, by a sorted search
    of every draw; ``buckets`` is not read."""
    return np.searchsorted(cum, u, side="left")


def threshold(parts, rng, atom_idx):
    """A randomized rule's stop column: per sample, the first time whose positive cumulative
    mass reaches its draw, else T.  ``parts`` is the sampler's: the cumulative masses ``cum``,
    (T, atoms), and their stop table, which is not read."""
    cum, _ = parts
    r = rng.random(len(atom_idx))
    rows = cum.T[atom_idx]
    return first_true((rows > 0) & (rows >= r[:, None]), cum.shape[0])


def hazard_stops(hazard, rng, atom_idx):
    """A behavior rule's stop column: per sample, the first time whose draw falls below its
    hazard, else T.  ``hazard`` is (atoms, T)."""
    draws = rng.random((len(atom_idx), hazard.shape[1]))
    return first_true(draws < hazard[atom_idx], hazard.shape[1])
