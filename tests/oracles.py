"""The tree passes as they were written on Fraction dicts keyed ``(n, block_id)``.

The package runs these passes over its flat block numbering, in integers
over one denominator per table.  The versions here walk the tree block by
block in Fractions, the way the definitions read, and the tests assert
that every kernel agrees with its oracle exactly.  The per-cell loop of
``empirical_game_payoff`` is kept here too, as the reference for the
numpy sum's float means.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

import numpy as np

from stopwright import INFINITY, AdaptedProcess, RandomizedStoppingTime
from stopwright.games import BOTH, COALITIONS, ONLY_1, ONLY_2, PLAYERS


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
    space.gather(game.payoffs.values())  # the boundary check
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
