"""Stopping-problem evaluation: payoffs, optimal values, and separating problems.

A stopping problem is an adapted payoff process; a rule collects the value
at its (possibly random) stop index.  Because the expected payoff is the
mass table paired linearly with the payoff table, two rules are equivalent
exactly when no stopping problem can tell them apart, and the separating
problem for non-equivalent rules can be written down explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import ValidationError
from .space import (
    INFINITY,
    AdaptedProcess,
    Event,
    FilteredSpace,
    Time,
    as_fraction,
    check_process,
    conditional_expectation,
)
from .stopping import (
    PureStoppingTime,
    RandomStoppingTime,
    densities,
    detailed_distribution,
)


class SnellResult(NamedTuple):
    value: Fraction
    strategy: PureStoppingTime


@dataclass(frozen=True)
class DistinguishResult:
    """A separating witness: the rules put different mass on event x {time}."""

    event: Event
    time: Time
    payoff_gap: Fraction


def payoff(eta: RandomStoppingTime, problem: AdaptedProcess, space: FilteredSpace) -> Fraction:
    """Expected payoff of ``problem`` under the stopping rule ``eta``.

    The pairing of the rule's densities with the payoff table, block by
    block: stop mass times block probability times value, plus the
    never-stop mass times each atom's INFINITY value.
    """
    d = densities(eta, space)
    check_process(space, problem)
    total = Fraction(0)
    for n, level in d.rho.items():
        values = problem.values[n]
        for block_id, rho in level.items():
            total += space.block_prob(n, block_id) * rho * values[block_id]
    for atom, rho_inf in d.rho_inf.items():
        total += space.prob[atom] * rho_inf * problem.infinity[atom]
    return total


def snell_value(problem: AdaptedProcess, space: FilteredSpace) -> SnellResult:
    """Optimal stopping by backward induction, with an optimal pure rule.

    Each level, from the horizon back to time 1, keeps per block the best
    of stopping now and the conditional expectation of continuing; ties
    stop as early as possible.  The returned strategy attains the returned
    value.
    """
    check_process(space, problem)
    T = space.horizon
    value: dict[int, dict[str, Fraction]] = {n: {} for n in range(1, T + 1)}
    for block_id in space.blocks(T):
        atom = space.members(T, block_id)[0]
        value[T][block_id] = max(problem.values[T][block_id], problem.infinity[atom])
    for n in range(T - 1, 0, -1):
        for block_id in space.blocks(n):
            continuation = sum(
                (space.block_prob(n + 1, c) * value[n + 1][c] for c in space.children(n, block_id)),
                start=Fraction(0),
            ) / space.block_prob(n, block_id)
            value[n][block_id] = max(problem.values[n][block_id], continuation)

    # A block stops where stopping attains its value, unless an ancestor
    # already stopped; an atom still running past T never stops, because
    # stopping at T is strictly worse there.
    stopped_at: dict[tuple[int, Optional[str]], Optional[int]] = {(0, None): None}
    for n, block_id, parent_id in space.top_down():
        t = stopped_at[n - 1, parent_id]
        if t is None and problem.values[n][block_id] == value[n][block_id]:
            t = n
        stopped_at[n, block_id] = t
    stop: dict[str, Time] = {}
    for atom in space.atoms:
        t = stopped_at[T, space.block_of(T, atom)]
        stop[atom] = INFINITY if t is None else t

    total = sum(
        (space.block_prob(1, b) * value[1][b] for b in space.blocks(1)), start=Fraction(0)
    )
    return SnellResult(value=total, strategy=PureStoppingTime(stop=stop))


def witness_problem(event, t: Time, space: FilteredSpace) -> AdaptedProcess:
    """The problem that pays the conditional probability of ``event`` at ``t`` only.

    For every rule, its expected payoff here equals the rule's stop mass on
    ``event x {t}``, which is what makes these problems separate
    non-equivalent rules.
    """
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


def distinguish(
    eta1: RandomStoppingTime, eta2: RandomStoppingTime, space: FilteredSpace
) -> Optional[DistinguishResult]:
    """None if the rules are equivalent, else a witness cell that separates them.

    The reported gap is the absolute mass difference on the cell, which is
    exactly the payoff difference on ``witness_problem(event, time)``.
    """
    nu1 = detailed_distribution(eta1, space)
    nu2 = detailed_distribution(eta2, space)
    for atom in space.atoms:
        for t in space.times:
            gap = nu1.mass[atom][t] - nu2.mass[atom][t]
            if gap != 0:
                return DistinguishResult(event=frozenset({atom}), time=t, payoff_gap=abs(gap))
    return None


def check_epsilon_optimal(
    eta: RandomStoppingTime, problem: AdaptedProcess, epsilon, space: FilteredSpace
) -> bool:
    """True iff the rule comes within ``epsilon`` of the optimal value.

    The comparison point is the backward-induction optimum, which no
    randomization can exceed: the expected payoff is linear in the mass
    table and every mass table is a mixture of pure rules.
    """
    epsilon = as_fraction(epsilon)
    if epsilon < 0:
        raise ValidationError("epsilon must be nonnegative")
    return payoff(eta, problem, space) >= snell_value(problem, space).value - epsilon
