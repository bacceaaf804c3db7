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
    RandomizedStoppingTime,
    densities,
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
    return _pair(d, problem, space)


def _pair(d: RandomizedStoppingTime, problem: AdaptedProcess, space: FilteredSpace) -> Fraction:
    """``payoff`` on densities and a process already checked against the space.

    A cell without stop mass adds exactly nothing, so it is skipped.
    """
    total = Fraction(0)
    for n, level in d.rho.items():
        values = problem.values[n]
        for block_id, rho in level.items():
            if rho:
                total += space.block_prob(n, block_id) * rho * values[block_id]
    for atom, rho_inf in d.rho_inf.items():
        if rho_inf:
            total += space.prob[atom] * rho_inf * problem.infinity[atom]
    return total


def snell_value(problem: AdaptedProcess, space: FilteredSpace) -> SnellResult:
    """Optimal stopping by backward induction, with an optimal pure rule.

    A block is worth the best of stopping now and continuing (never
    stopping, at the horizon).  The strategy stops at the first block where
    stopping attains that value, so ties stop as early as possible; an atom
    still running past T never stops, because stopping at T is worse there.
    """
    check_process(space, problem)
    value, values = space.backward_induction(
        problem.infinity, lambda n, b, continuation: max(problem.values[n][b], continuation)
    )
    stop = space.first_stop(lambda n, b: problem.values[n][b] == values[n][b])
    return SnellResult(value=value, strategy=PureStoppingTime(stop=stop))


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

    The witness is the first cell, atom by atom and then time by time, on
    which the rules' densities differ.  The reported gap is the absolute
    mass difference on the cell, which is exactly the payoff difference on
    ``witness_problem(event, time)``.
    """
    d1, d2 = densities(eta1, space), densities(eta2, space)
    first = space.first_stop(lambda n, b: d1.rho[n][b] != d2.rho[n][b])
    # the never-stop mass is what the finite times leave, so it can only
    # differ on a path whose finite densities already do
    for atom in space.atoms:
        t = first[atom]
        if t != INFINITY:
            block_id = space.block_of(t, atom)
            gap = space.prob[atom] * abs(d1.rho[t][block_id] - d2.rho[t][block_id])
            return DistinguishResult(event=frozenset({atom}), time=t, payoff_gap=gap)
    return None


def check_epsilon_optimal(
    eta: RandomStoppingTime, problem: AdaptedProcess, epsilon, space: FilteredSpace
) -> bool:
    """True iff the rule comes within ``epsilon`` of the optimal value.

    The comparison point is the backward-induction optimum, which no
    randomization can exceed: the expected payoff is linear in the mass
    table and every mass table is a mixture of pure rules.
    """
    return _within_epsilon(payoff(eta, problem, space), problem, epsilon, space)


def _within_epsilon(value: Fraction, problem: AdaptedProcess, epsilon, space) -> bool:
    """The epsilon test of ``check_epsilon_optimal``, on a payoff already computed."""
    epsilon = as_fraction(epsilon)
    if epsilon < 0:
        raise ValidationError("epsilon must be nonnegative")
    return value >= snell_value(problem, space).value - epsilon
