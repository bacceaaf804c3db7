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
from operator import mul
from typing import NamedTuple, Optional

from .errors import ValidationError
from .space import (
    INFINITY,
    AdaptedProcess,
    Event,
    FilteredSpace,
    Table,
    Time,
    as_fraction,
    conditional_expectation,
)
from .stopping import PureStoppingTime, RandomStoppingTime, density_table


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
    return _payoff_and_table(eta, problem, space)[0]


def _payoff_and_table(eta, problem: AdaptedProcess, space: FilteredSpace) -> tuple:
    """``payoff`` and the problem as a Table, for a caller that also solves the problem."""
    d = density_table(eta, space)
    (table,) = space.tables(problem)
    return _pair(d, table, space), table


def _pair(d: Table, problem: Table, space: FilteredSpace) -> Fraction:
    """``payoff`` on a density table and a process table, in one integer sum."""
    total = sum(map(mul, map(mul, space.block_mass, d.blocks), problem.blocks))
    total += sum(map(mul, map(mul, space.atom_mass, d.atoms), problem.atoms))
    return Fraction(total, space.denominator * d.den * problem.den)


def snell_value(problem: AdaptedProcess, space: FilteredSpace) -> SnellResult:
    """Optimal stopping by backward induction, with an optimal pure rule.

    A block is worth the best of stopping now and continuing (never
    stopping, at the horizon).  The strategy stops at the first block where
    stopping attains that value, so ties stop as early as possible; an atom
    still running past T never stops, because stopping at T is worse there.
    """
    (table,) = space.tables(problem)
    return _snell(table, space)


def _snell(problem: Table, space: FilteredSpace) -> SnellResult:
    """``snell_value`` on a process table, by probability-weighted induction."""
    stop = list(map(mul, space.block_mass, problem.blocks))
    terminal = list(map(mul, space.atom_mass, problem.atoms))
    total, values = space.backward_induction(terminal, lambda i, below: max(stop[i], below))
    strategy = space.first_stop(lambda i: stop[i] == values[i])
    return SnellResult(
        value=Fraction(total, space.denominator * problem.den),
        strategy=PureStoppingTime(stop=strategy),
    )


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
    d1, d2 = density_table(eta1, space), density_table(eta2, space)

    def gap(i: int) -> int:
        return d1.blocks[i] * d2.den - d2.blocks[i] * d1.den

    first = space.first_stop(gap)
    # the never-stop mass is what the finite times leave, so it can only
    # differ on a path whose finite densities already do
    for atom, path, p in zip(space.atoms, space.paths, space.atom_mass):
        t = first[atom]
        if t != INFINITY:
            mass = Fraction(p * abs(gap(path[t - 1])), space.denominator * d1.den * d2.den)
            return DistinguishResult(event=frozenset({atom}), time=t, payoff_gap=mass)
    return None


def check_epsilon_optimal(
    eta: RandomStoppingTime, problem: AdaptedProcess, epsilon, space: FilteredSpace
) -> bool:
    """True iff the rule comes within ``epsilon`` of the optimal value.

    The comparison point is the backward-induction optimum, which no
    randomization can exceed: the expected payoff is linear in the mass
    table and every mass table is a mixture of pure rules.
    """
    value, table = _payoff_and_table(eta, problem, space)
    return value + _epsilon(epsilon) >= _snell(table, space).value


def _epsilon(epsilon) -> Fraction:
    """The slack of an epsilon test, checked nonnegative."""
    epsilon = as_fraction(epsilon)
    if epsilon < 0:
        raise ValidationError("epsilon must be nonnegative")
    return epsilon
