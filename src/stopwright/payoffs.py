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
    Kept,
    Table,
    Time,
    as_fraction,
    ordered,
)
from .stopping import PureStoppingTime, RandomStoppingTime, StopMass, check, density_table, mass_of


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

    The pairing of the rule's kept stop mass with the payoff table over the cells the
    rule can stop in (its support, ``stopping.mass_of``): stop mass on a block times its
    value, plus the never-stop mass times each atom's INFINITY value.  Raises TypeError
    unless ``problem`` is an AdaptedProcess.
    """
    return _pair(check(eta, space).derive(mass_of, space), _kept(problem, space).parts)


def _kept(problem: AdaptedProcess, space: FilteredSpace) -> Kept:
    """The problem's check, whose parts are its Table, read by ``check_process`` once while it
    lives.  Raises TypeError, before the memo is asked, unless ``problem`` is an
    AdaptedProcess: the memo keys other objects too."""
    if not isinstance(problem, AdaptedProcess):
        raise TypeError(f"not a stopping problem: {type(problem).__name__}")
    return space.recall(problem, lambda: space.tables(problem)[0])


def _pair(mass: StopMass, problem: Table) -> Fraction:
    """``payoff`` on a rule's stop mass (``stopping.mass_of``) and a process or fold Table, in
    one two-way integer sum over the mass's support: the Table's cells gathered at its cell
    numbers, or the Table's list as it is when the support is every cell."""
    values = problem.cells if mass.gather is None else mass.gather(problem.cells)
    return Fraction(sum(map(mul, mass.cells, values)), mass.den * problem.den)


def snell_value(problem: AdaptedProcess, space: FilteredSpace) -> SnellResult:
    """Optimal stopping by backward induction, with an optimal pure rule.

    A block is worth the best of stopping now and continuing (never
    stopping, at the horizon).  The strategy stops at the first block where
    stopping attains that value, so ties stop as early as possible; an atom
    still running past T never stops, because stopping at T is worse there.

    Repeat calls on the same live problem share one read-only result.
    """
    return _kept(problem, space).derive(_optimum, space)


def _optimum(problem: Kept, space: FilteredSpace) -> SnellResult:
    """``snell_value`` on the kept problem's Table."""
    return _snell(problem.parts, space)


def _snell(problem: Table, space: FilteredSpace) -> SnellResult:
    """``snell_value`` on a process table, by probability-weighted induction."""
    stop = list(map(mul, space.cell_mass, problem.cells))
    total, values = space.backward_induction(stop[space.root :], lambda i, v: max(stop[i], v))
    strategy = space.first_stop(lambda i: stop[i] == values[i])
    return SnellResult(
        value=Fraction(total, space.denominator * problem.den),
        strategy=PureStoppingTime(stop=strategy),
    )


def witness_problem(event, t: Time, space: FilteredSpace) -> AdaptedProcess:
    """The problem that pays the conditional probability of ``event`` at ``t`` only.

    For every rule, its expected payoff here equals the rule's stop mass on
    ``event x {t}``, which is what makes these problems separate
    non-equivalent rules.  Block ``i``'s time-``t`` value is the event's
    mass in ``i`` over ``i``'s mass; at INFINITY it is the event's
    indicator.  Raises ValidationError unless ``t`` is an int in 1..T or
    INFINITY and every atom of ``event`` is an atom of the space.
    """
    if not space.is_time(t):
        raise ValidationError(f"time must be an int in 1..{space.horizon} or INFINITY, got {t!r}")
    event = frozenset(event)
    unknown = ordered(event.difference(space.prob))
    if unknown:
        raise ValidationError(f"event atom {unknown[0]!r} is not an atom of the space")
    mass = [0] * len(space.cell_ids)
    for a, i, m in zip(space.atoms, space.slots[space.times.index(t)], space.atom_mass):
        if a in event:
            mass[i] += m
    values = list(map(Fraction, mass, space.cell_mass))
    return AdaptedProcess(space.by_block(values), dict(zip(space.atoms, values[space.root :])))


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
    if d1 == d2:  # both in lowest terms, so equal exactly when the densities are
        return None

    def gap(i: int) -> int:
        return d1.cells[i] * d2.den - d2.cells[i] * d1.den

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
    return _optimality(eta, problem, epsilon, space)[1]


def _optimality(
    eta: RandomStoppingTime, problem: AdaptedProcess, epsilon, space: FilteredSpace
) -> tuple[Fraction, bool]:
    """The rule's payoff, from one pairing, and whether it is within ``epsilon`` of the optimum;
    the epsilon is judged before the pairing."""
    slack = _epsilon(epsilon)
    value = payoff(eta, problem, space)
    return value, value + slack >= snell_value(problem, space).value


def _epsilon(epsilon) -> Fraction:
    """The slack of an epsilon test, checked nonnegative."""
    epsilon = as_fraction(epsilon)
    if epsilon < 0:
        raise ValidationError("epsilon must be nonnegative")
    return epsilon
