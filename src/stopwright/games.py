"""Two-player stopping games on a shared scenario tree.

Each player picks a stopping rule; the game ends at the earlier stop index
and pays each player according to *who* stopped (player 1 alone, player 2
alone, or both at once, the last also covering the case where nobody ever
stops).  External randomizations are independent, so the joint law of
(outcome, both stop indices) is the product of the players' densities atom
by atom.

Best responses never need the opponent's external coin: folding the
opponent's stop masses into the payoffs turns the game into an ordinary
stopping problem on the same tree, solved by backward induction.  A
player's game payoff is their payoff in that same problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Mapping, NamedTuple

from .errors import ConsistencyFailure, NotZeroSum, ValidationError
from .payoffs import SnellResult, _epsilon, _pair, _snell
from .space import (
    AdaptedProcess,
    FilteredSpace,
    Table,
    Time,
    check_process,
)
from .stopping import (
    BehaviorStoppingTime,
    RandomStoppingTime,
    StoppingMeasure,
    density_table,
    detailed_distribution,
    equivalent,
)

PLAYERS = (1, 2)
ONLY_1 = frozenset({1})
ONLY_2 = frozenset({2})
BOTH = frozenset({1, 2})
COALITIONS = (ONLY_1, ONLY_2, BOTH)
ONE, ZERO = Fraction(1), Fraction(0)


@dataclass(frozen=True)
class StoppingGame:
    """Six adapted payoff processes: one per (player, stopping coalition)."""

    payoffs: Mapping[tuple[int, frozenset], AdaptedProcess]

    def process(self, player: int, coalition) -> AdaptedProcess:
        return self.payoffs[(player, frozenset(coalition))]


def stopping_game(payoffs) -> StoppingGame:
    """Build a StoppingGame from {(player, coalition): AdaptedProcess}."""
    table = {(int(j), frozenset(c)): proc for (j, c), proc in payoffs.items()}
    missing = [(j, set(c)) for j in PLAYERS for c in COALITIONS if (j, c) not in table]
    if missing:
        raise ValidationError(f"game is missing payoff processes for {missing}")
    return StoppingGame(payoffs=table)


def check_game(space: FilteredSpace, game: StoppingGame) -> None:
    for j in PLAYERS:
        for c in COALITIONS:
            check_process(space, game.process(j, c))


def is_zero_sum(game: StoppingGame, space: FilteredSpace) -> bool:
    """True iff the players' payoffs cancel for every coalition, time, and atom."""
    check_game(space, game)
    for c in COALITIONS:
        one, two = game.process(1, c), game.process(2, c)
        for n, blocks in enumerate(space.levels, start=1):
            if not _cancel(one.values[n], two.values[n], blocks):
                return False
        if not _cancel(one.infinity, two.infinity, space.atoms):
            return False
    return True


def _cancel(one: Mapping, two: Mapping, keys) -> bool:
    """``one[k] + two[k] == 0`` for every key: normalised Fractions cancel
    exactly when their numerators are opposite and their denominators equal."""
    for k in keys:
        x, y = one[k], two[k]
        if x.numerator != -y.numerator or x.denominator != y.denominator:
            return False
    return True


@dataclass(frozen=True)
class JointStoppingMeasure:
    """Mass table over (atom, stop index of player 1, stop index of player 2)."""

    mass: Mapping[str, Mapping[tuple[Time, Time], Fraction]]

    def marginal(self, space: FilteredSpace, player: int) -> StoppingMeasure:
        """Integrate out the other player's stop index."""
        table = {}
        for atom in space.atoms:
            row = {t: Fraction(0) for t in space.times}
            for (t1, t2), m in self.mass[atom].items():
                row[t1 if player == 1 else t2] += m
            table[atom] = row
        return StoppingMeasure(mass=table)


def joint_detailed_distribution(
    eta1: RandomStoppingTime, eta2: RandomStoppingTime, space: FilteredSpace
) -> JointStoppingMeasure:
    """Product of the two rules' densities: independent external randomness."""
    nu1 = detailed_distribution(eta1, space)
    nu2 = detailed_distribution(eta2, space)
    mass = {}
    for atom in space.atoms:
        p = space.prob[atom]
        row = {}
        for t1 in space.times:
            d1 = nu1.density(space, atom, t1)
            for t2 in space.times:
                row[(t1, t2)] = p * d1 * nu2.density(space, atom, t2)
        mass[atom] = row
    return JointStoppingMeasure(mass=mass)


def _coalition(t1: Time, t2: Time) -> frozenset:
    if t1 < t2:
        return ONLY_1
    if t2 < t1:
        return ONLY_2
    return BOTH  # includes the nobody-stops case t1 = t2 = INFINITY


def game_payoff(
    eta1: RandomStoppingTime,
    eta2: RandomStoppingTime,
    game: StoppingGame,
    space: FilteredSpace,
) -> tuple[Fraction, Fraction]:
    """Expected payoff pair: each player's payoff in the auxiliary problem the other sets."""
    return tuple(_pair(d, problem, space) for d, problem in _faced(eta1, eta2, game, space))


def _faced(eta1, eta2, game: StoppingGame, space: FilteredSpace):
    """Each player's density table and the auxiliary problem the other sets; validates each once."""
    check_game(space, game)
    d2 = density_table(eta2, space)
    d1 = density_table(eta1, space)
    return ((d1, _fold(d2, game, space, 1)), (d2, _fold(d1, game, space, 2)))


def game_equivalent(
    eta1: RandomStoppingTime, eta1_alt: RandomStoppingTime, space: FilteredSpace
) -> bool:
    """Equality of joint laws against every opponent.

    The joint law is the product of the two rules' densities, so it is the
    same against every opponent exactly when the rules are equivalent.
    """
    return equivalent(eta1, eta1_alt, space)


def auxiliary_problem(
    opponent: RandomStoppingTime,
    game: StoppingGame,
    space: FilteredSpace,
    player: int = 1,
) -> AdaptedProcess:
    """The single-player stopping problem a player faces against a fixed opponent.

    The opponent is reduced to its densities.  Walking down the tree,
    ``unspent`` is the chance the opponent has not stopped yet and
    ``collected`` the payoff already banked from the opponent stopping
    first.  Stopping now wins the both-stop payoff on the opponent's stop
    mass here, else the stop-alone payoff; never stopping ends in the
    both-players slot at INFINITY.  For every rule the player could use,
    the payoff in this problem equals the game payoff, so optimizing it is
    exactly best-responding.
    """
    values, infinity = space.fractions(_auxiliary(opponent, game, space, player))
    return AdaptedProcess(values=values, infinity=infinity)


def _auxiliary(opponent, game: StoppingGame, space: FilteredSpace, player: int) -> Table:
    if player not in PLAYERS:
        raise ValidationError(f"player must be 1 or 2, got {player!r}")
    check_game(space, game)
    return _fold(density_table(opponent, space), game, space, player)


def _fold(opponent: Table, game: StoppingGame, space: FilteredSpace, player: int) -> Table:
    """``auxiliary_problem`` from the opponent's density table, for a checked game.

    Everything is an integer over the opponent's denominator times the
    game's: ``collected`` and ``unspent`` are carried per block in flat order.
    """
    other = 2 if player == 1 else 1
    solo, opp_stops, both = space.tables(
        game.process(player, frozenset({player})),
        game.process(player, frozenset({other})),
        game.process(player, BOTH),
    )
    rho = opponent.blocks
    collected = [0] * (space.root + 1)
    unspent = [0] * space.root + [opponent.den]
    values = [0] * space.root
    for i, p in enumerate(space.parent):
        banked, left = collected[p], unspent[p]
        stops = rho[i]
        if stops:
            left -= stops
            values[i] = banked + stops * both.blocks[i] + left * solo.blocks[i]
            banked += stops * opp_stops.blocks[i]
        else:
            values[i] = banked + left * solo.blocks[i]
        collected[i], unspent[i] = banked, left
    infinity = [collected[i] + unspent[i] * v for i, v in zip(space.leaf, both.atoms)]
    return Table(values, infinity, opponent.den * both.den)


def best_response_value(
    opponent: RandomStoppingTime,
    game: StoppingGame,
    player: int,
    space: FilteredSpace,
) -> SnellResult:
    """Best payoff the player can secure against ``opponent``, with a pure rule attaining it."""
    return _snell(_auxiliary(opponent, game, space, player), space)


class StageSolution(NamedTuple):
    value: Fraction
    row_stop: Fraction
    col_stop: Fraction


def solve_stage_game(
    both_stop: Fraction, row_stop: Fraction, col_stop: Fraction, neither: Fraction
) -> StageSolution:
    """Exact value of the 2x2 zero-sum stage game, row maximizing.

    Rows are the maximizer's stop/continue, columns the minimizer's; the
    cell names say who stops.  Pure saddle points are scanned first (stop
    preferred on ties), otherwise the closed-form mixed solution applies
    and is interior.
    """
    a, b, c, d = both_stop, row_stop, col_stop, neither
    if c <= a <= b:
        return StageSolution(value=a, row_stop=ONE, col_stop=ONE)
    if d <= b <= a:
        return StageSolution(value=b, row_stop=ONE, col_stop=ZERO)
    if a <= c <= d:
        return StageSolution(value=c, row_stop=ZERO, col_stop=ONE)
    if b <= d <= c:
        return StageSolution(value=d, row_stop=ZERO, col_stop=ZERO)
    # (ad - bc) / (a + d - b - c) and the stop probabilities, with d = p/q,
    # so integer cells build each Fraction once
    p, q = d.numerator, d.denominator
    denom = (a - b - c) * q + p
    if denom == 0:
        raise ConsistencyFailure("2x2 game without saddle must have nonzero denominator")
    return StageSolution(
        value=Fraction(a * p - b * c * q, denom),
        row_stop=Fraction(p - c * q, denom),
        col_stop=Fraction(p - b * q, denom),
    )


class ZeroSumResult(NamedTuple):
    value: Fraction
    strategies: tuple[BehaviorStoppingTime, BehaviorStoppingTime]


def zero_sum_value(game: StoppingGame, space: FilteredSpace) -> ZeroSumResult:
    """Value and optimal behavior profile of a zero-sum game, by backward induction.

    Each block hosts a 2x2 stage game in player 1's payoffs whose
    continuation cell is the block's continuation value (the both-players
    INFINITY payoff at the horizon).  The stage solutions assemble into
    behavior rules that are exactly optimal: the profile passes the
    equilibrium check with epsilon = 0.

    The induction runs on probability-weighted integers.  A stage game
    scaled by its block's probability has the same saddle points and stop
    probabilities and a value scaled alike, so only mixed stages build a
    Fraction.
    """
    if not is_zero_sum(game, space):
        raise NotZeroSum("player payoffs do not cancel; zero-sum value undefined")
    both, solo1, solo2 = space.tables(
        game.process(1, BOTH), game.process(1, ONLY_1), game.process(1, ONLY_2)
    )
    mass = space.block_mass
    both_stop, row_stop, col_stop = (list(map(mul, mass, t.blocks)) for t in (both, solo1, solo2))
    beta1: list = [None] * space.root
    beta2: list = [None] * space.root

    def stage(i: int, continuation) -> Fraction:
        value, beta1[i], beta2[i] = solve_stage_game(
            both_stop[i], row_stop[i], col_stop[i], continuation
        )
        return value

    total, _ = space.backward_induction(list(map(mul, space.atom_mass, both.atoms)), stage)
    return ZeroSumResult(
        value=Fraction(total) / (space.denominator * both.den),
        strategies=(
            BehaviorStoppingTime(beta=space.by_block(beta1)),
            BehaviorStoppingTime(beta=space.by_block(beta2)),
        ),
    )


def check_epsilon_equilibrium(
    eta1: RandomStoppingTime,
    eta2: RandomStoppingTime,
    game: StoppingGame,
    epsilon,
    space: FilteredSpace,
) -> bool:
    """True iff no player can gain more than ``epsilon`` by deviating alone.

    Deviations over every rule type are covered: a player's payoff against
    a fixed opponent depends only on the deviation's detailed distribution,
    and the pure optimum of the auxiliary problem bounds them all.
    """
    faced = _faced(eta1, eta2, game, space)
    slack = _epsilon(epsilon)
    return all(
        _pair(d, problem, space) >= _snell(problem, space).value - slack for d, problem in faced
    )
