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
from typing import Mapping, NamedTuple, Optional

from .errors import ConsistencyFailure, NotZeroSum, ValidationError
from .payoffs import SnellResult, _pair, _within_epsilon, snell_value
from .space import (
    AdaptedProcess,
    FilteredSpace,
    Time,
    check_process,
)
from .stopping import (
    BehaviorStoppingTime,
    RandomStoppingTime,
    StoppingMeasure,
    densities,
    detailed_distribution,
    equivalent,
)

PLAYERS = (1, 2)
ONLY_1 = frozenset({1})
ONLY_2 = frozenset({2})
BOTH = frozenset({1, 2})
COALITIONS = (ONLY_1, ONLY_2, BOTH)


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
        for n in range(1, space.horizon + 1):
            for b in space.blocks(n):
                if one.values[n][b] + two.values[n][b] != 0:
                    return False
        for a in space.atoms:
            if one.infinity[a] + two.infinity[a] != 0:
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
    """Each player's densities and the auxiliary problem the other sets; validates each once."""
    check_game(space, game)
    d2 = densities(eta2, space)
    d1 = densities(eta1, space)
    return ((d1, _fold(d2.rho, game, space, 1)), (d2, _fold(d1.rho, game, space, 2)))


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
    if player not in PLAYERS:
        raise ValidationError(f"player must be 1 or 2, got {player!r}")
    check_game(space, game)
    return _fold(densities(opponent, space).rho, game, space, player)


def _fold(rho, game: StoppingGame, space: FilteredSpace, player: int) -> AdaptedProcess:
    """``auxiliary_problem`` from the opponent's stop masses, for a checked game."""
    other = 2 if player == 1 else 1
    solo = game.process(player, frozenset({player}))
    opp_stops = game.process(player, frozenset({other}))
    both = game.process(player, BOTH)

    T = space.horizon
    values: dict[int, dict[str, Fraction]] = {n: {} for n in range(1, T + 1)}
    carried: dict[tuple[int, Optional[str]], tuple[Fraction, Fraction]] = {
        (0, None): (Fraction(0), Fraction(1))
    }
    # a zero stop mass banks nothing, and once the opponent has surely
    # stopped only ``collected`` is left: both skip their products
    for n, block_id, parent_id in space.top_down():
        here = carried[n - 1, parent_id]
        collected, unspent = here
        stops = rho[n][block_id]
        if stops:
            left = unspent - stops
            values[n][block_id] = (
                collected + stops * both.values[n][block_id] + left * solo.values[n][block_id]
            )
            here = (collected + stops * opp_stops.values[n][block_id], left)
        elif unspent:
            values[n][block_id] = collected + unspent * solo.values[n][block_id]
        else:
            values[n][block_id] = collected
        carried[n, block_id] = here
    infinity = {}
    for atom in space.atoms:
        collected, unspent = carried[T, space.block_of(T, atom)]
        infinity[atom] = collected + unspent * both.infinity[atom] if unspent else collected
    return AdaptedProcess(values=values, infinity=infinity)


def best_response_value(
    opponent: RandomStoppingTime,
    game: StoppingGame,
    player: int,
    space: FilteredSpace,
) -> SnellResult:
    """Best payoff the player can secure against ``opponent``, with a pure rule attaining it."""
    return snell_value(auxiliary_problem(opponent, game, space, player), space)


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
    one, zero = Fraction(1), Fraction(0)
    saddles = (
        (a >= c and a <= b, a, one, one),
        (b >= d and b <= a, b, one, zero),
        (c >= a and c <= d, c, zero, one),
        (d >= b and d <= c, d, zero, zero),
    )
    for is_saddle, value, p, q in saddles:
        if is_saddle:
            return StageSolution(value=value, row_stop=p, col_stop=q)
    denom = a + d - b - c
    if denom == 0:
        raise ConsistencyFailure("2x2 game without saddle must have nonzero denominator")
    return StageSolution(
        value=(a * d - b * c) / denom,
        row_stop=(d - c) / denom,
        col_stop=(d - b) / denom,
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
    """
    if not is_zero_sum(game, space):
        raise NotZeroSum("player payoffs do not cancel; zero-sum value undefined")
    both = game.process(1, BOTH)
    solo1 = game.process(1, ONLY_1)
    solo2 = game.process(1, ONLY_2)
    beta1: dict[int, dict[str, Fraction]] = {n: {} for n in range(1, space.horizon + 1)}
    beta2: dict[int, dict[str, Fraction]] = {n: {} for n in range(1, space.horizon + 1)}

    def stage(n: int, b: str, continuation: Fraction) -> Fraction:
        solution = solve_stage_game(
            both.values[n][b], solo1.values[n][b], solo2.values[n][b], continuation
        )
        beta1[n][b] = solution.row_stop
        beta2[n][b] = solution.col_stop
        return solution.value

    value, _ = space.backward_induction(both.infinity, stage)
    return ZeroSumResult(
        value=value,
        strategies=(BehaviorStoppingTime(beta=beta1), BehaviorStoppingTime(beta=beta2)),
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
    return all(
        _within_epsilon(_pair(d, problem, space), problem, epsilon, space)
        for d, problem in _faced(eta1, eta2, game, space)
    )
