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

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import mul, neg
from typing import Mapping, NamedTuple, Sequence

from .errors import ConsistencyFailure, NotZeroSum, ValidationError
from .payoffs import SnellResult, _epsilon, _pair, _snell
from .space import (
    AdaptedProcess,
    FilteredSpace,
    Kept,
    ReadOnly,
    Table,
    Time,
    is_int,
    read_only,
)
from .stopping import (
    BehaviorStoppingTime,
    RandomStoppingTime,
    StoppingMeasure,
    check,
    density_of,
    detailed_distribution,
    equivalent,
    mass_of,
)

PLAYERS = (1, 2)
ONLY_1 = frozenset({1})
ONLY_2 = frozenset({2})
BOTH = frozenset({1, 2})
COALITIONS = (ONLY_1, ONLY_2, BOTH)
ONE, ZERO = Fraction(1), Fraction(0)
#: A game's six processes in the order of its kept Tables (``kept_game``): player 1's, then 2's.
KEYS = tuple((j, c) for j in PLAYERS for c in COALITIONS)


@dataclass(frozen=True)
class StoppingGame:
    """Six adapted payoff processes: one per (player, stopping coalition).  A game without one
    of them, or with a value that is not an AdaptedProcess, is refused with ValidationError
    naming its (player, coalition) keys."""

    payoffs: Mapping[tuple[int, frozenset], AdaptedProcess]

    def __post_init__(self):
        object.__setattr__(self, "payoffs", read_only(self.payoffs))
        missing = [(j, set(c)) for j, c in KEYS if (j, c) not in self.payoffs]
        if missing:
            raise ValidationError(f"game is missing payoff processes for {missing}")
        wrong = [(j, set(c)) for j, c in KEYS if not isinstance(self.payoffs[j, c], AdaptedProcess)]
        if wrong:
            raise ValidationError(f"game payoffs for {wrong} are not AdaptedProcesses")

    def process(self, player: int, coalition) -> AdaptedProcess:
        return self.payoffs[(player, frozenset(coalition))]


def stopping_game(payoffs) -> StoppingGame:
    """Build a StoppingGame from {(player, coalition): AdaptedProcess}."""
    return StoppingGame(payoffs={(int(j), frozenset(c)): p for (j, c), p in payoffs.items()})


def kept_game(game: StoppingGame, space: FilteredSpace) -> Kept:
    """The game's translation, kept by the space while the game lives (``FilteredSpace.recall``):
    its ``parts`` are the six processes as Tables over one shared denominator, in ``KEYS`` order.
    Raises TypeError, before the memo is asked, unless ``game`` is a StoppingGame: the memo
    keys other objects too."""
    if not isinstance(game, StoppingGame):
        raise TypeError(f"not a stopping game: {type(game).__name__}")
    return space.recall(game, lambda: space.tables(*map(game.payoffs.__getitem__, KEYS)))


def _check_player(player) -> None:
    """Raise ValidationError unless ``player`` is the int 1 or 2 (not a bool)."""
    if not is_int(player) or player not in PLAYERS:
        raise ValidationError(f"player must be 1 or 2, got {player!r}")


def _own(tables: Sequence[Table], player: int) -> tuple[Table, Table, Table]:
    """A player's tables for stopping alone, the opponent stopping alone and both stopping."""
    one, two, both = tables[3 * player - 3 : 3 * player]
    return (one, two, both) if player == 1 else (two, one, both)


def is_zero_sum(game: StoppingGame, space: FilteredSpace) -> bool:
    """True iff the players' payoffs cancel for every coalition, time, and atom."""
    return _cancels(kept_game(game, space).parts)


def _cancels(tables: Sequence[Table]) -> bool:
    """Over one shared denominator, payoffs cancel exactly when the numerators are opposite."""
    return all(two.cells == list(map(neg, one.cells)) for one, two in zip(tables[:3], tables[3:]))


@dataclass(frozen=True)
class JointStoppingMeasure:
    """Mass table over (atom, stop index of player 1, stop index of player 2)."""

    mass: Mapping[str, Mapping[tuple[Time, Time], Fraction]]

    def marginal(self, space: FilteredSpace, player: int) -> StoppingMeasure:
        """Integrate out the other player's stop index."""
        _check_player(player)
        rows = []
        for atom in space.atoms:
            row = dict.fromkeys(space.times, ZERO)
            for (t1, t2), m in self.mass[atom].items():
                row[t1 if player == 1 else t2] += m
            rows.append(ReadOnly(row))
        return StoppingMeasure(mass=ReadOnly(zip(space.atoms, rows)))


def joint_detailed_distribution(
    eta1: RandomStoppingTime, eta2: RandomStoppingTime, space: FilteredSpace
) -> JointStoppingMeasure:
    """Product of the two rules' densities: independent external randomness."""
    nu1, nu2 = detailed_distribution(eta1, space).mass, detailed_distribution(eta2, space).mass
    mass = {}
    for atom in space.atoms:  # p * d1 * d2, where each density d is m / p
        cells = itertools.product(nu1[atom].items(), nu2[atom].items())
        mass[atom] = {(t1, t2): m1 * m2 / space.prob[atom] for (t1, m1), (t2, m2) in cells}
    return JointStoppingMeasure(mass=mass)


def game_payoff(
    eta1: RandomStoppingTime,
    eta2: RandomStoppingTime,
    game: StoppingGame,
    space: FilteredSpace,
) -> tuple[Fraction, Fraction]:
    """Expected payoff pair: each player's payoff in the auxiliary problem the other sets."""
    return tuple(
        _pair(mass, opponent.derive(_folded, space, *key))
        for mass, opponent, key in _faced(eta1, eta2, game, space)
    )


def _faced(eta1, eta2, game: StoppingGame, space: FilteredSpace):
    """Per player: their kept stop mass (``mass_of``), the opponent's kept check, and the
    key of the problem the opponent sets, ``(the game's Kept, player)``; validates each input
    once."""
    kept = kept_game(game, space)
    two, one = check(eta2, space), check(eta1, space)
    return (
        (one.derive(mass_of, space), two, (kept, 1)),
        (two.derive(mass_of, space), one, (kept, 2)),
    )


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
    values, infinity = space.fractions(_against(_folded, opponent, game, space, player))
    return AdaptedProcess(values=values, infinity=infinity)


def _against(make, opponent, game: StoppingGame, space: FilteredSpace, player: int):
    """``make`` derived on the opponent's kept check for the kept game and ``player``."""
    _check_player(player)
    kept = kept_game(game, space)
    return check(opponent, space).derive(make, space, kept, player)


def _folded(opponent: Kept, space: FilteredSpace, game: Kept, player: int) -> Table:
    """The problem ``player`` faces in the kept ``game`` against the kept ``opponent``, kept
    with the opponent: keyed by the game's Kept, which no later game can share."""
    return _fold(opponent.derive(density_of, space), _own(game.parts, player), space)


def _best(opponent: Kept, space: FilteredSpace, game: Kept, player: int) -> SnellResult:
    """The optimum of the problem ``_folded`` keeps, kept beside it."""
    return _snell(opponent.derive(_folded, space, game, player), space)


def _fold(opponent: Table, own: Sequence[Table], space: FilteredSpace) -> Table:
    """``auxiliary_problem`` from the opponent's density table and the player's ``_own`` tables.

    Everything is an integer over the opponent's denominator times the
    game's: ``collected`` and ``unspent`` are carried per block in flat order.
    """
    solo, opp_stops, both = own
    rho = opponent.cells
    collected = [0] * (space.root + 1)
    unspent = [0] * space.root + [opponent.den]
    values = [0] * space.root
    for i, p in enumerate(space.parent):
        banked, left = collected[p], unspent[p]
        stops = rho[i]
        if stops:
            left -= stops
            values[i] = banked + stops * both.cells[i] + left * solo.cells[i]
            banked += stops * opp_stops.cells[i]
        else:
            values[i] = banked + left * solo.cells[i]
        collected[i], unspent[i] = banked, left
    values += [collected[i] + unspent[i] * v for i, v in zip(space.leaf, both.cells[space.root :])]
    return Table(values, opponent.den * both.den)


def best_response_value(
    opponent: RandomStoppingTime,
    game: StoppingGame,
    player: int,
    space: FilteredSpace,
) -> SnellResult:
    """Best payoff the player can secure against ``opponent``, with a pure rule attaining it.

    Repeat calls on the same live opponent and game share one read-only result.
    """
    return _against(_best, opponent, game, space, player)


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

    Repeat calls on the same live game share one read-only result, strategies
    included, so checking that profile again reuses their kept checks.
    """
    return kept_game(game, space).derive(_zero_sum, space)


def _zero_sum(game: Kept, space: FilteredSpace) -> ZeroSumResult:
    """``zero_sum_value`` on the kept game's tables."""
    tables = game.parts
    if not _cancels(tables):
        raise NotZeroSum("player payoffs do not cancel; zero-sum value undefined")
    solo1, solo2, both = tables[:3]
    mass = space.cell_mass
    both_stop, row_stop, col_stop = (list(map(mul, mass, t.cells)) for t in (both, solo1, solo2))
    beta1: list = [None] * space.root
    beta2: list = [None] * space.root

    def stage(i: int, continuation) -> Fraction:
        value, beta1[i], beta2[i] = solve_stage_game(
            both_stop[i], row_stop[i], col_stop[i], continuation
        )
        return value

    total, _ = space.backward_induction(both_stop[space.root :], stage)
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
    slack = _epsilon(epsilon)
    return all(
        _pair(mass, opponent.derive(_folded, space, *key))
        >= opponent.derive(_best, space, *key).value - slack
        for mass, opponent, key in _faced(eta1, eta2, game, space)
    )
