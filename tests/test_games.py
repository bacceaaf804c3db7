import copy
import random
from fractions import Fraction as F

import pytest

from stopwright import (
    BOTH,
    INFINITY,
    ONLY_1,
    ONLY_2,
    NotZeroSum,
    ValidationError,
    adapted_process,
    auxiliary_problem,
    behavior,
    best_response_value,
    check_epsilon_equilibrium,
    AdaptedProcess,
    constant_process,
    convert,
    detailed_distribution,
    empirical_game_payoff,
    enumerate_pure_stopping_times,
    game_equivalent,
    game_payoff,
    is_zero_sum,
    joint_detailed_distribution,
    pure,
    solve_stage_game,
    stopping_game,
    zero_sum_value,
)
from stopwright.games import StoppingGame

from fuzz import (
    make_r1,
    negate_process,
    random_game,
    random_process,
    random_space,
    random_stopping_time,
    random_zero_sum_game,
)


def singleton_game(space, both_stop, p1_stops, p2_stops, nobody, zero_sum=True):
    """One-period game from player 1's four cells; player 2 mirrors if zero-sum."""

    def proc(at_one, at_inf=0):
        return adapted_process(values={1: {"w": at_one}}, infinity={"w": at_inf})

    table = {
        (1, BOTH): proc(both_stop, nobody),
        (1, ONLY_1): proc(p1_stops),
        (1, ONLY_2): proc(p2_stops),
    }
    for c in (BOTH, ONLY_1, ONLY_2):
        table[(2, c)] = (
            negate_process(table[(1, c)]) if zero_sum else constant_process(space, 0)
        )
    return stopping_game(table)


class TestJointDistribution:
    def test_pure_opponent_places_mass_on_one_column(self, e1, r1):
        probe = pure({a: 1 for a in e1.atoms})
        joint = joint_detailed_distribution(r1, probe, e1)
        nu = detailed_distribution(r1, e1)
        for a in e1.atoms:
            for t1 in e1.times:
                for t2 in e1.times:
                    expected = nu.mass[a][t1] if t2 == 1 else F(0)
                    assert joint.mass[a][(t1, t2)] == expected

    def test_never_stopping_pair(self, e1):
        never = pure({a: INFINITY for a in e1.atoms})
        joint = joint_detailed_distribution(never, never, e1)
        for a in e1.atoms:
            assert joint.mass[a][(INFINITY, INFINITY)] == e1.prob[a]
            assert sum(joint.mass[a].values()) == e1.prob[a]

    def test_product_with_pure_time_two(self, e1, r1):
        probe = pure({a: 2 for a in e1.atoms})
        joint = joint_detailed_distribution(r1, probe, e1)
        assert joint.mass["w1"][(1, 2)] == F(1, 8)
        assert joint.mass["w1"][(2, 2)] == F(1, 8)
        assert joint.mass["w4"][(2, 2)] == F(3, 16)
        assert joint.mass["w2"][(INFINITY, 2)] == F(1, 8)

    def test_marginals_match_individual_distributions(self):
        rng = random.Random(101)
        for _ in range(10):
            space = random_space(rng, max_depth=3)
            eta1 = random_stopping_time(rng, space)
            eta2 = random_stopping_time(rng, space)
            joint = joint_detailed_distribution(eta1, eta2, space)
            assert joint.marginal(space, 1) == detailed_distribution(eta1, space)
            assert joint.marginal(space, 2) == detailed_distribution(eta2, space)


def joint_table_payoff(eta1, eta2, game, space):
    """Pair the joint mass table with the coalition payoffs, cell by cell."""
    joint = joint_detailed_distribution(eta1, eta2, space)
    totals = [F(0), F(0)]
    for atom in space.atoms:
        for (t1, t2), m in joint.mass[atom].items():
            coalition = ONLY_1 if t1 < t2 else ONLY_2 if t2 < t1 else BOTH
            for i, player in enumerate((1, 2)):
                process = game.process(player, coalition)
                totals[i] += m * process.value_at(space, min(t1, t2), atom)
    return tuple(totals)


class TestGamePayoff:
    def test_matches_joint_table_pairing(self):
        rng = random.Random(113)
        for _ in range(30):
            space = random_space(rng, max_depth=3)
            game = random_game(rng, space)
            eta1 = random_stopping_time(rng, space)
            eta2 = random_stopping_time(rng, space)
            assert game_payoff(eta1, eta2, game, space) == joint_table_payoff(
                eta1, eta2, game, space
            )

    def test_constant_game(self, e1, r1, b1):
        game = stopping_game(
            {(j, c): constant_process(e1, 3) for j in (1, 2) for c in (ONLY_1, ONLY_2, BOTH)}
        )
        assert game_payoff(r1, b1, game, e1) == (3, 3)

    def test_lone_stopper_coalition(self, singleton):
        game = singleton_game(singleton, both_stop=7, p1_stops=2, p2_stops=-4, nobody=1)
        sigma1 = pure({"w": 1})
        never = pure({"w": INFINITY})
        assert game_payoff(sigma1, never, game, singleton)[0] == 2
        assert game_payoff(never, sigma1, game, singleton)[0] == -4
        assert game_payoff(sigma1, sigma1, game, singleton)[0] == 7
        assert game_payoff(never, never, game, singleton)[0] == 1

    def test_half_half_expansion(self, singleton):
        game = singleton_game(singleton, both_stop=2, p1_stops=0, p2_stops=0, nobody=1)
        coin = behavior(beta={1: {"w": "1/2"}})
        got = game_payoff(coin, coin, game, singleton)
        assert got[0] == F(1, 4) * 2 + F(1, 4) * 0 + F(1, 4) * 0 + F(1, 4) * 1

    def test_equivalent_rules_earn_identical_payoffs(self, e1, r1, b1):
        rng = random.Random(103)
        for _ in range(8):
            game = random_game(rng, e1)
            probe = random_stopping_time(rng, e1)
            assert game_payoff(r1, probe, game, e1) == game_payoff(b1, probe, game, e1)


def same_joint_laws(eta, eta_alt, probes, space):
    return all(
        joint_detailed_distribution(eta, probe, space)
        == joint_detailed_distribution(eta_alt, probe, space)
        for probe in probes
    )


class TestGameEquivalent:
    def test_r1_b1_with_probes(self, e1, r1, b1):
        probes = [pure({a: 1 for a in e1.atoms}), pure({a: INFINITY for a in e1.atoms})]
        assert game_equivalent(r1, b1, e1)
        assert same_joint_laws(r1, b1, probes, e1)

    def test_distinct_rules(self, e1, r1):
        stop_now = pure({a: 1 for a in e1.atoms})
        assert not game_equivalent(r1, stop_now, e1)
        assert not same_joint_laws(r1, stop_now, [make_r1()], e1)

    def test_self_equivalence(self, e1, b1):
        assert game_equivalent(b1, b1, e1)
        assert same_joint_laws(b1, b1, [b1], e1)


class TestAuxiliaryProblem:
    def test_absent_opponent_reduces_to_solo_problem(self, e1):
        rng = random.Random(107)
        game = random_game(rng, e1)
        never = pure({a: INFINITY for a in e1.atoms})
        reduced = auxiliary_problem(never, game, e1, player=1)
        assert reduced.values == game.process(1, ONLY_1).values
        assert reduced.infinity == game.process(1, BOTH).infinity

    def test_instant_opponent_leaves_two_choices(self, singleton):
        game = singleton_game(singleton, both_stop=3, p1_stops=9, p2_stops=5, nobody=0)
        sigma1 = pure({"w": 1})
        result = best_response_value(sigma1, game, 1, singleton)
        stop_now = game_payoff(pure({"w": 1}), sigma1, game, singleton)[0]
        wait = game_payoff(pure({"w": INFINITY}), sigma1, game, singleton)[0]
        assert result.value == max(stop_now, wait) == 5

    def test_value_matches_exhaustive_enumeration(self, e1):
        rng = random.Random(109)
        rules = enumerate_pure_stopping_times(e1)
        for _ in range(6):
            game = random_game(rng, e1)
            opponent = random_stopping_time(rng, e1)
            for player in (1, 2):
                best = max(
                    game_payoff(sigma, opponent, game, e1)[player - 1]
                    if player == 1
                    else game_payoff(opponent, sigma, game, e1)[player - 1]
                    for sigma in rules
                )
                assert best_response_value(opponent, game, player, e1).value == best


class TestBestResponse:
    def test_constant_game(self, e1, b1):
        game = stopping_game(
            {(j, c): constant_process(e1, "3/2") for j in (1, 2) for c in (ONLY_1, ONLY_2, BOTH)}
        )
        assert best_response_value(b1, game, 1, e1).value == F(3, 2)

    def test_two_branch_hand_computation(self, singleton):
        game = singleton_game(singleton, both_stop=2, p1_stops=0, p2_stops=0, nobody=1)
        coin = behavior(beta={1: {"w": "1/2"}})
        result = best_response_value(coin, game, 1, singleton)
        assert result.value == 1
        assert result.strategy.stop == {"w": 1}

    def test_never_stopping_payout(self, singleton):
        game = singleton_game(singleton, both_stop=0, p1_stops=0, p2_stops=0, nobody=5)
        never = pure({"w": INFINITY})
        result = best_response_value(never, game, 1, singleton)
        assert result.value == 5
        assert result.strategy.stop == {"w": INFINITY}

    def test_invariant_under_opponent_representation(self, e1):
        rng = random.Random(113)
        for _ in range(6):
            game = random_game(rng, e1)
            opponent = random_stopping_time(rng, e1)
            base = best_response_value(opponent, game, 1, e1).value
            for target in ("randomized", "behavior", "mixed"):
                twin = convert(opponent, target, e1)
                assert best_response_value(twin, game, 1, e1).value == base

    def test_rejects_unknown_player(self, e1, r1):
        rng = random.Random(127)
        with pytest.raises(ValidationError):
            best_response_value(r1, random_game(rng, e1), 3, e1)

    @pytest.mark.parametrize("player", [1.0, F(1), 2.0, True, "1"])
    def test_player_is_the_int_1_or_2_cold_and_warm(self, e1, r1, player):
        """Before any rule is read, and whatever the memo holds for the equal int."""
        game = random_game(random.Random(127), e1)
        bad_rule = pure({a: 3 for a in e1.atoms})
        for call in (best_response_value, auxiliary_problem):
            with pytest.raises(ValidationError, match="player must be 1 or 2"):
                call(bad_rule, game, player=player, space=e1)
            with pytest.raises(ValidationError, match="player must be 1 or 2"):
                call(r1, game, player=player, space=e1)
            call(r1, game, player=int(player), space=e1)  # the int: derived and kept
            with pytest.raises(ValidationError, match="player must be 1 or 2"):
                call(r1, game, player=player, space=e1)


class TestStageSolver:
    def test_saddle_point_cells(self):
        sol = solve_stage_game(F(0), F(1), F(-1), F(0))
        assert sol.value == 0
        assert sol.row_stop == 1
        assert sol.col_stop == 1

    def test_mixed_closed_form(self):
        sol = solve_stage_game(F(2), F(0), F(0), F(1))
        assert sol.value == F(2, 3)
        assert sol.row_stop == F(1, 3)
        assert sol.col_stop == F(1, 3)

    def test_matches_pure_enumeration_on_saddles(self):
        rng = random.Random(131)
        for _ in range(200):
            a, b, c, d = (F(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(4))
            maximin = max(min(a, b), min(c, d))
            minimax = min(max(a, c), max(b, d))
            sol = solve_stage_game(a, b, c, d)
            if maximin == minimax:
                assert sol.value == maximin
            # either way the solution is optimal for both sides:
            row = (sol.row_stop, 1 - sol.row_stop)
            col = (sol.col_stop, 1 - sol.col_stop)
            matrix = ((a, b), (c, d))
            guarantees = [
                sum(row[i] * matrix[i][j] for i in range(2)) for j in range(2)
            ]
            exposures = [
                sum(col[j] * matrix[i][j] for j in range(2)) for i in range(2)
            ]
            assert min(guarantees) == sol.value
            assert max(exposures) == sol.value


class TestZeroSum:
    def test_constant_zero_sum(self, e1):
        table = {}
        for c in (ONLY_1, ONLY_2, BOTH):
            table[(1, c)] = constant_process(e1, 4)
            table[(2, c)] = constant_process(e1, -4)
        game = stopping_game(table)
        assert zero_sum_value(game, e1).value == 4

    def test_saddle_game(self, singleton):
        game = singleton_game(singleton, both_stop=0, p1_stops=1, p2_stops=-1, nobody=0)
        result = zero_sum_value(game, singleton)
        assert result.value == 0
        assert result.strategies[0].beta[1]["w"] == 1
        assert result.strategies[1].beta[1]["w"] == 1

    def test_mixed_game_value_two_thirds(self, singleton):
        game = singleton_game(singleton, both_stop=2, p1_stops=0, p2_stops=0, nobody=1)
        result = zero_sum_value(game, singleton)
        assert result.value == F(2, 3)
        assert result.strategies[0].beta[1]["w"] == F(1, 3)
        assert result.strategies[1].beta[1]["w"] == F(1, 3)
        for player, expected in ((1, F(2, 3)), (2, F(-2, 3))):
            side = best_response_value(result.strategies[2 - player], game, player, singleton)
            assert side.value == expected

    def test_profile_is_exact_equilibrium(self):
        rng = random.Random(137)
        for _ in range(8):
            space = random_space(rng, max_depth=3)
            game = random_zero_sum_game(rng, space)
            result = zero_sum_value(game, space)
            assert check_epsilon_equilibrium(
                result.strategies[0], result.strategies[1], game, 0, space
            )
            realized = game_payoff(result.strategies[0], result.strategies[1], game, space)
            assert realized == (result.value, -result.value)

    def test_value_between_pure_maximin_and_minimax(self, e1):
        rng = random.Random(139)
        rules = enumerate_pure_stopping_times(e1)
        for _ in range(4):
            game = random_zero_sum_game(rng, e1)
            value = zero_sum_value(game, e1).value
            maximin = max(
                min(game_payoff(s1, s2, game, e1)[0] for s2 in rules) for s1 in rules
            )
            minimax = min(
                max(game_payoff(s1, s2, game, e1)[0] for s1 in rules) for s2 in rules
            )
            assert maximin <= value <= minimax

    def test_swapping_players_negates_value(self, e1):
        rng = random.Random(149)
        swap = {ONLY_1: ONLY_2, ONLY_2: ONLY_1, BOTH: BOTH}
        for _ in range(4):
            game = random_zero_sum_game(rng, e1)
            mirrored = StoppingGame(
                payoffs={
                    (3 - j, swap[c]): proc for (j, c), proc in game.payoffs.items()
                }
            )
            assert zero_sum_value(mirrored, e1).value == -zero_sum_value(game, e1).value

    def test_rejects_non_zero_sum(self, e1):
        rng = random.Random(151)
        game = random_game(rng, e1)
        assert not is_zero_sum(game, e1)
        with pytest.raises(NotZeroSum):
            zero_sum_value(game, e1)


class TestEquilibriumCheck:
    def test_constant_game_any_profile(self, e1, r1, b1):
        game = stopping_game(
            {(j, c): constant_process(e1, 2) for j in (1, 2) for c in (ONLY_1, ONLY_2, BOTH)}
        )
        assert check_epsilon_equilibrium(r1, b1, game, 0, e1)

    def test_dominated_stop_needs_exact_slack(self, singleton):
        # stopping together pays player 1 nothing; deferring to the opponent pays 2
        game = singleton_game(
            singleton, both_stop=0, p1_stops=0, p2_stops=2, nobody=0, zero_sum=False
        )
        stopper = pure({"w": 1})
        assert best_response_value(stopper, game, 1, singleton).value == 2
        assert not check_epsilon_equilibrium(stopper, stopper, game, 0, singleton)
        assert not check_epsilon_equilibrium(stopper, stopper, game, "199/100", singleton)
        assert check_epsilon_equilibrium(stopper, stopper, game, 2, singleton)

    def test_negative_epsilon_rejected(self, singleton, checked):
        game = singleton_game(singleton, 0, 0, 0, 0)
        with pytest.raises(ValidationError):
            check_epsilon_equilibrium(pure({"w": 1}), pure({"w": 1}), game, -1, singleton)
        assert checked == []  # refused before any rule is checked or the game translated

    def test_equilibrium_survives_equivalent_replacement(self):
        rng = random.Random(157)
        done = 0
        while done < 5:
            space = random_space(rng, max_depth=2)
            game = random_zero_sum_game(rng, space)
            profile = zero_sum_value(game, space).strategies
            for target in ("randomized", "behavior", "mixed"):
                replaced = (
                    convert(profile[0], target, space),
                    convert(profile[1], target, space),
                )
                assert check_epsilon_equilibrium(replaced[0], replaced[1], game, 0, space)
            done += 1


def game_results(game, space, eta1, eta2) -> dict:
    """Everything the game calls return for one profile; ``None`` for a zero-sum value undefined."""
    try:
        value = zero_sum_value(game, space)
    except NotZeroSum:
        value = None
    return {
        "is_zero_sum": is_zero_sum(game, space),
        "zero_sum_value": value,
        "game_payoff": game_payoff(eta1, eta2, game, space),
        "check_epsilon_equilibrium": check_epsilon_equilibrium(eta1, eta2, game, 0, space),
        "best_response_value": [
            best_response_value(eta2, game, 1, space),
            best_response_value(eta1, game, 2, space),
        ],
        "auxiliary_problem": auxiliary_problem(eta2, game, space, 2),
        "empirical_game_payoff": empirical_game_payoff(eta1, eta2, game, space, 500, 1),
    }


def rebuilt(game) -> StoppingGame:
    """The same game in new process objects, so no translation of the old one applies."""
    return stopping_game(
        {
            key: AdaptedProcess(
                values={n: dict(level) for n, level in process.values.items()},
                infinity=dict(process.infinity),
            )
            for key, process in game.payoffs.items()
        }
    )


class TestGameMemo:
    """Each space translates a game to integers once, and a changed game again."""

    def test_repeated_calls_translate_no_game_cell_again(self, translated):
        rng = random.Random(808)
        for _ in range(6):
            tree = random_space(rng)
            game = random_zero_sum_game(rng, tree)
            eta1, eta2 = random_stopping_time(rng, tree), random_stopping_time(rng, tree)
            # the game's own cell objects, alive while ``game`` is
            cells = {
                id(c)
                for process in game.payoffs.values()
                for table in (*process.values.values(), process.infinity)
                for c in table.values()
            }
            calls = {
                "zero_sum_value": lambda space: zero_sum_value(game, space),
                "game_payoff": lambda space: game_payoff(eta1, eta2, game, space),
                "check_epsilon_equilibrium": lambda space: check_epsilon_equilibrium(
                    eta1, eta2, game, 0, space
                ),
                "best_response_value": lambda space: best_response_value(eta2, game, 2, space),
                "is_zero_sum": lambda space: is_zero_sum(game, space),
                "empirical_game_payoff": lambda space: empirical_game_payoff(
                    eta1, eta2, game, space, 200, 3
                ),
            }
            for name, call in calls.items():
                # a copy of the tree starts with no translations
                space = copy.deepcopy(tree)
                translated.clear()
                first = call(space)
                assert any(id(c) in cells for batch in translated for c in batch), name
                translated.clear()
                assert call(space) == first, name
                assert not any(id(c) in cells for batch in translated for c in batch), name

    def test_changed_game_gives_the_results_of_a_fresh_one(self):
        rng = random.Random(909)
        for _ in range(6):
            space = random_space(rng)
            game = random_zero_sum_game(rng, space)
            at_one = pure({a: 1 for a in space.atoms})
            profiles = [
                (at_one, at_one),
                (random_stopping_time(rng, space), random_stopping_time(rng, space)),
            ]

            def results(game):
                return [game_results(game, space, eta1, eta2) for eta1, eta2 in profiles]

            before = results(game)
            b = rng.choice(space.blocks(1))
            with pytest.raises(TypeError):
                game.payoffs[1, BOTH].values[1][b] += 5
            with pytest.raises(TypeError):
                game.payoffs[2, ONLY_2] = random_process(rng, space)
            assert results(game) == before
            # one value of each player, in a copy and still zero-sum
            changed_game = edited(game, {(1, BOTH): 5, (2, BOTH): -5}, b)
            changed = results(changed_game)
            assert changed == results(rebuilt(changed_game))
            # both players stopping at time 1 are paid the changed value
            assert changed[0]["game_payoff"] != before[0]["game_payoff"]
            # one value of player 1 alone: the game is no longer zero-sum
            skewed = edited(changed_game, {(1, ONLY_1): 1}, b)
            assert results(skewed) == results(rebuilt(skewed))
            assert results(skewed)[0]["zero_sum_value"] is None
            # one whole process replaced
            replaced = stopping_game({**skewed.payoffs, (2, ONLY_2): random_process(rng, space)})
            assert results(replaced) == results(rebuilt(replaced))


def edited(game, shifts, block) -> StoppingGame:
    """A copy of ``game`` whose time-1 value at ``block`` moves by ``shifts[key]`` per process."""
    payoffs = dict(game.payoffs)
    for key, shift in shifts.items():
        values = {n: dict(level) for n, level in payoffs[key].values.items()}
        values[1][block] += shift
        payoffs[key] = AdaptedProcess(values=values, infinity=payoffs[key].infinity)
    return StoppingGame(payoffs=payoffs)


class TestDirectConstruction:
    def test_a_game_missing_a_process_is_refused(self, e1):
        with pytest.raises(ValidationError) as raised:
            StoppingGame(payoffs={})
        assert str(raised.value).startswith("game is missing payoff processes for [(1, {1}),")
        complete = {(j, c): constant_process(e1, j) for j in (1, 2) for c in (ONLY_1, ONLY_2, BOTH)}
        del complete[2, BOTH]
        with pytest.raises(ValidationError, match=r"missing payoff processes for \[\(2, \{1, 2\}\)\]"):
            StoppingGame(payoffs=complete)
        with pytest.raises(ValidationError, match="missing payoff processes"):
            stopping_game(complete)
