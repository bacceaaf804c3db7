"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Every comparison in the exact layer is exact rational
equality; the Monte-Carlo criterion uses the fixed absolute tolerance 0.02
at 100000 seeded samples.
"""

import random
import time
from fractions import Fraction as F

from stopwright import (
    INFINITY,
    best_response_value,
    behavior,
    check_epsilon_equilibrium,
    check_epsilon_optimal,
    convert,
    detailed_distribution,
    distinguish,
    empirical_detailed_distribution,
    empirical_game_payoff,
    enumerate_pure_stopping_times,
    equivalent,
    game_payoff,
    is_stopping_measure,
    joint_detailed_distribution,
    payoff,
    pure,
    snell_value,
    solve_stage_game,
    witness_problem,
    zero_sum_value,
)

from fuzz import (
    MAKERS,
    fixture_spaces,
    make_b1,
    make_e1,
    make_r1,
    make_singleton,
    random_game,
    random_randomized,
    random_space,
    random_stopping_time,
    random_process,
    random_zero_sum_game,
)

TARGETS = ("randomized", "behavior", "mixed")


def criterion(label):
    def wrap(check):
        def runner():
            started = time.perf_counter()
            try:
                check()
            except BaseException:
                print(f"\nACCEPTANCE {label}: FAIL")
                raise
            elapsed = time.perf_counter() - started
            print(f"\nACCEPTANCE {label}: PASS ({elapsed:.1f}s)")

        runner.__name__ = check.__name__
        return runner

    return wrap


@criterion("1 conversions preserve detailed distributions")
def test_criterion_1_conversion_round_trips():
    started = time.perf_counter()
    rng = random.Random(1001)

    instances = []
    e1 = make_e1()
    instances.append((e1, make_r1()))
    instances.append((e1, make_b1()))
    instances.append((e1, convert(make_r1(), "mixed", e1)))
    for maker in MAKERS:
        for _ in range(50):
            space = random_space(rng, max_depth=4, max_branch=3)
            instances.append((space, maker(rng, space)))
    assert len(instances) >= 4 * 50

    for space, eta in instances:
        nu = detailed_distribution(eta, space)
        assert is_stopping_measure(nu, space)
        for target in TARGETS:
            assert detailed_distribution(convert(eta, target, space), space) == nu

    # chained pairwise conversions on the named fixtures
    for eta in (make_r1(), make_b1()):
        nu = detailed_distribution(eta, e1)
        for first in TARGETS:
            for second in TARGETS:
                chained = convert(convert(eta, first, e1), second, e1)
                assert detailed_distribution(chained, e1) == nu

    assert time.perf_counter() - started < 10.0


@criterion("2 equivalent rules share payoffs; witnesses separate the rest")
def test_criterion_2_payoff_equivalence_and_witnesses():
    rng = random.Random(2002)

    pairs = 0
    while pairs < 50:
        space = random_space(rng, max_depth=3)
        eta = random_stopping_time(rng, space)
        twin = convert(eta, rng.choice(TARGETS), space)
        assert equivalent(eta, twin, space)
        for _ in range(100):
            problem = random_process(rng, space)
            assert payoff(eta, problem, space) == payoff(twin, problem, space)
        pairs += 1

    separated = 0
    while separated < 50:
        space = random_space(rng, max_depth=3)
        eta1 = random_stopping_time(rng, space)
        eta2 = random_stopping_time(rng, space)
        witness = distinguish(eta1, eta2, space)
        if witness is None:
            assert equivalent(eta1, eta2, space)
            continue
        problem = witness_problem(witness.event, witness.time, space)
        gap = payoff(eta1, problem, space) - payoff(eta2, problem, space)
        nu1 = detailed_distribution(eta1, space)
        nu2 = detailed_distribution(eta2, space)
        mass_gap = nu1.event_mass(witness.event, witness.time) - nu2.event_mass(
            witness.event, witness.time
        )
        assert abs(gap) == witness.payoff_gap == abs(mass_gap) > 0
        separated += 1


@criterion("3 backward induction attains the pure maximum; optimality transfers")
def test_criterion_3_extreme_points_and_transfer():
    rng = random.Random(3003)

    for space in fixture_spaces():
        rules = enumerate_pure_stopping_times(space)
        assert len(rules) <= 25
        for _ in range(20):
            problem = random_process(rng, space)
            result = snell_value(problem, space)
            assert result.value == max(payoff(s, problem, space) for s in rules)
            assert payoff(result.strategy, problem, space) == result.value
            for _ in range(5):
                eta = random_randomized(rng, space)
                assert payoff(eta, problem, space) <= result.value

    transfers = 0
    while transfers < 30:
        space = random_space(rng, max_depth=3)
        eta = random_stopping_time(rng, space)
        problem = random_process(rng, space)
        shortfall = snell_value(problem, space).value - payoff(eta, problem, space)
        epsilon = max(shortfall, F(0))
        assert check_epsilon_optimal(eta, problem, epsilon, space)
        for target in TARGETS:
            twin = convert(eta, target, space)
            assert check_epsilon_optimal(twin, problem, epsilon, space)
            if shortfall > 0:
                tighter = shortfall - min(F(1, 1000), shortfall / 2)
                assert not check_epsilon_optimal(twin, problem, tighter, space)
        transfers += 1


@criterion("4 game layer: marginals, best responses, equivalence transfer")
def test_criterion_4_games():
    rng = random.Random(4004)

    for _ in range(20):
        space = random_space(rng, max_depth=3)
        eta1 = random_stopping_time(rng, space)
        eta2 = random_stopping_time(rng, space)
        joint = joint_detailed_distribution(eta1, eta2, space)
        assert joint.marginal(space, 1) == detailed_distribution(eta1, space)
        assert joint.marginal(space, 2) == detailed_distribution(eta2, space)

    for space in fixture_spaces():
        rules = enumerate_pure_stopping_times(space)
        assert len(rules) <= 25
        for _ in range(6):
            game = random_game(rng, space)
            opponent = random_stopping_time(rng, space)
            best1 = max(game_payoff(s, opponent, game, space)[0] for s in rules)
            best2 = max(game_payoff(opponent, s, game, space)[1] for s in rules)
            assert best_response_value(opponent, game, 1, space).value == best1
            assert best_response_value(opponent, game, 2, space).value == best2

    e1 = make_e1()
    games = [random_game(rng, e1) for _ in range(10)]
    probes = [random_stopping_time(rng, e1) for _ in range(20)]
    for eta in (make_r1(), random_stopping_time(rng, e1), random_stopping_time(rng, e1)):
        for target in TARGETS:
            twin = convert(eta, target, e1)
            assert equivalent(eta, twin, e1)
            for game in games:
                for probe in probes:
                    assert game_payoff(eta, probe, game, e1) == game_payoff(
                        twin, probe, game, e1
                    )

    for _ in range(10):
        space = random_space(rng, max_depth=3)
        game = random_game(rng, space)
        opponent = random_stopping_time(rng, space)
        for player in (1, 2):
            base = best_response_value(opponent, game, player, space).value
            for target in TARGETS:
                twin = convert(opponent, target, space)
                assert best_response_value(twin, game, player, space).value == base


@criterion("5 zero-sum values are exact equilibria; stage solver is exact")
def test_criterion_5_zero_sum():
    rng = random.Random(5005)

    for _ in range(20):
        space = random_space(rng, max_depth=3)
        game = random_zero_sum_game(rng, space)
        result = zero_sum_value(game, space)
        assert check_epsilon_equilibrium(
            result.strategies[0], result.strategies[1], game, 0, space
        )

    for _ in range(300):
        a, b, c, d = (F(rng.randint(-5, 5), rng.choice((1, 2, 3))) for _ in range(4))
        maximin = max(min(a, b), min(c, d))
        minimax = min(max(a, c), max(b, d))
        solution = solve_stage_game(a, b, c, d)
        if maximin == minimax:
            assert solution.value == maximin

    mixed_cell = solve_stage_game(F(2), F(0), F(0), F(1))
    assert mixed_cell.value == F(2, 3)
    assert mixed_cell.row_stop == F(1, 3)
    assert mixed_cell.col_stop == F(1, 3)


@criterion("6 seeded sampling matches exact values within 0.02")
def test_criterion_6_monte_carlo():
    started = time.perf_counter()
    samples, tolerance, seed = 100_000, 0.02, 606

    e1 = make_e1()
    singleton = make_singleton()
    coin = behavior(beta={1: {"w": "1/2"}})
    fixtures = [
        (e1, make_r1()),
        (e1, make_b1()),
        (e1, convert(make_r1(), "mixed", e1)),
        (e1, pure({"w1": 1, "w2": 1, "w3": 2, "w4": INFINITY})),
        (singleton, coin),
    ]
    for space, eta in fixtures:
        exact = detailed_distribution(eta, space)
        empirical = empirical_detailed_distribution(eta, space, samples, seed)
        gap = max(
            abs(empirical.frequencies[a][t] - float(exact.mass[a][t]))
            for a in space.atoms
            for t in space.times
        )
        assert gap <= tolerance
        again = empirical_detailed_distribution(eta, space, samples, seed)
        assert again.counts == empirical.counts

    rng = random.Random(6006)
    game_fixtures = [
        (singleton, coin, behavior(beta={1: {"w": "1/3"}}), random_zero_sum_game(rng, singleton)),
        (e1, make_r1(), make_b1(), random_game(rng, e1)),
    ]
    for space, eta1, eta2, game in game_fixtures:
        exact = game_payoff(eta1, eta2, game, space)
        got = empirical_game_payoff(eta1, eta2, game, space, samples, seed)
        assert abs(got[0] - float(exact[0])) <= tolerance
        assert abs(got[1] - float(exact[1])) <= tolerance
        assert got == empirical_game_payoff(eta1, eta2, game, space, samples, seed)

    assert time.perf_counter() - started < 30.0
