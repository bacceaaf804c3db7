"""Golden digests: every exact result and every seeded Monte-Carlo output, hashed.

Each test runs the package over seeded fuzzed spaces and hashes the
``repr`` of every result, in order, dict order included.  The digests
were recorded on a known-good version.  A change that moves any exact
Fraction, any seeded count or any float mean fails here; a change that
means to move them must record new digests and say why.
"""

import hashlib
import random

from stopwright import (
    auxiliary_problem,
    best_response_value,
    check_epsilon_equilibrium,
    check_epsilon_optimal,
    convert,
    detailed_distribution,
    distinguish,
    empirical_detailed_distribution,
    empirical_game_payoff,
    empirical_joint_distribution,
    game_payoff,
    payoff,
    snell_value,
    zero_sum_value,
)
from stopwright.convert import TARGET_TYPES

from fuzz import MAKERS, random_game, random_process, random_space, random_zero_sum_game

EXACT_DIGEST = "8faf7b524a1e01d4beace25e2d2d4b7dee113d41efd6a30317f8381215194aab"
SAMPLED_DIGEST = "2f49ddcea22851b56a3b826df3acbd8feaee3492c02b1b2c43c4c5bca3488f61"


def digest(results) -> str:
    h = hashlib.sha256()
    for result in results:
        h.update(repr(result).encode())
        h.update(b"\n")
    return h.hexdigest()


def exact_results():
    rng = random.Random(2024)
    for _ in range(40):
        space = random_space(rng)
        rules = [maker(rng, space) for maker in MAKERS]
        problem = random_process(rng, space)
        game = random_game(rng, space)
        zero_sum = random_zero_sum_game(rng, space)
        yield snell_value(problem, space)
        for eta in rules:
            yield detailed_distribution(eta, space).mass
            yield payoff(eta, problem, space)
            yield check_epsilon_optimal(eta, problem, "1/3", space)
            for target in TARGET_TYPES:
                yield convert(eta, target, space)
        for eta1 in rules:
            for eta2 in rules:
                yield distinguish(eta1, eta2, space)
                yield game_payoff(eta1, eta2, game, space)
        for eta in rules:
            for player in (1, 2):
                yield auxiliary_problem(eta, game, space, player)
                yield best_response_value(eta, game, player, space)
        value = zero_sum_value(zero_sum, space)
        yield value
        yield check_epsilon_equilibrium(*value.strategies, zero_sum, 0, space)
        yield check_epsilon_equilibrium(rules[1], rules[2], game, "1/2", space)


def sampled_results():
    rng = random.Random(2025)
    for seed in range(6):
        space = random_space(rng, max_depth=3)
        rules = [maker(rng, space) for maker in MAKERS]
        game = random_game(rng, space)
        for eta in rules:
            yield empirical_detailed_distribution(eta, space, 5000, seed).counts
        for eta1, eta2 in zip(rules, rules[1:] + rules[:1]):
            yield empirical_joint_distribution(eta1, eta2, space, 5000, seed).counts
            yield empirical_game_payoff(eta1, eta2, game, space, 5000, seed)


def test_exact_results_unchanged():
    assert digest(exact_results()) == EXACT_DIGEST


def test_sampled_results_unchanged():
    assert digest(sampled_results()) == SAMPLED_DIGEST
