"""Every integer kernel agrees exactly with its Fraction-dict oracle (``oracles.py``), and so do
the conversion to hazards and the repair of density tables.

The spaces are fuzzed; every third one is rebuilt with fresh internal node
ids and every node's children reversed, so each level's blocks and the
atoms run in the reverse of the generator's order.
The same comparisons run on a T=1,200 chain.
"""

import random
from fractions import Fraction as F

import pytest

import oracles
from stopwright import (
    ONLY_1,
    AdaptedProcess,
    StoppingGame,
    INFINITY,
    auxiliary_problem,
    build_space,
    check_epsilon_equilibrium,
    densities,
    game_payoff,
    payoff,
    pure,
    randomized_to_behavior,
    repair_densities,
    snell_value,
)
from stopwright.games import _fold, _own, is_zero_sum, kept_game
from stopwright.payoffs import _pair
from stopwright.space import FilteredSpace
from stopwright.stopping import BehaviorStoppingTime, check, density_table, mass_of

from fuzz import (
    MAKERS,
    make_e1,
    make_singleton,
    random_behavior,
    random_game,
    random_process,
    random_space,
    random_stopping_time,
    random_zero_sum_game,
)

SPACES = 42


def renamed(space) -> FilteredSpace:
    """The same tree from a node list with fresh internal node ids and every node's children
    in reverse order.  Horizon blocks are the atoms by construction, so they keep their ids."""
    T = space.horizon

    def name(i):
        return "top" if i == space.root else space.ids[i] if space.depth[i] == T else f"t{i}"

    nodes = [{"id": "top", "parent": None}]
    for i in reversed(range(space.root)):
        nodes.append({"id": name(i), "parent": name(space.parent[i])})
        if space.depth[i] == T:
            nodes[-1]["prob"] = space.prob[space.ids[i]]
    return build_space(nodes)


def fuzzed_spaces():
    rng = random.Random(606)
    for k in range(SPACES):
        space = random_space(rng)
        yield rng, (renamed(space) if k % 3 == 2 else space)


def chain(horizon: int):
    nodes = [{"id": "c0", "parent": None}]
    nodes += [{"id": f"c{n}", "parent": f"c{n - 1}"} for n in range(1, horizon + 1)]
    nodes[-1]["prob"] = "1"
    return build_space(nodes)


def chain_hazards(rng, space):
    """Hazards 1/2, 1/3 or 2/3, so survival denominators grow about a bit per level."""
    choices = (F(1, 2), F(1, 3), F(2, 3))
    return BehaviorStoppingTime(
        beta={n: {b: rng.choice(choices) for b in space.blocks(n)} for n in space.times[:-1]}
    )


def as_flat(space, table: dict) -> list:
    """``{(n, block_id): value}`` in flat order."""
    return [table[n, b] for n, b in zip(space.depth, space.ids)]


def assert_passes_agree(rng, space, rules, problem, game):
    for eta in rules:
        d = density_table(eta, space)
        public = densities(eta, space)
        # spent
        expected = oracles.spent(space, public.rho)
        assert [F(c, d.den) for c in space.spent(d.cells)] == as_flat(space, expected)
        # first_stop, and which blocks it asks
        marked = {(n, b) for n, b in zip(space.depth, space.ids) if rng.random() < 0.3}
        asked_flat, asked_dict = [], []

        def flat_rule(i):
            asked_flat.append((space.depth[i], space.ids[i]))
            return (space.depth[i], space.ids[i]) in marked

        def dict_rule(n, b):
            asked_dict.append((n, b))
            return (n, b) in marked

        assert space.first_stop(flat_rule) == oracles.first_stop(space, dict_rule)
        assert asked_flat == asked_dict
        # pairing
        assert payoff(eta, problem, space) == oracles.pair(public, problem, space)
        (table,) = space.tables(problem)
        assert _pair(check(eta, space).derive(mass_of, space), table) == oracles.pair(
            public, problem, space
        )
        # fold
        for player in (1, 2):
            assert auxiliary_problem(eta, game, space, player) == oracles.fold(
                public.rho, game, space, player
            )
            own = _own(kept_game(game, space).parts, player)
            values, infinity = space.fractions(_fold(d, own, space))
            expected = oracles.fold(public.rho, game, space, player)
            assert (values, infinity) == (expected.values, expected.infinity)
    # game payoff from the oracle fold and pair
    d1, d2 = densities(rules[0], space), densities(rules[-1], space)
    assert game_payoff(rules[0], rules[-1], game, space) == (
        oracles.pair(d1, oracles.fold(d2.rho, game, space, 1), space),
        oracles.pair(d2, oracles.fold(d1.rho, game, space, 2), space),
    )
    # backward induction: value, every block's value, the optimal stops
    value, values, stop = oracles.snell(problem, space)
    result = snell_value(problem, space)
    assert (result.value, dict(result.strategy.stop)) == (value, stop)
    (table,) = space.tables(problem)
    weighted = [m * v for m, v in zip(space.block_mass, table.cells)]
    total, kernel_values = space.backward_induction(
        [m * v for m, v in zip(space.atom_mass, table.cells[space.root :])],
        lambda i, continuation: max(weighted[i], continuation),
    )
    assert F(total, space.denominator * table.den) == value
    # a weighted value over the table's denominator is P(block) * value, P = mass / denominator
    assert [F(w, m * table.den) for w, m in zip(kernel_values, space.block_mass)] == as_flat(
        space, {(n, b): v for n, level in values.items() for b, v in level.items()}
    )


def spoiled(rng, rho) -> dict:
    """A copy of the block-keyed ``rho`` with some cells negative, some raised so that their
    paths hold more than all the mass, some cells missing, and at times a whole time missing."""
    table = {n: dict(level) for n, level in rho.items()}
    for level in table.values():
        for b in list(level):
            roll = rng.random()
            if roll < 0.2:
                level[b] = -level[b] - F(1, rng.randint(1, 5))
            elif roll < 0.4:
                level[b] = 3 * level[b] + F(1, rng.randint(1, 5))
            elif roll < 0.55:
                del level[b]
    if rng.random() < 0.3:
        del table[rng.choice(list(table))]
    return table


def assert_conversions_agree(rng, space, rules):
    """Hazards and density repair agree with their oracles; repair keeps a valid table."""
    for eta in rules:
        public = densities(eta, space)
        assert randomized_to_behavior(eta, space).beta == oracles.hazards(public.rho, space)
        assert repair_densities(public.rho, space) == oracles.repair(public.rho, space) == public
        for _ in range(3):
            candidate = spoiled(rng, public.rho)
            assert repair_densities(candidate, space) == oracles.repair(candidate, space)


def test_kernels_match_oracles_on_fuzzed_spaces():
    count = 0
    for rng, space in fuzzed_spaces():
        rules = [maker(rng, space) for maker in MAKERS]
        assert_passes_agree(rng, space, rules, random_process(rng, space), random_game(rng, space))
        assert_conversions_agree(rng, space, rules)
        count += 1
    assert count == SPACES


def test_behavior_survival_matches_oracle():
    for rng, space in fuzzed_spaces():
        for _ in range(3):
            eta = random_behavior(rng, space)
            assert densities(eta, space) == oracles.behavior_densities(eta.beta, space)


def test_is_zero_sum_matches_oracle():
    for rng, space in fuzzed_spaces():
        zero_sum = random_zero_sum_game(rng, space)
        assert is_zero_sum(zero_sum, space) is oracles.is_zero_sum(zero_sum, space) is True
        general = random_game(rng, space)
        assert is_zero_sum(general, space) is oracles.is_zero_sum(general, space)
        # one cell off: the sum is 1/3, or the numerators are opposite but
        # the denominators differ (1/2 against -1/3)
        n = rng.randint(1, space.horizon)
        b = rng.choice(space.blocks(n))
        for x, y in ((zero_sum.process(1, ONLY_1).values[n][b], None), (F(1, 2), F(-1, 3))):
            y = -x + F(1, 3) if y is None else y
            game = with_cell(zero_sum, n, b, x, y)
            assert is_zero_sum(game, space) is oracles.is_zero_sum(game, space) is False


def with_cell(game, n, b, x, y):
    """``game`` with player 1's and player 2's {1}-payoffs at (n, b) set to x and y."""
    table = dict(game.payoffs)
    for player, value in ((1, x), (2, y)):
        process = table[player, ONLY_1]
        values = {m: dict(level) for m, level in process.values.items()}
        values[n][b] = value
        table[player, ONLY_1] = AdaptedProcess(values=values, infinity=process.infinity)
    return StoppingGame(payoffs=table)


@pytest.fixture(scope="module")
def long_chain():
    return chain(1200)


def test_kernels_match_oracles_on_a_long_chain(long_chain):
    rng = random.Random(1200)
    space = long_chain
    hazards = chain_hazards(rng, space)
    assert densities(hazards, space) == oracles.behavior_densities(hazards.beta, space)
    randomized = densities(hazards, space)
    problem = random_process(rng, space)
    game = random_zero_sum_game(rng, space)
    assert is_zero_sum(game, space) is oracles.is_zero_sum(game, space) is True
    assert_passes_agree(rng, space, [hazards, randomized], problem, game)
    assert_conversions_agree(rng, space, [hazards, randomized])


def oracle_gains(eta1, eta2, game, space) -> list:
    """Per player, the most a lone deviation gains: the optimum of the problem the opponent
    sets, less the player's payoff in it, both from the oracles."""
    d1, d2 = densities(eta1, space), densities(eta2, space)
    gains = []
    for player, own, other in ((1, d1, d2), (2, d2, d1)):
        problem = oracles.fold(other.rho, game, space, player)
        gains.append(oracles.snell(problem, space)[0] - oracles.pair(own, problem, space))
    return gains


def one_cell(rng):
    space = make_singleton()
    return space, pure({"w": 1})


def every_cell(rng):
    space = chain(6)
    return space, chain_hazards(rng, space)


def never(rng):
    space = make_e1()
    return space, pure({a: INFINITY for a in space.atoms})


@pytest.mark.parametrize(
    "edge, support",
    [
        (one_cell, lambda space: [0]),
        (every_cell, lambda space: list(range(len(space.cell_ids)))),
        (never, lambda space: list(range(space.root, len(space.cell_ids)))),
    ],
)
def test_pairings_match_oracles_at_the_edges_of_the_support(edge, support):
    """A support of one cell, of every cell (a chain whose hazards all lie strictly inside
    (0, 1)) and of the atoms' INFINITY cells alone (a rule that never stops): ``payoff``,
    ``game_payoff`` and ``check_epsilon_equilibrium`` equal the oracles' pairing, against
    rules of every type and in both seats."""
    rng = random.Random(edge.__name__)
    space, eta = edge(rng)
    mass = check(eta, space).derive(mass_of, space)
    assert mass.numbers == support(space)
    public = densities(eta, space)
    for _ in range(4):
        problem = random_process(rng, space)
        assert payoff(eta, problem, space) == oracles.pair(public, problem, space)
        for game in (random_game(rng, space), random_zero_sum_game(rng, space)):
            for eta1, eta2 in ((eta, eta), (eta, random_stopping_time(rng, space))):
                for one, two in ((eta1, eta2), (eta2, eta1)):
                    d1, d2 = densities(one, space), densities(two, space)
                    assert game_payoff(one, two, game, space) == (
                        oracles.pair(d1, oracles.fold(d2.rho, game, space, 1), space),
                        oracles.pair(d2, oracles.fold(d1.rho, game, space, 2), space),
                    )
                    gain = max(oracle_gains(one, two, game, space))
                    for epsilon in {F(0), gain / 2, gain}:
                        assert check_epsilon_equilibrium(one, two, game, epsilon, space) is (
                            gain <= epsilon
                        )
