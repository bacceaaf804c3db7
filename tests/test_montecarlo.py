import copy
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from stopwright import (
    BOTH,
    ValidationError,
    INFINITY,
    ONLY_1,
    ONLY_2,
    adapted_process,
    behavior,
    constant_process,
    detailed_distribution,
    empirical_detailed_distribution,
    empirical_game_payoff,
    empirical_joint_distribution,
    game_payoff,
    pure,
    randomized,
    randomized_to_mixed,
    sample_stop_time,
    stopping_game,
)
from stopwright.montecarlo import (
    CHUNK_SIZE,
    _counter,
    _stop_columns,
    chunk_plan,
    detailed_counts_chunk,
)
from stopwright.space import FilteredSpace

import oracles
from fuzz import (
    MAKERS,
    make_r1,
    negate_process,
    random_behavior,
    random_game,
    random_randomized,
    random_space,
    random_stopping_time,
)

SAMPLES = 100_000
TOLERANCE = 0.02


def dense_total(rules, space, samples, seed, plan=None):
    """Counts by (atom, *stop columns): each chunk's flat cell indices counted into the whole
    grid, and the grids of the chunks of ``plan`` (all of them by default) added up."""
    cells, shape = _counter(rules, space)
    grids = (
        np.bincount(cells(size, seed, index), minlength=math.prod(shape)).reshape(shape)
        for index, size in (chunk_plan(samples) if plan is None else plan)
    )
    return sum(grids)


def max_abs_gap(space, empirical, exact):
    return max(
        abs(empirical.frequencies[a][t] - float(exact.mass[a][t]))
        for a in space.atoms
        for t in space.times
    )


class TestSampleStopTime:
    def test_pure_consumes_no_draws(self, e1):
        sigma = pure({"w1": 1, "w2": 1, "w3": 2, "w4": 2})
        assert sample_stop_time(sigma, e1, "w3", iter([])) == 2

    def test_randomized_threshold(self, e1, r1):
        assert sample_stop_time(r1, e1, "w1", iter([0.3])) == 1
        assert sample_stop_time(r1, e1, "w1", iter([0.7])) == 2
        assert sample_stop_time(r1, e1, "w2", iter([0.51])) == INFINITY
        # boundary draws hit cumulative sums exactly
        assert sample_stop_time(r1, e1, "w1", iter([F(1, 2)])) == 1

    def test_behavior_survival(self, e1, b1):
        assert sample_stop_time(b1, e1, "w3", iter([0.5, 0.2])) == 2
        assert sample_stop_time(b1, e1, "w3", iter([0.1])) == 1
        assert sample_stop_time(b1, e1, "w3", iter([0.9, 0.9])) == INFINITY

    def test_zero_draw_never_realizes_zero_mass(self, e1, b1):
        # b1 has hazard 0 on w2 at time 2, so w2 either stops at 1 or never
        assert sample_stop_time(b1, e1, "w2", iter([0.9, 0.0])) == INFINITY
        late = randomized(
            rho={1: {"A": 0, "B": 0}, 2: {w: "1/2" for w in e1.atoms}},
            rho_inf={w: "1/2" for w in e1.atoms},
        )
        assert sample_stop_time(late, e1, "w1", iter([0.0])) == 2

        class Zeros:
            def random(self, shape):
                return np.zeros(shape)

        atom_idx = np.arange(len(e1.atoms))
        # columns are 0-based times; column T is "never"
        assert list(_stop_columns(b1, e1)(Zeros(), atom_idx)) == [0, 0, 0, 0]
        assert list(_stop_columns(late, e1)(Zeros(), atom_idx)) == [1, 1, 1, 1]
        hazard_zero = behavior(beta={1: {"A": 0, "B": 0}, 2: {w: 0 for w in e1.atoms}})
        assert list(_stop_columns(hazard_zero, e1)(Zeros(), atom_idx)) == [2, 2, 2, 2]

    def test_mixed_section_selection(self, e1, r1):
        mix = randomized_to_mixed(r1, e1)
        # breakpoints (0, 1/4, 1/2, 1]: draws pick sections by interval
        assert sample_stop_time(mix, e1, "w3", iter([0.2])) == 1
        assert sample_stop_time(mix, e1, "w3", iter([0.4])) == 2
        assert sample_stop_time(mix, e1, "w3", iter([0.8])) == INFINITY


class TestEmpiricalDistribution:
    def test_pure_rule_concentrates_exactly(self, e1):
        sigma = pure({"w1": 1, "w2": 1, "w3": 2, "w4": INFINITY})
        result = empirical_detailed_distribution(sigma, e1, 5000, seed=3)
        for a in e1.atoms:
            for t in e1.times:
                if t != sigma.stop[a]:
                    assert result.counts[a][t] == 0
        assert sum(result.counts[a][sigma.stop[a]] for a in e1.atoms) == 5000

    def test_r1_within_tolerance(self, e1, r1):
        result = empirical_detailed_distribution(r1, e1, SAMPLES, seed=42)
        assert max_abs_gap(e1, result, detailed_distribution(r1, e1)) <= TOLERANCE

    def test_zero_samples_rejected(self, e1, r1):
        with pytest.raises(ValueError):
            empirical_detailed_distribution(r1, e1, 0, seed=1)

    def test_negative_seed_rejected(self, e1, r1):
        with pytest.raises(ValueError):
            empirical_detailed_distribution(r1, e1, 10, seed=-1)

    @pytest.mark.parametrize("samples, seed", [(True, 1), (2.5, 1), (10, True), (10, 1.0)])
    def test_samples_and_seed_are_ints(self, e1, r1, samples, seed):
        """Refused before any rule is read: True is no sample count and no seed 1."""
        bad_rule = pure({a: 3 for a in e1.atoms})
        game = random_game(random.Random(1), e1)
        calls = (
            lambda eta: empirical_detailed_distribution(eta, e1, samples, seed),
            lambda eta: empirical_joint_distribution(eta, r1, e1, samples, seed),
            lambda eta: empirical_game_payoff(eta, r1, game, e1, samples, seed),
        )
        for call in calls:
            for eta in (bad_rule, r1):
                with pytest.raises(TypeError, match="must be an int"):
                    call(eta)

    def test_seed_determinism(self, e1, b1):
        first = empirical_detailed_distribution(b1, e1, 20_000, seed=9)
        second = empirical_detailed_distribution(b1, e1, 20_000, seed=9)
        assert first.counts == second.counts
        third = empirical_detailed_distribution(b1, e1, 20_000, seed=10)
        assert third.counts != first.counts

    @pytest.mark.parametrize("players", [1, 2], ids=["one-rule", "two-rules"])
    def test_partitioning_does_not_change_totals(self, e1, r1, b1, players):
        rules, samples, seed = (r1, b1)[:players], 10_000, 5
        if players == 1:
            whole = empirical_detailed_distribution(r1, e1, samples, seed)
        else:
            whole = empirical_joint_distribution(r1, b1, e1, samples, seed)
        # the public counts, per atom, in the counter's C order of cells
        expected = np.array([list(row.values()) for row in whole.counts.values()])
        plan = chunk_plan(samples)
        assert len(plan) > 1
        # split the chunk list across two "workers" in two different ways, the later first
        for cut in (1, len(plan) - 1):
            partial = 0
            for worker in (plan[cut:], plan[:cut]):
                partial = partial + dense_total(rules, e1, samples, seed, worker)
            assert np.array_equal(partial.reshape(len(e1.atoms), -1), expected)
        if players == 1:  # the public one-chunk call is the same counter
            chunk = detailed_counts_chunk(r1, e1, 100, seed, 3)
            assert np.array_equal(chunk, dense_total(rules, e1, 100, seed, [(3, 100)]))


class TestEmpiricalJoint:
    def test_factorization_within_noise(self, singleton):
        coin1 = behavior(beta={1: {"w": "1/2"}})
        coin2 = behavior(beta={1: {"w": "1/3"}})
        joint = empirical_joint_distribution(coin1, coin2, singleton, SAMPLES, seed=11)
        m1 = {t: 0.0 for t in singleton.times}
        m2 = {t: 0.0 for t in singleton.times}
        for (t1, t2), freq in joint.frequencies["w"].items():
            m1[t1] += freq
            m2[t2] += freq
        for (t1, t2), freq in joint.frequencies["w"].items():
            assert abs(freq - m1[t1] * m2[t2]) <= TOLERANCE

    def test_marginals_near_exact(self, e1, r1, b1):
        joint = empirical_joint_distribution(r1, b1, e1, SAMPLES, seed=13)
        exact = detailed_distribution(r1, e1)
        for a in e1.atoms:
            for t in e1.times:
                freq = sum(
                    f for (t1, _), f in joint.frequencies[a].items() if t1 == t
                )
                assert abs(freq - float(exact.mass[a][t])) <= TOLERANCE


class TestEmpiricalGamePayoff:
    def test_constant_game_is_exact(self, e1, r1, b1):
        game = stopping_game(
            {(j, c): constant_process(e1, 3) for j in (1, 2) for c in (ONLY_1, ONLY_2, BOTH)}
        )
        assert empirical_game_payoff(r1, b1, game, e1, 2000, seed=1) == (3.0, 3.0)

    def test_half_half_fixture_within_tolerance(self, singleton):
        def proc(at_one, at_inf=0):
            return adapted_process(values={1: {"w": at_one}}, infinity={"w": at_inf})

        table = {(1, BOTH): proc(2, 1), (1, ONLY_1): proc(0), (1, ONLY_2): proc(0)}
        for c in (BOTH, ONLY_1, ONLY_2):
            table[(2, c)] = negate_process(table[(1, c)])
        game = stopping_game(table)
        coin = behavior(beta={1: {"w": "1/2"}})
        exact = game_payoff(coin, coin, game, singleton)
        got = empirical_game_payoff(coin, coin, game, singleton, SAMPLES, seed=17)
        assert abs(got[0] - float(exact[0])) <= TOLERANCE
        assert abs(got[1] - float(exact[1])) <= TOLERANCE

    def test_pure_profile_exact_on_singleton(self, singleton):
        def proc(at_one, at_inf=0):
            return adapted_process(values={1: {"w": at_one}}, infinity={"w": at_inf})

        table = {(1, BOTH): proc(5, 1), (1, ONLY_1): proc(2), (1, ONLY_2): proc(-3)}
        for c in (BOTH, ONLY_1, ONLY_2):
            table[(2, c)] = negate_process(table[(1, c)])
        game = stopping_game(table)
        sigma1, never = pure({"w": 1}), pure({"w": INFINITY})
        exact = game_payoff(sigma1, never, game, singleton)
        got = empirical_game_payoff(sigma1, never, game, singleton, 1000, seed=23)
        assert got == (float(exact[0]), float(exact[1]))

    def test_seed_determinism(self, e1):
        rng = random.Random(29)
        eta1 = random_stopping_time(rng, e1)
        eta2 = random_stopping_time(rng, e1)
        from fuzz import random_game

        game = random_game(rng, e1)
        first = empirical_game_payoff(eta1, eta2, game, e1, 30_000, seed=31)
        second = empirical_game_payoff(eta1, eta2, game, e1, 30_000, seed=31)
        assert first == second


class TestGamePayoffMatchesPerCellLoop:
    """The means equal the per-cell loop of ``oracles.empirical_game_payoff`` exactly."""

    @staticmethod
    def big_denominators(rng, space):
        """A game whose values need every bit of a float, over a shared denominator of many bits."""

        def value():
            return F(rng.randrange(-(2**90), 2**90), rng.randrange(1, 2**70))

        def process():
            return adapted_process(
                values={n: {b: value() for b in space.blocks(n)} for n in space.times[:-1]},
                infinity={a: value() for a in space.atoms},
            )

        return stopping_game({(j, c): process() for j in (1, 2) for c in (ONLY_1, ONLY_2, BOTH)})

    def test_every_pair_of_rule_kinds_on_fuzzed_spaces(self):
        rng = random.Random(707)
        seen = set()
        for k in range(8):
            space = random_space(rng)
            game = random_game(rng, space) if k % 2 else self.big_denominators(rng, space)
            rules = [maker(rng, space) for maker in MAKERS]
            for eta1 in rules:
                for eta2 in rules:
                    samples, seed = rng.randint(1, 3000), rng.randrange(100)
                    total = dense_total((eta1, eta2), space, samples, seed)
                    expected = oracles.empirical_game_payoff(total, game, space, samples)
                    got = empirical_game_payoff(eta1, eta2, game, space, samples, seed)
                    assert repr(got) == repr(expected)
                    for _, j1, j2 in zip(*np.nonzero(total)):
                        tie = "never" if j1 == j2 == space.horizon else "tie"
                        seen.add("1 first" if j1 < j2 else "2 first" if j2 < j1 else tie)
        # each player's lone-stop coalition, both stopping, and nobody ever stopping
        assert seen == {"1 first", "2 first", "tie", "never"}

    @pytest.mark.parametrize("shape", ["fuzzed", "chain"])
    @pytest.mark.parametrize("samples", [1, 3, CHUNK_SIZE + 1])
    def test_means_equal_the_oracle_to_the_bit_on_seeds_0_to_7(self, samples, shape):
        rng = random.Random(samples)
        if shape == "chain":  # one block at each of times 1..39, then three atoms at time 40
            nodes = [{"id": "c0", "parent": None}]
            nodes += [{"id": f"c{n}", "parent": f"c{n - 1}"} for n in range(1, 40)]
            probs = {"x": "1/2", "y": "1/3", "z": "1/6"}
            nodes += [{"id": a, "parent": "c39", "prob": p} for a, p in probs.items()]
            space = FilteredSpace(nodes)
        else:
            space = random_space(rng)
        game = self.big_denominators(rng, space)
        eta1, eta2 = random_behavior(rng, space), random_randomized(rng, space)
        for seed in range(8):
            total = dense_total((eta1, eta2), space, samples, seed)
            expected = oracles.empirical_game_payoff(total, game, space, samples)
            got = empirical_game_payoff(eta1, eta2, game, space, samples, seed)
            assert [x.hex() for x in got] == [x.hex() for x in expected]

    def test_payoffs_that_round_to_minus_zero(self, e1, r1, b1):
        # every term is -0.0; a sum started at 0.0 stays 0.0
        tiny = constant_process(e1, F(-1, 10**400))
        game = stopping_game({(j, c): tiny for j in (1, 2) for c in (ONLY_1, ONLY_2, BOTH)})
        expected = oracles.empirical_game_payoff(dense_total((r1, b1), e1, 700, 2), game, e1, 700)
        got = empirical_game_payoff(r1, b1, game, e1, 700, seed=2)
        assert repr(got) == repr(expected) == "(0.0, 0.0)"


class TestOneSpentPass:
    """A randomized rule is validated and gets its sampler's cumulative table from one spent pass."""

    @pytest.fixture
    def passes(self, monkeypatch):
        calls = []
        real = FilteredSpace.spent

        def counting(self, rho):
            calls.append(rho)
            return real(self, rho)

        monkeypatch.setattr(FilteredSpace, "spent", counting)
        return calls

    def test_one_pass_per_randomized_rule_per_call(self, passes, e1, r1, b1):
        game = stopping_game(
            {(j, c): constant_process(e1, 3) for j in (1, 2) for c in (ONLY_1, ONLY_2, BOTH)}
        )
        empirical_game_payoff(r1, b1, game, e1, 1000, seed=1)
        assert len(passes) == 1
        passes.clear()
        # r1's check is kept: no call after the first adds it up again
        empirical_game_payoff(r1, b1, game, e1, 1000, seed=1)
        empirical_joint_distribution(r1, r1, e1, 1000, seed=1)
        empirical_detailed_distribution(r1, e1, 1000, seed=1)
        assert len(passes) == 0
        with pytest.raises(TypeError):
            r1.rho_inf["w1"] = F(0)
        twin = copy.deepcopy(r1)
        assert empirical_joint_distribution(twin, twin, e1, 1000, seed=1) == (
            empirical_joint_distribution(r1, r1, e1, 1000, seed=1)
        )
        assert len(passes) == 1
        passes.clear()
        other = make_r1()
        empirical_detailed_distribution(other, e1, 1000, seed=1)
        assert len(passes) == 1

    def test_each_sampler_is_built_once_per_kept_check(self, e1):
        rng = random.Random(31)
        for make in MAKERS:
            eta = make(rng, e1)
            assert _stop_columns(eta, e1) is _stop_columns(eta, e1)
            assert _stop_columns(copy.deepcopy(eta), e1) is not _stop_columns(eta, e1)

    def test_sampling_arguments_are_checked_before_any_input(self, e1, r1, checked, translated):
        broken = randomized(rho=r1.rho, rho_inf={**r1.rho_inf, "w1": F(1, 2)})
        game = stopping_game(
            {(j, c): constant_process(e1, 3) for j in (1, 2) for c in (ONLY_1, ONLY_2, BOTH)}
        )
        calls = (
            lambda eta, *args: empirical_detailed_distribution(eta, e1, *args),
            lambda eta, *args: empirical_joint_distribution(eta, r1, e1, *args),
            lambda eta, *args: empirical_game_payoff(r1, eta, game, e1, *args),
        )
        for call in calls:
            for eta in (broken, r1):
                with pytest.raises(ValueError, match="samples"):
                    call(eta, 0, 1)
                with pytest.raises(ValueError, match="seed"):
                    call(eta, 10, -1)
        assert checked == [] and translated == [] and e1._kept == {}
        with pytest.raises(ValidationError, match="SumNotOne"):
            empirical_detailed_distribution(broken, e1, 10, seed=1)
