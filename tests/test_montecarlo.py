import copy
import math
import random
from fractions import Fraction as F
from itertools import accumulate, cycle, product

import numpy as np
import pytest

from stopwright import (
    BOTH,
    BehaviorStoppingTime,
    MixedStoppingTime,
    PureStoppingTime,
    RandomizedStoppingTime,
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
    stopping_game,
)
from stopwright.games import kept_game
from stopwright.montecarlo import (
    CHUNK_SIZE,
    _buckets,
    _counter,
    _hazards,
    _outcomes,
    _payoff_grids,
    _space_arrays,
    _stop_columns,
    _stop_table,
    _threshold,
    chunk_plan,
    detailed_counts_chunk,
)
from stopwright.space import FilteredSpace
from stopwright.stopping import check, mass_of

import oracles
from oracles import sample_stop_time
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

    @pytest.mark.parametrize(
        "size, seed, chunk_index, error",
        [
            (100, True, 0, TypeError),
            (2.5, 1, 0, TypeError),
            (100, 1, True, TypeError),
            (100, 1, 1.0, TypeError),
            (0, 1, 0, ValueError),
            (100, -1, 0, ValueError),
            (100, 1, -1, ValueError),
        ],
    )
    def test_chunk_ints_are_checked_first(self, e1, r1, size, seed, chunk_index, error):
        """``detailed_counts_chunk`` checks its ints as the ``empirical_*`` calls do, before
        any rule is read: True is no seed 1, and an empty chunk is no chunk."""
        for eta in (pure({a: 3 for a in e1.atoms}), r1):
            with pytest.raises(error, match="samples|seed|chunk_index"):
                detailed_counts_chunk(eta, e1, size, seed, chunk_index)

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


@pytest.mark.parametrize(
    "samples", [-1, 0, 1, CHUNK_SIZE - 1, CHUNK_SIZE, CHUNK_SIZE + 1, 3 * CHUNK_SIZE]
)
def test_chunk_plan_matches_the_loop(samples):
    plan = chunk_plan(samples)
    assert plan == oracles.chunk_plan(samples)
    assert sum(size for _, size in plan) == max(samples, 0)


class TestSamplerStaysOnTheSupport:
    """The sampler never realizes a stop to which the exact stop mass gives none: every cell a
    run realizes lies in the rule's kept support (``mass_of``)."""

    @staticmethod
    def realized(space, counts, column=None) -> set:
        """The cells of the counted stops with a positive count: of one rule's counts, or of
        the ``column`` of a pair of stop indices."""
        cells = set()
        for j, atom in enumerate(space.atoms):
            for t, count in counts[atom].items():
                t = t if column is None else t[column]
                if count:
                    cells.add(space.root + j if t == INFINITY else space.paths[j][t - 1])
        return cells

    def test_every_realized_cell_has_exact_mass_on_fuzzed_spaces(self):
        rng = random.Random(48)
        partial = 0
        for seed in range(12):
            space = random_space(rng)
            rules = [make(rng, space) for make in MAKERS]
            supports = [set(check(eta, space).derive(mass_of, space).numbers) for eta in rules]
            partial += sum(len(s) < len(space.cell_ids) for s in supports)
            for eta, support in zip(rules, supports):
                counts = empirical_detailed_distribution(eta, space, 2000, seed).counts
                assert self.realized(space, counts) <= support
            for k in range(len(rules)):
                for m in range(len(rules)):
                    joint = empirical_joint_distribution(rules[k], rules[m], space, 2000, seed)
                    assert self.realized(space, joint.counts, 0) <= supports[k]
                    assert self.realized(space, joint.counts, 1) <= supports[m]
        assert partial > 24  # most rules leave some cells without mass


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

    @staticmethod
    def flat_lookup_space():
        """Four periods, one to three children per node and atoms of unequal probability."""
        nodes, frontier, widths = [{"id": "r", "parent": None}], ["r"], cycle([2, 1, 3])
        for _ in range(4):
            children = [(f"{parent}.{i}", parent) for parent in frontier for i in range(next(widths))]
            nodes += [{"id": child, "parent": parent} for child, parent in children]
            frontier = [child for child, _ in children]
        weights = [k % 5 + 1 for k in range(len(frontier))]
        for node, w in zip(nodes[-len(frontier) :], weights):
            node["prob"] = F(w, sum(weights))
        return FilteredSpace(nodes)

    def test_flat_lookup_reads_each_cell_of_the_game(self):
        """On a space of T = 4 with uneven atoms, ``_payoff_grids``' flat lookup gives, for every
        atom and pair of stop columns, each player's payoff of the coalition that stops first,
        at the earlier time; and every pair of rule types' means equal the per-cell loop."""
        rng = random.Random(53)
        space = self.flat_lookup_space()
        T, atoms = space.horizon, len(space.atoms)
        assert T >= 3 and len(set(space.atom_mass)) > 1
        game = random_game(rng, space)
        grids, lookup = kept_game(game, space).derive(_payoff_grids, space)
        assert grids.shape == (2, 3 * atoms * (T + 1)) and lookup.shape == ((T + 1) ** 2,)
        times = space.times
        for i, atom in enumerate(space.atoms):
            for j1, j2 in product(range(T + 1), repeat=2):
                t1, t2 = times[j1], times[j2]
                c = ONLY_1 if t1 < t2 else ONLY_2 if t2 < t1 else BOTH
                cell = lookup[j1 * (T + 1) + j2] + i * (T + 1)
                for k, player in enumerate((1, 2)):
                    value = game.process(player, c).value_at(space, min(t1, t2), atom)
                    assert grids[k, cell] == float(value)
        rules = [make(rng, space) for make in MAKERS]
        for eta1, eta2 in product(rules, repeat=2):
            total = dense_total((eta1, eta2), space, 5000, 3)
            expected = oracles.empirical_game_payoff(total, game, space, 5000)
            got = empirical_game_payoff(eta1, eta2, game, space, 5000, 3)
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


class FixedDraws:
    """A generator stand-in: each ``random(size)`` hands out the next preset draws of one stream,
    in order, in that shape, as a generator hands out its own."""

    def __init__(self, draws):
        self.draws, self.used = np.asarray(draws, float).ravel(), 0

    def random(self, size):
        start, self.used = self.used, self.used + math.prod(np.atleast_1d(size).tolist())
        assert self.used <= len(self.draws), "more draws asked for than preset"
        return self.draws[start : self.used].reshape(size)


def around(values) -> np.ndarray:
    """Each value in [0, 1), with its float neighbours inside [0, 1)."""
    values = np.asarray(values, float)
    near = np.concatenate([values, np.nextafter(values, 0), np.nextafter(values, 1)])
    return np.unique(near[(near >= 0) & (near < 1)])


#: Per rule type, the exact values a sample's draws are compared with, from the rule and the
#: path of the sample's atom: the path's cumulative stop masses, its hazards, or the breakpoints.
THRESHOLDS = {
    PureStoppingTime: lambda eta, path: [],
    RandomizedStoppingTime: lambda eta, path: [*accumulate(eta.rho[n][b] for n, b in path)],
    BehaviorStoppingTime: lambda eta, path: [eta.beta[n][b] for n, b in path],
    MixedStoppingTime: lambda eta, path: [*eta.breakpoints],
}


def near_miss(row, thresholds) -> bool:
    """True iff a draw lies within 1e-12 of a threshold but not on it, where a float comparison
    may decide otherwise than an exact one."""
    return any(abs(r - float(c)) <= 1e-12 and F(r) != c for r in row for c in thresholds)


class TestSamplingKernelsMatchTheirOracles:
    """Each chunk kernel returns exactly what its first form in ``oracles`` returns on the same
    draws: the bucket lookup of the outcome atom, and the stop column of a randomized and of a
    behavior rule."""

    @staticmethod
    def tiny_atoms():
        """Two atoms below the least float among four, so two cumulative probabilities round
        alike, and an ambiguous bucket holds more than one of them."""
        tiny = F(1, 2**1100)
        probs = [tiny, tiny, F(1, 3), F(2, 3) - 2 * tiny]
        nodes = [{"id": "r", "parent": None}]
        nodes += [{"id": f"a{j}", "parent": "r", "prob": p} for j, p in enumerate(probs)]
        return FilteredSpace(nodes)

    @pytest.mark.parametrize("shape", ["e1", "uneven", "tiny atoms", "fuzzed"])
    def test_outcome_atom_is_the_sorted_search(self, shape, e1, uneven):
        space = {"e1": e1, "uneven": uneven, "tiny atoms": self.tiny_atoms()}.get(shape)
        space = space or random_space(random.Random(41), max_depth=3, max_branch=3)
        cum, buckets, _ = _space_arrays(space)
        K = len(buckets)
        assert K == 1 << (16 * len(space.atoms) - 1).bit_length() and K >= 16 * len(space.atoms)
        assert (buckets < 0).any() and (buckets >= 0).any()
        draws = np.concatenate(
            [[0.0], around(np.arange(K) / K), around(cum), np.random.default_rng(3).random(5000)]
        )
        got = _outcomes(cum, buckets, draws)
        assert got.dtype == np.intp
        assert np.array_equal(got, oracles.outcomes(cum, buckets, draws))

    def test_buckets_of_cumulative_probabilities_that_repeat(self):
        cum = np.array([0.0, 0.0, 0.25, 0.25, 0.5 + 2**-40, 1.0, 1.0])
        buckets = _buckets(cum)
        assert len(buckets) == 128 and buckets[0] == -1 and buckets[-1] == 5
        draws = np.concatenate([[0.0], around(np.arange(128) / 128), around(cum)])
        assert np.array_equal(_outcomes(cum, buckets, draws), oracles.outcomes(cum, buckets, draws))

    def assert_threshold_is_the_oracle_at_every_edge(self, parts):
        """Per atom, draws at every bucket edge k/K and at every cumulative mass, each with its
        float neighbours, and 0.0 and the least floats: the kernel's stop columns are the
        oracle's."""
        cum, table = parts
        K, atoms = table.shape[1], cum.shape[1]
        edges = np.concatenate([np.arange(K) / K, [5e-324, 1e-320, 1e-310], cum.ravel()])
        r = np.concatenate([[0.0], around(edges)])
        atom_idx, draws = np.repeat(np.arange(atoms), len(r)), np.tile(r, atoms)
        got = _threshold(parts, FixedDraws(draws), atom_idx)
        expected = oracles.threshold(parts, FixedDraws(draws), atom_idx)
        assert got.dtype == np.intp and np.array_equal(got, expected)
        return got

    def test_randomized_stop_is_the_first_positive_mass_that_reaches_the_draw(self):
        # (T, atoms): each column nondecreasing, some all zero, some starting at the least float,
        # one with masses sharing a bucket, one whose masses all lie on bucket edges, and one
        # whose zero mass the least float follows
        cum = np.array(
            [
                [0.0, 0.0, 5e-324, 0.5, 1e-320, 0.0, 0.25, 1 / 64, 0.0],
                [0.0, 0.25, 0.5, 0.5, 1e-310, 1.0, 0.25 + 2**-40, 0.5, 5e-324],
                [0.0, 0.25, 0.5, 0.75, 0.3, 1.0, 0.25 + 2**-20, 0.5, 0.5],
                [0.0, 1.0, 0.5, 1.0, 0.3, 1.0, 0.26, 1.0, 0.5],
            ]
        )
        table = _stop_table(cum)
        parts = (cum, table)
        K = 1 << (16 * 4 - 1).bit_length()
        assert table.shape == (9, K) and K >= 16 * 4 and table.dtype == np.int8
        assert (table < 0).any() and (table >= 0).any()
        assert (table[0] == 4).all()  # zero mass: never stops
        assert table[1, 0] == 1 and table[6, 16] == -1  # four masses in one bucket
        got = self.assert_threshold_is_the_oracle_at_every_edge(parts)
        assert {0, 1, 2, 3, 4} <= set(got.tolist())  # every time, and never

    def test_randomized_stop_on_fuzzed_rules_at_every_edge(self):
        """The samplers' own parts, for randomized rules on fuzzed spaces, some 12 deep."""
        rng = random.Random(47)
        marked = 0
        for k in range(12):
            space = random_space(rng, max_depth=12 if k % 3 == 0 else 4)
            parts = _stop_columns(random_randomized(rng, space), space).args[0]
            T = space.horizon
            assert parts[1].shape == (len(space.atoms), 1 << (16 * T - 1).bit_length())
            assert parts[1].dtype == np.min_scalar_type(-(T + 1))
            marked += int((parts[1] < 0).sum())
            self.assert_threshold_is_the_oracle_at_every_edge(parts)
        assert marked

    def test_behavior_stop_is_the_first_draw_below_its_hazard(self):
        hazard = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.5, 1.0], [0.25, 0.25, 0.75]])
        values = np.concatenate([[0.0], around(hazard.ravel()), [1 - 2**-53]])
        rows = np.array(np.meshgrid(values, values, values)).reshape(3, -1).T
        atom_idx = np.repeat(np.arange(len(hazard)), len(rows))
        draws = np.tile(rows, (len(hazard), 1))
        got = _hazards(hazard, FixedDraws(draws), atom_idx)
        expected = oracles.hazard_stops(hazard, FixedDraws(draws), atom_idx)
        assert np.array_equal(got, expected)
        assert set(got.tolist()) == {0, 1, 2, 3}

    def test_every_rule_sampler_matches_its_oracle_on_fixed_draws(self, uneven):
        rng = random.Random(43)
        kernels = {_threshold: oracles.threshold, _hazards: oracles.hazard_stops}
        draws = np.random.default_rng(4)
        atom_idx = np.tile(np.arange(len(uneven.atoms)), 300)
        for make in (random_randomized, random_behavior):
            sampler = _stop_columns(make(rng, uneven), uneven)
            per_sample = 1 if sampler.func is _threshold else uneven.horizon
            u = draws.random(len(atom_idx) * per_sample)
            u[::7] = 0.0
            got = sampler(FixedDraws(u), atom_idx)
            expected = kernels[sampler.func](*sampler.args, FixedDraws(u), atom_idx)
            assert np.array_equal(got, expected)


    def test_every_sampler_stops_where_the_exact_run_stops(self):
        """Each rule type's sampler stops every sample where ``oracles.sample_stop_time``, the
        exact run of the rule from explicit uniform draws, stops on the same draws.  A behavior
        row holds T draws, of which the exact run reads a prefix.  Some draws are 0.0, and some
        tie with a threshold of their atom below 1 that a float holds exactly.  A sample with a
        near miss (``near_miss``) is skipped."""
        rng, uniform = random.Random(45), np.random.default_rng(45)
        compared, skipped = dict.fromkeys(THRESHOLDS, 0), 0
        for _ in range(16):
            space = random_space(rng)
            T, atom_idx = space.horizon, np.tile(np.arange(len(space.atoms)), 30)
            paths = [[(n, space.block_of(n, a)) for n in range(1, T + 1)] for a in space.atoms]
            for make in MAKERS:
                eta = make(rng, space)
                thresholds = [THRESHOLDS[type(eta)](eta, path) for path in paths]
                width = {PureStoppingTime: 0, BehaviorStoppingTime: T}.get(type(eta), 1)
                draws = uniform.random((len(atom_idx), width))
                ties = [[float(c) for c in cs if c < 1 and F(float(c)) == c] for cs in thresholds]
                for row, j in zip(draws, atom_idx.tolist()):
                    if width and ties[j] and rng.random() < 0.5:
                        row[rng.randrange(width)] = rng.choice(ties[j])
                    if width and rng.random() < 0.2:
                        row[rng.randrange(width)] = 0.0
                columns = _stop_columns(eta, space)(FixedDraws(draws), atom_idx).tolist()
                for row, j, column in zip(draws.tolist(), atom_idx.tolist(), columns):
                    if near_miss(row, thresholds[j]):
                        skipped += 1
                        continue
                    stop = sample_stop_time(eta, space, space.atoms[j], iter(row))
                    assert space.times[column] == stop, (type(eta).__name__, row, thresholds[j])
                    compared[type(eta)] += 1
        assert min(compared.values()) > 1000 and skipped < sum(compared.values()) / 10
