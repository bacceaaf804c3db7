import random
from fractions import Fraction as F

import pytest

from stopwright import (
    INFINITY,
    MixedStoppingTime,
    NotAStoppingMeasure,
    PureStoppingTime,
    StoppingMeasure,
    behavior,
    convert,
    densities,
    detailed_distribution,
    equivalent,
    is_stopping_measure,
    measure_to_randomized,
    pure,
    randomized,
    repair_densities,
    stopping_measure,
    validate,
)
from stopwright.convert import measure_rule

import oracles
from fuzz import MAKERS, random_randomized, random_space, random_stopping_time


def section_by_section(eta, space):
    """The threshold construction with one first-stop pass per section.

    Section ``k`` stops each atom at the first block whose cumulative stop
    mass reaches the section's right breakpoint.
    """
    spent = oracles.spent(space, densities(eta, space).rho)
    cuts = {c for c in spent.values() if c > 0}
    cuts.add(F(1))
    breakpoints = (F(0),) + tuple(sorted(cuts))
    sections = tuple(
        PureStoppingTime(stop=oracles.first_stop(space, lambda n, b: spent[n, b] >= right))
        for right in breakpoints[1:]
    )
    return MixedStoppingTime(breakpoints=breakpoints, sections=sections)


class TestMeasureToRandomized:
    def test_recovers_r1(self, e1, r1):
        recovered = measure_to_randomized(detailed_distribution(r1, e1), e1)
        assert recovered.rho == r1.rho
        assert recovered.rho_inf == r1.rho_inf

    def test_concentrated_measure(self, e1):
        nu = stopping_measure({a: {1: e1.prob[a]} for a in e1.atoms}, e1)
        eta = measure_to_randomized(nu, e1)
        assert all(v == 1 for v in eta.rho[1].values())
        assert all(v == 0 for v in eta.rho_inf.values())

    def test_rejects_non_measure(self, e1):
        nu = stopping_measure(
            {
                "w1": {1: F(1, 8), 2: F(1, 8)},
                "w2": {1: F(1, 4)},
                "w3": {1: F(1, 4)},
                "w4": {1: F(1, 4)},
            },
            e1,
        )
        with pytest.raises(NotAStoppingMeasure):
            measure_to_randomized(nu, e1)

    def test_float_masses_are_refused(self, e1, r1):
        """A float mass is refused as every other float input is, at a block's first member
        atom, where the densities are read, and at any other."""
        for atom in ("w1", "w2"):
            mass = {a: dict(row) for a, row in detailed_distribution(r1, e1).mass.items()}
            mass[atom][1] = float(mass[atom][1])
            nu = StoppingMeasure(mass=mass)
            assert not is_stopping_measure(nu, e1)
            with pytest.raises(NotAStoppingMeasure):
                measure_to_randomized(nu, e1)


def perturbations(rng, nu, space) -> dict:
    """``nu``'s mass rows, then changed copies of them by name: one cell raised, mass moved
    between two times of one atom, a negative cell, a wrong INFINITY cell, a row keyed ``True``
    or ``1.0`` in place of time 1, a float mass and, when some block holds two atoms, a density
    that is not constant inside that block."""
    rows = {a: dict(row) for a, row in nu.mass.items()}
    wide = [(n, m) for n, level in enumerate(space.levels, 1) for m in level.values() if len(m) > 1]

    def raised(row, t):
        row[t] += F(1, 9)

    def moved(row, t):
        shift = row[t] / 2 or F(1, 5)
        row[t] -= shift
        row[rng.choice([u for u in space.times if u != t])] += shift

    def negative(row, t):
        row[t] = -F(1, 11)

    def wrong_infinity(row, t):
        row[INFINITY] += F(1, 13)

    def keyed(key):
        def rekey(row, t):
            row[key] = row.pop(1)  # ``key == 1``: dict equality alone takes it for time 1
        return rekey

    def floated(row, t):
        row[t] = float(row[t])

    def changed(change):
        copy = {a: dict(row) for a, row in rows.items()}
        change(copy[rng.choice(space.atoms)], rng.randint(1, space.horizon))
        return copy

    cases = {
        "measure": rows,
        "raised cell": changed(raised),
        "mass moved between times": changed(moved),
        "negative cell": changed(negative),
        "wrong INFINITY cell": changed(wrong_infinity),
        "row keyed True": changed(keyed(True)),
        "row keyed 1.0": changed(keyed(1.0)),
        "float mass": changed(floated),
    }
    if wide:
        n, members = rng.choice(wide)
        split = {a: dict(row) for a, row in rows.items()}
        split[members[-1]][n] += F(1, 7)  # one member's density at n moves off the block's
        split[members[-1]][INFINITY] -= F(1, 7)
        cases["density split inside a block"] = split
    return cases


class TestMeasureDecision:
    """``measure_rule`` repairs the densities read at each block's first atom and keeps the
    rule only if its mass table is the measure: the same answer, ``repr`` included, as the
    candidate rule built, validated and compared in ``oracles.measure_rule``."""

    def test_matches_the_oracle_on_fuzzed_and_perturbed_measures(self):
        rng = random.Random(31)
        answers = {}
        for _ in range(40):
            space = random_space(rng, max_depth=3)
            for make in MAKERS:
                nu = detailed_distribution(make(rng, space), space)
                for name, mass in perturbations(rng, nu, space).items():
                    candidate = StoppingMeasure(mass=mass)
                    got = measure_rule(candidate, space)
                    assert repr(got) == repr(oracles.measure_rule(candidate, space)), name
                    assert is_stopping_measure(candidate, space) is (got is not None)
                    answers.setdefault(name, set()).add(got is not None)
        assert answers.pop("measure") == {True}
        assert answers.pop("mass moved between times") == {True, False}
        assert len(answers) == 7 and all(seen == {False} for seen in answers.values()), answers

    def test_a_stopping_measure_repairs_to_its_own_rule(self):
        rng = random.Random(32)
        for _ in range(20):
            space = random_space(rng, max_depth=3)
            eta = random_stopping_time(rng, space)
            nu = detailed_distribution(eta, space)
            rule = measure_to_randomized(nu, space)
            assert rule == densities(eta, space) == repair_densities(rule.rho, space)


class TestHazardConversion:
    def test_r1_to_behavior_matches_b1(self, e1, r1, b1):
        assert convert(r1, "behavior", e1).beta == b1.beta

    def test_immediate_stop(self, e1):
        eta = randomized(
            rho={1: {"A": 1, "B": 1}, 2: {a: 0 for a in e1.atoms}},
            rho_inf={a: 0 for a in e1.atoms},
        )
        hazards = convert(eta, "behavior", e1)
        assert all(v == 1 for v in hazards.beta[1].values())
        assert all(v == 0 for v in hazards.beta[2].values())

    def test_never_stop(self, e1):
        eta = randomized(
            rho={1: {"A": 0, "B": 0}, 2: {a: 0 for a in e1.atoms}},
            rho_inf={a: 1 for a in e1.atoms},
        )
        hazards = convert(eta, "behavior", e1)
        assert all(v == 0 for level in hazards.beta.values() for v in level.values())

    def test_hazard_identity_reproduces_masses(self):
        rng = random.Random(41)
        for _ in range(20):
            space = random_space(rng, max_depth=3)
            eta = random_randomized(rng, space)
            hazards = convert(eta, "behavior", space)
            for atom in space.atoms:
                survival = F(1)
                for n in range(1, space.horizon + 1):
                    b = hazards.beta[n][space.block_of(n, atom)]
                    mass = eta.rho[n][space.block_of(n, atom)]
                    if survival > 0:
                        assert survival * b == mass
                    survival *= 1 - b


class TestBehaviorToRandomized:
    def test_b1_to_r1(self, e1, r1, b1):
        produced = convert(b1, "randomized", e1)
        assert produced.rho == r1.rho
        assert produced.rho_inf == r1.rho_inf

    def test_all_zero_hazard(self, e1):
        hazards = behavior(beta={1: {"A": 0, "B": 0}, 2: {a: 0 for a in e1.atoms}})
        eta = convert(hazards, "randomized", e1)
        assert all(v == 1 for v in eta.rho_inf.values())

    def test_certain_first_period(self, e1):
        hazards = behavior(beta={1: {"A": 1, "B": 1}, 2: {a: "1/2" for a in e1.atoms}})
        eta = convert(hazards, "randomized", e1)
        assert all(v == 1 for v in eta.rho[1].values())
        assert all(v == 0 for v in eta.rho[2].values())


class TestRandomizedToMixed:
    def test_r1_breakpoints_and_sections(self, e1, r1):
        mix = convert(r1, "mixed", e1)
        assert mix.breakpoints == (F(0), F(1, 4), F(1, 2), F(1))
        assert mix.sections[0].stop == {a: 1 for a in e1.atoms}
        assert mix.sections[1].stop == {"w1": 1, "w2": 1, "w3": 2, "w4": 2}
        assert mix.sections[2].stop == {"w1": 2, "w2": INFINITY, "w3": INFINITY, "w4": 2}

    def test_degenerate_rule_gives_single_section(self, e1):
        eta = randomized(
            rho={1: {"A": 1, "B": 1}, 2: {a: 0 for a in e1.atoms}},
            rho_inf={a: 0 for a in e1.atoms},
        )
        mix = convert(eta, "mixed", e1)
        assert mix.breakpoints == (F(0), F(1))
        assert mix.sections[0].stop == {a: 1 for a in e1.atoms}

    def test_never_stop_gives_single_infinite_section(self, e1):
        eta = randomized(
            rho={1: {"A": 0, "B": 0}, 2: {a: 0 for a in e1.atoms}},
            rho_inf={a: 1 for a in e1.atoms},
        )
        mix = convert(eta, "mixed", e1)
        assert len(mix.sections) == 1
        assert mix.sections[0].stop == {a: INFINITY for a in e1.atoms}

    def test_sections_are_always_valid(self):
        rng = random.Random(8)
        for _ in range(25):
            space = random_space(rng, max_depth=3)
            mix = convert(random_randomized(rng, space), "mixed", space)
            assert validate(mix, space) is None
            for section in mix.sections:
                assert validate(section, space) is None

    def test_one_pass_matches_one_pass_per_section(self):
        rng = random.Random(10)
        for _ in range(40):
            space = random_space(rng)
            for maker in MAKERS:
                eta = maker(rng, space)
                assert convert(eta, "mixed", space) == section_by_section(eta, space)


class TestMixedToMeasure:
    def test_mixed_form_of_r1_reproduces_table(self, e1, r1):
        mix = convert(r1, "mixed", e1)
        assert detailed_distribution(mix, e1) == detailed_distribution(r1, e1)

    def test_single_section(self, e1):
        sigma = pure({"w1": 1, "w2": 1, "w3": 2, "w4": 2})
        from stopwright import mixed as make_mixed

        nu = detailed_distribution(make_mixed([0, 1], [sigma]), e1)
        assert nu == detailed_distribution(sigma, e1)

    def test_two_equal_halves_collapse(self, e1):
        sigma = pure({"w1": 1, "w2": 1, "w3": 2, "w4": 2})
        from stopwright import mixed as make_mixed

        split = make_mixed([0, "1/2", 1], [sigma, sigma])
        assert detailed_distribution(split, e1) == detailed_distribution(sigma, e1)

    def test_result_is_stopping_measure(self):
        rng = random.Random(13)
        for _ in range(15):
            space = random_space(rng, max_depth=3)
            mix = convert(random_randomized(rng, space), "mixed", space)
            assert is_stopping_measure(detailed_distribution(mix, space), space)


class TestConvert:
    def test_behavior_to_mixed_composes(self, e1, r1, b1):
        mix = convert(b1, "mixed", e1)
        assert mix.breakpoints == convert(r1, "mixed", e1).breakpoints
        assert equivalent(mix, b1, e1)

    def test_identity_target_preserves_distribution(self, e1, b1):
        again = convert(b1, "behavior", e1)
        assert equivalent(again, b1, e1)

    def test_pure_to_behavior_hazard_is_zero_one(self, e1):
        sigma = pure({"w1": 1, "w2": 1, "w3": 2, "w4": 2})
        hazards = convert(sigma, "behavior", e1)
        assert hazards.beta[1] == {"A": F(1), "B": F(0)}
        assert hazards.beta[2]["w3"] == 1
        assert hazards.beta[2]["w4"] == 1
        # already stopped on A, so the hazard afterwards is the 0 convention
        assert hazards.beta[2]["w1"] == 0
        assert hazards.beta[2]["w2"] == 0

    def test_round_trips_preserve_distribution(self):
        rng = random.Random(77)
        for _ in range(12):
            space = random_space(rng, max_depth=3)
            eta = random_stopping_time(rng, space)
            for target in ("randomized", "behavior", "mixed"):
                assert equivalent(eta, convert(eta, target, space), space)

    def test_conversion_idempotent_up_to_equivalence(self):
        rng = random.Random(78)
        space = random_space(rng, max_depth=3)
        eta = random_stopping_time(rng, space)
        for target in ("randomized", "behavior", "mixed"):
            once = convert(eta, target, space)
            twice = convert(once, target, space)
            assert equivalent(once, twice, space)

    def test_bad_target_rejected(self, e1, r1):
        with pytest.raises(ValueError):
            convert(r1, "pure", e1)


class TestRepair:
    def test_noop_on_valid_densities(self):
        rng = random.Random(19)
        for _ in range(20):
            space = random_space(rng, max_depth=3)
            eta = random_randomized(rng, space)
            repaired = repair_densities(eta.rho, space)
            assert repaired.rho == eta.rho
            assert repaired.rho_inf == eta.rho_inf

    def test_noop_on_measure_densities(self):
        # densities read off an actual stopping measure never need clipping
        rng = random.Random(20)
        for _ in range(10):
            space = random_space(rng, max_depth=3)
            eta = random_stopping_time(rng, space)
            derived = measure_to_randomized(detailed_distribution(eta, space), space)
            repaired = repair_densities(derived.rho, space)
            assert repaired.rho == derived.rho
            assert repaired.rho_inf == derived.rho_inf

    def test_clips_overweight_mass(self, e1):
        candidate = {1: {"A": 2, "B": "1/2"}, 2: {a: 1 for a in e1.atoms}}
        repaired = repair_densities(candidate, e1)
        assert validate(repaired, e1) is None
        assert repaired.rho[1]["A"] == 1
        assert repaired.rho[2]["w1"] == 0
        assert repaired.rho[2]["w3"] == F(1, 2)
        assert repaired.rho_inf["w3"] == 0

    def test_negative_mass_clipped_to_zero(self, e1):
        candidate = {1: {"A": "-1/2", "B": 0}, 2: {a: 0 for a in e1.atoms}}
        repaired = repair_densities(candidate, e1)
        assert validate(repaired, e1) is None
        assert repaired.rho[1]["A"] == 0
        assert all(v == 1 for v in repaired.rho_inf.values())
