"""One construction contract for every public value type and its builder.

Each field of a valid value is replaced in turn by a value of the wrong type.  Either the
value constructs and its check reports a package error (rule a: ``validate`` for a rule,
``check_process`` for a process, ``kept_game`` for a game, the stopping-measure decision and
each query for a measure, ``marginal`` for the joint law), or construction refuses it with
one (rule b).  No call may raise an AttributeError, or a TypeError or ValueError of its own:
the only others let through are ``as_fraction``'s refusals of a value it cannot read as a
rational and the by-type refusals of ``payoff`` and ``kept_game``.
"""

import dataclasses
import os
import random
import traceback

import pytest

import stopwright
from stopwright import (
    AdaptedProcess,
    BehaviorStoppingTime,
    JointStoppingMeasure,
    MixedStoppingTime,
    PureStoppingTime,
    RandomizedStoppingTime,
    StoppingGame,
    StoppingMeasure,
    StopwrightError,
    adapted_process,
    behavior,
    build_space,
    check_process,
    detailed_distribution,
    joint_detailed_distribution,
    measure_to_randomized,
    mixed,
    pure,
    randomized,
    stopping_game,
    stopping_measure,
    validate,
)
from stopwright.games import kept_game

from fuzz import (
    random_behavior,
    random_game,
    random_mixed,
    random_process,
    random_pure,
    random_randomized,
    random_space,
)

PACKAGE = os.path.dirname(stopwright.__file__)

#: The functions whose TypeError, ValueError or ZeroDivisionError is documented: a value
#: ``as_fraction`` (through ``rational``) cannot read, and a problem or game of the wrong type.
DOCUMENTED = {"as_fraction", "rational", "_kept", "kept_game"}

#: The wrong values, each made on the space of the test.
WRONG = {
    "None": lambda rng, space: None,
    "5": lambda rng, space: 5,
    "[]": lambda rng, space: [],
    '"x"': lambda rng, space: "x",
    "rule": random_randomized,
    "process": random_process,
    "game": random_game,
}


def fields_of(value) -> dict:
    return {field.name: getattr(value, field.name) for field in dataclasses.fields(value)}


def refused(call) -> bool:
    """True if ``call()`` raises a package error or a documented refusal, False if it returns;
    any other exception propagates and fails the test."""
    try:
        call()
    except StopwrightError:
        return True
    except (TypeError, ValueError, ZeroDivisionError) as error:
        frames = traceback.extract_tb(error.__traceback__)
        ours = [frame.name for frame in frames if frame.filename.startswith(PACKAGE)]
        if ours and ours[-1] in DOCUMENTED:
            return True
        raise
    return False


def rule_check(eta, space):
    violation = validate(eta, space)
    if violation is not None:
        raise stopwright.ValidationError(str(violation), violation=violation)


def measure_checks(nu, space):
    atom = space.atoms[0]
    return [
        lambda: measure_to_randomized(nu, space),  # is_stopping_measure's False, as an error
        nu.total_mass,
        lambda: nu.density(space, atom, 1),
        lambda: nu.event_mass({atom}, 1),
    ]


def rule_type(build, make):
    """A rule class or builder, its valid fields (from a random rule) and its check."""
    return (
        build,
        lambda rng, space: fields_of(make(rng, space)),
        lambda v, sp: [lambda: rule_check(v, sp)],
    )


def measure_mass(rng, space):
    return {"mass": dict(detailed_distribution(random_randomized(rng, space), space).mass)}


def joint_mass(rng, space):
    eta1, eta2 = random_randomized(rng, space), random_behavior(rng, space)
    return {"mass": dict(joint_detailed_distribution(eta1, eta2, space).mass)}


#: Per public constructor or builder: ``(build, valid fields, checks of a built value)``.  A
#: check is a list of calls, each of which must be refused; ``None`` means the value must not
#: construct at all.
CONSTRUCTORS = {
    "PureStoppingTime": rule_type(PureStoppingTime, random_pure),
    "pure": rule_type(pure, random_pure),
    "RandomizedStoppingTime": rule_type(RandomizedStoppingTime, random_randomized),
    "randomized": rule_type(randomized, random_randomized),
    "BehaviorStoppingTime": rule_type(BehaviorStoppingTime, random_behavior),
    "behavior": rule_type(behavior, random_behavior),
    "MixedStoppingTime": rule_type(MixedStoppingTime, random_mixed),
    "mixed": rule_type(mixed, random_mixed),
    "AdaptedProcess": (
        AdaptedProcess,
        lambda rng, space: fields_of(random_process(rng, space)),
        lambda v, sp: [lambda: check_process(sp, v)],
    ),
    "adapted_process": (
        adapted_process,
        lambda rng, space: fields_of(random_process(rng, space)),
        lambda v, sp: [lambda: check_process(sp, v)],
    ),
    "StoppingGame": (
        StoppingGame,
        lambda rng, space: fields_of(random_game(rng, space)),
        lambda v, sp: [lambda: kept_game(v, sp)],
    ),
    "stopping_game": (
        stopping_game,
        lambda rng, space: fields_of(random_game(rng, space)),
        lambda v, sp: [lambda: kept_game(v, sp)],
    ),
    "StoppingMeasure": (StoppingMeasure, measure_mass, measure_checks),
    "stopping_measure": (None, measure_mass, measure_checks),
    "JointStoppingMeasure": (
        JointStoppingMeasure,
        joint_mass,
        lambda v, sp: [lambda: v.marginal(sp, 1), lambda: v.marginal(sp, 2)],
    ),
    "build_space": (build_space, lambda rng, space: {"tree_description": None}, None),
}

CASES = [
    (name, field)
    for name, (_, make, _) in CONSTRUCTORS.items()
    for field in make(random.Random(0), random_space(random.Random(0), max_depth=2))
] + [(name, "mass row") for name in ("StoppingMeasure", "stopping_measure", "JointStoppingMeasure")]


@pytest.mark.parametrize("wrong", list(WRONG))
@pytest.mark.parametrize("name, field", CASES)
def test_a_field_of_the_wrong_type_is_refused_by_a_package_error(name, field, wrong):
    rng = random.Random(f"construct {name} {field} {wrong}")
    space = random_space(rng, max_depth=3)
    build, make, checks = CONSTRUCTORS[name]
    if build is None:  # the builder that reads its table against the space
        build = lambda mass: stopping_measure(mass, space)  # noqa: E731
    fields = make(rng, space)
    value = WRONG[wrong](rng, space)
    if field == "mass row":
        fields["mass"] = {**fields["mass"], space.atoms[0]: value}
    else:
        fields[field] = value
    built = []
    if refused(lambda: built.append(build(**fields))):
        return
    assert checks is not None, f"{name} built a value from {field}={wrong}"
    for call in checks(built[0], space):
        assert refused(call), f"{name} with {field}={wrong}: a check accepted it"



#: Per call that once escaped as a bare Python error, given a measure, a process and the space:
#: the call, and the text naming its bad argument in the ValidationError it raises.
BAD_QUERIES = {
    "density at an unhashable atom": (lambda nu, p, sp: nu.density(sp, [], 1), r"atom \[\]"),
    "event_mass of no event": (lambda nu, p, sp: nu.event_mass(None, 1), "event .* got None"),
    "marginal of a table without the space's atoms": (
        lambda nu, p, sp: JointStoppingMeasure(mass={}).marginal(sp, 1),
        "no row for atom 'w1'",
    ),
    "marginal at a key that is not a pair": (
        lambda nu, p, sp: JointStoppingMeasure(mass={"w1": {5: 1}}).marginal(sp, 1),
        "has key 5, not a pair",
    ),
    "stopping_game keyed by a number": (
        lambda nu, p, sp: stopping_game({5: p}),
        r"key 5 is not a \(player, coalition\) pair",
    ),
}


@pytest.mark.parametrize("case", list(BAD_QUERIES))
def test_a_bad_query_argument_is_named_by_a_validation_error(e1, r1, case):
    call, named = BAD_QUERIES[case]
    nu, process = detailed_distribution(r1, e1), random_process(random.Random(0), e1)
    with pytest.raises(stopwright.ValidationError, match=named):
        call(nu, process, e1)
