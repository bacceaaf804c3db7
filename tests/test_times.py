"""One time rule: every entry point that takes a time from its caller judges it by
``FilteredSpace.is_time``.

Each case hands an entry point time 1 under another key: a bool, a float, a string, None, or
an int outside 1..T.  ``True == 1.0 == 1`` and they hash alike, so a dict lookup or a set
comparison would read each of the first two as time 1, and ``int(n)`` would read the first
four so.  Every entry point refuses all eight, each in its own way, and none by a bare
``TypeError``.
"""

from fractions import Fraction as F

import pytest

from stopwright import (
    SpaceMismatch,
    StoppingMeasure,
    ValidationError,
    adapted_process,
    behavior,
    detailed_distribution,
    is_stopping_measure,
    pure,
    randomized,
    repair_densities,
    snell_value,
    stopping_measure,
    validate,
    witness_problem,
)
from stopwright.space import Violation

from fuzz import make_b1, make_e1, make_r1

E1 = make_e1()

#: Each key that stands in for time 1 on e1 (T = 2), by its test id.
KEYS = {
    "True": True,
    "1.0": 1.0,
    "1.9": 1.9,
    "str": "1",
    "None": None,
    "0": 0,
    "T+1": E1.horizon + 1,
    "-1": -1,
}


def renamed(table, key):
    """``table`` with its time-1 entry under ``key``, the other entries as they are."""
    return {key if n == 1 else n: row for n, row in table.items()}


def refused_as_violation(eta):
    assert isinstance(validate(eta, E1), Violation)


def refused_as_false(answer):
    assert answer is False


def raises(error, call, *args):
    with pytest.raises(error):
        call(*args)


def measure_rows(key):
    return {a: renamed(row, key) for a, row in detailed_distribution(make_r1(), E1).mass.items()}


#: Each entry point, given the key: it asserts the refusal.
ENTRIES = {
    "behavior": lambda k: refused_as_violation(behavior(renamed(make_b1().beta, k))),
    "randomized": lambda k: refused_as_violation(
        randomized(renamed(make_r1().rho, k), make_r1().rho_inf)
    ),
    "adapted_process": lambda k: raises(
        SpaceMismatch,
        snell_value,
        adapted_process(renamed(make_r1().rho, k), make_r1().rho_inf),
        E1,
    ),
    "stopping_measure": lambda k: raises(ValidationError, stopping_measure, measure_rows(k), E1),
    "is_stopping_measure": lambda k: refused_as_false(
        is_stopping_measure(StoppingMeasure(measure_rows(k)), E1)
    ),
    "repair_densities": lambda k: raises(
        ValidationError, repair_densities, renamed(make_r1().rho, k), E1
    ),
    "level": lambda k: raises(KeyError, E1.level, k),
    "blocks": lambda k: raises(KeyError, E1.blocks, k),
    "members": lambda k: raises(KeyError, E1.members, k, "A"),
    "block_of": lambda k: raises(KeyError, E1.block_of, k, "w1"),
    "number": lambda k: raises(KeyError, E1.number, k, "A"),
    "block_prob": lambda k: raises(KeyError, E1.block_prob, k, "A"),
    "children": lambda k: raises(KeyError, E1.children, k, "A"),
    "witness_problem": lambda k: raises(ValidationError, witness_problem, {"w1"}, k, E1),
    "event_mass": lambda k: raises(
        ValidationError, detailed_distribution(make_r1(), E1).event_mass, {"w1"}, k
    ),
    "pure": lambda k: refused_as_violation(pure(dict.fromkeys(E1.atoms, k))),
}


@pytest.mark.parametrize("key", KEYS.values(), ids=KEYS)
@pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES)
def test_every_entry_point_refuses_a_key_that_is_not_a_time(entry, key):
    entry(key)


def test_time_1_itself_is_accepted_everywhere():
    """The sweep's tables and calls with time 1 under its own key, so each refusal above is
    the key's alone."""
    r1, b1 = make_r1(), make_b1()
    assert validate(behavior(renamed(b1.beta, 1)), E1) is None
    assert validate(randomized(renamed(r1.rho, 1), r1.rho_inf), E1) is None
    assert snell_value(adapted_process(renamed(r1.rho, 1), r1.rho_inf), E1).value == F(9, 16)
    nu = stopping_measure(measure_rows(1), E1)
    assert nu == detailed_distribution(r1, E1) and is_stopping_measure(nu, E1)
    assert validate(repair_densities(renamed(r1.rho, 1), E1), E1) is None
    assert E1.number(1, "A") == 0 and E1.block_prob(1, "A") == F(1, 2)
    assert E1.children(1, "A") == ("w1", "w2") and E1.block_of(1, "w1") == "A"
    assert witness_problem({"w1"}, 1, E1) is not None
    assert detailed_distribution(r1, E1).event_mass({"w1"}, 1) == F(1, 8)
    assert validate(pure(dict.fromkeys(E1.atoms, 1)), E1) is None
