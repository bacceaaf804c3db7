from fractions import Fraction

import pytest

import stopwright.space
from stopwright.space import FilteredSpace
from stopwright.stopping import MixedStoppingTime, PureStoppingTime, RandomizedStoppingTime

from fuzz import make_b1, make_e1, make_r1, make_singleton, make_uneven


@pytest.fixture
def e1():
    return make_e1()


@pytest.fixture
def r1():
    return make_r1()


@pytest.fixture
def b1():
    return make_b1()


@pytest.fixture
def singleton():
    return make_singleton()


@pytest.fixture
def uneven():
    return make_uneven()


@pytest.fixture
def checked(monkeypatch):
    """The rules and games a space checks afresh, in order; a reused check is not listed."""
    calls = []
    real = FilteredSpace.recall

    def recall(space, source, cells, check):
        def counted(cells):
            if source is not space:  # the space's own arrays are not an input
                calls.append(source)
            return check(cells)

        return real(space, source, cells, counted)

    monkeypatch.setattr(FilteredSpace, "recall", recall)
    return calls


@pytest.fixture
def read(monkeypatch):
    """The processes read, in the order ``check_process`` is called on them."""
    calls = []
    real = stopwright.space.check_process

    def counting(space, process):
        calls.append(process)
        return real(space, process)

    monkeypatch.setattr(stopwright.space, "check_process", counting)
    return calls


@pytest.fixture
def touch():
    """``touch(eta)`` puts an equal but new object in one cell of the rule ``eta``, in place:
    the rule keeps its value, and a space must check it again."""
    return _touch


def _touch(eta) -> None:
    if isinstance(eta, (PureStoppingTime, MixedStoppingTime)):
        table = (eta.sections[0] if isinstance(eta, MixedStoppingTime) else eta).stop
        key = next(iter(table))
        table[key] = table[key] + 0.0  # a float time is a time
        return
    table = eta.rho_inf if isinstance(eta, RandomizedStoppingTime) else eta.beta[1]
    key = next(iter(table))
    table[key] = Fraction(table[key].numerator, table[key].denominator)
