import sys

import pytest

import stopwright.space
from stopwright.space import FilteredSpace

from fuzz import make_b1, make_e1, make_r1, make_singleton, make_uneven


@pytest.fixture(autouse=True)
def unraisable():
    """Fail every test during which Python reports an exception it cannot raise, such as one
    in the weakref callback that drops a kept check: such an exception goes to
    ``sys.unraisablehook``, and the code that triggered it carries on."""
    seen = []

    def hook(u):  # formatted at once: keeping ``u.object`` could resurrect it
        seen.append(f"{u.err_msg or 'Exception ignored in'}: {u.object!r}: {u.exc_value!r}")

    previous, sys.unraisablehook = sys.unraisablehook, hook
    try:
        yield
    finally:
        sys.unraisablehook = previous
    if seen:
        pytest.fail("unraisable exception during the test:\n" + "\n".join(seen))


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
    """The rules, processes and games a space checks afresh, in order; a kept check is not
    listed."""
    calls = []
    real = FilteredSpace.recall

    def recall(space, source, check):
        def counted():
            if source is not space:  # the space's own arrays are not an input
                calls.append(source)
            return check()

        return real(space, source, counted)

    monkeypatch.setattr(FilteredSpace, "recall", recall)
    return calls


@pytest.fixture
def translated(monkeypatch):
    """Every cell list handed to ``stopwright.space.integers``."""
    calls = []
    real = stopwright.space.integers

    def counting(cells):
        calls.append(list(cells))
        return real(cells)

    monkeypatch.setattr(stopwright.space, "integers", counting)
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
