"""Call accounting and spans, recorded from the benchmark's side of each call.

Every call into the package goes through ``Recorder.call``.  An exception
is caught and returned as a ``Failed`` value so the session goes on; calls
made inside a session are counted as attempted, and failed ones by layer
and exception type.  With tracing on, each call also becomes a span whose
parent is the enclosing phase span (``setup``, ``session`` or ``check``).
Spans stay in memory until the run writes them out.

The host's speed drifts: on a shared host the same Fraction loop runs up
to twice as slow for seconds or minutes at a time, independently on each
CPU.  So untraced set-up and session phases are *paced*: every ``PACE_S``
of wall time a timer signal runs a fixed stdlib Fraction loop, the
reference, in the main thread, wherever the phase's code happens to be.
A phase's time, with the reference loops taken out, is scaled by
``REF_MS`` over the mean time of the loops run during it: the time the
phase would take on a host where the reference takes ``REF_MS``.  A phase
reports both its raw ``seconds`` and its ``scaled`` seconds.
"""

from __future__ import annotations

import json
import signal
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from statistics import fmean
from time import perf_counter

#: Nominal time of ``reference_loop``: scaled times are those of a host on
#: which the loop takes this long (about this host's speed when unloaded).
REF_MS = 1.2
#: Wall time between two reference loops in a paced phase.
PACE_S = 0.025


def reference_loop() -> Fraction:
    """Fixed work of the kind the package does: exact sums with growing denominators."""
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i)
    return total


class Pace:
    """Times ``reference_loop`` every ``PACE_S`` while it is entered, from a SIGALRM handler."""

    def __init__(self):
        self.refs: list[float] = []  # seconds of each reference loop

    def sample(self, *_) -> None:
        start = perf_counter()
        reference_loop()
        self.refs.append(perf_counter() - start)

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PACE_S, PACE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
        return False

    def scaled(self, seconds: float) -> float:
        """``seconds`` of phase time at the speed the references measured, scaled to ``REF_MS``."""
        if not self.refs:  # a phase shorter than PACE_S
            self.sample()
        return seconds * (REF_MS / 1000) / fmean(self.refs)


@dataclass(frozen=True)
class Failed:
    """Stands in for the result of a call that raised."""

    layer: str
    error: str
    in_session: bool


class Recorder:
    def __init__(self, traced: bool):
        self.traced = traced
        self.attempted = 0
        self.failed = 0
        self.errors: Counter = Counter()  # (layer, exception type) -> count
        self.spans: list[tuple] = []  # (id, parent id, name, start, end, error type)
        self.parent = None
        self.in_session = False
        self.max_num_bits = 0
        self.max_den_bits = 0

    def call(self, layer: str, fn, *args):
        """Run ``fn(*args)`` under the name ``layer``; a raise becomes ``Failed``."""
        self.attempted += self.in_session
        error = None
        start = perf_counter()
        try:
            return fn(*args)
        except Exception as exc:  # every failure is reported, none re-raised
            error = type(exc).__name__
            if self.in_session:
                self.fail(layer, error)
            return Failed(layer, error, self.in_session)
        finally:
            if self.traced:
                self.spans.append(
                    (len(self.spans) + 1, self.parent, layer, start, perf_counter(), error)
                )

    def fail(self, layer: str, error: str) -> None:
        """Count a failure detected outside a call (a bad exit code or output)."""
        self.failed += 1
        self.errors[(layer, error)] += 1

    def phase(self, name: str):
        return _Phase(self, name)

    def note_bits(self, value) -> None:
        """Track the largest numerator and denominator among the Fractions in ``value``."""
        if not self.traced:
            return
        for x in fractions_in(value):
            self.max_num_bits = max(self.max_num_bits, abs(x.numerator).bit_length())
            self.max_den_bits = max(self.max_den_bits, x.denominator.bit_length())

    def self_ms(self) -> dict[str, list]:
        """Per call name: [calls, self milliseconds, errors].

        A call made in a session keeps its name; one made in set-up or in
        the oracles' check is named ``setup.<name>`` or ``check.<name>``.
        Calls never contain other spans, so a call's self time is its
        duration.
        """
        phase_of = {s[0]: s[2] for s in self.spans if s[1] is None}
        out: dict[str, list] = {}
        for _, parent, name, start, end, error in self.spans:
            if parent is None:
                continue  # a phase, not a call
            phase = phase_of[parent]
            row = out.setdefault(name if phase == "session" else f"{phase}.{name}", [0, 0.0, 0])
            row[0] += 1
            row[1] += 1000 * (end - start)
            row[2] += error is not None
        return out

    def accounted_pct(self) -> float:
        """Share of session time covered by the calls made inside sessions."""
        sessions = {s[0]: s[4] - s[3] for s in self.spans if s[2] == "session"}
        covered = sum(s[4] - s[3] for s in self.spans if s[1] in sessions)
        total = sum(sessions.values())
        return 100 * covered / total if total else 0.0

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["id", "parent", "name", "start_s", "end_s", "error"],
                    "spans": self.spans,
                },
                handle,
            )


class _Phase:
    """Span around a block of calls; calls inside it take it as their parent.

    Untraced ``setup`` and ``session`` phases are paced (see the module
    docstring); ``seconds`` excludes the reference loops and ``scaled`` is
    the paced time, or ``seconds`` when the phase is not paced.
    """

    PACED = ("setup", "session")

    def __init__(self, recorder: Recorder, name: str):
        self.recorder = recorder
        self.name = name

    def __enter__(self):
        self.outer = self.recorder.parent
        self.recorder.in_session = self.name == "session"
        self.pace = None
        if self.name in self.PACED and not self.recorder.traced:
            self.pace = Pace().__enter__()
        self.start = perf_counter()
        if self.recorder.traced:
            self.id = len(self.recorder.spans) + 1
            self.recorder.spans.append(None)  # reserved; filled on exit
            self.recorder.parent = self.id
        return self

    def __exit__(self, *exc):
        self.seconds = perf_counter() - self.start
        self.scaled = self.seconds
        if self.pace:
            self.pace.__exit__()
            self.seconds -= sum(self.pace.refs)
            self.scaled = self.pace.scaled(self.seconds)
        self.recorder.in_session = False
        if self.recorder.traced:
            self.recorder.spans[self.id - 1] = (
                self.id, self.outer, self.name, self.start, self.start + self.seconds, None
            )
            self.recorder.parent = self.outer
        return False


def fractions_in(value):
    """Every Fraction inside nested results: containers, named tuples and dataclasses."""
    stack = [value]
    while stack:
        x = stack.pop()
        if isinstance(x, Fraction):
            yield x
        elif isinstance(x, dict):
            stack.extend(x.keys())
            stack.extend(x.values())
        elif isinstance(x, (list, tuple, set, frozenset)):
            stack.extend(x)
        elif hasattr(x, "__dataclass_fields__"):
            stack.extend(getattr(x, f) for f in x.__dataclass_fields__)
