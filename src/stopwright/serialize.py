"""JSON document formats for spaces, rules, processes, games, and measures.

Rationals travel as JSON integers or as strings "a/b" or "a" of ASCII
digits; input need not be in lowest terms, output always is.  The time
index "inf" denotes the never-stop slot.
These formats are the package's wire contract: the CLI reads and writes
nothing else.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import FormatError, ValidationError
from .games import BOTH, ONLY_1, ONLY_2, StoppingGame, is_zero_sum, stopping_game
from .space import (
    INFINITY,
    AdaptedProcess,
    FilteredSpace,
    Time,
    adapted_process,
    build_space,
    time_label,
)
from .stopping import (
    BehaviorStoppingTime,
    MixedStoppingTime,
    PureStoppingTime,
    RandomStoppingTime,
    RandomizedStoppingTime,
    StoppingMeasure,
    behavior,
    mixed,
    pure,
    randomized,
    stopping_measure,
)


def rational_str(x: Fraction) -> str:
    """Lowest-terms string; integers come out bare ('3', not '3/1')."""
    return str(x)


#: The wire form of a rational string: an integer, or an integer over a natural number.
_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")
_INTEGER = re.compile(r"-?[0-9]+")


def parse_rational(value) -> Fraction:
    """A JSON integer (not a bool) or a string "a/b" or "a"; nothing else is read."""
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str) and _RATIONAL.fullmatch(value):
        numerator, _, denominator = value.partition("/")
        if denominator and int(denominator) == 0:
            raise FormatError(f"bad rational {value!r}: zero denominator")
        return Fraction(int(numerator), int(denominator or 1))
    raise FormatError(f"bad rational {value!r}: expected a JSON integer or a string 'a/b'")


def parse_time(key) -> Time:
    """A JSON integer (not a bool), a string of ASCII digits with an optional "-", or "inf"."""
    if key == "inf":
        return INFINITY
    if isinstance(key, int) and not isinstance(key, bool):
        return key
    if isinstance(key, str) and _INTEGER.fullmatch(key):
        return int(key)
    raise FormatError(f"bad time index {key!r} (expected an integer or 'inf')")


def _require(doc, key, context, kind=object):
    """``doc[key]``, which must be present and of the JSON kind ``kind`` (dict or list)."""
    if not isinstance(doc, dict) or key not in doc:
        raise FormatError(f"{context} document is missing {key!r}")
    if not isinstance(doc[key], kind):
        name = "an object" if kind is dict else "an array"
        raise FormatError(f"{context} {key!r} must be {name}")
    return doc[key]


# -- spaces ---------------------------------------------------------------------


def space_from_doc(doc) -> FilteredSpace:
    """Accepts {"nodes": [...]} or a bare node list; leaf probabilities must be rationals."""
    nodes = doc.get("nodes") if isinstance(doc, dict) else doc
    if not isinstance(nodes, list):
        raise FormatError("space document must be a node list or contain a 'nodes' list")
    parsed = []
    for node in nodes:
        if isinstance(node, dict) and node.get("prob") is not None:
            node = {**node, "prob": parse_rational(node["prob"])}
        parsed.append(node)
    return build_space(parsed)


# -- block tables -----------------------------------------------------------------


def _block_table_from_doc(table, context) -> dict[int, dict[str, Fraction]]:
    if not isinstance(table, dict):
        raise FormatError(f"{context} must map times to block tables")
    out = {}
    for key, level in table.items():
        t = parse_time(key)
        if t == INFINITY or not isinstance(level, dict):
            raise FormatError(f"{context} has a bad entry at time {key!r}")
        out[t] = {block: parse_rational(v) for block, v in level.items()}
    return out


def _block_table_to_doc(table) -> dict:
    return {
        str(n): {block: rational_str(v) for block, v in level.items()}
        for n, level in sorted(table.items())
    }


# -- stopping rules -----------------------------------------------------------------


def _pure_from_doc(doc) -> PureStoppingTime:
    stop = _require(doc, "stop", "pure rule", dict)
    return pure({atom: parse_time(t) for atom, t in stop.items()})


def stopping_time_from_doc(doc) -> RandomStoppingTime:
    kind = _require(doc, "type", "stopping rule")
    if kind == "pure":
        return _pure_from_doc(doc)
    if kind == "randomized":
        return randomized(
            rho=_block_table_from_doc(_require(doc, "rho", "randomized rule"), "rho"),
            rho_inf={
                atom: parse_rational(v)
                for atom, v in _require(doc, "rho_inf", "randomized rule", dict).items()
            },
        )
    if kind == "behavior":
        return behavior(
            beta=_block_table_from_doc(_require(doc, "beta", "behavior rule"), "beta")
        )
    if kind == "mixed":
        sections = _require(doc, "sections", "mixed rule", list)
        if any(_require(s, "type", "mixed section") != "pure" for s in sections):
            raise FormatError("every section of a mixed rule must be a 'pure' rule document")
        return mixed(
            breakpoints=[
                parse_rational(r) for r in _require(doc, "breakpoints", "mixed rule", list)
            ],
            sections=[_pure_from_doc(s) for s in sections],
        )
    raise FormatError(f"unknown stopping-rule type {kind!r}")


def _time_doc_value(t: Time):
    return "inf" if t == INFINITY else int(t)


def stopping_time_to_doc(eta: RandomStoppingTime) -> dict:
    if isinstance(eta, PureStoppingTime):
        return {"type": "pure", "stop": {a: _time_doc_value(t) for a, t in eta.stop.items()}}
    if isinstance(eta, RandomizedStoppingTime):
        return {
            "type": "randomized",
            "rho": _block_table_to_doc(eta.rho),
            "rho_inf": {a: rational_str(v) for a, v in eta.rho_inf.items()},
        }
    if isinstance(eta, BehaviorStoppingTime):
        return {"type": "behavior", "beta": _block_table_to_doc(eta.beta)}
    if isinstance(eta, MixedStoppingTime):
        return {
            "type": "mixed",
            "breakpoints": [rational_str(r) for r in eta.breakpoints],
            "sections": [stopping_time_to_doc(s) for s in eta.sections],
        }
    raise TypeError(f"not a stopping rule: {type(eta).__name__}")


# -- processes and measures -----------------------------------------------------------


def process_from_doc(doc) -> AdaptedProcess:
    return adapted_process(
        values=_block_table_from_doc(_require(doc, "values", "process"), "values"),
        infinity={
            atom: parse_rational(v)
            for atom, v in _require(doc, "infinity", "process", dict).items()
        },
    )


def process_to_doc(process: AdaptedProcess) -> dict:
    return {
        "values": _block_table_to_doc(process.values),
        "infinity": {a: rational_str(v) for a, v in process.infinity.items()},
    }


def measure_to_doc(nu: StoppingMeasure) -> dict:
    return {
        "mass": {
            atom: {time_label(t): rational_str(m) for t, m in row.items()}
            for atom, row in nu.mass.items()
        }
    }


def measure_from_doc(doc, space: FilteredSpace) -> StoppingMeasure:
    mass_doc = _require(doc, "mass", "measure", dict)
    rows = {atom: _require(mass_doc, atom, "measure mass", dict) for atom in mass_doc}
    mass = {
        atom: {parse_time(k): parse_rational(v) for k, v in row.items()}
        for atom, row in rows.items()
    }
    return stopping_measure(mass, space)


# -- games ----------------------------------------------------------------------------

_PLAYER_KEYS = {"1": 1, "2": 2}
_COALITION_KEYS = {"{1}": ONLY_1, "{2}": ONLY_2, "{12}": BOTH}
_COALITION_LABELS = {ONLY_1: "{1}", ONLY_2: "{2}", BOTH: "{12}"}


def game_from_doc(doc, space: FilteredSpace) -> StoppingGame:
    players = _require(doc, "players", "game")
    if type(players) is not int or players != 2:
        raise FormatError(f"only 2-player games are supported, got players={players!r}")
    payoff_docs = _require(doc, "payoffs", "game", dict)
    table = {}
    for key, proc_doc in payoff_docs.items():
        player_part, _, coalition_part = key.partition("|")
        player = _PLAYER_KEYS.get(player_part)
        coalition = _COALITION_KEYS.get(coalition_part)
        if player is None or coalition is None:
            raise FormatError(f"bad payoff key {key!r} (expected e.g. '1|{{12}}')")
        table[(player, coalition)] = process_from_doc(proc_doc)
    declared = doc.get("zero_sum", False)
    if not isinstance(declared, bool):
        raise FormatError(f"game 'zero_sum' must be true or false, got {declared!r}")
    game = stopping_game(table)
    if declared and not is_zero_sum(game, space):
        raise ValidationError("game declares zero_sum but player payoffs do not cancel")
    return game


def game_to_doc(game: StoppingGame, space: FilteredSpace) -> dict:
    return {
        "players": 2,
        "payoffs": {
            f"{player}|{_COALITION_LABELS[coalition]}": process_to_doc(proc)
            for (player, coalition), proc in sorted(
                game.payoffs.items(), key=lambda kv: (kv[0][0], _COALITION_LABELS[kv[0][1]])
            )
        },
        "zero_sum": is_zero_sum(game, space),
    }
