"""JSON document formats for spaces, rules, processes, games, and measures.

Rationals travel as JSON integers or as strings "a/b" or "a" of ASCII
digits; input need not be in lowest terms, output always is.  The time
index "inf" denotes the never-stop slot.
These formats are the package's wire contract: the CLI reads and writes
nothing else.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import FormatError, ValidationError
from .games import BOTH, ONLY_1, ONLY_2, StoppingGame, is_zero_sum, stopping_game
from .space import (
    INFINITY,
    RATIONAL,
    AdaptedProcess,
    FilteredSpace,
    Time,
    build_space,
    is_int,
    rational,
    time_label,
)
from .stopping import (
    BehaviorStoppingTime,
    MixedStoppingTime,
    PureStoppingTime,
    RandomStoppingTime,
    RandomizedStoppingTime,
    StoppingMeasure,
    stopping_measure,
)


def rational_str(x: Fraction) -> str:
    """Lowest-terms string; integers come out bare ('3', not '3/1')."""
    return str(x)


_INTEGER = re.compile(r"-?[0-9]+")


def too_many_digits() -> str:
    """What a number past the interpreter's limit on the digits of an int string is told."""
    return f"a number has more than {sys.get_int_max_str_digits()} digits"


def parse_rational(value) -> Fraction:
    """A JSON integer (not a bool) or a string "a/b" or "a"; nothing else is read.  Strings
    are tried first: a document writes its numbers as strings."""
    if isinstance(value, str):
        try:
            return rational(value)
        except ZeroDivisionError:
            raise FormatError(f"bad rational {value!r}: zero denominator") from None
        except ValueError:  # off the grammar, or past the limit on the digits of an int string
            if RATIONAL.fullmatch(value):
                raise FormatError(f"bad rational: {too_many_digits()}") from None
    elif is_int(value):
        return Fraction(value)
    raise FormatError(f"bad rational {value!r}: expected a JSON integer or a string 'a/b'")


def parse_time(key) -> Time:
    """A JSON integer (not a bool), a string of ASCII digits with an optional "-", or "inf"."""
    if key == "inf":
        return INFINITY
    if isinstance(key, str) and _INTEGER.fullmatch(key):
        try:
            return int(key)
        except ValueError:  # past the interpreter's limit on the digits of an int string
            raise FormatError(f"bad time index: {too_many_digits()}") from None
    if is_int(key):
        return key
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


# -- fields -----------------------------------------------------------------------


def _blocks_from_doc(table, name: str) -> dict[int, dict[str, Fraction]]:
    if not isinstance(table, dict):
        raise FormatError(f"{name} must map times to block tables")
    out = {}
    for key, level in table.items():
        t = parse_time(key)
        if t == INFINITY or not isinstance(level, dict):
            raise FormatError(f"{name} has a bad entry at time {key!r}")
        out[t] = {block: parse_rational(v) for block, v in level.items()}
    return out


def _blocks_to_doc(table) -> dict:
    return {
        str(n): {block: rational_str(v) for block, v in level.items()}
        for n, level in sorted(table.items())
    }


def _atoms_from_doc(table, name: str) -> dict[str, Fraction]:
    return {atom: parse_rational(v) for atom, v in table.items()}


def _atoms_to_doc(table) -> dict:
    return {atom: rational_str(v) for atom, v in table.items()}


def _stops_from_doc(stop, name: str) -> dict[str, Time]:
    return {atom: parse_time(t) for atom, t in stop.items()}


def _stops_to_doc(stop) -> dict:
    return {atom: "inf" if t == INFINITY else int(t) for atom, t in stop.items()}


def _rationals_from_doc(values, name: str) -> list[Fraction]:
    return [parse_rational(r) for r in values]


def _rationals_to_doc(values) -> list:
    return [rational_str(r) for r in values]


def _sections_from_doc(sections, name: str) -> list[PureStoppingTime]:
    """Each section, which ``_all_pure`` found to be a pure rule document, read."""
    return [stopping_time_from_doc(s) for s in sections]


def _sections_to_doc(sections) -> list:
    return [stopping_time_to_doc(s) for s in sections]


#: Each kind of field: the JSON kind its value must have (dict, list, or object for any, its
#: reader then checking it), its reader, given the value and the field's name, and its writer.
_BLOCKS = (object, _blocks_from_doc, _blocks_to_doc)
_ATOMS = (dict, _atoms_from_doc, _atoms_to_doc)
_STOPS = (dict, _stops_from_doc, _stops_to_doc)
_RATIONALS = (list, _rationals_from_doc, _rationals_to_doc)
_SECTIONS = (list, _sections_from_doc, _sections_to_doc)


def _read_fields(doc, context: str, fields: dict) -> dict:
    """Each of ``fields`` read from ``doc``, in order, by name."""
    return {
        name: read(_require(doc, name, context, kind), name)
        for name, (kind, read, _) in fields.items()
    }


def _write_fields(obj, fields: dict) -> dict:
    """Each of ``fields`` written from ``obj``'s attribute of that name, in order."""
    return {name: write(getattr(obj, name)) for name, (_, _, write) in fields.items()}


# -- stopping rules -----------------------------------------------------------------


def _all_pure(doc) -> None:
    """A mixed rule's sections must be an array of pure rule documents."""
    sections = _require(doc, "sections", "mixed rule", list)
    if any(_require(s, "type", "mixed section") != "pure" for s in sections):
        raise FormatError("every section of a mixed rule must be a 'pure' rule document")


#: Each rule type by its wire name, the document's "type": its class, which builds it from its
#: fields, its fields in document order, and a check of the whole document made before any
#: field is read, or None.
_RULES = {
    "pure": (PureStoppingTime, {"stop": _STOPS}, None),
    "randomized": (RandomizedStoppingTime, {"rho": _BLOCKS, "rho_inf": _ATOMS}, None),
    "behavior": (BehaviorStoppingTime, {"beta": _BLOCKS}, None),
    "mixed": (MixedStoppingTime, {"breakpoints": _RATIONALS, "sections": _SECTIONS}, _all_pure),
}


def stopping_time_from_doc(doc) -> RandomStoppingTime:
    kind = _require(doc, "type", "stopping rule")
    if not isinstance(kind, str) or kind not in _RULES:
        raise FormatError(f"unknown stopping-rule type {kind!r}")
    cls, fields, first = _RULES[kind]
    if first is not None:
        first(doc)
    return cls(**_read_fields(doc, f"{kind} rule", fields))


def stopping_time_to_doc(eta: RandomStoppingTime) -> dict:
    for kind, (cls, fields, _) in _RULES.items():
        if isinstance(eta, cls):
            return {"type": kind, **_write_fields(eta, fields)}
    raise TypeError(f"not a stopping rule: {type(eta).__name__}")


# -- processes and measures -----------------------------------------------------------

_PROCESS = {"values": _BLOCKS, "infinity": _ATOMS}


def process_from_doc(doc) -> AdaptedProcess:
    return AdaptedProcess(**_read_fields(doc, "process", _PROCESS))


def process_to_doc(process: AdaptedProcess) -> dict:
    return _write_fields(process, _PROCESS)


def _per_atom_doc(table, write) -> dict:
    """A ``{atom: {time: value}}`` table as a document: each time by its label, each value as
    ``write`` writes it.  It writes a measure's masses and the CLI's sampled counts and
    frequencies."""
    return {atom: {time_label(t): write(v) for t, v in row.items()} for atom, row in table.items()}


def measure_to_doc(nu: StoppingMeasure) -> dict:
    return {"mass": _per_atom_doc(nu.mass, rational_str)}


def measure_from_doc(doc, space: FilteredSpace) -> StoppingMeasure:
    mass_doc = _require(doc, "mass", "measure", dict)
    rows = {atom: _require(mass_doc, atom, "measure mass", dict) for atom in mass_doc}
    mass = {
        atom: {parse_time(k): parse_rational(v) for k, v in row.items()}
        for atom, row in rows.items()
    }
    return stopping_measure(mass, space)


# -- games ----------------------------------------------------------------------------

#: Each payoff key of a game document and the (player, coalition) it names, in the order
#: a document lists them.
_GAME_KEYS = {
    "1|{12}": (1, BOTH),
    "1|{1}": (1, ONLY_1),
    "1|{2}": (1, ONLY_2),
    "2|{12}": (2, BOTH),
    "2|{1}": (2, ONLY_1),
    "2|{2}": (2, ONLY_2),
}


def game_from_doc(doc, space: FilteredSpace) -> StoppingGame:
    players = _require(doc, "players", "game")
    if type(players) is not int or players != 2:
        raise FormatError(f"only 2-player games are supported, got players={players!r}")
    payoff_docs = _require(doc, "payoffs", "game", dict)
    table = {}
    for key, proc_doc in payoff_docs.items():
        if key not in _GAME_KEYS:
            raise FormatError(f"bad payoff key {key!r} (expected e.g. '1|{{12}}')")
        table[_GAME_KEYS[key]] = process_from_doc(proc_doc)
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
            key: process_to_doc(game.payoffs[pair]) for key, pair in _GAME_KEYS.items()
        },
        "zero_sum": is_zero_sum(game, space),
    }
