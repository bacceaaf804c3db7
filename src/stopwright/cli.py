"""Command-line front end: validate, convert, evaluate, and sample from JSON files.

Inputs are JSON documents (see the README for the formats); output is JSON
on stdout, or an aligned two-column table with ``--format table`` carrying
exactly the same numbers.  Exit codes: 0 success, 1 validation or domain
error (a structured message names the violated invariant), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .convert import TARGET_TYPES, convert
from .errors import FormatError, StopwrightError
from .serialize import (
    _per_atom_doc,
    game_from_doc,
    measure_to_doc,
    parse_rational,
    process_from_doc,
    rational_str,
    space_from_doc,
    stopping_time_from_doc,
    stopping_time_to_doc,
    time_label,
    too_many_digits,
)
from .stopping import check, detailed_distribution, equivalent

DEFAULT_SAMPLES = 100_000
SEED_ENV_VAR = "STOPWRIGHT_SEED"


def _int_from(least: int):
    """The argparse type of an int option whose least value is ``least``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be an integer >= {least}, got {text}")
        return value

    return integer


def _optimum(result) -> dict:
    """An optimum's document: its value and its pure rule (``snell`` and ``br``)."""
    return {"value": rational_str(result.value), "strategy": stopping_time_to_doc(result.strategy)}


def _rule(doc, space):
    return stopping_time_from_doc(doc)


def _problem(doc, space):
    return process_from_doc(doc)


#: Each input file a command may name besides its --space, by flag, in the order a command
#: reads them: the reader of its document, which is given the space too, and its help text.
INPUTS = {
    "st": (_rule, "stopping-rule JSON file"),
    "st2": (_rule, "second stopping-rule JSON file"),
    "problem": (_problem, "payoff-process JSON file"),
    "game": (game_from_doc, "stopping-game JSON file"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stopwright",
        description="Stopping rules on finite scenario trees: validation, "
        "conversion, equivalence, optimal stopping, stopping games, and "
        "seeded Monte-Carlo sampling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, *inputs):
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--space", required=True, help="scenario-tree JSON file")
        for flag in inputs:
            p.add_argument(f"--{flag}", required=True, help=INPUTS[flag][1])
        p.add_argument(
            "--format", choices=("json", "table"), default="json", help="output format"
        )
        return p

    p = add("validate", "Check a space (and optionally a stopping rule) against every invariant.")
    p.add_argument("--st", help="stopping-rule JSON file to validate on the space")

    p = add("convert", "Rewrite a stopping rule as an equivalent rule of another type.", "st")
    p.add_argument("--to", required=True, choices=TARGET_TYPES, help="target representation")

    add("dist", "Print the exact joint law of (outcome, stop index) for a rule.", "st")
    add("equiv", "Decide whether two rules have identical detailed distributions.", "st", "st2")

    p = add("payoff", "Expected payoff of a stopping problem under a rule.", "st", "problem")
    p.add_argument("--epsilon", help="also report whether the rule is epsilon-optimal")

    add("snell", "Optimal stopping value and an optimal pure rule.", "problem")
    add("game-payoff", "Expected payoff pair of a two-player stopping game.", "st", "st2", "game")
    add("game-value", "Exact value and optimal behavior profile of a zero-sum game.", "game")

    p = add(
        "br",
        "Best-response value and strategy against a fixed opponent rule. "
        "Convention: if the opponent stops strictly first at time n, the "
        "responder banks their opponent-stops-alone payoff at n; stopping "
        "together pays the both-stop process, and if nobody ever stops the "
        "both-stop process's terminal slot applies.",
        "st",
        "game",
    )
    p.add_argument("--player", required=True, type=int, choices=(1, 2), help="responding player")

    p = add("eq-check", "Check a profile for epsilon-equilibrium.", "st", "st2", "game")
    p.add_argument("--epsilon", default="0", help="slack as a rational string (default 0)")

    p = add("sample", "Seeded Monte-Carlo frequencies of (outcome, stop index).", "st")
    p.add_argument("--samples", type=_int_from(1), default=DEFAULT_SAMPLES)
    p.add_argument(
        "--seed",
        type=_int_from(0),
        default=None,
        help=f"RNG seed (default: ${SEED_ENV_VAR} if set, else 0)",
    )
    return parser


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        return json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError("arrays or objects nested too deeply", text, 0) from None
    except json.JSONDecodeError:
        raise
    except ValueError:  # an integer literal past the interpreter's limit on digits
        raise FormatError(too_many_digits()) from None


def _flatten(doc, prefix=()):
    if isinstance(doc, dict):
        for key in doc:
            yield from _flatten(doc[key], prefix + (str(key),))
    elif isinstance(doc, list):
        for i, item in enumerate(doc):
            yield from _flatten(item, prefix + (str(i),))
    else:
        rendered = doc if isinstance(doc, str) else json.dumps(doc)
        yield ".".join(prefix), rendered


def render_table(doc) -> str:
    rows = list(_flatten(doc))
    if not rows:
        return ""
    width = max(len(path) for path, _ in rows)
    return "\n".join(f"{path:<{width}}  {value}" for path, value in rows)


def _emit(doc, fmt: str) -> None:
    if fmt == "table":
        print(render_table(doc))
    else:
        print(json.dumps(doc, indent=2, sort_keys=True))


def _resolve_seed(seed) -> int:
    if seed is not None:
        return seed
    env = os.environ.get(SEED_ENV_VAR)
    if not env:
        return 0
    try:
        value = int(env)
    except ValueError:
        raise FormatError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None
    if value < 0:
        raise FormatError(f"{SEED_ENV_VAR} must be nonnegative, got {value}")
    return value


def _dispatch(args) -> dict:
    space = space_from_doc(_load_json(args.space))
    read = {}
    for name, (reader, _) in INPUTS.items():
        path = getattr(args, name, None)
        if path is not None:
            read[name] = reader(_load_json(path), space)
    eta1, eta2, problem, game = map(read.get, INPUTS)

    if args.command == "validate":
        if eta1 is not None:
            check(eta1, space)
        return {"valid": True}

    if args.command == "convert":
        return stopping_time_to_doc(convert(eta1, args.to, space))

    if args.command == "dist":
        return measure_to_doc(detailed_distribution(eta1, space))

    if args.command == "equiv":
        return {"equivalent": equivalent(eta1, eta2, space)}

    # Each command imports the layers it runs, so that no other command loads them: ``payoffs``
    # for a problem, ``games`` (which loads ``payoffs``) for a game, numpy only for sampling.
    if args.command == "payoff":
        from .payoffs import _optimality, payoff

        if args.epsilon is None:
            return {"payoff": rational_str(payoff(eta1, problem, space))}
        # as in eq-check, the epsilon is parsed and judged before the one pairing
        epsilon = parse_rational(args.epsilon)
        value, optimal = _optimality(eta1, problem, epsilon, space)
        return {
            "payoff": rational_str(value),
            "epsilon": rational_str(epsilon),
            "epsilon_optimal": optimal,
        }

    if args.command == "snell":
        from .payoffs import snell_value

        return _optimum(snell_value(problem, space))

    if args.command == "game-payoff":
        from .games import game_payoff

        one, two = game_payoff(eta1, eta2, game, space)
        return {"player1": rational_str(one), "player2": rational_str(two)}

    if args.command == "game-value":
        from .games import zero_sum_value

        result = zero_sum_value(game, space)
        return {
            "value": rational_str(result.value),
            "profile": {
                "player1": stopping_time_to_doc(result.strategies[0]),
                "player2": stopping_time_to_doc(result.strategies[1]),
            },
        }

    if args.command == "br":
        from .games import best_response_value

        result = best_response_value(eta1, game, args.player, space)
        return {"player": args.player, **_optimum(result)}

    if args.command == "eq-check":
        from .games import check_epsilon_equilibrium

        epsilon = parse_rational(args.epsilon)
        return {
            "epsilon": rational_str(epsilon),
            "equilibrium": check_epsilon_equilibrium(eta1, eta2, game, epsilon, space),
        }

    if args.command == "sample":
        from .montecarlo import empirical_detailed_distribution

        seed = _resolve_seed(args.seed)
        result = empirical_detailed_distribution(eta1, space, args.samples, seed)
        return {
            "samples": args.samples,
            "seed": seed,
            "counts": _per_atom_doc(result.counts, int),
            "frequencies": _per_atom_doc(result.frequencies, float),
        }

    raise AssertionError(f"unhandled command {args.command}")


#: Errors met reading an input file, by the name the JSON error gives them; first match wins.
_FILE_ERRORS = (
    (FileNotFoundError, "FileNotFound"),
    (OSError, "FileError"),
    (UnicodeDecodeError, "InvalidEncoding"),
    (json.JSONDecodeError, "InvalidJSON"),
)


def _error_name(exc: Exception) -> str:
    if isinstance(exc, StopwrightError):
        return type(exc).__name__
    return next(name for kind, name in _FILE_ERRORS if isinstance(exc, kind))


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        doc = _dispatch(args)
    except (StopwrightError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        error = {"error": _error_name(exc), "message": str(exc)}
        v = getattr(exc, "violation", None)
        if v is not None:  # its fields in order, the time written as in messages
            error["violation"] = {**vars(v), "time": None if v.time is None else time_label(v.time)}
        print(json.dumps(error), file=sys.stderr)
        return 1
    _emit(doc, args.format)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
