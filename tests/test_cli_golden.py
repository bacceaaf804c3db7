"""A golden digest of the command line's bytes: every command, in both output formats, on the
e1 fixture documents, and the errors of bad inputs.

Each run goes through ``cli.run`` in-process, in a working directory of its own, with
relative paths, so no message names a temporary directory.  The digest hashes, run by run,
the arguments, the exit code, stdout and stderr.  It was recorded on a known-good version; a
change that moves any byte the CLI prints fails here, and one that means to must record a
new digest and say why.  Usage errors are left out: argparse words and lays out its usage
and help text differently from one Python version to the next.
"""

import hashlib
import json
import random

from stopwright import convert, stopping_game
from stopwright.cli import run
from stopwright.games import BOTH, ONLY_1, ONLY_2
from stopwright.serialize import game_to_doc, stopping_time_to_doc

from fuzz import E1_NODES, make_b1, make_e1, make_r1, negate_process, random_process

CLI_DIGEST = "7823ebb7b17f3a5724c86a780341b5f700c3891d1561cccc28ec2bc11877d194"


def documents() -> dict:
    """The input documents, by file name."""
    e1, rng = make_e1(), random.Random(47)
    bad = [dict(node) for node in E1_NODES]
    bad[-1]["prob"] = "1/3"
    table = {}
    for c in (ONLY_1, ONLY_2, BOTH):
        table[1, c] = random_process(rng, e1)
        table[2, c] = negate_process(table[1, c])
    return {
        "e1.json": {"nodes": E1_NODES},
        "bad.json": {"nodes": bad},
        "r1.json": stopping_time_to_doc(make_r1()),
        "b1.json": stopping_time_to_doc(make_b1()),
        "mixed.json": stopping_time_to_doc(convert(make_b1(), "mixed", e1)),
        "stopnow.json": {"type": "pure", "stop": dict.fromkeys(e1.atoms, 1)},
        "split.json": {"type": "pure", "stop": {"w1": 1, "w2": 2, "w3": 1, "w4": 1}},
        "hazard.json": {"type": "behavior", "beta": {"1": {"A": "3/2", "B": "0"}}},
        "problem.json": {
            "values": {"1": {"A": "0", "B": "1/3"}, "2": dict.fromkeys(e1.atoms, "1")},
            "infinity": dict.fromkeys(e1.atoms, "0"),
        },
        "game.json": game_to_doc(stopping_game(table), e1),
    }


SPACE = ["--space", "e1.json"]

#: Every command on the fixture documents, then the errors: a bad space, bad rules, a missing
#: file and a bad --epsilon.
RUNS = [
    ["validate", *SPACE],
    ["validate", *SPACE, "--st", "mixed.json"],
    *(["convert", *SPACE, "--st", st, "--to", to]
      for st in ("r1.json", "b1.json", "mixed.json", "stopnow.json")
      for to in ("randomized", "behavior", "mixed")),
    ["dist", *SPACE, "--st", "b1.json"],
    ["equiv", *SPACE, "--st", "r1.json", "--st2", "b1.json"],
    ["equiv", *SPACE, "--st", "r1.json", "--st2", "stopnow.json"],
    ["payoff", *SPACE, "--st", "r1.json", "--problem", "problem.json"],
    ["payoff", *SPACE, "--st", "stopnow.json", "--problem", "problem.json", "--epsilon", "1/2"],
    ["snell", *SPACE, "--problem", "problem.json"],
    ["game-payoff", *SPACE, "--st", "r1.json", "--st2", "b1.json", "--game", "game.json"],
    ["game-value", *SPACE, "--game", "game.json"],
    ["br", *SPACE, "--st", "b1.json", "--game", "game.json", "--player", "1"],
    ["br", *SPACE, "--st", "mixed.json", "--game", "game.json", "--player", "2"],
    ["eq-check", *SPACE, "--st", "b1.json", "--st2", "r1.json", "--game", "game.json"],
    ["eq-check", *SPACE, "--st", "b1.json", "--st2", "r1.json", "--game", "game.json",
     "--epsilon", "1/4"],
    ["sample", *SPACE, "--st", "r1.json", "--samples", "64", "--seed", "1"],
    ["sample", *SPACE, "--st", "mixed.json", "--samples", "50", "--seed", "3"],
    ["validate", "--space", "bad.json"],
    ["dist", "--space", "bad.json", "--st", "r1.json"],
    ["validate", *SPACE, "--st", "split.json"],
    ["dist", *SPACE, "--st", "hazard.json"],
    ["convert", *SPACE, "--st", "nope.json", "--to", "behavior"],
    ["payoff", *SPACE, "--st", "r1.json", "--problem", "problem.json", "--epsilon", "x"],
    ["eq-check", *SPACE, "--st", "b1.json", "--st2", "r1.json", "--game", "game.json",
     "--epsilon", "1/0"],
]


def digest(tmp_path, monkeypatch, capsys) -> str:
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("STOPWRIGHT_SEED", raising=False)
    for name, doc in documents().items():
        (tmp_path / name).write_text(json.dumps(doc))
    h = hashlib.sha256()
    for argv in RUNS:
        for fmt in ("json", "table"):
            code = run([*argv, "--format", fmt])
            captured = capsys.readouterr()
            h.update(repr((argv, fmt, code, captured.out, captured.err)).encode())
            h.update(b"\n")
    return h.hexdigest()


def test_cli_bytes_unchanged(tmp_path, monkeypatch, capsys):
    assert digest(tmp_path, monkeypatch, capsys) == CLI_DIGEST
