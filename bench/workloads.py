"""The three workloads: what one session does, and the oracles that check it.

A session is one unit of user work; sessions run back to back in a closed
loop with one client.  ``session`` makes the timed calls and returns their
results; ``check`` then runs the oracles and records every exact result in
the digest, outside the timed region.

* ``bushy``: binary tree, T=10, 1,024 atoms, 2,046 blocks.  Dense per-atom
  mass tables and the (T+1)^2 joint table make ``stopping``, ``payoffs``,
  ``games`` and ``montecarlo`` do most of their work here.
* ``deep``: one chain, T=1,200, past Python's default recursion limit.
  ``convert``'s per-block prefix sums, the recursive tree walks and the
  growth of exact numbers (about 1.1 bits per level) do the work; per-atom
  tables are trivial with one atom.
* ``cli``: 32 x 32 tree, T=2, 1,024 atoms, documents on disk.  A session
  is one ``stopwright`` child process; interpreter start, imports, JSON and
  ``build_space`` dominate, and depth-driven kernels stay idle.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import stopwright as sw
from stopwright import cli, serialize
from stopwright.montecarlo import chunk_plan

import fuzz
import gen
from tracing import Failed, Recorder

KINDS = tuple(gen.RULE_MAKERS)
TARGETS = ("mixed", "randomized", "behavior")
#: bushy and cli convert the grid rule (see gen.py) to a target rotating
#: with period 3, and bushy plays one fixed pair in the general-sum game: a
#: short rotation keeps the median session of a run the same whatever the
#: number of sessions.
SOURCE = "behavior"
PAIR = ("randomized", "behavior")
MC_SAMPLES = 8192
#: Hoeffding half-width at confidence 1 - 1e-9 for a mean of MC_SAMPLES
#: draws of a quantity with range 1; scale by the range of what is averaged.
MC_HALF_WIDTH = math.sqrt(math.log(2 / 1e-9) / (2 * MC_SAMPLES))
PAYOFF_RANGE = 24  # generated payoffs lie in [-12, 12]

#: Every timed function, as ``<module>.<function>``; each gets .calls, .self_ms, .errors.
LAYERS = (
    "space.build_space",
    "stopping.validate",
    "stopping.detailed_distribution",
    "stopping.equivalent",
    "convert.to_randomized",
    "convert.to_behavior",
    "convert.to_mixed",
    "payoffs.payoff",
    "payoffs.snell_value",
    "payoffs.distinguish",
    "games.zero_sum_value",
    "games.check_epsilon_equilibrium",
    "games.game_payoff",
    "games.best_response_value",
    "montecarlo.empirical_game_payoff",
    "serialize.space_from_doc",
    "serialize.stopping_time_from_doc",
    "serialize.process_from_doc",
    "serialize.game_from_doc",
    "serialize.stopping_time_to_doc",
    "serialize.measure_to_doc",
    "cli.process",
    "cli.import",
    "cli.run",
)
#: Timed functions also called outside sessions, reported as
#: ``setup.<layer>.self_ms`` (per set-up) and ``check.<layer>.self_ms``: on
#: ``cli`` these break the child's work into import, in-process run and
#: document parsing.  Other oracle calls compute reference values and are
#: not reported by layer.
SETUP_LAYERS = (
    "space.build_space",
    "cli.import",
    "games.zero_sum_value",
    "serialize.stopping_time_to_doc",
)
CHECK_LAYERS = (
    "cli.run",
    "serialize.space_from_doc",
    "serialize.stopping_time_from_doc",
    "serialize.process_from_doc",
    "serialize.game_from_doc",
    "serialize.measure_to_doc",
)


def failed(*values) -> bool:
    return any(isinstance(v, Failed) for v in values)


class SetupFailed(Exception):
    pass


def need(value):
    """Set-up cannot go on without this result."""
    if isinstance(value, Failed):
        raise SetupFailed(f"{value.layer} raised {value.error} during set-up")
    return value


def canon(value) -> str:
    """Deterministic text for a nested exact result, for the digest."""
    if isinstance(value, dict):
        items = sorted((canon(k), canon(v)) for k, v in value.items())
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(value, (frozenset, set)):
        return "set(" + ",".join(sorted(canon(v) for v in value)) + ")"
    if isinstance(value, (list, tuple)):
        return type(value).__name__ + "(" + ",".join(canon(v) for v in value) + ")"
    if hasattr(value, "__dataclass_fields__"):
        fields = ",".join(canon(getattr(value, f)) for f in value.__dataclass_fields__)
        return type(value).__name__ + "(" + fields + ")"
    return repr(value) if not isinstance(value, Fraction) else str(value)


class Checks:
    """Oracle outcomes and the digest of every exact result.

    An oracle whose inputs come from a call that failed in a session is
    *blocked*: the failure is already counted against the call, and the
    oracle is reported as not run.  An oracle whose own reference call
    failed has failed.  A result recorded twice under one key must be
    equal both times; a difference is a digest failure.
    """

    def __init__(self):
        self.outcomes: Counter = Counter()  # (oracle, pass|fail|blocked) -> count
        self.failures: list[str] = []
        self.results: dict = {}
        self.mismatched: list[str] = []

    def expect(self, name: str, inputs: tuple, ok) -> bool:
        broken = [v for v in inputs if isinstance(v, Failed)]
        if broken and all(v.in_session for v in broken):
            self.outcomes[(name, "blocked")] += 1
            return True
        passed = not broken and bool(ok())
        self.outcomes[(name, "pass" if passed else "fail")] += 1
        if not passed and len(self.failures) < 20:
            self.failures.append(name)
        return passed

    def record(self, key, value) -> None:
        if isinstance(value, Failed):
            return
        if key not in self.results:
            self.results[key] = value
        elif self.results[key] != value:
            self.mismatched.append(canon(key))

    @property
    def correct(self) -> bool:
        failures = sum(n for (_, outcome), n in self.outcomes.items() if outcome == "fail")
        return failures == 0 and not self.mismatched

    def digest(self) -> str:
        h = hashlib.sha256()
        for key, value in sorted((canon(k), canon(v)) for k, v in self.results.items()):
            h.update(f"{key}={value}\n".encode())
        return h.hexdigest()

    def summary(self) -> dict:
        table: dict = {}
        for (name, outcome), n in sorted(self.outcomes.items()):
            table.setdefault(name, {})[outcome] = n
        return {
            "oracles": table,
            "failed_oracles": self.failures,
            "digest": self.digest(),
            "digest_keys": len(self.results),
            "digest_mismatches": self.mismatched[:20],
        }


def space_sizes(space) -> dict:
    T = space.horizon
    return {
        "size.horizon": T,
        "size.atoms": len(space.atoms),
        "size.blocks": sum(len(space.blocks(n)) for n in range(1, T + 1)),
        "size.joint_cells": len(space.atoms) * (T + 1) ** 2,
    }


def sections_of(rule) -> int:
    return len(rule.sections) if isinstance(rule, sw.MixedStoppingTime) else 0


class Workload:
    """Shared set-up bookkeeping; subclasses define the inputs and the session."""

    name = ""
    work_in_children = False

    def __init__(self, smoke: bool, root: str):
        self.smoke = smoke
        self.root = root
        self.checks = Checks()
        self.cache: dict = {}
        self.env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
        self.env.pop(cli.SEED_ENV_VAR, None)
        self.mixed_sections = 0

    def import_child(self) -> None:
        """A bare ``import stopwright.cli`` in a fresh interpreter."""
        subprocess.run(
            [sys.executable, "-c", "import stopwright.cli"],
            env=self.env, check=True, timeout=120, capture_output=True,
        )

    def once(self, key, compute):
        """Compute a reference value once per run (oracles reuse it)."""
        if key not in self.cache:
            self.cache[key] = compute()
        return self.cache[key]

    def check_setup(self, rec: Recorder) -> None:
        pass

    def close(self) -> None:
        pass

    def sizes(self) -> dict:
        return {
            **space_sizes(self.space),
            "size.mixed_sections": self.mixed_sections,
            "size.mc_chunks": 0,
            "size.stdout_bytes": 0,
        }


class Bushy(Workload):
    """Single player: four rules, one problem.  Two players: a zero-sum and a general-sum game."""

    name = "bushy"

    def setup(self, seed: int, rec: Recorder) -> None:
        rng = random.Random(seed)
        nodes = gen.tree_nodes(rng, [2] * (4 if self.smoke else 10))
        self.space = need(rec.call("space.build_space", sw.build_space, nodes))
        self.rules = gen.all_rules(rng, self.space)
        self.problem = fuzz.random_process(rng, self.space)
        self.zero_sum = fuzz.random_zero_sum_game(rng, self.space)
        self.general = fuzz.random_game(rng, self.space)

    def sizes(self) -> dict:
        return {**super().sizes(), "size.mc_chunks": len(chunk_plan(MC_SAMPLES))}

    def session(self, k: int, rec: Recorder) -> dict:
        sp, c = self.space, rec.call
        target, src = TARGETS[k % 3], self.rules[SOURCE]
        r = {}
        for kind, rule in self.rules.items():
            r["validate", kind] = c("stopping.validate", sw.validate, rule, sp)
            r["dd", kind] = c("stopping.detailed_distribution", sw.detailed_distribution, rule, sp)
        conv = r["convert", target] = c("convert.to_" + target, sw.convert, src, target, sp)
        r["equivalent", target] = c("stopping.equivalent", sw.equivalent, src, conv, sp)
        r["payoff", target] = c("payoffs.payoff", sw.payoff, conv, self.problem, sp)
        r["snell"] = c("payoffs.snell_value", sw.snell_value, self.problem, sp)
        r["distinguish", target] = c("payoffs.distinguish", sw.distinguish, src, conv, sp)

        zs = r["zero_sum"] = c("games.zero_sum_value", sw.zero_sum_value, self.zero_sum, sp)
        b1, b2 = (zs, zs) if failed(zs) else zs.strategies
        r["eq_check"] = c(
            "games.check_epsilon_equilibrium",
            sw.check_epsilon_equilibrium, b1, b2, self.zero_sum, 0, sp,
        )
        one, two = (self.rules[kind] for kind in PAIR)
        r["game_payoff"] = c("games.game_payoff", sw.game_payoff, one, two, self.general, sp)
        r["best_response"] = c(
            "games.best_response_value", sw.best_response_value, two, self.general, 1, sp
        )
        r["mc", k % 4] = c(
            "montecarlo.empirical_game_payoff",
            sw.empirical_game_payoff, one, two, self.general, sp, MC_SAMPLES, k % 4,
        )
        return r

    def check(self, k: int, r: dict, rec: Recorder) -> None:
        sp, c, ck = self.space, rec.call, self.checks
        target = TARGETS[k % 3]
        source_payoff = self.once(
            "source_payoff", lambda: c("payoffs.payoff", sw.payoff, self.rules[SOURCE], self.problem, sp)
        )
        for kind in KINDS:
            ck.expect("validate accepts generated rules", (r["validate", kind],),
                      lambda: r["validate", kind] is None)
        ck.expect("converted rule is equivalent to its source", (r["equivalent", target],),
                  lambda: r["equivalent", target] is True)
        ck.expect("distinguish finds no witness between equivalent rules",
                  (r["distinguish", target],), lambda: r["distinguish", target] is None)
        conv_payoff = r["payoff", target]
        ck.expect("payoff(converted) == payoff(source)", (conv_payoff, source_payoff),
                  lambda: conv_payoff == source_payoff)
        snell = r["snell"]
        ck.expect("snell value >= payoff of every evaluated rule", (snell, conv_payoff, source_payoff),
                  lambda: snell.value >= conv_payoff and snell.value >= source_payoff)

        zs = r["zero_sum"]
        ck.expect("zero-sum profile passes the epsilon=0 check", (r["eq_check"],),
                  lambda: r["eq_check"] is True)
        profile_payoff = zs if failed(zs) else self.once(
            "profile_payoff",
            lambda: c("games.game_payoff", sw.game_payoff, *zs.strategies, self.zero_sum, sp),
        )
        ck.expect("zero-sum profile's game_payoff equals the game value", (zs, profile_payoff),
                  lambda: profile_payoff == (zs.value, -zs.value))

        exact, br, mc = r["game_payoff"], r["best_response"], r["mc", k % 4]
        ck.expect("best response >= the payoff it replaces", (exact, br),
                  lambda: br.value >= exact[0])
        tol = PAYOFF_RANGE * MC_HALF_WIDTH
        ck.expect(f"Monte-Carlo game payoff within {tol:.3f} of exact", (exact, mc),
                  lambda: all(abs(m - float(e)) <= tol for m, e in zip(mc, exact)))

        for key, value in r.items():
            ck.record(key, value)
            rec.note_bits(value)
        ck.record("profile_payoff", profile_payoff)
        if not failed(r["convert", target]):
            self.mixed_sections = max(self.mixed_sections, sections_of(r["convert", target]))


class Deep(Workload):
    """A chain past the recursion limit: convert round trip, payoff, snell, game value, best response."""

    name = "deep"

    def setup(self, seed: int, rec: Recorder) -> None:
        rng = random.Random(seed)
        nodes = gen.tree_nodes(rng, [1] * (40 if self.smoke else 1200))
        self.space = need(rec.call("space.build_space", sw.build_space, nodes))
        self.rule = gen.chain_hazards(rng, self.space)
        self.problem = gen.drifting_process(rng, self.space)
        self.game = fuzz.random_zero_sum_game(rng, self.space)

    def session(self, k: int, rec: Recorder) -> dict:
        sp, c = self.space, rec.call
        r = {}
        rr = r["to_randomized"] = c("convert.to_randomized", sw.convert, self.rule, "randomized", sp)
        bb = r["to_behavior"] = c("convert.to_behavior", sw.convert, rr, "behavior", sp)
        r["payoff"] = c("payoffs.payoff", sw.payoff, bb, self.problem, sp)
        r["snell"] = c("payoffs.snell_value", sw.snell_value, self.problem, sp)
        r["zero_sum"] = c("games.zero_sum_value", sw.zero_sum_value, self.game, sp)
        r["best_response"] = c(
            "games.best_response_value", sw.best_response_value, self.rule, self.game, 1, sp
        )
        return r

    def check(self, k: int, r: dict, rec: Recorder) -> None:
        sp, c, ck = self.space, rec.call, self.checks
        rule_payoff = self.once("payoff", lambda: c("payoffs.payoff", sw.payoff, self.rule, self.problem, sp))
        for name in ("to_randomized", "to_behavior"):
            verdict = r[name] if failed(r[name]) else c(
                "stopping.equivalent", sw.equivalent, self.rule, r[name], sp
            )
            ck.expect("converted rule is equivalent to its source", (verdict,),
                      lambda: verdict is True)
        ck.expect("payoff(converted) == payoff(source)", (r["payoff"], rule_payoff),
                  lambda: r["payoff"] == rule_payoff)
        ck.expect("snell value >= payoff of every evaluated rule", (r["snell"], rule_payoff),
                  lambda: r["snell"].value >= rule_payoff)
        # No epsilon=0 check of the zero-sum profile here: check_epsilon_equilibrium
        # first builds the (T+1)^2 joint table, 1.44 million cells and about
        # 300 MB on this chain, which would swamp the run's time and memory.
        zs = r["zero_sum"]
        br = r["best_response"]
        ck.expect("best response >= the zero-sum value it replaces", (br, zs),
                  lambda: br.value >= zs.value)
        for key, value in r.items():
            ck.record(key, value)
            rec.note_bits(value)


COMMANDS = ("validate", "dist", "convert", "payoff", "snell", "game-value", "br", "eq-check", "sample")


class ChildFailed(Exception):
    pass


class Cli(Workload):
    """One ``stopwright`` process per session, commands in a fixed cycle."""

    name = "cli"
    work_in_children = True

    def __init__(self, smoke: bool, root: str):
        super().__init__(smoke, root)
        self.dir = os.path.join(root, ".bench_build", f"cli-{os.getpid()}")
        self.stdout_bytes: list[int] = []

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def setup(self, seed: int, rec: Recorder) -> None:
        rng = random.Random(seed)
        width = 4 if self.smoke else 32
        nodes = gen.tree_nodes(rng, [width, width])
        self.space = need(rec.call("space.build_space", sw.build_space, nodes))
        self.rules = gen.all_rules(rng, self.space)
        self.problem = fuzz.random_process(rng, self.space)
        self.zero_sum = fuzz.random_zero_sum_game(rng, self.space)
        self.general = fuzz.random_game(rng, self.space)
        zs = need(rec.call("games.zero_sum_value", sw.zero_sum_value, self.zero_sum, self.space))
        self.value, self.profile = zs.value, zs.strategies

        os.makedirs(self.dir, exist_ok=True)
        c = rec.call
        docs = {
            "space.json": {"nodes": nodes},
            "problem.json": serialize.process_to_doc(self.problem),
            "zero_sum.json": serialize.game_to_doc(self.zero_sum, self.space),
            "general.json": serialize.game_to_doc(self.general, self.space),
        }
        for kind, rule in self.rules.items():
            docs[f"{kind}.json"] = need(c("serialize.stopping_time_to_doc", serialize.stopping_time_to_doc, rule))
        for j, rule in enumerate(self.profile, start=1):
            docs[f"profile{j}.json"] = need(c("serialize.stopping_time_to_doc", serialize.stopping_time_to_doc, rule))
        self.profile_docs = {"player1": docs["profile1.json"], "player2": docs["profile2.json"]}
        for name, doc in docs.items():
            with open(self.path(name), "w", encoding="utf-8") as handle:
                json.dump(doc, handle)

    def check_setup(self, rec: Recorder) -> None:
        """Every document written in set-up parses back to the object it came from."""
        c, ck = rec.call, self.checks

        def load(name):
            with open(self.path(name), encoding="utf-8") as handle:
                return json.load(handle)

        back = c("serialize.space_from_doc", serialize.space_from_doc, load("space.json"))
        ck.expect("space document round-trips", (back,),
                  lambda: back.levels == self.space.levels and back.prob == self.space.prob)
        back = c("serialize.process_from_doc", serialize.process_from_doc, load("problem.json"))
        ck.expect("process document round-trips", (back,), lambda: back == self.problem)
        for name, game in (("zero_sum", self.zero_sum), ("general", self.general)):
            back = c("serialize.game_from_doc", serialize.game_from_doc, load(f"{name}.json"), self.space)
            ck.expect("game document round-trips", (back,), lambda: back == game)
        for kind, rule in self.rules.items():
            back = c("serialize.stopping_time_from_doc", serialize.stopping_time_from_doc, load(f"{kind}.json"))
            ck.expect("rule document round-trips", (back,), lambda: back == rule)

    def sizes(self) -> dict:
        return {
            **super().sizes(),
            "size.mc_chunks": len(chunk_plan(MC_SAMPLES)),
            "size.stdout_bytes": int(sorted(self.stdout_bytes)[len(self.stdout_bytes) // 2])
            if self.stdout_bytes else 0,
        }

    def argv(self, k: int) -> tuple[list[str], dict]:
        """Command line of session ``k`` and what it is about."""
        command, j = COMMANDS[k % len(COMMANDS)], k // len(COMMANDS)
        kind, target, player = KINDS[j % 4], TARGETS[j % 3], 1 + j % 2
        if command == "convert":
            kind = SOURCE
        args = [command, "--space", self.path("space.json")]
        if command in ("validate", "dist", "convert", "payoff", "br", "sample"):
            args += ["--st", self.path(f"{kind}.json")]
        if command == "convert":
            args += ["--to", target]
        if command in ("payoff", "snell"):
            args += ["--problem", self.path("problem.json")]
        if command == "game-value":
            args += ["--game", self.path("zero_sum.json")]
        if command == "br":
            args += ["--game", self.path("general.json"), "--player", str(player)]
        if command == "eq-check":
            args += ["--st", self.path("profile1.json"), "--st2", self.path("profile2.json"),
                     "--game", self.path("zero_sum.json")]
        if command == "sample":
            args += ["--samples", str(MC_SAMPLES), "--seed", str(j)]
        return args, {"command": command, "kind": kind, "player": player}

    def run_child(self, args: list[str]) -> bytes:
        done = subprocess.run(
            [sys.executable, "-m", "stopwright.cli", *args],
            env=self.env, capture_output=True, timeout=120,
        )
        if done.returncode != 0:
            raise ChildFailed(f"exit {done.returncode}: {done.stderr[-500:]!r}")
        return done.stdout

    @staticmethod
    def run_inprocess(args: list[str]) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(args)
        if code != 0:
            raise ChildFailed(f"exit {code}")
        return out.getvalue()

    def session(self, k: int, rec: Recorder) -> dict:
        args, _ = self.argv(k)
        return {"stdout": rec.call("cli.process", self.run_child, args)}

    def check(self, k: int, r: dict, rec: Recorder) -> None:
        args, about = self.argv(k)
        key = tuple(os.path.basename(a) for a in args)
        stdout = r["stdout"]
        if failed(stdout):
            self.checks.expect("cli output agrees with the library", (stdout,), lambda: True)
            return
        self.stdout_bytes.append(len(stdout))
        self.checks.record(key, stdout)
        if k < len(COMMANDS):
            inproc = rec.call("cli.run", self.run_inprocess, args)
            self.checks.expect("in-process cli.run prints what the child printed", (inproc,),
                               lambda: inproc.encode() == stdout)
        try:
            doc = json.loads(stdout)
            ok = self.agrees(doc, about, rec)
        except (ValueError, KeyError, TypeError, AttributeError):
            doc, ok = None, False
        if not self.checks.expect(f"cli {about['command']} output agrees with the library", (), lambda: ok):
            rec.fail("cli.process", "OracleFailed")
        if rec.traced:
            rec.note_bits([Fraction(v) for v in _rationals(doc)])

    def agrees(self, doc: dict, about: dict, rec: Recorder) -> bool:
        """The child's document against the library's own answer (reference values cached)."""
        sp, c, command = self.space, rec.call, about["command"]
        rule = self.rules[about["kind"]]
        payoffs = {
            kind: self.once(("payoff", kind), lambda: c("payoffs.payoff", sw.payoff, r, self.problem, sp))
            for kind, r in self.rules.items()
        }
        if command == "validate":
            return doc == {"valid": True}
        if command == "dist":
            expected = self.once(("dist", about["kind"]), lambda: c(
                "serialize.measure_to_doc", serialize.measure_to_doc,
                c("stopping.detailed_distribution", sw.detailed_distribution, rule, sp)))
            return doc == expected
        if command == "convert":
            back = c("serialize.stopping_time_from_doc", serialize.stopping_time_from_doc, doc)
            self.mixed_sections = max(self.mixed_sections, sections_of(back))
            return (c("stopping.equivalent", sw.equivalent, rule, back, sp) is True
                    and c("payoffs.payoff", sw.payoff, back, self.problem, sp) == payoffs[about["kind"]])
        if command == "payoff":
            return Fraction(doc["payoff"]) == payoffs[about["kind"]]
        if command == "snell":
            expected = self.once("snell", lambda: c("payoffs.snell_value", sw.snell_value, self.problem, sp))
            value = Fraction(doc["value"])
            return value == expected.value and all(value >= p for p in payoffs.values())
        if command == "game-value":
            return Fraction(doc["value"]) == self.value and doc["profile"] == self.profile_docs
        if command == "br":
            player = about["player"]
            mine = self.rules[KINDS[(KINDS.index(about["kind"]) + 1) % 4]]
            expected = self.once(("br", about["kind"], player), lambda: c(
                "games.best_response_value", sw.best_response_value, rule, self.general, player, sp))
            pair = (mine, rule) if player == 1 else (rule, mine)
            replaced = self.once(("replaced", about["kind"], player), lambda: c(
                "games.game_payoff", sw.game_payoff, *pair, self.general, sp))
            value = Fraction(doc["value"])
            return doc["player"] == player and value == expected.value and value >= replaced[player - 1]
        if command == "eq-check":
            return doc == {"epsilon": "0", "equilibrium": True}
        if command == "sample":
            nu = self.once(("dd", about["kind"]), lambda: c(
                "stopping.detailed_distribution", sw.detailed_distribution, rule, sp))
            counts, freqs = doc["counts"], doc["frequencies"]
            return (doc["samples"] == MC_SAMPLES
                    and sum(n for row in counts.values() for n in row.values()) == MC_SAMPLES
                    and all(abs(freqs[a][serialize.time_label(t)] - float(m)) <= MC_HALF_WIDTH
                            for a, row in nu.mass.items() for t, m in row.items()))
        raise AssertionError(f"unhandled command {command}")


def _rationals(doc):
    """Every rational-looking string value in a JSON document."""
    stack = [doc]
    while stack:
        x = stack.pop()
        if isinstance(x, dict):
            stack.extend(x.values())
        elif isinstance(x, list):
            stack.extend(x)
        elif isinstance(x, str) and x and x.lstrip("-").replace("/", "", 1).isdigit():
            yield x


WORKLOADS = {"bushy": Bushy, "deep": Deep, "cli": Cli}
