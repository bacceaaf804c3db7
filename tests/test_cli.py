import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stopwright
from stopwright import convert
from stopwright.cli import run
from stopwright.games import BOTH, ONLY_1, ONLY_2
from stopwright.serialize import game_to_doc, stopping_time_to_doc

from fuzz import E1_NODES, make_b1, make_e1, make_r1, negate_process, random_process
import random


#: The interpreter's limit on the digits of an int string; 0 where it has none.
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
TOO_LONG = "1" * (DIGIT_LIMIT + 1)
needs_digit_limit = pytest.mark.skipif(
    not DIGIT_LIMIT, reason="this interpreter puts no limit on the digits of an int string"
)


@pytest.fixture
def files(tmp_path):
    """Write the standard fixture documents to disk; returns path strings."""
    e1 = make_e1()
    rng = random.Random(47)
    paths = {}

    def put(name, doc):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
        return paths[name]

    put("e1.json", {"nodes": E1_NODES})
    bad = [dict(n) for n in E1_NODES]
    bad[-1]["prob"] = "1/3"
    put("bad.json", {"nodes": bad})
    put("r1.json", stopping_time_to_doc(make_r1()))
    put("b1.json", stopping_time_to_doc(make_b1()))
    put(
        "stopnow.json",
        {"type": "pure", "stop": {"w1": 1, "w2": 1, "w3": 1, "w4": 1}},
    )
    put(
        "problem.json",
        {
            "values": {"1": {"A": "0", "B": "0"}, "2": {w: "1" for w in e1.atoms}},
            "infinity": {w: "0" for w in e1.atoms},
        },
    )
    table = {}
    for c in (ONLY_1, ONLY_2, BOTH):
        one = random_process(rng, e1)
        table[(1, c)] = one
        table[(2, c)] = negate_process(one)
    from stopwright import stopping_game

    put("game.json", game_to_doc(stopping_game(table), e1))
    return paths


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_good_space(self, files, capsys):
        code, out, _ = run_capture(capsys, ["validate", "--space", files["e1.json"]])
        assert code == 0
        assert json.loads(out) == {"valid": True}

    def test_bad_probability_sum(self, files, capsys):
        code, out, err = run_capture(capsys, ["validate", "--space", files["bad.json"]])
        assert code == 1
        assert out == ""
        message = json.loads(err)
        assert message["error"] == "ProbabilitySumError"

    def test_stopping_time_on_space(self, files, capsys):
        code, out, _ = run_capture(
            capsys, ["validate", "--space", files["e1.json"], "--st", files["r1.json"]]
        )
        assert code == 0
        assert json.loads(out) == {"valid": True}

    def test_missing_file(self, files, capsys):
        code, _, err = run_capture(capsys, ["validate", "--space", "nope.json"])
        assert code == 1
        assert json.loads(err)["error"] == "FileNotFound"

    def test_directory_as_file(self, tmp_path, capsys):
        code, out, err = run_capture(capsys, ["validate", "--space", str(tmp_path)])
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "FileError"

    def test_an_empty_rule_path_is_a_missing_file(self, files, capsys):
        code, out, err = run_capture(capsys, ["validate", "--space", files["e1.json"], "--st", ""])
        assert (code, out, json.loads(err)["error"]) == (1, "", "FileNotFound")

    def test_inputs_are_read_in_flag_order(self, files, capsys, tmp_path):
        """--space, --st, --st2, --problem, --game: of several faulty inputs, the first is named."""
        (tmp_path / "bad.json").write_text('{"type": "quantum"}')
        bad, missing = str(tmp_path / "bad.json"), str(tmp_path / "missing.json")
        good = {"--st": files["r1.json"], "--st2": files["b1.json"], "--game": files["game.json"]}
        flags = list(good)
        for k, flag in enumerate(flags):
            for first, later in ((bad, missing), (missing, bad)):
                given = {**good, flag: first, **{f: later for f in flags[k + 1 :]}}
                argv = ["eq-check", "--space", files["e1.json"]]
                code, _, err = run_capture(capsys, argv + [a for f in flags for a in (f, given[f])])
                assert code == 1
                name = "FormatError" if first is bad else "FileNotFound"
                assert json.loads(err)["error"] == name, (flag, first)
        argv = ["payoff", "--space", files["e1.json"], "--st", missing, "--problem", bad]
        code, _, err = run_capture(capsys, argv)
        assert (code, json.loads(err)["error"]) == (1, "FileNotFound")

    def test_file_not_utf8(self, files, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"type": "pure", "stop": {"w\xe9": 1}}'.encode("latin-1"))
        code, out, err = run_capture(
            capsys, ["validate", "--space", files["e1.json"], "--st", str(path)]
        )
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "InvalidEncoding"


class TestConvert:
    def test_r1_to_behavior_is_b1(self, files, capsys):
        code, out, _ = run_capture(
            capsys,
            ["convert", "--space", files["e1.json"], "--st", files["r1.json"], "--to", "behavior"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc == stopping_time_to_doc(make_b1())

    def test_output_round_trips_through_dist(self, files, capsys, tmp_path):
        code, out, _ = run_capture(
            capsys,
            ["convert", "--space", files["e1.json"], "--st", files["r1.json"], "--to", "mixed"],
        )
        assert code == 0
        converted = tmp_path / "converted.json"
        converted.write_text(out)
        code, mixed_dist, _ = run_capture(
            capsys, ["dist", "--space", files["e1.json"], "--st", str(converted)]
        )
        assert code == 0
        code, original_dist, _ = run_capture(
            capsys, ["dist", "--space", files["e1.json"], "--st", files["r1.json"]]
        )
        assert code == 0
        assert json.loads(mixed_dist) == json.loads(original_dist)

    def test_usage_error_on_bad_target(self, files, capsys):
        code, _, _ = run_capture(
            capsys,
            ["convert", "--space", files["e1.json"], "--st", files["r1.json"], "--to", "pure"],
        )
        assert code == 2


class TestDistAndEquiv:
    def test_dist_matches_fixture_table(self, files, capsys):
        code, out, _ = run_capture(
            capsys, ["dist", "--space", files["e1.json"], "--st", files["r1.json"]]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["mass"]["w1"] == {"1": "1/8", "2": "1/8", "inf": "0"}
        assert doc["mass"]["w4"] == {"1": "1/16", "2": "3/16", "inf": "0"}

    def test_equiv_true(self, files, capsys):
        code, out, _ = run_capture(
            capsys,
            ["equiv", "--space", files["e1.json"], "--st", files["r1.json"], "--st2", files["b1.json"]],
        )
        assert code == 0
        assert json.loads(out) == {"equivalent": True}

    def test_equiv_false(self, files, capsys):
        code, out, _ = run_capture(
            capsys,
            ["equiv", "--space", files["e1.json"], "--st", files["r1.json"], "--st2", files["stopnow.json"]],
        )
        assert code == 0
        assert json.loads(out) == {"equivalent": False}


class TestEvaluation:
    def test_payoff(self, files, capsys):
        code, out, _ = run_capture(
            capsys,
            ["payoff", "--space", files["e1.json"], "--st", files["r1.json"], "--problem", files["problem.json"]],
        )
        assert code == 0
        assert json.loads(out) == {"payoff": "3/8"}

    def test_payoff_with_epsilon(self, files, capsys):
        code, out, _ = run_capture(
            capsys,
            [
                "payoff", "--space", files["e1.json"], "--st", files["r1.json"],
                "--problem", files["problem.json"], "--epsilon", "5/8",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["epsilon_optimal"] is True

    def test_payoff_with_epsilon_validates_once(self, files, capsys, checked, read):
        args = [
            "payoff", "--space", files["e1.json"], "--st", files["r1.json"],
            "--problem", files["problem.json"], "--epsilon", "0",
        ]
        for _ in range(2):  # each run reads its documents afresh, so checks them again
            code, out, _ = run_capture(capsys, args)
            assert code == 0
            assert [type(x).__name__ for x in checked] == ["RandomizedStoppingTime", "AdaptedProcess"]
            assert len(read) == 1
            assert out == '{\n  "epsilon": "0",\n  "epsilon_optimal": false,\n  "payoff": "3/8"\n}\n'
            checked.clear()
            read.clear()

    @pytest.mark.parametrize("epsilon", [None, "0", "5/8"])
    def test_payoff_pairs_once_per_run(self, files, capsys, monkeypatch, epsilon):
        """With or without ``--epsilon``, a run pairs the rule with the problem once, and reports
        the payoff that pairing gives."""
        pairs, real = [], stopwright.payoffs._pair

        def spy(*args):
            pairs.append(real(*args))
            return pairs[-1]

        monkeypatch.setattr(stopwright.payoffs, "_pair", spy)
        args = [
            "payoff", "--space", files["e1.json"], "--st", files["r1.json"],
            "--problem", files["problem.json"],
        ]
        code, out, _ = run_capture(capsys, args + ([] if epsilon is None else ["--epsilon", epsilon]))
        assert code == 0 and len(pairs) == 1
        assert json.loads(out)["payoff"] == str(pairs[0]) == "3/8"

    @pytest.mark.parametrize("epsilon, error", [("x", "FormatError"), ("-1", "ValidationError")])
    def test_payoff_judges_its_epsilon_before_it_pairs(self, files, capsys, monkeypatch, epsilon, error):
        """A bad or negative ``--epsilon`` is reported before the payoff is computed, as
        eq-check does."""

        def refuse(*args):
            raise AssertionError("payoff computed before --epsilon was judged")

        monkeypatch.setattr(stopwright.cli, "payoff", refuse)
        monkeypatch.setattr(stopwright.payoffs, "_pair", refuse)
        args = [
            "payoff", "--space", files["e1.json"], "--st", files["r1.json"],
            "--problem", files["problem.json"], "--epsilon", epsilon,
        ]
        code, out, err = run_capture(capsys, args)
        assert (code, out, json.loads(err)["error"]) == (1, "", error)

    def test_snell(self, files, capsys):
        code, out, _ = run_capture(
            capsys, ["snell", "--space", files["e1.json"], "--problem", files["problem.json"]]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == "1"
        assert doc["strategy"]["stop"] == {"w1": 2, "w2": 2, "w3": 2, "w4": 2}

    def test_game_value_reads_each_process_once(self, files, capsys, read):
        with open(files["game.json"], encoding="utf-8") as handle:
            assert json.load(handle)["zero_sum"] is True
        code, _, _ = run_capture(
            capsys, ["game-value", "--space", files["e1.json"], "--game", files["game.json"]]
        )
        assert code == 0
        assert len(read) == len({id(process) for process in read}) == 6

    def test_game_value_and_eq_check(self, files, capsys, tmp_path):
        code, out, _ = run_capture(
            capsys, ["game-value", "--space", files["e1.json"], "--game", files["game.json"]]
        )
        assert code == 0
        doc = json.loads(out)
        p1 = tmp_path / "p1.json"
        p2 = tmp_path / "p2.json"
        p1.write_text(json.dumps(doc["profile"]["player1"]))
        p2.write_text(json.dumps(doc["profile"]["player2"]))
        code, out, _ = run_capture(
            capsys,
            [
                "eq-check", "--space", files["e1.json"], "--game", files["game.json"],
                "--st", str(p1), "--st2", str(p2), "--epsilon", "0",
            ],
        )
        assert code == 0
        assert json.loads(out)["equilibrium"] is True

    def test_game_payoff_and_br(self, files, capsys):
        code, out, _ = run_capture(
            capsys,
            [
                "game-payoff", "--space", files["e1.json"], "--game", files["game.json"],
                "--st", files["r1.json"], "--st2", files["b1.json"],
            ],
        )
        assert code == 0
        got = json.loads(out)
        code, out, _ = run_capture(
            capsys,
            [
                "br", "--space", files["e1.json"], "--game", files["game.json"],
                "--st", files["b1.json"], "--player", "1",
            ],
        )
        assert code == 0
        br = json.loads(out)
        # the best response is at least as good as playing r1 against b1
        from fractions import Fraction

        assert Fraction(br["value"]) >= Fraction(got["player1"])


class TestSample:
    def test_deterministic_given_seed(self, files, capsys):
        argv = ["sample", "--space", files["e1.json"], "--st", files["r1.json"],
                "--samples", "5000", "--seed", "7"]
        code, first, _ = run_capture(capsys, argv)
        assert code == 0
        code, second, _ = run_capture(capsys, argv)
        assert first == second
        doc = json.loads(first)
        assert doc["seed"] == 7
        assert sum(sum(row.values()) for row in doc["counts"].values()) == 5000

    def test_env_seed_override(self, files, capsys, monkeypatch):
        monkeypatch.setenv("STOPWRIGHT_SEED", "99")
        code, out, _ = run_capture(
            capsys,
            ["sample", "--space", files["e1.json"], "--st", files["r1.json"], "--samples", "10"],
        )
        assert code == 0
        assert json.loads(out)["seed"] == 99

    def test_explicit_seed_beats_env(self, files, capsys, monkeypatch):
        monkeypatch.setenv("STOPWRIGHT_SEED", "99")
        code, out, _ = run_capture(
            capsys,
            ["sample", "--space", files["e1.json"], "--st", files["r1.json"],
             "--samples", "10", "--seed", "3"],
        )
        assert code == 0
        assert json.loads(out)["seed"] == 3

    def test_env_seed_empty_reads_as_zero(self, files, capsys, monkeypatch):
        monkeypatch.setenv("STOPWRIGHT_SEED", "")
        argv = ["sample", "--space", files["e1.json"], "--st", files["r1.json"], "--samples", "10"]
        code, out, err = run_capture(capsys, argv)
        assert (code, err, json.loads(out)["seed"]) == (0, "", 0)

    @pytest.mark.parametrize("env", ["x", "-1", "1.5"])
    def test_env_seed_not_a_nonnegative_int_is_one_json_error(self, files, capsys, monkeypatch, env):
        monkeypatch.setenv("STOPWRIGHT_SEED", env)
        argv = ["sample", "--space", files["e1.json"], "--st", files["r1.json"], "--samples", "10"]
        code, out, err = run_capture(capsys, argv)
        (line,) = err.splitlines()
        error = json.loads(line)
        assert (code, out, error["error"]) == (1, "", "FormatError")
        assert error["message"].startswith("STOPWRIGHT_SEED must be")

    def test_zero_samples_is_usage_error(self, files, capsys):
        code, _, _ = run_capture(
            capsys,
            ["sample", "--space", files["e1.json"], "--st", files["r1.json"], "--samples", "0"],
        )
        assert code == 2

    @pytest.mark.parametrize("option, value, least", [("--samples", "0", 1), ("--seed", "-1", 0)])
    def test_an_int_option_below_its_least_value_is_a_usage_error(
        self, files, capsys, option, value, least
    ):
        code, out, err = run_capture(
            capsys, ["sample", "--space", files["e1.json"], "--st", files["r1.json"], option, value]
        )
        assert (code, out) == (2, "")
        assert f"{option}: must be an integer >= {least}, got {value}" in err


class TestOutputFormats:
    def test_table_and_json_carry_identical_numbers(self, files, capsys):
        code, json_out, _ = run_capture(
            capsys, ["dist", "--space", files["e1.json"], "--st", files["r1.json"]]
        )
        assert code == 0
        code, table_out, _ = run_capture(
            capsys,
            ["dist", "--space", files["e1.json"], "--st", files["r1.json"], "--format", "table"],
        )
        assert code == 0
        doc = json.loads(json_out)
        rows = {}
        for line in table_out.strip().splitlines():
            path, value = re.split(r"\s{2,}", line.strip(), maxsplit=1)
            rows[path] = value
        for atom, row in doc["mass"].items():
            for t, value in row.items():
                assert rows[f"mass.{atom}.{t}"] == value

    def test_a_mixed_rule_as_a_table_numbers_its_array_items(self, files, capsys):
        """Arrays flatten by index: a mixed rule's breakpoints and each section's stops."""
        argv = ["convert", "--space", files["e1.json"], "--st", files["r1.json"], "--to", "mixed"]
        code, json_out, _ = run_capture(capsys, argv)
        assert code == 0
        code, table_out, _ = run_capture(capsys, argv + ["--format", "table"])
        assert code == 0
        rows = dict(re.split(r"\s{2,}", line, maxsplit=1) for line in table_out.splitlines())
        doc = json.loads(json_out)
        expected = {f"breakpoints.{k}": r for k, r in enumerate(doc["breakpoints"])}
        for k, section in enumerate(doc["sections"]):
            expected[f"sections.{k}.type"] = "pure"
            expected.update(
                (f"sections.{k}.stop.{a}", str(t)) for a, t in section["stop"].items()
            )
        assert rows == {"type": "mixed", **expected}
        assert rows["breakpoints.0"] == "0" and rows["sections.0.stop.w1"] == "1"

    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _, _ = run_capture(capsys, ["transmogrify"])
        assert code == 2

    def test_missing_required_flag_is_usage_error(self, files, capsys):
        code, _, _ = run_capture(capsys, ["dist", "--space", files["e1.json"]])
        assert code == 2


#: Runs ``cli.run`` on its arguments in a fresh interpreter, then says on stderr whether numpy got loaded.
CHILD = """
import sys
from stopwright.cli import run
code = run(sys.argv[1:])
sys.stderr.write("numpy loaded" if "numpy" in sys.modules else "no numpy")
sys.exit(code)
"""

MONTECARLO_NAMES = (
    "EmpiricalDistribution",
    "EmpiricalJointDistribution",
    "empirical_detailed_distribution",
    "empirical_game_payoff",
    "empirical_joint_distribution",
)


def fresh_python(*args):
    """``python args`` in a new interpreter that imports the stopwright under test."""
    package_root = os.path.dirname(os.path.dirname(stopwright.__file__))
    env = {**os.environ, "PYTHONPATH": package_root}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


class TestStartWithoutNumpy:
    """Only ``sample`` needs numpy; no other command and no bare import loads it."""

    def test_no_command_but_sample_loads_numpy(self, files, capsys):
        r1, b1, game, problem = (files[f"{name}.json"] for name in ("r1", "b1", "game", "problem"))
        flags = {
            "validate": ["--st", r1],
            "dist": ["--st", r1],
            "convert": ["--st", r1, "--to", "mixed"],
            "equiv": ["--st", r1, "--st2", b1],
            "payoff": ["--st", r1, "--problem", problem, "--epsilon", "1/2"],
            "snell": ["--problem", problem],
            "game-payoff": ["--st", r1, "--st2", b1, "--game", game],
            "game-value": ["--game", game],
            "br": ["--st", r1, "--game", game, "--player", "2"],
            "eq-check": ["--st", r1, "--st2", b1, "--game", game],
        }
        for command, rest in flags.items():
            argv = [command, "--space", files["e1.json"], *rest]
            child = fresh_python("-c", CHILD, *argv)
            assert (child.returncode, child.stderr) == (0, "no numpy"), command
            code, out, _ = run_capture(capsys, argv)
            assert (code, out) == (0, child.stdout), command

    def test_sample_loads_numpy_and_prints_the_same_bytes(self, files, capsys):
        argv = ["sample", "--space", files["e1.json"], "--st", files["r1.json"],
                "--samples", "500", "--seed", "3"]
        child = fresh_python("-c", CHILD, *argv)
        assert (child.returncode, child.stderr) == (0, "numpy loaded")
        code, out, _ = run_capture(capsys, argv)
        assert (code, out) == (0, child.stdout)

    def test_bare_import_loads_no_numpy(self):
        child = fresh_python("-c", "import sys, stopwright; print('numpy' in sys.modules)")
        assert (child.returncode, child.stdout) == (0, "False\n")

    def test_montecarlo_names_resolve_on_first_use(self):
        script = (
            "import sys, stopwright\n"
            f"names = {MONTECARLO_NAMES!r}\n"
            "from stopwright import empirical_game_payoff\n"
            "assert 'numpy' in sys.modules\n"
            "from stopwright import montecarlo\n"
            "assert stopwright.montecarlo is montecarlo is sys.modules['stopwright.montecarlo']\n"
            "assert empirical_game_payoff is montecarlo.empirical_game_payoff\n"
            "assert all(getattr(stopwright, n) is getattr(montecarlo, n) for n in names)\n"
            "print('ok')\n"
        )
        child = fresh_python("-c", script)
        assert (child.returncode, child.stdout) == (0, "ok\n"), child.stderr
        for name in MONTECARLO_NAMES:
            assert getattr(stopwright, name) is getattr(stopwright.montecarlo, name)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            stopwright.no_such_name
        with pytest.raises(ImportError):
            from stopwright import no_such_name  # noqa: F401


class TestMalformedSpace:
    """Bad space documents exit 1 with a JSON error, never a traceback."""

    def check(self, capsys, tmp_path, nodes, error):
        path = tmp_path / "space.json"
        path.write_text(json.dumps({"nodes": nodes}))
        code, out, err = run_capture(capsys, ["validate", "--space", str(path)])
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == error

    def test_division_by_zero_probability(self, capsys, tmp_path):
        nodes = [dict(n) for n in E1_NODES]
        nodes[-1]["prob"] = "1/0"
        self.check(capsys, tmp_path, nodes, "FormatError")

    def test_float_probability(self, capsys, tmp_path):
        nodes = [dict(n) for n in E1_NODES]
        nodes[-1]["prob"] = 0.5
        self.check(capsys, tmp_path, nodes, "FormatError")

    def test_node_without_id(self, capsys, tmp_path):
        nodes = [dict(n) for n in E1_NODES]
        del nodes[-1]["id"]
        self.check(capsys, tmp_path, nodes, "StructureError")


class TestMalformedDocuments:
    """Rule, process and game documents with a field of the wrong JSON kind exit 1."""

    def check(self, capsys, tmp_path, files, command, flag, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_capture(
            capsys, [command, "--space", files["e1.json"], flag, str(path)]
        )
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "FormatError"

    def test_rho_inf_list(self, capsys, tmp_path, files):
        doc = {**stopping_time_to_doc(make_r1()), "rho_inf": ["0"]}
        self.check(capsys, tmp_path, files, "dist", "--st", doc)

    def test_process_infinity_list(self, capsys, tmp_path, files):
        doc = {"values": {"1": {"A": "0", "B": "0"}}, "infinity": ["0"]}
        self.check(capsys, tmp_path, files, "snell", "--problem", doc)

    def test_game_payoffs_list(self, capsys, tmp_path, files):
        doc = {"players": 2, "payoffs": [], "zero_sum": True}
        self.check(capsys, tmp_path, files, "game-value", "--game", doc)

    def test_mixed_breakpoints_number(self, capsys, tmp_path, files):
        doc = {"type": "mixed", "breakpoints": 3, "sections": [{"type": "pure", "stop": {}}]}
        self.check(capsys, tmp_path, files, "dist", "--st", doc)

    @pytest.mark.parametrize("tag", [{"type": "behavior"}, {"type": None}, {}])
    def test_mixed_section_must_be_a_pure_document(self, capsys, tmp_path, files, tag):
        doc = stopping_time_to_doc(convert(make_r1(), "mixed", make_e1()))
        section = {key: value for key, value in doc["sections"][0].items() if key != "type"}
        doc["sections"][0] = {**section, **tag}
        self.check(capsys, tmp_path, files, "dist", "--st", doc)

    @pytest.mark.parametrize("players", [2.0, "2", True])
    def test_players_must_be_the_integer_2(self, capsys, tmp_path, files, players):
        with open(files["game.json"], encoding="utf-8") as handle:
            doc = {**json.load(handle), "players": players}
        self.check(capsys, tmp_path, files, "game-value", "--game", doc)

    def check_space(self, capsys, tmp_path, text, error):
        path = tmp_path / "space.json"
        path.write_text(text)
        code, out, err = run_capture(capsys, ["validate", "--space", str(path)])
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == error

    def test_arrays_nested_past_the_recursion_limit(self, capsys, tmp_path):
        self.check_space(capsys, tmp_path, "[" * 100_000 + "]" * 100_000, "InvalidJSON")

    @needs_digit_limit
    @pytest.mark.parametrize("quote", ["", '"'], ids=["integer", "rational-string"])
    def test_leaf_prob_past_the_int_digit_limit(self, capsys, tmp_path, quote):
        nodes = [dict(n) for n in E1_NODES]
        nodes[-1]["prob"] = "PROB"
        prob = TOO_LONG + ("/2" if quote else "")
        text = json.dumps({"nodes": nodes}).replace('"PROB"', quote + prob + quote)
        self.check_space(capsys, tmp_path, text, "FormatError")

    @needs_digit_limit
    @pytest.mark.parametrize(
        "doc",
        [{"type": "pure", "stop": {"w1": TOO_LONG}}, {"type": "behavior", "beta": {TOO_LONG: {}}}],
        ids=["stop-index", "time-key"],
    )
    def test_time_index_past_the_int_digit_limit(self, capsys, tmp_path, files, doc):
        self.check(capsys, tmp_path, files, "dist", "--st", doc)


class TestStructuredErrors:
    """An error caused by a Violation carries it as JSON after the unchanged error and message."""

    def run(self, capsys, tmp_path, files, argv, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        argv = [files.get(a, str(path) if a == "DOC" else a) for a in argv]
        code, out, err = run_capture(capsys, argv)
        assert (code, out) == (1, "")
        return err

    def test_rule_fault(self, capsys, tmp_path, files):
        doc = stopping_time_to_doc(make_r1())
        doc["rho_inf"]["w1"] = "1/2"
        err = self.run(capsys, tmp_path, files, ["dist", "--space", "e1.json", "--st", "DOC"], doc)
        message = "SumNotOne at w1 (stop masses sum to 3/2)"
        assert err.startswith(json.dumps({"error": "ValidationError", "message": message})[:-1])
        assert json.loads(err)["violation"] == {
            "kind": "SumNotOne", "time": None, "where": "w1", "detail": "stop masses sum to 3/2"
        }

    def test_process_fault(self, capsys, tmp_path, files):
        with open(files["problem.json"], encoding="utf-8") as handle:
            doc = json.load(handle)
        del doc["values"]["2"]["w3"]
        argv = ["snell", "--space", "e1.json", "--problem", "DOC"]
        err = self.run(capsys, tmp_path, files, argv, doc)
        message = "process blocks at time 2 do not match the space"
        assert err.startswith(json.dumps({"error": "SpaceMismatch", "message": message})[:-1])
        assert json.loads(err)["violation"] == {
            "kind": "Malformed", "time": "2", "where": "w3", "detail": "values missing block"
        }

    def test_infinity_written_as_time_label(self, capsys, tmp_path, files):
        doc = stopping_time_to_doc(make_r1())
        del doc["rho_inf"]["w1"]
        err = self.run(capsys, tmp_path, files, ["dist", "--space", "e1.json", "--st", "DOC"], doc)
        assert json.loads(err)["violation"]["time"] == "inf"

    def test_no_violation_no_field(self, files, capsys):
        code, _, err = run_capture(capsys, ["validate", "--space", files["bad.json"]])
        assert code == 1
        assert "violation" not in json.loads(err)


#: Each command's run on the fixture documents; every ``.json`` argument is a document to mutate.
COMMAND_RUNS = {
    "validate": ["validate", "--space", "e1.json", "--st", "r1.json"],
    "convert": ["convert", "--space", "e1.json", "--st", "b1.json", "--to", "mixed"],
    "dist": ["dist", "--space", "e1.json", "--st", "mixed.json"],
    "equiv": ["equiv", "--space", "e1.json", "--st", "r1.json", "--st2", "b1.json"],
    "payoff": [
        "payoff", "--space", "e1.json", "--st", "stopnow.json", "--problem", "problem.json",
        "--epsilon", "1/2",
    ],
    "snell": ["snell", "--space", "e1.json", "--problem", "problem.json"],
    "game-payoff": [
        "game-payoff", "--space", "e1.json", "--st", "r1.json", "--st2", "b1.json",
        "--game", "game.json",
    ],
    "game-value": ["game-value", "--space", "e1.json", "--game", "game.json"],
    "br": ["br", "--space", "e1.json", "--st", "b1.json", "--game", "game.json", "--player", "2"],
    "eq-check": [
        "eq-check", "--space", "e1.json", "--st", "b1.json", "--st2", "r1.json",
        "--game", "game.json",
    ],
    "sample": ["sample", "--space", "e1.json", "--st", "r1.json", "--samples", "64", "--seed", "1"],
}

#: Stands for a JSON integer literal past the interpreter's limit on the digits of an int string.
LONG_LITERAL = "<long literal>"

BAD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([0.5, 1.0, -2.5, 1e300, -3, 0, 2, "inf", "1/2", "-1", "x"]),
    st.sampled_from(["1/0", "-1/0", TOO_LONG, f"1/{TOO_LONG}", LONG_LITERAL]),
    st.lists(st.sampled_from(["0", 1, None, 0.5, "1/2"]), max_size=3),
    st.dictionaries(
        st.sampled_from(["1", "2", "inf", "w1", "A", "type"]),
        st.one_of(st.sampled_from(["0", "1/2", 1, None]), st.builds(list), st.builds(dict)),
        max_size=3,
    ),
)

#: Keys a mutation may add: document fields, time keys, block and atom ids, and strangers.
ADDED_KEYS = st.sampled_from(
    ["type", "rho", "rho_inf", "beta", "stop", "breakpoints", "sections", "values", "infinity",
     "payoffs", "players", "nodes", "prob", "id", "parent", "1", "2", "3", "inf", "0", "-1",
     "w1", "A", "zz"]
)


def _containers(doc) -> list:
    """Every object and array of a JSON document, the document itself first."""
    found, stack = [], [doc]
    while stack:
        node = stack.pop()
        if isinstance(node, (dict, list)):
            found.append(node)
            stack.extend(node.values() if isinstance(node, dict) else node)
    return found


def _mutated(data, doc):
    """``doc`` after one to four edits, each dropping a key or an item, adding one, or putting
    a bad value in place of one; once in ten the whole document is a bad value."""
    if data.draw(st.integers(0, 9)) == 0:
        return data.draw(BAD_VALUES)
    for _ in range(data.draw(st.integers(1, 4))):
        containers = _containers(doc)
        if not containers:
            break
        node = data.draw(st.sampled_from(containers))
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        action = data.draw(st.sampled_from(["drop", "add", "replace"]))
        if action == "add" or not keys:
            if isinstance(node, dict):
                node[data.draw(ADDED_KEYS)] = data.draw(BAD_VALUES)
            else:
                node.append(data.draw(BAD_VALUES))
        elif action == "drop":
            del node[data.draw(st.sampled_from(keys))]
        else:
            node[data.draw(st.sampled_from(keys))] = data.draw(BAD_VALUES)
    return doc


def test_whole_document_mutations_exit_cleanly(files, tmp_path, capsys):
    """Every command, one or more of its documents mutated anywhere, exits 0 with nothing on
    stderr, or 1 with one line on stderr, a JSON error; it never raises, so it never prints a
    traceback."""
    mixed = stopping_time_to_doc(convert(make_r1(), "mixed", make_e1()))
    (tmp_path / "mixed.json").write_text(json.dumps(mixed))
    files = {**files, "mixed.json": str(tmp_path / "mixed.json")}
    originals = {}
    for name, path in files.items():
        with open(path, encoding="utf-8") as handle:
            originals[name] = handle.read()

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(st.data())
    def check(data):
        command = data.draw(st.sampled_from(sorted(COMMAND_RUNS)))
        argv = list(COMMAND_RUNS[command])
        documents = [k for k, a in enumerate(argv) if a.endswith(".json")]
        chosen = data.draw(st.sets(st.sampled_from(documents), min_size=1))
        for k in documents:
            name, argv[k] = argv[k], files[argv[k]]
            if k in chosen:
                doc = _mutated(data, json.loads(originals[name]))
                text = json.dumps(doc).replace(json.dumps(LONG_LITERAL), TOO_LONG)
                argv[k] = str(tmp_path / f"mutated-{k}.json")
                (tmp_path / f"mutated-{k}.json").write_text(text)
        code = run(argv)
        captured = capsys.readouterr()
        if code == 0:
            assert captured.err == ""
        else:
            assert code == 1, (command, captured.err)
            (line,) = captured.err.splitlines()
            fields = set(json.loads(line))
            assert {"error", "message"} <= fields <= {"error", "message", "violation"}

    check()
