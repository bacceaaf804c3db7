import hashlib
import json
import re
import sys
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from stopwright import (
    FormatError,
    INFINITY,
    ValidationError,
    adapted_process,
    constant_process,
    convert,
    detailed_distribution,
    equivalent,
    pure,
    stopping_game,
    stopping_measure,
)
from stopwright.games import BOTH, ONLY_1, ONLY_2
from stopwright.space import ReadOnly
from stopwright.serialize import (
    game_from_doc,
    game_to_doc,
    measure_from_doc,
    measure_to_doc,
    parse_rational,
    parse_time,
    process_from_doc,
    process_to_doc,
    space_from_doc,
    stopping_time_from_doc,
    stopping_time_to_doc,
)

from fuzz import E1_NODES, make_b1, make_r1, negate_process, random_process
import random


class TestScalars:
    def test_parse_rational(self):
        assert parse_rational("3/4") == F(3, 4)
        assert parse_rational(2) == F(2)
        with pytest.raises(FormatError):
            parse_rational("not-a-number")
        with pytest.raises(FormatError):
            parse_rational(0.5)

    def test_parse_rational_accepts_integers_and_a_over_b_only(self):
        assert parse_rational("-6/4") == F(-3, 2)  # need not be in lowest terms
        assert parse_rational("0") == 0 and parse_rational(-7) == -7
        for bad in ("1.5", "1_000", " 3", "3 ", "1e2000", "+1", "1/-2", "1/0", "", "/2", "\u0663", True):
            with pytest.raises(FormatError):
                parse_rational(bad)

    def test_cli_rejects_loose_rationals(self, tmp_path, capsys):
        from stopwright.cli import run

        nodes = [dict(n) for n in E1_NODES]
        nodes[-1]["prob"] = "1e2000"
        path = tmp_path / "space.json"
        path.write_text(json.dumps({"nodes": nodes}))
        assert run(["validate", "--space", str(path)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "FormatError"

    def test_parse_time(self):
        assert parse_time("inf") == INFINITY
        assert parse_time("3") == 3
        assert parse_time(2) == 2
        with pytest.raises(FormatError):
            parse_time("soon")

    def test_parse_time_rejects_bools(self):
        with pytest.raises(FormatError):
            parse_time(True)
        with pytest.raises(FormatError):
            stopping_time_from_doc({"type": "pure", "stop": {"w1": True, "w2": 1}})

    def test_parse_time_rejects_fractional_numbers(self):
        for key in (1.9, 2.0, "1.9"):
            with pytest.raises(FormatError):
                parse_time(key)

    def test_parse_time_reads_only_ascii_digits(self):
        assert parse_time("-1") == -1
        assert parse_time("007") == 7
        # underscores, non-ASCII digits, padding, a plus sign, a float infinity
        for key in ("1_0", "\u0661", " 2", "2 ", "2\n", "+3", "", "-", INFINITY, "Infinity"):
            with pytest.raises(FormatError):
                parse_time(key)
        with pytest.raises(FormatError):
            stopping_time_from_doc({"type": "pure", "stop": {"w1": "1_0"}})


class TestSpaceDoc:
    def test_accepts_wrapped_and_bare_lists(self):
        assert space_from_doc({"nodes": E1_NODES}).atoms == ("w1", "w2", "w3", "w4")
        assert space_from_doc(E1_NODES).horizon == 2

    def test_rejects_other_shapes(self):
        with pytest.raises(FormatError):
            space_from_doc({"tree": []})


class TestStoppingTimeDocs:
    def test_round_trip_all_types(self, e1):
        r1, b1 = make_r1(), make_b1()
        mix = convert(r1, "mixed", e1)
        sigma = pure({"w1": 1, "w2": 1, "w3": 2, "w4": INFINITY})
        for eta in (sigma, r1, b1, mix):
            doc = stopping_time_to_doc(eta)
            back = stopping_time_from_doc(doc)
            assert equivalent(eta, back, e1)
            assert stopping_time_to_doc(back) == doc

    def test_pure_doc_uses_inf_label(self):
        doc = stopping_time_to_doc(pure({"w": INFINITY}))
        assert doc == {"type": "pure", "stop": {"w": "inf"}}

    def test_unknown_type_rejected(self):
        with pytest.raises(FormatError):
            stopping_time_from_doc({"type": "quantum"})

    @pytest.mark.parametrize("kind", [["pure"], {"pure": 1}, None, 1])
    def test_a_type_of_any_json_kind_is_unknown(self, kind):
        with pytest.raises(FormatError, match="unknown stopping-rule type"):
            stopping_time_from_doc({"type": kind, "stop": {}})

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"type": "mixed"}, "mixed rule document is missing 'sections'"),
            ({"type": "mixed", "sections": {}}, "mixed rule 'sections' must be an array"),
            ({"type": "mixed", "sections": [{}]}, "mixed section document is missing 'type'"),
            ({"type": "mixed", "sections": [{"type": "behavior"}]}, "every section of a mixed"),
            ({"type": "mixed", "sections": [{"type": "pure"}]}, "missing 'breakpoints'"),
            (
                {"type": "mixed", "breakpoints": ["x"], "sections": [{"type": "pure"}]},
                "bad rational 'x'",
            ),
            (
                {"type": "mixed", "breakpoints": ["0", "1"], "sections": [{"type": "pure"}]},
                "pure rule document is missing 'stop'",
            ),
            ({"type": "randomized", "rho": {"x": {}}}, "bad time index 'x'"),
            ({"type": "randomized", "rho": {"1": []}}, "rho has a bad entry at time '1'"),
            ({"type": "randomized", "rho": {}}, "randomized rule document is missing 'rho_inf'"),
            ({"type": "behavior", "beta": []}, "beta must map times to block tables"),
        ],
    )
    def test_faults_are_found_in_document_order(self, doc, message):
        """A mixed rule's sections are checked to be pure documents first, then its breakpoints
        are read, then its sections; other fields are read in document order."""
        with pytest.raises(FormatError, match=re.escape(message)):
            stopping_time_from_doc(doc)

    def test_missing_field_rejected(self):
        with pytest.raises(FormatError):
            stopping_time_from_doc({"type": "randomized", "rho": {}})


class TestKeyOrder:
    """Every writer's documents, byte for byte as ``json.dumps`` writes them in dict order: the
    order ``--format table`` prints and a written document keeps."""

    PROCESS = (
        '{"values": {"1": {"A": "-5/2", "B": "-1/4"}, '
        '"2": {"w1": "8", "w2": "7", "w3": "1", "w4": "5/2"}}, '
        '"infinity": {"w1": "-3/2", "w2": "5/4", "w3": "0", "w4": "-5/2"}}'
    )

    def test_rule_documents(self, e1):
        sigma = pure({"w1": 1, "w2": 1, "w3": 2, "w4": INFINITY})
        r1, b1 = make_r1(), make_b1()
        written = [json.dumps(stopping_time_to_doc(eta)) for eta in (sigma, r1, b1)]
        assert written == [
            '{"type": "pure", "stop": {"w1": 1, "w2": 1, "w3": 2, "w4": "inf"}}',
            '{"type": "randomized", "rho": {"1": {"A": "1/2", "B": "1/4"}, '
            '"2": {"w1": "1/2", "w2": "0", "w3": "1/4", "w4": "3/4"}}, '
            '"rho_inf": {"w1": "0", "w2": "1/2", "w3": "1/2", "w4": "0"}}',
            '{"type": "behavior", "beta": {"1": {"A": "1/2", "B": "1/4"}, '
            '"2": {"w1": "1", "w2": "0", "w3": "1/3", "w4": "1"}}}',
        ]
        assert json.dumps(stopping_time_to_doc(convert(r1, "mixed", e1))) == (
            '{"type": "mixed", "breakpoints": ["0", "1/4", "1/2", "1"], "sections": ['
            '{"type": "pure", "stop": {"w1": 1, "w2": 1, "w3": 1, "w4": 1}}, '
            '{"type": "pure", "stop": {"w1": 1, "w2": 1, "w3": 2, "w4": 2}}, '
            '{"type": "pure", "stop": {"w1": 2, "w2": "inf", "w3": "inf", "w4": 2}}]}'
        )

    def test_process_document(self, e1):
        process = random_process(random.Random(3), e1)
        assert json.dumps(process_to_doc(process)) == self.PROCESS

    def test_game_document(self, e1):
        one = random_process(random.Random(3), e1)
        table = {}
        for c in (ONLY_1, ONLY_2, BOTH):
            table[(1, c)], table[(2, c)] = one, negate_process(one)
        game = stopping_game(table)
        negated = (
            '{"values": {"1": {"A": "5/2", "B": "1/4"}, '
            '"2": {"w1": "-8", "w2": "-7", "w3": "-1", "w4": "-5/2"}}, '
            '"infinity": {"w1": "3/2", "w2": "-5/4", "w3": "0", "w4": "5/2"}}'
        )
        payoffs = [f'"1|{c}": {self.PROCESS}' for c in ("{12}", "{1}", "{2}")]
        payoffs += [f'"2|{c}": {negated}' for c in ("{12}", "{1}", "{2}")]
        expected = '{"players": 2, "payoffs": {' + ", ".join(payoffs) + '}, "zero_sum": true}'
        assert json.dumps(game_to_doc(game, e1)) == expected


class TestProcessDocs:
    def test_round_trip(self, e1):
        rng = random.Random(3)
        proc = random_process(rng, e1)
        assert process_from_doc(process_to_doc(proc)) == proc

    def test_rationals_rendered_lowest_terms(self, e1):
        doc = process_to_doc(constant_process(e1, "2/4"))
        assert doc["values"]["1"]["A"] == "1/2"


class TestMeasureDocs:
    def test_round_trip(self, e1):
        nu = detailed_distribution(make_r1(), e1)
        assert measure_from_doc(measure_to_doc(nu), e1) == nu

    def test_read_only_measure_writes_the_same_bytes(self, e1):
        nu = detailed_distribution(make_r1(), e1)
        plain = SimpleNamespace(mass={atom: dict(row) for atom, row in nu.mass.items()})
        written = json.dumps(measure_to_doc(nu))
        assert written == json.dumps(measure_to_doc(plain))
        assert written == (
            '{"mass": {"w1": {"1": "1/8", "2": "1/8", "inf": "0"}, '
            '"w2": {"1": "1/8", "2": "0", "inf": "1/8"}, '
            '"w3": {"1": "1/16", "2": "1/16", "inf": "1/8"}, '
            '"w4": {"1": "1/16", "2": "3/16", "inf": "0"}}}'
        )
        back = measure_from_doc(json.loads(written), e1)
        assert {type(back.mass), *map(type, back.mass.values())} == {ReadOnly}
        with pytest.raises(TypeError, match="read-only"):
            back.mass["w1"][1] = F(0)

    def test_arrays_rejected(self, e1):
        for doc in ({"mass": []}, {"mass": {"w1": []}}):
            with pytest.raises(FormatError):
                measure_from_doc(doc, e1)

    @pytest.mark.parametrize("time", ["7", "0"])
    def test_mass_at_an_unknown_time_is_refused(self, e1, time):
        doc = measure_to_doc(detailed_distribution(make_r1(), e1))
        doc["mass"]["w3"][time] = "1/2"
        with pytest.raises(ValidationError, match=f"unknown time {time} at 'w3'"):
            measure_from_doc(doc, e1)
        with pytest.raises(ValidationError, match=f"unknown time {time} "):
            stopping_measure({"w1": {1: F(1, 4), int(time): F(0)}}, e1)


class TestGameDocs:
    def game(self, e1, zero_sum):
        table = {}
        for c in (ONLY_1, ONLY_2, BOTH):
            one = constant_process(e1, 2)
            table[(1, c)] = one
            table[(2, c)] = negate_process(one) if zero_sum else one
        return stopping_game(table)

    def test_round_trip(self, e1):
        game = self.game(e1, zero_sum=True)
        doc = game_to_doc(game, e1)
        assert doc["zero_sum"] is True
        assert set(doc["payoffs"]) == {
            "1|{1}", "1|{2}", "1|{12}", "2|{1}", "2|{2}", "2|{12}",
        }
        back = game_from_doc(doc, e1)
        assert back.payoffs == game.payoffs

    def test_zero_sum_flag_must_hold(self, e1):
        doc = game_to_doc(self.game(e1, zero_sum=False), e1)
        assert doc["zero_sum"] is False
        doc["zero_sum"] = True
        with pytest.raises(ValidationError):
            game_from_doc(doc, e1)

    def test_zero_sum_flag_must_be_a_bool(self, e1):
        doc = game_to_doc(self.game(e1, zero_sum=False), e1)
        for flag in ("false", "true", 0, 1, None, []):
            doc["zero_sum"] = flag
            with pytest.raises(FormatError, match="zero_sum"):
                game_from_doc(doc, e1)
        del doc["zero_sum"]
        assert game_from_doc(doc, e1).payoffs == self.game(e1, zero_sum=False).payoffs

    def test_bad_keys_rejected(self, e1):
        doc = game_to_doc(self.game(e1, zero_sum=True), e1)
        doc["payoffs"]["3|{1}"] = doc["payoffs"]["1|{1}"]
        with pytest.raises(FormatError):
            game_from_doc(doc, e1)

    @pytest.mark.parametrize(
        "key, renamed",
        [
            ("1|{1}", "+1|{1}"),
            ("1|{1}", " 1|{1}"),
            ("1|{1}", "1 |{1}"),
            ("1|{1}", "01|{1}"),
            ("2|{2}", "\u0662|{2}"),  # an Arabic-Indic two
            ("1|{12}", "1|{12} "),
            ("2|{1}", "2{1}"),
        ],
    )
    def test_player_is_exactly_1_or_2(self, e1, key, renamed):
        doc = game_to_doc(self.game(e1, zero_sum=True), e1)
        doc["payoffs"][renamed] = doc["payoffs"].pop(key)
        with pytest.raises(FormatError, match="bad payoff key"):
            game_from_doc(doc, e1)


def distinct_documents(rng: random.Random) -> dict:
    """The documents of a 4 x 4 tree, a problem on it and a zero-sum game on it, whose numbers
    are all distinct strings of ~90-bit rationals: no number is read twice."""
    nodes = [{"id": "root", "parent": None}]
    nodes += [{"id": f"b{i}", "parent": "root"} for i in range(4)]
    weights = [rng.getrandbits(90) | 1 for _ in range(16)]
    nodes += [
        {"id": f"w{k}", "parent": f"b{k // 4}", "prob": f"{w}/{sum(weights)}"}
        for k, w in enumerate(weights)
    ]
    space = space_from_doc({"nodes": nodes})

    def big():
        return F(rng.getrandbits(90) - (1 << 89), rng.getrandbits(90) | 1)

    def process():
        return process_to_doc(
            adapted_process(
                values={n: {b: big() for b in space.blocks(n)} for n in (1, 2)},
                infinity={a: big() for a in space.atoms},
            )
        )

    payoffs = {}
    for c in ("12", "1", "2"):
        one = payoffs[f"1|{{{c}}}"] = process()
        payoffs[f"2|{{{c}}}"] = process_to_doc(negate_process(process_from_doc(one)))
    return {
        "space": {"nodes": nodes},
        "problem": process(),
        "game": {"players": 2, "payoffs": payoffs, "zero_sum": True},
    }


def numbers_of(doc) -> list:
    """Every number string of a document, a space's ids aside."""
    if isinstance(doc, dict):
        return [s for key, v in doc.items() if key not in ("id", "parent") for s in numbers_of(v)]
    if isinstance(doc, list):
        return [s for v in doc for s in numbers_of(v)]
    return [doc] if isinstance(doc, str) else []


class TestNumberMemo:
    """A read parses each distinct number string of its document once, and forgets them all
    when it returns."""

    #: sha256 of the cli output on ``distinct_documents(random.Random(90))``, as written
    #: before reads kept a memo.
    DIGEST = "76f7084b933df79d8ab113e2061643009283274c95fd55cb0af4b8e4182d7ee1"

    def test_distinct_numbers_read_as_one_by_one(self):
        docs = distinct_documents(random.Random(90))
        strings = [s for doc in docs.values() for s in numbers_of(doc)]
        assert len(strings) == len(set(strings)) > 150
        space = space_from_doc(docs["space"])
        assert list(space.prob.values()) == [
            parse_rational(node["prob"]) for node in docs["space"]["nodes"] if "prob" in node
        ]
        problem = process_from_doc(docs["problem"])
        assert problem.values == {
            int(n): {b: parse_rational(v) for b, v in level.items()}
            for n, level in docs["problem"]["values"].items()
        }
        infinity = docs["problem"]["infinity"]
        assert problem.infinity == {a: parse_rational(v) for a, v in infinity.items()}
        game = game_from_doc(docs["game"], space)
        assert game_to_doc(game, space) == docs["game"]

    def test_distinct_numbers_print_the_same_bytes(self, tmp_path, capsys):
        from stopwright.cli import run

        paths = {}
        for name, doc in distinct_documents(random.Random(90)).items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(doc))
        out = []
        for argv in (
            ["validate", "--space", paths["space"]],
            ["snell", "--space", paths["space"], "--problem", paths["problem"]],
            ["game-value", "--space", paths["space"], "--game", paths["game"]],
        ):
            assert run([str(a) for a in argv]) == 0
            out.append(capsys.readouterr().out)
        assert hashlib.sha256("".join(out).encode()).hexdigest() == self.DIGEST

    def test_each_distinct_string_is_parsed_once_per_document(self, e1, monkeypatch):
        import stopwright.serialize

        parsed = []
        real = stopwright.serialize.parse_rational
        monkeypatch.setattr(
            stopwright.serialize, "parse_rational", lambda v: parsed.append(v) or real(v)
        )
        table = {(j, c): constant_process(e1, 2 * j - 3) for j in (1, 2) for c in (ONLY_1, ONLY_2, BOTH)}
        doc = game_to_doc(stopping_game(table), e1)
        assert len(numbers_of(doc)) == 6 * 10
        game_from_doc(doc, e1)
        game_from_doc(doc, e1)  # a second document reads its numbers afresh
        assert sorted(parsed) == ["-1", "-1", "1", "1"]

    def test_a_repeated_malformed_string_is_refused(self, e1):
        process = {
            "values": {"1": {"A": "1/0", "B": "1/0"}, "2": {w: "x" for w in e1.atoms}},
            "infinity": {w: "x" for w in e1.atoms},
        }
        with pytest.raises(FormatError, match="zero denominator"):
            process_from_doc(process)
        process["values"]["1"] = {"A": "0", "B": "0"}
        game = {"players": 2, "payoffs": {"1|{12}": process, "2|{12}": process}}
        with pytest.raises(FormatError, match="bad rational 'x'"):
            game_from_doc(game, e1)

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no limit on int digits")
    def test_a_later_document_is_held_to_a_lowered_digit_limit(self, e1):
        long = "7" * 700
        doc = {
            "values": {"1": {"A": long, "B": "0"}, "2": {w: long for w in e1.atoms}},
            "infinity": {w: "0" for w in e1.atoms},
        }
        limit = sys.get_int_max_str_digits()
        assert process_from_doc(doc).infinity["w1"] == 0
        try:
            sys.set_int_max_str_digits(640)
            with pytest.raises(FormatError, match="more than 640 digits"):
                process_from_doc(doc)
        finally:
            sys.set_int_max_str_digits(limit)
