import json
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from stopwright import (
    FormatError,
    INFINITY,
    ValidationError,
    constant_process,
    detailed_distribution,
    equivalent,
    pure,
    randomized_to_mixed,
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
        mix = randomized_to_mixed(r1, e1)
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

    def test_missing_field_rejected(self):
        with pytest.raises(FormatError):
            stopping_time_from_doc({"type": "randomized", "rho": {}})


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
