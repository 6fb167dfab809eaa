import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cli_runner import CliRunner
from oddsrule import (
    InternalBoundViolation,
    InvalidArgument,
    bound_report,
    lower_extremal_case2,
    secretary_sequence,
    threshold,
    upper_extremal,
    validate_probabilities,
    win_probability,
)
from oddsrule import bounds, core, oracle
from oddsrule.bounds import EQUALITY_TOL
from oddsrule.cli import CHUNK, main


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, args)


def _bits(doc):
    """Every number as the hex of its double, so == compares bit for bit.

    JSON integers such as 1 (printed for R_s = 1.0) become doubles too;
    the CLI's "inf"/"nan" strings equal float("inf").hex() and friends.
    """
    if isinstance(doc, dict):
        return {k: _bits(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_bits(v) for v in doc]
    if isinstance(doc, (int, float)) and not isinstance(doc, bool):
        return float(doc).hex()
    return doc


def _expected_analysis(seq):
    t = threshold(seq)
    w = win_probability(seq, t)
    r = bound_report(seq)
    return {
        "n": seq.n,
        "p": list(seq.p),
        "odds": list(seq.r),
        "suffix_sums": list(seq.R),
        "s": t.s,
        "R_s": t.R_s,
        "boundary_flag": t.boundary_flag,
        "v_n": w.value,
        "v_n_odds_ratio": w.product_form,
        "bounds": {
            "upper": {
                "value": r.upper,
                "satisfied": r.v_n <= r.upper + EQUALITY_TOL,
                "equality": r.equality["upper"],
            },
            "lower": {
                "value": r.lower,
                "case": r.lower_case,
                "strict": r.lower_strict,
                "satisfied": r.v_n >= r.lower - EQUALITY_TOL,
                "equality": r.equality["lower"],
            },
            "corollary": {
                "value": r.corollary,
                "applicable": r.corollary_applicable,
                "equality": r.equality.get("corollary"),
            },
            "one_over_e": {"value": r.e_bound, "applicable": r.e_bound_applicable},
            "allaart_islas": {
                "value": r.allaart_islas,
                "applicable": r.e_bound_applicable,
                "equality": r.equality.get("allaart_islas"),
            },
        },
    }


class TestAnalyze:
    def test_inline_text(self, runner):
        res = invoke(runner, "analyze", "0,0,0.5,0,0")
        assert res.exit_code == 0
        assert "s             3" in res.output
        assert "V_n           0.5" in res.output
        assert "[equality]" in res.output

    def test_inline_json(self, runner):
        res = invoke(runner, "analyze", "0,0,0.5,0,0", "--format", "json")
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["n"] == 5
        assert doc["s"] == 3
        assert doc["v_n"] == 0.5
        assert doc["bounds"]["upper"]["equality"] is True
        assert doc["bounds"]["upper"]["value"] == 0.5

    def test_out_of_range_exits_2(self, runner):
        res = invoke(runner, "analyze", "1.5")
        assert res.exit_code == 2
        assert "outside [0, 1]" in res.output

    def test_empty_exits_2(self, runner):
        res = invoke(runner, "analyze", ",")
        assert res.exit_code == 2

    def test_nan_token_exits_2(self, runner):
        res = invoke(runner, "analyze", "0.2,nan")
        assert res.exit_code == 2

    def test_two_sources_rejected(self, runner):
        res = invoke(runner, "analyze", "0.5", "--secretary", "4")
        assert res.exit_code == 2

    def test_no_source_rejected(self, runner):
        res = invoke(runner, "analyze")
        assert res.exit_code == 2

    # argparse's own wording, pinned on every Python the package supports
    def test_no_source_names_the_four_inputs(self, runner):
        res = invoke(runner, "analyze")
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "one of the arguments PROBS --file/-f --secretary --extremal is required" in res.stderr

    def test_two_sources_name_the_conflict(self, runner):
        res = invoke(runner, "analyze", "0.5", "--secretary", "4")
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "not allowed with argument PROBS" in res.stderr

    def test_file_lines(self, runner, tmp_path):
        path = tmp_path / "probs.txt"
        path.write_text("0\n0\n0.5\n0\n0\n")
        res = invoke(runner, "analyze", "--file", str(path), "--format", "json")
        assert res.exit_code == 0
        assert json.loads(res.output)["s"] == 3

    def test_file_json(self, runner, tmp_path):
        path = tmp_path / "probs.json"
        path.write_text(json.dumps({"p": [0.2, 0.2, 0.2, 0.2]}))
        res = invoke(runner, "analyze", "--file", str(path), "--format", "json")
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["bounds"]["lower"]["case"] == 2
        assert doc["bounds"]["lower"]["equality"] is True

    @pytest.mark.parametrize(
        "text", ['{"p": [0.2, 0.5, 0.3]}', "0.2\n0.5\n0.3\n"], ids=["json", "lines"]
    )
    def test_file_with_a_utf8_bom(self, runner, tmp_path, text):
        # editors on Windows start UTF-8 files with EF BB BF; the mark is not input
        path = tmp_path / "probs.txt"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        res = invoke(runner, "analyze", "--file", str(path), "--format", "json")
        assert (res.exit_code, res.stderr) == (0, "")
        assert res.stdout == invoke(runner, "analyze", "0.2,0.5,0.3", "--format", "json").stdout

    def test_missing_file_exits_2(self, runner, tmp_path):
        res = invoke(runner, "analyze", "--file", str(tmp_path / "nope.txt"))
        assert res.exit_code == 2

    def test_file_not_utf8_exits_2(self, runner, tmp_path):
        path = tmp_path / "probs.txt"
        path.write_bytes(b"\xff\xfe0.5\n")
        res = invoke(runner, "analyze", "--file", str(path))
        assert res.exit_code == 2
        assert res.stdout == ""
        assert f"cannot read {path}" in res.stderr
        assert "Traceback" not in res.stderr

    def test_file_integer_beyond_float_range_exits_2(self, runner, tmp_path):
        path = tmp_path / "probs.json"
        path.write_text('{"p": [0.5, 1' + "0" * 399 + "]}")
        res = invoke(runner, "analyze", "--file", str(path))
        assert res.exit_code == 2
        assert res.stdout == ""
        assert f"cannot parse {path}" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize(
        "text", ['{"p": "10"}', '{"p": {"0": 1, "1": 2}}'], ids=["string", "object"]
    )
    def test_file_p_not_an_array_exits_2(self, runner, tmp_path, text):
        # iterating a string or an object would analyze its characters or keys
        path = tmp_path / "probs.json"
        path.write_text(text)
        res = invoke(runner, "analyze", "--file", str(path))
        assert res.exit_code == 2
        assert res.stdout == ""
        assert f"cannot parse {path}" in res.stderr

    @pytest.mark.parametrize(
        "text, entry",
        [('{"p": [true, false, 0.5]}', "entry 1 is true"), ('{"p": [0.5, "0.25", false]}',
                                                            "entry 3 is false")],
        ids=["true", "false"],
    )
    def test_file_json_boolean_exits_2(self, runner, tmp_path, text, entry):
        # float() would read true and false as 1 and 0
        path = tmp_path / "probs.json"
        path.write_text(text)
        res = invoke(runner, "analyze", "--file", str(path))
        assert res.exit_code == 2
        assert res.stdout == ""
        assert f"cannot parse {path}: {entry}, not a number" in res.stderr

    def test_infinite_sums_render_as_strings(self, runner):
        res = invoke(runner, "analyze", "1,0.2", "--format", "json")
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["suffix_sums"][0] == "inf"
        assert doc["v_n_odds_ratio"] is None

    def test_secretary_source(self, runner):
        res = invoke(runner, "analyze", "--secretary", "10", "--format", "json")
        doc = json.loads(res.output)
        assert doc["s"] == 4
        assert abs(doc["v_n"] - 0.39869047619047626) < 1e-12

    def test_extremal_source(self, runner):
        res = invoke(
            runner, "analyze", "--extremal", "case2:n=4,s=1", "--format", "json"
        )
        doc = json.loads(res.output)
        assert doc["bounds"]["lower"]["equality"] is True

    @pytest.mark.parametrize(
        "args, seq",
        [
            (["0.1,0.5,0.4,0.25,0.2"], validate_probabilities([0.1, 0.5, 0.4, 0.25, 0.2])),
            # p = 1 in the window: no odds-ratio form, infinite suffix sums
            (["0,1,0.2"], validate_probabilities([0, 1, 0.2])),
            # R_2 = 1 exactly: boundary flag set
            (["0.5,0.5"], validate_probabilities([0.5, 0.5])),
            (["0.3,0.1,0.7"], validate_probabilities([0.3, 0.1, 0.7])),
            (["--secretary", "10"], secretary_sequence(10)),
            (["--extremal", "case2:n=6,s=3"], lower_extremal_case2(6, 3).seq),
        ],
    )
    def test_json_equals_library_bit_for_bit(self, runner, args, seq):
        res = invoke(runner, "analyze", *args, "--format", "json")
        assert res.exit_code == 0
        assert _bits(json.loads(res.output)) == _bits(_expected_analysis(seq))

    def test_strict_case3_line_carries_no_equality_flag(self, runner):
        # V_n rounds to the case-3 bound here, but a strict bound is never attained
        res = invoke(runner, "analyze", "--extremal", "case3:n=6,s=1,alpha=0.999999999999")
        assert res.exit_code == 0
        assert "lower         0.401877572016  (case 3, strict)\n" in res.output

    @pytest.mark.parametrize("spec", ["case2:n=2.5,s=1", "case2:n=4,s=1.5"])
    def test_extremal_spec_rejects_non_integer(self, runner, spec):
        res = invoke(runner, "analyze", "--extremal", spec)
        assert res.exit_code == 2
        assert "bad extremal spec" in res.output

    @pytest.mark.parametrize(
        "spec", ["case3:n=6,s=2,alpah=0.5", "upper:n=5,s=3,r1=1"]
    )
    def test_extremal_spec_rejects_unknown_key(self, runner, spec):
        res = invoke(runner, "analyze", "--extremal", spec)
        assert res.exit_code == 2
        assert "bad extremal spec" in res.output
        assert "unknown key" in res.output

    def test_json_byte_identical(self, runner):
        a = invoke(runner, "analyze", "0.3,0.1,0.7", "--format", "json")
        b = invoke(runner, "analyze", "0.3,0.1,0.7", "--format", "json")
        assert a.output == b.output


class TestSecretaryCommand:
    def test_matches_analyze(self, runner):
        direct = invoke(runner, "secretary", "10", "--format", "json")
        via_analyze = invoke(
            runner, "analyze", "--secretary", "10", "--format", "json"
        )
        assert direct.output == via_analyze.output

    @pytest.mark.parametrize("n", ["1", "8", "12", "300"])
    @pytest.mark.parametrize("output_format", ["text", "json"])
    def test_prints_the_bytes_of_analyze(self, runner, n, output_format):
        direct = invoke(runner, "secretary", n, "--format", output_format)
        via_analyze = invoke(runner, "analyze", "--secretary", n, "--format", output_format)
        assert direct.exit_code == via_analyze.exit_code == 0
        assert (direct.stdout, direct.stderr) == (via_analyze.stdout, via_analyze.stderr)

    def test_rejects_zero(self, runner):
        assert invoke(runner, "secretary", "0").exit_code == 2


class TestOracleCheck:
    def test_tie_sequence_agrees(self, runner):
        res = invoke(
            runner, "oracle-check", "0.5,0.5", "--trials", "100000", "--seed", "42"
        )
        assert res.exit_code == 0
        assert "MISMATCH" not in res.output

    def test_single_item(self, runner):
        res = invoke(runner, "oracle-check", "0.3", "--trials", "20000")
        assert res.exit_code == 0

    def test_large_n_skips_exhaustive(self, runner):
        probs = ",".join(["0.2"] * 25)
        res = invoke(runner, "oracle-check", probs, "--trials", "20000")
        assert res.exit_code == 0
        assert "skipped" in res.output

    def test_json_mode(self, runner):
        res = invoke(
            runner,
            "oracle-check",
            "0,0,0.5,0,0",
            "--trials",
            "50000",
            "--format",
            "json",
        )
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["agree"] is True
        assert doc["values"]["formula"] == 0.5
        assert abs(doc["values"]["exhaustive"] - 0.5) < 1e-15

    def test_disagreement_exits_3_after_the_table(self, runner, dp_off_by_1e_9):
        res = invoke(runner, "oracle-check", "--secretary", "20", "--trials", "20000")
        assert res.exit_code == 3
        assert "dp optimal" in res.stdout and "MISMATCH" in res.stdout
        assert res.stderr == "error: oracle disagreement\n"
        assert res.output.index("MISMATCH") < res.output.index("error: oracle disagreement")

    def test_disagreement_json(self, runner, dp_off_by_1e_9):
        res = invoke(runner, "oracle-check", "--format", "json", "--secretary", "20")
        assert res.exit_code == 3
        doc = json.loads(res.stdout)
        assert doc["agree"] is False
        assert doc["checks"]["dp"] is False
        assert res.stderr == "error: oracle disagreement\n"

    @pytest.mark.parametrize("args", [["0.000001"], ["--format", "json", "1e-7"]])
    def test_v_n_far_below_one_over_trials_agrees(self, runner, args):
        # no trial wins, so the plug-in standard error is 0; the band is
        # the standard error under the hypothesis p = V_n instead
        res = invoke(runner, "oracle-check", *args)
        assert res.exit_code == 0
        assert res.stderr == ""
        if "json" in args:
            doc = json.loads(res.stdout)
            assert doc["monte_carlo"]["wins"] == 0
            assert doc["checks"]["monte_carlo"] is True
        else:
            assert "0 +/- 0   ok (4 se)" in res.stdout


class TestSweep:
    def test_reference_row(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        res = invoke(runner, "sweep", "--n", "10", "--s", "4", "--rs", "1", "-o", str(out))
        assert res.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,s,R_s,case,lower,upper,corollary,v_n"
        fields = lines[1].split(",")
        assert fields[0] == "10" and fields[1] == "4"
        assert float(fields[4]) == pytest.approx((8 / 7) ** -7, abs=1e-12)
        assert float(fields[5]) == 0.5
        # case 2 at R_s = 1: the equal-window config fills v_n
        assert fields[7] != ""
        assert float(fields[7]) == pytest.approx((8 / 7) ** -7, abs=1e-12)

    def test_rounded_separator_point_is_case3(self, runner):
        # --rs 1.1 parses to the double above 1 + 1/(n-s) = 11/10
        res = runner.invoke(main, ["sweep", "--n", "11", "--s", "1", "--rs", "1.1,3", "-o", "-"])
        assert res.exit_code == 0
        near, far = (line.split(",") for line in res.output.splitlines()[1:])
        assert near[:4] == ["11", "1", "1.1000000000000001", "3"]
        # the case-3 bound and the limiting family's value, as at R_s = 3
        assert near[4] == far[4] == "0.3855432894295317"
        assert near[7] == far[7] != ""

    def test_degenerate_point(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        res = invoke(runner, "sweep", "--n", "6", "--s", "6", "--rs", "1.5", "-o", str(out))
        assert res.exit_code == 0
        fields = out.read_text().splitlines()[1].split(",")
        assert float(fields[6]) == 0.5  # corollary at s = n
        assert fields[3] == "2"  # case 3 unreachable at s = n

    def test_inconsistent_point_skipped_with_notice(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        res = runner.invoke(
            main,
            ["sweep", "--n", "6", "--s", "2,3", "--rs", "0.5,2", "-o", str(out)],
        )
        assert res.exit_code == 0
        assert "skipping inconsistent point" in res.output
        body = out.read_text().splitlines()[1:]
        assert all(line.split(",")[2] != "0.5" for line in body)

    def test_points_outside_lower_bound_domain_skipped(self, runner):
        res = runner.invoke(
            main, ["sweep", "--n", "5", "--s", "2,7", "--rs", "1,-1", "-o", "-"]
        )
        assert res.exit_code == 0
        assert res.output.count("skipping inconsistent point") == 3
        assert "n=5 s=7 R_s=1.0: need 1 <= s <= n" in res.output
        assert "n=5 s=2 R_s=-1.0: need R_s >= 0" in res.output

    def test_byte_identical_runs(self, runner, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["--n", "4:8", "--s", "1:3", "--rs", "0.25,1,1.5,3"]
        assert invoke(runner, "sweep", *args, "-o", str(a)).exit_code == 0
        assert invoke(runner, "sweep", *args, "-o", str(b)).exit_code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_all_rows_lower_le_upper(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        invoke(
            runner, "sweep", "--n", "3:12:3", "--s", "1:12", "--rs",
            "0.5,1,1.2,2,5", "-o", str(out),
        )
        for line in out.read_text().splitlines()[1:]:
            fields = line.split(",")
            assert float(fields[4]) <= float(fields[5]) + 1e-12

    def test_empty_grid_exits_2(self, runner, tmp_path):
        res = runner.invoke(
            main, ["sweep", "--n", "5:4", "--s", "1", "--rs", "1", "-o",
                   str(tmp_path / "x.csv")],
        )
        assert res.exit_code == 2

    @pytest.mark.parametrize(
        "option, spec, column, values",
        [("--n", "5:3:-1", 0, ["5", "4", "3"]), ("--s", "8:2:-3", 1, ["8", "5", "2"])],
        ids=["n", "s"],
    )
    def test_negative_step_includes_stop(self, runner, option, spec, column, values):
        specs = {"--n": "10", "--s": "1", option: spec}
        res = invoke(
            runner, "sweep", "--n", specs["--n"], "--s", specs["--s"], "--rs", "1", "-o", "-"
        )
        assert res.exit_code == 0
        rows = res.stdout.splitlines()[1:]
        assert [row.split(",")[column] for row in rows] == values

    def test_zero_step_exits_2(self, runner):
        res = runner.invoke(
            main, ["sweep", "--n", "2:50:0", "--s", "1", "--rs", "1", "-o", "-"]
        )
        assert res.exit_code == 2

    def test_unwritable_path_exits_2(self, runner):
        res = runner.invoke(
            main, ["sweep", "--n", "5", "--s", "1", "--rs", "1", "-o",
                   "/nonexistent-dir/out.csv"],
        )
        assert res.exit_code == 2

    def test_option_value_may_start_with_a_dash(self, runner):
        # the value of --rs is the next token, as for every valued option
        res = invoke(runner, "sweep", "--n", "5", "--s", "2", "--rs", "-1,1", "-o", "-")
        assert res.exit_code == 0
        assert len(res.stdout.splitlines()) == 2
        assert "n=5 s=2 R_s=-1.0: need R_s >= 0" in res.stderr

    def test_stdout_dash(self, runner):
        res = invoke(runner, "sweep", "--n", "5", "--s", "2", "--rs", "1,2", "-o", "-")
        assert res.exit_code == 0
        assert res.output.startswith("n,s,R_s,case,lower,upper,corollary,v_n")

    def test_no_consistent_row_exits_2(self, runner):
        res = invoke(runner, "sweep", "--n", "5", "--s", "9", "--rs", "1", "-o", "-")
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == (
            "notice: skipping inconsistent point n=5 s=9 R_s=1.0: need 1 <= s <= n, got s = 9, n = 5\n"
            "error: sweep grid produced no consistent rows\n"
        )


class TestExtremalCommand:
    def test_upper_reference(self, runner):
        res = invoke(runner, "extremal", "upper", "--n", "5", "--s", "3", "--rs", "1")
        assert res.exit_code == 0
        assert res.output.splitlines()[0] == "0,0,0.5,0,0"

    def test_case2_reference(self, runner):
        res = invoke(runner, "extremal", "case2", "--n", "4", "--s", "1")
        assert res.output.splitlines()[0] == "0.2,0.2,0.2,0.2"

    def test_case3_reference(self, runner):
        res = invoke(
            runner, "extremal", "case3", "--n", "2", "--s", "1",
            "--alpha", "0.5", "--format", "json",
        )
        doc = json.loads(res.output)
        assert doc["p"][0] == pytest.approx(2 / 3, abs=1e-15)
        assert doc["p"][1] == pytest.approx(1 / 3, abs=1e-15)
        assert doc["v_n"] == pytest.approx(5 / 9, abs=1e-14)
        assert doc["attainment"] == "limiting"
        assert doc["v_n"] > doc["target_bound"]

    @pytest.mark.parametrize(
        "args, p",
        [
            # zeros up to the first cut, then a 1 just after it
            (["upper", "--n", "9000", "--s", "4097", "--rs", "inf"],
             upper_extremal(9000, 4097, float("inf")).seq.p),
            (["case2", "--n", "9000", "--s", "4097"], lower_extremal_case2(9000, 4097).seq.p),
        ],
        ids=["upper", "case2"],
    )
    def test_p_line_across_chunk_seams(self, runner, args, p):
        """The text p line, written CHUNK entries a piece, is the comma join
        of each entry's shortest round-trip form, 0 and 1 as integers."""
        assert p[CHUNK - 1] == 0.0 and p[CHUNK] > 0.0
        res = invoke(runner, "extremal", *args)
        assert res.exit_code == 0
        line = res.stdout.splitlines()[0]
        assert line == ",".join(str(int(x)) if x == int(x) else repr(x) for x in p)

    def test_inconsistent_exits_2(self, runner):
        res = runner.invoke(
            main, ["extremal", "upper", "--n", "5", "--s", "3", "--rs", "0.5"]
        )
        assert res.exit_code == 2

    def test_round_trip_through_analyze(self, runner):
        gen = invoke(runner, "extremal", "case1", "--n", "3", "--rs", "0.7")
        probs = gen.output.splitlines()[0]
        res = invoke(runner, "analyze", probs, "--format", "json")
        doc = json.loads(res.output)
        assert doc["bounds"]["lower"]["case"] == 1
        assert doc["bounds"]["lower"]["equality"] is True

    def test_case3_round_trip_is_strictly_above(self, runner):
        gen = invoke(runner, "extremal", "case3", "--n", "6", "--s", "2")
        probs = gen.output.splitlines()[0]
        res = invoke(runner, "analyze", probs, "--format", "json")
        low = json.loads(res.output)["bounds"]["lower"]
        assert low["case"] == 3
        assert low["strict"] is True
        assert low["satisfied"] is True
        assert low["equality"] is False


class TestSimulate:
    def test_deterministic(self, runner):
        args = ["simulate", "0,0,0.5,0,0", "--trials", "30000", "--seed", "7",
                "--format", "json"]
        a = runner.invoke(main, args)
        b = runner.invoke(main, args)
        assert a.output == b.output
        doc = json.loads(a.output)
        assert doc["k"] == 3  # defaults to the optimal threshold
        assert abs(doc["estimate"] - doc["exact"]) <= 5 * doc["std_error"]

    def test_explicit_k(self, runner):
        res = invoke(
            runner, "simulate", "0,0,0.5,0,0", "--k", "5", "--trials", "1000",
            "--format", "json",
        )
        doc = json.loads(res.output)
        assert doc["wins"] == 0
        assert doc["exact"] == 0.0

    def test_bad_k_exits_2(self, runner):
        res = runner.invoke(main, ["simulate", "0.5", "--k", "9", "--trials", "10"])
        assert res.exit_code == 2


@pytest.mark.parametrize(
    "args",
    [
        ["oracle-check", "0.5", "--trials", "0"],
        ["simulate", "0.5", "--trials", "-3"],
        ["simulate", "0.5", "--trials", "0", "--format", "json"],
    ],
)
def test_nonpositive_trials_exit_2(runner, args):
    res = invoke(runner, *args)
    assert res.exit_code == 2
    assert "Traceback" not in res.output
    assert "--trials" in res.output


@pytest.mark.parametrize(
    "args",
    [
        ["analyze", "--extremal", "case2:n=4,n=6,s=1"],  # repeated key
        ["analyze", "--extremal", "case2:n=4,s=1,rs=0.5"],  # case 2 takes no rs
        ["analyze", "--extremal", "case2:s=1"],  # n missing
        ["extremal", "case1", "--n", "4", "--s", "3", "--rs", "0.5"],  # case 1 takes no s
        ["extremal", "upper", "--n", "4", "--s", "2", "--rs", "2", "--alpha", "0.3"],
        ["extremal", "upper", "--n", "4", "--s", "2"],  # rs missing
    ],
)
def test_extremal_keys_must_fit_the_family(runner, args):
    res = invoke(runner, *args)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "Traceback" not in res.output
    if args[0] == "analyze":
        assert "bad extremal spec" in res.output


@pytest.mark.parametrize(
    "args, extra",
    [
        (("analyze", "0.5", "0.3"), "0.3"),
        (("analyze", "--form", "json", "0.5"), "--form 0.5"),
        (("secretary", "5", "6"), "6"),
        (("sweep", "--n", "3", "--s", "1", "--rs", "1", "-o", "-", "extra"), "extra"),
    ],
    ids=["analyze_extra_value", "analyze_unknown_option", "secretary", "sweep"],
)
def test_leftover_arguments_are_reported_by_the_command(runner, args, extra):
    res = invoke(runner, *args)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.startswith(f"usage: oddsrule {args[0]} [--help]")
    assert res.stderr.endswith(f"oddsrule {args[0]}: error: unrecognized arguments: {extra}\n")


@pytest.mark.parametrize(
    "args, message",
    [
        (("sweep", "--n", "4", "--s", "1:2:3:4", "--rs", "1", "-o", "-"),
         "bad --s range '1:2:3:4': use START:STOP or START:STOP:STEP"),
        (("analyze", "--extremal", "bogus:n=3"),
         "bad extremal spec 'bogus:n=3': unknown extremal family 'bogus'"),
        (("analyze", "0.5,abc"), "cannot parse PROBS: could not convert string to float: 'abc'"),
    ],
    ids=["sweep_range", "extremal_family", "probs_token"],
)
def test_unparsable_values_are_usage_errors(runner, args, message):
    res = invoke(runner, *args)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.startswith(f"usage: oddsrule {args[0]} [--help]")
    assert res.stderr.endswith(f"oddsrule {args[0]}: error: {message}\n")


# n = 2**62: a list of that length fails its size check before any memory
# is taken, so these exercise the out-of-memory path cheaply
@pytest.mark.parametrize(
    "args",
    [
        ["extremal", "case2", "--n", str(2**62), "--s", "1"],
        ["sweep", "--n", str(2**62), "--s", "1", "--rs", "1", "-o", "-"],
        ["analyze", "--extremal", f"case2:n={2**62},s=1"],
    ],
    ids=["extremal", "sweep", "analyze"],
)
def test_a_request_too_large_for_memory_exits_2(runner, args):
    res = invoke(runner, *args)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == "error: not enough memory for this request\n"


# n = 2**63 or 10**400: no list has that many entries, so the library
# refuses the size itself (TooLarge) before any allocation or arithmetic
@pytest.mark.parametrize(
    "args, bits",
    [
        (["extremal", "case2", "--n", str(2**63), "--s", "1"], 64),
        (["extremal", "case1", "--n", str(2**63), "--rs", "0.5"], 64),
        (["extremal", "upper", "--n", str(2**63), "--s", "1", "--rs", "1"], 64),
        (["analyze", "--extremal", f"case2:n={2**63},s=1"], 64),
        (["analyze", "--secretary", str(2**63)], 64),
        (["sweep", "--n", str(2**63), "--s", "1", "--rs", "1", "-o", "-"], 64),
        (["sweep", "--n", str(10**400), "--s", "1", "--rs", "0.5,1.5,3", "-o", "-"], 1329),
    ],
    ids=["case2", "case1", "upper", "analyze_extremal", "analyze_secretary", "sweep", "sweep_10e400"],
)
def test_a_size_no_list_reaches_exits_2(runner, args, bits):
    res = invoke(runner, *args)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == f"error: n is an integer of {bits} bits; need |n| < sys.maxsize\n"


# a sweep range of 10**21 values: range() takes its bounds, but no list
# holds that many values, so it is refused (TooLarge) before any row is made
@pytest.mark.parametrize("option", ["--n", "--s"])
def test_a_sweep_range_no_list_holds_exits_2(runner, option):
    specs = {"--n": "5", "--s": "1", option: f"1:{10**21}"}
    res = invoke(runner, "sweep", "--n", specs["--n"], "--s", specs["--s"], "--rs", "1", "-o", "-")
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == f"error: {option} range '1:{10**21}' holds more than sys.maxsize values\n"


# trials = 2**63: numpy's binomial takes no count that large, so the library
# refuses it (TooLarge) before drawing
@pytest.mark.parametrize("command", ["simulate", "oracle-check"])
def test_trials_no_int64_holds_exits_2(runner, command):
    res = invoke(runner, command, "--trials", str(2**63), "0.5")
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == "error: trials is an integer of 64 bits; need |trials| < sys.maxsize\n"


# the wrapper caps its child's address space, then reports the child's exit
# code and peak RSS (its only child, so RUSAGE_CHILDREN is that child's)
CAPPED_PROBE = """
import resource, subprocess, sys
cap = 1 << 30
def limit():
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
r = subprocess.run([sys.executable, "-m", "oddsrule.cli", *sys.argv[1:]],
                   capture_output=True, text=True, preexec_fn=limit)
print(r.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss // 1024)
print(repr(r.stdout), repr(r.stderr))
"""


@pytest.mark.parametrize(
    "args", [["secretary", str(2**62)], ["analyze", "--secretary", str(2**62)]],
    ids=["secretary", "analyze"],
)
def test_a_secretary_size_memory_cannot_hold_fails_at_once(args):
    """n = 2**62 is below the TooLarge cap; the record list is sized in one
    step, so it is refused before it grows (under a 1 GiB address-space cap,
    so that a list that does grow stops there)."""
    res = subprocess.run([sys.executable, "-c", CAPPED_PROBE, *args], env=_probe_env(),
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    status, stdio = res.stdout.splitlines()
    code, max_rss_mib = map(int, status.split())
    assert code == 2
    assert stdio == repr("") + " " + repr("error: not enough memory for this request\n")
    assert max_rss_mib < 256


@pytest.mark.parametrize("output_format", ["json", "text"])
def test_a_pipe_closed_mid_document_exits_1_quietly(output_format):
    """The reader takes a few bytes of a document of several MB and closes
    the pipe (`| head -c 16`): a later write fails, and the command exits 1
    with nothing on stderr."""
    argv = [sys.executable, "-m", "oddsrule.cli", "analyze", "--format", output_format,
            "--secretary", "200000"]
    with subprocess.Popen(argv, env=_probe_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as child:
        assert len(child.stdout.read(16)) == 16
        child.stdout.close()
        _, stderr = child.communicate(timeout=60)
    assert (child.returncode, stderr) == (1, b"")


@pytest.mark.parametrize(
    "command", ["analyze", "secretary", "oracle-check", "simulate", "extremal", "sweep"]
)
def test_help_exits_0(runner, command):
    res = invoke(runner, command, "--help")
    assert res.exit_code == 0
    assert res.stderr == ""
    assert res.stdout.startswith(f"usage: oddsrule {command} [--help]")
    takes_input = command in ("analyze", "oracle-check", "simulate")
    assert ("PROBS" in res.stdout) == takes_input
    # the usage line draws the four inputs as independent brackets, so the
    # PROBS help states the rule; argparse may wrap it anywhere
    rule = "Give exactly one input: PROBS, --file, --secretary or --extremal."
    assert (rule in " ".join(res.stdout.split())) == takes_input


@pytest.mark.parametrize(
    "error, code",
    [(InvalidArgument("injected"), 2), (InternalBoundViolation("upper", 0.75, 0.5), 3)],
    ids=["invalid_argument", "bound_violation"],
)
@pytest.mark.parametrize(
    "args, module, name",
    [
        (["analyze", "0.5,0.5"], bounds, "bound_report"),
        (["secretary", "5"], core, "secretary_sequence"),
        (["oracle-check", "0.5,0.5", "--trials", "100"], oracle, "cross_check"),
        (["simulate", "0.5,0.5", "--trials", "100"], oracle, "monte_carlo"),
        (["extremal", "case2", "--n", "6", "--s", "3"], core, "win_probability"),
        (["sweep", "--n", "6", "--s", "2", "--rs", "1", "-o", "-"], bounds, "corollary_bound"),
    ],
    ids=["analyze", "secretary", "oracle-check", "simulate", "extremal", "sweep"],
)
def test_library_errors_map_to_exit_codes(runner, monkeypatch, args, module, name, error, code):
    """Whatever library call a command makes, an OddsRuleError from it ends
    the command with one error line and exit 2, or 3 for a bound violation."""
    def fail(*_):
        raise error

    monkeypatch.setattr(module, name, fail)
    res = invoke(runner, *args)
    assert res.exit_code == code
    assert res.stdout == ""
    assert res.stderr == f"error: {error}\n"


def test_bound_violation_in_analyze_exits_3(runner, monkeypatch):
    # the real raise in bound_report, not a replaced bound_report
    monkeypatch.setattr(bounds, "E_BOUND", 1.0)
    seq = validate_probabilities([0.1, 0.6, 0.4])
    v = win_probability(seq, threshold(seq)).value
    res = invoke(runner, "analyze", "0.1,0.6,0.4")
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr == f"error: bound 'one_over_e' violated: V_n = {v!r} vs bound = 1.0\n"


def test_unknown_option_before_the_command_is_reported_at_the_top(runner):
    res = invoke(runner, "--bogus", "analyze", "0.5")
    assert res.exit_code == 2
    assert res.stderr == (
        "usage: oddsrule [--help] [--version] COMMAND ...\n"
        "oddsrule: error: unrecognized arguments: --bogus\n"
    )


NUMPY_PROBE = """
import sys
import oddsrule
import oddsrule.cli
from cli_runner import CliRunner

def run(*args):
    res = CliRunner().invoke(oddsrule.cli.main, args)
    assert res.exit_code == 0, res.output

run("analyze", "--format", "json", "0.5,0.5")
run("sweep", "--n", "6", "--s", "1:3", "--rs", "0.5,1,2", "-o", "-")
print("numpy" in sys.modules)
run("oracle-check", "0.5,0.5")
print("numpy" in sys.modules)
"""

ORACLE_PROBE = """
import sys
# a module that a site hook has already loaded cannot show what the CLI loads
watched = [m for m in ("oddsrule.oracle", "dataclasses", "inspect") if m not in sys.modules]
import oddsrule.cli
from cli_runner import CliRunner

def run(*args):
    res = CliRunner().invoke(oddsrule.cli.main, args)
    assert res.exit_code == 0, res.output

run("analyze", "--format", "json", "0.5,0.5")
run("secretary", "12")
run("sweep", "--n", "6", "--s", "1:3", "--rs", "0.5,1,2", "-o", "-")
run("extremal", "case2", "--n", "6", "--s", "3")
print(sorted(m for m in watched if m in sys.modules))
run("oracle-check", "0.5,0.5")
print("oddsrule.oracle" in sys.modules)
"""

NO_CLICK_PROBE = """
import sys
sys.modules["click"] = None  # any import of click now raises ImportError
import oddsrule.cli
from cli_runner import CliRunner

for args in [
    ["analyze", "0.5,0.5"],
    ["sweep", "--n", "6", "--s", "1:3", "--rs", "0.5,1,2", "-o", "-"],
    ["extremal", "case2", "--n", "6", "--s", "3"],
    ["oracle-check", "0.5,0.5"],
    ["--version"],
]:
    res = CliRunner().invoke(oddsrule.cli.main, args)
    print(args[0], res.exit_code)
"""


def _probe_env() -> dict:
    """The environment of a fresh interpreter that imports from src/ and tests/."""
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(
        filter(None, [str(root / "src"), str(root / "tests"), os.environ.get("PYTHONPATH")])
    )
    return {**os.environ, "PYTHONPATH": path}


def _run_probe(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code], env=_probe_env(), capture_output=True, text=True, timeout=60
    )


def test_numpy_loaded_only_by_the_numpy_oracles():
    """Importing the package and the CLI, analyze and sweep leave numpy
    unloaded; oracle-check, which enumerates and simulates, loads it."""
    res = _run_probe(NUMPY_PROBE)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["False", "True"]


def test_oracle_module_loaded_only_by_the_commands_that_run_it():
    """Importing the CLI and running analyze, secretary, sweep and extremal
    load neither oracle.py nor dataclasses (nor inspect, which dataclasses
    imports); oracle-check loads oracle.py."""
    res = _run_probe(ORACLE_PROBE)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["[]", "True"]


def test_cli_runs_without_click():
    """The front end needs only the standard library: with click blocked,
    every command still runs and exits 0."""
    res = _run_probe(NO_CLICK_PROBE)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == [
        "analyze 0", "sweep 0", "extremal 0", "oracle-check 0", "--version 0"
    ]


def test_closed_pipe_exits_1_without_a_traceback():
    """A reader that goes away (`| head`) ends the command quietly."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "oddsrule.cli", "secretary", "2000", "--format", "json"],
        env=_probe_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()  # before the interpreter has started: every write fails
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err == b""


GOLDEN = Path(__file__).resolve().parent / "golden"
S_EQUALS_N_20 = ",".join([repr(j / 40) for j in range(1, 20)] + ["0.75"])
# 12 entries take the grid route of the suffix sums; the eleven odds 1/11
# sum to 1 and set boundary_flag
NEAR_TIE_12 = ",".join(["0.5"] + [repr(1 / 12)] * 11)
# 25 entries: too many to enumerate, so the text says "skipped (n > 20)"
N25 = ",".join(["0.2"] * 25)
# a finite tail off the grid's guard both ways: a subnormal odds, and 1e-300
# next to 0.4 and 0.5 (exponents spread past 970 bits), with p = 1 first and
# -0.0 last; 1e-300 breaks the tie of 1 + 2**-53 upwards, so R_4 prints as
# 1.0000000000000002 where a float running sum would give 1
OFF_GRID_TAIL = ",".join(map(repr, [1.0, 5e-324, 0.4, 1e-300, 0.5, 2.0**-53 - 2.0**-106, -0.0]))


@pytest.mark.parametrize(
    "name, args",
    [
        ("oracle_check_secretary_20.json", ["oracle-check", "--format", "json", "--secretary", "20"]),
        ("oracle_check_s_equals_n_20.json", ["oracle-check", "--format", "json", S_EQUALS_N_20]),
        (
            "simulate_secretary_300.json",
            ["simulate", "--format", "json", "--secretary", "300", "--trials", "20000"],
        ),
        ("analyze_inline.txt", ["analyze", "0.1,0.5,1,0.25,0.2"]),
        ("analyze_inline.json", ["analyze", "--format", "json", "0.1,0.5,1,0.25,0.2"]),
        ("secretary_10.txt", ["secretary", "10"]),
        ("extremal_case2_n6_s3.txt", ["extremal", "case2", "--n", "6", "--s", "3"]),
        (
            "extremal_case2_n6_s3.json",
            ["extremal", "case2", "--n", "6", "--s", "3", "--format", "json"],
        ),
        (
            "sweep_inconsistent.csv",
            ["sweep", "--n", "5", "--s", "2,7", "--rs", "0.5,1,-1,2.5", "-o", "-"],
        ),
        ("version.txt", ["--version"]),
        ("analyze_near_tie_grid.json", ["analyze", "--format", "json", NEAR_TIE_12]),
        ("oracle_check_secretary_20.txt", ["oracle-check", "--secretary", "20"]),
        ("oracle_check_n25.txt", ["oracle-check", N25]),
        ("simulate_inline_1000.txt", ["simulate", "0,0,0.5,0,0", "--trials", "1000", "--seed", "7"]),
        # case 1 at R_1 = 0: the generator refuses it, so v_n is left empty
        ("sweep_case1_rs_0.csv", ["sweep", "--n", "4", "--s", "1", "--rs", "0", "-o", "-"]),
        ("analyze_off_grid_tail.json", ["analyze", "--format", "json", OFF_GRID_TAIL]),
        # every v_n branch: case 1 and case 3 filled, case 2 filled at R_s = 1
        # and empty at 1.1 and (s = n) at 3, two points skipped with a notice
        (
            "sweep_every_v_n_branch.csv",
            ["sweep", "--n", "6", "--s", "1,2,6", "--rs", "0.5,1,1.1,3", "-o", "-"],
        ),
    ],
)
def test_stdout_matches_golden_file(runner, name, args):
    """The CLI's outputs, byte for byte as frozen; where a NAME.stderr
    file sits beside the golden file, stderr too."""
    res = invoke(runner, *args)
    assert res.exit_code == 0
    assert res.stdout == (GOLDEN / name).read_text()
    stderr = GOLDEN / f"{name}.stderr"
    if stderr.exists():
        assert res.stderr == stderr.read_text()
