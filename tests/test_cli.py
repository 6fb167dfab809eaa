import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from oddsrule import (
    bound_report,
    lower_extremal_case2,
    secretary_sequence,
    threshold,
    validate_probabilities,
    win_probability,
)
from oddsrule.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args, **kwargs):
    return runner.invoke(main, list(args), catch_exceptions=False, **kwargs)


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
                "satisfied": r.satisfied["upper"],
                "equality": r.equality["upper"],
            },
            "lower": {
                "value": r.lower,
                "case": r.lower_case,
                "strict": r.lower_strict,
                "satisfied": r.satisfied["lower"],
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

    def test_unwritable_path_exits_2(self, runner):
        res = runner.invoke(
            main, ["sweep", "--n", "5", "--s", "1", "--rs", "1", "-o",
                   "/nonexistent-dir/out.csv"],
        )
        assert res.exit_code == 2

    def test_stdout_dash(self, runner):
        res = invoke(runner, "sweep", "--n", "5", "--s", "2", "--rs", "1,2", "-o", "-")
        assert res.exit_code == 0
        assert res.output.startswith("n,s,R_s,case,lower,upper,corollary,v_n")


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
        a = runner.invoke(main, args, catch_exceptions=False)
        b = runner.invoke(main, args, catch_exceptions=False)
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


NUMPY_PROBE = """
import sys
import oddsrule
import oddsrule.cli
from click.testing import CliRunner

def run(*args):
    res = CliRunner().invoke(oddsrule.cli.main, list(args), catch_exceptions=False)
    assert res.exit_code == 0, res.output

run("analyze", "--format", "json", "0.5,0.5")
run("sweep", "--n", "6", "--s", "1:3", "--rs", "0.5,1,2", "-o", "-")
print("numpy" in sys.modules)
run("oracle-check", "0.5,0.5")
print("numpy" in sys.modules)
"""


def test_numpy_loaded_only_by_the_numpy_oracles():
    """Importing the package and the CLI, analyze and sweep leave numpy
    unloaded; oracle-check, which enumerates and simulates, loads it."""
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["False", "True"]


GOLDEN = Path(__file__).resolve().parent / "golden"
S_EQUALS_N_20 = ",".join([repr(j / 40) for j in range(1, 20)] + ["0.75"])


@pytest.mark.parametrize(
    "name, args",
    [
        ("oracle_check_secretary_20.json", ["oracle-check", "--format", "json", "--secretary", "20"]),
        ("oracle_check_s_equals_n_20.json", ["oracle-check", "--format", "json", S_EQUALS_N_20]),
        (
            "simulate_secretary_300.json",
            ["simulate", "--format", "json", "--secretary", "300", "--trials", "20000"],
        ),
    ],
)
def test_stdout_matches_golden_file(runner, name, args):
    """The exhaustive and Monte Carlo outputs, byte for byte as frozen."""
    res = invoke(runner, *args)
    assert res.exit_code == 0
    assert res.stdout == (GOLDEN / name).read_text()
