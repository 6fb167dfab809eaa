"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest bench/test_smoke.py -q

It checks that every run prints each metric named in BENCHMARK.json with
its unit, that the correctness checks run and catch a wrong value, and
that the benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name
    meta = json.loads(next(line for line in lines if line.startswith("meta "))[5:])
    assert len(meta["output_digest"]) == 64
    assert meta["src_lines"] > 0


def test_same_seed_same_outputs():
    digests = set()
    for _ in range(2):
        proc = run_bench("analyze-batch", 0)
        meta = next(line for line in proc.stdout.splitlines() if line.startswith("meta "))
        digests.add(json.loads(meta[5:])["output_digest"])
    assert len(digests) == 1


def test_checks_catch_a_wrong_value(monkeypatch):
    p = inputs.family_sequence(np.random.default_rng(0), "uniform", 12)
    counts = workloads.Counts()
    digest = workloads.hashlib.sha256()
    assert not workloads.check_analyze(p, digest, counts).wrong

    real = workloads.dp_optimal_value
    monkeypatch.setattr(workloads, "dp_optimal_value",
                        lambda seq: dataclasses.replace(real(seq), value=real(seq).value + 1e-9))
    assert workloads.check_analyze(p, digest, counts).wrong


def test_timed_outputs_must_match_the_checked_ones():
    pool = [(workloads.ANALYZE, [0.1, 0.5, 0.4, 0.25, 0.2])]
    refs = workloads.check_pool(pool, workloads.hashlib.sha256(), workloads.Counts())
    refs[0].key = refs[0].key[:-1] + (refs[0].key[-1] + 1,)
    loop = workloads.closed_loop(pool, refs, 0.0, None, workloads.Speed("python"))
    assert loop.failed == {0} and loop.wrong == {0}


def test_a_failing_request_counts_once_whatever_the_rounds():
    # lower_extremal_case2 raises for this window width (a known defect)
    pool = [(workloads.EXTREMAL, ("case2", 143, 1, None)),
            (workloads.ANALYZE, [0.1, 0.5, 0.4, 0.25, 0.2])]
    refs = workloads.check_pool(pool, workloads.hashlib.sha256(), workloads.Counts())
    assert refs[0].raised == "RuntimeError" and refs[1].raised is None
    loop = workloads.closed_loop(pool, refs, 0.3, None, workloads.Speed("python"))
    assert loop.rounds > 1
    assert loop.failed == {0} and not loop.wrong
    assert loop.errors == {0: "RuntimeError"}


def test_exact_threshold_agrees_with_fractions():
    def by_fractions(probs):
        total = Fraction(0)
        for l in range(len(probs), 0, -1):
            p = Fraction(probs[l - 1])
            if p == 1:
                return l
            total += p / (1 - p)
            if total >= 1:
                return l
        return 1

    rng = np.random.default_rng(1)
    cases = [inputs.family_sequence(rng, fam, n)
             for fam in inputs.BATCH_FAMILIES for n in (1, 2, 5, 17, 60)]
    cases += [[0.5], [0.0], [1.0, 0.0], [0.5, 0.5]]
    for probs in cases:
        assert inputs.exact_threshold(probs) == by_fractions(probs)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = run_bench("analyze-batch", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
