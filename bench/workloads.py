"""The four benchmark workloads and the closed loop that times them.

Every workload is a pool of requests built from the seed.  A single
client sends them one at a time (closed loop: the next request starts
when the previous one returns) in rounds over the pool until the run
time is used up.  Before timing, each request is evaluated once more and
checked against independent references (the oracles, an exact-rational
threshold, the library itself for CLI output); every timed output must
then be bit-identical to that first evaluation.

With tracing on, rounds alternate between untraced and traced, so the
tracing overhead is measured on the same requests.  Spans are recorded
by the benchmark around each public library call (and each CLI child
process), never inside the library.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import statistics
import struct
import subprocess
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import inputs
from oddsrule import (
    bound_report,
    corollary_bound,
    dp_optimal_value,
    exhaustive_value,
    lower_bound,
    lower_extremal_case1,
    lower_extremal_case2,
    lower_near_extremal_case3,
    monte_carlo,
    odds_to_prob,
    secretary_sequence,
    threshold,
    threshold_rule_values,
    upper_extremal,
    validate_probabilities,
    win_probability,
)
from oddsrule.oracle import EXHAUSTIVE_MAX_N

clock = time.perf_counter

ORACLE_TOL = 1e-12  # the CLI's oracle-check tolerance
MC_TRIALS = 100_000  # the CLI's default trial count
MC_SEED = 42  # the CLI's default seed
SETUP_REPEATS = 7

# Speed calibration: a kernel is re-timed whenever its last timing is
# CAL_EVERY_S old (see Speed).
CAL_EVERY_S = 0.2

CLI_COMMANDS = ("analyze", "analyze_file", "oracle_check", "sweep")

# Per-layer metrics with their units; every traced run emits all of them
# (0 for a layer the workload does not exercise).
PER_LAYER_UNITS = {
    "core.validate.calls": "count",
    "core.validate.busy_s": "s",
    "core.validate.ns_per_elem": "ns",
    "core.threshold.calls": "count",
    "core.threshold.busy_s": "s",
    "core.threshold.boundary_flags": "count",
    "core.threshold.exact_mismatch": "count",
    "core.win_probability.calls": "count",
    "core.win_probability.busy_s": "s",
    "core.win_probability.window_elems": "count",
    "bounds.bound_report.calls": "count",
    "bounds.bound_report.busy_s": "s",
    "extremal.calls": "count",
    "extremal.busy_s": "s",
    "oracle.dp.calls": "count",
    "oracle.dp.busy_s": "s",
    "oracle.family.calls": "count",
    "oracle.family.busy_s": "s",
    "oracle.exhaustive.calls": "count",
    "oracle.exhaustive.busy_s": "s",
    "oracle.exhaustive.outcomes_per_s": "1/s",
    "oracle.monte_carlo.calls": "count",
    "oracle.monte_carlo.busy_s": "s",
    "oracle.monte_carlo.trials_per_s": "1/s",
    "oracle.mismatch": "count",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    **{
        f"cli.{cmd}.{what}": unit
        for cmd in CLI_COMMANDS
        for what, unit in (("wall_s", "s"), ("cpu_s", "s"), ("max_rss_mib", "MiB"))
    },
    "errors": "count",
    "trace.overhead_pct": "%",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "req_per_s": "1/s",
    "req_p50_ms": "ms",
    "peak_mib": "MiB",
}

EXTREMAL_GENERATORS = {
    "upper": upper_extremal,
    "case1": lambda n, s, x: lower_extremal_case1(n, x),
    "case2": lambda n, s, x: lower_extremal_case2(n, s),
    "case3": lambda n, s, x: lower_near_extremal_case3(n, s, x),
}


class Tracer:
    """Aggregated spans: busy time and call count per span name."""

    def __init__(self):
        self.busy = defaultdict(float)
        self.calls = Counter()

    def __call__(self, name, fn, *args):
        t0 = clock()
        out = fn(*args)
        self.busy[name] += clock() - t0
        self.calls[name] += 1
        return out


def untraced(name, fn, *args):
    return fn(*args)


class Kind(NamedTuple):
    """How to time one kind of request, and how to check it once."""

    execute: Callable
    check: Callable


@dataclass(frozen=True)
class _Pair:
    x: float
    i: int


_KERNEL_TEXT = json.dumps({"p": [i / 7.0 for i in range(300)]})
_KERNEL_RNG = np.random.default_rng(0)
_KERNEL_P = _KERNEL_RNG.random(150)


def python_kernel() -> float:
    """Interpreter-bound work like the library's core and bounds; timed.

    A tight float loop, library-style stdlib code (json, sorting, fsum,
    frozen dataclasses, formatting, fractions) and a small numpy step.
    Each style slows differently on a busy machine; the mix follows the
    analyze and CLI workloads more closely than any one style does.
    """
    t0 = clock()
    acc = []
    x = 0.0
    for i in range(3000):
        x += i * 0.5
        acc.append(x)
    tuple(acc)
    xs = sorted(json.loads(_KERNEL_TEXT)["p"], reverse=True)
    pairs = [_Pair(v, i) for i, v in enumerate(xs)]
    ratios = tuple(p.x / (1.0 + p.i) for p in pairs)
    ",".join(format(v, ".17g") for v in ratios[:100])
    math.fsum(v * v for v in xs) + float(sum(Fraction(i, i + 1) for i in range(1, 30)))
    np.cumsum(_KERNEL_RNG.random(20_000) < 0.5)
    return clock() - t0


def numpy_kernel() -> float:
    """Array work like the Monte Carlo oracle (draw, compare, cumsum) on a
    7 MiB draw, large enough to feel memory-bandwidth contention; timed."""
    t0 = clock()
    hits = _KERNEL_RNG.random((6000, 150)) < _KERNEL_P
    np.cumsum(hits[:, 40:], axis=1)
    hits.any(axis=1)
    return clock() - t0


# Each kernel with its usual duration on the machine the bounds were tuned
# on (2 vCPUs at 2.1 GHz, Python 3.11.7, numpy 2.4.6).
KERNELS = {"python": (python_kernel, 0.001), "numpy": (numpy_kernel, 0.005)}


class Speed:
    """Scales wall times from this machine's current speed to the reference.

    The shared machines this benchmark runs on change speed by up to 1.5x
    over seconds to tens of seconds.  A kernel that does the workload's
    kind of work is timed before and after each request (at most every
    CAL_EVERY_S, so short requests share a timing).  The request's time is
    multiplied by the kernel's reference duration over the mean of the
    two timings, so end-to-end times read as seconds on the reference
    machine whichever phase a run lands in.  The run is pinned to one CPU
    (see run.py), so the kernel times the CPU that does the work,
    children included.  Per-layer times are left raw.
    """

    def __init__(self, kernel: str):
        self.kernel, self.ref_s = KERNELS[kernel]
        self.at = -math.inf
        self.kernel_s = self.ref_s
        self.samples = []

    def now(self) -> float:
        """The kernel's current duration, re-timed when stale."""
        if clock() - self.at >= CAL_EVERY_S:
            self.kernel_s = min(self.kernel() for _ in range(3))
            self.samples.append(self.kernel_s)
            self.at = clock()
        return self.kernel_s

    def time(self, fn, *args):
        """Run fn(*args); return (result or exception, raw s, scaled s)."""
        before = self.now()
        t0 = clock()
        try:
            out = fn(*args)
        except Exception as exc:  # the caller counts it
            out = exc
        elapsed = clock() - t0
        return out, elapsed, elapsed * self.ref_s * 2.0 / (before + self.now())


def _bits(*values) -> bytes:
    """Bit patterns of floats (None as NaN) for the output digest."""
    return struct.pack(f"<{len(values)}d", *(math.nan if v is None else v for v in values))


@dataclass
class Ref:
    """First, untimed evaluation of one request and its check results."""

    key: object = None
    raised: str | None = None
    wrong: bool = False
    mc_miss: bool = False
    elems: int = 0
    window: int = 0
    outcomes: int = 0
    trials: int = 0


@dataclass
class Counts:
    """Facts about the distinct requests of a pool, found while checking."""

    boundary_flags: int = 0
    exact_mismatch: int = 0
    oracle_mismatch: int = 0


@dataclass
class Loop:
    """What a closed loop saw.  Failures are kept per pool index: a request
    fails or not whatever the number of rounds, so the counts depend on
    the seed only, not on how many rounds fit in the run time."""

    executions: int = 0
    failed: set = field(default_factory=set)
    wrong: set = field(default_factory=set)
    errors: dict = field(default_factory=dict)  # pool index -> exception type
    untraced: defaultdict = field(default_factory=lambda: defaultdict(list))
    traced: defaultdict = field(default_factory=lambda: defaultdict(list))
    unscaled: defaultdict = field(default_factory=lambda: defaultdict(list))
    rounds: int = 0
    traced_rounds: int = 0


# ---------------------------------------------------------------- requests


def analyze(p, call):
    """validate -> threshold -> win_probability -> bound_report."""
    seq = call("core.validate", validate_probabilities, p)
    t = call("core.threshold", threshold, seq)
    w = call("core.win_probability", win_probability, seq, t)
    r = call("bounds.bound_report", bound_report, seq)
    return (t.s, t.R_s, w.value, w.product_form, r.v_n, r.upper, r.lower,
            r.corollary, r.e_bound, r.allaart_islas, r.lower_case)


def check_analyze(p, digest: hashlib.sha256, counts: Counts) -> Ref:
    key = analyze(p, untraced)
    s, v = key[0], key[2]
    seq = validate_probabilities(p)
    family = threshold_rule_values(seq)
    wrong = (
        abs(dp_optimal_value(seq).value - v) > ORACLE_TOL
        or abs(max(family) - v) > ORACLE_TOL
        or key[4] != v
    )
    counts.boundary_flags += threshold(seq).boundary_flag
    counts.exact_mismatch += inputs.exact_threshold(p) != s
    digest.update(struct.pack("<qq", s, key[10]) + _bits(*key[1:10]))
    return Ref(key=key, wrong=wrong, elems=len(p), window=len(p) - s + 1)


def extremal(req, call):
    family, n, s, x = req
    cfg = call("extremal", EXTREMAL_GENERATORS[family], n, s, x)
    return (cfg.seq.p, cfg.target_bound)


def check_extremal(req, digest: hashlib.sha256, counts: Counts) -> Ref:
    key = extremal(req, untraced)
    p, target = key
    seq = validate_probabilities(p)
    report = bound_report(seq)
    wrong = threshold(seq).s != req[2]
    if req[0] == "case3":
        wrong |= not report.v_n > target
    else:
        wrong |= abs(report.v_n - target) > ORACLE_TOL
    digest.update(_bits(target, *p))
    return Ref(key=key, wrong=wrong)


def oracle_check(p, call):
    """The calls of the ``oracle-check`` command, in its order."""
    seq = call("core.validate", validate_probabilities, p)
    t = call("core.threshold", threshold, seq)
    v = call("core.win_probability", win_probability, seq, t).value
    dp = call("oracle.dp", dp_optimal_value, seq).value
    family = call("oracle.family", threshold_rule_values, seq)
    ex = None
    if seq.n <= EXHAUSTIVE_MAX_N:
        ex = call("oracle.exhaustive", exhaustive_value, seq, t.s)
    sim = call("oracle.monte_carlo", monte_carlo, seq, t.s, MC_TRIALS, MC_SEED)
    return (t.s, v, dp, family[t.s - 1], max(family), ex, sim.wins)


def check_oracle(p, digest: hashlib.sha256, counts: Counts) -> Ref:
    key = oracle_check(p, untraced)
    s, v, dp, at_s, best, ex, wins = key
    wrong = (
        abs(dp - v) > ORACLE_TOL
        or abs(best - v) > ORACLE_TOL
        or at_s < best - ORACLE_TOL
        or (ex is not None and abs(ex - v) > ORACLE_TOL)
    )
    estimate = wins / MC_TRIALS
    se = math.sqrt(estimate * (1.0 - estimate) / MC_TRIALS)
    mc_miss = abs(estimate - v) > 4.0 * se if se > 0 else estimate != v
    counts.oracle_mismatch += wrong or mc_miss
    counts.exact_mismatch += inputs.exact_threshold(p) != s
    digest.update(struct.pack("<qq", s, wins) + _bits(v, dp, at_s, best, ex))
    n = len(p)
    return Ref(key=key, wrong=wrong, mc_miss=mc_miss, elems=n, window=n - s + 1,
               outcomes=(1 << n) if ex is not None else 0, trials=MC_TRIALS)


ANALYZE = Kind(analyze, check_analyze)
EXTREMAL = Kind(extremal, check_extremal)
ORACLE = Kind(oracle_check, check_oracle)


# ---------------------------------------------------------------- the loop


def check_pool(pool, digest, counts) -> list[Ref]:
    refs = []
    for kind, req in pool:
        try:
            refs.append(kind.check(req, digest, counts))
        except Exception as exc:  # the timed loop counts it as a failure
            digest.update(type(exc).__name__.encode())
            refs.append(Ref(raised=type(exc).__name__))
    return refs


def closed_loop(pool, refs, seconds: float, tracer: Tracer | None, speed: Speed) -> Loop:
    """Rounds over the pool, one request at a time, for ``seconds``.

    A round is always completed, so every request runs equally often.
    With a tracer, rounds alternate untraced / traced and the loop stops
    only after a traced round.
    """
    loop = Loop()
    traced_round = False
    start = clock()
    while True:
        call = tracer if traced_round else untraced
        latencies = loop.traced if traced_round else loop.untraced
        for i, ((kind, req), ref) in enumerate(zip(pool, refs)):
            loop.executions += 1
            # a request that raises is timed until it raises, so a failure
            # does not change the mix of timed work
            key, elapsed, scaled = speed.time(kind.execute, req, call)
            latencies[i].append(scaled)
            if not traced_round:
                loop.unscaled[i].append(elapsed)
            if isinstance(key, Exception):
                loop.errors[i] = type(key).__name__
                loop.failed.add(i)
            elif ref.mc_miss:
                loop.failed.add(i)
            elif key != ref.key or ref.wrong:
                loop.failed.add(i)
                loop.wrong.add(i)
        loop.rounds += 1
        loop.traced_rounds += traced_round
        if clock() - start >= seconds and (tracer is None or traced_round):
            return loop
        traced_round = tracer is not None and not traced_round


def request_medians(latencies) -> list[float]:
    """Each request's median latency over the rounds.

    The machine's background load comes in bursts that slow whole rounds;
    a per-request median drops them, where a mean over all samples would
    not.  Throughput is then requests / sum of these medians.
    """
    return [statistics.median(samples) for samples in latencies.values()]


def traced_peak_mib(pool) -> float:
    """Largest allocation growth over single requests, seen by tracemalloc.

    tracemalloc slows pure-Python code about tenfold, so this runs
    outside the timed loop and only on the requests named by the workload.
    """
    gc.collect()
    tracemalloc.start()
    peak = 0
    try:
        for kind, req in pool:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                kind.execute(req, untraced)
            except Exception:  # already counted by the timed loop
                pass
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return peak / 2**20


# ---------------------------------------------------------------- child processes


@dataclass
class Child:
    code: int
    stdout: bytes
    wall_s: float
    cpu_s: float
    max_rss_mib: float


# Runs one child per request line and answers with its exit code, wall
# time and own rusage.
_LAUNCHER = r"""
import json, os, subprocess, sys, time
for line in sys.stdin:
    argv, cwd, env, out_path, err_path = json.loads(line)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps([proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss]), flush=True)
"""


class Launcher:
    """Starts the benchmark's child processes, one at a time, from a small
    separate process.

    On Linux a child's max RSS starts at the peak RSS of the process that
    spawned it, and the benchmark grows to hundreds of MiB while checking
    outputs.  A launcher that imports nothing keeps each child's max RSS
    its own.  Children get ``PYTHONPATH=src`` and the CLI's default trials.
    """

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.out_path = workdir / "stdout"
        self.err_path = workdir / "stderr"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.pop("ODDSRULE_TRIALS", None)
        self.proc = subprocess.Popen([sys.executable, "-c", _LAUNCHER], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def run(self, argv) -> Child:
        request = [argv, str(self.root), self.env, str(self.out_path), str(self.err_path)]
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"the launcher exited with {self.proc.wait()}")
        code, wall, cpu, max_rss_kib = json.loads(reply)
        return Child(code, self.out_path.read_bytes(), wall, cpu, max_rss_kib / 1024.0)

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def child_medians(argv, launcher: Launcher, speed: Speed) -> tuple[float, float]:
    """Median raw and scaled wall times of SETUP_REPEATS runs of one child."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        child, wall, wall_scaled = speed.time(launcher.run, argv)
        if isinstance(child, Exception):
            raise child
        if child.code != 0:
            raise RuntimeError(f"{argv} exited with {child.code}: {launcher.err_path.read_text()}")
        raw.append(wall)
        scaled.append(wall_scaled)
    return statistics.median(raw), statistics.median(scaled)


# ---------------------------------------------------------------- cli-cold


@dataclass
class Command:
    """One CLI invocation, run as a fresh process each time it is sent."""

    name: str
    argv: list
    launcher: Launcher
    expect: Callable
    samples: list = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)


class ExitStatus(Exception):
    """A CLI child exited with a non-zero code: a failure, not a wrong output."""


def cli_command(cmd: Command, call):
    child = call(f"cli.{cmd.name}", cmd.launcher.run, cmd.argv)
    cmd.samples.append(child)
    if child.code != 0:
        raise ExitStatus(f"{cmd.name} exited with {child.code}")
    digest = hashlib.sha256(child.stdout).digest()
    if digest not in cmd.verdicts:
        try:
            cmd.verdicts[digest] = cmd.expect(child.stdout)
        except (ValueError, KeyError, IndexError, TypeError):  # unparsable output
            cmd.verdicts[digest] = False
    return (digest, cmd.verdicts[digest])


def check_cli(cmd: Command, digest: hashlib.sha256, counts: Counts) -> Ref:
    try:
        key = cli_command(cmd, untraced)
    finally:
        cmd.samples.clear()  # the first, cache-filling run is not a sample
    digest.update(key[0])
    return Ref(key=key, wrong=not key[1])


CLI = Kind(cli_command, check_cli)


def _expect_analysis(p):
    seq = validate_probabilities(p)
    t = threshold(seq)
    r = bound_report(seq)

    def ok(out: bytes) -> bool:
        doc = json.loads(out)
        return (
            doc["n"] == len(p)
            and doc["s"] == t.s
            and float(doc["R_s"]) == t.R_s
            and float(doc["v_n"]) == r.v_n
            and float(doc["bounds"]["upper"]["value"]) == r.upper
            and float(doc["bounds"]["lower"]["value"]) == r.lower
            and doc["bounds"]["lower"]["case"] == r.lower_case
        )

    return ok


def _expect_oracle_check(n: int):
    seq = secretary_sequence(n)
    t = threshold(seq)
    v = win_probability(seq, t).value
    ex = exhaustive_value(seq, t.s)
    wins = monte_carlo(seq, t.s, MC_TRIALS, MC_SEED).wins

    def ok(out: bytes) -> bool:
        doc = json.loads(out)
        return (doc["agree"] is True and doc["s"] == t.s
                and float(doc["values"]["formula"]) == v
                and float(doc["values"]["exhaustive"]) == ex
                and doc["monte_carlo"]["wins"] == wins)

    return ok


def _expect_sweep(n: int, s_values, rs_values):
    rows = []
    for s in s_values:
        for rs in rs_values:
            if rs < 1.0 and s > 1:
                continue
            low = lower_bound(n, s, rs)
            rows.append((n, s, rs, low.case, low.value, odds_to_prob(rs), corollary_bound(n, s)))

    def ok(out: bytes) -> bool:
        lines = out.decode().splitlines()
        if lines[0] != "n,s,R_s,case,lower,upper,corollary,v_n" or len(lines) != len(rows) + 1:
            return False
        for line, want in zip(lines[1:], rows):
            f = line.split(",")
            got = (int(f[0]), int(f[1]), float(f[2]), int(f[3]),
                   float(f[4]), float(f[5]), float(f[6]))
            if got != want:
                return False
        return True

    return ok


def cli_pool(rng, launcher: Launcher, workdir: Path, tiny: bool):
    """A short inline analyze, a 10^5-entry file, an oracle-check at
    n = 20 and a small sweep: one request each."""
    py = [sys.executable, "-m", "oddsrule.cli"]
    short = inputs.family_sequence(rng, "uniform", int(rng.integers(5, 13)))
    big = inputs.large_sequence(rng, "beta", 1000 if tiny else 100_000)
    path = workdir / "probs.json"
    path.write_text(json.dumps({"p": big}), encoding="utf-8")
    n = int(rng.integers(8, 17))
    s_values = list(range(1, n))
    rs_values = [round(0.2 + 0.7 * rng.random(), 3), 1.0, round(1.0 + 3.0 * rng.random(), 3)]
    secretary_n = 8 if tiny else 20
    commands = {
        "analyze": py + ["analyze", "--format", "json", ",".join(map(repr, short))],
        "analyze_file": py + ["analyze", "--format", "json", "--file", str(path)],
        "oracle_check": py + ["oracle-check", "--format", "json", "--secretary", str(secretary_n)],
        "sweep": py + ["sweep", "--n", str(n), "--s", f"1:{n - 1}",
                       "--rs", ",".join(map(repr, rs_values)), "-o", "-"],
    }
    expect = {
        "analyze": _expect_analysis(short),
        "analyze_file": _expect_analysis(big),
        "oracle_check": _expect_oracle_check(secretary_n),
        "sweep": _expect_sweep(n, s_values, rs_values),
    }
    return [(CLI, Command(name, argv, launcher, expect[name])) for name, argv in commands.items()]


# ---------------------------------------------------------------- pools


def batch_pool(rng, tiny: bool):
    """Short sequences of every family, plus about 10% extremal calls.

    Returns the shuffled pool and the peak-memory requests: the longest
    request of each family, since the working set grows with length.
    """
    per_family = 30 if tiny else 300
    per_extremal = 5 if tiny else 50
    hi = 64 if tiny else 256
    pool, peak = [], []
    for family in inputs.BATCH_FAMILIES:
        lengths = inputs.stratified_log_lengths(rng, per_family, 1, hi)
        pool += [(ANALYZE, inputs.family_sequence(rng, family, n)) for n in lengths]
        peak.append(pool[-1])
    for family in inputs.EXTREMAL_FAMILIES:
        lengths = inputs.stratified_log_lengths(rng, per_extremal, 1, hi)
        pool += [(EXTREMAL, inputs.extremal_request(rng, family, n)) for n in lengths]
        peak.append(pool[-1])
    return [pool[i] for i in rng.permutation(len(pool))], peak


def large_pool(rng, tiny: bool):
    """One n ~ 10^5 sequence per shape.

    The peak-memory request is the near-tie one: its window is the whole
    sequence, the largest working set of the five.
    """
    n = 2000 if tiny else 100_000
    pool = [(ANALYZE, inputs.large_sequence(rng, shape, n)) for shape in inputs.LARGE_SHAPES]
    return pool, [pool[inputs.LARGE_SHAPES.index("near_tie")]]


def oracle_pool(rng, tiny: bool):
    """Three sequences per length 4..20, the families taking turns, plus
    two long sequences (no exhaustive check for those).

    The peak-memory requests are the widest-window n = 20 sequence (the
    exhaustive matrices grow with the window) and the longest one (the
    Monte Carlo chunk grows with n).
    """
    small = range(4, 9) if tiny else range(4, 21)
    big = ((60, "secretary"), (30, "small_p")) if tiny else ((1000, "secretary"), (300, "small_p"))
    fams = inputs.ORACLE_FAMILIES
    pool = [(ORACLE, inputs.oracle_sequence(rng, fams[(3 * i + j) % len(fams)], n))
            for i, n in enumerate(small) for j in range(3)]
    pool += [(ORACLE, inputs.oracle_sequence(rng, family, n)) for n, family in big]
    widest = max(pool[:-len(big)], key=lambda item: (len(item[1]), inputs.window(item[1])))
    peak = [widest, pool[-len(big)]]
    return [pool[i] for i in rng.permutation(len(pool))], peak


# ---------------------------------------------------------------- runs


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    info: dict


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool,
        root: Path, workdir: Path) -> Result:
    launcher = Launcher(root, workdir)  # before this process grows
    try:
        return _run(workload, seed, seconds, trace, tiny, launcher, workdir)
    finally:
        launcher.close()


def _run(workload, seed, seconds, trace, tiny, launcher, workdir) -> Result:
    rng = np.random.default_rng(seed)
    speed = Speed("numpy" if workload == "oracle-check" else "python")
    target = "import oddsrule.cli" if workload == "cli-cold" else "import oddsrule"
    import_s, setup_s = child_medians([sys.executable, "-c", target], launcher, speed)

    if workload == "cli-cold":
        pool, peak_pool = cli_pool(rng, launcher, workdir, tiny), None
    else:
        build = {"analyze-batch": batch_pool, "analyze-large": large_pool,
                 "oracle-check": oracle_pool}[workload]
        pool, peak_pool = build(rng, tiny)

    digest = hashlib.sha256()
    counts = Counts()
    refs = check_pool(pool, digest, counts)
    tracer = Tracer() if trace else None
    loop = closed_loop(pool, refs, seconds, tracer, speed)

    if peak_pool is None:  # cli-cold: each child's own max RSS
        peak_mib = max(statistics.median(c.max_rss_mib for c in cmd.samples)
                       for _, cmd in pool)
    else:
        peak_mib = traced_peak_mib(peak_pool)

    info = {
        "output_digest": digest.hexdigest(),
        "calibration_ms": statistics.median(speed.samples) * 1e3,
        "unscaled_req_per_s": len(loop.unscaled) / sum(request_medians(loop.unscaled)),
        "unscaled_req_p50_ms": statistics.median(request_medians(loop.unscaled)) * 1e3,
        "pool_requests": len(pool),
        "rounds": loop.rounds,
        "timed_executions": loop.executions,
        "latency_samples": sum(map(len, loop.untraced.values())),
        "errors_by_type": dict(Counter(loop.errors.values())),
        "wrong": len(loop.wrong),
        "boundary_flags": counts.boundary_flags,
        "exact_mismatch": counts.exact_mismatch,
        "oracle_mismatch": counts.oracle_mismatch,
    }
    if trace:
        metrics = per_layer(pool, refs, loop, tracer, counts, import_s, launcher, speed)
    else:
        typical = request_medians(loop.untraced)
        metrics = {
            "setup_s": setup_s,
            "req_per_s": len(typical) / sum(typical),
            "req_p50_ms": statistics.median(typical) * 1e3,
            "peak_mib": peak_mib,
        }
    # attempted / failed count distinct requests: each one is checked, then
    # timed in every round, and a failing request fails in every round
    return Result(not loop.wrong, len(pool), len(loop.failed), metrics, info)


def per_layer(pool, refs, loop, tracer, counts, import_s, launcher, speed) -> dict:
    m = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    for span in ("core.validate", "core.threshold", "core.win_probability",
                 "bounds.bound_report", "extremal", "oracle.dp", "oracle.family",
                 "oracle.exhaustive", "oracle.monte_carlo"):
        m[f"{span}.calls"] = tracer.calls[span]
        m[f"{span}.busy_s"] = tracer.busy[span]
    rounds = loop.traced_rounds
    ok = [r for r in refs if r.raised is None]
    elems = rounds * sum(r.elems for r in ok)
    if elems:
        m["core.validate.ns_per_elem"] = tracer.busy["core.validate"] / elems * 1e9
    m["core.win_probability.window_elems"] = rounds * sum(r.window for r in ok)
    if tracer.busy["oracle.exhaustive"]:
        m["oracle.exhaustive.outcomes_per_s"] = (
            rounds * sum(r.outcomes for r in ok) / tracer.busy["oracle.exhaustive"])
    if tracer.busy["oracle.monte_carlo"]:
        m["oracle.monte_carlo.trials_per_s"] = (
            rounds * sum(r.trials for r in ok) / tracer.busy["oracle.monte_carlo"])
    m["core.threshold.boundary_flags"] = counts.boundary_flags
    m["core.threshold.exact_mismatch"] = counts.exact_mismatch
    m["oracle.mismatch"] = counts.oracle_mismatch
    m["errors"] = len(loop.errors)
    if pool[0][0] is CLI:
        m["cli.import_s"] = import_s
        m["cli.interpreter_s"] = child_medians([sys.executable, "-c", "pass"], launcher, speed)[0]
        for _, cmd in pool:
            name, children = cmd.name, cmd.samples
            m[f"cli.{name}.wall_s"] = statistics.median(c.wall_s for c in children)
            m[f"cli.{name}.cpu_s"] = statistics.median(c.cpu_s for c in children)
            m[f"cli.{name}.max_rss_mib"] = statistics.median(c.max_rss_mib for c in children)
    untraced_s = sum(request_medians(loop.untraced))
    m["trace.overhead_pct"] = (sum(request_medians(loop.traced)) / untraced_s - 1.0) * 100.0
    return m
