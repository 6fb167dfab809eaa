"""Benchmark of the oddsrule package, run from a source checkout.

    python3 bench/run.py --workload analyze-batch --seed 1 --seconds 20 --trace 0

Workloads: analyze-batch, analyze-large, oracle-check, cli-cold (see
bench/README.md for what each one stresses and why).  With ``--trace 0``
the run reports the end-to-end metrics, with ``--trace 1`` the per-layer
metrics and the tracing overhead.  The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give each metric with its unit and the
run's metadata (versions, source size, output digest).

Only the standard library and numpy are used.  The package is imported
from ``src/`` of the checkout, not from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("analyze-batch", "analyze-large", "oracle-check", "cli-cold")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every input (for the smoke test only)")
    return ap.parse_args(argv)


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, check=False)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def run_metadata(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": metadata.version("click"),
        "nproc": os.cpu_count(),
        "src_lines": src_lines(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "oddsrule" / "__init__.py").is_file():
        print(f"error: no oddsrule sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if hasattr(os, "sched_setaffinity"):
        # one CPU for the run and every child it starts: the speed
        # calibration then measures the CPU that does the work
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    meta = run_metadata(args)
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR))
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                               args.tiny, ROOT, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    meta.update(result.info)

    units = workloads.PER_LAYER_UNITS if args.trace else workloads.END_TO_END_UNITS
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, value in result.metrics.items():
        print(f"{name:36s} {value:>18.6g} {units[name]}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
