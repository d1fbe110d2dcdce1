"""Vita's benchmark: one workload, measured, checked and reported as JSON.

    python3 perfbench/run.py --workload generate --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout of the repository.  It makes the workload's
inputs from ``--seed`` in a child process (``perfbench/inputs.py``), measures
the workload for about ``--seconds`` seconds in this process, checks every
output against the benchmark's own computations, and prints as its last line
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` the run switches on the program's telemetry and the
benchmark's own spans and reports the per-layer ones instead.  Scratch files
live under ``.perfbench_work/`` in the checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
INPUT_TIMEOUT_S = 120


def make_inputs_in_child(workload: str, seed: int, out: Path) -> None:
    """Run ``inputs.py`` in a child process and wait for it."""
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "inputs.py"), "--workload", workload,
         "--seed", str(seed), "--out", str(out)],
        check=True, timeout=INPUT_TIMEOUT_S,
    )


def metrics_of(group: str) -> dict:
    """``{name: {"unit": ..., "better": ...}}`` of one metric group of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric for metric in spec[group]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one workload of Vita's benchmark.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.spec import WORKLOADS
    from perfbench.workloads import run

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    metrics = metrics_of("per_layer" if args.trace else "end_to_end")

    work = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    inputs = work / "inputs"
    try:
        make_inputs_in_child(args.workload, args.seed, inputs)
        tally, values = run(args.workload, inputs, work, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(values.get(name, 0.0)), "unit": metric["unit"]}
            for name, metric in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
