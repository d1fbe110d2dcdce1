"""Where does the time go?  Every per-layer metric of every workload.

    python3 perfbench/trace.py                      # all workloads, seed 1
    python3 perfbench/trace.py --workloads generate --seconds 10 --out /tmp/t.json

For each workload this makes the inputs once, then measures the workload
twice in one process: untraced, then traced (``run.py --trace 1`` does the
same traced measurement).  It prints the per-layer metrics, the share of the
traced wall time the layers leave unaccounted, and the tracing overhead: the
traced wall time of one operation against the untraced one.  Everything is
also written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="Run every workload untraced and traced.")
    parser.add_argument("--workloads", nargs="*",
                        default=[workload["name"] for workload in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench_work" / "trace.json")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.run import make_inputs_in_child
    from perfbench.workloads import run

    per_layer = [metric["name"] for metric in spec["per_layer"]]
    report = {}
    for workload in args.workloads:
        work = ROOT / ".perfbench_work" / f"trace-{workload}-s{args.seed}"
        inputs = work / "inputs"
        try:
            make_inputs_in_child(workload, args.seed, inputs)
            plain_tally, plain = run(workload, inputs, work, args.seed, args.seconds, False)
            traced_tally, traced = run(workload, inputs, work, args.seed, args.seconds, True)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        untraced_wall, traced_wall = plain["trace.wall_s"], traced["trace.wall_s"]
        report[workload] = {
            "attempted": plain_tally.attempted + traced_tally.attempted,
            "failed": plain_tally.failed + traced_tally.failed,
            "untraced_wall_s": untraced_wall,
            "traced_wall_s": traced_wall,
            "tracing_overhead_share": (traced_wall - untraced_wall) / untraced_wall,
            "per_layer": {name: traced.get(name, 0.0) for name in per_layer},
        }
        overhead = report[workload]["tracing_overhead_share"]
        print(f"\n{workload}: operation wall {untraced_wall:.4f} s untraced, "
              f"{traced_wall:.4f} s traced (overhead {overhead:+.1%}), "
              f"unaccounted {traced.get('trace.unaccounted_share', 0.0):.1%}, "
              f"failed {report[workload]['failed']} of {report[workload]['attempted']}")
        for name in per_layer:
            if traced.get(name):
                print(f"  {name:48} {traced[name]:.6g}")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1), encoding="utf-8")
    print(f"\nwritten to {args.out}")
    return 0 if all(entry["failed"] == 0 for entry in report.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
