"""Is the benchmark steady?  Two sets of runs of the same code, compared.

    python3 perfbench/steady.py                       # 2 sets x 10 runs, every workload
    python3 perfbench/steady.py --workloads query-mix --runs 5 --sets 1

Each run is ``perfbench/run.py`` with its own seed (set ``k`` uses seeds
``base + 1000*k + 1 ..``).  For every workload and end-to-end metric it prints
each set's median and its spread -- the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the median --
against the metric's bound, and the shift of the second set's median from the
first's in the metric's worse direction.  A spread above a third of its bound
is flagged ``wide``; a spread or shift above the bound is flagged ``FAIL``.
It also checks that
every run is correct and that the share of failed operations is the same in
every run.  Exit code 0 when nothing is ``FAIL``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    finished = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if finished.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {finished.returncode}:\n{finished.stderr}")
    return json.loads(finished.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="Compare two sets of benchmark runs.")
    parser.add_argument("--workloads", nargs="*",
                        default=[workload["name"] for workload in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2, choices=(1, 2))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--seed-base", type=int, default=0)
    parser.add_argument("--json", type=Path, help="also write every run's result here")
    args = parser.parse_args(argv)

    metrics = spec["end_to_end"]
    results = {}
    ok = True
    for workload in args.workloads:
        sets = []
        for index in range(args.sets):
            runs = []
            for run in range(args.runs):
                seed = args.seed_base + 1000 * index + run + 1
                began = time.perf_counter()
                runs.append(run_once(workload, seed, args.seconds))
                elapsed = time.perf_counter() - began
                print(f"{workload} set {index + 1} seed {seed}: {elapsed:.1f} s", file=sys.stderr)
            sets.append(runs)
        results[workload] = sets
        shares = {run["failed"] / run["attempted"] for runs in sets for run in runs}
        incorrect = sum(1 for runs in sets for run in runs if not run["correct"])
        print(f"\n{workload}: failed share {sorted(shares)}, incorrect runs {incorrect}")
        if len(shares) != 1 or incorrect:
            ok = False
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            medians, spreads = [], []
            for runs in sets:
                values = [run["metrics"][name]["value"] for run in runs]
                medians.append(statistics.median(values))
                spreads.append(spread(values))
            flags = []
            if any(value > bound for value in spreads):
                flags.append("FAIL spread")
            elif any(value > bound / 3 for value in spreads):
                flags.append("wide")
            line = (f"  {name:18} bound {bound:.2f}  medians "
                    + " ".join(f"{value:.6g}" for value in medians)
                    + "  spreads " + " ".join(f"{value:.3f}" for value in spreads))
            if len(medians) == 2:
                shift = (medians[1] - medians[0]) / medians[0]
                worse = shift if metric["better"] == "lower" else -shift
                line += f"  shift {shift:+.3f}"
                if worse > bound:
                    flags.append("FAIL shift")
            if any(flag.startswith("FAIL") for flag in flags):
                ok = False
            print(line + ("  " + ", ".join(flags) if flags else ""))
    if args.json:
        args.json.write_text(json.dumps(results, indent=1), encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
