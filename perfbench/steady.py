#!/usr/bin/env python3
"""Steadiness check: is the benchmark repeatable enough for its bounds?

    python3 perfbench/steady.py --workload point-burst --runs 10 [--first-seed 1]
    python3 perfbench/steady.py --all --runs 10

Runs perfbench/run.py --trace 0 once per seed (first-seed, first-seed + 1,
...) for BENCHMARK.json's run_seconds, then prints, per end-to-end metric,
the median, the quartiles and the spread — (Q3 - Q1) / median, quartiles as
statistics.quantiles(values, n=4) gives them — next to the metric's bound.
A spread above a third of the bound is flagged, and marked apart when it is
above the bound itself (setup_s is reported but, like the acceptance rule,
not held to it). Also flags any run that was not
correct or had failed operations. Exits 1 if anything was flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"], capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"run.py failed on {workload} seed {seed}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(workload, seeds, spec):
    results = []
    for seed in seeds:
        start = time.time()
        results.append(run_once(workload, seed, spec["run_seconds"]))
        values = "  ".join(f"{m['name']}={results[-1]['metrics'][m['name']]['value']:.6g}"
                           for m in spec["end_to_end"])
        print(f"  {workload} seed {seed} ({time.time() - start:.0f} s): {values}",
              file=sys.stderr)
    flagged = False
    print(f"\n{workload}: {len(seeds)} runs, seeds {seeds[0]}..{seeds[-1]}")
    for r, seed in zip(results, seeds):
        if not r["correct"] or r["failed"] > 0:
            flagged = True
            print(f"  seed {seed}: correct={r['correct']} failed={r['failed']}"
                  f" of {r['attempted']}")
    print(f"  {'metric':<22} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6} {'bound/3':>8}")
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        held = m["name"] != "setup_s"
        over = held and spread > m["bound"] / 3
        flagged = flagged or over
        mark = ("  <-- over its bound" if held and spread > m["bound"]
                else "  <-- over a third of its bound" if over else "")
        print(f"  {m['name']:<22} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.4f} {m['bound']:>6.3g} {m['bound'] / 3:>8.4f}{mark}")
    return flagged


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--workload")
    group.add_argument("--all", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.all else [args.workload]
    if not set(workloads) <= set(names):
        parser.error(f"--workload must be one of {names}")
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    flagged = [w for w in workloads if check(w, seeds, spec)]
    if flagged:
        print(f"\nnot steady: {', '.join(flagged)}")
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
