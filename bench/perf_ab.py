#!/usr/bin/env python3
"""Alternating A/B runs of the repository benchmark.

    python3 bench/perf_ab.py BASE_DIR HEAD_DIR [PAIRS]

BASE_DIR and HEAD_DIR are two checkouts of this repository.  For each
workload that BENCHMARK.json (read from HEAD_DIR) gates, the script runs
`sh perfbench/run.sh --workload W --seed 1 --seconds S --trace 0` PAIRS
times (default 10) in each checkout, alternating which side goes first
so a drifting host penalises neither.  It then prints, per end-to-end
metric: both medians with their quartiles, the change of the medians,
how many pairs the head won, and whether the medians differ by more
than the base's interquartile range.  Failed operations are summed per
side.  `./dev perf-ab REV [PAIRS]` wraps this with a worktree of REV.
"""

import json
import os
import statistics
import subprocess
import sys

SEED = 1


def run_one(checkout, workload, seconds):
    cmd = ["sh", "perfbench/run.sh", "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"perf-ab: {workload} failed in {checkout} "
                 f"(exit {out.returncode})")
    return json.loads(lines[-1])


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def report(workload, metrics, runs):
    print(f"== {workload}: {len(runs)} pairs ==")
    for side in ("base", "head"):
        failed = sum(r[side]["failed"] for r in runs)
        attempted = sum(r[side]["attempted"] for r in runs)
        print(f"  {side}: {failed} of {attempted} operations failed")
    print(f"  {'metric':<16} {'base median [q1, q3]':<28} "
          f"{'head median [q1, q3]':<28} {'change':>8} {'wins':>6}  beyond IQR")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        base = [r["base"]["metrics"][name]["value"] for r in runs]
        head = [r["head"]["metrics"][name]["value"] for r in runs]
        b1, b2, b3 = quartiles(base)
        h1, h2, h3 = quartiles(head)
        wins = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
        change = (h2 - b2) / b2 * 100 if b2 else float("nan")
        beyond = "yes" if abs(h2 - b2) > (b3 - b1) else "no"
        print(f"  {name:<16} {b2:>9.3f} [{b1:.3f}, {b3:.3f}]".ljust(47)
              + f" {h2:>9.3f} [{h1:.3f}, {h3:.3f}]".ljust(29)
              + f" {change:>+7.1f}% {wins:>3}/{len(runs):<2}  {beyond}")


def main(argv):
    if len(argv) not in (3, 4):
        sys.exit(__doc__)
    base_dir, head_dir = argv[1], argv[2]
    pairs = int(argv[3]) if len(argv) == 4 else 10
    with open(os.path.join(head_dir, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    sides = {"base": base_dir, "head": head_dir}
    for w in bench["workloads"]:
        runs = []
        for i in range(pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            pair = {side: run_one(sides[side], w["name"], seconds)
                    for side in order}
            runs.append(pair)
            print(f"perf-ab: {w['name']} pair {i + 1}/{pairs}:",
                  json.dumps(pair), file=sys.stderr, flush=True)
        report(w["name"], bench["end_to_end"], runs)


if __name__ == "__main__":
    main(sys.argv)
