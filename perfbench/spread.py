"""Rerun one workload N times and print each metric's spread beside its bound.

    python3 perfbench/spread.py --workload screens-1k --runs 10
    python3 perfbench/spread.py --workload screens-1k --runs 10 --sets 2

Each run is a fresh ``run.py`` process, ``run_seconds`` long as
BENCHMARK.json sets it, with its own seed: set 1 takes seeds 1..N, set 2
seeds N+1..2N, and so on.  For every metric of every set the table shows
the median, the quartiles, the spread (interquartile distance over the
median, as ``statistics.quantiles(values, n=4)`` gives the quartiles)
and the bound from BENCHMARK.json; a metric is steady when its spread
stays under a third of the bound.  ``setup_s`` is judged by its median
only, as its set-up samples are already a median inside each run.  Each
metric's raw (uncalibrated) figure, read from the run's report lines,
is listed too.  With two or more sets, each later set's median is
compared with the first set's: the change, counted positive in the
metric's worse direction, must stay within the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_set(benchmark: dict, workload: str, seeds: range) -> tuple[dict, set] | int:
    """Metric -> values over ``seeds``, and the (failed share, correct)
    pairs seen; or the exit code of a run that failed."""
    values: dict[str, list[float]] = {}
    shares = set()
    for seed in seeds:
        command = [
            *benchmark["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(benchmark["run_seconds"]), "--trace", "0",
        ]
        completed = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, check=False
        )
        if completed.returncode != 0:
            print(completed.stdout + completed.stderr, file=sys.stderr)
            return completed.returncode
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        shares.add((result["failed"] / result["attempted"], result["correct"]))
        print(f"seed {seed}: correct {result['correct']} attempted {result['attempted']} "
              f"failed {result['failed']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        # the report's "name calibrated raw unit" lines carry the raw figure
        for line in completed.stdout.splitlines():
            fields = line.split()
            if len(fields) >= 4 and fields[0] in result["metrics"]:
                values.setdefault(f"{fields[0]} (raw)", []).append(float(fields[2]))
    return values, shares


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {metric["name"]: metric for metric in benchmark["end_to_end"]}
    medians: list[dict[str, float]] = []
    for index in range(args.sets):
        seeds = range(index * args.runs + 1, (index + 1) * args.runs + 1)
        outcome = run_set(benchmark, args.workload, seeds)
        if isinstance(outcome, int):
            return outcome
        values, shares = outcome
        print(f"set {index + 1} (seeds {seeds.start}-{seeds.stop - 1})")
        print(f"{'metric':<38} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        medians.append({})
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            medians[-1][name] = median
            spread = (q3 - q1) / median if median else 0.0
            bound = declared[name]["bound"] if name in declared else None
            verdict = ""
            if bound is not None and name != "setup_s":
                verdict = "steady" if spread < bound / 3 else "NOT STEADY"
            print(f"{name:<38} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} "
                  f"{'' if bound is None else bound:>6} {verdict}")
        print(f"failed share / correct over the runs: {sorted(shares)}", flush=True)
    for index, later in enumerate(medians[1:], start=2):
        print(f"set {index} against set 1: median change, positive = worse")
        for name, metric in declared.items():
            first = medians[0][name]
            change = (later[name] - first) / first
            if metric["better"] == "higher":
                change = -change
            verdict = "within" if change <= metric["bound"] else "WORSE THAN BOUND"
            print(f"{name:<38} {first:>12.6g} {later[name]:>12.6g} {change:>+8.4f} "
                  f"{metric['bound']:>6} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
