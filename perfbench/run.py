"""End-to-end benchmark of the iTag Algorithm-1 task path.

Runs one workload against the real system path (``ITagSystem.run_project``
-> ``QualityManager`` -> MTurk simulator and payment ledger -> one store
transaction per task) and prints every metric by name and unit, the
attempted and failed count of each operation kind, and, as the last
line, one JSON object::

    python3 perfbench/run.py --workload campaign-10k --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` installs
timing proxies around each layer's public entry points and reports the
per-layer metrics instead.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: name -> unit; the order the report prints them in
END_TO_END = {
    "setup_s": "s",
    "tasks_per_s": "tasks/s",
    "task_p50_ms": "ms",
    "screen_p50_ms": "ms",
    "visit_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
#: printed in the report but not part of the result: task p90 did not
#: hold within a bound over repeated runs, and only screens-1k restarts
#: (README)
REPORTED_ONLY = {"task_p90_ms": "ms", "restart_s": "s"}
PER_LAYER = {
    "strategies.choose_ms": "ms/task",
    "quality.average_ms": "ms/task",
    "quality.scores_per_task": "calls/task",
    "quality.observe_ms": "ms/post",
    "crowd.execute_ms": "ms/task",
    "system.txn_body_ms": "ms/task",
    "store.commit_ms": "ms/task",
    "store.wal.fsync_ms": "ms/fsync",
    "store.wal.bytes_per_task": "bytes/task",
    "store.wal.setup_records": "records",
    "store.checkpoint_ms": "ms/checkpoint",
    "store.checkpoint_bytes": "bytes/checkpoint",
    "store.recovery_ms": "ms/reopen",
    "store.recovery_records": "records/reopen",
    "system.monitor.fig3_ms": "ms",
    "system.monitor.fig5_ms": "ms",
    "system.monitor.fig6_ms": "ms",
    "system.resources.activity_rows": "rows/pass",
    "system.monitor.fig7_ms": "ms",
    "system.monitor.fig8_ms": "ms",
    "system.open_projects_ms": "ms/visit",
    "store.views.capture_ms": "ms/view",
    "store.plancache.hit_ratio": "hits/lookups",
    "trace.overhead_pct": "%",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(run) -> dict[str, tuple[float, float]]:
    """Metric -> (calibrated, raw).  Times are in reference seconds of
    the calibration loop; ``peak_rss_mb`` is not a time and is not
    scaled."""

    def measured(samples: list[tuple[float, int]]) -> list[tuple[float, int]]:
        return [(raw, slot) for raw, slot in samples if slot < run.window_end]

    def median(metric: str, scale: float) -> tuple[float, float]:
        samples = measured(run.timings[metric])
        calibrated = [raw * run.factor(slot) for raw, slot in samples]
        return (
            scale * statistics.median(calibrated),
            scale * statistics.median(raw for raw, _slot in samples),
        )

    batches = [batch for batch in run.batches if batch[0] < run.window_end]
    tasks = sum(batch[1] for batch in batches)
    # batches and the inline checkpoints between them: (raw, slot)
    busy = [(raw, slot) for slot, _n, raw, _m in batches]
    busy += measured(run.timings.get("checkpoint", []))
    latencies = measured(run.task_latencies)
    calibrated = sorted(raw * run.factor(slot) for raw, slot in latencies)
    raws = sorted(raw for raw, _slot in latencies)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": median("setup", 1.0),
        "tasks_per_s": (
            tasks / math.fsum(raw * run.factor(slot) for raw, slot in busy),
            tasks / math.fsum(raw for raw, _slot in busy),
        ),
        "task_p50_ms": (1e3 * statistics.median(calibrated), 1e3 * statistics.median(raws)),
        "task_p90_ms": (
            1e3 * statistics.quantiles(calibrated, n=10)[8],
            1e3 * statistics.quantiles(raws, n=10)[8],
        ),
        "screen_p50_ms": median("screen", 1e3),
        "visit_p50_ms": median("visit", 1e3),
        "peak_rss_mb": (rss, rss),
    }
    # restart probes are reported over the whole run: they are not in
    # the measured window's live time
    if run.restarts:
        metrics["restart_s"] = (
            statistics.median(raw * factor for raw, factor in run.restarts),
            statistics.median(raw for raw, _factor in run.restarts),
        )
    return metrics


def per_layer(run) -> dict[str, float]:
    """Per-layer figures from the traced segments of a ``--trace 1`` run."""
    seconds: dict[str, float] = {}
    calls: dict[str, int] = {}
    amounts: dict[str, float] = {}
    raw_fsync = 0.0
    timed_tasks = counted_tasks = 0
    scores = 0
    for slot, mode, tasks, spent, called, amount in run.layer_segments:
        if mode == "count":
            counted_tasks += tasks
            scores += called.get("quality_of", 0)
            continue
        timed_tasks += tasks
        factor = run.factor(slot)
        for key, value in spent.items():
            seconds[key] = seconds.get(key, 0.0) + value * factor
        for key, value in called.items():
            calls[key] = calls.get(key, 0) + value
        for key, value in amount.items():
            amounts[key] = amounts.get(key, 0.0) + value
        raw_fsync += spent.get("fsync", 0.0)

    def per_task(key: str) -> float:
        return 1e3 * _ratio(seconds.get(key, 0.0), timed_tasks)

    def per_call(key: str) -> float:
        return 1e3 * _ratio(seconds.get(key, 0.0), calls.get(key, 0))

    counters = run.counters
    batch_tasks = sum(batch[1] for batch in run.batches)
    return {
        "strategies.choose_ms": per_task("choose"),
        "quality.average_ms": per_task("average"),
        "quality.scores_per_task": _ratio(scores, counted_tasks),
        "quality.observe_ms": per_call("observe"),
        "crowd.execute_ms": per_task("execute"),
        "system.txn_body_ms": per_task("txn_body"),
        "store.commit_ms": per_task("commit"),
        # fsync waits on the disk, not the CPU: reported raw
        "store.wal.fsync_ms": 1e3 * _ratio(raw_fsync, calls.get("fsync", 0)),
        "store.wal.bytes_per_task": _ratio(counters.get("wal_bytes", 0.0), batch_tasks),
        "store.wal.setup_records": counters["setup_records"],
        "store.checkpoint_ms": per_call("checkpoint"),
        "store.checkpoint_bytes": _ratio(amounts.get("checkpoint", 0.0), calls.get("checkpoint", 0)),
        "store.recovery_ms": 1e3 * _ratio(
            math.fsum(seconds for seconds, _records in run.recoveries), len(run.recoveries)
        ),
        "store.recovery_records": _ratio(
            sum(records for _seconds, records in run.recoveries), len(run.recoveries)
        ),
        "system.monitor.fig3_ms": per_call("fig3"),
        "system.monitor.fig5_ms": per_call("fig5"),
        "system.monitor.fig6_ms": per_call("fig6"),
        "system.resources.activity_rows": _ratio(amounts.get("activity", 0.0), calls.get("activity", 0)),
        "system.monitor.fig7_ms": per_call("fig7"),
        "system.monitor.fig8_ms": per_call("fig8"),
        # one Fig. 7 per visit; open_projects also runs inside it
        "system.open_projects_ms": 1e3 * _ratio(seconds.get("open_projects", 0.0), calls.get("fig7", 0)),
        "store.views.capture_ms": per_call("capture"),
        "store.plancache.hit_ratio": _ratio(counters["plan_hits"], counters["plan_lookups"]),
        "trace.overhead_pct": statistics.median(overhead_pairs(run)),
    }


def overhead_pairs(run) -> list[float]:
    """Tracing overhead in % of a timed task, one figure per timed round
    and the untraced round just before it, so the host's drift over the
    run cancels out of each; rounds are compared by their median task,
    so a full garbage collection landing in one batch does not decide
    the pair."""
    latencies: dict[int, list[float]] = {}
    for raw, slot in run.task_latencies:
        latencies.setdefault(slot, []).append(raw * run.factor(slot))
    rounds = [(slot, mode) for slot, _n, _raw, mode in run.batches]
    return [
        100.0 * (1.0 - statistics.median(latencies[untraced]) / statistics.median(latencies[timed]))
        for (untraced, _), (timed, mode) in zip(rounds, rounds[1:])
        if mode == "time"
    ]


def report(run, trace: bool) -> dict:
    """Print the human-readable report and return the result object."""
    measured = sum(1 for batch in run.batches if batch[0] < run.window_end)
    print(f"workload {run.spec.name}  seed {run.seed}  rounds {run.rounds} "
          f"({measured} measured)  tasks {int(run.counters['window_tasks'])}")
    from calib import REFERENCE_SLICE_S

    slices = run.cal.slices
    print(f"calibration: {len(slices)} slices, median {1e3 * statistics.median(slices):.2f} ms "
          f"(reference {1e3 * REFERENCE_SLICE_S:.2f} ms)")
    if run.ended_early:
        print(f"window ended early: {run.ended_early}")
    print("operation    attempted  failed")
    for kind in run.ops.attempted:
        print(f"{kind:<12} {run.ops.attempted[kind]:>9}  {run.ops.failed[kind]:>6}")
    for failure in run.failures:
        print(f"CHECK FAILED: {failure}")
    if trace:
        metrics = per_layer(run)
        units = PER_LAYER
        for name, value in metrics.items():
            print(f"{name:<32} {value:>14.6g} {units[name]}")
        pairs = ", ".join(f"{value:.1f}" for value in overhead_pairs(run))
        print(f"tracing overhead per (untraced, timed) round pair, %: {pairs}")
    else:
        both = end_to_end(run)
        units = END_TO_END
        print(f"{'metric':<16} {'calibrated':>12} {'raw':>12} unit")
        for name, (calibrated, raw) in both.items():
            unit = units.get(name) or f"{REPORTED_ONLY[name]} (reported only)"
            print(f"{name:<16} {calibrated:>12.6g} {raw:>12.6g} {unit}")
        metrics = {name: both[name][0] for name in END_TO_END}
    return {
        "correct": not run.failures,
        "attempted": sum(run.ops.attempted.values()),
        "failed": sum(run.ops.failed.values()),
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }


def execute(spec, *, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in this process and return its result object."""
    from workloads import Run

    workdir = ROOT / ".perfbench-work" / f"{spec.name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        run = Run(spec, seed=seed, seconds=seconds, trace=trace, workdir=workdir)
        run.execute()
        return report(run, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no iTag sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import SPECS

    if args.workload not in SPECS:
        print(f"perfbench: unknown workload {args.workload!r}; have {sorted(SPECS)}",
              file=sys.stderr)
        return 2
    result = execute(
        SPECS[args.workload], seed=args.seed, seconds=args.seconds, trace=bool(args.trace)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
