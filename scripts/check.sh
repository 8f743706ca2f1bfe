#!/usr/bin/env bash
# Tier-1 check: the full test suite, every example script, the
# perfbench self-test and an EXP-ST smoke run, so planner/store
# regressions fail fast with the experiment's own claims
# (index paths beat scans, the join planner picks the documented plans,
# warm plan cache beats cold planning, group commit beats per-commit
# fsync, snapshot readers stay untorn, crash recovery matches the
# committed state), plus durability smokes: crash recovery of a WAL
# with a torn tail via the CLI, recovery across a rotated multi-segment
# WAL (with incremental-checkpoint pruning), and the concurrent-session
# driver.
#
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# invariant-lint gate FIRST: AST rule violations (copy/lock/DDL/except/
# API-boundary disciplines) fail in seconds, before the test suite runs
python scripts/lint_gate.py

python -m pytest -x -q
# examples smoke: every examples/*.py script runs end to end and exits 0
# (delicious_campaign.py prints Fig. 5's recent activity)
for example in examples/*.py; do
    echo "example: $example"
    python "$example" > /dev/null
done
# benchmark self-test: reduced untraced and traced runs of both
# perfbench workloads.  The tracer patches strategy, quality-board and
# store entry points by name and the checks read the project runtime,
# so a renamed entry point or a broken tally fails here, not only when
# the benchmark runs.
python3 perfbench/selftest.py
# EXP-ST smoke; store_ops.run() ends with Database.verify(), which
# cross-checks indexes, maintained counters, and plan-cache generations.
# The result JSON is saved so CI can publish it as a bench artifact.
bench_json="${BENCH_JSON:-exp-st-bench.json}"
python -m repro run-experiment EXP-ST --fast --save "$bench_json"

# perf-regression smoke gate: the zero-copy read-path claim subset
# (point query, view-indexed read, warm plan cache, O(1) statistics)
# fails the merge on regression even below functional-test visibility
python scripts/perf_gate.py

# recovery smoke: a durability directory whose WAL ends in a torn
# (crash-truncated) record must recover the committed prefix, repair
# the tail, and verify clean — via the CLI, exit code gates the merge.
fixture_dir="$(mktemp -d)"
trap 'rm -rf "$fixture_dir"' EXIT
python - "$fixture_dir" <<'PY'
import sys
from pathlib import Path
from repro.store import Column, DataType, Database, Schema

state = Path(sys.argv[1]) / "state"
db = Database.open(state, fsync="never")
table = db.create_table(
    "items",
    Schema([Column("id", DataType.INT), Column("v", DataType.TEXT)], primary_key="id"),
)
for i in range(20):
    with db.transaction():
        table.insert({"v": f"v{i}"})
db.checkpoint()
for i in range(5):
    table.insert({"v": f"post-{i}"})
db.close()
# simulate a crash mid-append: a half-written record at the tail of
# the ACTIVE segment (wal.log is a directory of wal-NNNNNN.log files)
active = sorted((state / "wal.log").glob("wal-*.log"))[-1]
with active.open("ab") as handle:
    handle.write(b'00000000 {"lsn": 999, "txn": [["insert", "items"')
print(f"fixture ready: {state}")
PY
python -m repro store recover --dir "$fixture_dir/state" | tee "$fixture_dir/recover.out"
grep -q "discarded torn tail" "$fixture_dir/recover.out"
grep -q "verify: ok" "$fixture_dir/recover.out"

# segment-rotation smoke: a tiny segment budget forces many rotations;
# recovery must stitch the committed state back together from every
# segment, and an incremental checkpoint must prune the covered ones.
python - "$fixture_dir" <<'PY'
import sys
from pathlib import Path
from repro.store import Column, DataType, Database, Schema

state = Path(sys.argv[1]) / "segments"
db = Database.open(state, fsync="never", wal_segment_bytes=512)
table = db.create_table(
    "items",
    Schema([Column("id", DataType.INT), Column("v", DataType.TEXT)], primary_key="id"),
)
for i in range(40):
    with db.transaction():
        table.insert({"v": f"v{i}"})
segments = db.wal.segment_count
db.close()
assert segments > 3, f"expected rotation, got {segments} segment(s)"
print(f"fixture ready: {state} ({segments} segments)")
PY
python -m repro store recover --dir "$fixture_dir/segments" | tee "$fixture_dir/segments.out"
grep -q "replayed 41 committed records" "$fixture_dir/segments.out"
grep -Eq "from [0-9]+ wal segment" "$fixture_dir/segments.out"
grep -q "verify: ok" "$fixture_dir/segments.out"
python -m repro store checkpoint --dir "$fixture_dir/segments" --stats \
    | tee "$fixture_dir/segments-ckpt.out"
grep -Eq "checkpoint written: checkpoint-[0-9]{6}\.manifest\.json" \
    "$fixture_dir/segments-ckpt.out"

# concurrency smoke: 1 writer vs snapshot readers, zero torn reads
python -m repro store smoke --readers 3 --tasks 40

# same-table concurrency smoke: 4 writers on rows of ONE shared table
# (per-row locking), snapshot readers, consistency gate
python -m repro store smoke --readers 2 --tasks 40 --writers 4 --same-table
