#!/usr/bin/env python
"""Perf-regression smoke gate: the EXP-ST read/commit-path claim subset.

Runs a reduced EXP-ST (small row count) and fails — exit code 1 — if
any of the gated claims regressed:

* hash-index point-query throughput (the >12k ops/sec floor, 5x the
  pre-zero-copy baseline),
* snapshot-view indexed reads within 2x of the live table (and planned
  as indexed access paths, not full scans),
* warm plan cache beating cold planning,
* maintained O(1) statistics (n_distinct counter, histogram accuracy),
* the 3-way-join plan shape: the order search joins the selective
  relations first and hash-joins the big unindexed table last, with
  the brute-force row count (so multi-way join ordering can never
  silently fall back to the caller-written order),
* cross-transaction group commit: 4 disjoint writers outpacing a
  single writer at fsync=always, and batching their commits under
  shared fsyncs (so per-table locking can never silently fall back to
  serialized commits),
* per-row locking: 4 writers on disjoint rows of the *same* table
  sustaining >1.5x the single-writer commit rate at fsync=always (so
  row-granular admission can never silently degrade back to table-level
  serialization),
* incremental checkpoints: a generation touching 1 of 64 tables
  beating one with all 64 dirty by >5x (so checkpoint cost keeps
  tracking the dirty fraction instead of database size),
* chunked sorted-index inserts beating the flat-list seed path by >3x
  with read equivalence (so ordered-index maintenance can never
  silently fall back to O(n) memmove inserts).

Called from scripts/check.sh (which CI runs), so a performance
regression fails the merge even when it is not large enough to break a
functional test.

Usage: PYTHONPATH=src python scripts/perf_gate.py [rows]
"""

from __future__ import annotations

import sys

from repro.experiments import store_ops

#: Substrings identifying the gated claim subset in EXP-ST.
GATED_CLAIMS = (
    "zero-copy hash point queries",
    "snapshot-view indexed point queries",
    "snapshot views plan indexed access paths",
    "warm plan cache beats cold planning",
    "n_distinct is O(1)",
    "sampled histogram matches exact range selectivity",
    "the searched 3-way plan joins the rare categories first",
    "cross-transaction group commit scales",
    "cross-transaction group commit batches concurrent commits",
    "per-row locking scales same-table writers",
    "incremental checkpoint at 1/64 dirty tables",
    "chunked sorted-index inserts beat the flat-list seed path",
)


def main() -> int:
    rows = int(sys.argv[1]) if len(sys.argv) > 1 else 3000
    result = store_ops.run(rows=rows)
    gated = [
        claim
        for claim in result.claims
        if any(fragment in claim.claim for fragment in GATED_CLAIMS)
    ]
    if len(gated) != len(GATED_CLAIMS):
        print(
            f"perf gate: expected {len(GATED_CLAIMS)} gated claims, "
            f"found {len(gated)} — gate out of sync with EXP-ST"
        )
        return 1
    for claim in gated:
        print(claim)
    failed = [claim for claim in gated if not claim.passed]
    if failed:
        print(f"perf gate: {len(failed)} claim(s) REGRESSED")
        return 1
    print(f"perf gate: all {len(gated)} gated claims hold (rows={rows})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
