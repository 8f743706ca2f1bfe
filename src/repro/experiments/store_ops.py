"""EXP-ST — store substrate throughput (the Fig. 2 MySQL replacement).

Micro-benchmarks of the embedded store under campaign-shaped workloads:
bulk inserts, indexed point/range queries (live table *and* snapshot
view — the zero-copy read pipeline and copy-on-write index snapshots),
cost-based multi-predicate queries (vs. a full-scan twin table),
streaming top-k (vs. a full-sort twin), a planned index nested-loop
join, multi-way join ordering (the DP order search's plan shape and
rows on a skewed 3-way join), join plan-cache reuse, warm plan-cache
execution
(vs. planning every query from scratch), maintained planner statistics
(O(1) ``n_distinct`` vs. the O(n) walk it replaced, sampled-histogram
selectivity probes), transactional updates, plus the durable write
path: commit throughput per group-commit fsync policy, concurrent
snapshot readers vs. a transactional writer, crash-recovery time
vs. WAL length, multi-writer commit scaling at ``fsync=always``
(disjoint per-table lock footprints *and* disjoint rows of one shared
table — per-row locking — under cross-transaction group commit), lock
escalation for bulk writers,
a deadlock storm (adverse lock orders resolved by abort-and-retry),
incremental checkpoints at a ~1.5% dirty fraction vs. all tables
dirty, WAL pruning by whole-segment deletes (flat in the live-log
length), and chunked sorted-index inserts vs. the flat-list seed
path.  There is no paper number to match; the claims are
that the substrate sustains campaign workloads comfortably (>10k
simple ops/sec, >12k indexed point queries/sec — 5x the copy-per-row
read path this replaced), that snapshot views keep index speed (within
2x of the live table, planning the same access paths), that the
cost-based planner's index and plan-cache paths measurably beat
their scan/sort/replan baselines, that the join planner picks the
documented plans, that maintained
statistics are O(1)-cheap and accurate, that group commit with
``interval`` fsync beats per-commit fsync, that cross-transaction
group commit lets 4 disjoint writers outpace a single writer at
``fsync=always`` while batching their commits under shared fsyncs —
including 4 writers on disjoint rows of the *same* table, which per-row
locking admits concurrently — that a bulk writer's row locks escalate
to one table lock, that concurrent snapshot readers return
consistent (untorn) results under writer load, that an incremental
checkpoint touching 1 of 64 tables beats a generation with all 64
dirty by >5x, that WAL pruning stays flat in the live-log length, and
that chunked sorted-index inserts beat the flat-list seed path by >3x
with identical reads.
"""

from __future__ import annotations

import random
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path

from ..store import (
    And,
    Between,
    Column,
    Database,
    DataType,
    DeadlockError,
    Eq,
    Query,
    Schema,
)
from .results import ExperimentResult

__all__ = ["run", "build_rows"]


def build_rows(count: int) -> list[dict]:
    return [
        {
            "name": f"resource-{index:05d}",
            "kind": ("url", "image", "video")[index % 3],
            "n_posts": index % 50,
            "quality": (index % 100) / 100.0,
        }
        for index in range(count)
    ]


def _schema() -> Schema:
    return Schema(
        [
            Column("id", DataType.INT),
            Column("name", DataType.TEXT, unique=True),
            Column("kind", DataType.TEXT),
            Column("n_posts", DataType.INT),
            Column("quality", DataType.FLOAT),
        ],
        primary_key="id",
    )


def _counter_schema() -> Schema:
    """Two-column counter table for the concurrency benchmarks."""
    return Schema(
        [Column("id", DataType.INT), Column("n", DataType.INT)],
        primary_key="id",
    )


def _bare_schema() -> Schema:
    """Index-free twin of ``_schema`` (no UNIQUE, so no implicit index):
    the full-scan/full-sort baseline the planner cases compare against."""
    return Schema(
        [
            Column("id", DataType.INT),
            Column("name", DataType.TEXT),
            Column("kind", DataType.TEXT),
            Column("n_posts", DataType.INT),
            Column("quality", DataType.FLOAT),
        ],
        primary_key="id",
    )


def run(*, rows: int = 5000) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="EXP-ST",
        title="Store substrate throughput",
        params={"rows": rows},
        header=["operation", "ops", "seconds", "ops/sec"],
    )
    database = Database("bench")
    table = database.create_table("resources", _schema())
    table.create_index("kind", kind="hash")
    table.create_index("quality", kind="sorted")
    payload = build_rows(rows)

    def timed(name: str, ops: int, fn, *, repeats: int = 1) -> float:
        """Time ``fn``; with ``repeats`` > 1 keep the best run, which
        filters scheduler jitter out of close A/B comparisons."""
        best = None
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            elapsed = max(time.perf_counter() - start, 1e-9)
            best = elapsed if best is None else min(best, elapsed)
        result.add_row(name, ops, f"{best:.4f}", f"{ops / best:,.0f}")
        return ops / best

    insert_rate = timed(
        "insert (2 indexes)", rows, lambda: [table.insert(row) for row in payload]
    )
    point_queries = 1000
    point_rate = timed(
        "point query (hash index)",
        point_queries,
        lambda: [
            Query(table).where(Eq("kind", "url")).limit(5).all()
            for _ in range(point_queries)
        ],
        repeats=3,
    )
    # snapshot view: O(1) capture, then the same indexed point query
    # against the frozen copy-on-write index snapshots
    view = table.read_view()
    view_rate = timed(
        "point query (snapshot view)",
        point_queries,
        lambda: [
            Query(view).where(Eq("kind", "url")).limit(5).all()
            for _ in range(point_queries)
        ],
        repeats=3,
    )
    view_explain = Query(view).where(Eq("kind", "url")).explain()
    timed(
        "range query (sorted index)",
        500,
        lambda: [
            Query(table).where(Between("quality", 0.40, 0.60)).count()
            for _ in range(500)
        ],
    )

    # cost-based planner vs. the index-free twin table -----------------
    bare = database.create_table("resources_scan", _bare_schema())
    for row in payload:
        bare.insert(row)
    selective = And(Eq("kind", "url"), Between("quality", 0.40, 0.45))
    and_queries = 300
    indexed_rate = timed(
        "And count (index intersect)",
        and_queries,
        lambda: [
            Query(table).where(selective).count() for _ in range(and_queries)
        ],
    )
    scan_rate = timed(
        "And count (full-scan baseline)",
        and_queries,
        lambda: [
            Query(bare).where(selective).count() for _ in range(and_queries)
        ],
    )

    def top10(target) -> list[list[dict]]:
        return [
            Query(target).order_by("quality", descending=True).limit(10).all()
            for _ in range(and_queries)
        ]

    topk_rate = timed("top-10 (streaming top-k)", and_queries, lambda: top10(table))
    sort_rate = timed("top-10 (full-sort baseline)", and_queries, lambda: top10(bare))

    # planned join: index nested-loop into posts -------------------------
    posts = database.create_table(
        "posts",
        Schema(
            [
                Column("id", DataType.INT),
                Column("resource_id", DataType.INT),
                Column("tag", DataType.TEXT),
            ],
            primary_key="id",
        ),
    )
    posts.create_index("resource_id", kind="hash")
    for index in range(rows):
        posts.insert({"resource_id": index + 1, "tag": f"tag-{index % 17}"})
    join_range = Between("quality", 0.40, 0.41)
    join_queries = 100

    def planned_join() -> list[list[dict]]:
        return [
            Query(table)
            .where(join_range)
            .join(posts, on=("id", "resource_id"), prefix_right="post_")
            .all()
            for _ in range(join_queries)
        ]

    # best-of-3: the first execution of a join shape pays one-time
    # interpreter warm-up (~ms) that would otherwise dominate the
    # ~10ms measurement window
    timed("join (planned, index-nl)", join_queries, planned_join, repeats=3)

    # multi-way join ordering on a skewed 3-way join --------------------
    # bare has no indexes, so the written order would hash-join the
    # whole table against links before categories ever filter anything;
    # the order search starts from the two rare categories instead and
    # hash-joins bare last, against the joined pair.
    links = database.create_table(
        "links",
        Schema(
            [
                Column("id", DataType.INT),
                Column("group_id", DataType.INT),
                Column("cat_id", DataType.INT),
            ],
            primary_key="id",
        ),
    )
    links.create_index("cat_id", kind="hash")
    cats = database.create_table(
        "categories",
        Schema(
            [Column("id", DataType.INT), Column("kind", DataType.TEXT)],
            primary_key="id",
        ),
    )
    cats.create_index("kind", kind="hash")
    link_rows = [
        {"group_id": index % 50, "cat_id": index % 40}
        for index in range(rows // 2)
    ]
    for link in link_rows:
        links.insert(link)
    rare_ids = set()
    for index in range(40):
        pk = cats.insert({"kind": "rare" if index < 2 else "common"})
        if index < 2:
            rare_ids.add(pk)
    # brute force over the inserted rows: each link to a rare category
    # joins every bare row in its group
    bare_per_group = Counter(row["n_posts"] for row in payload)
    brute_rows = sum(
        bare_per_group[link["group_id"]]
        for link in link_rows
        if link["cat_id"] in rare_ids
    )

    def three_way():
        return (
            Query(bare)
            .join(links, on=("n_posts", "group_id"), prefix_right="link_")
            .join(cats, on=("link_cat_id", "id"), prefix_right="cat_")
            .where(Eq("cat_kind", "rare"))
        )

    multiway_queries = 20
    searched_rows = three_way().count()
    timed(
        "3-way join (searched order)",
        multiway_queries,
        lambda: [three_way().count() for _ in range(multiway_queries)],
        repeats=3,
    )
    searched_plan = three_way().explain()
    join_cache_explain = three_way().explain()  # same shape: a hit

    # warm plan cache vs. planning every query from scratch -------------
    # Three conjuncts so cold planning pays for ranking three candidate
    # access paths while the (unique-name) result stays tiny; values
    # vary per query, only the predicate *shape* repeats.
    cache_queries = 500

    def shape_query(position: int) -> Query:
        low = 0.40 + (position % 5) / 100.0
        return Query(table).where(
            And(
                Eq("kind", "url"),
                Between("quality", low, low + 0.02),
                Eq("name", f"resource-{position % 50:05d}"),
            )
        )

    def cold_plans() -> None:
        for position in range(cache_queries):
            table.plan_cache.clear()
            shape_query(position).count()

    def warm_plans() -> None:
        for position in range(cache_queries):
            shape_query(position).count()

    # best-of-3 on both sides: the warm/cold gap (~1.5x) is close
    # enough to timing noise that single runs flake under load
    cold_rate = timed("And count (cold planning)", cache_queries, cold_plans, repeats=3)
    table.plan_cache.clear()
    warm_rate = timed("And count (warm plan cache)", cache_queries, warm_plans, repeats=3)
    cache_stats = table.plan_cache.stats()
    cached_explain = shape_query(0).explain()

    # maintained planner statistics: O(1) distinct counter vs the O(n)
    # walk it replaced, plus sampled-histogram selectivity probes -------
    quality_index = table.index_for("quality")
    counter_calls = 20_000
    counter_rate = timed(
        "n_distinct (maintained counter)",
        counter_calls,
        lambda: [quality_index.n_distinct() for _ in range(counter_calls)],
    )
    walk_calls = 200
    walk_rate = timed(
        "n_distinct (O(n) walk baseline)",
        walk_calls,
        lambda: [quality_index.recount_distinct() for _ in range(walk_calls)],
    )
    stats_agree = quality_index.n_distinct() == quality_index.recount_distinct()
    histogram = table.histogram("quality")
    probe_calls = 20_000
    timed(
        "range selectivity (histogram probe)",
        probe_calls,
        lambda: [histogram.selectivity(0.40, 0.60) for _ in range(probe_calls)],
    )
    exact_fraction = quality_index.estimate_range(0.40, 0.60) / len(table)
    histogram_error = abs(histogram.selectivity(0.40, 0.60) - exact_fraction)

    def transactional_updates() -> None:
        for pk in range(1, 1001):
            with database.transaction():
                table.update(pk, {"n_posts": 99})

    timed("transactional update", 1000, transactional_updates)

    # durable write path: group commit per fsync policy -----------------
    policy_rates: dict[str, float] = {}
    abort_growth = None
    with tempfile.TemporaryDirectory() as raw_dir:
        for policy, commits in (("always", 150), ("interval", 600), ("never", 600)):
            durable = Database.open(
                Path(raw_dir) / f"state-{policy}", fsync=policy
            )
            commit_table = durable.create_table("commits", _bare_schema())

            def commit_burst(target=commit_table, db=durable, count=commits) -> None:
                for position in range(count):
                    with db.transaction():
                        target.insert(
                            {
                                "name": f"r{position}",
                                "kind": "url",
                                "n_posts": position,
                                "quality": 0.5,
                            }
                        )

            policy_rates[policy] = timed(
                f"txn commit (fsync={policy})", commits, commit_burst
            )
            if policy == "never":
                durable.wal.flush()
                size_before = durable.wal.total_bytes()
                try:
                    with durable.transaction():
                        commit_table.insert({"name": "aborted", "kind": "url",
                                             "n_posts": 0, "quality": 0.0})
                        raise _BenchAbort()
                except _BenchAbort:
                    pass
                durable.wal.flush()
                size_after = durable.wal.total_bytes()
                abort_growth = size_after - size_before
            durable.close()

    # concurrent snapshot readers vs one transactional writer -----------
    live = database.create_table(
        "live",
        Schema(
            [Column("id", DataType.INT), Column("stamp", DataType.INT)],
            primary_key="id",
        ),
    )
    stamp_rows = 200
    for _ in range(stamp_rows):
        live.insert({"stamp": 0})
    writer_rounds = 60
    torn_reads = 0
    reader_passes = 0
    reader_errors: list[str] = []
    stats_lock = threading.Lock()
    writer_done = threading.Event()

    def stamp_writer() -> None:
        for stamp in range(1, writer_rounds + 1):
            with database.transaction():
                for pk in range(1, stamp_rows + 1):
                    live.update(pk, {"stamp": stamp})
        writer_done.set()

    def snapshot_reader() -> None:
        nonlocal torn_reads, reader_passes
        while True:
            stopping = writer_done.is_set()
            try:
                view = live.read_view()
                stamps = {row["stamp"] for row in view.scan()}
                repeat = {row["stamp"] for row in view.scan()}
                with stats_lock:
                    reader_passes += 1
                    if len(stamps) > 1 or repeat != stamps or len(view) != stamp_rows:
                        torn_reads += 1
            # bench thread boundary: failures are counted against the
            # claim, never raised  itag-lint: disable=except-hygiene
            except Exception as exc:  # noqa: BLE001 - counted as failure
                with stats_lock:
                    reader_errors.append(repr(exc))
                return
            if stopping:
                return

    reader_threads = [threading.Thread(target=snapshot_reader) for _ in range(2)]
    concurrent_start = time.perf_counter()
    for thread in reader_threads:
        thread.start()
    stamp_writer()
    for thread in reader_threads:
        thread.join(timeout=30.0)
    concurrent_elapsed = max(time.perf_counter() - concurrent_start, 1e-9)
    result.add_row(
        "concurrent writer (txn/sec)",
        writer_rounds,
        f"{concurrent_elapsed:.4f}",
        f"{writer_rounds / concurrent_elapsed:,.0f}",
    )
    result.add_row(
        "concurrent snapshot readers (views/sec)",
        reader_passes,
        f"{concurrent_elapsed:.4f}",
        f"{reader_passes / concurrent_elapsed:,.0f}",
    )

    # crash-recovery time vs WAL length ---------------------------------
    recovery_matches = True
    with tempfile.TemporaryDirectory() as raw_dir:
        for wal_records in (200, 2000):
            state_dir = Path(raw_dir) / f"recover-{wal_records}"
            source = Database.open(state_dir, fsync="never")
            source_table = source.create_table("events", _bare_schema())
            for position in range(wal_records):
                source_table.insert(
                    {"name": f"e{position}", "kind": "url",
                     "n_posts": position, "quality": 0.1}
                )
            expected_tables = source.to_snapshot()["tables"]
            source.close()

            start = time.perf_counter()
            recovered = Database.open(state_dir, fsync="never")
            elapsed = max(time.perf_counter() - start, 1e-9)
            recovery_matches = recovery_matches and (
                recovered.to_snapshot()["tables"] == expected_tables
            )
            recovered.close()
            result.add_row(
                f"crash recovery ({wal_records}-record WAL)",
                wal_records,
                f"{elapsed:.4f}",
                f"{wal_records / elapsed:,.0f}",
            )

    # incremental checkpoint: cost tracks the dirty fraction -----------
    # 64 tables, one of which is touched between checkpoints (~1.5%
    # dirty): the generation rewrites that one table file plus the
    # manifest, while touching all 64 makes it reserialize every table.
    # enough rows per table that serialization dominates the fixed
    # per-checkpoint costs (manifest write + fsync, retention GC) —
    # with tiny tables those fixed costs flatten the ratio
    checkpoint_tables = 64
    checkpoint_rows = max(600, rows // 8)
    incremental_time = all_dirty_time = None
    incremental_stats: dict = {}
    with tempfile.TemporaryDirectory() as raw_dir:
        ckpt = Database.open(Path(raw_dir) / "ckpt", fsync="never")
        shards = [
            ckpt.create_table(f"shard_{index:02d}", _counter_schema())
            for index in range(checkpoint_tables)
        ]
        for shard in shards:
            for position in range(checkpoint_rows):
                shard.insert({"n": position})
        ckpt.checkpoint()  # baseline generation: every table written once
        dirty_shard = shards[0]
        for _ in range(3):  # best-of-3, one dirty table per generation
            dirty_shard.update(1, {"n": dirty_shard.get(1)["n"] + 1})
            start = time.perf_counter()
            incremental_stats = ckpt.checkpoint()
            elapsed = max(time.perf_counter() - start, 1e-9)
            incremental_time = (
                elapsed if incremental_time is None else min(incremental_time, elapsed)
            )
        for _ in range(3):  # best-of-3, every table dirty per generation
            for shard in shards:
                shard.update(1, {"n": shard.get(1)["n"] + 1})
            start = time.perf_counter()
            ckpt.checkpoint()
            elapsed = max(time.perf_counter() - start, 1e-9)
            all_dirty_time = (
                elapsed if all_dirty_time is None else min(all_dirty_time, elapsed)
            )
        ckpt.close()
    checkpoint_ratio = all_dirty_time / incremental_time
    result.add_row(
        "checkpoint (incremental, 1/64 tables dirty)",
        checkpoint_tables,
        f"{incremental_time:.4f}",
        f"{checkpoint_tables / incremental_time:,.0f}",
    )
    result.add_row(
        "checkpoint (incremental, 64/64 tables dirty)",
        checkpoint_tables,
        f"{all_dirty_time:.4f}",
        f"{checkpoint_tables / all_dirty_time:,.0f}",
    )

    # WAL prune: whole-segment deletes, flat in live-log length ---------
    # Same covered prefix, two very different live suffixes: the prune
    # drops the same covered segments in ~the same time regardless of
    # how much live log sits above the truncation point (the seed path
    # rewrote the whole survivor suffix, O(live length)).
    prune_times: dict[int, float] = {}
    prune_dropped: dict[int, int] = {}
    prune_segments_dropped = 0
    with tempfile.TemporaryDirectory() as raw_dir:
        for live_records in (100, 2000):
            best = None
            for attempt in range(2):
                state_dir = Path(raw_dir) / f"prune-{live_records}-{attempt}"
                durable = Database.open(
                    state_dir, fsync="never", wal_segment_bytes=4096
                )
                events = durable.create_table("events", _counter_schema())
                for position in range(300):
                    events.insert({"n": position})  # covered prefix
                covered_lsn = durable.wal.sequence
                for position in range(live_records):
                    events.insert({"n": position})  # live suffix (kept)
                durable.wal.flush()
                start = time.perf_counter()
                dropped = durable.wal.truncate_through(covered_lsn)
                elapsed = max(time.perf_counter() - start, 1e-9)
                best = elapsed if best is None else min(best, elapsed)
                prune_dropped[live_records] = dropped
                prune_segments_dropped = durable.wal.stats()["segments_dropped"]
                durable.close()
            prune_times[live_records] = best
            result.add_row(
                f"wal prune ({live_records} live records above cut)",
                prune_dropped[live_records],
                f"{best:.6f}",
                f"{prune_dropped[live_records] / best:,.0f}",
            )

    # chunked sorted-index inserts vs the flat-list seed path -----------
    # The seed SortedIndex kept one flat sorted list, paying an O(n)
    # memmove per insert; the chunked structure pays O(chunk).  Same
    # probe workload against both, then the reads are compared
    # entry-for-entry.
    from bisect import bisect_left, bisect_right, insort

    from ..store.index import SortedIndex

    key_count = 1_000_000 if rows >= 5000 else 200_000

    def sorted_key(position: int) -> float:
        return ((position * 2654435761) % key_count) / key_count

    build_start = time.perf_counter()
    chunked_index = SortedIndex.build(
        "quality",
        ((sorted_key(position), position + 1) for position in range(key_count)),
    )
    build_elapsed = max(time.perf_counter() - build_start, 1e-9)
    result.add_row(
        f"sorted-index bulk build ({key_count:,} keys)",
        key_count,
        f"{build_elapsed:.4f}",
        f"{key_count / build_elapsed:,.0f}",
    )
    flat_list = sorted(
        (sorted_key(position), position + 1) for position in range(key_count)
    )
    probe_rng = random.Random(4242)
    probes = [
        (probe_rng.random(), key_count + position + 1)
        for position in range(2000)
    ]

    def chunked_inserts() -> None:
        for value, pk in probes:
            chunked_index.add(value, pk)

    def flat_inserts() -> None:
        for entry in probes:
            insort(flat_list, entry)

    chunked_insert_rate = timed(
        f"sorted insert (chunked, {key_count:,} keys)", len(probes), chunked_inserts
    )
    flat_insert_rate = timed(
        "sorted insert (flat-list seed path)", len(probes), flat_inserts
    )
    chunked_reads_match = all(
        got == expected
        for got, expected in zip(chunked_index.iter_items(), flat_list)
    ) and len(chunked_index) == len(flat_list)
    range_low, range_high = 0.25, 0.75
    oracle_range = bisect_right(
        flat_list, (range_high, float("inf"))
    ) - bisect_left(flat_list, (range_low,))
    chunked_range = chunked_index.estimate_range(range_low, range_high)

    # cross-transaction group commit: writer scaling at fsync=always ----
    # Two multi-writer shapes, each against a lone-writer baseline:
    # disjoint per-writer *tables* (PR 7's shape) and disjoint *rows of
    # one shared table* (per-row locking — writers collide at the table
    # but hold IX + row X, so the lock manager admits them concurrently
    # and the WAL leader batches their commits under one fsync; the
    # single-writer lane pays a full fsync per commit).  The lanes are
    # measured back-to-back and the best of three interleaved groups is
    # kept: fsync latency on a journaling filesystem drifts between
    # runs, and pairing keeps the ratio comparisons inside one drift
    # window.
    scale_commits = 100

    def scaling_lane(
        writers: int, state_dir: Path, *, same_table: bool = False
    ) -> tuple[float, int]:
        durable = Database.open(state_dir, fsync="always")
        if same_table:
            shared = durable.create_table("lane_shared", _counter_schema())
            targets = [shared] * writers
        else:
            targets = [
                durable.create_table(f"lane_{index}", _counter_schema())
                for index in range(writers)
            ]
        gate = threading.Barrier(writers + 1)

        def commit_lane(index: int, target, db=durable, start_gate=gate) -> None:
            start_gate.wait()
            base = index * scale_commits
            for position in range(scale_commits):
                with db.transaction():
                    if same_table:
                        # explicit disjoint pks of the one shared
                        # table: row X locks never conflict
                        target.insert({"id": base + position + 1, "n": position})
                    else:
                        target.insert({"n": position})

        lanes = [
            threading.Thread(target=commit_lane, args=(index, target))
            for index, target in enumerate(targets)
        ]
        for lane in lanes:
            lane.start()
        gate.wait()
        start = time.perf_counter()
        for lane in lanes:
            lane.join(timeout=60.0)
        elapsed = max(time.perf_counter() - start, 1e-9)
        syncs = durable.wal.stats()["sync_count"]  # before close()'s fsync
        durable.verify()
        durable.close()
        return writers * scale_commits / elapsed, syncs

    scaling_rates = {1: 0.0, 4: 0.0}
    scaling_ratio = 0.0
    same_table_rates = {1: 0.0, 4: 0.0}
    same_table_ratio = 0.0
    single_syncs = 0
    sync_fraction = 1.0
    with tempfile.TemporaryDirectory() as raw_dir:
        for attempt in range(3):
            single_rate, syncs_1 = scaling_lane(
                1, Path(raw_dir) / f"scale-1-{attempt}"
            )
            multi_rate, syncs_4 = scaling_lane(
                4, Path(raw_dir) / f"scale-4-{attempt}"
            )
            shared_rate, _shared_syncs = scaling_lane(
                4, Path(raw_dir) / f"scale-s-{attempt}", same_table=True
            )
            sync_fraction = min(sync_fraction, syncs_4 / (4 * scale_commits))
            if multi_rate / single_rate > scaling_ratio:
                scaling_ratio = multi_rate / single_rate
                scaling_rates = {1: single_rate, 4: multi_rate}
                single_syncs = syncs_1
            if shared_rate / single_rate > same_table_ratio:
                same_table_ratio = shared_rate / single_rate
                same_table_rates = {1: single_rate, 4: shared_rate}
    for writers, label, rates in (
        (1, "writer", scaling_rates),
        (4, "disjoint writers", scaling_rates),
        (4, "same-table writers", same_table_rates),
    ):
        ops = writers * scale_commits
        result.add_row(
            f"txn commit (fsync=always, {writers} {label})",
            ops,
            f"{ops / rates[writers]:.4f}",
            f"{rates[writers]:,.0f}",
        )

    # lock escalation: a transaction sweeping one table trades its row
    # locks for a single table lock past the (here, lowered) threshold,
    # keeping the lock table small for bulk writers
    sweeper = Database("sweeper")
    sweep_table = sweeper.create_table("sweep", _counter_schema())
    sweeper.lock_manager.escalation_threshold = 32
    with sweeper.transaction():
        for index in range(64):
            sweep_table.insert({"n": index})
        sweep_mid = sweeper.lock_manager.stats()
    escalation_stats = sweeper.lock_manager.stats()
    sweeper.verify()

    # deadlock storm: adverse lock orders resolve by abort-and-retry ----
    # Two writer pairs, each pair incrementing the same two counters in
    # opposite order, so S->X upgrades and crossed X acquisitions keep
    # forming wait-for cycles; every DeadlockError abort is retried
    # until the increment lands.
    storm = Database("storm", lock_timeout=2.0)
    counters = [
        storm.create_table(f"counter_{index}", _counter_schema())
        for index in range(4)
    ]
    for counter in counters:
        counter.insert({"n": 0})
    storm_rounds = 25
    storm_aborts = 0
    storm_errors: list[str] = []
    storm_lock = threading.Lock()

    def storm_writer(index: int) -> None:
        nonlocal storm_aborts
        pair = (counters[2 * (index // 2)], counters[2 * (index // 2) + 1])
        first, second = pair if index % 2 == 0 else (pair[1], pair[0])
        jitter = random.Random(9000 + index)
        try:
            for _ in range(storm_rounds):
                attempt = 0
                while True:
                    try:
                        with storm.transaction():
                            first.update(1, {"n": first.get(1)["n"] + 1})
                            # yield between the two acquisitions — the
                            # "work inside the transaction" that lets
                            # the adverse-order peer grab its first
                            # lock and close the wait-for cycle
                            time.sleep(0)
                            second.update(1, {"n": second.get(1)["n"] + 1})
                        break
                    except DeadlockError:
                        attempt += 1
                        with storm_lock:
                            storm_aborts += 1
                        # jittered linear backoff, exactly like the
                        # system layer: an instant retry respins the
                        # same cycle, and deterministic delays make the
                        # aborted peers retry in lockstep and
                        # re-collide (seeded per writer, reproducible)
                        time.sleep(0.0002 * attempt * (0.5 + jitter.random()))
        # bench thread boundary: failures are counted against the
        # claim, never raised  itag-lint: disable=except-hygiene
        except Exception as exc:  # noqa: BLE001 - counted as failure
            with storm_lock:
                storm_errors.append(repr(exc))

    storm_threads = [
        threading.Thread(target=storm_writer, args=(index,)) for index in range(4)
    ]
    storm_start = time.perf_counter()
    for thread in storm_threads:
        thread.start()
    for thread in storm_threads:
        thread.join(timeout=60.0)
    storm_elapsed = max(time.perf_counter() - storm_start, 1e-9)
    storm_commits = 4 * storm_rounds
    result.add_row(
        "deadlock storm (4 writers, adverse order)",
        storm_commits,
        f"{storm_elapsed:.4f}",
        f"{storm_commits / storm_elapsed:,.0f}",
    )
    storm_counts = [counter.get(1)["n"] for counter in counters]
    storm_stats = storm.lock_manager.stats()
    storm.verify()  # includes LockManager.assert_quiescent()

    result.check(
        "the substrate sustains campaign workloads (>10k inserts/sec)",
        insert_rate > 10_000,
        f"{insert_rate:,.0f} inserts/sec",
    )
    result.check(
        "zero-copy hash point queries sustain >12k ops/sec "
        "(5x the 2,399 ops/sec copy-per-row baseline)",
        point_rate > 12_000,
        f"{point_rate:,.0f} ops/sec",
    )
    result.check(
        "snapshot-view indexed point queries run within 2x of the live table",
        view_rate * 2 >= point_rate,
        f"{view_rate:,.0f} vs {point_rate:,.0f} ops/sec",
    )
    result.check(
        "snapshot views plan indexed access paths (no full-scan penalty)",
        "hash-index" in view_explain,
        view_explain.splitlines()[0],
    )
    result.check(
        "n_distinct is O(1): maintained counter beats the O(n) walk "
        "(>5x) and agrees with it",
        counter_rate > 5 * walk_rate and stats_agree,
        f"{counter_rate:,.0f} vs {walk_rate:,.0f} calls/sec, agree={stats_agree}",
    )
    result.check(
        "sampled histogram matches exact range selectivity within 0.1",
        histogram is not None and histogram_error < 0.1,
        f"|histogram - exact| = {histogram_error:.3f}",
    )
    # the explain claims assert from-scratch plan choices, so keep them
    # independent of whatever the timing loops left in the plan cache
    table.plan_cache.clear()
    and_plan = Query(table).where(selective).explain()
    topk_plan = Query(table).order_by("quality", descending=True).limit(10).explain()
    result.check(
        "multi-predicate And runs as an index intersection",
        "intersect" in and_plan,
        and_plan.splitlines()[0],
    )
    result.check(
        "order_by+limit runs as a streaming top-k",
        "top-k" in topk_plan,
        topk_plan.splitlines()[0],
    )
    result.check(
        "cost-based And query beats the full-scan baseline (>2x)",
        indexed_rate > 2 * scan_rate,
        f"{indexed_rate:,.0f} vs {scan_rate:,.0f} ops/sec",
    )
    result.check(
        "streaming top-k beats the full-sort baseline (>2x)",
        topk_rate > 2 * sort_rate,
        f"{topk_rate:,.0f} vs {sort_rate:,.0f} ops/sec",
    )
    join_plan = (
        Query(table)
        .where(join_range)
        .join(posts, on=("id", "resource_id"), prefix_right="post_")
        .explain()
    )
    result.check(
        "the join planner picks the index nested-loop strategy",
        "index-nl-join" in join_plan,
        join_plan.splitlines()[0],
    )
    searched_lines = searched_plan.splitlines()
    searched_order = "[join-order: categories -> links -> resources_scan (dp)]"
    result.check(
        "the searched 3-way plan joins the rare categories first and "
        "hash-joins the unindexed table last, building over the joined "
        "pair, with the brute-force row count",
        searched_order in searched_lines
        and searched_lines[0].startswith("hash-join")
        and "build=left" in searched_lines[0]
        and searched_lines[1].startswith("  index-nl-join")
        and any(line.startswith("  full-scan(resources_scan") for line in searched_lines)
        and searched_rows == brute_rows,
        " | ".join(searched_lines[:2])
        + f" | {searched_rows} rows (brute force {brute_rows})",
    )
    result.check(
        "repeated join-graph shapes hit the join plan cache",
        "[plan-cache: hit]" in join_cache_explain,
        join_cache_explain.splitlines()[-1],
    )
    result.check(
        "warm plan cache beats cold planning (>1.15x)",
        warm_rate > 1.15 * cold_rate,
        f"{warm_rate:,.0f} vs {cold_rate:,.0f} ops/sec",
    )
    result.check(
        "repeated predicate shapes hit the plan cache",
        cache_stats["hits"] >= cache_queries - 1
        and "[plan-cache: hit]" in cached_explain,
        f"hits={cache_stats['hits']} misses={cache_stats['misses']}; "
        + cached_explain.splitlines()[-1],
    )
    result.check(
        "group commit with interval fsync beats per-commit fsync (>2x)",
        policy_rates["interval"] > 2 * policy_rates["always"],
        f"{policy_rates['interval']:,.0f} vs {policy_rates['always']:,.0f} commits/sec",
    )
    result.check(
        "an aborted transaction leaves zero bytes of net WAL growth",
        abort_growth == 0,
        f"{abort_growth} bytes",
    )
    result.check(
        "concurrent snapshot readers stay consistent under writer load",
        torn_reads == 0 and reader_passes > 0 and not reader_errors,
        f"{reader_passes} reader passes, {torn_reads} torn, "
        f"{len(reader_errors)} errors",
    )
    result.check(
        "crash recovery reproduces exactly the committed state",
        recovery_matches,
        "checkpoint-free replay matched for 200- and 2000-record WALs",
    )
    result.check(
        "incremental checkpoint at 1/64 dirty tables beats one with all "
        "64 dirty (>5x)",
        checkpoint_ratio > 5
        and incremental_stats.get("tables_rewritten") == 1
        and incremental_stats.get("tables_reused") == checkpoint_tables - 1,
        f"{incremental_time * 1e3:.1f} ms vs {all_dirty_time * 1e3:.1f} ms "
        f"({checkpoint_ratio:.1f}x); incremental rewrote "
        f"{incremental_stats.get('tables_rewritten')} of "
        f"{checkpoint_tables} table files",
    )
    result.check(
        "wal prune drops whole covered segments in flat time, "
        "independent of the live-log length",
        prune_times[2000] <= 3 * prune_times[100] + 0.002
        and prune_dropped[100] == prune_dropped[2000]
        and prune_segments_dropped > 0,
        f"{prune_times[100] * 1e3:.2f} ms at 100 live vs "
        f"{prune_times[2000] * 1e3:.2f} ms at 2000 live; "
        f"{prune_dropped[2000]} records / {prune_segments_dropped} "
        f"segment(s) dropped",
    )
    result.check(
        "chunked sorted-index inserts beat the flat-list seed path "
        "(>3x) with identical reads",
        chunked_insert_rate > 3 * flat_insert_rate
        and chunked_reads_match
        and chunked_range == oracle_range,
        f"{chunked_insert_rate:,.0f} vs {flat_insert_rate:,.0f} "
        f"inserts/sec at {key_count:,} keys; reads match, "
        f"range[0.25, 0.75] = {chunked_range} both",
    )
    result.check(
        "cross-transaction group commit scales: 4 disjoint writers "
        "sustain >1.3x the single-writer commit rate at fsync=always",
        scaling_ratio > 1.3,
        f"{scaling_rates[4]:,.0f} vs {scaling_rates[1]:,.0f} commits/sec "
        f"({scaling_ratio:.2f}x)",
    )
    result.check(
        "cross-transaction group commit batches concurrent commits: "
        "4 writers pay <0.6 fsyncs per commit while a lone writer "
        "pays one each",
        sync_fraction < 0.6 and single_syncs >= scale_commits,
        f"{sync_fraction:.2f} fsyncs/commit at 4 writers, "
        f"{single_syncs} fsyncs for {scale_commits} single-writer commits",
    )
    result.check(
        "per-row locking scales same-table writers: 4 writers on "
        "disjoint rows of one table sustain >1.5x the single-writer "
        "commit rate at fsync=always",
        same_table_ratio > 1.5,
        f"{same_table_rates[4]:,.0f} vs {same_table_rates[1]:,.0f} "
        f"commits/sec ({same_table_ratio:.2f}x)",
    )
    result.check(
        "lock escalation folds a bulk writer's row locks into one "
        "table lock past the threshold, and the lock table drains",
        escalation_stats["escalations"] >= 1
        and sweep_mid["row_locks_held"] == 0
        and sweep_mid["table_locks_held"] == 1
        and escalation_stats["locks_held"] == 0,
        f"{escalation_stats['escalations']} escalation(s) at threshold 32; "
        f"mid-txn: {sweep_mid['row_locks_held']} row locks, "
        f"{sweep_mid['table_locks_held']} table lock(s); drained after commit",
    )
    result.check(
        "a 4-writer deadlock storm resolves by abort-and-retry: every "
        "increment lands and the lock table drains",
        storm_counts == [2 * storm_rounds] * 4 and not storm_errors,
        f"counts={storm_counts}, {storm_aborts} aborted commits retried; "
        f"lock stats: {storm_stats['deadlocks_detected']} deadlocks, "
        f"{storm_stats['victims']} victims, {storm_stats['timeouts']} "
        f"timeouts, {storm_stats['escalations']} escalations",
    )
    database.verify()
    return result


class _BenchAbort(Exception):
    """Sentinel forcing a benchmark transaction rollback."""
