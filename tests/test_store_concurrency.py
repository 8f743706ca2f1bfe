"""Concurrency suite: snapshot readers vs writers, hierarchical
locking, deadlock handling, group commit under thread load.

The store's contract is two-phase-locked multi-writer / multi-reader:
transactions take intention locks (IS/IX) at table granularity plus
row-granular S/X locks keyed by ``(table, pk)``, so writers run
concurrently when their row footprints are disjoint — even on the
same table; conflicting footprints block, and wait-for cycles abort
the youngest transaction with ``DeadlockError`` (rolled back cleanly,
safe to retry).  A writer crossing the escalation threshold trades
its row locks for one table lock.  Autocommit
writes are safe from any thread, and readers using copy-on-write views
are never torn — a view observes exactly one version of each table
forever.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.store import (
    Column,
    ConstraintError,
    Database,
    DataType,
    DeadlockError,
    Eq,
    Query,
    Schema,
    WriteAheadLog,
)


def make_table(database: Database, name: str = "items"):
    return database.create_table(
        name,
        Schema(
            [
                Column("id", DataType.INT),
                Column("stamp", DataType.INT, default=0, has_default=True),
                Column("label", DataType.TEXT, default="", has_default=True),
            ],
            primary_key="id",
        ),
    )


def run_threads(targets, timeout: float = 30.0) -> None:
    threads = [threading.Thread(target=target) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=timeout)
        assert not thread.is_alive(), "thread deadlocked"


class TestSnapshotReaders:
    def test_views_never_torn_by_transactional_writer(self):
        """One writer stamps every row per transaction; view readers
        must always see a single stamp value (all-or-nothing)."""
        database = Database("c")
        table = make_table(database)
        n_rows = 40
        for _ in range(n_rows):
            table.insert({})
        rounds = 150
        errors: list[str] = []
        torn = [0]
        passes = [0]
        done = threading.Event()

        def writer():
            try:
                for stamp in range(1, rounds + 1):
                    with database.transaction():
                        for pk in range(1, n_rows + 1):
                            table.update(pk, {"stamp": stamp})
            except Exception as exc:  # noqa: BLE001
                errors.append(f"writer: {exc!r}")
            finally:
                done.set()

        def reader():
            try:
                while True:
                    stopping = done.is_set()
                    view = table.read_view()
                    stamps = {row["stamp"] for row in view.scan()}
                    if len(stamps) > 1:
                        torn[0] += 1
                    # repeatable read: the same view, asked again,
                    # answers the same
                    if {row["stamp"] for row in view.scan()} != stamps:
                        torn[0] += 1
                    if Query(view).count() != n_rows:
                        torn[0] += 1
                    passes[0] += 1
                    if stopping:
                        return
            except Exception as exc:  # noqa: BLE001
                errors.append(f"reader: {exc!r}")

        run_threads([writer, reader, reader])
        assert not errors, errors
        assert torn[0] == 0
        assert passes[0] > 0
        assert {row["stamp"] for row in table.scan()} == {rounds}
        table.verify_indexes()

    def test_view_pins_version_while_live_table_moves(self):
        database = Database("c")
        table = make_table(database)
        for index in range(5):
            table.insert({"label": f"v{index}"})
        view = table.read_view()
        assert not view.stale
        table.update(1, {"label": "mutated"})
        table.delete(2)
        table.insert({"label": "new"})
        assert view.stale
        assert len(view) == 5
        assert view.get(1)["label"] == "v0"
        assert view.contains(2)
        assert len(table) == 5  # 5 - 1 + 1
        assert table.get(1)["label"] == "mutated"

    def test_joined_views_are_mutually_consistent(self):
        database = Database("c")
        left = make_table(database, "left")
        right = database.create_table(
            "right",
            Schema(
                [Column("id", DataType.INT), Column("left_id", DataType.INT)],
                primary_key="id",
            ),
        )
        for index in range(10):
            left.insert({"label": f"L{index}"})
            right.insert({"left_id": index + 1})
        snapshot = database.read_view()
        joined_before = (
            Query(snapshot.table("left"))
            .join(snapshot.table("right"), on=("id", "left_id"), prefix_right="r_")
            .all()
        )
        left.delete(3)
        right.delete(7)
        joined_after = (
            Query(snapshot.table("left"))
            .join(snapshot.table("right"), on=("id", "left_id"), prefix_right="r_")
            .all()
        )
        assert joined_before == joined_after
        assert len(joined_before) == 10

    def test_indexed_reads_never_miss_rows_while_unrelated_columns_update(self):
        """Regression: Table.update used to remove the pk from *every*
        index and re-add it, so an indexed read racing an update of an
        unrelated column could miss committed rows.  Index maintenance
        now touches only changed columns (add-before-remove)."""
        database = Database("c")
        table = make_table(database)
        table.create_index("label", kind="hash")
        n_rows = 300
        for _ in range(n_rows):
            table.insert({"label": "steady"})
        errors: list[str] = []
        misses = [0]
        done = threading.Event()

        def writer():
            try:
                for stamp in range(400):
                    table.update((stamp % n_rows) + 1, {"stamp": stamp})
            except Exception as exc:  # noqa: BLE001
                errors.append(f"writer: {exc!r}")
            finally:
                done.set()

        def reader():
            try:
                while True:
                    stopping = done.is_set()
                    if Query(table).where(Eq("label", "steady")).count() != n_rows:
                        misses[0] += 1
                    if stopping:
                        return
            except Exception as exc:  # noqa: BLE001
                errors.append(f"reader: {exc!r}")

        run_threads([writer, reader, reader])
        assert not errors, errors
        assert misses[0] == 0
        table.verify_indexes()

    def test_view_planner_filters_match_live_semantics(self):
        database = Database("c")
        table = make_table(database)
        for index in range(20):
            table.insert({"stamp": index % 4})
        view = table.read_view()
        assert Query(view).where(Eq("stamp", 2)).count() == Query(table).where(
            Eq("stamp", 2)
        ).count()


class TestTransactionSerialization:
    def test_cross_thread_increments_never_lost(self):
        """Three threads bump one counter transactionally.  Their
        footprints overlap, so the lock manager serializes them; an
        S->X upgrade race aborts the younger side with DeadlockError,
        which a retry (fresh transaction) must absorb losslessly."""
        database = Database("c")
        table = make_table(database)
        table.insert({"stamp": 0})
        per_thread = 200

        def bump():
            for _ in range(per_thread):
                attempt = 0
                while True:
                    try:
                        with database.transaction():
                            current = table.get(1)["stamp"]
                            table.update(1, {"stamp": current + 1})
                        break
                    except DeadlockError:
                        attempt += 1
                        time.sleep(0.0001 * attempt)

        run_threads([bump, bump, bump])
        assert table.get(1)["stamp"] == 3 * per_thread
        database.verify()

    def test_rollback_completes_before_transaction_slot_is_released(self):
        """Regression: rollback used to release the transaction mutex
        *before* replaying the undo log, so a concurrent ``read_view``
        (or ``begin()``) could observe aborted changes mid-undo.  Every
        undo application must happen while the transaction is still
        registered."""
        database = Database("c")
        table = make_table(database)
        table.insert({"stamp": 1})
        seen_in_txn: list[bool] = []

        def spy(event):
            seen_in_txn.append(database.in_transaction)

        table.add_listener(spy)
        with pytest.raises(RuntimeError):
            with database.transaction():
                table.insert({"stamp": 2})
                table.update(1, {"stamp": 99})
                raise RuntimeError("abort")
        table.remove_listener(spy)
        # 2 forward changes + 2 undo applications, all inside the txn slot
        assert len(seen_in_txn) == 4
        assert all(seen_in_txn)
        assert table.get(1)["stamp"] == 1
        assert len(table) == 1

    def test_same_thread_nested_transaction_still_rejected(self):
        from repro.store import TransactionError

        database = Database("c")
        make_table(database)
        with database.transaction():
            with pytest.raises(TransactionError, match="nested"):
                database.transaction().begin()


class TestPerTableLocking:
    def test_disjoint_footprints_run_concurrently(self):
        """Two transactions on different tables must both be open at
        the same moment — proven by a cross-signal: each thread waits,
        inside its transaction, for the other to enter its own."""
        database = Database("c")
        left = make_table(database, "left")
        right = make_table(database, "right")
        a_in = threading.Event()
        b_in = threading.Event()
        overlapped = []

        def writer_a():
            with database.transaction():
                left.insert({"stamp": 1})
                a_in.set()
                overlapped.append(b_in.wait(timeout=10.0))

        def writer_b():
            with database.transaction():
                right.insert({"stamp": 2})
                b_in.set()
                overlapped.append(a_in.wait(timeout=10.0))

        run_threads([writer_a, writer_b])
        assert overlapped == [True, True]
        assert len(left) == 1 and len(right) == 1
        database.verify()

    def test_opposite_lock_order_deadlock_aborts_one_commits_other(self):
        """The injection from the paper-book: two transactions acquire
        the same two tables in opposite order, rendezvous after their
        first lock, then cross.  The wait-for graph must abort exactly
        one with DeadlockError (not hang, not abort both); the survivor
        commits and the aborted side rolls back cleanly."""
        database = Database("c", lock_timeout=30.0)
        left = make_table(database, "left")
        right = make_table(database, "right")
        left.insert({"stamp": 0})
        right.insert({"stamp": 0})
        rendezvous = threading.Barrier(2, timeout=10.0)
        outcomes: list[str] = []
        outcome_lock = threading.Lock()

        def crossed(first, second):
            def run():
                try:
                    with database.transaction():
                        first.update(1, {"stamp": 1})
                        rendezvous.wait()
                        second.update(1, {"stamp": 1})
                    with outcome_lock:
                        outcomes.append("committed")
                except DeadlockError:
                    with outcome_lock:
                        outcomes.append("aborted")
            return run

        run_threads([crossed(left, right), crossed(right, left)])
        assert sorted(outcomes) == ["aborted", "committed"]
        # the aborted side rolled back: exactly one table kept the
        # survivor's write on the row it reached second
        assert {left.get(1)["stamp"], right.get(1)["stamp"]} == {1}
        database.verify()

    def test_deadlock_victim_is_younger_transaction(self):
        database = Database("c", lock_timeout=30.0)
        left = make_table(database, "left")
        right = make_table(database, "right")
        left.insert({})
        right.insert({})
        older_in = threading.Event()
        younger_in = threading.Event()
        results: dict[str, str] = {}

        def older():
            with database.transaction():
                left.update(1, {"stamp": 1})
                older_in.set()
                assert younger_in.wait(timeout=10.0)
                right.update(1, {"stamp": 1})
            results["older"] = "committed"

        def younger():
            assert older_in.wait(timeout=10.0)
            try:
                with database.transaction():
                    right.update(1, {"stamp": 2})
                    younger_in.set()
                    left.update(1, {"stamp": 2})
                results["younger"] = "committed"
            except DeadlockError:
                results["younger"] = "aborted"

        run_threads([older, younger])
        assert results == {"older": "committed", "younger": "aborted"}
        assert left.get(1)["stamp"] == 1 and right.get(1)["stamp"] == 1
        database.verify()

    def test_lock_timeout_fallback_raises_deadlock_error(self):
        """A lock that simply never frees (held by a foreign owner the
        cycle detector cannot see through) must fall back to the
        configured timeout instead of waiting forever."""
        database = Database("c", lock_timeout=0.2)
        make_table(database)
        database.lock_manager.acquire(999_999, "items", "X")
        try:
            with pytest.raises(DeadlockError, match="lock wait timeout"):
                with database.transaction():
                    database.table("items").insert({})
        finally:
            database.lock_manager.release_all(999_999)
        database.verify()

    def test_verify_flags_leaked_locks_at_quiescence(self):
        database = Database("c")
        make_table(database)
        database.verify()  # clean before
        database.lock_manager.acquire(999_999, "items", "S")
        with pytest.raises(ConstraintError, match="lock"):
            database.verify()
        database.lock_manager.release_all(999_999)
        database.verify()  # release is idempotent and drains fully


class TestRowLevelLocking:
    def test_disjoint_rows_of_one_table_run_concurrently(self):
        """Two transactions writing different rows of the *same* table
        must both be open at the same moment — the point of the
        IS/IX + row-lock hierarchy.  Proven by a cross-signal, as in
        the disjoint-tables test above."""
        database = Database("c")
        table = make_table(database)
        table.insert({})
        table.insert({})
        a_in = threading.Event()
        b_in = threading.Event()
        overlapped = []

        def writer_a():
            with database.transaction():
                table.update(1, {"stamp": 1})
                a_in.set()
                overlapped.append(b_in.wait(timeout=10.0))

        def writer_b():
            with database.transaction():
                table.update(2, {"stamp": 2})
                b_in.set()
                overlapped.append(a_in.wait(timeout=10.0))

        run_threads([writer_a, writer_b])
        assert overlapped == [True, True]
        assert table.get(1)["stamp"] == 1 and table.get(2)["stamp"] == 2
        database.verify()

    def test_escalation_threshold_crossing_folds_row_locks(self):
        """A bulk writer crossing the escalation threshold trades its
        row locks for one table X lock; row locks the table lock now
        covers are dropped, and later row acquires are satisfied by
        the covering lock without new entries."""
        database = Database("c")
        database.lock_manager.escalation_threshold = 8
        table = make_table(database)
        for _ in range(20):
            table.insert({})
        with database.transaction():
            for pk in range(1, 21):
                table.update(pk, {"stamp": 1})
            stats = database.lock_manager.stats()
            assert stats["escalations"] == 1
            assert stats["row_locks_held"] == 0
            assert stats["table_locks_held"] == 1
        after = database.lock_manager.stats()
        assert after["locks_held"] == 0
        assert after["escalations"] == 1
        database.verify()

    def test_escalation_induced_deadlock_aborts_younger_writer(self):
        """Escalation re-runs deadlock detection over the widened
        footprint: an older bulk writer escalating to table X while a
        younger writer holds IX (and then waits on one of the older
        writer's rows) forms a cycle; the younger side must abort."""
        database = Database("c", lock_timeout=30.0)
        database.lock_manager.escalation_threshold = 3
        table = make_table(database)
        for _ in range(10):
            table.insert({})
        older_in = threading.Event()
        younger_in = threading.Event()
        results: dict[str, str] = {}

        def older():
            with database.transaction():
                table.update(1, {"stamp": 1})
                table.update(2, {"stamp": 1})
                older_in.set()
                assert younger_in.wait(timeout=10.0)
                # rows 3 and 4 cross the threshold -> escalate to
                # table X, which blocks on the younger writer's IX
                table.update(3, {"stamp": 1})
                table.update(4, {"stamp": 1})
            results["older"] = "committed"

        def younger():
            assert older_in.wait(timeout=10.0)
            try:
                with database.transaction():
                    table.update(9, {"stamp": 2})
                    younger_in.set()
                    table.update(1, {"stamp": 2})
                results["younger"] = "committed"
            except DeadlockError:
                results["younger"] = "aborted"

        run_threads([older, younger])
        assert results == {"older": "committed", "younger": "aborted"}
        assert table.get(1)["stamp"] == 1
        assert table.get(9)["stamp"] == 0  # younger rolled back
        stats = database.lock_manager.stats()
        assert stats["escalations"] >= 1
        assert stats["victims"] >= 1
        database.verify()

    def test_verify_flags_leaked_row_lock(self):
        database = Database("c")
        make_table(database)
        database.verify()  # clean before
        database.lock_manager.acquire_row(4242, "items", 1, "X")
        with pytest.raises(ConstraintError, match="lock"):
            database.verify()
        database.lock_manager.release_all(4242)
        database.verify()  # release drains the row level too


class TestGroupCommit:
    def test_concurrent_autocommit_inserts_all_journaled(self, tmp_path):
        database = Database("c")
        table = make_table(database)
        wal = WriteAheadLog(tmp_path / "c.wal", fsync="never")
        database.attach_wal(wal)
        per_thread = 100

        def insert_block(base: int):
            def run():
                for offset in range(per_thread):
                    table.insert({"id": base + offset, "label": f"t{base}"})
            return run

        run_threads([insert_block(1_000), insert_block(2_000), insert_block(3_000)])
        database.close()
        replayed = Database("c2")
        make_table(replayed)
        reopened = WriteAheadLog(tmp_path / "c.wal")
        assert len(reopened) == 3 * per_thread
        reopened.replay_into(replayed)
        assert len(replayed.table("items")) == 3 * per_thread
        replayed.verify()

    def test_fsync_always_groups_concurrent_commits(self, tmp_path):
        database = Database("c")
        table = make_table(database)
        wal = WriteAheadLog(tmp_path / "c.wal", fsync="always")
        database.attach_wal(wal)
        per_thread = 25

        def insert_block(base: int):
            def run():
                for offset in range(per_thread):
                    table.insert({"id": base + offset})
            return run

        run_threads([insert_block(1_000), insert_block(2_000), insert_block(3_000)])
        assert len(wal) == 3 * per_thread
        # every record was fsynced before its commit returned, but one
        # group fsync may cover several concurrent committers
        assert 1 <= wal.sync_count <= 3 * per_thread
        database.close()


class TestPlanCacheThreadSafety:
    def test_queries_race_index_ddl_without_crashing(self):
        database = Database("c")
        table = make_table(database)
        for index in range(200):
            table.insert({"stamp": index % 10})
        errors: list[str] = []
        done = threading.Event()

        def query_loop():
            try:
                while not done.is_set():
                    assert Query(table).where(Eq("stamp", 3)).count() == 20
            except Exception as exc:  # noqa: BLE001
                errors.append(repr(exc))

        def ddl_loop():
            try:
                for _ in range(30):
                    table.create_index("stamp", kind="hash")
                    table.drop_index("stamp")
            except Exception as exc:  # noqa: BLE001
                errors.append(repr(exc))
            finally:
                done.set()

        run_threads([query_loop, query_loop, ddl_loop])
        assert not errors, errors


class TestConcurrentStress:
    """Randomized multi-writer schedules vs a single-threaded oracle."""

    @given(
        plans=st.lists(
            st.lists(
                st.sampled_from([0, 1, 2]), min_size=1, max_size=3, unique=True
            ),
            min_size=2,
            max_size=4,
        ),
        per_thread=st.integers(min_value=3, max_value=10),
    )
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_threaded_increments_match_single_threaded_oracle(
        self, plans, per_thread
    ):
        """Each thread owns a random table subset (disjoint or
        overlapping, in arbitrary acquisition order) and increments
        every table in its set inside one transaction per round,
        retrying deadlock aborts.  The final counters must equal the
        single-threaded oracle: no lost updates, no double-applies
        from rollback+retry."""
        database = Database("stress")
        tables = [make_table(database, f"t{index}") for index in range(3)]
        for table in tables:
            table.insert({"stamp": 0})
        errors: list[str] = []

        def worker(plan):
            def run():
                try:
                    for _ in range(per_thread):
                        attempt = 0
                        while True:
                            try:
                                with database.transaction():
                                    for slot in plan:
                                        table = tables[slot]
                                        current = table.get(1)["stamp"]
                                        table.update(
                                            1, {"stamp": current + 1}
                                        )
                                break
                            except DeadlockError:
                                attempt += 1
                                time.sleep(0.0001 * attempt)
                except Exception as exc:  # noqa: BLE001
                    errors.append(repr(exc))
            return run

        run_threads([worker(plan) for plan in plans])
        assert not errors, errors
        expected = {
            slot: per_thread * sum(1 for plan in plans if slot in plan)
            for slot in range(3)
        }
        actual = {
            slot: tables[slot].get(1)["stamp"] for slot in range(3)
        }
        assert actual == expected
        database.verify()


class TestRowStress:
    """Randomized same-table multi-writer schedules vs a
    single-threaded oracle — the row-granular analogue of
    :class:`TestConcurrentStress`."""

    @given(
        plans=st.lists(
            st.lists(
                st.sampled_from(range(6)), min_size=1, max_size=4, unique=True
            ),
            min_size=2,
            max_size=4,
        ),
        per_thread=st.integers(min_value=3, max_value=10),
    )
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_threaded_row_increments_match_single_threaded_oracle(
        self, plans, per_thread
    ):
        """Each thread owns a random pk subset of ONE table — disjoint
        or overlapping, in arbitrary acquisition order — and increments
        every row in its set inside one transaction per round, retrying
        deadlock aborts.  Disjoint subsets proceed under row locks;
        overlapping ones serialize or abort-and-retry.  The final
        counters must equal the single-threaded oracle: no lost
        updates, no double-applies from rollback+retry."""
        database = Database("stress")
        table = make_table(database)
        for _ in range(6):
            table.insert({"stamp": 0})
        errors: list[str] = []

        def worker(plan):
            def run():
                try:
                    for _ in range(per_thread):
                        attempt = 0
                        while True:
                            try:
                                with database.transaction():
                                    for slot in plan:
                                        pk = slot + 1
                                        current = table.get(pk)["stamp"]
                                        table.update(
                                            pk, {"stamp": current + 1}
                                        )
                                break
                            except DeadlockError:
                                attempt += 1
                                time.sleep(0.0001 * attempt)
                except Exception as exc:  # noqa: BLE001
                    errors.append(repr(exc))
            return run

        run_threads([worker(plan) for plan in plans])
        assert not errors, errors
        expected = {
            slot: per_thread * sum(1 for plan in plans if slot in plan)
            for slot in range(6)
        }
        actual = {slot: table.get(slot + 1)["stamp"] for slot in range(6)}
        assert actual == expected
        database.verify()


class TestSessionDriver:
    def test_concurrent_tagger_sessions_stay_consistent(self):
        from repro.datasets import make_delicious_like
        from repro.system import ITagSystem, SessionDriver

        data = make_delicious_like(
            n_resources=8, initial_posts_total=40, master_seed=5, population_size=12
        )
        system = ITagSystem(master_seed=5)
        provider = system.register_provider("p")
        project = system.create_project(provider, "campaign", budget=90)
        system.upload_resources(project, data.provider_corpus)
        system.start_project(project, noise_model=data.dataset.noise_model)
        report = SessionDriver(
            system, project, readers=2, writer_tasks=25
        ).run()
        assert report.consistent, report.describe()
        assert report.writer_tasks == 25
        assert report.reader_passes > 0

    def test_multi_writer_sessions_split_the_task_pool(self):
        from repro.datasets import make_delicious_like
        from repro.system import ITagSystem, SessionDriver

        data = make_delicious_like(
            n_resources=8, initial_posts_total=40, master_seed=7, population_size=12
        )
        system = ITagSystem(master_seed=7)
        provider = system.register_provider("p")
        project = system.create_project(provider, "campaign", budget=90)
        system.upload_resources(project, data.provider_corpus)
        system.start_project(project, noise_model=data.dataset.noise_model)
        resources = system.database.table("resources")
        initial_posts = Query(resources).aggregate("n_posts", "sum")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more interleavings per task
        try:
            report = SessionDriver(
                system, project, readers=2, writer_tasks=30, writers=3
            ).run()
        finally:
            sys.setswitchinterval(interval)
        assert report.consistent, report.describe()
        assert report.writers == 3
        assert len(report.writer_sessions) == 3
        # the shared pool drains exactly once across the racing writers
        assert sum(s.commits for s in report.writer_sessions) == report.writer_tasks
        assert report.writer_tasks <= 30
        system.database.verify()
        if any(s.aborts for s in report.writer_sessions):
            return  # an aborted task's simulation is not rolled back
        approved = Query(system.database.table("notifications")).where(
            Eq("kind", "post_approved")
        ).count()
        assert Query(resources).aggregate("n_posts", "sum") == initial_posts + approved
        keys = [
            (post["resource_id"], post["seq"])
            for post in Query(system.database.table("posts")).all()
        ]
        assert len(keys) == len(set(keys))
        indexes = [spent for spent, _quality in system.quality_history(project)]
        assert indexes == list(range(1, report.writer_tasks + 1))
        assert indexes[-1] == system.projects.get(project)["budget_spent"]

    def test_two_writers_with_a_late_commit_keep_rows_and_trajectory_exact(self):
        """Writer A simulates one task, then its transaction is held at
        entry while writer B runs three tasks, the first on A's
        resource, and commits them; only then does A commit.  The rows
        must still hold every approved post exactly once with the live
        post counts, and the trajectory must index tasks 1..n once each."""
        import contextlib
        import itertools

        from repro.crowd.approval import ApprovalPolicy
        from repro.datasets import make_delicious_like
        from repro.system import ITagSystem

        class ApproveAll(ApprovalPolicy):
            def should_approve(self, resource, post):
                return True

        data = make_delicious_like(
            n_resources=8, initial_posts_total=40, master_seed=7, population_size=12
        )
        corpus = data.provider_corpus
        system = ITagSystem(master_seed=7)
        provider = system.register_provider("p")
        project = system.create_project(provider, "campaign", budget=20)
        system.upload_resources(project, corpus)
        system.start_project(project, noise_model=data.dataset.noise_model)
        runtime = system.quality.runtime(project)
        runtime.approval_policy = ApproveAll()
        resources = system.database.table("resources")
        posts = system.database.table("posts")
        initial_posts = Query(resources).aggregate("n_posts", "sum")

        transaction = system.database.transaction
        entries = itertools.count()
        held, release = threading.Event(), threading.Event()

        @contextlib.contextmanager
        def first_commit_waits():
            if next(entries) == 0:  # writer A's task transaction
                held.set()
                assert release.wait(10.0)
            with transaction():
                yield

        system.database.transaction = first_commit_waits
        errors: list[str] = []

        def writer_a():
            try:
                system.run_project(project, tasks=1)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(repr(exc))

        late = threading.Thread(target=writer_a, name="writer-a")
        late.start()
        try:
            assert held.wait(10.0)
            (resource_a,) = [rid for rid, n in runtime.allocation.items() if n]
            system.promote_resource(project, resource_a)
            system.run_project(project, tasks=3)
            assert runtime.allocation[resource_a] >= 2
        finally:
            release.set()
            late.join(10.0)
            del system.database.transaction
        assert not late.is_alive() and not errors, errors

        row = system.projects.get(project)
        assert row["budget_spent"] == 4
        # all four posts were approved, and each row holds its own post
        assert Query(resources).aggregate("n_posts", "sum") == initial_posts + 4
        keys = [(post["resource_id"], post["seq"]) for post in Query(posts).all()]
        assert len(keys) == len(set(keys)) == initial_posts + 4
        for post in Query(posts).all():
            live = corpus.resource(post["resource_id"]).posts[post["seq"] - 1]
            assert (post["tagger_id"], post["tag_ids"]) == (
                live.tagger_id,
                list(live.tag_ids),
            )
        for resource in corpus:
            assert resources.get(resource.resource_id)["n_posts"] == resource.n_posts
        indexes = [spent for spent, _quality in system.quality_history(project)]
        assert indexes == sorted(set(indexes))
        assert indexes[-1] == row["budget_spent"]
        system.database.verify()
