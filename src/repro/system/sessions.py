"""Concurrent-session driver: parallel tagger sessions over one system.

The original iTag deployment served many tagger browsers concurrently
off MySQL; this driver reproduces that shape on the embedded store: N
**writer sessions** run platform tagging tasks concurrently from a
shared task pool (each task is one transaction — see
``ITagSystem._run_single``; overlapping table footprints are arbitrated
by the per-table lock manager, deadlock aborts are retried and
counted), while N **reader sessions** hammer the tagger-facing read
path, primarily on snapshot views
(:meth:`~repro.store.database.Database.read_view`): the
``open_projects`` planned join and the consistency sweeps below run
against the reader's frozen view, planned with the same indexed access
paths as the live tables (copy-on-write index snapshots) — the
snapshot-reader full-scan penalty is gone, and readers never observe a
half-applied transaction.  Each pass also runs the live-table
``open_projects`` join, keeping the lock-free live index read path
exercised under concurrent commits.

Every reader pass checks two isolation invariants on its view:

* **repeatable read** — re-running the same aggregates over the same
  view returns identical results, no matter what the writer commits in
  between;
* **transaction atomicity** — the project's ``budget_spent`` equals
  the number of per-task notifications in the *same* view: a task's
  writes land together or not at all, so a torn (non-snapshot) read
  would break the equality mid-transaction.

Violations are counted, not raised, so the report shows exactly how
(un)torn the read path is; the expected count is zero.

**Same-table mode** (``same_table=True``, ``itag store smoke
--same-table``): instead of running platform tagging tasks, every
writer session increments *its own row* of one shared counter table —
the per-row-locking hot path (IS + row S on the read, upgraded to IX +
row X on the write), where writers collide at the table but never at a
row.  The run ends with a consistency gate: each writer's counter must
equal its commit count.  Either mode finishes by capturing the lock
manager's counters (deadlocks, victims, timeouts, escalations) into
the report, so lock behavior is observable rather than inferred.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from ..errors import ProjectError
from ..store import Column, DataType, DeadlockError, In, Query, Schema

__all__ = ["SessionReport", "SessionDriver", "WriterStats"]

#: per-task notification kinds (exactly one is written per tagging task)
_TASK_KINDS = ("post_approved", "post_rejected")

#: shared counter table used by same-table writer mode (one row per
#: writer session, incremented under per-row locks)
SAME_TABLE_NAME = "session_counters"


@dataclass
class WriterStats:
    """Per-writer-session counters (one writer thread each)."""

    name: str = "writer-0"
    commits: int = 0
    aborts: int = 0
    deadlock_retries: int = 0


@dataclass
class SessionReport:
    """What a :class:`SessionDriver` run observed."""

    readers: int = 0
    writers: int = 1
    writer_tasks: int = 0
    reader_passes: int = 0
    torn_reads: int = 0
    atomicity_violations: int = 0
    deadlock_retries: int = 0
    same_table: bool = False
    writer_sessions: list[WriterStats] = field(default_factory=list)
    lock_stats: dict = field(default_factory=dict)
    #: durable-mode only: stats of the checkpoint taken after the run
    #: (timing, rewritten/reused split, live WAL segment counts)
    durability: dict = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def consistent(self) -> bool:
        return (
            self.torn_reads == 0
            and self.atomicity_violations == 0
            and not self.errors
        )

    def describe(self) -> str:
        mode = " [same-table rows]" if self.same_table else ""
        lines = [
            f"concurrent sessions: {self.writers} writer(s){mode} "
            f"({self.writer_tasks} tasks), "
            f"{self.readers} readers ({self.reader_passes} passes) "
            f"in {self.elapsed_seconds:.2f}s",
            f"  torn reads: {self.torn_reads}",
            f"  atomicity violations: {self.atomicity_violations}",
            f"  deadlock retries: {self.deadlock_retries}",
        ]
        for stats in self.writer_sessions:
            lines.append(
                f"  {stats.name}: {stats.commits} commits, "
                f"{stats.aborts} aborts, "
                f"{stats.deadlock_retries} deadlock retries"
            )
        if self.lock_stats:
            lines.append(
                "  lock manager: "
                f"{self.lock_stats.get('deadlocks_detected', 0)} deadlocks, "
                f"{self.lock_stats.get('victims', 0)} victims, "
                f"{self.lock_stats.get('timeouts', 0)} timeouts, "
                f"{self.lock_stats.get('escalations', 0)} escalations"
            )
        if self.durability:
            lines.append(
                "  durability: checkpoint "
                f"gen {self.durability.get('generation', 0)} in "
                f"{self.durability.get('checkpoint_ms', 0.0):.1f} ms, "
                f"{self.durability.get('tables_rewritten', 0)} rewritten / "
                f"{self.durability.get('tables_reused', 0)} reused, "
                f"{self.durability.get('wal_records_dropped', 0)} wal records "
                f"pruned, {self.durability.get('wal_segments', 0)} segment(s) "
                f"live after {self.durability.get('rotations', 0)} rotation(s)"
            )
        for message in self.errors:
            lines.append(f"  error: {message}")
        lines.append(
            "  verdict: consistent" if self.consistent else "  verdict: INCONSISTENT"
        )
        return "\n".join(lines)


class SessionDriver:
    """Run N writer sessions against N snapshot-reader sessions.

    >>> driver = SessionDriver(system, project_id, readers=3,
    ...                        writer_tasks=50, writers=2)
    >>> report = driver.run()
    >>> assert report.consistent

    ``writer_tasks`` is the *shared* task pool: the writer sessions
    claim tasks from it until it drains (or the project leaves the
    running state).  With ``writers > 1`` the sessions race on the same
    project tables; deadlock aborts inside a task are retried by the
    system (counted per writer), and races the engine rejects by design
    — a spend that would exceed the budget, a double completion
    transition — are counted as aborts, not errors.
    """

    def __init__(
        self,
        system,
        project_id: int,
        *,
        readers: int = 3,
        writer_tasks: int = 50,
        writers: int = 1,
        same_table: bool = False,
    ) -> None:
        self._system = system
        self._project_id = project_id
        self._readers = max(1, readers)
        self._writers = max(1, writers)
        self._writer_tasks = writer_tasks
        self._tasks_left = writer_tasks
        self._same_table = same_table
        self._task_lock = threading.Lock()
        self._stop = threading.Event()
        self._report_lock = threading.Lock()

    # ------------------------------------------------------------------

    def run(self) -> SessionReport:
        report = SessionReport(
            readers=self._readers,
            writers=self._writers,
            same_table=self._same_table,
        )
        self._tasks_left = self._writer_tasks
        if self._same_table:
            self._prepare_counters()
        start = time.perf_counter()
        readers = [
            threading.Thread(
                target=self._reader_session, args=(report,), name=f"tagger-{index}"
            )
            for index in range(self._readers)
        ]
        writers = []
        writer_target = (
            self._counter_session if self._same_table else self._writer_session
        )
        for index in range(self._writers):
            stats = WriterStats(name=f"writer-{index}")
            report.writer_sessions.append(stats)
            writers.append(
                threading.Thread(
                    target=writer_target,
                    args=(report, stats, index),
                    name=stats.name,
                )
            )
        for thread in readers:
            thread.start()
        try:
            for thread in writers:
                thread.start()
            for thread in writers:
                thread.join(timeout=60.0)
        finally:
            self._stop.set()
        for thread in readers:
            thread.join(timeout=30.0)
        report.elapsed_seconds = time.perf_counter() - start
        report.deadlock_retries = sum(
            stats.deadlock_retries for stats in report.writer_sessions
        )
        if self._same_table:
            self._check_counters(report)
        database = self._system.database
        report.lock_stats = dict(database.lock_manager.stats())
        if database.directory is not None and database.wal is not None:
            # durable run: take an incremental checkpoint so the report
            # surfaces checkpoint timing and live WAL segment counts
            wal_stats = database.wal.stats()
            checkpoint_stats = database.checkpoint()
            report.durability = {
                "generation": checkpoint_stats["generation"],
                "checkpoint_ms": checkpoint_stats["duration_s"] * 1000.0,
                "tables_rewritten": checkpoint_stats["tables_rewritten"],
                "tables_reused": checkpoint_stats["tables_reused"],
                "wal_records_dropped": checkpoint_stats["wal_records_dropped"],
                "wal_segments": checkpoint_stats["wal_segments"],
                "rotations": wal_stats.get("rotations", 0),
            }
        return report

    # -- same-table writer mode ----------------------------------------

    def _prepare_counters(self) -> None:
        """Create (or reset) the shared counter table: one row per
        writer session, all starting at zero."""
        database = self._system.database
        if not database.has_table(SAME_TABLE_NAME):
            database.create_table(
                SAME_TABLE_NAME,
                Schema(
                    [Column("id", DataType.INT), Column("n", DataType.INT)],
                    primary_key="id",
                ),
            )
        table = database.table(SAME_TABLE_NAME)
        for index in range(self._writers):
            table.upsert({"id": index + 1, "n": 0})

    def _check_counters(self, report: SessionReport) -> None:
        """Consistency gate: each writer's counter row must equal its
        commit count — a lost update under per-row locking would leave
        the counter short."""
        table = self._system.database.table(SAME_TABLE_NAME)
        for index, stats in enumerate(report.writer_sessions):
            landed = table.get(index + 1)["n"]
            if landed != stats.commits:
                report.errors.append(
                    f"{stats.name}: counter row shows {landed} increments "
                    f"for {stats.commits} commits (lost update)"
                )

    def _counter_session(
        self, report: SessionReport, stats: WriterStats, index: int
    ) -> None:
        """Same-table writer: read-then-increment its own row of the
        shared counter table, one transaction per claimed task.  The
        read takes IS + row S, the write upgrades to IX + row X —
        writers share the table but never a row, so the lock manager
        admits every increment concurrently."""
        database = self._system.database
        table = database.table(SAME_TABLE_NAME)
        pk = index + 1
        try:
            while self._claim_task():
                try:
                    with database.transaction():
                        current = table.get(pk)["n"]
                        table.update(pk, {"n": current + 1})
                except DeadlockError:
                    with self._report_lock:
                        stats.aborts += 1
                    self._return_task()
                    continue
                with self._report_lock:
                    stats.commits += 1
                    report.writer_tasks += 1
        # session boundary: any failure must land in the report, not
        # kill the thread silently  itag-lint: disable=except-hygiene
        except Exception as exc:  # noqa: BLE001 - surfaced in the report
            with self._report_lock:
                report.errors.append(f"{stats.name}: {exc!r}")

    # ------------------------------------------------------------------

    def _claim_task(self) -> bool:
        with self._task_lock:
            if self._tasks_left <= 0:
                return False
            self._tasks_left -= 1
            return True

    def _return_task(self) -> None:
        with self._task_lock:
            self._tasks_left += 1

    def _writer_session(
        self, report: SessionReport, stats: WriterStats, index: int
    ) -> None:
        system = self._system
        try:
            while self._claim_task():
                state = system.projects.get(self._project_id)["state"]
                if state != "running":
                    self._return_task()
                    return
                try:
                    system.run_project(self._project_id, tasks=1)
                except DeadlockError:
                    # the system's retry budget is exhausted: count the
                    # abort and put the task back for another writer
                    with self._report_lock:
                        stats.aborts += 1
                    self._return_task()
                    continue
                except ProjectError:
                    # an engine-rejected race with a concurrent writer:
                    # over-budget spend, double completion transition,
                    # or the project left "running" mid-task — all
                    # rolled back cleanly, so the task is just lost to
                    # this writer
                    with self._report_lock:
                        stats.aborts += 1
                    return
                retries = getattr(system, "last_task_retries", 0)
                with self._report_lock:
                    stats.commits += 1
                    stats.deadlock_retries += retries
                    report.writer_tasks += 1
        # session boundary: any failure must land in the report, not
        # kill the thread silently  itag-lint: disable=except-hygiene
        except Exception as exc:  # noqa: BLE001 - surfaced in the report
            with self._report_lock:
                report.errors.append(f"{stats.name}: {exc!r}")

    def _reader_session(self, report: SessionReport) -> None:
        database = self._system.database
        project_id = self._project_id
        while True:
            stopping = self._stop.is_set()
            try:
                view = database.read_view()
                first = self._sweep(view, project_id)
                second = self._sweep(view, project_id)
                torn = first != second
                spent, task_notifications, _resource_posts = first
                atomic = spent == task_notifications
                # tagger read path under writer load: the planned
                # projects-users join over this reader's own snapshot,
                # plus the live-table variant so lock-free live index
                # reads stay exercised under concurrent commits too
                self._system.open_projects(view=view)
                self._system.open_projects()
                with self._report_lock:
                    report.reader_passes += 1
                    if torn:
                        report.torn_reads += 1
                    if not atomic:
                        report.atomicity_violations += 1
            # session boundary: reader failures are counted as report
            # errors, never raised  itag-lint: disable=except-hygiene
            except Exception as exc:  # noqa: BLE001 - surfaced in the report
                with self._report_lock:
                    report.errors.append(f"reader: {exc!r}")
                return
            if stopping:
                return

    @staticmethod
    def _sweep(view, project_id: int) -> tuple[int, int, int]:
        """One consistency sweep over a frozen view: (budget_spent,
        per-task notifications, resource post total).

        The notification count plans an ``IndexIn`` over the view's
        snapshot of the ``kind`` hash index — snapshot reads keep index
        speed instead of degrading to full scans.
        """
        project = view.table("projects").get(project_id)
        notifications = (
            Query(view.table("notifications"))
            .where(In("kind", _TASK_KINDS))
            .count()
        )
        resource_posts = (
            Query(view.table("resources")).aggregate("n_posts", "sum") or 0
        )
        return int(project["budget_spent"]), int(notifications), int(resource_posts)
