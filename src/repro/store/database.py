"""The database object: tables, transactions, durability, recovery.

Two ways to run one:

* **In-memory** (the default): ``Database("itag")`` — tables live in
  process memory; an optional WAL can be attached by hand, and
  :meth:`~Database.to_snapshot` returns a JSON image, but nothing is
  checkpointed.
* **Managed durability directory**: ``Database.open(dir)`` owns a
  directory holding checkpoint generations plus a ``wal.log``
  *segment directory* and implements crash recovery — load the newest
  valid checkpoint, replay only the committed WAL suffix (records
  with ``lsn`` greater than the checkpoint's ``wal_lsn``), and
  discard torn tail records instead of raising.  ``close()`` flushes
  and releases the log.

  Checkpoints are **incremental**: generation ``N`` is a manifest
  (``checkpoint-NNNNNN.manifest.json``) naming one snapshot file per
  table (``table-<name>-NNNNNN.json``), and only tables whose
  :attr:`~repro.store.table.Table.version` counter moved since the
  previous checkpoint are rewritten — clean tables re-reference the
  file the previous generation already wrote, so checkpoint cost
  tracks the *dirty fraction*, not total database size.  Every file
  is published atomically (temp + ``os.replace``); the manifest
  rename is the commit point, and the WAL is pruned (whole covered
  segments deleted) only after it lands.  Retention keeps
  ``CHECKPOINT_KEEP`` generations; table files referenced by no
  retained manifest are garbage-collected, and unreadable generations
  are quarantined to ``*.corrupt`` so they never count against
  retention.  A directory in an older layout (a single-file
  ``checkpoint-NNNNNN.json`` snapshot or a single-file ``wal.log``)
  is refused on open, before any file is touched.

Concurrency model (multi-writer / multi-reader, strict 2PL):

* Transactions run **concurrently**: each takes hierarchical locks
  from the database's :class:`~repro.store.lockmgr.LockManager` as it
  touches data — intention locks (IS/IX) at table granularity plus
  row-granular S/X locks keyed by ``(table, pk)``, escalated to a full
  table lock past a per-table row-lock threshold — so transactions
  writing disjoint rows of the *same* table commit in parallel, while
  same-row (or row-vs-scan) conflicts serialize.  Deadlocks abort the
  youngest participant with
  :class:`~repro.store.errors.DeadlockError`; the victim rolls back
  cleanly and may retry.  The same thread nesting transactions is
  still an error.
* Commit holds every lock through the WAL append (released only
  after the record is durable), so the WAL's group-commit pipeline
  amortizes one fsync across *independent* transactions — including
  row-disjoint writers of one table.
* Autocommit mutations take an ephemeral IX + row X lock on the one
  row they touch (table X for table-wide changes) and are journaled
  as single-change commit records.
* Readers never block writers: :meth:`read_view` returns a
  copy-on-write snapshot of every table, captured under the activity
  barrier at a transaction boundary, for torn-free long scans and
  joins.  DDL and checkpoints drain the barrier the same way.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from .errors import StoreError, TransactionError, UnknownTableError
from .locking import ActivityBarrier
from .lockmgr import (
    DEFAULT_LOCK_TIMEOUT,
    LOCK_EXCLUSIVE,
    LOCK_INTENT_EXCLUSIVE,
    LockManager,
)
from .schema import Schema
from .table import ChangeEvent, Table
from .transaction import Transaction
from .wal import DEFAULT_FSYNC_INTERVAL, DEFAULT_SEGMENT_BYTES, WriteAheadLog

__all__ = ["Database", "RecoveryReport", "CHECKPOINT_KEEP"]

#: How many checkpoint generations to keep: the newest plus one
#: fallback (atomic replace makes a corrupt newest nearly impossible,
#: but a fallback costs one file).
CHECKPOINT_KEEP = 2

#: Generation file names: generation ``N`` is
#: ``checkpoint-NNNNNN.manifest.json`` plus the ``table-*.json`` files
#: it references.
_MANIFEST_SUFFIX = ".manifest.json"
_CHECKPOINT_PREFIX = "checkpoint-"


def _generation_of(path: Path) -> int | None:
    """Parse a manifest file name into its generation number; None for
    any other file (quarantined ``.corrupt``, stray temp files,
    unparseable names)."""
    name = path.name
    if not (name.startswith(_CHECKPOINT_PREFIX) and name.endswith(_MANIFEST_SUFFIX)):
        return None
    try:
        return int(name[len(_CHECKPOINT_PREFIX):-len(_MANIFEST_SUFFIX)])
    except ValueError:
        return None


def _table_file_name(table_name: str, generation: int) -> str:
    return f"table-{table_name}-{generation:06d}.json"


@dataclass
class RecoveryReport:
    """What :meth:`Database.open` found and did."""

    directory: str
    checkpoint_path: str | None = None
    checkpoint_lsn: int = 0
    checkpoint_generation: int = 0
    #: table snapshot files the loaded generation composed
    checkpoint_table_files: int = 0
    records_replayed: int = 0
    changes_applied: int = 0
    torn_tail: str | None = None
    repaired_bytes: int = 0
    wal_segments: int = 0
    skipped_checkpoints: list[str] = field(default_factory=list)

    def describe(self) -> str:
        lines = [f"recovered database from {self.directory}"]
        if self.checkpoint_path:
            lines.append(
                f"  checkpoint: {self.checkpoint_path} (wal_lsn "
                f"{self.checkpoint_lsn}, {self.checkpoint_table_files} table files)"
            )
        else:
            lines.append("  checkpoint: none (replaying the full log)")
        for name in self.skipped_checkpoints:
            lines.append(f"  skipped unreadable checkpoint: {name}")
        lines.append(
            f"  replayed {self.records_replayed} committed records "
            f"({self.changes_applied} changes) from "
            f"{self.wal_segments} wal segment(s)"
        )
        if self.torn_tail:
            lines.append(
                f"  discarded torn tail: {self.torn_tail} "
                f"({self.repaired_bytes} bytes)"
            )
        else:
            lines.append("  torn tail: none")
        return "\n".join(lines)


class Database:
    """An embedded relational database with optional durability.

    >>> db = Database("itag")                      # in-memory
    >>> db = Database.open("state/")               # durable directory
    >>> with db.transaction():
    ...     db.table("resources").insert({"name": "url-1", ...})
    """

    def __init__(
        self, name: str = "db", *, lock_timeout: float = DEFAULT_LOCK_TIMEOUT
    ) -> None:
        self.name = name
        self._tables: dict[str, Table] = {}
        #: per-table S/X locks arbitrating transaction conflicts
        self._lockmgr = LockManager(timeout=lock_timeout)
        #: activity accounting: transactions and autocommit mutations
        #: register; view capture, DDL and checkpoints drain it
        self._barrier = ActivityBarrier()
        #: one monotonic owner-id space shared by transactions and
        #: ephemeral autocommit owners — the lock manager's "youngest
        #: victim" rule compares these
        self._owner_counter = itertools.count(1)
        self._active_txns: dict[int, Transaction] = {}
        self._registry_lock = threading.Lock()
        self._local = threading.local()
        self._wal: WriteAheadLog | None = None
        self._recovering = False
        self._directory: Path | None = None
        self._checkpoint_index = 0
        #: the WAL LSN covered by the *previous* checkpoint generation;
        #: the log keeps records above it so a fallback to that
        #: generation can still replay forward (never-lossy fallback)
        self._covered_lsn = 0
        #: path of the newest checkpoint written by this process (None
        #: until the first checkpoint())
        self.last_checkpoint_path: Path | None = None
        #: incremental-checkpoint baseline: per-table ``version`` at
        #: the moment the last generation was taken, and the table file
        #: that generation references.  A table is *clean* (file
        #: reused, not rewritten) iff its live version still equals the
        #: baseline AND a baseline file exists.
        self._checkpoint_versions: dict[str, int] = {}
        self._checkpoint_files: dict[str, str] = {}
        self.recovery: RecoveryReport | None = None

    # ------------------------------------------------------------------
    # durability directory
    # ------------------------------------------------------------------

    @classmethod
    def open(
        cls,
        directory: str | Path,
        *,
        name: str | None = None,
        fsync: str = "interval",
        fsync_interval: float = DEFAULT_FSYNC_INTERVAL,
        lock_timeout: float = DEFAULT_LOCK_TIMEOUT,
        wal_segment_bytes: int = DEFAULT_SEGMENT_BYTES,
    ) -> "Database":
        """Open (or create) a managed durability directory.

        Loads the newest valid checkpoint generation — a manifest plus
        its per-table snapshot files — replays the committed WAL suffix
        on top (torn tail records are discarded and the log is repaired
        in place), attaches the log, and returns the database with a
        :class:`RecoveryReport` in :attr:`recovery`.  A generation
        whose manifest or any referenced table file is unreadable is
        quarantined to ``*.corrupt`` and recovery falls back to the
        next-newest one, whose WAL suffix was retained (never-lossy
        fallback).

        Raises :class:`~repro.store.errors.StoreError`, before touching
        any file, when the directory holds an older layout: a
        single-file ``checkpoint-*.json`` snapshot (the WAL below its
        ``wal_lsn`` may already be pruned, so skipping it would lose
        committed rows) or a single-file ``wal.log``.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        report = RecoveryReport(directory=str(directory))

        legacy: list[str] = []
        if (directory / "wal.log").is_file():
            legacy.append("wal.log")
        candidates: list[tuple[int, Path]] = []
        for path in directory.glob("checkpoint-*.json"):
            if not path.name.endswith(_MANIFEST_SUFFIX):
                legacy.append(path.name)
                continue
            index = _generation_of(path)
            if index is None:
                report.skipped_checkpoints.append(path.name)
                continue
            candidates.append((index, path))
        if legacy:
            raise StoreError(
                f"{directory}: unsupported legacy layout "
                f"({', '.join(sorted(legacy))}); only manifest checkpoints "
                "and a segmented wal.log directory can be opened"
            )
        max_index = max((index for index, _path in candidates), default=0)

        database: "Database" | None = None
        checkpoint_lsn = 0
        checkpoint_files: dict[str, str] = {}
        for index, path in sorted(candidates, reverse=True):
            # materialize inside the try: a generation that parses as
            # JSON but is structurally broken (or is missing a table
            # file) must fall back to the older generation, not abort
            # recovery
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
                lsn = int(payload.get("wal_lsn", 0))
                files = {
                    str(table_name): str(info["file"])
                    for table_name, info in payload["tables"].items()
                }
                tables = {
                    table_name: json.loads(
                        (directory / file_name).read_text(encoding="utf-8")
                    )
                    for table_name, file_name in files.items()
                }
                database = cls.from_snapshot(
                    {"name": payload.get("name", "db"), "tables": tables}
                )
                checkpoint_files = files
                checkpoint_lsn = lsn
                report.checkpoint_path = str(path)
                report.checkpoint_lsn = lsn
                report.checkpoint_generation = index
                report.checkpoint_table_files = len(files)
                break
            except Exception:  # noqa: BLE001 - any unreadable generation
                report.skipped_checkpoints.append(path.name)
                # Quarantine: an unreadable generation must not count
                # toward CHECKPOINT_KEEP, or the next prune would keep
                # it and delete the readable fallback instead.  (Table
                # files it referenced become unreferenced and are
                # garbage-collected by the next checkpoint's prune.)
                try:
                    path.rename(path.with_name(path.name + ".corrupt"))
                except OSError:  # pragma: no cover - concurrent cleanup
                    pass

        if database is None:
            database = cls(name or directory.name)
        if name is not None:
            database.name = name
        database._lockmgr.timeout = float(lock_timeout)

        # Incremental baseline: capture per-table versions *before* WAL
        # replay, so any table the replay touches counts as dirty at
        # the next checkpoint (its on-disk file no longer matches).
        database._checkpoint_files = checkpoint_files
        database._checkpoint_versions = {
            table_name: table.version
            for table_name, table in database._tables.items()
        }

        wal = WriteAheadLog(
            directory / "wal.log",
            fsync=fsync,
            fsync_interval=fsync_interval,
            segment_bytes=wal_segment_bytes,
        )
        wal.ensure_sequence_at_least(checkpoint_lsn)
        report.torn_tail = wal.torn_tail
        report.repaired_bytes = wal.repaired_bytes
        report.wal_segments = wal.segment_count
        committed = wal.records()
        pending = [record for record in committed if record.lsn > checkpoint_lsn]
        report.records_replayed = len(pending)
        report.changes_applied = wal.apply_records(database, pending)

        database._directory = directory
        database._checkpoint_index = max_index
        database._covered_lsn = checkpoint_lsn
        database.attach_wal(wal)
        database.recovery = report
        return database

    @property
    def directory(self) -> Path | None:
        """The managed durability directory, or None when in-memory."""
        return self._directory

    def close(self) -> None:
        """Flush and close the attached WAL (idempotent).  The
        in-memory state stays usable, but is no longer journaled."""
        wal = self.detach_wal()
        if wal is not None:
            wal.close()

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------

    def create_table(self, name: str, schema: Schema) -> Table:
        self._reject_ddl_in_transaction("create_table")
        # the activity barrier serializes DDL with checkpoint/
        # to_snapshot/read_view and drains in-flight transactions, which
        # iterate or mutate the table registry
        with self._barrier.exclusive():
            if name in self._tables:
                raise TransactionError(f"table {name!r} already exists")
            table = Table(name, schema)
            table.add_listener(self._on_change)
            table.set_ddl_listener(self._on_table_ddl)
            table.set_view_barrier(self._view_barrier)
            table.set_write_barrier(self._write_barrier)
            table.set_read_barrier(self._read_barrier)
            self._tables[name] = table
            self._log_ddl(
                {"op": "create_table", "table": name, "schema": schema.to_dict()}
            )
            return table

    def drop_table(self, name: str) -> None:
        self._reject_ddl_in_transaction("drop_table")
        with self._barrier.exclusive():
            if name not in self._tables:
                raise UnknownTableError(f"no table {name!r} to drop")
            # schema change: queries holding the table object must replan
            self._tables[name].plan_cache.bump()
            del self._tables[name]
            # A table recreated under the same name starts a fresh
            # version counter that could coincide with the baseline —
            # drop the baseline so it can never reuse the old file.
            self._checkpoint_versions.pop(name, None)
            self._checkpoint_files.pop(name, None)
            self._log_ddl({"op": "drop_table", "table": name})

    def _reject_ddl_in_transaction(self, op: str) -> None:
        """Table DDL autocommits its own WAL record, so inside an open
        transaction it would journal *before* (and apply independently
        of) the transaction's commit record — a committed log that
        replays out of order, and an undo log that cannot restore a
        dropped table.  Forbid it, like classic embedded engines."""
        if self._current_transaction() is not None:
            raise TransactionError(
                f"{op} inside a transaction is not supported; commit or "
                "roll back first"
            )

    def table(self, name: str) -> Table:
        table = self._tables.get(name)
        if table is None:
            raise UnknownTableError(
                f"unknown table {name!r}; have {sorted(self._tables)}"
            )
        return table

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def _on_table_ddl(self, op: str, table_name: str, column: str, kind: str | None) -> None:
        ddl: dict[str, Any] = {"op": op, "table": table_name, "column": column}
        if kind is not None:
            ddl["kind"] = kind
        self._log_ddl(ddl)

    def _log_ddl(self, ddl: dict[str, Any]) -> None:
        if self._wal is None or self._recovering or self._wal_suppressed:
            return
        self._wal.log_ddl(ddl)

    def _apply_ddl(self, ddl: dict[str, Any]) -> None:
        """Apply one replayed DDL record (idempotent: recovery may see
        DDL that a later checkpoint already materialized)."""
        op = ddl["op"]
        name = ddl["table"]
        if op == "create_table":
            if not self.has_table(name):
                self.create_table(name, Schema.from_dict(ddl["schema"]))
        elif op == "drop_table":
            if self.has_table(name):
                self.drop_table(name)
        elif op == "create_index":
            if self.has_table(name):
                self.table(name).create_index(ddl["column"], kind=ddl.get("kind", "hash"))
        elif op == "drop_index":
            table = self._tables.get(name)
            if table is not None and ddl["column"] in table.index_columns():
                table.drop_index(ddl["column"])
        else:
            raise TransactionError(f"unknown DDL op {op!r} in WAL record")

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------

    def transaction(self) -> Transaction:
        """Create a transaction; use as a context manager (see Transaction)."""
        return Transaction(self)

    @property
    def in_transaction(self) -> bool:
        """True while *any* transaction is active on the database."""
        return bool(self._active_txns)

    @property
    def lock_manager(self) -> LockManager:
        """The per-table lock manager (introspection / stats)."""
        return self._lockmgr

    def _current_transaction(self) -> Transaction | None:
        """This thread's active transaction, or None."""
        return getattr(self._local, "txn", None)

    def _begin_transaction(self, transaction: Transaction) -> None:
        if self._current_transaction() is not None:
            raise TransactionError(
                f"database {self.name!r}: nested transactions are not supported"
            )
        # Register as a barrier activity: DDL / checkpoints / view
        # capture drain active transactions; other transactions do NOT
        # serialize here — conflicts are arbitrated per table by the
        # lock manager.
        self._barrier.enter()
        transaction._txn_id = next(self._owner_counter)
        with self._registry_lock:
            self._active_txns[transaction._txn_id] = transaction
        self._local.txn = transaction

    def _end_transaction(self, transaction: Transaction) -> None:
        if self._current_transaction() is not transaction:
            raise TransactionError("ending a transaction that is not active")
        self._local.txn = None
        with self._registry_lock:
            self._active_txns.pop(transaction._txn_id, None)
        # 2PL release point: commit calls this only after its WAL record
        # is durable, rollback only after memory is fully restored.
        self._lockmgr.release_all(transaction._txn_id)
        self._barrier.leave()

    # ------------------------------------------------------------------
    # change routing (undo log + WAL)
    # ------------------------------------------------------------------

    @property
    def _wal_suppressed(self) -> bool:
        return getattr(self._local, "suppress_wal", False)

    @contextmanager
    def _no_wal(self) -> Iterator[None]:
        """Suppress journaling on this thread (rollback inverses must
        never reach the log — they compensate changes that were never
        journaled)."""
        previous = getattr(self._local, "suppress_wal", False)
        self._local.suppress_wal = True
        try:
            yield
        finally:
            self._local.suppress_wal = previous

    def _on_change(self, event: ChangeEvent) -> None:
        transaction = self._current_transaction()
        if transaction is not None:
            transaction._observe(event)
            return
        if self._wal is not None and not self._recovering and not self._wal_suppressed:
            # Autocommit: one single-change commit record.  If the log
            # rejects it, compensate the already-applied change so the
            # caller's exception means what it says — memory and log
            # must agree that the change did not happen.
            try:
                self._wal.commit_transaction([event])
            except Exception:
                op, table_name, pk, before, _after = event
                inverse, row = {
                    "insert": ("delete", None),
                    "update": ("update", before),
                    "delete": ("insert", before),
                }[op]
                with self._no_wal():
                    self.table(table_name).apply(inverse, pk, row)
                raise

    def _log_commit(self, changes: list[ChangeEvent]) -> None:
        """Journal one committed transaction as a single commit-scoped
        record (called by Transaction.commit while still serialized)."""
        if self._wal is None or self._recovering or not changes:
            return
        self._wal.commit_transaction(changes)

    # ------------------------------------------------------------------
    # WAL
    # ------------------------------------------------------------------

    def attach_wal(self, wal: WriteAheadLog) -> None:
        """Start journaling committed changes to ``wal``.

        Logging is commit-scoped: a transaction becomes one record at
        commit time, an aborted transaction never touches the log, and
        autocommit changes become single-change records.
        """
        self._wal = wal

    def detach_wal(self) -> WriteAheadLog | None:
        wal, self._wal = self._wal, None
        return wal

    @property
    def wal(self) -> WriteAheadLog | None:
        return self._wal

    def checkpoint(self) -> dict[str, Any]:
        """Write one incremental checkpoint generation into the managed
        directory, then prune the covered log.

        Each table whose ``version`` moved since the last checkpoint
        gets a fresh ``table-<name>-NNNNNN.json`` snapshot file; clean
        tables re-reference the file the previous generation wrote.
        The manifest (``checkpoint-NNNNNN.manifest.json``) naming the
        complete file set is written last — its atomic rename is the
        commit point — and only then is the WAL pruned, whole covered
        segments at a time.  Returns a stats dict (generation, path,
        wal_lsn, tables rewritten/reused, bytes, wal records dropped,
        live wal segments, duration).

        A crash between any two steps is safe: table files land before
        the manifest that references them, and the previous checkpoint
        plus the unpruned log recover the same state (replay is
        idempotent).  Pruning keeps every record above the *previous*
        generation's ``wal_lsn``, so if the newest generation is ever
        unreadable, recovery falls back to the older one and replays
        forward without losing a single committed record (matching
        ``CHECKPOINT_KEEP`` retained generations).

        Serializes against transactions so the snapshot sits at a
        commit boundary.  Raises :class:`TransactionError` inside a
        transaction, on an in-memory database (nothing to persist into;
        :meth:`to_snapshot` returns the image) and after :meth:`close`.
        """
        if self._current_transaction() is not None:
            raise TransactionError("checkpoint inside a transaction is not allowed")
        if self._directory is None:
            raise TransactionError(
                f"database {self.name!r}: checkpoint needs a managed durability "
                "directory (Database.open); use to_snapshot() for an in-memory image"
            )
        if self._wal is None:
            # After close() the WAL sequence is unknown; a snapshot
            # stamped wal_lsn=0 would make recovery replay the full
            # retained log *over* it and regress the state.
            raise TransactionError(
                f"database {self.name!r}: checkpoint on a closed durable "
                "database (reopen with Database.open first)"
            )
        with self._barrier.exclusive():
            # Read the LSN *before* snapshotting: every record at or
            # below it was applied before the snapshot began, so the
            # snapshot covers it; later records survive the truncation.
            return self._write_generation(self._wal.sequence)

    def _write_generation(self, covered_lsn: int) -> dict[str, Any]:
        """Write one checkpoint generation into the managed directory
        (caller holds the exclusive barrier) and prune the covered log.
        Returns the stats dict described by :meth:`checkpoint`."""
        from .persist import write_text_atomic

        started = time.perf_counter()
        index = self._checkpoint_index + 1
        bytes_written = 0
        files: dict[str, str] = {}
        rewritten = reused = 0
        for table_name in sorted(self._tables):
            table = self._tables[table_name]
            previous = self._checkpoint_files.get(table_name)
            if (
                previous is not None
                and self._checkpoint_versions.get(table_name) == table.version
            ):
                files[table_name] = previous
                reused += 1
                continue
            file_name = _table_file_name(table_name, index)
            text = json.dumps(self._snapshot_table(table), sort_keys=True)
            write_text_atomic(self._directory / file_name, text)
            bytes_written += len(text)
            files[table_name] = file_name
            rewritten += 1
        manifest = {
            "format": "checkpoint-manifest",
            "name": self.name,
            "generation": index,
            "wal_lsn": covered_lsn,
            "tables": {
                table_name: {
                    "file": file_name,
                    "version": self._tables[table_name].version,
                }
                for table_name, file_name in files.items()
            },
        }
        target = self._directory / f"{_CHECKPOINT_PREFIX}{index:06d}{_MANIFEST_SUFFIX}"
        text = json.dumps(manifest, sort_keys=True)
        # commit point: the generation exists iff this rename lands
        write_text_atomic(target, text)
        bytes_written += len(text)
        self._checkpoint_files = files
        self._checkpoint_versions = {
            table_name: table.version
            for table_name, table in self._tables.items()
        }
        self._checkpoint_index = index
        self.last_checkpoint_path = target
        # keep the suffix the previous (still-retained) generation
        # would need, so falling back to it is never lossy
        records_dropped = self._wal.truncate_through(self._covered_lsn)
        self._covered_lsn = covered_lsn
        self._prune_checkpoints()
        return {
            "generation": index,
            "path": str(target),
            "wal_lsn": covered_lsn,
            "tables_total": len(self._tables),
            "tables_rewritten": rewritten,
            "tables_reused": reused,
            "bytes_written": bytes_written,
            "wal_records_dropped": records_dropped,
            "wal_segments": self._wal.segment_count,
            "duration_s": time.perf_counter() - started,
        }

    def _prune_checkpoints(self) -> None:
        """Retention: keep the newest ``CHECKPOINT_KEEP`` generations,
        delete older manifests, and garbage-collect ``table-*.json``
        files referenced by no retained manifest."""
        generations: dict[int, Path] = {}
        for candidate in self._directory.glob("checkpoint-*"):
            index = _generation_of(candidate)
            if index is not None:
                generations[index] = candidate
        ordered = sorted(generations)
        retained, stale = ordered[-CHECKPOINT_KEEP:], ordered[:-CHECKPOINT_KEEP]
        for index in stale:
            try:
                generations[index].unlink()
            except OSError:  # pragma: no cover - concurrent cleanup
                pass
        referenced: set[str] = set()
        for index in retained:
            try:
                manifest = json.loads(generations[index].read_text(encoding="utf-8"))
                for info in manifest.get("tables", {}).values():
                    referenced.add(str(info["file"]))
            # an unreadable retained manifest means we cannot know
            # what it references: skip GC entirely rather than
            # risk deleting a table file it still needs
            # itag-lint: disable=except-hygiene
            except Exception:
                return
        for table_file in self._directory.glob("table-*.json"):
            if table_file.name not in referenced:
                try:
                    table_file.unlink()
                except OSError:  # pragma: no cover - concurrent cleanup
                    pass

    # ------------------------------------------------------------------
    # snapshot-isolated reads
    # ------------------------------------------------------------------

    @contextmanager
    def _view_barrier(self) -> Iterator[None]:
        """Drain in-flight activities while a view is captured, so the
        capture sits at a transaction boundary.  A thread with an
        active transaction passes through (it sees its own writes)."""
        if self._current_transaction() is not None:
            yield
            return
        with self._barrier.exclusive():
            yield

    @contextmanager
    def _write_barrier(self, table_name: str, pk: Any = None) -> Iterator[None]:
        """Write admission, taken by every table mutation *before* the
        table's RWLock (lock order is fixed database-wide: activity
        barrier → lock manager → table lock — row-lock waits park in
        the manager and never hold the physical table lock).

        ``pk`` is the primary key of the one row being mutated, or
        ``None`` for table-wide mutations (index DDL).

        * Inside a transaction: take the transaction's IX table lock
          plus an X row lock on ``pk`` (full table X when ``pk`` is
          None) — held until commit is durable.
        * Autocommit: register as a barrier activity and take the same
          locks under a fresh ephemeral owner id for the duration of
          the mutation envelope, so an autocommit write can never
          interleave with an open transaction on the same row — whose
          rollback would otherwise replay stale before-images over the
          autocommitted (and already journaled) change.  Nested
          mutations on the same thread (``upsert`` fanning into
          ``insert``, the autocommit journal-failure compensation)
          reuse the outer owner.
        """
        transaction = self._current_transaction()
        if transaction is not None:
            if pk is None:
                transaction._lock_write(table_name)
            else:
                transaction._lock_write_row(table_name, pk)
            yield
            return
        owner = getattr(self._local, "auto_owner", None)
        if owner is not None:
            # nested autocommit mutation: same ephemeral owner (no-op
            # re-acquire when it is the same row or table)
            self._acquire_auto(owner, table_name, pk)
            yield
            return
        with self._barrier.activity():
            owner = next(self._owner_counter)
            self._local.auto_owner = owner
            try:
                self._acquire_auto(owner, table_name, pk)
                yield
            finally:
                self._local.auto_owner = None
                self._lockmgr.release_all(owner)

    def _acquire_auto(self, owner: int, table_name: str, pk: Any) -> None:
        """Lock footprint for one autocommit mutation: IX + row X on
        ``pk``, or a full table X when ``pk`` is None (table-wide)."""
        if pk is None:
            self._lockmgr.acquire(owner, table_name, LOCK_EXCLUSIVE)
            return
        granted = self._lockmgr.acquire(
            owner, table_name, LOCK_INTENT_EXCLUSIVE
        )
        if granted != LOCK_EXCLUSIVE:
            self._lockmgr.acquire_row(owner, table_name, pk, LOCK_EXCLUSIVE)

    def _read_barrier(self, table_name: str, pk: Any = None) -> None:
        """Read admission, called by table read surfaces.  ``pk`` is
        the primary key of a point read, or ``None`` for whole-table
        reads (scans, index iteration, len).

        Inside a transaction this takes the transaction's IS table
        lock plus a row S lock on ``pk`` (table-level S for whole-table
        reads), so a conflicting writer cannot invalidate what the
        transaction has read (repeatable reads under 2PL); the first
        write of a read pk upgrades S→X.  Plain reads outside a
        transaction stay lock-free — they capture atomically, and
        snapshot views are frozen.
        """
        transaction = self._current_transaction()
        if transaction is not None:
            if pk is None:
                transaction._lock_read(table_name)
            else:
                transaction._lock_read_row(table_name, pk)

    def read_view(self) -> "DatabaseView":
        """A consistent copy-on-write view of every table.

        Captured at a transaction boundary (blocks briefly if another
        thread's transaction is mid-flight), so a long scan or a
        planned join over the view is never torn by concurrent
        writers.  Cheap: no rows are copied until a writer actually
        mutates a viewed table.
        """
        from .views import DatabaseView

        with self._view_barrier():
            return DatabaseView(
                self.name,
                {name: table.read_view() for name, table in self._tables.items()},
            )

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------

    def to_snapshot(self) -> dict[str, Any]:
        """Full JSON-serializable image: schemas + rows of every table.

        Rows are serialized in primary-key order so the snapshot is a
        canonical representation: two databases with equal logical
        content produce equal snapshots regardless of operation history.
        """
        return {
            "name": self.name,
            "tables": {
                name: self._snapshot_table(table)
                for name, table in self._tables.items()
            },
        }

    @staticmethod
    def _snapshot_table(table: Table) -> dict[str, Any]:
        """One table's snapshot payload — the per-table unit that
        incremental checkpoints write to ``table-<name>-NNNNNN.json``
        (identical to its entry in :meth:`to_snapshot`)."""
        return {
            "schema": table.schema.to_dict(),
            "rows": sorted(
                table.scan(),
                key=lambda row: row[table.schema.primary_key],
            ),
            "indexes": [
                {"column": column, "kind": index.kind}
                for column, index in (
                    (column, table.index_for(column))
                    for column in table.index_columns()
                )
                if index is not None
            ],
        }

    @classmethod
    def from_snapshot(cls, snapshot: dict[str, Any]) -> "Database":
        database = cls(snapshot.get("name", "db"))
        for table_name, payload in snapshot["tables"].items():
            schema = Schema.from_dict(payload["schema"])
            table = database.create_table(table_name, schema)
            for index_info in payload.get("indexes", []):
                if table.index_for(index_info["column"]) is None:
                    table.create_index(index_info["column"], kind=index_info["kind"])
                elif index_info["kind"] == "sorted":
                    table.create_index(index_info["column"], kind="sorted")
            for row in payload["rows"]:
                table.apply("insert", row[schema.primary_key], row)
        return database

    def verify(self) -> None:
        """Run internal consistency checks across all tables.

        Three layers, each raising ``ConstraintError`` on violation:
        every index exactly mirrors its table's rows (including the
        maintained O(1) distinct counters, cross-checked against a
        recount), and every table's plan cache passes its metadata
        checks — join entries rooted on the right table, recorded DDL
        generations never ahead of the live caches, row-drift counters
        sane.  At quiescence (no active transaction, no in-flight
        activity) it additionally asserts the **two-level** lock table
        is fully drained — table grants, row grants, and waiters all
        empty, checked via O(1) maintained counters without walking
        row entries — because a leaked table *or row* lock after a
        commit/rollback/deadlock-abort path would wedge the next
        conflicting writer.  Called by ``store
        recover`` and at the end of the EXP-ST smoke, so a drifted
        cache, index or lock table fails the tier-1 gate.
        """
        for table in self._tables.values():
            table.verify_indexes()
            table.plan_cache.verify(owner=table)
        if not self._active_txns and self._barrier.idle:
            self._lockmgr.assert_quiescent()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = f", dir={str(self._directory)!r}" if self._directory else ""
        return f"Database({self.name!r}, tables={self.table_names()}{where})"
