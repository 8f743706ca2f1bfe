"""Write-ahead log: commit-scoped logical records with group commit.

The log is a **directory of segments** (``wal-NNNNNN.log``), each a
sequence of framed records, one line per **committed transaction**
(aborted transactions never touch the log)::

    <crc32-hex8> {"lsn": 7, "txn": [["insert", "items", 1, {...}], ...]}\\n
    <crc32-hex8> {"lsn": 8, "ddl": {"op": "create_index", ...}}\\n

* ``lsn`` — log sequence number, strictly increasing across segment
  boundaries, preserved across truncation so checkpoints can name the
  exact suffix that still needs replay.
* ``txn`` — the committed change list as ``[op, table, pk, after_row]``
  entries (full after-images, so replay is idempotent).
* ``ddl`` — autocommitted schema changes (create/drop table, create/
  drop index) so recovery can rebuild a database from an empty
  directory with no separate catalog file.
* the CRC32 frame plus the trailing newline make torn tails
  *detectable*: a crash mid-``write`` leaves a record that fails the
  frame check and is **discarded, not raised** — recovery stops at the
  last intact record (the committed prefix).

Appends go only to the **active segment** (the highest-numbered one).
When the active segment passes ``segment_bytes`` the group-commit
leader rotates: the outgoing segment is fsynced *before* the new one
is created, so a record in segment N+1 proves segment N is complete
and durable — which is why a tear in a non-final segment is interior
corruption, never a crash artifact.  Checkpoint pruning then unlinks
whole covered segments (O(segments dropped)); the live suffix is never
rewritten.

Writes go through a **group-commit pipeline** over one persistent
buffered append handle: concurrent committers enqueue encoded records
under the pipeline lock, one leader drains the queue with a single
``write``+``flush`` (and an ``fsync`` depending on policy), and
followers return once their record is on disk.  Fsync policies:

* ``always``   — every commit is fsynced before it returns (group
  fsync: one ``fsync`` covers the whole drained batch).  Because the
  database holds table locks through the append and releases them only
  on the durability ack, *independent transactions* from concurrent
  writers land in one drained batch and share that fsync — commit
  throughput scales with writer count instead of paying one fsync per
  transaction.
* ``interval`` — commits are flushed to the OS on every drain and
  fsynced when at least ``fsync_interval`` seconds have passed since
  the last sync (the default).  A background flusher daemon (started
  lazily on the first append) fsyncs an idle dirty tail after the
  interval, so durability staleness is bounded by wall clock even when
  commits stop arriving.
* ``never``    — flush to the OS only; durability is left to the
  kernel (fastest; used by tests and bulk loads).  Segment rotation
  still fsyncs the outgoing segment under every policy: the
  records-in-N+1-prove-N-durable invariant is what recovery's
  interior-corruption rule rests on.

Transaction records additionally carry the sorted set of tables the
transaction touched (``"tables": [...]``), making the log
self-describing for recovery tooling and letting replay cross-check
that every change targets a declared table.

This replaces what the original iTag deployment got from MySQL's
binlog/InnoDB; here it keeps campaign state recoverable across process
restarts without any server.
"""

from __future__ import annotations

import json
import os
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable

from .errors import WalError
from .table import ChangeEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .database import Database

__all__ = [
    "WriteAheadLog",
    "WalRecord",
    "FSYNC_POLICIES",
    "DEFAULT_FSYNC_INTERVAL",
    "DEFAULT_SEGMENT_BYTES",
]

FSYNC_POLICIES = ("always", "interval", "never")
DEFAULT_FSYNC_INTERVAL = 0.05
#: Rotate the active segment once it passes this many bytes.  Small
#: enough that checkpoint pruning reclaims space promptly, large enough
#: that rotation fsyncs stay rare on the commit path.
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024
#: Max time an ``always``-policy batch leader waits for straggler
#: commits before the durable write, when the last group size says
#: concurrent committers are in flight.  Kept near the cost of one
#: fsync so a mispredicted wait never loses more than the fsync it
#: tried to save; a lone writer never waits (the hint falls back to 1
#: on the first solo batch).
GROUP_COMMIT_WAIT = 0.0002

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".log"

#: (op, table, pk, after_row) — the logical redo entry for one change.
Change = tuple[str, str, Any, dict | None]


@dataclass(frozen=True)
class WalRecord:
    """One committed record: a transaction's change list or a DDL op."""

    lsn: int
    changes: tuple[Change, ...] = ()
    ddl: dict[str, Any] | None = None
    #: sorted table footprint of the transaction (empty on DDL records
    #: and on logs written before the field existed)
    tables: tuple[str, ...] = ()

    @property
    def is_ddl(self) -> bool:
        return self.ddl is not None


@dataclass
class _ScanResult:
    records: list[WalRecord] = field(default_factory=list)
    valid_bytes: int = 0
    torn_tail: str | None = None
    #: True when intact-looking records exist *after* the tear — that is
    #: interior corruption (a damaged sector mid-log), not a crash-torn
    #: tail, and must never be silently repaired away
    data_after_tear: bool = False


@dataclass
class _Segment:
    """One on-disk segment file and its scanned record bookkeeping."""

    index: int
    path: Path
    records: int = 0
    first_lsn: int = 0
    last_lsn: int = 0


def _segment_name(index: int) -> str:
    return f"{_SEGMENT_PREFIX}{index:06d}{_SEGMENT_SUFFIX}"


def _segment_index(path: Path) -> int | None:
    name = path.name
    if not (name.startswith(_SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX)):
        return None
    digits = name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)]
    if not digits.isdigit():
        return None
    return int(digits)


def _encode_record(
    lsn: int,
    *,
    changes: Iterable[Change] | None,
    ddl: dict | None,
    tables: tuple[str, ...] = (),
) -> bytes:
    payload: dict[str, Any] = {"lsn": lsn}
    if ddl is not None:
        payload["ddl"] = ddl
    else:
        payload["txn"] = [list(change) for change in (changes or ())]
        if tables:
            payload["tables"] = list(tables)
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    crc = zlib.crc32(body) & 0xFFFFFFFF
    return b"%08x " % crc + body + b"\n"


def _decode_line(line: bytes) -> WalRecord:
    """Parse one framed line; raises ``ValueError`` on any anomaly."""
    if len(line) < 10 or line[8:9] != b" ":
        raise ValueError("bad frame header")
    body = line[9:]
    if int(line[:8], 16) != (zlib.crc32(body) & 0xFFFFFFFF):
        raise ValueError("crc mismatch")
    payload = json.loads(body)
    lsn = int(payload["lsn"])
    if "ddl" in payload:
        return WalRecord(lsn=lsn, ddl=payload["ddl"])
    changes = tuple(
        (entry[0], entry[1], entry[2], entry[3]) for entry in payload["txn"]
    )
    # "tables" is optional: logs written before the field existed decode
    # with an empty footprint (the cross-check below is skipped for them)
    tables = tuple(payload.get("tables", ()))
    return WalRecord(lsn=lsn, changes=changes, tables=tables)


def _scan_log(raw: bytes, *, last_lsn: int = 0) -> _ScanResult:
    """Tolerant scan: the longest valid record prefix of ``raw``.

    Stops (without raising) at the first torn record — a line that is
    incomplete, fails its CRC, fails to parse, or breaks LSN
    monotonicity.  ``last_lsn`` seeds the monotonicity check so scans
    chain across segment boundaries.  Everything before the tear is the
    committed prefix.
    """
    result = _ScanResult()
    offset = 0
    while offset < len(raw):
        newline = raw.find(b"\n", offset)
        if newline == -1:
            result.torn_tail = "truncated record (no trailing newline)"
            return result
        line = raw[offset : newline + 1]
        try:
            record = _decode_line(line[:-1])
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            result.torn_tail = f"invalid record at byte {offset}: {exc}"
            result.data_after_tear = _any_intact_record(raw, newline + 1)
            return result
        if record.lsn <= last_lsn:
            result.torn_tail = (
                f"non-monotonic lsn {record.lsn} after {last_lsn} at byte {offset}"
            )
            result.data_after_tear = _any_intact_record(raw, newline + 1)
            return result
        last_lsn = record.lsn
        result.records.append(record)
        result.valid_bytes = newline + 1
        offset = newline + 1
    return result


def _any_intact_record(raw: bytes, offset: int) -> bool:
    """True if any complete line past ``offset`` still decodes as a
    framed record (monotonicity aside)."""
    while offset < len(raw):
        newline = raw.find(b"\n", offset)
        if newline == -1:
            return False
        try:
            _decode_line(raw[offset:newline])
            return True
        except (ValueError, KeyError, IndexError, TypeError):
            offset = newline + 1
    return False


class WriteAheadLog:
    """Commit-scoped append log over a segment directory, with group
    commit.

    ``path`` is the log directory; a regular file there is refused
    (``mkdir`` raises) before anything is written.  The constructor
    scans the segments in order, repairs a torn tail in the final
    segment in place (truncates to the last intact record; set
    ``repair=False`` for read-only inspection), and keeps the append
    handle on the active segment open for the log's lifetime — appends
    never reopen the file.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        fsync: str = "interval",
        fsync_interval: float = DEFAULT_FSYNC_INTERVAL,
        repair: bool = True,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise WalError(
                f"unknown fsync policy {fsync!r}; use one of {FSYNC_POLICIES}"
            )
        if segment_bytes < 1:
            raise WalError("segment_bytes must be positive")
        self.path = Path(path)
        self.fsync_policy = fsync
        self.fsync_interval = float(fsync_interval)
        self.segment_bytes = int(segment_bytes)
        self.repaired_bytes = 0
        self.torn_tail: str | None = None
        self.rotations = 0
        self.segments_dropped = 0

        self.path.mkdir(parents=True, exist_ok=True)
        self._segments = self._discover_segments()
        records = self._scan_and_repair(repair)
        self._count = len(records)
        self._sequence = records[-1].lsn if records else 0
        # the constructor already decoded every segment; serve the first
        # read_committed() from it (recovery reads the log right after
        # opening) — invalidated by any append or truncation
        self._scan_cache: tuple[list[WalRecord], str | None] | None = (
            list(records),
            self.torn_tail,
        )

        self._handle = self._segments[-1].path.open("ab")
        self._closed = False

        # group-commit pipeline state ----------------------------------
        self._cond = threading.Condition()
        #: collector-only wait channel on the SAME lock as ``_cond``:
        #: an enqueue during a collection window wakes just the
        #: collecting leader, not every parked follower (a notify_all
        #: herd costs more than the fsync the collection saves)
        self._collect_cond = threading.Condition(self._cond._lock)
        self._queue: list[tuple[int, bytes]] = []
        self._enqueued = 0
        self._completed = 0
        self._writing = False
        #: sticky leader IO failure: tickets above ``_last_good`` were
        #: never durably written, and the log refuses further commits
        self._broken: BaseException | None = None
        self._last_good = 0
        self._last_sync = time.monotonic()
        self.sync_count = 0
        self.group_commits = 0
        self.grouped_records = 0
        #: size of the last written batch; >1 means concurrent
        #: committers were just seen, so a leader that drained fewer
        #: records briefly collects stragglers before paying the fsync
        self._group_hint = 1
        #: True while a leader is inside its collection window, so
        #: enqueuers know to notify it
        self._collecting = False

        # background interval flusher ----------------------------------
        #: True while bytes written to the file may not be fsynced yet
        self._dirty = False
        #: started lazily on the first append under the ``interval``
        #: policy; bounds durability staleness by wall clock when
        #: commits stop arriving (no piggyback fsync would ever fire)
        self._flusher: threading.Thread | None = None
        self._flusher_stop = threading.Event()

    # ------------------------------------------------------------------
    # segment discovery / initial scan
    # ------------------------------------------------------------------

    def _discover_segments(self) -> list[_Segment]:
        found: list[_Segment] = []
        for child in self.path.iterdir():
            index = _segment_index(child)
            if index is not None:
                found.append(_Segment(index=index, path=child))
        found.sort(key=lambda seg: seg.index)
        if not found:
            first = _Segment(index=1, path=self.path / _segment_name(1))
            first.path.touch()
            found.append(first)
        return found

    def _scan_and_repair(self, repair: bool) -> list[WalRecord]:
        """Scan segments in order (LSNs chain across boundaries) and
        apply the per-segment corruption rules:

        * a tear in the *final* segment with nothing intact after it is
          a crash-torn tail — truncated in place under ``repair``;
        * a tear anywhere else (an earlier segment, or with intact data
          after it) is interior corruption — rotation fsyncs segment N
          before segment N+1 exists, so later records prove the damage
          was not a crash.  Refused under ``repair``; with
          ``repair=False`` the committed prefix simply stops there.
        """
        records: list[WalRecord] = []
        last_lsn = 0
        for pos, segment in enumerate(self._segments):
            raw = segment.path.read_bytes() if segment.path.exists() else b""
            scan = _scan_log(raw, last_lsn=last_lsn)
            segment.records = len(scan.records)
            if scan.records:
                segment.first_lsn = scan.records[0].lsn
                segment.last_lsn = scan.records[-1].lsn
                last_lsn = segment.last_lsn
            records.extend(scan.records)
            if scan.torn_tail is None:
                continue
            self.torn_tail = f"{segment.path.name}: {scan.torn_tail}"
            later_records = any(
                later.path.exists() and later.path.stat().st_size > 0
                for later in self._segments[pos + 1 :]
            )
            if not repair:
                return records
            if scan.data_after_tear or later_records:
                raise WalError(
                    f"WAL {self.path} is corrupt mid-log ({self.torn_tail}) "
                    "with intact records after the damage; refusing to "
                    "auto-repair — inspect with repair=False"
                )
            with segment.path.open("r+b") as handle:
                handle.truncate(scan.valid_bytes)
            self.repaired_bytes = len(raw) - scan.valid_bytes
            return records
        return records

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------

    @property
    def sequence(self) -> int:
        """The LSN of the newest committed record (monotonic, survives
        truncation)."""
        return self._sequence

    @property
    def closed(self) -> bool:
        return self._closed

    def __len__(self) -> int:
        """Number of committed records on disk (tracked incrementally;
        never re-reads the log)."""
        return self._count

    def segment_paths(self) -> list[Path]:
        """The on-disk segment files, oldest first (the last one is the
        active append target)."""
        with self._cond:
            return [segment.path for segment in self._segments]

    @property
    def segment_count(self) -> int:
        with self._cond:
            return len(self._segments)

    def total_bytes(self) -> int:
        """Bytes across all segments (flushes the pipeline first so the
        active segment's size is current)."""
        if not self._closed:
            self.flush()
        total = 0
        for path in self.segment_paths():
            try:
                total += path.stat().st_size
            except FileNotFoundError:  # pragma: no cover - prune race
                pass
        return total

    def ensure_sequence_at_least(self, lsn: int) -> None:
        """Raise the LSN floor (recovery: the checkpoint's ``wal_lsn``
        must stay below every future record even if the log file is
        empty)."""
        with self._cond:
            self._sequence = max(self._sequence, lsn)

    # ------------------------------------------------------------------
    # commit path (group commit)
    # ------------------------------------------------------------------

    def commit_transaction(
        self,
        changes: Iterable[ChangeEvent | Change],
        *,
        tables: Iterable[str] | None = None,
    ) -> int:
        """Append one committed transaction; returns its LSN.

        Accepts full :data:`ChangeEvent` tuples (before-images are
        dropped — the log is redo-only) or bare ``(op, table, pk,
        after)`` entries.  ``tables`` overrides the record's declared
        table footprint (default: derived from the changes).  Blocks
        until the record is durable per the fsync policy.
        """
        redo: list[Change] = []
        for entry in changes:
            if len(entry) == 5:  # ChangeEvent: (op, table, pk, before, after)
                op, table_name, pk, _before, after = entry
            else:
                op, table_name, pk, after = entry
            redo.append((op, table_name, pk, after))
        if tables is None:
            footprint = tuple(sorted({change[1] for change in redo}))
        else:
            footprint = tuple(sorted(set(tables)))
        return self._commit(changes=redo, ddl=None, tables=footprint)

    def log_ddl(self, ddl: dict[str, Any]) -> int:
        """Append one autocommitted DDL record; returns its LSN."""
        return self._commit(changes=None, ddl=ddl)

    def _commit(
        self,
        *,
        changes: list[Change] | None,
        ddl: dict | None,
        tables: tuple[str, ...] = (),
    ) -> int:
        with self._cond:
            self._check_usable()
            self._scan_cache = None
            self._sequence += 1
            lsn = self._sequence
            self._queue.append(
                (lsn, _encode_record(lsn, changes=changes, ddl=ddl, tables=tables))
            )
            self._count += 1
            self._enqueued += 1
            ticket = self._enqueued
            if self._collecting:
                self._collect_cond.notify()
        self._ensure_flusher()
        while True:
            with self._cond:
                if self._completed >= ticket:
                    if self._broken is not None and ticket > self._last_good:
                        # our batch's leader failed to write: this commit
                        # was never durable, and the log is now unusable
                        raise WalError(
                            f"WAL {self.path} write failed: {self._broken!r}"
                        ) from self._broken
                    return lsn
                if self._writing:
                    self._cond.wait()
                    continue
                self._writing = True
                # adaptive collection: when recent batches prove other
                # committers are in flight, wait a bounded moment for
                # them to enqueue so one fsync covers the whole group;
                # the hint decays to 1 under a lone writer, making the
                # wait free in the uncontended case
                if (
                    self.fsync_policy == "always"
                    and len(self._queue) < self._group_hint
                ):
                    self._collecting = True
                    deadline = time.monotonic() + GROUP_COMMIT_WAIT
                    while len(self._queue) < self._group_hint:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            break
                        self._collect_cond.wait(remaining)
                    self._collecting = False
                batch, self._queue = self._queue, []
            self._lead_write(batch, fsync=None)

    def _lead_write(
        self, batch: list[tuple[int, bytes]], *, fsync: bool | None
    ) -> None:
        """Write one drained batch as the pipeline leader (``_writing``
        is already claimed).  An IO failure marks the log broken: the
        batch's committers — and all later ones — get an error instead
        of a durability ack.  ``fsync=None`` follows the policy."""
        if self._broken is not None:
            # Once broken, nothing more may reach the disk: a record
            # written *after* its committer was told the log failed
            # would be resurrected by recovery.  Discard the batch; its
            # committers raise (their tickets are above _last_good).
            with self._cond:
                self._writing = False
                self._count -= len(batch)  # never reached the file
                self._completed += len(batch)
                self._cond.notify_all()
            return
        error: BaseException | None = None
        offset_before = None
        active = self._segments[-1]
        bookkeeping_before = (active.records, active.first_lsn, active.last_lsn)
        try:
            if batch:
                self._handle.flush()
                offset_before = self._handle.tell()
                self._handle.write(b"".join(encoded for _lsn, encoded in batch))
                self._handle.flush()
                self._dirty = True
                if not active.records:
                    active.first_lsn = batch[0][0]
                active.records += len(batch)
                active.last_lsn = batch[-1][0]
            if fsync is None:
                fsync = self.fsync_policy == "always" or (
                    self.fsync_policy == "interval"
                    and time.monotonic() - self._last_sync >= self.fsync_interval
                )
            if fsync:
                os.fsync(self._handle.fileno())
                self.sync_count += 1
                self._last_sync = time.monotonic()
                self._dirty = False
            if batch and self._handle.tell() >= self.segment_bytes:
                self._rotate_locked()
        # leader thread must survive; the error reaches every committer
        # of the batch via _broken  itag-lint: disable=except-hygiene
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            error = exc
            # The committers of this batch will be told their records
            # were never durably written — so the records must not stay
            # in the file (or the handle's retained write buffer, which
            # a later flush would replay), or recovery would resurrect
            # transactions the application observed as failed.  Discard
            # the buffer by reopening, then truncate back to the
            # pre-batch offset (we are the only writer).
            try:
                self._handle.close()
            except OSError:  # pragma: no cover - buffer unflushable
                pass
            if offset_before is not None:
                try:
                    with active.path.open("r+b") as fix:
                        fix.truncate(offset_before)
                except OSError:  # pragma: no cover - disk fully gone
                    pass
            try:
                self._handle = self._segments[-1].path.open("ab")
            except OSError:  # pragma: no cover - disk fully gone
                self._closed = True
        finally:
            with self._cond:
                self._writing = False
                if error is not None and self._broken is None:
                    self._broken = error
                    self._last_good = self._completed
                    self._count -= len(batch)  # truncated back out
                    (
                        active.records,
                        active.first_lsn,
                        active.last_lsn,
                    ) = bookkeeping_before
                self._completed += len(batch)
                self.group_commits += 1
                self.grouped_records += len(batch)
                self._group_hint = max(1, len(batch))
                self._cond.notify_all()
        if error is not None:
            raise WalError(f"WAL {self.path} write failed: {error!r}") from error

    def _rotate_locked(self) -> None:
        """Seal the active segment and open the next one.  Caller is
        the pipeline leader (``_writing`` held).

        The outgoing segment is fsynced under *every* policy before the
        new file exists: any record in segment N+1 then proves segment
        N durable and complete, which is the invariant recovery's
        interior-corruption refusal rests on.
        """
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self.sync_count += 1
        self._last_sync = time.monotonic()
        self._dirty = False
        self._handle.close()
        new_index = self._segments[-1].index + 1
        segment = _Segment(index=new_index, path=self.path / _segment_name(new_index))
        self._handle = segment.path.open("ab")
        fsync_directory(self.path)
        with self._cond:
            self._segments.append(segment)
        self.rotations += 1

    def _quiesce(self) -> None:
        """Claim pipeline leadership with an empty queue: on return,
        ``_writing`` is held by the caller and no record write is in
        flight, so the append handle can be flushed, fsynced, swapped
        or closed safely.  Release with :meth:`_release`."""
        while True:
            with self._cond:
                if self._writing:
                    self._cond.wait()
                    continue
                if not self._queue:
                    self._writing = True
                    return
                self._writing = True
                batch, self._queue = self._queue, []
            # policy-honoring drain: an 'always' committer racing this
            # quiesce must still get its fsync before being acked
            self._lead_write(batch, fsync=None)

    def _release(self) -> None:
        with self._cond:
            self._writing = False
            self._cond.notify_all()

    def _check_usable(self) -> None:
        if self._closed:
            raise WalError(f"WAL {self.path} is closed")
        if self._broken is not None:
            raise WalError(
                f"WAL {self.path} is broken by an earlier write failure: "
                f"{self._broken!r}"
            )

    def flush(self) -> None:
        """Drain the commit queue and flush the OS buffer."""
        self._quiesce()
        try:
            if not self._closed and self._broken is None:
                self._handle.flush()
        finally:
            self._release()

    def sync(self) -> None:
        """Drain, flush and fsync regardless of policy."""
        self._quiesce()
        try:
            if not self._closed and self._broken is None:
                self._handle.flush()
                os.fsync(self._handle.fileno())
                self.sync_count += 1
                self._last_sync = time.monotonic()
                self._dirty = False
        finally:
            self._release()

    def close(self) -> None:
        """Flush, fsync and close the append handle (idempotent).

        A broken log skips the flush/fsync — after a write failure the
        file was truncated back to its last good record, and nothing
        that failed may reach the disk afterwards."""
        # stop the background flusher before quiescing so it cannot race
        # the handle close; it exits within one wait slice
        self._flusher_stop.set()
        flusher = self._flusher
        if flusher is not None and flusher is not threading.current_thread():
            flusher.join(timeout=1.0)
        self._quiesce()
        try:
            if self._closed:
                return
            if self._broken is None:
                self._handle.flush()
                try:
                    os.fsync(self._handle.fileno())
                except OSError:  # pragma: no cover - exotic filesystems
                    pass
                self._dirty = False
            self._handle.close()
            self._closed = True
        finally:
            self._release()

    # ------------------------------------------------------------------
    # background interval flusher
    # ------------------------------------------------------------------

    def _ensure_flusher(self) -> None:
        """Lazily start the interval flusher daemon (``interval`` policy
        only): it fsyncs an idle dirty tail once ``fsync_interval``
        passes with no commit to piggyback on, bounding durability
        staleness by wall clock."""
        if self.fsync_policy != "interval" or self._flusher is not None:
            return
        with self._cond:
            if self._flusher is not None:
                return
            self._flusher_stop = threading.Event()
            self._flusher = threading.Thread(
                target=self._flush_loop,
                name=f"wal-flusher-{self.path.name}",
                daemon=True,
            )
            self._flusher.start()

    def _flush_loop(self) -> None:
        interval = max(self.fsync_interval, 0.01)
        stop = self._flusher_stop
        while not stop.wait(interval):
            if self._closed or self._broken is not None:
                return
            if not self._dirty:
                continue
            if time.monotonic() - self._last_sync < self.fsync_interval:
                continue
            # a commit racing this sync is harmless: sync() quiesces the
            # pipeline, and an extra fsync is only wasted work.  A
            # failure here must not kill the daemon silently mid-life —
            # it marks nothing, but the next commit's own write path
            # surfaces the error to a caller.
            try:
                self.sync()
            except (WalError, OSError):
                return

    def last_sync_age(self) -> float:
        """Seconds since the last fsync (staleness bound; ~0 when the
        log is clean and freshly synced)."""
        return time.monotonic() - self._last_sync

    def stats(self) -> dict[str, Any]:
        """Counters for monitoring and the store smoke output."""
        return {
            "records": self._count,
            "lsn": self._sequence,
            "fsync_policy": self.fsync_policy,
            "sync_count": self.sync_count,
            "group_commits": self.group_commits,
            "grouped_records": self.grouped_records,
            "segments": len(self._segments),
            "segment_bytes": self.segment_bytes,
            "rotations": self.rotations,
            "segments_dropped": self.segments_dropped,
            "last_sync_age": self.last_sync_age(),
            "dirty": self._dirty,
            "flusher_running": self._flusher is not None
            and self._flusher.is_alive(),
        }

    # ------------------------------------------------------------------
    # reading / replay
    # ------------------------------------------------------------------

    def read_committed(self) -> tuple[list[WalRecord], str | None]:
        """All intact records plus the torn-tail reason (None if clean).

        Tolerant by construction: a torn tail ends the committed prefix
        instead of raising.
        """
        cached = self._scan_cache
        if cached is not None:
            return list(cached[0]), cached[1]
        if not self._closed:
            self.flush()
        records: list[WalRecord] = []
        torn: str | None = None
        last_lsn = 0
        for path in self.segment_paths():
            try:
                raw = path.read_bytes()
            except FileNotFoundError:  # pragma: no cover - prune race
                continue
            scan = _scan_log(raw, last_lsn=last_lsn)
            records.extend(scan.records)
            if scan.records:
                last_lsn = scan.records[-1].lsn
            if scan.torn_tail is not None:
                torn = f"{path.name}: {scan.torn_tail}"
                break
        return records, torn

    def records(self) -> list[WalRecord]:
        """The committed records (the torn tail, if any, is excluded)."""
        return self.read_committed()[0]

    def replay_into(self, database: "Database", *, after_lsn: int = 0) -> int:
        """Apply committed records with ``lsn > after_lsn``; returns the
        number of *changes* applied."""
        records, _torn = self.read_committed()
        return self.apply_records(database, records, after_lsn=after_lsn)

    def apply_records(
        self,
        database: "Database",
        records: list[WalRecord],
        *,
        after_lsn: int = 0,
    ) -> int:
        """Apply already-read ``records`` with ``lsn > after_lsn``;
        returns the number of *changes* applied.

        Records carry full after-images, so replay is idempotent: an
        insert whose pk already exists becomes an update (and vice
        versa), a delete of a missing pk is a no-op.  DDL records are
        applied through the database's DDL handler, which skips
        already-existing objects.
        """
        count = 0
        was_recovering = database._recovering
        database._recovering = True
        try:
            for record in records:
                if record.lsn <= after_lsn:
                    continue
                if record.is_ddl:
                    database._apply_ddl(record.ddl)
                    continue
                for op, table_name, pk, row in record.changes:
                    if record.tables and table_name not in record.tables:
                        raise WalError(
                            f"WAL record lsn={record.lsn} changes table "
                            f"{table_name!r} outside its declared footprint "
                            f"{list(record.tables)}"
                        )
                    table = database.table(table_name)
                    if op == "insert" and table.contains(pk):
                        table.apply("update", pk, row)
                    elif op == "update" and not table.contains(pk):
                        table.apply("insert", pk, row)
                    else:
                        table.apply(op, pk, row)
                    count += 1
        finally:
            database._recovering = was_recovering
        for table_name in database.table_names():
            database.table(table_name).verify_indexes()
        return count

    # ------------------------------------------------------------------
    # truncation (checkpointing)
    # ------------------------------------------------------------------

    def truncate_through(self, lsn: int) -> int:
        """Drop *whole segments* whose records all have ``lsn <= lsn``;
        returns the number of records dropped.

        Used by checkpointing: records already covered by a durable
        snapshot are garbage.  The cost is O(segments dropped) — the
        live suffix is never rewritten.  A partially-covered segment is
        kept whole (recovery filters covered records by LSN anyway),
        and the sequence counter never rewinds.  When the *active*
        segment is itself fully covered it is first rotated so it too
        can be unlinked, keeping steady-state space proportional to the
        live suffix.
        """
        self._quiesce()
        try:
            self._check_usable()
            self._scan_cache = None
            self._handle.flush()
            active = self._segments[-1]
            if active.records and active.last_lsn <= lsn:
                self._rotate_locked()
            dropped_records = 0
            dropped_any = False
            survivors: list[_Segment] = []
            for segment in self._segments[:-1]:
                if segment.last_lsn <= lsn:
                    dropped_records += segment.records
                    try:
                        segment.path.unlink()
                    except FileNotFoundError:  # pragma: no cover - raced GC
                        pass
                    self.segments_dropped += 1
                    dropped_any = True
                else:
                    survivors.append(segment)
            if dropped_any:
                fsync_directory(self.path)
            with self._cond:
                self._segments = survivors + [self._segments[-1]]
                self._count -= dropped_records
            return dropped_records
        finally:
            self._release()

    def truncate(self) -> int:
        """Drop all committed records (the LSN floor is preserved)."""
        return self.truncate_through(self._sequence)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WriteAheadLog({str(self.path)!r}, lsn={self._sequence}, "
            f"records={self._count}, segments={len(self._segments)}, "
            f"fsync={self.fsync_policy!r})"
        )


def fsync_directory(directory: Path) -> None:
    """Best-effort directory fsync so renames survive a crash (shared
    with :mod:`repro.store.persist`)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - exotic filesystems
        pass
    finally:
        os.close(fd)
