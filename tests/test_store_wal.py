"""Unit tests: commit-scoped WAL — framing, group commit, recovery."""

import os
import time

import pytest

from repro.store import (
    Column,
    Database,
    DataType,
    Schema,
    WalError,
    WriteAheadLog,
)


def segment_files(path):
    """The on-disk segment files of a WAL directory, oldest first."""
    return sorted(child for child in path.iterdir() if child.name.startswith("wal-"))


def make_database() -> Database:
    database = Database("walled")
    database.create_table(
        "items",
        Schema(
            [
                Column("id", DataType.INT),
                Column("value", DataType.TEXT),
                Column("score", DataType.FLOAT, nullable=True),
            ],
            primary_key="id",
        ),
    )
    return database


class TestCommitScopedRecords:
    def test_replay_reproduces_state(self, tmp_path):
        database = make_database()
        wal = WriteAheadLog(tmp_path / "db.wal", fsync="never")
        database.attach_wal(wal)
        table = database.table("items")
        table.insert({"value": "a", "score": 0.1})
        table.insert({"value": "b", "score": 0.2})
        table.update(1, {"score": 0.9})
        table.delete(2)
        wal.flush()

        recovered = make_database()
        applied = WriteAheadLog(tmp_path / "db.wal").replay_into(recovered)
        assert applied == 4
        items = recovered.table("items")
        assert len(items) == 1
        assert items.get(1) == {"id": 1, "value": "a", "score": 0.9}

    def test_transaction_is_one_record(self, tmp_path):
        database = make_database()
        wal = WriteAheadLog(tmp_path / "db.wal", fsync="never")
        database.attach_wal(wal)
        table = database.table("items")
        with database.transaction():
            table.insert({"value": "a"})
            table.insert({"value": "b"})
            table.update(1, {"value": "a2"})
        records = wal.records()
        assert len(records) == 1
        assert len(records[0].changes) == 3
        assert records[0].lsn == 1

    def test_lsn_monotone_and_len_incremental(self, tmp_path):
        database = make_database()
        wal = WriteAheadLog(tmp_path / "db.wal", fsync="never")
        database.attach_wal(wal)
        for index in range(5):
            database.table("items").insert({"value": f"v{index}"})
        assert len(wal) == 5  # tracked without re-reading the file
        assert [record.lsn for record in wal.records()] == [1, 2, 3, 4, 5]

    def test_reopen_continues_sequence(self, tmp_path):
        path = tmp_path / "db.wal"
        database = make_database()
        wal = WriteAheadLog(path, fsync="never")
        database.attach_wal(wal)
        database.table("items").insert({"value": "a"})
        database.close()

        wal2 = WriteAheadLog(path, fsync="never")
        assert wal2.sequence == 1
        assert len(wal2) == 1
        database.attach_wal(wal2)
        database.table("items").insert({"value": "b"})
        assert wal2.records()[-1].lsn == 2

    def test_aborted_transaction_leaves_zero_net_log_growth(self, tmp_path):
        """Regression: aborted transactions used to be journaled twice
        (changes plus their undo inverses); now they never touch the log."""
        path = tmp_path / "db.wal"
        database = make_database()
        wal = WriteAheadLog(path, fsync="never")
        database.attach_wal(wal)
        table = database.table("items")
        table.insert({"value": "keep"})
        size_before = wal.total_bytes()
        records_before = len(wal)
        with pytest.raises(RuntimeError):
            with database.transaction():
                table.insert({"value": "gone"})
                table.update(1, {"value": "mutated"})
                raise RuntimeError("boom")
        assert wal.total_bytes() == size_before
        assert len(wal) == records_before
        assert table.get(1)["value"] == "keep"

    def test_rolled_back_txn_replays_to_same_state(self, tmp_path):
        database = make_database()
        wal = WriteAheadLog(tmp_path / "db.wal", fsync="never")
        database.attach_wal(wal)
        table = database.table("items")
        table.insert({"value": "keep"})
        with pytest.raises(RuntimeError):
            with database.transaction():
                table.insert({"value": "gone"})
                raise RuntimeError("boom")
        recovered = make_database()
        wal.replay_into(recovered)
        values = [row["value"] for row in recovered.table("items").scan()]
        assert values == ["keep"]

    def test_truncate_preserves_lsn_floor(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "db.wal", fsync="never")
        database = make_database()
        database.attach_wal(wal)
        database.table("items").insert({"value": "a"})
        dropped = wal.truncate()
        assert dropped == 1
        assert wal.records() == []
        assert len(wal) == 0
        # the sequence never rewinds: post-truncate records must sort
        # after everything a checkpoint may have covered
        assert wal.sequence == 1
        database.table("items").insert({"value": "b"})
        assert wal.records()[0].lsn == 2

    def test_truncate_through_drops_whole_covered_segments(self, tmp_path):
        # segment_bytes=1: every commit rotates, one record per segment
        wal = WriteAheadLog(tmp_path / "db.wal", fsync="never", segment_bytes=1)
        database = make_database()
        database.attach_wal(wal)
        for index in range(4):
            database.table("items").insert({"value": f"v{index}"})
        assert wal.stats()["segments"] >= 4
        dropped = wal.truncate_through(2)
        assert dropped == 2
        assert [record.lsn for record in wal.records()] == [3, 4]
        assert wal.stats()["segments_dropped"] >= 2

    def test_truncate_through_keeps_partially_covered_segment(self, tmp_path):
        """A segment that still holds live records is kept whole —
        pruning never rewrites a segment.  Recovery filters the covered
        records by LSN, so keeping them is harmless."""
        wal = WriteAheadLog(tmp_path / "db.wal", fsync="never")
        database = make_database()
        database.attach_wal(wal)
        for index in range(4):
            database.table("items").insert({"value": f"v{index}"})
        dropped = wal.truncate_through(2)
        assert dropped == 0  # all four share the active segment
        assert [record.lsn for record in wal.records()] == [1, 2, 3, 4]

    def test_checkpoint_snapshot_plus_wal(self, tmp_path):
        database = make_database()
        wal = WriteAheadLog(tmp_path / "db.wal", fsync="never")
        database.attach_wal(wal)
        table = database.table("items")
        table.insert({"value": "pre"})
        snapshot = database.to_snapshot()
        table.insert({"value": "post"})
        database.close()

        recovered = Database.from_snapshot(snapshot)
        WriteAheadLog(tmp_path / "db.wal").replay_into(recovered)
        values = sorted(row["value"] for row in recovered.table("items").scan())
        assert values == ["post", "pre"]

    def test_bad_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(WalError, match="fsync policy"):
            WriteAheadLog(tmp_path / "db.wal", fsync="sometimes")

    def test_commit_after_close_rejected(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "db.wal", fsync="never")
        wal.close()
        with pytest.raises(WalError, match="closed"):
            wal.commit_transaction([("insert", "items", 1, {"id": 1})])

    def test_write_failure_is_not_acked_and_breaks_the_log(self, tmp_path, monkeypatch):
        """A commit whose leader write fails must raise — never report
        durability it does not have — and the log refuses further use."""
        database = make_database()
        wal = WriteAheadLog(tmp_path / "db.wal", fsync="never")
        database.attach_wal(wal)
        table = database.table("items")
        table.insert({"value": "good"})

        monkeypatch.setattr(
            wal._handle, "write",
            lambda data: (_ for _ in ()).throw(OSError("disk full")),
            raising=False,
        )
        with pytest.raises(WalError, match="disk full"):
            with database.transaction():
                table.insert({"value": "lost"})
        monkeypatch.undo()
        # the failed transaction rolled back in memory: log and memory agree
        assert [row["value"] for row in table.scan()] == ["good"]
        with pytest.raises(WalError, match="broken"):
            table.insert({"value": "after-break"})


class TestTornTails:
    """Crash mid-append: torn records are discarded, never raised."""

    def _seed(self, tmp_path) -> WriteAheadLog:
        database = make_database()
        wal = WriteAheadLog(tmp_path / "db.wal", fsync="never")
        database.attach_wal(wal)
        for index in range(3):
            database.table("items").insert({"value": f"v{index}"})
        database.close()
        return wal

    def test_half_written_record_discarded(self, tmp_path):
        self._seed(tmp_path)
        path = tmp_path / "db.wal"
        segment = segment_files(path)[-1]
        raw = segment.read_bytes()
        segment.write_bytes(raw + b'00000000 {"lsn": 4, "txn": [')
        wal = WriteAheadLog(path, fsync="never", repair=False)
        assert len(wal.records()) == 3
        assert wal.torn_tail is not None
        assert segment.read_bytes() == raw + b'00000000 {"lsn": 4, "txn": ['

    def test_repair_truncates_in_place(self, tmp_path):
        self._seed(tmp_path)
        path = tmp_path / "db.wal"
        segment = segment_files(path)[-1]
        raw = segment.read_bytes()
        segment.write_bytes(raw + b"garbage-that-is-not-a-record\n")
        wal = WriteAheadLog(path, fsync="never")
        assert wal.repaired_bytes == len(b"garbage-that-is-not-a-record\n")
        assert segment.read_bytes() == raw
        assert len(wal) == 3

    def test_interior_corruption_refuses_auto_repair(self, tmp_path):
        """A damaged record with intact records *after* it is not a
        crash-torn tail: silently truncating would destroy durably-acked
        commits, so opening for write refuses; inspection still works."""
        self._seed(tmp_path)
        path = tmp_path / "db.wal"
        segment = segment_files(path)[-1]
        lines = segment.read_bytes().splitlines(keepends=True)
        corrupted = bytearray(lines[1])
        corrupted[-5] ^= 0xFF
        damaged = lines[0] + bytes(corrupted) + lines[2]
        segment.write_bytes(damaged)
        with pytest.raises(WalError, match="refusing to auto-repair"):
            WriteAheadLog(path, fsync="never")
        assert segment.read_bytes() == damaged  # nothing destroyed
        records, torn = WriteAheadLog(path, fsync="never", repair=False).read_committed()
        assert [record.lsn for record in records] == [1]
        assert torn is not None

    def test_tear_in_nonfinal_segment_refuses_auto_repair(self, tmp_path):
        """Rotation fsyncs segment N before N+1 exists, so a tear in a
        non-final segment cannot be a crash artifact — it is interior
        corruption even though the tear sits at that segment's tail."""
        database = make_database()
        wal = WriteAheadLog(tmp_path / "db.wal", fsync="never", segment_bytes=1)
        database.attach_wal(wal)
        for index in range(3):
            database.table("items").insert({"value": f"v{index}"})
        database.close()
        first = segment_files(tmp_path / "db.wal")[0]
        first.write_bytes(first.read_bytes()[:-7])  # tear its tail
        with pytest.raises(WalError, match="refusing to auto-repair"):
            WriteAheadLog(tmp_path / "db.wal", fsync="never")
        records, torn = WriteAheadLog(
            tmp_path / "db.wal", fsync="never", repair=False
        ).read_committed()
        assert records == []  # prefix ends at the first segment's tear
        assert torn is not None

    def test_crc_mismatch_ends_committed_prefix(self, tmp_path):
        self._seed(tmp_path)
        path = tmp_path / "db.wal"
        segment = segment_files(path)[-1]
        lines = segment.read_bytes().splitlines(keepends=True)
        # flip one byte inside the second record's payload
        corrupted = bytearray(lines[1])
        corrupted[-5] ^= 0xFF
        segment.write_bytes(lines[0] + bytes(corrupted) + lines[2])
        wal = WriteAheadLog(path, fsync="never", repair=False)
        records, torn = wal.read_committed()
        # everything from the first bad record on is untrusted,
        # including the structurally-valid record after it
        assert [record.lsn for record in records] == [1]
        assert "crc mismatch" in torn

    def test_non_monotonic_lsn_ends_committed_prefix(self, tmp_path):
        self._seed(tmp_path)
        path = tmp_path / "db.wal"
        segment = segment_files(path)[-1]
        lines = segment.read_bytes().splitlines(keepends=True)
        segment.write_bytes(lines[0] + lines[2] + lines[1])
        wal = WriteAheadLog(path, fsync="never", repair=False)
        records, torn = wal.read_committed()
        assert [record.lsn for record in records] == [1, 3]
        assert "non-monotonic" in torn

    def test_recovery_applies_only_committed_prefix(self, tmp_path):
        self._seed(tmp_path)
        path = tmp_path / "db.wal"
        segment = segment_files(path)[-1]
        raw = segment.read_bytes()
        segment.write_bytes(raw[: len(raw) - 7])  # crash mid-last-record
        recovered = make_database()
        applied = WriteAheadLog(path, fsync="never").replay_into(recovered)
        assert applied == 2
        values = sorted(row["value"] for row in recovered.table("items").scan())
        assert values == ["v0", "v1"]
        recovered.verify()

    def test_empty_file_is_fine(self, tmp_path):
        path = tmp_path / "db.wal"
        path.mkdir()
        (path / "wal-000001.log").touch()
        wal = WriteAheadLog(path)
        assert wal.records() == []
        assert wal.torn_tail is None


class TestSegmentRotation:
    def test_appends_rotate_at_the_size_threshold(self, tmp_path):
        database = make_database()
        wal = WriteAheadLog(tmp_path / "db.wal", fsync="never", segment_bytes=256)
        database.attach_wal(wal)
        for index in range(20):
            database.table("items").insert({"value": f"v{index:03d}"})
        stats = wal.stats()
        assert stats["rotations"] > 0
        assert stats["segments"] == stats["rotations"] + 1
        assert len(segment_files(tmp_path / "db.wal")) == stats["segments"]
        # every non-active segment respects the size floor that triggered
        # its rotation
        for segment in segment_files(tmp_path / "db.wal")[:-1]:
            assert segment.stat().st_size >= 256
        database.close()

        reopened = WriteAheadLog(tmp_path / "db.wal", fsync="never")
        assert [record.lsn for record in reopened.records()] == list(range(1, 21))
        assert reopened.sequence == 20

    def test_reopen_continues_in_the_active_segment(self, tmp_path):
        database = make_database()
        wal = WriteAheadLog(tmp_path / "db.wal", fsync="never", segment_bytes=256)
        database.attach_wal(wal)
        for index in range(10):
            database.table("items").insert({"value": f"v{index:03d}"})
        segments_before = len(segment_files(tmp_path / "db.wal"))
        database.close()

        database2 = make_database()
        wal2 = WriteAheadLog(tmp_path / "db.wal", fsync="never", segment_bytes=10**9)
        database2.attach_wal(wal2)
        database2.table("items").insert({"value": "resumed", "score": None})
        assert len(segment_files(tmp_path / "db.wal")) == segments_before
        assert wal2.records()[-1].lsn == 11

    def test_truncate_rotates_a_fully_covered_active_segment(self, tmp_path):
        database = make_database()
        wal = WriteAheadLog(tmp_path / "db.wal", fsync="never")
        database.attach_wal(wal)
        for index in range(3):
            database.table("items").insert({"value": f"v{index}"})
        dropped = wal.truncate()
        assert dropped == 3
        assert wal.records() == []
        assert len(wal) == 0
        # the covered active segment was rotated away and unlinked; one
        # fresh active segment remains
        assert len(segment_files(tmp_path / "db.wal")) == 1
        assert wal.sequence == 3
        database.table("items").insert({"value": "later"})
        assert wal.records()[0].lsn == 4

    def test_single_file_log_is_refused_unchanged(self, tmp_path):
        """The pre-segment layout (one regular file at the log path) is
        not read: opening fails at mkdir, before anything is written."""
        path = tmp_path / "db.wal"
        database = make_database()
        wal = WriteAheadLog(path, fsync="never")
        database.attach_wal(wal)
        database.table("items").insert({"value": "old-layout"})
        database.close()
        # collapse the directory back into a single regular file
        raw = b"".join(seg.read_bytes() for seg in segment_files(path))
        for seg in segment_files(path):
            seg.unlink()
        path.rmdir()
        path.write_bytes(raw)

        with pytest.raises(FileExistsError):
            WriteAheadLog(path, fsync="never")
        assert path.read_bytes() == raw
        assert list(tmp_path.iterdir()) == [path]


class TestFsyncPolicies:
    @pytest.mark.parametrize("policy", ["always", "interval", "never"])
    def test_policies_commit_durably(self, tmp_path, policy):
        wal = WriteAheadLog(tmp_path / "db.wal", fsync=policy)
        database = make_database()
        database.attach_wal(wal)
        for index in range(10):
            database.table("items").insert({"value": f"v{index}"})
        database.close()
        assert len(WriteAheadLog(tmp_path / "db.wal").records()) == 10

    def test_always_fsyncs_every_group(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "db.wal", fsync="always")
        database = make_database()
        database.attach_wal(wal)
        for index in range(5):
            database.table("items").insert({"value": f"v{index}"})
        assert wal.sync_count >= 5  # single-threaded: one group per commit

    def test_never_does_not_fsync(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "db.wal", fsync="never")
        database = make_database()
        database.attach_wal(wal)
        for index in range(5):
            database.table("items").insert({"value": f"v{index}"})
        assert wal.sync_count == 0
        # no flusher daemon outside the interval policy
        assert not wal.stats()["flusher_running"]


class TestIntervalFlusher:
    def test_idle_dirty_log_is_synced_by_the_background_flusher(self, tmp_path):
        """Under the interval policy a lone commit may land between
        piggyback fsyncs; with no further commits arriving, only the
        background flusher bounds its durability staleness."""
        wal = WriteAheadLog(
            tmp_path / "db.wal", fsync="interval", fsync_interval=0.02
        )
        database = make_database()
        database.attach_wal(wal)
        database.table("items").insert({"value": "lone"})
        assert wal.stats()["flusher_running"]
        deadline = time.monotonic() + 5.0
        while wal.stats()["dirty"] and time.monotonic() < deadline:
            time.sleep(0.01)
        stats = wal.stats()
        assert not stats["dirty"]
        assert stats["sync_count"] >= 1
        assert wal.last_sync_age() < 5.0
        database.close()
        # close() stops and joins the daemon
        assert not wal.stats()["flusher_running"]


class TestTransactionFootprints:
    def test_commit_records_carry_the_table_set(self, tmp_path):
        database = make_database()
        wal = WriteAheadLog(tmp_path / "db.wal", fsync="never")
        database.attach_wal(wal)
        table = database.table("items")
        with database.transaction():
            table.insert({"value": "a"})
            table.insert({"value": "b"})
        record = wal.records()[0]
        assert record.tables == ("items",)
        # the footprint survives the on-disk roundtrip
        wal.flush()
        assert WriteAheadLog(tmp_path / "db.wal").records()[0].tables == ("items",)

    def test_footprint_survives_truncate_through(self, tmp_path):
        database = make_database()
        wal = WriteAheadLog(tmp_path / "db.wal", fsync="never")
        database.attach_wal(wal)
        table = database.table("items")
        for index in range(3):
            with database.transaction():
                table.insert({"value": f"v{index}"})
        wal.truncate_through(3)
        database.table("items").insert({"value": "late"})
        remaining = wal.records()
        assert [record.lsn for record in remaining] == [4]
        assert all(record.tables == ("items",) for record in remaining)

    def test_footprint_less_records_still_decode(self, tmp_path):
        """Logs written before the ``tables`` field existed decode with
        an empty footprint (and replay without footprint validation)."""
        import json
        import zlib

        payload = {"lsn": 1, "txn": [["insert", "items", 1, {"id": 1, "value": "x", "score": None}]]}
        body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
        crc = zlib.crc32(body) & 0xFFFFFFFF
        (tmp_path / "db.wal").mkdir()
        segment = tmp_path / "db.wal" / "wal-000001.log"
        segment.write_bytes(b"%08x " % crc + body + b"\n")
        wal = WriteAheadLog(tmp_path / "db.wal", fsync="never")
        records = wal.records()
        assert len(records) == 1
        assert records[0].tables == ()
        recovered = make_database()
        assert wal.replay_into(recovered) == 1
        assert recovered.table("items").get(1)["value"] == "x"

    def test_replay_rejects_changes_outside_declared_footprint(self, tmp_path):
        """A record whose change list touches a table missing from its
        declared footprint is corrupt — replay must refuse it."""
        import json
        import zlib

        payload = {
            "lsn": 1,
            "tables": ["other"],
            "txn": [["insert", "items", 1, {"id": 1, "value": "x", "score": None}]],
        }
        body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
        crc = zlib.crc32(body) & 0xFFFFFFFF
        (tmp_path / "db.wal").mkdir()
        segment = tmp_path / "db.wal" / "wal-000001.log"
        segment.write_bytes(b"%08x " % crc + body + b"\n")
        wal = WriteAheadLog(tmp_path / "db.wal", fsync="never")
        recovered = make_database()
        with pytest.raises(WalError, match="footprint"):
            wal.replay_into(recovered)
