"""Durability suite: managed directories, checkpoints, crash recovery.

The centerpiece is a hypothesis property: for a random sequence of
transactions (insert/update/delete ops, committed or aborted) journaled
to a WAL, a crash at *any byte boundary* of the log recovers exactly
the state after some prefix of committed records — never a torn state,
never an aborted change, never an exception.
"""

from __future__ import annotations

import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.store import (
    CHECKPOINT_KEEP,
    Column,
    Database,
    DataType,
    Schema,
    StoreError,
    TransactionError,
)


def item_schema() -> Schema:
    return Schema(
        [
            Column("id", DataType.INT),
            Column("value", DataType.TEXT),
            Column("score", DataType.FLOAT, nullable=True),
        ],
        primary_key="id",
    )


def open_with_items(directory, **kwargs) -> Database:
    database = Database.open(directory, fsync="never", **kwargs)
    if not database.has_table("items"):
        database.create_table("items", item_schema())
    return database


def file_tree(directory: Path) -> dict[str, bytes | None]:
    """Every path under ``directory`` with its bytes (None for a
    directory), to show that a refused open touched nothing."""
    return {
        str(path.relative_to(directory)): path.read_bytes() if path.is_file() else None
        for path in sorted(directory.rglob("*"))
    }


# ---------------------------------------------------------------------------
# crash-recovery property
# ---------------------------------------------------------------------------

_OPS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "update", "delete"]),
        st.integers(min_value=1, max_value=6),  # pk
        st.integers(min_value=0, max_value=99),  # value payload
    ),
    min_size=1,
    max_size=5,
)

_TXNS = st.lists(
    st.tuples(_OPS, st.booleans()),  # (ops, commit?)
    min_size=1,
    max_size=8,
)


def _apply_op(table, op: str, pk: int, value: int) -> None:
    """Apply one op if it is legal in the current state (else skip)."""
    if op == "insert" and not table.contains(pk):
        table.insert({"id": pk, "value": f"v{value}", "score": value / 100.0})
    elif op == "update" and table.contains(pk):
        table.update(pk, {"value": f"u{value}"})
    elif op == "delete" and table.contains(pk):
        table.delete(pk)


@given(txns=_TXNS, cut_fraction=st.floats(min_value=0.0, max_value=1.0))
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_recovery_from_any_crash_point_is_a_committed_prefix(txns, cut_fraction):
    # tiny segments so the cut point regularly lands on and across
    # segment boundaries, exercising rotation in the crash model
    with tempfile.TemporaryDirectory() as raw_dir:
        directory = Path(raw_dir) / "state"
        database = open_with_items(directory, wal_segment_bytes=256)
        table = database.table("items")
        wal = database.wal

        # state after each WAL record, by record index (the schema DDL
        # for "items" is itself record 1)
        states_after_record = [None]  # index 0: empty directory, no tables
        records_seen = 0
        while len(wal) > records_seen:
            records_seen += 1
            states_after_record.append(database.to_snapshot()["tables"])

        for ops, commit in txns:
            try:
                with database.transaction():
                    for op, pk, value in ops:
                        _apply_op(table, op, pk, value)
                    if not commit:
                        raise _Abort()
            except _Abort:
                pass
            while len(wal) > records_seen:  # empty commits log nothing
                records_seen += 1
                states_after_record.append(database.to_snapshot()["tables"])
        database.close()

        # crash: truncate the log at an arbitrary byte boundary of its
        # logical concatenation.  A crash while appending to segment N
        # leaves segments 1..N-1 whole and N torn, with no later
        # segments — so the crashed copy keeps every full segment
        # below the cut plus a truncated copy of the one containing it.
        segments = sorted((directory / "wal.log").glob("wal-*.log"))
        raw = b"".join(segment.read_bytes() for segment in segments)
        cut = round(cut_fraction * len(raw))
        crashed = Path(raw_dir) / "crashed"
        (crashed / "wal.log").mkdir(parents=True)
        remaining = cut
        for segment in segments:
            if remaining <= 0:
                break
            data = segment.read_bytes()
            (crashed / "wal.log" / segment.name).write_bytes(data[:remaining])
            remaining -= len(data)

        # how many records fit entirely below the cut?
        survivors = 0
        offset = 0
        while True:
            newline = raw.find(b"\n", offset)
            if newline == -1 or newline + 1 > cut:
                break
            survivors += 1
            offset = newline + 1

        recovered = Database.open(crashed, fsync="never")
        try:
            expected = states_after_record[survivors]
            got = recovered.to_snapshot()["tables"]
            assert got == (expected if expected is not None else {})
            recovered.verify()
            assert recovered.recovery.records_replayed == survivors
        finally:
            recovered.close()


class _Abort(Exception):
    """Sentinel forcing a rollback inside the property run."""


# ---------------------------------------------------------------------------
# checkpoint atomicity (regression: snapshot-then-truncate ordering)
# ---------------------------------------------------------------------------

class TestCheckpointAtomicity:
    def test_crash_during_snapshot_write_preserves_wal(self, tmp_path, monkeypatch):
        """Injected crash *before* the atomic rename lands: the WAL must
        still hold every committed record, so nothing is lost."""
        database = open_with_items(tmp_path / "state")
        table = database.table("items")
        for index in range(4):
            table.insert({"value": f"v{index}"})
        records_before = len(database.wal)

        def explode(path, payload):
            raise OSError("simulated crash during checkpoint write")

        monkeypatch.setattr("repro.store.persist.write_bytes_atomic", explode)
        with pytest.raises(OSError, match="simulated crash"):
            database.checkpoint()
        monkeypatch.undo()

        assert len(database.wal) == records_before  # not truncated
        assert not list((tmp_path / "state").glob("checkpoint-*.json"))
        database.close()

        recovered = Database.open(tmp_path / "state", fsync="never")
        assert [row["value"] for row in recovered.table("items").scan()] == [
            "v0", "v1", "v2", "v3",
        ]
        recovered.close()

    def test_crash_between_rename_and_truncate_recovers_cleanly(
        self, tmp_path, monkeypatch
    ):
        """Injected crash *after* the snapshot landed but before the WAL
        prune: replay of already-checkpointed records is idempotent."""
        database = open_with_items(tmp_path / "state")
        table = database.table("items")
        for index in range(4):
            table.insert({"value": f"v{index}"})
        expected = database.to_snapshot()["tables"]

        monkeypatch.setattr(
            type(database.wal),
            "truncate_through",
            lambda self, lsn: (_ for _ in ()).throw(OSError("crash before prune")),
        )
        with pytest.raises(OSError, match="crash before prune"):
            database.checkpoint()
        monkeypatch.undo()
        database.close()

        # checkpoint landed AND the full WAL survived
        assert list((tmp_path / "state").glob("checkpoint-*.json"))
        recovered = Database.open(tmp_path / "state", fsync="never")
        assert recovered.to_snapshot()["tables"] == expected
        recovered.verify()
        recovered.close()

    def test_checkpoint_prunes_covered_records_and_old_files(self, tmp_path):
        """The WAL retains exactly the suffix the previous (retained)
        checkpoint generation would need — never less.  Pruning is
        segment-granular, so with one record per segment (segment_bytes
        small enough to rotate after every write) the retained record
        set is exact."""
        database = open_with_items(tmp_path / "state", wal_segment_bytes=1)
        table = database.table("items")
        previous_lsn = 0
        for round_number in range(CHECKPOINT_KEEP + 2):
            table.insert({"value": f"round-{round_number}"})
            lsn_before = database.wal.sequence
            stats = database.checkpoint()
            assert stats["tables_rewritten"] == 1  # "items" is dirty
            # records above the *previous* generation's lsn survive
            kept = [record.lsn for record in database.wal.records()]
            assert kept == [
                lsn for lsn in range(previous_lsn + 1, lsn_before + 1)
            ]
            previous_lsn = lsn_before
        checkpoints = sorted((tmp_path / "state").glob("checkpoint-*.json"))
        assert len(checkpoints) == CHECKPOINT_KEEP
        database.close()

        recovered = Database.open(tmp_path / "state", fsync="never")
        assert len(recovered.table("items")) == CHECKPOINT_KEEP + 2
        recovered.close()

    def test_corrupt_newest_checkpoint_falls_back_without_loss(self, tmp_path):
        """An unreadable newest checkpoint falls back to the previous
        generation, whose WAL suffix was retained — full recovery."""
        database = open_with_items(tmp_path / "state")
        table = database.table("items")
        table.insert({"value": "gen1"})
        database.checkpoint()
        table.insert({"value": "gen2"})
        database.checkpoint()
        table.insert({"value": "tail"})
        expected = database.to_snapshot()["tables"]
        database.close()

        newest = sorted((tmp_path / "state").glob("checkpoint-*.json"))[-1]
        newest.write_text("{half a snapshot", encoding="utf-8")
        recovered = Database.open(tmp_path / "state", fsync="never")
        assert newest.name in recovered.recovery.skipped_checkpoints
        assert recovered.recovery.checkpoint_path is not None  # older gen
        assert recovered.to_snapshot()["tables"] == expected
        recovered.verify()
        recovered.close()

    def test_structurally_broken_newest_checkpoint_falls_back(self, tmp_path):
        """Valid JSON with a malformed payload must also fall back, not
        abort recovery."""
        database = open_with_items(tmp_path / "state")
        database.table("items").insert({"value": "gen1"})
        database.checkpoint()
        database.table("items").insert({"value": "gen2"})
        database.checkpoint()
        expected = database.to_snapshot()["tables"]
        database.close()

        newest = sorted((tmp_path / "state").glob("checkpoint-*.json"))[-1]
        newest.write_text('{"wal_lsn": 3, "tables": {"items": {}}}', encoding="utf-8")
        recovered = Database.open(tmp_path / "state", fsync="never")
        assert newest.name in recovered.recovery.skipped_checkpoints
        assert recovered.to_snapshot()["tables"] == expected
        recovered.close()

    def test_checkpoint_inside_transaction_rejected(self, tmp_path):
        database = open_with_items(tmp_path / "state")
        with pytest.raises(TransactionError, match="checkpoint inside"):
            with database.transaction():
                database.checkpoint()
        database.close()

    def test_checkpoint_after_close_rejected(self, tmp_path):
        """A snapshot stamped with an unknown (zero) wal_lsn would make
        recovery replay the full retained log over it."""
        database = open_with_items(tmp_path / "state")
        database.table("items").insert({"value": "a"})
        database.close()
        with pytest.raises(TransactionError, match="closed durable database"):
            database.checkpoint()

    def test_in_memory_checkpoint_rejected(self):
        """Without a managed directory there is nowhere to persist a
        generation; the image is to_snapshot()'s job."""
        database = Database("d")
        database.create_table("items", item_schema())
        with pytest.raises(TransactionError, match="managed durability directory"):
            database.checkpoint()

    def test_table_ddl_inside_transaction_rejected(self, tmp_path):
        """Regression: DDL autocommits its own WAL record, so inside a
        transaction it journaled *before* the commit record — a
        committed drop_table+insert log replayed out of order and made
        the directory permanently unrecoverable."""
        database = open_with_items(tmp_path / "state")
        table = database.table("items")
        with pytest.raises(TransactionError, match="not supported"):
            with database.transaction():
                table.insert({"value": "x"})
                database.drop_table("items")
        # the rejected DDL aborted the transaction cleanly
        assert len(table) == 0
        with pytest.raises(TransactionError, match="not supported"):
            with database.transaction():
                database.create_table("other", item_schema())
        database.close()

        recovered = Database.open(tmp_path / "state", fsync="never")
        assert recovered.table_names() == ["items"]
        recovered.verify()
        recovered.close()


# ---------------------------------------------------------------------------
# incremental checkpoints: manifest + per-table files
# ---------------------------------------------------------------------------

class TestIncrementalCheckpoints:
    def _two_tables(self, directory) -> Database:
        database = open_with_items(directory)
        database.create_table("other", item_schema())
        database.table("items").insert({"value": "a"})
        database.table("other").insert({"value": "b"})
        return database

    def test_clean_tables_reuse_files_dirty_tables_rewrite(self, tmp_path):
        state = tmp_path / "state"
        database = self._two_tables(state)
        stats = database.checkpoint()
        assert stats["generation"] == 1
        assert (stats["tables_rewritten"], stats["tables_reused"]) == (2, 0)

        database.table("items").insert({"value": "c"})
        stats = database.checkpoint()
        assert (stats["tables_rewritten"], stats["tables_reused"]) == (1, 1)
        # gen 2 rewrote "items" and re-references gen 1's "other" file
        assert (state / "table-items-000002.json").exists()
        assert (state / "table-other-000001.json").exists()
        assert not (state / "table-other-000002.json").exists()
        expected = database.to_snapshot()["tables"]
        database.close()

        recovered = Database.open(state, fsync="never")
        assert recovered.recovery.checkpoint_generation == 2
        assert recovered.recovery.checkpoint_table_files == 2
        assert recovered.recovery.records_replayed == 0
        assert recovered.to_snapshot()["tables"] == expected
        recovered.verify()
        recovered.close()

    def test_noop_checkpoint_reuses_every_file(self, tmp_path):
        database = self._two_tables(tmp_path / "state")
        database.checkpoint()
        stats = database.checkpoint()
        assert (stats["tables_rewritten"], stats["tables_reused"]) == (0, 2)
        assert stats["bytes_written"] > 0  # the manifest itself
        database.close()

    def test_unreferenced_table_files_are_garbage_collected(self, tmp_path):
        state = tmp_path / "state"
        database = self._two_tables(state)
        for round_number in range(CHECKPOINT_KEEP + 2):
            database.table("items").insert({"value": f"r{round_number}"})
            database.checkpoint()
        # only the retained generations' "items" files survive; the
        # never-rewritten "other" file stays referenced by every
        # manifest and must NOT be collected
        live = sorted(p.name for p in state.glob("table-*.json"))
        last = CHECKPOINT_KEEP + 2
        assert live == sorted(
            [f"table-items-{gen:06d}.json" for gen in (last - 1, last)]
            + ["table-other-000001.json"]
        )
        database.close()

    def test_missing_table_file_quarantines_manifest(self, tmp_path):
        state = tmp_path / "state"
        database = self._two_tables(state)
        database.checkpoint()
        database.table("items").insert({"value": "c"})
        database.checkpoint()
        expected = database.to_snapshot()["tables"]
        database.close()

        (state / "table-items-000002.json").unlink()
        recovered = Database.open(state, fsync="never")
        report = recovered.recovery
        assert "checkpoint-000002.manifest.json" in report.skipped_checkpoints
        assert report.checkpoint_generation == 1  # fell back
        assert (state / "checkpoint-000002.manifest.json.corrupt").exists()
        # gen 1 plus the retained WAL suffix reproduces the full state
        assert recovered.to_snapshot()["tables"] == expected
        recovered.verify()
        recovered.close()

    def test_recreated_table_never_reuses_stale_file(self, tmp_path):
        """Drop + recreate under the same name can reproduce the same
        version counter value; the baseline must not survive the drop,
        or the next checkpoint would re-reference the stale file."""
        state = tmp_path / "state"
        database = self._two_tables(state)
        database.checkpoint()
        database.drop_table("other")
        database.create_table("other", item_schema())
        database.table("other").insert({"value": "replacement"})
        stats = database.checkpoint()
        # untouched "items" is still reused; recreated "other" is dirty
        assert (stats["tables_rewritten"], stats["tables_reused"]) == (1, 1)
        database.close()

        recovered = Database.open(state, fsync="never")
        assert [row["value"] for row in recovered.table("other").scan()] == [
            "replacement"
        ]
        recovered.verify()
        recovered.close()

    @pytest.mark.parametrize("crash_call", [1, 2, 3])
    @pytest.mark.parametrize("after_replace", [False, True])
    def test_crash_anywhere_in_publish_sequence_is_lossless(
        self, tmp_path, monkeypatch, crash_call, after_replace
    ):
        """An incremental checkpoint publishes via a sequence of atomic
        renames (one per rewritten table file, then the manifest).  A
        crash before or after ANY of those renames must recover every
        acked commit: table files land before the manifest that
        references them, and the WAL is pruned only after the manifest
        rename — so the previous generation plus the unpruned log
        always reproduces the state."""
        import repro.store.persist as persist_module

        state = tmp_path / "state"
        database = self._two_tables(state)
        database.checkpoint()
        database.table("items").insert({"value": "c"})
        database.table("other").insert({"value": "d"})
        expected = database.to_snapshot()["tables"]

        calls = {"count": 0}
        real_replace = persist_module.os.replace

        def exploding_replace(src, dst):
            calls["count"] += 1
            if calls["count"] == crash_call:
                if after_replace:
                    real_replace(src, dst)
                raise OSError("simulated crash in checkpoint publish")
            return real_replace(src, dst)

        monkeypatch.setattr("repro.store.persist.os.replace", exploding_replace)
        with pytest.raises(OSError, match="simulated crash"):
            database.checkpoint()
        monkeypatch.undo()
        # both rewritten table files plus the manifest rename
        assert calls["count"] == crash_call
        database.close()

        recovered = Database.open(state, fsync="never")
        assert recovered.to_snapshot()["tables"] == expected
        recovered.verify()
        recovered.close()


# ---------------------------------------------------------------------------
# recovery semantics
# ---------------------------------------------------------------------------

class TestRecovery:
    def test_checkpoint_plus_suffix_replay(self, tmp_path):
        database = open_with_items(tmp_path / "state")
        table = database.table("items")
        table.insert({"value": "pre"})
        database.checkpoint()
        table.insert({"value": "post"})
        expected = database.to_snapshot()["tables"]
        database.close()

        recovered = Database.open(tmp_path / "state", fsync="never")
        report = recovered.recovery
        assert report.checkpoint_path is not None
        assert report.records_replayed == 1  # only the post-checkpoint insert
        assert recovered.to_snapshot()["tables"] == expected
        recovered.close()

    def test_ddl_after_checkpoint_is_replayed(self, tmp_path):
        database = open_with_items(tmp_path / "state")
        database.checkpoint()
        database.create_table(
            "extras",
            Schema([Column("id", DataType.INT), Column("k", DataType.TEXT)],
                   primary_key="id"),
        )
        database.table("extras").create_index("k", kind="hash")
        database.table("extras").insert({"k": "x"})
        database.close()

        recovered = Database.open(tmp_path / "state", fsync="never")
        extras = recovered.table("extras")
        assert extras.index_columns() == ["k"]
        assert extras.index_for("k").lookup("x") == {1}
        recovered.verify()
        recovered.close()

    def test_autoincrement_survives_recovery(self, tmp_path):
        database = open_with_items(tmp_path / "state")
        database.table("items").insert({"value": "a"})
        database.table("items").insert({"value": "b"})
        database.table("items").delete(2)
        database.close()

        recovered = Database.open(tmp_path / "state", fsync="never")
        # replaying insert+delete of pk 2 must not recycle the pk
        assert recovered.table("items").insert({"value": "c"}) == 3
        recovered.close()

    @pytest.mark.parametrize("layout", ["full-checkpoint", "single-file-wal"])
    def test_legacy_layout_fails_closed(self, tmp_path, layout):
        """Older layouts are refused before any file is touched: a
        single-file checkpoint-NNNNNN.json snapshot (the WAL below its
        wal_lsn may already be pruned, so skipping it would lose
        committed rows) and a single-file wal.log."""
        state = tmp_path / "state"
        database = open_with_items(state)
        database.table("items").insert({"value": "a"})
        snapshot = dict(database.to_snapshot(), wal_lsn=database.wal.sequence)
        database.close()
        if layout == "full-checkpoint":
            legacy = "checkpoint-000001.json"
            (state / legacy).write_text(json.dumps(snapshot), encoding="utf-8")
        else:
            legacy = "wal.log"
            log = state / legacy
            segments = sorted(log.glob("wal-*.log"))
            raw = b"".join(segment.read_bytes() for segment in segments)
            for segment in segments:
                segment.unlink()
            log.rmdir()
            log.write_bytes(raw)
        before = file_tree(state)
        with pytest.raises(StoreError, match=re.escape(legacy)):
            Database.open(state, fsync="never")
        assert file_tree(state) == before

    def test_reopen_after_recovery_continues_journaling(self, tmp_path):
        database = open_with_items(tmp_path / "state")
        database.table("items").insert({"value": "a"})
        database.close()
        second = Database.open(tmp_path / "state", fsync="never")
        second.table("items").insert({"value": "b"})
        second.close()
        third = Database.open(tmp_path / "state", fsync="never")
        assert sorted(r["value"] for r in third.table("items").scan()) == ["a", "b"]
        third.close()
