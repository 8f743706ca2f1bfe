"""Unit tests: database DDL, snapshots, CSV export."""

import pytest

from repro.store import (
    Column,
    ConstraintError,
    Database,
    DataType,
    Eq,
    Query,
    Schema,
    UnknownTableError,
    export_table_csv,
)


def schema() -> Schema:
    return Schema(
        [
            Column("id", DataType.INT),
            Column("name", DataType.TEXT),
            Column("payload", DataType.JSON, nullable=True),
        ],
        primary_key="id",
    )


class TestDdl:
    def test_create_and_get(self):
        database = Database("d")
        database.create_table("t", schema())
        assert database.has_table("t")
        assert database.table_names() == ["t"]

    def test_duplicate_table_rejected(self):
        database = Database("d")
        database.create_table("t", schema())
        with pytest.raises(Exception, match="already exists"):
            database.create_table("t", schema())

    def test_unknown_table_raises_with_suggestions(self):
        database = Database("d")
        database.create_table("t", schema())
        with pytest.raises(UnknownTableError, match="'t'"):
            database.table("missing")

    def test_drop_table(self):
        database = Database("d")
        database.create_table("t", schema())
        database.drop_table("t")
        assert not database.has_table("t")
        with pytest.raises(UnknownTableError):
            database.drop_table("t")


class TestSnapshots:
    def build(self) -> Database:
        database = Database("d")
        table = database.create_table("t", schema())
        table.create_index("name", kind="hash")
        table.insert({"name": "a", "payload": {"k": [1, 2]}})
        table.insert({"name": "b", "payload": None})
        return database

    def test_snapshot_roundtrip(self):
        database = self.build()
        clone = Database.from_snapshot(database.to_snapshot())
        assert clone.table_names() == ["t"]
        assert list(clone.table("t").scan()) == list(database.table("t").scan())

    def test_snapshot_restores_indexes(self):
        database = self.build()
        clone = Database.from_snapshot(database.to_snapshot())
        index = clone.table("t").index_for("name")
        assert index is not None
        assert index.lookup("a") == {1}
        clone.verify()

    def test_snapshot_restores_autoincrement(self):
        database = self.build()
        clone = Database.from_snapshot(database.to_snapshot())
        assert clone.table("t").insert({"name": "c"}) == 3

    def test_verify_cross_checks_plan_caches(self):
        """Database.verify() covers cached-plan metadata, not just
        index membership: warmed single-table and join entries pass."""
        database = Database("d")
        left = database.create_table("left", schema())
        right = database.create_table(
            "right",
            Schema(
                [Column("id", DataType.INT), Column("name", DataType.TEXT)],
                primary_key="id",
            ),
        )
        for name in ("a", "b", "c"):
            left.insert({"name": name, "payload": None})
            right.insert({"name": name})
        Query(left).where(Eq("name", "a")).count()
        Query(left).join(right, on=("name", "name"), prefix_right="r_").all()
        assert len(left.plan_cache) >= 1
        database.verify()

    def test_verify_rejects_regressed_ddl_generation(self):
        """A join entry pinning a participant at a generation beyond the
        participant cache's current one means metadata rolled backwards."""
        database = Database("d")
        left = database.create_table("left", schema())
        right = database.create_table(
            "right",
            Schema(
                [Column("id", DataType.INT), Column("name", DataType.TEXT)],
                primary_key="id",
            ),
        )
        left.insert({"name": "a", "payload": None})
        right.insert({"name": "a"})
        Query(left).join(right, on=("name", "name"), prefix_right="r_").all()
        entry = next(
            e for e in left.plan_cache._entries.values() if hasattr(e, "participants")
        )
        entry.participants = tuple(
            (table, generation + 99, rows)
            for table, generation, rows in entry.participants
        )
        with pytest.raises(ConstraintError, match="generations only advance"):
            database.verify()

    def test_verify_rejects_negative_row_counter(self):
        database = Database("d")
        table = database.create_table("t", schema())
        table.insert({"name": "a", "payload": None})
        Query(table).where(Eq("name", "a")).count()
        entry = next(iter(table.plan_cache._entries.values()))
        entry.row_count = -1
        with pytest.raises(ConstraintError, match="negative row"):
            database.verify()

    def test_verify_rejects_misrooted_join_entry(self):
        database = Database("d")
        left = database.create_table("left", schema())
        right = database.create_table(
            "right",
            Schema(
                [Column("id", DataType.INT), Column("name", DataType.TEXT)],
                primary_key="id",
            ),
        )
        left.insert({"name": "a", "payload": None})
        right.insert({"name": "a"})
        Query(left).join(right, on=("name", "name"), prefix_right="r_").all()
        key, entry = next(
            (k, e)
            for k, e in left.plan_cache._entries.items()
            if hasattr(e, "participants")
        )
        right.plan_cache._entries[key] = entry
        with pytest.raises(ConstraintError, match="rooted"):
            database.verify()

    def test_csv_export(self, tmp_path):
        database = self.build()
        path = export_table_csv(database, "t", tmp_path / "t.csv")
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "id,name,payload"
        assert len(lines) == 3
        assert '""k"": [1, 2]' in lines[1] or '{""k"": [1, 2]}' in lines[1]
