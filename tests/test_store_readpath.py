"""The zero-copy read pipeline's safety and equivalence contracts.

1. **Boundary-copy safety** (hypothesis): rows returned from any public
   read — query execution, scans, gets, pk fetches — can be mutated
   arbitrarily by the caller without corrupting table or index state.
   Internally plans stream row *references*; the copy happens exactly
   once at the API boundary, and this property is what makes that
   discipline safe to rely on.
2. **Live-vs-view equivalence**: a snapshot view captured from a quiet
   table answers every planned query byte-identically to the live
   table, using the *same* indexed access paths (copy-on-write index
   snapshots), and keeps answering byte-identically to its own frozen
   row image under concurrent writer load.
3. **Live re-check**: a write landing between a live index read and
   the row fetch never leaks a row that no longer matches — equality,
   range, join access plans and index nested-loop probes alike.
4. **Copy-on-write index snapshots**: writers detach lazily; pinned
   snapshots never observe later mutations.
5. **Plan-cache selectivity re-check**: a plan compiled for a narrow
   binding is replanned — not reused — for a much wider binding of the
   same shape.
"""

from __future__ import annotations

import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store import (
    And,
    Between,
    Column,
    Database,
    DataType,
    Eq,
    In,
    Lt,
    Or,
    Query,
    Schema,
)


def _schema() -> Schema:
    return Schema(
        [
            Column("id", DataType.INT),
            Column("kind", DataType.TEXT),
            Column("score", DataType.FLOAT, nullable=True),
            Column("payload", DataType.JSON, nullable=True),
        ],
        primary_key="id",
    )


def _build(rows):
    database = Database("readpath")
    table = database.create_table("t", _schema())
    table.create_index("kind", kind="hash")
    table.create_index("score", kind="sorted")
    for kind, score in rows:
        table.insert({"kind": kind, "score": score, "payload": None})
    return database, table


def _canonical(rows) -> str:
    return json.dumps(list(rows), sort_keys=True, default=repr)


_rows_strategy = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c"]),
        st.one_of(st.none(), st.floats(min_value=0, max_value=1, width=16)),
    ),
    min_size=0,
    max_size=30,
)


class TestBoundaryCopySafety:
    @given(rows=_rows_strategy, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_mutating_returned_rows_never_corrupts_state(self, rows, data):
        database, table = _build(rows)
        before = _canonical(sorted(table.scan(), key=lambda r: r["id"]))
        queries = [
            lambda: Query(table).where(Eq("kind", "a")).all(),
            lambda: Query(table).where(Between("score", 0.2, 0.8)).all(),
            lambda: Query(table)
            .where(In("kind", ["a", "b"]))
            .order_by("score")
            .limit(5)
            .all(),
            lambda: [r for r in table.scan()],
            lambda: list(table.rows_for_pks(table.primary_keys())),
            lambda: [table.get(pk) for pk in table.primary_keys()[:3]],
            lambda: [row for row in [Query(table).first()] if row is not None],
        ]
        victims = data.draw(
            st.lists(st.sampled_from(queries), min_size=1, max_size=4)
        )
        for run in victims:
            for row in run():
                # trash every column, add junk keys, then gut the dict
                for key in list(row):
                    row[key] = object()
                row["__junk__"] = [1, 2, 3]
                row.clear()
        table.verify_indexes()
        after = _canonical(sorted(table.scan(), key=lambda r: r["id"]))
        assert after == before

    def test_view_rows_are_mutation_safe_too(self):
        _database, table = _build([("a", 0.5), ("b", 0.7)])
        view = table.read_view()
        for row in view.scan():
            row.clear()
        for row in Query(view).where(Eq("kind", "a")).all():
            row["kind"] = "mutated"
        assert _canonical(view.scan()) == _canonical(table.scan())
        table.verify_indexes()


class TestLiveViewEquivalence:
    def _battery(self, target):
        return [
            Query(target).where(Eq("kind", "a")).all(),
            Query(target).where(Eq("id", 3)).all(),
            Query(target).where(In("kind", ["a", "c"])).all(),
            Query(target).where(Between("score", 0.1, 0.9)).all(),
            Query(target)
            .where(And(Eq("kind", "b"), Between("score", 0.0, 1.0)))
            .all(),
            Query(target).order_by("score", descending=True).limit(4).all(),
            Query(target).where(Eq("kind", "a")).count(),
            Query(target).aggregate("score", "sum"),
        ]

    def test_view_plans_match_live_plans_and_results(self):
        _database, table = _build(
            [("a", 0.1), ("b", 0.5), ("a", 0.9), ("c", None), ("b", 0.3)] * 4
        )
        view = table.read_view()
        assert _canonical(self._battery(table)) == _canonical(self._battery(view))
        # same access paths, not a full-scan fallback
        for query, fragment in (
            (Query(view).where(Eq("kind", "a")), "hash-index"),
            (Query(view).where(Between("score", 0.2, 0.8)), "sorted-index-range"),
            (Query(view).order_by("score").limit(3), "top-k"),
            (Query(view).where(Eq("id", 1)), "pk-lookup"),
        ):
            assert fragment in query.explain()

    def test_live_indexed_reads_survive_same_bucket_writer(self):
        """Regression guard for the zero-copy pipeline: live iter_eq /
        iter_range capture their bucket/span atomically, so a reader
        streaming an equality or range query never crashes (or misses
        committed rows of an untouched generation) while a writer
        mutates the *same* bucket/span."""
        database, table = _build([("hot", i / 100) for i in range(100)])
        stop = threading.Event()
        errors: list[str] = []

        def writer():
            stamp = 0
            while not stop.is_set():
                stamp += 1
                pk = (stamp % 100) + 1
                # flip kind in and out of the hot bucket + shift scores
                table.update(
                    pk,
                    {
                        "kind": "cold" if stamp % 2 else "hot",
                        "score": (stamp % 50) / 50,
                    },
                )

        def reader():
            try:
                for _ in range(300):
                    rows = Query(table).where(Eq("kind", "hot")).all()
                    assert all(r["kind"] == "hot" for r in rows)
                    Query(table).where(Between("score", 0.2, 0.8)).count()
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(repr(exc))

        readers = [threading.Thread(target=reader) for _ in range(2)]
        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        for thread in readers:
            thread.start()
        for thread in readers:
            thread.join(timeout=30.0)
        stop.set()
        writer_thread.join(timeout=30.0)
        assert not errors, errors
        table.verify_indexes()

    def test_view_results_byte_identical_under_writer_load(self):
        database, table = _build([("a", 0.2), ("b", 0.6)] * 20)
        stop = threading.Event()
        errors: list[str] = []

        def writer():
            stamp = 0
            while not stop.is_set():
                stamp += 1
                with database.transaction():
                    table.update((stamp % 40) + 1, {"score": (stamp % 10) / 10})
                if stamp % 7 == 0:
                    table.insert({"kind": "c", "score": 0.5, "payload": None})

        def reader():
            try:
                for _ in range(60):
                    view = table.read_view()
                    # indexed plan vs brute force over the same frozen
                    # rows: byte-identical, twice (repeatable read)
                    brute = sorted(
                        (r for r in view.scan() if r["kind"] == "a"),
                        key=lambda r: r["id"],
                    )
                    for _repeat in range(2):
                        planned = sorted(
                            Query(view).where(Eq("kind", "a")).all(),
                            key=lambda r: r["id"],
                        )
                        if _canonical(planned) != _canonical(brute):
                            errors.append("planned view read != frozen scan")
                            return
                    ranged = Query(view).where(Between("score", 0.0, 1.0)).count()
                    if ranged != sum(
                        1 for r in view.scan() if r["score"] is not None
                    ):
                        errors.append("ranged view count != frozen scan")
                        return
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(repr(exc))

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        stop.set()
        writer_thread.join(timeout=30.0)
        assert not errors, errors
        table.verify_indexes()


class TestLiveIndexedReadsRecheck:
    """A live index read captures pks, then fetches the rows; a write
    landing in between must not leak a row that no longer matches.
    Each case lands the write deterministically mid-stream."""

    @staticmethod
    def _hot_table():
        return _build([("hot", position / 20) for position in range(10)])

    def test_equality_read_drops_a_row_moved_out_of_the_bucket(self):
        _database, table = self._hot_table()
        rows = Query(table).where(Eq("kind", "hot"))._execute()
        first = next(rows)
        table.update(5, {"kind": "cold"})
        rest = list(rows)
        assert [row["kind"] for row in [first, *rest]] == ["hot"] * 9
        assert 5 not in {row["id"] for row in rest}

    def test_range_read_drops_a_row_moved_out_of_the_span(self):
        _database, table = self._hot_table()
        rows = Query(table).where(Between("score", 0.0, 0.5))._execute()
        next(rows)
        table.update(5, {"score": 0.95})
        assert all(0.0 <= row["score"] <= 0.5 for row in rows)

    @pytest.mark.parametrize(
        ("predicate", "write", "node"),
        [
            (Or(Eq("kind", "hot"), Eq("kind", "warm")), {"kind": "cold"}, "union("),
            (
                And(Eq("kind", "hot"), Between("score", 0.0, 0.5)),
                {"score": 0.95},
                "intersect(",
            ),
        ],
        ids=["union", "intersect"],
    )
    def test_combined_access_plans_recheck_every_part(self, predicate, write, node):
        _database, table = self._hot_table()
        query = Query(table).where(predicate)
        assert node in query.explain()
        rows = query._execute()
        next(rows)
        table.update(5, write)
        rest = list(rows)
        assert len(rest) == 8
        assert all(predicate.matches(row) for row in rest)

    def test_a_union_branch_rechecks_its_residual_filter(self):
        # a filtered branch streams pks out of its own fetch; the union
        # fetches again, so its re-check must include the residual
        _database, table = self._hot_table()
        predicate = Or(And(Eq("kind", "hot"), Eq("payload", None)), Eq("kind", "warm"))
        plan = Query(table).where(predicate)._build_plan(None)
        assert plan.describe().startswith("union(")
        row = {"id": 5, "kind": "hot", "score": 0.25, "payload": None}
        assert plan.still_matches(row)
        assert not plan.still_matches({**row, "payload": [1]})
        assert not plan.still_matches({**row, "kind": "cold"})
        assert plan.still_matches({**row, "kind": "warm", "payload": [1]})
        # an unsatisfiable branch re-checks as matching nothing
        empty_branch = Query(table).where(Or(Lt("score", None), Eq("kind", "warm")))
        plan = empty_branch._build_plan(None)
        assert "empty(t: NULL comparison value)" in plan.render()
        assert not plan.still_matches(row)

    def _joined(self, other_kinds):
        database, table = self._hot_table()
        other = database.create_table("u", _schema())
        other.create_index("kind", kind="hash")
        for kind in other_kinds:
            other.insert({"kind": kind, "score": None, "payload": None})
        return table, other

    def test_join_access_plans_recheck_their_predicate(self):
        # u is wide and nearly unique on kind, so t's index read is the
        # probe side and streams while the join runs
        table, other = self._joined(
            ["hot", "cold"] + [f"k{position}" for position in range(98)]
        )
        join = (
            Query(table)
            .where(Eq("kind", "hot"))
            .join(other, on=("kind", "kind"), prefix_right="u_")
        )
        assert "  hash-index(t.kind='hot'" in join.explain()
        rows = iter(join)
        next(rows)
        table.update(5, {"kind": "cold"})
        assert all(row["kind"] == row["u_kind"] == "hot" for row in rows)

    def test_index_nested_loop_rechecks_the_probed_join_key(self, monkeypatch):
        table, other = self._joined(["hot", "cold"])
        join = Query(other).join(table, on=("kind", "kind"), prefix_right="t_")
        assert "via hash-index" in join.explain()
        index = table.index_for("kind")
        lookup = index.lookup

        def lookup_then_write(value):
            pks = lookup(value)
            if value == "hot" and table.get(5)["kind"] == "hot":
                table.update(5, {"kind": "cold"})  # lands before the fetch
            return pks

        monkeypatch.setattr(index, "lookup", lookup_then_write)
        rows = join.all()
        assert all(row["kind"] == row["t_kind"] for row in rows)
        assert sorted(row["t_id"] for row in rows if row["kind"] == "hot") == [
            pk for pk in range(1, 11) if pk != 5
        ]


class TestCopyOnWriteIndexSnapshots:
    def test_hash_snapshot_pins_buckets(self):
        _database, table = _build([("a", 0.1), ("a", 0.2), ("b", 0.3)])
        index = table.index_for("kind")
        snap = index.snapshot()
        table.insert({"kind": "a", "score": 0.9, "payload": None})
        table.delete(3)  # the "b" row
        assert snap.lookup("a") == {1, 2}
        assert snap.lookup("b") == {3}
        assert snap.estimate_eq("a") == 2
        assert snap.n_distinct() == 2
        assert len(snap) == 3
        assert index.lookup("a") == {1, 2, 4}
        assert index.lookup("b") == set()

    def test_sorted_snapshot_pins_spans_and_nulls(self):
        _database, table = _build([("a", 0.1), ("b", 0.5), ("c", None)])
        index = table.index_for("score")
        snap = index.snapshot()
        table.update(1, {"score": 0.7})
        table.update(3, {"score": 0.2})
        assert snap.range(0.0, 1.0) == [1, 2]
        assert snap.lookup(None) == {3}
        assert snap.n_distinct() == 3  # 0.1, 0.5, NULL group
        assert index.lookup(None) == set()
        assert index.range(0.0, 1.0) == [3, 2, 1]

    def test_snapshot_generations_are_independent(self):
        _database, table = _build([("a", 0.1)])
        index = table.index_for("kind")
        first = index.snapshot()
        table.insert({"kind": "a", "score": 0.2, "payload": None})
        second = index.snapshot()
        table.insert({"kind": "a", "score": 0.3, "payload": None})
        assert first.lookup("a") == {1}
        assert second.lookup("a") == {1, 2}
        assert index.lookup("a") == {1, 2, 3}

    def test_view_is_o1_and_stale_flag_still_works(self):
        _database, table = _build([("a", 0.1), ("b", 0.2)])
        view = table.read_view()
        assert not view.stale
        table.insert({"kind": "c", "score": 0.9, "payload": None})
        assert view.stale
        assert len(view) == 2
        assert Query(view).where(Eq("kind", "c")).all() == []


class TestPlanCacheSelectivityRecheck:
    def test_wide_binding_replans_instead_of_reusing(self):
        database = Database("recheck")
        table = database.create_table("t", _schema())
        table.create_index("kind", kind="hash")
        for position in range(400):
            table.insert(
                {
                    "kind": "rare" if position < 4 else "common",
                    "score": (position % 10) / 10,
                    "payload": None,
                }
            )
        table.plan_cache.clear()
        narrow = Query(table).where(Eq("kind", "rare"))
        assert narrow.count() == 4
        assert "[plan-cache: miss]" in narrow.explain() or table.plan_cache.misses
        wide = Query(table).where(Eq("kind", "common"))
        assert wide.count() == 396
        assert table.plan_cache.rechecks >= 1
        # the wide plan overwrote the entry; wide now hits, and narrow
        # passes the re-check (narrower than cached is always safe)
        assert "[plan-cache: hit]" in Query(table).where(Eq("kind", "common")).explain()
        assert "[plan-cache: hit]" in Query(table).where(Eq("kind", "rare")).explain()

    def test_similar_bindings_still_hit(self):
        database = Database("recheck2")
        table = database.create_table("t", _schema())
        table.create_index("kind", kind="hash")
        for position in range(100):
            table.insert(
                {"kind": f"k{position % 4}", "score": 0.5, "payload": None}
            )
        table.plan_cache.clear()
        Query(table).where(Eq("kind", "k0")).count()
        before = table.plan_cache.rechecks
        assert "[plan-cache: hit]" in Query(table).where(Eq("kind", "k1")).explain()
        assert table.plan_cache.rechecks == before
