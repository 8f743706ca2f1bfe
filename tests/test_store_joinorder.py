"""Tests for multi-way join ordering (the join-graph planner).

Layers:

- targeted assertions: the DP order search reorders a badly-written
  3-way join (selective relation first, the big one hash-joined last
  with the build on the joined pair), joins on sorted-indexed columns,
  predicate pushdown, the written-order fold for colliding column names
  and for graphs above the DP cutoff, join plan-cache behaviour,
  LIMIT costing of ordered top-k joins, and MCV-backed string-equality
  selectivity;
- a hypothesis property: every planned 3-way join — chained inner and
  left-outer joins, with NULL keys, random index layouts, pushdown
  filters and limit/offset — is byte-identical to brute-force nested
  loops (with ordered roots compared positionally, including the
  window).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store import (
    Between,
    Column,
    Database,
    DataType,
    Eq,
    MostCommonValues,
    Ne,
    Query,
    QueryError,
    Schema,
)
from repro.store.plan import order_key

# ----------------------------------------------------------------------
# fixtures / helpers
# ----------------------------------------------------------------------


def _triple(a_rows, b_rows, c_rows, *, b_layout="none", c_layout="none"):
    """Three joinable tables: a.key -> b.akey, b.ckey -> c.key."""
    database = Database("joinorder")
    a = database.create_table(
        "ta",
        Schema(
            [
                Column("id", DataType.INT),
                Column("key", DataType.INT, nullable=True),
                Column("kind", DataType.TEXT),
            ],
            primary_key="id",
        ),
    )
    b = database.create_table(
        "tb",
        Schema(
            [
                Column("id", DataType.INT),
                Column("akey", DataType.INT, nullable=True),
                Column("ckey", DataType.INT, nullable=True),
                Column("tag", DataType.TEXT),
            ],
            primary_key="id",
        ),
    )
    c = database.create_table(
        "tc",
        Schema(
            [
                Column("id", DataType.INT),
                Column("key", DataType.INT, nullable=True),
                Column("label", DataType.TEXT),
            ],
            primary_key="id",
        ),
    )
    if b_layout in ("hash", "sorted"):
        b.create_index("akey", kind=b_layout)
    if c_layout in ("hash", "sorted"):
        c.create_index("key", kind=c_layout)
    for key, kind in a_rows:
        a.insert({"key": key, "kind": kind})
    for akey, ckey, tag in b_rows:
        b.insert({"akey": akey, "ckey": ckey, "tag": tag})
    for key, label in c_rows:
        c.insert({"key": key, "label": label})
    return a, b, c


def _brute_binary(left_rows, right_rows, *, left_key, right_key, how,
                  prefix_right, right_columns):
    """One nested-loop join step over combined dict rows."""
    out = []
    for left in left_rows:
        matches = [
            right
            for right in right_rows
            if left[left_key] is not None
            and right[right_key] is not None
            and left[left_key] == right[right_key]
        ]
        if matches:
            for right in matches:
                combined = dict(left)
                combined.update(
                    {f"{prefix_right}{k}": v for k, v in right.items()}
                )
                out.append(combined)
        elif how == "left":
            combined = dict(left)
            combined.update({f"{prefix_right}{k}": None for k in right_columns})
            out.append(combined)
    return out


def _brute_chain(root_rows, steps):
    """The caller-written left-deep order, evaluated by nested loops:
    fold ``(rows, left_key, right_key, prefix_right)`` inner-join steps
    over ``root_rows`` with :func:`_brute_binary`."""
    out = list(root_rows)
    for rows, left_key, right_key, prefix_right in steps:
        out = _brute_binary(
            out, rows, left_key=left_key, right_key=right_key, how="inner",
            prefix_right=prefix_right, right_columns=(),
        )
    return out


def _skewed_expected(a, b, c, label):
    """Brute-force rows of the skewed 3-way join filtered to ``label``."""
    rows = _brute_chain(
        a.scan(),
        [(list(b.scan()), "key", "akey", "b_"), (list(c.scan()), "b_ckey", "key", "c_")],
    )
    return [row for row in rows if row["c_label"] == label]


def _canonical(rows):
    return sorted(
        rows,
        key=lambda row: tuple(
            order_key(row.get(name)) for name in ("id", "b_id", "c_id")
        ),
    )


# ----------------------------------------------------------------------
# order search
# ----------------------------------------------------------------------


def _skewed_triple():
    """a is large and unindexed on the join key; c is tiny and
    selective — written order is the worst order."""
    a, b, c = _triple(
        [(i % 40, "x") for i in range(400)],
        [(i % 40, i % 30, "t") for i in range(300)],
        [(i, "rare" if i < 2 else "common") for i in range(30)],
        b_layout="none",
        c_layout="none",
    )
    b.create_index("ckey", kind="hash")
    c.create_index("label", kind="hash")
    return a, b, c


class TestOrderSearch:
    def test_search_reorders_a_badly_written_three_way(self):
        a, b, c = _skewed_triple()
        join = (
            Query(a)
            .join(b, on=("key", "akey"), prefix_right="b_")
            .join(c, on=("b_ckey", "key"), prefix_right="c_")
            .where(Eq("c_label", "rare"))
        )
        plan = join.explain()
        # the selective categories relation is joined first and the big
        # unindexed one last: order differs from the written ta -> tb -> tc
        assert "[join-order: tc -> tb -> ta (dp)]" in plan
        lines = plan.splitlines()
        # the hash table is built over the joined pair (left input) and
        # the big relation streams through it
        assert lines[0].startswith("hash-join") and "build=left" in lines[0]
        assert lines[1].startswith("  index-nl-join")
        assert lines[3].startswith("  full-scan(ta")

    def test_search_and_written_orders_agree_on_rows(self):
        a, b, c = _skewed_triple()
        searched = (
            Query(a)
            .join(b, on=("key", "akey"), prefix_right="b_")
            .join(c, on=("b_ckey", "key"), prefix_right="c_")
            .where(Eq("c_label", "rare"))
        )
        expected = _skewed_expected(a, b, c, "rare")
        assert _canonical(searched.all()) == _canonical(expected)
        assert searched.count() == len(expected) > 0

    def test_collisions_pin_the_written_order(self):
        # no prefixes: every table exposes "id", so reordering would
        # change which relation wins the collision
        a, b, c = _triple(
            [(1, "x")], [(1, 2, "t")], [(2, "l")], b_layout="hash", c_layout="hash"
        )
        join = Query(a).join(b, on=("key", "akey")).join(c, on=("ckey", "key"))
        assert "(written)" in join.explain()
        rows = join.all()
        assert len(rows) == 1
        assert rows[0]["label"] == "l"

    def test_ordered_root_is_preserved_through_chained_joins(self):
        a, b, c = _triple(
            [(3, "x"), (1, "x"), (2, "x")],
            [(1, 1, "t"), (2, 1, "t"), (3, 1, "t")],
            [(1, "l")],
            b_layout="hash",
            c_layout="hash",
        )
        join = (
            Query(a)
            .order_by("key", descending=True)
            .join(b, on=("key", "akey"), prefix_right="b_")
            .join(c, on=("b_ckey", "key"), prefix_right="c_")
        )
        assert [row["key"] for row in join.all()] == [3, 2, 1]

    def test_written_order_folds_above_the_dp_cutoff(self):
        database = Database("wide")
        tables = []
        for position in range(8):
            t = database.create_table(
                f"t{position}",
                Schema(
                    [Column("id", DataType.INT), Column("k", DataType.INT)],
                    primary_key="id",
                ),
            )
            for value in range(4):
                t.insert({"k": value})
            tables.append(t)
        join = Query(tables[0]).join(tables[1], on=("k", "k"), prefix_right="p1_")
        for position in range(2, 8):
            join = join.join(
                tables[position], on=("k", "k"), prefix_right=f"p{position}_"
            )
        plan = join.explain()
        written = " -> ".join(f"t{position}" for position in range(8))
        assert f"[join-order: {written} (written)]" in plan
        # one row per key value per table: each key group joins 1x1x...
        expected = _brute_chain(
            tables[0].scan(),
            [
                (list(tables[position].scan()), "k", "k", f"p{position}_")
                for position in range(1, 8)
            ],
        )
        assert len(expected) == 4
        assert sorted(join.all(), key=lambda row: row["id"]) == sorted(
            expected, key=lambda row: row["id"]
        )

    def test_four_way_search_agrees_with_written_order(self):
        database = Database("four")
        specs = {
            "w": [("k1", 30)],
            "x": [("k1", 12), ("k2", 18)],
            "y": [("k2", 18), ("k3", 10)],
            "z": [("k3", 25)],
        }
        tables = {}
        for name, columns in specs.items():
            schema_columns = [Column("id", DataType.INT)] + [
                Column(column, DataType.INT) for column, _rows in columns
            ]
            table = database.create_table(
                name, Schema(schema_columns, primary_key="id")
            )
            rows, modulo = (
                (30, 6) if name in ("w", "z") else (18, 6)
            )
            for index in range(rows):
                table.insert(
                    {column: (index + offset) % modulo
                     for offset, (column, _r) in enumerate(columns)}
                )
            tables[name] = table
        tables["x"].create_index("k1", kind="hash")
        tables["y"].create_index("k2", kind="hash")

        searched = (
            Query(tables["w"])
            .join(tables["x"], on=("k1", "k1"), prefix_right="x_")
            .join(tables["y"], on=("x_k2", "k2"), prefix_right="y_")
            .join(tables["z"], on=("y_k3", "k3"), prefix_right="z_")
        )
        assert "(dp)" in searched.explain()
        expected = _brute_chain(
            tables["w"].scan(),
            [
                (list(tables["x"].scan()), "k1", "k1", "x_"),
                (list(tables["y"].scan()), "x_k2", "k2", "y_"),
                (list(tables["z"].scan()), "y_k3", "k3", "z_"),
            ],
        )

        def ids(row):
            return (row["id"], row["x_id"], row["y_id"], row["z_id"])

        assert sorted(searched.all(), key=ids) == sorted(expected, key=ids)
        assert len(expected) > 0

    def test_disconnected_inputs_are_impossible_by_construction(self):
        # every chained join must name an existing output column, so a
        # cross product can never be expressed
        a, b, c = _triple([], [], [])
        with pytest.raises(Exception):
            Query(a).join(b, on=("missing", "akey"))
        join = Query(a).join(b, on=("key", "akey"), prefix_right="b_")
        with pytest.raises(Exception):
            join.join(c, on=("nope", "key"), prefix_right="c_")


# ----------------------------------------------------------------------
# joins on sorted-indexed columns
# ----------------------------------------------------------------------


def _sorted_pair(left_rows, right_rows):
    database = Database("sorted-pair")
    left = database.create_table(
        "lhs",
        Schema(
            [
                Column("id", DataType.INT),
                Column("score", DataType.FLOAT, nullable=True),
                Column("kind", DataType.TEXT),
            ],
            primary_key="id",
        ),
    )
    right = database.create_table(
        "rhs",
        Schema(
            [
                Column("id", DataType.INT),
                Column("score", DataType.FLOAT, nullable=True),
                Column("tag", DataType.TEXT),
            ],
            primary_key="id",
        ),
    )
    left.create_index("score", kind="sorted")
    right.create_index("score", kind="sorted")
    for score, kind in left_rows:
        left.insert({"score": score, "kind": kind})
    for score, tag in right_rows:
        right.insert({"score": score, "tag": tag})
    return left, right


class TestSortedIndexJoinColumns:
    """Both join columns carry sorted indexes: the index nested-loop
    probes bisect the right side's index, hash joins ignore it."""

    @staticmethod
    def _join(left, right, how="inner"):
        join = Query(left).join(
            right, on="score", prefix_left="l_", prefix_right="r_", how=how
        )
        assert join.explain().startswith(("index-nl-join", "hash-join"))
        return join

    def test_duplicates_on_both_sides_cross_product_per_key(self):
        left, right = _sorted_pair([(0.5, "a"), (0.5, "b")], [(0.5, "x")] * 3)
        assert self._join(left, right).count() == 6

    def test_null_scores_never_match_and_pad_under_left_join(self):
        left, right = _sorted_pair(
            [(None, "a")] + [(0.1 * (i % 5), "k") for i in range(40)],
            [(None, "x")] + [(0.1 * (i % 5), "t") for i in range(40)],
        )
        rows = self._join(left, right, how="left").all()
        padded = [row for row in rows if row["r_id"] is None]
        assert len(padded) == 1  # only the NULL-keyed left row
        assert padded[0]["l_kind"] == "a"
        # NULL right keys joined nothing
        assert all(row["r_score"] is not None for row in rows if row["r_id"] is not None)

    def test_join_matches_brute_force_exactly(self):
        left, right = _sorted_pair(
            [(i % 7 / 10, "x") for i in range(25)],
            [(i % 4 / 10, "y") for i in range(31)],
        )
        expected = 0
        for lrow in left.scan():
            expected += sum(
                1 for rrow in right.scan() if rrow["score"] == lrow["score"]
            )
        assert self._join(left, right).count() == expected


# ----------------------------------------------------------------------
# predicate pushdown
# ----------------------------------------------------------------------


class TestPushdown:
    def test_single_relation_conjuncts_reach_the_relation_plan(self):
        a, b, c = _skewed_triple()
        join = (
            Query(a)
            .join(b, on=("key", "akey"), prefix_right="b_")
            .join(c, on=("b_ckey", "key"), prefix_right="c_")
            .where(Eq("c_label", "rare"))
        )
        plan = join.explain()
        # the filter ran as an index probe inside the c relation, not
        # as a residual filter over combined rows
        assert "hash-index(tc.label='rare'" in plan
        assert "filter(Eq(column='c_label'" not in plan

    def test_right_query_predicates_added_after_join_still_count(self):
        # builder-style mutation: both input queries are read at plan
        # time, matching the root side's behaviour
        a, b, _ = _triple(
            [(1, "x")] * 3, [(1, 1, "t"), (1, 1, "u")], [], b_layout="hash"
        )
        right = Query(b)
        join = Query(a).join(right, on=("key", "akey"), prefix_right="b_")
        right.where(Eq("tag", "t"))
        assert join.count() == 3  # only the tag='t' b row joins

    def test_cross_relation_conjuncts_stay_residual(self):
        a, b, c = _triple(
            [(1, "x")], [(1, 1, "x")], [(1, "x")], b_layout="hash", c_layout="hash"
        )
        join = (
            Query(a)
            .join(b, on=("key", "akey"), prefix_right="b_")
            .join(c, on=("b_ckey", "key"), prefix_right="c_")
            .where(Eq("kind", "x") | Eq("b_tag", "x"))
        )
        assert "filter(" in join.explain()
        assert join.count() == 1

    def test_outer_relation_predicates_keep_where_semantics(self):
        # WHERE on the null-supplying side must see the padded NULLs:
        # pushing Ne below the outer join would drop the only b row and
        # pad *both* a rows (count 2); as a residual it keeps exactly
        # the padded row (this store's Ne matches NULL, plain !=)
        a, b, _ = _triple(
            [(1, "x"), (2, "x")], [(1, 1, "t")], [], b_layout="hash"
        )
        join = (
            Query(a)
            .join(b, on=("key", "akey"), prefix_right="b_", how="left")
            .where(Ne("b_tag", "t"))
        )
        rows = join.all()
        assert len(rows) == 1
        assert rows[0]["key"] == 2 and rows[0]["b_tag"] is None


# ----------------------------------------------------------------------
# join plan cache
# ----------------------------------------------------------------------


class TestJoinPlanCache:
    def _join(self, a, b, c, label):
        return (
            Query(a)
            .join(b, on=("key", "akey"), prefix_right="b_")
            .join(c, on=("b_ckey", "key"), prefix_right="c_")
            .where(Eq("c_label", label))
        )

    def test_repeated_shapes_hit_and_rebind_values(self):
        a, b, c = _skewed_triple()
        assert "[plan-cache: miss]" in self._join(a, b, c, "rare").explain()
        hit = self._join(a, b, c, "common")
        assert "[plan-cache: hit]" in hit.explain()
        # the rebound plan still answers for the *new* value
        assert hit.count() == len(_skewed_expected(a, b, c, "common")) > 0

    def test_hits_preserve_the_order_info(self):
        a, b, c = _skewed_triple()
        self._join(a, b, c, "rare").count()
        assert "[join-order: tc -> tb -> ta" in self._join(a, b, c, "rare").explain()

    def test_ddl_on_any_participant_invalidates(self):
        a, b, c = _skewed_triple()
        self._join(a, b, c, "rare").count()
        assert "[plan-cache: hit]" in self._join(a, b, c, "rare").explain()
        b.create_index("akey", kind="hash")  # not the cached root table
        assert "[plan-cache: miss]" in self._join(a, b, c, "rare").explain()

    def test_row_drift_on_any_participant_invalidates(self):
        a, b, c = _skewed_triple()
        self._join(a, b, c, "rare").count()
        for i in range(200):  # triple tc's row count
            c.insert({"key": i % 30, "label": "common"})
        assert "[plan-cache: miss]" in self._join(a, b, c, "rare").explain()

    def test_range_plans_rebind_new_bounds(self):
        left, right = _sorted_pair(
            [(i % 10 / 10, "x") for i in range(60)],
            [(i % 10 / 10, "y") for i in range(60)],
        )

        def bounded(low, high):
            return (
                Query(left)
                .where(Between("score", low, high))
                .join(right, on="score", prefix_left="l_", prefix_right="r_")
            )

        first = bounded(0.2, 0.4)
        assert "sorted-index-range(lhs.score, 0.2 <= v and v <= 0.4" in first.explain()
        assert first.count() == 3 * 36
        rebound = bounded(0.0, 0.1)
        assert "[plan-cache: hit]" in rebound.explain()
        # the cached plan re-ran with the *new* bounds
        assert rebound.count() == 2 * 36

    def test_view_joins_bypass_the_cache(self):
        a, b, c = _skewed_triple()
        database_view_a = a.read_view()
        join = (
            Query(database_view_a)
            .join(b, on=("key", "akey"), prefix_right="b_")
        )
        assert "[plan-cache: bypass]" in join.explain()


# ----------------------------------------------------------------------
# LIMIT costing of ordered joins
# ----------------------------------------------------------------------


def _events_and_items(n_events=2000, n_items=500):
    """``events`` (sorted index on ``ts``, two events per ``ts``) over
    ``items`` (hash index on ``grp``, half of them in group 1)."""
    database = Database("topk")
    events = database.create_table(
        "events",
        Schema(
            [
                Column("id", DataType.INT),
                Column("item_id", DataType.INT),
                Column("ts", DataType.FLOAT),
            ],
            primary_key="id",
        ),
    )
    items = database.create_table(
        "items",
        Schema([Column("id", DataType.INT), Column("grp", DataType.INT)], primary_key="id"),
    )
    events.create_index("ts", kind="sorted")
    items.create_index("grp", kind="hash")
    for i in range(1, n_items + 1):
        items.insert({"id": i, "grp": 1 + i % 2})
    for i in range(1, n_events + 1):
        events.insert({"id": i, "item_id": 1 + i % n_items, "ts": float(i // 2)})
    return events, items


def _newest(events, items, limit=None):
    query = (
        Query(events)
        .order_by("ts", descending=True)
        .join(Query(items).where(Eq("grp", 1)), on=("item_id", "id"), prefix_right="i_")
    )
    return query if limit is None else query.limit(limit)


_HASHED_NEWEST = """\
hash-join(events.item_id = items.id, how=inner, build=right, est~2000)
  sorted-index-order(events.ts desc)
  hash-index(items.grp=1, est~250)
[join-order: events -> items (dp)]"""


def _fetch_counter(monkeypatch, table):
    """The ids of every row fetched from ``table``, in fetch order."""
    fetched = []
    refs_for_pks = table.refs_for_pks

    def counting(pks):
        for row in refs_for_pks(pks):
            fetched.append(row["id"])
            yield row

    monkeypatch.setattr(table, "refs_for_pks", counting)
    return fetched


class TestLimitCosting:
    def test_capped_ordered_join_probes_and_reads_only_the_window(self, monkeypatch):
        events, items = _events_and_items()
        capped = _newest(events, items, limit=3)
        explained = capped.explain()
        assert explained.startswith(
            "index-nl-join(events.item_id = items.id via pk, how=inner, est~1000, "
            "right-filter=Eq(column='grp', value=1))\n"
            "  sorted-index-order(events.ts desc)\n"
        )
        assert "hash-join" not in explained
        fetched = _fetch_counter(monkeypatch, events)
        rows = capped.all()
        # ts descending, ties by ascending id; even ids sit in group 2
        assert [row["id"] for row in rows] == [1999, 1997, 1995]
        # the walk read the newest events up to the third match, no more
        assert fetched == [2000, 1998, 1999, 1996, 1997, 1994, 1995]

    def test_offset_counts_toward_the_cap(self, monkeypatch):
        events, items = _events_and_items()
        windowed = _newest(events, items, limit=2).offset(1)
        assert windowed.explain().startswith("index-nl-join(")
        fetched = _fetch_counter(monkeypatch, events)
        assert [row["id"] for row in windowed.all()] == [1997, 1995]
        assert len(fetched) == 7

    def test_the_same_graph_without_a_limit_keeps_its_hash_join(self, monkeypatch):
        events, items = _events_and_items()
        uncapped = _newest(events, items)
        assert uncapped.explain().rsplit("\n", 1)[0] == _HASHED_NEWEST
        fetched = _fetch_counter(monkeypatch, events)
        assert len(uncapped.all()) == 1000
        assert len(fetched) == 2000

    def test_a_cap_above_the_join_estimate_costs_the_whole_join(self):
        events, items = _events_and_items()
        assert _newest(events, items, limit=5000).explain().rsplit("\n", 1)[0] == (
            _HASHED_NEWEST
        )

    def test_capped_and_uncapped_shapes_never_share_a_cache_entry(self):
        events, items = _events_and_items()
        assert "[plan-cache: miss]" in _newest(events, items, limit=3).explain()
        uncapped = _newest(events, items).explain()
        assert "[plan-cache: miss]" in uncapped and "hash-join" in uncapped
        capped_again = _newest(events, items, limit=3).explain()
        assert "[plan-cache: hit]" in capped_again
        assert capped_again.startswith("index-nl-join(")
        uncapped_again = _newest(events, items).explain()
        assert "[plan-cache: hit]" in uncapped_again and "hash-join" in uncapped_again
        # a different cap is a different entry too
        assert "[plan-cache: miss]" in _newest(events, items, limit=4).explain()

    def test_unordered_joins_ignore_the_cap(self):
        events, items = _events_and_items()

        def unordered(limit=None):
            query = Query(events).join(
                Query(items).where(Eq("grp", 1)), on=("item_id", "id"), prefix_right="i_"
            )
            return query if limit is None else query.limit(limit)

        plan = unordered().explain().split("\n[plan-cache")[0]
        assert unordered(3).explain().split("\n[plan-cache")[0] == plan
        # so every cap of an unordered shape shares one cache entry
        assert "[plan-cache: hit]" in unordered(4).explain()


class TestRootWindow:
    """An ordered root with a ``limit`` of its own: the join reads only
    that many root rows, its first in that order."""

    def test_the_join_reads_only_the_window(self, monkeypatch):
        events, items = _events_and_items()
        windowed = (
            Query(events)
            .order_by("ts", descending=True)
            .limit(6)
            .join(Query(items).where(Eq("grp", 1)), on=("item_id", "id"), prefix_right="i_")
        )
        assert "top-k(events.ts desc, k=6)" in windowed.explain()
        fetched = _fetch_counter(monkeypatch, events)
        # the six newest events (ties by ascending id); odd ids are in group 1
        assert [row["id"] for row in windowed.all()] == [1999, 1997]
        assert fetched == [2000, 1998, 1999, 1996, 1997, 1994]

    def test_a_where_on_the_root_filters_after_the_window(self):
        events, items = _events_and_items()
        windowed = (
            Query(events)
            .order_by("ts", descending=True)
            .limit(6)
            .join(items, on=("item_id", "id"), prefix_right="i_")
            .where(Eq("item_id", 1 + 1997 % 500))
        )
        assert [row["id"] for row in windowed.all()] == [1997]

    def test_a_sorted_root_without_an_order_index_is_cut_too(self):
        events, items = _events_and_items()
        windowed = (
            Query(events)
            .order_by("item_id")
            .limit(5)
            .join(items, on=("item_id", "id"), prefix_right="i_")
        )
        explained = windowed.explain()
        assert "limit(5)" in explained and "sort(events.item_id asc)" in explained
        expected = sorted(events.scan(), key=lambda row: (row["item_id"], row["id"]))[:5]
        assert [row["id"] for row in windowed.all()] == [row["id"] for row in expected]

    def test_windowed_and_unwindowed_roots_never_share_a_cache_entry(self):
        events, items = _events_and_items()

        def newest(window=None):
            root = Query(events).order_by("ts", descending=True)
            if window is not None:
                root.limit(window)
            return root.join(items, on=("item_id", "id"), prefix_right="i_").limit(3)

        assert "top-k" not in newest().explain()
        assert "top-k(events.ts desc, k=6)" in newest(6).explain()
        again = newest(6).explain()
        assert "[plan-cache: hit]" in again and "k=6" in again
        assert "[plan-cache: miss]" in newest(7).explain()

    @pytest.mark.parametrize(
        "root",
        [
            lambda events: Query(events).limit(5),
            lambda events: Query(events).order_by("ts").offset(1),
        ],
        ids=["unordered-limit", "offset"],
    )
    def test_other_root_windows_are_refused(self, root):
        events, items = _events_and_items(n_events=10, n_items=5)
        with pytest.raises(QueryError, match="ordered left input"):
            root(events).join(items, on=("item_id", "id"))


# ----------------------------------------------------------------------
# most-common-value statistics
# ----------------------------------------------------------------------


class TestMostCommonValues:
    def _table(self):
        database = Database("mcv")
        table = database.create_table(
            "t",
            Schema(
                [
                    Column("id", DataType.INT),
                    Column("kind", DataType.TEXT),
                    Column("n", DataType.INT),
                ],
                primary_key="id",
            ),
        )
        for index in range(200):
            table.insert({"kind": "url" if index % 10 else "image", "n": index})
        return table

    def test_mcv_tracks_skew(self):
        table = self._table()
        mcv = table.common_values("kind")
        assert mcv is not None
        assert mcv.eq_fraction("url") == pytest.approx(0.9, abs=0.05)
        assert mcv.eq_fraction("image") == pytest.approx(0.1, abs=0.05)
        # unseen values are rarer than anything sampled
        assert mcv.eq_fraction("video") < mcv.eq_fraction("image")

    def test_mcv_feeds_string_equality_selectivity(self):
        table = self._table()
        common = Eq("kind", "url").selectivity(table)
        rare = Eq("kind", "image").selectivity(table)
        assert common == pytest.approx(0.9, abs=0.05)
        assert rare == pytest.approx(0.1, abs=0.05)
        assert Ne("kind", "url").selectivity(table) == pytest.approx(0.1, abs=0.05)

    def test_non_text_columns_have_no_mcv(self):
        table = self._table()
        assert table.common_values("n") is None

    def test_view_builds_its_own_mcv(self):
        table = self._table()
        view = table.read_view()
        mcv = view.common_values("kind")
        assert mcv is not None
        assert mcv.eq_fraction("url") == pytest.approx(0.9, abs=0.05)

    def test_from_values_handles_edge_cases(self):
        assert MostCommonValues.from_values([], 0) is None
        assert MostCommonValues.from_values([None, None], 2) is None
        assert MostCommonValues.from_values(["a", 3], 2) is None
        mcv = MostCommonValues.from_values(["a", "a", "b"], 3)
        assert mcv.eq_fraction("a") == pytest.approx(2 / 3)


# ----------------------------------------------------------------------
# property: 3-way chains agree with brute-force nested loops
# ----------------------------------------------------------------------

_KEYS = (None, 1, 2, 3)
_a_side = st.lists(
    st.tuples(st.sampled_from(_KEYS), st.sampled_from(("p", "q"))), max_size=8
)
_b_side = st.lists(
    st.tuples(
        st.sampled_from(_KEYS), st.sampled_from(_KEYS), st.sampled_from(("p", "q"))
    ),
    max_size=8,
)
_c_side = st.lists(
    st.tuples(st.sampled_from(_KEYS), st.sampled_from(("p", "q"))), max_size=8
)
_LAYOUTS = ("none", "hash", "sorted")


@given(
    a_rows=_a_side,
    b_rows=_b_side,
    c_rows=_c_side,
    b_layout=st.sampled_from(_LAYOUTS),
    c_layout=st.sampled_from(_LAYOUTS),
    how_b=st.sampled_from(("inner", "left")),
    how_c=st.sampled_from(("inner", "left")),
    filter_b=st.booleans(),
    ordered=st.booleans(),
    window=st.sampled_from(((None, 0), (3, 0), (4, 2), (0, 0))),
    # an ordered root's own limit, served by TopK (a.key sorted-indexed)
    # or by limit(n) over a Sort; filter_a is a WHERE on the root only
    root_window=st.sampled_from((None, 0, 2, 5)),
    a_sorted=st.booleans(),
    filter_a=st.booleans(),
)
@settings(max_examples=160, deadline=None)
def test_planned_three_way_joins_agree_with_brute_force(
    a_rows, b_rows, c_rows, b_layout, c_layout, how_b, how_c,
    filter_b, ordered, window, root_window, a_sorted, filter_a,
):
    a, b, c = _triple(a_rows, b_rows, c_rows, b_layout=b_layout, c_layout=c_layout)
    if a_sorted:
        a.create_index("key", kind="sorted")
    root_window = root_window if ordered else None
    root = Query(a)
    if ordered:
        root = root.order_by("key")
    if root_window is not None:
        root = root.limit(root_window)
    join = (
        root
        .join(b, on=("key", "akey"), prefix_right="b_", how=how_b)
        .join(c, on=("b_ckey", "key"), prefix_right="c_", how=how_c)
    )
    if filter_b:
        join = join.where(Ne("b_tag", "q"))
    if filter_a:
        join = join.where(Ne("kind", "q"))

    a_scan = list(a.scan())
    if ordered:
        a_scan.sort(key=lambda row: (order_key(row["key"]), row["id"]))
    if root_window is not None:
        a_scan = a_scan[:root_window]
    step1 = _brute_binary(
        a_scan, list(b.scan()), left_key="key", right_key="akey", how=how_b,
        prefix_right="b_", right_columns=("id", "akey", "ckey", "tag"),
    )
    expected = _brute_binary(
        step1, list(c.scan()), left_key="b_ckey", right_key="key", how=how_c,
        prefix_right="c_", right_columns=("id", "key", "label"),
    )
    if filter_b:
        # WHERE over combined rows; this store's Ne is plain !=, so a
        # padded NULL b_tag *passes* the filter
        expected = [row for row in expected if row["b_tag"] != "q"]
    if filter_a:
        expected = [row for row in expected if row["kind"] != "q"]
    got = join.all()
    assert _canonical(got) == _canonical(expected)
    limit, offset = window
    windowed = join.limit(limit).offset(offset) if limit is not None else join
    got_window = windowed.all()
    if limit is None:
        span = len(expected)
    else:
        span = max(0, min(limit, len(expected) - offset))
    assert len(got_window) == span
    if ordered:
        # positional comparison: the root order survives the joins and
        # limit/offset windows the ordered stream
        expected_keys = [row["key"] for row in expected]
        assert [row["key"] for row in got] == expected_keys
        if limit is not None:
            assert [row["key"] for row in got_window] == (
                expected_keys[offset:offset + limit]
            )
