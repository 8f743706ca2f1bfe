"""Tests for planned joins (Query.join -> HashJoin / IndexNestedLoopJoin).

Two layers:

- targeted assertions that the join planner picks the documented
  strategy (index nested-loop when the right key is indexed and the
  left side is small; hash join with the build on the smaller side
  otherwise) and that SQL NULL/unhashable key semantics hold;
- hypothesis property tests that every planned join — both strategies,
  inner and left-outer, with and without a right-side filter — produces
  exactly the rows a brute-force nested loop produces.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store import (
    Column,
    Database,
    DataType,
    Eq,
    Ne,
    Query,
    QueryError,
    Schema,
)
from repro.store.plan import order_key

# ----------------------------------------------------------------------
# fixtures / helpers
# ----------------------------------------------------------------------


def _build_pair(left_rows, right_rows, layout):
    """Two joinable tables; ``layout`` indexes right.rkey (or not)."""
    database = Database("join")
    left = database.create_table(
        "lhs",
        Schema(
            [
                Column("id", DataType.INT),
                Column("key", DataType.INT, nullable=True),
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
                Column("rkey", DataType.INT, nullable=True),
                Column("tag", DataType.TEXT),
            ],
            primary_key="id",
        ),
    )
    if layout in ("hash", "sorted"):
        right.create_index("rkey", kind=layout)
    for key, kind in left_rows:
        left.insert({"key": key, "kind": kind})
    for rkey, tag in right_rows:
        right.insert({"rkey": rkey, "tag": tag})
    return left, right


def _brute_join(left_rows, right_rows, *, left_key, right_key, how,
                prefix_left="", prefix_right="", right_columns=()):
    """Nested-loop reference with SQL NULL-key semantics."""
    out = []
    for left in left_rows:
        matches = [
            right
            for right in right_rows
            if left[left_key] is not None
            and right[right_key] is not None
            and left[left_key] == right[right_key]
        ]
        renamed = {f"{prefix_left}{k}": v for k, v in left.items()}
        if matches:
            for right in matches:
                combined = dict(renamed)
                combined.update({f"{prefix_right}{k}": v for k, v in right.items()})
                out.append(combined)
        elif how == "left":
            combined = dict(renamed)
            combined.update({f"{prefix_right}{k}": None for k in right_columns})
            out.append(combined)
    return out


def _canonical(rows, right_id="r_id"):
    return sorted(
        rows, key=lambda row: (row["l_id"], order_key(row.get(right_id)))
    )


# ----------------------------------------------------------------------
# strategy selection / explain
# ----------------------------------------------------------------------


class TestJoinPlanning:
    def test_small_left_with_indexed_right_key_uses_index_nl(self):
        left, right = _build_pair(
            [(1, "rare")] + [(None, "common")] * 20,
            [(1, "x")] * 3 + [(2, "y")] * 40,
            "hash",
        )
        left.create_index("kind", kind="hash")
        join = Query(left).where(Eq("kind", "rare")).join(right, on=("key", "rkey"))
        plan = join.explain()
        assert plan.splitlines()[0].startswith("index-nl-join")
        assert "via hash-index" in plan
        assert join.count() == 3

    def test_right_pk_join_probes_by_primary_key(self):
        left, right = _build_pair([(1, "a"), (2, "a")], [(9, "x"), (9, "y")], "none")
        join = Query(left).join(right, on=("key", "id"), prefix_right="r_")
        plan = join.explain()
        assert "via pk" in plan
        assert {row["r_id"] for row in join.all()} == {1, 2}

    def test_unindexed_right_key_falls_back_to_hash_join(self):
        left, right = _build_pair([(1, "a")], [(1, "x")], "none")
        plan = Query(left).join(right, on=("key", "rkey")).explain()
        assert plan.splitlines()[0].startswith("hash-join")

    def test_large_left_prefers_hash_join_with_smaller_build_side(self):
        left, right = _build_pair(
            [(1, "a")] * 40, [(1, "x"), (2, "y")], "hash"
        )
        # probing 40 left rows costs more than building 2 right rows
        plan = Query(left).join(right, on=("key", "rkey")).explain()
        assert plan.splitlines()[0].startswith("hash-join")
        assert "build=right" in plan

    def test_left_outer_join_pins_build_side_right(self):
        left, right = _build_pair([(1, "a"), (2, "b")] * 20, [(1, "x")], "none")
        join = Query(left).join(right, on=("key", "rkey"), how="left", prefix_right="r_")
        assert "build=right" in join.explain()
        rows = join.all()
        assert len(rows) == 40
        assert sum(1 for row in rows if row["r_id"] is None) == 20

    def test_ordered_left_input_preserves_order(self):
        left, right = _build_pair(
            [(3, "a"), (1, "a"), (2, "a")], [(1, "x"), (2, "y"), (3, "z")], "none"
        )
        join = (
            Query(left)
            .order_by("key", descending=True)
            .join(right, on=("key", "rkey"), prefix_right="r_")
        )
        assert [row["key"] for row in join.all()] == [3, 2, 1]

    def test_join_validates_keys_and_how(self):
        left, right = _build_pair([], [], "none")
        with pytest.raises(QueryError):
            Query(left).join(right, on=("key", "rkey"), how="outer")
        with pytest.raises(Exception):
            Query(left).join(right, on=("bogus", "rkey"))
        with pytest.raises(Exception):
            Query(left).join(right, on=("key", "bogus"))
        with pytest.raises(QueryError):
            Query(left).limit(3).join(right, on=("key", "rkey"))

    def test_join_window_and_post_filter(self):
        left, right = _build_pair(
            [(1, "a"), (2, "a"), (3, "a")],
            [(1, "x"), (2, "y"), (3, "x")],
            "hash",
        )
        join = (
            Query(left)
            .join(right, on=("key", "rkey"), prefix_right="r_")
            .where(Eq("r_tag", "x"))
        )
        assert "filter" in join.explain()
        assert {row["r_rkey"] for row in join.all()} == {1, 3}
        assert join.limit(1).count() == 1

    def test_join_streams_without_materializing(self):
        left, right = _build_pair([(1, "a")] * 5, [(1, "x")], "hash")
        iterator = iter(Query(left).join(right, on=("key", "rkey"), prefix_right="r_"))
        assert next(iterator)["r_tag"] == "x"


def _labelled_pair(a_rows, b_rows):
    """``a(id, k, label='A')`` and ``b(id, k2, label='B')``: unprefixed,
    ``id`` and ``label`` collide in the combined rows."""
    database = Database("collide")
    tables = []
    for name, key, count in (("a", "k", a_rows), ("b", "k2", b_rows)):
        table = database.create_table(
            name,
            Schema(
                [
                    Column("id", DataType.INT),
                    Column(key, DataType.INT),
                    Column("label", DataType.TEXT),
                ],
                primary_key="id",
            ),
        )
        for _ in range(count):
            table.insert({key: 1, "label": name.upper()})
        tables.append(table)
    return tables


class TestJoinKeySemantics:
    @pytest.mark.parametrize(
        ("a_rows", "b_rows", "build"),
        [(2, 1, "build=right"), (1, 50, "build=left")],
    )
    def test_colliding_columns_resolve_to_the_later_relation(
        self, a_rows, b_rows, build
    ):
        # the planner picks the hash build side from the cardinalities;
        # either way the later relation wins a colliding column, as it
        # does under index nested-loop and in WHERE name resolution
        a, b = _labelled_pair(a_rows, b_rows)
        join = Query(a).join(b, on=("k", "k2"))
        assert build in join.explain()
        rows = join.all()
        assert len(rows) == a_rows * b_rows
        assert {row["label"] for row in rows} == {"B"}
        filtered = Query(a).join(b, on=("k", "k2")).where(Eq("label", "B")).all()
        assert len(filtered) == a_rows * b_rows
        assert {row["label"] for row in filtered} == {"B"}

    def test_none_keys_never_match(self):
        left, right = _build_pair(
            [(None, "a"), (1, "b")], [(None, "x"), (1, "y")], "hash"
        )
        rows = Query(left).join(right, on=("key", "rkey"), prefix_right="r_").all()
        assert len(rows) == 1
        assert rows[0]["kind"] == "b"

    def test_none_left_keys_padded_under_left_join(self):
        left, right = _build_pair([(None, "a")], [(None, "x")], "none")
        rows = (
            Query(left)
            .join(right, on=("key", "rkey"), how="left", prefix_right="r_")
            .all()
        )
        assert rows == [
            {"id": 1, "key": None, "kind": "a",
             "r_id": None, "r_rkey": None, "r_tag": None}
        ]

    def test_unhashable_json_keys_fall_back_to_nested_loop(self):
        database = Database("json-join")
        left = database.create_table(
            "lhs",
            Schema(
                [Column("id", DataType.INT), Column("payload", DataType.JSON)],
                primary_key="id",
            ),
        )
        right = database.create_table(
            "rhs",
            Schema(
                [Column("id", DataType.INT), Column("payload", DataType.JSON)],
                primary_key="id",
            ),
        )
        left.insert({"payload": ["a", "b"]})
        left.insert({"payload": ["c"]})
        right.insert({"payload": ["a", "b"]})
        right.insert({"payload": ["z"]})
        rows = Query(left).join(right, on="payload", prefix_right="r_").all()
        assert len(rows) == 1
        assert rows[0]["payload"] == ["a", "b"]
        assert rows[0]["r_id"] == 1


# ----------------------------------------------------------------------
# property tests: planned joins agree with brute force
# ----------------------------------------------------------------------

_KEYS = (None, 1, 2, 3, 4)
_side = st.lists(
    st.tuples(st.sampled_from(_KEYS), st.sampled_from(("a", "b"))),
    max_size=12,
)
_LAYOUTS = ("none", "hash", "sorted", "pk")


@given(
    left_rows=_side,
    right_rows=_side,
    layout=st.sampled_from(_LAYOUTS),
    how=st.sampled_from(("inner", "left")),
    filter_left=st.booleans(),
    filter_right=st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_planned_joins_agree_with_brute_force(
    left_rows, right_rows, layout, how, filter_left, filter_right
):
    left, right = _build_pair(left_rows, right_rows, layout)
    right_key = "id" if layout == "pk" else "rkey"
    left_query = Query(left)
    if filter_left:
        left_query = left_query.where(Ne("kind", "b"))
    right_input = (
        Query(right).where(Ne("tag", "b")) if filter_right else right
    )
    join = left_query.join(
        right_input, on=("key", right_key),
        how=how, prefix_left="l_", prefix_right="r_",
    )
    left_brute = [
        row for row in left.scan() if not filter_left or row["kind"] != "b"
    ]
    right_brute = [
        row for row in right.scan() if not filter_right or row["tag"] != "b"
    ]
    expected = _brute_join(
        left_brute, right_brute, left_key="key", right_key=right_key, how=how,
        prefix_left="l_", prefix_right="r_",
        right_columns=("id", "rkey", "tag"),
    )
    got = join.all()
    assert _canonical(got) == _canonical(expected)
    assert join.count() == len(expected)
    assert join.exists() is (len(expected) > 0)
    # a second execution sees identical rows (no builder-state mutation)
    assert _canonical(join.all()) == _canonical(expected)
