"""Unit tests: predicates, query execution, planner, joins, aggregates."""

import pytest

from repro.store import (
    And,
    Between,
    Contains,
    Eq,
    Ge,
    Gt,
    In,
    Le,
    Lt,
    Ne,
    Not,
    Or,
    Query,
)
from repro.store.errors import QueryError, UnknownColumnError
from repro.store.plan import stream_hash_join


@pytest.fixture()
def filled(resources_table):
    database, table = resources_table
    rows = [
        {"name": "alpha", "kind": "url", "quality": 0.1},
        {"name": "beta", "kind": "url", "quality": 0.5},
        {"name": "gamma", "kind": "image", "quality": 0.9},
        {"name": "delta", "kind": "image", "quality": None},
        {"name": "epsilon", "kind": "video", "quality": 0.5},
    ]
    for row in rows:
        table.insert(row)
    return database, table


class TestPredicates:
    def test_eq_ne(self, filled):
        _db, table = filled
        assert Query(table).where(Eq("kind", "url")).count() == 2
        assert Query(table).where(Ne("kind", "url")).count() == 3

    def test_comparisons_skip_nulls(self, filled):
        _db, table = filled
        assert Query(table).where(Ge("quality", 0.5)).count() == 3
        assert Query(table).where(Lt("quality", 0.5)).count() == 1
        assert Query(table).where(Le("quality", 0.5)).count() == 3
        assert Query(table).where(Gt("quality", 0.5)).count() == 1

    def test_in_and_between(self, filled):
        _db, table = filled
        assert Query(table).where(In("kind", ["url", "video"])).count() == 3
        assert Query(table).where(Between("quality", 0.4, 0.6)).count() == 2

    def test_contains_case_insensitive(self, filled):
        _db, table = filled
        assert Query(table).where(Contains("name", "ALPH")).count() == 1

    def test_in_handles_unhashable_values(self, filled):
        _db, table = filled
        table.insert(
            {"name": "zeta", "kind": "url", "quality": 0.2, "meta": [1, 2]}
        )
        # unhashable candidate values force the linear fallback
        assert Query(table).where(In("meta", [[1, 2]])).count() == 1
        # unhashable row value against a hashable candidate set
        assert Query(table).where(In("meta", ["x", None])).count() == 5

    def test_combinators(self, filled):
        _db, table = filled
        q = Query(table).where(
            Or(And(Eq("kind", "url"), Ge("quality", 0.3)), Eq("name", "gamma"))
        )
        assert {row["name"] for row in q.all()} == {"beta", "gamma"}

    def test_not_and_operator_overloads(self, filled):
        _db, table = filled
        predicate = ~Eq("kind", "url") & Ge("quality", 0.5)
        assert {r["name"] for r in Query(table).where(predicate).all()} == {
            "gamma",
            "epsilon",
        }
        predicate_or = Eq("kind", "video") | Eq("kind", "image")
        assert Query(table).where(predicate_or).count() == 3

    def test_unknown_column_raises(self, filled):
        _db, table = filled
        with pytest.raises(UnknownColumnError):
            Query(table).where(Eq("bogus", 1)).all()

    def test_empty_and_or_rejected(self):
        with pytest.raises(QueryError):
            And()
        with pytest.raises(QueryError):
            Or()


class TestOrderLimitProjection:
    def test_order_by_with_nulls_first(self, filled):
        _db, table = filled
        names = [r["name"] for r in Query(table).order_by("quality").all()]
        assert names[0] == "delta"  # NULL first
        assert names[-1] == "gamma"

    def test_order_descending_limit_offset(self, filled):
        _db, table = filled
        rows = (
            Query(table)
            .order_by("quality", descending=True)
            .offset(1)
            .limit(2)
            .all()
        )
        assert [r["name"] for r in rows] == ["beta", "epsilon"]

    def test_projection(self, filled):
        _db, table = filled
        rows = Query(table).select(["name"]).limit(1).all()
        assert rows == [{"name": "alpha"}]

    def test_first_and_empty_first(self, filled):
        _db, table = filled
        assert Query(table).where(Eq("kind", "url")).first()["name"] == "alpha"
        assert Query(table).where(Eq("kind", "pdf")).first() is None

    def test_first_does_not_mutate_query(self, filled):
        _db, table = filled
        query = Query(table).where(Eq("kind", "url"))
        assert query.first()["name"] == "alpha"
        assert query.count() == 2  # regression: first() used to set limit=1
        assert len(query.all()) == 2

    def test_exists(self, filled):
        _db, table = filled
        assert Query(table).where(Eq("kind", "url")).exists()
        assert not Query(table).where(Eq("kind", "pdf")).exists()

    def test_invalid_limit_offset(self, filled):
        _db, table = filled
        with pytest.raises(QueryError):
            Query(table).limit(-1)
        with pytest.raises(QueryError):
            Query(table).offset(-1)

    def test_order_by_unknown_column(self, filled):
        _db, table = filled
        with pytest.raises(UnknownColumnError):
            Query(table).order_by("bogus")


class TestPlanner:
    def test_pk_lookup_plan(self, filled):
        _db, table = filled
        query = Query(table).where(Eq("id", 3))
        assert query.all()[0]["name"] == "gamma"
        assert "pk-lookup" in query.explain()

    def test_hash_index_plan(self, filled):
        _db, table = filled
        query = Query(table).where(Eq("kind", "url"))
        query.all()
        assert "hash-index" in query.explain()

    def test_sorted_index_range_plan(self, filled):
        _db, table = filled
        query = Query(table).where(Ge("quality", 0.5))
        assert query.count() == 3
        assert "sorted-index-range" in query.explain()

    def test_between_uses_sorted_index(self, filled):
        _db, table = filled
        query = Query(table).where(Between("quality", 0.0, 1.0))
        query.all()
        assert "sorted-index-range" in query.explain()

    def test_unique_column_gets_implicit_index(self, filled):
        _db, table = filled
        query = Query(table).where(Eq("name", "beta"))
        assert query.count() == 1
        assert "hash-index" in query.explain()

    def test_non_equality_on_unindexed_shape_falls_back_to_scan(self, filled):
        _db, table = filled
        query = Query(table).where(Contains("name", "et"))
        assert query.count() == 1
        assert "full-scan" in query.explain()

    def test_index_plan_inside_and(self, filled):
        _db, table = filled
        query = Query(table).where(
            And(Contains("name", "a"), Eq("kind", "image"))
        )
        query.all()
        assert "hash-index" in query.explain()

    def test_planner_and_scan_agree(self, filled):
        _db, table = filled
        indexed = Query(table).where(Eq("kind", "image")).pks()
        scanned = [
            row["id"] for row in table.scan() if row["kind"] == "image"
        ]
        assert sorted(indexed) == sorted(scanned)


class TestAggregates:
    def test_scalar_aggregates(self, filled):
        _db, table = filled
        q = lambda: Query(table)
        assert q().aggregate("quality", "count") == 4  # nulls excluded
        assert q().aggregate("quality", "sum") == pytest.approx(2.0)
        assert q().aggregate("quality", "avg") == pytest.approx(0.5)
        assert q().aggregate("quality", "min") == 0.1
        assert q().aggregate("quality", "max") == 0.9

    def test_aggregate_on_empty_set(self, filled):
        _db, table = filled
        assert Query(table).where(Eq("kind", "pdf")).aggregate("quality", "avg") is None
        assert Query(table).where(Eq("kind", "pdf")).aggregate("quality", "count") == 0

    def test_unknown_aggregate(self, filled):
        _db, table = filled
        with pytest.raises(QueryError):
            Query(table).aggregate("quality", "median")

    def test_group_by_unknown_aggregate(self, filled):
        _db, table = filled
        with pytest.raises(QueryError):
            Query(table).group_by("kind", {"m": ("quality", "median")})

    def test_group_by(self, filled):
        _db, table = filled
        groups = Query(table).group_by(
            "kind", {"n": ("id", "count"), "avg_q": ("quality", "avg")}
        )
        assert groups["url"]["n"] == 2
        assert groups["url"]["avg_q"] == pytest.approx(0.3)
        assert groups["image"]["n"] == 2
        assert groups["image"]["avg_q"] == pytest.approx(0.9)


def _hash_join(left, right, **options):
    """The streaming hash-join core, drained."""
    return list(stream_hash_join(left, right, **options))


class TestHashJoin:
    def test_inner_join(self):
        left = [{"id": 1, "x": "a"}, {"id": 2, "x": "b"}]
        right = [{"rid": 1, "y": 10}, {"rid": 1, "y": 20}]
        joined = _hash_join(left, right, left_key="id", right_key="rid")
        assert len(joined) == 2
        assert {row["y"] for row in joined} == {10, 20}

    def test_left_join_fills_none(self):
        left = [{"id": 1}, {"id": 2}]
        right = [{"rid": 1, "y": 10}]
        joined = _hash_join(
            left, right, left_key="id", right_key="rid", how="left",
            prefix_right="r_",
        )
        assert len(joined) == 2
        missing = [row for row in joined if row["id"] == 2][0]
        assert missing["r_y"] is None

    def test_left_join_empty_right_keeps_shape_with_hint(self):
        # regression: with an empty right side there are no observed
        # right columns, so unmatched left rows lost their padding
        left = [{"id": 1}, {"id": 2}]
        joined = _hash_join(
            left, [], left_key="id", right_key="rid", how="left",
            prefix_right="r_", right_columns=["rid", "y"],
        )
        assert joined == [
            {"id": 1, "r_rid": None, "r_y": None},
            {"id": 2, "r_rid": None, "r_y": None},
        ]

    def test_left_join_ragged_right_with_hint(self):
        left = [{"id": 1}, {"id": 2}]
        right = [{"rid": 1, "y": 10}]
        joined = _hash_join(
            left, right, left_key="id", right_key="rid", how="left",
            prefix_right="r_", right_columns=["rid", "y", "z"],
        )
        missing = [row for row in joined if row["id"] == 2][0]
        assert set(missing) == {"id", "r_rid", "r_y", "r_z"}

    def test_prefixes_avoid_collisions(self):
        left = [{"id": 1, "name": "L"}]
        right = [{"id": 1, "name": "R"}]
        joined = _hash_join(
            left, right, left_key="id", right_key="id",
            prefix_left="l_", prefix_right="r_",
        )
        assert joined[0]["l_name"] == "L"
        assert joined[0]["r_name"] == "R"

    def test_unhashable_build_keys_fall_back_to_nested_loop(self):
        # regression: list-valued join keys (e.g. tag payloads) crashed
        # the bucket build with a bare TypeError
        left = [{"k": [1, 2], "a": 1}, {"k": 3, "a": 2}]
        right = [{"k": [1, 2], "b": 10}, {"k": [9], "b": 11}, {"k": 3, "b": 12}]
        joined = _hash_join(left, right, left_key="k", right_key="k", prefix_right="r_")
        assert len(joined) == 2
        assert {row["r_b"] for row in joined} == {10, 12}

    def test_unhashable_probe_key_matches_linearly(self):
        left = [{"k": [7], "a": 1}]
        right = [{"k": [7], "b": 10}, {"k": 7, "b": 11}]
        joined = _hash_join(left, right, left_key="k", right_key="k", prefix_right="r_")
        assert [row["r_b"] for row in joined] == [10]

    def test_none_keys_never_cross_match(self):
        # regression: None build keys shared a bucket, so NULL == NULL
        # rows cross-matched; SQL equi-joins must not match NULL keys
        left = [{"k": None, "a": 1}, {"k": 1, "a": 2}]
        right = [{"k": None, "b": 10}, {"k": 1, "b": 11}]
        inner = _hash_join(left, right, left_key="k", right_key="k", prefix_right="r_")
        assert [(row["a"], row["r_b"]) for row in inner] == [(2, 11)]

    def test_none_left_keys_padded_under_left_join(self):
        left = [{"k": None, "a": 1}]
        right = [{"k": None, "b": 10}]
        joined = _hash_join(
            left, right, left_key="k", right_key="k", how="left", prefix_right="r_"
        )
        assert joined == [{"k": None, "a": 1, "r_k": None, "r_b": None}]

    def test_bad_how_rejected(self):
        with pytest.raises(QueryError):
            _hash_join([], [], left_key="a", right_key="b", how="outer")

    def test_missing_key_raises(self):
        with pytest.raises(UnknownColumnError):
            _hash_join([{"id": 1}], [{"y": 1}], left_key="id", right_key="rid")
