"""Query layer: composable predicates, a cost-based planner, joins,
aggregates.

Queries compile to a tree of physical plan nodes (the
:mod:`repro.store.plan` ADT)::

    FullScan      every row, insertion order             cost ~ N
    PkLookup      primary-key point read                 cost ~ 1
    HashLookup    hash/sorted index equality probe       cost ~ |bucket|
    IndexIn       IN() over an index, one probe/value    cost ~ sum |bucket|
    SortedRange   bisected range over a sorted index     cost ~ |range|
    OrderedScan   traversal in sorted-index order        cost ~ N, no sort
    TopK          streaming first-k of an OrderedScan    cost ~ k (+ filter)
    Intersect     pk-set intersection of exact plans     cost ~ sum inputs
    Union         pk-set union (OR over indexed parts)   cost ~ sum inputs
    Filter        residual predicate evaluation          cost ~ input rows
    Sort          stable in-memory sort, NULLs first     cost ~ n log n

Cost model.  Every node estimates its output cardinality from live
index statistics (hash-bucket sizes, bisect spans).  ``And`` enumerates
one candidate access path per conjunct, keeps the most selective, and
intersects it with the second-most-selective path when that one's
estimate is within a small factor of the best (set operations on a much
larger pk set cost more than re-checking the few fetched rows);
conjuncts not covered by the chosen indexes become a residual
``Filter``.  ``Or`` becomes a
``Union`` when every branch has an exact indexed plan, instead of
degrading to a full scan.  For ``order_by`` the planner compares
fetch-then-sort (``est * (1 + log2 est)``) against streaming the
order column's sorted index (``offset + limit`` rows when no residual
filter applies, ``N`` otherwise) and picks the cheaper, so
``order_by(col).limit(k)`` on an otherwise unindexed query runs as a
streaming ``TopK`` with no global sort.

Joins.  ``Query.join(other, on=...)`` returns a :class:`JoinQuery`,
and further ``.join(...)`` calls chain: instead of eagerly nesting
binary plans in written order, the join accumulates an n-ary **join
graph** (relations, equi-join edges, per-relation predicates — WHERE
conjuncts that touch a single non-outer relation are pushed down into
its access plan).  :mod:`repro.store.joinorder` then picks the join
*order* — a left-deep DP over subsets for up to six reorderable
relations, the caller-written order otherwise (wider graphs, colliding
output columns) — and a physical operator per join:
``IndexNestedLoopJoin`` (probe the right table's index per row) or
``HashJoin`` (either side as build).  Everything streams: iterating a
join never materializes the full result.

Plan cache.  Each table memoizes compiled plans per predicate *shape*
(structure + columns + operators — values are rebound at execution) —
including whole join trees, cached on the root relation's table under
the join-graph shape and invalidated by DDL or row-count drift on any
participating table; see :mod:`repro.store.plancache` for the key
format and invalidation rules.  ``explain()`` appends a ``[plan-cache:
hit|miss|bypass]`` line (for joins, also a ``[join-order: ...]`` line
naming the planner-chosen order).

Execution is generator-based end to end: ``first()``, ``count()`` and
``exists()`` stop as soon as they can and never materialize full result
lists.  ``explain()`` returns the rendered plan tree so callers and
tests can assert access paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Any, Iterable, Iterator

from .errors import QueryError, UnknownColumnError
from .joinorder import JoinEdge, JoinGraph, Relation, plan_join_graph
from .plan import (
    _FILTER_SELECTIVITY,
    Empty,
    Filter,
    FullScan,
    HashLookup,
    IndexIn,
    Intersect,
    Limit,
    OrderedScan,
    PkLookup,
    Plan,
    RebindError,
    Sort,
    SortedRange,
    TopK,
    Union,
    order_key,
)
from .table import Table

__all__ = [
    "Predicate", "Eq", "Ne", "Lt", "Le", "Gt", "Ge", "In", "Between",
    "Contains", "And", "Or", "Not", "TruePredicate",
    "Query", "JoinQuery",
]


class Predicate:
    """Base predicate; subclasses implement ``matches(row)``."""

    def matches(self, row: dict[str, Any]) -> bool:
        raise NotImplementedError

    def shape(self) -> tuple | None:
        """Structural skeleton used as a plan-cache key component.

        None means "uncacheable" (unknown user-defined predicate
        classes) and makes the query bypass the plan cache.
        """
        return None

    def selectivity(self, table) -> float:
        """Estimated fraction of ``table``'s rows this predicate keeps.

        Value-aware where statistics exist — exact index cardinalities
        for equality/range predicates on indexed columns, sampled
        equi-width histograms for ranges on unindexed numeric columns —
        and the classic fixed guess otherwise.  Consumed by residual
        ``Filter`` costing, join planning, and the plan cache's
        per-entry selectivity re-check.  Advisory only: never used for
        correctness.
        """
        return _FILTER_SELECTIVITY

    def __and__(self, other: "Predicate") -> "And":
        return And(self, other)

    def __or__(self, other: "Predicate") -> "Or":
        return Or(self, other)

    def __invert__(self) -> "Not":
        return Not(self)


class TruePredicate(Predicate):
    """Matches every row (the default WHERE clause)."""

    def matches(self, row: dict[str, Any]) -> bool:
        return True

    def shape(self) -> tuple:
        return ("True",)

    def selectivity(self, table) -> float:
        return 1.0

    def __repr__(self) -> str:
        return "TruePredicate()"


def _eq_fraction(table, column: str, value: Any) -> float | None:
    """Exact fraction of rows with ``column == value``, or None when no
    index covers the column (or the value is index-incompatible)."""
    rows = len(table)
    if rows == 0:
        return 0.0
    if column == table.schema.primary_key:
        try:
            return (1.0 / rows) if table.contains(value) else 0.0
        except TypeError:
            return None
    index = table.index_for(column)
    if index is None:
        return None
    try:
        return min(1.0, index.estimate_eq(value) / rows)
    except TypeError:
        return None


def _range_fraction(
    table,
    column: str,
    low: Any,
    high: Any,
    *,
    include_low: bool = True,
    include_high: bool = True,
) -> float | None:
    """Estimated fraction of rows in the range, or None when neither an
    index nor a histogram covers the column."""
    rows = len(table)
    if rows == 0:
        return 0.0
    index = table.index_for(column)
    if index is not None and index.kind == "sorted":
        try:
            return min(
                1.0,
                index.estimate_range(
                    low, high, include_low=include_low, include_high=include_high
                )
                / rows,
            )
        except TypeError:
            return None
    if not _histogram_bound(low) or not _histogram_bound(high):
        return None
    histogram_of = getattr(table, "histogram", None)
    if histogram_of is None:
        return None
    histogram = histogram_of(column)
    if histogram is None:
        return None
    return histogram.selectivity(
        low, high, include_low=include_low, include_high=include_high
    )


def _histogram_bound(value: Any) -> bool:
    return value is None or isinstance(value, (int, float))


def _text_eq_fraction(table, column: str, value: Any) -> float | None:
    """MCV-estimated fraction of rows with ``column == value`` for
    unindexed TEXT columns, or None when no MCV list exists."""
    if not isinstance(value, str):
        return None
    common_values = getattr(table, "common_values", None)
    if common_values is None:
        return None
    mcv = common_values(column)
    if mcv is None:
        return None
    return mcv.eq_fraction(value)


def _leaf_shape(predicate: "Predicate") -> tuple | None:
    """(type name, column) for the known leaf classes, else None.

    Exact-type check on purpose: a user subclass may override
    ``matches``, so sharing a cache entry with its base class could
    execute the wrong plan.
    """
    if type(predicate) in _CACHEABLE_LEAVES:
        return (type(predicate).__name__, predicate.column)
    return None


@dataclass(frozen=True)
class _ColumnPredicate(Predicate):
    column: str
    value: Any = None

    def _get(self, row: dict[str, Any]) -> Any:
        if self.column not in row:
            raise UnknownColumnError(f"predicate references unknown column {self.column!r}")
        return row[self.column]

    def shape(self) -> tuple | None:
        return _leaf_shape(self)


class Eq(_ColumnPredicate):
    def matches(self, row: dict[str, Any]) -> bool:
        return self._get(row) == self.value

    def selectivity(self, table) -> float:
        fraction = _eq_fraction(table, self.column, self.value)
        if fraction is None:
            # unindexed string equality: sampled most-common-value list
            fraction = _text_eq_fraction(table, self.column, self.value)
        return _FILTER_SELECTIVITY if fraction is None else fraction


class Ne(_ColumnPredicate):
    def matches(self, row: dict[str, Any]) -> bool:
        return self._get(row) != self.value

    def selectivity(self, table) -> float:
        fraction = _eq_fraction(table, self.column, self.value)
        if fraction is None:
            fraction = _text_eq_fraction(table, self.column, self.value)
        if fraction is None:
            return _FILTER_SELECTIVITY
        return max(0.0, 1.0 - fraction)


class _OrderedPredicate(_ColumnPredicate):
    def _cmp_value(self, row: dict[str, Any]) -> Any:
        value = self._get(row)
        # SQL-style three-valued logic: comparisons against NULL are
        # never true, whether the NULL is in the row or in the query.
        if value is None or self.value is None:
            return _NULL
        return value


_NULL = object()


class Lt(_OrderedPredicate):
    def matches(self, row: dict[str, Any]) -> bool:
        value = self._cmp_value(row)
        return value is not _NULL and value < self.value

    def selectivity(self, table) -> float:
        if self.value is None:
            return 0.0
        fraction = _range_fraction(
            table, self.column, None, self.value, include_high=False
        )
        return _FILTER_SELECTIVITY if fraction is None else fraction


class Le(_OrderedPredicate):
    def matches(self, row: dict[str, Any]) -> bool:
        value = self._cmp_value(row)
        return value is not _NULL and value <= self.value

    def selectivity(self, table) -> float:
        if self.value is None:
            return 0.0
        fraction = _range_fraction(table, self.column, None, self.value)
        return _FILTER_SELECTIVITY if fraction is None else fraction


class Gt(_OrderedPredicate):
    def matches(self, row: dict[str, Any]) -> bool:
        value = self._cmp_value(row)
        return value is not _NULL and value > self.value

    def selectivity(self, table) -> float:
        if self.value is None:
            return 0.0
        fraction = _range_fraction(
            table, self.column, self.value, None, include_low=False
        )
        return _FILTER_SELECTIVITY if fraction is None else fraction


class Ge(_OrderedPredicate):
    def matches(self, row: dict[str, Any]) -> bool:
        value = self._cmp_value(row)
        return value is not _NULL and value >= self.value

    def selectivity(self, table) -> float:
        if self.value is None:
            return 0.0
        fraction = _range_fraction(table, self.column, self.value, None)
        return _FILTER_SELECTIVITY if fraction is None else fraction


@dataclass(frozen=True)
class In(Predicate):
    column: str
    values: tuple

    def __init__(self, column: str, values: Iterable[Any]) -> None:
        object.__setattr__(self, "column", column)
        object.__setattr__(self, "values", tuple(values))
        # Precompute a set for O(1) membership; unhashable candidate
        # values force the linear fallback.
        try:
            value_set: frozenset | None = frozenset(self.values)
        except TypeError:
            value_set = None
        object.__setattr__(self, "_value_set", value_set)

    def matches(self, row: dict[str, Any]) -> bool:
        if self.column not in row:
            raise UnknownColumnError(f"predicate references unknown column {self.column!r}")
        value = row[self.column]
        if self._value_set is not None:
            try:
                return value in self._value_set
            except TypeError:
                pass  # unhashable row value: compare linearly
        return value in self.values

    def shape(self) -> tuple | None:
        return _leaf_shape(self)

    def selectivity(self, table) -> float:
        try:
            distinct = tuple(dict.fromkeys(self.values))
        except TypeError:  # unhashable candidate values
            return _FILTER_SELECTIVITY
        total = 0.0
        for value in distinct:
            fraction = _eq_fraction(table, self.column, value)
            if fraction is None:
                return _FILTER_SELECTIVITY
            total += fraction
        return min(1.0, total)


@dataclass(frozen=True)
class Between(Predicate):
    column: str
    low: Any
    high: Any

    def matches(self, row: dict[str, Any]) -> bool:
        if self.column not in row:
            raise UnknownColumnError(f"predicate references unknown column {self.column!r}")
        value = row[self.column]
        # NULL row values and NULL bounds never match (SQL BETWEEN)
        if value is None or self.low is None or self.high is None:
            return False
        return self.low <= value <= self.high

    def shape(self) -> tuple | None:
        return _leaf_shape(self)

    def selectivity(self, table) -> float:
        if self.low is None or self.high is None:
            return 0.0
        fraction = _range_fraction(table, self.column, self.low, self.high)
        return _FILTER_SELECTIVITY if fraction is None else fraction


@dataclass(frozen=True)
class Contains(Predicate):
    """Substring match on TEXT columns (case-insensitive)."""

    column: str
    needle: str

    def __post_init__(self) -> None:
        # Lower the needle once instead of on every row.
        object.__setattr__(self, "_needle_lower", self.needle.lower())

    def matches(self, row: dict[str, Any]) -> bool:
        if self.column not in row:
            raise UnknownColumnError(f"predicate references unknown column {self.column!r}")
        value = row[self.column]
        if not isinstance(value, str):
            return False
        return self._needle_lower in value.lower()

    def shape(self) -> tuple | None:
        return _leaf_shape(self)


class And(Predicate):
    def __init__(self, *parts: Predicate) -> None:
        if not parts:
            raise QueryError("And() needs at least one predicate")
        self.parts = parts

    def matches(self, row: dict[str, Any]) -> bool:
        return all(part.matches(row) for part in self.parts)

    def shape(self) -> tuple | None:
        return _branch_shape(self, And)

    def selectivity(self, table) -> float:
        product = 1.0
        for part in self.parts:  # independence assumption
            product *= part.selectivity(table)
        return product

    def __repr__(self) -> str:
        return f"And({', '.join(map(repr, self.parts))})"


class Or(Predicate):
    def __init__(self, *parts: Predicate) -> None:
        if not parts:
            raise QueryError("Or() needs at least one predicate")
        self.parts = parts

    def matches(self, row: dict[str, Any]) -> bool:
        return any(part.matches(row) for part in self.parts)

    def shape(self) -> tuple | None:
        return _branch_shape(self, Or)

    def selectivity(self, table) -> float:
        return min(1.0, sum(part.selectivity(table) for part in self.parts))

    def __repr__(self) -> str:
        return f"Or({', '.join(map(repr, self.parts))})"


class Not(Predicate):
    def __init__(self, inner: Predicate) -> None:
        self.inner = inner

    def matches(self, row: dict[str, Any]) -> bool:
        return not self.inner.matches(row)

    def shape(self) -> tuple | None:
        if type(self) is not Not:
            return None
        inner = self.inner.shape()
        if inner is None:
            return None
        return ("Not", inner)

    def selectivity(self, table) -> float:
        return max(0.0, 1.0 - self.inner.selectivity(table))

    def __repr__(self) -> str:
        return f"Not({self.inner!r})"


_CACHEABLE_LEAVES = (Eq, Ne, Lt, Le, Gt, Ge, In, Between, Contains)


def _branch_shape(predicate: "And | Or", expected: type) -> tuple | None:
    if type(predicate) is not expected:
        return None
    shapes = []
    for part in predicate.parts:
        part_shape = part.shape()
        if part_shape is None:
            return None
        shapes.append(part_shape)
    return (expected.__name__, tuple(shapes))


def _map_predicates(old: Predicate, new: Predicate, out: dict) -> bool:
    """Fill ``out`` with ``id(old node) -> new node`` for every node of
    two same-shaped predicate trees; False on structural mismatch.

    An old node object aliased into several tree positions can only map
    to one new node, so such trees are rejected (forcing a replan)
    unless the new tree aliases the same way.
    """
    if type(old) is not type(new):
        return False
    existing = out.get(id(old))
    if existing is not None and existing is not new:
        return False
    out[id(old)] = new
    if isinstance(old, (And, Or)):
        if len(old.parts) != len(new.parts):
            return False
        return all(
            _map_predicates(old_part, new_part, out)
            for old_part, new_part in zip(old.parts, new.parts)
        )
    if isinstance(old, Not):
        return _map_predicates(old.inner, new.inner, out)
    return True


# ----------------------------------------------------------------------
# planner
# ----------------------------------------------------------------------


def _flatten(kind: type, predicate: Predicate) -> list[Predicate]:
    """Flatten nested And-of-And / Or-of-Or trees into one part list."""
    parts: list[Predicate] = []
    for part in predicate.parts:  # type: ignore[attr-defined]
        if isinstance(part, kind):
            parts.extend(_flatten(kind, part))
        else:
            parts.append(part)
    return parts


def _leaf_access_plan(table: Table, predicate: Predicate) -> Plan | None:
    """An exact index-backed plan for one leaf predicate, or None.

    The estimate probe doubles as a compatibility check: an unhashable
    or type-mismatched query value raises TypeError inside the index
    (dict hash or bisect comparison), in which case the predicate is
    treated as unindexable and the residual filter evaluates it
    row-by-row instead of crashing.
    """
    plan = _build_leaf_plan(table, predicate)
    if plan is None:
        return None
    try:
        plan.estimate()
    except TypeError:
        return None
    return plan


def _sourced(plan: Plan, predicate: Predicate) -> Plan:
    plan.source = predicate
    return plan


def _build_leaf_plan(table: Table, predicate: Predicate) -> Plan | None:
    if isinstance(predicate, Eq):
        if predicate.column == table.schema.primary_key:
            return _sourced(PkLookup(table, predicate.value), predicate)
        index = table.index_for(predicate.column)
        if index is not None:
            return _sourced(
                HashLookup(table, predicate.column, predicate.value, index),
                predicate,
            )
        return None
    if isinstance(predicate, In):
        index = table.index_for(predicate.column)
        if index is not None:
            return _sourced(
                IndexIn(table, predicate.column, predicate.values, index),
                predicate,
            )
        return None
    if isinstance(predicate, (Lt, Le, Gt, Ge, Between)):
        # unsatisfiable ranges are exact and free, no index required:
        # a NULL bound never compares true, and a reversed BETWEEN
        # matches nothing (estimate and execution agree on "empty")
        if isinstance(predicate, Between):
            if predicate.low is None or predicate.high is None:
                return Empty(table, "NULL range bound")
            try:
                if predicate.low > predicate.high:
                    return Empty(table, "reversed range bounds")
            except TypeError:
                pass  # incomparable bounds: leave it to index/filter paths
        elif predicate.value is None:
            return Empty(table, "NULL comparison value")
        index = table.index_for(predicate.column)
        if index is None or index.kind != "sorted":
            return None
        column = predicate.column
        if isinstance(predicate, Between):
            plan = SortedRange(table, column, index, predicate.low, predicate.high)
        elif isinstance(predicate, Lt):
            plan = SortedRange(
                table, column, index, high=predicate.value, include_high=False
            )
        elif isinstance(predicate, Le):
            plan = SortedRange(table, column, index, high=predicate.value)
        elif isinstance(predicate, Gt):
            plan = SortedRange(
                table, column, index, low=predicate.value, include_low=False
            )
        else:
            plan = SortedRange(table, column, index, low=predicate.value)
        return _sourced(plan, predicate)
    return None


def _access_plan(table: Table, predicate: Predicate) -> Plan | None:
    """An exact plan producing precisely ``predicate``'s rows, or None.

    None means no index applies and the caller must fall back to
    ``Filter(FullScan)``.
    """
    if isinstance(predicate, And):
        return _and_access_plan(table, _flatten(And, predicate))
    if isinstance(predicate, Or):
        branches = []
        for part in _flatten(Or, predicate):
            branch = _access_plan(table, part)
            if branch is None:
                return None  # one unindexed branch forces a scan anyway
            branches.append(branch)
        if not branches:
            return None
        return Union(table, branches)
    return _leaf_access_plan(table, predicate)


# Intersect the runner-up index only when its estimate is within this
# factor of the best one: materializing a pk set costs about an order of
# magnitude less per element than fetching a row and evaluating the
# residual predicate on it, so a runner-up much larger than the best
# result set is cheaper to re-check row-by-row.
_INTERSECT_FACTOR = 8


def _and_access_plan(table: Table, parts: list[Predicate]) -> Plan | None:
    """Pick the cheapest access path for a conjunction.

    Ranks every indexable conjunct by estimated cardinality, keeps the
    most selective, intersects with the runner-up when that one is
    comparably selective, and re-checks the uncovered conjuncts in a
    residual Filter.
    """
    ranked: list[tuple[float, int, Plan]] = []
    for position, part in enumerate(parts):
        candidate = _access_plan(table, part)
        if candidate is not None:
            ranked.append((candidate.estimate(), position, candidate))
    if not ranked:
        return None
    ranked.sort(key=lambda entry: entry[:2])
    covered = {ranked[0][1]}
    plan: Plan = ranked[0][2]
    if len(ranked) > 1 and ranked[1][0] <= ranked[0][0] * _INTERSECT_FACTOR:
        plan = Intersect(table, [plan, ranked[1][2]])
        covered.add(ranked[1][1])
    residual = [part for position, part in enumerate(parts) if position not in covered]
    if residual:
        plan = Filter(table, plan, residual[0] if len(residual) == 1 else And(*residual))
    return plan


# ----------------------------------------------------------------------
# Query
# ----------------------------------------------------------------------


class Query:
    """Fluent query over one table.

    >>> Query(table).where(Eq("status", "running")).order_by("quality",
    ...     descending=True).limit(10).all()
    """

    def __init__(self, table: Table) -> None:
        self._table = table
        self._predicate: Predicate = TruePredicate()
        self._order_column: str | None = None
        self._order_descending = False
        self._limit: int | None = None
        self._offset = 0
        self._projection: list[str] | None = None
        #: how the last compiled plan was obtained: "hit" (plan cache),
        #: "miss" (planned and cached) or "bypass" (uncacheable shape)
        self._plan_source = "bypass"

    # builder steps ----------------------------------------------------

    def where(self, predicate: Predicate) -> "Query":
        if isinstance(self._predicate, TruePredicate):
            self._predicate = predicate
        else:
            self._predicate = And(self._predicate, predicate)
        return self

    def order_by(self, column: str, *, descending: bool = False) -> "Query":
        if not self._table.schema.has_column(column):
            raise UnknownColumnError(
                f"order_by: unknown column {column!r} on table {self._table.name!r}"
            )
        self._order_column = column
        self._order_descending = descending
        return self

    def limit(self, count: int) -> "Query":
        if count < 0:
            raise QueryError(f"limit must be >= 0, got {count}")
        self._limit = count
        return self

    def offset(self, count: int) -> "Query":
        if count < 0:
            raise QueryError(f"offset must be >= 0, got {count}")
        self._offset = count
        return self

    def select(self, columns: list[str]) -> "Query":
        for name in columns:
            if not self._table.schema.has_column(name):
                raise UnknownColumnError(
                    f"select: unknown column {name!r} on table {self._table.name!r}"
                )
        self._projection = list(columns)
        return self

    # execution ----------------------------------------------------------

    def all(self) -> list[dict[str, Any]]:
        return list(self._execute())

    def first(self) -> dict[str, Any] | None:
        """The first matching row, or None; does not mutate the query."""
        return next(self._execute(limit_override=1), None)

    def exists(self) -> bool:
        """True if any row matches; stops at the first hit."""
        return next(self._iter_row_refs(limit_override=1), None) is not None

    def count(self) -> int:
        """Number of matching rows, without building row dicts when the
        plan is purely index-backed."""
        matched = self._window(self._build_plan(self._limit).iter_pks(), self._limit)
        return sum(1 for _ in matched)

    def pks(self) -> list[Any]:
        pk_name = self._table.schema.primary_key
        return [row[pk_name] for row in self._iter_row_refs()]

    def distinct(self, column: str) -> list[Any]:
        """Distinct values of ``column`` among matching rows, sorted."""
        if not self._table.schema.has_column(column):
            raise UnknownColumnError(
                f"distinct: unknown column {column!r} on table {self._table.name!r}"
            )
        values = {row[column] for row in self._iter_row_refs()}
        return sorted(values, key=order_key)

    def update_rows(self, changes: dict[str, Any]) -> int:
        """UPDATE ... WHERE: apply ``changes`` to matching rows.

        Returns the number of rows updated.  Runs through the table's
        normal update path, so constraints, indexes, transactions and
        the WAL all observe each row change.
        """
        pks = self.pks()
        for pk in pks:
            self._table.update(pk, changes)
        return len(pks)

    def delete_rows(self) -> int:
        """DELETE ... WHERE: remove matching rows; returns the count."""
        pks = self.pks()
        for pk in pks:
            self._table.delete(pk)
        return len(pks)

    def explain(self) -> str:
        """The physical plan this query executes, as an indented tree,
        plus a trailing ``[plan-cache: hit|miss|bypass]`` line."""
        rendered = self._build_plan(self._limit).render()
        return f"{rendered}\n[plan-cache: {self._plan_source}]"

    def join(
        self,
        right: "Table | Query",
        *,
        on: str | tuple[str, str],
        how: str = "inner",
        prefix_left: str = "",
        prefix_right: str = "",
    ) -> "JoinQuery":
        """Planned, streaming equi-join with ``right`` (a Table or Query).

        ``on`` is either one column name present on both sides or a
        ``(left_column, right_column)`` pair.  See :class:`JoinQuery`.
        """
        return JoinQuery(
            self, right, on=on, how=how,
            prefix_left=prefix_left, prefix_right=prefix_right,
        )

    # aggregation ----------------------------------------------------------

    def aggregate(self, column: str, func: str) -> Any:
        """Compute count/sum/avg/min/max over the matching rows."""
        _check_aggregate_func(func)
        values = [
            row[column] for row in self._iter_row_refs() if row[column] is not None
        ]
        return _fold_aggregate(values, func)

    def group_by(
        self, column: str, aggregates: dict[str, tuple[str, str]]
    ) -> dict[Any, dict[str, Any]]:
        """Group rows by ``column``; ``aggregates`` maps output name to
        ``(column, func)``.

        >>> q.group_by("status", {"n": ("id", "count"), "avg_q": ("quality", "avg")})
        """
        for _name, (_agg_column, func) in aggregates.items():
            _check_aggregate_func(func)
        groups: dict[Any, list[dict[str, Any]]] = {}
        for row in self._iter_row_refs():
            groups.setdefault(row[column], []).append(row)
        out: dict[Any, dict[str, Any]] = {}
        for key, rows in groups.items():
            result: dict[str, Any] = {}
            for name, (agg_column, func) in aggregates.items():
                values = [
                    row[agg_column] for row in rows if row[agg_column] is not None
                ]
                result[name] = _fold_aggregate(values, func)
            out[key] = result
        return out

    # planner ----------------------------------------------------------

    def _build_plan(self, effective_limit: int | None) -> Plan:
        """Compile predicate + order/limit into the cheapest plan tree.

        Consults the table's compiled-plan cache first: on a shape hit
        the cached tree is rebound to this query's values (and
        validated with one guarded ``estimate()`` probe); otherwise the
        query plans from scratch and the result is cached under its
        shape key.
        """
        cache = self._table.plan_cache
        shape = self._predicate.shape()
        key = None
        if shape is not None:
            key = (
                shape, self._order_column, self._order_descending,
                effective_limit, self._offset,
            )
            entry = cache.lookup(key, len(self._table))
            if entry is not None:
                plan = self._rebind_cached(entry)
                if plan is not None:
                    cache.record_hit()
                    self._plan_source = "hit"
                    return plan
        plan = self._plan_from_scratch(effective_limit)
        if key is not None:
            cache.record_miss()
            try:
                estimate: float | None = plan.estimate()
            except TypeError:
                estimate = None
            cache.store(key, plan, self._predicate, len(self._table), estimate)
            self._plan_source = "miss"
        else:
            self._plan_source = "bypass"
        return plan

    def _rebind_cached(self, entry) -> Plan | None:
        """The cached plan rebound to this query's values, or None when
        the new values are incompatible (forces a replan)."""
        mapping: dict = {}
        if not _map_predicates(entry.predicate, self._predicate, mapping):
            return None
        try:
            plan = entry.plan.rebind(mapping)
            # one probe validates value/index compatibility (unhashable
            # or type-mismatched values raise here, not mid-execution)
            estimate = plan.estimate()
        except (RebindError, TypeError, KeyError):
            return None
        # selectivity re-check: a strategy compiled for a narrow binding
        # (e.g. "intersect these two tiny index results") must not be
        # silently reused for a wide binding of the same shape, where a
        # different access path would win — replan and overwrite instead
        if not self._table.plan_cache.revalidate(entry, estimate):
            return None
        return plan

    def _plan_from_scratch(self, effective_limit: int | None) -> Plan:
        table = self._table
        predicate = self._predicate
        is_true = isinstance(predicate, TruePredicate)
        access = None if is_true else _access_plan(table, predicate)
        if self._order_column is None:
            if access is not None:
                return access
            scan: Plan = FullScan(table)
            return scan if is_true else Filter(table, scan, predicate)
        base: Plan
        if access is not None:
            base = access
        else:
            base = FullScan(table)
            if not is_true:
                base = Filter(table, base, predicate)
        order_index = table.index_for(self._order_column)
        if order_index is not None and order_index.kind == "sorted":
            estimate = max(base.estimate(), 1.0)
            sort_cost = estimate * (1.0 + math.log2(estimate + 1.0))
            cap = None if effective_limit is None else self._offset + effective_limit
            if is_true and cap is not None:
                stream_cost = float(cap)
            else:
                # a residual filter (or no limit) forces walking the
                # whole index in the worst case
                stream_cost = float(len(table))
            if stream_cost <= sort_cost:
                residual = None if is_true else predicate
                if cap is not None:
                    return TopK(
                        table, self._order_column, order_index,
                        self._order_descending, cap, residual,
                    )
                ordered: Plan = OrderedScan(
                    table, self._order_column, order_index, self._order_descending
                )
                return ordered if residual is None else Filter(table, ordered, residual)
        return Sort(table, base, self._order_column, self._order_descending)

    def _window(self, items: Iterator[Any], effective_limit: int | None) -> Iterator[Any]:
        """Apply the query's offset + an effective limit to a stream."""
        if self._offset or effective_limit is not None:
            stop = (
                None if effective_limit is None else self._offset + effective_limit
            )
            items = islice(items, self._offset, stop)
        return items

    def _effective_limit(self, limit_override: int | None) -> int | None:
        effective = self._limit
        if limit_override is not None:
            effective = (
                limit_override if effective is None else min(effective, limit_override)
            )
        return effective

    def _iter_row_refs(self, limit_override: int | None = None) -> Iterator[dict[str, Any]]:
        """Stream matching row *references* (ordered, offset/limit
        applied, no projection) without mutating builder state.

        Internal read-only surface — counts, aggregates, pk extraction —
        where the boundary copy would be pure waste.
        """
        effective = self._effective_limit(limit_override)
        return self._window(
            self._build_plan(effective).iter_rows_refs(), effective
        )

    def _execute(self, limit_override: int | None = None) -> Iterator[dict[str, Any]]:
        """Stream result rows, copying exactly once at this public API
        boundary (projection builds fresh dicts, so it never copies)."""
        effective = self._effective_limit(limit_override)
        plan = self._build_plan(effective)
        rows = self._window(plan.iter_rows_refs(), effective)
        if self._projection is not None:
            names = self._projection
            return ({name: row[name] for name in names} for row in rows)
        if plan.fresh_rows:
            return rows
        return (dict(row) for row in rows)


# ----------------------------------------------------------------------
# aggregates (shared by Query.aggregate and Query.group_by)
# ----------------------------------------------------------------------

_AGGREGATE_FUNCS = ("count", "sum", "avg", "min", "max")


def _check_aggregate_func(func: str) -> None:
    if func not in _AGGREGATE_FUNCS:
        raise QueryError(f"unknown aggregate {func!r}")


def _fold_aggregate(values: list, func: str) -> Any:
    """Fold non-NULL ``values`` with one of the known aggregates."""
    if func == "count":
        return len(values)
    if not values:
        return None
    if func == "sum":
        return sum(values)
    if func == "avg":
        return sum(values) / len(values)
    if func == "min":
        return min(values)
    return max(values)


# ----------------------------------------------------------------------
# joins
# ----------------------------------------------------------------------


class JoinQuery:
    """A planned, streaming n-ary equi-join.

    Built by :meth:`Query.join`; further :meth:`join` calls chain more
    relations onto the accumulated **join graph** instead of nesting
    binary plans.  The join planner (:mod:`repro.store.joinorder`)
    picks both the relation order (left-deep DP over subsets, the
    caller-written order for wide graphs or colliding output column
    names) and the physical operator per join — index nested-loop or
    hash join — from live statistics.
    ``explain()`` renders the chosen tree plus ``[join-order: ...]``
    and ``[plan-cache: ...]`` lines.

    Output rows combine each relation's columns under its prefix;
    ``how="left"`` pads unmatched left rows with ``None`` for every
    right schema column.  WHERE conjuncts that touch exactly one
    non-outer relation are pushed down into that relation's access
    plan; the rest filter the combined rows.  A root query with
    ``order_by`` keeps its row order through every join; with a
    ``limit`` on the join as well, the planner costs only the rows the
    window reads (``offset + limit``, part of the plan-cache key), so a
    top-k over an order index probes row by row instead of building
    hash tables.  An ordered root may carry a ``limit`` of its own: the
    join then reads only that many root rows, its first in that order
    (a top-k subquery; WHERE conjuncts on it filter after that window).

    >>> (Query(resources).where(Eq("kind", "url"))
    ...     .join(posts, on=("id", "resource_id"), prefix_right="post_")
    ...     .join(users, on=("post_tagger_id", "id"), prefix_right="user_",
    ...           how="left")
    ...     .all())

    For chained joins the left key is an *output* column name (with
    its relation's prefix); the first join also accepts the root
    table's raw column names, as before.
    """

    def __init__(
        self,
        left: Query,
        right: "Table | Query",
        *,
        on: str | tuple[str, str],
        how: str = "inner",
        prefix_left: str = "",
        prefix_right: str = "",
    ) -> None:
        self._root = left
        self._check_input(left, "left")
        self._relations: list[Relation] = [
            Relation(0, left._table, None, prefix_left)
        ]
        #: Query inputs per relation position — their predicates are
        #: read at plan time, so builder-style .where() calls made
        #: after .join() still count (root and right sides alike)
        self._relation_queries: dict[int, Query] = {}
        self._edges: list[JoinEdge] = []
        self._filter: Predicate | None = None
        self._limit: int | None = None
        self._offset = 0
        #: how the last compiled join plan was obtained (mirrors Query)
        self._plan_source = "bypass"
        self._order_info: dict = {}
        self.join(right, on=on, how=how, prefix_right=prefix_right)

    # graph building ---------------------------------------------------

    def join(
        self,
        right: "Table | Query",
        *,
        on: str | tuple[str, str],
        how: str = "inner",
        prefix_right: str = "",
    ) -> "JoinQuery":
        """Chain another relation onto the join graph.

        ``on`` is one column name present on both sides or a
        ``(left_output_column, right_column)`` pair.
        """
        if how not in ("inner", "left"):
            raise QueryError(f"join: how must be 'inner' or 'left', got {how!r}")
        if isinstance(on, str):
            left_key = right_key = on
        else:
            left_key, right_key = on
        right_query = right if isinstance(right, Query) else None
        right_table = right._table if isinstance(right, Query) else right
        if right_query is not None:
            self._check_input(right_query, "right")
        anchor, anchor_column = self._resolve_left_key(left_key)
        if not right_table.schema.has_column(right_key):
            raise UnknownColumnError(
                f"join: unknown column {right_key!r} on table "
                f"{right_table.name!r}"
            )
        position = len(self._relations)
        self._relations.append(
            Relation(
                position, right_table, None, prefix_right,
                outer=(how == "left"),
            )
        )
        if right_query is not None:
            self._relation_queries[position] = right_query
        self._edges.append(
            JoinEdge(anchor, anchor_column, position, right_key, how)
        )
        return self

    @staticmethod
    def _check_input(query: Query, side: str) -> None:
        root_window = side == "left" and query._order_column is not None
        if query._offset or (query._limit is not None and not root_window):
            raise QueryError(
                f"join: {side} input must not carry limit/offset, except "
                "a limit on an ordered left input (window the join instead)"
            )
        if query._projection is not None:
            raise QueryError(f"join: {side} input must not carry a projection")

    def _resolve_output_column(self, name: str) -> tuple[int, str] | None:
        """(relation position, raw column) for an output column name.

        Reverse written order, matching collision semantics: on a name
        collision the later relation's value wins in the combined row.
        """
        for relation in reversed(self._relations):
            prefix = relation.prefix
            if name.startswith(prefix) and relation.table.schema.has_column(
                name[len(prefix):]
            ):
                return relation.position, name[len(prefix):]
        return None

    def _resolve_left_key(self, name: str) -> tuple[int, str]:
        resolved = self._resolve_output_column(name)
        if resolved is not None:
            return resolved
        # first-join compatibility: the root's raw column names work
        # even when prefix_left renames them in the output
        if self._relations[0].table.schema.has_column(name):
            return 0, name
        raise UnknownColumnError(
            f"join: {name!r} matches no joined column "
            f"(relations: {[r.table.name for r in self._relations]})"
        )

    # builder steps ----------------------------------------------------

    def where(self, predicate: Predicate) -> "JoinQuery":
        """Filter over the combined (prefixed) rows.

        Conjuncts touching exactly one non-outer relation are pushed
        down into that relation's access plan at planning time.
        """
        self._filter = (
            predicate if self._filter is None else And(self._filter, predicate)
        )
        return self

    def limit(self, count: int) -> "JoinQuery":
        if count < 0:
            raise QueryError(f"limit must be >= 0, got {count}")
        self._limit = count
        return self

    def offset(self, count: int) -> "JoinQuery":
        if count < 0:
            raise QueryError(f"offset must be >= 0, got {count}")
        self._offset = count
        return self

    # predicate pushdown -----------------------------------------------

    def _pushdown_target(self, conjunct: Predicate) -> tuple[int, str] | None:
        """(position, prefix) of the single non-outer relation this
        conjunct touches, or None when it must stay a residual."""
        columns: list[str] = []
        if not _collect_predicate_columns(conjunct, columns):
            return None
        targets: set[int] = set()
        for name in columns:
            resolved = self._resolve_output_column(name)
            if resolved is None:
                return None
            targets.add(resolved[0])
        if len(targets) != 1:
            return None
        position = targets.pop()
        relation = self._relations[position]
        if relation.outer:
            # WHERE on a null-supplying side is not ON: it must see the
            # padded NULLs, so it cannot move below the outer join
            return None
        if position == 0 and self._root._limit is not None:
            # nor below a root window: it filters the rows the window kept
            return None
        return position, relation.prefix

    def _effective_relations(self) -> tuple[list[Relation], Predicate | None]:
        """Relations with pushed-down predicates merged in, plus the
        residual combined-row filter."""
        pushed: dict[int, list[Predicate]] = {}
        residual_parts: list[Predicate] = []
        if self._filter is not None:
            conjuncts = (
                _flatten(And, self._filter)
                if isinstance(self._filter, And)
                else [self._filter]
            )
            for conjunct in conjuncts:
                target = self._pushdown_target(conjunct)
                if target is None:
                    residual_parts.append(conjunct)
                else:
                    position, prefix = target
                    pushed.setdefault(position, []).append(
                        _strip_column_prefix(conjunct, prefix)
                    )
        relations = []
        for relation in self._relations:
            # input-query WHEREs are read at plan time, so predicates
            # added after .join() still count (root and right alike)
            input_query = (
                self._root
                if relation.position == 0
                else self._relation_queries.get(relation.position)
            )
            base_predicate = relation.predicate
            if input_query is not None and not isinstance(
                input_query._predicate, TruePredicate
            ):
                base_predicate = input_query._predicate
            parts = [] if base_predicate is None else [base_predicate]
            parts += pushed.get(relation.position, [])
            if not parts:
                predicate = None
            elif len(parts) == 1:
                predicate = parts[0]
            else:
                predicate = And(*parts)
            relations.append(
                Relation(
                    relation.position, relation.table, predicate,
                    relation.prefix, relation.outer,
                )
            )
        if not residual_parts:
            residual = None
        elif len(residual_parts) == 1:
            residual = residual_parts[0]
        else:
            residual = And(*residual_parts)
        return relations, residual

    # planner ----------------------------------------------------------

    def _plan_relation_builder(self, relations: list[Relation]):
        root = self._root

        def plan_relation(relation: Relation) -> Plan:
            query = Query(relation.table)
            if relation.predicate is not None:
                query._predicate = relation.predicate
            if relation.position == 0:
                query._order_column = root._order_column
                query._order_descending = root._order_descending
                if root._limit is not None:
                    plan = query._build_plan(root._limit)
                    if isinstance(plan, TopK):
                        return plan
                    return Limit(relation.table, plan, root._limit)
            return query._build_plan(None)

        return plan_relation

    def _join_shape(
        self, relations: list[Relation], residual: Predicate | None
    ) -> tuple | None:
        """The join-graph shape key, or None when uncacheable."""
        relation_shapes = []
        for relation in relations:
            shape = (
                ("True",)
                if relation.predicate is None
                else relation.predicate.shape()
            )
            if shape is None:
                return None
            relation_shapes.append(
                (relation.table.name, relation.prefix, relation.outer, shape)
            )
        residual_shape: tuple | None = ("True",)
        if residual is not None:
            residual_shape = residual.shape()
            if residual_shape is None:
                return None
        return (
            "join",
            tuple(relation_shapes),
            tuple(
                (e.left, e.left_column, e.right, e.right_column, e.how)
                for e in self._edges
            ),
            self._root._order_column,
            self._root._order_descending,
            self._root._limit,
            residual_shape,
            # only an ordered graph is costed under its cap
            None if self._root._order_column is None else self._cap(),
        )

    def _cap(self) -> int | None:
        """Rows the query reads (offset + limit), or None unlimited."""
        return None if self._limit is None else self._offset + self._limit

    @staticmethod
    def _synthetic_predicate(
        relations: list[Relation], residual: Predicate | None
    ) -> Predicate:
        """One tree spanning every bound value, for cache rebinding."""
        parts = [
            TruePredicate() if r.predicate is None else r.predicate
            for r in relations
        ]
        parts.append(TruePredicate() if residual is None else residual)
        return And(*parts)

    def _build_plan(self) -> Plan:
        relations, residual = self._effective_relations()
        graph = JoinGraph(
            relations, self._edges,
            ordered=self._root._order_column is not None,
        )
        root_table = relations[0].table
        cache = root_table.plan_cache
        key = None
        if all(relation.table.plan_cache.enabled for relation in relations):
            key = self._join_shape(relations, residual)
        tables = tuple(relation.table for relation in relations)
        if key is not None:
            entry = cache.lookup_join(key, tables)
            if entry is not None:
                plan = self._rebind_cached(entry, relations, residual)
                if plan is not None:
                    cache.record_hit()
                    self._plan_source = "hit"
                    if entry.info is not None:
                        self._order_info = entry.info
                    return plan
        plan, info = plan_join_graph(
            graph, self._plan_relation_builder(relations), cap=self._cap()
        )
        if residual is not None:
            plan = Filter(root_table, plan, residual)
        self._order_info = info
        if key is not None:
            cache.record_miss()
            try:
                estimate: float | None = plan.estimate()
            except TypeError:
                estimate = None
            cache.store_join(
                key, plan, self._synthetic_predicate(relations, residual),
                tables, estimate, info,
            )
            self._plan_source = "miss"
        else:
            self._plan_source = "bypass"
        return plan

    def _rebind_cached(
        self, entry, relations: list[Relation], residual: Predicate | None
    ) -> Plan | None:
        """The cached join plan rebound to this query's values, or None
        (forces a replan)."""
        mapping: dict = {}
        new_synthetic = self._synthetic_predicate(relations, residual)
        if not _map_predicates(entry.predicate, new_synthetic, mapping):
            return None
        try:
            plan = entry.plan.rebind(mapping)
            estimate = plan.estimate()
        except (RebindError, TypeError, KeyError):
            return None
        if not self._relations[0].table.plan_cache.revalidate(entry, estimate):
            return None
        return plan

    def explain(self) -> str:
        """The physical join plan as an indented tree, plus
        ``[join-order: ...]`` (the planner-chosen relation order and
        the strategy that chose it) and ``[plan-cache: ...]`` lines."""
        rendered = self._build_plan().render()
        order = " -> ".join(self._order_info.get("order", ()))
        algorithm = self._order_info.get("algorithm", "cached")
        return (
            f"{rendered}\n[join-order: {order or 'cached'} ({algorithm})]\n"
            f"[plan-cache: {self._plan_source}]"
        )

    # execution --------------------------------------------------------

    def __iter__(self) -> Iterator[dict[str, Any]]:
        rows: Iterator[dict[str, Any]] = iter(self._build_plan().iter_rows())
        if self._offset or self._limit is not None:
            rows = islice(rows, self._offset, self._cap())
        return rows

    def all(self) -> list[dict[str, Any]]:
        return list(self)

    def first(self) -> dict[str, Any] | None:
        return next(iter(self), None)

    def exists(self) -> bool:
        return self.first() is not None

    def count(self) -> int:
        return sum(1 for _ in self)


def _collect_predicate_columns(predicate: Predicate, out: list[str]) -> bool:
    """Collect every column a predicate tree references; False when the
    tree contains an unknown predicate class (not pushdown-safe)."""
    if isinstance(predicate, (And, Or)):
        return all(
            _collect_predicate_columns(part, out) for part in predicate.parts
        )
    if isinstance(predicate, Not):
        return _collect_predicate_columns(predicate.inner, out)
    if isinstance(predicate, TruePredicate):
        return True
    if type(predicate) in _CACHEABLE_LEAVES:
        out.append(predicate.column)
        return True
    return False


def _strip_column_prefix(predicate: Predicate, prefix: str) -> Predicate:
    """A copy of ``predicate`` with ``prefix`` removed from every
    column name (pushdown rewrites output names to raw names)."""
    if isinstance(predicate, (And, Or)):
        return type(predicate)(
            *[_strip_column_prefix(part, prefix) for part in predicate.parts]
        )
    if isinstance(predicate, Not):
        return Not(_strip_column_prefix(predicate.inner, prefix))
    if isinstance(predicate, TruePredicate):
        return predicate
    column = predicate.column[len(prefix):] if prefix else predicate.column
    if isinstance(predicate, In):
        return In(column, predicate.values)
    if isinstance(predicate, Between):
        return Between(column, predicate.low, predicate.high)
    if isinstance(predicate, Contains):
        return Contains(column, predicate.needle)
    return type(predicate)(column, predicate.value)
