"""Physical query plans for the embedded store.

The planner in :mod:`repro.store.query` compiles a predicate plus an
order/limit specification into a tree of the nodes below (mirroring the
Cozy ``Plan`` hierarchy of hash lookups, binary-search ranges,
intersections, unions and filters).  Each node

- estimates its output cardinality from live index statistics
  (:meth:`Plan.estimate`), which is what the cost-based planner ranks,
- executes lazily — :meth:`Plan.iter_pks` / :meth:`Plan.iter_rows` are
  generators, so ``first()``/``count()``/``exists()`` never materialize
  full result sets,
- renders itself as an indented tree (:meth:`Plan.render`) for
  ``Query.explain()``.

Zero-copy discipline.  Plan nodes stream row **references**
internally: :meth:`Plan.iter_rows_refs` yields the store's own row
dicts (safe because rows are never mutated in place — updates bind
fresh dicts), and index access nodes use the indexes' lazy iterators
(``iter_eq``/``iter_in``/``iter_range``) instead of materialized
bucket copies.  :meth:`Plan.iter_rows` is the public boundary: it
copies each surviving row exactly once — unless the node already
produces fresh dicts (joins, projections), flagged by
:attr:`Plan.fresh_rows`, in which case no copy is needed at all.
Consumers that only *read* rows (counts, aggregates, joins' inner
stages) stay on the reference surface end to end.

Leaf access nodes (``PkLookup``, ``HashLookup``, ``IndexIn``,
``SortedRange``) are *exact*: they produce precisely the rows matching
their predicate.  ``Intersect`` and ``Union`` of exact plans stay
exact; everything else is made exact by a ``Filter`` wrapper.  On a
live table an index read captures primary keys and fetches the rows
afterwards, so a writer can move a row out of the captured bucket or
span in between: rows fetched from a live table are re-checked against
the predicates the access node was compiled from
(:meth:`Plan.still_matches`).  Views are frozen and skip the re-check.

Joins.  ``HashJoin`` and ``IndexNestedLoopJoin`` are binary nodes
whose output is *combined* rows (left columns + prefixed right
columns; on a name collision the right input's value wins), so they
stream through :meth:`Plan.iter_rows` but refuse :meth:`Plan.iter_pks`.
Their left input is either a base-table access plan (raw rows, renamed
by the join via ``prefix_left``) or another join node (already-combined
rows, empty prefix), which is how the join-order search
(:mod:`repro.store.joinorder`) builds left-deep chains.  In
``explain()`` output a join reads as::

    index-nl-join(resources.id = posts.resource_id via hash-index,
                  how=inner, est~250)
      sorted-index-range(resources.quality, ...)

i.e. the left input is the first child subtree, and the describe line
names the join strategy, the key pair, the access path used to probe
the right side and the estimated output size.  A ``hash-join`` line
additionally shows which input is the build side (``build=left|right``)
and renders both inputs as children.

Plan-cache rebinding.  Compiled plans are cached per (table, predicate
*shape*) — single-table entries *and* whole join trees; see
:mod:`repro.store.plancache`.  On a cache hit the stored tree is
*rebound* to the new predicate's values via :meth:`Plan.rebind`: every
value-carrying leaf node remembers the leaf predicate it was compiled
from (``source``) and rebuilds itself from the corresponding leaf of
the new predicate; join nodes rebind their inputs and pushed-down
per-relation predicates recursively.  Nodes that cannot be rebound
safely (``Empty``, whose emptiness was derived from the old values)
raise :class:`RebindError`, which makes the cache fall back to
planning from scratch.
"""

from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from .errors import QueryError, UnknownColumnError
from .index import HashIndex, SortedIndex
from .table import Table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .query import Predicate

__all__ = [
    "Plan", "FullScan", "Empty", "PkLookup", "HashLookup", "IndexIn",
    "SortedRange", "OrderedScan", "TopK", "Limit", "Intersect", "Union",
    "Filter", "Sort", "HashJoin", "IndexNestedLoopJoin",
    "RebindError", "order_key", "stream_hash_join",
]


class RebindError(Exception):
    """A cached plan could not be rebound to a new predicate's values."""

# Heuristic output fraction of a residual Filter; only used to rank
# candidate plans, never for correctness.
_FILTER_SELECTIVITY = 1 / 3


def order_key(value: Any) -> tuple:
    """Total order over heterogeneous values with NULLs first."""
    if value is None:
        return (0, "", 0)
    if isinstance(value, bool):
        return (1, "", int(value))
    if isinstance(value, (int, float)):
        return (2, "", value)
    return (3, type(value).__name__, value)


def _rebind_predicate(predicate: "Predicate", mapping: dict) -> "Predicate":
    """The ``mapping``-image of a predicate held inside a cached plan.

    ``mapping`` maps ``id(old node) -> new node`` for every node of the
    predicate tree the plan was compiled from.  Residual filters can
    also hold *synthetic* ``And``/``Or`` wrappers the planner built
    around original subtrees; those are rebuilt part by part.
    """
    mapped = mapping.get(id(predicate))
    if mapped is not None:
        return mapped
    parts = getattr(predicate, "parts", None)
    if parts is not None:
        return type(predicate)(
            *[_rebind_predicate(part, mapping) for part in parts]
        )
    raise RebindError(f"unmapped predicate {predicate!r}")


def _mapped_leaf(source: "Predicate | None", mapping: dict) -> "Predicate":
    if source is None:
        raise RebindError("plan node has no source predicate")
    leaf = mapping.get(id(source))
    if leaf is None:
        raise RebindError(f"unmapped leaf {source!r}")
    return leaf


class Plan:
    """One node of a physical query plan."""

    #: the leaf predicate a value-carrying access node was compiled
    #: from; set by the planner, consumed by ``rebind``.
    source: "Predicate | None" = None

    #: True when :meth:`iter_rows_refs` yields freshly built dicts that
    #: no store structure aliases (joins); the boundary copy is skipped.
    fresh_rows = False

    def __init__(self, table: Table) -> None:
        self.table = table

    def estimate(self) -> float:
        """Estimated output cardinality, from live index statistics."""
        raise NotImplementedError

    def iter_pks(self) -> Iterator[Any]:
        """Stream matching primary keys (order is node-specific)."""
        pk_name = self.table.schema.primary_key
        for row in self.iter_rows_refs():
            yield row[pk_name]

    def iter_rows_refs(self) -> Iterator[dict[str, Any]]:
        """Stream matching row *references* (zero-copy internal
        surface; callers must not mutate the yielded dicts).

        Rows fetched from a live table are re-checked: a writer may
        have moved one out of the captured bucket or span since the
        index read.
        """
        rows = self.table.refs_for_pks(self.iter_pks())
        if isinstance(self.table, Table):
            return filter(self.still_matches, rows)
        return rows

    def still_matches(self, row: dict[str, Any]) -> bool:
        """Whether a fetched row still satisfies the predicate this
        node was compiled from (nodes without one match every row)."""
        return self.source is None or self.source.matches(row)

    def iter_rows(self) -> Iterator[dict[str, Any]]:
        """Stream matching rows, safe to mutate: the public boundary.

        Copies each row exactly once — or not at all when the node
        produces fresh dicts (:attr:`fresh_rows`).
        """
        refs = self.iter_rows_refs()
        if self.fresh_rows:
            return refs
        return (dict(row) for row in refs)

    def describe(self) -> str:
        """One-line summary of this node (no children)."""
        raise NotImplementedError

    def children(self) -> tuple["Plan", ...]:
        return ()

    def render(self) -> str:
        """The full plan as an indented tree, one node per line."""
        lines = [self.describe()]
        for child in self.children():
            lines.extend("  " + line for line in child.render().splitlines())
        return "\n".join(lines)

    def rebind(self, mapping: dict) -> "Plan":
        """This plan with its predicate values replaced via ``mapping``.

        Raises :class:`RebindError` when the node cannot be rebound
        (the caller then replans from scratch).
        """
        raise RebindError(f"{type(self).__name__} cannot be rebound")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.describe()}>"


class FullScan(Plan):
    """Every row in insertion order; the universal fallback."""

    def estimate(self) -> float:
        return float(len(self.table))

    def iter_pks(self) -> Iterator[Any]:
        return iter(self.table.primary_keys())

    def iter_rows_refs(self) -> Iterator[dict[str, Any]]:
        return self.table.scan_refs()

    def describe(self) -> str:
        return f"full-scan({self.table.name}, rows={len(self.table)})"

    def rebind(self, mapping: dict) -> "Plan":
        return self


class Empty(Plan):
    """A plan that provably matches nothing (e.g. a NULL range bound).

    SQL semantics make some predicates unsatisfiable regardless of the
    data — a range comparison against NULL, or ``BETWEEN lo AND hi``
    with ``lo > hi``.  The planner short-circuits those to this
    zero-cost node instead of crashing in the index or degrading to a
    full scan.  ``Empty`` is exact for its predicate, so it composes
    with ``Intersect``/``Union`` like any other access plan.
    """

    def __init__(self, table: Table, reason: str = "") -> None:
        super().__init__(table)
        self.reason = reason

    def estimate(self) -> float:
        return 0.0

    def iter_pks(self) -> Iterator[Any]:
        return iter(())

    def iter_rows_refs(self) -> Iterator[dict[str, Any]]:
        return iter(())

    def still_matches(self, row: dict[str, Any]) -> bool:
        return False

    def describe(self) -> str:
        suffix = f": {self.reason}" if self.reason else ""
        return f"empty({self.table.name}{suffix})"

    # Emptiness was derived from the *old* predicate's values; a new
    # binding of the same shape may match rows, so force a replan.


class PkLookup(Plan):
    """Point read through the primary key."""

    def __init__(self, table: Table, pk: Any) -> None:
        super().__init__(table)
        self.pk = pk

    def estimate(self) -> float:
        return 1.0 if self.table.contains(self.pk) else 0.0

    def iter_pks(self) -> Iterator[Any]:
        if self.table.contains(self.pk):
            yield self.pk

    def describe(self) -> str:
        pk_name = self.table.schema.primary_key
        return f"pk-lookup({self.table.name}.{pk_name}={self.pk!r})"

    def rebind(self, mapping: dict) -> "Plan":
        leaf = _mapped_leaf(self.source, mapping)
        plan = PkLookup(self.table, leaf.value)
        plan.source = leaf
        return plan


class HashLookup(Plan):
    """Equality probe of a hash or sorted index; pks in stable order."""

    def __init__(
        self, table: Table, column: str, value: Any,
        index: HashIndex | SortedIndex,
    ) -> None:
        super().__init__(table)
        self.column = column
        self.value = value
        self.index = index

    def estimate(self) -> float:
        return float(self.index.estimate_eq(self.value))

    def iter_pks(self) -> Iterator[Any]:
        # lazy bucket/span iteration: a limited query touches only the
        # entries it consumes instead of copying + sorting the bucket
        return self.index.iter_eq(self.value)

    def describe(self) -> str:
        return (
            f"{self.index.kind}-index({self.table.name}.{self.column}"
            f"={self.value!r}, est~{int(self.estimate())})"
        )

    def rebind(self, mapping: dict) -> "Plan":
        leaf = _mapped_leaf(self.source, mapping)
        plan = HashLookup(self.table, self.column, leaf.value, self.index)
        plan.source = leaf
        return plan


class IndexIn(Plan):
    """IN() over an index: one probe per candidate value."""

    def __init__(
        self, table: Table, column: str, values: Sequence[Any],
        index: HashIndex | SortedIndex,
    ) -> None:
        super().__init__(table)
        self.column = column
        self.values = tuple(values)
        self.index = index

    def estimate(self) -> float:
        if self.index.kind == "hash":
            return float(self.index.estimate_in(self.values))
        return float(
            sum(
                self.index.estimate_eq(value)
                for value in dict.fromkeys(self.values)
            )
        )

    def iter_pks(self) -> Iterator[Any]:
        if self.index.kind == "hash":
            return self.index.iter_in(self.values)
        # one value per pk, so spans of distinct values are disjoint:
        # chaining per-value spans needs no dedup set
        return (
            pk
            for value in dict.fromkeys(self.values)
            for pk in self.index.iter_eq(value)
        )

    def describe(self) -> str:
        return (
            f"{self.index.kind}-index-in({self.table.name}.{self.column}, "
            f"{len(self.values)} values, est~{int(self.estimate())})"
        )

    def rebind(self, mapping: dict) -> "Plan":
        leaf = _mapped_leaf(self.source, mapping)
        plan = IndexIn(self.table, self.column, leaf.values, self.index)
        plan.source = leaf
        return plan


class SortedRange(Plan):
    """Bisected range over a sorted index; pks in value order."""

    def __init__(
        self, table: Table, column: str, index: SortedIndex,
        low: Any = None, high: Any = None,
        *, include_low: bool = True, include_high: bool = True,
    ) -> None:
        super().__init__(table)
        self.column = column
        self.index = index
        self.low = low
        self.high = high
        self.include_low = include_low
        self.include_high = include_high

    def estimate(self) -> float:
        return float(
            self.index.estimate_range(
                self.low, self.high,
                include_low=self.include_low, include_high=self.include_high,
            )
        )

    def iter_pks(self) -> Iterator[Any]:
        return self.index.iter_range(
            self.low, self.high,
            include_low=self.include_low, include_high=self.include_high,
        )

    def describe(self) -> str:
        bounds = []
        if self.low is not None:
            bounds.append(f"{self.low!r} {'<=' if self.include_low else '<'} v")
        if self.high is not None:
            bounds.append(f"v {'<=' if self.include_high else '<'} {self.high!r}")
        shown = " and ".join(bounds) or "unbounded"
        return (
            f"sorted-index-range({self.table.name}.{self.column}, {shown}, "
            f"est~{int(self.estimate())})"
        )

    def rebind(self, mapping: dict) -> "Plan":
        leaf = _mapped_leaf(self.source, mapping)
        if hasattr(leaf, "low"):  # Between-shaped leaf
            low, high = leaf.low, leaf.high
            if low is None or high is None:
                raise RebindError("NULL range bound")
        else:
            value = leaf.value
            if value is None:
                raise RebindError("NULL comparison value")
            low = value if self.low is not None else None
            high = value if self.high is not None else None
        plan = SortedRange(
            self.table, self.column, self.index, low, high,
            include_low=self.include_low, include_high=self.include_high,
        )
        plan.source = leaf
        return plan


class OrderedScan(Plan):
    """Full traversal in sorted-index order: ordered output, no sort."""

    def __init__(
        self, table: Table, column: str, index: SortedIndex,
        descending: bool = False,
    ) -> None:
        super().__init__(table)
        self.column = column
        self.index = index
        self.descending = descending

    def estimate(self) -> float:
        return float(len(self.table))

    def iter_pks(self) -> Iterator[Any]:
        return self.index.iter_pks(descending=self.descending)

    def describe(self) -> str:
        direction = "desc" if self.descending else "asc"
        return f"sorted-index-order({self.table.name}.{self.column} {direction})"

    def rebind(self, mapping: dict) -> "Plan":
        return self


class TopK(Plan):
    """Stream the first ``count`` (filtered) rows of an ordered scan.

    Replaces materialize-and-sort for ``order_by(col).limit(k)`` on a
    sorted-indexed column: the index is walked in order and execution
    stops as soon as ``count`` rows survive the optional residual
    predicate.
    """

    def __init__(
        self, table: Table, column: str, index: SortedIndex,
        descending: bool, count: int, predicate: "Predicate | None" = None,
    ) -> None:
        super().__init__(table)
        self.column = column
        self.descending = descending
        self.count = count
        self.predicate = predicate
        self.child = OrderedScan(table, column, index, descending)

    def estimate(self) -> float:
        return float(min(self.count, len(self.table)))

    def iter_pks(self) -> Iterator[Any]:
        if self.predicate is None:
            return islice(self.child.iter_pks(), self.count)
        return super().iter_pks()

    def iter_rows_refs(self) -> Iterator[dict[str, Any]]:
        remaining = self.count
        if remaining <= 0:
            return
        for row in self.child.iter_rows_refs():
            if self.predicate is not None and not self.predicate.matches(row):
                continue
            yield row
            remaining -= 1
            if remaining == 0:
                return

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def describe(self) -> str:
        direction = "desc" if self.descending else "asc"
        suffix = "" if self.predicate is None else f", filter={self.predicate!r}"
        return (
            f"top-k({self.table.name}.{self.column} {direction}, "
            f"k={self.count}{suffix})"
        )

    def rebind(self, mapping: dict) -> "Plan":
        predicate = None
        if self.predicate is not None:
            predicate = _rebind_predicate(self.predicate, mapping)
        return TopK(
            self.table, self.column, self.child.index, self.descending,
            self.count, predicate,
        )


class Limit(Plan):
    """The first ``count`` rows of an ordered child, in its order: the
    window of a join root that carries ``order_by`` + ``limit`` when no
    :class:`TopK` walk serves it (the child is then a ``Sort``)."""

    def __init__(self, table: Table, child: Plan, count: int) -> None:
        super().__init__(table)
        self.child = child
        self.count = count
        self.fresh_rows = child.fresh_rows

    def estimate(self) -> float:
        return min(float(self.count), self.child.estimate())

    def iter_rows_refs(self) -> Iterator[dict[str, Any]]:
        # pks come through the rows (Plan.iter_pks): a Sort child's own
        # pk stream is unordered, so it cannot be cut
        return islice(self.child.iter_rows_refs(), self.count)

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def describe(self) -> str:
        return f"limit({self.count})"

    def rebind(self, mapping: dict) -> "Plan":
        return Limit(self.table, self.child.rebind(mapping), self.count)


class Intersect(Plan):
    """Primary-key intersection of exact sub-plans (AND of indexes)."""

    def __init__(self, table: Table, plans: Sequence[Plan]) -> None:
        super().__init__(table)
        self.plans = tuple(plans)

    def estimate(self) -> float:
        return min(plan.estimate() for plan in self.plans)

    def iter_pks(self) -> Iterator[Any]:
        common = set(self.plans[0].iter_pks())
        for plan in self.plans[1:]:
            if not common:
                break
            common &= set(plan.iter_pks())
        return iter(sorted(common, key=order_key))

    def still_matches(self, row: dict[str, Any]) -> bool:
        return all(plan.still_matches(row) for plan in self.plans)

    def children(self) -> tuple[Plan, ...]:
        return self.plans

    def describe(self) -> str:
        return f"intersect(est~{int(self.estimate())})"

    def rebind(self, mapping: dict) -> "Plan":
        return Intersect(self.table, [plan.rebind(mapping) for plan in self.plans])


class Union(Plan):
    """Deduplicated primary-key union of exact sub-plans (indexed OR)."""

    def __init__(self, table: Table, plans: Sequence[Plan]) -> None:
        super().__init__(table)
        self.plans = tuple(plans)

    def estimate(self) -> float:
        total = sum(plan.estimate() for plan in self.plans)
        return float(min(total, len(self.table)))

    def iter_pks(self) -> Iterator[Any]:
        # lazily stream each branch, deduplicating as we go: first-seen
        # order is deterministic and nothing is materialized up front
        seen: set[Any] = set()
        for plan in self.plans:
            for pk in plan.iter_pks():
                if pk not in seen:
                    seen.add(pk)
                    yield pk

    def still_matches(self, row: dict[str, Any]) -> bool:
        return any(plan.still_matches(row) for plan in self.plans)

    def children(self) -> tuple[Plan, ...]:
        return self.plans

    def describe(self) -> str:
        return f"union(est~{int(self.estimate())})"

    def rebind(self, mapping: dict) -> "Plan":
        return Union(self.table, [plan.rebind(mapping) for plan in self.plans])


class Filter(Plan):
    """Residual predicate evaluation over a child plan's rows."""

    def __init__(self, table: Table, child: Plan, predicate: "Predicate") -> None:
        super().__init__(table)
        self.child = child
        self.predicate = predicate
        self.fresh_rows = child.fresh_rows

    def estimate(self) -> float:
        # value-aware when statistics exist (index stats, sampled
        # histograms), the classic 1/3 guess otherwise; plan-cache
        # revalidation leans on this being sensitive to bound values
        selectivity = getattr(self.predicate, "selectivity", None)
        if selectivity is None:
            return self.child.estimate() * _FILTER_SELECTIVITY
        return self.child.estimate() * selectivity(self.table)

    def iter_rows_refs(self) -> Iterator[dict[str, Any]]:
        return (
            row
            for row in self.child.iter_rows_refs()
            if self.predicate.matches(row)
        )

    def still_matches(self, row: dict[str, Any]) -> bool:
        return self.child.still_matches(row) and self.predicate.matches(row)

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def describe(self) -> str:
        return f"filter({self.predicate!r})"

    def rebind(self, mapping: dict) -> "Plan":
        return Filter(
            self.table,
            self.child.rebind(mapping),
            _rebind_predicate(self.predicate, mapping),
        )


class Sort(Plan):
    """In-memory sort of the child's rows (NULLs first).

    Ties on equal sort values break in ascending primary-key order in
    both directions, matching what ``OrderedScan``/``TopK`` stream out
    of a sorted index, so the row order of a query does not change when
    the cost model switches between the two paths.
    """

    def __init__(
        self, table: Table, child: Plan, column: str, descending: bool = False
    ) -> None:
        super().__init__(table)
        self.child = child
        self.column = column
        self.descending = descending
        self.fresh_rows = child.fresh_rows

    def estimate(self) -> float:
        return self.child.estimate()

    def iter_pks(self) -> Iterator[Any]:
        # Ordering is irrelevant to pk consumers (count/set operations),
        # so skip the sort entirely.
        return self.child.iter_pks()

    def iter_rows_refs(self) -> Iterator[dict[str, Any]]:
        pk_name = self.table.schema.primary_key
        rows = sorted(
            self.child.iter_rows_refs(), key=lambda row: order_key(row[pk_name])
        )
        # second, stable pass: ties keep the pk-ascending order above
        rows.sort(
            key=lambda row: order_key(row[self.column]),
            reverse=self.descending,
        )
        return iter(rows)

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def describe(self) -> str:
        direction = "desc" if self.descending else "asc"
        return f"sort({self.table.name}.{self.column} {direction})"

    def rebind(self, mapping: dict) -> "Plan":
        return Sort(
            self.table, self.child.rebind(mapping), self.column, self.descending
        )


# ----------------------------------------------------------------------
# joins
# ----------------------------------------------------------------------


def _emit_joined(
    left_row: dict[str, Any],
    matches: Sequence[dict[str, Any]],
    *,
    prefix_left: str,
    prefix_right: str,
    how: str,
    padded_columns: Sequence[str],
) -> Iterator[dict[str, Any]]:
    """Combined output rows for one probe: one row per match, or one
    ``None``-padded row for unmatched left rows under ``how="left"``."""
    renamed_left = {
        f"{prefix_left}{name}": value for name, value in left_row.items()
    }
    if matches:
        for right in matches:
            combined = dict(renamed_left)
            combined.update(
                {f"{prefix_right}{name}": value for name, value in right.items()}
            )
            yield combined
    elif how == "left":
        combined = dict(renamed_left)
        combined.update({f"{prefix_right}{name}": None for name in padded_columns})
        yield combined


def _hash_matcher(
    rows: Iterable[dict[str, Any]], key: str, side: str
) -> "Callable[[Any], list[dict[str, Any]]]":
    """Build a hash table over ``rows`` on ``key``; returns the lookup
    giving the build rows equal to a probe value, in build order.

    SQL NULL semantics: ``None`` keys never match — ``None``-keyed
    build rows are dropped and a ``None`` probe finds nothing.
    Unhashable keys (e.g. list-valued payloads) do not crash the bucket
    build; they fall back to nested-loop equality matching.
    """
    buckets: dict[Any, list[dict[str, Any]]] = {}
    loose: list[tuple[Any, dict[str, Any]]] = []
    for row in rows:
        if key not in row:
            raise UnknownColumnError(
                f"hash join: {side} rows lack column {key!r}"
            )
        value = row[key]
        if value is None:
            continue  # NULL keys never equi-match
        try:
            buckets.setdefault(value, []).append(row)
        except TypeError:
            loose.append((value, row))

    def matches(value: Any) -> list[dict[str, Any]]:
        if value is None:
            return []
        try:
            found = buckets.get(value, [])
        except TypeError:
            # unhashable probe key: nested-loop over every build row
            found = [
                row
                for bucket_key, bucket in buckets.items()
                for row in bucket
                if bucket_key == value
            ]
            return found + [row for loose_key, row in loose if loose_key == value]
        if loose:
            found = found + [row for loose_key, row in loose if loose_key == value]
        return found

    return matches


def stream_hash_join(
    left_rows: Iterable[dict[str, Any]],
    right_rows: Iterable[dict[str, Any]],
    *,
    left_key: str,
    right_key: str,
    prefix_left: str = "",
    prefix_right: str = "",
    how: str = "inner",
    right_columns: Iterable[str] | None = None,
) -> Iterator[dict[str, Any]]:
    """Equi-join core: build a hash table over the right side, stream the
    left side through it.

    ``how`` is ``"inner"`` or ``"left"`` (left-outer: unmatched left
    rows get ``None`` for every right column, and so do ``None``-keyed
    left rows).  The padded columns come from ``right_columns`` when
    given (e.g. a table's schema columns); otherwise they are derived
    from the right rows actually seen, so pass the hint when the right
    side may be empty or ragged.  NULL and unhashable keys behave as in
    :func:`_hash_matcher`.
    """
    if how not in ("inner", "left"):
        raise QueryError(f"hash join: how must be 'inner' or 'left', got {how!r}")
    right_list = list(right_rows)
    matches = _hash_matcher(right_list, right_key, "right")
    if right_columns is not None:
        padded_columns = list(right_columns)
    else:
        padded_columns = sorted({name for row in right_list for name in row})
    for left in left_rows:
        if left_key not in left:
            raise UnknownColumnError(
                f"hash join: left rows lack column {left_key!r}"
            )
        yield from _emit_joined(
            left, matches(left[left_key]),
            prefix_left=prefix_left, prefix_right=prefix_right,
            how=how, padded_columns=padded_columns,
        )


class _JoinPlan(Plan):
    """Shared surface of the binary join nodes (combined-row output).

    Joins build fresh combined dicts from the input references, so the
    boundary copy is skipped (``fresh_rows``)."""

    fresh_rows = True

    def __init__(
        self, left: Plan, *, left_key: str, right_key: str,
        prefix_left: str, prefix_right: str, how: str,
        right_columns: Sequence[str],
    ) -> None:
        super().__init__(left.table)
        self.left = left
        self.left_key = left_key
        self.right_key = right_key
        self.prefix_left = prefix_left
        self.prefix_right = prefix_right
        self.how = how
        self.right_columns = tuple(right_columns)

    def iter_pks(self) -> Iterator[Any]:
        raise QueryError(
            f"{type(self).__name__} produces combined rows, not primary keys"
        )


class HashJoin(_JoinPlan):
    """Build a hash table over one input, probe with the other.

    The planner puts the build side on the input with the smaller
    cardinality estimate; left-outer joins pin the build side to the
    right input so unmatched left rows can be padded while streaming.
    With ``build_side="left"`` (inner only) the output row *content* is
    identical — left columns, then right columns, the right value
    winning a colliding name — but rows come out in right-input order.
    """

    def __init__(
        self, left: Plan, right: Plan, *, left_key: str, right_key: str,
        prefix_left: str = "", prefix_right: str = "", how: str = "inner",
        build_side: str = "right", right_columns: Sequence[str] = (),
    ) -> None:
        super().__init__(
            left, left_key=left_key, right_key=right_key,
            prefix_left=prefix_left, prefix_right=prefix_right, how=how,
            right_columns=right_columns,
        )
        if build_side not in ("left", "right"):
            raise QueryError(f"build_side must be 'left' or 'right', got {build_side!r}")
        if build_side == "left" and how == "left":
            raise QueryError("left-outer joins must build on the right side")
        self.right = right
        self.build_side = build_side

    def estimate(self) -> float:
        return max(self.left.estimate(), self.right.estimate())

    def iter_rows_refs(self) -> Iterator[dict[str, Any]]:
        if self.build_side == "right":
            return stream_hash_join(
                self.left.iter_rows_refs(), self.right.iter_rows_refs(),
                left_key=self.left_key, right_key=self.right_key,
                prefix_left=self.prefix_left, prefix_right=self.prefix_right,
                how=self.how, right_columns=self.right_columns,
            )
        return self._probe_left_build()

    def _probe_left_build(self) -> Iterator[dict[str, Any]]:
        matches = _hash_matcher(self.left.iter_rows_refs(), self.left_key, "left")
        for right_row in self.right.iter_rows_refs():
            if self.right_key not in right_row:
                raise UnknownColumnError(
                    f"hash join: right rows lack column {self.right_key!r}"
                )
            for left_row in matches(right_row[self.right_key]):
                yield from _emit_joined(
                    left_row, (right_row,),
                    prefix_left=self.prefix_left, prefix_right=self.prefix_right,
                    how="inner", padded_columns=(),
                )

    def children(self) -> tuple[Plan, ...]:
        return (self.left, self.right)

    def describe(self) -> str:
        return (
            f"hash-join({self.left.table.name}.{self.left_key} = "
            f"{self.right.table.name}.{self.right_key}, how={self.how}, "
            f"build={self.build_side}, est~{int(self.estimate())})"
        )

    def rebind(self, mapping: dict) -> "Plan":
        return HashJoin(
            self.left.rebind(mapping), self.right.rebind(mapping),
            left_key=self.left_key, right_key=self.right_key,
            prefix_left=self.prefix_left, prefix_right=self.prefix_right,
            how=self.how, build_side=self.build_side,
            right_columns=self.right_columns,
        )


class IndexNestedLoopJoin(_JoinPlan):
    """Probe the right table's index (or primary key) once per left row.

    Beats a hash join when the left side is small and the right side is
    large: the right table is never materialized — each left row costs
    one point probe.  An optional residual predicate restricts the
    right side (when the right input was a filtered query).
    """

    def __init__(
        self, left: Plan, right_table: Table, *, left_key: str, right_key: str,
        prefix_left: str = "", prefix_right: str = "", how: str = "inner",
        right_predicate: "Predicate | None" = None,
        right_columns: Sequence[str] = (),
    ) -> None:
        super().__init__(
            left, left_key=left_key, right_key=right_key,
            prefix_left=prefix_left, prefix_right=prefix_right, how=how,
            right_columns=right_columns,
        )
        self.right_table = right_table
        self.right_predicate = right_predicate
        #: probes of a live table re-check the fetched rows' key
        self.live = isinstance(right_table, Table)
        self.via_pk = right_key == right_table.schema.primary_key
        self.index = None if self.via_pk else right_table.index_for(right_key)
        if not self.via_pk and self.index is None:
            raise QueryError(
                f"index-nl-join: {right_table.name}.{right_key} is not indexed"
            )

    def avg_matches(self) -> float:
        """Expected right rows per probe, from maintained statistics.

        ``n_distinct`` is an O(1) maintained counter on both index
        kinds; a filtered right side scales the expectation by the
        predicate's estimated selectivity (index stats + sampled
        histograms).
        """
        if self.via_pk:
            matches = 1.0
        else:
            distinct = self.index.n_distinct()
            if distinct <= 0:
                return 1.0
            matches = len(self.right_table) / distinct
        if self.right_predicate is not None:
            selectivity = getattr(self.right_predicate, "selectivity", None)
            if selectivity is not None:
                matches *= selectivity(self.right_table)
        return matches

    def estimate(self) -> float:
        estimate = self.left.estimate() * self.avg_matches()
        if self.how == "left":
            estimate = max(estimate, self.left.estimate())
        return estimate

    def _probe_scan(self, key: Any) -> list[dict[str, Any]]:
        return [
            row
            for row in self.right_table.scan_refs()
            if row[self.right_key] == key
        ]

    def _probe(self, key: Any) -> list[dict[str, Any]]:
        """Matching right-row *references* for one probe key (combined
        rows are built fresh, so references are safe end to end)."""
        if key is None:
            return []  # NULL keys never equi-match
        if self.via_pk:
            try:
                row = self.right_table.ref_or_none(key)
            except TypeError:  # unhashable probe key
                return self._probe_scan(key)
            return [row] if row is not None else []
        try:
            pks = self.index.lookup(key)
        except TypeError:  # unhashable / type-mismatched probe key
            return self._probe_scan(key)
        if len(pks) > 1:  # deterministic match order only when it matters
            pks = sorted(pks, key=order_key)
        rows = self.right_table.refs_for_pks(pks)
        if self.live:
            # a writer may have moved a row off this key since the lookup
            return [row for row in rows if row[self.right_key] == key]
        return list(rows)

    def iter_rows_refs(self) -> Iterator[dict[str, Any]]:
        for left_row in self.left.iter_rows_refs():
            if self.left_key not in left_row:
                raise UnknownColumnError(
                    f"join: left rows lack column {self.left_key!r}"
                )
            matches = self._probe(left_row[self.left_key])
            if self.right_predicate is not None:
                matches = [
                    row for row in matches if self.right_predicate.matches(row)
                ]
            yield from _emit_joined(
                left_row, matches,
                prefix_left=self.prefix_left, prefix_right=self.prefix_right,
                how=self.how, padded_columns=self.right_columns,
            )

    def children(self) -> tuple[Plan, ...]:
        return (self.left,)

    def describe(self) -> str:
        access = "pk" if self.via_pk else f"{self.index.kind}-index"
        suffix = (
            "" if self.right_predicate is None
            else f", right-filter={self.right_predicate!r}"
        )
        return (
            f"index-nl-join({self.left.table.name}.{self.left_key} = "
            f"{self.right_table.name}.{self.right_key} via {access}, "
            f"how={self.how}, est~{int(self.estimate())}{suffix})"
        )

    def rebind(self, mapping: dict) -> "Plan":
        predicate = (
            None
            if self.right_predicate is None
            else _rebind_predicate(self.right_predicate, mapping)
        )
        return IndexNestedLoopJoin(
            self.left.rebind(mapping), self.right_table,
            left_key=self.left_key, right_key=self.right_key,
            prefix_left=self.prefix_left, prefix_right=self.prefix_right,
            how=self.how, right_predicate=predicate,
            right_columns=self.right_columns,
        )
