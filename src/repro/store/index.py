"""Secondary indexes: hash (equality) and sorted (range) indexes, with
copy-on-write snapshots and maintained O(1) statistics.

Indexes map column values to primary keys and are maintained by
:class:`repro.store.table.Table` on every insert/update/delete.
``None`` values are indexed too (equality lookups for ``None`` are
legal); sorted indexes keep ``None`` out of the ordered array and track
it in a side set, because ``None`` does not compare with other values.

Zero-copy reads
===============

Lookups come in two flavours.  The classic ``lookup``/``range`` methods
return materialized copies (a fresh ``set`` / ``list``) and remain the
safe public surface — callers can do set algebra on the result without
touching index internals.  The ``iter_*`` methods (``iter_eq``,
``iter_in``, ``iter_range``, ``iter_pks``) are *lazy*: they stream
primary keys straight out of the index structures without materializing
the bucket or span, which is what the physical plan nodes use — a
``limit 5`` point query touches 5 entries of a 10,000-entry bucket
instead of copying and sorting all of it.

Hash buckets are insertion-ordered ``dict[pk, None]`` mappings, so lazy
iteration is deterministic (first-inserted first) without a sort.

Live indexes vs snapshots: on a **live** index the ``iter_*`` methods
capture the touched bucket/span with one atomic C-level copy (a
pointer-level ``list()``/slice — no per-entry work, no sort) so
lock-free readers can never observe a concurrent writer reshuffling the
structure mid-iteration; on a **snapshot** the structures are frozen,
so iteration is fully lazy and touches only the entries consumed.

Copy-on-write snapshots
=======================

``snapshot()`` pins the index's current state in O(1) and returns an
immutable ``*IndexSnapshot`` exposing the full read/statistics surface.
Writers detach lazily:

* a **hash index** shallow-copies the bucket directory on the first
  mutation after a snapshot and then clones **only the touched bucket**
  the first time each bucket is written in the new generation
  (``_owned`` tracks privatized buckets);
* a **sorted index** is chunked (see below): the first mutation after a
  snapshot clones only the chunk directory and fencepost spine (two
  pointer-level copies of ~n/chunk entries), and each bounded chunk is
  privatized the first time it is written in the new generation —
  the same ``_owned`` protocol as hash buckets, so a generation that
  touches k chunks copies O(k · chunk), never O(n).

Chunked sorted structure
========================

``SortedIndex`` keeps its ``(value, pk)`` entries in a two-level
structure: a list of bounded sorted **chunks** (each at most
``SORTED_CHUNK_MAX`` entries) plus a **spine** of fencepost entries —
the max entry of each chunk — bisected first to pick the chunk.
Insert/delete is two bisections plus an O(chunk) list shift instead of
an O(n) shift of one flat array; a chunk that outgrows the bound
splits in half, an emptied chunk is unlinked.  Range reads locate
``(chunk, offset)`` bounds through the spine and stream chunk by
chunk; cardinality estimates subtract ordinals (a lazily-rebuilt
prefix-sum of chunk sizes, cached until the next structural change).

Snapshots therefore cost nothing unless a writer actually mutates the
index, and writers pay per-generation, not per-snapshot.  A useful side
effect: once a snapshot exists, in-flight lazy iterators keep reading
the detached (frozen) structures and never observe the writer.

Maintained statistics
=====================

Both index kinds keep O(1) statistics for the planner: ``__len__`` and
``n_distinct`` are maintained counters (the sorted index previously
walked all n entries to count distinct values — the first planner cost
to hurt on big indexes), and ``estimate_eq``/``estimate_range`` stay
exact (bucket length / two bisections).
"""

from __future__ import annotations

import bisect
from typing import Any, Hashable, Iterable, Iterator

__all__ = [
    "HashIndex", "SortedIndex", "HashIndexSnapshot", "SortedIndexSnapshot",
    "SORTED_CHUNK_TARGET", "SORTED_CHUNK_MAX",
]

#: Shared empty bucket for misses: no per-miss allocation.
_EMPTY: tuple = ()

#: Bulk loads slice entries into chunks of this size, leaving headroom
#: to absorb inserts before the first split.
SORTED_CHUNK_TARGET = 512
#: A chunk that grows past this splits in half; bounds the list-shift
#: cost of one insert/delete and the COW copy cost of one touched chunk.
SORTED_CHUNK_MAX = 2 * SORTED_CHUNK_TARGET


# ----------------------------------------------------------------------
# hash indexes
# ----------------------------------------------------------------------


class _HashReadSurface:
    """Read + statistics surface shared by :class:`HashIndex` and its
    snapshots.  ``_buckets`` maps value -> insertion-ordered
    ``dict[pk, None]``; buckets are disjoint (one value per pk)."""

    kind = "hash"
    column: str
    _buckets: dict[Hashable, dict[Any, None]]

    def lookup(self, value: Hashable) -> set[Any]:
        """Materialized copy of one bucket (safe for set algebra)."""
        return set(self._buckets.get(value, _EMPTY))

    def iter_eq(self, value: Hashable) -> Iterator[Any]:
        """Stream one bucket's pks in insertion order (lazy; overridden
        with an atomic capture on the live index)."""
        return iter(self._buckets.get(value, _EMPTY))

    def lookup_many(self, values: Iterable[Hashable]) -> set[Any]:
        out: set[Any] = set()
        for value in values:
            bucket = self._buckets.get(value)
            if bucket:
                out.update(bucket)
        return out

    def iter_in(self, values: Iterable[Hashable]) -> Iterator[Any]:
        """Stream the pks of several buckets.

        Buckets are disjoint by construction, so only the *values* need
        deduplication (``IN (x, x)`` must not yield a pk twice).
        """
        for value in dict.fromkeys(values):
            bucket = self._buckets.get(value)
            if bucket:
                yield from bucket

    def contains_entry(self, value: Hashable, pk: Any) -> bool:
        """True when ``pk`` is indexed under ``value`` (no copying)."""
        return pk in self._buckets.get(value, _EMPTY)

    def distinct_values(self) -> list[Hashable]:
        return list(self._buckets)

    # statistics (consumed by the query planner) ------------------------

    def estimate_eq(self, value: Hashable) -> int:
        """Exact cardinality of an equality lookup, without copying."""
        return len(self._buckets.get(value, _EMPTY))

    def estimate_in(self, values: Iterable[Hashable]) -> int:
        """Exact cardinality of an IN() lookup (buckets are disjoint;
        duplicate candidate values are counted once)."""
        return sum(
            len(self._buckets.get(value, _EMPTY)) for value in dict.fromkeys(values)
        )

    def n_distinct(self) -> int:
        return len(self._buckets)


class HashIndex(_HashReadSurface):
    """Equality index: value -> insertion-ordered pks, with bucket-level
    copy-on-write against live snapshots."""

    def __init__(self, column: str) -> None:
        self.column = column
        self._buckets: dict[Hashable, dict[Any, None]] = {}
        self._size = 0
        #: a snapshot pins the current bucket directory
        self._shared = False
        #: at least one snapshot was ever taken: bucket writes must
        #: check ownership before mutating in place
        self._cow = False
        #: buckets privatized since the last snapshot
        self._owned: set[Hashable] = set()

    # ------------------------------------------------------------------

    def snapshot(self) -> "HashIndexSnapshot":
        """Pin the current state in O(1) (see module docstring)."""
        self._cow = True
        self._shared = True
        # every bucket is pinned by the new snapshot, owned or not
        self._owned = set()
        return HashIndexSnapshot(self.column, self._buckets, self._size)

    def _detach(self) -> None:
        """First mutation after a snapshot: shallow-copy the bucket
        directory (buckets stay shared until individually touched)."""
        if self._shared:
            self._buckets = dict(self._buckets)
            self._shared = False

    def _owned_bucket(self, value: Hashable) -> dict[Any, None]:
        """The bucket for ``value``, privatized for this generation."""
        bucket = self._buckets[value]
        if self._cow and value not in self._owned:
            bucket = dict(bucket)
            self._buckets[value] = bucket
            self._owned.add(value)
        return bucket

    # ------------------------------------------------------------------

    # live-read safety: capture the touched bucket with one atomic
    # C-level pointer copy, so a lock-free reader iterating the result
    # can never see a concurrent writer's in-place bucket mutation
    # (snapshots skip the capture — their structures are frozen)

    def iter_eq(self, value: Hashable) -> Iterator[Any]:
        bucket = self._buckets.get(value)
        return iter(list(bucket) if bucket else _EMPTY)

    def iter_in(self, values: Iterable[Hashable]) -> Iterator[Any]:
        for value in dict.fromkeys(values):
            bucket = self._buckets.get(value)
            if bucket:
                yield from list(bucket)

    def add(self, value: Hashable, pk: Any) -> None:
        self._detach()
        if value not in self._buckets:
            self._buckets[value] = {pk: None}
            if self._cow:
                self._owned.add(value)
            self._size += 1
            return
        bucket = self._owned_bucket(value)
        if pk not in bucket:
            bucket[pk] = None
            self._size += 1

    def remove(self, value: Hashable, pk: Any) -> None:
        bucket = self._buckets.get(value)
        if bucket is None or pk not in bucket:
            return
        self._detach()
        bucket = self._owned_bucket(value)
        del bucket[pk]
        self._size -= 1
        if not bucket:
            del self._buckets[value]
            self._owned.discard(value)

    def clear(self) -> None:
        # a fresh directory: any snapshot keeps the old one untouched
        self._buckets = {}
        self._size = 0
        self._shared = False
        self._owned = set()

    def __len__(self) -> int:
        return self._size


class HashIndexSnapshot(_HashReadSurface):
    """An immutable pin of a hash index (no mutation methods)."""

    __slots__ = ("column", "_buckets", "_size")

    def __init__(
        self, column: str, buckets: dict[Hashable, dict[Any, None]], size: int
    ) -> None:
        self.column = column
        self._buckets = buckets
        self._size = size

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HashIndexSnapshot({self.column!r}, entries={self._size})"


# ----------------------------------------------------------------------
# sorted indexes
# ----------------------------------------------------------------------


#: (chunk index, offset within chunk) — a position in the two-level
#: structure.  ``offset`` may equal the chunk length (one past the
#: chunk's end) and ``chunk index`` may equal the chunk count (one past
#: the last chunk); iteration and ordinal arithmetic normalize both.
_Point = tuple[int, int]


class _SortedReadSurface:
    """Read + statistics surface shared by :class:`SortedIndex` and its
    snapshots.  ``_chunks`` is a list of bounded sorted runs of
    ``(value, _PkKey)`` entries; ``_spine`` holds each chunk's max
    entry (the fenceposts bisected to pick a chunk); ``_nulls`` holds
    the pks of NULL-valued rows; ``_size``/``_distinct`` are maintained
    entry and distinct-value counters."""

    kind = "sorted"
    column: str
    _chunks: list[list[tuple[Any, "_PkKey"]]]
    _spine: list[tuple[Any, "_PkKey"]]
    _nulls: set[Any]
    _size: int
    _distinct: int
    _prefix: list[int] | None

    # -- position arithmetic -------------------------------------------

    def _locate(self, entry: tuple[Any, "_PkKey"]) -> _Point:
        """Leftmost insertion point of ``entry``: spine bisect picks the
        chunk, chunk bisect the offset.  Probes built with the
        ``_PK_MIN``/``_PK_MAX`` sentinels never equal a real entry, so
        one left bisection serves both old ``bisect_left``/``_right``
        uses."""
        chunks = self._chunks
        chunk_index = bisect.bisect_left(self._spine, entry)
        if chunk_index >= len(chunks):
            return len(chunks), 0
        return chunk_index, bisect.bisect_left(chunks[chunk_index], entry)

    def _span_points(
        self, low: Any, high: Any, include_low: bool, include_high: bool
    ) -> tuple[_Point, _Point]:
        """(start, end) positions of the requested value range."""
        if low is None:
            start: _Point = (0, 0)
        elif include_low:
            start = self._locate((low, _PK_MIN))
        else:
            start = self._locate((low, _PK_MAX))
        if high is None:
            end: _Point = (len(self._chunks), 0)
        elif include_high:
            end = self._locate((high, _PK_MAX))
        else:
            end = self._locate((high, _PK_MIN))
        return start, end

    def _ordinal(self, point: _Point) -> int:
        """Entries strictly before ``point`` (prefix-sum cached until
        the next structural mutation)."""
        chunk_index, offset = point
        prefix = self._prefix
        if prefix is None:
            prefix = [0]
            for chunk in self._chunks:
                prefix.append(prefix[-1] + len(chunk))
            self._prefix = prefix
        return prefix[chunk_index] + offset

    def _count_span(self, start: _Point, end: _Point) -> int:
        if start[0] == end[0]:  # common case: no prefix-sum needed
            return max(0, end[1] - start[1])
        return max(0, self._ordinal(end) - self._ordinal(start))

    def _chunk_view(
        self, chunk: list[tuple[Any, "_PkKey"]], lo: int, hi: int
    ) -> Iterator[tuple[Any, "_PkKey"]]:
        """Iterate one chunk's ``[lo, hi)`` entries.  Snapshots are
        frozen, so this is fully lazy; the live index overrides it with
        one atomic C-level slice per touched chunk."""
        for position in range(lo, min(hi, len(chunk))):
            yield chunk[position]

    def _iter_span(
        self, start: _Point, end: _Point
    ) -> Iterator[tuple[Any, "_PkKey"]]:
        """Stream entries of ``[start, end)`` chunk by chunk — never
        materializing more than one chunk view at a time."""
        chunks = self._chunks
        (start_chunk, start_off), (end_chunk, end_off) = start, end
        last = end_chunk if end_off > 0 else end_chunk - 1
        last = min(last, len(chunks) - 1)
        for chunk_index in range(start_chunk, last + 1):
            chunk = chunks[chunk_index]
            lo = start_off if chunk_index == start_chunk else 0
            hi = end_off if chunk_index == end_chunk else len(chunk)
            if lo >= hi:
                continue
            yield from self._chunk_view(chunk, lo, hi)

    def _entry_before(self, point: _Point) -> tuple[Any, "_PkKey"] | None:
        """The entry just before ``point`` (None at the front)."""
        chunk_index, offset = point
        if offset > 0:
            return self._chunks[chunk_index][offset - 1]
        if chunk_index > 0:
            return self._chunks[chunk_index - 1][-1]
        return None

    def _entry_at(self, point: _Point) -> tuple[Any, "_PkKey"] | None:
        """The entry at ``point`` (None past the end)."""
        chunk_index, offset = point
        chunks = self._chunks
        while chunk_index < len(chunks) and offset >= len(chunks[chunk_index]):
            chunk_index += 1
            offset = 0
        if chunk_index >= len(chunks):
            return None
        return chunks[chunk_index][offset]

    # -- reads ----------------------------------------------------------

    def lookup(self, value: Any) -> set[Any]:
        """Materialized copy of one value's pk set."""
        if value is None:
            return set(self._nulls)
        start, end = self._span_points(value, value, True, True)
        return {entry[1].pk for entry in self._iter_span(start, end)}

    def iter_eq(self, value: Any) -> Iterator[Any]:
        """Stream one value's pks in pk order, chunk by chunk."""
        if value is None:
            yield from sorted(self._nulls, key=_PkKey)
            return
        start, end = self._span_points(value, value, True, True)
        for entry in self._iter_span(start, end):
            yield entry[1].pk

    def range(
        self,
        low: Any = None,
        high: Any = None,
        *,
        include_low: bool = True,
        include_high: bool = True,
    ) -> list[Any]:
        """Primary keys with ``low <= value <= high`` in value order.

        ``None`` bounds mean unbounded on that side; rows whose value is
        ``None`` never match a range scan (SQL-like semantics).
        """
        start, end = self._span_points(low, high, include_low, include_high)
        return [entry[1].pk for entry in self._iter_span(start, end)]

    def iter_range(
        self,
        low: Any = None,
        high: Any = None,
        *,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterator[Any]:
        """Stream a range's pks in value order, chunk by chunk (a
        ``limit 5`` consumes one chunk view, not the whole span)."""
        start, end = self._span_points(low, high, include_low, include_high)
        for entry in self._iter_span(start, end):
            yield entry[1].pk

    def iter_items(self) -> Iterator[tuple[Any, Any]]:
        """Stream every ``(value, pk)`` entry in key order (NULL-valued
        rows live in the side set and never appear): the full read-back
        that equivalence checks compare against an oracle."""
        start, end = self._span_points(None, None, True, True)
        for value, pk_key in self._iter_span(start, end):
            yield value, pk_key.pk

    def contains_entry(self, value: Any, pk: Any) -> bool:
        """True when ``pk`` is indexed under ``value`` (no copying)."""
        if value is None:
            return pk in self._nulls
        entry = (value, _PkKey(pk))
        chunk_index, offset = self._locate(entry)
        chunks = self._chunks
        return (
            chunk_index < len(chunks)
            and offset < len(chunks[chunk_index])
            and chunks[chunk_index][offset] == entry
        )

    # statistics (consumed by the query planner) ------------------------

    def estimate_eq(self, value: Any) -> int:
        """Exact cardinality of an equality lookup, via spine+chunk
        bisections (no pk copying)."""
        if value is None:
            return len(self._nulls)
        start, end = self._span_points(value, value, True, True)
        return self._count_span(start, end)

    def estimate_range(
        self,
        low: Any = None,
        high: Any = None,
        *,
        include_low: bool = True,
        include_high: bool = True,
    ) -> int:
        """Exact cardinality of a range scan, without copying pks.

        Reversed bounds (``low > high``) and half-open ranges bisect to
        an empty or one-sided span, so the estimate is 0 exactly when
        :meth:`range` produces no pks — planner and executor agree.
        """
        start, end = self._span_points(low, high, include_low, include_high)
        return self._count_span(start, end)

    def n_distinct(self) -> int:
        """Distinct indexed values, O(1) (the NULL group counts as one).

        Maintained incrementally by ``add``/``remove`` — the previous
        implementation walked all n entries per call, which the join
        planner paid on every index-nested-loop costing.
        """
        return self._distinct + (1 if self._nulls else 0)

    def recount_distinct(self) -> int:
        """O(n) recount of :meth:`n_distinct` (tests, benchmarks): the
        walk the maintained counter replaced."""
        count = 0
        previous: Any = _PK_MIN  # equals nothing
        for chunk in self._chunks:
            for value, _pk_key in chunk:
                if value != previous:
                    count += 1
                    previous = value
        return count + (1 if self._nulls else 0)

    def verify_structure(self) -> None:
        """Assert the two-level invariants (tests, recovery self-checks):
        every chunk non-empty and within the size bound, each fencepost
        equal to its chunk's max entry, entries strictly increasing
        across chunk boundaries, and the maintained size counter exact.
        Raises ``ValueError`` on any violation."""
        chunks, spine = self._chunks, self._spine
        if len(chunks) != len(spine):
            raise ValueError(
                f"sorted index {self.column!r}: {len(spine)} fenceposts "
                f"for {len(chunks)} chunks"
            )
        total = 0
        for position, chunk in enumerate(chunks):
            if not chunk:
                raise ValueError(
                    f"sorted index {self.column!r}: empty chunk {position}"
                )
            if len(chunk) > SORTED_CHUNK_MAX:
                raise ValueError(
                    f"sorted index {self.column!r}: chunk {position} has "
                    f"{len(chunk)} entries (max {SORTED_CHUNK_MAX})"
                )
            if spine[position] != chunk[-1]:
                raise ValueError(
                    f"sorted index {self.column!r}: fencepost {position} "
                    "does not match its chunk's max entry"
                )
            if position > 0 and not chunks[position - 1][-1] < chunk[0]:
                raise ValueError(
                    f"sorted index {self.column!r}: entries not strictly "
                    f"increasing across chunk boundary {position}"
                )
            total += len(chunk)
        if total != self._size:
            raise ValueError(
                f"sorted index {self.column!r}: maintained size {self._size} "
                f"!= {total} stored entries"
            )

    def iter_pks(self, *, descending: bool = False) -> Iterator[Any]:
        """Stream primary keys in value order.

        NULL rows come first ascending and last descending (matching
        the query layer's NULLs-first total order), and ties on equal
        values always come out in primary-key order in both directions
        so streamed results agree with the stable full-sort path.
        """
        nulls = sorted(self._nulls, key=_PkKey)
        if not descending:
            yield from nulls
            for chunk in self._chunks:
                for _value, pk_key in chunk:
                    yield pk_key.pk
            return
        # descending: walk value groups back to front; each group (which
        # may span chunk boundaries) streams in ascending pk order
        end: _Point = (len(self._chunks), 0)
        while True:
            last_entry = self._entry_before(end)
            if last_entry is None:
                break
            start = self._locate((last_entry[0], _PK_MIN))
            for _value, pk_key in self._iter_span(start, end):
                yield pk_key.pk
            end = start
        yield from nulls

    def min_pks(self, count: int) -> list[Any]:
        """Primary keys of the ``count`` smallest values (value order)."""
        out: list[Any] = []
        if count <= 0:
            return out
        for chunk in self._chunks:
            for entry in chunk:
                out.append(entry[1].pk)
                if len(out) == count:
                    return out
        return out

    def max_pks(self, count: int) -> list[Any]:
        """Primary keys of the ``count`` largest values (descending)."""
        out: list[Any] = []
        if count <= 0:
            return out
        for chunk in reversed(self._chunks):
            for entry in reversed(chunk):
                out.append(entry[1].pk)
                if len(out) == count:
                    return out
        return out


class SortedIndex(_SortedReadSurface):
    """Order index: bounded sorted chunks under a fencepost spine, with
    chunk-level copy-on-write against snapshots (see module docstring).

    Duplicate values are allowed; within one value, pk order is the
    insertion-sorted (value, pk) order, which is deterministic.
    """

    def __init__(self, column: str) -> None:
        self.column = column
        self._chunks: list[list[tuple[Any, _PkKey]]] = []
        self._spine: list[tuple[Any, _PkKey]] = []
        self._nulls: set[Any] = set()
        self._size = 0
        self._distinct = 0
        self._prefix: list[int] | None = None
        #: a snapshot pins the current chunk directory + spine + NULL set
        self._shared = False
        #: at least one snapshot was ever taken: chunk writes must check
        #: ownership before mutating in place
        self._cow = False
        #: parallel to ``_chunks``: True once that chunk was privatized
        #: in this generation (the hash index's ``_owned`` protocol)
        self._owned: list[bool] = []

    @classmethod
    def build(cls, column: str, items: Iterable[tuple[Any, Any]]) -> "SortedIndex":
        """Bulk-load from ``(value, pk)`` pairs: one sort plus a linear
        chunking pass — O(n log n) total instead of n incremental
        inserts' O(n · chunk).  Used by ``create_index`` backfills and
        benchmark setup."""
        index = cls(column)
        entries: list[tuple[Any, _PkKey]] = []
        for value, pk in items:
            if value is None:
                index._nulls.add(pk)
            else:
                entries.append((value, _PkKey(pk)))
        entries.sort()
        index._chunks = [
            entries[position : position + SORTED_CHUNK_TARGET]
            for position in range(0, len(entries), SORTED_CHUNK_TARGET)
        ]
        index._spine = [chunk[-1] for chunk in index._chunks]
        index._owned = [True] * len(index._chunks)
        index._size = len(entries)
        previous: Any = _PK_MIN  # equals nothing
        for value, _pk_key in entries:
            if value != previous:
                index._distinct += 1
                previous = value
        return index

    # ------------------------------------------------------------------

    def snapshot(self) -> "SortedIndexSnapshot":
        """Pin the current state in O(1) (see module docstring)."""
        self._cow = True
        self._shared = True
        # every chunk is pinned by the new snapshot, owned or not
        self._owned = [False] * len(self._chunks)
        return SortedIndexSnapshot(
            self.column,
            self._chunks,
            self._spine,
            self._nulls,
            self._size,
            self._distinct,
        )

    def _detach(self) -> None:
        """First mutation after a snapshot: clone the chunk directory
        and spine (two pointer-level copies of ~n/chunk entries) plus
        the NULL set; chunks stay shared until individually touched."""
        if self._shared:
            self._chunks = list(self._chunks)
            self._spine = list(self._spine)
            self._nulls = set(self._nulls)
            self._shared = False

    def _own_chunk(self, chunk_index: int) -> list[tuple[Any, _PkKey]]:
        """The chunk at ``chunk_index``, privatized for this generation."""
        chunk = self._chunks[chunk_index]
        if self._cow and not self._owned[chunk_index]:
            chunk = list(chunk)
            self._chunks[chunk_index] = chunk
            self._owned[chunk_index] = True
        return chunk

    def _split_chunk(self, chunk_index: int) -> None:
        """Split an over-full (already owned) chunk in half."""
        chunk = self._chunks[chunk_index]
        middle = len(chunk) // 2
        left, right = chunk[:middle], chunk[middle:]
        self._chunks[chunk_index : chunk_index + 1] = [left, right]
        self._spine[chunk_index : chunk_index + 1] = [left[-1], right[-1]]
        self._owned[chunk_index : chunk_index + 1] = [True, True]

    # ------------------------------------------------------------------

    # live-read safety: each touched chunk is captured with one atomic
    # C-level slice, so lock-free readers can never observe a concurrent
    # writer shifting entries mid-chunk (the pre-existing caveat for
    # *whole-index* ordered streams — ``iter_pks`` — still stands; use a
    # read view for those under writer load)

    def _chunk_view(
        self, chunk: list[tuple[Any, _PkKey]], lo: int, hi: int
    ) -> Iterator[tuple[Any, _PkKey]]:
        return iter(chunk[lo:hi])

    def add(self, value: Any, pk: Any) -> None:
        self._detach()
        if value is None:
            self._nulls.add(pk)
            return
        entry = (value, _PkKey(pk))
        if not self._chunks:
            self._chunks = [[entry]]
            self._spine = [entry]
            self._owned = [True]
            self._size = 1
            self._distinct += 1
            self._prefix = None
            return
        last = self._spine[-1]
        if last < entry:
            # append fast path: an entry past the last fencepost (rising
            # timestamps, ties broken by rising pks) is placed with this
            # one comparison instead of two bisections
            chunk_index = len(self._chunks) - 1
            chunk = self._own_chunk(chunk_index)
            present = last[0] == value
            offset = len(chunk)
        else:
            chunk_index = bisect.bisect_left(self._spine, entry)
            chunk = self._own_chunk(chunk_index)
            offset = bisect.bisect_left(chunk, entry)
            before = self._entry_before((chunk_index, offset))
            at = self._entry_at((chunk_index, offset))
            present = (before is not None and before[0] == value) or (
                at is not None and at[0] == value
            )
        chunk.insert(offset, entry)
        if offset == len(chunk) - 1:
            self._spine[chunk_index] = entry
        if len(chunk) > SORTED_CHUNK_MAX:
            self._split_chunk(chunk_index)
        self._size += 1
        self._prefix = None
        if not present:
            self._distinct += 1

    def remove(self, value: Any, pk: Any) -> None:
        if value is None:
            self._detach()
            self._nulls.discard(pk)
            return
        entry = (value, _PkKey(pk))
        chunk_index, offset = self._locate(entry)
        chunks = self._chunks
        if not (
            chunk_index < len(chunks)
            and offset < len(chunks[chunk_index])
            and chunks[chunk_index][offset] == entry
        ):
            return
        self._detach()
        chunk = self._own_chunk(chunk_index)
        del chunk[offset]
        if not chunk:
            del self._chunks[chunk_index]
            del self._spine[chunk_index]
            del self._owned[chunk_index]
        elif offset == len(chunk):
            self._spine[chunk_index] = chunk[-1]
        self._size -= 1
        self._prefix = None
        before = self._entry_before((chunk_index, offset)) if self._chunks else None
        at = self._entry_at((chunk_index, offset)) if self._chunks else None
        still_present = (before is not None and before[0] == value) or (
            at is not None and at[0] == value
        )
        if not still_present:
            self._distinct -= 1

    def clear(self) -> None:
        # fresh structures: any snapshot keeps the old generation intact
        self._chunks = []
        self._spine = []
        self._nulls = set()
        self._size = 0
        self._distinct = 0
        self._prefix = None
        self._shared = False
        self._owned = []

    def __len__(self) -> int:
        return self._size + len(self._nulls)


class SortedIndexSnapshot(_SortedReadSurface):
    """An immutable pin of a sorted index (no mutation methods)."""

    __slots__ = ("column", "_chunks", "_spine", "_nulls", "_size", "_distinct", "_prefix")

    def __init__(
        self,
        column: str,
        chunks: list[list[tuple[Any, "_PkKey"]]],
        spine: list[tuple[Any, "_PkKey"]],
        nulls: set[Any],
        size: int,
        distinct: int,
    ) -> None:
        self.column = column
        self._chunks = chunks
        self._spine = spine
        self._nulls = nulls
        self._size = size
        self._distinct = distinct
        self._prefix = None

    def __len__(self) -> int:
        return self._size + len(self._nulls)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SortedIndexSnapshot({self.column!r}, entries={len(self)})"


class _PkKey:
    """Wrapper making heterogeneous primary keys totally ordered.

    Orders by ``(type name, value)`` so int and str pks can share an
    index without raising ``TypeError`` during bisection.
    """

    __slots__ = ("pk",)

    def __init__(self, pk: Any) -> None:
        self.pk = pk

    def _key(self) -> tuple[str, Any]:
        return (type(self.pk).__name__, self.pk)

    def __lt__(self, other: "_PkKey") -> bool:
        if isinstance(other, _Sentinel):
            return not other.is_min
        return self._key() < other._key()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _PkKey):
            return self.pk == other.pk
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.pk)

    def __repr__(self) -> str:  # pragma: no cover
        return f"_PkKey({self.pk!r})"


class _Sentinel(_PkKey):
    """Compares below (min) or above (max) every real primary key."""

    __slots__ = ("is_min",)

    def __init__(self, is_min: bool) -> None:
        super().__init__(None)
        self.is_min = is_min

    def __lt__(self, other: object) -> bool:
        if isinstance(other, _Sentinel):
            return self.is_min and not other.is_min
        return self.is_min

    def __eq__(self, other: object) -> bool:
        return self is other

    def __hash__(self) -> int:
        return id(self)


_PK_MIN = _Sentinel(is_min=True)
_PK_MAX = _Sentinel(is_min=False)
