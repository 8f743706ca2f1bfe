"""Unit tests: hash and sorted secondary indexes."""

from repro.store import HashIndex, SortedIndex


class TestHashIndex:
    def test_add_lookup(self):
        index = HashIndex("kind")
        index.add("url", 1)
        index.add("url", 2)
        index.add("image", 3)
        assert index.lookup("url") == {1, 2}
        assert index.lookup("image") == {3}
        assert index.lookup("video") == set()

    def test_remove(self):
        index = HashIndex("kind")
        index.add("url", 1)
        index.add("url", 2)
        index.remove("url", 1)
        assert index.lookup("url") == {2}

    def test_remove_last_drops_bucket(self):
        index = HashIndex("kind")
        index.add("url", 1)
        index.remove("url", 1)
        assert index.distinct_values() == []

    def test_remove_missing_is_noop(self):
        index = HashIndex("kind")
        index.remove("url", 1)
        assert len(index) == 0

    def test_none_values_indexable(self):
        index = HashIndex("kind")
        index.add(None, 1)
        assert index.lookup(None) == {1}

    def test_lookup_many(self):
        index = HashIndex("kind")
        index.add("a", 1)
        index.add("b", 2)
        index.add("c", 3)
        assert index.lookup_many(iter(["a", "c", "z"])) == {1, 3}

    def test_len_counts_entries(self):
        index = HashIndex("kind")
        index.add("a", 1)
        index.add("a", 2)
        index.add("b", 3)
        assert len(index) == 3


class TestSortedIndex:
    def build(self) -> SortedIndex:
        index = SortedIndex("quality")
        for pk, value in [(1, 0.5), (2, 0.1), (3, 0.9), (4, 0.5), (5, None)]:
            index.add(value, pk)
        return index

    def test_lookup_exact(self):
        index = self.build()
        assert index.lookup(0.5) == {1, 4}
        assert index.lookup(None) == {5}

    def test_range_inclusive(self):
        index = self.build()
        assert set(index.range(0.1, 0.5)) == {1, 2, 4}

    def test_range_exclusive_bounds(self):
        index = self.build()
        assert set(index.range(0.1, 0.5, include_low=False)) == {1, 4}
        assert set(index.range(0.1, 0.5, include_high=False)) == {2}

    def test_range_unbounded(self):
        index = self.build()
        assert set(index.range()) == {1, 2, 3, 4}  # None excluded
        assert set(index.range(low=0.6)) == {3}
        assert set(index.range(high=0.2)) == {2}

    def test_range_returns_value_order(self):
        index = self.build()
        assert index.range() == [2, 1, 4, 3]

    def test_min_max_pks(self):
        index = self.build()
        assert index.min_pks(2) == [2, 1]
        assert index.max_pks(2) == [3, 4]
        assert index.max_pks(0) == []

    def test_remove(self):
        index = self.build()
        index.remove(0.5, 1)
        assert index.lookup(0.5) == {4}
        index.remove(None, 5)
        assert index.lookup(None) == set()

    def test_duplicate_values_with_many_pks(self):
        index = SortedIndex("v")
        for pk in range(50):
            index.add(1.0, pk)
        assert index.lookup(1.0) == set(range(50))
        index.remove(1.0, 25)
        assert 25 not in index.lookup(1.0)

    def test_mixed_int_str_pks(self):
        index = SortedIndex("v")
        index.add(1.0, 5)
        index.add(1.0, "abc")
        assert index.lookup(1.0) == {5, "abc"}


class TestLazyIterators:
    def test_hash_iter_eq_streams_insertion_order(self):
        index = HashIndex("kind")
        for pk in (3, 1, 2):
            index.add("url", pk)
        assert list(index.iter_eq("url")) == [3, 1, 2]
        assert list(index.iter_eq("missing")) == []

    def test_hash_iter_in_dedupes_values_not_pks(self):
        index = HashIndex("kind")
        index.add("a", 1)
        index.add("b", 2)
        assert list(index.iter_in(["a", "a", "b", "z"])) == [1, 2]
        assert index.estimate_in(["a", "a", "b"]) == 2

    def test_lookup_many_accepts_any_iterable(self):
        index = HashIndex("kind")
        index.add("a", 1)
        index.add("c", 3)
        assert index.lookup_many(["a", "c", "z"]) == {1, 3}
        assert index.lookup_many(("z", "q")) == set()

    def test_contains_entry(self):
        index = HashIndex("kind")
        index.add("a", 1)
        assert index.contains_entry("a", 1)
        assert not index.contains_entry("a", 2)
        assert not index.contains_entry("b", 1)

    def test_sorted_iter_eq_and_iter_range(self):
        index = SortedIndex("q")
        for pk, value in [(1, 0.5), (2, 0.1), (3, 0.9), (4, 0.5), (5, None)]:
            index.add(value, pk)
        assert list(index.iter_eq(0.5)) == [1, 4]
        assert list(index.iter_eq(None)) == [5]
        assert list(index.iter_range(0.1, 0.5)) == [2, 1, 4]
        assert list(index.iter_range(0.2, 0.5, include_high=False)) == []
        assert index.contains_entry(0.5, 4)
        assert not index.contains_entry(0.5, 9)
        assert index.contains_entry(None, 5)


class TestMaintainedDistinct:
    def test_counter_tracks_adds_and_removes(self):
        index = SortedIndex("q")
        assert index.n_distinct() == 0
        index.add(0.5, 1)
        index.add(0.5, 2)
        index.add(0.9, 3)
        index.add(None, 4)
        assert index.n_distinct() == 3 == index.recount_distinct()
        index.remove(0.5, 1)
        assert index.n_distinct() == 3 == index.recount_distinct()
        index.remove(0.5, 2)
        index.remove(None, 4)
        assert index.n_distinct() == 1 == index.recount_distinct()
        index.clear()
        assert index.n_distinct() == 0 == index.recount_distinct()


class TestIndexSnapshots:
    def test_hash_snapshot_is_frozen_and_cheap_generations(self):
        index = HashIndex("kind")
        index.add("a", 1)
        snap = index.snapshot()
        index.add("a", 2)
        index.add("b", 3)
        index.remove("a", 1)
        assert snap.lookup("a") == {1}
        assert snap.n_distinct() == 1
        assert len(snap) == 1
        assert index.lookup("a") == {2}
        assert index.lookup("b") == {3}
        assert len(index) == 2

    def test_sorted_snapshot_is_frozen(self):
        index = SortedIndex("q")
        index.add(0.1, 1)
        index.add(None, 2)
        snap = index.snapshot()
        index.add(0.2, 3)
        index.remove(None, 2)
        assert snap.range() == [1]
        assert snap.lookup(None) == {2}
        assert snap.n_distinct() == 2
        assert index.range() == [1, 3]
        assert index.lookup(None) == set()

    def test_snapshots_have_no_mutation_methods(self):
        import pytest

        for snap in (HashIndex("k").snapshot(), SortedIndex("k").snapshot()):
            with pytest.raises(AttributeError):
                snap.add("x", 1)
            with pytest.raises(AttributeError):
                snap.remove("x", 1)

    def test_clear_after_snapshot_keeps_snapshot(self):
        index = HashIndex("kind")
        index.add("a", 1)
        snap = index.snapshot()
        index.clear()
        assert snap.lookup("a") == {1}
        assert len(index) == 0


class TestChunkedSortedIndex:
    """The two-level chunk/spine structure behind SortedIndex."""

    def _filled(self, count, chunk_target=None):
        from repro.store.index import SORTED_CHUNK_TARGET

        index = SortedIndex.build("v", ((i, i) for i in range(count)))
        assert len(index._chunks) == -(-count // SORTED_CHUNK_TARGET)
        return index

    def test_bulk_build_matches_incremental_adds(self):
        import random

        rng = random.Random(11)
        pairs = [(rng.randrange(50), pk) for pk in range(3000)]
        built = SortedIndex.build("v", pairs)
        grown = SortedIndex("v")
        for value, pk in pairs:
            grown.add(value, pk)
        built.verify_structure()
        grown.verify_structure()
        assert list(built.iter_items()) == list(grown.iter_items())
        assert built.n_distinct() == grown.n_distinct()
        assert len(built) == len(grown)

    def test_inserts_split_overfull_chunks(self):
        from repro.store.index import SORTED_CHUNK_MAX

        index = SortedIndex("v")
        for i in range(SORTED_CHUNK_MAX + 10):
            index.add(i, i)
        index.verify_structure()
        assert len(index._chunks) >= 2
        assert list(index.iter_pks()) == list(range(SORTED_CHUNK_MAX + 10))

    def test_deletes_unlink_emptied_chunks(self):
        index = self._filled(2000)
        for i in range(2000):
            index.remove(i, i)
        index.verify_structure()
        assert index._chunks == []
        assert len(index) == 0
        assert index.n_distinct() == 0

    def test_range_and_estimates_span_chunk_boundaries(self):
        index = self._filled(2000)
        got = index.range(500, 1500)
        assert got == list(range(500, 1501))
        assert index.estimate_range(500, 1500) == len(got)
        assert index.estimate_range(1500, 500) == 0  # reversed bounds
        assert index.estimate_eq(777) == 1
        assert index.lookup(777) == {777}

    def test_duplicate_value_group_spans_chunks(self):
        from repro.store.index import SORTED_CHUNK_MAX

        count = SORTED_CHUNK_MAX + 200  # one value group > one chunk
        index = SortedIndex("v")
        for pk in range(count):
            index.add("same", pk)
        index.verify_structure()
        assert len(index._chunks) >= 2
        assert index.n_distinct() == 1
        assert index.estimate_eq("same") == count
        assert list(index.iter_eq("same")) == list(range(count))
        # descending stream keeps ties in ascending pk order
        assert list(index.iter_pks(descending=True)) == list(range(count))

    def test_snapshot_shares_chunks_until_first_touch(self):
        index = self._filled(3000)
        snap = index.snapshot()
        assert snap._chunks is index._chunks  # O(1) pin
        index.add(1500.5, 9999)  # detaches directory, privatizes 1 chunk
        assert snap._chunks is not index._chunks
        shared = sum(
            1
            for mine, theirs in zip(index._chunks, snap._chunks)
            if mine is theirs
        )
        # all but the touched chunk still shared with the snapshot
        assert shared >= len(snap._chunks) - 1
        assert 9999 not in snap.lookup(1500.5)
        assert 9999 in index.lookup(1500.5)
        index.verify_structure()
        snap.verify_structure()

    def test_snapshot_isolated_from_chunk_split(self):
        from repro.store.index import SORTED_CHUNK_MAX

        index = SortedIndex("v")
        for i in range(SORTED_CHUNK_MAX):
            index.add(i, i)
        snap = index.snapshot()
        for i in range(200):
            index.add(i + 0.5, 10_000 + i)  # forces a split
        index.verify_structure()
        snap.verify_structure()
        assert len(snap) == SORTED_CHUNK_MAX
        assert list(snap.iter_pks()) == list(range(SORTED_CHUNK_MAX))

    def test_appends_past_the_last_entry_skip_the_bisections(self, monkeypatch):
        import bisect

        from repro.store.index import SORTED_CHUNK_MAX

        calls = []
        bisect_left = bisect.bisect_left

        def counting(*args, **kwargs):
            calls.append(args)
            return bisect_left(*args, **kwargs)

        count = 3 * SORTED_CHUNK_MAX
        pairs = [(float(pk // 700), pk) for pk in range(count)]  # tied runs
        index = SortedIndex("ts")
        monkeypatch.setattr(bisect, "bisect_left", counting)
        for value, pk in pairs:
            index.add(value, pk)
        monkeypatch.undo()
        assert calls == []
        index.verify_structure()
        built = SortedIndex.build("ts", pairs)
        assert list(index.iter_items()) == list(built.iter_items())
        assert index.n_distinct() == built.n_distinct() == index.recount_distinct()

    def test_appends_and_inserts_agree_with_a_sorted_oracle(self):
        import random

        rng = random.Random(5)
        index = SortedIndex("v")
        oracle = []
        snapshots = []
        for pk in range(4000):
            # mostly appends (rising values, ties on rising pks), some
            # inserts behind the last entry
            value = pk // 3 if rng.random() < 0.8 else rng.randrange(pk // 3 + 1)
            index.add(value, pk)
            oracle.append((value, pk))
            if pk % 997 == 0:
                snapshots.append((index.snapshot(), sorted(oracle)))
        index.verify_structure()
        assert list(index.iter_items()) == sorted(oracle)
        assert index.n_distinct() == index.recount_distinct()
        for snapshot, expected in snapshots:
            snapshot.verify_structure()
            assert list(snapshot.iter_items()) == expected

    def test_verify_structure_catches_violations(self):
        import pytest

        index = self._filled(2000)
        index._spine[0] = index._chunks[1][-1]  # break a fencepost
        with pytest.raises(ValueError, match="fencepost"):
            index.verify_structure()

        index = self._filled(2000)
        index._size += 1
        with pytest.raises(ValueError, match="maintained size"):
            index.verify_structure()

        index = self._filled(2000)
        index._chunks[1] = []
        with pytest.raises(ValueError, match="empty chunk"):
            index.verify_structure()
