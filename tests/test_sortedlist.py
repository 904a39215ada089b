"""Unit + property tests for repro.sortedlist.

Both implementations (flat ``SortedKeyList``, chunked
``ChunkedSortedKeyList``) honour one contract, so the whole suite is
parametrized over the two; the chunked variant runs with a tiny load
factor so chunk splits, boundary scans and chunk deletions are all
exercised even by small inputs.
"""

import pytest
from hypothesis import given, strategies as st

from repro.sortedlist import ChunkedSortedKeyList, SortedKeyList


class Item:
    """Mutable wrapper so identity-based removal is exercised."""

    def __init__(self, value):
        self.value = value

    def __repr__(self):
        return f"Item({self.value})"


def _chunked(key, items=None):
    return ChunkedSortedKeyList(key, items=items, load=2)


@pytest.fixture(params=["flat", "chunked"])
def make(request):
    """Factory for one of the two implementations."""
    return SortedKeyList if request.param == "flat" else _chunked


class TestBasics:
    def test_empty(self, make):
        sl = make(key=lambda x: x)
        assert len(sl) == 0
        assert sl.min() is None
        assert sl.max() is None

    def test_add_keeps_sorted(self, make):
        sl = make(key=lambda x: x, items=[3, 1, 2])
        assert sl.as_list() == [1, 2, 3]

    def test_duplicates_allowed(self, make):
        sl = make(key=lambda x: x, items=[2, 2, 2])
        assert len(sl) == 3

    def test_min_max(self, make):
        sl = make(key=lambda x: x, items=[5, 1, 9])
        assert sl.min() == 1
        assert sl.max() == 9

    def test_contains_by_identity(self, make):
        a, b = Item(1), Item(1)
        sl = make(key=lambda i: i.value, items=[a])
        assert a in sl
        assert b not in sl

    def test_getitem(self, make):
        sl = make(key=lambda x: x, items=[30, 10, 20])
        assert sl[0] == 10
        assert sl[2] == 30

    def test_iteration_order(self, make):
        sl = make(key=lambda x: x, items=[4, 2, 9, 7, 1, 3, 8, 5, 6])
        assert list(sl) == list(range(1, 10))


class TestRemove:
    def test_remove_by_identity_among_equal_keys(self, make):
        a, b = Item(1), Item(1)
        sl = make(key=lambda i: i.value, items=[a, b])
        sl.remove(a)
        assert a not in sl
        assert b in sl

    def test_remove_missing_raises(self, make):
        sl = make(key=lambda x: x, items=[1])
        with pytest.raises(ValueError):
            sl.remove(2)

    def test_discard_returns_bool(self, make):
        sl = make(key=lambda x: x, items=[1])
        assert sl.discard(1) is True
        assert sl.discard(1) is False

    def test_pop_index(self, make):
        sl = make(key=lambda x: x, items=[3, 1, 2])
        assert sl.pop_index(0) == 1
        assert sl.as_list() == [2, 3]

    def test_clear(self, make):
        sl = make(key=lambda x: x, items=[1, 2])
        sl.clear()
        assert len(sl) == 0

    def test_equal_keys_across_chunk_boundaries(self):
        # load=2 forces chunks of <= 4; 10 equal keys span chunks, and
        # identity removal must scan across the boundary.
        items = [Item(7) for _ in range(10)]
        sl = _chunked(key=lambda i: i.value, items=items)
        for item in reversed(items):
            sl.remove(item)
        assert len(sl) == 0


class TestQueries:
    def test_first_at_least_exact(self, make):
        sl = make(key=lambda x: x, items=[10, 20, 30])
        assert sl.first_at_least(20) == 20

    def test_first_at_least_between(self, make):
        sl = make(key=lambda x: x, items=[10, 20, 30])
        assert sl.first_at_least(15) == 20

    def test_first_at_least_above_all(self, make):
        sl = make(key=lambda x: x, items=[10])
        assert sl.first_at_least(11) is None

    def test_index_at_least(self, make):
        sl = make(key=lambda x: x, items=[10, 20, 30])
        assert sl.index_at_least(20) == 1
        assert sl.index_at_least(35) == 3

    def test_items_descending(self, make):
        sl = make(key=lambda x: x, items=[1, 3, 2])
        assert list(sl.items_descending()) == [3, 2, 1]

    def test_iter_from(self):
        sl = _chunked(key=lambda x: x, items=list(range(0, 20, 2)))
        assert list(sl.iter_from(7)) == [8, 10, 12, 14, 16, 18]
        assert list(sl.iter_from(99)) == []

    def test_iter_before(self, make):
        sl = make(key=lambda x: x, items=list(range(0, 20, 2)))
        assert list(sl.iter_before(7)) == [6, 4, 2, 0]
        assert list(sl.iter_before(8)) == [6, 4, 2, 0]
        assert list(sl.iter_before(0)) == []
        assert list(sl.iter_before(99)) == list(range(18, -1, -2))


class TestProperties:
    @given(st.lists(st.integers(-100, 100)))
    def test_always_sorted_after_adds(self, values):
        for factory in (SortedKeyList, _chunked):
            sl = factory(key=lambda x: x, items=values)
            assert sl.as_list() == sorted(values)
            assert sl.check_sorted()

    @given(st.lists(st.integers(0, 20), min_size=1))
    def test_add_remove_roundtrip(self, values):
        for factory in (SortedKeyList, _chunked):
            sl = factory(key=lambda i: i.value)
            items = [Item(v) for v in values]
            for item in items:
                sl.add(item)
            for item in items:
                sl.remove(item)
            assert len(sl) == 0

    @given(st.lists(st.integers(0, 50)), st.integers(0, 50))
    def test_first_at_least_is_best_fit(self, values, needle):
        for factory in (SortedKeyList, _chunked):
            sl = factory(key=lambda x: x, items=values)
            result = sl.first_at_least(needle)
            candidates = [v for v in values if v >= needle]
            if candidates:
                assert result == min(candidates)
            else:
                assert result is None

    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 10),
                              st.integers(0, 1000)), max_size=80))
    def test_chunked_matches_flat_under_interleaving(self, steps):
        """Identical add/remove interleavings must leave both
        implementations with identical contents *and order* (equal keys
        keep insertion order in both)."""
        flat = SortedKeyList(key=lambda i: i.value)
        chunked = _chunked(key=lambda i: i.value)
        live = []
        for is_add, value, pick in steps:
            if is_add or not live:
                item = Item(value)
                flat.add(item)
                chunked.add(item)
                live.append(item)
            else:
                item = live.pop(pick % len(live))
                flat.remove(item)
                chunked.remove(item)
        assert flat.as_list() == chunked.as_list()
        assert chunked.check_sorted()
        assert len(flat) == len(chunked)

    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 10),
                              st.integers(0, 1000)), max_size=80),
           st.integers(-1, 12))
    def test_chunked_walks_back_like_flat(self, steps, needle):
        """``iter_before`` walks the same items in the same order on
        both, equal keys last-inserted first, after any interleaving of
        adds and removes (the chunked list's boundaries fall anywhere);
        a walk cut short yields the same prefix."""
        flat = SortedKeyList(key=lambda i: i.value)
        chunked = _chunked(key=lambda i: i.value)
        live = []
        for is_add, value, pick in steps:
            if is_add or not live:
                item = Item(value)
                flat.add(item)
                chunked.add(item)
                live.append(item)
            else:
                item = live.pop(pick % len(live))
                flat.remove(item)
                chunked.remove(item)
        walked = list(chunked.iter_before(needle))
        assert walked == list(flat.iter_before(needle))
        assert walked == [i for i in reversed(flat.as_list())
                          if i.value < needle]
        cut = chunked.iter_before(needle)
        assert [next(cut, None) for _ in range(2)] == (walked + [None] * 2)[:2]
