"""Unit + property tests for repro.sortedlist.

``ChunkedSortedKeyList`` and :class:`ListModel`, the contract as one
flat list, honour one contract, so the unit tests are parametrized over
the two (the model is the property tests' oracle, so it is held to the
same cases); the chunked list runs with a tiny load factor so chunk
splits, boundary scans and chunk deletions are all exercised even by
small inputs.
"""

import bisect

import pytest
from hypothesis import given, strategies as st

from repro.sortedlist import ChunkedSortedKeyList


class Item:
    """Mutable wrapper so identity-based removal is exercised."""

    def __init__(self, value):
        self.value = value

    def __repr__(self):
        return f"Item({self.value})"


class ListModel:
    """The contract as one plain list: an add goes after equal keys, a
    remove matches by identity."""

    def __init__(self, key, items=None):
        self.key = key
        self.items = []
        for item in items or ():
            self.add(item)

    def __len__(self):
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def __contains__(self, item):
        return any(x is item for x in self.items)

    def add(self, item):
        bisect.insort_right(self.items, item, key=self.key)

    def remove(self, item):
        index = next((i for i, x in enumerate(self.items) if x is item), None)
        if index is None:
            raise ValueError(f"{item!r} not in list")
        del self.items[index]

    def first_at_least(self, key):
        index = bisect.bisect_left(self.items, key, key=self.key)
        return self.items[index] if index < len(self.items) else None

    def iter_before(self, key):
        index = bisect.bisect_left(self.items, key, key=self.key)
        return reversed(self.items[:index])


def chunked(key, items=None):
    return ChunkedSortedKeyList(key, items=items, load=2)


@pytest.fixture(params=["flat", "chunked"])
def make(request):
    """Factory for the flat list model or the chunked list."""
    return ListModel if request.param == "flat" else chunked


def interleaved(steps):
    """The chunked list and the model after the same adds and removes."""
    sl = chunked(key=lambda i: i.value)
    model = ListModel(key=lambda i: i.value)
    live = []
    for is_add, value, pick in steps:
        if is_add or not live:
            item = Item(value)
            sl.add(item)
            model.add(item)
            live.append(item)
        else:
            item = live.pop(pick % len(live))
            sl.remove(item)
            model.remove(item)
    return sl, model


STEPS = st.lists(st.tuples(st.booleans(), st.integers(0, 10),
                           st.integers(0, 1000)), max_size=80)


class TestBasics:
    def test_empty(self, make):
        sl = make(key=lambda x: x)
        assert len(sl) == 0
        assert list(sl) == []

    def test_add_keeps_sorted(self, make):
        sl = make(key=lambda x: x, items=[3, 1, 2])
        assert list(sl) == [1, 2, 3]

    def test_duplicates_allowed(self, make):
        sl = make(key=lambda x: x, items=[2, 2, 2])
        assert len(sl) == 3

    def test_contains_by_identity(self, make):
        a, b = Item(1), Item(1)
        sl = make(key=lambda i: i.value, items=[a])
        assert a in sl
        assert b not in sl

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

    def test_equal_keys_across_chunk_boundaries(self):
        # load=2 forces chunks of <= 4; 10 equal keys span chunks, and
        # identity removal must scan across the boundary.
        items = [Item(7) for _ in range(10)]
        sl = chunked(key=lambda i: i.value, items=items)
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

    def test_iter_from(self):
        sl = chunked(key=lambda x: x, items=list(range(0, 20, 2)))
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
        sl = chunked(key=lambda x: x, items=values)
        assert list(sl) == sorted(values)
        assert sl.check_sorted()

    @given(st.lists(st.integers(0, 20), min_size=1))
    def test_add_remove_roundtrip(self, values):
        sl = chunked(key=lambda i: i.value)
        items = [Item(v) for v in values]
        for item in items:
            sl.add(item)
        for item in items:
            sl.remove(item)
        assert len(sl) == 0

    @given(st.lists(st.integers(0, 50)), st.integers(0, 50))
    def test_first_at_least_is_best_fit(self, values, needle):
        result = chunked(key=lambda x: x, items=values).first_at_least(needle)
        candidates = [v for v in values if v >= needle]
        if candidates:
            assert result == min(candidates)
        else:
            assert result is None

    @given(STEPS)
    def test_chunked_matches_flat_under_interleaving(self, steps):
        """Identical add/remove interleavings leave the chunked list
        with the model's contents *and order* (equal keys keep
        insertion order)."""
        sl, model = interleaved(steps)
        assert list(sl) == model.items
        assert sl.check_sorted()
        assert len(sl) == len(model.items)

    @given(STEPS, st.integers(-1, 12))
    def test_chunked_walks_back_like_flat(self, steps, needle):
        """``iter_before`` walks the model's items below ``needle``,
        largest first and equal keys last-inserted first, after any
        interleaving of adds and removes (the chunked list's boundaries
        fall anywhere); a walk cut short yields the same prefix."""
        sl, model = interleaved(steps)
        walked = list(sl.iter_before(needle))
        assert walked == [i for i in reversed(model.items)
                          if i.value < needle]
        cut = sl.iter_before(needle)
        assert [next(cut, None) for _ in range(2)] == (walked + [None] * 2)[:2]
