"""Sorted-by-key collections built on ``bisect``.

Third-party ``sortedcontainers`` is not available offline, and both the
BFC caching allocator (free lists sorted by size then address) and the
GMLake pools (pBlocks/sBlocks sorted by size) need ordered sets with
cheap insert/remove/lookup.  Two implementations share one API:

* :class:`SortedKeyList` — a flat parallel key/item list.  ``bisect``
  makes lookups O(log n), but every insert/delete pays an O(n)
  ``list.insert`` memmove, which dominates once a free pool holds
  thousands of blocks.  No allocator uses it any more; it remains as
  the reference ``tests/test_sortedlist.py`` compares the chunked
  list against.
* :class:`ChunkedSortedKeyList` — the same contract over fixed-load
  chunks (the ``sortedcontainers`` design): inserts and deletes touch
  one bounded chunk, so the memmove cost stays O(load) however large
  the pool grows.

A large-pool microbench (~50k cached free blocks) measured the
chunked list against size-bucketed bins for the allocator free pools;
the chunked list won (bins degrade to per-bin linear scans under the
allocators' long-tailed size distributions) and is what
:class:`~repro.allocators.caching.CachingAllocator`, the expandable-
segments arenas and the GMLake pools use.
"""

from __future__ import annotations

import bisect
from typing import Callable, Generic, Iterable, Iterator, List, Optional, Tuple, TypeVar

T = TypeVar("T")
K = TypeVar("K")


class SortedKeyList(Generic[T]):
    """A list of items kept sorted by ``key(item)``.

    Keys need not be unique; items with equal keys are kept in insertion
    order relative to each other.  ``remove`` matches by identity (``is``)
    among equal-key items, so mutable items are safe as long as their key
    does not change while they are in the list.
    """

    def __init__(self, key: Callable[[T], K], items: Optional[Iterable[T]] = None):
        self._key = key
        self._keys: List[K] = []
        self._items: List[T] = []
        if items is not None:
            for item in items:
                self.add(item)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[T]:
        return iter(self._items)

    def __contains__(self, item: T) -> bool:
        idx = self._find(item)
        return idx is not None

    def __getitem__(self, index: int) -> T:
        return self._items[index]

    def _find(self, item: T) -> Optional[int]:
        key = self._key(item)
        lo = bisect.bisect_left(self._keys, key)
        while lo < len(self._keys) and self._keys[lo] == key:
            if self._items[lo] is item:
                return lo
            lo += 1
        return None

    def add(self, item: T) -> None:
        """Insert ``item`` in key order."""
        key = self._key(item)
        idx = bisect.bisect_right(self._keys, key)
        self._keys.insert(idx, key)
        self._items.insert(idx, item)

    def remove(self, item: T) -> None:
        """Remove ``item`` (matched by identity). Raises ValueError if absent."""
        idx = self._find(item)
        if idx is None:
            raise ValueError(f"item not in SortedKeyList: {item!r}")
        del self._keys[idx]
        del self._items[idx]

    def discard(self, item: T) -> bool:
        """Remove ``item`` if present; return whether it was removed."""
        idx = self._find(item)
        if idx is None:
            return False
        del self._keys[idx]
        del self._items[idx]
        return True

    def first_at_least(self, key: K) -> Optional[T]:
        """Smallest-keyed item with ``key(item) >= key`` (best fit)."""
        idx = bisect.bisect_left(self._keys, key)
        if idx < len(self._items):
            return self._items[idx]
        return None

    def index_at_least(self, key: K) -> int:
        """Index of the first item with key >= ``key`` (may be len)."""
        return bisect.bisect_left(self._keys, key)

    def pop_index(self, index: int) -> T:
        """Remove and return the item at ``index``."""
        item = self._items.pop(index)
        del self._keys[index]
        return item

    def items_descending(self) -> Iterator[T]:
        """Iterate items from largest key to smallest."""
        return reversed(self._items)

    def min(self) -> Optional[T]:
        """Smallest-keyed item, or None when empty."""
        return self._items[0] if self._items else None

    def max(self) -> Optional[T]:
        """Largest-keyed item, or None when empty."""
        return self._items[-1] if self._items else None

    def clear(self) -> None:
        """Remove every item."""
        self._keys.clear()
        self._items.clear()

    def as_list(self) -> List[T]:
        """A shallow copy of the items in key order."""
        return list(self._items)

    def check_sorted(self) -> bool:
        """Invariant check used by property tests."""
        return all(a <= b for a, b in zip(self._keys, self._keys[1:]))


class ChunkedSortedKeyList(Generic[T]):
    """A sorted-by-key collection over fixed-load chunks.

    Same contract as :class:`SortedKeyList` (equal keys keep insertion
    order, ``remove`` matches by identity, keys must not change while
    an item is held), but items live in chunks of at most ``2 * load``
    entries with a per-chunk ``max`` index — an insert or delete
    memmoves one chunk, not the whole collection, so per-op cost is
    O(log n + load) instead of O(n).
    """

    def __init__(self, key: Callable[[T], K],
                 items: Optional[Iterable[T]] = None, load: int = 512):
        if load < 1:
            raise ValueError(f"load must be >= 1, got {load}")
        self._key = key
        self._load = load
        self._keys: List[List[K]] = []
        self._items: List[List[T]] = []
        self._maxes: List[K] = []
        self._len = 0
        if items is not None:
            for item in items:
                self.add(item)

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[T]:
        for chunk in self._items:
            yield from chunk

    def __contains__(self, item: T) -> bool:
        return self._locate(item) is not None

    def __getitem__(self, index: int) -> T:
        if index < 0:
            index += self._len
        if not 0 <= index < self._len:
            raise IndexError("ChunkedSortedKeyList index out of range")
        for chunk in self._items:
            if index < len(chunk):
                return chunk[index]
            index -= len(chunk)
        raise IndexError("ChunkedSortedKeyList index out of range")  # pragma: no cover

    # ------------------------------------------------------------------
    def _locate(self, item: T) -> Optional[Tuple[int, int]]:
        """(chunk, position) of ``item`` by identity, or None.

        Equal keys may spill across chunk boundaries, so the identity
        scan continues into following chunks while the key matches.
        """
        if not self._len:
            return None
        key = self._key(item)
        ci = bisect.bisect_left(self._maxes, key)
        while ci < len(self._maxes):
            keys = self._keys[ci]
            chunk = self._items[ci]
            pos = bisect.bisect_left(keys, key)
            while pos < len(keys) and keys[pos] == key:
                if chunk[pos] is item:
                    return ci, pos
                pos += 1
            if pos < len(keys):
                return None  # ran into a larger key: item absent
            ci += 1
        return None

    def _delete(self, ci: int, pos: int) -> T:
        item = self._items[ci].pop(pos)
        del self._keys[ci][pos]
        if self._keys[ci]:
            self._maxes[ci] = self._keys[ci][-1]
        else:
            del self._keys[ci]
            del self._items[ci]
            del self._maxes[ci]
        self._len -= 1
        return item

    # ------------------------------------------------------------------
    def add(self, item: T) -> None:
        """Insert ``item`` in key order (after equal keys)."""
        key = self._key(item)
        maxes = self._maxes
        if not maxes:
            self._keys.append([key])
            self._items.append([item])
            maxes.append(key)
            self._len = 1
            return
        if key >= maxes[-1]:
            ci = len(maxes) - 1
        else:
            ci = bisect.bisect_right(maxes, key)
        keys = self._keys[ci]
        pos = bisect.bisect_right(keys, key)
        keys.insert(pos, key)
        self._items[ci].insert(pos, item)
        maxes[ci] = keys[-1]
        self._len += 1
        if len(keys) > 2 * self._load:
            half = len(keys) // 2
            self._keys.insert(ci + 1, keys[half:])
            self._items.insert(ci + 1, self._items[ci][half:])
            del keys[half:]
            del self._items[ci][half:]
            maxes[ci] = keys[-1]
            maxes.insert(ci + 1, self._keys[ci + 1][-1])

    def remove(self, item: T) -> None:
        """Remove ``item`` (matched by identity). Raises ValueError if absent."""
        # Inlined _locate + _delete: this runs once per allocator free,
        # so the extra call layers are worth avoiding.
        key = self._key(item)
        maxes = self._maxes
        ci = bisect.bisect_left(maxes, key)
        while ci < len(maxes):
            keys = self._keys[ci]
            chunk = self._items[ci]
            pos = bisect.bisect_left(keys, key)
            while pos < len(keys) and keys[pos] == key:
                if chunk[pos] is item:
                    del chunk[pos]
                    del keys[pos]
                    if keys:
                        maxes[ci] = keys[-1]
                    else:
                        del self._keys[ci]
                        del self._items[ci]
                        del maxes[ci]
                    self._len -= 1
                    return
                pos += 1
            if pos < len(keys):
                break
            ci += 1
        raise ValueError(f"item not in ChunkedSortedKeyList: {item!r}")

    def discard(self, item: T) -> bool:
        """Remove ``item`` if present; return whether it was removed."""
        found = self._locate(item)
        if found is None:
            return False
        self._delete(*found)
        return True

    # ------------------------------------------------------------------
    def first_at_least(self, key: K) -> Optional[T]:
        """Smallest-keyed item with ``key(item) >= key`` (best fit)."""
        maxes = self._maxes
        if not maxes or key > maxes[-1]:
            return None
        ci = 0 if len(maxes) == 1 else bisect.bisect_left(maxes, key)
        pos = bisect.bisect_left(self._keys[ci], key)
        return self._items[ci][pos]

    def iter_from(self, key: K) -> Iterator[T]:
        """Iterate items with ``key(item) >= key`` in key order."""
        ci = bisect.bisect_left(self._maxes, key)
        if ci == len(self._maxes):
            return
        pos = bisect.bisect_left(self._keys[ci], key)
        yield from self._items[ci][pos:]
        for chunk in self._items[ci + 1:]:
            yield from chunk

    def index_at_least(self, key: K) -> int:
        """Index of the first item with key >= ``key`` (may be len)."""
        ci = bisect.bisect_left(self._maxes, key)
        if ci == len(self._maxes):
            return self._len
        pos = bisect.bisect_left(self._keys[ci], key)
        return sum(len(chunk) for chunk in self._items[:ci]) + pos

    def pop_index(self, index: int) -> T:
        """Remove and return the item at ``index``."""
        if index < 0:
            index += self._len
        if not 0 <= index < self._len:
            raise IndexError("ChunkedSortedKeyList index out of range")
        for ci, chunk in enumerate(self._items):
            if index < len(chunk):
                return self._delete(ci, index)
            index -= len(chunk)
        raise IndexError("ChunkedSortedKeyList index out of range")  # pragma: no cover

    def items_descending(self) -> Iterator[T]:
        """Iterate items from largest key to smallest."""
        for chunk in reversed(self._items):
            yield from reversed(chunk)

    def min(self) -> Optional[T]:
        """Smallest-keyed item, or None when empty."""
        return self._items[0][0] if self._len else None

    def max(self) -> Optional[T]:
        """Largest-keyed item, or None when empty."""
        return self._items[-1][-1] if self._len else None

    def clear(self) -> None:
        """Remove every item."""
        self._keys.clear()
        self._items.clear()
        self._maxes.clear()
        self._len = 0

    def as_list(self) -> List[T]:
        """A shallow copy of the items in key order."""
        out: List[T] = []
        for chunk in self._items:
            out.extend(chunk)
        return out

    def check_sorted(self) -> bool:
        """Invariant check used by property tests."""
        flat: List[K] = []
        for keys, chunk, chunk_max in zip(self._keys, self._items,
                                          self._maxes):
            if not keys or len(keys) != len(chunk):
                return False
            if keys[-1] != chunk_max:
                return False
            flat.extend(keys)
        if len(flat) != self._len:
            return False
        return all(a <= b for a, b in zip(flat, flat[1:]))
