"""A sorted-by-key collection built on ``bisect``.

Third-party ``sortedcontainers`` is not available offline, and both the
BFC caching allocator (free lists sorted by size then address) and the
GMLake pools (pBlocks/sBlocks sorted by size) need ordered sets with
cheap insert/remove/lookup.  :class:`ChunkedSortedKeyList` keeps its
items in fixed-load chunks (the ``sortedcontainers`` design): inserts
and deletes touch one bounded chunk, so the memmove cost stays O(load)
however large the pool grows, where one flat list pays O(n) per
``list.insert`` once a free pool holds thousands of blocks.

A large-pool microbench (~50k cached free blocks) measured the
chunked list against size-bucketed bins for the allocator free pools;
the chunked list won (bins degrade to per-bin linear scans under the
allocators' long-tailed size distributions) and is what
:class:`~repro.allocators.caching.CachingAllocator`, the expandable-
segments arenas and the GMLake pools use.
"""

from __future__ import annotations

import bisect
import itertools
from typing import Callable, Generic, Iterable, Iterator, List, Optional, Tuple, TypeVar

T = TypeVar("T")
K = TypeVar("K")


class ChunkedSortedKeyList(Generic[T]):
    """A sorted-by-key collection over fixed-load chunks.

    Keys need not be unique: equal keys keep insertion order, and
    ``remove`` matches by identity among them, so mutable items are
    safe as long as their key does not change while they are held.
    Items live in chunks of at most ``2 * load`` entries with a
    per-chunk ``max`` index — an insert or delete memmoves one chunk,
    not the whole collection, so per-op cost is O(log n + load).
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
        # _locate's search and the chunk deletion, inlined: this runs
        # once per allocator free, so the extra call layers are worth
        # avoiding.
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

    def iter_before(self, key: K) -> Iterator[T]:
        """Iterate items with ``key(item) < key``, largest key first
        (equal keys last-inserted first), copying nothing: a walk that
        stops after a few items costs a few items."""
        ci = bisect.bisect_left(self._maxes, key)
        if ci < len(self._maxes):
            chunk = self._items[ci]
            pos = bisect.bisect_left(self._keys[ci], key)
            yield from itertools.islice(reversed(chunk), len(chunk) - pos, None)
        for ci in range(ci - 1, -1, -1):
            yield from reversed(self._items[ci])

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
