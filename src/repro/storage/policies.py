"""Buffer replacement policies.

HVNL keeps as many inverted-file entries in memory as fit and must pick a
victim when a new entry arrives.  The paper's policy (Section 4.2) evicts
the entry whose term has the *lowest document frequency in the outer
collection C2* — the entry least likely to be needed again.  LRU, FIFO
and a seeded random policy are provided for the ablation benchmarks.

A policy only tracks keys and priorities; the :class:`~repro.storage.buffer.ObjectBuffer`
owns sizes and payloads.
"""

from __future__ import annotations

import heapq
import random as _random
from abc import ABC, abstractmethod
from collections import OrderedDict
from typing import Hashable

from repro.errors import BufferExhaustedError


class ReplacementPolicy(ABC):
    """Interface between the object buffer and an eviction strategy."""

    @abstractmethod
    def admitted(self, key: Hashable, priority: float) -> None:
        """A new object with ``key`` entered the buffer.

        ``priority`` is policy-specific; for the paper's policy it is the
        document frequency of the key's term in the outer collection.
        """

    @abstractmethod
    def accessed(self, key: Hashable) -> None:
        """An object already in the buffer was used."""

    @abstractmethod
    def evicted(self, key: Hashable) -> None:
        """The buffer removed ``key`` (after :meth:`victim` chose it)."""

    @abstractmethod
    def victim(self) -> Hashable:
        """Choose the key to evict next.  Must not mutate state."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of keys currently tracked."""


class LowestDocFrequencyPolicy(ReplacementPolicy):
    """The paper's policy: evict the entry with the lowest priority.

    Priority is the document frequency of the entry's term in C2, so the
    evicted entry is the one with the fewest future uses.  Ties break by
    admission order (older first) to keep runs deterministic.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Hashable]] = []
        self._live: dict[Hashable, tuple[float, int]] = {}
        self._counter = 0

    def admitted(self, key: Hashable, priority: float) -> None:
        entry = (priority, self._counter, key)
        self._counter += 1
        self._live[key] = (priority, entry[1])
        heapq.heappush(self._heap, entry)

    def accessed(self, key: Hashable) -> None:
        # Frequency is a static property of the term; access order is
        # irrelevant to this policy.
        pass

    def evicted(self, key: Hashable) -> None:
        live = self._live.pop(key, None)
        # The usual caller evicts the victim just chosen, which is the
        # heap top: pop it now rather than as a stale entry next time.
        if live is not None and self._heap and self._heap[0][1] == live[1]:
            heapq.heappop(self._heap)

    def victim(self) -> Hashable:
        while self._heap:
            priority, counter, key = self._heap[0]
            live = self._live.get(key)
            if live == (priority, counter):
                return key
            heapq.heappop(self._heap)  # stale entry from an earlier eviction
        raise BufferExhaustedError("no keys tracked; cannot pick a victim")

    def __len__(self) -> int:
        return len(self._live)


class LRUPolicy(ReplacementPolicy):
    """Evict the least recently used entry."""

    def __init__(self) -> None:
        self._order: OrderedDict[Hashable, None] = OrderedDict()

    def admitted(self, key: Hashable, priority: float) -> None:
        self._order[key] = None
        self._order.move_to_end(key)

    def accessed(self, key: Hashable) -> None:
        if key in self._order:
            self._order.move_to_end(key)

    def evicted(self, key: Hashable) -> None:
        self._order.pop(key, None)

    def victim(self) -> Hashable:
        if not self._order:
            raise BufferExhaustedError("no keys tracked; cannot pick a victim")
        return next(iter(self._order))

    def __len__(self) -> int:
        return len(self._order)


class FIFOPolicy(ReplacementPolicy):
    """Evict the entry admitted earliest, regardless of use."""

    def __init__(self) -> None:
        self._order: OrderedDict[Hashable, None] = OrderedDict()

    def admitted(self, key: Hashable, priority: float) -> None:
        if key not in self._order:
            self._order[key] = None

    def accessed(self, key: Hashable) -> None:
        pass

    def evicted(self, key: Hashable) -> None:
        self._order.pop(key, None)

    def victim(self) -> Hashable:
        if not self._order:
            raise BufferExhaustedError("no keys tracked; cannot pick a victim")
        return next(iter(self._order))

    def __len__(self) -> int:
        return len(self._order)


class RandomPolicy(ReplacementPolicy):
    """Evict a uniformly random entry (seeded, for reproducible ablations)."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = _random.Random(seed)
        self._keys: list[Hashable] = []
        self._index: dict[Hashable, int] = {}

    def admitted(self, key: Hashable, priority: float) -> None:
        if key not in self._index:
            self._index[key] = len(self._keys)
            self._keys.append(key)

    def accessed(self, key: Hashable) -> None:
        pass

    def evicted(self, key: Hashable) -> None:
        pos = self._index.pop(key, None)
        if pos is None:
            return
        last = self._keys.pop()
        if last != key:
            self._keys[pos] = last
            self._index[last] = pos

    def victim(self) -> Hashable:
        if not self._keys:
            raise BufferExhaustedError("no keys tracked; cannot pick a victim")
        return self._keys[self._rng.randrange(len(self._keys))]

    def __len__(self) -> int:
        return len(self._keys)
