"""A budgeted object buffer with pluggable replacement.

HVNL caches whole inverted-file entries in memory under a page budget
(Section 4.2).  :class:`ObjectBuffer` tracks the resident set and its
size and asks a :class:`~repro.storage.policies.ReplacementPolicy` for
victims when a new object does not fit.

Sizes are kept in *bytes* so fractional-page entries account exactly; the
budget is supplied in bytes too (callers convert a page budget with the
shared :class:`~repro.storage.pages.PageGeometry`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Iterator

from repro.errors import StorageError
from repro.storage.policies import ReplacementPolicy


@dataclass(slots=True)
class BufferedObject:
    """One resident object plus its accounting size."""

    key: Hashable
    payload: Any
    n_bytes: int


class ObjectBuffer:
    """Holds variable-size objects within a byte budget.

    The buffer never performs I/O itself; the caller reads an object from
    the simulated disk and then offers it with :meth:`insert`.  Hit/miss
    and eviction counters are exposed for the replacement-policy ablation.
    """

    def __init__(self, budget_bytes: int, policy: ReplacementPolicy) -> None:
        if budget_bytes < 0:
            raise StorageError(f"budget must be non-negative, got {budget_bytes}")
        self.budget_bytes = budget_bytes
        self.policy = policy
        self._resident: dict[Hashable, BufferedObject] = {}
        self._used_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.rejected = 0

    # --- lookups ---------------------------------------------------------

    def __contains__(self, key: Hashable) -> bool:
        return key in self._resident

    def get(self, key: Hashable) -> Any | None:
        """Return the payload for ``key`` and count a hit, or ``None``."""
        obj = self._resident.get(key)
        if obj is None:
            self.misses += 1
            return None
        self.hits += 1
        self.policy.accessed(key)
        return obj.payload

    def peek(self, key: Hashable) -> Any | None:
        """Like :meth:`get` but without touching hit/miss or policy state."""
        obj = self._resident.get(key)
        return None if obj is None else obj.payload

    # --- mutation --------------------------------------------------------

    def insert(self, key: Hashable, payload: Any, n_bytes: int, priority: float = 0.0) -> bool:
        """Admit an object, evicting as needed.

        Returns ``True`` if the object is now resident.  An object larger
        than the whole budget is *rejected* (returns ``False``): HVNL then
        uses the entry once without caching it, which is what a real
        system does with an oversized fetch.

        Re-offering a resident key is an update, not a no-op: the payload,
        size and replacement priority are refreshed (an inverted entry
        re-read after a collection update may well have grown), the byte
        accounting follows the new size, and a growth that overflows the
        budget evicts — possibly including the updated object itself when
        the policy picks it.
        """
        if n_bytes < 0:
            raise StorageError(f"object size must be non-negative, got {n_bytes}")
        obj = self._resident.get(key)
        if n_bytes > self.budget_bytes:
            if obj is not None:  # the new size can never fit: drop the stale copy
                self.discard(key)
            self.rejected += 1
            return False
        if obj is None:
            self._make_room(n_bytes)
            self._resident[key] = BufferedObject(key, payload, n_bytes)
            self._used_bytes += n_bytes
            self.policy.admitted(key, priority)
            return True
        self._used_bytes += n_bytes - obj.n_bytes
        obj.payload = payload
        obj.n_bytes = n_bytes
        # Re-inform the policy so the new priority takes effect (and the
        # refresh counts as this key's most recent admission).
        self.policy.evicted(key)
        self.policy.admitted(key, priority)
        self._make_room(0)
        return key in self._resident

    def offer_run(self, keys: Iterable[Hashable], lookup: Callable) -> tuple[list, ...]:
        """One probe round: :meth:`get` every key, then offer to :meth:`insert`
        each missing key that ``lookup`` prices as a row ``(payload, n_bytes,
        priority, ...)`` (``None`` skips it).  Returns the hit payloads and
        the rows, each in key order."""
        hits, missing, rows = [], [], []
        for key in keys:
            obj = self._resident.get(key)
            if obj is None:
                missing.append(key)
            else:
                hits.append(obj.payload)
                self.policy.accessed(key)
        self.hits += len(hits)
        self.misses += len(missing)
        for key in missing:
            row = lookup(key)
            if row is not None:
                rows.append(row)
                self.insert(key, row[0], row[1], row[2])
        return hits, rows

    def discard(self, key: Hashable) -> bool:
        """Remove ``key`` without counting an eviction (explicit drop)."""
        obj = self._resident.pop(key, None)
        if obj is None:
            return False
        self._used_bytes -= obj.n_bytes
        self.policy.evicted(key)
        return True

    def clear(self) -> None:
        """Drop every resident object (counters are preserved)."""
        for key in list(self._resident):
            self.discard(key)

    def _make_room(self, n_bytes: int) -> None:
        """Evict the policy's victims, in order, until ``n_bytes`` more fit."""
        limit = self.budget_bytes - n_bytes
        policy, resident = self.policy, self._resident
        while self._used_bytes > limit:
            victim = policy.victim()
            obj = resident.pop(victim, None)
            if obj is None:
                raise StorageError(f"policy chose non-resident victim {victim!r}")
            self._used_bytes -= obj.n_bytes
            policy.evicted(victim)
            self.evictions += 1

    # --- accounting --------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        return self._used_bytes

    @property
    def free_bytes(self) -> int:
        return self.budget_bytes - self._used_bytes

    @property
    def n_resident(self) -> int:
        return len(self._resident)

    @property
    def hit_rate(self) -> float:
        """Fraction of :meth:`get` calls that hit; 0.0 before any lookup."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def keys(self) -> Iterator[Hashable]:
        return iter(self._resident)

    def __len__(self) -> int:
        return len(self._resident)

    def __repr__(self) -> str:
        return (
            f"ObjectBuffer(used={self._used_bytes}/{self.budget_bytes}B, "
            f"resident={len(self._resident)}, hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions})"
        )
