"""Normalized-query result cache for the serving layer.

Range queries repeat: a front end serving "at least 25% blue" to many
users should pay the catalog walk once.  :class:`ResultCache` memoizes
whole :class:`~repro.core.query.QueryResult` sets keyed by the
*normalized* query (constraints sorted, expansion flag included), with
the two standard production controls:

* **LRU capacity** — the least recently used entry is evicted when the
  cache is full;
* **TTL** — entries older than ``ttl`` seconds are dropped on access
  (a safety net against anything the invalidation path cannot see).

Correctness does not rest on the TTL: the cache subscribes to the
bounds engine's invalidation events
(:meth:`repro.core.bounds.BoundsEngine.add_invalidation_listener`), the
same dependency-aware channel that keeps BOUNDS memos fresh.  Every
catalog mutation — insert, update, or delete of any image — fires an
invalidation, and the result cache drops **everything**: a range query's
result set can be changed by *any* image appearing or vanishing, so
per-image precision would buy nothing here.  Between mutations the cache
serves hits; after a mutation it is empty.  That is the contract the
concurrency stress test pins: no stale hit, ever.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, Optional, Sequence, Tuple

from repro.core.query import RangeQuery
from repro.errors import ServiceError

#: The normalized cache key: sorted constraint triples + expansion flag.
CacheKey = Tuple[Tuple[Tuple[int, float, float], ...], bool]


def cache_key(
    constraints: Sequence[RangeQuery], expand_to_bases: bool = False
) -> CacheKey:
    """Normalize a query into its cache identity.

    Constraint order never changes a conjunction's result set, so the
    triples are sorted — "at least 20% red and at most 10% blue" and its
    flipped phrasing share one entry.
    """
    if not constraints:
        raise ServiceError("cannot build a cache key for zero constraints")
    triples = sorted(
        (query.bin_index, query.pct_min, query.pct_max) for query in constraints
    )
    return (tuple(triples), bool(expand_to_bases))


class ResultCache:
    """Thread-safe LRU + TTL cache of query results.

    Parameters
    ----------
    capacity:
        Maximum number of entries; the least recently used entry is
        evicted beyond it.
    ttl:
        Seconds an entry stays servable, or ``None`` for no expiry.
    clock:
        Monotonic time source (injectable so tests control expiry).
    """

    def __init__(
        self,
        capacity: int = 256,
        ttl: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity < 1:
            raise ServiceError("cache capacity must be at least 1")
        if ttl is not None and ttl <= 0:
            raise ServiceError("cache ttl must be positive (or None)")
        self._capacity = capacity
        self._ttl = ttl
        self._clock = clock
        # Guards only the cache's own OrderedDict; no catalog access.
        self._lock = threading.Lock()
        #: key -> (value, stored_at); OrderedDict gives LRU order.
        self._entries: "OrderedDict[Hashable, Tuple[Any, float]]" = OrderedDict()
        self._engine = None
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0
        self.invalidations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached value, or ``None`` on miss/expiry."""
        now = self._clock()
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            value, stored_at = entry
            if self._ttl is not None and now - stored_at > self._ttl:
                del self._entries[key]
                self.expirations += 1
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Store a value, evicting the LRU entry when full."""
        now = self._clock()
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = (value, now)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self, *, count_invalidation: bool = False) -> int:
        """Drop every entry; returns the number dropped."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            if count_invalidation:
                self.invalidations += 1
            return dropped

    # ------------------------------------------------------------------
    # Engine invalidation hook
    # ------------------------------------------------------------------
    def attach_to_engine(self, engine) -> None:
        """Subscribe to a bounds engine's invalidation events.

        Any catalog mutation routed through the engine's
        ``invalidate``/``invalidate_cache`` path clears this cache, so a
        query served after the mutation can never observe the old result
        set.
        """
        if self._engine is not None:
            raise ServiceError("result cache is already attached to an engine")
        self._engine = engine
        engine.add_invalidation_listener(self._on_invalidation)

    def detach(self) -> None:
        """Unsubscribe from the engine (idempotent)."""
        if self._engine is not None:
            self._engine.remove_invalidation_listener(self._on_invalidation)
            self._engine = None

    def _on_invalidation(self, image_id: Optional[str]) -> None:
        self.clear(count_invalidation=True)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Hit/miss/eviction/expiry/invalidation counters plus size."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "expirations": self.expirations,
                "invalidations": self.invalidations,
                "entries": len(self._entries),
            }
