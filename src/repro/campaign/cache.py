"""Content-addressed whole-run cache (the tile cache's on-disk sibling).

PR 2's LRU tile cache memoizes LCG tiles *within* a process because a
tile is a pure function of ``(n, seed, a, c, range)``.  A campaign run
is pure the same way — a function of the job's canonical form and the
code version — so identical configs across sweeps, resumes, and serve
requests should be computed exactly once.  :class:`RunCache` stores one
``repro.campaign.result/v1`` document per key under a cache directory
(``<key>.json``, written atomically), and mirrors hit/miss/store events
into the obs metrics registry as ``campaign.run_cache{event=...}``
counters — the same idiom as ``lcg.tile_cache`` — so closed-loop tests
and ``repro run --metrics`` can verify a re-run sweep was 100% cache hits
with zero recomputation.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional, Union

from repro.obs import context as obs_context
from repro.util.atomicio import atomic_write_json


def _count(event: str) -> None:
    """Mirror a cache event as a ``campaign.run_cache`` obs counter."""
    obs = obs_context.current()
    if obs.enabled:
        obs.metrics.counter("campaign.run_cache", event=event).inc()


class RunCache:
    """Directory of content-addressed campaign results."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> Optional[dict]:
        """The cached result row for ``key``, or None.

        An unreadable or key-mismatched entry counts as a miss (and is
        recomputed) rather than poisoning the sweep.
        """
        p = self._path(key)
        try:
            row = json.loads(p.read_text())
        except (OSError, ValueError):
            row = None
        if not isinstance(row, dict) or row.get("key") != key:
            self.misses += 1
            _count("miss")
            return None
        self.hits += 1
        _count("hit")
        return row

    def put(self, key: str, row: dict) -> str:
        """Store a result row under its content address (atomic write)."""
        path = atomic_write_json(self._path(key), row)
        self.stores += 1
        _count("store")
        return path

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))

    def stats(self) -> Dict[str, int]:
        """Counters + occupancy (mirrors ``TileCache.stats``)."""
        return {
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
        }
