"""Two-tier result cache keyed by job fingerprint.

Tier 1 is an in-process LRU (bounded, eviction-counted); tier 2 is an
optional on-disk JSON store (one ``<fingerprint>.json`` file per entry,
written through :func:`repro.io.save_json_atomic` so entries carry the
standard ``kind``/``version`` envelope and a reader never sees half a
file). Disk entries from an older :data:`repro.io.FORMAT_VERSION` — or
corrupt/mismatched files — are treated as misses, counted as
invalidations, and deleted. A failed disk write (full disk, I/O error)
is counted in ``write_errors`` and otherwise ignored: the summary is
already computed and still served from memory.

The cached value is the flat :func:`repro.flow.result_summary` dict: it
round-trips through JSON bit-exactly (floats included), which is what
lets a cache-served sweep produce byte-identical CSV to a fresh run.

The tiers split by cost. :meth:`ResultCache.get_memory` and
``peek(..., disk=False)`` touch only the memory tier, so the server
calls them on its event loop; :meth:`ResultCache.get` and
:meth:`ResultCache.peek` may read disk and run on executor threads.
"""

from __future__ import annotations

import pathlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Optional, Union

from .. import io as reproio
from ..errors import CacheError

#: Document kind stamped into on-disk cache entries.
RESULT_KIND = "design-result"


@dataclass
class CacheStats:
    """Hit/miss/eviction accounting for one :class:`ResultCache`."""

    hits_memory: int = 0
    hits_disk: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    invalidations: int = 0
    write_errors: int = 0

    @property
    def hits(self) -> int:
        return self.hits_memory + self.hits_disk

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Hits / lookups; 0.0 before any lookup."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "hits_memory": self.hits_memory,
            "hits_disk": self.hits_disk,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "write_errors": self.write_errors,
            "hit_ratio": self.hit_ratio,
        }


class ResultCache:
    """LRU memory tier over an optional JSON directory tier."""

    def __init__(
        self,
        capacity: int = 1024,
        cache_dir: Optional[Union[str, pathlib.Path]] = None,
    ) -> None:
        if capacity < 1:
            raise CacheError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.cache_dir: Optional[pathlib.Path] = None
        if cache_dir is not None:
            self.cache_dir = pathlib.Path(cache_dir)
            try:
                self.cache_dir.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise CacheError(
                    f"cannot create cache directory {self.cache_dir}: {exc}"
                ) from exc
        self.stats = CacheStats()
        self._memory: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        # One lock covers both tiers *and* the stats counters, so
        # hit/miss/store accounting stays exact when many threads (the
        # server's event loop and its executor threads) use one cache.
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def _disk_path(self, fingerprint: str) -> pathlib.Path:
        assert self.cache_dir is not None
        return self.cache_dir / f"{fingerprint}.json"

    def _load_disk(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """Read one disk entry; invalidate anything unusable."""
        if self.cache_dir is None:
            return None
        path = self._disk_path(fingerprint)
        if not path.exists():
            return None
        try:
            doc = reproio.load_json(path)
            reproio.validate_document(doc, RESULT_KIND)
            if doc.get("fingerprint") != fingerprint:
                raise CacheError(f"fingerprint mismatch in {path.name}")
            return doc["summary"]
        except Exception:
            # Stale format version, truncated write, hand-edited file —
            # all the same to us: drop it and recompute.
            self.stats.invalidations += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def _memory_hit(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """Memory-tier lookup under the held lock; counts only a hit."""
        summary = self._memory.get(fingerprint)
        if summary is not None:
            self._memory.move_to_end(fingerprint)
            self.stats.hits_memory += 1
        return summary

    def get(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """Look up a result summary; ``None`` on miss."""
        with self._lock:
            summary = self._memory_hit(fingerprint)
            if summary is not None:
                return summary
            summary = self._load_disk(fingerprint)
            if summary is not None:
                self.stats.hits_disk += 1
                self._remember(fingerprint, summary)
                return summary
            self.stats.misses += 1
            return None

    def get_memory(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """:meth:`get` restricted to the memory tier.

        It never reads disk, so an event loop may call it. A hit counts
        as ``hits_memory`` and touches the LRU; a miss counts nothing,
        because the caller falls back to :meth:`get`, which counts it.
        """
        with self._lock:
            return self._memory_hit(fingerprint)

    def peek(
        self, fingerprint: str, disk: bool = True
    ) -> Optional[Dict[str, Any]]:
        """Side-effect-free lookup: no stats, no LRU touch.

        The server's ``GET /v1/jobs/<fingerprint>`` endpoint uses this
        so read-only job polling cannot perturb the hit/miss accounting
        the concurrency tests (and capacity planning) rely on. With
        ``disk=False`` only the memory tier is consulted — the server
        does that on its event loop and leaves the disk read to an
        executor thread.
        """
        with self._lock:
            if fingerprint in self._memory:
                return self._memory[fingerprint]
        if not disk or self.cache_dir is None:
            return None
        path = self._disk_path(fingerprint)
        if not path.exists():
            return None
        try:
            doc = reproio.load_json(path)
            reproio.validate_document(doc, RESULT_KIND)
            if doc.get("fingerprint") != fingerprint:
                return None
            summary: Dict[str, Any] = doc["summary"]
            return summary
        except Exception:
            return None

    def put(self, fingerprint: str, summary: Dict[str, Any]) -> None:
        """Store a result summary in both tiers.

        A disk write that fails with :class:`OSError` is counted in
        ``stats.write_errors`` and does not raise.
        """
        with self._lock:
            self.stats.stores += 1
            self._remember(fingerprint, summary)
            if self.cache_dir is None:
                return
            try:
                reproio.save_json_atomic(
                    {
                        "kind": RESULT_KIND,
                        "version": reproio.FORMAT_VERSION,
                        "fingerprint": fingerprint,
                        "summary": summary,
                    },
                    self._disk_path(fingerprint),
                )
            except OSError:
                self.stats.write_errors += 1

    def _remember(self, fingerprint: str, summary: Dict[str, Any]) -> None:
        self._memory[fingerprint] = summary
        self._memory.move_to_end(fingerprint)
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)
            self.stats.evictions += 1

    def clear_memory(self) -> None:
        """Drop the memory tier (disk entries survive)."""
        with self._lock:
            self._memory.clear()

    def close(self) -> None:
        """Release the memory tier.

        Disk writes are write-through (`put` persists immediately), so
        closing only drops the LRU; it exists so
        :meth:`repro.service.DesignService.close` has one flush point
        and is safe to call more than once.
        """
        self.clear_memory()
