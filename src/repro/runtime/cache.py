"""Run-result caches: the cache protocol and the in-memory cache.

Persistent caching lives under ``$REPRO_CACHE_DIR`` (or
``~/.cache/repro-hydra/`` when unset).  Because keys are full
configuration fingerprints (:mod:`repro.runtime.fingerprint`), entries
never go stale: any change to cluster, CKKS parameters, calibration,
planner rounds, or simulation code lands on a different key, and
orphaned entries are just never read again.

The persistent store is :class:`~repro.runtime.SqlitePlanStore`
(sqlite + per-key file locks, safe for concurrent server processes).

:func:`default_cache` is the process-wide cache that
:class:`~repro.core.HydraSystem` uses when none is injected — an
in-memory cache normally, or the sqlite plan store when
``$REPRO_CACHE_DIR`` is set.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "CacheStats",
    "RunCache",
    "MemoryCache",
    "StaleEntry",
    "default_cache",
    "set_default_cache",
    "default_cache_dir",
]

#: Environment variable overriding the persistent cache directory.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"


def default_cache_dir():
    """Resolve the persistent cache directory (not created yet)."""
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-hydra"


@dataclass
class CacheStats:
    """Lookup accounting for one cache instance.

    ``stale`` counts misses caused by an entry that *exists* but could
    not be used (corrupt JSON or an incompatible on-disk format) — a
    subset of ``misses``.
    """

    hits: int = 0
    misses: int = 0
    puts: int = 0
    stale: int = 0

    @property
    def lookups(self):
        return self.hits + self.misses

    @property
    def hit_rate(self):
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups


class StaleEntry(Exception):
    """Raised by ``_load`` for an entry that exists but cannot be used."""


class RunCache:
    """Maps fingerprint keys to :class:`ModelRunResult` objects.

    Subclasses implement ``_load`` / ``_store`` / ``clear`` /
    ``__contains__`` / ``__len__``; ``get``/``put``/``claim`` add stats
    accounting.  ``_load`` returns None for an absent key and raises
    :class:`StaleEntry` for an unusable one.
    """

    def __init__(self):
        self.stats = CacheStats()

    def get(self, key):
        """The cached result for ``key``, or None (counted as hit/miss)."""
        try:
            result = self._load(key)
        except StaleEntry:
            self.stats.stale += 1
            result = None
        if result is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return result

    def put(self, key, result):
        self.stats.puts += 1
        self._store(key, result)

    def lock(self, key):
        """Cross-process exclusion for compiling ``key``.

        The base implementation is a no-op context manager — a
        process-local cache has nothing to exclude.  Stores shared
        between processes (:class:`~repro.runtime.SqlitePlanStore`)
        override this with a real per-key file lock.
        """
        return contextlib.nullcontext()

    @contextlib.contextmanager
    def claim(self, key):
        """Hold ``key``'s :meth:`lock` and look it up again.

        Yields the entry another process stored while this one waited
        (a late hit, counted as a hit), or None: the caller then plans
        ``key`` and :meth:`put`-s it before leaving the block.  The
        re-check belongs to the :meth:`get` that missed, which already
        counted a stale entry.
        """
        with self.lock(key):
            try:
                late = self._load(key)
            except StaleEntry:
                late = None
            if late is not None:
                self.stats.hits += 1
            yield late

    def _load(self, key):
        raise NotImplementedError

    def _store(self, key, result):
        raise NotImplementedError

    def clear(self):
        raise NotImplementedError

    def __contains__(self, key):
        raise NotImplementedError

    def __len__(self):
        raise NotImplementedError


class MemoryCache(RunCache):
    """Process-local dictionary cache (shared object identity)."""

    def __init__(self):
        super().__init__()
        self._entries = {}

    def _load(self, key):
        return self._entries.get(key)

    def _store(self, key, result):
        self._entries[key] = result

    def clear(self):
        self._entries.clear()

    def __contains__(self, key):
        return key in self._entries

    def __len__(self):
        return len(self._entries)


_default = None


def default_cache():
    """The process-wide cache used when none is injected.

    A :class:`MemoryCache` normally; a
    :class:`~repro.runtime.SqlitePlanStore` when ``$REPRO_CACHE_DIR``
    is set (so whole benchmark-suite invocations persist their runs
    without any code change, and concurrent server processes share one
    store safely).
    """
    global _default
    if _default is None:
        if os.environ.get(ENV_CACHE_DIR):
            from repro.runtime.planstore import SqlitePlanStore
            _default = SqlitePlanStore()
        else:
            _default = MemoryCache()
    return _default


def set_default_cache(cache):
    """Replace the process-wide default cache (None = re-resolve lazily)."""
    global _default
    _default = cache
