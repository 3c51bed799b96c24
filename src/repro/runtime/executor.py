"""Fan :class:`RunRequest` grids out over worker processes.

The executor separates *what* runs from *how* it runs: cache hits are
resolved up front, duplicate requests are deduplicated by fingerprint
key, and only genuine misses are simulated — serially for ``jobs=1`` or
over a :class:`~concurrent.futures.ProcessPoolExecutor` otherwise.
Results are merged back **in request order** regardless of completion
order, so a parallel execution is byte-identical to a serial one; only
the manifest's timing metadata differs.  Every cached plan, from
:meth:`repro.core.HydraSystem.run` too, goes through :func:`execute`'s
lookup → lock → re-check → plan → store, so processes sharing one
:class:`~repro.runtime.SqlitePlanStore` compile each plan once.
"""

from __future__ import annotations

import contextlib
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field

from repro.obs.metrics import MetricsRegistry, merge_snapshots, use_registry
from repro.runtime.cache import default_cache
from repro.runtime.manifest import RunManifest
from repro.runtime.requests import RunResult

__all__ = ["ExecutionResult", "execute"]


def _simulate(request):
    """Worker entry point: one uncached simulation.

    Module-level so it pickles into worker processes.  Runs under a
    fresh :class:`~repro.obs.MetricsRegistry`, so the returned snapshot
    holds exactly this request's counters — the parent merges snapshots
    in request order, making ``jobs=N`` metric output bit-identical to a
    serial run.  Also returns wall time and the worker's PID (mapped to
    a stable slot number by the parent).
    """
    registry = MetricsRegistry()
    start = time.perf_counter()
    with use_registry(registry):
        result = request.execute()
    return (result, time.perf_counter() - start, os.getpid(),
            registry.snapshot())


def _simulations(todo, jobs):
    """Yield ``(key, result, provenance)`` per ``todo`` entry as it
    finishes: in order in this process for ``jobs=1``, else from a
    process pool, with the worker's stable slot number.
    """
    if jobs == 1:
        for key, request in todo.items():
            result, seconds, _pid, metrics = _simulate(request)
            yield key, result, {"seconds": seconds, "metrics": metrics}
    elif todo:
        worker_slot = {}  # pid -> stable small slot number
        with ProcessPoolExecutor(max_workers=min(jobs, len(todo))) as pool:
            futures = {pool.submit(_simulate, request): key
                       for key, request in todo.items()}
            for future in as_completed(futures):
                result, seconds, pid, metrics = future.result()
                slot = worker_slot.setdefault(pid, len(worker_slot))
                yield futures[future], result, {
                    "seconds": seconds, "worker": slot, "metrics": metrics}


@dataclass
class ExecutionResult:
    """Ordered results of one grid execution plus its manifest."""

    results: list = field(default_factory=list)  #: RunResult, input order
    manifest: RunManifest = field(default_factory=RunManifest)

    def __iter__(self):
        return iter(self.results)

    def __len__(self):
        return len(self.results)

    def __getitem__(self, index):
        return self.results[index]

    def by_label(self):
        """``{(system_name, benchmark): ModelRunResult}`` lookup map."""
        return {
            (rr.request.system_name, rr.request.benchmark): rr.result
            for rr in self.results
        }


def execute(requests, jobs=1, cache=None, use_cache=True):
    """Run a request grid; returns an :class:`ExecutionResult`.

    Parameters
    ----------
    requests:
        Iterable of :class:`~repro.runtime.RunRequest`.
    jobs:
        Worker processes for cache misses (1 = simulate in-process).
    cache:
        A :class:`~repro.runtime.RunCache`; None uses the process
        default.  Workers never touch the cache — the parent stores
        their results, so a shared disk cache sees no write races.
    use_cache:
        False bypasses lookup, locking *and* storage entirely.
    """
    requests = list(requests)
    cache = default_cache() if cache is None else cache
    jobs = max(1, int(jobs))
    stale_before = cache.stats.stale
    start = time.perf_counter()

    results = [None] * len(requests)
    pending = {}  # key -> [request indices] (deduplicated misses)
    for i, request in enumerate(requests):
        key = request.key()
        cached = cache.get(key) if use_cache else None
        if cached is not None:
            results[i] = RunResult(request=request, result=cached, key=key,
                                   cache_hit=True)
        else:
            pending.setdefault(key, []).append(i)

    def _finish(key, result, **provenance):
        for idx in pending[key]:
            results[idx] = RunResult(request=requests[idx], result=result,
                                     key=key, **provenance)

    with contextlib.ExitStack() as unwind:
        # Claim every pending key in sorted order, so processes racing
        # on overlapping grids cannot deadlock.  A claim holds the key's
        # lock from the re-check until its plan is stored; a late hit
        # releases it at once.
        release = {}
        for key in sorted(pending):
            claim = unwind.enter_context(contextlib.ExitStack())
            late = (claim.enter_context(cache.claim(key)) if use_cache
                    else None)
            if late is None:
                release[key] = claim.close
            else:
                claim.close()
                _finish(key, late, cache_hit=True)
        todo = {key: requests[indices[0]]
                for key, indices in pending.items() if key in release}
        for key, result, provenance in _simulations(todo, jobs):
            if use_cache:
                cache.put(key, result)
            release[key]()
            _finish(key, result, **provenance)

    manifest = RunManifest(jobs=jobs, records=results,
                           wall_seconds=time.perf_counter() - start)
    # Merge per-simulation metric snapshots in request order (one per
    # deduplicated key, first occurrence) — deterministic regardless of
    # worker completion order — then fold in parent-side cache counters.
    parent = MetricsRegistry()
    parent.inc("runtime.cache.hits",
               sum(1 for rr in results if rr.cache_hit))
    parent.inc("runtime.cache.misses", len(todo))
    parent.inc("runtime.cache.stale", cache.stats.stale - stale_before)
    parent.inc("runtime.requests", len(requests))
    manifest.metrics = merge_snapshots(
        [results[indices[0]].metrics for indices in pending.values()
         if results[indices[0]].metrics is not None]
        + [parent.snapshot()]
    )
    return ExecutionResult(results=results, manifest=manifest)
