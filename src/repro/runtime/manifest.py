"""Run manifests: what a grid execution did and what it cost.

Every :func:`repro.runtime.execute` call produces a
:class:`RunManifest` — one :class:`~repro.runtime.RunResult` per
request, recording the cache key, whether it was served from cache, the
wall-clock seconds spent simulating, and which worker slot did the work
— plus the execution's total wall time and worker count.  The manifest
serializes to plain data (JSON) so sweeps can be audited after the fact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = ["RunManifest"]


@dataclass
class RunManifest:
    """Accounting for one grid execution."""

    jobs: int = 1
    wall_seconds: float = 0.0
    #: one :class:`~repro.runtime.RunResult` per request, in input order
    records: list = field(default_factory=list)
    #: merged metrics snapshot of every simulation in this execution
    #: plus the parent's cache counters (see repro.obs.metrics)
    metrics: dict = None

    # ------------------------------------------------------------------

    @property
    def runs(self):
        return len(self.records)

    @property
    def hits(self):
        return sum(1 for r in self.records if r.cache_hit)

    @property
    def misses(self):
        return self.runs - self.hits

    @property
    def hit_rate(self):
        if not self.records:
            return 0.0
        return self.hits / self.runs

    @property
    def workers_used(self):
        """Distinct worker slots that actually simulated something."""
        return len({r.worker for r in self.records
                    if not r.cache_hit and r.worker is not None})

    @property
    def simulated_seconds(self):
        """Wall-clock seconds spent inside simulations (sum over runs)."""
        return sum(r.seconds for r in self.records if not r.cache_hit)

    def summary(self):
        parts = [
            f"{self.runs} runs",
            f"{self.hits} cache hits / {self.misses} simulated",
            f"wall {self.wall_seconds:.2f} s",
        ]
        if self.misses:
            parts.append(
                f"{self.simulated_seconds:.2f} s of simulation "
                f"across {max(1, self.workers_used)} worker(s), "
                f"jobs={self.jobs}"
            )
        return " | ".join(parts)

    def to_dict(self):
        return {
            "jobs": self.jobs,
            "wall_seconds": self.wall_seconds,
            "runs": self.runs,
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "hit_rate": self.hit_rate,
            "workers_used": self.workers_used,
            "simulated_seconds": self.simulated_seconds,
            "metrics": self.metrics,
            "records": [r.to_dict() for r in self.records],
        }

    def to_json(self, indent=2):
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)
