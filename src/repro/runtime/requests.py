"""Declarative experiment descriptions: ``RunRequest`` → ``RunResult``.

A :class:`RunRequest` names everything needed to reproduce one
simulation — workload, deployment (by registry name or explicit
:class:`~repro.hw.ClusterSpec`), energy accounting, and planner
configuration — and is a frozen, picklable value object, so the executor
can ship it to worker processes and the fingerprint module can key the
persistent cache off it.  :func:`paper_grid` builds the paper's full
7-system × 4-benchmark evaluation grid.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ckks.params import PAPER_PARAMS
from repro.cost.calibration import DEFAULT_CALIBRATION
from repro.runtime.fingerprint import run_key

__all__ = ["RunRequest", "RunResult", "paper_grid", "DEFAULT_ROUNDS"]

#: Planner default distribution rounds (mirrors ``Planner.__init__``).
DEFAULT_ROUNDS = 4


@dataclass(frozen=True)
class RunRequest:
    """One full-model simulation to perform.

    Exactly one of ``system`` (a registry name, see
    :func:`repro.core.available_systems`) or ``cluster`` (an explicit
    spec) must be given.  ``params`` / ``calibration`` default to the
    paper configuration when None.
    """

    benchmark: str
    system: str = None
    cluster: object = None
    with_energy: bool = True
    params: object = None
    calibration: object = None
    rounds: int = DEFAULT_ROUNDS

    def __post_init__(self):
        if (self.system is None) == (self.cluster is None):
            raise ValueError(
                "specify exactly one of system= (registry name) or "
                "cluster= (explicit ClusterSpec)"
            )

    # ------------------------------------------------------------------

    @property
    def system_name(self):
        return self.system if self.system is not None else self.cluster.name

    @property
    def label(self):
        return f"{self.benchmark} @ {self.system_name}"

    def resolve_cluster(self):
        if self.cluster is not None:
            return self.cluster
        from repro.core.system import cluster_named

        return cluster_named(self.system)

    def effective_params(self):
        return PAPER_PARAMS if self.params is None else self.params

    def effective_calibration(self):
        return (DEFAULT_CALIBRATION if self.calibration is None
                else self.calibration)

    def planner_kwargs(self):
        return {
            "params": self.effective_params(),
            "calibration": self.effective_calibration(),
            "rounds": self.rounds,
        }

    def key(self):
        """Full config fingerprint key for the result cache."""
        return run_key(
            self.resolve_cluster(),
            self.effective_params(),
            self.effective_calibration(),
            self.rounds,
            self.benchmark,
            self.with_energy,
        )

    def build_system(self, cache=None):
        """A ready :class:`~repro.core.HydraSystem` for this request."""
        from repro.core.system import HydraSystem

        return HydraSystem(self.resolve_cluster(), cache=cache,
                           **self.planner_kwargs())

    def execute(self):
        """Simulate uncached; returns the raw ``ModelRunResult``."""
        system = self.build_system()
        return system.run(self.benchmark, with_energy=self.with_energy,
                          use_cache=False)


@dataclass
class RunResult:
    """One completed request plus provenance metadata."""

    request: RunRequest
    result: object  #: the ModelRunResult
    key: str
    cache_hit: bool = False
    #: wall-clock seconds spent producing the result (0.0 for hits)
    seconds: float = 0.0
    #: worker slot that simulated it (None = cache or main process)
    worker: int = None
    #: metrics snapshot recorded while simulating (None for cache hits)
    metrics: dict = None


def paper_grid(systems=None, benchmarks=None, with_energy=True):
    """Requests for the paper's evaluation grid (defaults: all × all)."""
    from repro.core.system import available_benchmarks, available_systems

    systems = list(systems) if systems else available_systems()
    benchmarks = list(benchmarks) if benchmarks else available_benchmarks()
    return [
        RunRequest(benchmark=b, system=s, with_energy=with_energy)
        for s in systems
        for b in benchmarks
    ]
