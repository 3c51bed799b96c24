"""High-level entry point: build a Hydra deployment and run benchmarks.

This is the paper's primary contribution assembled: the scale-out
architecture (hardware + fabric), the task mapping strategies, and the
synchronization machinery, behind one class::

    from repro.core import HydraSystem

    system = HydraSystem.hydra_m()           # 1 server x 8 cards
    result = system.run("resnet18")
    print(result.total_seconds, result.comm_overhead_fraction)

Results are planned through the runtime's one cached plan path,
:func:`repro.runtime.execute`, into an injectable
:class:`repro.runtime.RunCache` keyed by the *full* configuration
fingerprint (cluster, calibration, code version — see
:mod:`repro.runtime.fingerprint`), so deployments that differ in any
modelled quantity never serve each other's results.  By
default all ``HydraSystem`` instances share the process-wide
:func:`repro.runtime.default_cache`; pass ``cache=`` to isolate, or use
:class:`repro.runtime.SqlitePlanStore` for persistence across processes.

The pre-runtime module-level helpers ``run_benchmark`` /
``clear_run_cache`` were removed in 1.2.0; use
``HydraSystem.named(name).run(...)`` and
``repro.runtime.default_cache().clear()``.
"""

from __future__ import annotations

from repro.baselines.fab import FAB_L, FAB_M, FAB_S
from repro.baselines.poseidon import POSEIDON
from repro.cost.calibration import DEFAULT_CALIBRATION
from repro.hw.cluster import HYDRA_L, HYDRA_M, HYDRA_S, hydra_cluster
from repro.models import BENCHMARKS
from repro.runtime.cache import default_cache
from repro.runtime.executor import execute
from repro.runtime.requests import RunRequest
from repro.sched.planner import Planner

__all__ = [
    "HydraSystem",
    "available_benchmarks",
    "available_systems",
    "cluster_named",
]

_SYSTEMS = {
    "Hydra-S": HYDRA_S,
    "Hydra-M": HYDRA_M,
    "Hydra-L": HYDRA_L,
    "FAB-S": FAB_S,
    "FAB-M": FAB_M,
    "FAB-L": FAB_L,
    "Poseidon": POSEIDON,
}


def available_benchmarks():
    """Names of the paper's four benchmarks."""
    return sorted(BENCHMARKS)


def available_systems():
    """Names of the predefined deployments."""
    return list(_SYSTEMS)


def cluster_named(name):
    """The :class:`~repro.hw.ClusterSpec` of a predefined deployment."""
    try:
        return _SYSTEMS[name]
    except KeyError:
        raise KeyError(
            f"unknown system {name!r}; available: {available_systems()}"
        ) from None


class HydraSystem:
    """One deployment (cluster + planner) ready to run benchmarks.

    Parameters
    ----------
    cluster:
        The deployment's :class:`~repro.hw.ClusterSpec`.
    cache:
        A :class:`repro.runtime.RunCache` for results; None shares the
        process-wide :func:`repro.runtime.default_cache`.
    calibration:
        The tuned constants (:class:`~repro.cost.Calibration`) the
        :class:`~repro.sched.Planner` plans with.
    """

    def __init__(self, cluster, cache=None,
                 calibration=DEFAULT_CALIBRATION):
        self.cluster = cluster
        self.planner = Planner(cluster, calibration=calibration)
        self.cache = default_cache() if cache is None else cache

    # ------------------------------------------------------------------
    # Prototype constructors (paper Section V-A)
    # ------------------------------------------------------------------

    @classmethod
    def hydra_s(cls, **kw):
        """1 server, 1 card (no DTU)."""
        return cls(HYDRA_S, **kw)

    @classmethod
    def hydra_m(cls, **kw):
        """1 server, 8 cards behind one switch."""
        return cls(HYDRA_M, **kw)

    @classmethod
    def hydra_l(cls, **kw):
        """8 servers x 8 cards, two-tier switching."""
        return cls(HYDRA_L, **kw)

    @classmethod
    def custom(cls, servers, cards_per_server, **kw):
        """Arbitrary scale-out deployment (the paper's 'arbitrary
        computational nodes' claim)."""
        return cls(hydra_cluster(servers, cards_per_server), **kw)

    @classmethod
    def named(cls, name, **kw):
        return cls(cluster_named(name), **kw)

    # ------------------------------------------------------------------

    @property
    def total_cards(self):
        return self.cluster.total_cards

    def build_model(self, benchmark):
        if "#" in benchmark:
            # Phase-qualified LLM graphs ("bert_base#decode") resolve
            # through repro.llm so worker processes can rebuild them
            # from the qualified name alone; the CNN benchmark grid is
            # untouched.
            from repro.llm.profile import phase_model

            return phase_model(benchmark)
        try:
            return BENCHMARKS[benchmark]()
        except KeyError:
            raise KeyError(
                f"unknown benchmark {benchmark!r}; available: "
                f"{available_benchmarks()}"
            ) from None

    def _request(self, benchmark, with_energy):
        """The :class:`~repro.runtime.RunRequest` of one :meth:`run`."""
        graph = None if isinstance(benchmark, str) else benchmark
        return RunRequest(
            benchmark=benchmark if graph is None else graph.name,
            cluster=self.cluster, model=graph, with_energy=with_energy,
            calibration=self.planner.calibration,
        )

    def run_key(self, benchmark, with_energy=True):
        """Cache key of one run under this system's full configuration."""
        return self._request(benchmark, with_energy).key()

    def run(self, benchmark, *, with_energy=True, use_cache=True):
        """Run one benchmark to completion; returns a ModelRunResult.

        ``benchmark`` is a registered name or a
        :class:`~repro.models.ModelGraph`; everything after it is
        keyword-only.  ``use_cache=False`` plans directly, with no
        cache key, lock or store.
        """
        if use_cache:
            request = self._request(benchmark, with_energy)
            return execute([request], cache=self.cache)[0].result
        model = (self.build_model(benchmark) if isinstance(benchmark, str)
                 else benchmark)
        return self.planner.run_model(model, with_energy=with_energy)
