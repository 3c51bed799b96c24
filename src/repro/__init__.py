"""Hydra: scale-out FHE accelerator architecture for secure deep learning.

A full-system reproduction of the HPCA 2025 paper, comprising:

* :mod:`repro.ckks` — a from-scratch functional CKKS implementation
  (with :mod:`repro.math` and :mod:`repro.poly` underneath);
* :mod:`repro.hw`, :mod:`repro.cost` — FPGA card/cluster models and the
  per-operation latency/energy models at the paper's parameters;
* :mod:`repro.sim` — the discrete-event simulator executing per-card task
  queues under the paper's Procedure-1 handshake synchronization;
* :mod:`repro.sched` — the task decomposition and mapping strategies
  (ConvBN/Pooling/FC/Non-linear/PCMM/CCMM/Bootstrapping);
* :mod:`repro.models` — the four benchmark workloads of Table I;
* :mod:`repro.baselines` — FAB, Poseidon, and ASIC reference points;
* :mod:`repro.core` — the :class:`~repro.core.HydraSystem` facade;
* :mod:`repro.runtime` — the parallel experiment runtime: declarative
  run requests, process-pool fan-out with deterministic merging, the
  persistent fingerprint-keyed result cache, and run manifests;
* :mod:`repro.analysis` — censuses and table rendering for the
  experiment harnesses in ``benchmarks/``;
* :mod:`repro.backend` — pluggable NTT kernel providers (numpy /
  numba) behind the ring-product hot path.
"""

from repro.core import HydraSystem

__version__ = "1.2.0"

__all__ = ["HydraSystem", "__version__"]
