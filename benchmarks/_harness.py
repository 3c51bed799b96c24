"""Shared helpers for the per-table/figure benchmark harnesses.

Every harness regenerates one table or figure of the paper's evaluation
section and prints it in paper layout.  Full-model simulations go
through :mod:`repro.runtime`, so the suite shares runs via the
process-wide result cache — and, when ``$REPRO_CACHE_DIR`` is set,
through the persistent on-disk cache, making repeated suite invocations
near-instant.
"""

from __future__ import annotations

from repro.runtime import RunRequest, execute

BENCHMARK_LABELS = {
    "resnet18": "ResNet-18",
    "resnet50": "ResNet-50",
    "bert_base": "BERT-base",
    "opt_6_7b": "OPT-6.7B",
}

ALL_BENCHMARKS = tuple(BENCHMARK_LABELS)

CNN_BENCHMARKS = ("resnet18", "resnet50")
LLM_BENCHMARKS = ("bert_base", "opt_6_7b")


def run(benchmark, system, with_energy=True):
    """Cached full-model run on a named deployment."""
    request = RunRequest(benchmark=benchmark, system=system,
                         with_energy=with_energy)
    return execute([request])[0].result


def run_cluster(benchmark, cluster, with_energy=True):
    """Cached full-model run on an explicit :class:`ClusterSpec`."""
    request = RunRequest(benchmark=benchmark, cluster=cluster,
                         with_energy=with_energy)
    return execute([request])[0].result


def procedure_order(benchmark):
    """Fig. 6 procedure ordering per benchmark family."""
    if benchmark in CNN_BENCHMARKS:
        return ("ConvBN", "ReLU", "Pooling", "FC", "Boot")
    return ("Attention", "FFN", "Norm", "Boot")

