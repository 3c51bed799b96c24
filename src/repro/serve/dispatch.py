"""Service profiles and the fleet dispatcher's cluster occupancy model.

**Service profiles.** A batch's compute time on a cluster is the
Procedure-2 makespan of one full planned model inference — the same
plan-and-simulate path as ``repro run`` — obtained once per
(model, params, cluster) through :mod:`repro.runtime` and its persistent
cache, never re-planned per request.  Within a batch, compatible
requests share the planned program through slot packing, so batch
compute scales as ``base * (1 + f * (B - 1))`` with ``f`` the scenario's
``compute_per_extra_request`` (0 = perfect amortization up to the cap).

**Pipelined occupancy.** Procedure 2 overlaps communication under
computation *inside* a step via the handshake; the fleet dispatcher
extends the same idea one level up.  Each cluster exposes two resources
— a host I/O path (batch staging: setup + input/output ciphertext
transfers over PCIe) and the compute pipeline (the planned program
itself).  In ``pipelined`` mode a cluster accepts the next batch while
the previous one computes or drains: batch *k+1*'s ingress overlaps
batch *k*'s compute, bounded by two batches in flight.  In
``serialized`` mode the whole batch (ingress + compute + egress)
occupies the cluster exclusively — the naive generalization of
Procedure 2's per-step barrier to the fleet, kept as the comparison
baseline.

**Routing.** With several cluster shapes in one fleet the dispatcher
must decide *which* free cluster serves a ripe batch:

* ``greedy`` — earliest completion wins (the historical behavior):
  every batch chases the fastest free cluster, so a big Hydra-L soaks
  up small latency-insensitive work and stalls when a bootstrap-heavy
  batch finally needs it;
* ``slo`` — deadline-aware cost routing: a batch carrying a deadline
  picks the **cheapest** (fewest-card) cluster that still completes
  ``safety_margin_seconds`` before its tightest deadline, falling back
  to earliest-completion when none can.  Latency-sensitive tenants
  land on many small Hydra-S/M replicas while the Hydra-L stays free
  for the heavy batches only it can serve — the workload-dependent
  card-mix effect FAB and Osiris report.

**Elastic lifecycle.** Autoscaled fleets add and retire replicas at
simulated time: a replica is dispatchable from ``active_from`` (its
warm-up deadline) until it is retired; a retired replica finishes its
in-flight batches but accepts no new ones.  ``card_seconds`` integrates
cards over each replica's active span — the fleet cost the capacity
planner and the autoscale-vs-static comparisons minimize.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "BatchSchedule",
    "ClusterState",
    "RoutingConfig",
    "ServiceProfile",
    "select_cluster",
]

_ROUTING_MODES = ("greedy", "slo")


@dataclass(frozen=True)
class ServiceProfile:
    """Per-(model, params, cluster) service costs for one batch."""

    model: str
    params: str
    cluster_name: str
    #: Procedure-2 makespan of one planned inference (simulated seconds)
    compute_seconds: float
    #: size of one staged ciphertext under the tenant's parameter preset
    ciphertext_bytes: float
    #: host link bandwidth used for staging (bytes/s)
    io_bandwidth: float
    #: True when the profile was served from the runtime result cache
    cache_hit: bool = False

    def batch_times(self, size, cts_in, cts_out, overheads):
        """``(t_in, t_compute, t_out)`` for one batch.

        ``size`` is the number of coalesced requests; ``cts_in`` /
        ``cts_out`` are the batch's *total* staged ciphertext counts
        (requests of different tenants may carry different counts even
        under the same batch key).
        """
        t_in = (overheads.batch_setup_seconds
                + cts_in * self.ciphertext_bytes / self.io_bandwidth)
        t_compute = self.compute_seconds * (
            1.0 + overheads.compute_per_extra_request * (size - 1)
        )
        t_out = cts_out * self.ciphertext_bytes / self.io_bandwidth
        return t_in, t_compute, t_out


@dataclass(frozen=True)
class RoutingConfig:
    """The scenario's ``routing`` block (scenario schema v2)."""

    mode: str = "greedy"
    #: required slack between a routed batch's completion and its
    #: tightest deadline before a cheaper cluster is considered safe
    safety_margin_seconds: float = 0.0
    #: route decode batches to the cluster holding their session's KV
    #: ciphertexts (LLM tenants only; False = affinity-blind routing,
    #: which migrates the KV cache over the host link on every switch)
    session_affinity: bool = True

    def __post_init__(self):
        if self.mode not in _ROUTING_MODES:
            raise ValueError(
                f"unknown routing mode {self.mode!r}; "
                f"choose from {_ROUTING_MODES}"
            )
        if self.safety_margin_seconds < 0:
            raise ValueError(
                "routing.safety_margin_seconds must be >= 0"
            )

    @classmethod
    def from_dict(cls, data):
        return cls(
            mode=data.get("mode", "greedy"),
            safety_margin_seconds=float(
                data.get("safety_margin_seconds", 0.0)),
            session_affinity=bool(data.get("session_affinity", True)),
        )

    def to_dict(self):
        data = {
            "mode": self.mode,
            "safety_margin_seconds": self.safety_margin_seconds,
        }
        # Emitted only when non-default so CNN-only reports (and their
        # committed goldens) keep their exact bytes.
        if not self.session_affinity:
            data["session_affinity"] = False
        return data


def select_cluster(plans, routing, tightest_deadline):
    """Pick ``(schedule, cluster)`` from candidate plans.

    ``plans`` is a non-empty list of ``(BatchSchedule, ClusterState)``
    built in cluster-index order; ``tightest_deadline`` is the batch's
    earliest absolute deadline (None when no member has one).  Greedy
    routing — and every fallback — breaks completion-time ties on the
    lower cluster index, so routing is a pure function of the plans.
    """
    if routing.mode == "slo" and tightest_deadline is not None:
        margin = routing.safety_margin_seconds
        feasible = [
            (schedule, cluster) for schedule, cluster in plans
            if schedule.completion <= tightest_deadline - margin
        ]
        if feasible:
            return min(
                feasible,
                key=lambda pc: (pc[1].spec.total_cards,
                                pc[0].completion, pc[1].index))
    return min(plans, key=lambda pc: (pc[0].completion, pc[1].index))


@dataclass(frozen=True)
class BatchSchedule:
    """Resolved phase times of one dispatched batch on one cluster."""

    ingress_start: float
    ingress_end: float
    compute_start: float
    compute_end: float
    egress_start: float
    egress_end: float

    @property
    def completion(self):
        return self.egress_end


#: A replica whose warm-up ends within this of ``now`` is active.
READY_SLACK = 1e-12


@dataclass
class ClusterState:
    """Occupancy bookkeeping for one fleet cluster replica."""

    index: int
    name: str  # fleet entry, e.g. "Hydra-M"
    replica: int  # replica number among same-named entries
    spec: object  # ClusterSpec
    mode: str  # "pipelined" | "serialized"
    #: host link is full duplex: ingress and egress directions are
    #: independent resources, so batch k+1 can stage in while batch k
    #: drains out
    in_free_at: float = 0.0
    out_free_at: float = 0.0
    compute_free_at: float = 0.0
    inflight: int = 0
    batches: int = 0
    requests: int = 0
    #: elastic lifecycle: dispatchable from ``active_from`` (warm-up
    #: deadline of a scaled-up replica) until retired; a retired
    #: replica drains its in-flight batches but accepts no new ones
    active_from: float = 0.0
    retired_at: float = None
    elastic: bool = False
    #: batches in flight at once: pipelined clusters stage the next
    #: batch while one drains
    inflight_limit: int = field(init=False)

    def __post_init__(self):
        self.inflight_limit = 2 if self.mode == "pipelined" else 1
        # A cold replica's resources free up when its warm-up ends.
        if self.active_from > 0.0:
            self.in_free_at = max(self.in_free_at, self.active_from)
            self.out_free_at = max(self.out_free_at, self.active_from)
            self.compute_free_at = max(self.compute_free_at,
                                       self.active_from)

    @property
    def label(self):
        return f"{self.name}#{self.replica}"

    def available(self, now):
        """True when the replica may accept a new batch at ``now``."""
        return (self.retired_at is None
                and self.active_from <= now + READY_SLACK)

    def retire(self, now):
        self.retired_at = float(now)

    def active_until(self, horizon):
        """End of this replica's active (billed) span.

        A retired replica is billed until the later of its retirement
        and the drain of its committed batches; a live replica is
        billed to the fleet horizon.  Replicas that never activated
        inside the horizon bill zero.
        """
        if self.retired_at is None:
            end = horizon
        else:
            end = max(self.retired_at, self.compute_free_at,
                      self.out_free_at)
        return max(end, self.active_from)

    def card_seconds(self, horizon):
        """Cards integrated over the replica's active span."""
        span = self.active_until(horizon) - self.active_from
        return self.spec.total_cards * max(0.0, span)

    def plan_batch(self, now, t_in, t_compute, t_out):
        """Phase times a batch dispatched at ``now`` would get (pure)."""
        if self.mode == "serialized":
            # Exclusive occupancy: one resource serves ingress, compute
            # and egress back to back.
            start = max(now, self.compute_free_at)
            return BatchSchedule(
                ingress_start=start,
                ingress_end=start + t_in,
                compute_start=start + t_in,
                compute_end=start + t_in + t_compute,
                egress_start=start + t_in + t_compute,
                egress_end=start + t_in + t_compute + t_out,
            )
        ingress_start = max(now, self.in_free_at)
        ingress_end = ingress_start + t_in
        compute_start = max(ingress_end, self.compute_free_at)
        compute_end = compute_start + t_compute
        egress_start = max(compute_end, self.out_free_at)
        egress_end = egress_start + t_out
        return BatchSchedule(
            ingress_start=ingress_start,
            ingress_end=ingress_end,
            compute_start=compute_start,
            compute_end=compute_end,
            egress_start=egress_start,
            egress_end=egress_end,
        )

    def occupy_egress(self, now, seconds):
        """Occupy the host-link egress path outside a batch.

        Used for KV-cache exports under affinity-blind routing: the
        migrated ciphertexts stream *out* of this cluster's host link
        before they can stage into the target, delaying whatever
        egress (or, serialized, whatever work at all) follows.
        Returns the transfer's ``(start, end)`` span.
        """
        if self.mode == "serialized":
            start = max(now, self.compute_free_at)
            self.compute_free_at = start + seconds
        else:
            start = max(now, self.out_free_at)
            self.out_free_at = start + seconds
        return start, start + seconds

    def commit_batch(self, schedule, size):
        """Occupy the cluster's resources for a planned batch."""
        if self.mode == "serialized":
            self.compute_free_at = schedule.egress_end
        else:
            self.in_free_at = schedule.ingress_end
            self.out_free_at = schedule.egress_end
            self.compute_free_at = schedule.compute_end
        self.inflight += 1
        self.batches += 1
        self.requests += size
