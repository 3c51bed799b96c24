"""Admission control and queueing policies.

The front-end is a single bounded queue with explicit rejection (an
overloaded serving system must shed load *somewhere*; dropping at
admission keeps tail latency of admitted requests bounded) plus a
pluggable *ordering policy* deciding which pending request is served
next:

* ``fifo`` — global arrival order;
* ``fair`` — per-tenant fair share: the tenant with the fewest
  dispatched requests goes first (deficit round-robin over tenants,
  ties broken by arrival order);
* ``edf`` — earliest absolute deadline first; requests without a
  deadline sort last.

Batching sits on top of the policy order: the best-ranked *ripe*
request picks the batch key (the model graph, plus the KV cluster for
LLM decode steps), and the batch fills with further pending requests
of the same key in policy order.  A key is ripe when it has a full
batch waiting or when its oldest pending request has aged past the
batch window.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["POLICIES", "AdmissionQueue", "Request", "make_policy"]

_INF = float("inf")


@dataclass(frozen=True)
class Request:
    """One tenant inference request flowing through the system.

    CNN requests are single-phase (``phase`` is None).  LLM requests
    carry multi-phase state: the prefill request opens a session, and
    each generated token re-enters admission as a follow-on ``decode``
    request whose batch key pins the cluster holding the session's KV
    ciphertexts (``(model#decode, kv_cluster_index)``).
    """

    id: int
    tenant: str
    batch_key: tuple  # (model[, kv cluster index])
    arrival: float
    deadline: float = None  # absolute simulated time, None = no SLO
    phase: str = None  # None (single-phase) | "prefill" | "decode"
    session: int = None  # session id (the prefill request's id)
    token_index: int = 0  # 1-based position of the token this produces
    tokens_total: int = 0  # sampled generation length for the session
    prompt_tokens: int = 0  # sampled prompt length (prefill pricing)
    recharge: bool = False  # decode step preceded by a KV recharge

    @property
    def deadline_or_inf(self):
        return _INF if self.deadline is None else self.deadline


class _FifoPolicy:
    name = "fifo"

    def order_key(self, request, queue):
        return (request.arrival, request.id)


class _FairSharePolicy:
    """Least-served tenant first (dispatch-count deficit fairness)."""

    name = "fair"

    def order_key(self, request, queue):
        return (queue.served.get(request.tenant, 0),
                request.arrival, request.id)


class _EdfPolicy:
    name = "edf"

    def order_key(self, request, queue):
        return (request.deadline_or_inf, request.arrival, request.id)


POLICIES = {p.name: p for p in (_FifoPolicy, _FairSharePolicy, _EdfPolicy)}


def make_policy(name):
    """Instantiate a queueing policy by name."""
    try:
        return POLICIES[name]()
    except KeyError:
        raise KeyError(
            f"unknown policy {name!r}; available: {sorted(POLICIES)}"
        ) from None


@dataclass
class AdmissionQueue:
    """Bounded pending-request pool with policy-ordered batch extraction."""

    policy: object
    max_queue: int
    pending: list = field(default_factory=list)
    #: dispatched-request count per tenant (fair-share state)
    served: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.pending)

    def offer(self, request):
        """Admit ``request`` or reject it; returns True when admitted."""
        if len(self.pending) >= self.max_queue:
            return False
        self.pending.append(request)
        return True

    def ripe_keys(self, now, max_requests, window_seconds):
        """Batch keys eligible for dispatch at simulated time ``now``."""
        # One pass: each key's [pending count, earliest pending arrival].
        waiting = {}
        for req in self.pending:
            entry = waiting.get(req.batch_key)
            if entry is None:
                waiting[req.batch_key] = [1, req.arrival]
            else:
                entry[0] += 1
                if req.arrival < entry[1]:
                    entry[1] = req.arrival
        return [key for key, (size, oldest) in waiting.items()
                if size >= max_requests
                or now >= oldest + window_seconds - 1e-12]

    def take_batch(self, now, max_requests, window_seconds,
                   dispatchable=None):
        """Extract the next policy-ordered ripe batch, or None.

        The policy ranks every pending request; the best-ranked request
        whose key is ripe selects the batch key, and up to
        ``max_requests`` same-key requests leave the queue in policy
        order.  Dispatch counts feed back into the fair-share policy.

        ``dispatchable`` optionally filters ripe keys (key -> bool):
        session-affine decode batches must not leave the queue while
        the cluster holding their KV ciphertexts is busy.
        """
        ripe = set(self.ripe_keys(now, max_requests, window_seconds))
        if dispatchable is not None:
            ripe = {key for key in ripe if dispatchable(key)}
        if not ripe:
            return None
        candidates = [r for r in self.pending if r.batch_key in ripe]
        candidates.sort(key=lambda r: self.policy.order_key(r, self))
        key = candidates[0].batch_key
        batch = [r for r in candidates if r.batch_key == key][:max_requests]
        taken = {r.id for r in batch}
        self.pending = [r for r in self.pending if r.id not in taken]
        for req in batch:
            self.served[req.tenant] = self.served.get(req.tenant, 0) + 1
        return batch
