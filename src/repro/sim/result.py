"""Simulation results and accounting.

Every result type here serializes to plain JSON structures
(``to_dict`` / ``from_dict``) with exact float round-trip, so the
:mod:`repro.runtime` persistent cache can store full-fidelity results
on disk, and pickles cleanly for process-pool fan-out.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

__all__ = ["SimResult", "NodeStats", "TraceEvent"]


@dataclass(frozen=True)
class TraceEvent:
    """One recorded interval of simulated activity (for Gantt views).

    ``step`` and ``channel`` are optional provenance labels: the
    host-scheduled step the event belongs to (Procedure 2) and, for
    send/recv events, the ``"src->dst"`` fabric channel.  Both default
    to None so cache blobs written before they existed still load.
    """

    node: int
    kind: str  # "compute" | "send" | "recv"
    tag: str
    start: float
    end: float
    step: str = None
    channel: str = None

    @property
    def duration(self):
        return self.end - self.start

    def shifted(self, offset):
        """The same event translated ``offset`` seconds later."""
        return dataclasses.replace(self, start=self.start + offset,
                                   end=self.end + offset)

    def to_dict(self):
        data = dataclasses.asdict(self)
        # Omit unset optional labels: keeps blobs compact and identical
        # to the pre-step/channel on-disk format.
        for key in ("step", "channel"):
            if data[key] is None:
                del data[key]
        return data

    _FIELDS = ("node", "kind", "tag", "start", "end", "step", "channel")

    @classmethod
    def from_dict(cls, data):
        # Tolerate both old blobs (missing step/channel) and future ones
        # (unknown extra keys).
        return cls(**{k: data[k] for k in cls._FIELDS if k in data})


@dataclass
class NodeStats:
    """Per-card accounting."""

    compute_busy: float = 0.0
    comm_busy: float = 0.0
    compute_done_at: float = 0.0
    comm_done_at: float = 0.0
    tasks_executed: int = 0

    def to_dict(self):
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data):
        return cls(**data)


@dataclass
class SimResult:
    """Outcome of one simulated task step (or a whole model run)."""

    makespan: float = 0.0
    nodes: list = field(default_factory=list)
    #: compute busy seconds per tag, summed over all nodes
    tag_compute: dict = field(default_factory=dict)
    #: exposed (critical-path) seconds per tag: max over nodes per step
    tag_span: dict = field(default_factory=dict)
    bytes_transferred: float = 0.0
    transfers: int = 0
    #: accumulated OpComponents for energy accounting (may be None)
    components_total: object = None
    #: per-card accumulated OpTrace (entry may be None for idle cards);
    #: empty list when no task carried an op trace
    node_ops: list = field(default_factory=list)
    #: recorded TraceEvents (only when the simulator ran with trace=True)
    trace: list = field(default_factory=list)

    @property
    def num_nodes(self):
        return len(self.nodes)

    @property
    def total_compute_busy(self):
        return sum(n.compute_busy for n in self.nodes)

    @property
    def mean_compute_busy(self):
        if not self.nodes:
            return 0.0
        return self.total_compute_busy / len(self.nodes)

    @property
    def comm_overhead_fraction(self):
        """Share of the makespan not covered by average compute busy time.

        This is the "communication overhead" of paper Fig. 8/9: everything
        on the critical path that is not computation — exposed transfers,
        handshake waits, and load imbalance introduced by distribution.
        """
        if self.makespan <= 0:
            return 0.0
        return max(0.0, 1.0 - self.mean_compute_busy / self.makespan)

    def total_ops(self):
        """All cards' op traces summed into one :class:`~repro.ir.OpTrace`.

        Returns None when no simulated task carried an op trace
        (hand-built programs).
        """
        present = [t for t in self.node_ops if t is not None]
        if not present:
            return None
        total = present[0].scaled(1)
        for t in present[1:]:
            total.update(t)
        return total

    def merge_sequential(self, other):
        """Append a later step executed after a barrier (Procedure 2).

        ``other`` must be a step-local result: a non-negative makespan
        with every trace event inside ``[0, other.makespan]``.  An event
        outside that window would land before the barrier (on top of the
        timeline merged so far) or past the step's declared end, so the
        merge validates up front and raises instead of silently
        producing a corrupt full-run timeline.  No state is mutated on
        failure.
        """
        if not self.nodes:
            self.nodes = [NodeStats() for _ in other.nodes]
        if len(self.nodes) != len(other.nodes):
            raise ValueError("cannot merge results with different node counts")
        if not other.makespan >= 0:
            raise ValueError(
                f"cannot append step with makespan {other.makespan!r}; "
                f"steps merge in execution order with non-negative spans"
            )
        tol = 1e-9 * max(1.0, other.makespan)
        for ev in other.trace:
            if ev.end < ev.start:
                raise ValueError(
                    f"trace event {ev.tag!r} on node {ev.node} ends "
                    f"before it starts ({ev.end} < {ev.start})"
                )
            if ev.start < -tol or ev.end > other.makespan + tol:
                raise ValueError(
                    f"out-of-order append: trace event {ev.tag!r} on "
                    f"node {ev.node} spans [{ev.start}, {ev.end}] outside "
                    f"the step window [0, {other.makespan}]; steps must "
                    f"be appended in execution order with step-local "
                    f"timestamps"
                )
        if other.trace:
            # Later steps start after the barrier: translate their events
            # past everything merged so far, giving one full-run timeline.
            offset = self.makespan
            self.trace.extend(ev.shifted(offset) for ev in other.trace)
        self.makespan += other.makespan
        for mine, theirs in zip(self.nodes, other.nodes):
            mine.compute_busy += theirs.compute_busy
            mine.comm_busy += theirs.comm_busy
            mine.tasks_executed += theirs.tasks_executed
        for tag, sec in other.tag_compute.items():
            self.tag_compute[tag] = self.tag_compute.get(tag, 0.0) + sec
        for tag, sec in other.tag_span.items():
            self.tag_span[tag] = self.tag_span.get(tag, 0.0) + sec
        self.bytes_transferred += other.bytes_transferred
        self.transfers += other.transfers
        if other.components_total is not None:
            if self.components_total is None:
                self.components_total = other.components_total
            else:
                self.components_total = (
                    self.components_total + other.components_total
                )
        if other.node_ops:
            if not self.node_ops:
                self.node_ops = [None] * len(self.nodes)
            for i, theirs in enumerate(other.node_ops):
                if theirs is None:
                    continue
                if self.node_ops[i] is None:
                    self.node_ops[i] = theirs.scaled(1)  # private copy
                else:
                    self.node_ops[i].update(theirs)
        return self

    def to_dict(self):
        components = self.components_total
        return {
            "makespan": self.makespan,
            "nodes": [n.to_dict() for n in self.nodes],
            "tag_compute": dict(self.tag_compute),
            "tag_span": dict(self.tag_span),
            "bytes_transferred": self.bytes_transferred,
            "transfers": self.transfers,
            "components_total": (
                None if components is None else components.to_dict()
            ),
            "node_ops": [
                None if t is None else t.to_dict() for t in self.node_ops
            ],
            "trace": [ev.to_dict() for ev in self.trace],
        }

    @classmethod
    def from_dict(cls, data):
        from repro.cost.model import OpComponents
        from repro.ir import OpTrace

        components = data["components_total"]
        node_ops = [
            None if t is None else OpTrace.from_dict(t)
            for t in data["node_ops"]
        ]
        return cls(
            makespan=data["makespan"],
            nodes=[NodeStats.from_dict(n) for n in data["nodes"]],
            tag_compute=dict(data["tag_compute"]),
            tag_span=dict(data["tag_span"]),
            bytes_transferred=data["bytes_transferred"],
            transfers=data["transfers"],
            components_total=(
                None if components is None
                else OpComponents.from_dict(components)
            ),
            node_ops=node_ops,
            trace=[TraceEvent.from_dict(ev) for ev in data["trace"]],
        )
