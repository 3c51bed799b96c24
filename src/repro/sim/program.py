"""Task programs: the instruction streams loaded into each card's queues.

Hydra's host scheduling software preloads task instructions onto every
FPGA before execution (paper Section IV-D); data parallelism and
dependencies are embedded in the instructions themselves.  A
:class:`NodeProgram` is that instruction stream; :class:`ProgramBuilder`
is the host-side compiler the mapping strategies use to emit matched
send/receive pairs and compute tasks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cost.model import OpComponents
    from repro.ir import OpTrace

__all__ = [
    "BROADCAST",
    "ComputeTask",
    "SendTask",
    "RecvTask",
    "NodeProgram",
    "ProgramBuilder",
]

#: Destination sentinel for broadcast sends (paper Section IV-B: the DTU
#: and switch support sending to all other cards simultaneously).
BROADCAST = -1


@dataclass(frozen=True)
class ComputeTask:
    """One entry of the computation task queue.

    ``needs_recv`` marks the task as data-dependent (``CT_d``): it waits
    for the next unconsumed receive-completion signal before executing.
    ``components`` optionally carries the per-CU time/traffic breakdown for
    energy accounting; ``ops`` optionally carries the modeled
    :class:`~repro.ir.OpTrace` the task's duration was lowered from, so
    the simulator can report per-card FHE-op histograms.
    """

    duration: float
    tag: str = "compute"
    needs_recv: bool = False
    components: Optional["OpComponents"] = None
    ops: Optional["OpTrace"] = None

    def __post_init__(self):
        if self.duration < 0:
            raise ValueError(f"negative task duration {self.duration}")


@dataclass(frozen=True)
class SendTask:
    """Send ``size`` bytes to ``dst`` after compute task ``after_compute``
    (index into the same node's compute queue) finishes; ``None`` means
    the data is already resident.  ``dst`` is a node index, BROADCAST, or
    a tuple of node indices (switch multicast to a card subset)."""

    dst: object
    size: float
    after_compute: Optional[int] = None
    tag: str = "comm"

    def __post_init__(self):
        if self.size < 0:
            raise ValueError(f"negative send size {self.size}")


@dataclass(frozen=True)
class RecvTask:
    """Receive ``size`` bytes from ``src``."""

    src: int
    size: float
    tag: str = "comm"


@dataclass
class NodeProgram:
    """The two instruction queues of one accelerator card."""

    compute: list = field(default_factory=list)
    comm: list = field(default_factory=list)

    @property
    def is_empty(self):
        return not self.compute and not self.comm


class ProgramBuilder:
    """Emits matched task programs for all nodes of a cluster.

    Send/receive pairs are created together so the FIFO channel matching
    the engine performs (k-th send from ``src`` to ``dst`` pairs with the
    k-th receive from ``src`` at ``dst``) is correct by construction.
    """

    def __init__(self, num_nodes):
        if num_nodes < 1:
            raise ValueError("need at least one node")
        self.num_nodes = num_nodes
        self.programs = [NodeProgram() for _ in range(num_nodes)]

    def _check_node(self, node):
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} out of range [0, {self.num_nodes})")

    # ------------------------------------------------------------------

    def compute(self, node, duration, tag="compute", needs_recv=False,
                components=None, ops=None):
        """Append a compute task; returns its queue index (for SAC links)."""
        self._check_node(node)
        queue = self.programs[node].compute
        queue.append(ComputeTask(duration=duration, tag=tag,
                                 needs_recv=needs_recv,
                                 components=components, ops=ops))
        return len(queue) - 1

    def transfer(self, src, dst, size, after=None, tag="comm"):
        """Point-to-point transfer: a send at ``src``, a recv at ``dst``."""
        self._check_node(src)
        self._check_node(dst)
        if src == dst:
            raise ValueError("cannot transfer a ciphertext to the same node")
        self.programs[src].comm.append(
            SendTask(dst=dst, size=size, after_compute=after, tag=tag)
        )
        self.programs[dst].comm.append(
            RecvTask(src=src, size=size, tag=tag)
        )

    def broadcast(self, src, size, after=None, tag="comm"):
        """Broadcast from ``src`` to every other node."""
        self._check_node(src)
        if self.num_nodes < 2:
            raise ValueError("broadcast requires at least two nodes")
        self.programs[src].comm.append(
            SendTask(dst=BROADCAST, size=size, after_compute=after, tag=tag)
        )
        recv = RecvTask(src=src, size=size, tag=tag)  # frozen: shareable
        for node in range(self.num_nodes):
            if node != src:
                self.programs[node].comm.append(recv)

    def multicast(self, src, dsts, size, after=None, tag="comm"):
        """Multicast from ``src`` to the node subset ``dsts``."""
        self._check_node(src)
        dsts = tuple(sorted(set(dsts)))
        if src in dsts:
            raise ValueError("multicast destinations must exclude the source")
        if not dsts:
            raise ValueError("multicast needs at least one destination")
        for d in dsts:
            self._check_node(d)
        self.programs[src].comm.append(
            SendTask(dst=dsts, size=size, after_compute=after, tag=tag)
        )
        recv = RecvTask(src=src, size=size, tag=tag)
        for node in dsts:
            self.programs[node].comm.append(recv)

    def build(self):
        """Return the per-node programs (the builder can keep being used)."""
        return self.programs
