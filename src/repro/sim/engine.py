"""The discrete-event engine executing node programs under Procedure 1.

Each card runs two sequential engines — computation and communication —
that exchange signals exactly as the paper's synchronization mechanism
prescribes (Section IV-C):

* a data-dependent compute task (``CT_d``) blocks until the next
  unconsumed receive completion (Compute-After-Receive);
* a send blocks until its producing compute task finished
  (Send-After-Compute) *and* until every receiver has configured its DMA
  and signaled ready (the handshake);
* a receive signals ready immediately, then blocks until delivery.

Inter-node synchronization therefore reduces to communication
synchronization, with no host involvement — the host only learns about
completion when both queues drain (Procedure 2 handles the step barrier in
:mod:`repro.sched.planner`).

Events pop in ``(time, push order)``.  An event pushed at the current
simulated time waits in a FIFO as ``(kind, target)``; a later one is a
``(time, seq, kind, target)`` heap entry.  The loop pops the heap while
its top is at the current time, then the FIFO, and only then advances
the clock: a heap entry at time ``t`` was pushed before the clock
reached ``t``, so it precedes every same-time FIFO entry.  A wake that
would return at once when it pops is never pushed (see
:meth:`Simulator._wake_comm`), and the deliveries one send makes at one
instant share a single event; both leave the order of every other
event unchanged (DESIGN.md §4).
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush

from repro.obs.metrics import inc as _metric_inc
from repro.sim.fabrics import build_fabric
from repro.sim.program import BROADCAST, RecvTask, SendTask
from repro.sim.result import NodeStats, SimResult, TraceEvent

__all__ = ["Simulator", "SimulationError"]

# Event kinds: wake a node's compute or comm engine, or deliver one
# send's data to its receivers at one time.
_COMPUTE, _COMM, _DELIVER = 0, 1, 2


class SimulationError(RuntimeError):
    """Raised on deadlock or malformed programs."""


class _NodeState:
    __slots__ = (
        "compute", "comm", "n_compute", "n_comm",
        "comp_idx", "comp_busy_until", "comp_finished", "recvs_consumed",
        "comm_idx", "comm_busy_until", "awaiting_delivery", "delivery_at",
        "scan", "recv_done_times", "stats",
    )

    def __init__(self, program):
        self.compute = program.compute
        self.comm = program.comm
        self.n_compute = len(program.compute)
        self.n_comm = len(program.comm)
        self.comp_idx = 0
        self.comp_busy_until = 0.0
        self.comp_finished = [None] * len(program.compute)
        self.recvs_consumed = 0
        self.comm_idx = 0
        self.comm_busy_until = 0.0
        self.awaiting_delivery = False
        # Time of the scheduled delivery while awaiting one (None: the
        # sender has not fired yet).
        self.delivery_at = None
        # Resume index into the head send's destinations: the ones
        # before it already signaled ready, and only this send can
        # consume those signals, so they stay ready until it fires.
        self.scan = 0
        self.recv_done_times = []
        self.stats = NodeStats()


class Simulator:
    """Executes one set of node programs on a cluster.

    With ``trace=True`` every compute task, send occupation and delivery
    is recorded as a :class:`~repro.sim.result.TraceEvent` on the result
    (Gantt-chart material; adds memory proportional to task count).
    """

    def __init__(self, cluster, trace=False):
        self.cluster = cluster
        self.fabric = build_fabric(cluster)
        self.trace_enabled = trace
        n = cluster.total_cards
        self._broadcast_dsts = [tuple(d for d in range(n) if d != node)
                                for node in range(n)]

    # ------------------------------------------------------------------

    def run(self, programs, step=None):
        """Simulate the programs to completion; returns a SimResult.

        ``step`` optionally names the host-scheduled step being
        simulated; traced events carry it in their ``step`` field.
        """
        n = self.cluster.total_cards
        if len(programs) != n:
            raise SimulationError(
                f"got {len(programs)} programs for {n} cards"
            )
        self._step = step
        self.fabric.reset()
        self._n = n
        self._nodes = nodes = [_NodeState(p) for p in programs]
        self._heap = heap = []
        self._fifo = fifo = deque()
        self._seq = 0
        self._now = now = 0.0
        # Ready signals issued minus consumed, per channel src * n + dst.
        self._avail = [0] * (n * n)
        self._result = SimResult(nodes=[s.stats for s in nodes])
        self._components = None
        self._node_ops = [None] * n

        for node in range(n):
            self._wake_compute(node, 0.0)
            self._wake_comm(node, 0.0)
        events = idle = 0
        advance_comm = self._advance_comm
        advance_compute = self._advance_compute
        deliver = self._deliver
        popleft = fifo.popleft
        while True:
            if fifo and (not heap or heap[0][0] != now):
                kind, target = popleft()
            elif heap:
                now, _, kind, target = heappop(heap)
                self._now = now
            else:
                break
            events += 1
            if kind == _COMM:
                # Checked here, not in _advance_comm: most idle comm
                # wakes end on it, and so skip a call.
                st = nodes[target]
                if (st.awaiting_delivery or now < st.comm_busy_until
                        or not advance_comm(target, st, now)):
                    idle += 1
            elif kind == _COMPUTE:
                if not advance_compute(target, now):
                    idle += 1
            else:
                for node in target:
                    deliver(node, now)
        self._check_finished()
        result = self._result
        result.makespan = self._makespan()
        result.components_total = self._components
        if any(t is not None for t in self._node_ops):
            result.node_ops = list(self._node_ops)
        for st in nodes:
            st.stats.compute_done_at = st.comp_busy_until
            st.stats.comm_done_at = st.comm_busy_until
        _metric_inc("sim.engine.runs")
        _metric_inc("sim.engine.events", events)
        _metric_inc("sim.engine.idle_wakes", idle)
        _metric_inc("sim.engine.tasks",
                    sum(st.stats.tasks_executed for st in nodes))
        _metric_inc("sim.engine.transfers", result.transfers)
        _metric_inc("sim.engine.bytes_transferred", result.bytes_transferred)
        return result

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------

    def _wake_compute(self, node, time):
        """Wake ``node``'s compute engine at ``time``, unless that wake
        would return at once: the queue is done, or the engine is busy
        past ``time`` (busy-until only grows)."""
        st = self._nodes[node]
        if st.comp_idx < st.n_compute and time >= st.comp_busy_until:
            if time == self._now:
                self._fifo.append((_COMPUTE, node))
            else:
                self._seq += 1
                heappush(self._heap, (time, self._seq, _COMPUTE, node))

    def _wake_comm(self, node, time):
        """Wake ``node``'s comm engine at ``time``, unless that wake would
        return at once.

        Besides a finished queue or a busy engine, that is the case
        while the engine awaits a delivery scheduled strictly after
        ``time``, or one not scheduled yet with ``time`` the current
        time: this wake would join the FIFO, and a delivery scheduled
        later either joins it behind the wake (at the current time) or
        waits in the heap (later), so it pops after this wake.  A
        pending delivery at ``time`` itself would pop first and could
        unblock the engine, so that wake is kept.
        """
        st = self._nodes[node]
        if st.comm_idx >= st.n_comm or time < st.comm_busy_until:
            return
        if st.awaiting_delivery:
            at = st.delivery_at
            if at is None:
                if time == self._now:
                    return
            elif at > time:
                return
        if time == self._now:
            self._fifo.append((_COMM, node))
        else:
            self._seq += 1
            heappush(self._heap, (time, self._seq, _COMM, node))

    # ------------------------------------------------------------------
    # Compute engine
    # ------------------------------------------------------------------

    def _advance_compute(self, node, now):
        """Run compute tasks from ``now``; False if none could start."""
        st = self._nodes[node]
        if now < st.comp_busy_until:
            return False  # the end-of-task wake will re-advance
        tasks = st.compute
        started = False
        while st.comp_idx < st.n_compute:
            task = tasks[st.comp_idx]
            if task.needs_recv:
                if len(st.recv_done_times) <= st.recvs_consumed:
                    return started  # blocked on CAR; delivery re-advances
                recv_time = st.recv_done_times[st.recvs_consumed]
                st.recvs_consumed += 1
                now = max(now, recv_time)
            started = True
            end = now + task.duration
            st.stats.compute_busy += task.duration
            st.stats.tasks_executed += 1
            self._account_compute(node, task)
            if self.trace_enabled and task.duration > 0:
                self._result.trace.append(TraceEvent(
                    node=node, kind="compute", tag=task.tag,
                    start=now, end=end, step=self._step,
                ))
            st.comp_finished[st.comp_idx] = end
            st.comp_idx += 1
            st.comp_busy_until = end
            # Fire the finish signal: wakes this node's comm engine for
            # any Send-After-Compute.
            self._wake_comm(node, end)
            if task.duration > 0:
                self._wake_compute(node, end)  # resume the loop at `end`
                return True
            now = end
        return started

    def _account_compute(self, node, task):
        tags = self._result.tag_compute
        tags[task.tag] = tags.get(task.tag, 0.0) + task.duration
        if task.components is not None:
            if self._components is None:
                self._components = task.components
            else:
                self._components = self._components + task.components
        if task.ops is not None:
            # Lazy per-node accumulators, updated in place: the hot loop
            # must not churn trace objects per task.
            acc = self._node_ops[node]
            if acc is None:
                from repro.ir import OpTrace

                acc = self._node_ops[node] = OpTrace()
            acc.update(task.ops)

    # ------------------------------------------------------------------
    # Communication engine
    # ------------------------------------------------------------------

    def _advance_comm(self, node, st, now):
        """Run comm tasks from ``now``; False if none could start.

        The caller has checked that the engine is neither awaiting a
        delivery nor busy past ``now``.
        """
        tasks = st.comm
        started = False
        while st.comm_idx < st.n_comm:
            task = tasks[st.comm_idx]
            if task.__class__ is SendTask:
                if not self._try_send(node, st, task, now):
                    return started  # a finish/ready signal re-advances
                started = True
                st.comm_idx += 1
                # The fabric releases the sender no earlier than `now`.
                if st.comm_busy_until > now:
                    self._wake_comm(node, st.comm_busy_until)
                    return True
            elif task.__class__ is RecvTask:
                self._avail[task.src * self._n + node] += 1
                st.awaiting_delivery = True
                # The sender may be blocked on this ready signal.
                self._wake_comm(task.src, now)
                return True
            else:  # pragma: no cover - builder prevents this
                raise SimulationError(f"unknown comm task {task!r}")
        return started

    def _try_send(self, node, st, task, now):
        if task.after_compute is not None:
            if task.after_compute >= len(st.comp_finished):
                raise SimulationError(
                    f"send on node {node} depends on compute task "
                    f"{task.after_compute}, but only "
                    f"{len(st.comp_finished)} exist"
                )
            finish = st.comp_finished[task.after_compute]
            if finish is None or finish > now:
                return False
        if task.dst == BROADCAST:
            dsts = self._broadcast_dsts[node]
            multicast = True
        elif isinstance(task.dst, tuple):
            dsts = task.dst
            multicast = True
        else:
            dsts = (task.dst,)
            multicast = False
        avail = self._avail
        base = node * self._n
        for i in range(st.scan, len(dsts)):
            if avail[base + dsts[i]] <= 0:
                st.scan = i
                return False
        st.scan = 0
        for dst in dsts:
            avail[base + dst] -= 1
        if multicast:
            release, deliveries = self.fabric.broadcast(
                node, dsts, task.size, now
            )
        else:
            release, deliveries = self.fabric.unicast(
                node, task.dst, task.size, now
            )
        st.stats.comm_busy += release - now
        st.comm_busy_until = release
        self._result.bytes_transferred += task.size * len(dsts)
        self._result.transfers += len(dsts)
        if self.trace_enabled:
            if task.dst == BROADCAST:
                send_channel = f"{node}->*"
            elif multicast:
                send_channel = f"{node}->{{{','.join(map(str, dsts))}}}"
            else:
                send_channel = f"{node}->{task.dst}"
            self._result.trace.append(TraceEvent(
                node=node, kind="send", tag=task.tag,
                start=now, end=release, step=self._step,
                channel=send_channel,
            ))
            for dst, t in deliveries.items():
                self._result.trace.append(TraceEvent(
                    node=dst, kind="recv", tag=task.tag,
                    start=now, end=t, step=self._step,
                    channel=f"{node}->{dst}",
                ))
        # One event per delivery time, receivers in destination order:
        # one-per-receiver events would be pushed back to back, so
        # nothing else could pop between equal-time ones.
        groups = {}
        for dst, t in deliveries.items():
            self._nodes[dst].delivery_at = t
            groups.setdefault(t, []).append(dst)
        for t, receivers in groups.items():
            if t == self._now:
                self._fifo.append((_DELIVER, receivers))
            else:
                self._seq += 1
                heappush(self._heap, (t, self._seq, _DELIVER, receivers))
        return True

    def _deliver(self, node, now):
        st = self._nodes[node]
        if not st.awaiting_delivery:
            raise SimulationError(
                f"delivery at node {node} with no pending receive "
                f"(programs are mismatched)"
            )
        st.awaiting_delivery = False
        st.delivery_at = None
        st.recv_done_times.append(now)
        st.comm_idx += 1
        st.comm_busy_until = max(st.comm_busy_until, now)
        self._wake_compute(node, now)
        self._wake_comm(node, now)

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------

    def _makespan(self):
        span = 0.0
        for st in self._nodes:
            span = max(span, st.comp_busy_until, st.comm_busy_until)
            if st.recv_done_times:
                span = max(span, st.recv_done_times[-1])
        return span

    def _check_finished(self):
        stuck = []
        for node, st in enumerate(self._nodes):
            if st.comp_idx < len(st.compute):
                stuck.append(
                    f"node {node}: compute stalled at task {st.comp_idx}/"
                    f"{len(st.compute)} ({st.compute[st.comp_idx]!r})"
                )
            if st.comm_idx < len(st.comm):
                stuck.append(
                    f"node {node}: comm stalled at task {st.comm_idx}/"
                    f"{len(st.comm)} ({st.comm[st.comm_idx]!r})"
                )
        if stuck:
            raise SimulationError(
                "deadlock: " + "; ".join(stuck[:8])
                + ("" if len(stuck) <= 8 else f" (+{len(stuck) - 8} more)")
            )
