"""Per-layer timing for the end-to-end benchmark, installed from outside.

The benchmark must not edit the program to see into it, so
:class:`LayerTracer` replaces public functions and methods of each layer
with timing wrappers (``install_plan`` / ``install_serve`` /
``install_live``).  Each wrapper counts calls and accumulates wall time
and *self* time — its duration minus the time covered by wrapped calls
made inside it — so a layer's number excludes the layers below it.

Fine-grained calls (fabric deliveries, histogram adds, DES handlers)
are only aggregated; coarse calls also keep a
:class:`repro.obs.Span` in memory, written out as a Chrome trace at the
end of the run next to the spans the program emits itself through
:mod:`repro.obs.spans`.  Call stacks are per thread, because the live
server runs CKKS inferences on worker threads.
"""

from __future__ import annotations

import threading
import time

from repro.obs.spans import Span

__all__ = ["LayerTracer", "install_live", "install_plan", "install_serve"]


class LayerTracer:
    """Wraps callables and aggregates ``{name: [calls, total_s, self_s]}``."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables = []
        self.spans = []

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], {})
            with self._lock:
                self._tables.append(state[1])
        return state

    def _timed(self, name, category, keep, fn, args, kwargs):
        stack, table = self._state()
        frame = [0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            row = table.get(name)
            if row is None:
                row = table[name] = [0, 0.0, 0.0]
            row[0] += 1
            row[1] += duration
            row[2] += duration - frame[0]
            if stack:
                stack[-1][0] += duration
            if keep:
                self.spans.append(Span(name=name, category=category,
                                       start=start, end=end,
                                       depth=len(stack)))

    def wrap(self, owners, attr, name, category, keep=False):
        """Replace ``attr`` on every object in ``owners`` with a timed
        wrapper of the first owner's original.

        Several owners cover a function that callers imported by name
        into their own module namespace.
        """
        fn = getattr(owners[0], attr)
        timed = self._timed

        def wrapper(*args, **kwargs):
            return timed(name, category, keep, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        for owner in owners:
            setattr(owner, attr, wrapper)

    def wrap_iter(self, owners, attr, name, category):
        """Like :meth:`wrap` for a generator function: each ``next()``
        on the returned iterator is timed as one call."""
        fn = getattr(owners[0], attr)
        timed = self._timed

        class _TimedIterator:
            def __init__(self, inner):
                self._next = inner.__next__

            def __iter__(self):
                return self

            def __next__(self):
                return timed(name, category, False, self._next, (), {})

        def wrapper(*args, **kwargs):
            return _TimedIterator(fn(*args, **kwargs))

        for owner in owners:
            setattr(owner, attr, wrapper)

    def table(self):
        """``{name: {"calls", "s", "self_s"}}`` merged over threads."""
        merged = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, (calls, total, self_s) in list(table.items()):
                row = merged.setdefault(name,
                                        {"calls": 0, "s": 0.0, "self_s": 0.0})
                row["calls"] += calls
                row["s"] += total
                row["self_s"] += self_s
        return merged

    def durations(self, name):
        """Durations of the kept spans called ``name``, in seconds."""
        return [s.duration for s in self.spans if s.name == name]


def install_plan(tracer):
    """Model construction, the planner, the simulator and its fabrics."""
    from repro.core.system import HydraSystem
    from repro.sched.planner import Planner
    from repro.sim.engine import Simulator
    from repro.sim.fabrics import FabHostFabric, HydraSwitchFabric
    from repro.sim.result import SimResult

    tracer.wrap([HydraSystem], "build_model", "models.build", "models",
                keep=True)
    tracer.wrap([Planner], "map_step", "sched.map_step", "sched", keep=True)
    tracer.wrap([Simulator], "run", "sim.run", "sim", keep=True)
    tracer.wrap([SimResult], "merge_sequential", "sim.merge", "sim")
    for cls, label in ((HydraSwitchFabric, "hydra"), (FabHostFabric, "fab")):
        for attr in ("broadcast", "unicast"):
            tracer.wrap([cls], attr, f"sim.fabric.{label}.{attr}",
                        "sim.fabrics")


def install_serve(tracer):
    """The DES event loop, the serving core and its telemetry."""
    from repro.obs.streaming import StreamingHistogram
    from repro.serve import core, dispatch, engine, queueing, report

    tracer.wrap([engine.SimDriver], "run", "serve.engine.run", "serve",
                keep=True)
    for attr, name in (("handle_arrival", "arrival"),
                       ("handle_complete", "complete"),
                       ("handle_flush", "flush"),
                       ("try_dispatch", "dispatch"),
                       ("handle_autoscale", "autoscale")):
        tracer.wrap([core.EngineCore], attr, f"serve.core.{name}", "serve")
    tracer.wrap([queueing.AdmissionQueue], "take_batch",
                "serve.queue.take_batch", "serve")
    tracer.wrap([dispatch.ClusterState], "plan_batch",
                "serve.dispatch.plan_batch", "serve")
    tracer.wrap_iter([engine], "iter_arrivals", "serve.arrivals", "serve")
    tracer.wrap([report, engine], "build_report", "serve.report", "serve",
                keep=True)
    tracer.wrap([engine], "build_fleet_report", "serve.report", "serve",
                keep=True)
    tracer.wrap([StreamingHistogram], "add", "obs.hist.add", "obs")


def install_live(tracer):
    """Profile planning, the serving layers and the live CKKS pool."""
    from repro.serve import engine, live
    from repro.serve.live import LiveWorkerPool

    install_serve(tracer)
    tracer.wrap([engine, live], "prepare_profiles",
                "runtime.prepare_profiles", "runtime", keep=True)
    tracer.wrap([LiveWorkerPool], "infer", "ckks.infer", "ckks", keep=True)
    tracer.wrap([LiveWorkerPool], "warm", "live.warm", "live", keep=True)
