"""Op traces: per-op, per-level operation counts, plus live recording.

An :class:`OpTrace` is the currency every layer exchanges: the CKKS
evaluator *records* one while executing, the scheduler *constructs* one
per mapped task, the cost model *lowers* one into
:class:`~repro.cost.OpComponents`, and the simulator *aggregates* them
per card.  Traces are addable, scalable and JSON round-trippable, so
they travel through the persistent result cache unchanged.

Recording uses a collector stack: :func:`record_op` is the single
instrumentation point the CKKS layer routes through — it bumps the
existing observability counter *and* feeds every active collector, so
``with collect_ops() as trace:`` captures exactly the operations
executed inside the block (collectors nest; each sees the full stream).
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.ir.ops import coerce_op, order_index
from repro.obs.metrics import inc as _metric_inc

__all__ = [
    "OpTrace",
    "collect_ops",
    "record_op",
]


def _sort_key(key):
    op, level = key
    return (order_index(op), level is not None, level if level is not None
            else 0)


class OpTrace:
    """Counts of FHE operations, keyed by ``(op, level)``.

    ``level`` is the ciphertext level the operation executed (or is
    modeled) at, or ``None`` when unknown/unbound — :meth:`at_level`
    binds unbound entries, and :meth:`totals` aggregates over levels.
    Equality, hashing of keys, and serialization are order-insensitive;
    iteration (:meth:`items`) is deterministic in the canonical op order.
    """

    __slots__ = ("_counts",)

    def __init__(self, counts=None):
        self._counts = {}
        if counts:
            items = counts.items() if hasattr(counts, "items") else counts
            for (op, level), count in items:
                self.record(op, count, level=level)

    @classmethod
    def single(cls, op, count=1, level=None):
        """A trace holding ``count`` occurrences of one operation."""
        trace = cls()
        trace.record(op, count, level=level)
        return trace

    # ------------------------------------------------------------------
    # Recording (in-place; used by collectors and hot accumulation)
    # ------------------------------------------------------------------

    def record(self, op, count=1, level=None):
        """Add ``count`` occurrences of ``op`` at ``level`` (in place).

        Zero counts are dropped: a trace never stores empty entries, so
        ``bool(trace)``, ``items()`` and serialization stay minimal.
        """
        if not count:
            return
        op = coerce_op(op)
        if level is not None:
            level = int(level)
        key = (op, level)
        counts = self._counts
        counts[key] = counts.get(key, 0) + count

    def update(self, other, factor=1):
        """Accumulate ``other`` (optionally scaled) into self, in place."""
        counts = self._counts
        for key, count in other._counts.items():
            counts[key] = counts.get(key, 0) + count * factor

    # ------------------------------------------------------------------
    # Algebra (returns new traces)
    # ------------------------------------------------------------------

    def __add__(self, other):
        out = OpTrace()
        out.update(self)
        out.update(other)
        return out

    def scaled(self, factor):
        """A trace with every count multiplied by ``factor``."""
        out = OpTrace()
        out.update(self, factor)
        return out

    def at_level(self, level):
        """Bind every level-less entry to ``level`` (returns a new trace)."""
        out = OpTrace()
        for (op, lvl), count in self._counts.items():
            out.record(op, count, level=level if lvl is None else lvl)
        return out

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def items(self):
        """``((op, level), count)`` pairs in canonical deterministic order."""
        return [
            (key, self._counts[key])
            for key in sorted(self._counts, key=_sort_key)
        ]

    def total(self, op):
        """Total count of ``op`` over all levels."""
        op = coerce_op(op)
        return sum(c for (o, _), c in self._counts.items() if o is op)

    def totals(self):
        """``{op_name: count}`` aggregated over levels, canonical order."""
        out = {}
        for (op, _), count in self.items():
            out[op.value] = out.get(op.value, 0) + count
        return out

    @property
    def total_ops(self):
        return sum(self._counts.values())

    def __bool__(self):
        return any(self._counts.values())

    def __eq__(self, other):
        if not isinstance(other, OpTrace):
            return NotImplemented
        keys = set(self._counts) | set(other._counts)
        return all(
            self._counts.get(k, 0) == other._counts.get(k, 0) for k in keys
        )

    def __repr__(self):
        inner = ", ".join(
            f"{op.value}@{'*' if lvl is None else lvl}={count:g}"
            for (op, lvl), count in self.items()
        )
        return f"OpTrace({inner})"

    # ------------------------------------------------------------------
    # Serialization (exact float round-trip; deterministic layout)
    # ------------------------------------------------------------------

    def to_dict(self):
        return {
            "counts": [
                [op.value, level, count]
                for (op, level), count in self.items()
            ],
        }

    @classmethod
    def from_dict(cls, data):
        trace = cls()
        for op, level, count in data["counts"]:
            trace.record(op, count, level=level)
        return trace


# ----------------------------------------------------------------------
# Live recording: the single CKKS instrumentation point
# ----------------------------------------------------------------------

_collectors = []


@contextmanager
def collect_ops(trace=None):
    """Collect every :func:`record_op` inside the block into a trace.

    Collectors nest: an inner ``collect_ops`` does not steal operations
    from an outer one — both record the full stream.
    """
    trace = OpTrace() if trace is None else trace
    _collectors.append(trace)
    try:
        yield trace
    finally:
        _collectors.remove(trace)


def record_op(op, level=None, count=1):
    """Record one executed FHE operation.

    Bumps the ``ckks.evaluator.ops`` observability counter (labelled by
    op) and feeds every active :func:`collect_ops` collector.
    """
    _metric_inc("ckks.evaluator.ops", count, op=op.value)
    if _collectors:
        for trace in _collectors:
            trace.record(op, count, level=level)
