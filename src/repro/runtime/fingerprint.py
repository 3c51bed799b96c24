"""Configuration fingerprints for the persistent run cache.

A cached :class:`~repro.sched.planner.ModelRunResult` is only valid while
everything that produced it is unchanged: the cluster topology and card
parameters, the CKKS parameter set, the calibration constants, the
planner's distribution rounds, and the simulation code itself.
:func:`run_key` folds all of those into one stable, filename-safe digest,
so two deployments that differ in *any* modelled quantity can never serve
each other's results, and editing any simulation-defining source file
silently invalidates every existing cache entry.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
from pathlib import Path

__all__ = [
    "canonicalize",
    "code_fingerprint",
    "config_fingerprint",
    "run_key",
]

#: Packages whose source defines the simulated numbers; editing any file
#: under them changes :func:`code_fingerprint` and thereby every run key.
#: ``ir`` sets the lowering's float summation order; ``llm`` builds the
#: phase graphs (``bert_base#decode`` ...).
_CODE_SCOPE = ("baselines", "cost", "hw", "ir", "llm", "models", "sched",
               "sim")

_SAFE = re.compile(r"[^A-Za-z0-9_.-]+")

_code_digest = None


def canonicalize(obj):
    """Recursively convert ``obj`` into a JSON-stable structure.

    Dataclasses become ``{"__type__": name, field: value, ...}`` maps,
    dicts are key-sorted, tuples become lists.  Anything else that is not
    a JSON scalar falls back to ``repr`` — fingerprints need stability,
    not reversibility.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {"__type__": type(obj).__name__}
        for f in dataclasses.fields(obj):
            out[f.name] = canonicalize(getattr(obj, f.name))
        return out
    if isinstance(obj, dict):
        return {
            str(k): canonicalize(v)
            for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(obj, (list, tuple)):
        return [canonicalize(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return repr(obj)


def _digest(payload):
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def code_fingerprint():
    """Digest of the simulation-defining source files (computed once).

    Covers :data:`_CODE_SCOPE` plus the CKKS parameter definitions —
    everything whose edits change simulated numbers.  Pure-API modules
    (``core``, ``runtime``, ``analysis``) are deliberately outside the
    scope so refactoring them does not flush the cache.
    """
    global _code_digest
    if _code_digest is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        files = [root / "ckks" / "params.py"]
        for pkg in _CODE_SCOPE:
            files.extend((root / pkg).rglob("*.py"))
        h = hashlib.sha256()
        for path in sorted(files):
            h.update(str(path.relative_to(root)).encode("utf-8"))
            h.update(path.read_bytes())
        _code_digest = h.hexdigest()[:12]
    return _code_digest


def config_fingerprint(cluster, params, calibration, rounds):
    """Digest of one complete simulation configuration."""
    payload = {
        "cluster": canonicalize(cluster),
        "params": canonicalize(params),
        "calibration": canonicalize(calibration),
        "rounds": rounds,
        "code": code_fingerprint(),
    }
    return _digest(payload)[:16]


def run_key(cluster, params, calibration, rounds, benchmark,
            with_energy, model=None):
    """Filename-safe cache key for one (config, benchmark, energy) run.

    ``benchmark`` is the workload name.  When a custom
    :class:`~repro.models.ModelGraph` is passed as ``model``, its full
    step structure is folded in, so a hand-built graph never collides
    with the registered benchmark of the same name.
    """
    if model is not None:
        model_digest = _digest(canonicalize(model))[:8]
    else:
        model_digest = "reg"
    parts = (
        _SAFE.sub("-", str(benchmark)),
        _SAFE.sub("-", cluster.name),
        "e1" if with_energy else "e0",
        model_digest,
        config_fingerprint(cluster, params, calibration, rounds),
    )
    return "-".join(parts)
