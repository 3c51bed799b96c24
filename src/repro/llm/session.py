"""KV-ciphertext session state and token-count sampling.

Autoregressive decode reuses the key/value ciphertexts produced by
prefill.  Every decode step multiplies the cached K/V against the new
query strip (two CCMMs), so the cache drops ``KV_LEVELS_PER_TOKEN``
levels per generated token; when the next step would push it below the
bootstrap threshold, the engine schedules a *recharge* — a bootstrap
pass over all cached ciphertexts — before that token, restoring the
post-bootstrap level.  :class:`KvSession` is the pure bookkeeping for
that schedule, shared by the serving engine and the analysis report.

Token counts (prompt length, generated length) are sampled per tenant
from the scenario seed, exactly like arrival processes: the stream is
derived from ``tenant_seed`` plus a distinct tag so token draws never
perturb arrival draws.
"""

from __future__ import annotations

import numpy as np

from repro.models.graph import BOOT_CONSUMES, BOOT_THRESHOLD
from repro.models.transformer import MATMUL_LEVELS
from repro.serve.arrivals import tenant_seed

__all__ = [
    "KV_LEVELS_PER_TOKEN",
    "KvSession",
    "TOKEN_DISTRIBUTIONS",
    "TokenSampler",
    "kv_level_start",
    "levels_schedule",
    "tokens_between_recharges",
    "validate_token_distribution",
]

#: Two CCMMs (scores, then scores x values) consume the cached K/V per
#: decode step.
KV_LEVELS_PER_TOKEN = 2 * MATMUL_LEVELS

#: Stream-derivation tag separating token draws from arrival draws.
_TOKEN_STREAM_TAG = 0x544B  # "TK"

TOKEN_DISTRIBUTIONS = ("fixed", "uniform", "geometric")

_DIST_KEYS = {
    "fixed": frozenset({"distribution", "value"}),
    "uniform": frozenset({"distribution", "min", "max"}),
    "geometric": frozenset({"distribution", "mean"}),
}


def kv_level_start(max_level):
    """Level the KV cache holds right after prefill / a recharge."""
    return max_level - BOOT_CONSUMES


def tokens_between_recharges(max_level):
    """Decode steps the level budget sustains between bootstrap passes."""
    budget = kv_level_start(max_level) - BOOT_THRESHOLD
    return max(budget // KV_LEVELS_PER_TOKEN, 1)


class KvSession:
    """Level bookkeeping for one session's cached K/V ciphertexts."""

    __slots__ = ("max_level", "level", "recharges")

    def __init__(self, max_level):
        self.max_level = max_level
        self.level = kv_level_start(max_level)
        self.recharges = 0

    def advance(self):
        """Consume one decode step; return True if it needs a recharge.

        The recharge (a bootstrap pass over every cached ciphertext)
        happens *before* the step that would otherwise underflow the
        bootstrap threshold.
        """
        recharge = self.level - KV_LEVELS_PER_TOKEN < BOOT_THRESHOLD
        if recharge:
            self.level = kv_level_start(self.max_level)
            self.recharges += 1
        self.level -= KV_LEVELS_PER_TOKEN
        return recharge


def levels_schedule(max_level, tokens):
    """Per-token KV level trajectory for an ``tokens``-token generation.

    Token 1 is the prefill output; tokens 2..n are decode steps.  Each
    row is a dict with ``token``, ``level_before``, ``level_after`` and
    ``recharge``.
    """
    if tokens < 1:
        raise ValueError("tokens must be >= 1")
    session = KvSession(max_level)
    rows = [{
        "token": 1,
        "level_before": session.level,
        "level_after": session.level,
        "recharge": False,
    }]
    for token in range(2, tokens + 1):
        before = session.level
        recharge = session.advance()
        rows.append({
            "token": token,
            "level_before": kv_level_start(max_level) if recharge else before,
            "level_after": session.level,
            "recharge": recharge,
        })
    return rows


def validate_token_distribution(tenant_name, field_name, options):
    """Validate one tenant's token-count spec; raises ``ValueError``."""
    if not isinstance(options, dict):
        raise ValueError(
            f"tenant {tenant_name!r}: {field_name} must be an object")
    dist = options.get("distribution", "fixed")
    if dist not in TOKEN_DISTRIBUTIONS:
        raise ValueError(
            f"tenant {tenant_name!r}: unknown {field_name} distribution "
            f"{dist!r} (expected one of {', '.join(TOKEN_DISTRIBUTIONS)})")
    unknown = set(options) - _DIST_KEYS[dist]
    if unknown:
        raise ValueError(
            f"tenant {tenant_name!r}: unknown {field_name} key(s) "
            f"{sorted(unknown)} for distribution {dist!r}")
    if dist == "fixed":
        value = options.get("value", 1)
        if int(value) != value or value < 1:
            raise ValueError(
                f"tenant {tenant_name!r}: {field_name} value must be a "
                f"positive integer, got {value!r}")
    elif dist == "uniform":
        lo, hi = options.get("min", 1), options.get("max", 1)
        if int(lo) != lo or int(hi) != hi or lo < 1 or hi < lo:
            raise ValueError(
                f"tenant {tenant_name!r}: {field_name} needs integer "
                f"1 <= min <= max, got min={lo!r} max={hi!r}")
    else:  # geometric
        mean = options.get("mean", 1.0)
        if not mean >= 1.0:
            raise ValueError(
                f"tenant {tenant_name!r}: {field_name} mean must be "
                f">= 1, got {mean!r}")


class TokenSampler:
    """Seeded per-tenant prompt/output token-count draws.

    Draws happen in request-creation order (one prompt draw then one
    output draw per session), so the stream is deterministic under any
    event interleaving, and it is derived separately from the arrival
    stream so adding token distributions never shifts arrival times.
    """

    def __init__(self, tenant_name, scenario_seed, prompt_options,
                 output_options):
        self._rng = np.random.default_rng(
            (*tenant_seed(scenario_seed, tenant_name), _TOKEN_STREAM_TAG))
        self._prompt = dict(prompt_options)
        self._output = dict(output_options)

    def _draw(self, options):
        dist = options.get("distribution", "fixed")
        if dist == "fixed":
            return int(options.get("value", 1))
        if dist == "uniform":
            lo = int(options.get("min", 1))
            hi = int(options.get("max", 1))
            return int(self._rng.integers(lo, hi + 1))
        # geometric: support {1, 2, ...} with the requested mean
        mean = float(options.get("mean", 1.0))
        if mean <= 1.0:
            return 1
        return int(self._rng.geometric(1.0 / mean))

    def next_prompt(self):
        return self._draw(self._prompt)

    def next_output(self):
        return self._draw(self._output)
