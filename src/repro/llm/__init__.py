"""Autoregressive transformer serving: phase-split profiles + KV reuse.

``repro.llm`` turns transformer tenants into first-class serving
citizens.  ``profile`` lowers ``models/transformer.py`` into separate
prefill / decode / recharge service profiles (planned through
``repro.runtime`` like any CNN profile); ``session`` tracks the level
budget of the cached key/value ciphertexts that decode steps carry
forward, and samples per-tenant prompt/output token counts from the
scenario seed.
"""

from repro.llm.profile import (
    LLM_PHASES,
    LlmModelInfo,
    llm_info,
    phase_model,
    profile_models,
)
from repro.llm.session import (
    KV_LEVELS_PER_TOKEN,
    KvSession,
    TOKEN_DISTRIBUTIONS,
    TokenSampler,
    kv_level_start,
    levels_schedule,
    tokens_between_recharges,
    validate_token_distribution,
)

__all__ = [
    "KV_LEVELS_PER_TOKEN",
    "KvSession",
    "LLM_PHASES",
    "LlmModelInfo",
    "TOKEN_DISTRIBUTIONS",
    "TokenSampler",
    "kv_level_start",
    "levels_schedule",
    "llm_info",
    "phase_model",
    "profile_models",
    "tokens_between_recharges",
    "validate_token_distribution",
]
