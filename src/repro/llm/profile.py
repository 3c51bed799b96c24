"""Phase-split transformer workloads for serving.

A ``kind: llm`` tenant is priced with *three* service profiles per
(model, params, cluster shape), all lowered through the same
``repro.ir`` op vocabulary and planned via ``repro.runtime`` exactly
like the CNN profiles — the plan store and fingerprints just work:

``<model>#prefill``
    The whole prompt batch through the encoder stack (PCMM-heavy: the
    full ``seq x dim`` projection units).  Priced once per request and
    linearly rescaled by the sampled prompt length at dispatch time.
``<model>#decode``
    One autoregressive step: a single query token attending over the
    cached K/V ciphertexts (CCMM/FFN-heavy relative to its size).
    Priced once per generated token.
``<model>#recharge``
    A bootstrap pass over every cached K/V ciphertext, scheduled when
    the session's level budget runs out (see ``repro.llm.session``).

Phase names resolve through ``HydraSystem.build_model`` via the ``#``
hook, so worker processes rebuild the graph from the qualified name
alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ckks.params import PAPER_PARAMS
from repro.llm.session import (
    KV_LEVELS_PER_TOKEN,
    kv_level_start,
    tokens_between_recharges,
)
from repro.models.graph import ModelGraph, Step
from repro.models.transformer import TRANSFORMER_SHAPES, transformer_graph

__all__ = [
    "LLM_PHASES",
    "LlmModelInfo",
    "llm_info",
    "phase_model",
    "profile_models",
]

LLM_PHASES = ("prefill", "decode", "recharge")


@dataclass(frozen=True)
class LlmModelInfo:
    """Derived per-model constants the serving engine needs."""

    model: str
    context_tokens: int
    #: cached key + value ciphertexts carried across decode steps
    kv_ciphertexts: int
    kv_level_start: int
    levels_per_token: int
    tokens_between_recharges: int
    decode_ccmm_units: int


def _shape(model):
    """The Table I shape of a transformer benchmark."""
    shape = TRANSFORMER_SHAPES.get(model)
    if shape is None:
        raise KeyError(
            f"unknown LLM model {model!r}; available: "
            f"{', '.join(sorted(TRANSFORMER_SHAPES))}")
    return shape


def _decode_ccmm_units(shape):
    """Per-step CCMM parallelism: the prefill value covers a
    ``seq x seq`` score block; one decode step covers a ``1 x seq``
    strip of it."""
    return max(1, round(shape["ccmm_units"] / shape["seq_len"]))


def llm_info(model, max_level=None):
    """Serving-side constants for one LLM benchmark."""
    shape = _shape(model)
    max_level = max_level or PAPER_PARAMS.max_level
    return LlmModelInfo(
        model=model,
        context_tokens=shape["seq_len"],
        kv_ciphertexts=2 * shape["layers"] * shape["activation_cts"],
        kv_level_start=kv_level_start(max_level),
        levels_per_token=KV_LEVELS_PER_TOKEN,
        tokens_between_recharges=tokens_between_recharges(max_level),
        decode_ccmm_units=_decode_ccmm_units(shape),
    )


def profile_models(model):
    """The qualified graph names a ``kind: llm`` tenant is planned
    with."""
    _shape(model)
    return tuple(f"{model}#{phase}" for phase in LLM_PHASES)


def _recharge_graph(name, shape, max_level):
    """Bootstrap every cached K/V ciphertext back to full level."""
    graph = ModelGraph(
        name=name,
        display_name=f"{shape['display_name']} (KV recharge)",
    )
    graph.add(Step(
        kind="bootstrap",
        name="kv_recharge",
        procedure="Boot",
        level=max_level,
        jobs=2 * shape["layers"] * shape["activation_cts"],
    ))
    return graph


def phase_model(qualified, max_level=None):
    """Build the graph for a ``model#phase`` qualified name."""
    model, sep, phase = qualified.partition("#")
    if not sep or phase not in LLM_PHASES:
        raise KeyError(
            f"expected '<model>#<phase>' with phase in "
            f"{'/'.join(LLM_PHASES)}, got {qualified!r}")
    shape = _shape(model)
    if phase == "recharge":
        return _recharge_graph(
            qualified, shape, max_level or PAPER_PARAMS.max_level)
    kwargs = dict(shape, display_name=f"{shape['display_name']} (prefill)")
    if phase == "decode":
        # One autoregressive step: a single query token attends over the
        # ``seq_len``-deep cache of key/value ciphertexts.  The PCMMs
        # shrink to ``1 x dim`` units, the CCMM score/value matmuls cover
        # a ``1 x context`` strip of the prefill's ``seq x seq`` block,
        # and the live activations fit in a single ciphertext.  Level
        # accounting is the prefill's, so bootstraps follow the same
        # depth budget.
        kwargs.update(
            display_name=f"{shape['display_name']} (decode step)",
            seq_len=1,
            activation_cts=1,
            ccmm_units=_decode_ccmm_units(shape),
        )
    return transformer_graph(qualified, max_level=max_level, **kwargs)
