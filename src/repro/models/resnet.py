"""FHE ResNet workloads (ImageNet, multiplexed convolutions of [12]).

Parallelism derivation
----------------------
With ``2**15`` slots and multiplexed packing, a feature map of ``H x W``
pixels packs ``cpc = pow2_floor(slots / (H*W))`` channels per ciphertext,
so a ``C``-channel activation occupies ``n_ct = ceil(C / cpc)``
ciphertexts (1 to 32 across both ResNets — matching Table I's
"Ciphertext 1/32" row).  ConvBN parallel units are kernel x input-
ciphertext pairs (``C_out * n_ct_in``); non-linear jobs are the four
multiplexed quadrants of every activation ciphertext (``4 * n_ct``,
giving Table I's 4..128 range); bootstrap jobs equal the live ciphertext
count.  FC parallelism uses the paper's measured values (Table I: 1511
and 3047) since it depends on the weight-matrix packing of [12].

Bootstraps are inserted whenever the level budget runs out, following the
depth accounting of [12]/[30] (conv = 2 levels, ReLU = 5, pooling = 1;
bootstrap restores the chain minus its own consumption).
"""

from __future__ import annotations

import math

from repro.ckks.params import PAPER_PARAMS
from repro.models.graph import LevelCursor, ModelGraph

__all__ = ["resnet18", "resnet50"]

_SLOTS = PAPER_PARAMS.slot_count
_RELU_DEGREE = 9  # yields Table I's ~8 CMult per evaluation
_CONV_LEVELS = 2
_RELU_LEVELS = 5
_POOL_LEVELS = 1
_CONV_UNIT_CAP = 1024  # Table I: the implementation groups kernels beyond


def _channels_per_ct(h, w):
    pixels = h * w
    if pixels >= _SLOTS:
        return 1
    return 2 ** int(math.floor(math.log2(_SLOTS / pixels)))


def _n_ct(h, w, channels):
    return max(1, math.ceil(channels / _channels_per_ct(h, w)))


def _convbn(cur, h, w, c_in, c_out, input_ciphertexts=None):
    n_in = input_ciphertexts or _n_ct(h, w, c_in)
    # Units = kernels x input ciphertexts x 2 multiplexed halves;
    # reproduces Table I's 384 (stem) .. 1024 (layer-1) range.  The
    # implementation of [12] groups kernels beyond 1024 units (Table
    # I's cap); unit_work preserves the total operation count.
    raw = 2 * c_out * n_in
    units = min(raw, _CONV_UNIT_CAP)
    cur.add("convbn", "convbn", "ConvBN", levels=_CONV_LEVELS,
            live_cts=n_in, units=units, unit_work=raw / units,
            output_ciphertexts=_n_ct(h, w, c_out))


def _relu(cur, h, w, channels):
    n_ct = _n_ct(h, w, channels)
    cur.add("nonlinear", "relu", "ReLU", levels=_RELU_LEVELS,
            live_cts=n_ct, jobs=4 * n_ct, degree=_RELU_DEGREE)


def _pool(cur, units, out_cts):
    cur.add("pooling", "pool", "Pooling", levels=_POOL_LEVELS,
            live_cts=out_cts, units=units, output_ciphertexts=out_cts)


def _fc(cur, units):
    cur.add("fc", "fc", "FC", levels=_CONV_LEVELS, live_cts=1,
            units=units)


def _basic_block(cur, h, w, c_in, c_out, downsample):
    """ResNet-18/34 basic block: two 3x3 ConvBN + ReLU (+ shortcut)."""
    _convbn(cur, h, w, c_in, c_out)
    _relu(cur, h, w, c_out)
    _convbn(cur, h, w, c_out, c_out)
    if downsample:
        _convbn(cur, h, w, c_in, c_out)  # 1x1 projection shortcut
    _relu(cur, h, w, c_out)


def _bottleneck(cur, h, w, c_in, c_mid, c_out, downsample):
    """ResNet-50 bottleneck: 1x1 down, 3x3, 1x1 up (+ shortcut)."""
    _convbn(cur, h, w, c_in, c_mid)
    _relu(cur, h, w, c_mid)
    _convbn(cur, h, w, c_mid, c_mid)
    _relu(cur, h, w, c_mid)
    _convbn(cur, h, w, c_mid, c_out)
    if downsample:
        _convbn(cur, h, w, c_in, c_out)
    _relu(cur, h, w, c_out)


def resnet18(max_level=None):
    """ResNet-18 on ImageNet 224x224 (paper benchmark 1)."""
    cur = LevelCursor(
        ModelGraph(name="resnet18", display_name="ResNet-18"), max_level)
    # Stem: 7x7/2 conv to 112x112x64, ReLU, 3x3/2 maxpool to 56x56.  The
    # RGB input packs into 3 channel ciphertexts (2*64*3 = Table I's 384).
    _convbn(cur, 112, 112, 3, 64, input_ciphertexts=3)
    _relu(cur, 112, 112, 64)
    _pool(cur, units=64, out_cts=_n_ct(56, 56, 64))
    stages = [(56, 64, 64), (28, 64, 128), (14, 128, 256), (7, 256, 512)]
    for stage_idx, (h, c_in, c_out) in enumerate(stages):
        for block in range(2):
            first = block == 0
            _basic_block(
                cur, h, h,
                c_in if first else c_out, c_out,
                downsample=first and stage_idx > 0,
            )
    _pool(cur, units=6, out_cts=1)  # global average pool
    _fc(cur, units=1511)  # Table I measured FC parallelism for ResNet-18
    return cur.graph


def resnet50(max_level=None):
    """ResNet-50 on ImageNet 224x224 (paper benchmark 2)."""
    cur = LevelCursor(
        ModelGraph(name="resnet50", display_name="ResNet-50"), max_level)
    _convbn(cur, 112, 112, 3, 64, input_ciphertexts=3)
    _relu(cur, 112, 112, 64)
    _pool(cur, units=256, out_cts=_n_ct(56, 56, 64))
    stages = [
        (56, 64, 64, 256, 3),
        (28, 256, 128, 512, 4),
        (14, 512, 256, 1024, 6),
        (7, 1024, 512, 2048, 3),
    ]
    for h, c_in, c_mid, c_out, blocks in stages:
        for block in range(blocks):
            first = block == 0
            _bottleneck(
                cur, h, h,
                c_in if first else c_out, c_mid, c_out,
                downsample=first,
            )
    _pool(cur, units=12, out_cts=1)
    _fc(cur, units=3047)  # Table I measured FC parallelism for ResNet-50
    return cur.graph
