"""FHE deep-learning workload graphs.

Each builder reproduces the layer structure and application-level
parallelism of the paper's four benchmarks (Table I): ResNet-18 and
ResNet-50 on ImageNet under the multiplexed-convolution implementation of
[12], BERT-base and OPT-6.7B under the non-interactive transformer
implementation of [13], with bootstrap insertion following the depth
budget of [12]/[30].
"""

from repro.models.builder import CnnBuilder
from repro.models.graph import ModelGraph, Step
from repro.models.resnet import resnet18, resnet50
from repro.models.transformer import bert_base, opt_6_7b, transformer_graph

BENCHMARKS = {
    "resnet18": resnet18,
    "resnet50": resnet50,
    "bert_base": bert_base,
    "opt_6_7b": opt_6_7b,
}

__all__ = [
    "BENCHMARKS",
    "CnnBuilder",
    "ModelGraph",
    "Step",
    "bert_base",
    "opt_6_7b",
    "resnet18",
    "resnet50",
    "transformer_graph",
]
