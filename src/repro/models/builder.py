"""Public workload-builder API for custom models.

The four paper benchmarks cover the evaluation; downstream users will
want to ask "how would *my* network run on Hydra?".  ``CnnBuilder``
exposes the same level tracking, packing arithmetic and bootstrap
insertion the ResNet builders use; transformers go through
:func:`repro.models.transformer.transformer_graph` directly.

Example::

    from repro.models.builder import CnnBuilder

    b = CnnBuilder("my_cnn", input_hw=32, input_channels=3)
    b.conv(64).relu().conv(64).relu().pool(2)
    b.conv(128, downsample=True).relu()
    b.fc(10)
    model = b.build()
"""

from __future__ import annotations

from repro.ckks.params import PAPER_PARAMS
from repro.models.graph import LevelCursor, ModelGraph
from repro.models.resnet import _convbn, _fc, _n_ct, _pool, _relu

__all__ = ["CnnBuilder"]


class CnnBuilder:
    """Fluent builder for FHE CNN workloads."""

    def __init__(self, name, input_hw, input_channels=3,
                 display_name=None, max_level=None):
        if input_hw < 1 or input_channels < 1:
            raise ValueError("input geometry must be positive")
        self.graph = ModelGraph(
            name=name, display_name=display_name or name
        )
        self._cursor = LevelCursor(self.graph, max_level)
        self._hw = input_hw
        self._channels = input_channels
        self._built = False

    def _check_open(self):
        if self._built:
            raise RuntimeError("builder already finalized with build()")

    # ------------------------------------------------------------------

    def conv(self, out_channels, downsample=False):
        """Add a ConvBN layer; ``downsample`` halves the feature map."""
        self._check_open()
        if downsample:
            if self._hw < 2:
                raise ValueError("feature map too small to downsample")
            self._hw //= 2
        _convbn(self._cursor, self._hw, self._hw, self._channels,
                out_channels)
        self._channels = out_channels
        return self

    def relu(self):
        """Add a non-linear layer over the current activation."""
        self._check_open()
        _relu(self._cursor, self._hw, self._hw, self._channels)
        return self

    def pool(self, k):
        """Average pooling: k x k window, feature map shrinks by k."""
        self._check_open()
        if self._hw // k < 1:
            raise ValueError(f"cannot pool {self._hw} by {k}")
        units = max(1, self._channels // max(1, k))
        self._hw //= k
        _pool(self._cursor, units=units,
              out_cts=_n_ct(self._hw, self._hw, self._channels))
        return self

    def fc(self, out_features):
        """Final fully connected layer."""
        self._check_open()
        flat = self._hw * self._hw * self._channels
        # Parallelism scales with the weight-matrix size, normalized the
        # way [12]'s packing exposes it (see Table I's FC row).
        units = max(1, (flat * out_features) // PAPER_PARAMS.slot_count)
        _fc(self._cursor, units=units)
        return self

    # ------------------------------------------------------------------

    @property
    def feature_shape(self):
        """Current (H, W, C) of the activation."""
        return (self._hw, self._hw, self._channels)

    def build(self):
        """Finalize and return the :class:`ModelGraph`."""
        self._check_open()
        if not self.graph.steps:
            raise ValueError("model has no layers")
        self._built = True
        return self.graph
