"""Tests for the composable encrypted-network layers."""

import numpy as np
import pytest

from repro.ckks.network import (
    ActivationLayer,
    ConvLayer,
    DenseLayer,
    EncryptedNetwork,
    PoolLayer,
)


@pytest.fixture(scope="module")
def small_net(deep_fhe):
    rng = np.random.default_rng(11)
    h = w = 8
    net = EncryptedNetwork([
        ConvLayer(0.3 * rng.normal(size=(3, 3)), h, w, bias=0.05),
        ActivationLayer(degree=3, bound=1.5),
        PoolLayer(3, h, w),
        DenseLayer(0.3 * rng.normal(size=(8, h * w))),
    ])
    net.bind(deep_fhe.context)
    return net


class TestEncryptedNetwork:
    def test_level_accounting(self, small_net):
        # conv 1 + activation (deg 3 -> 2) + pool 1 + dense 1 = 5.
        assert small_net.required_levels() == 5

    def test_forward_matches_plaintext(self, deep_fhe, small_net, rng):
        keys = small_net.create_keys(deep_fhe.keygen)
        x = rng.normal(scale=0.4, size=64)
        ct = deep_fhe.encrypt(x)
        out = small_net.apply(ct, deep_fhe.evaluator, keys)
        got = deep_fhe.decrypt(out).real[:8]
        want = small_net.reference(x)[:8]
        assert np.max(np.abs(got - want)) < 0.05

    def test_insufficient_levels_rejected(self, deep_fhe, small_net, rng):
        keys = small_net.create_keys(deep_fhe.keygen)
        shallow = deep_fhe.evaluator.drop_to_level(
            deep_fhe.encrypt(rng.normal(size=64)), 2
        )
        with pytest.raises(ValueError, match="levels"):
            small_net.apply(shallow, deep_fhe.evaluator, keys)

    def test_unbound_network_rejected(self, deep_fhe, rng):
        net = EncryptedNetwork([ActivationLayer(degree=3)])
        with pytest.raises(RuntimeError):
            net.create_keys(deep_fhe.keygen)

    def test_empty_network_rejected(self):
        with pytest.raises(ValueError):
            EncryptedNetwork([])

    def test_key_material_is_minimal(self, deep_fhe, small_net):
        """Only the rotations the layers actually need get keys."""
        keys = small_net.create_keys(deep_fhe.keygen)
        needed = set()
        for layer in small_net.layers:
            needed.update(layer.required_rotation_steps())
        expected = {deep_fhe.context.galois_element_for_step(s)
                    for s in needed}
        assert set(keys.galois_keys.keys) == expected


class TestLayerReferences:
    def test_activation_reference(self):
        layer = ActivationLayer(coefficients=[0.0, 1.0, 0.5])
        x = np.array([0.5, -0.5])
        assert np.allclose(layer.reference(x), x + 0.5 * x ** 2)

    def test_dense_reference_pads(self):
        layer = DenseLayer(np.eye(2, 4))
        out = layer.reference(np.array([1.0, 2.0, 3.0, 4.0]))
        assert np.allclose(out, [1.0, 2.0])


class TestDenseLayer:
    """PCMM: a rectangular plaintext matrix padded into the slot grid."""

    def test_rectangular_pcmm(self, deep_fhe, rng):
        n = deep_fhe.params.slot_count
        rows, cols = 8, n
        m = 0.2 * rng.normal(size=(rows, cols))
        net = EncryptedNetwork([DenseLayer(m)]).bind(deep_fhe.context)
        keys = net.create_keys(deep_fhe.keygen)
        x = rng.normal(scale=0.4, size=cols)
        out = net.apply(deep_fhe.encrypt(x), deep_fhe.evaluator, keys)
        got = deep_fhe.decrypt(out).real[:rows]
        assert np.max(np.abs(got - m @ x)) < 5e-2

    def test_oversized_matrix_rejected(self, deep_fhe):
        n = deep_fhe.params.slot_count
        with pytest.raises(ValueError, match="slot grid"):
            DenseLayer(np.zeros((n + 1, 2))).bind(deep_fhe.context)

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            DenseLayer(np.zeros(4))
