"""Evaluation-form CKKS against a coefficient-domain reference.

The evaluator holds switch keys and encoded diagonals in evaluation (NTT)
form, hoists the digit decomposition shared by rotations of one
ciphertext, and multiplies pointwise.  Every ring product is exact mod
``q`` in either domain, so the outputs must equal the coefficient-domain
algorithm byte for byte.  The reference here is that algorithm: one
digit decomposition per rotation through single-limb base extension,
one ``RnsPoly.multiply`` per digit and key half, and diagonals encoded
on every call.
"""

import numpy as np
import pytest

from repro.ckks import (
    Ciphertext,
    CkksContext,
    Conv2d,
    Encryptor,
    Evaluator,
    KeyGenerator,
    LinearTransform,
    toy_parameters,
)
from repro.obs import MetricsRegistry, use_registry
from repro.poly import RnsContext, RnsPoly, automorphism_evaluation

# ----------------------------------------------------------------------
# Coefficient-domain reference
# ----------------------------------------------------------------------


def _ref_digit(rns, d, row, ext_basis):
    """Limb ``row`` of ``d`` spread over ``ext_basis`` (digit mod-up)."""
    idx = d.basis[row]
    single = d.data[row : row + 1]
    others = [j for j in ext_basis if j != idx]
    converted = iter(rns.base_convert(single, (idx,), others))
    out = np.stack([single[0] if j == idx else next(converted)
                    for j in ext_basis])
    return RnsPoly(rns, out, ext_basis)


def _ref_key_switch(rns, d, switch_key):
    special = rns.special_indices
    ext_basis = d.basis + special
    acc0 = RnsPoly.zeros(rns, ext_basis)
    acc1 = RnsPoly.zeros(rns, ext_basis)
    for row, idx in enumerate(d.basis):
        digit = _ref_digit(rns, d, row, ext_basis)
        k0, k1 = (half.keep_basis(ext_basis)
                  for half in switch_key.pairs[idx])
        acc0 = acc0.add(digit.multiply(k0))
        acc1 = acc1.add(digit.multiply(k1))
    return acc0.mod_down_by(special), acc1.mod_down_by(special)


def _ref_galois(ct, g, switch_key):
    tc0 = ct.c0.automorphism(g)
    tc1 = ct.c1.automorphism(g)
    p0, p1 = _ref_key_switch(ct.context, tc1, switch_key)
    return Ciphertext(c0=tc0.add(p0), c1=p1, scale=ct.scale)


def _ref_rotate(ctx, ct, steps, galois_keys):
    if steps % ctx.params.slot_count == 0:
        return ct
    g = ctx.galois_element_for_step(steps)
    return _ref_galois(ct, g, galois_keys.key_for(g))


def _ref_add(a, b):
    return Ciphertext(c0=a.c0.add(b.c0), c1=a.c1.add(b.c1),
                      scale=max(a.scale, b.scale))


def _ref_multiply_plain(ct, pt):
    return Ciphertext(c0=ct.c0.multiply(pt.poly), c1=ct.c1.multiply(pt.poly),
                      scale=ct.scale * pt.scale)


def _ref_multiply(a, b, relin_key):
    d0 = a.c0.multiply(b.c0)
    d1 = a.c0.multiply(b.c1).add(a.c1.multiply(b.c0))
    d2 = a.c1.multiply(b.c1)
    p0, p1 = _ref_key_switch(a.context, d2, relin_key)
    return Ciphertext(c0=d0.add(p0), c1=d1.add(p1), scale=a.scale * b.scale)


def _ref_linear(transform, ct, evaluator, galois_keys):
    ctx = transform.context
    bs = transform.baby_steps
    rotated = {0: ct}
    for d in transform._diagonals:
        if d % bs not in rotated:
            rotated[d % bs] = _ref_rotate(ctx, ct, d % bs, galois_keys)
    result = None
    for giant in transform._giant_steps:
        inner = None
        for d, diag in transform._diagonals.items():
            if d // bs * bs != giant:
                continue
            pt = evaluator._encode_at(diag, transform.plaintext_scale,
                                      ct.basis)
            term = _ref_multiply_plain(rotated[d % bs], pt)
            inner = term if inner is None else _ref_add(inner, term)
        inner = _ref_rotate(ctx, inner, giant, galois_keys)
        result = inner if result is None else _ref_add(result, inner)
    return result


def _ref_conv(conv, ct, evaluator, galois_keys):
    ctx = evaluator.context
    acc = None
    for offset, weight in conv._taps:
        shifted = _ref_rotate(ctx, ct, offset, galois_keys)
        pt = evaluator._encode_at(weight, ctx.params.scale, ct.basis)
        term = _ref_multiply_plain(shifted, pt)
        acc = term if acc is None else _ref_add(acc, term)
    out = evaluator.rescale(acc)
    if conv.bias:
        out = evaluator.add_const(out, conv.bias)
    return out


def _assert_same(got, want):
    assert got.basis == want.basis
    assert got.scale == want.scale
    assert got.c0.data.tobytes() == want.c0.data.tobytes()
    assert got.c1.data.tobytes() == want.c1.data.tobytes()


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------

IMAGE = 8  # an 8x8 feature map fills the 64 slots of N = 128


def _matrices(n, rng):
    dense = rng.normal(size=(n, n)) / n
    sparse = np.zeros((n, n))
    cols = np.arange(n)
    for d in (0, 1, 9, 17, 30, 63):
        sparse[cols, (cols + d) % n] = rng.normal(size=n)
    single = np.zeros((n, n))
    single[cols, (cols + 5) % n] = rng.normal(size=n)
    return {"dense": dense, "sparse": sparse, "single": single}


@pytest.fixture(scope="module")
def fhe():
    params = toy_parameters(poly_degree=128, num_scale_moduli=4)
    ctx = CkksContext(params)
    keygen = KeyGenerator(ctx, seed=11)
    rng = np.random.default_rng(12)
    n = params.slot_count
    transforms = {name: LinearTransform(ctx, m)
                  for name, m in _matrices(n, rng).items()}
    conv = Conv2d(ctx, rng.normal(size=(3, 3)), IMAGE, IMAGE, bias=0.25)
    steps = {1, 3, -1, 7}
    steps.update(conv.required_rotation_steps())
    for lt in transforms.values():
        steps.update(lt.required_rotation_steps())
    elements = [ctx.galois_element_for_step(s) for s in sorted(steps)]
    elements.append(ctx.conjugation_element)
    encryptor = Encryptor(ctx, keygen.create_public_key(), seed=13)
    ct = encryptor.encrypt_values(rng.normal(scale=0.5, size=n))
    other = encryptor.encrypt_values(rng.normal(scale=0.5, size=n))
    return {
        "ctx": ctx,
        "evaluator": Evaluator(ctx),
        "relin": keygen.create_relin_key(),
        "galois": keygen.create_galois_keys(elements),
        "transforms": transforms,
        "conv": conv,
        "ct": ct,
        "other": other,
    }


# ----------------------------------------------------------------------
# The evaluation-form automorphism map
# ----------------------------------------------------------------------


@pytest.mark.parametrize("degree", [8, 128, 1024])
def test_automorphism_map_matches_forward_of_coefficient_automorphism(
        degree):
    rns = RnsContext.create(
        poly_degree=degree, first_modulus_bits=28, scale_modulus_bits=25,
        num_scale_moduli=1, special_modulus_bits=29, num_special_moduli=1)
    rng = np.random.default_rng(degree)
    basis = rns.data_indices + rns.special_indices
    poly = RnsPoly.random_uniform(rns, basis, rng)
    values = rns.ntt_forward(poly.data, basis)
    for g in range(1, 2 * degree, 2):
        want = rns.ntt_forward(poly.automorphism(g).data, basis)
        assert np.array_equal(automorphism_evaluation(values, g), want), g


def test_automorphism_map_rejects_even_elements():
    values = np.zeros((1, 8), dtype=np.uint64)
    with pytest.raises(ValueError, match="odd"):
        automorphism_evaluation(values, 4)


def test_stacked_ntt_matches_one_polynomial_at_a_time():
    """A ``(..., limbs, N)`` stack transforms like its polynomials do.

    At N = 4096 a cache-sized pass holds two polynomials of these four
    limbs, so the six-polynomial stack takes three passes.
    """
    rns = RnsContext.create(
        poly_degree=4096, first_modulus_bits=28, scale_modulus_bits=25,
        num_scale_moduli=3, special_modulus_bits=29, num_special_moduli=1)
    rng = np.random.default_rng(7)
    basis = rns.data_indices
    stack = np.stack([
        np.stack([RnsPoly.random_uniform(rns, basis, rng).data
                  for _ in range(2)])
        for _ in range(3)
    ])
    forward = rns.ntt_forward(stack, basis)
    assert forward.shape == stack.shape
    for i in range(3):
        for j in range(2):
            assert np.array_equal(forward[i, j],
                                  rns.ntt_forward(stack[i, j], basis))
    assert np.array_equal(rns.ntt_inverse(forward, basis), stack)


# ----------------------------------------------------------------------
# Byte equality with the coefficient-domain reference
# ----------------------------------------------------------------------


@pytest.mark.parametrize("steps", [1, 3, -1, 7, 0])
def test_rotate_matches_reference(fhe, steps):
    got = fhe["evaluator"].rotate(fhe["ct"], steps, fhe["galois"])
    want = _ref_rotate(fhe["ctx"], fhe["ct"], steps, fhe["galois"])
    _assert_same(got, want)


def test_hoisted_rotations_match_reference(fhe):
    steps = [1, 0, 3, -1, 7, 3]
    got = fhe["evaluator"].rotate_many(fhe["ct"], steps, fhe["galois"])
    assert len(got) == len(steps)
    for step, ct in zip(steps, got):
        _assert_same(ct, _ref_rotate(fhe["ctx"], fhe["ct"], step,
                                     fhe["galois"]))


def test_conjugate_matches_reference(fhe):
    ctx = fhe["ctx"]
    g = ctx.conjugation_element
    got = fhe["evaluator"].conjugate(fhe["ct"], fhe["galois"])
    _assert_same(got, _ref_galois(fhe["ct"], g, fhe["galois"].key_for(g)))


def test_multiply_matches_reference(fhe):
    got = fhe["evaluator"].multiply(fhe["ct"], fhe["other"], fhe["relin"])
    _assert_same(got, _ref_multiply(fhe["ct"], fhe["other"], fhe["relin"]))


def test_square_matches_reference(fhe):
    got = fhe["evaluator"].square(fhe["ct"], fhe["relin"])
    _assert_same(got, _ref_multiply(fhe["ct"], fhe["ct"], fhe["relin"]))


def test_multiply_plain_matches_reference(fhe):
    ev = fhe["evaluator"]
    pt = ev.encode(np.linspace(-1, 1, fhe["ctx"].params.slot_count))
    _assert_same(ev.multiply_plain(fhe["ct"], pt),
                 _ref_multiply_plain(fhe["ct"], pt))


@pytest.mark.parametrize("rescaled", [False, True], ids=["top", "rescaled"])
@pytest.mark.parametrize("matrix", ["dense", "sparse", "single"])
def test_linear_transform_matches_reference(fhe, matrix, rescaled):
    ev = fhe["evaluator"]
    ct = fhe["ct"]
    if rescaled:
        ct = ev.rescale(ev.multiply_const(ct, 1.0))
    lt = fhe["transforms"][matrix]
    # Twice: the second apply runs from the cached diagonal and key forms.
    for _ in range(2):
        got = lt.apply(ct, ev, fhe["galois"])
        _assert_same(got, _ref_linear(lt, ct, ev, fhe["galois"]))


def test_conv2d_matches_reference(fhe):
    ev = fhe["evaluator"]
    got = fhe["conv"].apply(fhe["ct"], ev, fhe["galois"])
    _assert_same(got, _ref_conv(fhe["conv"], fhe["ct"], ev, fhe["galois"]))


# ----------------------------------------------------------------------
# The transform counts the evaluation form buys
# ----------------------------------------------------------------------


def _ntt_calls(fn):
    registry = MetricsRegistry()
    with use_registry(registry):
        fn()
    return registry.snapshot()["counters"].get("math.ntt.calls", {})


def test_hoisted_rotations_transform_digits_once(fhe):
    ev, ct, keys = fhe["evaluator"], fhe["ct"], fhe["galois"]
    ev.rotate_many(ct, [1, 3, 7], keys)  # fill the key cache
    limbs = len(ct.basis)
    ext = limbs + len(fhe["ctx"].rns.special_indices)
    calls = _ntt_calls(lambda: ev.rotate_many(ct, [1, 3, 7], keys))
    assert calls == {"direction=forward": limbs * ext,
                     "direction=inverse": 3 * 2 * ext}


def test_cmult_transforms_each_operand_once(fhe):
    ev, ct, other = fhe["evaluator"], fhe["ct"], fhe["other"]
    ev.multiply(ct, other, fhe["relin"])  # fill the key cache
    limbs = len(ct.basis)
    ext = limbs + len(fhe["ctx"].rns.special_indices)
    calls = _ntt_calls(lambda: ev.multiply(ct, other, fhe["relin"]))
    assert calls == {"direction=forward": 4 * limbs + limbs * ext,
                     "direction=inverse": 3 * limbs + 2 * ext}
    calls = _ntt_calls(lambda: ev.square(ct, fhe["relin"]))
    assert calls == {"direction=forward": 2 * limbs + limbs * ext,
                     "direction=inverse": 3 * limbs + 2 * ext}


# ----------------------------------------------------------------------
# The live worker's reply, pinned to the coefficient-domain evaluator
# ----------------------------------------------------------------------


def test_live_worker_reply_is_unchanged():
    """``_WorkerContext(0).infer`` returns the recorded reply exactly.

    The values were recorded from the coefficient-domain evaluator; the
    evaluation-form path must reproduce them bit for bit.
    """
    from repro.serve.live import _WorkerContext

    reply = _WorkerContext(0).infer([0.1, -0.2, 0.3])
    assert reply["outputs"] == [0.046003, 0.07986, -0.000609, 0.085983,
                                -0.242324, 0.081654, 0.169668, -0.077553]
    assert reply["plaintext_reference"] == [
        0.045983, 0.079838, -0.000594, 0.086005, -0.242322, 0.081642,
        0.16965, -0.077523]
    assert reply["max_error"] == 7.297835314765133e-05
    assert reply["ciphertext_level"] == 4
