"""The ``repro validate-ops`` workload suite.

Runs five small layers — a dense 3x3 ConvBN, a BSGS FC matvec, a
nonlinear polynomial activation, the CoeffToSlot bootstrap stage, and
a transformer attention block (score transform → softmax surrogate →
value mix, run as the :class:`~repro.ckks.EncryptedNetwork` the live
server serves) — **functionally** through :mod:`repro.ckks` with an active
:func:`~repro.ir.collect_ops` collector, builds the **modeled** op trace
for the same layer from its parameters alone
(:mod:`repro.ir.check` builders, the scheduler's op arithmetic), and
diffs the two.  Any divergence means the analytic counts the simulator
is fed no longer describe what the scheme executes, which invalidates
the performance model — so the CLI exits nonzero.

Comparison is exact for every op (hadd, pmult, cmult, rescale, rotation,
conjugate, keyswitch); see DESIGN.md "Op IR and cross-validation" for
the tolerance policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ir.check import (
    compare_traces,
    modeled_bsgs_trace,
    modeled_coeff_to_slot_trace,
    modeled_conv_trace,
    modeled_polyeval_trace,
)
from repro.ir.ops import coerce_op
from repro.ir.trace import collect_ops

__all__ = ["ValidationReport", "run_validation"]

_SEED = 0x48594452  # "HYDR"


@dataclass
class ValidationReport:
    """Executed-vs-modeled comparisons for the whole workload suite."""

    comparisons: list = field(default_factory=list)
    perturbed: str = None

    @property
    def ok(self):
        return all(c.ok for c in self.comparisons)

    def to_dict(self):
        return {
            "ok": self.ok,
            "perturbed": self.perturbed,
            "workloads": [c.to_dict() for c in self.comparisons],
        }

    def render(self):
        lines = [c.render() for c in self.comparisons]
        if self.perturbed:
            lines.append(f"(modeled counts perturbed: {self.perturbed} +1)")
        lines.append(
            "validate-ops: PASS — executed == modeled"
            if self.ok
            else "validate-ops: FAIL — executed and modeled op counts diverge"
        )
        return "\n".join(lines)


def _fixture(params):
    """Context + keys + evaluator for one workload (small and local)."""
    from repro.ckks import (
        CkksContext,
        Decryptor,
        Encryptor,
        Evaluator,
        KeyGenerator,
    )

    context = CkksContext(params)
    keygen = KeyGenerator(context, seed=_SEED & 0xFFFF)
    encryptor = Encryptor(context, keygen.create_public_key(), seed=7)
    decryptor = Decryptor(context, keygen.secret_key)
    evaluator = Evaluator(context)
    return context, keygen, encryptor, decryptor, evaluator


def _validate_convbn(tiny, rng):
    from repro.ckks import Conv2d, toy_parameters

    poly_degree = 64 if tiny else 256
    params = toy_parameters(poly_degree=poly_degree, num_scale_moduli=3)
    context, keygen, encryptor, _, evaluator = _fixture(params)
    slots = params.slot_count
    height, width = 4, slots // 4
    kernel = rng.normal(size=(3, 3))
    conv = Conv2d(context, kernel, height, width, bias=0.25)
    galois = keygen.create_galois_keys(
        [context.galois_element_for_step(s)
         for s in conv.required_rotation_steps()]
    )
    image = rng.normal(size=(height, width))
    ct = encryptor.encrypt_values(image.reshape(-1))
    with collect_ops() as executed:
        conv.apply(ct, evaluator, galois)
    modeled = modeled_conv_trace(conv._taps, slots, bias=True)
    return compare_traces("convbn_3x3", executed, modeled)


def _validate_fc(tiny, rng):
    from repro.ckks import LinearTransform, toy_parameters

    poly_degree = 64 if tiny else 128
    params = toy_parameters(poly_degree=poly_degree, num_scale_moduli=3)
    context, keygen, encryptor, _, evaluator = _fixture(params)
    n = params.slot_count
    # A dense weight matrix: the FC layer's worst case (every generalized
    # diagonal present), so both baby- and giant-step sparsity rules get
    # exercised by the identity steps alone.
    matrix = rng.normal(size=(n, n)) / n
    lt = LinearTransform(context, matrix)
    galois = keygen.create_galois_keys(
        [context.galois_element_for_step(s)
         for s in lt.required_rotation_steps()]
    )
    ct = encryptor.encrypt_values(rng.normal(size=n))
    with collect_ops() as executed:
        lt.apply(ct, evaluator, galois)
    modeled = modeled_bsgs_trace(lt.diagonal_indices, lt.baby_steps, n)
    return compare_traces("fc_bsgs", executed, modeled)


def _validate_nonlinear(tiny, rng):
    from repro.ckks import evaluate_polynomial, toy_parameters

    poly_degree = 64 if tiny else 128
    params = toy_parameters(poly_degree=poly_degree, num_scale_moduli=8)
    context, keygen, encryptor, _, evaluator = _fixture(params)
    relin = keygen.create_relin_key()
    # A degree-7 dense activation approximation (the Table-I nonlinear
    # layer shape); coefficients themselves don't change the op count,
    # only their zero pattern does.
    coefficients = rng.normal(size=8) * 0.1
    ct = encryptor.encrypt_values(rng.normal(size=params.slot_count) * 0.1)
    with collect_ops() as executed:
        evaluate_polynomial(ct, coefficients, evaluator, relin)
    modeled = modeled_polyeval_trace(coefficients)
    return compare_traces("nonlinear_polyeval_d7", executed, modeled)


def _validate_bootstrap_stage(tiny, rng):
    from repro.ckks import (
        BootstrapKeys,
        Bootstrapper,
        CkksParameters,
    )

    params = CkksParameters(
        poly_degree=64 if tiny else 128,
        first_modulus_bits=29,
        scale_bits=25,
        num_scale_moduli=4,
        special_modulus_bits=30,
        num_special_moduli=2,
        secret_hamming_weight=4,
    )
    context, keygen, encryptor, _, evaluator = _fixture(params)
    boot = Bootstrapper(context, evaluator, taylor_degree=7,
                        daf_iterations=2)
    galois = keygen.create_galois_keys(boot.required_galois_elements())
    keys = BootstrapKeys(relin_key=keygen.create_relin_key(),
                         galois_keys=galois)
    ct = encryptor.encrypt_values(rng.normal(size=params.slot_count) * 0.1)
    raised = boot.mod_raise(evaluator.drop_to_level(ct, 0))
    with collect_ops() as executed:
        boot.coeff_to_slot(raised, keys)
    modeled = modeled_coeff_to_slot_trace(
        (boot._c2s_direct, boot._c2s_conj), params.slot_count
    )
    return compare_traces("bootstrap_coeff_to_slot", executed, modeled)


def _validate_attention_block(tiny, rng):
    from repro.ckks import (
        ActivationLayer,
        DenseLayer,
        EncryptedNetwork,
        toy_parameters,
    )

    poly_degree = 64 if tiny else 128
    params = toy_parameters(poly_degree=poly_degree, num_scale_moduli=10)
    context, keygen, encryptor, _, evaluator = _fixture(params)
    n = params.slot_count
    # One attention block in miniature: a dense score transform
    # (Q x K^T), a degree-7 softmax surrogate, then the value mix
    # (scores x V) — the LT -> polyeval -> LT chain the transformer
    # lowering charges per attention block, built as the network class
    # the live server's workers run.
    scores = DenseLayer(rng.normal(size=(n, n)) / n)
    values = DenseLayer(rng.normal(size=(n, n)) / n)
    softmax = rng.normal(size=8) * 0.1
    network = EncryptedNetwork(
        [scores, ActivationLayer(coefficients=softmax), values]
    ).bind(context)
    keys = network.create_keys(keygen)
    ct = encryptor.encrypt_values(rng.normal(size=n) * 0.1)
    with collect_ops() as executed:
        network.apply(ct, evaluator, keys)

    def dense_trace(layer):
        lt = layer.transform
        return modeled_bsgs_trace(lt.diagonal_indices, lt.baby_steps, n,
                                  rescale=True)

    modeled = (dense_trace(scores) + modeled_polyeval_trace(softmax)
               + dense_trace(values))
    return compare_traces("attention_block", executed, modeled)


_WORKLOADS = (
    _validate_convbn,
    _validate_fc,
    _validate_nonlinear,
    _validate_bootstrap_stage,
    _validate_attention_block,
)


def run_validation(tiny=True, perturb=None):
    """Run the suite; returns a :class:`ValidationReport`.

    ``perturb`` names an op whose *modeled* count is bumped by one in
    every workload — the self-test proving the comparison actually bites
    (used by CI and the acceptance criteria).
    """
    perturb_op = coerce_op(perturb) if perturb else None
    rng = np.random.default_rng(_SEED)
    comparisons = []
    for workload in _WORKLOADS:
        comparison = workload(tiny, rng)
        if perturb_op is not None:
            for row in comparison.rows:
                if row.op == perturb_op.value:
                    object.__setattr__(row, "modeled", row.modeled + 1)
            if not any(row.op == perturb_op.value for row in comparison.rows):
                from repro.ir.check import OpDiff

                comparison.rows.append(
                    OpDiff(op=perturb_op.value, executed=0, modeled=1)
                )
        comparisons.append(comparison)
    return ValidationReport(comparisons=comparisons,
                            perturbed=perturb_op.value if perturb_op else None)
