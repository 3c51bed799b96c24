"""A from-scratch functional CKKS implementation.

This is the FHE substrate underneath the Hydra reproduction: the scheme
whose operations (HAdd, PMult, CMult, Rescale, Keyswitch, Rotation,
Bootstrapping) the accelerator executes.  It runs at laptop-scale
parameters for functional validation; the performance model
(:mod:`repro.cost`) costs the same operation vocabulary at the paper's
``N = 2**16`` parameters.

Quick start::

    from repro.ckks import CkksContext, toy_parameters, KeyGenerator
    from repro.ckks import Encryptor, Decryptor, Evaluator

    ctx = CkksContext(toy_parameters())
    keygen = KeyGenerator(ctx, seed=0)
    enc = Encryptor(ctx, keygen.create_public_key(), seed=1)
    dec = Decryptor(ctx, keygen.secret_key)
    ev = Evaluator(ctx)

    ct = enc.encrypt_values([0.5, -0.25, 0.125])
    ct2 = ev.rescale(ev.multiply_const(ct, 2.0))
    print(dec.decrypt_values(ct2)[:3])
"""

from repro.ckks.approx import (
    chebyshev_fit,
    exp_coefficients,
    gelu_coefficients,
    inverse_sqrt_coefficients,
    relu_coefficients,
    sigmoid_coefficients,
)
from repro.ckks.bootstrap import Bootstrapper, BootstrapKeys
from repro.ckks.convolution import Conv2d, average_pool_kernel
from repro.ckks.matmul import (
    ciphertext_dot,
    ciphertext_matrix_vector,
    sum_slots,
)
from repro.ckks.network import (
    ActivationLayer,
    ConvLayer,
    DenseLayer,
    EncryptedNetwork,
    PoolLayer,
)
from repro.ckks.noise import NoiseEstimator, measure_noise
from repro.ckks.ciphertext import Ciphertext, Plaintext
from repro.ckks.context import CkksContext
from repro.ckks.encoder import CkksEncoder
from repro.ckks.encryptor import Decryptor, Encryptor
from repro.ckks.evaluator import Evaluator
from repro.ckks.keys import (
    GaloisKeys,
    KeyGenerator,
    KeySwitchKey,
    PublicKey,
    SecretKey,
)
from repro.ckks.linear import LinearTransform
from repro.ckks.params import PAPER_PARAMS, CkksParameters, toy_parameters
from repro.ckks.polyeval import evaluate_polynomial

__all__ = [
    "PAPER_PARAMS",
    "ActivationLayer",
    "BootstrapKeys",
    "Bootstrapper",
    "Ciphertext",
    "Conv2d",
    "ConvLayer",
    "DenseLayer",
    "EncryptedNetwork",
    "NoiseEstimator",
    "PoolLayer",
    "measure_noise",
    "average_pool_kernel",
    "chebyshev_fit",
    "ciphertext_dot",
    "ciphertext_matrix_vector",
    "exp_coefficients",
    "gelu_coefficients",
    "inverse_sqrt_coefficients",
    "relu_coefficients",
    "sigmoid_coefficients",
    "sum_slots",
    "CkksContext",
    "CkksEncoder",
    "CkksParameters",
    "Decryptor",
    "Encryptor",
    "Evaluator",
    "GaloisKeys",
    "KeyGenerator",
    "KeySwitchKey",
    "LinearTransform",
    "Plaintext",
    "PublicKey",
    "SecretKey",
    "evaluate_polynomial",
    "toy_parameters",
]
