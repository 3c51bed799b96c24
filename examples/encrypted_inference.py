"""End-to-end encrypted inference on the real CKKS substrate.

A tiny two-layer network — a dense layer followed by a polynomial
activation (the "Non-linear" layer of paper Table I) and a second dense
layer — evaluated *homomorphically*: the client encrypts its features,
the server computes on ciphertexts only, the client decrypts the result.
The model is an :class:`~repro.ckks.EncryptedNetwork`, the same class
the live server's workers run.

This is the computation Hydra accelerates, at laptop-scale parameters::

    python examples/encrypted_inference.py
"""

import numpy as np

from repro.ckks import (
    ActivationLayer,
    CkksContext,
    Decryptor,
    DenseLayer,
    EncryptedNetwork,
    Encryptor,
    Evaluator,
    KeyGenerator,
    toy_parameters,
)

#: Smooth degree-2 activation (the square activation family used by
#: early FHE CNNs; paper-style non-linear layers are higher degree).
ACTIVATION = [0.0, 0.5, 0.25]


def main():
    rng = np.random.default_rng(7)
    params = toy_parameters(poly_degree=128, num_scale_moduli=8)
    ctx = CkksContext(params)
    n = params.slot_count

    print("key generation ...")
    keygen = KeyGenerator(ctx, seed=0)
    encryptor = Encryptor(ctx, keygen.create_public_key(), seed=1)
    decryptor = Decryptor(ctx, keygen.secret_key)
    evaluator = Evaluator(ctx)

    # Server-side model weights (plaintext; only activations are secret).
    model = EncryptedNetwork([
        DenseLayer(0.3 * rng.normal(size=(n, n))),
        ActivationLayer(coefficients=ACTIVATION),
        DenseLayer(0.3 * rng.normal(size=(n, n))),
    ]).bind(ctx)
    # The relin key and Galois keys for exactly the rotations it needs.
    keys = model.create_keys(keygen)

    # Client encrypts its features.
    x = rng.normal(scale=0.5, size=n)
    ct = encryptor.encrypt_values(x)
    print(f"encrypted {n} features at level {ct.level}")

    # Server: dense -> activation -> dense, all on ciphertexts.
    ct = model.apply(ct, evaluator, keys)
    print(f"inference done at level {ct.level}")

    # Client decrypts.
    got = decryptor.decrypt_values(ct).real
    want = model.reference(x)
    err = np.max(np.abs(got - want))
    print(f"max error vs plaintext reference: {err:.2e}")
    print(f"first outputs: encrypted={np.round(got[:4], 4)} "
          f"plaintext={np.round(want[:4], 4)}")
    assert err < 5e-2, "encrypted inference diverged from plaintext"
    print("OK — the server never saw the client's features.")


if __name__ == "__main__":
    main()
