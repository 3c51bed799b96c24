"""Kernel-provider registry, cache isolation, and backend parity.

The parity classes pin the core claim of the provider seam: every
provider is **byte-identical** to the reference numpy kernels — not
merely congruent.  Each butterfly stage's outputs are canonically
determined by its inputs (``u`` exactly reduced, ``v * tw`` reduced by
the modular product), so a correct provider reproduces the exact
``uint64`` representative at every stage.  Tests therefore assert
``np.array_equal``, never ``allclose``.

numba is optional, so these tests use a second, test-local provider
(:class:`TwinProvider`) registered through a monkeypatched registry:
selection, cache isolation, fingerprints, the CLI flag, perf labels and
ConvBN parity never depend on numba.
"""

import importlib.util

import numpy as np
import pytest

import repro.backend as backend_mod
from repro.backend import (
    KernelProvider,
    NumpyProvider,
    available_backends,
    backend_names,
    clear_caches,
    default_backend_name,
    get_backend,
    register_backend,
    resolve_backend,
    resolve_backend_name,
    use_backend,
)
from repro.math.ntt import NttContext, NttKernel, clear_ntt_caches
from repro.math.primes import find_ntt_primes

HAVE_NUMBA = importlib.util.find_spec("numba") is not None

#: Registry name of the test-local provider.
TWIN = "numpy-twin"


class TwinKernel(NttKernel):
    """The reference kernel under its own class, to see which provider
    built it."""


class TwinProvider(NumpyProvider):
    """A second provider with its own caches; overrides only
    :meth:`make_kernel`, the one hook a real backend replaces."""

    name = TWIN

    def make_kernel(self, poly_degree, moduli):
        contexts = tuple(self.get_context(poly_degree, q) for q in moduli)
        return TwinKernel(poly_degree, moduli=moduli, contexts=contexts)


@pytest.fixture(autouse=True)
def twin_registered(monkeypatch):
    """Register :class:`TwinProvider` for one test, with fresh
    singletons; the shipped registry is restored afterwards."""
    registry = backend_mod.registry
    monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
    monkeypatch.setattr(registry, "_INSTANCES", dict(registry._INSTANCES))
    register_backend(TwinProvider)


def _primes(degree, count=2):
    return find_ntt_primes(degree, 30, count)


def _random_stack(rng, moduli, degree):
    data = np.empty((len(moduli), degree), dtype=np.uint64)
    for i, q in enumerate(moduli):
        data[i] = rng.integers(0, q, degree, dtype=np.uint64)
    return data


# ----------------------------------------------------------------------
# Registry and selection
# ----------------------------------------------------------------------


class TestRegistry:
    def test_all_shipped_backends_registered(self):
        names = backend_names()
        assert names[0] == "numpy"
        assert {"numpy", "numba"} <= set(names)

    def test_get_backend_is_a_singleton(self):
        assert get_backend("numpy") is get_backend("numpy")

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            get_backend("cuda")
        with pytest.raises(KeyError):
            resolve_backend_name("cuda")

    def test_register_rejects_non_providers(self):
        with pytest.raises(TypeError):
            register_backend(object)

        class Nameless(KernelProvider):
            pass

        with pytest.raises(ValueError):
            register_backend(Nameless)

    def test_available_backends_reports_every_name(self):
        info = available_backends()
        assert set(info) == set(backend_names())
        ok, detail = info["numpy"]
        assert ok and "numpy" in detail
        assert info["numba"][0] == HAVE_NUMBA

    @pytest.mark.skipif(HAVE_NUMBA, reason="numba is installed here")
    def test_missing_dependency_falls_back_with_warning(self):
        with pytest.warns(RuntimeWarning, match="falling back"):
            provider = get_backend("numba")
        assert provider is get_backend("numpy")


class TestSelectionPrecedence:
    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert default_backend_name() == "numpy"
        assert resolve_backend_name(None) == "numpy"
        assert resolve_backend(None) is get_backend("numpy")

    def test_env_var_sets_the_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", TWIN)
        assert default_backend_name() == TWIN
        assert resolve_backend_name(None) == TWIN

    def test_env_var_must_name_a_registered_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "cuda")
        with pytest.raises(KeyError):
            default_backend_name()

    def test_scope_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        with use_backend(TWIN):
            assert default_backend_name() == TWIN
        assert default_backend_name() == "numpy"

    def test_scopes_nest_innermost_wins(self):
        with use_backend(TWIN):
            with use_backend("numpy"):
                assert default_backend_name() == "numpy"
            assert default_backend_name() == TWIN

    def test_explicit_instance_beats_everything(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", TWIN)
        provider = get_backend("numpy")
        assert resolve_backend_name(provider) == "numpy"
        assert resolve_backend(provider) is provider


# ----------------------------------------------------------------------
# Provider-scoped caches
# ----------------------------------------------------------------------


class TestProviderScopedCaches:
    def test_backends_never_share_cached_tables(self):
        q = _primes(64, 1)[0]
        ref = get_backend("numpy").get_context(64, q)
        twin = get_backend(TWIN).get_context(64, q)
        assert ref is not twin
        assert get_backend("numpy").get_context(64, q) is ref
        assert get_backend(TWIN).get_context(64, q) is twin

    def test_kernel_class_matches_the_provider(self):
        q = _primes(64, 1)[0]
        ref = get_backend("numpy").get_kernel(64, (q,))
        twin = get_backend(TWIN).get_kernel(64, (q,))
        assert type(ref) is NttKernel
        assert type(twin) is TwinKernel
        assert get_backend(TWIN).get_context(64, q).kernel is twin

    def test_clear_caches_empties_every_provider(self):
        q = _primes(64, 1)[0]
        before = {
            name: get_backend(name).get_context(64, q)
            for name in ("numpy", TWIN)
        }
        clear_caches()
        for name, ctx in before.items():
            assert get_backend(name).get_context(64, q) is not ctx

    def test_clear_ntt_caches_is_an_alias(self):
        q = _primes(64, 1)[0]
        ctx = get_backend("numpy").get_context(64, q)
        clear_ntt_caches()
        assert get_backend("numpy").get_context(64, q) is not ctx


class TestKeywordOnlyConstructors:
    def test_ntt_context_requires_keyword_modulus(self):
        q = _primes(64, 1)[0]
        with pytest.raises(TypeError):
            NttContext(64, q)
        assert NttContext(64, modulus=q).modulus == q

    def test_ntt_kernel_requires_keyword_moduli(self):
        q = _primes(64, 1)[0]
        with pytest.raises(TypeError):
            NttKernel(64, (q,))
        assert NttKernel(64, moduli=(q,)).moduli == (q,)

    def test_kernel_rejects_mismatched_contexts(self):
        qs = _primes(64, 2)
        ctx = NttContext(64, modulus=qs[0])
        with pytest.raises(ValueError):
            NttKernel(64, moduli=qs, contexts=(ctx,))


# ----------------------------------------------------------------------
# Byte parity: the twin (and numba when present) vs the reference
# ----------------------------------------------------------------------


PARITY_BACKENDS = [TWIN] + (["numba"] if HAVE_NUMBA else [])


@pytest.mark.parametrize("name", PARITY_BACKENDS)
class TestKernelParity:
    # 512 exercises the transposed two-phase layout; 64 the plain path.
    @pytest.mark.parametrize("degree", [64, 512])
    def test_forward_inverse_negacyclic_byte_identical(self, name, degree):
        moduli = tuple(_primes(degree, 2))
        ref = get_backend("numpy").get_kernel(degree, moduli)
        alt = get_backend(name).get_kernel(degree, moduli)
        rng = np.random.default_rng(degree)
        a = _random_stack(rng, moduli, degree)
        b = _random_stack(rng, moduli, degree)
        assert np.array_equal(alt.forward(a), ref.forward(a))
        assert np.array_equal(
            alt.forward(a, reduce_output=False),
            ref.forward(a, reduce_output=False),
        )
        assert np.array_equal(
            alt.inverse(ref.forward(a, reduce_output=False)),
            ref.inverse(ref.forward(a, reduce_output=False)),
        )
        assert np.array_equal(
            alt.negacyclic_multiply(a, b), ref.negacyclic_multiply(a, b)
        )


def _convbn_ciphertext(backend_name):
    """Run one full ConvBN layer under ``backend_name``; return the ct.

    Everything is seeded, so two backends producing byte-identical
    kernels must produce byte-identical output ciphertexts.
    """
    from repro.ckks import (
        CkksContext,
        CkksParameters,
        Encryptor,
        Evaluator,
        KeyGenerator,
    )
    from repro.ckks.convolution import Conv2d, pack_image

    params = CkksParameters(
        poly_degree=64,
        first_modulus_bits=24,
        scale_bits=18,
        num_scale_moduli=2,
        special_modulus_bits=24,
        num_special_moduli=1,
    )
    with use_backend(backend_name):
        context = CkksContext(params)
    assert context.backend.name == resolve_backend_name(backend_name)
    keygen = KeyGenerator(context, seed=11)
    encryptor = Encryptor(context, keygen.create_public_key(), seed=12)
    evaluator = Evaluator(context)
    rng = np.random.default_rng(13)
    kernel = 0.2 * rng.normal(size=(3, 3))
    conv = Conv2d(context, kernel, 4, 4, bias=0.25)
    elements = [context.galois_element_for_step(s)
                for s in conv.required_rotation_steps()]
    gk = keygen.create_galois_keys(elements)
    img = rng.normal(scale=0.5, size=(4, 4))
    ct = encryptor.encrypt_values(pack_image(img))
    return conv.apply(ct, evaluator, gk)


@pytest.mark.parametrize("name", PARITY_BACKENDS)
def test_convbn_layer_byte_identical(name):
    ref = _convbn_ciphertext("numpy")
    alt = _convbn_ciphertext(name)
    assert np.array_equal(alt.c0.data, ref.c0.data)
    assert np.array_equal(alt.c1.data, ref.c1.data)
    assert alt.scale == ref.scale


# ----------------------------------------------------------------------
# Fingerprints: backends never share a disk-cache entry
# ----------------------------------------------------------------------


class TestBackendFingerprints:
    def test_config_fingerprint_separates_backends(self):
        from repro.ckks.params import PAPER_PARAMS
        from repro.cost.calibration import DEFAULT_CALIBRATION
        from repro.hw.cluster import HYDRA_S
        from repro.runtime.fingerprint import config_fingerprint

        digests = {
            config_fingerprint(HYDRA_S, PAPER_PARAMS, DEFAULT_CALIBRATION,
                               4, backend=name)
            for name in backend_names()
        }
        assert len(digests) == len(backend_names())

    def test_system_run_keys_differ_per_backend(self):
        from repro.core import HydraSystem

        keys = {
            HydraSystem.hydra_s(backend=name).run_key("resnet18")
            for name in ("numpy", TWIN, "numba")
        }
        assert len(keys) == 3

    def test_request_key_matches_system_key(self):
        from repro.core import HydraSystem
        from repro.runtime import RunRequest

        request = RunRequest(benchmark="resnet18", system="Hydra-S",
                             backend=TWIN)
        system = HydraSystem.named("Hydra-S", backend=TWIN)
        assert request.key() == system.run_key("resnet18")
        assert request.key() != RunRequest(
            benchmark="resnet18", system="Hydra-S").key()

    def test_requested_backend_keys_without_instantiating(self):
        """Fingerprinting 'numba' must not import or construct it."""
        from repro.runtime import RunRequest

        request = RunRequest(benchmark="resnet18", system="Hydra-S",
                             backend="numba")
        assert request.effective_backend() == "numba"
        assert "numba" not in backend_mod.registry._INSTANCES or HAVE_NUMBA


# ----------------------------------------------------------------------
# CLI and perf-suite integration
# ----------------------------------------------------------------------


class _Capture:
    def __init__(self):
        self.lines = []

    def __call__(self, text=""):
        self.lines.append(str(text))

    @property
    def text(self):
        return "\n".join(self.lines)


class TestCli:
    def test_backend_list(self):
        from repro.core.cli import main

        out = _Capture()
        assert main(["backend", "list"], out=out) == 0
        for name in backend_names():
            assert name in out.text
        assert "default: numpy" in out.text

    def test_run_accepts_backend_flag(self):
        from repro.core.cli import main

        out = _Capture()
        code = main(["run", "-s", "Hydra-S", "-b", "resnet18",
                     "--no-energy", "--backend", TWIN], out=out)
        assert code == 0
        assert "total time" in out.text


class TestPerfSuiteBackend:
    def test_default_backend_keeps_pinned_labels(self):
        from repro.perf import run_suite

        report = run_suite(names=["rns.add.n4096x5"], warmup=0, repeats=1)
        assert report["backend"] == "numpy"
        assert "rns.add.n4096x5" in report["workloads"]

    def test_non_default_backend_suffixes_labels(self):
        from repro.perf import run_suite, validate_report

        report = run_suite(names=["rns.add.n4096x5"], warmup=0, repeats=1,
                           backend=TWIN)
        assert report["backend"] == TWIN
        assert f"rns.add.n4096x5@{TWIN}" in report["workloads"]
        assert "rns.add.n4096x5" not in report["workloads"]
        validate_report(report)
