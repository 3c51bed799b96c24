"""The pinned microbenchmark suite.

Each :class:`PerfWorkload` owns a deterministic ``setup`` (all randomness
comes from a seed derived from the workload name, so two processes build
bit-identical inputs) and a ``run`` callable that executes exactly one
operation of the kernel under test.  The suite covers the CKKS hot paths
that dominate every paper experiment — the same kernels Hydra accelerates
in hardware (Section IV): NTT, RNS limb arithmetic, keyswitching and
rotation, BSGS linear transforms, one bootstrapping stage, three
end-to-end scheduled simulation steps (``Hydra-S resnet18`` and the
broadcast-heavy Hydra-L and FAB-L steps of cold plans), the
:mod:`repro.serve` discrete-event serving loop, and one live-server
encrypted inference.

The registry is **pinned**: renaming or dropping a workload breaks
comparability of stored baselines, so ``repro perf compare`` treats a
missing workload as a failure.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

__all__ = ["PerfWorkload", "SUITE", "suite_names", "get_workload"]


@dataclass(frozen=True)
class PerfWorkload:
    """One named microbenchmark.

    ``setup(seed)`` builds all state and inputs; ``run(state)`` executes a
    single measured operation and returns an (ignored) result so NumPy
    cannot elide work.
    """

    name: str
    description: str
    setup: object = field(repr=False)
    run: object = field(repr=False)

    @property
    def seed(self) -> int:
        """Deterministic per-workload RNG seed (stable across processes)."""
        return zlib.crc32(self.name.encode("ascii"))


# ----------------------------------------------------------------------
# NTT forward / inverse at N in {2^12, 2^13, 2^14}
# ----------------------------------------------------------------------

def _ntt_state(degree, seed):
    from repro.math.ntt import get_ntt_context
    from repro.math.primes import find_ntt_primes

    q = find_ntt_primes(degree, 30, 1)[0]
    ctx = get_ntt_context(degree, q)
    rng = np.random.default_rng(seed)
    coeffs = rng.integers(0, q, degree, dtype=np.uint64)
    return {"ctx": ctx, "coeffs": coeffs, "values": ctx.forward(coeffs)}


def _make_ntt_workloads():
    workloads = []
    for log_n in (12, 13, 14):
        degree = 1 << log_n
        workloads.append(PerfWorkload(
            name=f"ntt.forward.n{degree}",
            description=f"forward negacyclic NTT, N=2^{log_n}",
            setup=lambda seed, d=degree: _ntt_state(d, seed),
            run=lambda s: s["ctx"].forward(s["coeffs"]),
        ))
        workloads.append(PerfWorkload(
            name=f"ntt.inverse.n{degree}",
            description=f"inverse negacyclic NTT, N=2^{log_n}",
            setup=lambda seed, d=degree: _ntt_state(d, seed),
            run=lambda s: s["ctx"].inverse(s["values"]),
        ))
    return workloads


# ----------------------------------------------------------------------
# RNS polynomial arithmetic (6 limbs, N = 4096)
# ----------------------------------------------------------------------

def _rns_state(seed):
    from repro.poly import RnsContext, RnsPoly

    rns = RnsContext.create(
        poly_degree=4096,
        first_modulus_bits=30,
        scale_modulus_bits=29,
        num_scale_moduli=4,
        special_modulus_bits=30,
        num_special_moduli=1,
    )
    rng = np.random.default_rng(seed)
    basis = rns.data_indices
    a = RnsPoly.random_uniform(rns, basis, rng)
    b = RnsPoly.random_uniform(rns, basis, rng)
    return {"a": a, "b": b}


def _make_rns_workloads():
    return [
        PerfWorkload(
            name="rns.mul.n4096x5",
            description="RNS negacyclic multiply, 5 limbs, N=4096",
            setup=_rns_state,
            run=lambda s: s["a"].multiply(s["b"]),
        ),
        PerfWorkload(
            name="rns.add.n4096x5",
            description="RNS limb-parallel add, 5 limbs, N=4096",
            setup=_rns_state,
            run=lambda s: s["a"].add(s["b"]),
        ),
    ]


# ----------------------------------------------------------------------
# CKKS keyswitch, rotation, BSGS matmul (functional toy parameters)
# ----------------------------------------------------------------------

def _ckks_state(seed, rotation_steps=(1,)):
    from repro.ckks import (
        CkksContext,
        Encryptor,
        Evaluator,
        KeyGenerator,
        toy_parameters,
    )

    params = toy_parameters(poly_degree=256, num_scale_moduli=4)
    context = CkksContext(params)
    keygen = KeyGenerator(context, seed=seed)
    public_key = keygen.create_public_key()
    relin_key = keygen.create_relin_key()
    elements = [context.galois_element_for_step(s) for s in rotation_steps]
    galois_keys = keygen.create_galois_keys(elements)
    encryptor = Encryptor(context, public_key, seed=seed + 1)
    evaluator = Evaluator(context)
    rng = np.random.default_rng(seed + 2)
    values = rng.normal(scale=0.5, size=params.slot_count)
    ct = encryptor.encrypt_values(values)
    return {
        "context": context,
        "evaluator": evaluator,
        "relin_key": relin_key,
        "galois_keys": galois_keys,
        "encryptor": encryptor,
        "ct": ct,
        "rng": rng,
    }


def _make_ckks_workloads():
    return [
        PerfWorkload(
            name="ckks.keyswitch.mult",
            description="relinearizing ciphertext multiply (CMult), N=256",
            setup=lambda seed: _ckks_state(seed),
            run=lambda s: s["evaluator"].multiply(
                s["ct"], s["ct"], s["relin_key"]),
        ),
        PerfWorkload(
            name="ckks.rotation",
            description="keyswitched slot rotation by 1, N=256",
            setup=lambda seed: _ckks_state(seed),
            run=lambda s: s["evaluator"].rotate(
                s["ct"], 1, s["galois_keys"]),
        ),
    ]


def _bsgs_state(seed):
    from repro.ckks.linear import LinearTransform

    state = _ckks_state(seed)
    context = state["context"]
    n = context.params.slot_count
    rng = np.random.default_rng(seed + 3)
    matrix = rng.normal(size=(n, n)) / n
    transform = LinearTransform(context, matrix)
    keygen_elements = [
        context.galois_element_for_step(s)
        for s in transform.required_rotation_steps()
    ]
    from repro.ckks import KeyGenerator

    keygen = KeyGenerator(context, seed=seed)
    state["galois_keys"] = keygen.create_galois_keys(keygen_elements)
    state["transform"] = transform
    return state


def _make_bsgs_workload():
    return PerfWorkload(
        name="ckks.bsgs_matmul",
        description="BSGS homomorphic matrix-vector product, 128 slots",
        setup=_bsgs_state,
        run=lambda s: s["transform"].apply(
            s["ct"], s["evaluator"], s["galois_keys"]),
    )


# ----------------------------------------------------------------------
# One bootstrap stage (CoeffToSlot on a sparse-secret context)
# ----------------------------------------------------------------------

def _bootstrap_state(seed):
    from repro.ckks import (
        BootstrapKeys,
        Bootstrapper,
        CkksContext,
        CkksParameters,
        Encryptor,
        Evaluator,
        KeyGenerator,
    )

    params = CkksParameters(
        poly_degree=128,
        first_modulus_bits=29,
        scale_bits=25,
        num_scale_moduli=18,
        special_modulus_bits=30,
        num_special_moduli=2,
        secret_hamming_weight=4,
    )
    context = CkksContext(params)
    keygen = KeyGenerator(context, seed=seed)
    evaluator = Evaluator(context)
    bootstrapper = Bootstrapper(context, evaluator,
                                taylor_degree=7, daf_iterations=6)
    galois_keys = keygen.create_galois_keys(
        bootstrapper.required_galois_elements())
    keys = BootstrapKeys(relin_key=keygen.create_relin_key(),
                         galois_keys=galois_keys)
    encryptor = Encryptor(context, keygen.create_public_key(), seed=seed + 1)
    rng = np.random.default_rng(seed + 2)
    values = rng.normal(scale=0.25, size=params.slot_count)
    ct = evaluator.drop_to_level(encryptor.encrypt_values(values), 0)
    raised = bootstrapper.mod_raise(ct)
    return {"bootstrapper": bootstrapper, "keys": keys, "raised": raised}


def _make_bootstrap_workload():
    return PerfWorkload(
        name="ckks.bootstrap.coeff_to_slot",
        description="CoeffToSlot bootstrap stage (C2S), N=128 sparse secret",
        setup=_bootstrap_state,
        run=lambda s: s["bootstrapper"].coeff_to_slot(
            s["raised"], s["keys"]),
    )


# ----------------------------------------------------------------------
# One end-to-end scheduled simulation step
# ----------------------------------------------------------------------

def _sim_workload(name, description, system_name, graph, step_name):
    """Plan + simulate one named step of ``graph`` on ``system_name``."""

    def setup(_seed):
        from repro.core.system import HydraSystem

        system = HydraSystem.named(system_name)
        model = system.build_model(graph)
        step = next(s for s in model.steps if s.name == step_name)
        return {"system": system, "step": step,
                "scale": system.planner.work_scale(model)}

    return PerfWorkload(name=name, description=description, setup=setup,
                        run=_run_sim_step)


def _run_sim_step(state):
    from repro.sim import ProgramBuilder, Simulator

    system = state["system"]
    builder = ProgramBuilder(system.total_cards)
    system.planner.map_step(state["step"], builder, state["scale"])
    sim = Simulator(system.cluster)
    return sim.run(builder.build(), step=state["step"].name)


def _make_sim_workloads():
    return [
        _sim_workload(
            "sim.hydra_s.resnet18_step",
            "plan + simulate one ResNet-18 step on Hydra-S",
            "Hydra-S", "resnet18", "convbn_1"),
        # The cold-plan hot path: 64 cards, every PCMM partial sum
        # broadcast through the switch (16,128 deliveries).
        _sim_workload(
            "sim.hydra_l.bert_decode_pcmm_step",
            "plan + simulate one bert_base#decode PCMM step on Hydra-L "
            "(switch broadcasts)",
            "Hydra-L", "bert_base#decode", "pcmm_1"),
        # FAB's host-mediated fabric: each broadcast is replicated
        # pairwise through the hosts' LAN ports.
        _sim_workload(
            "sim.fab_l.resnet18_convbn_step",
            "plan + simulate one ResNet-18 ConvBN step on FAB-L "
            "(host-replicated broadcasts)",
            "FAB-L", "resnet18", "convbn_1"),
    ]


# ----------------------------------------------------------------------
# Serving-layer discrete-event simulation (repro.serve)
# ----------------------------------------------------------------------

def _serve_state(_seed):
    from repro.serve import load_scenario, prepare_profiles

    # One hour of simulated arrivals gives the event loop thousands of
    # heap operations per run; service profiles are planned once here so
    # the measured region is the DES alone.
    scenario = load_scenario("steady_hydra_m").override(duration=3600.0)
    profiles, _ = prepare_profiles(scenario, use_cache=False)
    return {"scenario": scenario, "profiles": profiles}


def _run_serve(state):
    from repro.serve import simulate_fleet

    return simulate_fleet(state["scenario"], "hydra-m", state["profiles"])


def _make_serve_workload():
    return PerfWorkload(
        name="serve.steady.hydra_m",
        description="serving DES, steady_hydra_m scenario, 1 h horizon",
        setup=_serve_state,
        run=_run_serve,
    )


def _run_serve_stream(state):
    from repro.obs import FlightRecorder
    from repro.serve import serve_prom_text, simulate_fleet
    from repro.serve.report import build_report

    scenario = state["scenario"]
    recorder = FlightRecorder(scenario.telemetry.recorder_events)
    fleet = simulate_fleet(scenario, "hydra-m", state["profiles"],
                           recorder=recorder)
    report = build_report(scenario, ["hydra-m"], {"hydra-m": fleet})
    return serve_prom_text(report), recorder.to_jsonl()


def _make_serve_stream_workload():
    return PerfWorkload(
        name="serve.stream.hydra_m",
        description="serving DES + v2 report + Prometheus/JSONL export, "
                    "1 h horizon",
        setup=_serve_state,
        run=_run_serve_stream,
    )


def _serve_llm_state(_seed):
    from repro.serve import load_scenario, prepare_profiles

    # The chat scenario exercises the multi-phase LLM path: prefill
    # batches opening sessions, decode continuations re-entering
    # admission with KV level bookkeeping, bootstrap recharges, and
    # session-affine routing across two Hydra-L replicas.
    scenario = load_scenario("llm_chat_hydra_l")
    profiles, _ = prepare_profiles(scenario, use_cache=False)
    return {"scenario": scenario, "profiles": profiles}


def _run_serve_llm(state):
    from repro.serve import simulate_fleet

    return simulate_fleet(state["scenario"], "hydra-l", state["profiles"])


def _make_serve_llm_workload():
    return PerfWorkload(
        name="serve.llm.chat",
        description="serving DES, llm_chat_hydra_l LLM sessions "
                    "(prefill/decode/recharge), 20 min horizon",
        setup=_serve_llm_state,
        run=_run_serve_llm,
    )


# ----------------------------------------------------------------------
# One live-server inference (the request path of ``serve --live``)
# ----------------------------------------------------------------------

def _live_infer_state(_seed):
    from repro.serve.live import _WorkerContext

    # The worker context the live server builds at warm-up: keys and the
    # two dense layers.  The runner's warmup calls fill its
    # evaluation-form caches, so a timed run is one request on a warm
    # worker — what each live /v1/infer pays for its CKKS pass.
    return {"worker": _WorkerContext(0), "values": [0.1, -0.2, 0.3]}


def _make_live_workload():
    return PerfWorkload(
        name="serve.live.infer",
        description="one live inference on a warm worker: encrypt, BSGS "
                    "dense, square activation, BSGS dense, decrypt, N=128",
        setup=_live_infer_state,
        run=lambda s: s["worker"].infer(s["values"]),
    )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

def _build_suite():
    workloads = []
    workloads.extend(_make_ntt_workloads())
    workloads.extend(_make_rns_workloads())
    workloads.extend(_make_ckks_workloads())
    workloads.append(_make_bsgs_workload())
    workloads.append(_make_bootstrap_workload())
    workloads.extend(_make_sim_workloads())
    workloads.append(_make_serve_workload())
    workloads.append(_make_serve_stream_workload())
    workloads.append(_make_serve_llm_workload())
    workloads.append(_make_live_workload())
    return {w.name: w for w in workloads}


#: The pinned suite, in canonical execution order.
SUITE = _build_suite()


def suite_names():
    """Canonical workload names, in execution order."""
    return tuple(SUITE)


def get_workload(name):
    """Look up one workload; raises ``KeyError`` with the known names."""
    try:
        return SUITE[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; suite: {', '.join(SUITE)}"
        ) from None
