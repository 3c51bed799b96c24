"""Unit tests for the benchmark workload graphs (Table I fidelity)."""

import dataclasses
import hashlib
import importlib.util
import json
import pathlib

import pytest

from repro.analysis import PAPER_TABLE1, parallelism_census
from repro.llm import LLM_PHASES, llm_info, phase_model
from repro.models import BENCHMARKS, ModelGraph, Step, bert_base, opt_6_7b
from repro.models import resnet18, resnet50


class TestStepValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Step(kind="dropout", name="x", procedure="X", level=10)

    def test_unit_kind_needs_units(self):
        with pytest.raises(ValueError):
            Step(kind="convbn", name="x", procedure="ConvBN", level=10)

    def test_poly_kind_needs_jobs_and_degree(self):
        with pytest.raises(ValueError):
            Step(kind="nonlinear", name="x", procedure="ReLU", level=10,
                 jobs=4)

    def test_negative_level(self):
        with pytest.raises(ValueError):
            Step(kind="convbn", name="x", procedure="C", level=-1, units=4)

    def test_duplicate_step_names_rejected(self):
        g = ModelGraph(name="m", display_name="M")
        g.add(Step(kind="convbn", name="a", procedure="C", level=1, units=1))
        with pytest.raises(ValueError):
            g.add(Step(kind="convbn", name="a", procedure="C", level=1,
                       units=1))


class TestBenchmarkRegistry:
    def test_four_benchmarks(self):
        assert set(BENCHMARKS) == {"resnet18", "resnet50", "bert_base",
                                   "opt_6_7b"}

    def test_builders_return_graphs(self):
        for name, build in BENCHMARKS.items():
            g = build()
            assert g.name == name
            assert len(g.steps) > 10


class TestTable1Fidelity:
    """The parallelism census must reproduce paper Table I's ranges."""

    @pytest.mark.parametrize("builder,rows", [
        (resnet18, ("ConvBN", "Pooling", "FC", "Non-linear", "Ciphertext")),
        (resnet50, ("ConvBN", "Pooling", "FC", "Non-linear", "Ciphertext")),
        (bert_base, ("PCMM", "CCMM", "Non-linear")),
        (opt_6_7b, ("PCMM", "CCMM", "Non-linear")),
    ])
    def test_ranges_within_paper_bounds(self, builder, rows):
        model = builder()
        census = parallelism_census(model)
        reference = PAPER_TABLE1[model.name]
        for row in rows:
            lo, hi = reference[row]
            got_min, got_max = census[row]["min"], census[row]["max"]
            # Max parallelism should match the paper's within 2x; the
            # min can deviate where our packing model simplifies entry
            # layers (documented in EXPERIMENTS.md).
            assert hi / 2 <= got_max <= hi * 2, (model.name, row)

    def test_resnet18_exact_rows(self):
        census = parallelism_census(resnet18())
        assert (census["ConvBN"]["min"], census["ConvBN"]["max"]) \
            == (384, 1024)
        assert (census["Non-linear"]["min"], census["Non-linear"]["max"]) \
            == (4, 128)
        assert census["FC"]["min"] == 1511
        assert census["Ciphertext"]["max"] == 32

    def test_bert_exact_rows(self):
        census = parallelism_census(bert_base())
        assert (census["PCMM"]["min"], census["PCMM"]["max"]) \
            == (98_304, 393_216)
        assert census["CCMM"]["min"] == 384
        assert census["Non-linear"]["max"] == 48


class TestGraphStructure:
    def test_resnet18_layer_counts(self):
        g = resnet18()
        # stem + 16 block convs + 3 downsample projections = 20 ConvBN.
        assert len(g.steps_of_kind("convbn")) == 20
        assert len(g.steps_of_kind("fc")) == 1
        assert len(g.steps_of_kind("pooling")) == 2
        assert len(g.steps_of_kind("bootstrap")) >= 5

    def test_resnet50_has_more_convs(self):
        assert (len(resnet50().steps_of_kind("convbn"))
                > 2 * len(resnet18().steps_of_kind("convbn")))

    def test_bert_structure(self):
        g = bert_base()
        # 12 layers x (3 PCMM + 2 CCMM + softmax + gelu + 2 norms).
        assert len(g.steps_of_kind("pcmm")) == 12 * 4
        assert len(g.steps_of_kind("ccmm")) == 12 * 2
        assert len(g.steps_of_kind("norm")) == 12 * 2
        assert len(g.steps_of_kind("bootstrap")) >= 12

    def test_opt_is_larger_than_bert(self):
        assert len(opt_6_7b().steps) > 2 * len(bert_base().steps)

    def test_levels_stay_in_range(self):
        from repro.ckks.params import PAPER_PARAMS
        for build in BENCHMARKS.values():
            for step in build().steps:
                assert 0 <= step.level <= PAPER_PARAMS.max_level

    def test_boots_interleave_compute(self):
        """Bootstraps appear between compute steps, not clustered."""
        g = resnet50()
        kinds = [s.kind for s in g.steps]
        for i, k in enumerate(kinds[:-1]):
            if k == "bootstrap":
                assert kinds[i + 1] != "bootstrap"


# ---------------------------------------------------------------------------
# Byte pins of every graph builder

_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: sha256 of each graph's canonical JSON (see :func:`_digest`).  A key is
#: a benchmark or ``model#phase`` name, ``@<max_level>`` when the graph
#: is built below the default level, or ``custom_model_study`` for the
#: :class:`~repro.models.CnnBuilder` graph of that example.
_GRAPH_DIGESTS = {
    "bert_base":
        "f9ea0cb04cfb3e3311f3ded209c705086abf8a9e870dfce377e63c4153b13c4f",
    "bert_base#decode":
        "401f972c3f1c58e2340b924ef80c442e082f9be823f2cc8500acec1d2f75f47c",
    "bert_base#decode@30":
        "6903f7acf30d700ac7f4988ab9b442e958c514fcac9bf34094115544e9cff648",
    "bert_base#prefill":
        "2f454d3fac6f08362c6dc5a668f5ba3a5d5eae8a140280f218ed2d3496aeee0c",
    "bert_base#prefill@30":
        "2352fcbdd26ebc75957e6cb2323bd7673050f061b23ab8a2ee1526423521c3d4",
    "bert_base#recharge":
        "e20d7b11992fedc151af2d6f28bd3c316471b574649d9a3f38b9656b98836e96",
    "bert_base#recharge@30":
        "568006f46c037cce870cc54601338180256419762f9138874ec3fdac034ee0bb",
    "bert_base@20":
        "29c2643d37cafabb76e34e84c2a49bb7028a794893adacdd40277a959e602460",
    "bert_base@30":
        "04615153700d8433b0d08421f9ad15bc48d6fe71d591f714bab0384713444bda",
    "custom_model_study":
        "053db297f30def88f9063eb2dbd36a8c9e1d441087848cfd514e2462cbcf6839",
    "opt_6_7b":
        "4ea9b8f1b189180cc82f13117280bb8d1692c950cb505334a4fbd9db1b5622b5",
    "opt_6_7b#decode":
        "dd72b9e9ab7564b6ef93f9c596cf4ee97bd18fe5fd62cba09f598d787c128a3b",
    "opt_6_7b#decode@30":
        "3107c04e3e357daa974359e502038fc89d735911306fa9ae42225990d4897d42",
    "opt_6_7b#prefill":
        "2861b4e12c38211834569ea3ae4c8b38798ad8724f3a246f58b8423434769ec7",
    "opt_6_7b#prefill@30":
        "08a2461c1771d2d1684661322001e5412112deb735c4379eb87a47fbb4d0f1d0",
    "opt_6_7b#recharge":
        "fb341c2b76bbaa345487ef5fc5baab4cd7857dd3f715a3c8e394bf18a23b8bb0",
    "opt_6_7b#recharge@30":
        "e3c4aaa47ffc6ca92d8b356d7eca7a0bfdad4a513677a4b3d3f40cfc94729881",
    "opt_6_7b@20":
        "064ffc142c947b06a95af46195c79f322f907ffab94f76dde92fd9bf85059101",
    "opt_6_7b@30":
        "3092c7a03cd13513e2cfd8857799fe00548c1fe3a4ff05ae60ca2fd3f29d7d26",
    "resnet18":
        "5f9b516cdb325be7f8f22de8880177a51af4df0baa9bdbd588cab2823869ded8",
    "resnet18@20":
        "69997b5e30f266a7f8cee510cb6f53526badb394bfda2dc25062f55e78c24139",
    "resnet18@30":
        "f4f604408eafc17cbfa9c2f89d738a26c781726357853451bb99961577a15485",
    "resnet50":
        "87edd7b240550dbbe25b5078950f78abd941f57a1d375b66b864395681f2c25b",
    "resnet50@20":
        "1cea5fa6fc93bc3c0a8dbe7302f49f9ee55fc5fcbe6af5f4d91599831be33ad0",
    "resnet50@30":
        "6ba09c5912f5b8d3646c3c83422322de63191af66ce1f59b8d7763faabd34aab",
}


def _digest(graph):
    doc = (graph.name, graph.display_name, graph.work_scale,
           [dataclasses.asdict(s) for s in graph.steps])
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _build(key):
    name, _, level = key.partition("@")
    max_level = int(level) if level else None
    if name == "custom_model_study":
        path = _ROOT / "examples" / "custom_model_study.py"
        spec = importlib.util.spec_from_file_location(name, path)
        example = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(example)
        return example.build_model()
    if "#" in name:
        return phase_model(name, max_level=max_level)
    return BENCHMARKS[name](max_level=max_level)


class TestGraphPins:
    """Every builder's step list — names, levels, units and
    ``unit_work`` floats — is pinned byte for byte; each plan, serve
    golden and e2e pin is a function of these graphs."""

    def test_pins_cover_every_builder(self):
        phases = {f"{m}#{p}" for m in ("bert_base", "opt_6_7b")
                  for p in LLM_PHASES}
        expected = ({f"{m}{lvl}" for m in BENCHMARKS
                     for lvl in ("", "@20", "@30")}
                    | {f"{m}{lvl}" for m in phases for lvl in ("", "@30")}
                    | {"custom_model_study"})
        assert set(_GRAPH_DIGESTS) == expected

    @pytest.mark.parametrize("key", sorted(_GRAPH_DIGESTS))
    def test_graph_digest(self, key):
        assert _digest(_build(key)) == _GRAPH_DIGESTS[key]

    def test_llm_info(self):
        assert dataclasses.asdict(llm_info("bert_base")) == {
            "model": "bert_base", "context_tokens": 128,
            "kv_ciphertexts": 288, "kv_level_start": 20,
            "levels_per_token": 2, "tokens_between_recharges": 6,
            "decode_ccmm_units": 3,
        }
        assert dataclasses.asdict(llm_info("opt_6_7b")) == {
            "model": "opt_6_7b", "context_tokens": 200,
            "kv_ciphertexts": 1152, "kv_level_start": 20,
            "levels_per_token": 2, "tokens_between_recharges": 6,
            "decode_ccmm_units": 5,
        }
