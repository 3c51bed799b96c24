"""Golden byte-identity for every committed scenario.

The fixtures under ``tests/data/golden_serve/`` were captured *before*
the engine was split into :class:`~repro.serve.EngineCore` +
:class:`~repro.serve.SimDriver`; this module re-runs each scenario
through the refactored stack and compares the serialized report byte
for byte.  Any drift — a reordered ``schedule`` call, a float that
picked up an extra ulp, a renamed key — fails here before it can land.

Regenerate (only for an *intentional* report change)::

    PYTHONPATH=src python - <<'EOF'
    import json
    from repro.serve import run_scenario
    from tests.test_serve_golden import GOLDEN_DIR, SPECS
    for name, overrides in SPECS:
        report, _ = run_scenario(name, **overrides)
        with open(GOLDEN_DIR / f"{name}.json", "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    EOF
"""

import json
from pathlib import Path

import pytest

from repro.runtime import SqlitePlanStore
from repro.serve import run_scenario, validate_serve_report

GOLDEN_DIR = Path(__file__).parent / "data" / "golden_serve"

#: (scenario name, run_scenario overrides).  ``stream_soak`` ships with
#: a multi-day horizon; the golden pins it at two simulated hours —
#: long enough to exercise windowed telemetry wrap-around, short
#: enough for CI.
SPECS = [
    ("steady_hydra_m", {}),
    ("mixed_tenants", {}),
    ("fleet_m_vs_l", {}),
    ("flash_crowd", {}),
    ("elastic_diurnal", {}),
    ("stream_soak", {"duration": 7200.0}),
]


@pytest.fixture(scope="module")
def plan_cache(tmp_path_factory):
    # One shared store: scenarios overlap in (model, cluster)
    # keys, so later cases plan mostly from cache.
    return SqlitePlanStore(tmp_path_factory.mktemp("plans"))


@pytest.mark.parametrize(("name", "overrides"), SPECS,
                         ids=[spec[0] for spec in SPECS])
def test_report_bytes_match_golden(name, overrides, plan_cache):
    report, _ = run_scenario(name, cache=plan_cache, **overrides)
    got = json.dumps(report, indent=2, sort_keys=True) + "\n"
    want = (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")
    assert got == want, (
        f"{name}: report bytes drifted from the pre-refactor golden "
        f"(see module docstring to regenerate after an intentional "
        f"change)"
    )


def test_goldens_validate_against_schema():
    for name, _ in SPECS:
        doc = json.loads((GOLDEN_DIR / f"{name}.json")
                         .read_text(encoding="utf-8"))
        assert doc["schema"] == "repro.serve/v3"
        validate_serve_report(doc)
