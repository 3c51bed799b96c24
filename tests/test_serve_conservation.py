"""Conservation laws every serve report must satisfy.

A finished run drains its heap and its queue, so every request is
accounted for exactly once:

* a CNN tenant's arrivals were either completed or rejected;
* an LLM tenant's arrivals (sessions) either finished, aborted at a
  decode step's admission, or were rejected at prefill admission;
* every batched request produced exactly one CNN completion or one LLM
  token, so a fleet's ``serve.batched_requests`` sum to its CNN
  completions plus its LLM tokens.

The laws are checked here on every committed golden report, and on
LLM runs in ``tests/test_serve_llm.py``.
"""

import json
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).parent / "data" / "golden_serve"


def assert_conserved(report):
    """Assert the module's three conservation laws on every fleet."""
    for fleet_name, fleet in report["fleets"].items():
        served = 0
        for name, tenant in fleet["tenants"].items():
            where = (fleet_name, name)
            llm = tenant.get("llm")
            if llm is None:
                assert tenant["arrivals"] == (tenant["completed"]
                                              + tenant["rejected"]), where
                served += tenant["completed"]
            else:
                assert tenant["arrivals"] == (llm["sessions_completed"]
                                              + llm["sessions_aborted"]
                                              + tenant["rejected"]), where
                served += llm["tokens"]
        batched = fleet["metrics"].get("serve.batched_requests", {})
        assert sum(batched.values()) == served, fleet_name


@pytest.mark.parametrize(
    "path", sorted(GOLDEN_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_golden_reports_conserve_requests(path):
    assert_conserved(json.loads(path.read_text()))


def test_a_lost_request_breaks_the_laws():
    report = json.loads((GOLDEN_DIR / "steady_hydra_m.json").read_text())
    fleet = next(iter(report["fleets"].values()))
    tenant = next(iter(fleet["tenants"].values()))
    tenant["completed"] -= 1
    with pytest.raises(AssertionError):
        assert_conserved(report)
