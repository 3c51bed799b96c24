"""Capacity planning: the minimum fleet that holds every tenant's SLO.

``repro capacity <scenario>`` answers the provisioning question the
elastic-serving experiments raise: *how many cards, of which cluster
shape, does this workload actually need?*  For each candidate shape the
planner binary-searches the smallest replica count whose **static**
fleet (no autoscaler — this is the steady-state floor) is feasible, then
picks the cheapest feasible (shape, replicas) pair by total cards.

Feasibility of one simulated fleet is the conjunction the serving
report already measures:

* every SLO tenant's end-to-end p99 latency is at or under its
  deadline;
* every SLO tenant's deadline-miss fraction is within its error
  budget;
* the admission queue rejected nothing (an undersized fleet sheds load
  long before the tail degrades, so this is the fastest-failing check).

The search exploits monotonicity — adding a replica never hurts any of
the three conditions under deterministic open-loop arrivals — by
doubling the replica count until a feasible fleet appears (clamped to
``max_replicas``) and then bisecting down to the minimum.  Every
simulation is memoized, and service profiles are planned **once** per
(model, params, shape) through the :mod:`repro.runtime` cache before
any search step, so the whole plan costs one profile-planning pass plus
``O(shapes x log(max_replicas))`` pure-simulation runs.

The emitted ``repro.capacity/v1`` document contains only scenario
configuration and simulated-clock quantities, so it is byte-identical
across ``--jobs N``, process restarts, and warm runtime caches — which
is what lets CI diff it against a committed golden plan.
"""

from __future__ import annotations

import dataclasses

from repro.serve.engine import prepare_profiles, simulate_fleet
from repro.serve.scenario import (
    Scenario,
    load_scenario,
    resolve_fleet_cluster,
)

__all__ = [
    "CAPACITY_SCHEMA",
    "DEFAULT_SHAPES",
    "compare_capacity_reports",
    "plan_capacity",
    "render_capacity_report",
]

CAPACITY_SCHEMA = "repro.capacity/v1"

#: Candidate cluster shapes searched when ``--shapes`` is not given —
#: the paper's three Hydra deployment sizes (1 / 8 / 64 cards).
DEFAULT_SHAPES = ("Hydra-S", "Hydra-M", "Hydra-L")

_CAPACITY_FLEET = "capacity"


def _capacity_scenario(scenario, shape, replicas):
    """The scenario re-fleeted to ``replicas`` static copies of shape."""
    return dataclasses.replace(
        scenario,
        fleets={_CAPACITY_FLEET: (shape,) * replicas},
        autoscale=None,
    )


def _slo_tenants(scenario):
    return {t.name: t for t in scenario.tenants
            if t.deadline_seconds is not None}


def _fleet_feasible(fragment, slo_tenants):
    """Apply the three feasibility conditions to one fleet fragment."""
    if fragment["queue"]["rejected"] > 0:
        return False
    for name, tenant in slo_tenants.items():
        report = fragment["tenants"][name]
        if report["arrivals"] == 0:
            continue
        p99 = report["latency_seconds"]["p99"]
        if p99 is None or p99 > tenant.deadline_seconds:
            return False
        if report["slo"]["miss_fraction"] > tenant.slo_budget:
            return False
    return True


def _tenant_summary(fragment, slo_tenants):
    """Per-SLO-tenant outcome rows for the chosen replica count."""
    summary = {}
    for name, tenant in slo_tenants.items():
        report = fragment["tenants"][name]
        summary[name] = {
            "p99_seconds": report["latency_seconds"]["p99"],
            "deadline_seconds": tenant.deadline_seconds,
            "miss_fraction": report["slo"]["miss_fraction"],
            "budget": tenant.slo_budget,
            "completed": report["completed"],
        }
    return summary


def _min_feasible(check, max_replicas):
    """Doubling + bisection for the smallest feasible replica count.

    ``check(n)`` must be memoized by the caller; returns None when even
    ``max_replicas`` replicas are infeasible.
    """
    n, last_bad, hi = 1, 0, None
    while n <= max_replicas:
        if check(n):
            hi = n
            break
        last_bad = n
        n *= 2
    if hi is None:
        # The doubling sequence overshot max_replicas without a hit;
        # the ceiling itself is the last untested candidate.
        if last_bad >= max_replicas or not check(max_replicas):
            return None
        hi = max_replicas
    lo = last_bad
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if check(mid):
            hi = mid
        else:
            lo = mid
    return hi


def plan_capacity(ref, shapes=None, max_replicas=8, jobs=1, cache=None,
                  use_cache=True, seed=None, duration=None):
    """Search the minimum feasible fleet; returns ``(report, manifest)``.

    ``ref`` is a scenario path, builtin name, or :class:`Scenario`;
    ``shapes`` the candidate fleet-entry strings (default
    :data:`DEFAULT_SHAPES`); ``max_replicas`` the per-shape search
    ceiling.  ``jobs`` / ``cache`` / ``use_cache`` steer profile
    planning only and never change report bytes.
    """
    scenario = ref if isinstance(ref, Scenario) else load_scenario(ref)
    scenario = scenario.override(seed=seed, duration=duration)
    shapes = tuple(shapes) if shapes else DEFAULT_SHAPES
    if max_replicas < 1:
        raise ValueError("max_replicas must be >= 1")
    slo_tenants = _slo_tenants(scenario)
    if not slo_tenants:
        raise ValueError(
            f"scenario {scenario.name!r} has no tenant with "
            f"deadline_seconds; capacity planning needs an SLO to hold"
        )

    # One planning pass covers every (model, params, shape) pair: the
    # per-replica simulations below only ever look profiles up by the
    # shape entry name, never by replica count.
    plan_fleets = {f"shape-{i}": (shape,)
                   for i, shape in enumerate(shapes)}
    plan_scenario = dataclasses.replace(scenario, fleets=plan_fleets,
                                        autoscale=None)
    profiles, manifest = prepare_profiles(plan_scenario, jobs=jobs,
                                          cache=cache,
                                          use_cache=use_cache)

    shape_rows = []
    for shape in shapes:
        spec = resolve_fleet_cluster(shape)
        memo = {}
        evaluations = []

        def check(n, shape=shape, memo=memo, evaluations=evaluations):
            if n not in memo:
                fragment = simulate_fleet(
                    _capacity_scenario(scenario, shape, n),
                    _CAPACITY_FLEET, profiles)
                memo[n] = (_fleet_feasible(fragment, slo_tenants),
                           fragment)
                evaluations.append({"replicas": n,
                                    "feasible": memo[n][0]})
            return memo[n][0]

        best = _min_feasible(check, max_replicas)
        row = {
            "shape": shape,
            "cards_per_replica": spec.total_cards,
            "feasible": best is not None,
            "replicas": best,
            "total_cards": (None if best is None
                            else best * spec.total_cards),
            "card_seconds": None,
            "makespan_seconds": None,
            "evaluations": evaluations,
            "tenants": None,
        }
        if best is not None:
            fragment = memo[best][1]
            row["card_seconds"] = fragment["card_seconds"]["total"]
            row["makespan_seconds"] = fragment["makespan_seconds"]
            row["tenants"] = _tenant_summary(fragment, slo_tenants)
        shape_rows.append(row)

    feasible_rows = [r for r in shape_rows if r["feasible"]]
    chosen = None
    if feasible_rows:
        winner = min(feasible_rows,
                     key=lambda r: (r["total_cards"], r["replicas"],
                                    r["shape"]))
        chosen = {
            "shape": winner["shape"],
            "replicas": winner["replicas"],
            "total_cards": winner["total_cards"],
            "card_seconds": winner["card_seconds"],
        }

    report = {
        "schema": CAPACITY_SCHEMA,
        "scenario": scenario.name,
        "seed": scenario.seed,
        "duration_seconds": scenario.duration_seconds,
        "policy": scenario.policy,
        "dispatch": scenario.dispatch,
        "routing": scenario.routing.to_dict(),
        "slo": {
            name: {"deadline_seconds": t.deadline_seconds,
                   "budget": t.slo_budget}
            for name, t in sorted(slo_tenants.items())
        },
        "search": {"shapes": list(shapes),
                   "max_replicas": max_replicas},
        "shapes": shape_rows,
        "chosen": chosen,
    }
    return report, manifest


def compare_capacity_reports(report, golden):
    """Differences between a fresh plan and the committed golden.

    The CI gate cares about the *decision*, not formatting: the chosen
    fleet and each shape's (feasible, replicas) search outcome must
    match.  Returns a sorted list of human-readable difference strings
    — empty means the gate passes.
    """
    diffs = []
    for key in ("schema", "scenario", "seed", "duration_seconds"):
        if report.get(key) != golden.get(key):
            diffs.append(f"{key}: got {report.get(key)!r}, "
                         f"golden {golden.get(key)!r}")
    if report.get("chosen") != golden.get("chosen"):
        diffs.append(f"chosen: got {report.get('chosen')!r}, "
                     f"golden {golden.get('chosen')!r}")
    got_shapes = {r["shape"]: (r["feasible"], r["replicas"])
                  for r in report.get("shapes", [])}
    want_shapes = {r["shape"]: (r["feasible"], r["replicas"])
                   for r in golden.get("shapes", [])}
    for shape in sorted(set(got_shapes) | set(want_shapes)):
        if got_shapes.get(shape) != want_shapes.get(shape):
            diffs.append(
                f"shape {shape}: got "
                f"(feasible, replicas)={got_shapes.get(shape)!r}, "
                f"golden {want_shapes.get(shape)!r}"
            )
    return sorted(diffs)


def render_capacity_report(report):
    """Human-readable rendering of a ``repro.capacity/v1`` plan."""
    from repro.analysis.tables import format_table

    lines = [
        f"capacity plan for scenario {report['scenario']!r} — seed "
        f"{report['seed']}, {report['duration_seconds']:g} s horizon, "
        f"search ceiling {report['search']['max_replicas']} replicas",
    ]
    rows = []
    for row in report["shapes"]:
        tried = ", ".join(
            f"{e['replicas']}{'+' if e['feasible'] else '-'}"
            for e in row["evaluations"]
        )
        rows.append([
            row["shape"],
            row["cards_per_replica"],
            row["replicas"] if row["feasible"] else "-",
            row["total_cards"] if row["feasible"] else "infeasible",
            ("-" if row["card_seconds"] is None
             else f"{row['card_seconds']:.0f}"),
            tried,
        ])
    lines.append(format_table(
        ["Shape", "Cards/rep", "Replicas", "Total cards", "Card-s",
         "Search (n+/-)"],
        rows,
        title="Per-shape minimum feasible fleet",
    ))
    chosen = report["chosen"]
    if chosen is None:
        lines.append(
            "no feasible fleet within the search ceiling — raise "
            "--max-replicas or add larger shapes"
        )
    else:
        lines.append(
            f"chosen: {chosen['replicas']} x {chosen['shape']} = "
            f"{chosen['total_cards']} cards "
            f"({chosen['card_seconds']:.0f} card-seconds over the run)"
        )
    for name, slo in report["slo"].items():
        lines.append(
            f"  SLO {name}: p99 <= {slo['deadline_seconds']:g} s, "
            f"miss fraction <= {slo['budget']:g}"
        )
    return "\n".join(lines)
