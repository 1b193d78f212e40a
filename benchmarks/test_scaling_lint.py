"""Scaling: deployment-plan lint cost vs fleet size.

The DRT6xx family re-derives placement, N-1 failover and cross-node
wiring for a whole fleet, and the ``PlanGuard`` runs it on the deploy
path -- so its cost must stay comfortably sub-quadratic in the
component count or plan-gated deployment stops scaling.  This
benchmark ladders synthetic plans at 16/64/256 components (override
with ``LINT_PLAN_SIZES=16,64``), measures a full ``lint_plan`` pass
(all six families: per-node contract/wiring/admission units plus the
plan topology checks), and records the growth exponent
``log(t_max/t_min) / log(n_max/n_min)`` in ``BENCH_lint.json`` --
guarded by ``check_scaling_guardrail.py`` against the committed
baseline (hard cap: exponent < 2.0).

``lint_ms`` and the exponent measure a *cold* lint: the lint memo
(:mod:`repro.lint.memo`) is cleared before every repeat, so they keep
meaning a from-scratch pass.  ``lint_warm_ms`` (not guarded) times the
same plan linted again with the descriptor memo warm, so it measures
what the analyses cost once no descriptor is parsed twice.  The
``PlanGuard`` never lints an unchanged fleet: it lints the target
node of each deploy, whose unit has just changed, and the fleet-wide
checks.
"""

import time

import pytest

from repro.core.descriptor import ComponentDescriptor
from repro.core.ports import PortDirection, PortSpec
from repro.lint import lint_plan, memo
from repro.rtos.task import TaskType

import conftest
from conftest import best_of, ladder, run_once, write_bench

DEFAULT_PLAN_SIZES = (16, 64, 256)
REPEATS = 3
GUARDS = {
    # Hard cap regardless of baseline: the DRT6xx pass going
    # quadratic is exactly what would make plan-gated deployment stop
    # scaling.  Small ladders time noisily, so the relative reference
    # is floored: a healthy run sits around 1.0 (linear).
    "growth_exponent": {"cap": 2.0, "floor": 0.5},
    "rows.-1.lint_ms": {"ladder": "component_sizes"},
}


def build_plan(count):
    """A clean synthetic plan: ``count`` components over
    ``max(2, count // 8)`` nodes, every third trio wired as an
    application, per-node load 0.4 (so N-1 placement has real work to
    do and still succeeds), plus one adaptation rule per plan."""
    node_count = max(2, count // 8)
    nodes = [{"name": "node%03d" % index, "num_cpus": 1}
             for index in range(node_count)]
    per_node = {}
    for index in range(count):
        per_node.setdefault(index % node_count, []).append(index)
    usage_of = {node: 0.4 / len(members)
                for node, members in per_node.items()}
    deployments = []
    applications = {}
    for node_index in sorted(per_node):
        components = []
        members = per_node[node_index]
        for position, index in enumerate(members):
            name = "C%05d" % index
            ports = []
            # Chain trios inside one node into a wired application.
            trio = position // 3
            if position % 3 in (0, 1) and position + 1 < len(members):
                ports.append(PortSpec(
                    "P%05d" % index, PortDirection.OUT, "RTAI.SHM",
                    "Integer", 2))
            if position % 3 in (1, 2):
                ports.append(PortSpec(
                    "P%05d" % (index - node_count), PortDirection.IN,
                    "RTAI.SHM", "Integer", 2))
            components.append({"xml": ComponentDescriptor(
                name=name, implementation="bench.C%05d" % index,
                task_type=TaskType.PERIODIC,
                cpu_usage=usage_of[node_index],
                frequency_hz=10.0, priority=10 + position,
                description="benchmark plan component",
                ports=ports).to_xml()})
            app = "app%03d_%02d" % (node_index, trio)
            applications.setdefault(app, []).append(name)
        deployments.append({"node": "node%03d" % node_index,
                            "components": components})
    applications = {app: members
                    for app, members in applications.items()
                    if len(members) > 1}
    return {
        "plan_version": 1,
        "name": "bench-%d" % count,
        "nodes": nodes,
        "deployments": deployments,
        "applications": applications,
        "rules": [{"document": {"schema_version": 1, "rules": [{
            "name": "bench-guard",
            "priority": 10,
            "when": {"param": "deadline_miss_rate", "op": ">",
                     "value": 0.05, "node": "node000",
                     "for_epochs": 2},
            "then": [{"action": "rebalance", "node": "node000",
                      "count": 1}],
            "cooldown_ns": 100_000_000,
        }]}}],
    }


def best_lint(plan, cold):
    """Best-of-``REPEATS`` seconds of one ``lint_plan`` pass, and the
    last pass's diagnostic count; ``cold`` clears the lint memo
    before every pass."""
    counts = []

    def lint_once():
        if cold:
            memo.clear()
        start = time.perf_counter()
        result = lint_plan(plan)
        elapsed = time.perf_counter() - start
        counts.append(len(result.diagnostics))
        return elapsed

    best = best_of(REPEATS, lint_once, key=lambda elapsed: -elapsed)
    return best, counts[-1]


def measure(count):
    plan = build_plan(count)
    cold, diagnostics = best_lint(plan, cold=True)
    warm, warm_diagnostics = best_lint(plan, cold=False)
    assert warm_diagnostics == diagnostics
    return {
        "components": count,
        "nodes": max(2, count // 8),
        "lint_ms": cold * 1e3,
        "lint_warm_ms": warm * 1e3,
        "diagnostics": diagnostics,
    }


@pytest.mark.benchmark(group="scaling")
def test_lint_scaling(benchmark):
    sizes = ladder("LINT_PLAN_SIZES", DEFAULT_PLAN_SIZES)

    def experiment():
        return [measure(count) for count in sizes]

    rows = run_once(benchmark, experiment)
    print("\nplan-lint scaling (full six-family lint_plan):")
    print("%12s %8s %12s %12s %12s"
          % ("components", "nodes", "lint[ms]", "warm[ms]",
             "diagnostics"))
    for row in rows:
        print("%12d %8d %12.2f %12.2f %12d"
              % (row["components"], row["nodes"], row["lint_ms"],
                 row["lint_warm_ms"], row["diagnostics"]))

    small, large = rows[0], rows[-1]
    growth_exponent = conftest.growth_exponent(
        small["lint_ms"], large["lint_ms"],
        small["components"], large["components"])
    print("growth exponent %.2f over %d -> %d components"
          % (growth_exponent, small["components"],
             large["components"]))

    document = {
        "benchmark": "lint",
        "component_sizes": list(sizes),
        "rows": rows,
        "growth_exponent": growth_exponent,
    }
    write_bench(document, GUARDS)
    benchmark.extra_info["rows"] = rows

    # The synthetic plans are defect-free: any finding is a bug in
    # the generator or the analyzers.
    assert all(row["diagnostics"] == 0 for row in rows)
    # The whole point: plan lint must stay sub-quadratic.
    assert growth_exponent < 2.0
