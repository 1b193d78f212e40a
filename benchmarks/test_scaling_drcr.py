"""Experiment A3 -- scaling: DRCR resolve cost and registry throughput.

Continuous deployment (section 1) means resolution runs *during
operation*; its cost must stay civil as the component population grows.
This benchmark measures, for fleets of 10..200 components (override the
ladder with ``A3_FLEET_SIZES=10,40,80``):

* the wall-clock cost of deploying the fleet (one batched
  reconfiguration round) and of deploying one more component into it,
  under the default **incremental** (dirty-set) reconfiguration,
* the same marginal deploy under the full-sweep mode
  (``incremental = False``) at the largest fleet, so the incremental
  speedup is measured on the same machine in the same process,
* the wall-clock cost of the departure cascade,
* OSGi service-registry query throughput with one LDAP filter per
  lookup (how adaptation managers find management services).

Shape asserted: the marginal deploy is ~O(affected) -- its growth
across a KxK fleet growth stays far below K -- the incremental marginal
deploy at the largest fleet beats the full sweep by >= 5x, and a
registry lookup stays under a millisecond.  The measured rows land in
``BENCH_scaling_drcr.json`` (CI uploads it and the guardrail in
``benchmarks/check_scaling_guardrail.py`` compares it against the
committed baseline).
"""

import statistics
import time

import pytest

from repro.core import MANAGEMENT_SERVICE_INTERFACE, ComponentState
from conftest import (deploy, ladder, make_descriptor_xml,
                      quiet_platform, run_once, write_bench)

DEFAULT_FLEET_SIZES = (10, 50, 100, 200)
#: Marginal-deploy probes per fleet (median reported).
MARGINAL_PROBES = 5
GUARDS = {
    # The ~O(affected) promise.
    "marginal_growth_per_fleet_growth": {},
    # Incremental vs full sweep on the same machine in one process: a
    # speedup shrinking by >2x is the same class of regression.
    "incremental_speedup_at_max": {"better": "higher"},
    # Absolute, on matching ladders (the baseline is recorded on the
    # CI ladder, so this check is live there).
    "rows.-1.marginal_deploy_ms": {"ladder": "fleet_sizes"},
}


def build_fleet(platform, size):
    """Deploy ``size`` chained components (each depends on the
    previous one's outport -- the worst case for cascades)."""
    with platform.drcr.batch():
        for index in range(size):
            inports = []
            if index > 0:
                inports = [("P%05d" % (index - 1), "RTAI.SHM",
                            "Integer", 2)]
            xml = make_descriptor_xml(
                "C%05d" % index, cpuusage=0.002, frequency=100,
                priority=min(200, index + 1),
                outports=[("P%05d" % index, "RTAI.SHM", "Integer", 2)],
                inports=inports)
            deploy(platform, xml, "fleet.c%05d" % index)


def measure_marginal(platform, size, tag):
    """Median wall-clock of deploying one more consumer of the chain
    tail (deploy + undeploy per probe keeps the fleet size fixed)."""
    samples = []
    for probe in range(MARGINAL_PROBES):
        xml = make_descriptor_xml(
            "X%s%02d" % (tag, probe), cpuusage=0.002, frequency=100,
            priority=201,
            inports=[("P%05d" % (size - 1), "RTAI.SHM", "Integer", 2)])
        start = time.perf_counter()
        bundle = deploy(platform, xml, "fleet.extra.%s%02d"
                        % (tag, probe))
        samples.append(time.perf_counter() - start)
        bundle.stop()
    return statistics.median(samples)


def measure_fleet(size, incremental=True):
    platform = quiet_platform(seed=size)
    platform.drcr.incremental = incremental
    start = time.perf_counter()
    build_fleet(platform, size)
    deploy_s = time.perf_counter() - start
    active = len(platform.drcr.registry.in_state(ComponentState.ACTIVE))

    # Marginal deploy: one more component into the existing fleet.
    marginal_s = measure_marginal(platform, size,
                                  "I" if incremental else "F")
    drcr_metrics = platform.telemetry.registry("drcr")
    dirty_set_size = drcr_metrics.get("dirty_set_size").value
    skipped = drcr_metrics.get("components_skipped_total").value

    # Departure cascade: kill the root -> everything deactivates.
    root = platform.framework.get_bundle("fleet.c%05d" % 0)
    start = time.perf_counter()
    root.stop()
    cascade_s = time.perf_counter() - start
    unsatisfied = len(platform.drcr.registry.in_state(
        ComponentState.UNSATISFIED))

    # Registry lookups with filters.
    root.start()
    lookups = 200
    start = time.perf_counter()
    for index in range(lookups):
        name = "C%05d" % (index % size)
        platform.framework.registry.get_reference(
            MANAGEMENT_SERVICE_INTERFACE, "(drcom.name=%s)" % name)
    lookup_s = (time.perf_counter() - start) / lookups

    return {
        "size": size,
        "mode": "incremental" if incremental else "full",
        "active": active,
        "deploy_total_ms": deploy_s * 1e3,
        "deploy_per_component_ms": deploy_s * 1e3 / size,
        "marginal_deploy_ms": marginal_s * 1e3,
        "last_dirty_set_size": dirty_set_size,
        "components_skipped_total": skipped,
        "cascade_ms": cascade_s * 1e3,
        "cascade_unsatisfied": unsatisfied,
        "lookup_us": lookup_s * 1e6,
    }


@pytest.mark.benchmark(group="scaling")
def test_drcr_scaling(benchmark):
    sizes = ladder("A3_FLEET_SIZES", DEFAULT_FLEET_SIZES)

    def experiment():
        rows = [measure_fleet(size) for size in sizes]
        # Full-sweep comparison point at the largest fleet only (it is
        # the expensive historical path this benchmark retired).
        full_row = measure_fleet(sizes[-1], incremental=False)
        return rows, full_row

    rows, full_row = run_once(benchmark, experiment)
    print("\nA3 -- DRCR scaling (dependency-chained fleets):")
    print("%6s %12s %7s %12s %12s %8s %12s %10s"
          % ("size", "mode", "active", "deploy[ms]", "marginal[ms]",
             "dirty", "cascade[ms]", "lookup[us]"))
    for row in rows + [full_row]:
        print("%6d %12s %7d %12.1f %12.3f %8d %12.2f %10.1f"
              % (row["size"], row["mode"], row["active"],
                 row["deploy_total_ms"], row["marginal_deploy_ms"],
                 row["last_dirty_set_size"], row["cascade_ms"],
                 row["lookup_us"]))

    small, large = rows[0], rows[-1]
    fleet_growth = large["size"] / small["size"]
    marginal_growth = large["marginal_deploy_ms"] / max(
        small["marginal_deploy_ms"], 1e-6)
    speedup = full_row["marginal_deploy_ms"] / max(
        large["marginal_deploy_ms"], 1e-6)
    print("marginal growth %.2fx over a %.0fx fleet; incremental "
          "speedup at %d: %.1fx"
          % (marginal_growth, fleet_growth, large["size"], speedup))

    document = {
        "benchmark": "scaling_drcr",
        "fleet_sizes": list(sizes),
        "marginal_probes": MARGINAL_PROBES,
        "rows": rows,
        "full_sweep_row": full_row,
        "fleet_growth": fleet_growth,
        "marginal_growth": marginal_growth,
        "marginal_growth_per_fleet_growth":
            marginal_growth / fleet_growth,
        "incremental_speedup_at_max": speedup,
    }
    write_bench(document, GUARDS)
    benchmark.extra_info["rows"] = rows
    benchmark.extra_info["full_sweep_row"] = full_row

    # Everything deployed resolved and activated.
    for row in rows:
        assert row["active"] == row["size"]
        # The departure cascade reached the whole chain (everything
        # but the disposed root itself).
        assert row["cascade_unsatisfied"] == row["size"] - 1

    # ~O(affected): the dirty set of a marginal deploy stays O(1), so
    # its cost growth across the ladder must stay well below the fleet
    # growth (a full sweep grows at least linearly with it).
    assert large["last_dirty_set_size"] <= 4
    assert marginal_growth < max(4.0, fleet_growth / 2)

    # The incremental marginal deploy beats the full sweep >= 5x at the
    # largest fleet (ISSUE 3 acceptance criterion; only asserted on the
    # full ladder -- reduced CI ladders leave less sweep to skip).
    if large["size"] >= 200:
        assert speedup >= 5.0

    # Filtered registry lookups stay under a millisecond even at 200
    # components.
    assert large["lookup_us"] < 1000
