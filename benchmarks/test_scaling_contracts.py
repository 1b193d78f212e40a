"""Experiment C6b -- scaling: stochastic-contract monitor overhead.

The :class:`~repro.monitor.service.ContractMonitor` rides inside the
simulation loop (sample taps on four kernel hot-path sites, a
chi-square pass per monitored clause per epoch), so its wall-clock
overhead bounds how much of a fleet can afford distribution checking.
This benchmark ladders the monitored-component population 4..32
(override with ``C6_FLEET_SIZES=4,8``) and runs the *same* honest
fleet twice -- once bare, once monitored -- measuring:

* the wall-clock cost of one simulated second each way, and the
  monitored/bare overhead ratio (both legs run in one process, so the
  ratio survives machine changes);
* the per-component marginal cost of monitoring.

Asserted shape: the monitor's checks all actually ran (no silently
skipped epochs), the overhead ratio stays modest (< 2x) at every
ladder rung, and the ratio's growth across the ladder stays well
below linear-in-fleet (taps are O(1) per event, the GOF pass is
O(samples) per epoch).  Rows land in ``BENCH_contracts.json`` and
``benchmarks/check_scaling_guardrail.py`` compares them against the
committed baseline.
"""

import time

import pytest

from repro.core.contracts import DistributionSpec, StochasticContract
from repro.core.descriptor import ComponentDescriptor
from repro.hybrid.implementation import (
    RTImplementation,
    default_registry,
)
from repro.monitor.service import ContractMonitor
from repro.rtos.task import TaskType
from repro.sim.engine import MSEC, SEC
from repro.sim.rng import RandomStreams

from conftest import ladder, quiet_platform, run_once, write_bench

DEFAULT_FLEET_SIZES = (4, 8, 16, 32)
RUN_NS = 1 * SEC
EPOCH_NS = 100 * MSEC
# Ratios near 1.0 time noisily on small ladders, so the relative
# references are floored at the break-even ratio.
GUARDS = {
    # Hard cap regardless of baseline: distribution checking that
    # doubles the cost of simulation would never be left on in a real
    # deployment (both legs of the ratio come from one process, so
    # the cap is machine-independent).
    "overhead_at_max": {"cap": 2.0, "floor": 1.0},
    # The ratio must not itself grow with the fleet.
    "overhead_growth": {"floor": 1.0},
    "rows.-1.monitored_s": {"ladder": "fleet_sizes"},
}

DECLARED = StochasticContract(
    exectime=DistributionSpec("uniform", min_ns=20_000, max_ns=40_000),
    tolerance=0.01, min_samples=32)


class HonestImplementation(RTImplementation):
    def __init__(self, stream):
        self._stream = stream

    def compute_ns(self, ctx):
        return int(self._stream.uniform(20_000, 40_000))


def _deploy_fleet(platform, count, bincode):
    # 500 Hz per component keeps ~50 samples per 100 ms epoch (the
    # check really evaluates) while the ladder stays schedulable on
    # the default CPU count.
    for index in range(count):
        platform.drcr.register_component(ComponentDescriptor(
            name="MON%03d" % index, implementation=bincode,
            task_type=TaskType.PERIODIC, cpu_usage=0.02,
            frequency_hz=500.0, priority=3 + index % 5,
            cpu=index % platform.kernel.config.num_cpus,
            stochastic=DECLARED))


def measure(count, monitored):
    bincode = "bench.contracts.honest"
    streams = RandomStreams(1000 + count)
    default_registry.register(
        bincode,
        lambda: HonestImplementation(streams.stream("honest")))
    try:
        platform = quiet_platform(seed=count)
        _deploy_fleet(platform, count, bincode)
        monitor = None
        if monitored:
            monitor = ContractMonitor(platform, epoch_ns=EPOCH_NS)
            monitor.start()
        start = time.perf_counter()
        platform.run_for(RUN_NS)
        elapsed = time.perf_counter() - start
        checks = violations = 0
        if monitor is not None:
            registry = platform.telemetry.registry("contracts")
            checks = registry.counter("checks_total").value
            violations = registry.counter("violations_total").value
            monitor.stop()
        platform.shutdown()
        return elapsed, checks, violations
    finally:
        default_registry.unregister(bincode)


@pytest.mark.benchmark(group="scaling")
def test_contracts_scaling(benchmark):
    sizes = ladder("C6_FLEET_SIZES", DEFAULT_FLEET_SIZES)

    def experiment():
        rows = []
        for count in sizes:
            bare_s, _, _ = measure(count, monitored=False)
            monitored_s, checks, violations = measure(count,
                                                      monitored=True)
            rows.append({
                "components": count,
                "bare_s": bare_s,
                "monitored_s": monitored_s,
                "overhead_ratio": monitored_s / max(bare_s, 1e-9),
                "marginal_us_per_component":
                    (monitored_s - bare_s) / count * 1e6,
                "checks": checks,
                "violations": violations,
            })
        return rows

    rows = run_once(benchmark, experiment)
    print("\nC6b -- contract-monitor overhead scaling:")
    print("%6s %10s %13s %10s %8s"
          % ("fleet", "bare[s]", "monitored[s]", "overhead", "checks"))
    for row in rows:
        print("%6d %10.3f %13.3f %9.2fx %8d"
              % (row["components"], row["bare_s"], row["monitored_s"],
                 row["overhead_ratio"], row["checks"]))

    small, large = rows[0], rows[-1]
    fleet_growth = large["components"] / small["components"]
    overhead_growth = large["overhead_ratio"] \
        / max(small["overhead_ratio"], 1e-9)
    print("overhead ratio grew %.2fx over a %.0fx fleet growth"
          % (overhead_growth, fleet_growth))

    document = {
        "benchmark": "contracts",
        "fleet_sizes": list(sizes),
        "run_ns": RUN_NS,
        "epoch_ns": EPOCH_NS,
        "rows": rows,
        "fleet_growth": fleet_growth,
        "overhead_growth": overhead_growth,
        "overhead_at_max": large["overhead_ratio"],
    }
    write_bench(document, GUARDS)
    benchmark.extra_info["rows"] = rows

    expected_epochs = RUN_NS // EPOCH_NS
    for row in rows:
        # every component was really checked every epoch...
        assert row["checks"] == row["components"] * expected_epochs
        # ...no honest component was ever (falsely) rejected with
        # patience=2 at tolerance 0.01...
        assert row["violations"] == 0
        # ...and monitoring never doubles the cost of the simulation.
        assert row["overhead_ratio"] < 2.0
    # Overhead stays flat-ish across the ladder: monitoring cost per
    # simulated event must not itself grow with the fleet.
    assert overhead_growth < fleet_growth / 2
