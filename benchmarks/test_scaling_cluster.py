"""Experiment C3 -- cluster scaling: migration latency, failover time
vs fleet size, and gossip traffic vs node count.

Part one: a three-node federation hosts fleets of 8..64 components on
one node (override the ladder with ``C3_FLEET_SIZES=8,16``).  Per
fleet size the benchmark measures, in *simulated* time (deterministic,
so the shape assertions are machine-independent):

* snapshot-based migration latency for one component (initiation to
  ack over the default 500us links),
* failover time: node crash to the coordinator's failover round
  (detection by missed probes dominates -- the C3 claim),
* how many of the dead node's components the failover re-homed, and
  that every one of them is ACTIVE on a survivor afterwards.

Part two: idle federations of 64..256 *nodes* (override with
``C3_GOSSIP_SIZES=32,64``) measure steady-state cluster messages per
probe interval.  SWIM's per-node probe budget is constant, so the
fleet-wide rate must grow ~linearly -- the old full heartbeat mesh
grew O(n^2) and made fleets this size unaffordable.  At the largest
size one node is crashed to show detection time does not grow with
the fleet.

Shape asserted: migration latency is fleet-size independent; failover
time sits in ``[deadline, deadline + 3 intervals]`` at every size;
failover re-homes the whole fleet; gossip traffic's log-log growth
exponent stays below 2 (sub-quadratic) and within an O(n log n)
envelope.  Both tests merge their sections into ``BENCH_cluster.json``
for the guardrail in ``benchmarks/check_scaling_guardrail.py``.
"""

import math

import pytest

from repro.cluster import Cluster
from repro.core import ComponentState
from repro.sim.engine import MSEC

import conftest
from conftest import ladder, make_descriptor_xml, run_once, write_bench

DEFAULT_FLEET_SIZES = (8, 16, 32, 64)
DEFAULT_GOSSIP_SIZES = (64, 128, 256)
HEARTBEAT_INTERVAL_NS = 10 * MSEC
MISS_LIMIT = 3
# Both simulated-time ratios, so any drift is a protocol change, not
# machine noise.
FAILOVER_GUARDS = {
    # Failover must stay detection-dominated.
    "max_failover_over_deadline": {},
    # Moving one component must not scale with the fleet.
    "migration_latency_spread": {},
    "rows.-1.migration_latency_ms": {"ladder": "fleet_sizes"},
}
GOSSIP_GUARDS = {
    # Hard cap regardless of baseline: membership traffic going
    # quadratic is exactly the regression the SWIM protocol exists to
    # prevent (exponent ~1.0 when healthy, 2.0 for a full mesh).
    "gossip.growth_exponent": {"cap": 2.0},
    # The O(n log n) envelope.
    "gossip.nlogn_fit_ratio": {},
    "gossip.rows.-1.messages_per_interval":
        {"ladder": "gossip.node_sizes"},
}


def measure_fleet(size):
    cluster = Cluster(("node0", "node1", "node2"), seed=size,
                      heartbeat_interval_ns=HEARTBEAT_INTERVAL_NS,
                      miss_limit=MISS_LIMIT)
    try:
        # The whole fleet on node0: the node we will kill.
        for index in range(size):
            cluster.deploy(make_descriptor_xml(
                "F%05d" % index, cpuusage=0.008, frequency=100,
                priority=min(200, index + 1)), node="node0")
        cluster.run_for(50 * MSEC)

        # One snapshot-based migration, timed initiation-to-ack.
        migration_id = cluster.migrate("F00000", dst="node1")
        cluster.run_for(50 * MSEC)
        migration = cluster.migration(migration_id)
        assert migration["outcome"] == "restored", migration

        # Crash the host; failover fires when detection declares it.
        crash_at = cluster.sim.now
        cluster.crash_node("node0")
        cluster.run_for(10 * MISS_LIMIT * HEARTBEAT_INTERVAL_NS)
        assert len(cluster.failovers) == 1
        failover = cluster.failovers[0]
        rehomed = len(failover["moved"])
        active = sum(
            1 for name, home in failover["moved"].items()
            if cluster.node(home).drcr.component_state(name)
            is ComponentState.ACTIVE)
        return {
            "size": size,
            "migration_latency_ms":
                migration["latency_ns"] / 1e6,
            "failover_time_ms":
                (failover["at_ns"] - crash_at) / 1e6,
            "rehomed": rehomed,
            "rehomed_active": active,
            "unplaced": len(failover["unplaced"]),
        }
    finally:
        cluster.shutdown()


@pytest.mark.benchmark(group="scaling")
def test_cluster_scaling(benchmark):
    sizes = ladder("C3_FLEET_SIZES", DEFAULT_FLEET_SIZES)
    rows = run_once(benchmark,
                    lambda: [measure_fleet(size) for size in sizes])

    deadline_ms = MISS_LIMIT * HEARTBEAT_INTERVAL_NS / 1e6
    interval_ms = HEARTBEAT_INTERVAL_NS / 1e6
    print("\nC3 -- cluster scaling (3 nodes, fleet on the victim):")
    print("%6s %15s %15s %8s %8s"
          % ("size", "migration[ms]", "failover[ms]", "rehomed",
             "active"))
    for row in rows:
        print("%6d %15.3f %15.1f %8d %8d"
              % (row["size"], row["migration_latency_ms"],
                 row["failover_time_ms"], row["rehomed"],
                 row["rehomed_active"]))

    latencies = [row["migration_latency_ms"] for row in rows]
    document = {
        "benchmark": "cluster",
        "fleet_sizes": list(sizes),
        "heartbeat_interval_ms": interval_ms,
        "miss_limit": MISS_LIMIT,
        "detection_deadline_ms": deadline_ms,
        "rows": rows,
        "migration_latency_spread": max(latencies) / min(latencies),
        "max_failover_over_deadline":
            max(row["failover_time_ms"] for row in rows) / deadline_ms,
    }
    write_bench(document, FAILOVER_GUARDS)
    benchmark.extra_info["rows"] = rows

    for row in rows:
        # The failover re-homed the whole fleet (minus the migrated
        # component, which already lives on node1), all ACTIVE.
        assert row["rehomed"] == row["size"] - 1
        assert row["rehomed_active"] == row["rehomed"]
        assert row["unplaced"] == 0
        # Detection dominates: crash-to-failover within the staleness
        # deadline plus a few beat/latency grace intervals.
        assert deadline_ms <= row["failover_time_ms"] \
            <= deadline_ms + 3 * interval_ms

    # Moving one component costs the same whatever the fleet size.
    assert document["migration_latency_spread"] < 3.0


def measure_gossip(nodes):
    """Steady-state gossip traffic for an idle ``nodes``-node fleet.

    Kernel timers are muted (one long period) so the message counters
    see only membership traffic: probes, acks, indirect pings and the
    rotation's one forced export push per interval (no export
    changes)."""
    names = ["n%03d" % index for index in range(nodes)]
    cluster = Cluster(names, seed=nodes,
                      heartbeat_interval_ns=HEARTBEAT_INTERVAL_NS,
                      miss_limit=MISS_LIMIT,
                      timer_period_ns=10_000 * MSEC)
    try:
        # Let join gossip and the first export pushes converge.
        cluster.run_for(100 * MSEC)
        metrics = cluster.sim.telemetry.registry("cluster")
        before = metrics.get("messages_sent_total").value
        intervals = 20
        cluster.run_for(intervals * HEARTBEAT_INTERVAL_NS)
        sent = metrics.get("messages_sent_total").value - before
        rate = sent / float(intervals)

        # Crash one node: detection must not scale with the fleet.
        victim = names[nodes // 2]
        crash_at = cluster.sim.now
        cluster.crash_node(victim)
        deadline = cluster.membership.deadline_ns
        interval = cluster.membership.heartbeat_interval_ns
        while not cluster.membership.is_dead(victim) \
                and cluster.sim.now < crash_at + deadline \
                + 8 * interval:
            cluster.run_for(interval)
        assert cluster.membership.is_dead(victim)
        return {
            "nodes": nodes,
            "messages_per_interval": rate,
            "detection_ms": (cluster.sim.now - crash_at) / 1e6,
        }
    finally:
        cluster.shutdown()


@pytest.mark.benchmark(group="scaling")
def test_gossip_scaling(benchmark):
    sizes = ladder("C3_GOSSIP_SIZES", DEFAULT_GOSSIP_SIZES)
    rows = run_once(benchmark,
                    lambda: [measure_gossip(size) for size in sizes])

    deadline_ms = MISS_LIMIT * HEARTBEAT_INTERVAL_NS / 1e6
    interval_ms = HEARTBEAT_INTERVAL_NS / 1e6
    print("\nC3 -- gossip scaling (idle fleet, SWIM traffic only):")
    print("%6s %18s %14s" % ("nodes", "msgs/interval", "detect[ms]"))
    for row in rows:
        print("%6d %18.1f %14.1f"
              % (row["nodes"], row["messages_per_interval"],
                 row["detection_ms"]))

    small, large = rows[0], rows[-1]
    growth_exponent = conftest.growth_exponent(
        small["messages_per_interval"], large["messages_per_interval"],
        small["nodes"], large["nodes"])
    # Rate divided by n*log2(n) is ~flat when growth is within the
    # O(n log n) envelope; the ladder-ends ratio of that quotient is
    # the machine-independent fit signal (1.0 = perfect fit, ~n ratio
    # when the mesh is back to quadratic).

    def nlogn_quotient(row):
        return row["messages_per_interval"] \
            / (row["nodes"] * math.log2(row["nodes"]))

    nlogn_fit_ratio = nlogn_quotient(large) / nlogn_quotient(small)
    write_bench({
        "benchmark": "cluster",
        "gossip": {
            "node_sizes": list(sizes),
            "rows": rows,
            "growth_exponent": growth_exponent,
            "nlogn_fit_ratio": nlogn_fit_ratio,
        },
    }, GOSSIP_GUARDS)
    benchmark.extra_info["gossip_rows"] = rows

    # Sub-quadratic by a wide margin: the old full mesh had exponent
    # 2.0, SWIM's constant per-node budget gives ~1.0.
    assert growth_exponent < 2.0
    # Within the O(n log n) envelope (quotient shrinking is fine).
    assert nlogn_fit_ratio <= 1.5
    for row in rows:
        # Detection stays deadline-dominated at every fleet size.
        assert deadline_ms <= row["detection_ms"] \
            <= deadline_ms + 8 * interval_ms
