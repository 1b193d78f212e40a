"""Counters that read kernel tallies, across a node crash.

Each kernel counts its per-event ``rtos`` numbers in its own tally and
registers it with the shared counters, so a cluster's ``rtos`` counters
sum every node's kernel.  A crashed node's kernel stays registered: no
counter may fall when a node dies, and the dispatch counter must equal
the dispatch trace records of every node, the crashed one's included.
"""

from repro.cluster import Cluster
from repro.sim.engine import MSEC
from repro.telemetry.metrics import Counter, NULL_COUNTER

from conftest import make_descriptor_xml

SAMPLE_NS = 10 * MSEC


class Owner:
    def __init__(self):
        self.events = 0


def test_value_adds_every_source_at_read_time():
    counter = Counter("events_total")
    first, second = Owner(), Owner()
    counter.add_source(first, "events")
    counter.add_source(second, "events")
    counter.inc(2)
    first.events += 3
    assert counter.value == 5
    second.events += 4
    assert counter.value == 9
    assert counter.as_dict() == {"type": "counter", "value": 9}


def test_the_null_counter_ignores_sources():
    owner = Owner()
    owner.events = 7
    NULL_COUNTER.add_source(owner, "events")
    assert NULL_COUNTER.value == 0


def test_rtos_counters_never_fall_across_a_node_crash():
    cluster = Cluster(("node0", "node1", "node2"), seed=11,
                      heartbeat_interval_ns=SAMPLE_NS, miss_limit=3)
    try:
        homes = {}
        for index in range(6):
            name = "TAL%03d" % index
            homes[name] = cluster.deploy(make_descriptor_xml(
                name, cpuusage=0.1, frequency=500, priority=2 + index % 3))
        victim = homes["TAL000"]
        rtos = cluster.sim.telemetry.registry("rtos")
        counters = [metric for metric in rtos
                    if metric.kind == "counter"]
        assert {"dispatches_total", "releases_total",
                "ready_enqueues_total"} <= {c.name for c in counters}
        readings = []
        for step in range(30):
            if step == 10:
                crash_at = cluster.sim.now
                cluster.crash_node(victim)
            cluster.run_for(SAMPLE_NS)
            readings.append([counter.value for counter in counters])
        dispatches = cluster.sim.trace.by_category("dispatch")
    finally:
        cluster.shutdown()
    for before, after in zip(readings, readings[1:]):
        assert all(b <= a for b, a in zip(before, after))
    # The victim's own tasks dispatched before it died, so its kernel's
    # tally is part of the total.
    victims = {name for name, home in homes.items() if home == victim}
    assert any(record.fields["task"] in victims
               and record.time < crash_at for record in dispatches)
    assert rtos.get("dispatches_total").value == len(dispatches)
