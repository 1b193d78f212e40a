"""Replication is one message: a node pushes its export on a change.

Every membership tick, each live node compares its export with the one
it last sent and, when they differ, sends the coordinator one
``snapshot_push``; the one-node-per-tick rotation makes its node push
regardless, which recovers a push the loss gate or a partition ate.
Both tests run a quiet fleet -- kernel timers muted by one long period,
as the C3 gossip ladder does -- so an export moves only when the test
moves it.
"""

from collections import Counter

from repro.cluster import Cluster
from repro.sim.engine import MSEC

from conftest import make_descriptor_xml

NODES = ("node0", "node1", "node2", "node3")
INTERVAL_NS = 10 * MSEC
#: One link hop on the default link, with room to spare.
HOP_NS = MSEC


def quiet_fleet():
    """A four-node fleet hosting one component, ``COMP00`` on node1,
    settled: the deploy landed and every node pushed its export.
    Returns the cluster and every message handed to its transport, as
    ``(time, src, kind)``."""
    cluster = Cluster(NODES, seed=3, heartbeat_interval_ns=INTERVAL_NS,
                      miss_limit=3, timer_period_ns=10_000 * MSEC)
    sends = []
    send = cluster.transport.send

    def recording_send(src, dst, kind, payload=None):
        sends.append((cluster.sim.now, src, kind))
        return send(src, dst, kind, payload)

    cluster.transport.send = recording_send
    cluster.deploy(make_descriptor_xml("COMP00"), node="node1")
    cluster.run_for(5 * INTERVAL_NS)
    return cluster, sends


def suspend_locally(cluster):
    """Change node1's export on the node itself, through its own
    management service (no coordinator message involved)."""
    cluster.node("node1").management.manage("COMP00", "suspend")


def replicated_state(cluster):
    return cluster.catalog["COMP00"]["state"]


def test_a_push_lost_to_a_partition_arrives_within_one_rotation():
    cluster, _ = quiet_fleet()
    try:
        assert replicated_state(cluster) == "active"
        cluster.transport.partition("control", "node1")
        suspend_locally(cluster)
        # The push on the change, and every forced push of a full
        # rotation after it, die at the partition.
        cluster.run_for(2 * len(NODES) * INTERVAL_NS)
        assert replicated_state(cluster) == "active"
        cluster.transport.heal("control", "node1")
        # node1's export no longer changes: only the rotation's forced
        # push can carry the suspension, within one turn of the ring.
        cluster.run_for(len(NODES) * INTERVAL_NS + HOP_NS)
        assert replicated_state(cluster) == "suspended"
        assert cluster.deployments["COMP00"] == "node1"
    finally:
        cluster.shutdown()


def pushes_over_one_rotation(change):
    """The ``(time, node)`` of every push sent in the rotation after
    ``change`` (or after nothing), and every message kind sent since
    the fleet was built."""
    cluster, sends = quiet_fleet()
    try:
        start = len(sends)
        if change:
            suspend_locally(cluster)
        cluster.run_for(len(NODES) * INTERVAL_NS)
        pushes = [(at, src) for at, src, kind in sends[start:]
                  if kind == "snapshot_push"]
        return pushes, {kind for _, _, kind in sends}
    finally:
        cluster.shutdown()


def test_one_change_costs_exactly_one_push():
    quiet, quiet_kinds = pushes_over_one_rotation(change=False)
    changed, changed_kinds = pushes_over_one_rotation(change=True)
    # A quiet rotation is one forced push per tick, one per node.
    assert sorted(src for _, src in quiet) == sorted(NODES)
    # The tick after the change does not force node1, so its push
    # there is the change's own.
    first_tick = quiet[0][0]
    assert (first_tick, "node1") not in quiet
    assert Counter(changed) - Counter(quiet) \
        == Counter([(first_tick, "node1")])
    assert not Counter(quiet) - Counter(changed)
    # Replication is that one kind: the handshake is gone.
    assert "snapshot_push" in changed_kinds
    assert not {"digest", "snapshot_pull"} & (quiet_kinds | changed_kinds)
