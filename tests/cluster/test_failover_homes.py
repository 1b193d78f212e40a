"""Failover re-homes exactly what the coordinator's home map holds.

The home map (``Cluster.deployments``) and ``catalog`` are the one
record of ownership: a deploy writes them at once, a node's
``snapshot_push`` reconciles them, and failover plans exactly the
components the home map places on the dead node, each from its
catalog entry and in name order.  So a component deployed after the
node's last push is re-homed, one undeployed after it stays gone, a
wired application deployed after it moves whole (the coordinator
records the grouping at deploy time), and a component an unfinished
migration holds is left to that migration, even when the dead node's
last push still carried it.  A ``deploy_ack`` re-homes only names the
catalog still holds, so an undeploy that overtook its deploy's answer
leaves no ghost.  A migration's hand-off is one ``deploy`` answered by
one ``deploy_ack``; no ``undeploy_ack`` is sent.
"""

import collections

import pytest

from repro.cluster import Cluster, LinkSpec
from repro.core import ComponentState
from repro.sim.engine import MSEC

from conftest import make_descriptor_xml

SURVIVORS = {"node1", "node2"}

PORT = ("WIRE00", "RTAI.SHM", "Integer", 2)


@pytest.fixture
def cluster():
    c = Cluster(("node0", "node1", "node2"), seed=11,
                heartbeat_interval_ns=10 * MSEC)
    yield c
    c.shutdown()


def pushes(cluster):
    """Snapshot pushes the coordinator has taken in so far."""
    return cluster.sim.telemetry.registry("cluster").get(
        "snapshot_pushes_total").value


def hosts(cluster, name):
    return [node.name for node in cluster.alive_nodes()
            if name in node.drcr.registry]


def assert_re_homed(cluster, name):
    report = cluster.failovers[-1]
    assert report["node"] == "node0"
    assert report["unplaced"] == []
    home = report["moved"][name]
    assert home in SURVIVORS
    assert cluster.deployments[name] == home
    assert cluster.node(home).drcr.component_state(name) \
        is ComponentState.ACTIVE
    request = cluster.manage(name, "get_status")
    cluster.run_for(10 * MSEC)
    reply = cluster.mgmt_replies[request]
    assert reply["ok"] and reply["node"] == home


def slow_hand_off(cluster):
    """Make node0's hand-off to node1, and its re-sends, take 60 ms."""
    slow = LinkSpec(latency_ns=60 * MSEC)
    cluster.transport.set_link("node0", "node1", slow)
    cluster.transport.set_link("control", "node1", slow)


def test_a_deploy_after_the_last_push_is_re_homed(cluster):
    cluster.run_for(11 * MSEC)
    assert pushes(cluster) == 3  # every node pushed on the 10 ms tick
    cluster.deploy(make_descriptor_xml("AAA000", cpuusage=0.2),
                   node="node0")
    cluster.run_for(1 * MSEC)
    assert "AAA000" in cluster.node("node0").drcr.registry
    cluster.crash_node("node0")
    cluster.run_for(300 * MSEC)
    assert_re_homed(cluster, "AAA000")


def test_a_deploy_the_crash_swallowed_is_re_homed(cluster):
    # The deploy message is still on the wire when node0 dies: the
    # component never reached any node, yet the home map holds it.
    cluster.run_for(11 * MSEC)
    cluster.deploy(make_descriptor_xml("AAA000", cpuusage=0.2),
                   node="node0")
    cluster.crash_node("node0")
    cluster.run_for(300 * MSEC)
    assert_re_homed(cluster, "AAA000")


def test_a_replicated_component_moves_once(cluster):
    cluster.deploy(make_descriptor_xml("BBB000", cpuusage=0.2),
                   node="node0")
    cluster.run_for(25 * MSEC)
    # node0's push replaced the deploy's catalog entry with its export,
    # live properties included.
    assert "properties" in cluster.catalog["BBB000"]
    cluster.crash_node("node0")
    cluster.run_for(300 * MSEC)
    assert_re_homed(cluster, "BBB000")
    assert hosts(cluster, "BBB000") == [cluster.deployments["BBB000"]]


def test_a_component_mid_migration_is_left_to_its_migration(cluster):
    # node0 hands AAA000 to node1 over a slow link and pushes its
    # export without it before dying.  The home map still says node0
    # until node1 acks, but the migration's ledger owns the component:
    # failover must not place a second copy.
    cluster.deploy(make_descriptor_xml("AAA000", cpuusage=0.2),
                   node="node0")
    cluster.deploy(make_descriptor_xml("BBB000", cpuusage=0.1),
                   node="node1")
    cluster.run_for(11 * MSEC)
    slow_hand_off(cluster)
    migration_id = cluster.migrate("AAA000", "node1")
    cluster.run_for(1 * MSEC)
    assert len(cluster.node("node0").drcr.registry) == 0
    pushed = pushes(cluster)
    cluster.run_for(9 * MSEC)
    assert pushes(cluster) > pushed  # node0's export changed: it pushed
    assert cluster.deployments["AAA000"] == "node0"
    cluster.crash_node("node0")
    cluster.run_for(300 * MSEC)
    report = cluster.failovers[-1]
    assert report["node"] == "node0"
    assert report["moved"] == {} and report["unplaced"] == []
    assert cluster.migration(migration_id)["outcome"] == "restored"
    assert hosts(cluster, "AAA000") == ["node1"] \
        == [cluster.deployments["AAA000"]]


def test_a_hand_off_the_last_push_missed_leaves_one_host(cluster):
    # node0's 10 ms push still carries AAA000 when it hands it to
    # node1 at 11 ms and dies at 12 ms, before its next push.
    cluster.deploy(make_descriptor_xml("AAA000", cpuusage=0.2),
                   node="node0")
    cluster.deploy(make_descriptor_xml("BBB000", cpuusage=0.1),
                   node="node1")
    cluster.run_for(11 * MSEC)
    slow_hand_off(cluster)
    cluster.migrate("AAA000", "node1")
    cluster.run_for(1 * MSEC)
    cluster.crash_node("node0")
    cluster.run_for(300 * MSEC)
    assert cluster.failovers[-1]["node"] == "node0"
    assert hosts(cluster, "AAA000") == [cluster.deployments["AAA000"]]


def test_an_undeploy_after_the_last_push_stays_undeployed(cluster):
    cluster.deploy(make_descriptor_xml("AAA000", cpuusage=0.2),
                   node="node0")
    cluster.run_for(25 * MSEC)  # node0 pushed AAA000 at 20 ms
    cluster.undeploy("AAA000")
    cluster.run_for(1 * MSEC)
    cluster.crash_node("node0")
    cluster.run_for(300 * MSEC)
    report = cluster.failovers[-1]
    assert report["node"] == "node0"
    assert report["moved"] == {} and report["unplaced"] == []
    assert "AAA000" not in cluster.deployments
    assert hosts(cluster, "AAA000") == []


def test_an_undeploy_racing_its_deploy_leaves_no_ghost(cluster):
    # The undeploy follows the deploy onto the wire, so node0 admits
    # AAA000 and removes it again, and its deploy_ack still reports it
    # placed: the home map must not take a name the catalog dropped.
    cluster.run_for(5 * MSEC)
    cluster.deploy(make_descriptor_xml("AAA000", cpuusage=0.2),
                   node="node0")
    cluster.undeploy("AAA000")
    cluster.run_for(30 * MSEC)
    assert cluster.deployments == {}
    assert hosts(cluster, "AAA000") == []
    cluster.crash_node("node0")
    cluster.run_for(300 * MSEC)
    assert cluster.failovers[-1]["moved"] == {}
    assert cluster.deploy(make_descriptor_xml("AAA000", cpuusage=0.2),
                          node="node1") == "node1"
    cluster.run_for(10 * MSEC)
    assert cluster.deployments == {"AAA000": "node1"}
    assert hosts(cluster, "AAA000") == ["node1"]


def test_an_application_deployed_after_the_last_push_moves_whole(
        cluster):
    cluster.run_for(11 * MSEC)
    cluster.deploy_application("pipe", [
        make_descriptor_xml("PROV00", cpuusage=0.3, outports=[PORT]),
        make_descriptor_xml("CONS00", cpuusage=0.3, frequency=250,
                            priority=3, inports=[PORT]),
    ], node="node0")
    cluster.run_for(1 * MSEC)
    cluster.crash_node("node0")
    cluster.run_for(300 * MSEC)
    moved = cluster.failovers[-1]["moved"]
    assert sorted(moved) == ["CONS00", "PROV00"]
    assert moved["PROV00"] == moved["CONS00"]
    target = cluster.node(moved["CONS00"])
    assert target.drcr.component_state("CONS00") \
        is ComponentState.ACTIVE
    assert target.drcr.applications()["pipe"] == ["PROV00", "CONS00"]


def test_no_retired_reply_kinds_are_sent(cluster, monkeypatch):
    kinds = collections.Counter()
    send = cluster.transport.send

    def counting_send(src, dst, kind, payload=None):
        kinds[kind] += 1
        return send(src, dst, kind, payload)

    monkeypatch.setattr(cluster.transport, "send", counting_send)
    for name in ("AAA000", "BBB000", "CCC000"):
        cluster.deploy(make_descriptor_xml(name, cpuusage=0.1),
                       node="node0")
    cluster.run_for(20 * MSEC)
    migration_id = cluster.migrate("AAA000", "node1")
    cluster.undeploy("BBB000")
    cluster.run_for(20 * MSEC)
    cluster.crash_node("node0")
    cluster.run_for(300 * MSEC)
    assert cluster.migration(migration_id)["outcome"] == "restored"
    assert cluster.failovers[-1]["moved"].keys() == {"CCC000"}
    assert kinds["deploy"] == 4 and kinds["deploy_ack"] == 4
    assert kinds["migrate_out"] == kinds["migrate_begun"] == 1
    assert kinds["undeploy"] == 1
    assert not {"migrate_in", "migrate_ack", "undeploy_ack"} & set(kinds)
