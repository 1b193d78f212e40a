"""Failover re-homes everything the home map places on the dead node.

A node's replica is its last ``snapshot_push``; a component deployed
or migrated onto it after that push is in the coordinator's home map
and catalog but not in the replica.  Failover restores the replica's
entries and then, from the catalog, every component the home map
still places on the dead node, so such a component is not lost.
"""

import pytest

from repro.cluster import Cluster, LinkSpec
from repro.core import ComponentState
from repro.sim.engine import MSEC

from conftest import make_descriptor_xml

SURVIVORS = {"node1", "node2"}


@pytest.fixture
def cluster():
    c = Cluster(("node0", "node1", "node2"), seed=11,
                heartbeat_interval_ns=10 * MSEC)
    yield c
    c.shutdown()


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


def test_a_deploy_after_the_last_push_is_re_homed(cluster):
    cluster.run_for(11 * MSEC)
    assert "node0" in cluster._replicas  # pushed on the 10 ms tick
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
    assert [entry["name"] for entry
            in cluster._replicas["node0"]["components"]] == ["BBB000"]
    cluster.crash_node("node0")
    cluster.run_for(300 * MSEC)
    assert_re_homed(cluster, "BBB000")
    hosts = [node.name for node in cluster.alive_nodes()
             if "BBB000" in node.drcr.registry]
    assert hosts == [cluster.deployments["BBB000"]]


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
    slow = LinkSpec(latency_ns=60 * MSEC)
    cluster.transport.set_link("node0", "node1", slow)
    cluster.transport.set_link("control", "node1", slow)
    migration_id = cluster.migrate("AAA000", "node1")
    cluster.run_for(10 * MSEC)
    assert cluster._replicas["node0"]["components"] == []
    assert cluster.deployments["AAA000"] == "node0"
    cluster.crash_node("node0")
    cluster.run_for(300 * MSEC)
    report = cluster.failovers[-1]
    assert report["node"] == "node0"
    assert report["moved"] == {} and report["unplaced"] == []
    assert cluster.migration(migration_id)["outcome"] == "restored"
    hosts = [node.name for node in cluster.alive_nodes()
             if "AAA000" in node.drcr.registry]
    assert hosts == ["node1"] == [cluster.deployments["AAA000"]]
