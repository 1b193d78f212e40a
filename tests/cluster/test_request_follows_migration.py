"""A management request racing a migration is answered, exactly once.

``Cluster.manage`` routes a request to the component's current home.
Link jitter can deliver a ``migrate_out`` sent at the same instant
first; the old home then answers with an error marked ``moved``.  The
coordinator holds such a request until the migration settles and
re-sends it to the component's new home (at once, when the home has
already changed), so the caller sees the answer of the node that hosts
the component -- and one reply per request id, an error only when the
migration lost the component.
"""

import pytest

from repro.cluster import Cluster, LinkSpec
from repro.sim.engine import MSEC, USEC

from conftest import make_descriptor_xml

#: The E1 federation workload's link.
E1_LINK = dict(latency_ns=500 * USEC, jitter_ns=50 * USEC)


def make_cluster(seed, link=None):
    return Cluster(("node0", "node1", "node2"), seed=seed,
                   link=LinkSpec(**(link or {})))


@pytest.fixture
def cluster():
    c = make_cluster(seed=5)
    yield c
    c.shutdown()


def test_request_racing_a_migration_is_answered_by_the_component():
    answered_by = []
    for seed in range(40):
        cluster = make_cluster(seed, E1_LINK)
        cluster.deploy(make_descriptor_xml("MOVER0", cpuusage=0.1),
                       node="node0")
        cluster.run_for(20 * MSEC)
        request = cluster.manage("MOVER0", "get_status")
        migration = cluster.migrate("MOVER0", "node1")
        cluster.run_for(50 * MSEC)
        reply = cluster.mgmt_replies.get(request)
        assert reply is not None and reply["ok"], (seed, reply)
        assert reply["result"]["state"] == "active"
        assert cluster.migration(migration)["outcome"] == "restored"
        answered_by.append(reply["node"])
        cluster.shutdown()
    # Both orders occur on this link: the test exercises the re-send.
    assert "node1" in answered_by and "node0" in answered_by


def test_moved_reply_after_the_migration_settled_is_resent(cluster):
    cluster.deploy(make_descriptor_xml("MOVER0", cpuusage=0.1),
                   node="node0")
    cluster.run_for(20 * MSEC)
    # node0's answers crawl back: the migration settles first.
    cluster.transport.set_link("node0", "control",
                               LinkSpec(latency_ns=5 * MSEC))
    migration = cluster.migrate("MOVER0", "node1")
    request = cluster.manage("MOVER0", "get_status")
    cluster.run_for(2 * MSEC)
    assert cluster.migration(migration)["done"]
    assert request not in cluster.mgmt_replies
    cluster.run_for(20 * MSEC)
    reply = cluster.mgmt_replies[request]
    assert reply["ok"] and reply["node"] == "node1"


def _strand_migration(cluster, fill_source):
    """Migrate MOVER0 node0 -> node1 with every hand-off to node1 cut,
    a status request racing it; with ``fill_source`` the freed budget
    on node0 is taken, so the fallback finds no home."""
    cluster.deploy(make_descriptor_xml("MOVER0", cpuusage=0.5),
                   node="node0")
    for index, node in enumerate(("node1", "node2")):
        cluster.deploy(make_descriptor_xml(
            "FULL%02d" % index, cpuusage=0.9, priority=3), node=node)
    cluster.run_for(20 * MSEC)
    cluster.transport.partition("node0", "node1")
    cluster.transport.partition("control", "node1")
    migration = cluster.migrate("MOVER0", "node1")
    request = cluster.manage("MOVER0", "get_status")
    cluster.run_for(700 * USEC)  # migrate_out has withdrawn MOVER0
    if fill_source:
        cluster.deploy(make_descriptor_xml(
            "FILL00", cpuusage=0.9, priority=4), node="node0")
    cluster.run_for(200 * MSEC)
    assert cluster.migration(migration)["outcome"] == "failed"
    return request


def test_failed_migration_answers_from_the_fallback_home(cluster):
    request = _strand_migration(cluster, fill_source=False)
    reply = cluster.mgmt_replies[request]
    assert reply["ok"] and reply["node"] == "node0"
    assert "MOVER0" in cluster.node("node0").drcr.registry


def test_component_lost_by_its_migration_gets_one_error(cluster):
    request = _strand_migration(cluster, fill_source=True)
    assert not any("MOVER0" in node.drcr.registry
                   for node in cluster.nodes.values())
    assert list(cluster.mgmt_replies) == [request]
    reply = cluster.mgmt_replies[request]
    assert not reply["ok"] and "MOVER0" in reply["error"]
