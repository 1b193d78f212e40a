"""One node-choice rule: a node takes claims its CPUs can pack.

Deploys, migration targets and failover ask
:meth:`~repro.cluster.placement.ClusterPlacementService.choose_node`,
which picks the least-loaded node whose per-CPU declared loads place
every claim by best fit -- the choice the node's own
:class:`~repro.core.placement.BestFitPlacement` admission then makes.
On 2-CPU nodes a per-node total is not enough: node A at 0.6 | 0.6
has the smaller total (1.2 of 2.0) but no CPU with room for 0.5,
while node C at 0.3 | 1.0 has.
"""

import pytest

from repro.cluster import Cluster, ClusterError
from repro.core import ComponentState
from repro.core.placement import best_node, pack
from repro.rtos.kernel import KernelConfig
from repro.sim.engine import MSEC

from conftest import make_descriptor_xml

PINNED = [("drcom.placement", "String", "pinned")]

#: (node, name, claim, pinned CPU) of the loads every case starts from.
LOADS = [("A", "AAA000", 0.6, 0), ("A", "AAA001", 0.6, 1),
         ("C", "CCC000", 0.3, 0), ("C", "CCC001", 1.0, 1)]

NEWCOMER = make_descriptor_xml("NEW000", cpuusage=0.5, frequency=10,
                               priority=20)


def two_cpu_fleet(names):
    cluster = Cluster(names, seed=7,
                      kernel_config_factory=lambda: KernelConfig(
                          num_cpus=2),
                      heartbeat_interval_ns=10 * MSEC)
    for priority, (node, name, claim, cpu) in enumerate(LOADS, 1):
        cluster.deploy(make_descriptor_xml(
            name, cpuusage=claim, frequency=10, priority=priority,
            cpu=cpu, properties=PINNED), node=node)
    cluster.run_for(20 * MSEC)
    for node, name, _, cpu in LOADS:
        component = cluster.node(node).drcr.registry.get(name)
        assert component.state is ComponentState.ACTIVE
        assert component.contract.cpu == cpu
    return cluster


def state_of(cluster, name):
    return cluster.node(cluster.deployments[name]).drcr \
        .component_state(name)


class TestBestNode:
    def test_the_least_total_that_packs_wins(self):
        caps = [1.0, 1.0]
        nodes = [(1.2, [0.6, 0.6], caps), (1.3, [0.3, 1.0], caps)]
        assert best_node(nodes, [0.5]) == (1, [0.8, 1.0])
        assert best_node(nodes, [0.4])[0] == 0
        assert best_node(nodes, [0.8]) is None
        assert nodes[1][1] == [0.3, 1.0]  # the inputs stay as they were

    def test_a_group_must_pack_whole(self):
        caps = [1.0, 1.0]
        # X packs 0.7 and 0.6 one per CPU; the less loaded Y takes 0.7
        # on CPU 0 and then has no CPU left for 0.6.
        nodes = [(0.6, [0.3, 0.3], caps), (0.5, [0.0, 0.5], caps)]
        index, packed = best_node(nodes, [0.7, 0.6])
        assert index == 0 and packed == pytest.approx([1.0, 0.9])
        assert best_node(nodes, [0.7]) == (1, [0.7, 0.5])

    def test_ties_go_to_the_first_node(self):
        caps = [1.0]
        assert best_node([(0.5, [0.5], caps), (0.5, [0.5], caps)],
                         [0.5]) == (0, [1.0])

    def test_pack_leaves_a_claim_no_cpu_takes(self):
        loads = [0.6, 0.6]
        assert pack(loads, [0.3, 0.5, 0.1], [1.0, 1.0]) == 1
        assert loads == pytest.approx([0.9, 0.7])


class TestClusterNodeChoice:
    def test_a_deploy_lands_where_a_cpu_fits(self):
        cluster = two_cpu_fleet(("A", "C"))
        try:
            assert cluster.placement.choose_node(0.5) == "C"
            assert cluster.deploy(NEWCOMER) == "C"
            cluster.run_for(20 * MSEC)
            assert state_of(cluster, "NEW000") is ComponentState.ACTIVE
        finally:
            cluster.shutdown()

    def test_failover_re_homes_where_a_cpu_fits(self):
        cluster = two_cpu_fleet(("A", "C", "D"))
        try:
            cluster.deploy(NEWCOMER, node="D")
            cluster.run_for(30 * MSEC)
            cluster.crash_node("D")
            cluster.run_for(300 * MSEC)
            report = cluster.failovers[-1]
            assert report["node"] == "D"
            assert report["moved"] == {"NEW000": "C"}
            assert state_of(cluster, "NEW000") is ComponentState.ACTIVE
        finally:
            cluster.shutdown()

    def test_in_flight_claims_pack_first(self):
        cluster = two_cpu_fleet(("A", "C"))
        try:
            assert cluster.deploy(NEWCOMER) == "C"
            # Still in flight: it books C's CPU 0, so a second 0.5
            # finds no CPU on either node.
            assert cluster.placement.choose_node(
                0.5, pending={"C": [0.5]}) is None
            with pytest.raises(ClusterError, match="no node fits"):
                cluster.deploy(make_descriptor_xml(
                    "NEW001", cpuusage=0.5, frequency=10, priority=21))
            assert cluster.placement.choose_node(
                0.2, pending={"C": [0.5]}) == "A"
        finally:
            cluster.shutdown()
