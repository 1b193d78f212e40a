"""One node-choice rule: a node takes claims its CPUs can pack.

Deploys, migration targets and failover ask
:meth:`~repro.cluster.placement.ClusterPlacementService.choose_node`,
which picks the least-loaded node whose per-CPU declared loads place
every claim by best fit -- the choice the node's own
:class:`~repro.core.placement.BestFitPlacement` admission then makes.
On 2-CPU nodes a per-node total is not enough: node A at 0.6 | 0.6
has the smaller total (1.2 of 2.0) but no CPU with room for 0.5,
while node C at 0.3 | 1.0 has.  A ``drcom.placement=pinned`` claim
(:class:`~repro.core.placement.PinnedClaim`) fits only on its own CPU,
as the node's admission places it, and DRT602 asks the same rule.
"""

import pytest

from repro.cluster import Cluster, ClusterError
from repro.core import ComponentState
from repro.core.placement import PinnedClaim, best_node, pack
from repro.lint import lint_plan
from repro.rtos.kernel import KernelConfig
from repro.sim.engine import MSEC

from conftest import make_descriptor_xml

PINNED = [("drcom.placement", "String", "pinned")]

#: (node, name, claim, pinned CPU) of the loads most cases start from.
LOADS = [("A", "AAA000", 0.6, 0), ("A", "AAA001", 0.6, 1),
         ("C", "CCC000", 0.3, 0), ("C", "CCC001", 1.0, 1)]

#: Loads on which only a pin tells the nodes apart: A has the least
#: total, but CPU 0 is full there and free for 0.5 on C.
PINNED_LOADS = [("A", "AAA000", 0.9, 0), ("C", "CCC000", 0.5, 0),
                ("C", "CCC001", 0.5, 1), ("D", "DDD000", 0.5, 0)]

NEWCOMER = make_descriptor_xml("NEW000", cpuusage=0.5, frequency=10,
                               priority=20)


def two_cpu_fleet(names, loads=LOADS):
    cluster = Cluster(names, seed=7,
                      kernel_config_factory=lambda: KernelConfig(
                          num_cpus=2),
                      heartbeat_interval_ns=10 * MSEC)
    for priority, (node, name, claim, cpu) in enumerate(loads, 1):
        cluster.deploy(make_descriptor_xml(
            name, cpuusage=claim, frequency=10, priority=priority,
            cpu=cpu, properties=PINNED), node=node)
    cluster.run_for(20 * MSEC)
    for node, name, _, cpu in loads:
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

    def test_a_pinned_claim_takes_only_its_own_cpu(self):
        caps = [1.0, 1.0]
        loads = [0.9, 0.0]
        assert pack(loads, [PinnedClaim(0.5, 0)], caps) == 1
        assert pack(loads, [PinnedClaim(0.5, 2)], caps) == 1  # no CPU 2
        assert loads == [0.9, 0.0]
        assert pack(loads, [PinnedClaim(0.5, 1), 0.1], caps) == 0
        assert loads == pytest.approx([0.9, 0.6])
        nodes = [(0.9, [0.9, 0.0], caps), (1.0, [0.5, 0.5], caps)]
        assert best_node(nodes, [PinnedClaim(0.5, 0)]) == (1, [1.0, 0.5])
        assert best_node(nodes, [0.5])[0] == 0


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


class TestPinnedClaims:
    def test_a_pinned_deploy_lands_where_its_cpu_fits(self):
        cluster = two_cpu_fleet(("A", "C"), PINNED_LOADS[:3])
        try:
            assert cluster.deploy(make_descriptor_xml(
                "NEW000", cpuusage=0.5, frequency=10, priority=20,
                properties=PINNED)) == "C"
            cluster.run_for(20 * MSEC)
            assert state_of(cluster, "NEW000") is ComponentState.ACTIVE
        finally:
            cluster.shutdown()

    def test_a_pinned_migration_targets_a_node_its_cpu_fits(self):
        cluster = two_cpu_fleet(("A", "C", "D"), PINNED_LOADS)
        try:
            migration_id = cluster.migrate("DDD000")
            cluster.run_for(20 * MSEC)
            migration = cluster.migration(migration_id)
            assert migration["dst"] == "C"
            assert migration["outcome"] == "restored"
            assert state_of(cluster, "DDD000") is ComponentState.ACTIVE
        finally:
            cluster.shutdown()

    def test_failover_re_homes_a_pinned_claim_where_its_cpu_fits(self):
        cluster = two_cpu_fleet(("A", "C", "D"), PINNED_LOADS)
        try:
            cluster.crash_node("D")
            cluster.run_for(300 * MSEC)
            report = cluster.failovers[-1]
            assert report["node"] == "D"
            assert report["moved"] == {"DDD000": "C"}
            assert state_of(cluster, "DDD000") is ComponentState.ACTIVE
        finally:
            cluster.shutdown()

    def test_drt602_strands_a_pinned_claim_no_survivor_cpu_takes(self):
        cluster = two_cpu_fleet(("A", "C", "D"), PINNED_LOADS)
        try:
            result = lint_plan(cluster.export_plan(),
                               families=("deployment",))
            assert [(d.code, d.component) for d in result.diagnostics
                    if d.code == "DRT602"] == [("DRT602", "AAA000")]
        finally:
            cluster.shutdown()
