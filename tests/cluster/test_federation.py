"""Tests for the cluster management plane: deploy, migrate, manage,
fail over."""

import pytest

from repro.cluster import Cluster, ClusterError, LinkSpec, federation
from repro.core import ComponentState, descriptor
from repro.core.descriptor import ComponentDescriptor
from repro.lint import memo
from repro.sim.engine import MSEC

from conftest import make_descriptor_xml

PORT = ("WIRE00", "RTAI.SHM", "Integer", 2)


@pytest.fixture
def cluster():
    c = Cluster(("node0", "node1", "node2"), seed=23,
                heartbeat_interval_ns=10 * MSEC)
    yield c
    c.shutdown()


def tuned_xml(name="TUNED0", cpuusage=0.1):
    return make_descriptor_xml(
        name, cpuusage=cpuusage,
        properties=[("gain", "Integer", "1")])


class TestDeploy:
    def test_placement_spreads_the_fleet(self, cluster):
        for i in range(6):
            cluster.deploy(make_descriptor_xml(
                "COMP%02d" % i, cpuusage=0.1, priority=2 + i))
        cluster.run_for(50 * MSEC)
        homes = set(cluster.deployments.values())
        assert homes == {"node0", "node1", "node2"}
        for name, home in cluster.deployments.items():
            node = cluster.node(home)
            assert node.drcr.component_state(name) \
                is ComponentState.ACTIVE

    def test_a_deploy_burst_parses_linearly(self, monkeypatch):
        # Placement counts the claim of every deploy still in flight,
        # so parsing each claim on every deploy would be quadratic in
        # the burst; the lint memo parses each text once.
        burst = [make_descriptor_xml("BRST%02d" % i, cpuusage=0.02,
                                     priority=2 + i) for i in range(30)]

        def homes():
            fleet = Cluster(("node0", "node1", "node2"), seed=23)
            try:
                for xml in burst:
                    fleet.deploy(xml)
                return dict(fleet.deployments)
            finally:
                fleet.shutdown()

        parses = []
        parse_tree = descriptor.parse_descriptor_tree

        def counted(text, *args):
            parses.append(text)
            return parse_tree(text, *args)

        memo.clear()
        with monkeypatch.context() as patch:
            for module in (descriptor, memo):  # both callers' names
                patch.setattr(module, "parse_descriptor_tree", counted)
            landed = homes()
        assert len(parses) <= 2 * len(burst)
        # The claims are the floats a fresh parse gives.
        with monkeypatch.context() as patch:
            patch.setattr(federation, "_usage", lambda entry: (
                ComponentDescriptor.from_xml(entry["descriptor_xml"])
                .contract.cpu_usage))
            assert homes() == landed
        assert set(landed.values()) == {"node0", "node1", "node2"}

    def test_explicit_node_and_duplicate_rejected(self, cluster):
        cluster.deploy(tuned_xml(), node="node2")
        cluster.run_for(20 * MSEC)
        assert cluster.node("node2").drcr.component_state("TUNED0") \
            is ComponentState.ACTIVE
        with pytest.raises(ClusterError):
            cluster.deploy(tuned_xml())

    def test_unknown_node_rejected(self, cluster):
        with pytest.raises(ClusterError):
            cluster.deploy(tuned_xml(), node="nodeX")

    def test_wired_application_co_locates(self, cluster):
        prov = make_descriptor_xml("PROV00", cpuusage=0.2,
                                   outports=[PORT])
        cons = make_descriptor_xml("CONS00", cpuusage=0.1,
                                   frequency=250, priority=3,
                                   inports=[PORT])
        target = cluster.deploy_application("pipe", [prov, cons])
        cluster.run_for(50 * MSEC)
        node = cluster.node(target)
        assert node.drcr.component_state("PROV00") \
            is ComponentState.ACTIVE
        assert node.drcr.component_state("CONS00") \
            is ComponentState.ACTIVE
        assert node.drcr.applications() == {
            "pipe": ["PROV00", "CONS00"]}

    def test_undeploy(self, cluster):
        cluster.deploy(tuned_xml(), node="node0")
        cluster.run_for(20 * MSEC)
        cluster.undeploy("TUNED0")
        cluster.run_for(20 * MSEC)
        assert "TUNED0" not in cluster.node("node0").drcr.registry
        assert "TUNED0" not in cluster.deployments


class TestRemoteManagement:
    def test_set_property_routes_through_section_2_4(self, cluster):
        cluster.deploy(tuned_xml(), node="node1")
        cluster.run_for(20 * MSEC)
        request = cluster.manage("TUNED0", "set_property", "gain", 9)
        cluster.run_for(20 * MSEC)
        reply = cluster.mgmt_replies[request]
        assert reply["ok"], reply
        component = cluster.node("node1").drcr.component("TUNED0")
        assert component.container.get_property("gain") == 9

    def test_get_status_round_trip(self, cluster):
        cluster.deploy(tuned_xml(), node="node0")
        cluster.run_for(20 * MSEC)
        request = cluster.manage("TUNED0", "get_status")
        cluster.run_for(20 * MSEC)
        reply = cluster.mgmt_replies[request]
        assert reply["ok"]
        assert reply["result"]["state"] == "active"

    def test_suspend_resume_remote(self, cluster):
        cluster.deploy(tuned_xml(), node="node0")
        cluster.run_for(20 * MSEC)
        cluster.manage("TUNED0", "suspend")
        cluster.run_for(20 * MSEC)
        drcr = cluster.node("node0").drcr
        assert drcr.component_state("TUNED0") \
            is ComponentState.SUSPENDED
        cluster.manage("TUNED0", "resume")
        cluster.run_for(20 * MSEC)
        assert drcr.component_state("TUNED0") \
            is ComponentState.ACTIVE

    def test_bad_op_reports_error(self, cluster):
        cluster.deploy(tuned_xml(), node="node0")
        cluster.run_for(20 * MSEC)
        request = cluster.manage("TUNED0", "get_property", "missing")
        cluster.run_for(20 * MSEC)
        assert request in cluster.mgmt_replies


class TestMigration:
    def test_state_travels_with_the_component(self, cluster):
        cluster.deploy(tuned_xml(), node="node0")
        cluster.run_for(20 * MSEC)
        cluster.manage("TUNED0", "set_property", "gain", 42)
        cluster.run_for(20 * MSEC)
        migration_id = cluster.migrate("TUNED0", dst="node2")
        cluster.run_for(50 * MSEC)
        status = cluster.migration(migration_id)
        assert status["done"] and status["outcome"] == "restored"
        assert cluster.deployments["TUNED0"] == "node2"
        assert "TUNED0" not in cluster.node("node0").drcr.registry
        component = cluster.node("node2").drcr.component("TUNED0")
        assert component.state is ComponentState.ACTIVE
        assert component.container.get_property("gain") == 42

    def test_migration_latency_recorded(self, cluster):
        cluster.deploy(tuned_xml(), node="node0")
        cluster.run_for(20 * MSEC)
        cluster.migrate("TUNED0", dst="node1")
        cluster.run_for(50 * MSEC)
        metrics = cluster.sim.telemetry.registry("cluster")
        assert metrics.get("migrations_total").value == 1
        assert metrics.get("migration_latency_ns").count == 1

    def test_admission_re_decided_on_target(self):
        # Target nodes are full: migration lands UNSATISFIED, not
        # force-admitted -- the snapshot never bypasses admission.
        cluster = Cluster(("node0", "node1"), seed=29)
        try:
            cluster.deploy(make_descriptor_xml(
                "BIG000", cpuusage=0.9), node="node1")
            cluster.deploy(make_descriptor_xml(
                "MOVER0", cpuusage=0.5, priority=3), node="node0")
            cluster.run_for(30 * MSEC)
            cluster.migrate("MOVER0", dst="node1")
            cluster.run_for(50 * MSEC)
            assert cluster.node("node1").drcr \
                .component_state("MOVER0") \
                is ComponentState.UNSATISFIED
        finally:
            cluster.shutdown()

    def test_lossy_link_retries_until_delivered(self):
        cluster = Cluster(("node0", "node1"), seed=31,
                          link=LinkSpec(drop_probability=0.4),
                          migration_timeout_ns=5 * MSEC)
        try:
            cluster.deploy(tuned_xml(), node="node0")
            cluster.run_for(30 * MSEC)
            migration_id = cluster.migrate("TUNED0", dst="node1")
            cluster.run_for(400 * MSEC)
            status = cluster.migration(migration_id)
            # Exactly-once outcome despite the lossy wire: either the
            # wire eventually carried it, or the coordinator's
            # fallback placed it from the ledger.
            holders = [node.name for node in cluster.nodes.values()
                       if "TUNED0" in node.drcr.registry]
            assert len(holders) == 1
            assert status["done"]
        finally:
            cluster.shutdown()

    def test_unknown_component_rejected(self, cluster):
        with pytest.raises(ClusterError):
            cluster.migrate("GHOST0")


class TestFailover:
    def test_components_rehomed_in_one_batch_round(self, cluster):
        for i in range(4):
            cluster.deploy(make_descriptor_xml(
                "COMP%02d" % i, cpuusage=0.1, priority=2 + i),
                node="node0")
        cluster.run_for(50 * MSEC)
        reconf_before = {
            name: node.drcr.reconfigurations
            for name, node in cluster.nodes.items()
            if hasattr(node.drcr, "reconfigurations")}
        cluster.crash_node("node0")
        cluster.run_for(150 * MSEC)
        assert cluster.membership.is_dead("node0")
        assert len(cluster.failovers) == 1
        moved = cluster.failovers[0]["moved"]
        assert sorted(moved) == ["COMP00", "COMP01", "COMP02",
                                 "COMP03"]
        for name, home in moved.items():
            assert home in ("node1", "node2")
            assert cluster.node(home).drcr.component_state(name) \
                is ComponentState.ACTIVE
        assert reconf_before is not None  # shape guard only

    def test_wired_application_fails_over_together(self, cluster):
        prov = make_descriptor_xml("PROV00", cpuusage=0.2,
                                   outports=[PORT])
        cons = make_descriptor_xml("CONS00", cpuusage=0.1,
                                   frequency=250, priority=3,
                                   inports=[PORT])
        home = cluster.deploy_application("pipe", [prov, cons])
        cluster.run_for(50 * MSEC)
        cluster.crash_node(home)
        cluster.run_for(150 * MSEC)
        moved = cluster.failovers[0]["moved"]
        # Co-location preserved: the wired pair lands on ONE node and
        # both members re-resolve to ACTIVE.
        assert len(set(moved.values())) == 1
        target = cluster.node(moved["PROV00"])
        assert target.drcr.component_state("PROV00") \
            is ComponentState.ACTIVE
        assert target.drcr.component_state("CONS00") \
            is ComponentState.ACTIVE
        assert target.drcr.applications()["pipe"] == [
            "PROV00", "CONS00"]

    def test_live_properties_survive_failover(self, cluster):
        cluster.deploy(tuned_xml(), node="node1")
        cluster.run_for(30 * MSEC)
        cluster.manage("TUNED0", "set_property", "gain", 13)
        # Let the write land AND a heartbeat replicate it.
        cluster.run_for(40 * MSEC)
        cluster.crash_node("node1")
        cluster.run_for(150 * MSEC)
        home = cluster.deployments["TUNED0"]
        assert home != "node1"
        component = cluster.node(home).drcr.component("TUNED0")
        assert component.state is ComponentState.ACTIVE
        assert component.container.get_property("gain") == 13
