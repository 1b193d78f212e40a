"""What an ``AdaptationController`` is built from, and what it reaches.

The controller takes exactly one of a platform and ``cluster=`` and
reads everything else from it: ``set_degradation_cap`` acts on the
``GracefulDegradationService`` the platform's DRCR consults, and a
fleet-scope controller publishes node-scoped context and migrates
through the cluster coordinator.
"""

import pytest

from repro.adapt.controller import AdaptationController
from repro.adapt.rules import parse_rule_document
from repro.cluster import Cluster
from repro.core import ComponentState
from repro.core.resolving import RESOLVING_SERVICE_INTERFACE
from repro.faults.recovery import GracefulDegradationService
from repro.platform import build_platform
from repro.rtos.kernel import KernelConfig
from repro.rtos.latency import NullLatencyModel
from repro.sim.engine import MSEC

from conftest import deploy, make_descriptor_xml

#: Three 0.3 claims on CPU 0; DEG000 is the most important.
CLAIMS = (("DEG000", 2), ("DEG001", 3), ("DEG002", 4))

LOWER_CAP = {"rules": [{
    "name": "lower-cap",
    "when": {"param": "releases", "op": ">=", "value": 0},
    "then": [{"action": "set_degradation_cap", "cap": 0.5}],
    "max_firings": 1,
}]}


def degradable_platform(internal_policy=None):
    platform = build_platform(
        seed=7,
        kernel_config=KernelConfig(latency_model=NullLatencyModel()),
        internal_policy=internal_policy)
    platform.start_timer(1 * MSEC)
    return platform


def deploy_claims(platform):
    for name, priority in CLAIMS:
        deploy(platform, make_descriptor_xml(
            name, cpuusage=0.3, frequency=100, priority=priority))
    for name, _ in CLAIMS:
        assert platform.drcr.component_state(name) \
            is ComponentState.ACTIVE


def lower_the_cap(platform):
    controller = AdaptationController(
        platform, rules=parse_rule_document(LOWER_CAP))
    controller.step()
    return controller


def assert_shed_to_half(platform, service, controller):
    assert service.cap == 0.5
    assert [entry["outcome"] for entry in controller.history] \
        == ["degradation cap -> 0.50"]
    states = {name: platform.drcr.component_state(name)
              for name, _ in CLAIMS}
    assert states == {"DEG000": ComponentState.ACTIVE,
                      "DEG001": ComponentState.UNSATISFIED,
                      "DEG002": ComponentState.UNSATISFIED}


class TestDegradationCap:
    def test_sheds_through_a_service_registered_in_osgi(self):
        platform = degradable_platform()
        service = GracefulDegradationService(cap=1.0)
        platform.framework.registry.register(
            RESOLVING_SERVICE_INTERFACE, service)
        deploy_claims(platform)
        controller = lower_the_cap(platform)
        assert_shed_to_half(platform, service, controller)

    def test_sheds_through_the_internal_policy(self):
        service = GracefulDegradationService(cap=1.0)
        platform = degradable_platform(internal_policy=service)
        deploy_claims(platform)
        controller = lower_the_cap(platform)
        assert_shed_to_half(platform, service, controller)

    def test_without_a_service_the_action_is_an_error(self):
        platform = degradable_platform()
        deploy_claims(platform)
        controller = lower_the_cap(platform)
        report = controller.report()
        assert report["counters"]["action_errors_total"] == 1
        assert report["counters"]["actions_executed_total"] == 0
        assert [entry["outcome"] for entry in report["history"]] \
            == ["error: the DRCR consults no GracefulDegradationService"]
        for name, _ in CLAIMS:
            assert platform.drcr.component_state(name) \
                is ComponentState.ACTIVE


@pytest.fixture
def fleet():
    cluster = Cluster(("node0", "node1", "node2"), seed=5,
                      heartbeat_interval_ns=10 * MSEC)
    yield cluster
    cluster.shutdown()


def fire_once(name, when, action):
    return {"name": name, "when": when, "then": [action],
            "max_firings": 1}


class TestFleetScope:
    def test_publishes_node_scoped_context(self, fleet):
        fleet.deploy(make_descriptor_xml("CTX000", cpuusage=0.1),
                     node="node1")
        fleet.run_for(20 * MSEC)
        context = AdaptationController(cluster=fleet).collect_context()
        for node in ("node0", "node1", "node2"):
            assert "active_components@%s" % node in context
            assert "deadline_miss_rate@%s" % node in context
        assert context["active_components@node1"] == 1.0
        assert context["alive_nodes"] == 3.0

    def test_a_node_joined_later_publishes_its_kernel_parameters(self):
        cluster = Cluster(("node0", "node1"), seed=5,
                          heartbeat_interval_ns=10 * MSEC)
        try:
            controller = AdaptationController(cluster=cluster)
            cluster.run_for(100 * MSEC)
            controller.collect_context()
            kernel = cluster.add_node("node2").kernel
            cluster.deploy(make_descriptor_xml(
                "LATE00", cpuusage=0.3, frequency=100), node="node2")
            cluster.run_for(50 * MSEC)
            context = controller.collect_context()
            busy_ns = kernel.rt_busy_ns()
            kernel_utilization = kernel.rt_utilization()
        finally:
            cluster.shutdown()

        def keys_of(node):
            return sorted(key.split("@")[0] for key in context
                          if key.endswith("@" + node))

        assert keys_of("node0") == [
            "active_components", "deadline_miss_rate",
            "deadline_misses", "rt_utilization"]
        assert keys_of("node2") == keys_of("node0")
        # Both utilizations run from the join, 50 ms ago, not from t0.
        utilization = busy_ns / (50 * MSEC)
        assert utilization > 0.2
        assert context["rt_utilization@node2"] \
            == pytest.approx(utilization)
        assert kernel_utilization == pytest.approx(utilization)

    def test_migrate_and_rebalance_rules_move_components(self, fleet):
        fleet.deploy(make_descriptor_xml("MOVE00", cpuusage=0.1),
                     node="node0")
        for index in range(2):
            fleet.deploy(make_descriptor_xml(
                "BUSY%02d" % index, cpuusage=0.1,
                priority=3 + index), node="node1")
        fleet.run_for(20 * MSEC)
        rules = parse_rule_document({"rules": [
            fire_once("move-off-node0",
                      {"param": "active_components", "node": "node0",
                       "op": ">=", "value": 1},
                      {"action": "migrate", "component": "MOVE00"}),
            fire_once("drain-node1",
                      {"param": "active_components", "node": "node1",
                       "op": ">=", "value": 2},
                      {"action": "rebalance", "node": "node1"}),
        ]})
        controller = AdaptationController(cluster=fleet, rules=rules)
        controller.step()
        fleet.run_for(50 * MSEC)
        outcomes = [entry["outcome"] for entry in controller.history]
        assert len(outcomes) == 2, outcomes
        assert not any(outcome.startswith("error") for outcome in outcomes)
        assert fleet.deployments["MOVE00"] != "node0"
        # rebalance moves the least important (largest priority) first.
        assert fleet.deployments["BUSY01"] != "node1"
        assert fleet.deployments["BUSY00"] == "node1"
        assert controller.report()["counters"][
            "actions_executed_total"] == 2

    def test_drcr_only_actions_record_their_error(self, fleet):
        fleet.deploy(make_descriptor_xml("SHED00", cpuusage=0.1))
        fleet.run_for(20 * MSEC)
        rules = parse_rule_document({"rules": [
            fire_once("shed", {"param": "alive_nodes", "op": ">=",
                               "value": 1},
                      {"action": "shed_lowest_priority"}),
            fire_once("cap", {"param": "alive_nodes", "op": ">=",
                              "value": 1},
                      {"action": "set_degradation_cap", "cap": 0.5}),
        ]})
        controller = AdaptationController(cluster=fleet, rules=rules)
        controller.step()
        outcomes = {entry["rule"]: entry["outcome"]
                    for entry in controller.history}
        assert outcomes["shed"] \
            == "error: no DRCR attached to this controller"
        assert outcomes["cap"].startswith("error: ")
        assert controller.report()["counters"][
            "action_errors_total"] == 2
        home = fleet.deployments["SHED00"]
        assert fleet.node(home).drcr.component_state("SHED00") \
            is ComponentState.ACTIVE


class TestConstruction:
    def test_needs_a_platform_or_a_cluster(self):
        with pytest.raises(ValueError, match="exactly one"):
            AdaptationController()

    def test_refuses_both(self, platform, fleet):
        with pytest.raises(ValueError, match="exactly one"):
            AdaptationController(platform, cluster=fleet)
