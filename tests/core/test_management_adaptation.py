"""Tests for the management interface (section 2.4) and the
adaptation managers that drive it -- ``AdaptationController`` rules
(more in tests/adapt/)."""

from repro.adapt import AdaptationController, ComponentContextProvider
from repro.adapt.rules import parse_rule_document
from repro.core import (
    MANAGEMENT_SERVICE_INTERFACE,
    AlwaysAcceptPolicy,
    ComponentState,
    RTComponentManagement,
)
from repro.sim.engine import MSEC

from conftest import deploy, make_descriptor_xml, suspend_rules


def calc_xml(name="CALC00", cpuusage=0.05, properties=(), priority=2):
    return make_descriptor_xml(
        name, cpuusage=cpuusage, frequency=1000, priority=priority,
        properties=properties,
        outports=[("LATDAT", "RTAI.SHM", "Integer", 4)])


def mgmt_for(platform, name):
    ref = platform.framework.registry.get_reference(
        MANAGEMENT_SERVICE_INTERFACE, "(drcom.name=%s)" % name)
    return platform.framework.registry.get_service(ref)


class TestManagementInterface:
    def test_interface_has_exactly_the_paper_methods(self):
        # suspend, resume, get/set property, get status -- and nothing
        # like init/uninit ("they are not exposed in the component's
        # interface", section 2.4).
        public = {name for name in dir(RTComponentManagement)
                  if not name.startswith("_")}
        assert public == {"suspend", "resume", "get_property",
                          "set_property", "get_status"}

    def test_suspend_resume_via_service(self, platform):
        deploy(platform, calc_xml())
        mgmt = mgmt_for(platform, "CALC00")
        mgmt.suspend()
        assert platform.drcr.component_state("CALC00") \
            is ComponentState.SUSPENDED
        mgmt.resume()
        assert platform.drcr.component_state("CALC00") \
            is ComponentState.ACTIVE

    def test_get_status_merges_task_stats(self, platform):
        deploy(platform, calc_xml())
        platform.run_for(10 * MSEC)
        status = mgmt_for(platform, "CALC00").get_status()
        assert status["state"] == "active"
        assert status["task"]["stats"]["completions"] >= 9
        assert status["task"]["job_index"] >= 9

    def test_get_property_reads_descriptor_default(self, platform):
        deploy(platform, calc_xml(properties=[("gain", "Integer", "3")]))
        assert mgmt_for(platform, "CALC00").get_property("gain") == 3

    def test_set_property_applied_at_next_job(self, platform):
        deploy(platform, calc_xml(properties=[("gain", "Integer", "3")]))
        mgmt = mgmt_for(platform, "CALC00")
        mgmt.set_property("gain", 9)
        # Asynchronous: applied when the RT task polls its mailbox.
        platform.run_for(3 * MSEC)
        assert mgmt.get_property("gain") == 9

    def test_locate_component_by_property_filter(self, platform):
        # "General component's user can locate the individual component"
        deploy(platform, calc_xml("CAMA00",
                                  properties=[("room", "String",
                                               "kitchen")]))
        deploy(platform, calc_xml("CAMB00",
                                  properties=[("room", "String",
                                               "garage")]))
        ref = platform.framework.registry.get_reference(
            MANAGEMENT_SERVICE_INTERFACE, "(room=garage)")
        assert ref.get_property("drcom.name") == "CAMB00"


def shedding_controller(platform):
    """Shed the least important component (largest priority number)
    while more than one is active."""
    return AdaptationController(platform, rules=parse_rule_document(
        {"rules": [{
            "name": "shed-on-pressure",
            "when": {"param": "active_components", "op": ">",
                     "value": 1},
            "then": {"action": "shed_lowest_priority"}}]}))


class TestAdaptationManager:
    """The paper's adaptation managers: controller rules that read the
    management status and act through the management service."""

    def test_suspend_on_misses_rule(self, platform):
        # HOG000 is starved by a higher-priority hog and misses; its
        # deadline_misses rule suspends it through the management
        # service, the light OK0000 is left alone.
        platform.drcr.set_internal_policy(AlwaysAcceptPolicy())
        deploy(platform, calc_xml("OK0000", cpuusage=0.05))
        deploy(platform, make_descriptor_xml(
            "HOG000", cpuusage=0.9, frequency=1000, priority=2))
        deploy(platform, make_descriptor_xml(
            "HP0000", cpuusage=0.5, frequency=1000, priority=0))
        platform.run_for(100 * MSEC)
        controller = AdaptationController(
            platform,
            rules=suspend_rules("deadline_misses", 5,
                                ("OK0000", "HOG000", "HP0000")),
            providers=[ComponentContextProvider(platform.framework)])
        assert [firing.rule.name for firing in controller.step()] \
            == ["deadline_misses-HOG000"]
        assert platform.drcr.component_state("HOG000") \
            is ComponentState.SUSPENDED
        assert platform.drcr.component_state("OK0000") \
            is ComponentState.ACTIVE

    def test_importance_shedding_picks_least_important(self, platform):
        # Importance is the priority number: lower = more important.
        deploy(platform, calc_xml("VIPC00", priority=1))
        deploy(platform, calc_xml("LOWC00", priority=3))
        platform.run_for(5 * MSEC)
        controller = shedding_controller(platform)
        controller.step()
        assert platform.drcr.component_state("LOWC00") \
            is ComponentState.DISABLED
        assert platform.drcr.component_state("VIPC00") \
            is ComponentState.ACTIVE
        # One component left: the pressure is gone.
        assert controller.step() == []

    def test_no_pressure_no_shedding(self, platform):
        deploy(platform, calc_xml())
        controller = shedding_controller(platform)
        assert controller.step() == []
        assert controller.history == []
        assert platform.drcr.component_state("CALC00") \
            is ComponentState.ACTIVE

    def test_actions_logged(self, platform):
        deploy(platform, calc_xml("CAMA00"))
        deploy(platform, calc_xml("CAMB00"))
        platform.run_for(5 * MSEC)
        controller = shedding_controller(platform)
        controller.step()
        assert controller.history == [{
            "at_ns": platform.now,
            "rule": "shed-on-pressure",
            "action": {"action": "shed_lowest_priority"},
            "outcome": "shed CAMB00",
        }]

