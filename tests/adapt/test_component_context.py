"""Per-component context: the §2.4 management status as rule input.

ComponentContextProvider publishes ``deadline_misses#<name>`` and
``budget_ratio#<name>``; one rule per named component turns the
paper's adaptation managers (suspend on misses, budget enforcement,
property tuning) into ordinary declarative rules.
"""

import pytest

from repro.adapt import AdaptationController, ComponentContextProvider
from repro.adapt.context import BUDGET_WARMUP_NS
from repro.adapt.rules import RuleSchemaError, parse_rule_document
from repro.core import (
    MANAGEMENT_SERVICE_INTERFACE,
    AlwaysAcceptPolicy,
    ComponentState,
)
from repro.sim.engine import MSEC, SEC

from conftest import (
    deploy,
    liar_platform,
    make_descriptor_xml,
    suspend_rules,
)


def deploy_hogs(platform):
    """Two hogs whose combined demand (1.4) overruns the CPU: the
    lower-priority HOGB00 misses, HOGA00 does not."""
    platform.drcr.set_internal_policy(AlwaysAcceptPolicy())
    return {name: deploy(platform, hog_xml(name, priority))
            for name, priority in (("HOGA00", 1), ("HOGB00", 2))}


def hog_xml(name, priority):
    return make_descriptor_xml(name, cpuusage=0.7, frequency=1000,
                               priority=priority)


def controller_for(platform, rules, epoch_ns=50 * MSEC):
    return AdaptationController(
        platform, epoch_ns=epoch_ns, rules=rules,
        providers=[ComponentContextProvider(platform.framework)]).start()


def test_publishes_keys_as_components_deploy(platform):
    provider = ComponentContextProvider(platform.framework)
    assert provider.collect(platform.now) == {}
    deploy(platform, make_descriptor_xml("CAMA00"))
    assert set(provider.collect(platform.now)) \
        == {"deadline_misses#CAMA00"}
    deploy(platform, make_descriptor_xml("CAMB00"))
    assert "deadline_misses#CAMB00" in provider.collect(platform.now)


def test_deadline_misses_counted_per_epoch(platform):
    bundles = deploy_hogs(platform)
    provider = ComponentContextProvider(platform.framework)
    platform.run_for(50 * MSEC)
    first = provider.collect(platform.now)
    assert first["deadline_misses#HOGB00"] > 0
    assert first["deadline_misses#HOGA00"] == 0.0
    # no simulated time passed: the window is empty
    assert provider.collect(platform.now)["deadline_misses#HOGB00"] == 0.0
    platform.run_for(50 * MSEC)
    second = provider.collect(platform.now)["deadline_misses#HOGB00"]
    assert second > 0
    hog_b = platform.kernel.lookup("HOGB00")
    assert first["deadline_misses#HOGB00"] + second \
        == hog_b.stats.deadline_misses
    # A redeployed component's count restarts with its new task.
    bundles["HOGB00"].uninstall()
    deploy(platform, hog_xml("HOGB00", 2))
    platform.run_for(10 * MSEC)
    redeployed = platform.kernel.lookup("HOGB00").stats.deadline_misses
    assert 0 < redeployed < hog_b.stats.deadline_misses
    assert provider.collect(platform.now)["deadline_misses#HOGB00"] \
        == redeployed


def test_budget_ratio_waits_for_warmup_then_measures_the_liar():
    platform = liar_platform()
    provider = ComponentContextProvider(platform.framework)
    platform.run_for(20 * MSEC)
    liar = platform.kernel.lookup("LIAR00")
    assert 0 < liar.stats.cpu_time_ns < BUDGET_WARMUP_NS
    assert "budget_ratio#LIAR00" not in provider.collect(platform.now)
    platform.run_for(480 * MSEC)
    ratio = provider.collect(platform.now)["budget_ratio#LIAR00"]
    assert ratio == pytest.approx(3.0, rel=0.05)


def test_miss_rule_suspends_hog_inside_one_run(platform):
    """The paper's loop with no test code in between: overload
    appears, the rule detects it through the management status and
    suspends through the management service, the survivor runs clean
    -- all inside one run_for window."""
    deploy_hogs(platform)
    controller = controller_for(platform, suspend_rules(
        "deadline_misses", 10, ("HOGA00", "HOGB00")))
    platform.run_for(2 * SEC)
    assert platform.drcr.component_state("HOGB00") \
        is ComponentState.SUSPENDED
    assert platform.drcr.component_state("HOGA00") \
        is ComponentState.ACTIVE
    assert [entry["outcome"] for entry in controller.history] \
        == ["suspend HOGB00"]
    # After the shed, A ran clean for the rest of the window.
    hog_a = platform.kernel.lookup("HOGA00")
    assert hog_a.stats.completions > 1500
    assert hog_a.stats.deadline_misses == 0
    controller.stop()


def _run_budget_rules(threshold):
    platform = liar_platform()
    deploy(platform, make_descriptor_xml(
        "GOOD00", cpuusage=0.1, priority=3))
    controller = controller_for(
        platform, suspend_rules("budget_ratio", threshold,
                                ("LIAR00", "GOOD00")),
        epoch_ns=100 * MSEC)
    platform.run_for(1 * SEC)
    controller.stop()
    return platform, controller


def test_budget_rule_suspends_liar_spares_honest():
    platform, controller = _run_budget_rules(1.25)
    assert platform.drcr.component_state("LIAR00") \
        is ComponentState.SUSPENDED
    assert platform.drcr.component_state("GOOD00") \
        is ComponentState.ACTIVE
    assert [entry["rule"] for entry in controller.history] \
        == ["budget_ratio-LIAR00"]


def test_budget_threshold_above_overuse_spares_the_liar():
    platform, controller = _run_budget_rules(5.0)
    assert platform.drcr.component_state("LIAR00") \
        is ComponentState.ACTIVE
    assert controller.history == []


def test_set_property_rule_fires_once(platform):
    deploy(platform, make_descriptor_xml(
        "CALC00", properties=[("rate", "Integer", "100")]))
    rules = parse_rule_document({"rules": [{
        "name": "tune-rate",
        "when": {"param": "deadline_misses", "component": "CALC00",
                 "op": ">=", "value": 0},
        "then": {"action": "set_property", "component": "CALC00",
                 "property": "rate", "value": 50},
        "max_firings": 1,
    }]})
    controller = AdaptationController(
        platform, rules=rules,
        providers=[ComponentContextProvider(platform.framework)])
    registry = platform.framework.registry
    management = registry.get_service(registry.get_reference(
        MANAGEMENT_SERVICE_INTERFACE, "(drcom.name=CALC00)"))
    platform.run_for(5 * MSEC)
    assert len(controller.step()) == 1
    # Asynchronous: applied when the RT task polls its mailbox.
    assert management.get_property("rate") == 100
    platform.run_for(3 * MSEC)
    assert management.get_property("rate") == 50
    # The predicate still holds, but the firing budget is spent.
    assert controller.step() == [] and controller.step() == []
    assert len(controller.history) == 1
    exhausted = platform.telemetry.registry("adapt").counter(
        "rules_suppressed_exhausted_total")
    assert exhausted.value == 2


def _leaf(**scope):
    when = {"param": "deadline_misses", "op": ">", "value": 1}
    when.update(scope)
    return {"rules": [{"name": "r", "when": when,
                       "then": {"action": "reconfigure"}}]}


def test_component_scope_only_on_component_scoped_params():
    with pytest.raises(RuleSchemaError, match="not component-scoped"):
        parse_rule_document({"rules": [{
            "name": "r",
            "when": {"param": "deadline_miss_rate", "component": "C",
                     "op": ">", "value": 0.1},
            "then": {"action": "reconfigure"}}]})
    rule = parse_rule_document(_leaf(component="C"))[0]
    assert rule.when.key == "deadline_misses#C"
    assert rule.as_dict()["when"]["component"] == "C"


def test_component_and_node_scope_are_exclusive():
    with pytest.raises(RuleSchemaError, match="mutually exclusive"):
        parse_rule_document(_leaf(component="C", node="n0"))
