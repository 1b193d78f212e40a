"""Tests for run-time budget enforcement (the §2.1 "enforced by a
central scheme" loop closed at run time): a ``budget_ratio`` rule per
component, read from the management status by a
``ComponentContextProvider`` (provider details in
tests/adapt/test_component_context.py)."""

import pytest

from repro.adapt import AdaptationController, ComponentContextProvider
from repro.core import ComponentState
from repro.sim.engine import MSEC, SEC

from conftest import (
    deploy,
    liar_platform,
    make_descriptor_xml,
    suspend_rules,
)


def budget_controller(platform, names):
    """Suspend any named component using over 1.25x its declared
    cpuusage."""
    return AdaptationController(
        platform, epoch_ns=100 * MSEC,
        rules=suspend_rules("budget_ratio", 1.25, names),
        providers=[ComponentContextProvider(platform.framework)])


class TestBudgetEnforcement:
    def test_honest_component_untouched(self, platform):
        deploy(platform, make_descriptor_xml("GOOD00", cpuusage=0.1))
        controller = budget_controller(platform, ["GOOD00"])
        platform.run_for(500 * MSEC)
        assert controller.step() == []
        assert platform.drcr.component_state("GOOD00") \
            is ComponentState.ACTIVE

    def test_overusing_component_suspended(self):
        platform = liar_platform()
        controller = budget_controller(platform, ["LIAR00"])
        platform.run_for(500 * MSEC)
        assert [firing.rule.name for firing in controller.step()] \
            == ["budget_ratio-LIAR00"]
        assert controller.history[0]["outcome"] == "suspend LIAR00"
        assert platform.drcr.component_state("LIAR00") \
            is ComponentState.SUSPENDED

    def test_enforcement_inside_simulated_time(self):
        # The full enforcement loop as a periodic Linux-side activity:
        # the liar is caught at the first epoch (it passed the CPU-time
        # warm-up ~33 ms in), the controller keeps polling afterwards.
        platform = liar_platform()
        deploy(platform, make_descriptor_xml(
            "GOOD00", cpuusage=0.1, priority=3))
        controller = budget_controller(
            platform, ["LIAR00", "GOOD00"]).start()
        platform.run_for(1 * SEC)
        assert platform.drcr.component_state("LIAR00") \
            is ComponentState.SUSPENDED
        assert platform.drcr.component_state("GOOD00") \
            is ComponentState.ACTIVE
        assert [entry["at_ns"] for entry in controller.history] \
            == [100 * MSEC]
        assert platform.telemetry.registry("adapt").counter(
            "epochs_total").value == 10
        controller.stop()

    def test_measured_utilization_in_status(self, platform):
        deploy(platform, make_descriptor_xml("GOOD00", cpuusage=0.1))
        platform.run_for(500 * MSEC)
        component = platform.drcr.component("GOOD00")
        measured = component.container.get_status()[
            "measured_utilization"]
        assert measured == pytest.approx(0.1, rel=0.1)
