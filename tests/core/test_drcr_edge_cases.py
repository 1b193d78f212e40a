"""DRCR edge cases: oscillating policies, re-entrancy, detachment."""

import pytest

from repro.core import (
    RESOLVING_SERVICE_INTERFACE,
    ComponentState,
    Decision,
    LifecycleError,
    ResolvingService,
)
from conftest import deploy, make_descriptor_xml


class OscillatingPolicy(ResolvingService):
    """Admits every candidate but revokes every admitted component:
    each reconfiguration pass deactivates and immediately re-admits --
    the pathological policy the convergence guard exists for."""

    name = "oscillator"

    def admit(self, candidate, view):
        return Decision.yes("come in")

    def revalidate(self, component, view):
        return Decision.no("get out")


class TestConvergenceGuard:
    def test_oscillating_policy_detected(self, platform):
        from repro.core.descriptor import ComponentDescriptor
        platform.drcr.set_internal_policy(OscillatingPolicy())
        descriptor = ComponentDescriptor.from_xml(
            make_descriptor_xml("OSC000", cpuusage=0.1))
        with pytest.raises(LifecycleError, match="did not converge"):
            platform.drcr.register_component(descriptor)

    def test_oscillation_via_bundle_lands_in_framework_errors(
            self, platform):
        # Through the bundle path, listener isolation converts the
        # convergence failure into a FrameworkEvent.ERROR instead of
        # crashing the framework.
        from repro.osgi.events import FrameworkEventType
        platform.drcr.set_internal_policy(OscillatingPolicy())
        deploy(platform, make_descriptor_xml("OSC000", cpuusage=0.1))
        errors = [e for e in platform.framework.framework_events
                  if e.event_type is FrameworkEventType.ERROR]
        assert errors
        assert "did not converge" in str(errors[0].error)

    def test_cascade_deeper_than_the_base_cap_converges(self, platform):
        # A cascade re-activates one dependency level per pass; a
        # chain deeper than _MAX_RECONFIGURE_PASSES must still come
        # back whole after its head restarts.
        from repro.core.drcr import _MAX_RECONFIGURE_PASSES
        depth = _MAX_RECONFIGURE_PASSES + 50
        bundles = []
        for index in range(depth):
            outport = ("P%04d" % index, "RTAI.SHM", "Integer", 2)
            inports = [("P%04d" % (index - 1), "RTAI.SHM", "Integer",
                        2)] if index else []
            bundles.append(deploy(platform, make_descriptor_xml(
                "CH%04d" % index, cpuusage=0.001, frequency=100,
                priority=10, outports=[outport], inports=inports)))
        names = ["CH%04d" % index for index in range(depth)]

        def states():
            return {platform.drcr.component_state(name)
                    for name in names[1:]}

        assert states() == {ComponentState.ACTIVE}
        bundles[0].stop()
        assert states() == {ComponentState.UNSATISFIED}
        bundles[0].start()
        assert platform.drcr.component_state(names[0]) \
            is ComponentState.ACTIVE
        assert states() == {ComponentState.ACTIVE}
        errors = [e for e in platform.framework.framework_events
                  if "did not converge" in str(getattr(e, "error", ""))]
        assert errors == []


class TestResolvingServiceDynamics:
    class TogglingService(ResolvingService):
        name = "toggle"

        def __init__(self):
            self.allow = True

        def admit(self, candidate, view):
            return Decision(self.allow, "toggle says %s" % self.allow)

        def revalidate(self, component, view):
            return Decision(self.allow, "toggle says %s" % self.allow)

    def test_service_departure_restores_admission(self, platform):
        service = self.TogglingService()
        service.allow = False
        registration = platform.framework.registry.register(
            RESOLVING_SERVICE_INTERFACE, service)
        deploy(platform, make_descriptor_xml("COMP00", cpuusage=0.1))
        assert platform.drcr.component_state("COMP00") \
            is ComponentState.UNSATISFIED
        registration.unregister()
        assert platform.drcr.component_state("COMP00") \
            is ComponentState.ACTIVE

    def test_service_arrival_sheds_admitted(self, platform):
        deploy(platform, make_descriptor_xml("COMP00", cpuusage=0.1))
        assert platform.drcr.component_state("COMP00") \
            is ComponentState.ACTIVE
        service = self.TogglingService()
        service.allow = False
        platform.framework.registry.register(
            RESOLVING_SERVICE_INTERFACE, service)
        assert platform.drcr.component_state("COMP00") \
            is ComponentState.UNSATISFIED

    def test_multiple_customized_services_all_consulted(self, platform):
        consulted = []

        class Recorder(ResolvingService):
            def __init__(self, label):
                self.name = label

            def admit(self, candidate, view):
                consulted.append(self.name)
                return Decision.yes()

        for label in ("first", "second", "third"):
            platform.framework.registry.register(
                RESOLVING_SERVICE_INTERFACE, Recorder(label))
        deploy(platform, make_descriptor_xml("COMP00", cpuusage=0.1))
        assert set(consulted) == {"first", "second", "third"}


class TestDetachReattach:
    def test_detach_then_reattach_redeploys(self, platform):
        bundle = deploy(platform, make_descriptor_xml(
            "COMP00", cpuusage=0.1))
        platform.drcr.detach()
        assert len(platform.drcr.registry) == 0
        platform.drcr.attach()
        # The bundle is still ACTIVE: its descriptor redeploys.
        assert platform.drcr.component_state("COMP00") \
            is ComponentState.ACTIVE

    def test_detach_is_idempotent(self, platform):
        platform.drcr.detach()
        platform.drcr.detach()

    def test_attach_is_idempotent(self, platform):
        platform.drcr.attach()
        deploy(platform, make_descriptor_xml("COMP00", cpuusage=0.1))
        assert len(platform.drcr.registry) == 1


class TestDisposedComponents:
    def test_operations_on_disposed_component_fail_cleanly(self,
                                                           platform):
        from repro.core import UnknownComponentError
        bundle = deploy(platform, make_descriptor_xml(
            "COMP00", cpuusage=0.1))
        bundle.stop()
        with pytest.raises(UnknownComponentError):
            platform.drcr.component("COMP00")
        with pytest.raises(UnknownComponentError):
            platform.drcr.suspend_component("COMP00")

    def test_redeploy_same_name_after_disposal(self, platform):
        bundle = deploy(platform, make_descriptor_xml(
            "COMP00", cpuusage=0.1))
        bundle.stop()
        bundle.start()
        assert platform.drcr.component_state("COMP00") \
            is ComponentState.ACTIVE
