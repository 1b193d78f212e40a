"""Soak test: everything on at once, for 30 simulated seconds.

One platform runs the full feature surface simultaneously -- a port
pipeline, a sporadic handler, a FIFO exporter, deployment churn, Linux
stress, an adaptation controller, and a lying component that a
``budget_ratio`` rule must catch -- and the global invariants must hold
at every checkpoint and at the end.
"""

from repro.adapt import AdaptationController, ComponentContextProvider
from repro.core import ComponentState, UtilizationBoundPolicy
from repro.core.lifecycle import INSTANTIATED_STATES
from repro.core.snapshot import export_state, restore_state
from repro.hybrid import RTImplementation, make_container_factory
from repro.hybrid.implementation import ImplementationRegistry
from repro.platform import build_platform
from repro.rtos.kernel import KernelConfig
from repro.rtos.latency import NullLatencyModel
from repro.rtos.load import apply_stress
from repro.sim.engine import MSEC, SEC

from conftest import deploy, make_descriptor_xml, suspend_rules

SOAK_SECONDS = 30

#: Every component the soak deploys: the budget rules watch them all.
COMPONENTS = ("BASE00", "SINK00", "EXPRT0", "EVENT0", "LIAR00",
              "CHRN00", "CHRN01", "CHRN02", "CHRN03")


class Greedy(RTImplementation):
    def compute_ns(self, ctx):
        return 4 * ctx.contract.wcet_ns


class FifoExporter(RTImplementation):
    def execute(self, ctx):
        ctx.write_outport("SOAKFF", ctx.job_index)


def build_soak_platform():
    registry = ImplementationRegistry()
    registry.register("soak.Greedy", Greedy)
    registry.register("soak.FifoExporter", FifoExporter)
    platform = build_platform(
        seed=2026,
        kernel_config=KernelConfig(latency_model=NullLatencyModel()),
        internal_policy=UtilizationBoundPolicy(cap=0.9),
        container_factory=make_container_factory(registry))
    platform.start_timer(1 * MSEC)
    return platform


def check_invariants(platform):
    registry = platform.drcr.registry
    for component in registry.in_state(ComponentState.ACTIVE):
        for provider_name in component.bound_providers():
            provider = registry.maybe_get(provider_name)
            assert provider is not None
            assert provider.state in (ComponentState.ACTIVE,
                                      ComponentState.SUSPENDED)
    assert registry.declared_utilization(0) <= 0.9 + 1e-9
    for component in registry.all():
        assert platform.kernel.exists(
            component.descriptor.task_name) \
            == (component.state in INSTANTIATED_STATES)


def test_thirty_second_soak():
    platform = build_soak_platform()

    # -- the permanent population -------------------------------------
    deploy(platform, make_descriptor_xml(
        "BASE00", cpuusage=0.2, frequency=1000, priority=1,
        outports=[("BASEP0", "RTAI.SHM", "Integer", 4)]))
    deploy(platform, make_descriptor_xml(
        "SINK00", cpuusage=0.05, frequency=250, priority=2,
        inports=[("BASEP0", "RTAI.SHM", "Integer", 4)]))
    deploy(platform, make_descriptor_xml(
        "EXPRT0", cpuusage=0.02, frequency=100, priority=3,
        bincode="soak.FifoExporter",
        outports=[("SOAKFF", "RTAI.FIFO", "Integer", 4096)]))
    sporadic_xml = """<?xml version="1.0"?>
    <drt:component name="EVENT0" type="sporadic" cpuusage="0.05">
      <implementation bincode="soak.Event"/>
      <sporadictask mininterarrival_ns="100000000" priority="6"/>
    </drt:component>"""
    platform.install_and_start(
        {"Bundle-SymbolicName": "soak.event",
         "RT-Component": "OSGI-INF/e.xml"},
        resources={"OSGI-INF/e.xml": sporadic_xml})
    # The liar that budget enforcement must eventually suspend.
    deploy(platform, make_descriptor_xml(
        "LIAR00", cpuusage=0.05, frequency=500, priority=4,
        bincode="soak.Greedy"))

    fifo = platform.kernel.lookup("SOAKFF")
    exported = []
    fifo.set_user_handler(exported.extend)

    controller = AdaptationController(
        platform, epoch_ns=250 * MSEC,
        providers=[ComponentContextProvider(platform.framework)],
        rules=suspend_rules("budget_ratio", 1.5, COMPONENTS)).start()

    apply_stress(platform.kernel)

    # -- churn + soak ---------------------------------------------------
    event = platform.drcr.component("EVENT0")
    for second in range(SOAK_SECONDS):
        churn_xml = make_descriptor_xml(
            "CHRN%02d" % (second % 4), cpuusage=0.15,
            frequency=500, priority=10 + second % 4)
        bundle = platform.install_and_start(
            {"Bundle-SymbolicName": "soak.churn%02d" % second,
             "RT-Component": "OSGI-INF/c.xml"},
            resources={"OSGI-INF/c.xml": churn_xml})
        if event.is_active:
            event.container.release()
        platform.run_for(1 * SEC)
        check_invariants(platform)
        bundle.uninstall()
        check_invariants(platform)

    # -- end-state assertions --------------------------------------------
    base_task = platform.kernel.lookup("BASE00")
    sink_task = platform.kernel.lookup("SINK00")
    assert base_task.stats.completions \
        >= SOAK_SECONDS * 1000 - SOAK_SECONDS
    assert base_task.stats.deadline_misses == 0
    assert sink_task.stats.deadline_misses == 0

    # Budget enforcement caught the liar, and only the liar.
    assert platform.drcr.component_state("LIAR00") \
        is ComponentState.SUSPENDED
    assert [entry["rule"] for entry in controller.history] \
        == ["budget_ratio-LIAR00"]

    # The FIFO exporter delivered to user space throughout.
    assert len(exported) > SOAK_SECONDS * 90

    # Sporadic handler was exercised and throttle-protected.
    event_task = platform.kernel.lookup("EVENT0")
    assert event_task.stats.activations >= 2

    # The event log is coherent: every activation paired with a
    # satisfied immediately before it.
    for name in ("BASE00", "SINK00", "EXPRT0"):
        history = [e.event_type.value for e in
                   platform.drcr.events.for_component(name)]
        for index, kind in enumerate(history):
            if kind == "activated":
                assert history[index - 1] == "satisfied"

    # Warm-restore the end state onto a fresh platform and verify it
    # comes back alive.
    state = export_state(platform.drcr)
    fresh = build_soak_platform()
    report = restore_state(fresh.drcr, state)
    assert "BASE00" in report["restored"]
    fresh.run_for(1 * SEC)
    assert fresh.kernel.lookup("BASE00").stats.completions >= 990
    controller.stop()
