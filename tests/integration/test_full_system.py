"""End-to-end integration tests: the full stack running realistic
scenarios over simulated time."""

import pytest

from repro.adapt import AdaptationController, ComponentContextProvider
from repro.core import ComponentState, UtilizationBoundPolicy
from repro.hybrid import RTImplementation, make_container_factory
from repro.hybrid.implementation import ImplementationRegistry
from repro.platform import build_platform
from repro.rtos.kernel import KernelConfig
from repro.rtos.latency import NullLatencyModel
from repro.rtos.load import apply_stress
from repro.sim.engine import MSEC, SEC

from conftest import deploy, make_descriptor_xml, suspend_rules


class TestControlSystemPipeline:
    """The paper's section 4.2 application: a 1000 Hz calculation task
    feeding a rate-4 (250 Hz) display task through shared memory."""

    @pytest.fixture
    def pipeline(self, platform):
        calc = make_descriptor_xml(
            "CALC00", cpuusage=0.05, frequency=1000, priority=2,
            outports=[("LATDAT", "RTAI.SHM", "Integer", 4)])
        disp = make_descriptor_xml(
            "DISP00", cpuusage=0.01, frequency=250, priority=3,
            inports=[("LATDAT", "RTAI.SHM", "Integer", 4)])
        deploy(platform, calc)
        deploy(platform, disp)
        return platform

    def test_rates_respected_over_one_second(self, pipeline):
        pipeline.run_for(1 * SEC)
        calc_task = pipeline.kernel.lookup("CALC00")
        disp_task = pipeline.kernel.lookup("DISP00")
        assert calc_task.stats.completions in range(995, 1002)
        assert disp_task.stats.completions in range(245, 252)
        assert calc_task.stats.deadline_misses == 0
        assert disp_task.stats.deadline_misses == 0

    def test_dataflow_through_shared_memory(self, pipeline):
        pipeline.run_for(100 * MSEC)
        segment = pipeline.kernel.lookup("LATDAT")
        assert segment.last_writer == "CALC00"
        assert segment.write_count >= 99
        disp = pipeline.drcr.component("DISP00")
        value = disp.container.ctx.read_inport("LATDAT")
        assert value[0] >= 99

    def test_stress_mode_does_not_disturb_pipeline(self, pipeline):
        pipeline.run_for(100 * MSEC)
        apply_stress(pipeline.kernel)
        pipeline.run_for(1 * SEC)
        calc_task = pipeline.kernel.lookup("CALC00")
        assert calc_task.stats.deadline_misses == 0
        assert pipeline.kernel.linux_work_ns() > 0

    def test_redeploy_cycle_many_times(self, pipeline):
        # Continuous deployment: restart the provider 10 times; the
        # consumer must track every cycle.
        calc_bundle = pipeline.framework.get_bundle("test.bundle.CALC00")
        for _ in range(10):
            pipeline.run_for(20 * MSEC)
            calc_bundle.stop()
            assert pipeline.drcr.component_state("DISP00") \
                is ComponentState.UNSATISFIED
            calc_bundle.start()
            assert pipeline.drcr.component_state("DISP00") \
                is ComponentState.ACTIVE
        activations = pipeline.drcr.events.for_component("DISP00")
        assert len([e for e in activations
                    if e.event_type.value == "activated"]) == 11


class TestCustomImplementationPipeline:
    def test_user_implementation_end_to_end(self):
        class Producer(RTImplementation):
            def execute(self, ctx):
                ctx.write_outport("FRAME0",
                                  [ctx.job_index % 256] * 16)

        class Consumer(RTImplementation):
            def __init__(self):
                self.seen = []

            def execute(self, ctx):
                self.seen.append(ctx.read_inport("FRAME0")[0])

        registry = ImplementationRegistry()
        registry.register("app.Producer", Producer)
        consumer_instance = Consumer()
        registry.register("app.Consumer", lambda: consumer_instance)

        platform = build_platform(
            seed=5,
            kernel_config=KernelConfig(
                latency_model=NullLatencyModel()),
            container_factory=make_container_factory(registry))
        platform.start_timer(1 * MSEC)
        producer_xml = make_descriptor_xml(
            "PROD00", cpuusage=0.1, frequency=100, priority=2,
            bincode="app.Producer",
            outports=[("FRAME0", "RTAI.SHM", "Byte", 16)])
        consumer_xml = make_descriptor_xml(
            "CONS00", cpuusage=0.05, frequency=50, priority=3,
            bincode="app.Consumer",
            inports=[("FRAME0", "RTAI.SHM", "Byte", 16)])
        deploy(platform, producer_xml)
        deploy(platform, consumer_xml)
        platform.run_for(1 * SEC)
        assert len(consumer_instance.seen) >= 48
        assert max(consumer_instance.seen) > 0


class TestAdmissionUnderChurn:
    def test_oversubscription_resolves_to_feasible_subset(self):
        platform = build_platform(
            seed=9,
            kernel_config=KernelConfig(
                latency_model=NullLatencyModel()),
            internal_policy=UtilizationBoundPolicy(cap=0.9))
        platform.start_timer(1 * MSEC)
        for index in range(6):
            xml = make_descriptor_xml(
                "LOAD%02d" % index, cpuusage=0.25,
                frequency=1000, priority=2 + index)
            deploy(platform, xml)
        active = platform.drcr.registry.active()
        assert len(active) == 3  # 3 * 0.25 <= 0.9 < 4 * 0.25
        platform.run_for(200 * MSEC)
        for component in active:
            task = platform.kernel.lookup(
                component.descriptor.task_name)
            assert task.stats.deadline_misses == 0

    def test_waiters_admitted_as_budget_frees(self):
        platform = build_platform(
            seed=9,
            kernel_config=KernelConfig(
                latency_model=NullLatencyModel()),
            internal_policy=UtilizationBoundPolicy(cap=0.5))
        platform.start_timer(1 * MSEC)
        bundles = []
        for index in range(4):
            xml = make_descriptor_xml(
                "LOAD%02d" % index, cpuusage=0.2,
                frequency=1000, priority=2 + index)
            bundles.append(deploy(platform, xml))
        assert len(platform.drcr.registry.active()) == 2
        bundles[0].stop()
        assert len(platform.drcr.registry.active()) == 2
        names = {c.name for c in platform.drcr.registry.active()}
        assert "LOAD00" not in names


class TestAdaptationLoop:
    def test_closed_loop_suspends_misbehaving_component(self):
        from repro.core import AlwaysAcceptPolicy
        platform = build_platform(
            seed=11,
            kernel_config=KernelConfig(
                latency_model=NullLatencyModel()),
            internal_policy=AlwaysAcceptPolicy())
        platform.start_timer(1 * MSEC)
        # Two hogs whose combined demand overruns the CPU.
        for name, usage, priority in (("HOGA00", 0.7, 1),
                                      ("HOGB00", 0.7, 2)):
            deploy(platform, make_descriptor_xml(
                name, cpuusage=usage, frequency=1000,
                priority=priority))
        controller = AdaptationController(
            platform, epoch_ns=50 * MSEC,
            providers=[ComponentContextProvider(platform.framework)],
            rules=suspend_rules("deadline_misses", 10,
                                ("HOGA00", "HOGB00"))).start()
        platform.run_for(500 * MSEC)
        # The lower-priority hog misses and gets suspended; the other
        # then runs clean.
        assert platform.drcr.component_state("HOGB00") \
            is ComponentState.SUSPENDED
        hog_a = platform.kernel.lookup("HOGA00")
        before = hog_a.stats.deadline_misses
        platform.run_for(200 * MSEC)
        assert hog_a.stats.deadline_misses == before
        controller.stop()
