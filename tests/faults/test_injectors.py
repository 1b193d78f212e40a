"""Every injector against a live platform, plus schedule determinism."""

import pytest

from repro.cluster import Cluster
from repro.core import ComponentState
from repro.core.policies import UtilizationBoundPolicy
from repro.faults import (
    FaultEngine,
    FaultKind,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
)
from repro.faults.plan import WINDOW_KINDS
from repro.hybrid.protocol import CommandKind
from repro.platform import build_platform
from repro.rtos.kernel import KernelConfig
from repro.rtos.latency import NullLatencyModel
from repro.sim.engine import MSEC, SEC, USEC

from conftest import deploy, make_descriptor_xml


def fresh_platform(seed=7):
    platform = build_platform(
        seed=seed,
        kernel_config=KernelConfig(latency_model=NullLatencyModel()),
        internal_policy=UtilizationBoundPolicy(cap=1.0))
    platform.start_timer(1 * MSEC)
    return platform


def metric(platform, name):
    instrument = platform.telemetry.aggregate().get(name)
    return instrument.value if instrument is not None else 0


class TestDeterminism:
    PLAN = {
        "name": "det", "seed": 99,
        "faults": [
            {"kind": "crash", "target": "*", "at_ms": 100,
             "probability": 0.5},
            {"kind": "overrun", "target": "DETA00", "at_ms": 300,
             "duration_ms": 10, "factor": 50.0, "probability": 0.4},
        ],
    }

    def run_once(self):
        platform = fresh_platform()
        engine = FaultEngine(platform,
                             FaultPlan.from_dict(self.PLAN)).arm()
        for name in ("DETA00", "DETB00", "DETC00"):
            deploy(platform, make_descriptor_xml(
                name, cpuusage=0.02, frequency=100, priority=2))
        platform.run_for(1 * SEC)
        return engine.injections, engine.skips

    def test_same_plan_same_fault_schedule(self):
        first = self.run_once()
        second = self.run_once()
        assert first == second

    def test_plan_seed_controls_probability_gates(self):
        baseline = self.run_once()
        plan = dict(self.PLAN, seed=100)
        platform = fresh_platform()
        engine = FaultEngine(platform, FaultPlan.from_dict(plan)).arm()
        for name in ("DETA00", "DETB00", "DETC00"):
            deploy(platform, make_descriptor_xml(
                name, cpuusage=0.02, frequency=100, priority=2))
        platform.run_for(1 * SEC)
        # Different seed, same platform randomness: gates may flip.
        # What must hold is that the schedule is a pure function of the
        # plan -- so at minimum the injected+skipped totals add up the
        # same way they did for the baseline.
        assert len(engine.injections) + len(engine.skips) \
            == len(baseline[0]) + len(baseline[1])


class TestProbabilityGate:
    """Every kind gates on ``probability``: per target for scheduled
    kinds, per firing for resolver_timeout/node_crash/partition, per
    intercepted call for the container and descriptor hooks."""

    #: Plan seeds whose first ``fault/0`` draw is at least 0.01.
    SEEDS = range(20)

    @staticmethod
    def gated_spec(kind):
        target = {FaultKind.NODE_CRASH: "node1",
                  FaultKind.PARTITION: "node0|node1"}.get(kind, "*")
        return FaultSpec(kind, target, at_ns=0, probability=0.01,
                         duration_ns=10 * MSEC
                         if kind in WINDOW_KINDS else None,
                         factor=50.0)

    def run_gated(self, kind, seed):
        """Arm one ``kind`` fault at probability 0.01 under plan
        ``seed`` where it has exactly one target, firing or call."""
        plan = FaultPlan("gate", seed=seed,
                         faults=[self.gated_spec(kind)])
        if kind in (FaultKind.NODE_CRASH, FaultKind.PARTITION):
            cluster = Cluster(("node0", "node1"), seed=1)
            try:
                engine = FaultEngine(cluster.node("node0"), plan,
                                     cluster=cluster).arm()
                cluster.run_for(20 * MSEC)
            finally:
                cluster.shutdown()
            return engine
        platform = fresh_platform()
        engine = FaultEngine(platform, plan).arm()
        deploy(platform, make_descriptor_xml(
            "GATE00", cpuusage=0.02, frequency=100, priority=2))
        platform.run_for(20 * MSEC)
        return engine

    @pytest.mark.parametrize("kind", list(FaultKind),
                             ids=[kind.value for kind in FaultKind])
    def test_low_probability_injects_nothing(self, kind):
        for seed in self.SEEDS:
            engine = self.run_gated(kind, seed)
            assert engine.injections == [], seed
            assert [reason for _, _, reason in engine.skips] \
                == ["probability gate"], seed


class TestCrash:
    def test_crash_faults_the_component(self, platform):
        plan = FaultPlan("t", faults=[
            FaultSpec(FaultKind.CRASH, "CRSH00", at_ns=50 * MSEC)])
        engine = FaultEngine(platform, plan).arm()
        deploy(platform, make_descriptor_xml(
            "CRSH00", cpuusage=0.02, frequency=100, priority=2))
        platform.run_for(200 * MSEC)
        component = platform.drcr.component("CRSH00")
        assert component.state is ComponentState.DISABLED
        assert "FaultInjectionError" in component.status_reason
        assert not platform.kernel.exists("CRSH00")
        assert [(k, t) for _, k, t, _ in engine.injections] \
            == [("crash", "CRSH00")]
        assert metric(platform, "faults.injected_crash_total") == 1

    def test_crash_with_no_target_is_a_skip(self, platform):
        plan = FaultPlan("t", faults=[
            FaultSpec(FaultKind.CRASH, "NOPE00", at_ns=10 * MSEC)])
        engine = FaultEngine(platform, plan).arm()
        platform.run_for(50 * MSEC)
        assert engine.injections == []
        assert engine.skips[0][1] == "crash"
        assert metric(platform, "faults.skipped_total") == 1


class TestActivationCrash:
    def test_failed_activation_is_retried_next_reconfigure(
            self, platform):
        plan = FaultPlan("t", faults=[
            FaultSpec(FaultKind.CRASH_ON_ACTIVATE, "ACRS00", count=1)])
        engine = FaultEngine(platform, plan).arm()
        deploy(platform, make_descriptor_xml(
            "ACRS00", cpuusage=0.02, frequency=100, priority=2))
        component = platform.drcr.component("ACRS00")
        assert component.state is ComponentState.UNSATISFIED
        assert "activation failed" in component.status_reason
        # Any later reconfiguration retries; the injector is spent.
        deploy(platform, make_descriptor_xml(
            "OTHR00", cpuusage=0.02, frequency=100, priority=2))
        assert component.state is ComponentState.ACTIVE
        assert len(engine.injections) == 1

    def test_failed_deactivation_forces_teardown(self, platform):
        plan = FaultPlan("t", faults=[
            FaultSpec(FaultKind.CRASH_ON_DEACTIVATE, "DCRS00",
                      count=1)])
        FaultEngine(platform, plan).arm()
        bundle = deploy(platform, make_descriptor_xml(
            "DCRS00", cpuusage=0.02, frequency=100, priority=2))
        platform.run_for(50 * MSEC)
        assert platform.kernel.exists("DCRS00")
        bundle.stop()
        # deactivate raised, but the force-teardown reclaimed the task.
        assert not platform.kernel.exists("DCRS00")
        assert platform.drcr.registry.maybe_get("DCRS00") is None
        assert metric(platform, "drcr.deactivation_errors_total") == 1


class TestOverrun:
    def test_overrun_inflates_then_restores(self, platform):
        plan = FaultPlan("t", faults=[
            FaultSpec(FaultKind.OVERRUN, "OVRN00", at_ns=100 * MSEC,
                      duration_ns=50 * MSEC, factor=300.0)])
        FaultEngine(platform, plan).arm()
        deploy(platform, make_descriptor_xml(
            "OVRN00", cpuusage=0.01, frequency=100, priority=0))
        platform.run_for(1 * SEC)
        # 100 us WCET x300 = 30 ms per job against a 10 ms period:
        # jobs in the window overran and missed.
        assert metric(platform, "faults.overrun_jobs_total") >= 1
        task = platform.kernel.lookup("OVRN00")
        assert task.stats.deadline_misses >= 1
        # The wrapper removed itself at window end.
        implementation = \
            platform.drcr.component("OVRN00").container.implementation
        assert "compute_ns" not in implementation.__dict__


class TestMailboxFaults:
    def test_drop_window_shrinks_capacity_then_restores(self, platform):
        plan = FaultPlan("t", faults=[
            FaultSpec(FaultKind.MAILBOX_DROP, "DROP00",
                      at_ns=10 * MSEC, duration_ns=20 * MSEC)])
        FaultEngine(platform, plan).arm()
        deploy(platform, make_descriptor_xml(
            "DROP00", cpuusage=0.02, frequency=100, priority=2))
        platform.run_for(15 * MSEC)
        bridge = platform.drcr.component("DROP00").container.bridge
        assert bridge.command_mailbox.capacity == 0
        assert bridge.send_command(CommandKind.PING) is None
        dropped = bridge.commands_dropped
        platform.run_for(25 * MSEC)
        assert bridge.command_mailbox.capacity > 0
        assert bridge.send_command(CommandKind.PING) is not None
        assert bridge.commands_dropped == dropped

    def test_flood_fills_the_command_mailbox(self, platform):
        plan = FaultPlan("t", faults=[
            FaultSpec(FaultKind.MAILBOX_FLOOD, "FLUD00",
                      at_ns=10 * MSEC)])
        engine = FaultEngine(platform, plan).arm()
        deploy(platform, make_descriptor_xml(
            "FLUD00", cpuusage=0.02, frequency=100, priority=2))
        platform.run_for(50 * MSEC)
        (_, kind, target, detail), = engine.injections
        assert (kind, target) == ("mailbox_flood", "FLUD00")
        bridge = platform.drcr.component("FLUD00").container.bridge
        assert detail["flooded"] == bridge.command_mailbox.capacity


class TestDescriptorCorrupt:
    def test_corruption_is_contained_and_bounded(self, platform):
        plan = FaultPlan("t", faults=[
            FaultSpec(FaultKind.DESCRIPTOR_CORRUPT, "*", count=1)])
        engine = FaultEngine(platform, plan).arm()
        deploy(platform, make_descriptor_xml(
            "CORR00", cpuusage=0.02, frequency=100, priority=2))
        assert platform.drcr.registry.maybe_get("CORR00") is None
        assert metric(platform, "drcr.descriptor_errors_total") == 1
        # count=1: the next deployment parses untouched.
        deploy(platform, make_descriptor_xml(
            "OKAY00", cpuusage=0.02, frequency=100, priority=2))
        assert platform.drcr.component_state("OKAY00") \
            is ComponentState.ACTIVE
        assert len(engine.injections) == 1


class TestDisarm:
    def test_disarm_removes_both_hooks(self, platform):
        factory = platform.drcr._container_factory
        plan = FaultPlan("t", faults=[
            FaultSpec(FaultKind.CRASH_ON_ACTIVATE, "*"),
            FaultSpec(FaultKind.DESCRIPTOR_CORRUPT, "*")])
        engine = FaultEngine(platform, plan).arm()
        assert platform.drcr.descriptor_filter is not None
        engine.disarm()
        assert platform.drcr._container_factory is factory
        assert platform.drcr.descriptor_filter is None
        deploy(platform, make_descriptor_xml(
            "KEPT00", cpuusage=0.02, frequency=100, priority=2))
        assert platform.drcr.component_state("KEPT00") \
            is ComponentState.ACTIVE
        assert engine.injections == []


class TestClusterKindsNeedACluster:
    @pytest.mark.parametrize("kind, target", [
        (FaultKind.NODE_CRASH, "node1"),
        (FaultKind.PARTITION, "node0|node1"),
    ], ids=["node_crash", "partition"])
    def test_refused_before_anything_is_armed(self, platform, kind,
                                              target):
        """A cluster kind on a bare platform fails at construction,
        before the plan's watchdog, quarantine policy or interception
        hooks touch the platform."""
        factory = platform.drcr._container_factory
        pending = platform.sim.pending_events
        plan = FaultPlan(
            "nc", seed=1,
            watchdog={"limit_ns": 500 * USEC, "policy": "fault"},
            quarantine={"cooldown_ns": 100 * MSEC},
            faults=[
                FaultSpec(FaultKind.CRASH_ON_ACTIVATE, "*"),
                FaultSpec(FaultKind.DESCRIPTOR_CORRUPT, "*"),
                FaultSpec(kind, target, at_ns=MSEC,
                          duration_ns=10 * MSEC
                          if kind in WINDOW_KINDS else None)])
        with pytest.raises(FaultPlanError, match=kind.value):
            FaultEngine(platform, plan)
        assert platform.drcr.recovery_policy is None
        assert platform.drcr.descriptor_filter is None
        assert platform.drcr._container_factory is factory
        # No watchdog check (nor any injector) was scheduled.
        assert platform.sim.pending_events == pending
        assert metric(platform, "faults.injected_total") == 0


class TestResolverTimeout:
    def test_fails_safe_on_admit_and_open_on_revalidate(self, platform):
        plan = FaultPlan("t", faults=[
            FaultSpec(FaultKind.RESOLVER_TIMEOUT, "*",
                      at_ns=10 * MSEC, duration_ns=20 * MSEC)])
        FaultEngine(platform, plan).arm()
        deploy(platform, make_descriptor_xml(
            "SAFE01", cpuusage=0.02, frequency=100, priority=2))
        platform.run_for(15 * MSEC)
        # Revalidation fails open: the admitted component survives the
        # raising resolver.
        assert platform.drcr.component_state("SAFE01") \
            is ComponentState.ACTIVE
        # Admission fails safe: a newcomer is vetoed while the raising
        # resolver is registered.
        deploy(platform, make_descriptor_xml(
            "LATE00", cpuusage=0.02, frequency=100, priority=3))
        late = platform.drcr.component("LATE00")
        assert late.state is ComponentState.UNSATISFIED
        assert "failed" in late.status_reason
        assert metric(platform,
                      "drcr.resolving_service_errors_total") >= 2
        # Window over: the service unregisters and admission recovers.
        platform.run_for(25 * MSEC)
        assert late.state is ComponentState.ACTIVE
