"""Recovery machinery: backoff retries, quarantine, degradation."""

import random

import pytest

from repro.core import ComponentState
from repro.core.policies import UtilizationBoundPolicy
from repro.core.resolving import RESOLVING_SERVICE_INTERFACE
from repro.faults.recovery import (BackoffPolicy,
                                   GracefulDegradationService,
                                   QuarantinePolicy,
                                   shed_lowest_priority)
from repro.hybrid import RTImplementation, make_container_factory
from repro.hybrid.bridge import CommandBridge
from repro.hybrid.implementation import ImplementationRegistry
from repro.hybrid.protocol import CommandKind
from repro.platform import build_platform
from repro.rtos.kernel import KernelConfig
from repro.rtos.latency import NullLatencyModel
from repro.sim.engine import MSEC, SEC

from conftest import deploy, make_descriptor_xml


def metric(platform, name):
    instrument = platform.telemetry.aggregate().get(name)
    return instrument.value if instrument is not None else 0


class TestBackoffPolicy:
    def test_exponential_growth_with_cap(self):
        policy = BackoffPolicy(initial_ns=1 * MSEC, factor=2.0,
                               max_delay_ns=4 * MSEC, jitter=0.0)
        assert [policy.delay_ns(n) for n in (1, 2, 3, 4, 5)] \
            == [1 * MSEC, 2 * MSEC, 4 * MSEC, 4 * MSEC, 4 * MSEC]

    def test_jitter_is_bounded_and_deterministic(self):
        policy = BackoffPolicy(initial_ns=10 * MSEC, jitter=0.1)
        first = [policy.delay_ns(1, random.Random(5)) for _ in range(5)]
        second = [policy.delay_ns(1, random.Random(5)) for _ in range(5)]
        assert first == second
        for delay in first:
            assert 9 * MSEC <= delay <= 11 * MSEC

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError):
            BackoffPolicy().delay_ns(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            BackoffPolicy(initial_ns=0)
        with pytest.raises(ValueError):
            BackoffPolicy(factor=0.5)
        with pytest.raises(ValueError):
            BackoffPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            BackoffPolicy(jitter=1.0)


class TestQuarantinePolicyUnit:
    def test_failure_accounting(self):
        policy = QuarantinePolicy(cooldown_ns=MSEC, max_failures=2)
        assert policy.record_failure("A") == 1
        assert not policy.is_permanent("A")
        assert policy.record_failure("A") == 2
        assert policy.is_permanent("A")
        assert not policy.is_permanent("B")
        policy.forgive("A")
        assert not policy.is_permanent("A")

    def test_validation(self):
        with pytest.raises(ValueError):
            QuarantinePolicy(cooldown_ns=0)
        with pytest.raises(ValueError):
            QuarantinePolicy(max_failures=0)


class TestReliableSend:
    def test_gives_up_after_the_attempt_cap(self, kernel):
        bridge = CommandBridge(kernel, "TEST")
        bridge.command_mailbox.resize(0)
        state = bridge.send_command_reliable(
            CommandKind.PING,
            backoff=BackoffPolicy(initial_ns=1 * MSEC, factor=2.0,
                                  max_attempts=4, jitter=0.0))
        kernel.sim.run_for(1 * SEC)
        assert state.gave_up and not state.delivered
        assert state.attempts == 4
        flat = kernel.sim.telemetry.aggregate()
        assert flat["hybrid.command_retry_giveups_total"].value == 1
        assert flat["hybrid.command_retries_total"].value == 3
        assert kernel.sim.trace.by_category("command_retry_giveup")

    def test_recovers_when_capacity_returns(self, kernel):
        bridge = CommandBridge(kernel, "TEST")
        bridge.command_mailbox.resize(0)
        # Capacity returns at 5 ms; retries run at ~1, 3, 7 ms.
        kernel.sim.schedule(5 * MSEC, bridge.command_mailbox.resize, 16)
        state = bridge.send_command_reliable(
            CommandKind.PING,
            backoff=BackoffPolicy(initial_ns=1 * MSEC, factor=2.0,
                                  max_attempts=6, jitter=0.0))
        kernel.sim.run_for(1 * SEC)
        assert state.delivered and not state.gave_up
        assert state.attempts > 1
        assert state.command is not None
        flat = kernel.sim.telemetry.aggregate()
        assert flat["hybrid.commands_recovered_total"].value == 1


class FaultsAtJobThree(RTImplementation):
    def execute(self, ctx):
        if ctx.job_index >= 2:
            raise RuntimeError("synthetic implementation bug")


def quarantine_platform():
    registry = ImplementationRegistry()
    registry.register("faulty.Impl", FaultsAtJobThree)
    platform = build_platform(
        seed=11,
        kernel_config=KernelConfig(latency_model=NullLatencyModel()),
        internal_policy=UtilizationBoundPolicy(cap=1.0),
        container_factory=make_container_factory(registry))
    platform.start_timer(1 * MSEC)
    return platform


class TestQuarantineLifecycle:
    def test_readmission_then_permanent_quarantine(self):
        platform = quarantine_platform()
        policy = QuarantinePolicy(cooldown_ns=50 * MSEC, max_failures=2)
        platform.drcr.set_recovery_policy(policy)
        deploy(platform, make_descriptor_xml(
            "BOOM00", cpuusage=0.02, frequency=1000, priority=2,
            bincode="faulty.Impl"))
        platform.run_for(300 * MSEC)
        # Fault 1 (~job 4): quarantined, re-admitted after 50 ms.
        # Fault 2 (the fresh incarnation faults again): permanent.
        component = platform.drcr.component("BOOM00")
        assert component.state is ComponentState.DISABLED
        assert "permanently" in component.status_reason
        assert policy.failures["BOOM00"] == 2
        assert metric(platform, "drcr.quarantines_total") == 1
        assert metric(platform,
                      "drcr.quarantine_readmissions_total") == 1
        assert metric(platform, "drcr.quarantine_permanent_total") == 1
        history = [e.event_type.value for e in
                   platform.drcr.events.for_component("BOOM00")]
        assert history.count("activated") == 2
        # Quarantine trace rows carry the escalation.
        records = platform.kernel.sim.trace.by_category("quarantine")
        assert [r.fields["permanent"] for r in records] == [False, True]

    def test_quarantined_component_stays_down_during_cooldown(self):
        platform = quarantine_platform()
        platform.drcr.set_recovery_policy(
            QuarantinePolicy(cooldown_ns=200 * MSEC, max_failures=5))
        deploy(platform, make_descriptor_xml(
            "BOOM01", cpuusage=0.02, frequency=1000, priority=2,
            bincode="faulty.Impl"))
        platform.run_for(100 * MSEC)
        assert platform.drcr.component_state("BOOM01") \
            is ComponentState.DISABLED
        assert not platform.kernel.exists("BOOM01")


class TestGracefulDegradation:
    def deploy_three(self, platform):
        for name, priority in (("GDA000", 1), ("GDB000", 2),
                               ("GDC000", 3)):
            deploy(platform, make_descriptor_xml(
                name, cpuusage=0.3, frequency=100, priority=priority))

    def test_lowering_the_cap_sheds_lowest_priority_first(
            self, platform):
        service = GracefulDegradationService(cap=1.0)
        platform.drcr.framework.registry.register(
            RESOLVING_SERVICE_INTERFACE, service)
        self.deploy_three(platform)
        for name in ("GDA000", "GDB000", "GDC000"):
            assert platform.drcr.component_state(name) \
                is ComponentState.ACTIVE
        service.cap = 0.7
        platform.drcr.reconfigure()
        assert platform.drcr.component_state("GDC000") \
            is ComponentState.UNSATISFIED
        # The shed reason is in the event log; the final status reason
        # is the admit veto that keeps it from bouncing straight back.
        reasons = [e.reason for e in
                   platform.drcr.events.for_component("GDC000")]
        assert any("shed" in reason for reason in reasons)
        assert "degradation cap" \
            in platform.drcr.component("GDC000").status_reason
        assert platform.drcr.component_state("GDA000") \
            is ComponentState.ACTIVE
        assert platform.drcr.component_state("GDB000") \
            is ComponentState.ACTIVE
        assert service.shed == ["GDC000"]
        # The shed component must not bounce back while over budget.
        platform.drcr.reconfigure()
        assert platform.drcr.component_state("GDC000") \
            is ComponentState.UNSATISFIED
        # Raising the cap re-admits it.
        service.cap = 1.0
        platform.drcr.reconfigure()
        assert platform.drcr.component_state("GDC000") \
            is ComponentState.ACTIVE

    def test_claims_summing_to_the_cap_are_admitted_and_kept(
            self, platform):
        # 0.2 + 0.4 + 0.3 + 0.1 is 1.0000000000000002 in floats: the
        # service must apply the same fit test as the platform's
        # UtilizationBoundPolicy, or it vetoes the fourth claim.
        service = GracefulDegradationService(cap=1.0)
        platform.drcr.framework.registry.register(
            RESOLVING_SERVICE_INTERFACE, service)
        names = ("GDA000", "GDB000", "GDC000", "GDD000")
        for priority, (name, usage) in enumerate(
                zip(names, (0.2, 0.4, 0.3, 0.1)), start=1):
            deploy(platform, make_descriptor_xml(
                name, cpuusage=usage, frequency=100, priority=priority))
        platform.drcr.reconfigure()
        assert service.shed == []
        for name in names:
            assert platform.drcr.component_state(name) \
                is ComponentState.ACTIVE

    def test_shed_lowest_priority_helper(self, platform):
        self.deploy_three(platform)
        assert shed_lowest_priority(platform.drcr) == "GDC000"
        assert platform.drcr.component_state("GDC000") \
            is ComponentState.DISABLED
        assert shed_lowest_priority(platform.drcr) == "GDB000"

    def test_cap_validation(self):
        with pytest.raises(ValueError):
            GracefulDegradationService(cap=0.0)
