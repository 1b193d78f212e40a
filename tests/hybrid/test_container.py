"""Tests for the hybrid split container: activation, command path,
custom implementations, the non-blocking discipline."""

import pytest

from repro.core.component import DRComComponent, LifecycleToken
from repro.core.descriptor import ComponentDescriptor
from repro.core.ports import PortBinding
from repro.hybrid.container import HybridContainer
from repro.hybrid.implementation import (
    ImplementationRegistry,
    RTImplementation,
    SyntheticImplementation,
)
from repro.hybrid.protocol import CommandKind
from repro.rtos.task import TaskState
from repro.sim.engine import MSEC

from conftest import make_descriptor_xml


@pytest.fixture
def token():
    return LifecycleToken("test")


def make_component(token, name="COMP00", **kwargs):
    xml = make_descriptor_xml(name, **kwargs)
    descriptor = ComponentDescriptor.from_xml(xml)
    return DRComComponent(descriptor, None, token)


def activate(kernel, component, bindings=(), registry=None):
    container = HybridContainer(component, kernel,
                                implementation_registry=registry)
    container.activate(list(bindings))
    return container


class TestActivation:
    def test_creates_hybrid_task(self, sim, kernel, token):
        kernel.start_timer(1 * MSEC)
        component = make_component(token, "COMP00", cpuusage=0.05)
        container = activate(kernel, component)
        assert kernel.exists("COMP00")
        assert container.task.hybrid is True
        sim.run_for(10 * MSEC)
        assert container.task.stats.completions >= 9

    def test_outport_objects_created(self, sim, kernel, token):
        component = make_component(
            token, "PROV00", cpuusage=0.05,
            outports=[("DATA00", "RTAI.SHM", "Integer", 4),
                      ("EVNT00", "RTAI.Mailbox", "Byte", 8)])
        kernel.start_timer(1 * MSEC)
        activate(kernel, component)
        assert kernel.lookup("DATA00").size == 4
        assert kernel.lookup("EVNT00").capacity == 8

    def test_synthetic_impl_writes_outports(self, sim, kernel, token):
        component = make_component(
            token, "PROV00", cpuusage=0.05,
            outports=[("DATA00", "RTAI.SHM", "Integer", 4)])
        kernel.start_timer(1 * MSEC)
        activate(kernel, component)
        sim.run_for(5 * MSEC)
        segment = kernel.lookup("DATA00")
        assert segment.read_at(0) > 0
        assert segment.last_writer == "PROV00"

    def test_inport_binding_attaches_provider_object(self, sim, kernel,
                                                     token):
        provider = make_component(
            token, "PROV00", cpuusage=0.05,
            outports=[("DATA00", "RTAI.SHM", "Integer", 4)])
        consumer = make_component(
            token, "CONS00", cpuusage=0.02, frequency=500, priority=3,
            inports=[("DATA00", "RTAI.SHM", "Integer", 4)])
        kernel.start_timer(1 * MSEC)
        activate(kernel, provider)
        binding = PortBinding(
            "CONS00", consumer.descriptor.inports[0],
            "PROV00", provider.descriptor.outports[0],
            kernel_object="DATA00")
        container = activate(kernel, consumer, [binding])
        sim.run_for(5 * MSEC)
        assert container.ctx.read_inport("DATA00")[0] > 0

    def test_deactivate_tears_everything_down(self, sim, kernel, token):
        component = make_component(
            token, "PROV00", cpuusage=0.05,
            outports=[("DATA00", "RTAI.SHM", "Integer", 4)])
        kernel.start_timer(1 * MSEC)
        container = activate(kernel, component)
        sim.run_for(5 * MSEC)
        container.deactivate()
        assert not kernel.exists("PROV00")
        assert not kernel.exists("DATA00")
        container.deactivate()  # idempotent

    def test_init_uninit_hooks_called(self, sim, kernel, token):
        calls = []

        class Hooked(RTImplementation):
            def init(self, ctx):
                calls.append("init")

            def uninit(self, ctx):
                calls.append("uninit")

        registry = ImplementationRegistry()
        registry.register("test.COMP00.Impl", Hooked)
        kernel.start_timer(1 * MSEC)
        component = make_component(token, "COMP00", cpuusage=0.05)
        container = activate(kernel, component, registry=registry)
        assert calls == ["init"]
        container.deactivate()
        assert calls == ["init", "uninit"]

    def test_aperiodic_component_release(self, sim, kernel, token):
        component = make_component(token, "EVT000",
                                   task_type="aperiodic", cpuusage=0.01)
        container = activate(kernel, component)
        sim.run_for(1 * MSEC)
        assert container.task.stats.activations == 1
        container.release()
        sim.run_for(1 * MSEC)
        assert container.task.stats.activations == 2

    def test_release_on_periodic_rejected(self, sim, kernel, token):
        kernel.start_timer(1 * MSEC)
        component = make_component(token, "COMP00", cpuusage=0.05)
        container = activate(kernel, component)
        with pytest.raises(TypeError):
            container.release()


class TestCommandPath:
    def _running_container(self, sim, kernel, token, properties=()):
        kernel.start_timer(1 * MSEC)
        component = make_component(token, "COMP00", cpuusage=0.05,
                                   properties=properties)
        container = activate(kernel, component)
        sim.run_for(3 * MSEC)
        return container

    def test_set_property_round_trip(self, sim, kernel, token):
        container = self._running_container(
            sim, kernel, token, properties=[("gain", "Integer", "1")])
        assert container.get_property("gain") == 1
        container.set_property("gain", 7)
        assert container.get_property("gain") == 1  # not yet applied
        sim.run_for(2 * MSEC)  # next job polls the mailbox
        assert container.get_property("gain") == 7

    def test_ping_reply_arrives_after_next_job(self, sim, kernel,
                                               token):
        container = self._running_container(sim, kernel, token)
        container.nrt_part.request_ping()
        assert container.nrt_part.last_reply(CommandKind.PING) is None
        sim.run_for(2 * MSEC)
        reply = container.nrt_part.last_reply(CommandKind.PING)
        assert reply is not None
        assert reply.value["job_index"] >= 1

    def test_graceful_suspend_at_job_boundary(self, sim, kernel, token):
        container = self._running_container(sim, kernel, token)
        container.nrt_part.suspend(graceful=True)
        assert container.task.state is not TaskState.SUSPENDED
        sim.run_for(2 * MSEC)
        assert container.task.state is TaskState.SUSPENDED
        container.nrt_part.resume()
        sim.run_for(2 * MSEC)
        assert container.task.state is not TaskState.SUSPENDED

    def test_immediate_suspend(self, sim, kernel, token):
        container = self._running_container(sim, kernel, token)
        container.suspend()
        assert container.task.suspended
        container.resume()
        assert not container.task.suspended

    def test_get_status_shape(self, sim, kernel, token):
        container = self._running_container(sim, kernel, token)
        status = container.get_status()
        assert status["component"] == "COMP00"
        assert status["state"] == "waiting"
        assert status["job_index"] >= 1
        assert "bridge" in status and "stats" in status

    def test_custom_command_hook(self, sim, kernel, token):
        class WithCommand(RTImplementation):
            def on_command(self, ctx, command):
                if command.kind is CommandKind.PING:
                    return "custom-pong"
                return None

        registry = ImplementationRegistry()
        registry.register("test.COMP00.Impl", WithCommand)
        kernel.start_timer(1 * MSEC)
        component = make_component(token, "COMP00", cpuusage=0.05)
        container = activate(kernel, component, registry=registry)
        sim.run_for(2 * MSEC)
        container.nrt_part.request_ping()
        sim.run_for(2 * MSEC)
        reply = container.nrt_part.last_reply(CommandKind.PING)
        assert reply.value == "custom-pong"

    def test_rt_side_never_blocks_on_absent_management(self, sim,
                                                       kernel, token):
        # No commands are ever sent: the task must keep its cadence.
        container = self._running_container(sim, kernel, token)
        sim.run_for(100 * MSEC)
        assert container.task.stats.deadline_misses == 0
        assert container.task.stats.completions >= 100


class TestContextPorts:
    def test_lower_case_names_resolve_across_reactivation(self, sim, kernel,
                                                          token):
        component = make_component(
            token, "PROV00", cpuusage=0.05,
            outports=[("DATA00", "RTAI.SHM", "Integer", 4)])
        kernel.start_timer(1 * MSEC)
        container = activate(kernel, component)
        ctx = container.ctx
        assert ctx.write_outport("data00", 7) is True
        assert kernel.lookup("DATA00").read_at(0) == 7
        with pytest.raises(KeyError) as unknown:
            ctx.write_outport("nope00", 1)
        assert unknown.value.args[0] \
            == "component PROV00 has no outport named 'nope00'"
        with pytest.raises(KeyError) as wrong_direction:
            ctx.read_inport("data00")
        assert wrong_direction.value.args[0] \
            == "component PROV00 has no inport named 'data00'"
        container.deactivate()
        with pytest.raises(KeyError) as unbound:
            ctx.write_outport("data00", 1)
        assert unbound.value.args[0] == "port data00 of PROV00 is not bound"
        container.activate([])
        # The segment is a new one: the name must reach it, not the
        # segment freed at deactivation.
        assert ctx.write_outport("data00", 9) is True
        assert kernel.lookup("DATA00").read_at(0) == 9


class TestImplementationRegistry:
    def test_unknown_bincode_falls_back_to_synthetic(self):
        registry = ImplementationRegistry()
        impl = registry.create("unknown.Bincode")
        assert isinstance(impl, SyntheticImplementation)

    def test_strict_registry_raises(self):
        from repro.core.errors import DRComError
        registry = ImplementationRegistry(strict=True)
        with pytest.raises(DRComError):
            registry.create("unknown.Bincode")

    def test_registered_factory_used(self):
        class Custom(RTImplementation):
            pass

        registry = ImplementationRegistry()
        registry.register("x.Custom", Custom)
        assert "x.Custom" in registry
        assert isinstance(registry.create("x.Custom"), Custom)

    def test_unregister(self):
        registry = ImplementationRegistry()
        registry.register("x.Custom", SyntheticImplementation)
        registry.unregister("x.Custom")
        assert "x.Custom" not in registry
