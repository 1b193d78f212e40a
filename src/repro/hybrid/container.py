"""The hybrid split container (paper section 3.1, Figure 3).

"The result is a split architecture where we have a large non-real-time
container, which is based on OSGi", and a small real-time part running
on the RT kernel.  The :class:`HybridContainer` assembles both halves
for one component: it binds ports to RT-domain kernel objects, creates
the command bridge, invokes the implementation's (non-exposed) init/
uninit hooks, and starts/stops the RT task -- all strictly at the DRCR's
command.
"""

from repro.hybrid.bridge import CommandBridge
from repro.hybrid.context import RTContext, bind_ports, unbind_ports
from repro.hybrid.implementation import default_registry
from repro.hybrid.nrt_part import NonRealTimePart
from repro.hybrid.rt_part import RealTimePart
from repro.rtos.task import TaskType


class HybridContainer:
    """One component's runtime instance: RT part + non-RT part."""

    def __init__(self, component, kernel, implementation_registry=None):
        self.component = component
        self.kernel = kernel
        registry = implementation_registry or default_registry
        self.implementation = registry.create(
            component.descriptor.implementation)
        self.ctx = RTContext(component.descriptor, kernel)
        self.bridge = None
        self.rt_part = None
        self.nrt_part = None
        self.task = None
        self._active = False

    # ------------------------------------------------------------------
    # lifecycle (invoked by the DRCR only)
    # ------------------------------------------------------------------
    def activate(self, bindings):
        """Bring the component up: ports, bridge, init, task start."""
        if self._active:
            return
        descriptor = self.component.descriptor
        contract = descriptor.contract
        bind_ports(self.ctx, self.kernel, bindings)
        self.bridge = CommandBridge(self.kernel, descriptor.name)
        self.rt_part = RealTimePart(self.ctx, self.implementation,
                                    self.bridge)
        self.nrt_part = NonRealTimePart(self.ctx, self.bridge, self.kernel)
        # The (non-exposed) init hook runs before the task exists.
        self.implementation.init(self.ctx)
        self.task = self.kernel.create_task(
            descriptor.task_name,
            self.rt_part.body,
            priority=contract.priority,
            cpu=contract.cpu,
            task_type=contract.task_type,
            period_ns=contract.period_ns,
            deadline_ns=contract.deadline_ns,
            collect_latency=True,
            hybrid=True,
        )
        self.ctx.task = self.task
        self.ctx.activated_at = self.kernel.now
        self.kernel.start_task(self.task)
        self._active = True

    def deactivate(self):
        """Tear the component down: task, uninit, bridge, ports."""
        if not self._active:
            return
        self._active = False
        if self.task is not None:
            self.kernel.delete_task(self.task)
            self.task = None
            self.ctx.task = None
        # The (non-exposed) uninit hook runs after the task is gone.
        self.implementation.uninit(self.ctx)
        if self.bridge is not None:
            self.bridge.close()
            self.bridge = None
        unbind_ports(self.ctx, self.kernel)

    def release(self):
        """Release one job of an aperiodic or sporadic component.

        Sporadic releases are throttled to the contract's minimum
        inter-arrival time by the kernel.
        """
        if self.component.descriptor.task_type not in (
                TaskType.APERIODIC, TaskType.SPORADIC):
            raise TypeError(
                "release() is for aperiodic/sporadic components")
        self.kernel.release_task(self.task)

    # ------------------------------------------------------------------
    # management delegation (the container protocol DRCR relies on)
    # ------------------------------------------------------------------
    def suspend(self):
        """Suspend the RT task (management path)."""
        self.nrt_part.suspend()

    def resume(self):
        """Resume the RT task (management path)."""
        self.nrt_part.resume()

    def get_property(self, name):
        """Read a live property."""
        return self.nrt_part.get_property(name)

    def set_property(self, name, value):
        """Queue a property write to the RT side."""
        return self.nrt_part.set_property(name, value)

    def get_status(self):
        """Status snapshot (task + bridge)."""
        return self.nrt_part.get_status()

    def __repr__(self):
        return "HybridContainer(%s, %s)" % (
            self.component.name, "active" if self._active else "inactive")


def default_container_factory(component, drcr):
    """The factory DRCR uses when none is injected."""
    return HybridContainer(component, drcr.kernel)


def make_container_factory(implementation_registry=None):
    """Build a container factory whose components take their
    implementations from ``implementation_registry`` (e.g. a strict
    bincode registry)."""
    def factory(component, drcr):
        return HybridContainer(
            component, drcr.kernel,
            implementation_registry=implementation_registry)
    return factory
