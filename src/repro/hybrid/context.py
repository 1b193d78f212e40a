"""The execution context handed to component implementations.

An implementation's hooks receive an :class:`RTContext`: its window onto
the ports, properties and timing facts of its component.  Port access
maps straight onto the RT-domain kernel objects -- shared memory reads/
writes and mailbox polls -- never through the OSGi side (paper section
3.3: "the non real-time OSGi implementation will not directly interfere
with the inter task communication").
"""

from repro.core.ports import PortDirection, PortInterface
from repro.rtos.fifo import RTFifo
from repro.rtos.mailbox import Mailbox
from repro.rtos.shm import SharedMemory


class RTContext:
    """Per-component execution context (one per activation)."""

    def __init__(self, descriptor, kernel):
        self.descriptor = descriptor
        #: The component's real-time contract (the descriptor's, which
        #: is never replaced).
        self.contract = descriptor.contract
        self.kernel = kernel
        #: Live configuration properties.  Conceptually a shared segment
        #: owned by the RT side: the management part *reads* it directly
        #: but *writes* only through the command queue.
        self.properties = descriptor.property_dict()
        #: Kernel objects backing the ports (name -> SHM or Mailbox).
        self.port_objects = {}
        # (declared name, direction) -> (port, object) for the bound
        # ports; bind_ports fills it and unbind_ports clears it.
        self._bound = {}
        #: The RT task once started (set by the container).
        self.task = None
        #: Jobs completed since activation.
        self.job_index = 0
        #: When the component was activated (set by the container).
        self.activated_at = None
        #: Scheduling latency of the current job (ns).
        self.last_latency = None

    @property
    def name(self):
        """The component name."""
        return self.descriptor.name

    def now(self):
        """Current simulated time (ns)."""
        return self.kernel.now

    # ------------------------------------------------------------------
    # port access
    # ------------------------------------------------------------------
    def _port(self, name, direction):
        """``(port, object)`` for a port named case-insensitively."""
        found = self._bound.get((name, direction)) \
            or self._bound.get((name.upper(), direction))
        if found is not None:
            return found
        for port in self.descriptor.ports:
            if port.name == name.upper() and port.direction is direction:
                raise KeyError(
                    "port %s of %s is not bound" % (name, self.name))
        raise KeyError("component %s has no %s named %r"
                       % (self.name, direction.value, name))

    def read_inport(self, name):
        """Read the current data of an inport.

        SHM ports return the whole segment (a list); mailbox ports
        return the next message or ``None`` (non-blocking poll).
        """
        port, obj = self._port(name, PortDirection.IN)
        if isinstance(obj, SharedMemory):
            return obj.read()
        if isinstance(obj, RTFifo):
            return obj.read()
        return obj.receive_external()

    def inport_age_ns(self, name):
        """Nanoseconds since the inport's SHM segment was written."""
        port, obj = self._port(name, PortDirection.IN)
        if not isinstance(obj, SharedMemory):
            raise TypeError("inport %s is not shared memory" % name)
        return obj.age_ns()

    def write_outport(self, name, values):
        """Write data to an outport.

        SHM ports take a full segment (list) or a scalar (broadcast to
        element 0); mailbox ports take one message.  Returns True when
        the write landed (mailbox sends may drop when full).
        """
        port, obj = self._port(name, PortDirection.OUT)
        if isinstance(obj, SharedMemory):
            if isinstance(values, (list, tuple)):
                obj.write(list(values), writer=self.name)
            else:
                obj.write_at(0, values, writer=self.name)
            return True
        if isinstance(obj, Mailbox):
            return obj.send_external(values)
        if isinstance(obj, RTFifo):
            return obj.put(values)
        raise TypeError("outport %s has unsupported backing %r"
                        % (name, obj))

    # ------------------------------------------------------------------
    # digital I/O (Figure 3: "connect to sensors or actuators")
    # ------------------------------------------------------------------
    def read_sensor(self, channel):
        """Sample a digital-I/O input channel."""
        dio = getattr(self.kernel, "dio", None)
        if dio is None:
            raise RuntimeError(
                "no DIO module attached; call repro.rtos.dio"
                ".attach_dio(kernel) first")
        return dio.read(channel)

    def write_actuator(self, channel, value):
        """Drive a digital-I/O output channel."""
        dio = getattr(self.kernel, "dio", None)
        if dio is None:
            raise RuntimeError(
                "no DIO module attached; call repro.rtos.dio"
                ".attach_dio(kernel) first")
        dio.write(channel, value)

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    def get_property(self, name, default=None):
        """Read a live property."""
        return self.properties.get(name, default)

    def status_snapshot(self):
        """Small status dict replies carry."""
        return {
            "job_index": self.job_index,
            "last_latency_ns": self.last_latency,
            "time_ns": self.now(),
        }

    def __repr__(self):
        return "RTContext(%s, job=%d)" % (self.name, self.job_index)


def bind_ports(ctx, kernel, bindings):
    """Create/attach the kernel objects backing a component's ports.

    Outports are *owned*: the SHM segment or mailbox is created (or
    attached, for an already-existing shared reference) under the port's
    own name -- the global communication reference of section 2.3.
    Inports attach to the provider's object named in the binding.
    """
    descriptor = ctx.descriptor
    for port in descriptor.outports:
        if port.interface is PortInterface.RTAI_SHM:
            obj = kernel.shm_alloc(port.name, port.data_type, port.size,
                                   owner=ctx.name)
        elif port.interface is PortInterface.RTAI_FIFO:
            obj = (kernel.lookup(port.name) if kernel.exists(port.name)
                   else kernel.fifo_create(port.name,
                                           capacity=port.size))
        else:
            if kernel.exists(port.name):
                obj = kernel.lookup(port.name)
            else:
                obj = kernel.mailbox(port.name, capacity=port.size)
        ctx.port_objects[port.name] = obj
        ctx._bound[(port.name, port.direction)] = (port, obj)
    by_inport = {binding.inport.name: binding for binding in bindings}
    for port in descriptor.inports:
        binding = by_inport.get(port.name)
        if binding is None:
            raise KeyError("inport %s of %s has no binding"
                           % (port.name, ctx.name))
        if port.interface is PortInterface.RTAI_SHM:
            obj = kernel.shm_alloc(binding.kernel_object, port.data_type,
                                   port.size, owner=ctx.name)
        else:
            obj = kernel.lookup(binding.kernel_object)
        ctx.port_objects[port.name] = obj
        ctx._bound[(port.name, port.direction)] = (port, obj)


def unbind_ports(ctx, kernel):
    """Release the kernel objects backing a component's ports."""
    descriptor = ctx.descriptor
    ctx._bound.clear()
    for port in descriptor.outports + descriptor.inports:
        obj = ctx.port_objects.pop(port.name, None)
        if obj is None:
            continue
        if isinstance(obj, SharedMemory):
            kernel.shm_free(obj.name, owner=ctx.name)
        elif isinstance(obj, (Mailbox, RTFifo)):
            # Mailboxes and FIFOs are owned by the outport side only.
            if port.direction is PortDirection.OUT \
                    and kernel.exists(obj.name):
                kernel.free_object(obj.name)
