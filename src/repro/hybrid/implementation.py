"""Component implementations and the bincode registry.

The descriptor's ``implementation bincode`` attribute names the class
providing the component's behaviour ("The component instances will be
created by DRCR by referring to this attribute", section 2.3).  In the
reproduction, bincodes resolve through an :class:`ImplementationRegistry`
to :class:`RTImplementation` subclasses.

Per the paper's section 2.4, implementations *do* have ``init`` and
``uninit`` hooks but those are **not** exposed on the management
interface -- the container invokes them at activation/deactivation, and
nothing else can.
"""

from repro.core.errors import DRComError


class RTImplementation:
    """Behaviour hooks of a hybrid real-time component.

    ``compute_ns`` and ``execute`` together form one job of the RT
    task's functional routine: ``compute_ns`` declares how much CPU the
    job burns (simulated, preemptible) and ``execute`` performs the
    zero-time side effects (port reads/writes) at job completion.
    """

    def init(self, ctx):
        """Called once at activation (NOT on the management interface)."""

    def compute_ns(self, ctx):
        """CPU time this job consumes; defaults to the contract's
        derived WCET (cpuusage * period)."""
        wcet = ctx.contract.wcet_ns
        return wcet if wcet is not None else 0

    def execute(self, ctx):
        """Functional side effects of one job (port I/O, state)."""

    def on_command(self, ctx, command):
        """Hook for implementation-specific commands; return a reply
        value or None to fall through to the standard handling."""
        return None

    def uninit(self, ctx):
        """Called once at deactivation (NOT on the management
        interface)."""


class SyntheticImplementation(RTImplementation):
    """Default behaviour for unknown bincodes: a simulated computing
    job, like the paper's test application ("one of two components will
    do some simulated computing job", section 4.2).

    Each job burns the contract WCET, stamps a monotonically increasing
    sequence number into every outport, and polls every inport.  The
    port lists are resolved once per activation, in :meth:`init`.
    """

    def init(self, ctx):
        ctx.properties.setdefault("synthetic.sequence", 0)
        self._outports = ctx.descriptor.outports
        self._inports = ctx.descriptor.inports

    def execute(self, ctx):
        sequence = ctx.properties["synthetic.sequence"] + 1
        ctx.properties["synthetic.sequence"] = sequence
        for port in self._outports:
            if port.data_type == "Byte":
                ctx.write_outport(port.name, sequence % 256)
            elif port.data_type == "Float":
                ctx.write_outport(port.name, float(sequence))
            else:
                ctx.write_outport(port.name, sequence)
        for port in self._inports:
            ctx.read_inport(port.name)


class ImplementationRegistry:
    """Maps bincode names to implementation factories."""

    def __init__(self, strict=False):
        self._factories = {}
        #: When strict, unknown bincodes raise instead of falling back
        #: to :class:`SyntheticImplementation`.
        self.strict = strict

    def register(self, bincode, factory):
        """Register ``factory`` (a zero-arg callable producing an
        :class:`RTImplementation`) under a bincode name."""
        self._factories[bincode] = factory

    def unregister(self, bincode):
        """Remove a bincode registration."""
        self._factories.pop(bincode, None)

    def __contains__(self, bincode):
        return bincode in self._factories

    def create(self, bincode):
        """Instantiate the implementation for ``bincode``."""
        factory = self._factories.get(bincode)
        if factory is not None:
            return factory()
        if self.strict:
            raise DRComError(
                "no implementation registered for bincode %r" % bincode)
        return SyntheticImplementation()


#: The default registry the hybrid container factory consults.
default_registry = ImplementationRegistry()


def register_implementation(bincode, factory):
    """Register into the default registry (module-level convenience)."""
    default_registry.register(bincode, factory)
