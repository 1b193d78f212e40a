"""The injectors: one class per :class:`~repro.faults.plan.FaultKind`.

:class:`Injector` owns the lifecycle, so a kind writes only its
perturbation.  A *scheduled* kind sets ``label`` and implements
``perturb(engine, component)``; one with no component target
overrides ``fire`` instead.  An *intercepting* kind sets ``hook`` to
``"container"`` (implementing ``wrap_container``) or ``"descriptor"``
(``filter_descriptor``) and decides through ``_take``.  Every
perturbation is reported to the owning
:class:`~repro.faults.engine.FaultEngine`, which counts it in the
``faults`` metrics registry and records a ``fault_inject`` trace row.

Injectors perturb *product* code paths -- the kernel's fault machinery,
the DRCR's activation path, the bridge's mailboxes, the descriptor
parser, the resolving-service consultation -- never test-only seams, so
what a chaos run exercises is exactly what production runs.
"""

from repro.core.resolving import (
    RESOLVING_SERVICE_INTERFACE,
    ResolvingService,
)
from repro.faults.plan import FaultInjectionError, FaultKind
from repro.hybrid.protocol import CommandKind


class ResolverTimeoutError(FaultInjectionError):
    """Raised by the injected resolving service (hung resolver)."""


class Injector:
    """Base: one armed :class:`FaultSpec`."""

    #: Simulator event label of a scheduled kind's firing.
    label = None
    #: Interception point of an intercepting kind (``"container"`` or
    #: ``"descriptor"``); None for scheduled kinds.
    hook = None

    def __init__(self, spec, index):
        self.spec = spec
        self.index = index
        #: Interceptions left (``count``; intercepting kinds only).
        self.remaining = spec.count

    def arm(self, engine):
        """Schedule :meth:`fire` at ``at_ns`` (scheduled kinds; the
        engine installs the hooks of intercepting kinds)."""
        if self.hook is None:
            engine.sim.schedule_at(self.spec.at_ns, self.fire, engine,
                                   label=self.label)

    def fire(self, engine):
        """Perturb every instantiated matching component whose gate
        opens."""
        targets = [component
                   for component in engine.drcr.registry.all()
                   if self.spec.matches(component.name)
                   and component.is_instantiated]
        if not targets:
            engine.record_skip(self.spec, "no instantiated target")
            return
        for component in targets:
            if self._gate(engine):
                self.perturb(engine, component)

    def perturb(self, engine, component):
        """Apply this kind's fault to one target component."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _gate(self, engine):
        """The spec's probability gate, drawn from this injector's
        plan-seeded stream (no draw at probability 1.0); a closed gate
        is recorded as a skip."""
        probability = self.spec.probability
        if probability >= 1.0 \
                or engine.stream_for(self.index).random() < probability:
            return True
        engine.record_skip(self.spec, "probability gate")
        return False

    def _take(self, engine, name):
        """Whether an intercepting kind perturbs the call for ``name``:
        a count is left, the window has opened, the name matches and
        the gate is open (the count is then spent)."""
        if self.remaining <= 0 or engine.kernel.now < self.spec.at_ns \
                or not self.spec.matches(name) or not self._gate(engine):
            return False
        self.remaining -= 1
        return True


class CrashInjector(Injector):
    """``crash``: fault the target's RT task at ``at_ns``, exactly as
    if the implementation body had raised."""

    label = "fault:crash"

    def perturb(self, engine, component):
        task = component.container.task
        if task is None:
            engine.record_skip(self.spec, "no task")
            return
        engine.record_injection(self.spec, target=component.name)
        engine.kernel.inject_fault(task, FaultInjectionError(
            "injected crash (plan %s)" % engine.plan.name))


class ActivationCrashInjector(Injector):
    """``crash_on_activate`` / ``crash_on_deactivate``: wrap containers
    created in the fault window so the chosen lifecycle call raises.

    The DRCR recovers from both: a failed activation parks the
    component UNSATISFIED (retried on the next reconfiguration); a
    failed deactivation triggers the DRCR's force-teardown so the
    kernel task and bridge are reclaimed regardless.
    """

    hook = "container"

    def wrap_container(self, engine, component, container):
        if not self._take(engine, component.name):
            return container
        engine.record_injection(self.spec, target=component.name)
        on_activate = self.spec.kind is FaultKind.CRASH_ON_ACTIVATE
        return _CrashingContainer(container, engine.plan.name,
                                  fail_activate=on_activate,
                                  fail_deactivate=not on_activate)


class _CrashingContainer:
    """Container proxy whose activate/deactivate raises (once)."""

    def __init__(self, inner, plan_name, fail_activate, fail_deactivate):
        self._inner = inner
        self._plan_name = plan_name
        self._fail_activate = fail_activate
        self._fail_deactivate = fail_deactivate

    def activate(self, bindings):
        if self._fail_activate:
            self._fail_activate = False
            raise FaultInjectionError(
                "injected activation crash (plan %s)" % self._plan_name)
        return self._inner.activate(bindings)

    def deactivate(self):
        if self._fail_deactivate:
            self._fail_deactivate = False
            raise FaultInjectionError(
                "injected deactivation crash (plan %s)"
                % self._plan_name)
        return self._inner.deactivate()

    def __getattr__(self, name):
        return getattr(self._inner, name)


class OverrunInjector(Injector):
    """``overrun``: multiply the implementation's per-job compute time
    by ``factor`` for ``duration_ns`` -- the component lies about its
    WCET.  Paired with a ``fault``-policy watchdog this exercises
    eviction + contract-preserving re-resolution."""

    label = "fault:overrun"

    def perturb(self, engine, component):
        implementation = component.container.implementation
        if "compute_ns" in implementation.__dict__:
            engine.record_skip(self.spec, "already wrapped")
            return
        engine.record_injection(self.spec, target=component.name,
                                factor=self.spec.factor)
        original = implementation.compute_ns
        spec = self.spec

        def inflated_compute_ns(ctx):
            base = original(ctx)
            if engine.kernel.now >= spec.end_ns:
                return base
            engine.count_overrun_job()
            return int(base * spec.factor)

        implementation.compute_ns = inflated_compute_ns
        engine.sim.schedule_at(
            spec.end_ns, self._restore, implementation,
            inflated_compute_ns, label="fault:overrun_end")

    @staticmethod
    def _restore(implementation, wrapper):
        if implementation.__dict__.get("compute_ns") is wrapper:
            del implementation.__dict__["compute_ns"]


class MailboxDropInjector(Injector):
    """``mailbox_drop``: shrink the target's command mailbox to zero
    capacity for the window, so every management send drops (the §3.2
    non-blocking discipline under a dead RT consumer)."""

    label = "fault:mbx_drop"

    def perturb(self, engine, component):
        bridge = component.container.bridge
        if bridge is None:
            engine.record_skip(self.spec, "no bridge")
            return
        mailbox = bridge.command_mailbox
        engine.record_injection(self.spec, target=component.name)
        original = mailbox.capacity
        mailbox.resize(0)
        engine.sim.schedule_at(self.spec.end_ns, mailbox.resize,
                               original, label="fault:mbx_drop_end")


class MailboxFloodInjector(Injector):
    """``mailbox_flood``: fill the target's command mailbox with
    injected PINGs, so the next real management command overflows."""

    label = "fault:mbx_flood"

    def perturb(self, engine, component):
        bridge = component.container.bridge
        if bridge is None:
            engine.record_skip(self.spec, "no bridge")
            return
        flooded = 0
        while not bridge.command_mailbox.full:
            command = bridge.send_command(CommandKind.PING)
            if command is None:
                break
            command.injected = True
            flooded += 1
        engine.record_injection(self.spec, target=component.name,
                                flooded=flooded)


class DescriptorCorruptInjector(Injector):
    """``descriptor_corrupt``: mangle the next ``count`` matching
    descriptor XMLs before the DRCR parses them.  The hardened
    ``_deploy_bundle`` contains the damage to the corrupt component and
    keeps deploying the rest of the bundle, as it does for every
    malformed descriptor (any ``DRComError`` the parse raises)."""

    hook = "descriptor"

    def filter_descriptor(self, engine, xml_text, bundle, path):
        if not self._take(engine, bundle.symbolic_name):
            return xml_text
        engine.record_injection(self.spec, target=bundle.symbolic_name,
                                path=path)
        return "<corrupted/>" + xml_text[:len(xml_text) // 2]


class TimingOutResolvingService(ResolvingService):
    """A resolving service that raises on every consultation."""

    name = "injected-timeout"

    def __init__(self, plan_name):
        self._plan_name = plan_name

    def _raise(self):
        raise ResolverTimeoutError(
            "resolving service timed out (plan %s)" % self._plan_name)

    def admit(self, candidate, view):
        self._raise()

    def revalidate(self, component, view):
        self._raise()


class ResolverTimeoutInjector(Injector):
    """``resolver_timeout``: register a raising resolving service for
    the window.  The DRCR must *fail safe* on admission (treat the
    error as a veto) and *fail open* on revalidation (keep admitted
    components admitted) -- both are asserted in
    ``tests/faults/test_injectors.py``."""

    label = "fault:resolver"

    def fire(self, engine):
        if not self._gate(engine):
            return
        registration = engine.drcr.framework.registry.register(
            RESOLVING_SERVICE_INTERFACE,
            TimingOutResolvingService(engine.plan.name))
        engine.record_injection(self.spec, target=self.spec.target)
        engine.sim.schedule_at(self.spec.end_ns, self._end,
                               registration, label="fault:resolver_end")

    @staticmethod
    def _end(registration):
        if not registration.unregistered:
            registration.unregister()


class ClusterInjector(Injector):
    """Base for federation-scope faults: needs ``engine.cluster``
    (:class:`~repro.faults.engine.FaultEngine` refuses to build
    without one)."""


class NodeCrashInjector(ClusterInjector):
    """``node_crash``: fail-stop the target node at ``at_ns``.

    The node drops off the transport and its stack is torn down;
    survivors only find out through missed heartbeats, so detection
    and failover latency are part of what the experiment measures."""

    label = "fault:node_crash"

    def fire(self, engine):
        node = engine.cluster.nodes.get(self.spec.target)
        if node is None or not node.alive:
            engine.record_skip(self.spec, "no such live node")
            return
        if not self._gate(engine):
            return
        engine.record_injection(self.spec, target=self.spec.target)
        engine.cluster.crash_node(self.spec.target)


class PartitionInjector(ClusterInjector):
    """``partition``: sever the ``nodeA|nodeB`` pair for the window.

    Both directions block (in-flight messages included) until
    ``duration_ns`` elapses and the pair heals."""

    label = "fault:partition"

    def fire(self, engine):
        if not self._gate(engine):
            return
        a, b = self.spec.target.split("|")
        transport = engine.cluster.transport
        engine.record_injection(self.spec, target=self.spec.target)
        transport.partition(a, b)
        engine.sim.schedule(self.spec.duration_ns, transport.heal, a, b,
                            label="fault:partition-heal")


#: FaultKind -> injector class.
INJECTOR_CLASSES = {
    FaultKind.CRASH: CrashInjector,
    FaultKind.CRASH_ON_ACTIVATE: ActivationCrashInjector,
    FaultKind.CRASH_ON_DEACTIVATE: ActivationCrashInjector,
    FaultKind.OVERRUN: OverrunInjector,
    FaultKind.MAILBOX_DROP: MailboxDropInjector,
    FaultKind.MAILBOX_FLOOD: MailboxFloodInjector,
    FaultKind.DESCRIPTOR_CORRUPT: DescriptorCorruptInjector,
    FaultKind.RESOLVER_TIMEOUT: ResolverTimeoutInjector,
    FaultKind.NODE_CRASH: NodeCrashInjector,
    FaultKind.PARTITION: PartitionInjector,
}


def make_injector(spec, index):
    """Build the injector for one spec."""
    return INJECTOR_CLASSES[spec.kind](spec, index)
