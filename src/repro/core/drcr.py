"""The Declarative Real-time Component Runtime (DRCR).

The paper's central contribution (sections 1, 2.2): a runtime service
that

* parses DRCom descriptors when bundles arrive ("the DRCR service will
  automatically parse its real-time component configuration and store
  these data into its internal registry"),
* owns every component lifecycle transition ("component configurations
  are activated and deactivated under the full control of DRCR which
  holds the global view of all real-time components"),
* resolves **functional constraints** (inports must have an active,
  port-compatible provider) and **non-functional constraints** (the
  internal resolving service *and* every customized resolving service
  registered in OSGi must accept -- "when both services return positive
  results ... the DRCR will create and activate the component
  instance", section 4.3),
* reacts to run-time departure ("if component Calcuation is stopped, the
  DRCR gets notified about this event and consults its ... resolving
  service[s] again to check for possible unsatisfied component
  instances"), cascading deactivation to dependents without touching the
  contracts of unaffected components,
* registers a management service per component (section 2.4).

Because components arrive and depart *during operation* (section 1),
resolution cost is a steady-state tax.  Reconfiguration is therefore
**incremental**: every lifecycle event seeds a *dirty set* of component
names, and each fixpoint pass visits only the dirty components,
propagating along the registry's port-dependency graph (a departure
dirties its waiting consumers and the components its freed budget could
admit; an activation dirties its waiting consumers).  A full sweep of
the global view stays reachable -- :meth:`DRCR.reconfigure` (used for
out-of-band context changes such as a lowered degradation cap) and
resolver arrival/departure force one -- and ``incremental = False``
restores the historical sweep-everything behavior wholesale.
:meth:`DRCR.batch` coalesces event storms (bundle deploys, fleet
rollouts) into a single reconfiguration round.
"""

from contextlib import contextmanager

from repro.core.component import DRComComponent, LifecycleToken
from repro.core.descriptor import ComponentDescriptor
from repro.core.errors import DescriptorError, DRComError, LifecycleError
from repro.core.events import ComponentEventLog, ComponentEventType
from repro.core.lifecycle import ComponentState, state_metric_name
from repro.core.management import (
    MANAGEMENT_SERVICE_INTERFACE,
    ComponentManagementService,
    management_service_properties,
)
from repro.core.placement import is_pinned
from repro.core.policies import UtilizationBoundPolicy
from repro.core.ports import PortBinding
from repro.core.registry import ComponentRegistry
from repro.core.resolving import (
    RESOLVING_SERVICE_INTERFACE,
    Decision,
    GlobalView,
)
from repro.osgi.events import BundleEventType
from repro.osgi.tracker import ServiceTracker

#: OSGi service interface the DRCR registers itself under.
DRCR_SERVICE_INTERFACE = "drcom.drcr.DeclarativeRTComponentRuntime"

#: Safety cap on reconfiguration fixpoint iterations, on top of one
#: pass per registered component (the deepest possible cascade).
_MAX_RECONFIGURE_PASSES = 100


class DRCR:
    """The runtime.  One instance per (framework, kernel) pair.

    Parameters
    ----------
    framework:
        The :class:`repro.osgi.Framework` to attach to.
    kernel:
        The :class:`repro.rtos.RTKernel` real-time substrate.
    internal_policy:
        The internal resolving service (default:
        :class:`~repro.core.policies.UtilizationBoundPolicy` with cap
        1.0 -- the declared-cpuusage budget of section 2.3).
    container_factory:
        ``factory(component, drcr) -> container``; defaults to the
        hybrid split container of :mod:`repro.hybrid`.
    """

    def __init__(self, framework, kernel, internal_policy=None,
                 container_factory=None):
        self.framework = framework
        self.kernel = kernel
        self.registry = ComponentRegistry()
        self.events = ComponentEventLog()
        self.internal_policy = internal_policy or UtilizationBoundPolicy()
        #: Optional :class:`~repro.core.placement.PlacementService`
        #: consulted before admission to re-pin candidates to a CPU
        #: (install one with :meth:`set_placement_service`).
        self.placement_service = None
        if container_factory is None:
            from repro.hybrid.container import default_container_factory
            container_factory = default_container_factory
        self._container_factory = container_factory
        #: Optional :class:`~repro.faults.recovery.QuarantinePolicy`.
        #: When set, a faulting component is automatically re-enabled
        #: after the cool-down (until ``max_failures``); when None the
        #: quarantine is permanent until an operator intervenes.
        self.recovery_policy = None
        #: Optional hook ``(xml_text, bundle, path) -> xml_text``
        #: applied to RT-Component resources before parsing (the
        #: fault-injection subsystem's descriptor-corruption seam).
        self.descriptor_filter = None
        self._token = LifecycleToken(self)
        self._reconfiguring = False
        #: Incremental (dirty-set) reconfiguration.  ``False`` restores
        #: the historical full-sweep-per-event behavior (the reference
        #: side of the incremental tests and of benchmark A3).
        self.incremental = True
        #: Completed reconfiguration rounds (mirrors the
        #: ``drcr.reconfigurations_total`` counter; plain attribute so
        #: tests can assert coalescing without telemetry enabled).
        self.reconfigurations = 0
        # Dirty-set bookkeeping: names touched by events that arrive
        # while a round is running, or while a batch() is open, fold
        # into the pending pair the next pass reads.
        self._pending_dirty = set()
        self._pending_full = False
        # Components whose activation *attempt* crashed (as opposed to
        # being vetoed).  A full sweep retried them on any later event;
        # incremental rounds merge them into the first pass to match.
        self._retry_failed = set()
        # Open batch() contexts: the outermost exit runs the round.
        self._batch_depth = 0
        self._attached = False
        self._registration = None
        self._applications = {}
        self._resolving_tracker = ServiceTracker(
            framework, clazz=RESOLVING_SERVICE_INTERFACE,
            on_added=self._on_resolving_service_change,
            on_removed=self._on_resolving_service_change)
        # Telemetry instruments (no-ops when telemetry is disabled).
        self._metrics = kernel.sim.telemetry.registry("drcr")
        self._m_reconfigurations = self._metrics.counter(
            "reconfigurations_total")
        self._m_passes = self._metrics.counter(
            "reconfiguration_passes_total")
        self._m_admissions = self._metrics.counter("admissions_total")
        self._m_rejections = self._metrics.counter(
            "admission_rejections_total")
        self._m_revocations = self._metrics.counter(
            "admissions_revoked_total")
        self._m_quarantines = self._metrics.counter("quarantines_total")
        self._m_readmissions = self._metrics.counter(
            "quarantine_readmissions_total")
        self._m_quarantine_permanent = self._metrics.counter(
            "quarantine_permanent_total")
        self._m_descriptor_errors = self._metrics.counter(
            "descriptor_errors_total")
        self._m_resolver_errors = self._metrics.counter(
            "resolving_service_errors_total")
        self._m_deactivation_errors = self._metrics.counter(
            "deactivation_errors_total")
        self._m_dirty_set_size = self._metrics.gauge("dirty_set_size")
        self._m_components_skipped = self._metrics.counter(
            "components_skipped_total")
        self._m_full_passes = self._metrics.counter(
            "full_sweep_passes_total")
        self._state_gauges = {
            state: self._metrics.gauge(state_metric_name(state))
            for state in ComponentState
        }

    # ------------------------------------------------------------------
    # attachment to the OSGi framework
    # ------------------------------------------------------------------
    def attach(self):
        """Start operating: subscribe to bundle events, publish the DRCR
        service, and deploy components from already-active bundles."""
        if self._attached:
            return
        self._attached = True
        self.framework.bundle_listeners.add(self._on_bundle_event)
        self.kernel.on_task_fault = self._on_task_fault
        self._resolving_tracker.open()
        self._registration = self.framework.registry.register(
            DRCR_SERVICE_INTERFACE, self)
        for bundle in self.framework.get_bundles():
            if bundle.is_active:
                self._deploy_bundle(bundle)

    def detach(self):
        """Stop operating: dispose every component, unsubscribe."""
        if not self._attached:
            return
        for component in list(self.registry.all()):
            self._dispose(component, "DRCR detaching")
        self.framework.bundle_listeners.remove(self._on_bundle_event)
        if self.kernel.on_task_fault is self._on_task_fault:
            self.kernel.on_task_fault = None
        self._resolving_tracker.close()
        if self._registration is not None \
                and not self._registration.unregistered:
            self._registration.unregister()
        self._registration = None
        self._attached = False
        # Everything is disposed; pending dirt refers to nothing now.
        self._pending_dirty = set()
        self._pending_full = False

    def _on_bundle_event(self, event):
        if event.event_type is BundleEventType.STARTED:
            self._deploy_bundle(event.bundle)
        elif event.event_type is BundleEventType.STOPPING:
            self._undeploy_bundle(event.bundle)

    def _on_task_fault(self, task, error):
        """A component implementation raised inside its RT task.

        The component is quarantined to DISABLED; its dependents
        cascade to UNSATISFIED and the freed budget is redistributed --
        the rest of the system keeps its contracts.  Without a
        :attr:`recovery_policy` the quarantine is permanent until an
        operator calls ``enableRTComponent``; with one, re-admission is
        scheduled after the cool-down (see :meth:`_quarantine`).
        """
        component = self.registry.by_task_name(task.name)
        if component is None or not component.is_instantiated:
            return
        reason = "implementation fault: %r" % (error,)
        if self.recovery_policy is not None:
            self._quarantine(component, reason)
        else:
            self._deactivate(component, ComponentState.DISABLED, reason)
            self._emit(ComponentEventType.DISABLED, component, reason)
        # _deactivate already seeded the dirty set (dependents, freed
        # budget); run the round over it.
        self._reconfigure(dirty=())

    def set_recovery_policy(self, policy):
        """Install (or clear, with ``None``) the quarantine policy."""
        self.recovery_policy = policy

    def _quarantine(self, component, reason):
        """Quarantine a faulting component under the recovery policy:
        DISABLED now, automatic re-enable after the cool-down, until
        the component exhausts ``max_failures``."""
        policy = self.recovery_policy
        failures = policy.record_failure(component.name)
        if policy.is_permanent(component.name):
            self._m_quarantine_permanent.inc()
            full_reason = ("%s; quarantined permanently after %d "
                           "faults" % (reason, failures))
            self._deactivate(component, ComponentState.DISABLED,
                             full_reason)
            self._emit(ComponentEventType.DISABLED, component,
                       full_reason)
            self.kernel.sim.trace.record(
                self.kernel.now, "quarantine", component=component.name,
                failures=failures, permanent=True)
            return
        self._m_quarantines.inc()
        full_reason = ("%s; quarantined (fault %d/%d), re-admission in "
                       "%d ns" % (reason, failures, policy.max_failures,
                                  policy.cooldown_ns))
        self._deactivate(component, ComponentState.DISABLED, full_reason)
        self._emit(ComponentEventType.DISABLED, component, full_reason)
        self.kernel.sim.trace.record(
            self.kernel.now, "quarantine", component=component.name,
            failures=failures, permanent=False,
            cooldown_ns=policy.cooldown_ns)
        self.kernel.sim.schedule(
            policy.cooldown_ns, self._release_quarantine, component.name,
            label="quarantine:%s" % component.name)

    def _release_quarantine(self, name):
        """Cool-down expired: re-enable the component (if it is still
        deployed, still DISABLED, and an operator has not intervened)."""
        component = self.registry.maybe_get(name)
        if component is None \
                or component.state is not ComponentState.DISABLED:
            return
        self._m_readmissions.inc()
        self.kernel.sim.trace.record(
            self.kernel.now, "quarantine_release", component=name)
        component._transition(self._token, ComponentState.UNSATISFIED,
                              "quarantine cool-down expired")
        self._emit(ComponentEventType.ENABLED, component,
                   "quarantine cool-down expired")
        self._reconfigure(dirty={name})

    def _on_resolving_service_change(self, reference, service):
        # A customized resolving service arrived or departed: it may
        # veto (or stop vetoing) *any* component, so both the pending
        # and the admitted sets need a full sweep.
        self._reconfigure()

    # ------------------------------------------------------------------
    # deployment
    # ------------------------------------------------------------------
    def _deploy_bundle(self, bundle):
        # One reconfiguration round per bundle, not per component.
        with self.batch():
            for path in bundle.manifest.rt_components:
                xml_text = self._require_resource(bundle, path,
                                                  "RT-Component")
                if self.descriptor_filter is not None:
                    xml_text = self.descriptor_filter(xml_text, bundle,
                                                      path)
                try:
                    descriptor = ComponentDescriptor.from_xml(xml_text)
                except DRComError as error:
                    # A malformed descriptor (unparseable, or failing
                    # its contract or port checks) must not take down
                    # the rest of the bundle (or the platform): count
                    # it, trace it, keep deploying the healthy
                    # components.
                    self._m_descriptor_errors.inc()
                    self.kernel.sim.trace.record(
                        self.kernel.now, "descriptor_error",
                        bundle=bundle.symbolic_name, path=path,
                        error=str(error))
                    continue
                self.register_component(descriptor, bundle)
        # Applications run outside the component batch: their all-or-
        # nothing check needs members actually activated.
        for path in bundle.manifest.rt_applications:
            from repro.core.application import ApplicationDescriptor
            xml_text = self._require_resource(bundle, path,
                                              "RT-Application")
            application = ApplicationDescriptor.from_xml(xml_text)
            self.register_application(application, bundle)

    @staticmethod
    def _require_resource(bundle, path, header):
        xml_text = bundle.get_resource(path)
        if xml_text is None:
            raise DescriptorError(
                "bundle %s declares %s %r but the resource is missing"
                % (bundle.symbolic_name, header, path))
        return xml_text

    def _undeploy_bundle(self, bundle):
        with self.batch():
            for component in self.registry.of_bundle(bundle):
                self._dispose(
                    component,
                    "bundle %s stopping" % bundle.symbolic_name)
            # Applications whose members are all gone are forgotten.
            for name, members in list(self._applications.items()):
                if not any(member in self.registry
                           for member in members):
                    del self._applications[name]

    def register_component(self, descriptor, bundle=None):
        """Deploy one component from a parsed descriptor.

        This is the programmatic path; bundle deployment funnels here.
        Returns the managed :class:`DRComComponent`.
        """
        component = DRComComponent(descriptor, bundle, self._token)
        self.registry.add(component)
        self._emit(ComponentEventType.REGISTERED, component)
        if descriptor.enabled:
            component._transition(self._token, ComponentState.UNSATISFIED,
                                  "awaiting resolution")
        else:
            component._transition(self._token, ComponentState.DISABLED,
                                  'descriptor enabled="false"')
            self._emit(ComponentEventType.DISABLED, component,
                       "disabled by descriptor")
        self._reconfigure(dirty={component.name})
        return component

    def unregister_component(self, name):
        """Undeploy one component by name (programmatic path)."""
        component = self.registry.get(name)
        self._dispose(component, "unregistered")
        self._reconfigure(dirty=())

    # ------------------------------------------------------------------
    # applications (grouped, atomic deployment)
    # ------------------------------------------------------------------
    def register_application(self, application, bundle=None):
        """Deploy an application atomically: all components activate or
        none stay deployed.

        Returns the list of managed components on success; raises
        :class:`~repro.core.errors.AdmissionError` (after rolling every
        member back out) when any member fails to activate.
        """
        from repro.core.errors import AdmissionError
        if self._batch_depth:
            raise LifecycleError(
                "register_application cannot run inside an open "
                "drcr.batch(): its all-or-nothing check needs members "
                "activated before it returns")
        deployed = []
        try:
            with self.batch():
                for descriptor in application.components:
                    deployed.append(
                        self.register_component(descriptor, bundle))
        except Exception:
            for component in deployed:
                self._dispose(component, "application rollback")
            self._reconfigure(dirty=())
            raise
        failures = {
            component.name: component.status_reason
            for component in deployed
            if component.state is not ComponentState.ACTIVE
        }
        if failures:
            for component in deployed:
                self._dispose(
                    component,
                    "application %s rolled back" % application.name)
            self._reconfigure(dirty=())
            raise AdmissionError(
                "application %s not admitted: %s"
                % (application.name,
                   "; ".join("%s (%s)" % item
                             for item in sorted(failures.items()))))
        self._applications[application.name] = \
            application.component_names()
        return deployed

    def unregister_application(self, name):
        """Undeploy every member of a previously registered
        application."""
        members = self._applications.pop(name, None)
        if members is None:
            raise LifecycleError("no application named %r" % (name,))
        for member in members:
            component = self.registry.maybe_get(member)
            if component is not None:
                self._dispose(component,
                              "application %s undeployed" % name)
        self._reconfigure(dirty=())

    def define_application(self, name, members):
        """Record an application grouping without the atomic-deployment
        path: ``name`` groups the ``members`` component names as
        intent.

        This is the public write API for callers that re-establish
        groupings from exported state -- snapshot restore
        (:func:`repro.core.snapshot.restore_state`) and cluster
        failover -- where the members deploy through their own
        admission decisions and the grouping is bookkeeping, not an
        all-or-nothing transaction (that is
        :meth:`register_application`).  Members need not be deployed
        yet.  Returns the recorded member list.
        """
        if not name:
            raise LifecycleError("application name must be non-empty")
        members = [str(member) for member in members]
        self._applications[name] = members
        return list(members)

    def applications(self):
        """Deployed applications: name -> member component names."""
        return {name: list(members)
                for name, members in self._applications.items()}

    # ------------------------------------------------------------------
    # management operations (section 2.4, routed via the DRCR)
    # ------------------------------------------------------------------
    def enable_component(self, name):
        """``enableRTComponent``: allow a disabled component to resolve."""
        component = self.registry.get(name)
        if component.state is not ComponentState.DISABLED:
            raise LifecycleError("component %s is not disabled" % name)
        component._transition(self._token, ComponentState.UNSATISFIED,
                              "enabled")
        self._emit(ComponentEventType.ENABLED, component)
        self._reconfigure(dirty={component.name})

    def disable_component(self, name):
        """``disableRTComponent``: deactivate (if needed) and hold."""
        component = self.registry.get(name)
        if component.state is ComponentState.DISABLED:
            return
        if component.is_instantiated:
            self._deactivate(component, ComponentState.DISABLED,
                             "disabled by management")
        else:
            component._transition(self._token, ComponentState.DISABLED,
                                  "disabled by management")
        self._emit(ComponentEventType.DISABLED, component)
        self._reconfigure(dirty=())

    def suspend_component(self, name):
        """Suspend an active component's RT task (admission retained)."""
        component = self.registry.get(name)
        if component.state is not ComponentState.ACTIVE:
            raise LifecycleError(
                "component %s is %s; only ACTIVE components can be "
                "suspended" % (name, component.state.value))
        component.container.suspend()
        component._transition(self._token, ComponentState.SUSPENDED,
                              "suspended by management")
        self._emit(ComponentEventType.SUSPENDED, component)

    def resume_component(self, name):
        """Resume a suspended component's RT task."""
        component = self.registry.get(name)
        if component.state is not ComponentState.SUSPENDED:
            raise LifecycleError(
                "component %s is %s; only SUSPENDED components can be "
                "resumed" % (name, component.state.value))
        component.container.resume()
        component._transition(self._token, ComponentState.ACTIVE,
                              "resumed by management")
        self._emit(ComponentEventType.RESUMED, component)

    def set_internal_policy(self, policy):
        """Swap the internal resolving service and reconfigure."""
        self.internal_policy = policy
        self._reconfigure()

    def reconfigure(self, full=True):
        """Trigger a reconfiguration round explicitly.

        Management path for out-of-band context changes the DRCR cannot
        observe itself -- for example after lowering a
        :class:`~repro.faults.recovery.GracefulDegradationService`
        cap at run time.  Such changes can affect *any* admitted
        component, so the round defaults to a full sweep; pass
        ``full=False`` for a cheap drain of any pending dirty set.
        """
        if full:
            self._reconfigure()
        else:
            self._reconfigure(dirty=())

    @contextmanager
    def batch(self):
        """Coalesce an event storm into one reconfiguration round.

        While the (re-entrant) context is open, lifecycle events that
        would each trigger a round -- ``register_component``, bundle
        deploy/undeploy, ``unregister_component`` -- only accumulate
        their dirty sets.  The outermost exit runs a single round over
        the union.  Bundle deployment uses this internally; fleet-scale
        callers (see :func:`repro.workloads.deploy_component_set`)
        should too.
        """
        self._batch_depth += 1
        try:
            yield self
        finally:
            self._batch_depth -= 1
            if self._batch_depth == 0:
                self._reconfigure(dirty=())

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def component(self, name):
        """The managed component named ``name``."""
        return self.registry.get(name)

    def component_state(self, name):
        """Shorthand: the lifecycle state of ``name``."""
        return self.registry.get(name).state

    def customized_resolving_services(self):
        """Currently registered customized resolving services."""
        return self._resolving_tracker.get_services() \
            if self._attached else []

    # ==================================================================
    # the constraint-resolution engine
    # ==================================================================
    def _reconfigure(self, dirty=None, full=None):
        """Drive the configuration to a fixpoint.

        ``dirty`` is the set of component names the triggering event
        touched; ``None`` (or ``full=True``, or ``incremental=False``)
        means a full sweep of the global view.  Each pass (1)
        revalidates admitted components against the resolving services,
        deactivating any that lost their admission, then (2) tries to
        activate unsatisfied components -- but an incremental pass only
        visits the dirty components, and the changes it makes seed the
        next pass's dirty set (activation dirties waiting consumers;
        departure dirties dependents and budget-starved peers).
        Re-entrant triggers (events raised during a pass) and open
        :meth:`batch` contexts fold into the running/pending round.
        """
        if full is None:
            full = dirty is None
        if not self.incremental:
            full = True
        if full:
            self._pending_full = True
        elif dirty:
            self._pending_dirty.update(dirty)
        if self._reconfiguring or self._batch_depth:
            # Event raised mid-pass or inside a batch: the running
            # fixpoint, or the round the batch's exit runs, takes it.
            return
        self._reconfiguring = True
        self.reconfigurations += 1
        self._m_reconfigurations.inc()
        if self._retry_failed:
            self._pending_dirty.update(self._retry_failed)
            self._retry_failed.clear()
        # A dependency chain re-activates one level per pass, so the
        # cap grows with the registry; an oscillating resolver still
        # hits it.
        max_passes = _MAX_RECONFIGURE_PASSES + len(self.registry)
        try:
            for _ in range(max_passes):
                full_pass = self._pending_full
                work = self._pending_dirty
                self._pending_full = False
                self._pending_dirty = set()
                if not full_pass and not work:
                    return
                if full_pass:
                    targets = None
                    self._m_full_passes.inc()
                    self._m_dirty_set_size.set(len(self.registry))
                else:
                    targets = work
                    self._m_dirty_set_size.set(len(work))
                    self._m_components_skipped.inc(
                        max(0, len(self.registry) - len(work)))
                self._m_passes.inc()
                # One view per pass; the candidate slot is re-pointed
                # per consultation.
                view = GlobalView(self.registry, self.kernel, None)
                changed = self._revalidate_pass(view, targets)
                changed = self._activation_pass(view, targets) or changed
                if full_pass and changed:
                    # The classic fixpoint rule: a changed full sweep
                    # re-sweeps until quiescent.
                    self._pending_full = True
            raise LifecycleError(
                "reconfiguration did not converge in %d passes; a "
                "resolving service is oscillating" % max_passes)
        finally:
            self._reconfiguring = False
            self._pending_full = False
            self._pending_dirty = set()
            self._refresh_state_gauges()

    def _refresh_state_gauges(self):
        """Publish the per-state component population (Figure-1 view)
        in a single pass over the state index."""
        counts = self.registry.state_counts()
        for state, gauge in self._state_gauges.items():
            gauge.set(counts[state])

    def _revalidate_pass(self, view, targets=None):
        if targets is None:
            candidates = self.registry.active()
        else:
            candidates = self.registry.select(
                targets, ComponentState.ACTIVE, ComponentState.SUSPENDED)
        changed = False
        for component in candidates:
            if component.state not in (ComponentState.ACTIVE,
                                       ComponentState.SUSPENDED):
                continue  # deactivated by an earlier cascade this pass
            view.candidate = component
            decision = self._consult_revalidate(component, view)
            if not decision:
                self._m_revocations.inc()
                self._deactivate(component, ComponentState.UNSATISFIED,
                                 "admission revoked: %s" % decision.reason)
                self._emit(ComponentEventType.UNSATISFIED, component,
                           decision.reason)
                changed = True
        return changed

    def _activation_pass(self, view, targets=None):
        if targets is None:
            candidates = self.registry.unsatisfied()
        else:
            candidates = self.registry.select(
                targets, ComponentState.UNSATISFIED)
        changed = False
        for component in candidates:
            if component.state is not ComponentState.UNSATISFIED:
                continue
            if self._try_activate(component, view):
                changed = True
        return changed

    def _mark_departure_dirty(self):
        """Seed the dirty set with everything a departure can affect:
        waiting consumers of the departed provider (their status
        refreshes) and every waiting component (the freed budget may
        admit them -- the unsatisfied population is exactly what a full
        sweep's activation pass would visit)."""
        for peer in self.registry.unsatisfied():
            self._pending_dirty.add(peer.name)

    def _mark_activation_dirty(self, component):
        """Seed the dirty set after an activation: the newcomer itself
        (the next pass revalidates it, exactly like a full sweep would)
        and its waiting consumers (its outports may satisfy them)."""
        self._pending_dirty.add(component.name)
        for consumer in self.registry.consumers_of(
                component, states=(ComponentState.UNSATISFIED,)):
            self._pending_dirty.add(consumer.name)

    def _try_activate(self, component, view=None):
        """One admission + activation attempt.  Returns True on
        activation."""
        # -- functional constraints (port wiring) ----------------------
        bindings = self._resolve_ports(component)
        if bindings is None:
            return False
        # -- placement (optional re-pin before admission) ----------------
        if view is None:
            view = GlobalView(self.registry, self.kernel, component)
        view.candidate = component
        self._apply_placement(component, view)
        # -- non-functional constraints (resolving services) ------------
        decision = self._consult_admit(component, view)
        if not decision:
            self._m_rejections.inc()
            # Emit only when the rejection reason changes, so a
            # permanently rejected component does not flood the event
            # log on every reconfiguration pass.
            if component.status_reason != decision.reason:
                component.status_reason = decision.reason
                self._emit(ComponentEventType.ADMISSION_REJECTED,
                           component, decision.reason)
            return False
        # -- activation --------------------------------------------------
        component._transition(self._token, ComponentState.SATISFIED,
                              decision.reason)
        self._emit(ComponentEventType.SATISFIED, component,
                   decision.reason)
        component._transition(self._token, ComponentState.ACTIVATING)
        try:
            container = self._container_factory(component, self)
            container.activate(bindings)
        except Exception as error:
            component.container = None
            component.bindings = []
            component._transition(self._token, ComponentState.UNSATISFIED,
                                  "activation failed: %s" % error)
            self._emit(ComponentEventType.UNSATISFIED, component,
                       "activation failed: %s" % error)
            self._retry_failed.add(component.name)
            return False
        component.container = container
        component.bindings = bindings
        self.registry.note_wired(component)
        component._transition(self._token, ComponentState.ACTIVE)
        self._register_management(component)
        self._emit(ComponentEventType.ACTIVATED, component)
        self._mark_activation_dirty(component)
        return True

    def _resolve_ports(self, component):
        """Find an admitted provider for every inport.

        Returns the bindings, or ``None`` (with status_reason set) when
        a dependency is missing.  Deterministic choice: the earliest-
        registered active provider.
        """
        bindings = []
        for inport in component.descriptor.inports:
            providers = self.registry.providers_of(inport)
            if not providers:
                component.status_reason = (
                    "no active provider for inport %s" % inport.name)
                return None
            provider, outport = providers[0]
            bindings.append(PortBinding(
                component.name, inport, provider.name, outport,
                kernel_object=outport.name))
        return bindings

    def _apply_placement(self, component, view):
        """Let the placement service re-pin the candidate's CPU."""
        if self.placement_service is None:
            return
        if is_pinned(component.descriptor):
            return
        cpu = self.placement_service.place(component, view)
        if cpu is None or cpu == component.contract.cpu:
            return
        if cpu < 0 or cpu >= self.kernel.config.num_cpus:
            raise LifecycleError(
                "placement service chose invalid CPU %r for %s"
                % (cpu, component.name))
        self._trace_placement(component, cpu)
        component.contract.cpu = cpu

    def _trace_placement(self, component, cpu):
        self.kernel.sim.trace.record(
            self.kernel.now, "placement", component=component.name,
            cpu=cpu, policy=self.placement_service.name)

    def set_placement_service(self, service):
        """Swap the placement service and reconfigure."""
        self.placement_service = service
        self._reconfigure()

    def _consult_admit(self, component, view):
        try:
            decision = self.internal_policy.admit(component, view)
        except Exception as error:  # noqa: BLE001 -- fail safe
            return self._resolver_failure(self.internal_policy, "admit",
                                          error)
        if not decision:
            self._count_rejection(self.internal_policy)
            return Decision.no("internal %s: %s"
                               % (self.internal_policy.name,
                                  decision.reason))
        for service in self.customized_resolving_services():
            try:
                decision = service.admit(component, view)
            except Exception as error:  # noqa: BLE001 -- fail safe
                return self._resolver_failure(service, "admit", error)
            if not decision:
                self._count_rejection(service)
                return Decision.no("customized %s: %s"
                                   % (service.name, decision.reason))
        self._m_admissions.inc()
        return Decision.yes("admitted")

    def _resolver_failure(self, service, phase, error):
        """A resolving service raised.  Admission **fails safe** (the
        error counts as a veto: an unresponsive resolver must not wave
        components through); revalidation **fails open** (the caller
        keeps already-admitted components admitted: a broken resolver
        must not evict healthy contract holders)."""
        name = str(getattr(service, "name", "anonymous"))
        self._m_resolver_errors.inc()
        if phase == "admit":
            # Attribute the veto (keeps the documented invariant:
            # sum(rejected_by.*) == admission_rejections_total).
            self._count_rejection(service)
        self.kernel.sim.trace.record(
            self.kernel.now, "resolver_error", service=name,
            phase=phase, error=repr(error))
        return Decision.no("resolving service %s failed during %s: %r"
                           % (name, phase, error))

    def _count_rejection(self, service):
        """Attribute one admission veto to the rejecting service."""
        if hasattr(service, "metric_name"):
            label = service.metric_name()
        else:  # duck-typed service objects registered in OSGi
            label = str(getattr(service, "name", "anonymous"))
        self._metrics.counter("rejected_by.%s" % label).inc()

    def _consult_revalidate(self, component, view):
        try:
            decision = self.internal_policy.revalidate(component, view)
        except Exception as error:  # noqa: BLE001 -- fail open
            self._resolver_failure(self.internal_policy, "revalidate",
                                   error)
            decision = Decision.yes("revalidation errored; admission "
                                    "retained")
        if not decision:
            return decision
        for service in self.customized_resolving_services():
            try:
                decision = service.revalidate(component, view)
            except Exception as error:  # noqa: BLE001 -- fail open
                self._resolver_failure(service, "revalidate", error)
                continue
            if not decision:
                return decision
        return Decision.yes("still admitted")

    # ------------------------------------------------------------------
    # deactivation / disposal
    # ------------------------------------------------------------------
    def _deactivate(self, component, target_state, reason):
        """Tear an instantiated component down to ``target_state``,
        cascading to dependents first (they become UNSATISFIED)."""
        if not component.is_instantiated:
            raise LifecycleError(
                "component %s is not instantiated" % component.name)
        for dependent in self.registry.dependents_of(component):
            self._deactivate(dependent, ComponentState.UNSATISFIED,
                             "provider %s departed" % component.name)
            self._emit(ComponentEventType.UNSATISFIED, dependent,
                       "provider %s departed" % component.name)
        component._transition(self._token, ComponentState.DEACTIVATING,
                              reason)
        self._unregister_management(component)
        if component.container is not None:
            try:
                component.container.deactivate()
            except Exception as error:  # noqa: BLE001 -- force teardown
                # A raising container must not wedge the lifecycle in
                # DEACTIVATING: reclaim the kernel resources ourselves
                # so the contract budget is really freed.
                self._m_deactivation_errors.inc()
                self.kernel.sim.trace.record(
                    self.kernel.now, "deactivation_error",
                    component=component.name, error=repr(error))
                self._force_teardown(component)
        self.registry.note_unwired(component)
        component.container = None
        component.bindings = []
        component._transition(self._token, target_state, reason)
        self._emit(ComponentEventType.DEACTIVATED, component, reason)
        # Seed the next incremental pass: the departed component (if it
        # is re-resolvable) is now in the unsatisfied population the
        # marker dirties.
        self._mark_departure_dirty()

    def _force_teardown(self, component):
        """Last-resort reclamation after ``container.deactivate``
        raised: delete the RT task and close the bridge directly so
        nothing keeps occupying the kernel."""
        task_name = component.descriptor.task_name
        if self.kernel.exists(task_name):
            try:
                self.kernel.delete_task(self.kernel.lookup(task_name))
            except Exception:  # noqa: BLE001 -- best effort
                pass
        bridge = getattr(component.container, "bridge", None)
        if bridge is not None:
            try:
                bridge.close()
            except Exception:  # noqa: BLE001 -- best effort
                pass

    def _dispose(self, component, reason):
        if component.state is ComponentState.DISPOSED:
            return
        if component.is_instantiated:
            self._deactivate(component, ComponentState.DISPOSED, reason)
        else:
            component._transition(self._token, ComponentState.DISPOSED,
                                  reason)
        self.registry.remove(component)
        self._retry_failed.discard(component.name)
        self._emit(ComponentEventType.DISPOSED, component, reason)

    # ------------------------------------------------------------------
    # management service plumbing
    # ------------------------------------------------------------------
    def _register_management(self, component):
        service = ComponentManagementService(self, component)
        component.management_registration = \
            self.framework.registry.register(
                MANAGEMENT_SERVICE_INTERFACE, service,
                management_service_properties(component),
                bundle=component.bundle)

    def _unregister_management(self, component):
        registration = component.management_registration
        if registration is not None and not registration.unregistered:
            registration.unregister()
        component.management_registration = None

    def _emit(self, event_type, component, reason=""):
        self._metrics.counter("events_%s_total" % event_type.value).inc()
        self.events.emit(self.kernel.now, event_type, component.name,
                         reason)

    def __repr__(self):
        return "DRCR(%d components, policy=%s)" % (
            len(self.registry), self.internal_policy.name)
