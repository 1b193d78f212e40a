"""DRCR's internal component registry -- the *global view*.

"A general component real-time management interface is designed[;
descriptors] are used to maintain an accurate view of existing real-time
components' promised contracts" (abstract).  The registry indexes every
deployed component by name, by provided/required port signature, and
keeps the per-CPU utilization ledger admission policies read.

Reconfiguration is the steady-state hot path (components arrive and
depart *during operation*, section 1), so every query the DRCR issues
per lifecycle event is index-backed rather than a full scan:

* a **state index** (one bucket per lifecycle state, kept current by
  the :class:`~repro.core.component.DRComComponent` state setter), so
  ``in_state``/``active``/``unsatisfied`` and the per-state telemetry
  gauges cost O(answer), not O(fleet);
* a **port-dependency graph**: provider -> consumer edges at two
  levels -- *declared* edges keyed by port signature (who could bind
  whom: ``providers_of``/``consumers_of``) maintained on
  register/unregister, and *wired* edges for live bindings
  (``dependents_of``) maintained when the DRCR wires/unwires a
  component.  The DRCR's incremental reconfiguration propagates dirty
  sets along exactly these edges;
* a **task-name index** for O(1) duplicate detection and fault
  attribution;
* a **per-CPU utilization ledger**: the exact sum, as a
  :class:`fractions.Fraction`, of the declared ``cpuusage`` claims of
  the ACTIVE and SUSPENDED components on each CPU.  A claim
  ``(cpu, Fraction(cpu_usage))`` is recorded when a component enters
  those states and that same recorded claim is subtracted when it
  leaves them, so the ledger never re-reads a contract.  Exact, not a
  running float sum: a float sum drifts and depends on the order
  components were admitted, while the correctly rounded exact total
  is one value for every order.

``all()`` intentionally stays a plain walk of the name map -- it is the
oracle the property-based index-consistency tests compare every index
against (``tests/property/test_prop_registry_index.py``).
"""

import itertools
from fractions import Fraction

from repro.core.errors import (
    DuplicateComponentError,
    UnknownComponentError,
)
from repro.core.lifecycle import ComponentState

#: Lifecycle states whose components hold an admission (their RT task
#: runs, or is suspended, under contract).
_ADMITTED_STATES = (ComponentState.ACTIVE, ComponentState.SUSPENDED)


class ComponentRegistry:
    """Name-unique registry of :class:`DRComComponent` with state,
    port-graph and task-name indexes plus a contract-utilization
    ledger."""

    def __init__(self):
        self._components = {}
        #: name -> registration sequence number; all index-backed views
        #: return registration order, like the scans they replaced.
        self._order = {}
        self._sequence = itertools.count()
        #: RTAI task name -> component (uniqueness + fault attribution).
        self._task_names = {}
        #: lifecycle state -> {name: component} (insertion = the order
        #: components entered the state; views re-sort by ``_order``).
        self._by_state = {state: {} for state in ComponentState}
        #: outport signature -> [(component, outport)] in registration
        #: (and declared-port) order: the *declared* provider edges.
        self._providers = {}
        #: inport signature -> {name: component}: the *declared*
        #: consumer edges (who would bind a provider of this signature).
        self._consumers = {}
        #: provider name -> {dependent name: component}: the *wired*
        #: edges, maintained by :meth:`note_wired`/:meth:`note_unwired`.
        self._wired = {}
        #: bundle -> {name: component} for O(answer) bundle undeploys.
        self._by_bundle = {}
        #: name -> (cpu, Fraction(cpu_usage)) of each admitted
        #: component, as recorded when it entered ACTIVE/SUSPENDED.
        self._claims = {}
        #: cpu -> exact sum of the claims recorded on it.
        self._ledger = {}

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def add(self, component):
        """Register a component; names are globally unique (paper
        section 2.3).

        The derived six-character RTAI *task* name must be unique too:
        two long component names that truncate to the same task name
        would collide in the kernel at activation, so the collision is
        rejected here, at deployment, with an actionable message.
        """
        if component.name in self._components:
            raise DuplicateComponentError(
                "component name %r already deployed (names are globally "
                "unique)" % component.name)
        task_name = component.descriptor.task_name
        existing = self._task_names.get(task_name)
        if existing is not None:
            raise DuplicateComponentError(
                "component %r derives RTAI task name %r, which "
                "collides with deployed component %r; choose a "
                "name that is distinct in its first characters"
                % (component.name, task_name, existing.name))
        name = component.name
        self._components[name] = component
        self._order[name] = next(self._sequence)
        self._task_names[task_name] = component
        self._by_state[component.state][name] = component
        for outport in component.descriptor.outports:
            self._providers.setdefault(outport.signature(), []).append(
                (component, outport))
        for inport in component.descriptor.inports:
            self._consumers.setdefault(
                inport.signature(), {})[name] = component
        if component.bundle is not None:
            self._by_bundle.setdefault(
                component.bundle, {})[name] = component
        if component.state in _ADMITTED_STATES:
            self._record_claim(component)
        component._registry = self

    def remove(self, component):
        """Forget a component (and every index entry it owns)."""
        name = component.name
        if self._components.pop(name, None) is None:
            return
        component._registry = None
        self._order.pop(name, None)
        self._task_names.pop(component.descriptor.task_name, None)
        for bucket in self._by_state.values():
            bucket.pop(name, None)
        self._release_claim(name)
        for outport in component.descriptor.outports:
            signature = outport.signature()
            entries = self._providers.get(signature)
            if entries is not None:
                entries[:] = [entry for entry in entries
                              if entry[0] is not component]
                if not entries:
                    del self._providers[signature]
        for inport in component.descriptor.inports:
            consumers = self._consumers.get(inport.signature())
            if consumers is not None:
                consumers.pop(name, None)
                if not consumers:
                    del self._consumers[inport.signature()]
        self._wired.pop(name, None)
        for dependents in self._wired.values():
            dependents.pop(name, None)
        if component.bundle is not None:
            members = self._by_bundle.get(component.bundle)
            if members is not None:
                members.pop(name, None)
                if not members:
                    del self._by_bundle[component.bundle]

    def get(self, name):
        """Find a component by name (raises on miss)."""
        try:
            return self._components[name]
        except KeyError:
            raise UnknownComponentError("no component named %r"
                                        % (name,)) from None

    def maybe_get(self, name):
        """Find a component by name (None on miss)."""
        return self._components.get(name)

    def by_task_name(self, task_name):
        """Find a component by its derived RTAI task name (None on
        miss)."""
        return self._task_names.get(task_name)

    def __contains__(self, name):
        return name in self._components

    def __len__(self):
        return len(self._components)

    def all(self):
        """All deployed components, in registration order."""
        return list(self._components.values())

    def _ordered(self, components):
        """Sort a component collection into registration order."""
        return sorted(components, key=lambda c: self._order[c.name])

    # ------------------------------------------------------------------
    # state index
    # ------------------------------------------------------------------
    def _state_changed(self, component, old_state, new_state):
        """Re-bucket one component (called by the component's state
        setter, so even test shortcuts that assign ``state`` directly
        keep the index consistent)."""
        name = component.name
        bucket = self._by_state[old_state]
        if bucket.pop(name, None) is not None:
            self._by_state[new_state][name] = component
            if new_state in _ADMITTED_STATES:
                if name not in self._claims:
                    self._record_claim(component)
            elif name in self._claims:
                self._release_claim(name)

    def in_state(self, *states):
        """Components currently in any of ``states``, in registration
        order."""
        if len(states) == 1:
            members = list(self._by_state[states[0]].values())
        else:
            members = [component
                       for state in states
                       for component in self._by_state[state].values()]
        return self._ordered(members)

    def state_counts(self):
        """``{state: live population}`` in one O(#states) pass."""
        return {state: len(bucket)
                for state, bucket in self._by_state.items()}

    def select(self, names, *states):
        """The subset of ``names`` currently deployed and in
        ``states``, in registration order (the DRCR's dirty-set
        materializer)."""
        members = []
        for name in names:
            component = self._components.get(name)
            if component is not None and component.state in states:
                members.append(component)
        return self._ordered(members)

    def active(self):
        """Components whose RT task runs under contract (ACTIVE or
        SUSPENDED -- a suspended task retains its admission)."""
        return self.in_state(*_ADMITTED_STATES)

    def unsatisfied(self):
        """Components waiting on constraints."""
        return self.in_state(ComponentState.UNSATISFIED)

    def of_bundle(self, bundle):
        """Components deployed from one bundle, in registration order."""
        members = self._by_bundle.get(bundle)
        if not members:
            return []
        return self._ordered(members.values())

    # ------------------------------------------------------------------
    # the port-dependency graph
    # ------------------------------------------------------------------
    def providers_of(self, inport, states=None):
        """Components offering an outport compatible with ``inport``.

        ``states`` restricts the provider's lifecycle state (default:
        the instantiated/admitted set -- ACTIVE and SUSPENDED).
        Registration order is preserved, so the DRCR's deterministic
        "earliest-registered active provider" choice is unchanged.
        """
        if states is None:
            states = _ADMITTED_STATES
        entries = self._providers.get(inport.signature(), ())
        return [(component, outport) for component, outport in entries
                if component.state in states]

    def consumers_of(self, provider, states=None):
        """Components declaring an inport compatible with any of
        ``provider``'s outports -- the *declared* provider -> consumer
        edges the incremental reconfiguration propagates along.

        ``states`` restricts the consumer's lifecycle state (default:
        no restriction).  Registration order.
        """
        matches = {}
        for outport in provider.descriptor.outports:
            consumers = self._consumers.get(outport.signature())
            if not consumers:
                continue
            for name, component in consumers.items():
                if component is provider:
                    continue
                if states is not None and component.state not in states:
                    continue
                matches[name] = component
        return self._ordered(matches.values())

    def note_wired(self, component):
        """Record the *wired* edges of a freshly activated component
        (one edge per bound provider)."""
        for provider_name in component.bound_providers():
            self._wired.setdefault(
                provider_name, {})[component.name] = component

    def note_unwired(self, component):
        """Drop the wired edges of a component about to lose its
        bindings."""
        for provider_name in component.bound_providers():
            dependents = self._wired.get(provider_name)
            if dependents is not None:
                dependents.pop(component.name, None)
                if not dependents:
                    del self._wired[provider_name]

    def dependents_of(self, provider):
        """Active/suspended components bound to ``provider``'s
        outports (wired edges), in registration order."""
        dependents = self._wired.get(provider.name)
        if not dependents:
            return []
        return self._ordered(
            component for component in dependents.values()
            if component.state in _ADMITTED_STATES)

    # ------------------------------------------------------------------
    # utilization ledger
    # ------------------------------------------------------------------
    def _record_claim(self, component):
        """Add an entering component's claim to its CPU's total."""
        contract = component.contract
        cpu = contract.cpu
        claim = Fraction(contract.cpu_usage)
        self._claims[component.name] = (cpu, claim)
        self._ledger[cpu] = self._ledger.get(cpu, 0) + claim

    def _release_claim(self, name):
        """Subtract the claim recorded for ``name``, if any."""
        entry = self._claims.pop(name, None)
        if entry is not None:
            cpu, claim = entry
            self._ledger[cpu] -= claim

    def declared_utilization(self, cpu, extra=None):
        """Sum of declared ``cpuusage`` of admitted components on a CPU.

        ``extra`` (a contract) is added on top -- the admission check's
        "what if we admit this one too" view.  The result is the exact
        sum correctly rounded to a float, whatever order the claims
        were admitted in.
        """
        total = self._ledger.get(cpu, 0)
        if extra is not None and extra.cpu == cpu:
            total += Fraction(extra.cpu_usage)
        return float(total)

    def admitted_contracts(self, cpu=None):
        """Contracts of admitted components (optionally one CPU)."""
        return [
            component.contract for component in self.active()
            if cpu is None or component.contract.cpu == cpu
        ]
