"""DRCR state snapshot and warm restore.

The paper positions the framework for "downtime-free systems" (its
critique of Hartig & Zschaler's design is precisely that it has "no
formal design for how to deal with the dynamicity of component's
availability").  A production runtime also needs the complementary
capability: surviving a *framework* restart without losing the managed
configuration.  This module exports the DRCR's global view to plain
data (descriptor XML + lifecycle intent + live properties) and restores
it onto a fresh platform.  The same entry format is the unit of
transfer for cross-node component migration and failover
(:mod:`repro.cluster`).

Restore semantics:

* components re-register from their descriptor XML;
* components that were DISABLED stay disabled; SUSPENDED components
  are re-activated and then re-suspended (their admission is retained,
  like before the restart);
* live property values (which may have drifted from descriptor
  defaults via set_property) are re-applied **through the management
  path** (``container.set_property``), so the §3.2 command protocol
  and the implementation's ``on_command`` reconfiguration hook fire
  exactly as they would for an operator write -- the values land at
  the RT task's next command poll, not by mutating the property store
  behind its back;
* a component that is not ACTIVE after the restore pass (e.g. its
  provider arrives later) keeps its saved properties *stashed*: the
  moment the DRCR admits it, the stash applies them, so a
  late-resolving component comes back with its drifted values instead
  of descriptor defaults;
* admission is *re-decided* by the current policies -- a snapshot is
  a statement of intent, not a bypass of the resolving services.

Usage::

    from repro.core.snapshot import export_state, restore_state

    data = export_state(platform.drcr)       # plain dicts/lists/strs
    json.dump(data, open("state.json", "w")) # safe to persist/ship

    fresh = build_platform(seed=1)
    fresh.start_timer(1_000_000)
    report = restore_state(fresh.drcr, data)
    report["restored"]                       # re-admitted and active
    report["unsatisfied"]                    # intent the current
                                             # policies refused

The restore *report* is the interesting part: because admission is
re-decided, a snapshot taken on a 2-CPU platform may only partially
restore onto a 1-CPU one -- the report says exactly which components
made it (``restored``/``suspended``/``disabled``) and which did not
(``unsatisfied``, plus ``skipped`` for name collisions; ``deferred``
lists the unsatisfied components whose saved properties are stashed
for late admission).  ``SNAPSHOT_VERSION`` guards the format;
incompatible payloads are rejected, not guessed at.
"""

from repro.core.descriptor import ComponentDescriptor
from repro.core.events import ComponentEventType
from repro.core.lifecycle import ComponentState

#: Snapshot format version (bump on incompatible changes).
SNAPSHOT_VERSION = 1


def export_component_entry(component):
    """Export one managed component to a plain dict.

    The entry is the unit both :func:`export_state` and cross-node
    migration (:meth:`repro.cluster.Cluster.migrate`) ship around:
    descriptor XML, lifecycle intent, and the live property values.
    """
    entry = {
        "name": component.name,
        "descriptor_xml": component.descriptor.to_xml(),
        "state": component.state.value,
        "bundle": (component.bundle.symbolic_name
                   if component.bundle else None),
    }
    if component.container is not None:
        entry["properties"] = dict(component.container.ctx.properties)
    return entry


def export_state(drcr):
    """Export the DRCR's managed configuration to a plain dict."""
    return {
        "version": SNAPSHOT_VERSION,
        "time_ns": drcr.kernel.now,
        "policy": drcr.internal_policy.name,
        "components": [export_component_entry(component)
                       for component in drcr.registry.all()],
        "applications": drcr.applications(),
    }


def apply_live_properties(component, properties):
    """Apply saved property values through the management path.

    Routes every write through ``container.set_property`` (never the
    raw property store), so the asynchronous §3.2 command protocol and
    the implementation's ``on_command`` reconfiguration hook observe
    the restore exactly like an operator reconfiguration; the values
    become visible at the RT task's next command poll.
    """
    container = component.container
    for name, value in properties.items():
        container.set_property(name, value)


class PendingPropertyStash:
    """Saved properties waiting for their component's late admission.

    ``restore_state`` applies properties immediately for components
    the restore round admits, but a snapshot may contain components
    that only resolve later -- a consumer whose provider arrives in a
    future deployment, or a component the target's budget can only
    admit once something departs.  The stash subscribes to the DRCR's
    component-event log and applies the saved values through
    :func:`apply_live_properties` the moment the component is
    ACTIVATED, then forgets it; once empty it unsubscribes itself.
    """

    def __init__(self, drcr):
        self._drcr = drcr
        self._pending = {}
        self._subscribed = False

    def stash(self, name, properties):
        """Remember ``properties`` until ``name`` is next activated."""
        if not properties:
            return
        self._pending[name] = dict(properties)
        if not self._subscribed:
            self._drcr.events.listeners.add(self._on_event)
            self._subscribed = True

    def pending(self):
        """Names still waiting for admission, sorted."""
        return sorted(self._pending)

    def discard(self, name):
        """Forget one stashed component (e.g. it migrated away)."""
        self._pending.pop(name, None)
        self._maybe_unsubscribe()

    def _on_event(self, event):
        if event.event_type is not ComponentEventType.ACTIVATED:
            return
        properties = self._pending.pop(event.component, None)
        if properties is not None:
            component = self._drcr.registry.maybe_get(event.component)
            if component is not None \
                    and component.container is not None:
                apply_live_properties(component, properties)
        self._maybe_unsubscribe()

    def _maybe_unsubscribe(self):
        if self._subscribed and not self._pending:
            self._drcr.events.listeners.remove(self._on_event)
            self._subscribed = False

    def __repr__(self):
        return "PendingPropertyStash(%d pending)" % len(self._pending)


def _apply_entry_intent(drcr, component, entry, stash):
    """Second restore phase for one registered component: lifecycle
    intent plus live properties (immediately, or stashed)."""
    saved_state = entry["state"]
    if saved_state == ComponentState.DISABLED.value:
        if component.state is not ComponentState.DISABLED:
            drcr.disable_component(component.name)
        return "disabled"
    properties = entry.get("properties")
    if component.state is ComponentState.ACTIVE:
        if properties:
            apply_live_properties(component, properties)
        if saved_state == ComponentState.SUSPENDED.value:
            drcr.suspend_component(component.name)
            return "suspended"
        return "restored"
    if stash is not None:
        stash.stash(component.name, properties)
    return "unsatisfied"


def restore_entries(drcr, entries, stash=None):
    """Re-deploy a batch of exported entries in one coalesced round.

    The one path exported entries take onto a DRCR: a singleton is a
    one-entry batch, cluster deploys, migrations and failover arrive
    through :meth:`repro.cluster.node.NodeManagementService
    .deploy_entries`, and :func:`restore_state` drives it for whole
    snapshots.  Registration happens inside a single ``drcr.batch()``
    (dependency chains resolve regardless of entry order); lifecycle
    intent and live properties apply in a second pass once the whole
    group has had its chance to resolve, and ``stash`` (a
    :class:`PendingPropertyStash`) keeps the saved properties of each
    component not admitted yet.  Returns the report: each name in one
    outcome bucket (``restored``, ``suspended``, ``disabled``,
    ``unsatisfied``, or ``skipped`` when already registered).
    """
    report = {"restored": [], "unsatisfied": [], "skipped": [],
              "disabled": [], "suspended": []}
    fresh = {}
    for entry in entries:
        name = entry["name"]
        if name in drcr.registry or name in fresh:
            report["skipped"].append(name)
        else:
            fresh[name] = entry
    deferred = []
    if fresh:  # registering nothing runs no round
        with drcr.batch():
            for entry in fresh.values():
                descriptor = ComponentDescriptor.from_xml(
                    entry["descriptor_xml"])
                deferred.append(
                    (drcr.register_component(descriptor), entry))
    for component, entry in deferred:
        outcome = _apply_entry_intent(drcr, component, entry, stash)
        report[outcome].append(component.name)
    return report


def restore_state(drcr, state):
    """Re-deploy a snapshot onto (a possibly fresh) DRCR.

    Returns a report dict: which components were restored, which were
    not admitted under the current policies (``unsatisfied``; those
    with saved properties are also listed ``deferred`` -- their values
    apply automatically on late admission), and which names already
    existed (``skipped``).
    """
    if state.get("version") != SNAPSHOT_VERSION:
        raise ValueError("unsupported snapshot version: %r"
                         % (state.get("version"),))
    stash = PendingPropertyStash(drcr)
    report = restore_entries(drcr, state["components"], stash=stash)
    report["deferred"] = stash.pending()
    # Application groupings are remembered as intent, through the
    # public API (the same one cluster failover uses).
    for app_name, members in state.get("applications", {}).items():
        drcr.define_application(app_name, members)
    return report
