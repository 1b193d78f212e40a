"""One federation member: a full DRCom platform behind a network name.

A :class:`ClusterNode` is a :class:`~repro.platform.Platform`: it owns
the same stack :func:`repro.platform.build_platform` assembles -- an
:class:`~repro.rtos.kernel.RTKernel`, an OSGi
:class:`~repro.osgi.framework.Framework` and a
:class:`~repro.core.drcr.DRCR` -- but on a *shared* simulator, so any
number of nodes advance in lock-step on one timeline (``run_for``
advances them all).  Being a platform is what lets the fault engine
(:mod:`repro.faults`) arm its per-platform injectors against a single
node unchanged.

Remote operations follow the paper's §2.4 shape, lifted one level: the
node registers a :class:`NodeManagementService` in its *own* OSGi
service registry, and every remote per-component operation is routed
through the component's registered
:class:`~repro.core.management.ComponentManagementService`, located
with an LDAP filter on ``drcom.name`` -- exactly how a local §2.4
client would find it.  The transport handler is a thin parser that
ends in those service calls.

Every landing is one ``deploy`` message answered by one
``deploy_ack``: a deploy from the coordinator, or a migration's
hand-off from the source node, whose ``migration_id`` the ack echoes.
An ``undeploy`` is not answered.

Replication is one message the node sends unasked: on each membership
tick :meth:`ClusterNode.push_export` ships the node's export to the
coordinator in a ``snapshot_push`` when it differs from the one last
sent, or when the membership rotation forces it.  The coordinator
reconciles its home map, catalog and application record with it;
failover restores a dead node's components from that record.
"""

from repro.core.drcr import DRCR
from repro.core.management import MANAGEMENT_SERVICE_INTERFACE
from repro.core.placement import BestFitPlacement
from repro.core.snapshot import (
    PendingPropertyStash,
    export_component_entry,
    restore_entries,
)
from repro.osgi.framework import Framework
from repro.platform import Platform
from repro.rtos.kernel import KernelConfig, RTKernel

#: OSGi service interface the node management service registers under.
NODE_MANAGEMENT_INTERFACE = "drcom.cluster.NodeManagement"

#: The §2.4 operations a remote ``mgmt`` message may invoke.
MANAGEMENT_OPS = frozenset(
    ("suspend", "resume", "get_property", "set_property", "get_status"))


class NodeManagementService:
    """Node-scope management: deploy/undeploy entries, route §2.4 ops.

    Registered in the node's own service registry (under
    :data:`NODE_MANAGEMENT_INTERFACE`), so local bundles and the remote
    deployment protocol share one entry point.  :meth:`deploy_entries`
    is the one way the cluster lands components on the node: remote
    deploys, migration hand-offs (both ``deploy`` messages) and
    failover re-homing all call it.
    """

    def __init__(self, node):
        self._node = node

    def deploy_entries(self, entries, application=None):
        """Deploy snapshot entries in one coalesced round
        (:func:`repro.core.snapshot.restore_entries`, which re-decides
        admission) and return its report.  A wired application arrives
        whole, so its ports resolve here; ``application`` records the
        entries as its members."""
        node = self._node
        report = restore_entries(node.drcr, entries, stash=node.stash)
        if application:
            node.drcr.define_application(
                application, [entry["name"] for entry in entries])
        return report

    def undeploy(self, name):
        """Remove one component; returns ``"undeployed"`` or
        ``"absent"``."""
        drcr = self._node.drcr
        if name not in drcr.registry:
            return "absent"
        self._node.stash.discard(name)
        drcr.unregister_component(name)
        return "undeployed"

    def undeploy_all(self):
        """Remove every managed component (fencing); returns the
        undeployed names."""
        drcr = self._node.drcr
        names = [component.name for component in drcr.registry.all()]
        with drcr.batch():
            for name in names:
                self._node.stash.discard(name)
                drcr.unregister_component(name)
        return names

    def component_management(self, name):
        """Locate a component's §2.4 management service through the
        OSGi registry (LDAP filter on ``drcom.name``)."""
        registry = self._node.framework.registry
        reference = registry.get_reference(
            MANAGEMENT_SERVICE_INTERFACE, "(drcom.name=%s)" % name)
        if reference is None:
            raise LookupError("no management service for %r on %s"
                              % (name, self._node.name))
        return registry.get_service(reference)

    def manage(self, name, op, *args):
        """Invoke one §2.4 operation on a component's management
        service."""
        if op not in MANAGEMENT_OPS:
            raise ValueError("unknown management op %r" % (op,))
        return getattr(self.component_management(name), op)(*args)

    def get_status(self):
        """Node status: liveness plus the component state map."""
        drcr = self._node.drcr
        return {
            "node": self._node.name,
            "alive": self._node.alive,
            "components": {component.name: component.state.value
                           for component in drcr.registry.all()},
        }

    def __repr__(self):
        return "NodeManagementService(%s)" % self._node.name


class ClusterNode(Platform):
    """A federation member: kernel + framework + DRCR on a shared sim."""

    def __init__(self, name, sim, transport, kernel_config=None):
        kernel = RTKernel(sim, kernel_config or KernelConfig())
        framework = Framework(telemetry=sim.telemetry)
        drcr = DRCR(framework, kernel)
        super().__init__(sim, kernel, framework, drcr)
        drcr.attach()
        self.name = name
        self.transport = transport
        # Node-local CPU choice; the cluster layer picks the node.
        self.drcr.set_placement_service(BestFitPlacement())
        self.stash = PendingPropertyStash(self.drcr)
        self.management = NodeManagementService(self)
        self.framework.registry.register(
            NODE_MANAGEMENT_INTERFACE, self.management,
            properties={"drcom.node": name})
        self.membership = None  # wired by the Cluster
        self.alive = True
        self._pushed = None  # the export last sent to the coordinator
        transport.register(name, self.handle_message)

    # ------------------------------------------------------------------
    # state export / liveness
    # ------------------------------------------------------------------
    def export(self):
        """This node's replicated state: the snapshot entry of every
        component it manages (live properties included) plus the
        application groupings."""
        return {
            "components": [export_component_entry(component)
                           for component in self.drcr.registry.all()],
            "applications": self.drcr.applications(),
        }

    def push_export(self, coordinator, force=False):
        """Send ``coordinator`` one ``snapshot_push`` when the export
        differs from the one last sent, or always with ``force``.

        The membership tick calls this for every live node, forcing the
        one its rotation picks: a push the loss gate or a partition
        ate is resent within one rotation.  The export is rebuilt and
        compared whole on every call, because live properties move with
        nearly every job; the descriptor XML inside it is rendered once
        per descriptor
        (:meth:`~repro.core.descriptor.ComponentDescriptor.to_xml`)."""
        export = self.export()
        if force or export != self._pushed:
            self._pushed = export
            self.transport.send(self.name, coordinator, "snapshot_push",
                                {"node": self.name, "snapshot": export})

    def crash(self):
        """Fail-stop the node: off the wire, stack torn down.

        Survivors only learn of this through missed heartbeats -- the
        transport drops undelivered messages, it does not notify."""
        if not self.alive:
            return
        self.alive = False
        self.transport.unregister(self.name)
        self.kernel.stop_timer()
        self.drcr.detach()
        self.framework.shutdown()

    # ------------------------------------------------------------------
    # the remote protocol
    # ------------------------------------------------------------------
    def handle_message(self, message):
        """Dispatch one delivered transport message."""
        if not self.alive:
            return
        kind = message.kind
        payload = message.payload
        reply_to = payload.get("reply_to", message.src)
        if kind in ("probe", "probe_ack", "ping_req", "ping",
                    "ping_ack"):
            if self.membership is not None:
                self.membership.on_wire(self.name, message)
        elif kind == "deploy":
            report = self.management.deploy_entries(
                payload["entries"], payload.get("application"))
            self.transport.send(self.name, reply_to, "deploy_ack", {
                "node": self.name,
                "report": report,
                "migration_id": payload.get("migration_id"),
            })
        elif kind == "undeploy":
            self.management.undeploy(payload["name"])
        elif kind == "migrate_out":
            self._handle_migrate_out(payload, reply_to)
        elif kind == "mgmt":
            self._handle_mgmt(payload, reply_to)
        elif kind == "fence":
            names = self.management.undeploy_all()
            self.transport.send(self.name, reply_to, "fence_ack", {
                "node": self.name,
                "undeployed": names,
            })

    def _handle_migrate_out(self, payload, reply_to):
        """Source side of a migration: export, hand off, withdraw.

        The entry is exported *before* the local undeploy (the live
        properties must survive the teardown), copied to the
        coordinator as its retry ledger (``migrate_begun``; no entry
        when this node does not host the component), and sent to the
        target as one ``deploy``."""
        name = payload["name"]
        migration_id = payload["migration_id"]
        component = self.drcr.registry.maybe_get(name)
        entry = None if component is None \
            else export_component_entry(component)
        self.transport.send(self.name, reply_to, "migrate_begun", {
            "migration_id": migration_id,
            "entry": entry,
        })
        if entry is None:
            return
        self.management.undeploy(name)
        self.transport.send(self.name, payload["dst"], "deploy", {
            "entries": [entry],
            "migration_id": migration_id,
            "reply_to": reply_to,
        })

    def _handle_mgmt(self, payload, reply_to):
        """Remote §2.4 operation: parse, route through the registered
        management service, reply with result or error.  An error for
        a component this node does not host carries ``moved: True``,
        so the coordinator can re-send the request to its new home."""
        name = payload["component"]
        request_id = payload.get("request_id")
        try:
            result = self.management.manage(
                name, payload["op"], *payload.get("args", ()))
            reply = {"request_id": request_id, "node": self.name,
                     "ok": True, "result": result}
        except Exception as error:
            reply = {"request_id": request_id, "node": self.name,
                     "ok": False, "error": str(error),
                     "moved": name not in self.drcr.registry}
        self.transport.send(self.name, reply_to, "mgmt_reply", reply)

    def __repr__(self):
        return "ClusterNode(%s, %s, %d components)" % (
            self.name, "alive" if self.alive else "down",
            len(self.drcr.registry))
