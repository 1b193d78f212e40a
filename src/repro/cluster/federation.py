"""The cluster: multi-node DRCR federation on one simulator.

:class:`Cluster` assembles N :class:`~repro.cluster.node.ClusterNode`
platforms on a shared :class:`~repro.sim.engine.Simulator`, wires them
through a :class:`~repro.cluster.transport.MessageTransport`, starts
the SWIM-style :class:`~repro.cluster.membership.MembershipService`,
and acts as the management plane: it owns the one record of
ownership -- the home map (component -> node), the descriptor catalog
and each node's application groupings -- and reconciles it with the
exports the nodes push to it (one ``snapshot_push`` when a node's
export changes, plus one forced push per tick from a rotating node,
which recovers a lost push -- full snapshots never ride the n²
heartbeat mesh).

The coordinator is itself a transport endpoint (``control``): every
deployment (one ``deploy`` message, one component or a whole
application), migration and §2.4 management call it issues is a
message subject to the same link model as node-to-node traffic, and
the replies (`deploy_ack`, `migrate_begun`, `mgmt_reply`, ...) come
back the same way; a §2.4 request that reaches a node the component has
just left follows it to its new home.  It is intentionally a
*centralised* management plane -- the paper's runtime has exactly one
management interface per platform, and this lifts that shape to fleet
scope without inventing a consensus protocol the paper does not have.

Migration (snapshot-based, at-most-once wire + coordinator retries):

1. coordinator -> source: ``migrate_out`` (name, target, id);
2. source exports the entry (:func:`repro.core.snapshot
   .export_component_entry` -- live properties included), copies it to
   the coordinator (``migrate_begun``, the retry ledger; no entry when
   it does not host the component), undeploys locally, and sends the
   target one ``deploy``: the entry plus the ``migration_id``;
3. target lands it like any deploy (admission is *re-decided*; saved
   properties stash for late admission); its ``deploy_ack`` echoes
   the ``migration_id``;
4. the coordinator measures initiation-to-ack latency; a missing ack
   re-sends that ``deploy`` from the ledger under a
   :class:`~repro.faults.recovery.BackoffPolicy`, re-choosing the
   target when the original died; a migration that moved nothing
   gives up through one path, which places a homeless component
   locally so it is never lost.

Failover: when membership declares a node dead, exactly the
components the home map places on it -- but one an unfinished
migration holds -- are re-planned from the catalog in name order (the
order DRT602 replays) across the survivors by the
:class:`~repro.cluster.placement.ClusterPlacementService` and
re-deployed **in one ``drcr.batch()`` round per target** through the
target's ``deploy_entries`` -- the one landing path deploys and
migrations also take -- so each survivor runs a single coalesced
reconfiguration.  Wired applications move whole, grouped by the
node's application record, and are re-declared through the public
:meth:`~repro.core.drcr.DRCR.define_application`.
"""

import itertools
from operator import itemgetter

from repro.cluster.membership import MembershipService
from repro.cluster.node import ClusterNode
from repro.cluster.placement import ClusterPlacementService
from repro.cluster.transport import MessageTransport
from repro.core.descriptor import ComponentDescriptor
from repro.core.lifecycle import ComponentState
from repro.core.placement import claim_of, co_location_groups
from repro.faults.recovery import BackoffPolicy
from repro.lint.diagnostics import Severity
from repro.rtos.kernel import KernelConfig
from repro.sim.engine import MSEC, Simulator

#: Migration initiation-to-ack latency buckets (ns).
MIGRATION_LATENCY_BOUNDS_NS = (
    1_000_000, 2_000_000, 5_000_000, 10_000_000, 20_000_000,
    50_000_000, 100_000_000, 500_000_000,
)

#: Crash-to-declaration detection latency buckets (ns).
FAILOVER_DETECT_BOUNDS_NS = (
    5_000_000, 10_000_000, 20_000_000, 50_000_000, 100_000_000,
    200_000_000, 500_000_000, 1_000_000_000,
)

#: Entry outcomes that mean "the target now owns the component".
_PLACED_OUTCOMES = frozenset(
    ("restored", "suspended", "disabled", "unsatisfied"))


def _usage(entry):
    """Declared CPU claim (:func:`~repro.core.placement.claim_of`) of
    one catalog or snapshot entry, read through the lint memo, so each
    distinct text is parsed once."""
    # Lazy, as in PlanGuard._lint: the repro.lint package imports its
    # engine, which transitively imports this package.
    from repro.lint.memo import descriptor_facts
    text = entry["descriptor_xml"]
    facts = descriptor_facts(text)
    if facts.descriptor is None:  # raise the parse error from_xml raises
        ComponentDescriptor.from_xml(text)
    return facts.claim


def _placed(report):
    """Names a restore report left owned by the node that ran it."""
    return [name for outcome in _PLACED_OUTCOMES
            for name in report[outcome]]


class ClusterError(Exception):
    """A cluster-level operation could not be carried out."""


class PlanGuard:
    """Pre-deploy gate: lint the fleet's would-be plan first.

    The fleet-scope mirror of
    :class:`~repro.lint.resolver.LintResolvingService`'s differential
    blame: the candidate plan (the current :meth:`Cluster.export_plan`
    baseline plus the requested deployment) is linted, and the
    deployment is vetoed only for findings at or above ``fail_on``
    that the baseline does not already carry -- pre-existing fleet
    debt never blocks unrelated work.  Unlike the resolver, findings
    are fingerprinted by ``(code, component, location)`` without the
    message: plan messages quote fleet-wide load numbers that
    legitimately drift when anything deploys, and a drifted number is
    not a new defect.  The location names the node
    (``<plan-guard>#node1[0]``), so a CPU over-committed on one node
    (DRT301 and DRT303 name no component) never hides a new one on
    another; a finding keeps its location from baseline to candidate,
    because the candidate's descriptors follow the node's own.

    One lint per deploy: the candidate runs the node-local checks
    (:mod:`repro.lint.deployment` lists them) for the target node only,
    since every other node's node-local findings are the baseline's
    own and can never be new; the fleet-wide checks see the whole
    candidate.  The baseline is linted, in full, only when the
    candidate has a finding at or above ``fail_on``.
    Failover re-homing is mandatory and is never blocked;
    :meth:`note_failover` runs an advisory full lint of the
    post-failover plan and records what it finds.

    Telemetry lands in the ``lint`` registry:
    ``plan_checks_total``, ``plan_rejections_total``,
    ``plan_failover_checks_total`` and one ``plan_code.<code>``
    counter per reported code (``docs/OBSERVABILITY.md``).
    """

    def __init__(self, cluster, fail_on=Severity.ERROR,
                 families=None):
        self.cluster = cluster
        self.fail_on = Severity.parse(fail_on) \
            if isinstance(fail_on, str) else fail_on
        self.families = tuple(families) if families else None
        metrics = cluster.sim.telemetry.registry("lint")
        self._metrics = metrics
        self._m_checks = metrics.counter("plan_checks_total")
        self._m_rejections = metrics.counter("plan_rejections_total")
        self._m_failover_checks = metrics.counter(
            "plan_failover_checks_total")

    def _lint(self, document, nodes=None):
        # Lazy: repro.lint.engine transitively imports this package.
        from repro.lint.engine import lint_plan
        return lint_plan(document, location="<plan-guard>",
                         families=self.families, nodes=nodes)

    @staticmethod
    def _fingerprint(diagnostic):
        return diagnostic.code, diagnostic.component, diagnostic.location

    def check_deploy(self, descriptor_xmls, node, application=None,
                     members=None):
        """New findings a deployment would introduce.

        Builds the candidate plan (the live fleet's exported plan plus
        ``descriptor_xmls`` homed on ``node``, and the application
        grouping when given), lints it with the node-local checks on
        ``node`` only, and returns its findings at or above
        ``fail_on`` that the baseline does not already carry; the
        baseline is linted only when there is such a finding.  Empty
        list = the deployment may proceed."""
        self._m_checks.inc()
        plan = self.cluster.export_plan()
        # One export serves both plans: the candidate copies only what
        # it changes (the target node's component list, the
        # deployments list holding it and the applications map).
        candidate = dict(plan, deployments=list(plan["deployments"]),
                         applications=dict(plan["applications"]))
        deployments = candidate["deployments"]
        for index, deployment in enumerate(deployments):
            if deployment["node"] == node:
                target = dict(deployment,
                              components=list(deployment["components"]))
                deployments[index] = target
                break
        else:
            target = {"node": node, "components": []}
            deployments.append(target)
        target["components"].extend(
            {"xml": xml} for xml in descriptor_xmls)
        if application is not None and members is not None:
            candidate["applications"][application] = list(members)
        blocking = self._lint(candidate, nodes=(node,)).at_or_above(
            self.fail_on)
        if not blocking:
            return []
        known = {self._fingerprint(diagnostic)
                 for diagnostic in self._lint(plan).diagnostics}
        new = [diagnostic for diagnostic in blocking
               if self._fingerprint(diagnostic) not in known]
        if new:
            self._m_rejections.inc()
            for diagnostic in new:
                self._metrics.counter(
                    "plan_code.%s" % diagnostic.code).inc()
        return new

    def note_failover(self, dead_node):
        """Advisory lint after failover re-homed ``dead_node``.

        Failover is never vetoed -- the components are already
        homeless -- but the resulting fleet shape is linted so the
        telemetry (and the returned findings) say whether the fleet
        is still one crash away from stranding work."""
        self._m_failover_checks.inc()
        result = self._lint(self.cluster.export_plan())
        findings = result.at_or_above(self.fail_on)
        for diagnostic in findings:
            self._metrics.counter(
                "plan_code.%s" % diagnostic.code).inc()
        return findings


class _Migration:
    """Coordinator-side state of one in-flight migration."""

    __slots__ = ("id", "name", "src", "dst", "entry", "initiated_ns",
                 "completed_ns", "attempts", "done", "outcome", "held")

    def __init__(self, migration_id, name, src, dst, initiated_ns):
        self.id = migration_id
        self.name = name
        self.src = src
        self.dst = dst
        self.entry = None       # filled by migrate_begun (the ledger)
        self.initiated_ns = initiated_ns
        self.completed_ns = None
        self.attempts = 0
        self.done = False
        self.outcome = None
        self.held = []          # "moved" mgmt replies from src


class Cluster:
    """N federated DRCR platforms plus their management plane."""

    #: The coordinator's transport endpoint name.
    coordinator_name = "control"

    def __init__(self, node_names=("node0", "node1", "node2"), seed=0,
                 kernel_config_factory=KernelConfig, link=None,
                 heartbeat_interval_ns=10 * MSEC, miss_limit=3,
                 timer_period_ns=MSEC, migration_timeout_ns=5 * MSEC):
        node_names = list(node_names)
        if len(set(node_names)) != len(node_names) or not node_names:
            raise ValueError("node names must be unique and non-empty")
        if self.coordinator_name in node_names:
            raise ValueError("%r is reserved for the coordinator"
                             % (self.coordinator_name,))
        self.sim = Simulator(seed=seed)
        self.transport = MessageTransport(self.sim, default_link=link)
        self._kernel_config_factory = kernel_config_factory
        self._timer_period_ns = int(timer_period_ns)
        self.nodes = {}
        for name in node_names:
            self._build_node(name)
        self.membership = MembershipService(
            self, heartbeat_interval_ns=heartbeat_interval_ns,
            miss_limit=miss_limit)
        for node in self.nodes.values():
            node.membership = self.membership
        self.placement = ClusterPlacementService(self)
        self.plan_guard = None  # armed via install_plan_guard()
        self.transport.register(self.coordinator_name,
                                self._on_message)
        self.backoff = BackoffPolicy(
            initial_ns=migration_timeout_ns, factor=2.0,
            max_delay_ns=20 * migration_timeout_ns, max_attempts=4)
        self.deployments = {}   # component name -> home node name
        self.catalog = {}       # component name -> last known entry
        self.failovers = []     # completed failover reports
        self.mgmt_replies = {}  # request id -> mgmt_reply payload
        self._requests = {}     # unanswered request id -> mgmt payload
        self._applications = {}  # node name -> {application: members}
        self._tombstones = {}   # undeployed name -> former home node
        self._migrations = {}
        self._seq = itertools.count(1)
        metrics = self.sim.telemetry.registry("cluster")
        self._m_deployments = metrics.counter("deployments_total")
        self._m_migrations = metrics.counter("migrations_total")
        self._m_migration_retries = metrics.counter(
            "migration_retries_total")
        self._m_migration_failures = metrics.counter(
            "migration_failures_total")
        self._m_migration_latency = metrics.histogram(
            "migration_latency_ns", MIGRATION_LATENCY_BOUNDS_NS)
        self._m_failovers = metrics.counter("failovers_total")
        self._m_failover_components = metrics.counter(
            "failover_components_total")
        self._m_failover_detect = metrics.histogram(
            "failover_detect_ns", FAILOVER_DETECT_BOUNDS_NS)
        self._m_snapshot_pushes = metrics.counter(
            "snapshot_pushes_total")
        self.membership.start()

    def _build_node(self, name):
        node = ClusterNode(name, self.sim, self.transport,
                           kernel_config=self._kernel_config_factory())
        node.start_timer(self._timer_period_ns)
        self.nodes[name] = node
        return node

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def node(self, name):
        """The named :class:`~repro.cluster.node.ClusterNode`."""
        return self.nodes[name]

    def alive_nodes(self):
        """Nodes that are up *and* still in membership."""
        return [node for node in self.nodes.values()
                if node.alive
                and not self.membership.is_dead(node.name)]

    def run_for(self, duration_ns):
        """Advance the shared simulator."""
        return self.sim.run_for(duration_ns)

    def add_node(self, name):
        """Join a node to a running federation.

        Builds the full platform stack, wires it to the transport and
        seeds its membership entry as just-seen -- without the seeding
        a late joiner would read as silent-since-t0 and be declared
        dead at the next check.  Returns the new node."""
        if name in self.nodes or name == self.coordinator_name:
            raise ClusterError("node name %r is taken" % (name,))
        node = self._build_node(name)
        node.membership = self.membership
        self.membership.note_join(name)
        self.sim.trace.record(self.sim.now, "cluster",
                              action="node_join", node=name)
        return node

    def crash_node(self, name):
        """Fail-stop one node (the NODE_CRASH injector's entry point).

        Failover does *not* run here -- it runs when the membership
        detector notices the silence, heartbeats later."""
        self.sim.trace.record(self.sim.now, "cluster",
                              action="node_crash", node=name)
        self.nodes[name].crash()

    def shutdown(self):
        """Stop heartbeats and tear every node down."""
        self.membership.stop()
        for node in self.nodes.values():
            node.crash()
        self.transport.unregister(self.coordinator_name)

    # ------------------------------------------------------------------
    # the deployment plan (static analysis round-trip)
    # ------------------------------------------------------------------
    def export_plan(self, rules=None):
        """The live fleet as a deployment-plan document.

        A plain-data JSON document in the :mod:`repro.lint.deployment`
        plan schema: the alive nodes (CPU count, placement cap), the
        transport's default and explicit links, every deployed
        component's descriptor inlined under its home node, and the
        application groupings -- so ``drtlint`` can statically verify
        the *running* fleet (``python -m repro cluster --export-plan``
        and the CI cluster-smoke job do exactly that).  ``rules``
        optionally lists rule-file paths to carry along."""
        from repro.lint.deployment import PLAN_SCHEMA_VERSION
        alive = {node.name for node in self.alive_nodes()}
        hosted = {}  # home -> its components' plan entries, name order
        for comp, home in sorted(self.deployments.items()):
            if comp in self.catalog:
                hosted.setdefault(home, []).append(
                    {"xml": self.catalog[comp]["descriptor_xml"]})
        nodes = []
        deployments = []
        for name in sorted(self.nodes):
            if name not in alive:
                continue
            node = self.nodes[name]
            nodes.append({
                "name": name,
                "num_cpus": node.kernel.config.num_cpus,
                "cap": self.placement.cap,
            })
            components = hosted.get(name)
            if components:
                deployments.append({"node": name,
                                    "components": components})
        default = self.transport.default_link
        links = [
            {"src": src, "dst": dst,
             "latency_ns": link.latency_ns,
             "jitter_ns": link.jitter_ns,
             "drop_probability": link.drop_probability}
            for (src, dst), link
            in sorted(self.transport.links().items())
            if src in alive | {self.coordinator_name}
            and dst in alive | {self.coordinator_name}]
        applications = {}
        for name in sorted(alive):
            for app, members \
                    in self.nodes[name].drcr.applications().items():
                deployed = [member for member in members
                            if self.deployments.get(member) in alive]
                if deployed:
                    applications.setdefault(app, deployed)
        plan = {
            "plan_version": PLAN_SCHEMA_VERSION,
            "name": "cluster",
            "cap": self.placement.cap,
            "default_link": {
                "latency_ns": default.latency_ns,
                "jitter_ns": default.jitter_ns,
                "drop_probability": default.drop_probability,
            },
            "nodes": nodes,
            "links": links,
            "deployments": deployments,
            "applications": applications,
        }
        if rules is not None:
            plan["rules"] = list(rules)
        return plan

    def install_plan_guard(self, fail_on=Severity.ERROR,
                           families=None):
        """Arm the :class:`PlanGuard` pre-deploy gate.

        From then on :meth:`deploy` / :meth:`deploy_application` lint
        the candidate plan first and raise :class:`ClusterError` on
        new findings at or above ``fail_on``; failover re-homing runs
        an advisory post-lint.  Returns the guard."""
        self.plan_guard = PlanGuard(self, fail_on=fail_on,
                                    families=families)
        return self.plan_guard

    def _consult_plan_guard(self, descriptor_xmls, node, subject,
                            application=None, members=None):
        if self.plan_guard is None:
            return
        findings = self.plan_guard.check_deploy(
            descriptor_xmls, node, application=application,
            members=members)
        if findings:
            raise ClusterError(
                "plan guard vetoed deploying %s onto %s: %s"
                % (subject, node,
                   "; ".join(diagnostic.format()
                             for diagnostic in findings)))

    # ------------------------------------------------------------------
    # the management plane
    # ------------------------------------------------------------------
    def deploy(self, descriptor_xml, node=None, properties=None):
        """Deploy one descriptor onto the fleet.

        The one-member case of :meth:`deploy_application`: the target
        is ``node`` or the placement service's choice, the descriptor
        travels as a one-entry ``deploy`` message, the target's
        resolving services decide admission and its ``deploy_ack``
        reconciles the home map.  Returns the target node name."""
        descriptor = ComponentDescriptor.from_xml(descriptor_xml)
        return self._deploy([(descriptor, descriptor_xml, properties)],
                            node, "component %r" % (descriptor.name,))

    def deploy_application(self, app_name, descriptor_xmls,
                           node=None, properties=None):
        """Deploy a wired application whole onto one node.

        Port wiring resolves inside a single node's kernel, so the
        members must be co-located; the placement service picks the
        node whose CPUs can place every member and the target deploys
        the group in one batch round, then records the grouping via
        ``define_application``.  ``properties`` maps component name to
        saved property dicts.  Returns the target node name."""
        properties = properties or {}
        members = []
        for xml in descriptor_xmls:
            descriptor = ComponentDescriptor.from_xml(xml)
            members.append((descriptor, xml,
                            properties.get(descriptor.name)))
        return self._deploy(members, node,
                            "application %r" % (app_name,),
                            application=app_name)

    def _deploy(self, members, node, subject, application=None):
        """Place ``(descriptor, xml, properties)`` members together,
        pass the plan guard, book them, and send one ``deploy``."""
        names = [descriptor.name for descriptor, _, _ in members]
        for name in names:
            if name in self.deployments:
                raise ClusterError("component %r already deployed on %s"
                                   % (name, self.deployments[name]))
        if node is None:
            claims = [claim_of(descriptor)
                      for descriptor, _, _ in members]
            node = self.placement.choose_node(
                *claims, pending=self._pending_load())
            if node is None:
                raise ClusterError("no node fits %s (usage %.2f)"
                                   % (subject, sum(claims)))
        elif node not in self.nodes:
            raise ClusterError("unknown node %r" % (node,))
        self._consult_plan_guard([xml for _, xml, _ in members], node,
                                 subject, application=application,
                                 members=names)
        entries = []
        for descriptor, xml, properties in members:
            name = descriptor.name
            entry = {
                "name": name,
                "descriptor_xml": xml,
                "state": ComponentState.ACTIVE.value,
                "bundle": None,
            }
            if properties:
                entry["properties"] = dict(properties)
            entries.append(entry)
            self._tombstones.pop(name, None)
            self.catalog[name] = entry
            self.deployments[name] = node
            self._m_deployments.inc()
        if application is not None:
            self._applications.setdefault(node, {})[application] = names
        self.transport.send(self.coordinator_name, node, "deploy", {
            "entries": entries,
            "application": application,
            "reply_to": self.coordinator_name,
        })
        return node

    def undeploy(self, name):
        """Remove a component from its home node."""
        node = self.deployments.pop(name, None)
        if node is None:
            raise ClusterError("component %r is not deployed"
                               % (name,))
        self.catalog.pop(name, None)
        # A heartbeat exported before the undeploy lands would re-add
        # the component; the tombstone blocks that until a snapshot
        # from the former home confirms it is gone.
        self._tombstones[name] = node
        self.transport.send(self.coordinator_name, node, "undeploy", {
            "name": name,
            "reply_to": self.coordinator_name,
        })
        return node

    def manage(self, name, op, *args):
        """Invoke a §2.4 management operation on a remote component.

        Routed as a ``mgmt`` message to the home node, which resolves
        the component's registered management service via the OSGi
        registry.  Returns a request id; its one reply lands in
        ``mgmt_replies[request_id]`` once the simulator has run the
        round-trip, from the component's new home if it moved."""
        node = self.deployments.get(name)
        if node is None:
            raise ClusterError("component %r is not deployed"
                               % (name,))
        request_id = "req%05d" % next(self._seq)
        request = {
            "component": name,
            "op": op,
            "args": list(args),
            "request_id": request_id,
            "reply_to": self.coordinator_name,
        }
        self._requests[request_id] = request
        self.transport.send(self.coordinator_name, node, "mgmt", request)
        return request_id

    def _on_mgmt_reply(self, reply):
        """Record a management reply, unless it says the component
        moved off the node that answered: then the request is held
        until an in-flight migration from that node settles, or
        re-sent at once when the home has already changed."""
        request = self._requests.get(reply["request_id"])
        if request is not None and reply.get("moved"):
            name, node = request["component"], reply["node"]
            for migration in self._migrations.values():
                if not migration.done and migration.name == name \
                        and migration.src == node:
                    migration.held.append(reply)
                    return
            home = self.deployments.get(name)
            if home is not None and home != node:
                self.transport.send(self.coordinator_name, home,
                                    "mgmt", request)
                return
        self._answer(reply)

    def _answer(self, reply):
        self._requests.pop(reply["request_id"], None)
        self.mgmt_replies[reply["request_id"]] = reply

    def _settle(self, migration):
        """Re-send the requests held on a settled migration to the
        component's home; with no home left, the held error stands."""
        home = self.deployments.get(migration.name)
        for reply in migration.held:
            if home is None:
                self._answer(reply)
            else:
                self.transport.send(self.coordinator_name, home, "mgmt",
                                    self._requests[reply["request_id"]])
        migration.held = []

    # ------------------------------------------------------------------
    # migration
    # ------------------------------------------------------------------
    def migrate(self, name, dst=None):
        """Move a component to another node, state included.

        Returns the migration id; progress is visible in
        ``migration(migration_id)`` and the ``cluster`` telemetry."""
        src = self.deployments.get(name)
        if src is None:
            raise ClusterError("component %r is not deployed"
                               % (name,))
        if dst is None:
            entry = self.catalog.get(name)
            dst = self.placement.choose_node(
                _usage(entry) if entry else 0.0, exclude={src})
            if dst is None:
                raise ClusterError(
                    "no migration target fits %r" % (name,))
        if dst == src or dst not in self.nodes:
            raise ClusterError("bad migration target %r" % (dst,))
        migration_id = "mig%05d" % next(self._seq)
        migration = _Migration(migration_id, name, src, dst,
                               self.sim.now)
        self._migrations[migration_id] = migration
        self.sim.trace.record(self.sim.now, "cluster",
                              action="migrate", component=name,
                              src=src, dst=dst, id=migration_id)
        self._send_migrate_out(migration)
        self._arm_migration_check(migration)
        return migration_id

    def _send_migrate_out(self, migration):
        self.transport.send(self.coordinator_name, migration.src,
                            "migrate_out", {
                                "name": migration.name,
                                "dst": migration.dst,
                                "migration_id": migration.id,
                                "reply_to": self.coordinator_name,
                            })

    def migration(self, migration_id):
        """Status dict of one migration."""
        migration = self._migrations[migration_id]
        return {
            "id": migration.id,
            "component": migration.name,
            "src": migration.src,
            "dst": migration.dst,
            "done": migration.done,
            "outcome": migration.outcome,
            "attempts": migration.attempts,
            "latency_ns": (migration.completed_ns
                           - migration.initiated_ns)
            if migration.completed_ns is not None else None,
        }

    def _arm_migration_check(self, migration):
        stream = self.sim.rng.stream("cluster/migration")
        delay = self.backoff.delay_ns(migration.attempts + 1, stream)
        self.sim.schedule(delay, self._check_migration, migration.id,
                          label="cluster:migration-check")

    def _check_migration(self, migration_id):
        migration = self._migrations.get(migration_id)
        if migration is None or migration.done:
            return
        migration.attempts += 1
        if migration.attempts >= self.backoff.max_attempts:
            self._give_up(migration, "failed")
            return
        self._m_migration_retries.inc()
        if migration.entry is not None:
            # Ledger holds the state: retry delivery to the target,
            # re-choosing it if the original left membership.
            if self.membership.is_dead(migration.dst) \
                    or not self.nodes[migration.dst].alive:
                dst = self.placement.choose_node(
                    _usage(migration.entry),
                    exclude={migration.src, migration.dst})
                if dst is None:
                    self._give_up(migration, "failed")
                    return
                migration.dst = dst
            self.transport.send(self.coordinator_name, migration.dst,
                                "deploy", {
                                    "entries": [migration.entry],
                                    "migration_id": migration.id,
                                    "reply_to": self.coordinator_name,
                                })
        elif self.nodes[migration.src].alive \
                and not self.membership.is_dead(migration.src):
            # migrate_out (or migrate_begun) was lost; ask again.
            self._send_migrate_out(migration)
        else:
            # No ledger and the source is gone: the component's fate
            # is the failover path's job (catalog fallback).
            self._give_up(migration, "failed")
            return
        self._arm_migration_check(migration)

    def _give_up(self, migration, outcome):
        """End a migration that moved nothing: ``"failed"`` (no answer
        in time, or no target left), ``"absent"`` (the source did not
        host the component) or ``"skipped"`` (the target already
        did); a component left homeless is placed locally."""
        migration.done = True
        migration.outcome = outcome
        self._m_migration_failures.inc()
        placed = self._rescue(migration)
        self.sim.trace.record(self.sim.now, "cluster",
                              action="migration_failed",
                              component=migration.name,
                              id=migration.id, outcome=outcome,
                              fallback=placed)
        self._settle(migration)

    def _rescue(self, migration):
        """Place a component its migration left homeless from the
        ledger or catalog, so it is not lost; returns whether it
        placed it."""
        entry = migration.entry or self.catalog.get(migration.name)
        if entry is None \
                or self._component_lives_somewhere(migration.name):
            return False
        return bool(self._place_groups([[entry]], exclude=(),
                                       reason="migration-fallback"))

    def _component_lives_somewhere(self, name):
        return any(name in node.drcr.registry
                   for node in self.alive_nodes())

    def _pending_load(self):
        """Claims promised to nodes but not yet visible in their
        registries (deploy messages still in flight), per node:
        placement must count them, or a burst piles onto one node."""
        pending = {}
        for name, home in self.deployments.items():
            node = self.nodes.get(home)
            if node is None or name in node.drcr.registry:
                continue
            entry = self.catalog.get(name)
            if entry is None:
                continue
            pending.setdefault(home, []).append(_usage(entry))
        return pending

    # ------------------------------------------------------------------
    # the record of ownership and failover
    # ------------------------------------------------------------------
    def note_replica(self, src, snapshot):
        """Reconcile the home map, catalog and application record with
        a node's pushed export -- last writer wins, which converges
        within a push of any move."""
        carried = set()
        for entry in snapshot.get("components", ()):
            name = entry["name"]
            carried.add(name)
            if self._tombstones.get(name) == src:
                continue  # stale beat from before the undeploy landed
            self.catalog[name] = entry
            self.deployments[name] = src
        self._applications.setdefault(src, {}).update(
            snapshot.get("applications", {}))
        for name, home in list(self._tombstones.items()):
            if home == src and name not in carried:
                del self._tombstones[name]

    def _on_node_dead(self, name, last_seen):
        """Failover: re-deploy exactly the components the home map
        places on the dead node, each from its catalog entry and in
        name order, across the survivors, one batch round per target
        node.  A component an unfinished migration holds is left to
        that migration's ledger."""
        now = self.sim.now
        self._m_failover_detect.observe(now - last_seen)
        migrating = {migration.name
                     for migration in self._migrations.values()
                     if not migration.done}
        orphans = [self.catalog[comp]
                   for comp, home in sorted(self.deployments.items())
                   if home == name and comp not in migrating
                   and comp in self.catalog
                   and not self._component_lives_somewhere(comp)]
        applications = self._applications.pop(name, {})
        moved = self._place_groups(
            co_location_groups(orphans, applications,
                               itemgetter("name")),
            exclude={name},
            reason="failover")
        unplaced = sorted(set(entry["name"] for entry in orphans)
                          - set(moved))
        for comp in unplaced:
            self.deployments.pop(comp, None)
        for app_name, members in applications.items():
            for target in sorted({moved[m] for m in members if m in moved}):
                self.nodes[target].drcr.define_application(
                    app_name, members)
                self._applications.setdefault(target, {})[app_name] = members
        self._m_failovers.inc()
        self._m_failover_components.inc(len(moved))
        report = {
            "node": name,
            "at_ns": now,
            "last_seen_ns": last_seen,
            "moved": moved,
            "unplaced": unplaced,
        }
        self.failovers.append(report)
        self.sim.trace.record(now, "cluster", action="failover",
                              node=name, moved=len(moved),
                              unplaced=len(unplaced))
        if self.plan_guard is not None:
            self.plan_guard.note_failover(name)
        return report

    def _place_groups(self, groups, exclude, reason):
        """Plan nodes for co-location groups, then deploy each
        target's share in one ``drcr.batch()`` round.

        A group is a list of entries that must land together (a wired
        application); singletons are one-element groups; earlier
        groups' claims count as ``pending`` for later ones.  In-process
        on purpose: failover is the coordinator restoring from *its*
        catalog -- the dead node is unreachable, so there is no remote
        hop to model.  Returns ``{component: target node}`` for every
        entry that found a home."""
        plan = {}
        pending = {}
        for group in groups:
            claims = [_usage(entry) for entry in group]
            node_name = self.placement.choose_node(
                *claims, exclude=exclude, pending=pending)
            if node_name is None:
                continue
            pending.setdefault(node_name, []).extend(claims)
            plan.setdefault(node_name, []).extend(group)
        moved = {}
        for node_name, group in plan.items():
            report = self.nodes[node_name].management.deploy_entries(
                group)
            for comp in _placed(report):
                moved[comp] = self.deployments[comp] = node_name
            self.sim.trace.record(self.sim.now, "cluster",
                                  action="redeploy", node=node_name,
                                  reason=reason, count=len(group))
        return moved

    # ------------------------------------------------------------------
    # coordinator inbox
    # ------------------------------------------------------------------
    def _on_message(self, message):
        kind = message.kind
        payload = message.payload
        if kind == "deploy_ack":
            if payload["migration_id"] is None:
                # A name undeployed while its deploy was on the wire
                # has left the catalog: re-homing it would leave a
                # ghost with no host in the home map.
                for comp in _placed(payload["report"]):
                    if comp in self.catalog:
                        self.deployments[comp] = payload["node"]
            else:
                outcome, = [bucket for bucket, names
                            in payload["report"].items() if names]
                self._on_migration_answer(payload, outcome)
        elif kind == "migrate_begun":
            migration = self._migrations[payload["migration_id"]]
            if migration.entry is None:
                if payload["entry"] is None:  # not hosted at the source
                    self._on_migration_answer(payload, "absent")
                else:
                    migration.entry = payload["entry"]
                    self.catalog[migration.name] = payload["entry"]
        elif kind == "mgmt_reply":
            self._on_mgmt_reply(payload)
        elif kind == "snapshot_push":
            node = payload["node"]
            if not self.membership.is_dead(node):
                self._m_snapshot_pushes.inc()
                self.note_replica(node, payload["snapshot"])
        elif kind == "fence_ack":
            self.membership.note_fence_ack(payload["node"])
            self.sim.trace.record(self.sim.now, "cluster",
                                  action="fence_ack",
                                  node=payload["node"],
                                  count=len(payload["undeployed"]))

    def _on_migration_answer(self, payload, outcome):
        """A migration's answer: the target's ``deploy_ack`` outcome,
        or ``"absent"`` from a source that does not host it."""
        migration = self._migrations[payload["migration_id"]]
        if migration.done:
            return
        migration.completed_ns = self.sim.now
        if outcome not in _PLACED_OUTCOMES:
            self._give_up(migration, outcome)
            return
        migration.done = True
        migration.outcome = outcome
        self.deployments[migration.name] = payload["node"]
        self._m_migrations.inc()
        self._m_migration_latency.observe(
            self.sim.now - migration.initiated_ns)
        self.sim.trace.record(self.sim.now, "cluster",
                              action="migrated",
                              component=migration.name,
                              dst=payload["node"], outcome=outcome,
                              latency_ns=self.sim.now
                              - migration.initiated_ns)
        self._settle(migration)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def report(self):
        """Plain-data summary of the whole federation."""
        return {
            "time_ns": self.sim.now,
            "members": self.membership.members(),
            "dead": sorted(self.membership.declared_dead),
            "deployments": dict(self.deployments),
            "utilization": self.placement.utilization_map(),
            "failovers": list(self.failovers),
            "migrations": [self.migration(mid)
                           for mid in self._migrations],
        }

    def __repr__(self):
        return "Cluster(%d nodes, %d components, t=%dns)" % (
            len(self.nodes), len(self.deployments), self.sim.now)
