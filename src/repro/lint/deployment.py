"""DRT6xx -- deployment-plan analyzers.

The other five families verify one deployment *unit*; this family
verifies a whole *fleet*: a **deployment plan** is a JSON document
naming the nodes (name, CPU count, utilization cap), the links between
them (:class:`~repro.cluster.transport.LinkSpec` quality), which
descriptor goes where, the application co-location groups, and the
adaptation rule files that will steer the result.  Everything a
:class:`~repro.cluster.federation.Cluster` decides at run time --
placement, failover re-homing, cross-node wiring, management routing
-- is re-derived here statically, with no Cluster, Framework or kernel
instantiated (the layering rule in ``docs/ARCHITECTURE.md``: lint may
*model* cluster topology, never build one).  DRT601/DRT602 own no
placement math: they call the fit test, best-fit, node choice and
grouping of :mod:`repro.core.placement`, the functions the runtime
calls, on plan data.

Plan schema (``docs/STATIC_ANALYSIS.md`` renders the reference)::

    {
      "plan_version": 1,
      "name": "settop-fleet",
      "cap": 1.0,
      "default_link": {"latency_ns": 500000},
      "links": [{"src": "control", "dst": "edge0",
                 "latency_ns": 800000, "jitter_ns": 100000}],
      "nodes": [{"name": "edge0", "num_cpus": 1, "cap": 1.0}, ...],
      "deployments": [{"node": "edge0",
                       "components": ["vsrc.xml", {"xml": "<drt:..."}]}],
      "applications": {"vidpip": ["VSRC00", "VFLT00"]},
      "rules": ["settopbox.rules.json", {"document": {...}}]
    }

Relative descriptor/rule paths resolve against the plan file's own
directory.  The checks:

* **DRT600** -- the plan document itself fails to parse or validate
  (schema problems, unknown nodes, unreadable sources, duplicate
  homes, bad link quality);
* **DRT601** -- a node cannot host its declared components: the
  best-fit CPU choice finds no CPU for a claim, or a
  ``drcom.placement=pinned`` component oversubscribes its pinned CPU;
* **DRT602** -- no N-1 failover headroom: for each node, simulate its
  loss and re-place its components group by group over the survivors
  (the least-loaded survivor whose CPUs can place the group, on the
  per-CPU loads of DRT601's replay, a pinned claim on its own CPU
  only; co-location groups move whole); any group left without a home
  means the fleet is one crash away from stranding it;
* **DRT603** -- a wired application split across nodes (or an inport
  whose only signature-compatible providers live on other nodes):
  ports bind inside one node's kernel, so the runtime can never
  resolve this wiring;
* **DRT604** -- the management path from the coordinator (``control``)
  to a component is slower than the component's deadline: worst-case
  link latency plus jitter plus the component's exact response time
  (:func:`repro.analysis.response_time` over its node/CPU task set)
  exceeds ``deadline_ns``, so a §2.4 command cannot take effect within
  one deadline window;
* **DRT605** -- an adaptation rule scoped to (or migrating toward) a
  node no plan node matches: the predicate can never hold, or the
  action can never land;
* **DRT606** -- two rules that can hold in the same epoch migrate one
  component to *different* nodes: the component ping-pongs between
  homes for as long as both conditions overlap.

Per-node descriptor sets additionally run through the contract,
wiring and admission families as their own deployment units (ports
bind per kernel), so one ``python -m repro lint plan.json`` covers
both the fleet shape and every node's local deployment.

**Node-local and fleet-wide checks.**  A check is *node-local* when
its findings for one node depend only on that node: its declared
CPUs and cap, its ``control`` link and its own components.  The
node-local checks are the node's contract/wiring/admission unit,
DRT601 and DRT604.  Every other check is *fleet-wide*: DRT600 parse
problems, DRT602, DRT603, DRT605/DRT606 and the DRT5xx findings of the
plan's rule sources.  :func:`lint_plan_document` (and
:func:`~repro.lint.engine.lint_plan`) take ``nodes``, a collection of
node names, to run the node-local checks for those nodes only; the
fleet-wide checks always see the whole plan.  The
:class:`~repro.cluster.federation.PlanGuard` lints a candidate plan
this way, because a deploy onto one node leaves every other node's
node-local findings as they were.  A new check must be classified
here: node-local only if that argument holds for it.
"""

import json
import math
import os
from operator import attrgetter

from repro.adapt.rules import parse_rule_document_tolerant
from repro.analysis import TaskSpec, response_time
from repro.cluster.transport import LinkSpec
from repro.core.placement import (
    PinnedClaim, best_node, co_location_groups, cpu_for)
from repro.lint import memo
# Shared interval arithmetic: DRT606 must agree with DRT503 about
# when two rule conditions can hold in the same epoch.
from repro.lint.adaptrules import _compatible, _constraint_map
from repro.lint.diagnostics import Diagnostic

#: Plan document version this analyzer reads.
PLAN_SCHEMA_VERSION = 1

#: The management plane's transport endpoint (mirrors
#: ``Cluster.coordinator_name`` without importing the federation).
COORDINATOR = "control"

_PLAN_KEYS = frozenset((
    "plan_version", "name", "cap", "default_link", "links", "nodes",
    "deployments", "applications", "rules"))
_NODE_KEYS = frozenset(("name", "num_cpus", "cap"))
_LINK_KEYS = frozenset(("src", "dst", "latency_ns", "jitter_ns",
                        "drop_probability"))

#: The most CPUs a plan node may declare: the largest count a Linux
#: kernel is built for (x86-64 ``CONFIG_NR_CPUS`` under ``MAXSMP``).
#: The hosting check keeps one load slot per CPU, so an unbounded
#: count is an unbounded allocation (10**9 CPUs would take 8 GB).
MAX_NODE_CPUS = 8192


def looks_like_plan_file(text):
    """Whether a ``.json`` source is a deployment plan.

    Cheap structural sniff: a JSON object carrying ``plan_version``,
    or both a ``nodes`` list and a ``deployments`` list.  Checked
    *before* the rule-file sniff in the engine -- a plan legitimately
    carries a ``rules`` key of its own.
    """
    try:
        document = json.loads(text)
    except ValueError:
        return False
    if not isinstance(document, dict):
        return False
    if "plan_version" in document:
        return True
    return isinstance(document.get("nodes"), list) \
        and isinstance(document.get("deployments"), list)


def _is_number(value):
    """A finite int or float (not a bool): the plan's numbers, read as
    fault plans read theirs (``Infinity`` and ``NaN`` parse as JSON)."""
    return isinstance(value, (int, float)) \
        and not isinstance(value, bool) \
        and not (isinstance(value, float) and not math.isfinite(value))


class PlanNode:
    """One node of the plan: capacity, never a live platform."""

    __slots__ = ("name", "num_cpus", "cap")

    def __init__(self, name, num_cpus, cap):
        self.name = name
        self.num_cpus = num_cpus
        self.cap = cap


class PlanComponent:
    """One descriptor assignment: text, parsed form (or None), home,
    and the CPU claim (:func:`~repro.core.placement.claim_of`)."""

    __slots__ = ("xml", "location", "node", "descriptor", "claim")

    def __init__(self, xml, location, node, descriptor, claim):
        self.xml = xml
        self.location = location
        self.node = node
        self.descriptor = descriptor
        self.claim = claim


class DeploymentPlan:
    """Parsed plan: pure data, ready for the DRT6xx checks."""

    def __init__(self, location="<plan>"):
        self.location = location
        self.name = "plan"
        self.nodes = {}          # name -> PlanNode, insertion order
        self.default_link = LinkSpec()
        self.links = {}          # (src, dst) -> LinkSpec
        self.components = []     # PlanComponent, plan order
        self.applications = {}   # app name -> [member names]
        self.rule_sources = []   # (location, text)
        self.clashed = set()     # nodes the one-home rule took from
        self._by_node = {}       # node name -> [PlanComponent], plan order

    def add_component(self, comp):
        """Append one assignment (plan order), grouped by its node."""
        self.components.append(comp)
        self._by_node.setdefault(comp.node, []).append(comp)

    def components_of(self, node_name):
        """This node's components, plan order (the plan's own list:
        read it, never mutate it)."""
        return self._by_node.get(node_name, ())

    def node_of(self):
        """``{component name: home node}`` for parseable components."""
        return {comp.descriptor.name: comp.node
                for comp in self.components
                if comp.descriptor is not None}

    def link_for(self, src, dst):
        """The declared link for (src, dst), or the default."""
        return self.links.get((src, dst), self.default_link)


def _parse_link(data, where, problems):
    """A :class:`LinkSpec` from plan JSON, or None (problem noted)."""
    if not isinstance(data, dict):
        problems.append("%s must be an object, got %s"
                        % (where, type(data).__name__))
        return None
    unknown = sorted(set(data) - _LINK_KEYS)
    if unknown:
        problems.append("%s has unknown field(s): %s"
                        % (where, ", ".join(unknown)))
    kwargs = {}
    for field in ("latency_ns", "jitter_ns", "drop_probability"):
        if field in data:
            if not _is_number(data[field]):
                problems.append("%s.%s must be a finite number, got %r"
                                % (where, field, data[field]))
                return None
            kwargs[field] = data[field]
    try:
        return LinkSpec(**kwargs)
    except ValueError as error:
        problems.append("%s: %s" % (where, error))
        return None


def _parse_nodes(document, plan, default_cap, problems):
    nodes = document.get("nodes")
    if not isinstance(nodes, list) or not nodes:
        problems.append("plan needs a non-empty 'nodes' list")
        return
    for index, data in enumerate(nodes):
        where = "nodes[%d]" % index
        if not isinstance(data, dict):
            problems.append("%s must be an object" % where)
            continue
        unknown = sorted(set(data) - _NODE_KEYS)
        if unknown:
            problems.append("%s has unknown field(s): %s"
                            % (where, ", ".join(unknown)))
        name = data.get("name")
        if not isinstance(name, str) or not name:
            problems.append("%s needs a non-empty 'name'" % where)
            continue
        if name == COORDINATOR:
            problems.append(
                "%s: %r is reserved for the coordinator endpoint"
                % (where, COORDINATOR))
            continue
        if name in plan.nodes:
            problems.append("duplicate node name %r" % name)
            continue
        num_cpus = data.get("num_cpus", 1)
        if not isinstance(num_cpus, int) or isinstance(num_cpus, bool) \
                or not 1 <= num_cpus <= MAX_NODE_CPUS:
            problems.append("%s.num_cpus must be an integer in 1..%d, "
                            "got %r" % (where, MAX_NODE_CPUS, num_cpus))
            continue
        cap = data.get("cap", default_cap)
        if not _is_number(cap) or cap <= 0:
            problems.append("%s.cap must be a positive finite number"
                            % where)
            continue
        plan.nodes[name] = PlanNode(name, num_cpus, float(cap))


def _read_source(source, base_dir, plan_location, where, problems):
    """Resolve a path-valued plan source; returns (path, text)."""
    if os.path.isabs(source):
        resolved = source
    elif base_dir is not None:
        resolved = os.path.join(base_dir, source)
    else:
        problems.append(
            "%s: cannot resolve relative source %r (the plan has no "
            "on-disk location)" % (where, source))
        return None
    try:
        with open(resolved, "r", encoding="utf-8") as handle:
            return resolved, handle.read()
    except OSError as error:
        problems.append("%s: cannot read source %r: %s"
                        % (where, source, error))
        return None


def _parse_deployments(document, plan, base_dir, problems):
    deployments = document.get("deployments", [])
    if deployments is None:
        deployments = []
    if not isinstance(deployments, list):
        problems.append("'deployments' must be a list")
        return
    homes = {}
    for index, data in enumerate(deployments):
        where = "deployments[%d]" % index
        if not isinstance(data, dict):
            problems.append("%s must be an object" % where)
            continue
        node_name = data.get("node")
        if not isinstance(node_name, str):
            problems.append("%s.node must be a node name, got %r"
                            % (where, node_name))
            continue
        if node_name not in plan.nodes:
            problems.append("%s targets unknown node %r"
                            % (where, node_name))
            continue
        components = data.get("components")
        if not isinstance(components, list):
            problems.append("%s needs a 'components' list" % where)
            continue
        for cindex, source in enumerate(components):
            if isinstance(source, str):
                read = _read_source(source, base_dir, plan.location,
                                    where, problems)
                if read is None:
                    continue
                comp_location, text = read
            elif isinstance(source, dict) \
                    and isinstance(source.get("xml"), str):
                text = source["xml"]
                comp_location = "%s#%s[%d]" % (plan.location,
                                               node_name, cindex)
            else:
                problems.append(
                    "%s.components[%d] must be a descriptor path or "
                    "an {\"xml\": ...} object" % (where, cindex))
                continue
            facts = memo.descriptor_facts(text)
            descriptor = facts.descriptor
            if descriptor is None:
                problems.append(
                    "%s: descriptor at %s fails to parse and is "
                    "excluded from the plan analysis: %s"
                    % (where, comp_location, facts.error))
            else:
                other = homes.get(descriptor.name)
                if other is not None and other != node_name:
                    problems.append(
                        "component %r is deployed on both %r and %r; "
                        "the fleet home map holds one home per "
                        "component" % (descriptor.name, other,
                                       node_name))
                    plan.clashed.add(node_name)
                    continue
                homes[descriptor.name] = node_name
            plan.add_component(PlanComponent(
                text, comp_location, node_name, descriptor, facts.claim))


def _parse_applications(document, plan, problems):
    applications = document.get("applications", {})
    if applications is None:
        applications = {}
    if not isinstance(applications, dict):
        problems.append("'applications' must be an object")
        return
    deployed = {comp.descriptor.name for comp in plan.components
                if comp.descriptor is not None}
    for app, members in applications.items():
        if not isinstance(members, list) \
                or not all(isinstance(m, str) for m in members):
            problems.append("application %r must list member names"
                            % app)
            continue
        for member in members:
            if member not in deployed:
                problems.append(
                    "application %r names %r, which no node deploys"
                    % (app, member))
        plan.applications[app] = list(members)


def _parse_rules(document, plan, base_dir, problems):
    rules = document.get("rules", [])
    if rules is None:
        rules = []
    if not isinstance(rules, list):
        problems.append("'rules' must be a list")
        return
    for index, source in enumerate(rules):
        where = "rules[%d]" % index
        if isinstance(source, str):
            read = _read_source(source, base_dir, plan.location,
                                where, problems)
            if read is not None:
                plan.rule_sources.append(read)
        elif isinstance(source, dict) \
                and isinstance(source.get("document"), dict):
            plan.rule_sources.append((
                "%s#rules[%d]" % (plan.location, index),
                json.dumps(source["document"])))
        else:
            problems.append(
                "%s must be a rule-file path or a {\"document\": ...} "
                "object" % where)


def parse_plan(document, location="<plan>", base_dir=None):
    """Parse a plan document into a :class:`DeploymentPlan`.

    Returns ``(plan, problems)`` -- ``problems`` is a list of strings,
    each becoming one DRT600.  Parsing is tolerant: whatever validates
    is kept, so the topology checks still run on the healthy part of
    a partially broken plan.
    """
    problems = []
    plan = DeploymentPlan(location)
    if not isinstance(document, dict):
        problems.append("plan must be a JSON object, got %s"
                        % type(document).__name__)
        return plan, problems
    if base_dir is None and os.path.isfile(location):
        base_dir = os.path.dirname(os.path.abspath(location))
    version = document.get("plan_version", PLAN_SCHEMA_VERSION)
    if version != PLAN_SCHEMA_VERSION:
        problems.append(
            "unsupported plan_version %r (this drtlint reads "
            "version %d)" % (version, PLAN_SCHEMA_VERSION))
    unknown = sorted(set(document) - _PLAN_KEYS)
    if unknown:
        problems.append("plan has unknown top-level key(s): %s"
                        % ", ".join(unknown))
    name = document.get("name", "plan")
    if isinstance(name, str) and name:
        plan.name = name
    default_cap = document.get("cap", 1.0)
    if not _is_number(default_cap) or default_cap <= 0:
        problems.append("'cap' must be a positive finite number")
        default_cap = 1.0
    _parse_nodes(document, plan, default_cap, problems)
    if "default_link" in document:
        link = _parse_link(document["default_link"], "default_link",
                           problems)
        if link is not None:
            plan.default_link = link
    links = document.get("links", [])
    if links is None:
        links = []
    if not isinstance(links, list):
        problems.append("'links' must be a list")
        links = []
    endpoints = set(plan.nodes) | {COORDINATOR}
    for index, data in enumerate(links):
        where = "links[%d]" % index
        link = _parse_link(data, where, problems)
        if link is None:
            continue
        src = data.get("src")
        dst = data.get("dst")
        wrong = [field for field in ("src", "dst")
                 if data.get(field) is not None
                 and not isinstance(data[field], str)]
        if wrong:
            problems.append("%s.%s must be an endpoint name, got %r"
                            % (where, wrong[0], data[wrong[0]]))
            continue
        if src not in endpoints or dst not in endpoints:
            problems.append(
                "%s connects unknown endpoint(s) %r -> %r (known: "
                "%s)" % (where, src, dst,
                         ", ".join(sorted(endpoints))))
            continue
        plan.links[(src, dst)] = link
    _parse_deployments(document, plan, base_dir, problems)
    _parse_applications(document, plan, problems)
    _parse_rules(document, plan, base_dir, problems)
    return plan, problems


# ----------------------------------------------------------------------
# the checks
# ----------------------------------------------------------------------
_component_name = attrgetter("descriptor.name")


def _enabled_components(plan, node_name):
    return [comp for comp in plan.components_of(node_name)
            if comp.descriptor is not None and comp.descriptor.enabled]


def _local_nodes(plan, nodes):
    """Names of the plan nodes the node-local checks run for, plan
    order: every node when ``nodes`` is None, else those in ``nodes``
    plus every node that lost a component it lists to the one-home
    rule (a component homed on a named node displaced it, so its unit
    changed too)."""
    if nodes is None:
        return list(plan.nodes)
    return [name for name in plan.nodes
            if name in nodes or name in plan.clashed]


def _check_hosting(plan, nodes=None):
    """DRT601: every node must fit its own components.

    Replays each node's admission statically, in plan order: each
    component's :func:`~repro.core.placement.claim_of` goes where
    :func:`~repro.core.placement.cpu_for` puts it -- a pinned one on its
    declared CPU only, everything else on the CPU
    :class:`~repro.core.placement.BestFitPlacement` picks at deploy
    time.  Returns the findings for the node-local ``nodes`` (as for
    :func:`lint_plan_document`) and every node's replayed
    ``(total, loads, caps)``, which DRT602 re-homes onto.
    """
    diagnostics = []
    fleet = {}
    local = set(_local_nodes(plan, nodes))
    for node_name, node in plan.nodes.items():
        # DRT602 needs every node's loads; only local nodes report.
        found = diagnostics if node_name in local else []
        loads = [0.0] * node.num_cpus
        caps = [node.cap] * node.num_cpus
        for comp in _enabled_components(plan, node_name):
            claim = comp.claim
            cpu = cpu_for(loads, claim, caps)
            if cpu is not None:
                loads[cpu] += claim
            elif not isinstance(claim, PinnedClaim):
                found.append(Diagnostic(
                    "DRT601", comp.descriptor.name, comp.location,
                    "node %r cannot place %s (claim %.3f): per-CPU "
                    "loads are %s at cap %.2f; admission on this "
                    "node would reject it"
                    % (node_name, comp.descriptor.name, claim,
                       ["%.3f" % load for load in loads], node.cap)))
            elif claim.cpu >= node.num_cpus:
                found.append(Diagnostic(
                    "DRT601", comp.descriptor.name, comp.location,
                    "pinned to CPU %d, but node %r declares only "
                    "%d CPU(s)" % (claim.cpu, node_name, node.num_cpus)))
            else:
                found.append(Diagnostic(
                    "DRT601", comp.descriptor.name, comp.location,
                    "pinned claim %.3f does not fit CPU %d of "
                    "node %r (load already %.3f, cap %.2f)"
                    % (claim, claim.cpu, node_name, loads[claim.cpu],
                       node.cap)))
        fleet[node_name] = (sum(loads), loads, caps)
    return diagnostics, fleet


def _check_failover_capacity(plan, fleet):
    """DRT602: simulate each node's loss; survivors must absorb it.

    Replays runtime failover on plan data: the lost node's
    :func:`~repro.core.placement.co_location_groups`, in plan (name)
    order, each go to the survivor
    :func:`~repro.core.placement.best_node` picks for the members'
    :func:`~repro.core.placement.claim_of` claims (a pinned one takes
    only its own CPU), over the ``fleet`` DRT601 replayed in plan node
    order; each placed group's claims count against later groups, as
    failover's ``pending`` does.
    N-1 analysis needs at least two nodes; single-node plans are
    skipped.
    """
    if len(plan.nodes) < 2:
        return []
    diagnostics = []
    for dead in plan.nodes:
        members = _enabled_components(plan, dead)
        if not members:
            continue
        survivors = [node for name, node in fleet.items()
                     if name != dead]
        for group in co_location_groups(members, plan.applications,
                                        _component_name):
            claims = [comp.claim for comp in group]
            chosen = best_node(survivors, claims)
            if chosen is None:
                names = ", ".join(sorted(comp.descriptor.name
                                         for comp in group))
                diagnostics.append(Diagnostic(
                    "DRT602", names, group[0].location,
                    "losing node %r strands {%s}: the group claims "
                    "%s and no survivor's CPUs can place it; the "
                    "fleet has no N-1 failover capacity"
                    % (dead, names,
                       " + ".join("%.3f" % claim for claim in claims))))
            else:
                index, loads = chosen
                survivors[index] = (sum(loads), loads,
                                    survivors[index][2])
    return diagnostics


def _check_cross_node_wiring(plan):
    """DRT603: applications split across nodes, and inports whose
    only compatible providers live on other nodes.  Ports bind inside
    one node's kernel; neither can ever resolve at run time."""
    diagnostics = []
    node_of = plan.node_of()
    flagged_members = set()
    for app, members in sorted(plan.applications.items()):
        homes = sorted({node_of[m] for m in members if m in node_of})
        if len(homes) > 1:
            flagged_members.update(members)
            diagnostics.append(Diagnostic(
                "DRT603", app, plan.location,
                "application %r is split across nodes %s; port "
                "wiring resolves inside a single node's kernel, so "
                "the members must be co-located"
                % (app, ", ".join(homes))))
    providers = {}
    for comp in plan.components:
        if comp.descriptor is None or not comp.descriptor.enabled:
            continue
        for port in comp.descriptor.outports:
            providers.setdefault(port.signature(), []).append(
                (comp.node, comp.descriptor.name))
    for comp in plan.components:
        if comp.descriptor is None or not comp.descriptor.enabled:
            continue
        if comp.descriptor.name in flagged_members:
            continue  # the split application already covers it
        for port in comp.descriptor.inports:
            supply = providers.get(port.signature())
            if not supply:
                continue  # no provider anywhere: DRT201 per node
            if any(node == comp.node for node, _ in supply):
                continue
            remote = ", ".join(sorted(
                "%s on %s" % (name, node) for node, name in supply))
            diagnostics.append(Diagnostic(
                "DRT603", comp.descriptor.name, comp.location,
                "inport %r is only provided across the node boundary "
                "(%s); this wiring can never resolve"
                % (port.name, remote)))
    return diagnostics


def _check_management_latency(plan, nodes=None):
    """DRT604: coordinator-to-component command paths vs deadlines.

    A §2.4 management command rides the ``control -> node`` link and
    takes effect once the target task next completes; when worst-case
    link latency (latency + jitter) plus the component's exact
    response time already exceeds its deadline, no command can land
    within one deadline window.  Components whose response time
    analysis diverges are DRT302's finding, not repeated here.
    Node-local: ``nodes`` as for :func:`lint_plan_document`.
    """
    diagnostics = []
    for node_name in _local_nodes(plan, nodes):
        link = plan.link_for(COORDINATOR, node_name)
        wire_ns = link.latency_ns + link.jitter_ns
        by_cpu = {}
        for comp in _enabled_components(plan, node_name):
            if not comp.descriptor.contract.is_rate_bound:
                continue
            by_cpu.setdefault(comp.descriptor.contract.cpu,
                              []).append(comp)
        for cpu, members in sorted(by_cpu.items()):
            pairs = [(comp, TaskSpec.from_contract(
                comp.descriptor.contract)) for comp in members]
            for comp, spec in pairs:
                interfering = [other for _, other in pairs
                               if other is not spec
                               and other.priority <= spec.priority]
                response = response_time(spec, interfering)
                if response is None:
                    continue
                if wire_ns + response > spec.deadline_ns:
                    diagnostics.append(Diagnostic(
                        "DRT604", comp.descriptor.name, comp.location,
                        "a management command from %r reaches %s no "
                        "earlier than %.3f ms (link worst case %.3f "
                        "ms + response %.3f ms), past its %.3f ms "
                        "deadline"
                        % (COORDINATOR, comp.descriptor.name,
                           (wire_ns + response) / 1e6, wire_ns / 1e6,
                           response / 1e6, spec.deadline_ns / 1e6)))
    return diagnostics


def _check_rules_against_topology(plan):
    """DRT605 (orphan scopes/targets) and DRT606 (migration
    ping-pong) over every rule source the plan names."""
    diagnostics = []
    node_names = set(plan.nodes)
    migrations = []  # (rule, location, component, dst)
    for location, text in plan.rule_sources:
        try:
            document = json.loads(text)
        except ValueError:
            continue  # DRT500 reports this under the rules family
        rules, _ = parse_rule_document_tolerant(document)
        for rule in rules:
            orphan_nodes = set()
            predicates = (rule.when,) if rule.clear is None \
                else (rule.when, rule.clear)
            for predicate in predicates:
                for leaf in predicate.leaves():
                    if leaf.node is not None \
                            and leaf.node not in node_names \
                            and leaf.node not in orphan_nodes:
                        orphan_nodes.add(leaf.node)
                        diagnostics.append(Diagnostic(
                            "DRT605", rule.name, location,
                            "predicate scope %r matches no node of "
                            "this plan (nodes: %s); the condition "
                            "can never hold"
                            % (leaf.node,
                               ", ".join(sorted(node_names)))))
            for action in rule.actions:
                kind = action["action"]
                target = None
                if kind == "migrate":
                    target = action.get("dst")
                elif kind == "rebalance":
                    target = action.get("node")
                if target is not None and target not in node_names:
                    diagnostics.append(Diagnostic(
                        "DRT605", rule.name, location,
                        "action %r targets node %r, which this plan "
                        "does not declare (nodes: %s)"
                        % (kind, target,
                           ", ".join(sorted(node_names)))))
                if kind == "migrate" \
                        and action.get("dst") is not None:
                    migrations.append((rule, location,
                                       action["component"],
                                       action["dst"]))
    reported = set()
    for index, (first, location, component, dst) \
            in enumerate(migrations):
        for second, _, other_component, other_dst \
                in migrations[index + 1:]:
            if component != other_component or dst == other_dst:
                continue
            pair = tuple(sorted((first.name, second.name))) \
                + (component,)
            if pair in reported:
                continue
            if not _compatible(_constraint_map(first.when),
                               _constraint_map(second.when)):
                continue
            reported.add(pair)
            diagnostics.append(Diagnostic(
                "DRT606", component, location,
                "rules %r and %r can hold in the same epoch yet "
                "migrate %r to different nodes (%r vs %r); the "
                "component ping-pongs between homes while both "
                "conditions overlap"
                % (first.name, second.name, component, dst,
                   other_dst)))
    return diagnostics


def check_plan(plan, nodes=None):
    """All topology-level DRT60x diagnostics for a parsed plan; the
    node-local DRT601/DRT604 only for ``nodes`` (None = every node,
    see :func:`lint_plan_document`)."""
    diagnostics, fleet = _check_hosting(plan, nodes)
    diagnostics.extend(_check_failover_capacity(plan, fleet))
    diagnostics.extend(_check_cross_node_wiring(plan))
    diagnostics.extend(_check_management_latency(plan, nodes))
    diagnostics.extend(_check_rules_against_topology(plan))
    return diagnostics


# ----------------------------------------------------------------------
# entry points (the engine and the PlanGuard call these)
# ----------------------------------------------------------------------
def lint_plan_document(document, location="<plan>", families=None,
                       base_dir=None, nodes=None):
    """Lint one plan document (a parsed JSON object).

    Returns ``(diagnostics, units, sources)``: the plan itself is one
    unit, every linted node with components is one more (its
    descriptor set runs the contract/wiring/admission families), and
    every rule source another (DRT5xx).  ``families`` follows the
    engine's convention (None = all).  ``nodes`` (None = every node)
    names the nodes the node-local checks run for (the module
    docstring lists them), plus any node the one-home rule took a
    listed component from; the fleet-wide checks see the whole plan.
    """
    # Local import: the engine imports this module at load time.
    from repro.lint.engine import FAMILIES, lint_descriptor_texts
    if families is None:
        families = FAMILIES
    plan, problems = parse_plan(document, location, base_dir=base_dir)
    diagnostics = []
    units = 1
    sources = 1
    if "deployment" in families:
        for problem in problems:
            diagnostics.append(Diagnostic("DRT600", "", location,
                                          problem))
    node_families = tuple(f for f in families
                          if f in ("contract", "wiring", "admission"))
    for node_name in _local_nodes(plan, nodes):
        unit = [(comp.location, comp.xml)
                for comp in plan.components_of(node_name)]
        if not unit:
            continue
        units += 1
        sources += len(unit)
        if node_families:
            diagnostics.extend(lint_descriptor_texts(unit, node_families))
    if plan.rule_sources:
        from repro.lint import adaptrules
        for rule_location, rule_text in plan.rule_sources:
            units += 1
            sources += 1
            if "rules" in families:
                diagnostics.extend(adaptrules.check_rule_source(
                    rule_text, rule_location))
    if "deployment" in families:
        diagnostics.extend(check_plan(plan, nodes))
    return diagnostics, units, sources


def lint_plan_source(text, location="<plan>", families=None):
    """Lint a plan file's raw text (the engine's ``.json`` hook)."""
    try:
        document = json.loads(text)
    except ValueError as error:
        diagnostics = []
        if families is None or "deployment" in families:
            diagnostics.append(Diagnostic(
                "DRT600", "", location, "invalid JSON: %s" % error))
        return diagnostics, 1, 1
    return lint_plan_document(document, location, families=families)
