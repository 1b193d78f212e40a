"""Property: the one-lint PlanGuard gives the two-lint verdict.

:meth:`PlanGuard.check_deploy` lints the candidate plan once, with the
node-local checks (:mod:`repro.lint.deployment` lists them) on the
target node only, and lints the baseline -- in full -- only when the
candidate has a finding at or above ``fail_on``.  The algorithm it
replaced lives on as :class:`ReferenceGuard`: lint the exported
baseline and the candidate in full, and report the candidate's findings
at or above ``fail_on`` whose ``(code, component, location)`` the
baseline does not carry.

Hypothesis draws plan documents (2-4 nodes of 1-2 CPUs, 0-6 components
per node with claims of 0.05-0.7, some pinned, some wired, some behind
a slow ``control`` link, optional applications) and candidates of 1-3
descriptors onto one node, sometimes as an application.  Planted
cases: a name already homed on another node, an unparseable
descriptor, an inport whose only providers are remote, and a target
node the plan does not declare.  Each pair of guards reads the same
document through a stub cluster and must return the same diagnostics
and leave the same ``lint`` counters, at every ``fail_on`` and with
and without a family filter.  Two directed cases pin what the draws
reach only sometimes: a clash that takes a provider from a node the
guard did not target, and verdicts decided by warnings alone.  A live
fleet of 2-CPU nodes adds three more.  With four nodes, DRT301 names no
component, but its location names the node: one node's existing
over-commitment neither hides another's new one nor blocks a clean
deploy or the node's own unrelated work.  With three, the same deploy
leaves no survivor CPU for a lost node's component, and both guards
veto it with DRT602.
"""

import copy
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.cluster.federation import ClusterError, PlanGuard
from repro.lint import lint_plan
from repro.lint.deployment import PLAN_SCHEMA_VERSION
from repro.lint.diagnostics import Severity
from repro.rtos.kernel import KernelConfig
from repro.sim.engine import MSEC
from repro.telemetry.metrics import Telemetry

from conftest import make_descriptor_xml

#: Port signatures the drawn components provide and consume.
PORTS = [("GPT%03d" % index, "RTAI.SHM", "Integer", 2)
         for index in range(3)]

PINNED = [("drcom.placement", "String", "pinned")]

BROKEN_XML = '<drt:component name="BRK000" type="periodic"'

FAIL_ON = (Severity.ERROR, Severity.WARNING, Severity.INFO)
FAMILIES = (None, ("deployment",))

#: Codes whose findings depend on one node only.
NODE_LOCAL_FAMILIES = ("DRT1", "DRT2", "DRT3")
NODE_LOCAL_CODES = ("DRT601", "DRT604")


class ReferenceGuard(PlanGuard):
    """The two-lint guard: baseline and candidate both in full."""

    def check_deploy(self, descriptor_xmls, node, application=None,
                     members=None):
        self._m_checks.inc()
        plan = self.cluster.export_plan()
        baseline = self._lint(plan)
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
        result = self._lint(candidate)
        known = {(d.code, d.component, d.location)
                 for d in baseline.diagnostics}
        new = [diagnostic
               for diagnostic in result.at_or_above(self.fail_on)
               if (diagnostic.code, diagnostic.component,
                   diagnostic.location) not in known]
        if new:
            self._m_rejections.inc()
            for diagnostic in new:
                self._metrics.counter(
                    "plan_code.%s" % diagnostic.code).inc()
        return new


class StubCluster:
    """What a guard reads of a cluster: its telemetry and one export."""

    def __init__(self, document):
        self.sim = types.SimpleNamespace(telemetry=Telemetry())
        self.document = document

    def export_plan(self):
        return self.document


def view(diagnostics):
    return [(d.code, d.severity, d.component, d.location, d.message)
            for d in diagnostics]


# ----------------------------------------------------------------------
# drawn plans and candidates
# ----------------------------------------------------------------------
@st.composite
def components(draw, names, num_cpus, ceiling):
    """One descriptor, claiming at most ``ceiling`` thousandths:
    ``(name, xml, outport signatures)``."""
    name = "CMP%03d" % next(names)
    pinned = draw(st.integers(min_value=0, max_value=5)) == 0
    outports = draw(st.lists(st.sampled_from(PORTS), max_size=1))
    inports = draw(st.lists(st.sampled_from(PORTS), max_size=1))
    xml = make_descriptor_xml(
        name,
        cpuusage=draw(st.integers(min_value=50,
                                  max_value=ceiling)) / 1000,
        frequency=draw(st.sampled_from([10, 50, 200])),
        priority=draw(st.integers(min_value=1, max_value=30)),
        cpu=draw(st.integers(min_value=0, max_value=num_cpus)),
        enabled=draw(st.integers(min_value=0, max_value=9)) > 0,
        outports=outports, inports=inports,
        properties=PINNED if pinned else ())
    return name, xml, outports


@st.composite
def plans(draw):
    """A plan document, ``{node: [(name, xml, outports)]}`` and the
    claim ceiling.  Lightly loaded plans (ceiling 0.15) mostly lint
    free of errors, so warnings alone decide their verdicts."""
    ceiling = draw(st.sampled_from([150, 350, 700]))
    names = iter(range(1000))
    nodes = []
    homes = {}
    for index in range(draw(st.integers(min_value=2, max_value=4))):
        name = "node%d" % index
        num_cpus = draw(st.integers(min_value=1, max_value=2))
        nodes.append({"name": name, "num_cpus": num_cpus, "cap": 1.0})
        homes[name] = draw(st.lists(
            components(names, num_cpus, ceiling), max_size=6))
    # A slow control link makes DRT604 findings on that node.
    links = [{"src": "control", "dst": node["name"],
              "latency_ns": draw(st.sampled_from(
                  [500_000, 8 * MSEC, 60 * MSEC]))}
             for node in nodes
             if draw(st.integers(min_value=0, max_value=2)) == 0]
    deployments = [
        {"node": node, "components": [{"xml": xml}
                                      for _, xml, _ in comps]}
        for node, comps in homes.items() if comps]
    deployed = [name for comps in homes.values()
                for name, _, _ in comps]
    applications = {}
    if deployed:
        for index in range(draw(st.integers(min_value=0,
                                            max_value=2))):
            applications["APP%d" % index] = draw(st.lists(
                st.sampled_from(deployed), min_size=1, max_size=3,
                unique=True))
    document = {
        "plan_version": PLAN_SCHEMA_VERSION,
        "name": "cluster",
        "cap": 1.0,
        "default_link": {"latency_ns": 500_000, "jitter_ns": 50_000},
        "nodes": nodes,
        "links": links,
        "deployments": deployments,
        "applications": applications,
    }
    return document, homes, ceiling


@st.composite
def cases(draw):
    """A plan, then 1-3 descriptors onto one of its nodes (or, rarely,
    an undeclared one), optionally as an application, with planted
    clash / unparseable / remote-inport members."""
    document, homes, ceiling = draw(plans())
    node_names = list(homes)
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        node = "node9"
        num_cpus = 1
    else:
        node = draw(st.sampled_from(node_names))
        num_cpus = [n["num_cpus"] for n in document["nodes"]
                    if n["name"] == node][0]
    names = iter(range(1000, 2000))
    fresh = draw(st.lists(components(names, num_cpus, ceiling),
                          min_size=1, max_size=3))
    xmls = [xml for _, xml, _ in fresh]
    members = [name for name, _, _ in fresh]
    elsewhere = [(name, outports) for other, comps in homes.items()
                 if other != node for name, _, outports in comps]
    if elsewhere and draw(st.booleans()):
        # A name already homed on another node, with another claim.
        name, _ = draw(st.sampled_from(elsewhere))
        xmls.append(make_descriptor_xml(
            name, cpuusage=draw(st.sampled_from([0.1, 0.6])),
            frequency=50, priority=7))
        members.append(name)
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        xmls.append(BROKEN_XML)
    remote = [port for _, outports in elsewhere for port in outports]
    if remote and draw(st.booleans()):
        # An inport whose providers live on other nodes.
        xmls.append(make_descriptor_xml(
            "RMT000", cpuusage=0.05, frequency=50, priority=8,
            inports=[draw(st.sampled_from(remote))]))
        members.append("RMT000")
    if not draw(st.booleans()):
        return document, xmls, node, None, None
    deployed = [name for comps in homes.values() for name, _, _ in comps]
    if deployed:
        members += draw(st.lists(st.sampled_from(deployed), max_size=2,
                                 unique=True))
    return document, xmls, node, "APPNEW", members


# ----------------------------------------------------------------------
# the properties
# ----------------------------------------------------------------------
@settings(max_examples=120, deadline=None)
@given(cases())
def test_one_lint_guard_matches_the_two_lint_reference(case):
    document, xmls, node, application, members = case
    snapshot = copy.deepcopy(document)
    for fail_on in FAIL_ON:
        for families in FAMILIES:
            guards = []
            for guard_class in (PlanGuard, ReferenceGuard):
                guard = guard_class(StubCluster(document),
                                    fail_on=fail_on, families=families)
                verdict = view(guard.check_deploy(
                    xmls, node, application=application,
                    members=members))
                counters = guard.cluster.sim.telemetry.as_dict()["lint"]
                guards.append((verdict, counters))
            assert guards[0] == guards[1], (fail_on, families)
    assert document == snapshot  # the export is never written


def test_a_clash_that_empties_another_nodes_provider():
    # node0 precedes node1 in the plan, so the candidate's copy of
    # CMP001 keeps its home on node0 and node1 loses its own: node1's
    # CMP002 then has no provider, a new DRT201 on a node the guard
    # did not target.
    port = PORTS[0]
    document = {
        "plan_version": PLAN_SCHEMA_VERSION,
        "nodes": [{"name": "node0", "num_cpus": 1},
                  {"name": "node1", "num_cpus": 1}],
        "deployments": [
            {"node": "node0", "components": [{"xml": make_descriptor_xml(
                "CMP000", cpuusage=0.1, frequency=10, priority=3)}]},
            {"node": "node1", "components": [
                {"xml": make_descriptor_xml(
                    "CMP001", cpuusage=0.1, frequency=10, priority=4,
                    outports=[port])},
                {"xml": make_descriptor_xml(
                    "CMP002", cpuusage=0.1, frequency=10, priority=5,
                    inports=[port])}]},
        ],
        "applications": {},
    }
    clash = make_descriptor_xml("CMP001", cpuusage=0.2, frequency=10,
                                priority=6)
    verdicts = [view(guard_class(StubCluster(document)).check_deploy(
        [clash], "node0")) for guard_class in (PlanGuard, ReferenceGuard)]
    assert verdicts[0] == verdicts[1]
    assert ("DRT201", "CMP002") in {(code, component)
                                    for code, _, component, _, _
                                    in verdicts[0]}


def test_warnings_alone_decide_at_fail_on_warning():
    # node0 already carries a rate-monotonic inversion (DRT304 on
    # FST000, a warning) and nothing worse: a newcomer that inverts
    # nothing keeps only that old warning, a fast low-priority one
    # adds its own.
    document = {
        "plan_version": PLAN_SCHEMA_VERSION,
        "nodes": [{"name": "node0", "num_cpus": 1},
                  {"name": "node1", "num_cpus": 1}],
        "deployments": [{"node": "node0", "components": [
            {"xml": make_descriptor_xml("SLO000", cpuusage=0.01,
                                        frequency=10, priority=3)},
            {"xml": make_descriptor_xml("FST000", cpuusage=0.01,
                                        frequency=50, priority=9)}]}],
        "applications": {},
    }
    expected = {"NEW000": [], "QCK000": [("DRT304", "QCK000")]}
    newcomers = {
        "NEW000": make_descriptor_xml("NEW000", cpuusage=0.01,
                                      frequency=5, priority=20),
        "QCK000": make_descriptor_xml("QCK000", cpuusage=0.01,
                                      frequency=100, priority=5),
    }
    for name, xml in newcomers.items():
        verdicts = [view(guard_class(
            StubCluster(document), fail_on=Severity.WARNING)
            .check_deploy([xml], "node0"))
            for guard_class in (PlanGuard, ReferenceGuard)]
        assert verdicts[0] == verdicts[1]
        assert [(code, component) for code, _, component, _, _
                in verdicts[0]] == expected[name]


def node_local_elsewhere(diagnostic, node):
    """Whether ``diagnostic`` is a node-local finding of a node other
    than ``node`` (an inline descriptor's location is
    ``<plan>#<node>[<index>]``)."""
    local = diagnostic.code.startswith(NODE_LOCAL_FAMILIES) \
        or diagnostic.code in NODE_LOCAL_CODES
    return local and "#%s[" % node not in diagnostic.location


@settings(max_examples=60, deadline=None)
@given(plans(), st.integers(min_value=0, max_value=3))
def test_nodes_restricts_only_the_node_local_checks(plan, index):
    document, _, _ = plan
    node = "node%d" % index
    full = lint_plan(document).diagnostics
    restricted = lint_plan(document, nodes=(node,)).diagnostics
    assert view(restricted) == view(
        [d for d in full if not node_local_elsewhere(d, node)])
    assert view(lint_plan(document, nodes=None).diagnostics) \
        == view(full)


# ----------------------------------------------------------------------
# a live fleet: the baseline must stay a full lint
# ----------------------------------------------------------------------
def over_committed_fleet(node_count=3):
    """``node_count`` 2-CPU nodes: node1 carries three 0.6 claims
    (DRT301 with no component, DRT601 for AAA002); node0 carries
    BBB000 at 0.6; the rest are empty."""
    cluster = Cluster(["node%d" % index for index in range(node_count)],
                      seed=3,
                      kernel_config_factory=lambda: KernelConfig(
                          num_cpus=2),
                      heartbeat_interval_ns=10 * MSEC)
    for index in range(3):
        cluster.deploy(make_descriptor_xml(
            "AAA%03d" % index, cpuusage=0.6, frequency=10,
            priority=5 + index), node="node1")
    cluster.deploy(make_descriptor_xml("BBB000", cpuusage=0.6,
                                       frequency=10, priority=5),
                   node="node0")
    cluster.run_for(30 * MSEC)
    return cluster


def guard_verdicts(xml, node, node_count=4):
    """Both guards' verdicts on deploying ``xml`` onto ``node`` of a
    fresh :func:`over_committed_fleet`, whose baseline carries node1's
    DRT301."""
    verdicts = []
    for guard_class in (PlanGuard, ReferenceGuard):
        cluster = over_committed_fleet(node_count)
        try:
            baseline = lint_plan(cluster.export_plan())
            assert [d.location for d in baseline.diagnostics
                    if d.code == "DRT301"] == ["<plan>#node1[0]"]
            verdicts.append(view(guard_class(cluster).check_deploy(
                [xml], node)))
        finally:
            cluster.shutdown()
    assert verdicts[0] == verdicts[1]
    return verdicts[0]


def test_a_new_drt301_beside_one_elsewhere_is_vetoed():
    # A fourth, empty node keeps N-1 room after the deploy, so no
    # DRT602 veto masks the DRT301 this case checks.
    newcomer = make_descriptor_xml("BBB001", cpuusage=0.6,
                                   frequency=10, priority=6)
    # The newcomer over-commits node0's CPU 0: a second DRT301 with no
    # component, told from node1's by its location.
    assert [(code, component, location) for code, _, component,
            location, _ in guard_verdicts(newcomer, "node0")] \
        == [("DRT301", "", "<plan-guard>#node0[0]")]
    cluster = over_committed_fleet(4)
    try:
        cluster.install_plan_guard()
        with pytest.raises(ClusterError, match="DRT301"):
            cluster.deploy(newcomer, node="node0")
        assert "BBB001" not in cluster.deployments
    finally:
        cluster.shutdown()


@pytest.mark.parametrize("node, cpuusage", [("node0", 0.2),
                                            ("node1", 0.1)])
def test_debt_on_one_node_blocks_no_clean_deploy(node, cpuusage):
    # node1's over-committed CPU 0 stays where it was: a deploy that
    # adds nothing over-committed passes, onto node0 or onto node1
    # itself (whose candidate carries the old DRT301 at its old
    # location).
    newcomer = make_descriptor_xml("CCC000", cpuusage=cpuusage,
                                   frequency=10, priority=9, cpu=1)
    assert guard_verdicts(newcomer, node) == []
    cluster = over_committed_fleet(4)
    try:
        cluster.install_plan_guard()
        assert cluster.deploy(newcomer, node=node) == node
        assert cluster.sim.telemetry.registry("lint").get(
            "plan_rejections_total").value == 0
    finally:
        cluster.shutdown()


def test_a_deploy_that_leaves_no_cpu_for_a_survivor_is_vetoed():
    """Three 2-CPU nodes: with BBB001 beside BBB000, node0's CPUs sit
    at 0.6 | 0.6, so losing node1 re-homes AAA000 and AAA001 onto
    node2 and no survivor CPU is left for AAA002 (0.6).  A per-node
    total (1.2 of 2.0 on node0) would still take it.  BBB001 declares
    CPU 1: on CPU 0 it would also over-commit it (DRT301)."""
    newcomer = make_descriptor_xml("BBB001", cpuusage=0.6,
                                   frequency=10, priority=6, cpu=1)
    verdicts = []
    for guard_class in (PlanGuard, ReferenceGuard):
        cluster = over_committed_fleet()
        try:
            verdicts.append(view(guard_class(cluster).check_deploy(
                [newcomer], "node0")))
        finally:
            cluster.shutdown()
    assert verdicts[0] == verdicts[1]
    assert [(code, component) for code, _, component, _, _
            in verdicts[0]] == [("DRT602", "AAA002")]
    cluster = over_committed_fleet()
    try:
        cluster.install_plan_guard()
        with pytest.raises(ClusterError, match="DRT602"):
            cluster.deploy(newcomer, node="node0")
        assert "BBB001" not in cluster.deployments
    finally:
        cluster.shutdown()
