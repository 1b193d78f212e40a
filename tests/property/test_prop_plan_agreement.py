"""Property: the DRT601/DRT602 plan analyzers agree with the runtime.

``docs/STATIC_ANALYSIS.md`` promises that DRT6xx re-derives placement
and failover with the runtime's own math, so the linter and the
runtime cannot disagree.  These properties check the promise on random
fleets:

* **DRT601** flags exactly the components a single platform leaves
  non-ACTIVE when the plan's descriptors deploy in plan order under
  ``UtilizationBoundPolicy(cap)`` and ``BestFitPlacement(cap)``;
* **DRT602** strands, for the loss of ``node0``, exactly the
  components a live :class:`~repro.cluster.federation.Cluster`'s
  failover reports unplaced once ``node0`` crashes, on fleets of 1-3
  CPUs per node with some members pinned: both choose a survivor
  whose CPUs can place a group through
  :func:`~repro.core.placement.best_node` (a pinned claim only on its
  own CPU), both re-home in name order, and every component failover
  reports moved ends ACTIVE.  On one-CPU fleets the names are drawn
  out of deploy order.  Multi-CPU fleets name components in deploy
  order: DRT601 replays a node's CPU choices in plan (name) order,
  while the node admitted its components in deploy order, so the
  per-CPU loads the two re-home onto can differ (ROADMAP item 10).

Claims have three decimals, so a true load either equals a cap or
misses it by at least 0.001: the verdicts do not hinge on float
rounding.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.core import ComponentState, UtilizationBoundPolicy
from repro.core.placement import BestFitPlacement
from repro.lint import lint_plan
from repro.lint.deployment import PLAN_SCHEMA_VERSION
from repro.platform import build_platform
from repro.rtos.kernel import KernelConfig
from repro.rtos.latency import NullLatencyModel
from repro.sim.engine import MSEC

from conftest import deploy, make_descriptor_xml

PINNED = [("drcom.placement", "String", "pinned")]

claims_milli = st.integers(min_value=50, max_value=600)

#: Three claims in ten are ``drcom.placement=pinned``.
pinned_flags = st.integers(min_value=0, max_value=9).map(
    lambda roll: roll < 3)


def component_xml(index, milli, cpu=0, pinned=False):
    # 10 Hz keeps the simulated time cheap; placement reads only the
    # claim.
    return make_descriptor_xml(
        "P%05d" % index, cpuusage=milli / 1000, frequency=10,
        priority=1 + index, cpu=cpu,
        properties=PINNED if pinned else ())


def flagged(document, code):
    """Components named by ``code`` findings, per finding message."""
    result = lint_plan(document, families=("deployment",))
    return [(d.component, d.message) for d in result.diagnostics
            if d.code == code]


@st.composite
def hosting_cases(draw):
    """One node: CPU count, cap and ``(milli, cpu, pinned)`` claims."""
    num_cpus = draw(st.integers(min_value=1, max_value=3))
    cap = draw(st.sampled_from([1.0, 0.9, 0.75]))
    claims = draw(st.lists(
        st.tuples(claims_milli,
                  st.integers(min_value=0, max_value=num_cpus - 1),
                  pinned_flags),
        min_size=1, max_size=10))
    return num_cpus, cap, claims


@st.composite
def fleet_cases(draw, cpu_counts=st.integers(min_value=1, max_value=3),
                shuffle_names=False):
    """2-4 nodes of ``cpu_counts`` CPUs each (one count per fleet);
    each deploy is one component or a 2-3 member application, homed
    on a node whose total it fits within ``num_cpus`` x cap 1.0 (its
    CPUs may still leave a member unplaced).  A member is ``(milli,
    cpu, pinned)``; ``numbers[i]`` names the i-th member deployed,
    counting up unless ``shuffle_names``."""
    num_cpus = draw(cpu_counts)
    node_count = draw(st.integers(min_value=2, max_value=4))
    member = st.tuples(
        claims_milli, st.integers(min_value=0, max_value=num_cpus - 1),
        pinned_flags)
    loads = [0] * node_count
    deploys = []
    for _ in range(draw(st.integers(min_value=4, max_value=16))):
        node = draw(st.integers(min_value=0, max_value=node_count - 1))
        members = draw(st.lists(member, min_size=1,
                                max_size=draw(st.sampled_from(
                                    [1, 1, 2, 3]))))
        total = sum(milli for milli, _, _ in members)
        if loads[node] + total <= 1000 * num_cpus:
            loads[node] += total
            deploys.append((node, members))
    numbers = list(range(sum(len(members) for _, members in deploys)))
    if shuffle_names:
        numbers = draw(st.permutations(numbers))
    return num_cpus, node_count, deploys, numbers


def assert_failover_agrees(num_cpus, node_count, deploys, numbers):
    """Deploy ``deploys``, lose ``node0``: DRT602 strands exactly what
    failover leaves unplaced, and everything failover moved is
    ACTIVE."""
    names = ["node%d" % index for index in range(node_count)]
    cluster = Cluster(names, seed=5,
                      kernel_config_factory=lambda: KernelConfig(
                          num_cpus=num_cpus))
    numbered = iter(numbers)
    try:
        for app, (node, members) in enumerate(deploys):
            xmls = [component_xml(next(numbered), milli, cpu, pinned)
                    for milli, cpu, pinned in members]
            if len(xmls) == 1:
                cluster.deploy(xmls[0], node=names[node])
            else:
                cluster.deploy_application("APP%02d" % app, xmls,
                                           node=names[node])
        cluster.run_for(50 * MSEC)
        assert stranded_by_losing(cluster, "node0") \
            == set(failover_of(cluster, "node0")["unplaced"])
    finally:
        cluster.shutdown()


def stranded_by_losing(cluster, node):
    """Components DRT602 says the live fleet's plan strands if
    ``node`` is lost."""
    prefix = "losing node %r " % (node,)
    stranded = set()
    for group, message in flagged(cluster.export_plan(), "DRT602"):
        if message.startswith(prefix):
            stranded.update(group.split(", "))
    return stranded


def failover_of(cluster, node):
    """Crash ``node``, let membership declare it dead, check every
    component failover moved is ACTIVE, and return the report."""
    cluster.crash_node(node)
    cluster.run_for(300 * MSEC)
    report = cluster.failovers[-1]
    assert report["node"] == node
    for name, home in report["moved"].items():
        assert cluster.node(home).drcr.component_state(name) \
            is ComponentState.ACTIVE
    return report


class TestPlanAgreement:
    @settings(max_examples=100, deadline=None)
    @given(hosting_cases())
    def test_drt601_flags_what_admission_rejects(self, case):
        num_cpus, cap, claims = case
        xmls = [component_xml(index, milli, cpu, pinned)
                for index, (milli, cpu, pinned) in enumerate(claims)]
        document = {
            "plan_version": PLAN_SCHEMA_VERSION,
            "nodes": [{"name": "node0", "num_cpus": num_cpus,
                       "cap": cap}],
            "deployments": [{"node": "node0", "components": [
                {"xml": xml} for xml in xmls]}],
        }
        linted = {name for name, _ in flagged(document, "DRT601")}

        platform = build_platform(
            seed=1,
            kernel_config=KernelConfig(
                num_cpus=num_cpus, latency_model=NullLatencyModel()),
            internal_policy=UtilizationBoundPolicy(cap=cap))
        platform.drcr.placement_service = BestFitPlacement(cap=cap)
        platform.start_timer(1 * MSEC)
        for xml in xmls:
            deploy(platform, xml)
        rejected = {
            "P%05d" % index for index in range(len(claims))
            if platform.drcr.component_state("P%05d" % index)
            is not ComponentState.ACTIVE}
        assert linted == rejected

    @settings(max_examples=60, deadline=None)
    @given(fleet_cases())
    def test_drt602_strands_what_failover_leaves_unplaced(self, case):
        assert_failover_agrees(*case)

    @settings(max_examples=60, deadline=None)
    @given(fleet_cases(cpu_counts=st.just(1), shuffle_names=True))
    def test_drt602_and_failover_agree_whatever_the_name_order(
            self, case):
        assert_failover_agrees(*case)

    def test_both_strand_the_same_component_of_an_over_full_node(self):
        # ROADMAP item 10's example: deployed BBB000 then AAA000, but
        # both re-home AAA000 first, which leaves node1 no room for
        # BBB000.
        cluster = Cluster(("node0", "node1"), seed=5)
        try:
            for name, milli, node in (("BBB000", 300, "node0"),
                                      ("AAA000", 500, "node0"),
                                      ("CCC000", 500, "node1")):
                cluster.deploy(make_descriptor_xml(
                    name, cpuusage=milli / 1000, frequency=10),
                    node=node)
            cluster.run_for(50 * MSEC)
            assert stranded_by_losing(cluster, "node0") == {"BBB000"}
            report = failover_of(cluster, "node0")
            assert report["unplaced"] == ["BBB000"]
            assert report["moved"] == {"AAA000": "node1"}
        finally:
            cluster.shutdown()
