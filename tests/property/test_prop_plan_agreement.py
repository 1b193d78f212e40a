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
  CPUs per node: both choose a survivor whose CPUs can place a group
  through :func:`~repro.core.placement.best_node`, and every component
  failover reports moved ends ACTIVE.  DRT602 re-homes in plan (name)
  order and failover in deploy order, and names out of deploy order
  can strand different components; the cases here name components in
  deploy order so the two orders agree.

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
                  st.integers(min_value=0, max_value=9).map(
                      lambda roll: roll < 3)),
        min_size=1, max_size=10))
    return num_cpus, cap, claims


@st.composite
def fleet_cases(draw):
    """2-4 nodes of 1-3 CPUs each (one count per fleet); each deploy
    is one component or a 2-3 member application, homed on a node
    whose total it fits within ``num_cpus`` x cap 1.0 (its CPUs may
    still leave a member unplaced)."""
    num_cpus = draw(st.integers(min_value=1, max_value=3))
    node_count = draw(st.integers(min_value=2, max_value=4))
    loads = [0] * node_count
    deploys = []
    for _ in range(draw(st.integers(min_value=4, max_value=16))):
        node = draw(st.integers(min_value=0, max_value=node_count - 1))
        members = draw(st.lists(claims_milli, min_size=1,
                                max_size=draw(st.sampled_from(
                                    [1, 1, 2, 3]))))
        if loads[node] + sum(members) <= 1000 * num_cpus:
            loads[node] += sum(members)
            deploys.append((node, members))
    return num_cpus, node_count, deploys


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
        num_cpus, node_count, deploys = case
        names = ["node%d" % index for index in range(node_count)]
        cluster = Cluster(names, seed=5,
                          kernel_config_factory=lambda: KernelConfig(
                              num_cpus=num_cpus))
        index = 0
        for app, (node, members) in enumerate(deploys):
            xmls = []
            for milli in members:
                xmls.append(component_xml(index, milli))
                index += 1
            if len(xmls) == 1:
                cluster.deploy(xmls[0], node=names[node])
            else:
                cluster.deploy_application("APP%02d" % app, xmls,
                                           node=names[node])
        cluster.run_for(50 * MSEC)
        prefix = "losing node 'node0' "
        stranded = set()
        for group, message in flagged(cluster.export_plan(), "DRT602"):
            if message.startswith(prefix):
                stranded.update(group.split(", "))

        cluster.crash_node("node0")
        cluster.run_for(300 * MSEC)
        report = cluster.failovers[-1]
        assert report["node"] == "node0"
        assert stranded == set(report["unplaced"])
        for name, home in report["moved"].items():
            assert cluster.node(home).drcr.component_state(name) \
                is ComponentState.ACTIVE
