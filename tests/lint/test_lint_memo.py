"""The lint memo (repro.lint.memo) never changes what lint reports.

Every case lints once cold (memo cleared) and once warm and requires
the two to agree on code, severity, component, location and message.
The cases cover the plan kinds the PlanGuard sees, descriptors that
fail to parse, one XML text linted under several locations, a family
filter applied to a cache warmed with every family, and a PlanGuard
veto sequence replayed with the memo cleared before every check.
"""

import copy
import json
import os

import pytest

from repro.cluster import Cluster
from repro.cluster.federation import ClusterError
from repro.core.descriptor import ComponentDescriptor
from repro.core.errors import DRComError
from repro.lint import lint_paths, lint_plan, memo
from repro.lint.engine import lint_descriptor_texts
from repro.sim.engine import MSEC
from repro.workloads import PLAN_DEFECT_CODES, generate_defective_plan

from conftest import make_descriptor_xml

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
EXAMPLE_PLAN = os.path.join(REPO, "examples", "cluster_plan.json")

#: Parses, but carries a DRT107 typo (``frequencyy``) and a DRT104
#: frequency on a non-periodic task: raw-schema findings the memo
#: stores without a location.
SCHEMA_XML = """<drt:component name="SCH000" type="aperiodic"
    enabled="true" cpuusage="0.1" colour="red">
  <implementation bincode="memo.Schema"/>
  <aperiodictask runoncpu="0" priority="3" frequencyy="10"
      frequency="5"/>
</drt:component>"""

BROKEN_XML = '<drt:component name="BRK000" type="periodic"'


def view(diagnostics):
    return [(d.code, d.severity, d.component, d.location, d.message)
            for d in diagnostics]


def cold_then_warm(lint):
    """``lint()`` with the memo cleared, then again warm."""
    memo.clear()
    cold = view(lint())
    warm = view(lint())
    return cold, warm


def plan_of(*node_xmls):
    """A plan with one node per list of descriptor texts."""
    return {
        "plan_version": 1,
        "nodes": [{"name": "node%d" % index, "num_cpus": 1}
                  for index in range(len(node_xmls))],
        "deployments": [
            {"node": "node%d" % index,
             "components": [{"xml": xml} for xml in xmls]}
            for index, xmls in enumerate(node_xmls)],
    }


@pytest.fixture(autouse=True)
def cold_memo():
    memo.clear()
    yield
    memo.clear()


@pytest.mark.parametrize("kind", sorted(PLAN_DEFECT_CODES))
def test_defective_plans_lint_alike_cold_and_warm(kind):
    document, expected = generate_defective_plan(kind)
    cold, warm = cold_then_warm(
        lambda: lint_plan(document).diagnostics)
    assert cold == warm
    assert expected in {code for code, *_ in cold}


def test_example_plan_lints_alike_cold_and_warm():
    with open(EXAMPLE_PLAN, encoding="utf-8") as handle:
        document = json.load(handle)
    cold, warm = cold_then_warm(
        lambda: lint_plan(document, location=EXAMPLE_PLAN).diagnostics)
    assert cold == warm
    from_file = view(lint_paths([EXAMPLE_PLAN]).diagnostics)
    assert from_file == cold


def test_unparseable_inline_descriptor_keeps_its_messages():
    with pytest.raises(DRComError) as excinfo:
        ComponentDescriptor.from_xml(BROKEN_XML)
    error = str(excinfo.value)
    good = make_descriptor_xml("GOO000", cpuusage=0.1)
    document = plan_of([good, BROKEN_XML])
    cold, warm = cold_then_warm(lambda: lint_plan(document).diagnostics)
    assert cold == warm
    location = "<plan>#node0[1]"
    messages = {(code, message) for code, _, _, _, message in cold}
    assert ("DRT100", error) in messages
    assert ("DRT600", "deployments[0]: descriptor at %s fails to parse "
            "and is excluded from the plan analysis: %s"
            % (location, error)) in messages
    assert [entry[3] for entry in cold if entry[0] == "DRT100"] \
        == [location]


def test_same_xml_carries_each_callers_location():
    texts = [("a.xml", SCHEMA_XML), ("b.xml", SCHEMA_XML)]
    cold, warm = cold_then_warm(lambda: lint_descriptor_texts(texts))
    assert cold == warm
    schema = [(code, location) for code, _, _, location, _ in cold
              if code in ("DRT104", "DRT107")]
    assert sorted(schema) == [
        ("DRT104", "a.xml"), ("DRT104", "b.xml"),
        ("DRT107", "a.xml"), ("DRT107", "a.xml"),
        ("DRT107", "b.xml"), ("DRT107", "b.xml")]


def test_same_xml_on_two_nodes_reports_each_node():
    # One plan per home: a component has one home per plan, so the
    # second lint runs warm on the text the first one cached.
    other = make_descriptor_xml("OTH000", cpuusage=0.1)
    on_node0 = plan_of([SCHEMA_XML], [other])
    on_node1 = plan_of([other], [SCHEMA_XML])
    memo.clear()
    first = view(lint_plan(on_node0).diagnostics)
    second = view(lint_plan(on_node1).diagnostics)
    memo.clear()
    assert view(lint_plan(on_node1).diagnostics) == second

    def schema_locations(findings):
        return {location for code, _, _, location, _ in findings
                if code in ("DRT104", "DRT107")}

    assert schema_locations(first) == {"<plan>#node0[0]"}
    assert schema_locations(second) == {"<plan>#node1[0]"}


def test_family_filter_applies_after_a_warm_lookup():
    document = plan_of([SCHEMA_XML, BROKEN_XML])
    everything = view(lint_plan(document).diagnostics)
    assert any(code.startswith("DRT1") for code, *_ in everything)
    warm = view(lint_plan(document, families=("deployment",))
                .diagnostics)
    assert not any(code.startswith("DRT1") for code, *_ in warm)
    memo.clear()
    cold = view(lint_plan(document, families=("deployment",))
                .diagnostics)
    assert warm == cold


def test_memos_are_bounded_and_serve_repeat_lints():
    document, _ = generate_defective_plan("overcommit")
    lint_plan(document)
    before = memo.descriptor_facts.cache_info()
    lint_plan(document)
    after = memo.descriptor_facts.cache_info()
    assert after.misses == before.misses
    assert after.hits > before.hits
    assert after.maxsize == memo.DESCRIPTOR_MEMO_SIZE


# ----------------------------------------------------------------------
# PlanGuard: verdicts with a warm memo equal verdicts from cold lints
# ----------------------------------------------------------------------
PORT = ("MPT000", "RTAI.SHM", "Integer", 2)


def wired_app():
    """A 0.5-claim wired application: beside one 0.3 component per
    one-CPU node, it leaves no N-1 failover capacity (DRT602)."""
    return [
        make_descriptor_xml("WIR000", cpuusage=0.25, frequency=10,
                            priority=20, outports=[PORT]),
        make_descriptor_xml("WIR001", cpuusage=0.25, frequency=10,
                            priority=21, inports=[PORT]),
    ]


def guarded_sequence(clear_before_check):
    """Verdicts of a fixed check/deploy sequence on a guarded fleet."""
    cluster = Cluster(("node0", "node1"), seed=11,
                      heartbeat_interval_ns=10 * MSEC)
    verdicts = []
    try:
        cluster.deploy(make_descriptor_xml("BAS000", cpuusage=0.3,
                                           priority=5), node="node0")
        cluster.deploy(make_descriptor_xml("BAS001", cpuusage=0.3,
                                           priority=5), node="node1")
        cluster.run_for(30 * MSEC)
        guard = cluster.install_plan_guard()
        wired = wired_app()
        steps = [
            ("check", [make_descriptor_xml("TIN000", cpuusage=0.05,
                                           priority=9)], "node0"),
            ("deploy", make_descriptor_xml("TIN000", cpuusage=0.05,
                                           priority=9), "node0"),
            ("check", wired, "node0"),
            ("check", [BROKEN_XML], "node1"),
            ("check", [SCHEMA_XML], "node1"),
            ("deploy", make_descriptor_xml("TIN001", cpuusage=0.05,
                                           priority=9), "node1"),
            ("check", wired, "node1"),
            ("check", [make_descriptor_xml("HOG000", cpuusage=0.9,
                                           priority=4)], "node0"),
        ]
        for action, payload, node in steps:
            if clear_before_check:
                memo.clear()
            if action == "check":
                verdicts.append(view(guard.check_deploy(payload, node)))
            else:
                try:
                    verdicts.append(cluster.deploy(payload, node=node))
                except ClusterError as error:
                    verdicts.append(str(error))
            cluster.run_for(5 * MSEC)
    finally:
        cluster.shutdown()
    return verdicts


def test_plan_guard_verdicts_match_cold_lints():
    warm = guarded_sequence(clear_before_check=False)
    cold = guarded_sequence(clear_before_check=True)
    assert warm == cold
    vetoed = [verdict for verdict in warm
              if isinstance(verdict, list) and verdict]
    assert vetoed, "the sequence must include vetoed checks"


def test_plan_guard_exports_once_and_keeps_baseline_intact(
        monkeypatch):
    cluster = Cluster(("node0", "node1"), seed=11,
                      heartbeat_interval_ns=10 * MSEC)
    try:
        cluster.deploy(make_descriptor_xml("BAS000", cpuusage=0.3,
                                           priority=5), node="node0")
        cluster.deploy(make_descriptor_xml("BAS001", cpuusage=0.3,
                                           priority=5), node="node1")
        guard = cluster.install_plan_guard()
        exports = []
        export_plan = cluster.export_plan

        def counting_export(*args, **kwargs):
            plan = export_plan(*args, **kwargs)
            exports.append((plan, copy.deepcopy(plan)))
            return plan

        linted = []
        lint = guard._lint

        def recording_lint(document, nodes=None):
            linted.append((document, nodes))
            return lint(document, nodes=nodes)

        monkeypatch.setattr(cluster, "export_plan", counting_export)
        monkeypatch.setattr(guard, "_lint", recording_lint)

        def check(xmls, application, members):
            exports.clear()
            linted.clear()
            verdict = guard.check_deploy(xmls, "node0",
                                         application=application,
                                         members=members)
            assert len(exports) == 1
            exported, snapshot = exports[0]
            assert exported == snapshot  # the candidate copied, not shared
            candidate, nodes = linted[0]
            assert candidate is not exported and nodes == ("node0",)
            node0 = [d for d in candidate["deployments"]
                     if d["node"] == "node0"][0]
            return verdict, exported, candidate, node0

        # A clean candidate is the only lint.
        verdict, _, candidate, node0 = check(
            [make_descriptor_xml("NEW000", cpuusage=0.1)], "app",
            ["BAS000", "NEW000"])
        assert verdict == [] and len(linted) == 1
        assert len(node0["components"]) == 2
        assert candidate["applications"]["app"] == ["BAS000", "NEW000"]

        # A vetoed candidate is linted first, then the untouched
        # export, in full.
        verdict, exported, candidate, node0 = check(
            wired_app(), "wapp", ["WIR000", "WIR001"])
        assert {d.code for d in verdict} == {"DRT602"}
        assert len(linted) == 2
        baseline, nodes = linted[1]
        assert baseline is exported and nodes is None
        assert len(node0["components"]) == 3
        assert candidate["applications"]["wapp"] == ["WIR000", "WIR001"]
    finally:
        cluster.shutdown()
