"""A wrong-typed value in a rule file or a plan is one coded finding.

Each case once ended ``python -m repro lint FILE`` in a traceback: an
unhashable rule ``op``, a non-finite link latency, an unhashable link
endpoint or deployment node, and a CPU count past any machine.  Each
is now exactly one diagnostic -- DRT500 for a rule file, DRT600 for a
plan -- whose message names the field, and the lint exits 1.
"""

import json
import math

import pytest

from repro.adapt.rules import (
    RuleSchemaError,
    parse_rule_document,
    parse_rule_document_tolerant,
)
from repro.lint.cli import main
from repro.lint.deployment import MAX_NODE_CPUS, PLAN_SCHEMA_VERSION
from repro.lint.engine import lint_paths


def rule_file(op):
    return {"schema_version": 1, "rules": [{
        "name": "guard",
        "when": {"param": "deadline_miss_rate", "op": op, "value": 0.1},
        "then": {"action": "shed_lowest_priority"}}]}


def plan(**extra):
    document = {
        "plan_version": PLAN_SCHEMA_VERSION,
        "nodes": [{"name": "node0", "num_cpus": 1},
                  {"name": "node1", "num_cpus": 1}],
        "deployments": [],
    }
    document.update(extra)
    return document


def lint_one(tmp_path, capsys, document):
    """Lint ``document`` as a ``.json`` file through the CLI: the exit
    status and the findings."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    status = main([str(path)])
    capsys.readouterr()
    return status, lint_paths([str(path)]).diagnostics


def assert_one_finding(status, diagnostics, code, field):
    assert status == 1
    assert [d.code for d in diagnostics] == [code]
    assert field in diagnostics[0].message


@pytest.mark.parametrize("op", [[], {}])
def test_an_unhashable_rule_op_is_drt500(tmp_path, capsys, op):
    document = rule_file(op)
    with pytest.raises(RuleSchemaError, match="'op'"):
        parse_rule_document(document)
    rules, problems = parse_rule_document_tolerant(document)
    assert rules == [] and len(problems) == 1
    status, diagnostics = lint_one(tmp_path, capsys, document)
    assert_one_finding(status, diagnostics, "DRT500", "'op'")


@pytest.mark.parametrize("where", ["default_link", "links"])
def test_an_infinite_link_latency_is_drt600(tmp_path, capsys, where):
    link = {"latency_ns": math.inf}
    if where == "links":
        document = plan(links=[dict(link, src="node0", dst="node1")])
        field = "links[0].latency_ns"
    else:
        document = plan(default_link=link)
        field = "default_link.latency_ns"
    status, diagnostics = lint_one(tmp_path, capsys, document)
    assert_one_finding(status, diagnostics, "DRT600", field)
    assert "finite" in diagnostics[0].message


@pytest.mark.parametrize("endpoint", ["src", "dst"])
def test_an_unhashable_link_endpoint_is_drt600(tmp_path, capsys,
                                               endpoint):
    link = {"src": "node0", "dst": "node1"}
    link[endpoint] = []
    status, diagnostics = lint_one(tmp_path, capsys, plan(links=[link]))
    assert_one_finding(status, diagnostics, "DRT600",
                       "links[0].%s" % endpoint)


def test_an_unhashable_deployment_node_is_drt600(tmp_path, capsys):
    document = plan(deployments=[{"node": [], "components": []}])
    status, diagnostics = lint_one(tmp_path, capsys, document)
    assert_one_finding(status, diagnostics, "DRT600",
                       "deployments[0].node")


@pytest.mark.parametrize("num_cpus", [10 ** 30, MAX_NODE_CPUS + 1])
def test_a_cpu_count_past_the_bound_is_drt600(tmp_path, capsys,
                                              num_cpus):
    document = plan()
    document["nodes"][1]["num_cpus"] = num_cpus
    status, diagnostics = lint_one(tmp_path, capsys, document)
    assert_one_finding(status, diagnostics, "DRT600", "nodes[1].num_cpus")


def test_the_cpu_bound_itself_is_accepted(tmp_path, capsys):
    document = plan()
    document["nodes"][1]["num_cpus"] = MAX_NODE_CPUS
    status, diagnostics = lint_one(tmp_path, capsys, document)
    assert (status, diagnostics) == (0, [])
