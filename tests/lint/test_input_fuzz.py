"""Fuzz: a wrong-typed value in a shipped JSON input is a coded error.

The inputs are the shipped rule file, the shipped deployment plan and
the built-in fault plan.  A mutant replaces one value anywhere in the
document by one of :data:`REPLACEMENTS`, or deletes one object key:
every single-point structural mutant, each tried once.

Whatever the mutant, ``python -m repro lint`` on the rule file or the
plan returns its findings (DRT5xx, DRT6xx and the families a plan's
descriptors run), the strict rule parser returns rules or raises
``RuleSchemaError``, and ``FaultPlan.from_dict`` returns a plan or
raises ``FaultPlanError``: never any other exception.
"""

import copy
import json
import math
import os
import shutil

import pytest

from repro.adapt.rules import RuleSchemaError, parse_rule_document
from repro.faults.plan import FaultPlan, FaultPlanError, example_plan
from repro.lint.engine import lint_paths

EXAMPLES = os.path.join(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))), "examples")
RULES = os.path.join(EXAMPLES, "settopbox.rules.json")
PLAN = os.path.join(EXAMPLES, "cluster_plan.json")

#: What each value is replaced by in turn: null, a bool, zero, a
#: negative, a float where ints go, the float extremes, non-finite
#: floats (Python's ``json`` reads ``Infinity`` and ``NaN``), empty
#: string, list and object, and an int past any float.
REPLACEMENTS = (None, True, 0, -1, 1.5, 1e308, -1e308, math.inf,
                math.nan, "", [], {}, 10 ** 30)

DELETE = object()


def paths(node, path=()):
    """Every value's path in a JSON document, the root first."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from paths(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from paths(value, path + (index,))


def mutated(document, path, value):
    """A copy of ``document`` with the value at ``path`` replaced (or,
    for :data:`DELETE`, its key removed)."""
    if not path:
        return value
    mutant = copy.deepcopy(document)
    parent = mutant
    for step in path[:-1]:
        parent = parent[step]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return mutant


def mutants(document):
    """``(description, mutant)`` for every single-point mutant."""
    for path in paths(document):
        for value in REPLACEMENTS:
            yield "%r = %r" % (path, value), mutated(document, path, value)
        if path and isinstance(path[-1], str):
            yield "del %r" % (path,), mutated(document, path, DELETE)


def load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def crashes(document, check):
    """The mutants ``check`` raised on, with the exception."""
    found = []
    for description, mutant in mutants(document):
        try:
            check(mutant)
        except Exception as error:  # noqa: BLE001 -- the finding
            found.append("%s: %r" % (description, error))
    return found


@pytest.fixture
def lint_json(tmp_path):
    """Lint a document written as one ``.json`` file, the shipped rule
    file beside it (the plan names it by relative path)."""
    shutil.copy(RULES, tmp_path / os.path.basename(RULES))
    target = tmp_path / "mutant.json"

    def run(document):
        target.write_text(json.dumps(document), encoding="utf-8")
        return lint_paths([str(target)])
    return run


def test_the_mutant_space_is_exhaustive():
    rules = list(mutants(load(RULES)))
    plan = list(mutants(load(PLAN)))
    faults = list(mutants(example_plan().to_dict()))
    assert len(rules) > 400 and len(plan) > 700 and len(faults) > 400


def test_a_rule_file_mutant_is_a_coded_error(lint_json):
    def check(mutant):
        try:
            parse_rule_document(mutant)
        except RuleSchemaError:
            pass
        lint_json(mutant)
    assert crashes(load(RULES), check) == []


def test_a_plan_mutant_is_a_coded_error(lint_json):
    assert crashes(load(PLAN), lint_json) == []


def test_a_fault_plan_mutant_is_a_coded_error():
    def check(mutant):
        try:
            FaultPlan.from_dict(mutant)
        except FaultPlanError:
            pass
    assert crashes(example_plan().to_dict(), check) == []
