"""docs/ADAPTATION.md's context-parameter table and CONTEXT_PARAMS
must agree row for row.

The doc renders the authoritative catalog; a parameter added to either
side without the other, or a scope flag changed on one side only, is
drift this test catches (the same contract tests/lint/test_docs_drift.py
holds for the DRT code table).
"""

import os
import re

from repro.adapt.context import CONTEXT_PARAMS

DOC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "docs", "ADAPTATION.md")

ROW = re.compile(r"^\|\s*`([a-z0-9_]+)`\s*\|[^|]*\|\s*(yes|no)\s*\|"
                 r"\s*(yes|no)\s*\|", re.M)


def doc_rows():
    with open(DOC, encoding="utf-8") as handle:
        text = handle.read()
    section = text.split("## Context-parameter catalog", 1)[1]
    return ROW.findall(section.split("\n## ", 1)[0])


def test_every_parameter_is_documented_once_and_vice_versa():
    names = [name for name, _, _ in doc_rows()]
    assert sorted(names) == sorted(CONTEXT_PARAMS)


def test_documented_scopes_match_the_catalog():
    for name, node, component in doc_rows():
        entry = CONTEXT_PARAMS[name]
        assert (node == "yes") is entry["node_scoped"], name
        assert (component == "yes") is entry["component_scoped"], name
