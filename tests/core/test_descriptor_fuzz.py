"""Fuzz: a malformed descriptor is a coded error, never a traceback.

Seeds are the descriptor literals the shipped examples carry (what
``repro lint examples/`` reads) and the paper's Figure 2.  A mutant
replaces one attribute value, drops one attribute, or deletes or
inserts one byte.  Whatever the mutant, ``ComponentDescriptor.from_xml``
returns a descriptor or raises a ``DRComError``, and
``lint_descriptor_texts`` returns its findings; and a bundle listing the
mutant before a healthy descriptor still registers the healthy
component.
"""

import glob
import os
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.descriptor import ComponentDescriptor
from repro.core.errors import DRComError
from repro.lint.engine import extract_descriptor_literals, \
    lint_descriptor_texts
from repro.platform import build_platform
from repro.rtos.kernel import KernelConfig
from repro.rtos.latency import NullLatencyModel

from conftest import make_descriptor_xml
from test_descriptor import PAPER_FIGURE_2

EXAMPLES = os.path.join(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))), "examples")


def example_literals():
    literals = []
    for path in sorted(glob.glob(os.path.join(EXAMPLES, "*.py"))):
        with open(path, encoding="utf-8") as handle:
            literals.extend(text for _, text in
                            extract_descriptor_literals(handle.read()))
    return literals


SEEDS = example_literals() + [PAPER_FIGURE_2]

#: Replacement values: empty, words, floats where ints go, negatives,
#: zero, non-finite and out-of-range rates, and a kernel plumbing name.
VALUES = ["", "high", "1.5e6", "2.0", "-1", "0", "inf", "nan", "3e9",
          "$C0000"]

_ATTRIBUTE = re.compile(r'([\w:]+)\s*=\s*"([^"]*)"')

HEALTHY = make_descriptor_xml("HLTHY0", cpuusage=0.05, frequency=100,
                              priority=3)


@st.composite
def mutants(draw):
    seed = draw(st.sampled_from(SEEDS))
    kind = draw(st.sampled_from(["replace", "drop", "delete", "insert"]))
    if kind in ("replace", "drop"):
        match = draw(st.sampled_from(list(_ATTRIBUTE.finditer(seed))))
        if kind == "drop":
            return seed[:match.start()] + seed[match.end():]
        value = draw(st.sampled_from(VALUES) | st.text(max_size=8))
        return seed[:match.start(2)] + value + seed[match.end(2):]
    if kind == "delete":
        index = draw(st.integers(min_value=0, max_value=len(seed) - 1))
        return seed[:index] + seed[index + 1:]
    index = draw(st.integers(min_value=0, max_value=len(seed)))
    byte = chr(draw(st.integers(min_value=0, max_value=255)))
    return seed[:index] + byte + seed[index:]


@settings(max_examples=300, deadline=None)
@given(mutants())
def test_a_mutant_parses_or_is_a_coded_error(text):
    assert len(SEEDS) == 9  # eight example literals and Figure 2
    try:
        ComponentDescriptor.from_xml(text)
    except DRComError:
        pass
    lint_descriptor_texts([("mutant.xml", text)])


@settings(max_examples=25, deadline=None)
@given(mutants())
def test_a_mutant_never_costs_its_bundle_the_healthy_component(text):
    platform = build_platform(seed=7, kernel_config=KernelConfig(
        latency_model=NullLatencyModel()))
    try:
        platform.install_and_start(
            {"Bundle-SymbolicName": "fuzz.bundle",
             "RT-Component": "OSGI-INF/a.xml, OSGI-INF/b.xml"},
            resources={"OSGI-INF/a.xml": text, "OSGI-INF/b.xml": HEALTHY})
        assert platform.drcr.registry.maybe_get("HLTHY0") is not None
        assert not [event for event in platform.framework.framework_events
                    if event.error is not None]
    finally:
        platform.shutdown()
