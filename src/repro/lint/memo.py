"""Content-keyed memo of per-descriptor and per-unit lint work.

The XML of a deployed component never changes, yet the
:class:`~repro.cluster.federation.PlanGuard` parses the whole fleet's
plan on every deploy (and lints its baseline too when the candidate
has a finding), and one plan lint reads every descriptor text twice
(plan parse, then its node's unit).  Two bounded LRU memos serve the
repeats:

* :func:`descriptor_facts` -- keyed on the descriptor XML text: the
  parsed :class:`~repro.core.descriptor.ComponentDescriptor` (or the
  parse-error string) and the raw-schema DRT104/DRT107 findings as
  location-free ``(code, component, message)`` tuples.  Every
  descriptor text the engine and the plan parser read goes through
  it; callers stamp their own location on the findings and apply
  their own ``families`` filter.
* :func:`unit_findings` -- keyed on one plan node's unit, the tuple
  of ``(location, xml)`` pairs, plus the node families: its
  contract/wiring/admission diagnostics.  A node's unit is unchanged
  until a component arrives on or leaves it, so repeat lints of the
  same fleet -- a vetoed deploy's full baseline, a failover lint,
  ``lint_warm_ms`` in ``benchmarks/test_scaling_lint.py`` -- hit it.

Both are safe because they are keyed on content and lint treats
descriptors and diagnostics as read-only: no analyzer assigns to a
descriptor, its contract or a diagnostic, so a cached object and a
fresh parse give identical findings.  The cached descriptors are
shared between lint calls; code outside :mod:`repro.lint` must not
mutate a descriptor it got from :func:`repro.lint.deployment
.parse_plan`.  Sizes are fixed constants (docs/PERFORMANCE.md);
:func:`clear` empties both memos, for tests and cold-lint timing.
"""

import collections
import functools

from repro.core.descriptor import ComponentDescriptor, \
    parse_descriptor_tree
from repro.core.errors import DRComError
from repro.lint.contracts import tree_findings
from repro.lint.diagnostics import Diagnostic

#: Distinct descriptor texts kept: a fleet's live descriptors plus
#: recent arrivals and departures.
DESCRIPTOR_MEMO_SIZE = 256

#: Node units kept: one per node of the last few plans linted.
UNIT_MEMO_SIZE = 32


class DescriptorFacts(collections.namedtuple(
        "DescriptorFacts", ("descriptor", "error", "schema"))):
    """What lint knows about one descriptor text.

    ``descriptor`` is the parsed descriptor or None, ``error`` the
    parse-error message when it is None, ``schema`` the DRT104/DRT107
    findings as ``(code, component, message)`` tuples.
    """

    __slots__ = ()

    def schema_diagnostics(self, location):
        """The raw-schema findings stamped with ``location``."""
        return [Diagnostic(code, component, location, message)
                for code, component, message in self.schema]


@functools.lru_cache(maxsize=DESCRIPTOR_MEMO_SIZE)
def descriptor_facts(text):
    """The :class:`DescriptorFacts` of one descriptor text (one XML
    parse on a miss).  Errors other than :class:`DRComError`
    propagate and are not cached, exactly as from
    :meth:`ComponentDescriptor.from_xml`."""
    try:
        root = parse_descriptor_tree(text)
    except DRComError as error:
        return DescriptorFacts(None, str(error), ())
    schema = tuple(tree_findings(root))
    try:
        descriptor = ComponentDescriptor.from_element(root)
    except DRComError as error:
        return DescriptorFacts(None, str(error), schema)
    return DescriptorFacts(descriptor, None, schema)


@functools.lru_cache(maxsize=UNIT_MEMO_SIZE)
def _unit_findings(unit, families):
    # Local import: the engine imports this module at load time.
    from repro.lint.engine import lint_descriptor_texts
    return tuple(lint_descriptor_texts(unit, families))


def unit_findings(unit, families):
    """:func:`~repro.lint.engine.lint_descriptor_texts` of one plan
    node's unit (a tuple of ``(location, xml)`` pairs) under the
    ``families`` tuple, memoized; a fresh list on every call."""
    return list(_unit_findings(unit, families))


def clear():
    """Empty both memos (the next lint starts cold)."""
    descriptor_facts.cache_clear()
    _unit_findings.cache_clear()
