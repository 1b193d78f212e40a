"""Content-keyed memo of per-descriptor lint work.

The :class:`~repro.cluster.federation.PlanGuard` parses the whole
fleet's plan on every deploy (and its baseline too when the candidate
has a finding), one plan lint reads every descriptor text twice (plan
parse, then its node's unit), and cluster placement reads the CPU
claim of every deploy still in flight.  The texts repeat: a deployed
component's XML changes only when the DRCR re-pins its CPU
(``runoncpu``).  :func:`descriptor_facts`, a bounded LRU memo keyed on
the descriptor XML text, serves the repeats: the parsed
:class:`~repro.core.descriptor.ComponentDescriptor` (or the
parse-error string), the raw-schema DRT104/DRT107 findings as
location-free ``(code, component, message)`` tuples, and the CPU
claim placement packs (:func:`~repro.core.placement.claim_of`).  Every
descriptor text the engine, the plan parser and the cluster's
placement claims read goes through it; lint callers stamp their own
location on the findings and apply their own ``families`` filter.

It is safe because it is keyed on content and its readers treat
descriptors as read-only: no analyzer assigns to a descriptor or its
contract, so a cached object and a fresh parse give identical
findings.  The cached descriptors are shared between calls; code
must not mutate a descriptor it got from :func:`descriptor_facts` or
:func:`repro.lint.deployment.parse_plan`.  The size is a fixed
constant (docs/PERFORMANCE.md); :func:`clear` empties the memo, for
tests and cold-lint timing.
"""

import collections
import functools

from repro.core.descriptor import ComponentDescriptor, \
    parse_descriptor_tree
from repro.core.errors import DRComError
from repro.core.placement import claim_of
from repro.lint.contracts import tree_findings
from repro.lint.diagnostics import Diagnostic

#: Distinct descriptor texts kept: a fleet's live descriptors plus
#: recent arrivals and departures.
DESCRIPTOR_MEMO_SIZE = 256


class DescriptorFacts(collections.namedtuple(
        "DescriptorFacts", ("descriptor", "error", "schema", "claim"))):
    """What lint knows about one descriptor text.

    ``descriptor`` is the parsed descriptor or None, ``error`` the
    parse-error message when it is None, ``schema`` the DRT104/DRT107
    findings as ``(code, component, message)`` tuples, ``claim`` the
    descriptor's :func:`~repro.core.placement.claim_of` (None without
    a descriptor).
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
        return DescriptorFacts(None, str(error), (), None)
    schema = tuple(tree_findings(root))
    try:
        descriptor = ComponentDescriptor.from_element(root)
    except DRComError as error:
        return DescriptorFacts(None, str(error), schema, None)
    return DescriptorFacts(descriptor, None, schema, claim_of(descriptor))


def clear():
    """Empty the memo (the next lint starts cold)."""
    descriptor_facts.cache_clear()
