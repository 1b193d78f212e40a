"""DRT1xx -- contract analyzers.

Per-descriptor and cross-descriptor checks over the declarative layer:
schema violations the tolerant parser glosses over, RTAI name
collisions and truncations, priorities outside the scheduler range and
degenerate CPU claims.  Everything here runs on descriptor *text* and
:class:`~repro.core.descriptor.ComponentDescriptor` objects -- no
Framework, no DRCR, no kernel.  The schema checks (DRT104/DRT107) read
the parser's own vocabulary table,
:data:`repro.core.descriptor.SCHEMA`, so they cannot drift from what
the parser accepts.
"""

from repro.core.descriptor import FREQUENCY, SCHEMA, TASK_ELEMENTS, \
    local_tag
from repro.lint.diagnostics import Diagnostic
from repro.rtos import names as rtai_names
from repro.rtos.errors import InvalidTaskNameError

#: RTAI's lowest real-time priority (RT_SCHED_LOWEST_PRIORITY): the
#: scheduler accepts priorities in ``[0, MAX_SCHEDULER_PRIORITY]``,
#: smaller number = higher priority.
MAX_SCHEDULER_PRIORITY = 0x3FFFFFFF

#: Every spelling each descriptor element accepts; anything else is
#: silently dropped by the tolerant parser -- exactly the "schema
#: violation beyond parse errors" DRT107 exists for.
_SPELLINGS = {
    tag: frozenset(spelling for attribute in attributes
                   for spelling in attribute.spellings)
    for tag, attributes in SCHEMA.items()
}


def tree_findings(root):
    """Raw-XML schema checks on one descriptor element tree
    (DRT104/107), from :func:`~repro.core.descriptor
    .parse_descriptor_tree`.

    Runs on the element tree *before* descriptor construction, so it
    sees exactly what the tolerant parser would throw away.  Returns
    location-free ``(code, component, message)`` tuples: the lint memo
    (:mod:`repro.lint.memo`) stores them per descriptor text and each
    caller stamps its own location on.
    """
    findings = []
    component = root.attrib.get("name", "")
    elements = [root] + list(root)
    for child in root:
        if local_tag(child.tag) == "stochastic":
            # Distribution clauses nest one level deeper; their typo'd
            # attributes are just as silently dropped.
            elements.extend(child)
    for element in elements:
        tag = local_tag(element.tag)
        known = _SPELLINGS.get(tag)
        if known is None:
            continue  # unknown elements fail descriptor parse (DRT100)
        for raw_name in element.attrib:
            attr = local_tag(raw_name)
            if attr in known:
                continue
            if tag in TASK_ELEMENTS.values() \
                    and attr in FREQUENCY.spellings:
                findings.append((
                    "DRT104", component,
                    "<%s> declares %s=%r but only periodic tasks "
                    "have a frequency; the runtime ignores it"
                    % (tag, attr, element.attrib[raw_name])))
                continue
            findings.append((
                "DRT107", component,
                "<%s> attribute %r is not part of the descriptor "
                "schema; the parser silently ignores it"
                % (tag, attr)))
    return findings


def check_descriptor(descriptor, location):
    """Per-descriptor contract checks (DRT103/105/106/108)."""
    diagnostics = []
    contract = descriptor.contract
    try:
        rtai_names.validate_name(descriptor.name)
    except InvalidTaskNameError:
        diagnostics.append(Diagnostic(
            "DRT103", descriptor.name, location,
            "component name %r is not a valid six-character RTAI "
            "name; the kernel task name is derived as %r"
            % (descriptor.name, descriptor.task_name)))
    if contract.priority > MAX_SCHEDULER_PRIORITY:
        diagnostics.append(Diagnostic(
            "DRT105", descriptor.name, location,
            "priority %d is outside the scheduler range [0, %d]"
            % (contract.priority, MAX_SCHEDULER_PRIORITY)))
    if contract.is_rate_bound and contract.cpu_usage == 0.0:
        diagnostics.append(Diagnostic(
            "DRT106", descriptor.name, location,
            "cpuusage is 0: the %s task claims no CPU budget, so "
            "admission control cannot account for it"
            % contract.task_type.value))
    if not descriptor.enabled:
        diagnostics.append(Diagnostic(
            "DRT108", descriptor.name, location,
            "component is disabled; it is excluded from wiring and "
            "admission analysis"))
    return diagnostics


def check_deployment_names(entries):
    """Cross-descriptor name checks (DRT101/102).

    ``entries`` is a list of ``(descriptor, location)`` pairs forming
    one deployment.
    """
    diagnostics = []
    by_name = {}
    for descriptor, location in entries:
        by_name.setdefault(descriptor.name, []).append(location)
    for name, locations in sorted(by_name.items()):
        if len(locations) > 1:
            diagnostics.append(Diagnostic(
                "DRT101", name, locations[0],
                "component name %r is declared %d times in this "
                "deployment (also at: %s)"
                % (name, len(locations), ", ".join(locations[1:]))))
    # nam2num collisions among *distinct* component names: exact
    # duplicates are already DRT101, so fold each name once.
    by_num = {}
    for descriptor, location in entries:
        if descriptor.name not in by_name:
            continue
        key = rtai_names.nam2num(descriptor.task_name)
        bucket = by_num.setdefault(key, {})
        bucket.setdefault(descriptor.name,
                          (descriptor.task_name, location))
    for key, bucket in sorted(by_num.items()):
        if len(bucket) < 2:
            continue
        members = sorted(bucket.items())
        names = ", ".join("%s -> %s" % (name, task_name)
                          for name, (task_name, _) in members)
        first_name, (task_name, location) = members[0]
        diagnostics.append(Diagnostic(
            "DRT102", first_name, location,
            "components %s collide on RTAI task name %r (nam2num "
            "%d); the kernel can only register one of them"
            % (names, task_name, key)))
    return diagnostics
