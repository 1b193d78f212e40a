"""Property: one vocabulary table behaves like the per-element code it
replaced.

The descriptor parser, the renderer and drtlint's schema checks read
one table, :data:`repro.core.descriptor.SCHEMA`.  The code that wrote
the vocabulary out three times lives on here as the reference: a
``from_element`` and a ``render_xml`` with one branch per task element,
the application parser and renderer, and drtlint's attribute literal
with the schema check that read it.

* On drawn descriptors, ``render_xml()`` equals the reference byte for
  byte.
* On drawn XML -- reference renders, plus the other spellings
  (``runoncup``, ``frequency``, ``min_interarrival_ns``) or both
  spellings of one attribute, an undeclared ``drt:`` prefix or
  ``<? xml``, dropped or unknown attributes, or one value replaced by
  a hostile string -- the parser agrees with the reference: an equal
  descriptor where the reference returns one, the same error class and
  message where the reference raises a ``DRComError``, and a
  ``DescriptorError`` naming the attribute where the reference raised
  anything else (a bare ``ValueError`` from ``int()``).  drtlint's
  schema findings agree too.  Three sample descriptors add every
  dropped element, every declared task type and every fixed hostile
  value under every spelling, exhaustively.
* drtlint's spelling sets equal the literal.

Both sides build descriptors through the same constructors, so the
checks those constructors make (contracts, ports, names) are common
ground here; their own tests pin them.
"""

import re
import xml.etree.ElementTree as ET

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.application import ApplicationDescriptor
from repro.core.contracts import DistributionSpec, StochasticContract
from repro.core.descriptor import FREQUENCY, ComponentDescriptor, \
    ComponentProperty
from repro.core.errors import ContractError, DescriptorError, DRComError
from repro.core.ports import PortDirection, PortSpec
from repro.lint import contracts as lint_contracts
from repro.rtos.task import TaskType

from test_prop_descriptor import descriptors

# ----------------------------------------------------------------------
# the reference: one branch per element
# ----------------------------------------------------------------------
DRT_NAMESPACE = "http://pats.ua.ac.be/xmlns/drt/v1.0.0"
_UNBOUND_PREFIX = re.compile(r"(</?)drt:")
_DIST_PARAM_KEYS = ("mean_ns", "min_ns", "max_ns", "std_ns")

KNOWN_ATTRIBUTES = {
    "component": {"name", "desc", "type", "enabled", "cpuusage"},
    "implementation": {"bincode"},
    "periodictask": {"frequence", "frequency", "runoncup", "runoncpu",
                     "priority", "deadline_ns"},
    "aperiodictask": {"runoncup", "runoncpu", "priority", "deadline_ns"},
    "sporadictask": {"mininterarrival_ns", "min_interarrival_ns",
                     "runoncup", "runoncpu", "priority", "deadline_ns"},
    "inport": {"name", "interface", "type", "size"},
    "outport": {"name", "interface", "type", "size"},
    "property": {"name", "type", "value"},
    "stochastic": {"tolerance", "min_samples"},
    "interarrival": {"dist", "mean_ns", "min_ns", "max_ns", "std_ns"},
    "exectime": {"dist", "mean_ns", "min_ns", "max_ns", "std_ns"},
}

FREQUENCY_ATTRIBUTES = ("frequence", "frequency")


def reference_parse_root(text, what="descriptor"):
    text = text.strip()
    text = text.replace("<? xml", "<?xml", 1)
    try:
        return ET.fromstring(text)
    except ET.ParseError:
        stripped = _UNBOUND_PREFIX.sub(r"\1", text)
        try:
            return ET.fromstring(stripped)
        except ET.ParseError as error:
            raise DescriptorError("%s XML does not parse: %s"
                                  % (what, error)) from None


def _local(tag):
    if "}" in tag:
        tag = tag.rsplit("}", 1)[1]
    if ":" in tag:
        tag = tag.rsplit(":", 1)[1]
    return tag


def _parse_task_type(text):
    for member in TaskType:
        if member.value == text:
            return member
    raise DescriptorError(
        "component type must be periodic or aperiodic, got %r" % (text,))


def _parse_float(text, what):
    try:
        return float(text)
    except (TypeError, ValueError):
        raise DescriptorError("cannot parse %s=%r" % (what, text)) \
            from None


def _first(attrib, *keys, default=None):
    for key in keys:
        if key in attrib:
            return attrib[key]
    if default is not None:
        return default
    raise DescriptorError("missing attribute (one of %s)"
                          % ", ".join(keys))


def _xml_escape(text):
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def _parse_stochastic(component, element):
    clauses = {}
    for child in element:
        tag = _local(child.tag)
        if tag not in ("interarrival", "exectime"):
            raise DescriptorError(
                "component %r: unknown stochastic clause <%s>"
                % (component, tag))
        if tag in clauses:
            raise DescriptorError(
                "component %r declares a duplicate <%s> clause"
                % (component, tag))
        attrs = child.attrib
        family = attrs.get("dist")
        params = {}
        for key in _DIST_PARAM_KEYS:
            if key in attrs:
                params[key] = _parse_float(attrs[key], key)
        try:
            clauses[tag] = DistributionSpec(family, **params)
        except ContractError as error:
            raise DescriptorError(
                "component %r: bad <%s> clause: %s"
                % (component, tag, error)) from None
    tolerance = _parse_float(element.attrib.get("tolerance", "0.01"),
                             "tolerance")
    try:
        min_samples = int(element.attrib.get("min_samples", "32"))
    except ValueError:
        raise DescriptorError(
            "component %r: cannot parse min_samples=%r"
            % (component, element.attrib.get("min_samples"))) from None
    try:
        return StochasticContract(
            interarrival=clauses.get("interarrival"),
            exectime=clauses.get("exectime"),
            tolerance=tolerance, min_samples=min_samples)
    except ContractError as error:
        raise DescriptorError(
            "component %r: bad stochastic clause: %s"
            % (component, error)) from None


def reference_from_element(root):
    if _local(root.tag) != "component":
        raise DescriptorError(
            "root element must be drt:component, got %r" % root.tag)
    attrs = root.attrib
    name = attrs.get("name")
    if not name:
        raise DescriptorError("component element needs a name")
    task_type = _parse_task_type(attrs.get("type", "periodic"))
    enabled = attrs.get("enabled", "true").strip().lower() != "false"
    cpu_usage = _parse_float(attrs.get("cpuusage", "0"), "cpuusage")

    implementation = None
    frequency_hz = None
    min_interarrival_ns = None
    priority = 0
    cpu = 0
    deadline_ns = None
    ports = []
    properties = []
    stochastic = None
    for child in root:
        tag = _local(child.tag)
        if tag == "implementation":
            implementation = child.attrib.get("bincode")
        elif tag == "periodictask":
            if task_type is not TaskType.PERIODIC:
                raise DescriptorError(
                    "component %r: periodictask element but type=%s"
                    % (name, task_type.value))
            frequency_hz = _parse_float(
                _first(child.attrib, "frequence", "frequency"),
                "frequence")
            cpu = int(_first(child.attrib, "runoncup", "runoncpu",
                             default="0"))
            priority = int(child.attrib.get("priority", "0"))
            if "deadline_ns" in child.attrib:
                deadline_ns = int(child.attrib["deadline_ns"])
        elif tag == "aperiodictask":
            if task_type is not TaskType.APERIODIC:
                raise DescriptorError(
                    "component %r: aperiodictask element but type=%s"
                    % (name, task_type.value))
            cpu = int(_first(child.attrib, "runoncup", "runoncpu",
                             default="0"))
            priority = int(child.attrib.get("priority", "0"))
            if "deadline_ns" in child.attrib:
                deadline_ns = int(child.attrib["deadline_ns"])
        elif tag == "sporadictask":
            if task_type is not TaskType.SPORADIC:
                raise DescriptorError(
                    "component %r: sporadictask element but type=%s"
                    % (name, task_type.value))
            min_interarrival_ns = int(_first(
                child.attrib, "mininterarrival_ns",
                "min_interarrival_ns"))
            cpu = int(_first(child.attrib, "runoncup", "runoncpu",
                             default="0"))
            priority = int(child.attrib.get("priority", "0"))
            if "deadline_ns" in child.attrib:
                deadline_ns = int(child.attrib["deadline_ns"])
        elif tag in ("inport", "outport"):
            direction = (PortDirection.IN if tag == "inport"
                         else PortDirection.OUT)
            ports.append(PortSpec(
                child.attrib.get("name", ""),
                direction,
                child.attrib.get("interface", ""),
                child.attrib.get("type", ""),
                child.attrib.get("size", "0").strip(),
            ))
        elif tag == "property":
            properties.append(ComponentProperty(
                child.attrib.get("name", ""),
                child.attrib.get("type", "String"),
                child.attrib.get("value", ""),
            ))
        elif tag == "stochastic":
            if stochastic is not None:
                raise DescriptorError(
                    "component %r declares a duplicate stochastic "
                    "clause" % name)
            stochastic = _parse_stochastic(name, child)
        else:
            raise DescriptorError(
                "component %r: unknown element <%s>" % (name, tag))
    if task_type is TaskType.PERIODIC and frequency_hz is None:
        raise DescriptorError(
            "periodic component %r needs a periodictask element" % name)
    if task_type is TaskType.SPORADIC and min_interarrival_ns is None:
        raise DescriptorError(
            "sporadic component %r needs a sporadictask element" % name)
    return ComponentDescriptor(
        name=name, implementation=implementation, task_type=task_type,
        description=attrs.get("desc", ""), enabled=enabled,
        cpu_usage=cpu_usage, frequency_hz=frequency_hz,
        priority=priority, cpu=cpu, deadline_ns=deadline_ns,
        min_interarrival_ns=min_interarrival_ns, ports=ports,
        properties=properties, stochastic=stochastic)


def reference_from_xml(text):
    return reference_from_element(reference_parse_root(text))


def reference_render_xml(self):
    lines = ['<?xml version="1.0" encoding="UTF-8"?>']
    lines.append(
        '<drt:component xmlns:drt="%s" name="%s" desc="%s" type="%s" '
        'enabled="%s" cpuusage="%s">' % (
            DRT_NAMESPACE, _xml_escape(self.name),
            _xml_escape(self.description),
            self.contract.task_type.value,
            "true" if self.enabled else "false",
            repr(self.contract.cpu_usage)))
    lines.append('  <implementation bincode="%s"/>'
                 % _xml_escape(self.implementation))
    if self.contract.is_periodic:
        deadline = ""
        if self.contract.deadline_ns != self.contract.period_ns:
            deadline = ' deadline_ns="%d"' % self.contract.deadline_ns
        lines.append(
            '  <periodictask frequence="%s" runoncpu="%d" '
            'priority="%d"%s/>' % (repr(self.contract.frequency_hz),
                                   self.contract.cpu,
                                   self.contract.priority, deadline))
    elif self.contract.task_type is TaskType.SPORADIC:
        deadline = ""
        if self.contract.deadline_ns != self.contract.period_ns:
            deadline = ' deadline_ns="%d"' % self.contract.deadline_ns
        lines.append(
            '  <sporadictask mininterarrival_ns="%d" runoncpu="%d" '
            'priority="%d"%s/>' % (self.contract.period_ns,
                                   self.contract.cpu,
                                   self.contract.priority, deadline))
    else:
        deadline = ""
        if self.contract.deadline_ns is not None:
            deadline = ' deadline_ns="%d"' % self.contract.deadline_ns
        lines.append(
            '  <aperiodictask runoncpu="%d" priority="%d"%s/>'
            % (self.contract.cpu, self.contract.priority, deadline))
    stochastic = self.contract.stochastic
    if stochastic is not None:
        lines.append(
            '  <stochastic tolerance="%s" min_samples="%d">'
            % (repr(stochastic.tolerance), stochastic.min_samples))
        for clause, spec in stochastic.clauses():
            params = "".join(
                ' %s="%s"' % (key, repr(spec.as_dict()[key]))
                for key in _DIST_PARAM_KEYS
                if key in spec.as_dict())
            lines.append('    <%s dist="%s"%s/>'
                         % (clause, spec.family, params))
        lines.append('  </stochastic>')
    for port in self.ports:
        lines.append(
            '  <%s name="%s" interface="%s" type="%s" size="%d"/>'
            % (port.direction.value, port.name, port.interface.value,
               port.data_type, port.size))
    for prop in self.properties.values():
        lines.append(
            '  <property name="%s" type="%s" value="%s"/>'
            % (_xml_escape(prop.name), prop.type_name,
               _xml_escape(str(prop.value))))
    lines.append("</drt:component>")
    return "\n".join(lines)


def reference_tree_findings(root):
    findings = []
    component = root.attrib.get("name", "")
    elements = [root] + list(root)
    for child in root:
        if _local(child.tag) == "stochastic":
            elements.extend(child)
    for element in elements:
        tag = _local(element.tag)
        known = KNOWN_ATTRIBUTES.get(tag)
        if known is None:
            continue
        for raw_name in element.attrib:
            attr = _local(raw_name)
            if attr in known:
                continue
            if tag in ("aperiodictask", "sporadictask") \
                    and attr in FREQUENCY_ATTRIBUTES:
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


def reference_application_from_xml(text):
    root = reference_parse_root(text, "application")
    if _local(root.tag) != "application":
        raise DescriptorError(
            "root element must be drt:application, got %r" % root.tag)
    name = root.attrib.get("name")
    if not name:
        raise DescriptorError("application element needs a name")
    complete = root.attrib.get("complete", "false") \
        .strip().lower() == "true"
    components = []
    for child in root:
        if _local(child.tag) != "component":
            raise DescriptorError(
                "application %r: unexpected element <%s>"
                % (name, _local(child.tag)))
        components.append(reference_from_element(child))
    return ApplicationDescriptor(name, components,
                                 description=root.attrib.get("desc", ""),
                                 complete=complete)


def reference_application_to_xml(self):
    lines = ['<?xml version="1.0" encoding="UTF-8"?>']
    lines.append(
        '<drt:application xmlns:drt="http://pats.ua.ac.be/xmlns/'
        'drt/v1.0.0" name="%s" desc="%s" complete="%s">'
        % (self.name, self.description,
           "true" if self.complete else "false"))
    for descriptor in self.components:
        body = reference_render_xml(descriptor).split("\n", 1)[1]
        lines.append(body)
    lines.append("</drt:application>")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# comparing outcomes
# ----------------------------------------------------------------------
def fields(descriptor):
    """Every field of a parsed descriptor (property values by repr, so
    a parsed NaN equals itself)."""
    return (
        descriptor.name, descriptor.task_name, descriptor.implementation,
        descriptor.description, descriptor.enabled,
        descriptor.contract.as_dict(),
        [(port.direction, port.signature()) for port in descriptor.ports],
        [(prop.name, prop.type_name, repr(prop.value))
         for prop in descriptor.properties.values()],
    )


def outcome(parse, text):
    try:
        return "returned", parse(text)
    except DRComError as error:
        return "rejected", (type(error), str(error))
    except Exception as error:  # noqa: BLE001 -- the reference's crashes
        return "crashed", error


#: The spelling an error names for each accepted spelling.
CANONICAL = {"runoncup": "runoncpu", "frequency": "frequence",
             "min_interarrival_ns": "mininterarrival_ns"}


def assert_agrees(text, attribute=None):
    """The parser agrees with the reference on ``text``; ``attribute``
    is the one whose value a variant replaced, if any."""
    kind, reference = outcome(reference_from_xml, text)
    new_kind, new = outcome(ComponentDescriptor.from_xml, text)
    if kind == "returned":
        assert new_kind == "returned", new
        assert fields(new) == fields(reference)
    elif kind == "rejected":
        assert (new_kind, new) == (kind, reference)
    else:
        assert new_kind == "rejected", new
        error_class, message = new
        assert error_class is DescriptorError
        assert attribute is not None, reference
        name = CANONICAL.get(attribute, attribute)
        assert ("%s=" % name) in message, (message, reference)
    try:
        root = reference_parse_root(text)
    except DescriptorError:
        return
    assert lint_contracts.tree_findings(root) \
        == reference_tree_findings(root)


# ----------------------------------------------------------------------
# drawn XML
# ----------------------------------------------------------------------
HOSTILE = ["", "high", "1.5e6", "2.0", "-1", "0", "inf", "nan", "3e9",
           "$C0000"]
hostile_values = st.sampled_from(HOSTILE) | st.text(max_size=8)

#: Rendered spelling -> the other accepted one.
OTHER_SPELLING = {"runoncpu": "runoncup", "frequence": "frequency",
                  "mininterarrival_ns": "min_interarrival_ns"}

_ATTRIBUTE = re.compile(r' ([\w:]+)="([^"]*)"')


def attributes_of(text):
    """Attribute matches of every element (not the XML declaration or
    the namespace declaration)."""
    return [match for match in _ATTRIBUTE.finditer(text,
                                                   text.index("\n"))
            if match.group(1) != "xmlns:drt"]


def splice(text, match, replacement):
    return text[:match.start()] + replacement + text[match.end():]


@st.composite
def descriptor_texts(draw):
    """``(text, attribute)``: a reference render and one variant of it,
    and the attribute whose value the variant replaced (or None)."""
    text = reference_render_xml(draw(descriptors()))
    attributes = attributes_of(text)
    variant = draw(st.sampled_from([
        "as rendered", "other spelling", "both spellings",
        "undeclared prefix", "spaced declaration", "dropped",
        "unknown", "hostile"]))
    attribute = None
    if variant == "other spelling":
        for rendered, other in OTHER_SPELLING.items():
            if draw(st.booleans()):
                text = text.replace(' %s="' % rendered, ' %s="' % other)
    elif variant == "both spellings":
        match = draw(st.sampled_from([m for m in attributes
                                      if m.group(1) in OTHER_SPELLING]))
        value = draw(st.sampled_from(["0", "1", "3", "250.0", "12000"])
                     | hostile_values)
        attribute = OTHER_SPELLING[match.group(1)]
        addition = ' %s="%s"' % (attribute, _xml_escape(value))
        if draw(st.booleans()):
            text = splice(text, match, match.group(0) + addition)
        else:
            text = splice(text, match, addition + match.group(0))
    elif variant == "undeclared prefix":
        text = re.sub(r' xmlns:drt="[^"]*"', "", text)
    elif variant == "spaced declaration":
        text = text.replace("<?xml", "<? xml", 1)
    elif variant == "dropped":
        dropped = draw(st.lists(st.sampled_from(attributes), min_size=1,
                                max_size=3, unique_by=lambda m: m.start()))
        for match in sorted(dropped, key=lambda m: -m.start()):
            text = splice(text, match, "")
    elif variant == "unknown":
        match = draw(st.sampled_from(attributes))
        name = draw(st.sampled_from(
            ["frequencyy", "bogus", "cpu", "frequence", "frequency",
             "deadline", "drt:priority"]))
        text = splice(text, match, ' %s="1"%s' % (name, match.group(0)))
    elif variant == "hostile":
        match = draw(st.sampled_from(attributes))
        attribute = match.group(1)
        text = splice(text, match, ' %s="%s"' % (
            attribute, _xml_escape(draw(hostile_values))))
    return text, attribute


@settings(max_examples=150, deadline=None)
@given(descriptors())
def test_render_is_byte_identical(descriptor):
    assert descriptor.render_xml() == reference_render_xml(descriptor)


@settings(max_examples=400, deadline=None)
@given(descriptor_texts())
def test_parser_agrees_with_the_reference(case):
    text, attribute = case
    assert_agrees(text, attribute)


def sample_descriptors():
    """One descriptor per task type, between them carrying every
    element and every optional attribute the renderer writes."""
    ports = [PortSpec("OUT0", PortDirection.OUT, "RTAI.SHM", "Byte", 4),
             PortSpec("IN0", PortDirection.IN, "RTAI.Mailbox", "Integer",
                      2)]
    properties = [ComponentProperty("gain", "Float", "1.5"),
                  ComponentProperty("label", "String", "a&b")]
    stochastic = StochasticContract(
        interarrival=DistributionSpec("uniform", min_ns=1e6, max_ns=2e6),
        exectime=DistributionSpec("normal", mean_ns=5e4, std_ns=1e3),
        tolerance=0.05, min_samples=16)
    return [
        ComponentDescriptor(
            "cam", "x.Cam", TaskType.PERIODIC, description="d",
            cpu_usage=0.1, frequency_hz=100.0, priority=2, cpu=1,
            deadline_ns=5_000_000, ports=ports, properties=properties,
            stochastic=stochastic),
        ComponentDescriptor(
            "SPOR00", "x.Spor", TaskType.SPORADIC, cpu_usage=0.2,
            min_interarrival_ns=2_000_000, priority=4,
            deadline_ns=1_000_000,
            stochastic=StochasticContract(exectime=DistributionSpec(
                "exponential", mean_ns=1e5))),
        ComponentDescriptor("APER00", "x.Aper", TaskType.APERIODIC,
                            enabled=False, priority=9,
                            deadline_ns=3_000_000),
    ]


def test_every_variant_of_the_samples():
    # Exhaustive where the draws are sparse: every child element
    # dropped, every task type declared, and every attribute (under
    # each accepted spelling) given every fixed hostile value, so each
    # converter and each parse priority meets all of them.
    for descriptor in sample_descriptors():
        text = reference_render_xml(descriptor)
        assert_agrees(text)
        lines = text.split("\n")
        for index in range(2, len(lines) - 1):  # each child element
            assert_agrees("\n".join(lines[:index] + lines[index + 1:]))
        for task_type in TaskType:
            assert_agrees(re.sub(r'type="\w+"', 'type="%s"'
                                 % task_type.value, text, count=1))
        for match in attributes_of(text):
            name = match.group(1)
            for value in HOSTILE:
                assert_agrees(splice(text, match, ' %s="%s"' % (
                    name, _xml_escape(value))), name)
                if name in OTHER_SPELLING:
                    other = OTHER_SPELLING[name]
                    assert_agrees(splice(text, match, '%s %s="%s"' % (
                        match.group(0), other, _xml_escape(value))),
                        other)


def test_drtlint_spellings_are_the_literal():
    assert lint_contracts._SPELLINGS == KNOWN_ATTRIBUTES
    assert set(FREQUENCY.spellings) == set(FREQUENCY_ATTRIBUTES)


# ----------------------------------------------------------------------
# applications
# ----------------------------------------------------------------------
plain_text = st.text(alphabet="abcdefgh -_.", min_size=1, max_size=16)


@st.composite
def applications(draw):
    members, names = [], set()
    for descriptor in draw(st.lists(descriptors(), min_size=1,
                                    max_size=3)):
        if descriptor.name not in names:
            names.add(descriptor.name)
            members.append(descriptor)
    return ApplicationDescriptor(draw(plain_text), members,
                                 description=draw(plain_text))


@settings(max_examples=60, deadline=None)
@given(applications(), st.booleans(), st.booleans())
def test_application_agrees_with_the_reference(app, undeclared, spaced):
    text = app.to_xml()
    assert text == reference_application_to_xml(app)
    if undeclared:
        text = re.sub(r' xmlns:drt="[^"]*"', "", text)
    if spaced:
        text = text.replace("<?xml", "<? xml", 1)
    new = ApplicationDescriptor.from_xml(text)
    reference = reference_application_from_xml(text)
    assert (new.name, new.description, new.complete) \
        == (reference.name, reference.description, reference.complete)
    assert [fields(d) for d in new.components] \
        == [fields(d) for d in reference.components]


def test_application_parse_errors_keep_their_messages():
    for text in ('<drt:application name="x"', '<drt:component/>',
                 '<drt:application desc="d"><drt:component/>'
                 '</drt:application>',
                 '<drt:application name="a"><bogus/></drt:application>'):
        kind, reference = outcome(reference_application_from_xml, text)
        assert kind == "rejected"
        assert outcome(ApplicationDescriptor.from_xml, text) \
            == (kind, reference)
