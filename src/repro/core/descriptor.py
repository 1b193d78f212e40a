"""DRCom XML descriptors (paper section 2.3, Figure 2).

"The distinguishing real-time aspect of DRCom is declared in an XML
document which describes the real-time related information" -- name,
task type, priority, frequency, CPU claim, ports and configuration
properties.  The reference sample (Figure 2)::

    <?xml version="1.0" encoding="UTF-8"?>
    <drt:component name="camera" desc="this is a smart camera controller"
                   type="periodic" enabled="true" cpuusage="0.1">
      <implementation bincode="ua.pats.demo.smartcamera.RTComponent"/>
      <periodictask frequence="100" runoncup="0" priority="2"/>
      <outport name="images" interface="RTAI.SHM" type="Byte" size="400"/>
      <inport name="xysize" interface="RTAI.SHM" type="Integer" size="400"/>
      <property name="prox00" type="Integer" value="6"/>
    </drt:component>

One table, :data:`SCHEMA`, holds the vocabulary; the parser, the
renderer and drtlint's schema checks (DRT104/DRT107) all read it.  The
renderer reads it once, at import: each element's attributes compile
to one renderer (``_render_plan``).
Every value goes through one checked conversion, so a malformed
descriptor raises a :class:`~repro.core.errors.DRComError`, never
anything else.  Parsing tolerates the paper's quirks: ``frequence`` and
``runoncup``, the stray space in ``<? xml`` and the ``drt:`` prefix
without an ``xmlns:drt`` declaration.
"""

import collections
import operator
import re
import xml.etree.ElementTree as ET

from repro.core.contracts import (DistributionSpec, RealTimeContract,
                                  StochasticContract)
from repro.core.errors import ContractError, DescriptorError
from repro.core.ports import PortDirection, PortSpec
from repro.rtos import names as rtai_names
from repro.rtos.errors import InvalidTaskNameError
from repro.rtos.task import TaskType

#: The descriptor namespace used when emitting XML.
DRT_NAMESPACE = "http://pats.ua.ac.be/xmlns/drt/v1.0.0"

_UNBOUND_PREFIX = re.compile(r"(</?)drt:")


# ----------------------------------------------------------------------
# the vocabulary
# ----------------------------------------------------------------------
class Attribute(collections.namedtuple(
        "Attribute",
        ("name", "field", "convert", "render", "spec", "default",
         "spellings"))):
    """``name`` is the spelling the renderer writes and errors quote,
    ``spellings`` those the parser accepts, in priority order, and
    ``field`` the keyword the value feeds.  ``convert`` turns text into
    the value (``ValueError``/``TypeError`` for bad text); the printf
    conversion ``spec`` turns it back into text, after ``render`` when
    that is not None.  ``default`` is an absent attribute's value,
    ``_REQUIRED``, or ``_OMITTED`` (sets no field)."""

    __slots__ = ()


_REQUIRED, _OMITTED = object(), object()


def xml_escape(text):
    """``text`` escaped for an XML attribute value."""
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


_TASK_TYPES = {member.value: member for member in TaskType}


def _parse_task_type(text):
    if text in _TASK_TYPES:
        return _TASK_TYPES[text]
    raise DescriptorError(
        "component type must be periodic or aperiodic, got %r" % (text,))


# (convert, render, spec) triples.
_TEXT = (str, xml_escape, "%s")
_INT = (int, None, "%d")
_FLOAT = (float, None, "%r")
_FLAG = (lambda text: text.strip().lower() != "false",
         ("false", "true").__getitem__, "%s")
_TASK_TYPE = (_parse_task_type, operator.attrgetter("value"), "%s")


def _attribute(name, field, kind=_TEXT, default=None, spellings=None):
    return Attribute(name, field, kind[0], kind[1], kind[2], default,
                     spellings or (name,))


#: The periodic task's rate (drtlint's DRT104 flags it elsewhere).
FREQUENCY = _attribute("frequence", "frequency_hz", _FLOAT, _REQUIRED,
                       ("frequence", "frequency"))
_CPU = _attribute("runoncpu", "cpu", _INT, 0, ("runoncup", "runoncpu"))
_PRIORITY = _attribute("priority", "priority", _INT, 0)
_DEADLINE = _attribute("deadline_ns", "deadline_ns", _INT, _OMITTED)
_PORT = (
    _attribute("name", "name", default=""),
    _attribute("interface", "interface", default=""),
    _attribute("type", "data_type", default=""),
    _attribute("size", "size", _INT, 0),
)
_DISTRIBUTION = (_attribute("dist", "family"),) + tuple(
    _attribute(key, key, _FLOAT)
    for key in ("mean_ns", "min_ns", "max_ns", "std_ns"))

#: Element (local tag) -> its attributes, in parse and render order.
SCHEMA = {
    "component": (
        _attribute("name", "name"),
        _attribute("desc", "description", default=""),
        _attribute("type", "task_type", _TASK_TYPE, TaskType.PERIODIC),
        _attribute("enabled", "enabled", _FLAG, True),
        _attribute("cpuusage", "cpu_usage", _FLOAT, 0.0),
    ),
    "implementation": (_attribute("bincode", "implementation"),),
    "periodictask": (FREQUENCY, _CPU, _PRIORITY, _DEADLINE),
    "aperiodictask": (_CPU, _PRIORITY, _DEADLINE),
    "sporadictask": (
        _attribute("mininterarrival_ns", "min_interarrival_ns", _INT,
                   _REQUIRED,
                   ("mininterarrival_ns", "min_interarrival_ns")),
        _CPU, _PRIORITY, _DEADLINE),
    "inport": _PORT,
    "outport": _PORT,
    "property": (
        _attribute("name", "name", default=""),
        _attribute("type", "type_name", default="String"),
        _attribute("value", "raw_value", default=""),
    ),
    "stochastic": (_attribute("tolerance", "tolerance", _FLOAT, 0.01),
                   _attribute("min_samples", "min_samples", _INT, 32)),
    "interarrival": _DISTRIBUTION,
    "exectime": _DISTRIBUTION,
}

#: The element each task type declares its rate and placement in.
TASK_ELEMENTS = {
    TaskType.PERIODIC: "periodictask",
    TaskType.APERIODIC: "aperiodictask",
    TaskType.SPORADIC: "sporadictask",
}


def _value(attrib, attribute):
    """One attribute's value: the first accepted spelling present,
    through the one checked conversion, else the default."""
    for spelling in attribute.spellings:
        text = attrib.get(spelling)
        if text is not None:
            try:
                return attribute.convert(text)
            except (TypeError, ValueError):
                raise DescriptorError("cannot parse %s=%r"
                                      % (attribute.name, text)) from None
    if attribute.default is _REQUIRED:
        raise DescriptorError("missing attribute (one of %s)"
                              % ", ".join(attribute.spellings))
    return attribute.default


def _read_attributes(element, tag):
    """``{field: value}`` of the attributes of ``element``, a ``tag``
    element of :data:`SCHEMA`."""
    attrib = element.attrib
    values = {}
    for attribute in SCHEMA[tag]:
        value = _value(attrib, attribute)
        if value is not _OMITTED:
            values[attribute.field] = value
    return values


def _render_plan(attributes):
    """Compile the renderer of one element's attributes.

    The renderer takes one value per attribute, in table order, and
    returns `` name="text"`` for each value that is not None.  Its
    source is generated from the attributes once, at import, so a
    render makes one call per element -- no table walk, value dict or
    per-attribute dispatch -- and, when no value is None, one printf.
    For ``periodictask`` it reads::

        def render(v0, v1, v2, v3):
            if v0 is not None and v1 is not None and ...:
                return ' frequence="%r" runoncpu="%d" ...' % (v0, v1, ...)
            return ((' frequence="%r"' % (v0,) if v0 is not None else '')
                    + ...)

    An attribute with a ``render`` callable passes its value through
    it first (``r0(v0)``).
    """
    namespace = {}
    names, values, pieces = [], [], []
    for index, attribute in enumerate(attributes):
        name = "v%d" % index
        names.append(name)
        if attribute.render is None:
            values.append(name)
        else:
            namespace["r%d" % index] = attribute.render
            values.append("r%d(%s)" % (index, name))
        pieces.append(' %s="%s"' % (attribute.name, attribute.spec))
    source = (
        "def render(%s):\n"
        "    if %s:\n"
        "        return %r %% (%s,)\n"
        "    return (%s)\n" % (
            ", ".join(names),
            " and ".join("%s is not None" % name for name in names),
            "".join(pieces), ", ".join(values),
            "\n            + ".join(
                "(%r %% (%s,) if %s is not None else '')"
                % (piece, value, name)
                for piece, value, name in zip(pieces, values, names))))
    exec(source, namespace)  # the source is built from SCHEMA alone
    return namespace["render"]


#: Element -> its compiled attribute renderer (:func:`_render_plan`).
_RENDERERS = {tag: _render_plan(attributes)
              for tag, attributes in SCHEMA.items()}


class ComponentProperty:
    """One typed configuration property of a component."""

    __slots__ = ("name", "type_name", "value")

    _PARSERS = {
        "Integer": int,
        "Byte": int,
        "Long": int,
        "Float": float,
        "Double": float,
        "String": str,
        "Boolean": lambda text: str(text).strip().lower() == "true",
    }

    def __init__(self, name, type_name, raw_value):
        if type_name not in self._PARSERS:
            raise DescriptorError(
                "property %r has unsupported type %r (supported: %s)"
                % (name, type_name, ", ".join(sorted(self._PARSERS))))
        self.name = name
        self.type_name = type_name
        try:
            self.value = self._PARSERS[type_name](raw_value)
        except (TypeError, ValueError):
            raise DescriptorError(
                "property %r: cannot parse %r as %s"
                % (name, raw_value, type_name)) from None

    def __repr__(self):
        return "ComponentProperty(%s: %s = %r)" % (
            self.name, self.type_name, self.value)


class ComponentDescriptor:
    """Parsed, validated DRCom descriptor."""

    def __init__(self, name, implementation, task_type,
                 description="", enabled=True, cpu_usage=0.0,
                 frequency_hz=None, priority=0, cpu=0, deadline_ns=None,
                 min_interarrival_ns=None, ports=(), properties=(),
                 stochastic=None):
        if not name:
            raise DescriptorError("component name is required")
        if "$" in name:  # kernel plumbing names (RTKernel.unique_name)
            raise DescriptorError(
                "component names may not contain '$': %r" % (name,))
        self.name = name
        #: The six-character RTAI task name for this component.  "The
        #: name of a component must be globally unique because it is
        #: used as a task reference" (section 2.3); names longer than
        #: the RTAI limit are derived deterministically.  Computed once:
        #: the name never changes after construction.
        self.task_name = _task_name_for(name)
        if not implementation:
            raise DescriptorError(
                "component %r: implementation bincode is required" % name)
        self.implementation = implementation
        self.description = description
        self.enabled = bool(enabled)
        self.ports = list(ports)
        self.properties = {prop.name: prop for prop in properties}
        if len(self.properties) != len(list(properties)):
            raise DescriptorError(
                "component %r declares a duplicate property" % name)
        self._check_ports()
        self.contract = RealTimeContract(
            self.task_name, task_type, priority=priority,
            cpu_usage=cpu_usage, frequency_hz=frequency_hz,
            deadline_ns=deadline_ns, cpu=cpu,
            min_interarrival_ns=min_interarrival_ns,
            stochastic=stochastic)
        # to_xml's stored text and the CPU it was rendered for.
        self._xml = None
        self._xml_cpu = None

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    @property
    def task_type(self):
        """The contract's task type."""
        return self.contract.task_type

    @property
    def inports(self):
        """Declared inports (functional dependencies)."""
        return [p for p in self.ports if p.direction is PortDirection.IN]

    @property
    def outports(self):
        """Declared outports (provided data)."""
        return [p for p in self.ports if p.direction is PortDirection.OUT]

    def property_value(self, name, default=None):
        """A property's parsed value (or ``default``)."""
        prop = self.properties.get(name)
        return prop.value if prop is not None else default

    def property_dict(self):
        """All properties as a plain name -> value mapping."""
        return {name: prop.value for name, prop in self.properties.items()}

    def _check_ports(self):
        seen = set()
        for port in self.ports:
            key = (port.direction, port.name)
            if key in seen:
                raise DescriptorError(
                    "component %r declares duplicate %s %r"
                    % (self.name, port.direction.value, port.name))
            seen.add(key)

    # ------------------------------------------------------------------
    # XML
    # ------------------------------------------------------------------
    @classmethod
    def from_xml(cls, text):
        """Parse a descriptor document."""
        return cls.from_element(parse_descriptor_tree(text))

    @classmethod
    def from_element(cls, root):
        """Build a descriptor from a root element already parsed by
        :func:`parse_descriptor_tree` (lint reads the raw tree and the
        descriptor from one parse)."""
        if local_tag(root.tag) != "component":
            raise DescriptorError(
                "root element must be drt:component, got %r" % root.tag)
        fields = _read_attributes(root, "component")
        fields["implementation"] = None
        name = fields["name"]
        if not name:
            raise DescriptorError("component element needs a name")
        task_type = fields["task_type"]
        task_tag = TASK_ELEMENTS[task_type]
        ports = []
        properties = []
        stochastic = None
        for child in root:
            tag = local_tag(child.tag)
            if tag == "implementation" or tag == task_tag:
                fields.update(_read_attributes(child, tag))
            elif tag in TASK_ELEMENTS.values():
                raise DescriptorError(
                    "component %r: %s element but type=%s"
                    % (name, tag, task_type.value))
            elif tag in ("inport", "outport"):
                ports.append(PortSpec(
                    direction=PortDirection.IN if tag == "inport"
                    else PortDirection.OUT, **_read_attributes(child, tag)))
            elif tag == "property":
                properties.append(
                    ComponentProperty(**_read_attributes(child, tag)))
            elif tag == "stochastic":
                if stochastic is not None:
                    raise DescriptorError(
                        "component %r declares a duplicate stochastic "
                        "clause" % name)
                stochastic = _parse_stochastic(name, child)
            else:
                raise DescriptorError(
                    "component %r: unknown element <%s>" % (name, tag))
        if any(attribute.default is _REQUIRED
               and attribute.field not in fields
               for attribute in SCHEMA[task_tag]):
            raise DescriptorError("%s component %r needs a %s element"
                                  % (task_type.value, name, task_tag))
        return cls(ports=ports, properties=properties,
                   stochastic=stochastic, **fields)

    def to_xml(self):
        """Serialise back to descriptor XML (round-trips from_xml).

        The text is rendered once and stored.  ``contract.cpu`` is the
        one field anything assigns after construction (the DRCR's
        placement service re-pins it), so the stored text is rendered
        again only when that CPU differs from the one it was rendered
        for; the result always equals :meth:`render_xml`.  Cluster
        nodes export every hosted descriptor on every membership tick
        (docs/PERFORMANCE.md, "Replication tick")."""
        cpu = self.contract.cpu
        if cpu != self._xml_cpu:
            self._xml = self.render_xml()
            self._xml_cpu = cpu
        return self._xml

    def render_xml(self):
        """Render the descriptor XML afresh (what :meth:`to_xml`
        stores).  Each element's renderer takes its values in
        :data:`SCHEMA` order."""
        render = _RENDERERS
        contract = self.contract
        task_tag = TASK_ELEMENTS[contract.task_type]
        # The rate attribute leads the task element's; aperiodic tasks
        # have none.
        if task_tag == "periodictask":
            rate = (contract.frequency_hz,)
        elif task_tag == "sporadictask":
            rate = (contract.period_ns,)
        else:
            rate = ()
        deadline_ns = contract.deadline_ns
        # A deadline equal to the period is the default.
        if deadline_ns == contract.period_ns:
            deadline_ns = None
        lines = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            '<drt:component xmlns:drt="%s"%s>' % (
                DRT_NAMESPACE, render["component"](
                    self.name, self.description, contract.task_type,
                    self.enabled, contract.cpu_usage)),
            '  <implementation%s/>' % render["implementation"](
                self.implementation),
            '  <%s%s/>' % (task_tag, render[task_tag](
                *rate, contract.cpu, contract.priority, deadline_ns)),
        ]
        stochastic = contract.stochastic
        if stochastic is not None:
            lines.append('  <stochastic%s>' % render["stochastic"](
                stochastic.tolerance, stochastic.min_samples))
            for clause, spec in stochastic.clauses():
                params = spec.as_dict()
                lines.append('    <%s%s/>' % (clause, render[clause](*[
                    params.get(attribute.field)
                    for attribute in SCHEMA[clause]])))
            lines.append('  </stochastic>')
        for port in self.ports:
            tag = port.direction.value
            lines.append('  <%s%s/>' % (tag, render[tag](
                port.name, port.interface.value, port.data_type,
                port.size)))
        for prop in self.properties.values():
            lines.append('  <property%s/>' % render["property"](
                prop.name, prop.type_name, prop.value))
        lines.append("</drt:component>")
        return "\n".join(lines)

    def __repr__(self):
        return "ComponentDescriptor(%s, %s, %d ports)" % (
            self.name, self.contract.task_type.value, len(self.ports))


# ----------------------------------------------------------------------
# parsing helpers
# ----------------------------------------------------------------------
def parse_descriptor_tree(text, document="descriptor"):
    """Parse descriptor XML to an ElementTree root, tolerating the
    paper's quirks (stray ``<? xml`` space, undeclared ``drt:``
    prefix).

    The component and application parsers start here, and so does the
    static verifier (:mod:`repro.lint`), whose schema checks read the
    raw tree for what the tolerant parser cannot express -- e.g.
    attributes it would silently ignore.  ``document`` names the
    document in the parse error.
    """
    text = text.strip().replace("<? xml", "<?xml", 1)
    try:
        return ET.fromstring(text)
    except (ET.ParseError, ValueError):  # ValueError: unencodable text
        try:
            return ET.fromstring(_UNBOUND_PREFIX.sub(r"\1", text))
        except (ET.ParseError, ValueError) as error:
            raise DescriptorError("%s XML does not parse: %s"
                                  % (document, error)) from None


def local_tag(tag):
    """Strip ``{namespace}`` and ``prefix:`` from a tag or attribute
    name (element names compare independent of the ``drt:``
    prefix)."""
    if "}" in tag:
        tag = tag.rsplit("}", 1)[1]
    if ":" in tag:
        tag = tag.rsplit(":", 1)[1]
    return tag


def _task_name_for(name):
    try:
        return rtai_names.validate_name(name)
    except InvalidTaskNameError:
        return rtai_names.derive_port_name(name, name)


def _parse_stochastic(component, element):
    """Parse a ``<stochastic>`` element into a StochasticContract."""
    clauses = {}
    for child in element:
        tag = local_tag(child.tag)
        if tag not in ("interarrival", "exectime"):
            raise DescriptorError(
                "component %r: unknown stochastic clause <%s>"
                % (component, tag))
        if tag in clauses:
            raise DescriptorError(
                "component %r declares a duplicate <%s> clause"
                % (component, tag))
        params = _read_attributes(child, tag)
        try:
            clauses[tag] = DistributionSpec(**params)
        except ContractError as error:
            raise DescriptorError(
                "component %r: bad <%s> clause: %s"
                % (component, tag, error)) from None
    tolerance, min_samples = SCHEMA["stochastic"]
    options = {tolerance.field: _value(element.attrib, tolerance)}
    try:
        options[min_samples.field] = _value(element.attrib, min_samples)
    except DescriptorError as error:
        # A malformed sample floor names its component.
        raise DescriptorError("component %r: %s"
                              % (component, error)) from None
    try:
        return StochasticContract(**clauses, **options)
    except ContractError as error:
        raise DescriptorError(
            "component %r: bad stochastic clause: %s"
            % (component, error)) from None
