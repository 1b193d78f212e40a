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

Parsing is tolerant of the paper's spelling quirks (``frequence`` /
``frequency``, ``runoncup`` / ``runoncpu``) and of the bare ``drt:``
prefix appearing without an ``xmlns:drt`` declaration, as in the paper's
own listing.
"""

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
        return cls.from_element(_parse_root(text))

    @classmethod
    def from_element(cls, root):
        """Build a descriptor from a root element already parsed by
        :func:`parse_descriptor_tree` (lint reads the raw tree and the
        descriptor from one parse)."""
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
                "periodic component %r needs a periodictask element"
                % name)
        if task_type is TaskType.SPORADIC \
                and min_interarrival_ns is None:
            raise DescriptorError(
                "sporadic component %r needs a sporadictask element"
                % name)
        return cls(
            name=name,
            implementation=implementation,
            task_type=task_type,
            description=attrs.get("desc", ""),
            enabled=enabled,
            cpu_usage=cpu_usage,
            frequency_hz=frequency_hz,
            priority=priority,
            cpu=cpu,
            deadline_ns=deadline_ns,
            min_interarrival_ns=min_interarrival_ns,
            ports=ports,
            properties=properties,
            stochastic=stochastic,
        )

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
        stores)."""
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

    def __repr__(self):
        return "ComponentDescriptor(%s, %s, %d ports)" % (
            self.name, self.contract.task_type.value, len(self.ports))


# ----------------------------------------------------------------------
# parsing helpers
# ----------------------------------------------------------------------
def parse_descriptor_tree(text):
    """Parse descriptor XML to an ElementTree root, tolerating the
    paper's quirks (stray ``<? xml`` space, undeclared ``drt:``
    prefix) exactly like :meth:`ComponentDescriptor.from_xml`.

    Raw-tree access is what the static verifier
    (:mod:`repro.lint`) uses for schema checks the tolerant parser
    cannot express -- e.g. attributes it would silently ignore.
    """
    return _parse_root(text)


def local_tag(tag):
    """Public alias of the namespace-stripping helper (lint uses it to
    compare element names independent of the ``drt:`` prefix)."""
    return _local(tag)


def _parse_root(text):
    text = text.strip()
    # The paper's own listing starts "<? xml ...?>" (stray space) and
    # uses the drt: prefix without declaring it; tolerate both.
    text = text.replace("<? xml", "<?xml", 1)
    try:
        return ET.fromstring(text)
    except ET.ParseError:
        stripped = _UNBOUND_PREFIX.sub(r"\1", text)
        try:
            return ET.fromstring(stripped)
        except ET.ParseError as error:
            raise DescriptorError("descriptor XML does not parse: %s"
                                  % error) from None


def _task_name_for(name):
    try:
        return rtai_names.validate_name(name)
    except InvalidTaskNameError:
        return rtai_names.derive_port_name(name, name)


def _local(tag):
    """Strip ``{namespace}`` and ``prefix:`` from a tag name."""
    if "}" in tag:
        tag = tag.rsplit("}", 1)[1]
    if ":" in tag:
        tag = tag.rsplit(":", 1)[1]
    return tag


_DIST_PARAM_KEYS = ("mean_ns", "min_ns", "max_ns", "std_ns")


def _parse_stochastic(component, element):
    """Parse a ``<stochastic>`` element into a StochasticContract."""
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
