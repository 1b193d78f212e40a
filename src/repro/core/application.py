"""Application descriptors: grouped, atomically-admitted components.

The paper's future work (section 6) calls for "more powerful component
description language" and integration of "certain Architecture
Description Language into our DRCom".  This module adds the natural
next step: an ``<drt:application>`` document grouping several component
descriptors into one deployable unit with application-level semantics:

* **atomic admission** -- the whole group activates or none of it does
  (a vision pipeline with its tracker missing is not degraded, it is
  wrong);
* **internal-wiring validation** -- a ``complete="true"`` application
  must satisfy every inport from its own outports, catching
  architecture bugs at parse time instead of at deployment;
* **aggregate contract** -- the summed declared CPU per processor, the
  number the admission trial checks before touching the kernel.

Example::

    <drt:application name="vision" desc="camera pipeline"
                     complete="true">
      <drt:component name="camera" ...> ... </drt:component>
      <drt:component name="tracker" ...> ... </drt:component>
    </drt:application>
"""

from repro.core.descriptor import (DRT_NAMESPACE, ComponentDescriptor,
                                   local_tag, parse_descriptor_tree,
                                   xml_escape)
from repro.core.errors import DescriptorError


class ApplicationDescriptor:
    """A parsed, validated application document."""

    def __init__(self, name, components, description="", complete=False):
        if not name:
            raise DescriptorError("application name is required")
        if not components:
            raise DescriptorError(
                "application %r contains no components" % name)
        self.name = name
        self.description = description
        self.complete = complete
        self.components = list(components)
        self._check_unique_names()
        if complete:
            self._check_internal_wiring()

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def _check_unique_names(self):
        seen = set()
        for descriptor in self.components:
            if descriptor.name in seen:
                raise DescriptorError(
                    "application %r declares component %r twice"
                    % (self.name, descriptor.name))
            seen.add(descriptor.name)

    def _check_internal_wiring(self):
        outports = [port for descriptor in self.components
                    for port in descriptor.outports]
        for descriptor in self.components:
            for inport in descriptor.inports:
                if not any(inport.compatible_with(outport)
                           for outport in outports):
                    raise DescriptorError(
                        "application %r is declared complete but "
                        "component %r inport %s has no internal "
                        "provider" % (self.name, descriptor.name,
                                      inport.name))

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    def component_names(self):
        """The member component names, in document order."""
        return [descriptor.name for descriptor in self.components]

    def declared_utilization(self, cpu=None):
        """Summed declared cpuusage (optionally one CPU)."""
        return sum(
            descriptor.contract.cpu_usage
            for descriptor in self.components
            if cpu is None or descriptor.contract.cpu == cpu)

    def cpus_used(self):
        """The set of CPUs the application's contracts name."""
        return {descriptor.contract.cpu
                for descriptor in self.components}

    # ------------------------------------------------------------------
    # XML
    # ------------------------------------------------------------------
    @classmethod
    def from_xml(cls, text):
        """Parse an ``<drt:application>`` document."""
        root = parse_descriptor_tree(text, "application")
        if local_tag(root.tag) != "application":
            raise DescriptorError(
                "root element must be drt:application, got %r"
                % root.tag)
        name = root.attrib.get("name")
        if not name:
            raise DescriptorError("application element needs a name")
        complete = root.attrib.get("complete", "false") \
            .strip().lower() == "true"
        components = []
        for child in root:
            if local_tag(child.tag) != "component":
                raise DescriptorError(
                    "application %r: unexpected element <%s>"
                    % (name, local_tag(child.tag)))
            components.append(ComponentDescriptor.from_element(child))
        return cls(name, components,
                   description=root.attrib.get("desc", ""),
                   complete=complete)

    def to_xml(self):
        """Serialise back to application XML."""
        lines = ['<?xml version="1.0" encoding="UTF-8"?>']
        lines.append(
            '<drt:application xmlns:drt="%s" name="%s" desc="%s" '
            'complete="%s">'
            % (DRT_NAMESPACE, xml_escape(self.name),
               xml_escape(self.description),
               "true" if self.complete else "false"))
        for descriptor in self.components:
            body = descriptor.to_xml().split("\n", 1)[1]  # drop <?xml?>
            lines.append(body)
        lines.append("</drt:application>")
        return "\n".join(lines)

    def __repr__(self):
        return "ApplicationDescriptor(%s, %d components)" % (
            self.name, len(self.components))

