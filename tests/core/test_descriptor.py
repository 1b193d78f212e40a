"""Tests for DRCom XML descriptor parsing (paper section 2.3)."""

import pytest

from repro.core.descriptor import ComponentDescriptor, ComponentProperty
from repro.core.errors import DescriptorError
from repro.core.ports import PortInterface
from repro.rtos import names as rtai_names
from repro.rtos.errors import InvalidTaskNameError
from repro.rtos.task import TaskType

#: The paper's Figure 2, verbatim quirks included ("<? xml", bare drt:
#: prefix, "frequence", "runoncup").
PAPER_FIGURE_2 = """<? xml version="1.0" encoding="UTF-8"?>
<drt:component name="camera" desc="this is a smart camera
controller" type="periodic" enabled="true"
cpuusage="0.1">
<implementation bincode="ua.pats.demo.smartcamera.RTComponent"/>
<periodictask frequence="100" runoncup="0" priority="2"/>
<outport name="images" interface="RTAI.SHM" type="Byte"
size="400" />
<inport name="xysize" interface="RTAI.SHM" type="Integer"
size="400"/>
<property name="prox00" type="Integer" value="6" />
</drt:component>"""


class TestPaperFigure2:
    """The descriptor from the paper must parse exactly."""

    @pytest.fixture
    def descriptor(self):
        return ComponentDescriptor.from_xml(PAPER_FIGURE_2)

    def test_component_attributes(self, descriptor):
        assert descriptor.name == "camera"
        assert descriptor.enabled is True
        assert descriptor.contract.cpu_usage == pytest.approx(0.1)
        assert descriptor.task_type is TaskType.PERIODIC

    def test_implementation(self, descriptor):
        assert descriptor.implementation \
            == "ua.pats.demo.smartcamera.RTComponent"

    def test_periodic_task(self, descriptor):
        # "the task's period is set to 10 millisecond and is to run on
        # CPU 0 with priority 2"
        assert descriptor.contract.frequency_hz == 100
        assert descriptor.contract.period_ns == 10_000_000
        assert descriptor.contract.cpu == 0
        assert descriptor.contract.priority == 2

    def test_ports(self, descriptor):
        outs, ins = descriptor.outports, descriptor.inports
        assert len(outs) == 1 and len(ins) == 1
        assert outs[0].name == "IMAGES"
        assert outs[0].interface is PortInterface.RTAI_SHM
        assert outs[0].data_type == "Byte"
        assert outs[0].size == 400
        assert ins[0].name == "XYSIZE"
        assert ins[0].data_type == "Integer"

    def test_property(self, descriptor):
        assert descriptor.property_value("prox00") == 6

    def test_task_name_is_rtai_name(self, descriptor):
        assert descriptor.task_name == "CAMERA"


class TestTaskName:
    """``task_name`` is computed once at construction, on both paths."""

    def test_valid_name_is_upper_cased(self):
        descriptor = ComponentDescriptor.from_xml(PAPER_FIGURE_2)
        assert vars(descriptor)["task_name"] == "CAMERA"
        assert descriptor.contract.name == "CAMERA"

    @pytest.mark.parametrize("name", ["smartcamera", "cam-01"])
    def test_invalid_name_falls_back_to_derived_name(self, name):
        with pytest.raises(InvalidTaskNameError):
            rtai_names.validate_name(name)
        descriptor = ComponentDescriptor.from_xml(
            PAPER_FIGURE_2.replace('name="camera"', 'name="%s"' % name))
        derived = rtai_names.derive_port_name(name, name)
        assert vars(descriptor)["task_name"] == derived
        assert descriptor.contract.name == derived


class TestParsingVariants:
    def test_frequency_spelling_accepted(self):
        xml = PAPER_FIGURE_2.replace("frequence=", "frequency=")
        assert ComponentDescriptor.from_xml(xml).contract \
            .frequency_hz == 100

    def test_runoncpu_spelling_accepted(self):
        xml = PAPER_FIGURE_2.replace("runoncup=", "runoncpu=")
        assert ComponentDescriptor.from_xml(xml).contract.cpu == 0

    def test_declared_namespace_accepted(self):
        xml = PAPER_FIGURE_2.replace(
            "<drt:component",
            '<drt:component xmlns:drt="http://pats.ua.ac.be/drt"')
        descriptor = ComponentDescriptor.from_xml(xml)
        assert descriptor.name == "camera"

    def test_enabled_false(self):
        xml = PAPER_FIGURE_2.replace('enabled="true"',
                                     'enabled="false"')
        assert ComponentDescriptor.from_xml(xml).enabled is False

    def test_aperiodic_component(self):
        xml = """<?xml version="1.0"?>
        <drt:component name="events" type="aperiodic" cpuusage="0.02">
          <implementation bincode="x.Events"/>
          <aperiodictask runoncpu="1" priority="4"/>
        </drt:component>"""
        descriptor = ComponentDescriptor.from_xml(xml)
        assert descriptor.task_type is TaskType.APERIODIC
        assert descriptor.contract.cpu == 1
        assert descriptor.contract.priority == 4
        assert descriptor.contract.period_ns is None

    def test_long_component_name_derives_task_name(self):
        xml = PAPER_FIGURE_2.replace('name="camera"',
                                     'name="calculation-service"')
        descriptor = ComponentDescriptor.from_xml(xml)
        assert len(descriptor.task_name) <= 6

    def test_deadline_attribute(self):
        xml = PAPER_FIGURE_2.replace(
            'priority="2"', 'priority="2" deadline_ns="5000000"')
        descriptor = ComponentDescriptor.from_xml(xml)
        assert descriptor.contract.deadline_ns == 5_000_000

    def test_mailbox_interface_port(self):
        xml = PAPER_FIGURE_2.replace("RTAI.SHM", "RTAI.Mailbox")
        descriptor = ComponentDescriptor.from_xml(xml)
        assert descriptor.outports[0].interface \
            is PortInterface.RTAI_MAILBOX


class TestValidation:
    def test_missing_name_rejected(self):
        xml = PAPER_FIGURE_2.replace('name="camera" ', "", 1)
        with pytest.raises(DescriptorError):
            ComponentDescriptor.from_xml(xml)

    def test_missing_implementation_rejected(self):
        xml = PAPER_FIGURE_2.replace(
            '<implementation bincode="ua.pats.demo.smartcamera.'
            'RTComponent"/>', "")
        with pytest.raises(DescriptorError):
            ComponentDescriptor.from_xml(xml)

    def test_periodic_without_periodictask_rejected(self):
        xml = PAPER_FIGURE_2.replace(
            '<periodictask frequence="100" runoncup="0" priority="2"/>',
            "")
        with pytest.raises(DescriptorError):
            ComponentDescriptor.from_xml(xml)

    def test_unknown_element_rejected(self):
        xml = PAPER_FIGURE_2.replace(
            "</drt:component>", "<mystery/></drt:component>")
        with pytest.raises(DescriptorError):
            ComponentDescriptor.from_xml(xml)

    def test_bad_task_type_rejected(self):
        xml = PAPER_FIGURE_2.replace('type="periodic"',
                                     'type="sporadic"')
        with pytest.raises(DescriptorError):
            ComponentDescriptor.from_xml(xml)

    def test_unparseable_xml_rejected(self):
        with pytest.raises(DescriptorError):
            ComponentDescriptor.from_xml("<not-closed")

    def test_cpuusage_over_one_rejected(self):
        xml = PAPER_FIGURE_2.replace('cpuusage="0.1"',
                                     'cpuusage="1.5"')
        from repro.core.errors import ContractError
        with pytest.raises(ContractError):
            ComponentDescriptor.from_xml(xml)

    def test_duplicate_port_rejected(self):
        xml = PAPER_FIGURE_2.replace(
            "</drt:component>",
            '<outport name="images" interface="RTAI.SHM" type="Byte" '
            'size="400"/></drt:component>')
        with pytest.raises(DescriptorError):
            ComponentDescriptor.from_xml(xml)

    def test_duplicate_property_rejected(self):
        xml = PAPER_FIGURE_2.replace(
            "</drt:component>",
            '<property name="prox00" type="Integer" value="7"/>'
            "</drt:component>")
        with pytest.raises(DescriptorError):
            ComponentDescriptor.from_xml(xml)

    def test_unsupported_property_type_rejected(self):
        with pytest.raises(DescriptorError):
            ComponentProperty("p", "Complex", "1")

    def test_unparseable_property_value_rejected(self):
        with pytest.raises(DescriptorError):
            ComponentProperty("p", "Integer", "six")


class TestPropertyTypes:
    @pytest.mark.parametrize("type_name,raw,expected", [
        ("Integer", "42", 42),
        ("Byte", "255", 255),
        ("Long", "9999999999", 9999999999),
        ("Float", "1.5", 1.5),
        ("Double", "2.5", 2.5),
        ("String", "hello", "hello"),
        ("Boolean", "true", True),
        ("Boolean", "False", False),
    ])
    def test_parsing(self, type_name, raw, expected):
        prop = ComponentProperty("p", type_name, raw)
        assert prop.value == expected


class TestRoundTrip:
    def test_to_xml_from_xml_roundtrip(self):
        original = ComponentDescriptor.from_xml(PAPER_FIGURE_2)
        reparsed = ComponentDescriptor.from_xml(original.to_xml())
        assert reparsed.name == original.name
        assert reparsed.contract == original.contract
        assert reparsed.ports == original.ports
        assert reparsed.property_dict() == original.property_dict()
        assert reparsed.enabled == original.enabled
        assert reparsed.implementation == original.implementation
