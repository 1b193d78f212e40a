"""Property-based tests: descriptor XML round-trips losslessly, and
``to_xml`` serves its stored text exactly."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.contracts import DistributionSpec, StochasticContract
from repro.core.descriptor import ComponentDescriptor, ComponentProperty
from repro.core.ports import PortDirection, PortSpec
from repro.rtos.task import TaskType

rtai_names = st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_",
                     min_size=1, max_size=6)
component_names = st.text(alphabet="abcdefghijklmnopqrstuvwxyz.-",
                          min_size=1, max_size=24)
#: Text the renderer must escape.
markup = st.text(alphabet="ab <>&\"'", max_size=12)
cpus = st.integers(min_value=0, max_value=3)


@st.composite
def port_specs(draw, direction):
    return PortSpec(
        draw(rtai_names),
        direction,
        draw(st.sampled_from(["RTAI.SHM", "RTAI.Mailbox"])),
        draw(st.sampled_from(["Integer", "Byte", "Float"])),
        draw(st.integers(min_value=1, max_value=10_000)),
    )


@st.composite
def properties(draw):
    type_name, value = draw(st.sampled_from([
        ("Integer", "42"), ("Integer", "-7"), ("Byte", "200"),
        ("Float", "1.25"), ("String", "hello"), ("Boolean", "true"),
        ("Boolean", "false"),
    ]) | st.tuples(st.just("String"), markup))
    return ComponentProperty(draw(rtai_names), type_name, value)


@st.composite
def distribution_specs(draw):
    family = draw(st.sampled_from(DistributionSpec.FAMILIES))
    positive = st.floats(min_value=1.0, max_value=1e9,
                         allow_nan=False, allow_infinity=False)
    if family == "exponential":
        return DistributionSpec(family, mean_ns=draw(positive))
    if family == "uniform":
        lo = draw(positive)
        return DistributionSpec(family, min_ns=lo,
                                max_ns=lo + draw(positive))
    return DistributionSpec(family, mean_ns=draw(positive),
                            std_ns=draw(positive))


@st.composite
def stochastic_contracts(draw):
    interarrival, exectime = draw(st.sampled_from(
        [(True, False), (False, True), (True, True)]))
    return StochasticContract(
        interarrival=draw(distribution_specs()) if interarrival
        else None,
        exectime=draw(distribution_specs()) if exectime else None,
        tolerance=draw(st.floats(min_value=0.001, max_value=0.5,
                                 allow_nan=False)),
        min_samples=draw(st.integers(min_value=8, max_value=4096)),
    )


@st.composite
def descriptors(draw):
    task_type = draw(st.sampled_from(list(TaskType)))
    outs = draw(st.lists(port_specs(PortDirection.OUT), max_size=3))
    ins = draw(st.lists(port_specs(PortDirection.IN), max_size=3))
    ports, seen = [], set()
    for port in outs + ins:
        key = (port.direction, port.name)
        if key not in seen:
            seen.add(key)
            ports.append(port)
    props, prop_names = [], set()
    for prop in draw(st.lists(properties(), max_size=3)):
        if prop.name not in prop_names:
            prop_names.add(prop.name)
            props.append(prop)
    kwargs = {}
    if task_type is TaskType.PERIODIC:
        kwargs["frequency_hz"] = draw(st.floats(
            min_value=0.1, max_value=100_000, allow_nan=False))
    elif task_type is TaskType.SPORADIC:
        kwargs["min_interarrival_ns"] = draw(st.integers(
            min_value=1_000, max_value=10_000_000_000))
    # Every task type may declare an explicit deadline; drtlint's
    # admission analyzers read it, so the round trip must keep it.
    if draw(st.booleans()):
        kwargs["deadline_ns"] = draw(st.integers(
            min_value=1_000, max_value=10_000_000_000))
    if draw(st.booleans()):
        kwargs["stochastic"] = draw(stochastic_contracts())
    return ComponentDescriptor(
        name=draw(component_names),
        implementation="impl.Class",
        task_type=task_type,
        description=draw(st.text(
            alphabet="abc <>&\"' xyz", max_size=20)),
        enabled=draw(st.booleans()),
        cpu_usage=draw(st.floats(min_value=0.0, max_value=1.0,
                                 allow_nan=False)),
        priority=draw(st.integers(min_value=0, max_value=255)),
        cpu=draw(cpus),
        ports=ports,
        properties=props,
        **kwargs,
    )


class TestDescriptorRoundTrip:
    @given(descriptors())
    def test_xml_roundtrip_preserves_everything(self, descriptor):
        reparsed = ComponentDescriptor.from_xml(descriptor.to_xml())
        assert reparsed.name == descriptor.name
        assert reparsed.enabled == descriptor.enabled
        assert reparsed.implementation == descriptor.implementation
        assert reparsed.description == descriptor.description
        assert reparsed.contract == descriptor.contract
        assert reparsed.contract.deadline_ns \
            == descriptor.contract.deadline_ns
        assert reparsed.contract.cpu == descriptor.contract.cpu
        assert reparsed.ports == descriptor.ports
        assert [p.size for p in reparsed.ports] \
            == [p.size for p in descriptor.ports]
        assert reparsed.property_dict() == descriptor.property_dict()
        assert {name: prop.type_name
                for name, prop in reparsed.properties.items()} \
            == {name: prop.type_name
                for name, prop in descriptor.properties.items()}

    @given(descriptors())
    def test_to_xml_is_idempotent(self, descriptor):
        # Serialise -> parse -> serialise must be a fixpoint: drtlint
        # diagnostics reference descriptor text, so a drifting
        # serialisation would move every location on each rewrite.
        once = descriptor.to_xml()
        again = ComponentDescriptor.from_xml(once).to_xml()
        assert once == again

    @given(descriptors())
    def test_task_name_always_valid_rtai_name(self, descriptor):
        from repro.rtos.names import validate_name
        assert validate_name(descriptor.task_name) == descriptor.task_name

    @given(descriptors())
    def test_port_partition(self, descriptor):
        assert set(descriptor.inports) | set(descriptor.outports) \
            == set(descriptor.ports)
        assert not (set(descriptor.inports) & set(descriptor.outports))

    @given(descriptors())
    def test_stochastic_clause_roundtrips(self, descriptor):
        reparsed = ComponentDescriptor.from_xml(descriptor.to_xml())
        assert reparsed.contract.stochastic \
            == descriptor.contract.stochastic


class TestStoredXml:
    """``to_xml`` renders once and renders again only when
    ``contract.cpu`` (the one field the DRCR's placement assigns after
    construction) moves; ``render_xml`` is the reference."""

    @staticmethod
    def assert_exact(descriptor):
        text = descriptor.to_xml()
        assert text == descriptor.render_xml()
        assert descriptor.to_xml() is text
        reparsed = ComponentDescriptor.from_xml(text)
        assert reparsed.contract == descriptor.contract
        assert reparsed.property_dict() == descriptor.property_dict()
        assert reparsed.to_xml() == text

    @given(descriptors(),
           st.lists(st.tuples(cpus, st.booleans()), max_size=8))
    def test_stored_text_equals_a_fresh_render(self, descriptor, repins):
        self.assert_exact(descriptor)
        for cpu, read in repins:
            descriptor.contract.cpu = cpu
            if read:  # some re-pins are never read back before the next
                self.assert_exact(descriptor)
        self.assert_exact(descriptor)


class TestSporadicPinning:
    """Pins of the sporadic wire format (regression guards: the exact
    attribute spelling and the deadline/MIA distinction are what other
    tools parse)."""

    def _sporadic(self, **kwargs):
        return ComponentDescriptor(
            name="SPOR00", implementation="impl.Class",
            task_type=TaskType.SPORADIC, cpu_usage=0.1, priority=3,
            min_interarrival_ns=10_000_000, **kwargs)

    def test_to_xml_spells_mininterarrival_ns(self):
        # The schema's canonical spelling has no underscore between
        # "min" and "interarrival"; the tolerant parser also accepts
        # min_interarrival_ns, but serialisation must emit the
        # canonical form or drtlint's DRT107 would flag our own output.
        xml = self._sporadic().to_xml()
        assert 'mininterarrival_ns="10000000"' in xml
        assert "min_interarrival_ns" not in xml

    def test_deadline_distinct_from_mia_roundtrips(self):
        descriptor = self._sporadic(deadline_ns=4_000_000)
        reparsed = ComponentDescriptor.from_xml(descriptor.to_xml())
        assert reparsed.contract.period_ns == 10_000_000
        assert reparsed.contract.deadline_ns == 4_000_000
        assert reparsed.contract.deadline_ns \
            != reparsed.contract.period_ns
        assert reparsed.contract == descriptor.contract

    def test_default_deadline_is_the_mia(self):
        reparsed = ComponentDescriptor.from_xml(
            self._sporadic().to_xml())
        assert reparsed.contract.deadline_ns == 10_000_000
