"""Property-based consistency of the ComponentRegistry indexes.

After any sequence of register / unregister / state-change operations,
every index-backed query must equal the brute-force scan over
``registry.all()`` it replaced (including ordering).

The utilization ledger is held to a stricter rule: it must equal the
*exact* sum of the admitted claims, correctly rounded.
``reference_declared_utilization`` below is the ledger's predecessor, a
float sum over the state buckets in the order components entered them.
It is kept here, and only here, to show that the two give the same
:func:`~repro.core.placement.fits` verdict at the caps admission and
placement use, and to pin the one kind of case where they differ.
"""

import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.component import DRComComponent, LifecycleToken
from repro.core.contracts import RealTimeContract
from repro.core.descriptor import ComponentDescriptor
from repro.core.lifecycle import ComponentState
from repro.core.placement import fits
from repro.core.ports import PortDirection, PortInterface, PortSpec
from repro.core.registry import ComponentRegistry
from repro.rtos.task import TaskType

from conftest import make_descriptor_xml

_TOKEN = LifecycleToken("prop-test")
_SIGNATURES = ["SIGA00", "SIGB00", "SIGC00"]
_ADMITTED = (ComponentState.ACTIVE, ComponentState.SUSPENDED)

# Direct assignment (the tests' force_state shortcut) must keep the
# state index consistent, so the strategy assigns states freely.
states = st.sampled_from(list(ComponentState))
signatures = st.sampled_from(_SIGNATURES)
#: Declared claims as descriptors write them: 0.001-0.6, three places.
claims = st.integers(min_value=1, max_value=600).map(
    lambda milli: round(milli / 1000, 3))
_CAPS = (1.0, 0.9, 0.75)


@st.composite
def operations(draw):
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=25))):
        kind = draw(st.sampled_from(["add", "remove", "set_state"]))
        if kind == "add":
            ops.append(("add",
                        draw(st.lists(signatures, max_size=2,
                                      unique=True)),
                        draw(st.lists(signatures, max_size=2,
                                      unique=True)),
                        draw(st.integers(min_value=0, max_value=1)),
                        draw(claims), draw(states)))
        else:
            ops.append((kind, draw(st.integers(min_value=0,
                                               max_value=30)),
                        draw(states)))
    return ops


def build_component(name, outports, inports, cpu, cpuusage=0.01):
    xml = make_descriptor_xml(
        name, cpuusage=cpuusage, cpu=cpu,
        outports=[(port, "RTAI.SHM", "Integer", 4) for port in outports],
        inports=[(port, "RTAI.SHM", "Integer", 4) for port in inports])
    return DRComComponent(ComponentDescriptor.from_xml(xml), None,
                          _TOKEN)


def apply_ops(ops):
    registry = ComponentRegistry()
    counter = 0
    for op in ops:
        if op[0] == "add":
            _, outports, inports, cpu, cpuusage, state = op
            component = build_component("N%05d" % counter, outports,
                                        inports, cpu, cpuusage)
            component.state = state  # may arrive already admitted
            registry.add(component)
            counter += 1
        else:
            members = registry.all()
            if not members:
                continue
            target = members[op[1] % len(members)]
            if op[0] == "remove":
                registry.remove(target)
            else:
                target.state = op[2]
    return registry


def reference_declared_utilization(registry, cpu, extra=None):
    """The ledger's predecessor: a float sum over the admitted state
    buckets, in the order components entered them."""
    total = 0.0
    for state in _ADMITTED:
        for component in registry._by_state[state].values():
            if component.contract.cpu == cpu:
                total += component.contract.cpu_usage
    if extra is not None and extra.cpu == cpu:
        total += extra.cpu_usage
    return total


def exact_utilization(members, cpu):
    return float(sum(Fraction(c.contract.cpu_usage) for c in members
                     if c.state in _ADMITTED and c.contract.cpu == cpu))


def claim_contract(cpu, cpu_usage):
    return RealTimeContract("CAND00", TaskType.APERIODIC,
                            cpu_usage=cpu_usage, cpu=cpu)


def admitted_fleet(usages):
    """A one-CPU registry whose components are admitted in ``usages``
    order."""
    registry = ComponentRegistry()
    for index, usage in enumerate(usages):
        component = build_component("F%05d" % index, [], [], 0, usage)
        registry.add(component)
        component.state = ComponentState.ACTIVE
    return registry


def probe_inport(signature):
    return PortSpec(signature, PortDirection.IN, PortInterface.RTAI_SHM,
                    "Integer", 4)


class TestIndexConsistency:
    @settings(max_examples=60, deadline=None)
    @given(operations())
    def test_state_index_matches_bruteforce(self, ops):
        registry = apply_ops(ops)
        members = registry.all()
        for state in ComponentState:
            expected = [c for c in members if c.state is state]
            assert registry.in_state(state) == expected
        counts = registry.state_counts()
        for state in ComponentState:
            assert counts[state] == sum(
                1 for c in members if c.state is state)
        assert registry.active() == [
            c for c in members if c.state in _ADMITTED]
        assert registry.unsatisfied() == [
            c for c in members
            if c.state is ComponentState.UNSATISFIED]

    @settings(max_examples=60, deadline=None)
    @given(operations())
    def test_provider_index_matches_bruteforce(self, ops):
        registry = apply_ops(ops)
        members = registry.all()
        for signature in _SIGNATURES:
            inport = probe_inport(signature)
            expected = [
                (component, outport)
                for component in members
                if component.state in _ADMITTED
                for outport in component.descriptor.outports
                if inport.compatible_with(outport)
            ]
            assert registry.providers_of(inport) == expected

    @settings(max_examples=60, deadline=None)
    @given(operations())
    def test_consumer_edges_match_bruteforce(self, ops):
        registry = apply_ops(ops)
        members = registry.all()
        for provider in members:
            provided = {outport.signature()
                        for outport in provider.descriptor.outports}
            expected = [
                component for component in members
                if component is not provider and any(
                    inport.signature() in provided
                    for inport in component.descriptor.inports)
            ]
            assert registry.consumers_of(provider) == expected

    @settings(max_examples=60, deadline=None)
    @given(operations())
    def test_utilization_ledger_matches_bruteforce(self, ops):
        registry = apply_ops(ops)
        members = registry.all()
        for cpu in (0, 1):
            assert registry.declared_utilization(cpu) \
                == exact_utilization(members, cpu)

    @settings(max_examples=60, deadline=None)
    @given(operations(), claims)
    def test_fit_verdicts_match_the_float_loop(self, ops, claim):
        registry = apply_ops(ops)
        for cpu in (0, 1):
            extra = claim_contract(cpu, claim)
            ledger = registry.declared_utilization(cpu, extra)
            reference = reference_declared_utilization(registry, cpu,
                                                       extra)
            for cap in _CAPS:
                assert fits(ledger, cap) == fits(reference, cap)

    @settings(max_examples=60, deadline=None)
    @given(operations())
    def test_task_name_index_matches_bruteforce(self, ops):
        registry = apply_ops(ops)
        for component in registry.all():
            assert registry.by_task_name(
                component.descriptor.task_name) is component


class TestLedgerExactness:
    def test_cap_boundary_claims_read_one_in_every_order(self):
        # Sequentially these sum to 0.9999999999999999, 1.0 or
        # 1.0000000000000002 depending on the admission order.
        for order in itertools.permutations([0.2, 0.4, 0.3, 0.1]):
            assert admitted_fleet(order).declared_utilization(0) == 1.0

    def test_exact_total_admits_a_claim_the_float_sum_rejects(self):
        # A fleet built to sum within a few ulps of cap + CAPACITY_SLACK:
        # the sequential float sum lands just above the slack, the
        # correctly rounded exact sum just inside it.  This is the one
        # kind of verdict the exact ledger changes.
        fleet = [0.15424091205096718, 0.4080631795600157]
        candidate = claim_contract(0, 0.4376959083900173)
        registry = admitted_fleet(fleet)
        reference = reference_declared_utilization(registry, 0, candidate)
        ledger = registry.declared_utilization(0, candidate)
        assert reference == 1.0000000000010003
        assert ledger == 1.000000000001
        assert not fits(reference, 1.0)
        assert fits(ledger, 1.0)

    def test_claim_recorded_at_entry_is_the_claim_released(self):
        registry = admitted_fleet([0.25])
        component = registry.get("F00000")
        component.contract.cpu = 1  # re-pinned while admitted
        assert registry.declared_utilization(0) == 0.25
        assert registry.declared_utilization(1) == 0.0
        component.state = ComponentState.UNSATISFIED
        assert registry.declared_utilization(0) == 0.0
        assert registry.declared_utilization(1) == 0.0
