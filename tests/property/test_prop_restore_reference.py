"""Property: a one-entry ``restore_entries`` batch is the old singleton
restore.

``restore_entries`` is the one path exported entries take onto a DRCR
-- the cluster's deploys, migrations and failover all call it -- and a
single component is a one-entry batch.  The singleton path it replaced lives
on only as :func:`reference_restore` below.  For drawn entries (saved
state ACTIVE, SUSPENDED or DISABLED, with and without live properties,
an inport that may have no provider, a name that may already be
registered), both must reach the same outcome bucket through the same
reconfiguration rounds, DRCR event sequence, component state and
property stash, and stay identical once the platform runs on.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.descriptor import ComponentDescriptor
from repro.core.lifecycle import ComponentState
from repro.core.snapshot import (
    PendingPropertyStash,
    apply_live_properties,
    restore_entries,
)
from repro.platform import build_platform
from repro.rtos.kernel import KernelConfig
from repro.rtos.latency import NullLatencyModel
from repro.sim.engine import MSEC

from conftest import deploy, make_descriptor_xml

PORT = ("RLNK00", "RTAI.SHM", "Integer", 2)
NAME = "RESTO0"


def reference_restore(drcr, entry, stash=None):
    """The retired singleton restore: register outside any batch, then
    apply the saved lifecycle intent and live properties."""
    name = entry["name"]
    if name in drcr.registry:
        return "skipped"
    component = drcr.register_component(
        ComponentDescriptor.from_xml(entry["descriptor_xml"]))
    saved_state = entry["state"]
    if saved_state == ComponentState.DISABLED.value:
        if component.state is not ComponentState.DISABLED:
            drcr.disable_component(name)
        return "disabled"
    properties = entry.get("properties")
    if component.state is ComponentState.ACTIVE:
        if properties:
            apply_live_properties(component, properties)
        if saved_state == ComponentState.SUSPENDED.value:
            drcr.suspend_component(name)
            return "suspended"
        return "restored"
    if stash is not None:
        stash.stash(name, properties)
    return "unsatisfied"


cases = st.fixed_dictionaries({
    "state": st.sampled_from([ComponentState.ACTIVE.value,
                              ComponentState.SUSPENDED.value,
                              ComponentState.DISABLED.value]),
    "gain": st.none() | st.integers(-1_000, 1_000),
    "enabled": st.booleans(),
    "inport": st.booleans(),
    "provider": st.booleans(),
    "registered": st.booleans(),
    "cpuusage": st.sampled_from([0.1, 0.5, 0.95]),
})


def make_entry(case):
    xml = make_descriptor_xml(
        NAME, cpuusage=case["cpuusage"], frequency=250, priority=3,
        enabled=case["enabled"], inports=[PORT] if case["inport"] else (),
        properties=[("gain", "Integer", "1")])
    entry = {"name": NAME, "descriptor_xml": xml, "state": case["state"],
             "bundle": None}
    if case["gain"] is not None:
        entry["properties"] = {"gain": case["gain"]}
    return entry


def make_platform(case):
    platform = build_platform(
        seed=17,
        kernel_config=KernelConfig(latency_model=NullLatencyModel()))
    platform.start_timer(MSEC)
    if case["provider"]:
        deploy(platform, make_descriptor_xml(
            "RPROV0", cpuusage=0.2, outports=[PORT]))
    if case["registered"]:
        deploy(platform, make_descriptor_xml(
            NAME, cpuusage=0.1, frequency=100, priority=5,
            properties=[("gain", "Integer", "7")]))
    platform.run_for(5 * MSEC)
    return platform


def observe(platform, stash):
    drcr = platform.drcr
    component = drcr.registry.maybe_get(NAME)
    return {
        "events": [(event.time, event.event_type, event.component,
                    event.reason) for event in drcr.events],
        "rounds": drcr.reconfigurations,
        "state": component.state if component else None,
        "gain": component.container.get_property("gain")
        if component is not None and component.container is not None
        else None,
        "stash": {name: dict(properties) for name, properties
                  in stash._pending.items()},
        "tasks": sorted(task.name for task in platform.kernel.tasks),
    }


@settings(max_examples=60, deadline=None)
@given(cases)
def test_one_entry_batch_matches_the_singleton_reference(case):
    entry = make_entry(case)
    reference = make_platform(case)
    reference_stash = PendingPropertyStash(reference.drcr)
    expected = reference_restore(reference.drcr, dict(entry),
                                 stash=reference_stash)

    batched = make_platform(case)
    batched_stash = PendingPropertyStash(batched.drcr)
    report = restore_entries(batched.drcr, [dict(entry)],
                             stash=batched_stash)

    assert [bucket for bucket, names in report.items() if names] \
        == [expected]
    assert report[expected] == [NAME]
    assert observe(batched, batched_stash) \
        == observe(reference, reference_stash)
    reference.run_for(20 * MSEC)
    batched.run_for(20 * MSEC)
    assert observe(batched, batched_stash) \
        == observe(reference, reference_stash)
