"""Rendering each descriptor once leaves the federation unchanged.

``ComponentDescriptor.to_xml`` stores its text and renders it again
only when ``contract.cpu`` moves, and every node exports the XML of
every component it hosts on each membership tick.
This runs one scenario twice: as is, and with ``to_xml`` replaced by
the renderer itself (``render_xml``, the reference).  The scenario runs
on 2-CPU nodes over jittered, lossy links.  It deploys with properties
and as an application, exports a consumer before its provider lands
(the DRCR then re-pins it to the other CPU), sets a property through
``manage``, migrates, crashes a node (failover) and joins a new one.
Every export every node built (each one a push candidate), the
telemetry, the home map, the management replies and the failover
reports must be the same.
"""

import json

import pytest

from repro.cluster import Cluster, LinkSpec
from repro.cluster.node import ClusterNode
from repro.core.descriptor import ComponentDescriptor
from repro.rtos.kernel import KernelConfig
from repro.sim.engine import MSEC, USEC

from conftest import make_descriptor_xml

LINK = LinkSpec(latency_ns=500 * USEC, jitter_ns=300 * USEC,
                drop_probability=0.05)
FEED = [("FEED", "RTAI.SHM", "Integer", 4)]
PAIR = [("PAIR", "RTAI.SHM", "Integer", 4)]
GAIN = [("gain", "Integer", "1")]


def scenario(seed):
    cluster = Cluster(
        ("node0", "node1", "node2"), seed=seed, link=LINK,
        kernel_config_factory=lambda: KernelConfig(num_cpus=2))
    cluster.deploy(make_descriptor_xml(
        "LOAD00", cpuusage=0.4, frequency=200, properties=GAIN),
        node="node0", properties={"gain": 3})
    # No provider yet: exported on its declared CPU 0, unplaced.
    cluster.deploy(make_descriptor_xml(
        "SNK000", cpuusage=0.2, frequency=200, priority=3,
        inports=FEED, properties=GAIN), node="node0",
        properties={"gain": 4})
    cluster.deploy_application("pair", [
        make_descriptor_xml("APPSRC", cpuusage=0.1, frequency=100,
                            outports=PAIR),
        make_descriptor_xml("APPSNK", cpuusage=0.1, frequency=100,
                            priority=4, inports=PAIR, properties=GAIN),
    ], properties={"APPSNK": {"gain": 2}})
    cluster.run_for(40 * MSEC)
    # The provider lands on CPU 1 (CPU 0 carries LOAD00), and the
    # consumer, now admitted, is re-pinned beside it.
    cluster.deploy(make_descriptor_xml(
        "SRC000", cpuusage=0.1, frequency=200, priority=5,
        outports=FEED), node="node0")
    cluster.run_for(30 * MSEC)
    cluster.manage("SNK000", "set_property", "gain", 9)
    cluster.manage("LOAD00", "get_status")
    cluster.migrate("LOAD00", "node1")
    cluster.run_for(40 * MSEC)
    cluster.crash_node("node0")
    cluster.run_for(80 * MSEC)
    cluster.add_node("node3")
    cluster.deploy(make_descriptor_xml(
        "LATE00", cpuusage=0.3, properties=GAIN), node="node3",
        properties={"gain": 6})
    cluster.run_for(30 * MSEC)
    cluster.migrate("SNK000", "node3")
    cluster.run_for(40 * MSEC)
    return cluster


def observe(monkeypatch, seed):
    """Run the scenario and return everything it exported or decided,
    as JSON text (NaN latencies in status replies compare as text)."""
    exports = []
    export = ClusterNode.export

    def recorded_export(node):
        state = export(node)
        exports.append((node.name, node.now,
                        json.dumps(state, sort_keys=True)))
        return state

    monkeypatch.setattr(ClusterNode, "export", recorded_export)
    cluster = scenario(seed)
    try:
        final = {name: node.export()
                 for name, node in cluster.nodes.items() if node.alive}
        return json.dumps({
            "exports": exports,
            "final": final,
            "telemetry": cluster.sim.telemetry.as_dict(),
            "homes": cluster.deployments,
            "catalog": cluster.catalog,
            "mgmt_replies": cluster.mgmt_replies,
            "failovers": cluster.failovers,
            "report": cluster.report(),
        }, sort_keys=True)
    finally:
        cluster.shutdown()


@pytest.mark.parametrize("seed", range(4))
def test_export_matches_the_reference_renderer(monkeypatch, seed):
    rendered = {}  # descriptor -> the CPUs its XML was asked for at
    to_xml = ComponentDescriptor.to_xml

    def recording_to_xml(descriptor):
        rendered.setdefault(descriptor, set()).add(descriptor.contract.cpu)
        return to_xml(descriptor)

    with monkeypatch.context() as patch:
        patch.setattr(ComponentDescriptor, "to_xml", recording_to_xml)
        stored = observe(patch, seed)
    with monkeypatch.context() as patch:
        patch.setattr(ComponentDescriptor, "to_xml",
                      ComponentDescriptor.render_xml)
        reference = observe(patch, seed)

    # The scenario re-pins an exported descriptor to the other CPU.
    assert any(len(cpus) > 1 for cpus in rendered.values())
    assert stored == reference
