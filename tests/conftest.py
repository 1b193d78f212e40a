"""Shared fixtures for the test suite."""

import pytest

from repro.adapt.rules import parse_rule_document
from repro.core.policies import UtilizationBoundPolicy
from repro.hybrid import RTImplementation, make_container_factory
from repro.hybrid.implementation import ImplementationRegistry
from repro.platform import build_platform
from repro.rtos.kernel import KernelConfig, RTKernel
from repro.rtos.latency import NullLatencyModel
from repro.sim.engine import MSEC, Simulator


@pytest.fixture
def sim():
    """A fresh deterministic simulator."""
    return Simulator(seed=1234)


@pytest.fixture
def kernel(sim):
    """A single-CPU kernel with a zero-jitter latency model (tests make
    exact timing assertions)."""
    return RTKernel(sim, KernelConfig(latency_model=NullLatencyModel()))


@pytest.fixture
def kernel2(sim):
    """A dual-CPU kernel with zero-jitter latency."""
    return RTKernel(sim, KernelConfig(num_cpus=2,
                                      latency_model=NullLatencyModel()))


@pytest.fixture
def platform():
    """A full platform (zero-jitter kernel, timer already running)."""
    p = build_platform(
        seed=7,
        kernel_config=KernelConfig(latency_model=NullLatencyModel()),
        internal_policy=UtilizationBoundPolicy(cap=1.0),
    )
    p.start_timer(1 * MSEC)
    return p


def make_descriptor_xml(name, *, task_type="periodic", enabled=True,
                        cpuusage=0.05, frequency=1000, priority=2, cpu=0,
                        outports=(), inports=(), properties=(),
                        bincode=None):
    """Compose DRCom descriptor XML for tests.

    ``outports``/``inports`` are iterables of (name, interface, type,
    size); ``properties`` of (name, type, value).
    """
    lines = ['<?xml version="1.0" encoding="UTF-8"?>']
    lines.append(
        '<drt:component name="%s" desc="test component" type="%s" '
        'enabled="%s" cpuusage="%s">'
        % (name, task_type, "true" if enabled else "false", cpuusage))
    lines.append('  <implementation bincode="%s"/>'
                 % (bincode or "test.%s.Impl" % name))
    if task_type == "periodic":
        lines.append('  <periodictask frequence="%s" runoncpu="%d" '
                     'priority="%d"/>' % (frequency, cpu, priority))
    else:
        lines.append('  <aperiodictask runoncpu="%d" priority="%d"/>'
                     % (cpu, priority))
    for pname, iface, dtype, size in outports:
        lines.append('  <outport name="%s" interface="%s" type="%s" '
                     'size="%d"/>' % (pname, iface, dtype, size))
    for pname, iface, dtype, size in inports:
        lines.append('  <inport name="%s" interface="%s" type="%s" '
                     'size="%d"/>' % (pname, iface, dtype, size))
    for pname, ptype, value in properties:
        lines.append('  <property name="%s" type="%s" value="%s"/>'
                     % (pname, ptype, value))
    lines.append("</drt:component>")
    return "\n".join(lines)


def suspend_rules(param, threshold, names):
    """One rule per named component: ``<param>#<name>`` above
    ``threshold`` suspends that component (read from a
    ``ComponentContextProvider``)."""
    return parse_rule_document({"rules": [
        {"name": "%s-%s" % (param, name),
         "when": {"param": param, "component": name, "op": ">",
                  "value": threshold},
         "then": {"action": "suspend", "component": name}}
        for name in names]})


class Liar(RTImplementation):
    """Declares little, burns much: each job consumes three times the
    contract's derived WCET."""

    def compute_ns(self, ctx):
        return 3 * ctx.contract.wcet_ns


def liar_platform():
    """A zero-jitter platform running ``LIAR00`` (cpuusage 0.1, a
    :class:`Liar`, so it really uses 0.3)."""
    registry = ImplementationRegistry()
    registry.register("liar.Impl", Liar)
    platform = build_platform(
        seed=3,
        kernel_config=KernelConfig(latency_model=NullLatencyModel()),
        container_factory=make_container_factory(registry))
    platform.start_timer(1 * MSEC)
    deploy(platform, make_descriptor_xml(
        "LIAR00", cpuusage=0.1, bincode="liar.Impl"))
    return platform


def deploy(platform, xml, bundle_name=None):
    """Install+start a one-descriptor bundle; returns the bundle."""
    import re
    name = bundle_name or "test.bundle.%s" % re.search(
        r'name="([^"]+)"', xml).group(1)
    return platform.install_and_start(
        {"Bundle-SymbolicName": name, "RT-Component": "OSGI-INF/c.xml"},
        resources={"OSGI-INF/c.xml": xml})
