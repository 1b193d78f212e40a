"""Shared helpers for the benchmark harness.

Every benchmark regenerates one artifact of the paper's evaluation
(see DESIGN.md, "Experiment index") and asserts the *shape* of the
result -- who wins, by what rough factor, where the crossovers are --
rather than absolute numbers.

The scaling ladders share four more helpers: :func:`ladder` reads a
ladder override from the environment, :func:`best_of` keeps the best
of repeated timed runs, :func:`growth_exponent` fits the log-log slope
between two rungs, and :func:`write_bench` writes the ``BENCH_*.json``
document together with the guards ``check_scaling_guardrail.py``
enforces against the committed baseline (docs/PERFORMANCE.md,
"Guardrails and re-baselining").
"""

import json
import math
import os
from pathlib import Path

from repro.platform import build_platform
from repro.rtos.kernel import KernelConfig
from repro.rtos.latency import NullLatencyModel
from repro.sim.engine import MSEC


def make_descriptor_xml(name, *, task_type="periodic", enabled=True,
                        cpuusage=0.05, frequency=1000, priority=2, cpu=0,
                        outports=(), inports=(), properties=(),
                        deadline_ns=None, bincode=None):
    """Compose DRCom descriptor XML (same shape as the test helper)."""
    lines = ['<?xml version="1.0" encoding="UTF-8"?>']
    lines.append(
        '<drt:component name="%s" desc="bench component" type="%s" '
        'enabled="%s" cpuusage="%s">'
        % (name, task_type, "true" if enabled else "false", cpuusage))
    lines.append('  <implementation bincode="%s"/>'
                 % (bincode or "bench.%s.Impl" % name))
    if task_type == "periodic":
        deadline = (' deadline_ns="%d"' % deadline_ns) if deadline_ns \
            else ""
        lines.append('  <periodictask frequence="%s" runoncpu="%d" '
                     'priority="%d"%s/>'
                     % (frequency, cpu, priority, deadline))
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


def deploy(platform, xml, bundle_name):
    """Install + start a one-descriptor bundle."""
    return platform.install_and_start(
        {"Bundle-SymbolicName": bundle_name,
         "RT-Component": "OSGI-INF/c.xml"},
        resources={"OSGI-INF/c.xml": xml})


def quiet_platform(seed=0, **kwargs):
    """Platform with the zero-jitter latency model (exact scheduling)."""
    kwargs.setdefault("kernel_config",
                      KernelConfig(latency_model=NullLatencyModel()))
    platform = build_platform(seed=seed, **kwargs)
    platform.start_timer(1 * MSEC)
    return platform


def noisy_platform(seed=0, **kwargs):
    """Platform with the calibrated Table-1 latency model."""
    platform = build_platform(seed=seed, **kwargs)
    platform.start_timer(1 * MSEC)
    return platform


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    The simulations are deterministic, so statistical repetition adds
    nothing but wall-clock time; one round measures the cost honestly.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)


#: Where every ladder writes its ``BENCH_<benchmark>.json``.
RESULT_DIR = Path(__file__).resolve().parent.parent


def ladder(variable, default):
    """The sizes in environment variable ``variable`` (``10,40,80``),
    else ``default``."""
    override = os.environ.get(variable)
    if not override:
        return default
    return tuple(int(part) for part in override.split(",") if part)


def best_of(repeats, run, key):
    """Call ``run()`` ``repeats`` times; return the result ``key``
    ranks highest (the earliest one on ties).  The other runs absorb
    allocator and cache warmup noise."""
    best = None
    for _ in range(repeats):
        result = run()
        if best is None or key(result) > key(best):
            best = result
    return best


def growth_exponent(small, large, small_size, large_size):
    """Log-log slope of a cost between two ladder rungs: ~1.0 is
    linear, 2.0 quadratic."""
    return (math.log(max(large, 1e-9) / max(small, 1e-9))
            / math.log(large_size / small_size))


def write_bench(document, guards):
    """Write ``document`` to ``BENCH_<document["benchmark"]>.json`` at
    the repository root, declaring ``guards`` for the guardrail.

    ``guards`` maps a metric path to ``{"better": "higher"}`` and/or
    ``cap``, ``floor`` and ``ladder`` (see
    ``check_scaling_guardrail.py``); ``better`` defaults to
    ``"lower"``.  A document of the same benchmark already on disk is
    merged into, guards included, so tests that each fill one section
    of a shared document do not clobber each other.
    """
    path = RESULT_DIR / ("BENCH_%s.json" % document["benchmark"])
    try:
        previous = json.loads(path.read_text())
    except (OSError, ValueError):
        previous = {}
    if previous.get("benchmark") != document["benchmark"]:
        previous = {}
    declared = {**previous.get("guards", {}),
                **{metric: {"better": "lower", **spec}
                   for metric, spec in guards.items()}}
    merged = {**previous, **document, "guards": declared}
    path.write_text(json.dumps(merged, indent=2) + "\n")
