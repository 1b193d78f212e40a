#!/usr/bin/env python3
"""The paper's motivating scenario: a Set-Top Box (section 1).

"An example is given by the Set-Top Boxes needed to decode/encode media
data, which has typical soft real-time characteristics."

The box runs on one CPU; a component's importance is its task
priority (lower number = more important):

* **decode** -- the 50 Hz video decoder (priority 1),
* **osd** -- the 25 Hz on-screen display reading the decoder's frame
  port (priority 2),
* **rec** -- a second decode chain for background recording that a
  user switches on mid-flight (continuous deployment!, priority 3),
* **epg** -- an electronic-program-guide indexer (priority 4).

The demonstration:

1. the DRCR's admission control (RM response-time analysis) protects
   the running decode pipeline when the recording chain arrives -- the
   overloaded configuration is simply *not admitted*;
2. with admission off the recorder is admitted, pressure appears, and
   two declarative rules (``examples/settopbox.rules.json``, evaluated
   by :class:`~repro.adapt.controller.AdaptationController`) shed the
   least important component instead of letting the decoder miss
   frames.  The policy is data, so drtlint audits it before it runs:
   ``python -m repro lint --family DRT5 examples/``;
3. Linux-side stress (the JVM's garbage collector, downloads) never
   touches the decode latency -- the dual-kernel guarantee.

Run:  python examples/adaptive_settopbox.py
"""

import os

from repro import build_platform
from repro.adapt import AdaptationController, JsonRuleProvider
from repro.core import AlwaysAcceptPolicy, ResponseTimeAnalysisPolicy
from repro.rtos.load import JVMGarbageCollectorLoad, apply_stress
from repro.sim.engine import MSEC, SEC

RULES_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "settopbox.rules.json")


def component_xml(name, frequency, priority, cpuusage, outports="",
                  inports=""):
    return """<?xml version="1.0" encoding="UTF-8"?>
<drt:component name="%s" type="periodic" enabled="true" cpuusage="%s">
  <implementation bincode="stb.%s"/>
  <periodictask frequence="%s" runoncpu="0" priority="%d"/>
  %s%s
</drt:component>""" % (name, cpuusage, name, frequency, priority,
                       outports, inports)


DECODE_XML = component_xml(
    "DECODE", 50, 1, 0.40,
    outports='<outport name="FRAME0" interface="RTAI.SHM" type="Byte" '
             'size="128"/>')
OSD_XML = component_xml(
    "OSD000", 25, 2, 0.15,
    inports='<inport name="FRAME0" interface="RTAI.SHM" type="Byte" '
            'size="128"/>')
REC_XML = component_xml("REC000", 50, 3, 0.35)
EPG_XML = component_xml("EPG000", 5, 4, 0.20)


def deploy(platform, name, xml):
    return platform.install_and_start(
        {"Bundle-SymbolicName": "stb.%s" % name.lower(),
         "RT-Component": "OSGI-INF/c.xml"},
        resources={"OSGI-INF/c.xml": xml})


def states(platform, *names):
    return {name: platform.drcr.component_state(name).value
            for name in names}


def main():
    print("== phase 1: admission control protects the pipeline ==")
    platform = build_platform(
        seed=31, internal_policy=ResponseTimeAnalysisPolicy())
    platform.start_timer(1 * MSEC)
    deploy(platform, "DECODE", DECODE_XML)
    deploy(platform, "OSD000", OSD_XML)
    deploy(platform, "EPG000", EPG_XML)
    platform.run_for(500 * MSEC)
    print("baseline:", states(platform, "DECODE", "OSD000", "EPG000"))

    # The user hits 'record': a fourth chain arrives at run time.
    deploy(platform, "REC000", REC_XML)
    print("recorder deployed:", states(platform, "REC000"))
    print("  reason:", platform.drcr.component("REC000").status_reason)
    platform.run_for(1 * SEC)
    decode_task = platform.kernel.lookup("DECODE")
    print("decoder misses with admission control: %d"
          % decode_task.stats.deadline_misses)
    platform.shutdown()

    print("\n== phase 2: admission disabled + declarative shedding ==")
    # An operator who *insists* on the recorder can turn admission off;
    # the rules then keep the box alive by shedding the least important
    # component instead.
    platform = build_platform(
        seed=31, internal_policy=AlwaysAcceptPolicy())
    platform.start_timer(1 * MSEC)
    deploy(platform, "DECODE", DECODE_XML)
    deploy(platform, "OSD000", OSD_XML)
    deploy(platform, "EPG000", EPG_XML)
    deploy(platform, "REC000", REC_XML)  # demand now 1.10: overload
    print("all four deployed:",
          states(platform, "DECODE", "OSD000", "EPG000", "REC000"))

    provider = JsonRuleProvider(RULES_PATH)
    print("rules from %s: %s"
          % (os.path.basename(RULES_PATH),
             ", ".join(rule.name for rule in provider.rules())))
    controller = AdaptationController(platform, epoch_ns=50 * MSEC)
    # Registered through OSGi, exactly like a management bundle would:
    # unregistering the provider at run time withdraws the policy.
    registration = provider.register(platform.framework)
    controller.start()
    platform.run_for(3 * SEC)
    for entry in controller.history:
        print("  %6.2f s  %-16s %s"
              % (entry["at_ns"] / SEC, entry["rule"], entry["outcome"]))
    print("after shedding:",
          states(platform, "DECODE", "OSD000", "EPG000", "REC000"))
    decode_task = platform.kernel.lookup("DECODE")
    print("decoder misses:", decode_task.stats.deadline_misses)

    print("\n== phase 3: Linux load cannot hurt the decoder ==")
    decode_task.stats.latency.clear()
    platform.run_for(2 * SEC)
    quiet = decode_task.stats.latency.summary()
    platform.kernel.register_load(JVMGarbageCollectorLoad(demand=0.3))
    apply_stress(platform.kernel)
    decode_task.stats.latency.clear()
    platform.run_for(2 * SEC)
    stressed = decode_task.stats.latency.summary()
    print("decode latency, quiet Linux : avg=%8.1f ns avedev=%7.1f ns"
          % (quiet["average"], quiet["avedev"]))
    print("decode latency, GC + stress: avg=%8.1f ns avedev=%7.1f ns"
          % (stressed["average"], stressed["avedev"]))
    print("decoder misses total:", decode_task.stats.deadline_misses)
    registration.unregister()
    controller.stop()
    platform.shutdown()


if __name__ == "__main__":
    main()
