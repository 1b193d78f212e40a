#!/usr/bin/env python3
"""A closed control loop on the digital I/O module (Figure 3).

"The real-time task can also connect to sensors or actuators, via the
digital I/O module."  This example wires the paper's architecture end
to end with the repository's extensions:

* a **periodic controller** (500 Hz) samples a drifting plant on DIO
  input 0 and drives a bang-bang actuator on DIO output 1;
* a **sporadic alarm handler** fires when the controller sees the
  plant leave its safe band -- released through the component's own
  container, with the kernel enforcing the declared 50 ms minimum
  inter-arrival time no matter how wildly the plant misbehaves;
* a **Linux-side glue callback** runs every 20 ms of simulated time
  and releases the alarm handler while alarms are queued -- a plain
  ``sim.schedule`` activity, exactly where the paper puts non-RT code.

Run:  python examples/control_loop.py
"""

from repro import build_platform
from repro.hybrid import RTImplementation, make_container_factory
from repro.hybrid.implementation import ImplementationRegistry
from repro.rtos.dio import SineWave, attach_dio
from repro.sim.engine import MSEC, SEC

CONTROLLER_XML = """<?xml version="1.0" encoding="UTF-8"?>
<drt:component name="CTRL00" desc="bang-bang plant controller"
               type="periodic" enabled="true" cpuusage="0.05">
  <implementation bincode="loop.Controller"/>
  <periodictask frequence="500" runoncpu="0" priority="2"/>
  <outport name="ALARMQ" interface="RTAI.Mailbox" type="Integer"
           size="16"/>
  <property name="band" type="Float" value="0.8"/>
</drt:component>
"""

ALARM_XML = """<?xml version="1.0" encoding="UTF-8"?>
<drt:component name="ALARM0" desc="out-of-band alarm handler"
               type="sporadic" enabled="true" cpuusage="0.02">
  <implementation bincode="loop.AlarmHandler"/>
  <sporadictask mininterarrival_ns="50000000" runoncpu="0"
                priority="1"/>
  <inport name="ALARMQ" interface="RTAI.Mailbox" type="Integer"
          size="16"/>
  <property name="handled" type="Integer" value="0"/>
</drt:component>
"""


class Controller(RTImplementation):
    """Sample the plant, actuate, and queue an alarm when out of band."""

    def init(self, ctx):
        self.out_of_band_samples = 0

    def execute(self, ctx):
        level = ctx.read_sensor(0)
        ctx.write_actuator(1, 1 if level < 0 else 0)
        band = float(ctx.get_property("band", 0.8))
        if abs(level) > band:
            self.out_of_band_samples += 1
            ctx.write_outport("ALARMQ", ctx.job_index)


class AlarmHandler(RTImplementation):
    """Drain the alarm queue (one sporadic job per legal release)."""

    def execute(self, ctx):
        drained = 0
        while ctx.read_inport("ALARMQ") is not None:
            drained += 1
        ctx.properties["handled"] = ctx.properties.get("handled", 0) \
            + drained


def release_alarm_on_queue(platform, period_ns):
    """The Linux-side glue: every ``period_ns``, release the sporadic
    handler while alarms are queued (the kernel throttles over-eager
    releases).  Returns the list of release times, filled as it runs."""
    queue = platform.kernel.lookup("ALARMQ")
    container = platform.drcr.component("ALARM0").container
    releases = []

    def tick():
        if len(queue):
            container.release()
            releases.append(platform.now)
        platform.sim.schedule(period_ns, tick, label="alarm-glue")

    platform.sim.schedule(period_ns, tick, label="alarm-glue")
    return releases


def main():
    registry = ImplementationRegistry()
    registry.register("loop.Controller", Controller)
    registry.register("loop.AlarmHandler", AlarmHandler)
    platform = build_platform(
        seed=17, container_factory=make_container_factory(registry))
    platform.start_timer(1 * MSEC)

    dio = attach_dio(platform.kernel)
    dio.wire_input(0, SineWave(period_ns=200 * MSEC, amplitude=1.0))

    for name, xml in (("loop.ctrl", CONTROLLER_XML),
                      ("loop.alarm", ALARM_XML)):
        platform.install_and_start(
            {"Bundle-SymbolicName": name,
             "RT-Component": "OSGI-INF/c.xml"},
            resources={"OSGI-INF/c.xml": xml})

    releases = release_alarm_on_queue(platform, 20 * MSEC)

    platform.run_for(2 * SEC)

    ctrl = platform.drcr.component("CTRL00")
    alarm = platform.drcr.component("ALARM0")
    ctrl_task, alarm_task = ctrl.container.task, alarm.container.task
    actuations = dio.output_log[1]
    switches = sum(1 for a, b in zip(actuations, actuations[1:])
                   if a[1] != b[1])

    print("after 2 s of closed-loop control:")
    print("  controller jobs      :", ctrl_task.stats.completions)
    print("  actuator writes      : %d (%d switches)"
          % (len(actuations), switches))
    print("  alarms queued        :",
          platform.kernel.lookup("ALARMQ").sent_count)
    print("  alarm activations    : %d (throttled releases: %d)"
          % (alarm_task.stats.activations,
             alarm_task.stats.throttled_releases))
    print("  alarms handled       :",
          alarm.container.get_property("handled"))
    print("  deadline misses      : controller=%d alarm=%d"
          % (ctrl_task.stats.deadline_misses,
             alarm_task.stats.deadline_misses))
    print("  glue releases        :", len(releases))
    platform.shutdown()


if __name__ == "__main__":
    main()
