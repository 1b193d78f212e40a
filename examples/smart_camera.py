#!/usr/bin/env python3
"""ARFLEX-style smart camera with a custom implementation (section 2.3).

The paper's Figure-2 camera "can return regions of interests (subsets
from a frame image data) on demand".  This example shows the
user-facing implementation API:

* a **camera** component grabs frames and publishes a region of
  interest into the ``IMAGES`` shared-memory port; the region size is a
  live component property (``roi``);
* a **tracker** component consumes the region and estimates motion;
* an **adaptation rule** scoped to the tracker shrinks the camera's
  ROI when the tracker starts missing deadlines -- the paper's "adjust
  the parameter ... according to current available resources" loop,
  reading the tracker's management status and writing the camera's
  property through its management service.

Run:  python examples/smart_camera.py
"""

from repro import build_platform
from repro.adapt import AdaptationController, ComponentContextProvider
from repro.adapt.rules import parse_rule_document
from repro.core import AlwaysAcceptPolicy
from repro.hybrid import RTImplementation, make_container_factory
from repro.hybrid.implementation import ImplementationRegistry
from repro.sim.engine import MSEC, SEC

CAMERA_XML = """<?xml version="1.0" encoding="UTF-8"?>
<drt:component name="camera" desc="smart camera controller"
               type="periodic" enabled="true" cpuusage="0.10">
  <implementation bincode="arflex.Camera"/>
  <periodictask frequence="100" runoncpu="0" priority="2"/>
  <outport name="IMAGES" interface="RTAI.SHM" type="Byte" size="400"/>
  <property name="roi" type="Integer" value="400"/>
</drt:component>
"""

#: More than 5 tracker misses in one epoch halves the camera's ROI,
#: once.
SHRINK_ROI = {"rules": [{
    "name": "shrink-roi",
    "when": {"param": "deadline_misses", "component": "tracker",
             "op": ">", "value": 5},
    "then": {"action": "set_property", "component": "camera",
             "property": "roi", "value": 200},
    "max_firings": 1,
}]}

TRACKER_XML = """<?xml version="1.0" encoding="UTF-8"?>
<drt:component name="tracker" desc="estimates target motion"
               type="periodic" enabled="true" cpuusage="0.45">
  <implementation bincode="arflex.Tracker"/>
  <periodictask frequence="100" runoncpu="0" priority="3" deadline_ns="5000000"/>
  <inport name="IMAGES" interface="RTAI.SHM" type="Byte" size="400"/>
  <property name="estimate" type="Integer" value="0"/>
</drt:component>
"""


class Camera(RTImplementation):
    """Grabs a frame and publishes the configured region of interest."""

    def init(self, ctx):
        self._frame_counter = 0

    def execute(self, ctx):
        self._frame_counter += 1
        roi = min(int(ctx.get_property("roi", 400)), 400)
        # The ROI pixels carry the frame number; the rest stays stale.
        frame = [self._frame_counter % 256] * roi + [0] * (400 - roi)
        ctx.write_outport("IMAGES", frame)


class Tracker(RTImplementation):
    """Consumes the ROI; its work scales with the ROI the camera sends,
    so an over-large ROI overruns its budget."""

    def init(self, ctx):
        self._last_pixel = 0

    def compute_ns(self, ctx):
        # Processing cost: 16 us per ROI pixel; at ROI=400 the job
        # takes 6.4 ms, past the 5 ms deadline -> misses until the
        # ROI shrinks (200 -> 3.2 ms, comfortably inside).
        roi = self._sensed_roi(ctx)
        return int(roi * 16_000)

    def execute(self, ctx):
        frame = ctx.read_inport("IMAGES")
        self._last_pixel = frame[0]
        ctx.properties["estimate"] = self._last_pixel

    @staticmethod
    def _sensed_roi(ctx):
        frame = ctx.read_inport("IMAGES")
        roi = 0
        for value in reversed(frame):
            if value != 0:
                roi = frame.index(0) if 0 in frame else len(frame)
                break
        return roi or len(frame)


def main():
    registry = ImplementationRegistry()
    registry.register("arflex.Camera", Camera)
    registry.register("arflex.Tracker", Tracker)

    platform = build_platform(
        seed=7,
        internal_policy=AlwaysAcceptPolicy(),  # let the overrun happen
        container_factory=make_container_factory(registry))
    platform.start_timer(1 * MSEC)

    for name, xml in (("arflex.camera", CAMERA_XML),
                      ("arflex.tracker", TRACKER_XML)):
        platform.install_and_start(
            {"Bundle-SymbolicName": name,
             "RT-Component": "OSGI-INF/c.xml"},
            resources={"OSGI-INF/c.xml": xml})

    controller = AdaptationController(
        platform, epoch_ns=250 * MSEC,
        rules=parse_rule_document(SHRINK_ROI),
        providers=[ComponentContextProvider(platform.framework)]).start()

    tracker_task = platform.drcr.component("tracker").container.task
    print("running with ROI=400 (tracker blows its 5 ms deadline):")
    for cycle in range(6):
        fired = len(controller.history)
        platform.run_for(250 * MSEC)
        actions = [entry["outcome"]
                   for entry in controller.history[fired:]]
        print("  t=%4dms  tracker misses=%-4d overruns=%-4d %s"
              % (platform.now // MSEC,
                 tracker_task.stats.deadline_misses,
                 tracker_task.stats.overruns,
                 "| adaptation: %s" % actions if actions else ""))

    misses_after_adaptation = tracker_task.stats.deadline_misses
    platform.run_for(1 * SEC)
    print("after ROI shrunk to 200: %d new misses in the next second"
          % (tracker_task.stats.deadline_misses
             - misses_after_adaptation))

    camera = platform.drcr.component("camera")
    print("camera live properties:",
          camera.container.get_status()["properties"])
    tracker = platform.drcr.component("tracker")
    print("tracker estimate property:",
          tracker.container.get_property("estimate"))
    controller.stop()
    platform.shutdown()


if __name__ == "__main__":
    main()
