"""Tests for the adaptation loop's simulated-time cadence.

The paper's adaptation managers live inside the running system as
ordinary (non-RT) activities; the AdaptationController is that
activity, evaluating every ``epoch_ns`` of simulated time.
"""

import pytest

from repro.adapt import (
    AdaptationController,
    ComponentContextProvider,
    ContextProvider,
)
from repro.core import AlwaysAcceptPolicy, ComponentState
from repro.sim.engine import MSEC, SEC

from conftest import deploy, make_descriptor_xml, suspend_rules


def epochs(platform):
    return platform.telemetry.registry("adapt").counter(
        "epochs_total").value


class TestPeriodicPolling:
    def test_polls_on_simulated_schedule(self, platform):
        deploy(platform, make_descriptor_xml("COMP00", cpuusage=0.05))
        controller = AdaptationController(platform,
                                          epoch_ns=10 * MSEC).start()
        platform.run_for(100 * MSEC)
        # ~10 epochs in 100 ms.
        assert 9 <= epochs(platform) <= 11
        controller.stop()

    def test_stop_polling(self, platform):
        deploy(platform, make_descriptor_xml("COMP00", cpuusage=0.05))
        controller = AdaptationController(platform,
                                          epoch_ns=10 * MSEC).start()
        platform.run_for(50 * MSEC)
        count = epochs(platform)
        controller.stop()
        platform.run_for(50 * MSEC)
        assert epochs(platform) == count

    def test_stop_from_inside_an_epoch(self, platform):
        """A stop made by anything the epoch runs -- here a context
        provider on its first collect -- ends the polling."""

        class StopsTheController(ContextProvider):
            controller = None

            def collect(self, now_ns):
                self.controller.stop()
                return {}

        provider = StopsTheController()
        controller = AdaptationController(platform, epoch_ns=10 * MSEC,
                                          providers=[provider])
        provider.controller = controller
        controller.start()
        platform.run_for(100 * MSEC)
        assert epochs(platform) == 1

    def test_restart_with_new_period(self, platform):
        deploy(platform, make_descriptor_xml("COMP00", cpuusage=0.05))
        controller = AdaptationController(platform,
                                          epoch_ns=50 * MSEC).start()
        controller.stop()
        controller.epoch_ns = 10 * MSEC
        controller.start()
        platform.run_for(100 * MSEC)
        assert epochs(platform) >= 9  # the 10 ms schedule won
        controller.stop()

    def test_bad_period_rejected(self, platform):
        with pytest.raises(ValueError):
            AdaptationController(platform, epoch_ns=0)

    def test_close_cancels_polling(self, platform):
        deploy(platform, make_descriptor_xml("COMP00", cpuusage=0.05))
        controller = AdaptationController(platform,
                                          epoch_ns=10 * MSEC).start()
        controller.stop()
        platform.run_for(100 * MSEC)
        assert epochs(platform) == 0

    def test_closed_loop_entirely_inside_simulated_time(self, platform):
        """The full paper loop with no test-code interleaving: overload
        appears, the controller's first epoch detects it and suspends,
        and the survivor runs clean -- all within one run_for window."""
        platform.drcr.set_internal_policy(AlwaysAcceptPolicy())
        deploy(platform, make_descriptor_xml(
            "HOGA00", cpuusage=0.7, frequency=1000, priority=1))
        deploy(platform, make_descriptor_xml(
            "HOGB00", cpuusage=0.7, frequency=1000, priority=2))
        controller = AdaptationController(
            platform, epoch_ns=50 * MSEC,
            rules=suspend_rules("deadline_misses", 10,
                                ("HOGA00", "HOGB00")),
            providers=[ComponentContextProvider(platform.framework)]
        ).start()
        platform.run_for(2 * SEC)
        assert platform.drcr.component_state("HOGB00") \
            is ComponentState.SUSPENDED
        assert platform.drcr.component_state("HOGA00") \
            is ComponentState.ACTIVE
        assert [entry["at_ns"] for entry in controller.history] \
            == [50 * MSEC]
        assert epochs(platform) == 40
        hog_a = platform.kernel.lookup("HOGA00")
        # After the shed, A ran clean for the rest of the window.
        assert hog_a.stats.completions > 1500
        controller.stop()
