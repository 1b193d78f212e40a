"""Tests for the latency model, load generators and dual-kernel
isolation -- the mechanisms behind Table 1."""

import pytest

from repro.rtos.kernel import KernelConfig, RTKernel
from repro.rtos.latency import LatencyModel, NullLatencyModel
from repro.rtos.load import (
    CPUHogLoad,
    JVMGarbageCollectorLoad,
    LoadGenerator,
    apply_stress,
    remove_loads,
    stress_suite,
)
from repro.rtos.requests import Compute, WaitPeriod
from repro.rtos.task import TaskType
from repro.sim.engine import MSEC, SEC, USEC, Simulator
from repro.sim.rng import RandomStreams


def periodic_body(compute_ns):
    def body(task):
        while True:
            yield WaitPeriod()
            yield Compute(compute_ns)
    return body


class TestLatencyModelDistributions:
    def _sample(self, linux_demand, hybrid, n=4000):
        model = LatencyModel()
        rng = RandomStreams(11)
        return [model.sample_release_offset(rng, "T", linux_demand,
                                            hybrid) for _ in range(n)]

    def test_mode_classification(self):
        model = LatencyModel()
        assert model.mode_for(0.0) == "light"
        assert model.mode_for(0.5) == "light"
        assert model.mode_for(0.75) == "stress"
        assert model.mode_for(1.0) == "stress"

    def test_light_mode_wide_and_near_zero(self):
        samples = self._sample(0.0, hybrid=False)
        mean = sum(samples) / len(samples)
        assert -3000 < mean < 1500
        assert min(samples) < -15_000
        assert max(samples) > 10_000

    def test_stress_mode_shifted_and_tight(self):
        samples = self._sample(1.0, hybrid=False)
        mean = sum(samples) / len(samples)
        assert -23_000 < mean < -20_000
        assert all(s < -15_000 for s in samples)
        avedev = sum(abs(s - mean) for s in samples) / len(samples)
        assert avedev < 1000

    def test_stress_tighter_than_light(self):
        def avedev(samples):
            mean = sum(samples) / len(samples)
            return sum(abs(s - mean) for s in samples) / len(samples)

        assert avedev(self._sample(1.0, False)) \
            < avedev(self._sample(0.0, False)) / 3

    def test_hybrid_shift_small_relative_to_jitter(self):
        pure = self._sample(0.0, hybrid=False)
        hrc = self._sample(0.0, hybrid=True)
        mean_gap = abs(sum(hrc) / len(hrc) - sum(pure) / len(pure))
        mean = sum(pure) / len(pure)
        avedev = sum(abs(s - mean) for s in pure) / len(pure)
        assert mean_gap < avedev  # "no much difference"

    def test_clamps_respected(self):
        model = LatencyModel()
        for mode, hybrid in (("light", False), ("stress", True)):
            profile = model.profile(mode, hybrid)
            rng = RandomStreams(3)
            for _ in range(2000):
                value = profile.sample(rng, "s")
                assert profile.clamp_lo_ns <= value <= profile.clamp_hi_ns

    def test_null_model_returns_zero(self):
        model = NullLatencyModel()
        rng = RandomStreams(0)
        assert model.sample_release_offset(rng, "T", 1.0, True) == 0


class TestLoadGenerators:
    def test_demand_bounds_enforced(self):
        with pytest.raises(ValueError):
            LoadGenerator("bad", 1.5)
        with pytest.raises(ValueError):
            LoadGenerator("bad", -0.1)

    def test_stress_suite_reaches_full_demand(self, kernel):
        loads = apply_stress(kernel)
        assert kernel.linux_demand == pytest.approx(1.0)
        remove_loads(kernel, loads)
        assert kernel.linux_demand == 0.0

    def test_stress_suite_is_three_commands(self):
        # "we use the following three commands" (section 4.4)
        assert len(stress_suite()) == 3

    def test_demand_caps_at_one(self, kernel):
        kernel.register_load(CPUHogLoad(demand=0.9))
        kernel.register_load(CPUHogLoad(demand=0.9, name="second"))
        assert kernel.linux_demand == 1.0

    def test_gc_load_is_linux_side(self):
        gc = JVMGarbageCollectorLoad()
        assert gc.worst_case_pause_ns() == 40 * MSEC

    def test_describe(self):
        assert "cpuhog" in CPUHogLoad().describe()

    def test_demand_is_read_only(self):
        # The kernel reads a load's demand once, at register/unregister.
        load = CPUHogLoad(demand=0.4)
        with pytest.raises(AttributeError):
            load.demand = 0.9
        assert load.demand == 0.4


class TestReleaseOffsets:
    """The kernel's cached profile pair and per-task stream draw what
    ``LatencyModel.sample_release_offset`` draws for the load then in
    force."""

    STRESS_ON = 50 * MSEC
    STRESS_OFF = 100 * MSEC

    def test_offsets_follow_the_load_in_force(self):
        sim = Simulator(seed=17)
        model = LatencyModel()
        kernel = RTKernel(sim, KernelConfig(latency_model=model))
        kernel.start_timer(100 * USEC)
        tasks = [kernel.create_task(name, periodic_body(100 * USEC), 1,
                                    cpu=0, period_ns=1 * MSEC,
                                    hybrid=hybrid)
                 for name, hybrid in (("PLN000", False),
                                      ("HRC000", True))]
        for task in tasks:
            kernel.start_task(task)
        loads = []
        sim.schedule_at(self.STRESS_ON,
                        lambda: loads.extend(apply_stress(kernel)))
        sim.schedule_at(self.STRESS_OFF,
                        lambda: remove_loads(kernel, loads))
        sim.run_for(150 * MSEC)

        replay = RandomStreams(17)
        irq_entry = kernel.config.irq_entry_ns
        for task in tasks:
            releases = [(record.time, record.nominal)
                        for record in sim.trace.by_category("release")
                        if record.task == task.name]
            assert len(releases) >= 140
            drawn_at = 0  # start_task draws the first release
            modes = set()
            for fired, nominal in releases:
                # A release interrupt fires before a same-instant
                # register/unregister event.
                stressed = self.STRESS_ON < drawn_at <= self.STRESS_OFF
                modes.add(stressed)
                expected = model.sample_release_offset(
                    replay, task.name, 1.0 if stressed else 0.0,
                    task.hybrid)
                assert fired - nominal - irq_entry == expected
                drawn_at = fired
            assert modes == {False, True}


class TestDualKernelIsolation:
    """The headline property: Linux load cannot touch RT scheduling."""

    def _run(self, stress):
        sim = Simulator(seed=21)
        kernel = RTKernel(sim, KernelConfig(
            latency_model=NullLatencyModel()))
        kernel.start_timer(1 * MSEC)
        task = kernel.create_task("RT0000", periodic_body(200 * USEC), 1,
                                  task_type=TaskType.PERIODIC,
                                  period_ns=1 * MSEC,
                                  collect_latency=True)
        kernel.start_task(task)
        if stress:
            apply_stress(kernel)
        sim.run_for(1 * SEC)
        return kernel, task

    def test_rt_latency_identical_under_stress(self):
        _, light_task = self._run(stress=False)
        _, stress_task = self._run(stress=True)
        # With the mechanical (null) latency model the dispatch path is
        # bit-identical: Linux load has NO scheduling influence.
        assert light_task.stats.latency.values \
            == stress_task.stats.latency.values

    def test_rt_misses_zero_under_stress(self):
        _, task = self._run(stress=True)
        assert task.stats.deadline_misses == 0

    def test_linux_gets_only_leftover_time(self):
        kernel, task = self._run(stress=True)
        elapsed = kernel.sim.now
        rt_busy = kernel.rt_busy_ns(0)
        linux = kernel.linux_work_ns(0)
        assert linux == pytest.approx(elapsed - rt_busy, rel=0.01)

    def test_linux_idle_without_load(self):
        kernel, _ = self._run(stress=False)
        assert kernel.linux_work_ns() == 0.0

    def test_rt_utilization_measured(self):
        kernel, _ = self._run(stress=False)
        assert kernel.rt_utilization(0) == pytest.approx(0.2, rel=0.05)
