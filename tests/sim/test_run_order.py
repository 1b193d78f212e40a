"""Regression tests: firing order through the sorted-run drain.

``Simulator.run`` no longer pops the heap one event at a time -- it
lifts the backlog out, sorts it once, and consumes it through a cursor
while mid-run pushes go to a fresh side heap (see the engine module
docstring).  The FIFO contract must survive that batching: events at
the same ``(time, priority)`` fire in schedule order, whether they
were in the pre-run backlog, pushed mid-run, or a mix of both, and the
drain must fire exactly the order the legacy per-event ``step()`` API
would.

Inside ``run()``, ``call_soon`` callbacks (and the kernel's
rescheduling passes) wait on the same-instant lane instead of the heap:
the lane head fires while nothing in the backlog or the side heap sorts
before it, and otherwise the lane spills into the side heap with the
seqs its entries drew.  The lane tests below pin that order against
``step()``, the lane's fate when ``stop()``, an exception or
``reset()`` ends a window inside a lane callback, and that lane
firings count as events.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.errors import SimulationLimitError
from repro.sim.events import (
    PRIORITY_INTERRUPT,
    PRIORITY_LATE,
    PRIORITY_NORMAL,
)


class TestBacklogFifo:
    def test_same_time_same_priority_fires_in_schedule_order(self):
        sim = Simulator(seed=1)
        fired = []
        for index in range(50):
            sim.schedule_at(10, fired.append, index)
        sim.run()
        assert fired == list(range(50))

    def test_priority_breaks_ties_before_fifo(self):
        sim = Simulator(seed=1)
        fired = []
        sim.schedule_at(10, fired.append, "late",
                        priority=PRIORITY_LATE)
        sim.schedule_at(10, fired.append, "normal-0")
        sim.schedule_at(10, fired.append, "irq",
                        priority=PRIORITY_INTERRUPT)
        sim.schedule_at(10, fired.append, "normal-1")
        sim.run()
        assert fired == ["irq", "normal-0", "normal-1", "late"]

    def test_interleaved_times_sort_stably(self):
        # Schedule out of time order; same-time events keep their
        # relative schedule order after the one-shot backlog sort.
        sim = Simulator(seed=1)
        fired = []
        for index, when in enumerate([30, 10, 30, 10, 20, 10]):
            sim.schedule_at(when, fired.append, (when, index))
        sim.run()
        assert fired == [(10, 1), (10, 3), (10, 5), (20, 4),
                         (30, 0), (30, 2)]


class TestMidRunFifo:
    def test_mid_run_push_at_current_time_fires_after_backlog_peers(self):
        # A callback schedules more work for the *same* timestamp the
        # drain is currently consuming.  The mid-run event has a later
        # sequence number than every backlog event at that timestamp,
        # so FIFO says it fires after them -- the cursor/side-heap tie
        # compare must agree.
        sim = Simulator(seed=1)
        fired = []

        def spawner():
            fired.append("spawner")
            sim.schedule_at(10, fired.append, "mid-run")

        sim.schedule_at(10, spawner)
        for index in range(3):
            sim.schedule_at(10, fired.append, "backlog-%d" % index)
        sim.run()
        assert fired == ["spawner", "backlog-0", "backlog-1",
                         "backlog-2", "mid-run"]

    def test_mid_run_interrupt_preempts_backlog_at_same_time(self):
        # ...unless the mid-run push carries a stronger priority.
        sim = Simulator(seed=1)
        fired = []

        def spawner():
            fired.append("spawner")
            sim.schedule_interrupt(sim.now, fired.append, "irq")

        sim.schedule_at(10, spawner)
        sim.schedule_at(10, fired.append, "backlog")
        sim.run()
        assert fired == ["spawner", "irq", "backlog"]

    def test_run_matches_step_order_exactly(self):
        # Differential check: the batched drain and the legacy
        # per-event step() must fire the identical sequence for a
        # workload mixing backlog ties, mid-run pushes and the three
        # priority bands.
        def build(record):
            sim = Simulator(seed=1)

            def chain(tag, hops):
                record.append((sim.now, tag))
                if hops:
                    sim.schedule(7, chain, tag, hops - 1)
                    sim.schedule(7, record.append, (sim.now, tag + "+"))

            for index in range(4):
                sim.schedule_at(5, chain, "c%d" % index, 3)
                sim.schedule_at(5, record.append, (5, "p%d" % index),
                                priority=PRIORITY_LATE)
                sim.schedule_at(12, record.append, (12, "q%d" % index),
                                priority=PRIORITY_INTERRUPT)
            return sim

        via_run, via_step = [], []
        build(via_run).run()
        stepper = build(via_step)
        while stepper.step():
            pass
        assert via_run == via_step
        assert via_run  # the workload actually fired something


def events_total(sim):
    return sim.telemetry.registry("sim").as_dict()["events_total"]["value"]


class TestLaneSpill:
    """A lane entry fires only when nothing queued sorts before it."""

    def test_interrupt_queued_after_a_lane_push_fires_first(self):
        sim = Simulator(seed=1)
        fired = []

        def spawner():
            sim.call_soon(fired.append, "soon")
            sim.schedule_interrupt(sim.now, fired.append, "irq")

        sim.schedule_at(10, spawner)
        sim.run()
        assert fired == ["irq", "soon"]

    def test_normal_event_queued_after_a_lane_push_fires_first(self):
        sim = Simulator(seed=1)
        fired = []

        def spawner():
            sim.call_soon(fired.append, "soon")
            sim.schedule(0, fired.append, "normal")

        sim.schedule_at(10, spawner)
        sim.run()
        assert fired == ["normal", "soon"]

    def test_backlog_peer_fires_before_the_lane(self):
        sim = Simulator(seed=1)
        fired = []
        sim.schedule_at(10, sim.call_soon, fired.append, "soon")
        sim.schedule_at(10, fired.append, "backlog")
        sim.run()
        assert fired == ["backlog", "soon"]

    def test_late_heap_entry_with_a_lower_seq_fires_first(self):
        sim = Simulator(seed=1)
        fired = []

        def spawner():
            sim.schedule(0, fired.append, "late", priority=PRIORITY_LATE)
            sim.call_soon(fired.append, "soon")

        sim.schedule_at(10, spawner)
        sim.run()
        assert fired == ["late", "soon"]

    def test_spilled_entries_keep_the_seqs_they_drew(self):
        # "soon" drew its seq before "late": the NORMAL event spills the
        # lane, and "soon" must still fire ahead of "late".
        sim = Simulator(seed=1)
        fired = []

        def spawner():
            sim.call_soon(fired.append, "soon")
            sim.schedule(0, fired.append, "late", priority=PRIORITY_LATE)
            sim.schedule(0, fired.append, "normal")

        sim.schedule_at(10, spawner)
        sim.run()
        assert fired == ["normal", "soon", "late"]

    def test_call_soon_returns_nothing(self):
        sim = Simulator(seed=1)
        handles = []
        sim.schedule_at(10, lambda: handles.append(
            sim.call_soon(lambda: None)))
        sim.run()
        assert handles == [None]
        assert sim.call_soon(lambda: None) is None
        assert sim.pending_events == 1


class TestLaneEndsTheWindow:
    """stop(), an exception or reset() inside a lane callback."""

    @staticmethod
    def build(action):
        sim = Simulator(seed=1)
        fired = []

        def first():
            fired.append((sim.now, "first"))
            action(sim, fired)

        def spawner():
            sim.call_soon(first)
            sim.call_soon(lambda: fired.append((sim.now, "second")))
            sim.call_soon(lambda: fired.append((sim.now, "third")))

        sim.schedule_at(10, spawner)
        sim.schedule_at(20, lambda: fired.append((sim.now, "later")))
        return sim, fired

    def test_stop_leaves_the_rest_of_the_lane_queued(self):
        sim, fired = self.build(lambda sim, fired: sim.stop())
        sim.run()
        assert fired == [(10, "first")]
        assert sim.now == 10
        assert sim.pending_events == 3
        sim.run()
        assert fired == [(10, "first"), (10, "second"), (10, "third"),
                         (20, "later")]
        assert sim.processed_events == 5

    def test_an_exception_leaves_the_rest_of_the_lane_queued(self):
        def boom(sim, fired):
            raise RuntimeError("boom")

        sim, fired = self.build(boom)
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()
        assert sim.pending_events == 3
        sim.run()
        assert fired == [(10, "first"), (10, "second"), (10, "third"),
                         (20, "later")]

    def test_reset_drops_the_lane_but_keeps_what_follows_it(self):
        def reset(sim, fired):
            sim.reset()
            sim.call_soon(lambda: fired.append((sim.now, "after reset")))

        sim, fired = self.build(reset)
        sim.run()
        assert fired == [(10, "first")]
        assert sim.now == 0
        assert sim.pending_events == 1
        sim.run()
        assert fired == [(10, "first"), (0, "after reset")]


class TestLaneCounts:
    def test_lane_firings_count_as_events(self):
        # "a" fires from the lane; the NORMAL event it queues spills
        # "b" into the heap.
        sim = Simulator(seed=1)
        fired = []

        def first():
            fired.append("a")
            sim.schedule(0, fired.append, "normal")

        def spawner():
            sim.call_soon(first)
            sim.call_soon(fired.append, "b")

        sim.schedule_at(10, spawner)
        sim.run()
        assert fired == ["a", "normal", "b"]
        assert sim.processed_events == 4
        assert events_total(sim) == 4
        assert sim.pending_events == 0

    def test_max_events_counts_lane_firings(self):
        sim = Simulator(seed=1, max_events=3)
        fired = []

        def spawner():
            for tag in ("a", "b", "c", "d"):
                sim.call_soon(fired.append, tag)

        sim.schedule_at(10, spawner)
        with pytest.raises(SimulationLimitError):
            sim.run()
        # The event that tripped the limit is spent; the rest wait.
        assert fired == ["a", "b"]
        assert sim.processed_events == 4
        assert events_total(sim) == 4
        assert sim.pending_events == 1


# ----------------------------------------------------------------------
# run() against step() on drawn schedules
# ----------------------------------------------------------------------
BANDS = (PRIORITY_INTERRUPT, PRIORITY_NORMAL, PRIORITY_LATE)

#: What a fired callback does: queue a lane callback, push an event in
#: one of the three bands (mostly at the same instant), cancel an
#: earlier event, stop the window, or raise.
actions = st.one_of(
    st.tuples(st.just("soon")),
    st.tuples(st.just("push"), st.sampled_from(BANDS),
              st.sampled_from([0, 0, 0, 1, 3])),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=50)),
    st.tuples(st.just("stop")),
    st.tuples(st.just("raise")),
)

schedules = st.fixed_dictionaries({
    "roots": st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                                st.sampled_from(BANDS)),
                      min_size=1, max_size=8),
    "programs": st.lists(st.lists(actions, max_size=4), min_size=1,
                         max_size=8),
})


class Boom(Exception):
    pass


def play(schedule, drive):
    """Fire ``schedule`` through ``drive``; return the fired record.

    The n-th callback to fire runs program ``n % len(programs)``; a
    budget bounds how many callbacks the schedule may queue.
    """
    sim = Simulator(seed=1)
    programs = schedule["programs"]
    handles = []
    record = []
    budget = [60]

    def callback(tag):
        record.append((sim.now, tag))
        program = programs[len(record) % len(programs)]
        for index, action in enumerate(program):
            kind = action[0]
            child = "%s.%d" % (tag, index)
            if kind == "cancel":
                if handles:
                    handles[action[1] % len(handles)].cancel_if_pending()
            elif kind == "stop":
                sim.stop()
            elif kind == "raise":
                raise Boom(tag)
            elif budget[0] > 0:
                budget[0] -= 1
                if kind == "soon":
                    sim.call_soon(callback, child)
                else:
                    handles.append(sim.schedule(
                        action[2], callback, child, priority=action[1]))

    for index, (when, band) in enumerate(schedule["roots"]):
        handles.append(sim.schedule_at(when, callback, "r%d" % index,
                                       priority=band))
    drive(sim)
    return record, sim.processed_events, events_total(sim)


def drive_run(sim):
    while True:
        try:
            sim.run()
        except Boom:
            continue
        if not sim.pending_events:
            return


def drive_step(sim):
    while True:
        try:
            if not sim.step():
                return
        except Boom:
            continue


@settings(max_examples=300, deadline=None)
@given(schedules)
def test_run_fires_the_step_order_with_the_lane(schedule):
    via_run = play(schedule, drive_run)
    via_step = play(schedule, drive_step)
    assert via_run == via_step
