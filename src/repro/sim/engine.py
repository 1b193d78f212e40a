"""The discrete-event simulator.

Time is an integer number of **nanoseconds** throughout the repository;
this matches the resolution RTAI reports scheduling latency in (the paper's
Table 1 is in nanoseconds) and avoids floating-point drift in long runs.

Performance notes (see docs/PERFORMANCE.md)
-------------------------------------------
:meth:`Simulator.run` drains events as a **sorted run**: at window
start the whole backlog is lifted out of the queue and sorted once
(Timsort over C-compared tuples), then consumed by a plain cursor --
O(1) per event instead of an O(log n) ``heappop`` against a large
heap.  Events scheduled *during* the window land in a fresh (small)
side heap; each iteration takes whichever of cursor-head and heap-head
is earlier with a single tuple comparison, so the fired order is
identical to the seed's pop-per-event order -- ``seq`` strictly
increases, ties resolve FIFO.  The loop also folds the per-event
``sim.events_total`` increment into one batched add per run window.
The scheduling entry points (:meth:`schedule`, :meth:`schedule_at`,
:meth:`schedule_interrupt`) delegate to one shared ``_push`` that
builds the heap entry and the :class:`Event` record inline -- two
frames per scheduled event where the seed chained through
``schedule_at`` + ``EventQueue.push`` + ``Event.__init__``.

**The same-instant lane.**  Inside :meth:`run`, a callback for the
current instant at ``PRIORITY_LATE`` (:meth:`call_soon` and the
kernel's rescheduling passes, both through ``_push_soon``) builds no
:class:`Event` and never touches the heap: it draws its ``seq`` as any
push would and appends ``(now, PRIORITY_LATE, seq, callback, args,
label)`` to a FIFO lane.  Before taking the next event, the loop fires
the lane head directly while neither the backlog cursor's head nor the
side heap's head sorts before it -- one tuple comparison each.  When
one does, the whole lane spills into the side heap as ordinary entries
that keep the seqs they drew, so the fired order is the one the heap
alone would give.  Lane firings count in :attr:`processed_events`,
``max_events`` and ``sim.events_total`` like any other event; a lane
entry cannot be cancelled.  Outside :meth:`run` (in :meth:`step`, or
between windows) ``_push_soon`` pushes an :class:`Event` as ``_push``
does.

:meth:`step` keeps the original one-event-at-a-time contract for
callers that need it; both paths fire events in the identical
``(time, priority, seq)`` order.
"""

from collections import deque
from heapq import heapify as _heapify
from heapq import heappop as _heappop
from heapq import heappush as _heappush

from repro.sim.errors import SchedulingInPastError, SimulationLimitError
from repro.sim.events import (
    PRIORITY_INTERRUPT,
    PRIORITY_LATE,
    PRIORITY_NORMAL,
    Event,
    EventQueue,
)

_new_event = Event.__new__
from repro.sim.rng import RandomStreams
from repro.sim.trace import TraceRecorder
from repro.telemetry.metrics import Telemetry

#: One microsecond / millisecond / second in simulation ticks.
USEC = 1000
MSEC = 1000 * USEC
SEC = 1000 * MSEC


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for the named random streams.  Two simulators built
        with the same seed and fed the same schedule produce identical
        traces.
    max_events:
        Safety valve: :meth:`run` raises :class:`SimulationLimitError`
        after this many events, catching accidental infinite loops in
        kernel code (a stuck periodic timer, for instance).
    telemetry:
        The platform-wide :class:`~repro.telemetry.metrics.Telemetry`.
        The simulator owns it (every other subsystem reaches it via
        ``sim.telemetry``); pass ``Telemetry(enabled=False)`` to turn
        all metric collection off.
    """

    def __init__(self, seed=0, max_events=50_000_000, telemetry=None):
        self._now = 0
        self._queue = EventQueue()
        self._rng = RandomStreams(seed)
        self._trace = TraceRecorder()
        self._max_events = max_events
        self._processed = 0
        self._running = False
        # The same-instant lane (module notes): a deque while run() is
        # draining, None outside it.
        self._lane = None
        self._telemetry = telemetry if telemetry is not None \
            else Telemetry()
        registry = self._telemetry.registry("sim")
        self._m_events = registry.counter("events_total")
        self._m_windows = registry.counter("run_windows_total")
        self._m_pending = registry.gauge("pending_events")

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def now(self):
        """Current simulation time in nanoseconds."""
        return self._now

    @property
    def rng(self):
        """The simulator's :class:`~repro.sim.rng.RandomStreams`."""
        return self._rng

    @property
    def trace(self):
        """The simulator's :class:`~repro.sim.trace.TraceRecorder`."""
        return self._trace

    @property
    def telemetry(self):
        """The platform-wide :class:`~repro.telemetry.metrics.Telemetry`."""
        return self._telemetry

    @property
    def pending_events(self):
        """Number of live (not cancelled, not fired) events."""
        lane = self._lane
        return len(self._queue) + (len(lane) if lane else 0)

    @property
    def processed_events(self):
        """Number of events whose callbacks have run so far."""
        return self._processed

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    # Each entry point builds its heap entry inline (single frame, no
    # ``push`` delegation) -- see the module performance notes.
    def _push(self, when, priority, callback, args, label):
        queue = self._queue
        seq = queue._seq
        queue._seq = seq + 1
        event = _new_event(Event)
        event.when = when
        event.priority = priority
        event.seq = seq
        event.callback = callback
        event.args = args
        event.label = label
        event._queue = queue
        event._cancelled = False
        event._fired = False
        _heappush(queue._heap, (when, priority, seq, event))
        queue._live += 1
        return event

    def _push_soon(self, callback, args, label):
        """Queue ``callback(*args)`` at ``(now, PRIORITY_LATE)``: on the
        same-instant lane inside :meth:`run`, else as an :class:`Event`
        (module notes)."""
        lane = self._lane
        if lane is None:
            self._push(self._now, PRIORITY_LATE, callback, args, label)
            return
        queue = self._queue
        seq = queue._seq
        queue._seq = seq + 1
        lane.append((self._now, PRIORITY_LATE, seq, callback, args, label))

    def _spill_lane(self):
        """Move the lane's entries into the queue's heap as ordinary
        events that keep their seqs."""
        lane = self._lane
        queue = self._queue
        heap = queue._heap
        for when, priority, seq, callback, args, label in lane:
            _heappush(heap, (when, priority, seq, Event(
                when, priority, seq, callback, args, label, queue)))
        queue._live += len(lane)
        lane.clear()

    def schedule(self, delay, callback, *args, priority=PRIORITY_NORMAL,
                 label=""):
        """Schedule ``callback(*args)`` to run ``delay`` ns from now."""
        when = self._now + delay
        if when < self._now:
            raise SchedulingInPastError(self._now, when)
        return self._push(when, priority, callback, args, label)

    def schedule_at(self, when, callback, *args, priority=PRIORITY_NORMAL,
                    label=""):
        """Schedule ``callback(*args)`` at absolute time ``when`` ns."""
        if when < self._now:
            raise SchedulingInPastError(self._now, when)
        return self._push(when, priority, callback, args, label)

    def schedule_interrupt(self, when, callback, *args, label=""):
        """Schedule a hardware-priority event at absolute time ``when``."""
        if when < self._now:
            raise SchedulingInPastError(self._now, when)
        return self._push(when, PRIORITY_INTERRUPT, callback, args, label)

    def call_soon(self, callback, *args, label=""):
        """Run ``callback`` at the current instant, after pending
        same-instant events of lower or equal priority already queued.

        Returns nothing: the callback rides the same-instant lane
        during :meth:`run` (module notes) and cannot be cancelled."""
        self._push_soon(callback, args, label)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self):
        """Fire the single earliest event.

        Returns ``True`` if an event fired, ``False`` if the queue was
        empty.
        """
        event = self._queue.pop()
        if event is None:
            return False
        self._now = event.when
        event._fired = True
        self._processed += 1
        self._m_events.inc()
        if self._processed > self._max_events:
            raise SimulationLimitError(
                "exceeded max_events=%d at t=%d ns" %
                (self._max_events, self._now))
        event.callback(*event.args)
        return True

    def run(self, until=None):
        """Run until the queue drains or time reaches ``until`` (ns).

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the last event fires earlier, so back-to-back ``run``
        windows tile the timeline seamlessly.
        """
        self._running = True
        self._m_windows.inc()
        # Hot loop: sorted-run drain (module performance notes).  The
        # backlog is sorted once and consumed by cursor; events pushed
        # during the window go to a fresh side heap and are merged in
        # order with one tuple comparison per event.  Heap entries are
        # (when, priority, seq, event) tuples -- see repro.sim.events.
        # Same-instant late callbacks wait on the lane, which fires
        # ahead of both while nothing there sorts before its head.
        queue = self._queue
        epoch = queue._epoch
        backlog = queue._heap
        backlog.sort()
        queue._heap = heap = []
        self._lane = lane = deque()
        cursor = 0
        n_backlog = len(backlog)
        heappop = _heappop
        bound = float("inf") if until is None else until
        max_events = self._max_events
        fired = 0
        try:
            while self._running:
                if lane:
                    entry = lane[0]
                    if (cursor < n_backlog and backlog[cursor] < entry) \
                            or (heap and heap[0] < entry):
                        self._spill_lane()
                    else:
                        lane.popleft()
                        fired += 1
                        self._processed += 1
                        if self._processed > max_events:
                            raise SimulationLimitError(
                                "exceeded max_events=%d at t=%d ns" %
                                (max_events, self._now))
                        entry[3](*entry[4])
                        continue
                if cursor < n_backlog:
                    entry = backlog[cursor]
                    if heap and heap[0] < entry:
                        entry = heap[0]
                        if entry[0] > bound:
                            break
                        heappop(heap)
                    else:
                        if entry[0] > bound:
                            break
                        cursor += 1
                elif heap:
                    entry = heap[0]
                    if entry[0] > bound:
                        break
                    heappop(heap)
                else:
                    break
                event = entry[3]
                if event._cancelled:
                    continue
                queue._live -= 1
                self._now = entry[0]
                event._fired = True
                fired += 1
                self._processed += 1
                if self._processed > max_events:
                    raise SimulationLimitError(
                        "exceeded max_events=%d at t=%d ns" %
                        (max_events, self._now))
                event.callback(*event.args)
        finally:
            self._running = False
            # stop() or an exception leaves lane entries unfired; they
            # join the queue (reset() already dropped the earlier ones).
            if lane:
                self._spill_lane()
            self._lane = None
            if queue._epoch == epoch:
                # Fold the unfired backlog tail back into the queue.
                if cursor < n_backlog:
                    if cursor:
                        del backlog[:cursor]
                    if heap:
                        backlog.extend(heap)
                        _heapify(backlog)
                    queue._heap = backlog
            else:
                # reset() ran inside a callback: the queue was cleared
                # while we held the backlog, so drop the tail the same
                # way clear() would have.
                for index in range(cursor, n_backlog):
                    backlog[index][3]._queue = None
            if fired:
                self._m_events.inc(fired)
            self._m_pending.set(queue._live)
        if until is not None and until > self._now:
            self._now = until
        return self._now

    def run_for(self, duration):
        """Run for ``duration`` ns of simulated time from now."""
        return self.run(until=self._now + duration)

    def stop(self):
        """Request that a :meth:`run` in progress return after the current
        event (usable from inside event callbacks)."""
        self._running = False

    def reset(self):
        """Drop all pending events and rewind the clock to zero.

        Random streams are *not* reseeded; build a fresh simulator for a
        statistically independent run.
        """
        self._queue.clear()
        if self._lane:
            self._lane.clear()
        self._trace.clear()
        self._now = 0
        self._processed = 0
        self._running = False
        self._m_pending.set(len(self._queue))
