"""Cancellable events and the time-ordered event queue.

Events are ordered by ``(time, priority, sequence)``.  The sequence number
makes ordering of same-time, same-priority events deterministic (FIFO in
scheduling order), which keeps every simulation run bit-reproducible for a
given seed.

Performance notes (see docs/PERFORMANCE.md)
-------------------------------------------
The heap stores ``(when, priority, seq, event)`` **tuples**, not the
:class:`Event` objects themselves.  Tuple comparison is a single C-level
operation, whereas comparing ``Event`` objects would call a Python
``__lt__`` for every sift step -- which profiling showed was the single
largest cost of the whole simulator.  ``seq`` is unique, so the
comparison never reaches the trailing event object, and the event class
needs no ordering methods at all.  The tuple layout is
part of the internal contract with :meth:`repro.sim.engine.Simulator.run`,
which drains the heap in place instead of paying ``peek``/``pop`` method
pairs per event.
"""

from heapq import heappop, heappush

from repro.sim.errors import EventAlreadyCancelledError

#: Default event priority.  Lower values fire first at equal timestamps.
PRIORITY_NORMAL = 100
#: Priority used for hardware-level events (timer interrupts) that must be
#: observed before any same-instant software action.
PRIORITY_INTERRUPT = 0
#: Priority used for bookkeeping that must run after all same-instant work.
PRIORITY_LATE = 1000


class Event:
    """A scheduled callback.

    Instances are created by :meth:`repro.sim.engine.Simulator.schedule`;
    user code only cancels them or inspects their state.
    """

    __slots__ = ("when", "priority", "seq", "callback", "args", "label",
                 "_queue", "_cancelled", "_fired")

    def __init__(self, when, priority, seq, callback, args=(), label="",
                 queue=None):
        self.when = when
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.label = label
        self._queue = queue
        self._cancelled = False
        self._fired = False

    @property
    def cancelled(self):
        """Whether :meth:`cancel` was called before the event fired."""
        return self._cancelled

    @property
    def fired(self):
        """Whether the event's callback has already run."""
        return self._fired

    @property
    def pending(self):
        """Whether the event is still waiting to fire."""
        return not (self._cancelled or self._fired)

    def cancel(self):
        """Cancel the event.

        Cancelling an event that already fired or was already cancelled
        raises :class:`EventAlreadyCancelledError`; silently ignoring the
        second cancel would hide lifecycle bugs in the kernel code built on
        top of this queue.
        """
        if self._cancelled or self._fired:
            raise EventAlreadyCancelledError(
                "event %r already %s" %
                (self.label, "cancelled" if self._cancelled else "fired"))
        self._mark_cancelled()

    def cancel_if_pending(self):
        """Cancel the event if it is still pending; return whether it was."""
        if self.pending:
            self._mark_cancelled()
            return True
        return False

    def _mark_cancelled(self):
        self._cancelled = True
        if self._queue is not None:
            self._queue._live -= 1

    def __repr__(self):
        state = ("cancelled" if self._cancelled
                 else "fired" if self._fired else "pending")
        return "Event(t=%d, prio=%d, label=%r, %s)" % (
            self.when, self.priority, self.label, state)


class EventQueue:
    """Min-heap of ``(when, priority, seq, event)`` tuples, lazy deletion.

    Cancelled events stay in the heap and are skipped on pop; this is the
    standard O(log n) cancellation strategy and keeps `cancel` cheap for
    the very frequent "cancel pending preemption/completion" pattern in the
    RT kernel.
    """

    __slots__ = ("_heap", "_seq", "_live", "_epoch")

    def __init__(self):
        self._heap = []
        self._seq = 0
        self._live = 0
        # Bumped by clear(); lets an in-flight run() window detect a
        # reset and discard its drained-but-unfired backlog.
        self._epoch = 0

    def __len__(self):
        return self._live

    def __bool__(self):
        return self._live > 0

    def push(self, when, callback, args=(), priority=PRIORITY_NORMAL,
             label=""):
        """Create, enqueue and return a new :class:`Event`."""
        seq = self._seq
        self._seq = seq + 1
        event = Event(when, priority, seq, callback, args, label,
                      queue=self)
        heappush(self._heap, (when, priority, seq, event))
        self._live += 1
        return event

    def pop(self):
        """Remove and return the earliest live event.

        Returns ``None`` when the queue holds no live events.
        """
        heap = self._heap
        while heap:
            event = heappop(heap)[3]
            if event._cancelled:
                continue
            self._live -= 1
            return event
        return None

    def peek_time(self):
        """Return the timestamp of the earliest live event, or ``None``."""
        heap = self._heap
        while heap and heap[0][3]._cancelled:
            heappop(heap)
        if heap:
            return heap[0][0]
        return None

    def clear(self):
        """Drop every event (used for simulator reset)."""
        for entry in self._heap:
            entry[3]._queue = None
        self._heap.clear()
        self._live = 0
        self._epoch += 1
