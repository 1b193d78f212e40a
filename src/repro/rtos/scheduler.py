"""Ready-queue scheduling policies.

The kernel keeps one scheduler instance per CPU.  A scheduler only
manages the *ready set*; dispatching, preemption and time accounting stay
in the kernel.  Two policies are provided:

* :class:`PriorityScheduler` -- fixed-priority, preemptive, FIFO within a
  priority level, with optional round-robin rotation among equal
  priorities (the paper: "The scheduler used in the test is round-robin
  algorithm", i.e. RTAI's SCHED_RR within a priority level).
* :class:`EDFScheduler` -- earliest-deadline-first, used by the admission
  policy ablation (experiment A2).

Performance notes (see docs/PERFORMANCE.md)
-------------------------------------------
The fixed-priority scheduler keeps an **occupancy bitmap**: bit ``p``
is set exactly while priority level ``p`` holds a ready task, so
:meth:`pick` isolates the lowest set bit (``bitmap & -bitmap``) instead
of running ``min()`` over the level keys -- the same O(1) trick RTAI's
own scheduler uses over its 2-level bitmap.  A side ``set`` of ready
tasks turns the duplicate-insert guard from an O(level) deque scan into
one hash probe; that set is the ``ready`` container every policy
exposes.  Priorities are expected to be small non-negative
integers (RTAI convention; descriptor validation keeps them in range) --
the bitmap is an arbitrary-precision int, so larger values stay correct,
they just cost proportionally more bits.
"""

import heapq
import itertools
from collections import deque

from repro.rtos.errors import SchedulerError
from repro.telemetry.metrics import NULL_COUNTER


class Scheduler:
    """Interface shared by all ready-queue policies.

    Every policy keeps its ready tasks in a container named ``ready``
    (a set, or a dict keyed by task) that is truthy exactly while a
    task is ready: the kernel tests it on every park instead of
    calling ``len``.
    """

    #: Human-readable policy name (used in traces and benchmarks).
    policy = "abstract"

    #: Telemetry counters for ready-queue traffic.  Class-level null
    #: defaults keep standalone schedulers (unit tests, analyses)
    #: zero-cost; the kernel rebinds them via :meth:`bind_counters`.
    _enqueues = NULL_COUNTER
    _dequeues = NULL_COUNTER

    def bind_counters(self, enqueues, dequeues):
        """Attach telemetry counters for add/remove traffic (the kernel
        shares one pair across all per-CPU scheduler instances)."""
        self._enqueues = enqueues
        self._dequeues = dequeues

    def add(self, task):
        """Insert a task into the ready set."""
        raise NotImplementedError

    def remove(self, task):
        """Remove a task from the ready set (it must be present)."""
        raise NotImplementedError

    def pick(self):
        """Return the best ready task without removing it, or ``None``."""
        raise NotImplementedError

    def rotate(self, task):
        """Round-robin hook: move ``task`` behind its equal-priority
        peers.  Policies without a notion of rotation may ignore this."""

    def would_preempt(self, candidate, running):
        """Whether ``candidate`` should preempt ``running`` right now."""
        raise NotImplementedError

    def cannot_preempt(self, candidate, running):
        """Whether a newly ready ``candidate`` can wait for ``running``
        without a rescheduling pass.

        True only when no same-instant change short of one the kernel
        already requests a pass for (``running`` leaving its CPU, a
        priority change) could let it preempt.  The default answer,
        False, makes the kernel queue a pass for every ready task.
        """
        return False

    def peers_ready(self, task):
        """Whether another ready task shares ``task``'s scheduling class
        (drives round-robin quantum arming)."""
        return False

    def __len__(self):
        return len(self.ready)


class PriorityScheduler(Scheduler):
    """Fixed-priority preemptive scheduler, FIFO/RR within a level.

    ``rr_quantum_ns`` enables round-robin among equal-priority tasks;
    ``None`` means run-to-block (plain FIFO), matching RTAI's default.
    """

    policy = "priority"

    def __init__(self, rr_quantum_ns=None):
        self._levels = {}
        self._bitmap = 0
        self.ready = set()
        self.rr_quantum_ns = rr_quantum_ns

    def add(self, task):
        if task in self.ready:
            raise SchedulerError("task %s already ready" % task.name)
        priority = task.priority
        queue = self._levels.get(priority)
        if queue is None:
            queue = self._levels[priority] = deque()
            self._bitmap |= 1 << priority
        queue.append(task)
        self.ready.add(task)
        self._enqueues.inc()

    def remove(self, task):
        if task not in self.ready:
            raise SchedulerError("task %s not in ready set" % task.name)
        priority = task.priority
        queue = self._levels[priority]
        if queue[0] is task:
            # The common case: the picked/front task leaves the level.
            queue.popleft()
        else:
            queue.remove(task)
        if not queue:
            del self._levels[priority]
            self._bitmap &= ~(1 << priority)
        self.ready.discard(task)
        self._dequeues.inc()

    def pick(self):
        bitmap = self._bitmap
        if not bitmap:
            return None
        return self._levels[(bitmap & -bitmap).bit_length() - 1][0]

    def rotate(self, task):
        queue = self._levels.get(task.priority)
        if queue and queue[0] is task:
            queue.rotate(-1)

    def would_preempt(self, candidate, running):
        # Strictly higher priority (smaller number) preempts; equal
        # priority does not preempt -- it waits for quantum expiry or
        # for the running task to block.
        return candidate.priority < running.priority

    def cannot_preempt(self, candidate, running):
        # Priorities change only through RTKernel.set_task_priority,
        # which requests a pass itself.
        return candidate.priority >= running.priority

    def peers_ready(self, task):
        queue = self._levels.get(task.priority)
        return bool(queue)


class EDFScheduler(Scheduler):
    """Earliest-deadline-first scheduler.

    Deadlines are absolute (``task._release_nominal + task.deadline_ns``);
    tasks without a live deadline (aperiodic, no deadline declared) sort
    after all deadline-bearing tasks, by static priority.
    """

    policy = "edf"

    def __init__(self):
        self._heap = []
        #: task -> its heap entry.
        self.ready = {}
        self._counter = itertools.count()

    @staticmethod
    def _absolute_deadline(task):
        if task.deadline_ns is None:
            return None
        # A freshly released task carries its new nominal in the
        # pending queue until dispatch; its deadline must be judged by
        # that job, not by the previous one's.
        if task._pending_nominals:
            return task._pending_nominals[0] + task.deadline_ns
        if task._release_nominal is None:
            return None
        return task._release_nominal + task.deadline_ns

    def _key(self, task):
        deadline = self._absolute_deadline(task)
        if deadline is None:
            return (1, task.priority, 0)
        return (0, deadline, task.priority)

    def add(self, task):
        if task in self.ready:
            raise SchedulerError("task %s already ready" % task.name)
        entry = [self._key(task), next(self._counter), task, True]
        self.ready[task] = entry
        heapq.heappush(self._heap, entry)
        self._enqueues.inc()

    def remove(self, task):
        entry = self.ready.pop(task, None)
        if entry is None:
            raise SchedulerError("task %s not in ready set" % task.name)
        entry[3] = False  # lazy deletion
        self._dequeues.inc()

    def pick(self):
        while self._heap:
            entry = self._heap[0]
            if not entry[3]:
                heapq.heappop(self._heap)
                continue
            return entry[2]
        return None

    def would_preempt(self, candidate, running):
        return self._key(candidate) < self._key(running)

    # cannot_preempt keeps the base class's "no": a running task that
    # takes an overrun's catch-up job moves its deadline key without a
    # rescheduling request, so every ready task queues a pass.


def make_scheduler(policy, rr_quantum_ns=None):
    """Factory used by kernel configuration.

    ``policy`` is ``"priority"`` or ``"edf"``; ``rr_quantum_ns`` only
    applies to the fixed-priority policy.
    """
    if policy == "priority":
        return PriorityScheduler(rr_quantum_ns=rr_quantum_ns)
    if policy == "edf":
        return EDFScheduler()
    raise ValueError("unknown scheduling policy: %r" % (policy,))
