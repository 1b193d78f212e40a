"""The real-time task model.

An :class:`RTTask` corresponds to an RTAI (LXRT) task: a named, prioritised
unit of execution pinned to one CPU, either *periodic* (released on the
hardware timer grid) or *aperiodic* (released explicitly).  Tasks are
created through :meth:`repro.rtos.kernel.RTKernel.create_task`; the class
here holds state and statistics, while the kernel owns every transition.

Priority convention follows RTAI: **smaller number = higher priority**,
0 is the highest.
"""

import enum
from collections import deque

from repro.rtos import names
from repro.rtos.errors import TaskStateError
from repro.sim.stats import SampleSeries


class TaskType(enum.Enum):
    """Task release discipline (the descriptor's ``type`` attribute).

    PERIODIC and APERIODIC are the paper's set (section 2.3); SPORADIC
    extends it with event-driven tasks whose *minimum inter-arrival
    time* is enforced by the kernel, making them admissible by the same
    schedulability analyses as periodic tasks.
    """

    PERIODIC = "periodic"
    APERIODIC = "aperiodic"
    SPORADIC = "sporadic"


class TaskState(enum.Enum):
    """Kernel-level task states."""

    DORMANT = "dormant"          # created, never started / ended
    READY = "ready"              # in a ready queue
    RUNNING = "running"          # executing on a CPU
    WAITING_PERIOD = "waiting"   # between periodic jobs
    BLOCKED = "blocked"          # on IPC / sleep
    SUSPENDED = "suspended"      # externally suspended (management)
    FAULTED = "faulted"          # body raised; quarantined by kernel
    DELETED = "deleted"          # removed from the kernel


#: States in which the task occupies a ready queue or a CPU.
SCHEDULABLE_STATES = frozenset({TaskState.READY, TaskState.RUNNING})

#: States from which an external suspend is meaningful.
SUSPENDABLE_STATES = frozenset({
    TaskState.READY, TaskState.RUNNING, TaskState.WAITING_PERIOD,
    TaskState.BLOCKED,
})


class TaskStats:
    """Per-task counters and (optional) latency series."""

    __slots__ = ("activations", "completions", "deadline_misses",
                 "overruns", "preemptions", "suspensions",
                 "skipped_releases", "throttled_releases", "cpu_time_ns",
                 "latency")

    def __init__(self, collect_latency=False):
        self.activations = 0
        self.completions = 0
        self.deadline_misses = 0
        self.overruns = 0
        self.preemptions = 0
        self.suspensions = 0
        self.skipped_releases = 0
        self.throttled_releases = 0
        self.cpu_time_ns = 0
        self.latency = SampleSeries() if collect_latency else None

    def as_dict(self):
        """Snapshot of the counters (used by the management interface)."""
        snapshot = {
            "activations": self.activations,
            "completions": self.completions,
            "deadline_misses": self.deadline_misses,
            "overruns": self.overruns,
            "preemptions": self.preemptions,
            "suspensions": self.suspensions,
            "skipped_releases": self.skipped_releases,
            "throttled_releases": self.throttled_releases,
            "cpu_time_ns": self.cpu_time_ns,
        }
        if self.latency is not None:
            snapshot["latency"] = self.latency.summary()
        return snapshot


class RTTask:
    """A simulated RTAI task.  Construct via ``RTKernel.create_task``.

    ``__slots__`` keeps task records compact and attribute access flat:
    the kernel touches a dozen of these fields per dispatch, and the
    slotted layout both removes the per-instance ``__dict__`` and makes
    every load a fixed-offset read (docs/PERFORMANCE.md).  The
    ``_label_*`` fields precompute the event-label strings the kernel
    would otherwise format once per release/compute/timeout event.
    """

    __slots__ = (
        "kernel", "name", "num", "body", "priority", "cpu", "task_type",
        "period_ns", "deadline_ns", "state", "stats", "fault", "hybrid",
        "_gen", "_remaining_ns", "_compute_started", "_completion_event",
        "_quantum_event", "_timeout_event", "_release_event",
        "_release_nominal", "_next_release", "_pending_nominals",
        "_pending_kind", "_pending_value", "_needs_advance",
        "_deferred_wake", "_last_release_time", "_deferred_release_event",
        "_suspend_depth", "_resume_state", "_started", "_blocked_on",
        "_tap", "_latency_stream",
        "_label_release", "_label_complete", "_label_quantum",
        "_label_timeout", "_label_sleep",
    )

    def __init__(self, kernel, name, body, priority, cpu=0,
                 task_type=TaskType.PERIODIC, period_ns=None,
                 deadline_ns=None, collect_latency=False):
        self.kernel = kernel
        self.name = names.validate_name(name)
        self.num = names.nam2num(self.name)
        self.body = body
        self.priority = int(priority)
        self.cpu = int(cpu)
        self.task_type = task_type
        self.period_ns = period_ns
        #: Relative deadline; defaults to the period for periodic tasks.
        self.deadline_ns = deadline_ns if deadline_ns is not None else period_ns
        self.state = TaskState.DORMANT
        self.stats = TaskStats(collect_latency=collect_latency)
        #: The exception that faulted the task (None while healthy).
        self.fault = None

        if self.priority < 0:
            raise ValueError("priority must be >= 0 (0 = highest)")
        if task_type is TaskType.PERIODIC:
            if not period_ns or period_ns <= 0:
                raise ValueError(
                    "periodic task %s needs a positive period_ns" % name)
        if task_type is TaskType.SPORADIC:
            # period_ns doubles as the enforced minimum inter-arrival.
            if not period_ns or period_ns <= 0:
                raise ValueError(
                    "sporadic task %s needs a positive period_ns "
                    "(minimum inter-arrival time)" % name)

        #: Whether the task carries the HRC management-mailbox poll
        #: (feeds the latency model); set by ``RTKernel.create_task``.
        self.hybrid = False

        # -- kernel-private execution state -------------------------------
        self._gen = None                # live generator for current run
        self._remaining_ns = 0          # outstanding Compute time
        self._compute_started = None    # when current compute slice began
        self._completion_event = None   # pending compute-complete event
        self._quantum_event = None      # pending round-robin rotation
        self._timeout_event = None      # pending IPC timeout
        self._release_event = None      # pending timer release interrupt
        self._release_nominal = None    # nominal release of current job
        self._next_release = None       # nominal next periodic release
        self._pending_nominals = deque()  # releases not yet consumed
        self._pending_kind = None       # "period" when woken by a release
        self._pending_value = None      # value to feed the generator
        self._needs_advance = False     # generator must be advanced
        self._deferred_wake = None      # wake delivered while suspended
        self._last_release_time = None  # sporadic inter-arrival anchor
        self._deferred_release_event = None  # throttled sporadic release
        self._suspend_depth = 0         # nested external suspends
        self._resume_state = None       # state to restore after suspend
        self._started = False
        self._blocked_on = None         # IPC object currently blocked on
        self._tap = None                # sample tap (contract monitor)
        self._latency_stream = None     # release jitter RNG, on 1st draw

        # Precomputed event labels (kernel hot path; see class docstring).
        self._label_release = "release:" + self.name
        self._label_complete = "complete:" + self.name
        self._label_quantum = "quantum:" + self.name
        self._label_timeout = "timeout:" + self.name
        self._label_sleep = "sleep:" + self.name

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def is_periodic(self):
        """Whether the task is released on the timer grid."""
        return self.task_type is TaskType.PERIODIC

    @property
    def started(self):
        """Whether the task has been started at least once."""
        return self._started

    @property
    def suspended(self):
        """Whether at least one external suspend is in effect."""
        return self._suspend_depth > 0

    @property
    def utilization(self):
        """Measured CPU utilisation so far (cpu time / elapsed)."""
        now = self.kernel.now
        if now <= 0:
            return 0.0
        return self.stats.cpu_time_ns / now

    def status(self):
        """Status snapshot for the management interface (section 2.4)."""
        return {
            "name": self.name,
            "state": self.state.value,
            "priority": self.priority,
            "cpu": self.cpu,
            "type": self.task_type.value,
            "period_ns": self.period_ns,
            "suspend_depth": self._suspend_depth,
            "stats": self.stats.as_dict(),
        }

    def _require_state(self, *states):
        if self.state not in states:
            raise TaskStateError(
                "task %s is %s; expected one of %s"
                % (self.name, self.state.name,
                   "/".join(s.name for s in states)))

    def __repr__(self):
        return "RTTask(%s, prio=%d, cpu=%d, %s, %s)" % (
            self.name, self.priority, self.cpu, self.task_type.value,
            self.state.value)
