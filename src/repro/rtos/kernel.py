"""The simulated dual-kernel RTOS (the repository's RTAI stand-in).

One :class:`RTKernel` owns a set of CPUs, a hardware timer, the RT task
set, the IPC objects, and the *Linux domain* -- everything RTAI provides
underneath the paper's framework.  The defining dual-kernel property is
built in structurally: **real-time tasks are the only things that occupy
simulated CPU time**; the Linux domain (OSGi, JVM, load generators) only
ever receives the time RT tasks leave idle, so no amount of Linux load
can delay an RT dispatch.  Linux load *does* influence the hardware
wakeup path (idle states, caches), which is what the latency model
captures -- exactly the effect the paper measures in Table 1.

Execution model
---------------
A task body is a generator; the kernel drives it (see
:mod:`repro.rtos.requests`).  ``Compute`` segments occupy the CPU and are
preemptible; every other request is processed in zero simulated time at
the instant it is yielded.  Every dispatch decision is funnelled
through one coalesced same-instant event per CPU (``_do_resched``,
queued on the simulator's same-instant lane) so that arbitrarily deep
wake chains (a send waking a receiver waking a sender...) settle
deterministically before time advances.

A request queues that event only when it can dispatch something: never
while the CPU's ready set is empty, and never for a newly ready task
the scheduler says cannot preempt the running one
(:meth:`~repro.rtos.scheduler.Scheduler.cannot_preempt`).  Such a
request still *reserves* the place its pass would take among the
instant's late events: when this kernel queues another late event at
the same instant, the reserved passes are queued first, in reservation
order.  So every pass that dispatches runs at the place a pass queued
on every request would have, and the passes left out would have found
nothing to do.
"""

import heapq

from repro.rtos import requests as rq
from repro.rtos.errors import (
    DuplicateNameError,
    TaskStateError,
    TimerNotStartedError,
    UnknownObjectError,
)
from repro.rtos.latency import LatencyModel
from repro.rtos.mailbox import Mailbox
from repro.rtos.scheduler import make_scheduler
from repro.rtos.sem import Semaphore
from repro.rtos.shm import SharedMemory
from repro.rtos.task import (
    SUSPENDABLE_STATES,
    RTTask,
    TaskState,
    TaskType,
)
from repro.sim.events import PRIORITY_INTERRUPT, PRIORITY_NORMAL

TIMER_PERIODIC = "periodic"
TIMER_ONESHOT = "oneshot"

#: Plumbing names are a ``$X`` prefix plus a four-digit index.
_NAME_INDICES = 10000

#: ``rtos`` counter name -> the :class:`KernelTally` attribute it
#: reads, in the order the counters are created.
_TALLIED = (
    ("dispatches_total", "dispatches"),
    ("context_switches_total", "context_switches"),
    ("preemptions_total", "preemptions"),
    ("releases_total", "releases"),
    ("overruns_total", "overruns"),
    ("deadline_misses_total", "deadline_misses"),
)


class KernelTally:
    """One kernel's per-event counts, as plain ints.

    The kernel bumps these on its per-job path (``tally.x += 1``, no
    call); the ``rtos`` counters read them through
    :meth:`~repro.telemetry.metrics.Counter.add_source`.  They count
    whether telemetry is on or off.
    """

    __slots__ = tuple(attribute for _, attribute in _TALLIED)

    def __init__(self):
        for attribute in self.__slots__:
            setattr(self, attribute, 0)


class KernelConfig:
    """Tunable constants of the simulated hardware/kernel.

    All times in nanoseconds.  ``irq_entry_ns`` is charged between the
    hardware timer firing and the release becoming visible to the
    scheduler; ``scheduler_overhead_ns + context_switch_ns`` are charged
    whenever a task is put on a CPU.  The calibrated latency profiles in
    :mod:`repro.rtos.latency` assume the default total of 1000 ns.
    """

    def __init__(self, num_cpus=1, scheduler_policy="priority",
                 rr_quantum_ns=None, irq_entry_ns=300,
                 scheduler_overhead_ns=200, context_switch_ns=500,
                 latency_model=None, trace_kernel=True):
        if num_cpus < 1:
            raise ValueError("need at least one CPU")
        self.num_cpus = num_cpus
        self.scheduler_policy = scheduler_policy
        self.rr_quantum_ns = rr_quantum_ns
        self.irq_entry_ns = irq_entry_ns
        self.scheduler_overhead_ns = scheduler_overhead_ns
        self.context_switch_ns = context_switch_ns
        self.latency_model = latency_model or LatencyModel()
        self.trace_kernel = trace_kernel

    @property
    def dispatch_cost_ns(self):
        """Total cost of putting a task on a CPU."""
        return self.scheduler_overhead_ns + self.context_switch_ns


class RTKernel:
    """The simulated real-time kernel.  See the module docstring."""

    def __init__(self, sim, config=None):
        self.sim = sim
        self.config = config or KernelConfig()
        #: The simulated instant the kernel was built: utilization is
        #: measured from here (a cluster node can join mid-run).
        self.built_ns = sim.now
        cpus = range(self.config.num_cpus)
        self._schedulers = {
            cpu: make_scheduler(self.config.scheduler_policy,
                                self.config.rr_quantum_ns)
            for cpu in cpus
        }
        self._running = {cpu: None for cpu in cpus}
        self._segment_start = {cpu: None for cpu in cpus}
        self._resched_pending = {cpu: False for cpu in cpus}
        # CPUs whose pass was reserved (module docstring), in
        # reservation order; they stand while _reserved_at is now.
        self._reserved = []
        self._reserved_at = None
        self._rt_busy_ns = {cpu: 0 for cpu in cpus}
        # Linux-domain accounting.
        self._loads = []
        self._linux_work_ns = {cpu: 0.0 for cpu in cpus}
        self._last_settle = {cpu: (0, 0) for cpu in cpus}  # (time, busy)
        # Hardware timer.
        self._timer_started = False
        self._timer_mode = TIMER_PERIODIC
        self._timer_period_ns = None
        self._timer_epoch = 0
        # Object registry (single RTAI-style namespace).
        self._registry = {}
        # Plumbing-name allocator, per ``$X`` prefix: every free index
        # below the high-water mark is on the min-heap of released
        # indices (which may also hold stale, since re-taken, entries).
        self._name_marks = {}
        self._released_names = {}
        self.tasks = []
        # Hot-path caches: dispatch cost is a property sum, and the
        # zero-offset flag lets the null model skip the whole sampling
        # path (no RNG stream touch) per release.  Otherwise a release
        # draws from its task's own stream with the (plain, hybrid)
        # profile pair of the Linux load in force, which only
        # register_load/unregister_load change.
        self._dispatch_cost = self.config.dispatch_cost_ns
        self._irq_entry = self.config.irq_entry_ns
        self._zero_offset = getattr(self.config.latency_model,
                                    "zero_offset", False)
        self._refresh_linux_demand()
        # Round-robin is off by default; when it is, _begin_compute can
        # skip the quantum-arming helper entirely.
        self._rr_enabled = bool(self.config.rr_quantum_ns)
        # Telemetry.  The per-event counts live in this kernel's tally
        # and its schedulers' ``enqueues``/``dequeues``, registered as
        # sources of the (shared) rtos counters, so every kernel on
        # this Telemetry -- a crashed cluster node's too -- adds in.
        metrics = sim.telemetry.registry("rtos")
        self._tally = tally = KernelTally()
        for name, attribute in _TALLIED:
            metrics.counter(name).add_source(tally, attribute)
        self._m_faults = metrics.counter("task_faults_total")
        self._observe_latency = metrics.histogram(
            "dispatch_latency_ns").observe
        ready_enqueues = metrics.counter("ready_enqueues_total")
        ready_dequeues = metrics.counter("ready_dequeues_total")
        for scheduler in self._schedulers.values():
            ready_enqueues.add_source(scheduler, "enqueues")
            ready_dequeues.add_source(scheduler, "dequeues")
        self._last_ran = {cpu: None for cpu in cpus}
        #: Optional callback ``(task, error)`` invoked (deferred to the
        #: current instant's end) when a task body raises.  The DRCR
        #: hooks this to quarantine the owning component.
        self.on_task_fault = None

    # ------------------------------------------------------------------
    # basics
    # ------------------------------------------------------------------
    @property
    def now(self):
        """Current simulated time (ns)."""
        return self.sim.now

    def _trace(self, category, **fields):
        if self.config.trace_kernel:
            self.sim.trace.record(self.sim.now, category, **fields)

    def _register(self, name, obj):
        if name in self._registry:
            raise DuplicateNameError("kernel object %r already exists"
                                     % name)
        self._registry[name] = obj

    def lookup(self, name):
        """Find a kernel object (task/SHM/mailbox/semaphore) by name."""
        obj = self._registry.get(name.upper())
        if obj is None:
            raise UnknownObjectError("no kernel object named %r" % name)
        return obj

    def exists(self, name):
        """Whether a kernel object with that name exists."""
        return name.upper() in self._registry

    def _unregister(self, name):
        """Drop a registry entry; a released plumbing name below its
        prefix's high-water mark goes back on that prefix's heap."""
        if self._registry.pop(name, None) is None:
            return
        if name[:1] == "$" and name[-4:].isdigit():
            prefix = name[:-4]
            index = int(name[-4:])
            if index < self._name_marks.get(prefix, 0):
                heapq.heappush(self._released_names[prefix], index)

    def unique_name(self, prefix):
        """The lowest unused 6-character name like ``$C0042``.

        Used for anonymous kernel objects (e.g. the hybrid container's
        command/status mailboxes) whose names are plumbing, not shared
        references.  Names live in the ``$`` namespace: ``$`` is legal
        in RTAI names but rejected by descriptor port/task validation,
        so plumbing can never collide with component-declared names.

        A pure query: the name is not reserved, so two calls without a
        registration in between return the same name.  It is always
        the lowest free index, as a probe from ``0000`` would find,
        at amortized O(log n) cost: the smallest released index is
        checked first, and otherwise the probe resumes from the
        prefix's high-water mark, which only advances past taken
        names.
        """
        prefix = ("$" + prefix.upper())[:2]
        registry = self._registry
        released = self._released_names.setdefault(prefix, [])
        while released:
            candidate = "%s%04d" % (prefix, released[0])
            if candidate not in registry:
                return candidate
            heapq.heappop(released)
        mark = self._name_marks.get(prefix, 0)
        while mark < _NAME_INDICES:
            candidate = "%s%04d" % (prefix, mark)
            if candidate not in registry:
                break
            mark += 1
        self._name_marks[prefix] = mark
        if mark == _NAME_INDICES:
            raise DuplicateNameError("name space %s exhausted" % prefix)
        return candidate

    # ------------------------------------------------------------------
    # hardware timer
    # ------------------------------------------------------------------
    @property
    def timer_started(self):
        """Whether ``start_timer`` has been called."""
        return self._timer_started

    @property
    def timer_period_ns(self):
        """The programmed timer tick (None before start)."""
        return self._timer_period_ns

    def set_timer_mode(self, mode):
        """Select TIMER_PERIODIC or TIMER_ONESHOT (before start)."""
        if mode not in (TIMER_PERIODIC, TIMER_ONESHOT):
            raise ValueError("unknown timer mode: %r" % (mode,))
        self._timer_mode = mode

    def start_timer(self, period_ns):
        """Start the hardware timer (RTAI ``start_rt_timer``)."""
        if period_ns <= 0:
            raise ValueError("timer period must be positive")
        self._timer_started = True
        self._timer_period_ns = int(period_ns)
        self._timer_epoch = self.sim.now
        self._trace("timer_start", period_ns=self._timer_period_ns,
                    mode=self._timer_mode)

    def stop_timer(self):
        """Stop the hardware timer (periodic tasks stop releasing)."""
        self._timer_started = False
        self._trace("timer_stop")

    def quantize(self, when):
        """Snap an absolute time onto the timer grid (periodic mode)."""
        if not self._timer_started:
            raise TimerNotStartedError("timer not started")
        if self._timer_mode == TIMER_ONESHOT:
            return max(when, self.sim.now)
        tick = self._timer_period_ns
        offset = when - self._timer_epoch
        ticks = -(-offset // tick)  # ceil division
        return self._timer_epoch + ticks * tick

    # ------------------------------------------------------------------
    # Linux domain (load generators)
    # ------------------------------------------------------------------
    @property
    def linux_demand(self):
        """Aggregate Linux-side CPU demand in [0, 1] per CPU."""
        return self._linux_demand

    def register_load(self, load):
        """Attach a Linux-domain load generator."""
        self._settle_linux_accounting()
        self._loads.append(load)
        self._refresh_linux_demand()
        load.attached(self)
        self._trace("load_register", load=load.describe(),
                    demand=self.linux_demand)

    def unregister_load(self, load):
        """Detach a Linux-domain load generator."""
        self._settle_linux_accounting()
        self._loads.remove(load)
        self._refresh_linux_demand()
        load.detached(self)
        self._trace("load_unregister", load=load.describe(),
                    demand=self.linux_demand)

    def _refresh_linux_demand(self):
        """Re-sum the registered loads' demand (read-only per load) and
        re-pick the latency model's (plain, hybrid) release profiles."""
        self._linux_demand = min(1.0, sum(load.demand
                                          for load in self._loads))
        if not self._zero_offset:
            model = self.config.latency_model
            mode = model.mode_for(self._linux_demand)
            self._release_profiles = (model.profile(mode, False),
                                      model.profile(mode, True))

    def _busy_now(self, cpu):
        busy = self._rt_busy_ns[cpu]
        if self._segment_start[cpu] is not None:
            busy += self.sim.now - self._segment_start[cpu]
        return busy

    def _settle_linux_accounting(self):
        demand = self.linux_demand
        for cpu in self._running:
            last_time, last_busy = self._last_settle[cpu]
            busy = self._busy_now(cpu)
            idle = (self.sim.now - last_time) - (busy - last_busy)
            if idle > 0:
                self._linux_work_ns[cpu] += idle * demand
            self._last_settle[cpu] = (self.sim.now, busy)

    def linux_work_ns(self, cpu=None):
        """Linux-domain CPU time executed so far (one CPU or total)."""
        self._settle_linux_accounting()
        if cpu is not None:
            return self._linux_work_ns[cpu]
        return sum(self._linux_work_ns.values())

    def rt_busy_ns(self, cpu=None):
        """Real-time-domain CPU time consumed so far."""
        if cpu is not None:
            return self._busy_now(cpu)
        return sum(self._busy_now(c) for c in self._running)

    def rt_utilization(self, cpu=0):
        """Fraction of the time since the kernel was built that the RT
        domain used on ``cpu``."""
        elapsed = self.sim.now - self.built_ns
        if elapsed == 0:
            return 0.0
        return self._busy_now(cpu) / elapsed

    # ------------------------------------------------------------------
    # task API
    # ------------------------------------------------------------------
    def create_task(self, name, body, priority, cpu=0,
                    task_type=TaskType.PERIODIC, period_ns=None,
                    deadline_ns=None, collect_latency=False, hybrid=False):
        """Create (but do not start) an RT task.

        ``hybrid`` marks the task as carrying the HRC management poll,
        which feeds the latency model's mode selection (see
        :mod:`repro.rtos.latency`).
        """
        if cpu not in self._running:
            raise ValueError("no such CPU: %r" % (cpu,))
        task = RTTask(self, name, body, priority, cpu=cpu,
                      task_type=task_type, period_ns=period_ns,
                      deadline_ns=deadline_ns,
                      collect_latency=collect_latency)
        task.hybrid = bool(hybrid)
        self._register(task.name, task)
        self.tasks.append(task)
        self._trace("task_create", task=task.name, priority=task.priority,
                    cpu=task.cpu, type=task_type.value)
        return task

    def start_task(self, task, start_at=None):
        """Start a task.

        Periodic tasks get an initialization run immediately (the body
        runs until its first ``WaitPeriod``) and are then released on the
        timer grid, first release at ``quantize(start_at or now+period)``.
        Aperiodic tasks simply become ready.
        """
        task._require_state(TaskState.DORMANT)
        if task.is_periodic and not self._timer_started:
            raise TimerNotStartedError(
                "start the hardware timer before starting periodic task %s"
                % task.name)
        task._started = True
        task._gen = task.body(task)
        task._remaining_ns = 0
        task._needs_advance = True
        task._pending_value = None
        task._pending_kind = None
        if task.is_periodic:
            nominal = start_at if start_at is not None \
                else self.sim.now + task.period_ns
            task._next_release = self.quantize(nominal)
            self._arm_release(task)
        else:
            task.stats.activations += 1
            task._release_nominal = self.sim.now
            task._last_release_time = self.sim.now
        self._trace("task_start", task=task.name)
        self._make_ready(task)

    def release_task(self, task):
        """Explicitly release an aperiodic or sporadic task (one job).

        If the task already ended its previous run it is restarted with
        a fresh generator; if it is still busy the release is an
        overrun.  Sporadic tasks enforce their minimum inter-arrival
        time: an early release is *deferred* to the earliest legal
        instant (at most one deferral queues; further early releases
        are dropped and counted as throttled).
        """
        if task.is_periodic:
            raise TaskStateError(
                "release_task is for aperiodic tasks; %s is periodic"
                % task.name)
        if task.suspended:
            raise TaskStateError(
                "cannot release suspended task %s" % task.name)
        if task.task_type is TaskType.SPORADIC:
            earliest = ((task._last_release_time or 0)
                        + task.period_ns)
            if task._last_release_time is not None \
                    and self.sim.now < earliest:
                task.stats.throttled_releases += 1
                if task._deferred_release_event is None:
                    task._deferred_release_event = self.sim.schedule_at(
                        earliest, self._on_deferred_release, task,
                        label="sporadic:%s" % task.name)
                self._trace("sporadic_throttle", task=task.name,
                            earliest=earliest)
                return
        self._do_event_release(task)

    def _on_deferred_release(self, task):
        task._deferred_release_event = None
        if task.state is TaskState.DELETED or task.suspended:
            return
        self._do_event_release(task)

    def _do_event_release(self, task):
        task._last_release_time = self.sim.now
        if task._tap is not None:
            task._tap.on_release(self.sim.now)
        if task.state is TaskState.DORMANT:
            task._started = True
            task._gen = task.body(task)
            task._remaining_ns = 0
            task._needs_advance = True
            task._pending_value = None
            task._release_nominal = self.sim.now
            task.stats.activations += 1
            self._tally.releases += 1
            self._trace("task_release", task=task.name)
            self._make_ready(task)
        else:
            task.stats.overruns += 1
            self._tally.overruns += 1
            self._trace("task_release_overrun", task=task.name)

    def suspend_task(self, task):
        """Externally suspend a task (management interface; nests)."""
        if task.state is TaskState.DELETED:
            raise TaskStateError("cannot suspend deleted task %s"
                                 % task.name)
        task._suspend_depth += 1
        task.stats.suspensions += 1
        if task._suspend_depth > 1:
            return
        if task.state not in SUSPENDABLE_STATES:
            task._resume_state = "dormant"
            return
        if task.state is TaskState.RUNNING:
            self._take_off_cpu(task)
            task._resume_state = "ready"
        elif task.state is TaskState.READY:
            self._schedulers[task.cpu].remove(task)
            task._resume_state = "ready"
        elif task.state is TaskState.WAITING_PERIOD:
            task._resume_state = "waiting"
        else:  # BLOCKED: stays parked in the IPC object
            task._resume_state = "blocked"
        task.state = TaskState.SUSPENDED
        self._trace("task_suspend", task=task.name)
        self._request_resched(task.cpu)

    def resume_task(self, task):
        """Undo one suspend level; restores the pre-suspend situation."""
        if task._suspend_depth == 0:
            raise TaskStateError("task %s is not suspended" % task.name)
        task._suspend_depth -= 1
        if task._suspend_depth > 0:
            return
        self._trace("task_resume", task=task.name)
        resume_state = task._resume_state
        task._resume_state = None
        if task.state is not TaskState.SUSPENDED:
            return  # suspend happened in a non-schedulable state
        if resume_state == "blocked":
            if task._deferred_wake is not None:
                value = task._deferred_wake[0]
                task._deferred_wake = None
                task._needs_advance = True
                task._pending_value = value
                self._make_ready(task)
            else:
                task.state = TaskState.BLOCKED
        elif resume_state == "waiting":
            # Releases were skipped during suspension; rejoin the grid.
            task.state = TaskState.WAITING_PERIOD
        else:
            task._needs_advance = task._remaining_ns == 0 \
                and task._needs_advance
            self._make_ready(task)

    def set_task_priority(self, task, priority):
        """Change a task's priority at run time.

        Used by priority inheritance (:class:`~repro.rtos.sem
        .ResourceSemaphore`) and by adaptation managers
        (``rt_change_prio``).  Ready-queue membership is refreshed and
        a rescheduling pass triggered.
        """
        if priority < 0:
            raise ValueError("priority must be >= 0, got %r"
                             % (priority,))
        if priority == task.priority:
            return
        old = task.priority
        if task.state is TaskState.READY:
            self._schedulers[task.cpu].remove(task)
            task.priority = priority
            self._schedulers[task.cpu].add(task)
        else:
            task.priority = priority
        self._trace("priority_change", task=task.name, old=old,
                    new=priority)
        self._request_resched(task.cpu)

    def attach_sample_tap(self, task, tap):
        """Attach a per-task sample tap (contract monitoring surface).

        ``tap`` must expose ``on_release(now_ns)`` and
        ``on_complete(cpu_time_total_ns)``; the kernel invokes them on
        every release and job completion of ``task``.  One tap per
        task; the hooks cost a single attribute test when no tap is
        attached (docs/PERFORMANCE.md discipline).
        """
        task._tap = tap

    def detach_sample_tap(self, task, tap=None):
        """Remove a previously attached sample tap.

        With ``tap`` given, detach only if that exact tap is still the
        one attached -- so a monitor that lost the race with a newer
        attachment cannot tear down someone else's tap.
        """
        if tap is None or task._tap is tap:
            task._tap = None

    def inject_fault(self, task, error):
        """Force-fault a task from outside its body (fault injection).

        Behaves exactly as if the task's body had raised ``error``: the
        task is quarantined to FAULTED, its events are cancelled, and
        the embedder's ``on_task_fault`` callback (the DRCR) is
        notified.  This is the public surface :mod:`repro.faults` uses;
        the watchdog's ``fault`` policy takes the same path.
        """
        if task.state is TaskState.DELETED:
            raise TaskStateError("cannot fault deleted task %s"
                                 % task.name)
        self._fault_task(task, error)

    def delete_task(self, task):
        """Remove a task from the kernel entirely."""
        if task.state is TaskState.DELETED:
            return
        if task.state is TaskState.RUNNING:
            self._take_off_cpu(task)
        elif task.state is TaskState.READY:
            self._schedulers[task.cpu].remove(task)
        elif task.state is TaskState.BLOCKED and task._blocked_on is not None:
            task._blocked_on._forget_waiter(task)
        self._cancel_task_events(task)
        task.state = TaskState.DELETED
        if task._gen is not None:
            # Close the body so its finally blocks run at delete time
            # rather than at garbage collection.
            try:
                task._gen.close()
            except (RuntimeError, ValueError):
                pass  # deleting from within the body itself
        task._gen = None
        task._blocked_on = None
        self._unregister(task.name)
        if task in self.tasks:
            self.tasks.remove(task)
        self._trace("task_delete", task=task.name)
        self._request_resched(task.cpu)

    # ------------------------------------------------------------------
    # IPC factories
    # ------------------------------------------------------------------
    def shm_alloc(self, name, dtype, size, owner=None):
        """Create or attach a shared-memory segment (rt_shm_alloc)."""
        key = name.upper()
        existing = self._registry.get(key)
        if existing is not None:
            if not isinstance(existing, SharedMemory):
                raise DuplicateNameError(
                    "%r names a non-SHM kernel object" % name)
            if existing.dtype != dtype or existing.size != int(size):
                raise DuplicateNameError(
                    "SHM %r exists with different type/size" % name)
            return existing.attach(owner)
        sim = self.sim
        segment = SharedMemory(lambda: sim._now, name, dtype, size)
        self._register(segment.name, segment)
        self._trace("shm_alloc", name=segment.name, dtype=dtype, size=size)
        return segment.attach(owner)

    def shm_free(self, name, owner=None):
        """Detach from a segment; the last detach frees it."""
        segment = self.lookup(name)
        if segment.detach(owner):
            self._unregister(segment.name)
            self._trace("shm_free", name=segment.name)

    def mailbox(self, name, capacity=16):
        """Create a mailbox (rt_mbx_init)."""
        box = Mailbox(self, name, capacity)
        self._register(box.name, box)
        self._trace("mbx_init", name=box.name, capacity=capacity)
        return box

    def semaphore(self, name, initial=1):
        """Create a semaphore (rt_sem_init)."""
        sem = Semaphore(self, name, initial)
        self._register(sem.name, sem)
        self._trace("sem_init", name=sem.name, initial=initial)
        return sem

    def resource_semaphore(self, name):
        """Create a priority-inheritance resource semaphore (RES_SEM)."""
        from repro.rtos.sem import ResourceSemaphore
        sem = ResourceSemaphore(self, name)
        self._register(sem.name, sem)
        self._trace("res_sem_init", name=sem.name)
        return sem

    def fifo_create(self, name, capacity, wakeup_model=None):
        """Create an RT->Linux FIFO (rtf_create)."""
        from repro.rtos.fifo import RTFifo
        fifo = RTFifo(self, name, capacity, wakeup_model=wakeup_model)
        self._register(fifo.name, fifo)
        self._trace("fifo_create", name=fifo.name, capacity=capacity)
        return fifo

    def free_object(self, name):
        """Remove a mailbox/semaphore from the registry."""
        obj = self.lookup(name)
        if isinstance(obj, RTTask):
            raise TaskStateError("use delete_task for tasks")
        self._unregister(obj.name)
        self._trace("obj_free", name=obj.name)

    # ==================================================================
    # internals
    # ==================================================================
    # -- periodic release machinery ------------------------------------
    def _arm_release(self, task):
        """Arm the hardware timer for the task's next nominal release."""
        if not self._timer_started:
            return
        nominal = task._next_release
        if self._zero_offset:
            # Null latency model: skip RNG sampling entirely.
            fire = nominal + self._irq_entry
        else:
            offset = self._release_profiles[task.hybrid].draw(
                self._latency_stream(task))
            fire = nominal + offset + self._irq_entry
        floor = self.sim.now + 1
        if fire < floor:
            fire = floor
        task._release_event = self.sim.schedule_interrupt(
            fire, self._on_release, task, nominal,
            label=task._label_release)

    def _latency_stream(self, task):
        """The task's ``latency/<name>`` jitter stream, looked up once."""
        stream = task._latency_stream
        if stream is None:
            stream = task._latency_stream = self.sim.rng.stream(
                "latency/" + task.name)
        return stream

    def _on_release(self, task, nominal):
        """A periodic release interrupt reached the scheduler.

        This is the hottest kernel callback: the bodies of
        ``_arm_release``, ``_make_ready`` and ``_request_resched`` are
        inlined on its fast branch (docs/PERFORMANCE.md); the named
        helpers remain the canonical copies for every other caller.
        """
        task._release_event = None
        state = task.state
        if state in (TaskState.DELETED, TaskState.FAULTED) \
                or not self._timer_started:
            return
        # Chain the next release immediately: the hardware timer keeps
        # ticking regardless of what the task is doing.
        # (inline _arm_release)
        sim = self.sim
        task._next_release = chained = nominal + task.period_ns
        if self._zero_offset:
            fire = chained + self._irq_entry
        else:
            stream = task._latency_stream
            if stream is None:
                stream = self._latency_stream(task)
            fire = chained + self._irq_entry \
                + self._release_profiles[task.hybrid].draw(stream)
        floor = sim._now + 1
        if fire < floor:
            fire = floor
        task._release_event = sim._push(
            fire, PRIORITY_INTERRUPT, self._on_release, (task, chained),
            task._label_release)
        task.stats.activations += 1
        self._tally.releases += 1
        if task._tap is not None:
            task._tap.on_release(nominal)
        if state is TaskState.SUSPENDED:
            # Releases are skipped (not queued) while suspended: on
            # resume the task waits for the next fresh release instead
            # of burning through stale catch-up jobs.
            task.stats.skipped_releases += 1
            self._trace("release_while_suspended", task=task.name)
            return
        if state is TaskState.WAITING_PERIOD:
            task._pending_kind = "period"
            task._pending_nominals.append(nominal)
            task._needs_advance = True
            if self.config.trace_kernel:
                self._trace("release", task=task.name, nominal=nominal)
            # (inline _make_ready + _request_resched)
            task.state = TaskState.READY
            cpu = task.cpu
            scheduler = self._schedulers[cpu]
            scheduler.add(task)
            running = self._running[cpu]
            if running is not None:
                if running.priority == task.priority:
                    self._arm_quantum(running)
                if scheduler.cannot_preempt(task, running):
                    if not self._resched_pending[cpu]:
                        self._reserve_resched(cpu)
                    return
            if not self._resched_pending[cpu]:
                if self._reserved_at == sim._now:
                    self._queue_resched(cpu)
                else:
                    self._resched_pending[cpu] = True
                    sim._push_soon(self._do_resched, (cpu,), "resched")
        else:
            # Task has not finished its previous job yet: overrun.  The
            # pending nominal makes the next WaitPeriod return at once.
            task.stats.overruns += 1
            self._tally.overruns += 1
            task._pending_nominals.append(nominal)
            self._trace("overrun", task=task.name, nominal=nominal)

    # -- ready/dispatch/preemption --------------------------------------
    def _make_ready(self, task):
        task.state = TaskState.READY
        cpu = task.cpu
        scheduler = self._schedulers[cpu]
        scheduler.add(task)
        running = self._running[cpu]
        if running is not None:
            if running.priority == task.priority:
                self._arm_quantum(running)
            if scheduler.cannot_preempt(task, running):
                if not self._resched_pending[cpu]:
                    self._reserve_resched(cpu)
                return
        self._request_resched(cpu)

    def _request_resched(self, cpu):
        """Ask for a rescheduling pass on ``cpu`` at this instant: one
        pending pass per CPU, queued only if its ready set holds a
        task, else reserved (module docstring)."""
        if self._resched_pending[cpu]:
            return
        if self._schedulers[cpu].ready:
            self._queue_resched(cpu)
        else:
            self._reserve_resched(cpu)

    def _reserve_resched(self, cpu):
        """Hold the place of a pass on ``cpu`` that could dispatch
        nothing yet, without queueing an event."""
        now = self.sim._now
        if self._reserved_at != now:
            self._reserved_at = now
            self._reserved = [cpu]
        elif cpu not in self._reserved:
            self._reserved.append(cpu)

    def _queue_resched(self, cpu):
        """Queue the pass on ``cpu`` behind the passes reserved before
        this request."""
        self._queue_reserved()
        if not self._resched_pending[cpu]:
            self._resched_pending[cpu] = True
            self.sim._push_soon(self._do_resched, (cpu,), "resched")

    def _queue_reserved(self):
        """Queue the passes reserved at this instant, in reservation
        order; call before queueing any other late event.  Reservations
        from an earlier instant lapse: those passes would have found
        nothing to do."""
        sim = self.sim
        if self._reserved_at != sim._now:
            return
        self._reserved_at = None
        for cpu in self._reserved:
            if not self._resched_pending[cpu]:
                self._resched_pending[cpu] = True
                sim._push_soon(self._do_resched, (cpu,), "resched")

    def _do_resched(self, cpu):
        """Pick-and-dispatch for one CPU (the coalesced resched event).

        Dispatch is inlined here rather than split into a ``_dispatch``
        helper: this event runs once per job in steady state, and the
        period-resume bookkeeping of ``_consume_pending_value`` is
        folded into the common branch (docs/PERFORMANCE.md).
        """
        self._resched_pending[cpu] = False
        scheduler = self._schedulers[cpu]
        current = self._running[cpu]
        task = scheduler.pick()
        if current is not None:
            if task is None or not scheduler.would_preempt(task, current):
                return
            self._preempt(cpu, current)
        elif task is None:
            return
        scheduler.remove(task)
        task.state = TaskState.RUNNING
        self._running[cpu] = task
        now = self.sim._now
        if self._segment_start[cpu] is None:
            self._segment_start[cpu] = now
        tally = self._tally
        tally.dispatches += 1
        if self._last_ran[cpu] is not task:
            tally.context_switches += 1
            self._last_ran[cpu] = task
        if self.config.trace_kernel:
            self._trace("dispatch", task=task.name, cpu=cpu)
        if task._needs_advance:
            task._needs_advance = False
            # (inline _consume_pending_value)
            if task._pending_kind == "period":
                nominal = task._pending_nominals.popleft()
                task._release_nominal = nominal
                task._pending_kind = None
                value = now + self._dispatch_cost - nominal
                if task.stats.latency is not None:
                    task.stats.latency.add(value)
                self._observe_latency(value)
                if self.config.trace_kernel:
                    self._trace("period_resume", task=task.name,
                                nominal=nominal, latency=value)
            else:
                value = task._pending_value
                task._pending_value = None
            outcome = self._advance(task, value)
            if outcome != "compute":
                return  # the task left the CPU again (blocked/ended)
        elif task._remaining_ns <= 0:
            # Preempted exactly at a compute boundary: the completion
            # event was cancelled, so finish the segment now.
            outcome = self._advance(task, None)
            if outcome != "compute":
                return
        self._begin_compute(cpu, task)

    def _begin_compute(self, cpu, task):
        sim = self.sim
        start = sim._now + self._dispatch_cost
        task._compute_started = start
        task._completion_event = sim._push(
            start + task._remaining_ns, PRIORITY_NORMAL,
            self._on_compute_complete, (task,), task._label_complete)
        if self._rr_enabled:
            self._arm_quantum(task)

    def _arm_quantum(self, task):
        """Arm round-robin rotation if equal-priority peers are ready."""
        scheduler = self._schedulers[task.cpu]
        quantum = getattr(scheduler, "rr_quantum_ns", None)
        if not quantum or task._quantum_event is not None:
            return
        if not scheduler.peers_ready(task):
            return
        task._quantum_event = self.sim.schedule(
            quantum + self.config.dispatch_cost_ns, self._on_quantum, task,
            label=task._label_quantum)

    def _on_quantum(self, task):
        task._quantum_event = None
        if task.state is not TaskState.RUNNING:
            return
        scheduler = self._schedulers[task.cpu]
        if scheduler.peers_ready(task):
            self._preempt(task.cpu, task)
            self._request_resched(task.cpu)
        elif task._remaining_ns > 0 or task._compute_started is not None:
            self._arm_quantum(task)

    def _preempt(self, cpu, task):
        """Take a RUNNING task off the CPU back into the ready queue."""
        self._take_off_cpu(task)
        task.state = TaskState.READY
        task.stats.preemptions += 1
        self._tally.preemptions += 1
        self._schedulers[cpu].add(task)
        if self.config.trace_kernel:
            self._trace("preempt", task=task.name, cpu=cpu)

    def _take_off_cpu(self, task):
        """Account the partial compute segment and free the CPU."""
        cpu = task.cpu
        if self._running[cpu] is not task:
            raise TaskStateError("task %s not running on CPU %d"
                                 % (task.name, cpu))
        if task._completion_event is not None:
            task._completion_event.cancel_if_pending()
            task._completion_event = None
        if task._quantum_event is not None:
            task._quantum_event.cancel_if_pending()
            task._quantum_event = None
        now = self.sim._now
        started = task._compute_started
        if started is not None:
            consumed = now - started
            if consumed < 0:
                consumed = 0
            if consumed > task._remaining_ns:
                consumed = task._remaining_ns
            task._remaining_ns -= consumed
            task.stats.cpu_time_ns += consumed
            task._compute_started = None
        self._running[cpu] = None
        segment_start = self._segment_start[cpu]
        if segment_start is not None:
            self._rt_busy_ns[cpu] += now - segment_start
            self._segment_start[cpu] = None
        if self.config.trace_kernel:
            self._trace("off_cpu", task=task.name, cpu=cpu)

    def _on_compute_complete(self, task):
        """The current Compute segment finished; advance the body."""
        task._completion_event = None
        task.stats.cpu_time_ns += task._remaining_ns
        task._remaining_ns = 0
        task._compute_started = None
        outcome = self._advance(task, None)
        if outcome == "compute":
            self._begin_compute(task.cpu, task)

    # -- generator driving ------------------------------------------------
    def _advance(self, task, value):
        """Feed ``value`` into the task body and process zero-time
        requests until the task computes, parks, or ends.

        Returns ``"compute"`` (task stays on CPU with ``_remaining_ns``
        set), ``"parked"`` or ``"ended"`` (CPU already released).
        """
        while True:
            try:
                request = task._gen.send(value)
            except StopIteration:
                self._end_task_run(task)
                return "ended"
            except Exception as error:  # noqa: BLE001 -- quarantine
                self._fault_task(task, error)
                return "ended"
            value = None
            if isinstance(request, rq.Compute):
                if request.ns == 0:
                    continue
                task._remaining_ns = request.ns
                return "compute"
            if isinstance(request, rq.WaitPeriod):
                if task.task_type is not TaskType.PERIODIC:
                    self._fault_task(task, TaskStateError(
                        "aperiodic task %s called WaitPeriod"
                        % task.name))
                    return "ended"
                done = self._handle_wait_period(task)
                if done is not None:
                    value = done
                    continue
                return "parked"
            if isinstance(request, rq.Sleep):
                self._park(task, None)
                self.sim.schedule(request.ns, self._on_sleep_done, task,
                                  label=task._label_sleep)
                return "parked"
            if isinstance(request, rq.Receive):
                completed, result = request.mailbox._task_receive(
                    task, request.blocking)
                if completed:
                    value = result
                    continue
                self._park(task, request.mailbox, request.timeout_ns)
                return "parked"
            if isinstance(request, rq.Send):
                completed, result = request.mailbox._task_send(
                    task, request.message, request.blocking)
                if completed:
                    value = result
                    continue
                self._park(task, request.mailbox)
                return "parked"
            if isinstance(request, rq.SemWait):
                completed, result = request.semaphore._task_wait(task)
                if completed:
                    value = result
                    continue
                self._park(task, request.semaphore, request.timeout_ns)
                return "parked"
            if isinstance(request, rq.SemSignal):
                request.semaphore.signal()
                continue
            if isinstance(request, rq.SuspendSelf):
                self._release_cpu_if_running(task)
                task._suspend_depth += 1
                task.stats.suspensions += 1
                task._resume_state = "ready"
                task._needs_advance = True
                task._pending_value = None
                task.state = TaskState.SUSPENDED
                self._trace("task_self_suspend", task=task.name)
                self._request_resched(task.cpu)
                return "parked"
            # An unknown request is a programming error in the body;
            # quarantine the task rather than unwinding the simulator.
            self._fault_task(task, TypeError(
                "task %s yielded unknown request %r"
                % (task.name, request)))
            return "ended"

    def _handle_wait_period(self, task):
        """Process a WaitPeriod.  Returns the latency when the task can
        continue immediately (overrun catch-up), else ``None`` after
        parking it."""
        sim = self.sim
        now = sim._now
        # Job-completion bookkeeping for the job that just ended.
        if task._release_nominal is not None:
            task.stats.completions += 1
            if task._tap is not None:
                task._tap.on_complete(task.stats.cpu_time_ns)
            if task.deadline_ns is not None:
                deadline = task._release_nominal + task.deadline_ns
                if now > deadline:
                    task.stats.deadline_misses += 1
                    self._tally.deadline_misses += 1
                    self._trace("deadline_miss", task=task.name,
                                nominal=task._release_nominal,
                                lateness=now - deadline)
        if task._pending_nominals:
            nominal = task._pending_nominals.popleft()
            task._release_nominal = nominal
            latency = now - nominal
            if task.stats.latency is not None:
                task.stats.latency.add(latency)
            self._observe_latency(latency)
            return latency
        if task.state is TaskState.RUNNING:
            self._take_off_cpu(task)
        task.state = TaskState.WAITING_PERIOD
        # (inline _request_resched)
        cpu = task.cpu
        if not self._resched_pending[cpu]:
            if not self._schedulers[cpu].ready:
                self._reserve_resched(cpu)
            elif self._reserved_at == now:
                self._queue_resched(cpu)
            else:
                self._resched_pending[cpu] = True
                sim._push_soon(self._do_resched, (cpu,), "resched")
        return None

    def _release_cpu_if_running(self, task):
        if task.state is TaskState.RUNNING:
            self._take_off_cpu(task)

    def _park(self, task, blocked_on, timeout_ns=None):
        """Block a task on an IPC object (or pure sleep)."""
        self._release_cpu_if_running(task)
        task.state = TaskState.BLOCKED
        task._blocked_on = blocked_on
        if timeout_ns is not None:
            task._timeout_event = self.sim.schedule(
                timeout_ns, self._on_ipc_timeout, task,
                label=task._label_timeout)
        if self.config.trace_kernel:
            self._trace("block", task=task.name,
                        on=getattr(blocked_on, "name", "sleep"))
        self._request_resched(task.cpu)

    def _on_sleep_done(self, task):
        if task.state is TaskState.BLOCKED and task._blocked_on is None:
            self._wake_task(task, None)
        elif task.state is TaskState.SUSPENDED \
                and task._resume_state == "blocked":
            task._deferred_wake = (None,)

    def _on_ipc_timeout(self, task):
        task._timeout_event = None
        if task.state is TaskState.BLOCKED and task._blocked_on is not None:
            obj = task._blocked_on
            obj._forget_waiter(task)
            task._blocked_on = None
            timeout_value = False if isinstance(obj, Semaphore) else None
            self._wake_task(task, timeout_value)

    def _wake_task(self, task, value):
        """Wake a blocked task with ``value`` (IPC completion)."""
        if task.state is TaskState.SUSPENDED:
            # Deliver later: record the wake, drop the block.
            task._deferred_wake = (value,)
            task._blocked_on = None
            task._resume_state = "blocked"
            return
        if task.state is not TaskState.BLOCKED:
            raise TaskStateError("cannot wake task %s in state %s"
                                 % (task.name, task.state.name))
        task._blocked_on = None
        if task._timeout_event is not None:
            task._timeout_event.cancel_if_pending()
            task._timeout_event = None
        task._needs_advance = True
        task._pending_value = value
        if self.config.trace_kernel:
            self._trace("wake", task=task.name)
        self._make_ready(task)

    def _fault_task(self, task, error):
        """A task body raised: quarantine the task.

        The fault must not take the simulation down (one misbehaving
        component must not halt the platform -- the whole point of
        central management).  The task is parked in FAULTED, its events
        cancelled, and the embedder's fault callback scheduled.
        """
        self._release_cpu_if_running(task)
        self._cancel_task_events(task)
        if task._blocked_on is not None:
            task._blocked_on._forget_waiter(task)
            task._blocked_on = None
        task._gen = None
        task.state = TaskState.FAULTED
        task.fault = error
        self._m_faults.inc()
        self._trace("task_fault", task=task.name, error=repr(error))
        if self.on_task_fault is not None:
            self._queue_reserved()
            self.sim.call_soon(self.on_task_fault, task, error,
                               label="fault:%s" % task.name)
        self._request_resched(task.cpu)

    def _end_task_run(self, task):
        """The body generator returned: the run is over."""
        self._release_cpu_if_running(task)
        self._cancel_task_events(task)
        task._gen = None
        task.state = TaskState.DORMANT
        if task._release_nominal is not None:
            task.stats.completions += 1
            if task._tap is not None:
                task._tap.on_complete(task.stats.cpu_time_ns)
            if task.deadline_ns is not None:
                deadline = task._release_nominal + task.deadline_ns
                if self.sim.now > deadline:
                    task.stats.deadline_misses += 1
                    self._tally.deadline_misses += 1
                    self._trace("deadline_miss", task=task.name,
                                nominal=task._release_nominal,
                                lateness=self.sim.now - deadline)
        self._trace("task_end", task=task.name)
        self._request_resched(task.cpu)

    def _cancel_task_events(self, task):
        for attr in ("_completion_event", "_quantum_event",
                     "_timeout_event", "_release_event",
                     "_deferred_release_event"):
            event = getattr(task, attr, None)
            if event is not None:
                event.cancel_if_pending()
                setattr(task, attr, None)
