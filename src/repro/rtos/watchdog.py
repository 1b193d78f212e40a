"""The RTAI-style watchdog.

RTAI ships a watchdog module precisely because a runaway hard-RT task
-- one that never yields -- locks the machine: it outranks all of
Linux, so nothing else can intervene.  The watchdog runs conceptually
*above* the task layer and polices continuous CPU occupancy.

This watchdog checks every ``check_period_ns`` whether a task has been
computing without interruption for longer than ``limit_ns``, and then
applies its policy:

* ``"suspend"`` (RTAI's default) -- the offender is suspended and can
  be resumed by management once fixed;
* ``"fault"`` -- the offender is quarantined like a raising body
  (:meth:`~repro.rtos.kernel.RTKernel._fault_task`), which also
  notifies the DRCR's fault handler so the owning component is
  disabled.
"""

from repro.rtos.task import TaskState


class Watchdog:
    """Polices continuous CPU occupancy of RT tasks on one kernel."""

    def __init__(self, kernel, limit_ns, check_period_ns=None,
                 policy="suspend"):
        self.check_config(limit_ns, check_period_ns, policy)
        self.kernel = kernel
        self.limit_ns = int(limit_ns)
        self.check_period_ns = int(check_period_ns or limit_ns // 4
                                    or 1)
        self.policy = policy
        #: (time_ns, task_name, occupancy_ns) per intervention.
        self.interventions = []
        self._event = None
        self._immune = set()
        # Telemetry: interventions must be visible in the metrics path
        # (and hence in system_report), not only in the trace.
        metrics = kernel.sim.telemetry.registry("rtos")
        self._m_interventions = metrics.counter(
            "watchdog_interventions_total")
        self._m_suspends = metrics.counter("watchdog_suspends_total")
        self._m_evictions = metrics.counter("watchdog_evictions_total")

    @staticmethod
    def check_config(limit_ns, check_period_ns=None, policy="suspend"):
        """Raise ``ValueError`` naming the first constructor argument
        out of range (numbers are assumed; fault plans check types)."""
        # Both are whole nanoseconds once truncated: a limit below 1
        # polices every running task each nanosecond, and a period
        # below 1 re-arms the check at the same instant forever.
        if limit_ns < 1:
            raise ValueError("limit_ns must be at least 1, got %r"
                             % (limit_ns,))
        if check_period_ns and check_period_ns < 1:
            raise ValueError("check_period_ns must be at least 1 when "
                             "given, got %r" % (check_period_ns,))
        if policy not in ("suspend", "fault"):
            raise ValueError("policy must be 'suspend' or 'fault', "
                             "got %r" % (policy,))

    # ------------------------------------------------------------------
    def start(self):
        """Arm the watchdog (idempotent)."""
        if self._event is None:
            self._arm()
        return self

    def stop(self):
        """Disarm the watchdog."""
        if self._event is not None:
            self._event.cancel_if_pending()
            self._event = None

    def grant_immunity(self, task_name):
        """Exempt a task (RTAI lets you shield known-long workers)."""
        self._immune.add(task_name.upper())

    # ------------------------------------------------------------------
    def _arm(self):
        self._event = self.kernel.sim.schedule(
            self.check_period_ns, self._check, label="watchdog")

    def _check(self):
        self._event = None
        now = self.kernel.now
        for cpu, task in list(self.kernel._running.items()):
            if task is None or task.name in self._immune:
                continue
            if task.state is not TaskState.RUNNING:
                continue
            started = task._compute_started
            if started is None or started > now:
                continue
            occupancy = now - started
            if occupancy > self.limit_ns:
                self._intervene(task, occupancy)
        self._arm()

    def _intervene(self, task, occupancy):
        self.interventions.append((self.kernel.now, task.name,
                                   occupancy))
        self._m_interventions.inc()
        self.kernel.sim.trace.record(
            self.kernel.now, "watchdog", task=task.name,
            occupancy_ns=occupancy, policy=self.policy)
        if self.policy == "suspend":
            self._m_suspends.inc()
            self.kernel.suspend_task(task)
        else:
            self._m_evictions.inc()
            self.kernel._fault_task(task, RuntimeError(
                "watchdog: task %s occupied the CPU for %d ns "
                "(limit %d ns)" % (task.name, occupancy,
                                   self.limit_ns)))

    def __repr__(self):
        return "Watchdog(limit=%dns, policy=%s, %d interventions)" % (
            self.limit_ns, self.policy, len(self.interventions))
