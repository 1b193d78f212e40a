"""The kernel's per-job path against its unconditional reference.

``RTKernel`` queues a rescheduling pass only when it can dispatch
something, and only reserves the place of one that cannot; it draws
release jitter through a cached (plain, hybrid) profile pair from each
task's own stream.  ``ReferenceKernel`` below keeps the per-job path
that queued a pass on every request and drew each offset through
``LatencyModel.sample_release_offset`` over a freshly summed Linux
demand: ``_on_release``, ``_make_ready``, ``_request_resched`` and
``_handle_wait_period``.  It is kept here, and only here, as the
reference.

On random task sets (one or two CPUs; fixed priority with and without a
round-robin quantum, and EDF; null and calibrated latency, with the
stress suite applied and removed mid-run; bodies that overrun, suspend
themselves, change priorities, block on a mailbox, sleep and fault) the
two kernels must agree on every per-task statistic and latency sample,
every kernel trace record in order, every ``rtos`` metric and every
fault callback, and the kernel may fire no more simulator events than
its reference.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rtos.kernel import KernelConfig, RTKernel
from repro.rtos.latency import LatencyModel, NullLatencyModel
from repro.rtos.load import apply_stress, remove_loads
from repro.rtos.requests import (
    Compute,
    Receive,
    Send,
    Sleep,
    SuspendSelf,
    WaitPeriod,
)
from repro.rtos.task import TaskState, TaskType
from repro.sim.engine import MSEC, USEC, Simulator
from repro.sim.events import PRIORITY_INTERRUPT, PRIORITY_LATE

TICK = 100 * USEC
RUN_NS = 40 * MSEC


class ReferenceKernel(RTKernel):
    """The per-job path that queues a pass on every request."""

    def _on_release(self, task, nominal):
        task._release_event = None
        state = task.state
        if state in (TaskState.DELETED, TaskState.FAULTED) \
                or not self._timer_started:
            return
        sim = self.sim
        task._next_release = chained = nominal + task.period_ns
        if self._zero_offset:
            fire = chained + self._irq_entry
        else:
            demand = min(1.0, sum(load.demand for load in self._loads))
            fire = chained + self._irq_entry \
                + self.config.latency_model.sample_release_offset(
                    sim.rng, task.name, demand, task.hybrid)
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
            task.stats.skipped_releases += 1
            self._trace("release_while_suspended", task=task.name)
            return
        if state is TaskState.WAITING_PERIOD:
            task._pending_kind = "period"
            task._pending_nominals.append(nominal)
            task._needs_advance = True
            if self.config.trace_kernel:
                self._trace("release", task=task.name, nominal=nominal)
            task.state = TaskState.READY
            cpu = task.cpu
            self._schedulers[cpu].add(task)
            running = self._running[cpu]
            if running is not None and running.priority == task.priority:
                self._arm_quantum(running)
            if not self._resched_pending[cpu]:
                self._resched_pending[cpu] = True
                sim._push(sim._now, PRIORITY_LATE, self._do_resched,
                          (cpu,), "resched")
        else:
            task.stats.overruns += 1
            self._tally.overruns += 1
            task._pending_nominals.append(nominal)
            self._trace("overrun", task=task.name, nominal=nominal)

    def _make_ready(self, task):
        task.state = TaskState.READY
        self._schedulers[task.cpu].add(task)
        running = self._running[task.cpu]
        if running is not None and running.priority == task.priority:
            self._arm_quantum(running)
        self._request_resched(task.cpu)

    def _request_resched(self, cpu):
        if self._resched_pending[cpu]:
            return
        self._resched_pending[cpu] = True
        self.sim.call_soon(self._do_resched, cpu, label="resched")

    def _handle_wait_period(self, task):
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
        if task._pending_nominals:
            nominal = task._pending_nominals.popleft()
            task._release_nominal = nominal
            latency = self.sim.now - nominal
            if task.stats.latency is not None:
                task.stats.latency.add(latency)
            self._observe_latency(latency)
            return latency
        if task.state is TaskState.RUNNING:
            self._take_off_cpu(task)
        task.state = TaskState.WAITING_PERIOD
        cpu = task.cpu
        if not self._resched_pending[cpu]:
            self._resched_pending[cpu] = True
            sim = self.sim
            sim._push(sim._now, PRIORITY_LATE, self._do_resched, (cpu,),
                      "resched")
        return None


# ----------------------------------------------------------------------
# random scenarios
# ----------------------------------------------------------------------
#: A job's extra zero-time or blocking steps, after its main compute.
steps = st.one_of(
    st.tuples(st.just("send"), st.booleans()),
    st.tuples(st.just("recv"), st.booleans(),
              st.sampled_from([None, 3 * TICK])),
    st.tuples(st.just("prio"), st.integers(min_value=0, max_value=4),
              st.integers(min_value=0, max_value=2)),
    st.tuples(st.just("suspend_self")),
    st.tuples(st.just("sleep"), st.sampled_from([5, 10, 20])
              .map(lambda ticks: ticks * TICK)),
)

#: Instants on the timer grid, or on a release's IRQ-entry instant.
instants = st.builds(lambda ticks, skew: ticks * TICK + skew,
                     st.integers(min_value=1, max_value=RUN_NS // TICK),
                     st.sampled_from([0, 300]))

externals = st.one_of(
    st.tuples(st.just("suspend"), instants,
              st.integers(min_value=0, max_value=4)),
    st.tuples(st.just("resume"), instants,
              st.integers(min_value=0, max_value=4)),
    st.tuples(st.just("prio"), instants,
              st.integers(min_value=0, max_value=4),
              st.integers(min_value=0, max_value=2)),
)

#: When the stress suite is applied and removed again, if at all.
stress_windows = st.none() | st.lists(instants, min_size=2, max_size=2,
                                      unique=True).map(sorted)

POLICIES = [("priority", None), ("priority", 3 * TICK), ("edf", None)]


def task_specs(zero_costs, priorities, periods, extras, fault_after,
               aperiodic):
    """One task: CPU, priority, period, first-release phase and 1-2
    jobs of (main compute, extra steps), run round-robin.

    Tasks start on a phase of the 500 us grid, and a main compute is a
    multiple of 500 us, shortened by 700 ns when aligned under the
    default costs: a job dispatched at its release then computes from
    700 ns after the grid point (IRQ entry 300 ns, dispatch 700 ns) and
    ends on a later release's instant.  So completions, releases and
    wakes on both CPUs often share an instant.
    """
    skew = 0 if zero_costs else 700
    computes = st.builds(
        lambda ticks, aligned: max(0, ticks * TICK
                                   - (skew if aligned else 0)),
        st.sampled_from([0, 5, 10, 20]),
        st.sampled_from([True, True, False]))
    return st.fixed_dictionaries({
        "cpu": st.integers(min_value=0, max_value=1),
        "priority": st.integers(min_value=0, max_value=priorities - 1),
        "period": st.sampled_from(periods).map(lambda ms: ms * MSEC),
        "phase": st.sampled_from([5, 10, 15, 20]).map(
            lambda ticks: ticks * TICK),
        "deadline": st.sampled_from([None, 5 * TICK]),
        "jobs": st.lists(st.tuples(computes, extras), min_size=1,
                         max_size=2),
        "fault_after": fault_after,
        "aperiodic": aperiodic,
    })


@st.composite
def scenarios(draw):
    """Everything the per-job path meets: one or two CPUs, every
    policy, null and calibrated latency with the stress suite coming
    and going, and bodies that overrun, block, sleep, suspend
    themselves, change priorities and fault."""
    zero_costs = draw(st.booleans())
    tasks = task_specs(
        zero_costs, priorities=3, periods=[1, 2, 2, 4],
        extras=st.just(()) | st.lists(steps, min_size=1, max_size=2),
        fault_after=st.sampled_from([None, None, None])
        | st.integers(min_value=5, max_value=30),
        aperiodic=st.integers(min_value=0, max_value=7).map(
            lambda draw: draw == 0))
    return {
        "cpus": draw(st.sampled_from([1, 2, 2])),
        "policy": draw(st.sampled_from(POLICIES)),
        "calibrated": draw(st.booleans()),
        "zero_costs": zero_costs,
        "tasks": draw(st.lists(tasks, min_size=3, max_size=5)),
        "externals": draw(st.lists(externals, max_size=4)),
        "stress": draw(stress_windows),
    }


@st.composite
def coincident_scenarios(draw):
    """Two CPUs, null latency, plain periodic jobs: the instants where
    one CPU's reserved pass and the other CPU's queued pass meet."""
    zero_costs = draw(st.booleans())
    tasks = task_specs(zero_costs, priorities=2, periods=[1, 2],
                       extras=st.just(()), fault_after=st.none(),
                       aperiodic=st.just(False))
    return {
        "cpus": 2,
        "policy": draw(st.sampled_from(POLICIES)),
        "calibrated": False,
        "zero_costs": zero_costs,
        "tasks": draw(st.lists(tasks, min_size=3, max_size=5)),
        "externals": [],
        "stress": None,
    }


def make_body(spec, mailbox, peers, kernel):
    """A task body that runs ``spec["jobs"]`` round-robin, one main
    compute and a list of extra steps per job, and raises after
    ``fault_after`` jobs."""
    def body(task):
        job = 0
        while True:
            if task.is_periodic:
                yield WaitPeriod()
            if spec["fault_after"] is not None \
                    and job >= spec["fault_after"]:
                raise RuntimeError("fault in %s" % task.name)
            compute, extra = spec["jobs"][job % len(spec["jobs"])]
            if compute:
                yield Compute(compute)
            for step in extra:
                kind = step[0]
                if kind == "send":
                    yield Send(mailbox, (task.name, job),
                               blocking=step[1])
                elif kind == "recv":
                    yield Receive(mailbox, blocking=step[1],
                                  timeout_ns=step[2])
                elif kind == "prio":
                    target = peers[step[1] % len(peers)]
                    if target.state is not TaskState.DELETED:
                        kernel.set_task_priority(target, step[2])
                elif kind == "suspend_self":
                    yield SuspendSelf()
                else:
                    yield Sleep(step[1])
            job += 1
            if not task.is_periodic:
                yield Compute(TICK)
    return body


def run(kernel_class, scenario):
    """Run one scenario; return what both kernels must agree on, and
    the number of simulator events fired."""
    sim = Simulator(seed=5)
    costs = {}
    if scenario["zero_costs"]:
        costs = {"irq_entry_ns": 0, "scheduler_overhead_ns": 0,
                 "context_switch_ns": 0}
    policy, quantum = scenario["policy"]
    kernel = kernel_class(sim, KernelConfig(
        num_cpus=scenario["cpus"], scheduler_policy=policy,
        rr_quantum_ns=quantum,
        latency_model=LatencyModel() if scenario["calibrated"]
        else NullLatencyModel(),
        **costs))
    # The fault callback is a late event: its trace record pins its
    # place among the instant's rescheduling passes.
    kernel.on_task_fault = lambda task, error: sim.trace.record(
        sim.now, "fault_callback", task=task.name, error=str(error))
    kernel.start_timer(TICK)
    mailbox = kernel.mailbox("MBX000", capacity=2)
    peers = []
    for index, spec in enumerate(scenario["tasks"]):
        aperiodic = spec["aperiodic"] and index > 0
        peers.append(kernel.create_task(
            "T%05d" % index, make_body(spec, mailbox, peers, kernel),
            spec["priority"], cpu=spec["cpu"] % scenario["cpus"],
            task_type=TaskType.APERIODIC if aperiodic
            else TaskType.PERIODIC,
            period_ns=None if aperiodic else spec["period"],
            deadline_ns=None if aperiodic else spec["deadline"],
            collect_latency=True, hybrid=index % 2 == 1))
    for task, spec in zip(peers, scenario["tasks"]):
        kernel.start_task(task, start_at=spec["phase"])
    if scenario["stress"] is not None:
        loads = []
        stress_on, stress_off = scenario["stress"]
        sim.schedule_at(stress_on,
                        lambda: loads.extend(apply_stress(kernel)))
        sim.schedule_at(stress_off, lambda: remove_loads(kernel, loads))

    def external(op):
        kind = op[0]
        task = peers[op[2] % len(peers)]
        if kind == "suspend":
            if task.state is not TaskState.DELETED:
                kernel.suspend_task(task)
        elif kind == "resume":
            if task.suspended:
                kernel.resume_task(task)
        else:
            kernel.set_task_priority(task, op[3])

    for op in scenario["externals"]:
        sim.schedule_at(op[1], external, op)
    sim.run_for(RUN_NS)
    outcome = {
        "tasks": [(task.name, task.state, task.priority,
                   task.stats.as_dict(), task.stats.latency.values)
                  for task in peers],
        "trace": [(record.time, record.category, record.fields)
                  for record in sim.trace],
        "rtos": sim.telemetry.registry("rtos").as_dict(),
        "busy": [kernel.rt_busy_ns(cpu) for cpu in range(scenario["cpus"])],
        "mailbox": (mailbox.sent_count, mailbox.received_count,
                    mailbox.dropped_count, len(mailbox)),
    }
    return outcome, sim.processed_events


def assert_agrees(scenario):
    reference, reference_events = run(ReferenceKernel, scenario)
    outcome, events = run(RTKernel, scenario)
    assert outcome["tasks"] == reference["tasks"]
    assert outcome["trace"] == reference["trace"]
    assert outcome["rtos"] == reference["rtos"]
    assert outcome["busy"] == reference["busy"]
    assert outcome["mailbox"] == reference["mailbox"]
    assert events <= reference_events


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_the_kernel_agrees_with_its_reference(scenario):
    assert_agrees(scenario)


@settings(max_examples=300, deadline=None)
@given(coincident_scenarios())
def test_passes_keep_their_place_when_instants_coincide(scenario):
    assert_agrees(scenario)


# ----------------------------------------------------------------------
# directed cases
# ----------------------------------------------------------------------
def periodic(kernel, name, priority, period, computes, cpu=0,
             deadline=None, start_at=None, before=None, fault_in=None):
    """A periodic task whose n-th job computes ``computes[n]`` (the
    last entry repeats), after yielding ``before(job)``'s requests;
    job ``fault_in`` raises when its compute ends."""
    def body(task):
        job = 0
        while True:
            yield WaitPeriod()
            if before is not None:
                yield from before(job)
            compute = computes[min(job, len(computes) - 1)]
            if compute:
                yield Compute(compute)
            if job == fault_in:
                raise RuntimeError("%s faults" % name)
            job += 1
    task = kernel.create_task(name, body, priority, cpu=cpu,
                              period_ns=period, deadline_ns=deadline)
    kernel.start_task(task, start_at=start_at)
    return task


def edf_catch_up(kernel_class):
    sim = Simulator(seed=1)
    kernel = kernel_class(sim, KernelConfig(
        scheduler_policy="edf", latency_model=NullLatencyModel()))
    kernel.start_timer(TICK)
    # RRR's first job ends at 35,000,300 ns, past two releases: its
    # WaitPeriod takes two catch-up jobs at once, the second of which
    # moves its deadline from 30 ms to 40 ms while it stays on the CPU.
    rrr = periodic(kernel, "RRR", 0, 10 * MSEC,
                   [24_999_300, 0, 5 * MSEC, 1 * MSEC])
    ttt = periodic(kernel, "TTT", 0, 35 * MSEC, [500 * USEC],
                   deadline=2 * MSEC)
    sim.run_for(100 * MSEC)
    return rrr, ttt, sim.processed_events


def test_an_edf_catch_up_that_moves_the_deadline_key_still_preempts():
    # TTT (deadline 37 ms) is released at 35,000,300 ns, the instant
    # RRR takes its catch-up jobs: at the release RRR's key is 20 ms,
    # after the second catch-up it is 40 ms, and nothing but the pass
    # TTT's release queued lets TTT preempt.
    rrr, ttt, events = edf_catch_up(RTKernel)
    ref_rrr, ref_ttt, ref_events = edf_catch_up(ReferenceKernel)
    assert ttt.stats.activations >= 2
    assert ttt.stats.deadline_misses == 0
    assert rrr.stats.preemptions >= 1
    assert (rrr.stats.as_dict(), ttt.stats.as_dict()) \
        == (ref_rrr.stats.as_dict(), ref_ttt.stats.as_dict())
    assert events <= ref_events


def coinciding_passes(kernel_class, busy_cpu1):
    """At 1,000,300 ns and every millisecond after, AAA (CPU 0) is
    released under the running CCC and DDD (CPU 1) under the running
    EEE or onto an idle CPU; then CCC's job ends, and AAA's send wakes
    WWW, which outranks DDD on CPU 1.  CCC's second job raises as it
    ends, at 2,000,300 ns.
    """
    sim = Simulator(seed=1)
    kernel = kernel_class(sim, KernelConfig(
        num_cpus=2, latency_model=NullLatencyModel()))
    kernel.on_task_fault = lambda task, error: sim.trace.record(
        sim.now, "fault_callback", task=task.name)
    kernel.start_timer(TICK)
    mailbox = kernel.mailbox("MBX000")

    def send(job):
        yield Send(mailbox, job, blocking=False)

    aaa = periodic(kernel, "AAA", 5, 1 * MSEC, [10 * USEC],
                   start_at=1 * MSEC, before=send)
    ddd = periodic(kernel, "DDD", 5, 1 * MSEC, [20 * USEC], cpu=1,
                   start_at=1 * MSEC)
    tasks = [aaa, ddd]
    tasks.append(periodic(kernel, "CCC", 1, 1 * MSEC, [499_300],
                          start_at=500 * USEC, fault_in=1))
    if busy_cpu1:
        tasks.append(periodic(kernel, "EEE", 1, 1 * MSEC, [499_300],
                              cpu=1, start_at=500 * USEC))

    def receiver(task):
        while True:
            yield Receive(mailbox, blocking=True)
            yield Compute(5 * USEC)

    www = kernel.create_task("WWW", receiver, 1, cpu=1,
                             task_type=TaskType.APERIODIC)
    kernel.start_task(www)
    tasks.append(www)
    sim.run_for(3 * MSEC)
    trace = [(record.time, record.category, record.fields)
             for record in sim.trace]
    return ([task.stats.as_dict() for task in tasks], trace,
            sim.processed_events)


@pytest.mark.parametrize("busy_cpu1", [False, True])
def test_reserved_passes_keep_their_places(busy_cpu1):
    # CPU 0's pass keeps the place AAA's release reserved: ahead of
    # CPU 1's pass, whether DDD's release queued that (idle CPU 1) or
    # reserved it after AAA's (busy CPU 1), and ahead of the callback
    # for CCC's fault.  So WWW is woken before CPU 1 dispatches, and
    # DDD is never preempted.
    stats, trace, events = coinciding_passes(RTKernel, busy_cpu1)
    ref_stats, ref_trace, ref_events = coinciding_passes(
        ReferenceKernel, busy_cpu1)
    assert stats[1]["preemptions"] == 0  # DDD
    assert stats[2]["completions"] == 1  # CCC faulted in its 2nd job
    assert (2_000_300, "fault_callback", {"task": "CCC"}) in trace
    assert (stats, trace) == (ref_stats, ref_trace)
    assert events < ref_events
