"""The four end-to-end workloads of benchmark E1.

Each workload is a class whose instance is one *episode*: the
constructor is the timed set-up (build the platform, deploy the initial
population), :meth:`Episode.start_load` arms the open-loop generator,
and :meth:`Episode.finish` checks the outputs and returns the samples.

Load is open loop in simulated time.  The benchmark turns ``--seed``
into a timetable of operations before set-up (:meth:`make_inputs`);
every operation is then a simulator event fired at its due time, so
the generator is never late and a slow system cannot thin its own
load.  The program sees only the generated descriptors and the
operations issued against its public API.  Run-time choices that
depend on the live system (which healthy component to migrate) draw
from a seeded stream, so a seed reproduces every decision.

Every workload runs ``WARMUP_NS`` of load before the measured window
and ``DRAIN_NS`` after it; samples come from operations issued inside
the window, and every operation ever issued is checked.
"""

import math
import os
import time
import traceback

from repro.adapt.controller import AdaptationController
from repro.adapt.rules import parse_rule_document
from repro.cluster.federation import Cluster, ClusterError
from repro.cluster.transport import LinkSpec
from repro.core.contracts import DistributionSpec, StochasticContract
from repro.core.descriptor import ComponentDescriptor
from repro.core.events import ComponentEventType
from repro.core.lifecycle import ComponentState
from repro.core.policies import AlwaysAcceptPolicy
from repro.core.ports import PortDirection, PortSpec
from repro.faults.recovery import QuarantinePolicy
from repro.hybrid.container import make_container_factory
from repro.hybrid.implementation import ImplementationRegistry, \
    RTImplementation
from repro.monitor.service import ContractMonitor
from repro.osgi.events import FrameworkEventType
from repro.platform import build_platform
from repro.rtos.kernel import KernelConfig
from repro.rtos.load import apply_stress
from repro.rtos.task import TaskType
from repro.sim.engine import MSEC, SEC, USEC
from repro.sim.rng import RandomStreams
from repro.workloads import generate_component_set, generate_rule_set, \
    uunifast

from tracing import NULL_TRACER

#: Load runs this long before the measured window opens.
WARMUP_NS = 1 * SEC

#: Load stops at the end of the window; the simulator then runs this
#: long so in-flight replies, migrations and failovers complete
#: before the checks.
DRAIN_NS = 300 * MSEC

#: At most this many failure messages are kept for the report.
MAX_FAILURE_NOTES = 20


def stratified_periods(stream, count, lo_ns, hi_ns, quantum_ns=MSEC):
    """Log-uniform periods, one draw per equal-width log stratum.

    The marginal is log-uniform like :func:`repro.workloads
    .log_uniform_periods`, but the population always spans the range
    evenly, so the total release rate -- and with it what a simulated
    second costs -- barely moves from seed to seed.
    """
    log_lo, log_hi = math.log(lo_ns), math.log(hi_ns)
    width = (log_hi - log_lo) / count
    periods = []
    for index in range(count):
        raw = math.exp(log_lo + (index + stream.random()) * width)
        periods.append(max(quantum_ns,
                           int(round(raw / quantum_ns)) * quantum_ns))
    stream.shuffle(periods)
    return periods


def stratified_specs(rng, stream, prefix, count, total_utilization,
                     lo_ns, hi_ns):
    """``(name, frequency_hz, cpu_usage, {})`` specs: UUniFast
    utilizations over :func:`stratified_periods`."""
    utilizations = uunifast(rng, stream + "/u", count, total_utilization)
    periods = stratified_periods(rng.stream(stream + "/p"), count, lo_ns,
                                 hi_ns)
    return [("%s%03d" % (prefix, index), SEC / period, utilization, {})
            for index, (utilization, period)
            in enumerate(zip(utilizations, periods))]


def rate_monotonic(specs, priority_offset=0, cpu=0):
    """Descriptors from specs, rate-monotonic priorities (higher
    frequency first, ties by name) above ``priority_offset``."""
    ranked = sorted(specs, key=lambda spec: (-spec[1], spec[0]))
    return [periodic_descriptor(name, hz, usage, priority_offset + rank,
                                cpu=cpu, **extra)
            for rank, (name, hz, usage, extra) in enumerate(ranked)]


def poisson_offsets(stream, rate_per_s, start_ns, end_ns):
    """Arrival offsets of a Poisson process on ``[start, end)``."""
    offsets = []
    now = start_ns
    while True:
        now += int(stream.expovariate(rate_per_s) * SEC) + 1
        if now >= end_ns:
            return offsets
        offsets.append(now)


def periodic_descriptor(name, frequency_hz, cpu_usage, priority, cpu=0,
                        ports=(), stochastic=None, implementation=None):
    """One periodic component descriptor."""
    return ComponentDescriptor(
        name=name, implementation=implementation or "bench.e2e.%s" % name,
        task_type=TaskType.PERIODIC, description="e2e benchmark",
        cpu_usage=cpu_usage, frequency_hz=frequency_hz,
        priority=priority, cpu=cpu, ports=ports, stochastic=stochastic)


class Episode:
    """Shared machinery: the timetable chain, failure accounting and
    the control-operation timer."""

    name = ""
    #: Measured simulated seconds per requested wall second: sizes the
    #: measured window from ``--seconds`` (calibrated on the reference
    #: machine; a faster program simply finishes early).
    sim_per_wall = 1.0
    #: Length of one ``sim_speed`` slice (a whole number of the
    #: workload's own periods, so slices are alike).
    slice_ns = SEC
    #: The percentile ``reaction_tail_ms`` reports.
    reaction_tail = 99

    def __init__(self, inputs, tracer=NULL_TRACER):
        self.inputs = inputs
        self.tr = tracer
        self.attempted = 0
        self.failed = 0
        self.failure_notes = []
        #: Wall seconds of each control operation in the window.
        self.op_wall = []
        self._timetable = []
        self._cursor = 0
        self.t0 = self.meas0 = self.meas1 = None
        #: Latest an operation fired after its due time (open loop: 0).
        self.max_lag_ns = 0

    # ------------------------------------------------------------------
    def fail(self, message):
        self.failed += 1
        if len(self.failure_notes) < MAX_FAILURE_NOTES:
            self.failure_notes.append("t=%.3fs %s"
                                      % (self.sim.now / SEC, message))

    def in_window(self):
        return self.meas0 <= self.sim.now < self.meas1

    def traced_attributes(self):
        """``(owner, attribute, span name)`` for entry points the
        program itself calls, wrapped during the traced pass."""
        return []

    def timed(self, name, fn, *args):
        """One control operation: traced as ``name`` and, inside the
        window, timed into :attr:`op_wall`."""
        start = time.perf_counter()
        result = self.tr.call(name, fn, *args)
        if self.in_window():
            self.op_wall.append(time.perf_counter() - start)
        return result

    # ------------------------------------------------------------------
    def start_load(self, timetable):
        """Arm the generator.  ``timetable`` holds ``(offset_ns, handler,
        arg)`` entries sorted by offset from now."""
        self.t0 = self.sim.now
        self.meas0 = self.t0 + WARMUP_NS
        self.meas1 = self.meas0 + self.inputs["measured_ns"]
        self._timetable = timetable
        self._cursor = 0
        self._arm()

    def _arm(self):
        if self._cursor < len(self._timetable):
            self.sim.schedule_at(self.t0 + self._timetable[self._cursor][0],
                                 self._fire, label="bench:op")

    def _fire(self):
        if self._cursor >= len(self._timetable):
            return  # the window closed after this event was armed
        offset, handler, arg = self._timetable[self._cursor]
        self.max_lag_ns = max(self.max_lag_ns,
                              self.sim.now - (self.t0 + offset))
        self._cursor += 1
        self.tr.op_id = self._cursor
        try:
            self.tr.call("bench.op", handler, arg)
        except Exception as error:  # noqa: BLE001 -- counted, run goes on
            where = traceback.extract_tb(error.__traceback__)[-1]
            self.fail("%s raised %r at %s:%d"
                      % (handler.__name__, error,
                         os.path.basename(where.filename), where.lineno))
        self.tr.op_id = None
        self._arm()

    def stop_load(self):
        """Drop the rest of the timetable (the window is over)."""
        self._timetable = self._timetable[:self._cursor]

    def on_window_open(self):
        """The measured window opens: note the kernel's counters."""
        self._rtos0 = _rtos_counts(self.sim.telemetry)

    def on_window_close(self):
        """The window closes: deadline misses over releases inside it."""
        misses, releases = _rtos_counts(self.sim.telemetry)
        self.miss_ratio = ((misses - self._rtos0[0])
                           / max(1, releases - self._rtos0[1]))

    def framework_errors(self, framework):
        """Listener errors the framework swallowed (each is a failed
        lifecycle reaction)."""
        return [event for event in framework.framework_events
                if event.event_type is FrameworkEventType.ERROR]


def _rtos_counts(telemetry):
    rtos = telemetry.registry("rtos")
    return (rtos.counter("deadline_misses_total").value,
            rtos.counter("releases_total").value)


# ======================================================================
# steady: Table 1 latency and the section 3.2 command path
# ======================================================================
class Steady(Episode):
    """Two stressed CPUs, 48 HRC components, a management-command
    stream.  Exercises sim, rtos and hybrid; osgi, core, adapt and lint
    sit idle (their bypass workload)."""

    name = "steady"
    why = ("Table 1 latency and the 3.2 command path under stress: "
           "sim, rtos and hybrid carry the load, osgi/core/adapt/lint idle")
    sim_per_wall = 3.0
    slice_ns = 1 * SEC
    CPUS = 2
    PER_CPU = 24
    UTILIZATION = 0.6
    COMMAND_RATE = 500.0
    DRAIN_PERIOD_NS = 10 * MSEC

    @classmethod
    def make_inputs(cls, seed, measured_ns):
        rng = RandomStreams(seed)
        descriptors = []
        for cpu in range(cls.CPUS):
            descriptors += rate_monotonic(stratified_specs(
                rng, "steady/%d" % cpu, "ST%d" % cpu, cls.PER_CPU,
                cls.UTILIZATION, 1 * MSEC, 20 * MSEC), cpu=cpu)
        end = WARMUP_NS + measured_ns
        commands = poisson_offsets(rng.stream("steady/commands"),
                                   cls.COMMAND_RATE, 0, end)
        targets = [d.name for d in descriptors]
        rng.stream("steady/targets").shuffle(targets)
        return {"measured_ns": measured_ns, "seed": seed,
                "descriptors": descriptors, "commands": commands,
                "targets": targets,
                "drains": list(range(cls.DRAIN_PERIOD_NS, end,
                                     cls.DRAIN_PERIOD_NS))}

    def __init__(self, inputs, tracer=NULL_TRACER):
        super().__init__(inputs, tracer)
        platform = build_platform(
            seed=inputs["seed"],
            kernel_config=KernelConfig(num_cpus=self.CPUS,
                                       trace_kernel=False))
        platform.sim.trace.disable()
        platform.start_timer(1 * MSEC)
        apply_stress(platform.kernel)
        self.platform = platform
        self.sim = platform.sim
        drcr = platform.drcr

        def deploy():
            for descriptor in inputs["descriptors"]:
                self.tr.call("core.register", drcr.register_component,
                             descriptor)

        with drcr.batch():
            self.tr.call("core.batch", deploy)
        self.components = [drcr.component(d.name)
                           for d in inputs["descriptors"]]
        self.period_ns = {d.name: d.contract.period_ns
                          for d in inputs["descriptors"]}
        #: command seq -> (sent_at, component, in_window)
        self.pending = {}
        self.rtt = []

    def start(self):
        inputs = self.inputs
        timetable = [(offset, self.send, index)
                     for index, offset in enumerate(inputs["commands"])]
        timetable += [(offset, self.drain, None)
                      for offset in inputs["drains"]]
        timetable.sort(key=lambda entry: entry[0])
        self.start_load(timetable)

    def send(self, index):
        targets = self.inputs["targets"]
        name = targets[index % len(targets)]
        bridge = self.platform.drcr.component(name).container.bridge
        self.attempted += 1
        if index % 2:
            command = self.tr.call("hybrid.send", bridge.set_property,
                                   "gain", index)
        else:
            command = self.tr.call("hybrid.send", bridge.ping)
        if command is None:
            self.fail("command %d to %s dropped at the sender"
                      % (index, name))
            return
        self.pending[command.seq] = (command.sent_at_ns, name,
                                     self.in_window())

    def drain(self, _):
        self.timed("hybrid.drain", self._drain_all)

    def _drain_all(self):
        for component in self.components:
            for reply in component.container.bridge.drain_replies():
                record = self.pending.pop(reply.seq, None)
                if record is not None and record[2]:
                    self.rtt.append(reply.time_ns - reply.sent_at_ns)

    def on_window_open(self):
        super().on_window_open()
        for component in self.components:
            component.container.task.stats.latency.clear()

    def on_window_close(self):
        super().on_window_close()
        self.latency = [value for component in self.components
                        for value in component.container.task.stats.latency]

    def finish(self):
        self._drain_all()
        for component in self.components:
            if component.state is not ComponentState.ACTIVE:
                self.fail("%s ended %s" % (component.name,
                                           component.state.value))
        horizon = self.meas1 + DRAIN_NS
        for seq, (sent_at, name, _) in sorted(self.pending.items()):
            if sent_at + 2 * self.period_ns[name] < horizon:
                self.fail("command #%d to %s never answered" % (seq, name))
        for error in self.framework_errors(self.platform.framework):
            self.fail("framework listener error: %r" % (error.error,))
        return {
            "reaction": self.rtt,
            "catalogue": {
                "release_latency_us": [v / USEC for v in self.latency],
                "deadline_miss_ratio": self.miss_ratio,
                "cmd_rtt_ms": [v / MSEC for v in self.rtt],
            },
        }


# ======================================================================
# churn: section 4.3 dynamicity at fleet scale
# ======================================================================
class Churn(Episode):
    """One CPU, a resident 200-bundle dependency chain, short-lived
    consumer bundles arriving every ~10 ms and a provider restart
    cascade every 250 ms: writes to the OSGi and DRCR registries."""

    name = "churn"
    why = ("4.3 dynamicity at fleet scale: bundle arrivals, departures "
           "and restart cascades write the osgi and core registries")
    sim_per_wall = 2.2
    slice_ns = 1 * SEC
    CHAIN = 200
    ARRIVAL_RATE = 100.0
    LIFETIME_MEAN_S = 0.100
    CASCADE_PERIOD_NS = 250 * MSEC
    RESTART_GAP_NS = 2 * MSEC
    #: Restarts stay in the chain's last this many members, not its
    #: first half: a known DRCR defect, see "Follow-ups" in README.md.
    RESTART_DEPTH = 90
    #: Arrival frequencies, drawn uniformly.
    FREQUENCIES = (100.0, 200.0, 500.0, 1000.0)
    ARRIVAL_USAGE = 0.004

    @classmethod
    def make_inputs(cls, seed, measured_ns):
        rng = RandomStreams(seed)
        chain = generate_component_set(
            rng, "chain", cls.CHAIN, total_utilization=0.3, chained=True,
            min_period_ns=10 * MSEC, max_period_ns=100 * MSEC,
            priority_offset=10)
        end = WARMUP_NS + measured_ns
        stream = rng.stream("churn/arrivals")
        arrivals = []
        for index, offset in enumerate(
                poisson_offsets(stream, cls.ARRIVAL_RATE, 0, end)):
            frequency = stream.choice(cls.FREQUENCIES)
            port = stream.randrange(cls.CHAIN)
            descriptor = periodic_descriptor(
                "T%05d" % index, frequency, cls.ARRIVAL_USAGE,
                1 + cls.FREQUENCIES[::-1].index(frequency),
                ports=[PortSpec("CHP%03d" % port, PortDirection.IN,
                                "RTAI.SHM", "Integer", 2)])
            lifetime = int(stream.expovariate(1.0 / cls.LIFETIME_MEAN_S)
                           * SEC) + 1
            arrivals.append((offset, descriptor, lifetime))
        restarts = rng.stream("churn/restarts")
        cascades = [(offset, restarts.randrange(cls.CHAIN - cls.RESTART_DEPTH,
                                                cls.CHAIN))
                    for offset in range(cls.CASCADE_PERIOD_NS, end,
                                        cls.CASCADE_PERIOD_NS)]
        return {"measured_ns": measured_ns, "seed": seed,
                "chain": [_bundle(d) for d in chain],
                "chain_names": [d.name for d in chain],
                "arrivals": [(offset, _bundle(d), d, lifetime)
                             for offset, d, lifetime in arrivals],
                "cascades": cascades}

    def __init__(self, inputs, tracer=NULL_TRACER):
        super().__init__(inputs, tracer)
        platform = build_platform(
            seed=inputs["seed"],
            kernel_config=KernelConfig(trace_kernel=False))
        platform.sim.trace.disable()
        platform.start_timer(1 * MSEC)
        self.platform = platform
        self.sim = platform.sim
        framework = platform.framework
        self.chain = []
        for headers, resources in inputs["chain"]:
            bundle = self.tr.call("osgi.install", framework.install_bundle,
                                  headers, resources)
            self.tr.call("osgi.start", bundle.start)
            self.chain.append(bundle)
        self.live = {}
        #: Install to first release, and the part of it beyond the one
        #: period ``start_task`` waits by design (timer-grid rounding
        #: plus release latency; alike for every arrival frequency).
        self.first_release = []
        self.first_release_delay = []

    def start(self):
        inputs = self.inputs
        timetable = []
        for index, (offset, _, _, lifetime) in enumerate(inputs["arrivals"]):
            timetable.append((offset, self.arrive, index))
            timetable.append((offset + lifetime, self.depart, index))
        for offset, member in inputs["cascades"]:
            timetable.append((offset, self.cascade_stop, member))
            timetable.append((offset + self.RESTART_GAP_NS,
                              self.cascade_start, member))
        end = WARMUP_NS + inputs["measured_ns"]
        timetable = [entry for entry in timetable if entry[0] < end]
        timetable.sort(key=lambda entry: entry[0])
        self.start_load(timetable)

    def _chain_active(self, port_index):
        drcr = self.platform.drcr
        name = self.inputs["chain_names"][port_index]
        return name in drcr.registry \
            and drcr.component_state(name) is ComponentState.ACTIVE

    def arrive(self, index):
        _, (headers, resources), descriptor, _ = \
            self.inputs["arrivals"][index]
        framework = self.platform.framework
        drcr = self.platform.drcr
        provider_up = self._chain_active(
            int(descriptor.inports[0].name[3:]))
        installed_at = self.sim.now
        self.attempted += 1

        bundle = self.tr.call("osgi.install", framework.install_bundle,
                              headers, resources)
        self.timed("osgi.start", bundle.start)
        self.live[index] = bundle
        if not provider_up:
            return
        if drcr.component_state(descriptor.name) \
                is not ComponentState.ACTIVE:
            self.fail("%s not activated although its provider is active"
                      % descriptor.name)
            return
        if self.in_window():
            task = self.platform.kernel.lookup(descriptor.task_name)
            self.platform.kernel.attach_sample_tap(
                task, _FirstRelease(self, task, installed_at))

    def depart(self, index):
        bundle = self.live.pop(index, None)
        if bundle is None:
            return
        self.attempted += 1
        self.tr.call("osgi.stop", bundle.stop)
        self.tr.call("osgi.uninstall", bundle.uninstall)

    def cascade_stop(self, member):
        self.attempted += 1
        self.tr.call("osgi.stop", self.chain[member].stop)

    def cascade_start(self, member):
        self.attempted += 1
        self.timed("osgi.start", self.chain[member].start)
        drcr = self.platform.drcr
        down = [name for name in self.inputs["chain_names"]
                if drcr.component_state(name) is not ComponentState.ACTIVE]
        if down:
            self.fail("chain not whole after restarting member %d: %d "
                      "members down (first %s)" % (member, len(down),
                                                   down[0]))

    def finish(self):
        for error in self.framework_errors(self.platform.framework):
            self.fail("framework listener error: %r" % (error.error,))
        return {
            "reaction": self.first_release_delay,
            "catalogue": {
                "deadline_miss_ratio": self.miss_ratio,
                "first_release_ms": [v / MSEC for v in self.first_release],
            },
        }


class _FirstRelease:
    """Sample tap stamping a new task's first release, then detaching
    itself (the kernel's public contract-monitoring surface)."""

    __slots__ = ("episode", "task", "installed_at")

    def __init__(self, episode, task, installed_at):
        self.episode = episode
        self.task = task
        self.installed_at = installed_at

    def on_release(self, now_ns):
        elapsed = now_ns - self.installed_at
        self.episode.first_release.append(elapsed)
        self.episode.first_release_delay.append(elapsed - self.task.period_ns)
        self.episode.platform.kernel.detach_sample_tap(self.task, self)

    def on_complete(self, cpu_time_total_ns):
        pass


def _bundle(descriptor):
    """Headers and resources of a one-component bundle."""
    return ({"Bundle-SymbolicName": "e2e.%s" % descriptor.name.lower(),
             "RT-Component": "OSGI-INF/component.xml"},
            {"OSGI-INF/component.xml": descriptor.to_xml()})


# ======================================================================
# spike: the C5 flash crowd with adaptation rules and contract checks
# ======================================================================
class HonestExecution(RTImplementation):
    """Execution time drawn from exactly the declared uniform clause."""

    def __init__(self, stream, lo_ns, hi_ns):
        self._stream = stream
        self._lo = lo_ns
        self._hi = hi_ns

    def compute_ns(self, ctx):
        return int(self._stream.uniform(self._lo, self._hi))


class Spike(Episode):
    """One CPU with admission off: protected base load, honest
    stochastic components under a contract monitor, and a flash crowd
    every simulated second that the C5 miss-rate guard must shed,
    evaluated among 200 guards that never fire."""

    name = "spike"
    why = ("C5 flash crowds shed by the rule engine while the contract "
           "monitor checks honest components: adapt and monitor epochs")
    sim_per_wall = 50.0
    slice_ns = 10 * SEC
    reaction_tail = 90
    BASE_HZ = (100.0, 50.0, 25.0, 10.0)
    WAVE_PERIOD_NS = 1 * SEC
    WAVE_SIZE = 6
    STOCHASTIC = 8
    STOCHASTIC_HZ = 50.0
    EXEC_LO_NS = 20 * USEC
    EXEC_HI_NS = 60 * USEC
    ADAPT_EPOCH_NS = 20 * MSEC
    MONITOR_EPOCH_NS = 1 * SEC
    SILENT_GUARDS = 200
    SHED_DEADLINE_NS = 900 * MSEC
    #: Members still active this long after onset must run without a
    #: deadline miss until the next wave (the rules may rightly leave
    #: members the CPU can carry).
    PROBE_NS = 500 * MSEC

    @classmethod
    def make_inputs(cls, seed, measured_ns):
        rng = RandomStreams(seed)
        # The protected base is the same for every seed, in equal
        # shares: how fast the rules shed a wave then depends on the
        # waves (hundreds per run), not on one seed-specific base set.
        base = [("BAC%03d" % index, hz, 0.55 / len(cls.BASE_HZ), {})
                for index, hz in enumerate(cls.BASE_HZ)]
        honest = [("MON%03d" % index, cls.STOCHASTIC_HZ,
                   cls.EXEC_HI_NS * cls.STOCHASTIC_HZ / SEC,
                   {"implementation": "bench.e2e.honest",
                    "stochastic": StochasticContract(
                        exectime=DistributionSpec(
                            "uniform", min_ns=cls.EXEC_LO_NS,
                            max_ns=cls.EXEC_HI_NS),
                        tolerance=1e-4, min_samples=32)})
                  for index in range(cls.STOCHASTIC)]
        end = WARMUP_NS + measured_ns
        phase = rng.stream("spike/phase")
        waves = []
        for offset in range(cls.WAVE_PERIOD_NS // 2, end,
                            cls.WAVE_PERIOD_NS):
            # Onsets fall at a random phase of the adaptation epoch, so
            # reaction times are not quantized to whole epochs.
            jitter = int(phase.uniform(0, cls.ADAPT_EPOCH_NS))
            waves.append((offset + jitter, rate_monotonic(
                stratified_specs(rng, "spike/wave", "SPC", cls.WAVE_SIZE,
                                 0.9, 2 * MSEC, 50 * MSEC),
                priority_offset=100)))
        # Rate-monotonic over the whole protected set: the base and the
        # monitored components must not starve each other.
        protected = rate_monotonic(base + honest)
        return {"measured_ns": measured_ns, "seed": seed,
                "protected": protected, "waves": waves}

    def __init__(self, inputs, tracer=NULL_TRACER):
        super().__init__(inputs, tracer)
        implementations = ImplementationRegistry()
        platform = build_platform(
            seed=inputs["seed"], internal_policy=AlwaysAcceptPolicy(),
            kernel_config=KernelConfig(trace_kernel=False),
            container_factory=make_container_factory(implementations))
        platform.sim.trace.disable()
        stream = platform.sim.rng.stream("bench/honest-exec")
        implementations.register(
            "bench.e2e.honest",
            lambda: HonestExecution(stream, self.EXEC_LO_NS,
                                    self.EXEC_HI_NS))
        platform.drcr.set_recovery_policy(
            QuarantinePolicy(cooldown_ns=1000 * SEC))
        platform.start_timer(1 * MSEC)
        self.platform = platform
        self.sim = platform.sim
        drcr = platform.drcr
        self.batch_register(inputs["protected"])
        rules = parse_rule_document(generate_rule_set(
            "miss-rate-guard", threshold=0.02, count=2, cooldown_ns=0))
        # The C5b population: guards over the whole parameter alphabet
        # whose predicates can never hold.
        params = ("deadline_miss_rate", "releases", "overruns",
                  "dispatch_latency_p99", "rt_utilization",
                  "active_components")
        rules += parse_rule_document({"rules": [
            {"name": "silent-%03d" % index, "priority": 20 + index,
             "when": {"param": params[index % len(params)], "op": "<",
                      "value": -1.0, "for_epochs": 1 + index % 3},
             "then": [{"action": "reconfigure"}],
             "cooldown_ns": 10 * MSEC}
            for index in range(self.SILENT_GUARDS)]})
        self.controller = AdaptationController(
            platform, epoch_ns=self.ADAPT_EPOCH_NS, rules=rules).start()
        self.monitor = ContractMonitor(
            platform, epoch_ns=self.MONITOR_EPOCH_NS, patience=3)
        self.monitor.start()
        self.protected = sorted(d.name for d in inputs["protected"])
        for name in self.protected:
            if drcr.component_state(name) is not ComponentState.ACTIVE:
                self.fail("protected component %s not admitted" % name)
        #: component name -> sim time it left ACTIVE (current wave)
        self.departed = {}
        self.survivors = {}
        self.wave = None
        self.reaction = []
        drcr.events.listeners.add(self._on_component_event)

    def traced_attributes(self):
        return [(self.controller, "step", "adapt.step")]

    def batch_register(self, descriptors):
        drcr = self.platform.drcr

        def register_all():
            for descriptor in descriptors:
                self.tr.call("core.register", drcr.register_component,
                             descriptor)

        with drcr.batch():
            self.tr.call("core.batch", register_all)

    def batch_unregister(self, names):
        drcr = self.platform.drcr

        def unregister_all():
            for name in names:
                self.tr.call("core.unregister", drcr.unregister_component,
                             name)

        with drcr.batch():
            self.tr.call("core.batch", unregister_all)

    def _on_component_event(self, event):
        if event.event_type is ComponentEventType.DEACTIVATED:
            if event.component in self.protected:
                self.fail("protected component %s deactivated: %s"
                          % (event.component, event.reason))
            elif self.wave is not None:
                self.departed.setdefault(event.component, event.time)

    def start(self):
        timetable = []
        for index, (offset, _) in enumerate(self.inputs["waves"]):
            timetable.append((offset, self.land, index))
            timetable.append((offset + self.PROBE_NS, self.probe, index))
        timetable.sort(key=lambda entry: entry[0])
        self.start_load(timetable)

    def _misses(self, name):
        return self.platform.kernel.lookup(name).stats.deadline_misses

    def probe(self, _):
        """Mid-wave: note the deadline misses of members still active."""
        self.survivors = {name: self._misses(name) for name in self.wave[1]
                          if name not in self.departed}

    def _close_wave(self):
        """Judge the previous wave: the rules shed members until the
        rest run without misses, and finish within the deadline."""
        onset, names, measured = self.wave
        for name, misses in self.survivors.items():
            if name not in self.departed and self._misses(name) != misses:
                self.fail("wave at t=%.3fs: survivor %s still misses "
                          "deadlines" % (onset / SEC, name))
        if not self.departed:
            return
        reaction = max(self.departed.values()) - onset
        if reaction > self.SHED_DEADLINE_NS:
            self.fail("wave at t=%.3fs took %.1f ms to shed"
                      % (onset / SEC, reaction / MSEC))
        if measured:
            self.reaction.append(reaction)

    def land(self, index):
        descriptors = self.inputs["waves"][index][1]
        self.attempted += 1
        previous = []
        if self.wave is not None:
            self._close_wave()
            previous = self.wave[1]

        def replace_wave():
            if previous:
                self.batch_unregister(previous)
            self.batch_register(descriptors)

        self.wave = None
        self.departed = {}
        self.survivors = {}
        self.timed("bench.wave", replace_wave)
        self.wave = (self.sim.now, [d.name for d in descriptors],
                     self.in_window())

    def on_window_open(self):
        super().on_window_open()
        for name in self.protected:
            self.platform.kernel.lookup(name).stats.latency.clear()

    def on_window_close(self):
        super().on_window_close()
        self.latency = [value for name in self.protected
                        for value in self.platform.kernel.lookup(name)
                        .stats.latency]

    def _count(self, subsystem, counter):
        return self.platform.telemetry.registry(subsystem) \
            .counter(counter).value

    def finish(self):
        if self.wave is not None:
            self._close_wave()
        for _ in range(self._count("adapt", "action_errors_total")):
            self.fail("adaptation action error")
        # Only the honest components carry a stochastic clause.
        for _ in range(self._count("contracts", "quarantines_total")):
            self.fail("contract monitor quarantined an honest component")
        for error in self.framework_errors(self.platform.framework):
            self.fail("framework listener error: %r" % (error.error,))
        self.controller.stop()
        self.monitor.stop()
        return {
            "reaction": self.reaction,
            "catalogue": {
                "release_latency_us": [v / USEC for v in self.latency],
                "deadline_miss_ratio": self.miss_ratio,
                "adapt_reaction_ms": [v / MSEC for v in self.reaction],
            },
        }


# ======================================================================
# federation: cluster management plane with the PlanGuard gate
# ======================================================================
class Federation(Episode):
    """Four nodes behind 500 us links: status queries, migrations,
    plan-gated deploys and a crash-plus-join every 3 s.  Exercises
    cluster and lint, and reads the registries (LDAP lookups,
    ``export_plan``) where churn writes them."""

    name = "federation"
    why = ("fleet management plane: remote status queries, migrations, "
           "plan-gated deploys and failovers load cluster and lint")
    sim_per_wall = 3.5
    slice_ns = 3 * SEC
    NODES = 4
    RESIDENTS = 48
    LINK = dict(latency_ns=500 * USEC, jitter_ns=50 * USEC)
    MGMT_RATE = 200.0
    MIGRATE_RATE = 40.0
    #: A resident queried this recently is not migrated: link jitter
    #: can deliver the migration before the query (worst one-way delay
    #: 550 us), a known cluster defect, see "Follow-ups" in README.md.
    QUERY_GUARD_NS = 2 * MSEC
    DEPLOY_PERIOD_NS = 100 * MSEC
    TRANSIENT_LIFETIME_NS = 500 * MSEC
    CRASH_PERIOD_NS = 3 * SEC
    QUIESCE_NS = 50 * MSEC
    JOIN_DELAY_NS = 200 * MSEC

    @classmethod
    def make_inputs(cls, seed, measured_ns):
        rng = RandomStreams(seed)
        residents = rate_monotonic(stratified_specs(
            rng, "federation/residents", "FLC", cls.RESIDENTS, 1.6,
            10 * MSEC, 100 * MSEC))
        end = WARMUP_NS + measured_ns
        transients = []
        for index, offset in enumerate(range(cls.DEPLOY_PERIOD_NS, end,
                                             cls.DEPLOY_PERIOD_NS)):
            transients.append((offset, periodic_descriptor(
                "FT%04d" % index, 50.0, 0.02, 60).to_xml()))
        return {
            "measured_ns": measured_ns, "seed": seed,
            "residents": [(d.name, d.contract.cpu_usage, d.to_xml())
                          for d in residents],
            "mgmt": poisson_offsets(rng.stream("federation/mgmt"),
                                    cls.MGMT_RATE, 0, end),
            "migrations": poisson_offsets(
                rng.stream("federation/migrate"), cls.MIGRATE_RATE, 0,
                end),
            "transients": transients,
            "crashes": list(range(cls.CRASH_PERIOD_NS, end,
                                  cls.CRASH_PERIOD_NS)),
        }

    def __init__(self, inputs, tracer=NULL_TRACER):
        super().__init__(inputs, tracer)
        cluster = Cluster(
            node_names=["node%d" % i for i in range(self.NODES)],
            seed=inputs["seed"], link=LinkSpec(**self.LINK),
            kernel_config_factory=lambda: KernelConfig(trace_kernel=False))
        cluster.sim.trace.disable()
        self.cluster = cluster
        self.sim = cluster.sim
        for _, _, xml in inputs["residents"]:
            self.tr.call("cluster.deploy", cluster.deploy, xml)
        self.tr.call("sim.run", cluster.run_for, 20 * MSEC)
        cluster.install_plan_guard()
        self.usage = {name: usage for name, usage, _ in inputs["residents"]}
        self.residents = sorted(self.usage)
        self.choice = RandomStreams(inputs["seed"]).stream(
            "federation/choices")
        self.victim = None
        self.joined = 0
        self.crashed = []          # (node, crash time, in window)
        self.requests = []         # (request id, component)
        self.queried = {}          # component -> last query sent at
        self.migrations = {}       # migration id -> (component, window)
        self.migrating = {}        # component -> migration id
        self.transients = []       # names deployed, oldest first

    def traced_attributes(self):
        return [(self.cluster, "export_plan", "cluster.export_plan")]

    def start(self):
        inputs = self.inputs
        timetable = [(offset, self.status, None) for offset in inputs["mgmt"]]
        timetable += [(offset, self.migrate, None)
                      for offset in inputs["migrations"]]
        timetable += [(offset, self.rotate, index) for index, (offset, _)
                      in enumerate(inputs["transients"])]
        for offset in inputs["crashes"]:
            timetable.append((offset - self.QUIESCE_NS, self.quiesce, None))
            timetable.append((offset, self.crash, None))
            timetable.append((offset + self.JOIN_DELAY_NS, self.join, None))
        end = WARMUP_NS + inputs["measured_ns"]
        timetable = [entry for entry in timetable if entry[0] < end]
        timetable.sort(key=lambda entry: entry[0])
        self.start_load(timetable)

    # -- target selection ----------------------------------------------
    def _healthy_home(self, name):
        home = self.cluster.deployments.get(name)
        if home is None or home == self.victim:
            return None
        node = self.cluster.nodes[home]
        if not node.alive or self.cluster.membership.is_dead(home):
            return None
        return home

    def _pick_resident(self, exclude=()):
        candidates = [name for name in self.residents
                      if name not in self.migrating and name not in exclude
                      and self._healthy_home(name) is not None]
        return self.choice.choice(candidates) if candidates else None

    def _settle_migrations(self):
        for name, migration_id in list(self.migrating.items()):
            if self.cluster.migration(migration_id)["done"]:
                del self.migrating[name]

    # -- operations ----------------------------------------------------
    def status(self, _):
        name = self._pick_resident()
        if name is None:
            return
        self.attempted += 1
        request = self.tr.call("cluster.manage", self.cluster.manage, name,
                               "get_status")
        self.requests.append((request, name))
        self.queried[name] = self.sim.now

    def migrate(self, _):
        self._settle_migrations()
        horizon = self.sim.now - self.QUERY_GUARD_NS
        name = self._pick_resident(exclude={
            queried for queried, at in self.queried.items() if at > horizon})
        if name is None:
            return
        src = self.cluster.deployments[name]
        dst = self.cluster.placement.choose_node(
            self.usage[name], exclude={src, self.victim})
        self.attempted += 1
        if dst is None:
            self.fail("no migration target for %s" % name)
            return
        migration_id = self.tr.call("cluster.migrate", self.cluster.migrate,
                                    name, dst)
        self.migrating[name] = migration_id
        self.migrations[migration_id] = (name, self.in_window())

    def rotate(self, index):
        """Undeploy the oldest transient past its lifetime, then deploy
        the next one through the plan guard."""
        cluster = self.cluster
        if self.transients and index * self.DEPLOY_PERIOD_NS \
                >= self.TRANSIENT_LIFETIME_NS:
            name = self.transients[0]
            if self._healthy_home(name) is not None:
                self.transients.pop(0)
                self.attempted += 1
                self.tr.call("cluster.undeploy", cluster.undeploy, name)
        xml = self.inputs["transients"][index][1]
        node = None
        if self.victim is not None:
            node = cluster.placement.choose_node_for_group(
                0.02, exclude={self.victim})
        self.attempted += 1
        try:
            self.timed("cluster.deploy", cluster.deploy, xml, node)
        except ClusterError as error:
            self.fail("deploy vetoed: %s" % error)
            return
        self.transients.append("FT%04d" % index)

    def quiesce(self, _):
        """Pick the crash victim (the most loaded node) and stop
        addressing it, so no request is in flight when it dies."""
        alive = self.cluster.alive_nodes()
        self.victim = max(alive, key=lambda node: (
            node.drcr.registry.declared_utilization(0), node.name)).name

    def crash(self, _):
        self.attempted += 1
        self.tr.call("cluster.crash_node", self.cluster.crash_node,
                     self.victim)
        self.crashed.append((self.victim, self.sim.now, self.in_window()))

    def join(self, _):
        self.attempted += 1
        name = "node%d" % (self.NODES + self.joined)
        self.joined += 1
        self.tr.call("cluster.add_node", self.cluster.add_node, name)
        self.victim = None

    def finish(self):
        cluster = self.cluster
        for request, name in self.requests:
            reply = cluster.mgmt_replies.get(request)
            if reply is None:
                self.fail("management request %s to %s unanswered"
                          % (request, name))
            elif not reply["ok"]:
                self.fail("management request %s to %s failed: %s"
                          % (request, name, reply["error"]))
        migration_ns = []
        for migration_id, (name, measured) in self.migrations.items():
            status = cluster.migration(migration_id)
            if status["outcome"] != "restored":
                self.fail("migration %s of %s ended %s"
                          % (migration_id, name, status["outcome"]))
            elif measured:
                migration_ns.append(status["latency_ns"])
        failover_ms = []
        reports = {report["node"]: report for report in cluster.failovers}
        for node, crashed_at, measured in self.crashed:
            report = reports.get(node)
            if report is None:
                self.fail("no failover after %s crashed" % node)
                continue
            if report["unplaced"]:
                self.fail("failover of %s left %s unplaced"
                          % (node, report["unplaced"]))
            if measured:
                failover_ms.append((report["at_ns"] - crashed_at) / MSEC)
        self._check_homes()
        return {
            "reaction": migration_ns,
            "catalogue": {
                "migration_ms": [v / MSEC for v in migration_ns],
                "failover_ms": failover_ms,
            },
        }

    def _check_homes(self):
        """Exactly one live home per component, and it is the one the
        coordinator believes; every resident ends ACTIVE."""
        cluster = self.cluster
        hosts = {}
        for node in cluster.alive_nodes():
            for component in node.drcr.registry.all():
                hosts.setdefault(component.name, []).append(node.name)
        for name, home in sorted(cluster.deployments.items()):
            where = hosts.pop(name, [])
            if where != [home]:
                self.fail("%s homed on %s but hosted on %s"
                          % (name, home, where))
            elif name in self.usage and cluster.nodes[home].drcr \
                    .component_state(name) is not ComponentState.ACTIVE:
                self.fail("resident %s ended %s" % (
                    name, cluster.nodes[home].drcr.component_state(name)
                    .value))
        for name, where in sorted(hosts.items()):
            self.fail("%s hosted on %s but homed nowhere" % (name, where))
        for name in self.residents:
            if name not in cluster.deployments:
                self.fail("resident %s lost" % name)


WORKLOADS = {cls.name: cls for cls in (Steady, Churn, Spike, Federation)}
