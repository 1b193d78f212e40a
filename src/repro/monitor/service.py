"""The runtime stochastic-contract monitor.

:class:`ContractMonitor` closes the loop the ``<stochastic>``
descriptor clause opens: each sim-time epoch it drains per-task sample
taps (inter-release deltas and per-job execution times, attached
through the kernel's public ``attach_sample_tap`` surface), runs the
bucketed chi-square test of :mod:`repro.monitor.gof` against the
declared distributions, and publishes ``contracts.*`` telemetry
(checks/violations counters and per-component p-value gauges).

Layering rule (docs/ARCHITECTURE.md): the monitor only *reads*
telemetry and task statistics; when a contract is violated it acts
exclusively through public surfaces -- ``kernel.inject_fault`` routes
the component into DRCR's quarantine under the installed
:class:`~repro.faults.recovery.QuarantinePolicy`, and
:class:`StochasticContextProvider` exports ``stochastic_violations``
context parameters so adaptation rules can shed or migrate.  It never
deletes tasks or mutates registries directly.
"""

from repro.adapt.context import ContextProvider, scoped
from repro.core.contracts import DEFAULT_MONITOR_EPOCH_NS
from repro.core.errors import DRComError
from repro.monitor.gof import chi_square_gof, equal_probability_edges

#: Per-clause samples kept per epoch; the monitor is a statistical
#: check, not a trace recorder, so the window is bounded.
MAX_SAMPLES_PER_EPOCH = 4096

#: Equal-probability cells per chi-square test.
BUCKETS = 8


class StochasticViolation(DRComError):
    """A component's observed timing rejected its declared
    distribution.  Raised *into* the offending task via
    ``kernel.inject_fault`` so the standard quarantine path runs."""


class _SampleTap:
    """Kernel-facing sample sink for one task (see
    ``RTKernel.attach_sample_tap``).  Inter-arrival anchors survive
    epoch drains; sample lists are epoch-windowed."""

    __slots__ = ("interarrival", "exectime", "_last_release", "_last_cpu")

    def __init__(self, cpu_time_ns=0):
        self.interarrival = []
        self.exectime = []
        self._last_release = None
        self._last_cpu = cpu_time_ns

    def on_release(self, now_ns):
        last = self._last_release
        self._last_release = now_ns
        if last is not None \
                and len(self.interarrival) < MAX_SAMPLES_PER_EPOCH:
            self.interarrival.append(now_ns - last)

    def on_complete(self, cpu_time_total_ns):
        last = self._last_cpu
        self._last_cpu = cpu_time_total_ns
        if len(self.exectime) < MAX_SAMPLES_PER_EPOCH:
            self.exectime.append(cpu_time_total_ns - last)

    def drain(self):
        interarrival, exectime = self.interarrival, self.exectime
        self.interarrival = []
        self.exectime = []
        return interarrival, exectime


class _Probe:
    """Monitor-side state for one monitored component."""

    __slots__ = ("name", "task", "stochastic", "tap", "edges",
                 "strikes", "gauges")

    def __init__(self, name, task, stochastic, tap, edges, gauges):
        self.name = name
        self.task = task
        self.stochastic = stochastic
        self.tap = tap
        #: clause name -> equal-probability bucket edges
        self.edges = edges
        #: clause name -> consecutive failed checks
        self.strikes = {clause: 0 for clause in edges}
        #: clause name -> p-value gauge
        self.gauges = gauges


class ContractMonitor:
    """Online distribution checking for ``<stochastic>`` contracts.

    Parameters
    ----------
    platform:
        The :class:`~repro.platform.Platform` whose DRCR-managed
        components are checked.
    epoch_ns:
        Sim-time between check rounds.
    patience:
        Consecutive failed checks (p-value below the contract's
        tolerance) before a violation is declared.  ``1`` reacts
        fastest; the default ``2`` rides out one unlucky epoch.
    quarantine:
        When True (default), a violation faults the task through
        ``kernel.inject_fault`` so DRCR quarantines the component
        under its recovery policy.  When False the monitor only
        counts/exports (observe-only mode).
    """

    def __init__(self, platform, *, epoch_ns=DEFAULT_MONITOR_EPOCH_NS,
                 patience=2, quarantine=True):
        self.drcr = platform.drcr
        self.kernel = platform.kernel
        self.sim = platform.sim
        self.epoch_ns = int(epoch_ns)
        if self.epoch_ns <= 0:
            raise ValueError("epoch_ns must be positive")
        self.patience = max(1, int(patience))
        self.quarantine = bool(quarantine)
        self._metrics = self.sim.telemetry.registry("contracts")
        self._m_checks = self._metrics.counter("checks_total")
        self._m_violations = self._metrics.counter("violations_total")
        self._m_quarantines = self._metrics.counter("quarantines_total")
        self._m_monitored = self._metrics.gauge("monitored_components")
        self._probes = {}
        self._epoch_event = None
        self._running = False
        #: Violations declared in the last completed epoch.
        self.last_epoch_violations = 0
        #: Checks evaluated in the last completed epoch.
        self.last_epoch_checks = 0
        #: Total violations since start().
        self.total_violations = 0
        #: ``(time_ns, component, clause, p_value)`` records.
        self.violations = []

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self):
        """Attach taps to monitored components and begin epochs."""
        if self._running:
            return
        self._running = True
        self._refresh_probes()
        self._epoch_event = self.sim.schedule(
            self.epoch_ns, self._on_epoch, label="contracts:epoch")

    def stop(self):
        """Cancel the epoch loop and detach every tap."""
        if not self._running:
            return
        self._running = False
        if self._epoch_event is not None:
            self._epoch_event.cancel_if_pending()
            self._epoch_event = None
        for probe in self._probes.values():
            self._detach(probe)
        self._probes.clear()
        self._m_monitored.set(0)

    @property
    def monitored(self):
        """Names of the components currently under monitoring."""
        return sorted(self._probes)

    # ------------------------------------------------------------------
    # probe management
    # ------------------------------------------------------------------
    def _detach(self, probe):
        self.kernel.detach_sample_tap(probe.task, probe.tap)

    def _task_for(self, component):
        name = component.descriptor.task_name
        if not self.kernel.exists(name):
            return None
        return self.kernel.lookup(name)

    def _refresh_probes(self):
        """Reconcile probes with the registry: attach newly ACTIVE
        stochastic components, drop departed/re-created ones."""
        wanted = {}
        for component in self.drcr.registry.all():
            if not component.is_active:
                continue
            if component.contract.stochastic is None:
                continue
            wanted[component.name] = component
        for name in list(self._probes):
            probe = self._probes[name]
            component = wanted.get(name)
            task = self._task_for(component) \
                if component is not None else None
            if task is not probe.task:
                # Quarantined, disposed, or re-admitted with a fresh
                # task: drop the probe (a new one attaches below).
                self._detach(probe)
                del self._probes[name]
        for name, component in wanted.items():
            if name in self._probes:
                continue
            task = self._task_for(component)
            if task is None:
                continue
            stochastic = component.contract.stochastic
            edges = {}
            gauges = {}
            for clause, spec in stochastic.clauses():
                if clause == "interarrival" and task.is_periodic:
                    # Periodic releases ride the timer grid; the
                    # declared arrival distribution is meaningless
                    # (drtlint flags it as DRT700).
                    continue
                edges[clause] = equal_probability_edges(spec, BUCKETS)
                gauges[clause] = self._metrics.gauge(
                    "p_value.%s.%s" % (name, clause))
            if not edges:
                continue
            tap = _SampleTap(cpu_time_ns=task.stats.cpu_time_ns)
            self.kernel.attach_sample_tap(task, tap)
            self._probes[name] = _Probe(
                name, task, stochastic, tap, edges, gauges)
        self._m_monitored.set(len(self._probes))

    # ------------------------------------------------------------------
    # the epoch check
    # ------------------------------------------------------------------
    def _on_epoch(self):
        self._epoch_event = None
        if not self._running:
            return
        checks = violations = 0
        for probe in list(self._probes.values()):
            interarrival, exectime = probe.tap.drain()
            samples = {"interarrival": interarrival,
                       "exectime": exectime}
            stochastic = probe.stochastic
            for clause, edges in probe.edges.items():
                observed = samples[clause]
                if len(observed) < stochastic.min_samples:
                    continue
                _, _, p_value = chi_square_gof(observed, edges)
                checks += 1
                self._m_checks.inc()
                probe.gauges[clause].set(p_value)
                if p_value < stochastic.tolerance:
                    probe.strikes[clause] += 1
                else:
                    probe.strikes[clause] = 0
                if probe.strikes[clause] >= self.patience:
                    violations += 1
                    self._violate(probe, clause, p_value)
                    break  # the task is gone; skip its other clause
        self.last_epoch_checks = checks
        self.last_epoch_violations = violations
        self._refresh_probes()
        if self._running:
            self._epoch_event = self.sim.schedule(
                self.epoch_ns, self._on_epoch, label="contracts:epoch")

    def _violate(self, probe, clause, p_value):
        self._m_violations.inc()
        self.total_violations += 1
        self.violations.append(
            (self.sim.now, probe.name, clause, p_value))
        self.sim.trace.record(
            self.sim.now, "stochastic_violation", component=probe.name,
            clause=clause, p_value=p_value)
        if not self.quarantine:
            return
        error = StochasticViolation(
            "component %s: observed %s distribution rejected the "
            "declared contract (p=%.3g < tolerance %.3g)"
            % (probe.name, clause, p_value, probe.stochastic.tolerance))
        self._m_quarantines.inc()
        # Public fault surface: DRCR's on_task_fault fires and the
        # installed QuarantinePolicy decides cooldown/permanence.
        self.kernel.inject_fault(probe.task, error)
        self._detach(probe)
        self._probes.pop(probe.name, None)
        self._m_monitored.set(len(self._probes))


class StochasticContextProvider(ContextProvider):
    """Exports the monitor's findings to the adaptation engine.

    Publishes ``stochastic_violations`` / ``stochastic_checks`` for
    the last completed monitor epoch; with ``node`` given,
    ``stochastic_violations`` is also published node-scoped as
    ``stochastic_violations@<node>`` so rules can target the member
    running the misbehaving component.
    """

    def __init__(self, monitor, node=None):
        self._monitor = monitor
        self._node = node

    def collect(self, now_ns):
        monitor = self._monitor
        context = {
            "stochastic_violations": float(
                monitor.last_epoch_violations),
            "stochastic_checks": float(monitor.last_epoch_checks),
        }
        if self._node is not None:
            context[scoped("stochastic_violations", self._node)] = \
                float(monitor.last_epoch_violations)
        return context
