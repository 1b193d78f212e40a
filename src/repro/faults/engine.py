"""The fault engine: arms a :class:`FaultPlan` against a platform.

One :class:`FaultEngine` owns a chaos experiment: it installs the
plan's recovery machinery (watchdog, quarantine policy), intercepts
container creation and descriptor parsing for the injectors that need
it, schedules every timed injector, and keeps the authoritative record
of what was actually injected.

Observability: every injection lands in the ``faults`` metrics
registry (``injected_total``, ``injected_<kind>_total``,
``skipped_total``, ``overrun_jobs_total``) and as a ``fault_inject``
trace row, so a chaos run reads exactly like any other run in the
Chrome trace and the system report (see ``docs/FAULT_INJECTION.md``).

Determinism: the engine draws from its own
:class:`~repro.sim.rng.RandomStreams` rooted at ``plan.seed`` --
independent of the simulation's master seed -- so the same plan
produces the same fault schedule on any platform.
"""

from repro.faults.injectors import ClusterInjector, make_injector
from repro.faults.plan import FaultPlanError, load_plan
from repro.faults.recovery import QuarantinePolicy
from repro.rtos.watchdog import Watchdog
from repro.sim.rng import RandomStreams


class FaultEngine:
    """Arms and tracks one fault plan on one platform.

    A plan with a federation-scope fault (``node_crash``/``partition``)
    needs ``cluster=``; without one, construction raises
    :class:`~repro.faults.plan.FaultPlanError` before anything touches
    the platform."""

    def __init__(self, platform, plan, cluster=None):
        self.platform = platform
        #: The :class:`~repro.cluster.federation.Cluster` for
        #: federation-scope faults (``node_crash``/``partition``);
        #: ``platform`` is then typically one of its nodes.
        self.cluster = cluster
        self.plan = load_plan(plan)
        self._injectors = [make_injector(spec, index)
                           for index, spec in enumerate(self.plan.faults)]
        for injector in self._injectors:
            if cluster is None and isinstance(injector, ClusterInjector):
                raise FaultPlanError(
                    "%s targets the cluster; build the FaultEngine "
                    "with cluster=..." % injector.spec.kind.value)
        self.sim = platform.sim
        self.kernel = platform.kernel
        self.drcr = platform.drcr
        self.streams = RandomStreams(self.plan.seed)
        #: (time_ns, kind, target, detail-dict) per actual injection.
        self.injections = []
        #: (time_ns, kind, reason) per skipped injection.
        self.skips = []
        self.watchdog = None
        self._armed = False
        self._original_factory = None
        #: Interception point -> the injectors hooked there, plan order.
        self._hooks = {"container": [], "descriptor": []}
        for injector in self._injectors:
            if injector.hook is not None:
                self._hooks[injector.hook].append(injector)
        metrics = platform.telemetry.registry("faults")
        self._metrics = metrics
        self._m_injected = metrics.counter("injected_total")
        self._m_skipped = metrics.counter("skipped_total")
        self._m_overrun_jobs = metrics.counter("overrun_jobs_total")

    # ------------------------------------------------------------------
    # arming
    # ------------------------------------------------------------------
    def arm(self):
        """Install recovery machinery and schedule every injector
        (idempotent).  Returns self for chaining."""
        if self._armed:
            return self
        self._armed = True
        if self.plan.quarantine is not None:
            self.drcr.set_recovery_policy(
                QuarantinePolicy(**self.plan.quarantine))
        if self.plan.watchdog is not None:
            self.watchdog = Watchdog(self.kernel,
                                     **self.plan.watchdog).start()
        if self._hooks["container"]:
            self._original_factory = self.drcr._container_factory
            self.drcr._container_factory = self._intercept_factory
        if self._hooks["descriptor"]:
            self.drcr.descriptor_filter = self._filter_descriptor
        for injector in self._injectors:
            injector.arm(self)
        return self

    def disarm(self):
        """Stop the watchdog and remove the interception points.

        Already-scheduled injector events stay scheduled (the simulator
        has no retraction API for third parties); tests that need a
        clean platform build a fresh one instead.
        """
        if not self._armed:
            return
        self._armed = False
        if self.watchdog is not None:
            self.watchdog.stop()
        if self._original_factory is not None:
            self.drcr._container_factory = self._original_factory
            self._original_factory = None
        # == not is: each attribute read builds a new bound method.
        if self.drcr.descriptor_filter == self._filter_descriptor:
            self.drcr.descriptor_filter = None

    # ------------------------------------------------------------------
    # interception points
    # ------------------------------------------------------------------
    def _intercept_factory(self, component, drcr):
        container = self._original_factory(component, drcr)
        for injector in self._hooks["container"]:
            container = injector.wrap_container(self, component,
                                                container)
        return container

    def _filter_descriptor(self, xml_text, bundle, path):
        for injector in self._hooks["descriptor"]:
            xml_text = injector.filter_descriptor(self, xml_text, bundle,
                                                  path)
        return xml_text

    # ------------------------------------------------------------------
    # accounting (called by injectors)
    # ------------------------------------------------------------------
    def stream_for(self, index):
        """The plan-seeded random stream of injector ``index``."""
        return self.streams.stream("fault/%d" % index)

    def record_injection(self, spec, **detail):
        """Count + trace one actual perturbation."""
        now = self.kernel.now
        self.injections.append((now, spec.kind.value,
                                detail.get("target", spec.target),
                                detail))
        self._m_injected.inc()
        self._metrics.counter(
            "injected_%s_total" % spec.kind.value).inc()
        self.sim.trace.record(now, "fault_inject", kind=spec.kind.value,
                              plan=self.plan.name, **detail)

    def record_skip(self, spec, reason):
        """Count one injection that found no purchase."""
        self.skips.append((self.kernel.now, spec.kind.value, reason))
        self._m_skipped.inc()

    def count_overrun_job(self):
        """Count one job whose compute time was inflated."""
        self._m_overrun_jobs.inc()

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def report(self):
        """Plain-data summary of the experiment so far."""
        return {
            "plan": self.plan.name,
            "seed": self.plan.seed,
            "injections": [
                {"time_ns": time_ns, "kind": kind, "target": target,
                 **detail}
                for time_ns, kind, target, detail in self.injections
            ],
            "skips": [
                {"time_ns": time_ns, "kind": kind, "reason": reason}
                for time_ns, kind, reason in self.skips
            ],
            "watchdog_interventions": (
                len(self.watchdog.interventions)
                if self.watchdog is not None else 0),
        }

    def format_report(self):
        """Human-readable experiment summary (printed by the CLI)."""
        lines = ["fault plan %r (seed %d): %d injected, %d skipped"
                 % (self.plan.name, self.plan.seed,
                    len(self.injections), len(self.skips))]
        for time_ns, kind, target, detail in self.injections:
            extra = ", ".join(
                "%s=%s" % (key, value)
                for key, value in sorted(detail.items())
                if key != "target")
            lines.append("  %12d ns  %-20s %s%s"
                         % (time_ns, kind, target,
                            "  (%s)" % extra if extra else ""))
        if self.watchdog is not None:
            lines.append("  watchdog: %d interventions (policy %s)"
                         % (len(self.watchdog.interventions),
                            self.watchdog.policy))
        return "\n".join(lines)

    def __repr__(self):
        return "FaultEngine(%s, %s, %d injected)" % (
            self.plan.name, "armed" if self._armed else "idle",
            len(self.injections))
