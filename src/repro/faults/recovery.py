"""Recovery policies: what the platform *does* about faults.

The paper's adaptivity claim (sections 3, 4.3) is that the DRCR reacts
to run-time failure "without breaking the contracts of already-admitted
components".  This module packages the three recovery behaviours the
fault-injection subsystem exercises:

* :class:`BackoffPolicy` -- capped exponential backoff (+jitter) for
  bridge command retries
  (:meth:`repro.hybrid.bridge.CommandBridge.send_command_reliable`);
* :class:`QuarantinePolicy` -- the DRCR's quarantine/re-admission
  lifecycle: a faulting component goes DISABLED, is automatically
  re-enabled after a cool-down, and is quarantined permanently after
  ``max_failures`` faults;
* :class:`GracefulDegradationService` -- a resolving service that sheds
  the lowest-importance admitted components (largest priority number;
  lower number = higher priority throughout the repo) when a CPU's
  declared utilization exceeds its cap.
"""

from repro.core.placement import fits
from repro.core.resolving import Decision, ResolvingService


class BackoffPolicy:
    """Capped exponential backoff with deterministic jitter.

    ``delay_ns(attempt)`` returns the wait before retry number
    ``attempt`` (1-based: the delay after the first failed try).
    Jitter (a symmetric ``±jitter`` fraction) draws from the stream the
    caller passes, so retry schedules reproduce under a fixed seed.
    """

    def __init__(self, initial_ns=1_000_000, factor=2.0,
                 max_delay_ns=100_000_000, max_attempts=6, jitter=0.1):
        if initial_ns <= 0:
            raise ValueError("initial delay must be positive")
        if factor < 1.0:
            raise ValueError("factor must be >= 1.0")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        self.initial_ns = int(initial_ns)
        self.factor = float(factor)
        self.max_delay_ns = int(max_delay_ns)
        self.max_attempts = int(max_attempts)
        self.jitter = float(jitter)

    def delay_ns(self, attempt, stream=None):
        """Delay before retry ``attempt`` (1-based), jittered if a
        ``random.Random`` stream is given."""
        if attempt < 1:
            raise ValueError("attempt is 1-based, got %r" % (attempt,))
        delay = self.initial_ns * (self.factor ** (attempt - 1))
        delay = min(delay, float(self.max_delay_ns))
        if stream is not None and self.jitter:
            delay *= 1.0 + stream.uniform(-self.jitter, self.jitter)
        return max(1, int(delay))

    def __repr__(self):
        return ("BackoffPolicy(initial=%dns, x%.1f, cap=%dns, "
                "max_attempts=%d)"
                % (self.initial_ns, self.factor, self.max_delay_ns,
                   self.max_attempts))


class QuarantinePolicy:
    """Failure accounting for the DRCR's quarantine lifecycle.

    The DRCR (when given a policy via
    :meth:`~repro.core.drcr.DRCR.set_recovery_policy`) quarantines a
    faulting component to DISABLED, schedules re-enablement after
    ``cooldown_ns``, and stops re-admitting once the component has
    faulted ``max_failures`` times (an operator can still
    ``enableRTComponent`` it manually).
    """

    def __init__(self, cooldown_ns=100_000_000, max_failures=3):
        self.check_config(cooldown_ns, max_failures)
        self.cooldown_ns = int(cooldown_ns)
        self.max_failures = int(max_failures)
        #: component name -> lifetime fault count.
        self.failures = {}

    @staticmethod
    def check_config(cooldown_ns=100_000_000, max_failures=3):
        """Raise ``ValueError`` naming the first constructor argument
        out of range (numbers are assumed; fault plans check types)."""
        if cooldown_ns <= 0:
            raise ValueError("cooldown_ns must be positive, got %r"
                             % (cooldown_ns,))
        if max_failures < 1:
            raise ValueError("max_failures must be >= 1, got %r"
                             % (max_failures,))

    def record_failure(self, name):
        """Count one fault; returns the component's new total."""
        self.failures[name] = self.failures.get(name, 0) + 1
        return self.failures[name]

    def is_permanent(self, name):
        """Whether the component exhausted its re-admission budget."""
        return self.failures.get(name, 0) >= self.max_failures

    def forgive(self, name):
        """Reset one component's fault count (operator pardon)."""
        self.failures.pop(name, None)

    def __repr__(self):
        return "QuarantinePolicy(cooldown=%dns, max_failures=%d)" % (
            self.cooldown_ns, self.max_failures)


def _importance_key(component):
    """Sort key: largest = least important (shed first).

    Lower priority *number* means higher importance, so the
    least-important admitted component is the max of
    ``(priority, name)``; the name tie-break keeps shedding
    deterministic.
    """
    return (component.contract.priority, component.name)


def shed_lowest_priority(drcr, cpu=None):
    """One-shot graceful degradation: disable the least-important
    admitted component (optionally restricted to one CPU).

    Returns the shed component's name, or ``None`` when nothing is
    admitted.  The freed budget is redistributed by the reconfiguration
    ``disable_component`` triggers.
    """
    candidates = [component for component in drcr.registry.active()
                  if cpu is None or component.contract.cpu == cpu]
    if not candidates:
        return None
    victim = max(candidates, key=_importance_key)
    drcr.disable_component(victim.name)
    return victim.name


class GracefulDegradationService(ResolvingService):
    """A resolving service that sheds load instead of thrashing.

    On revalidation it checks the component's CPU: while the declared
    utilization exceeds ``cap``, the least-important admitted
    components (largest priority number, name tie-break) are marked for
    shedding; a component in that shed set loses its admission.
    Admission enforces the same cap (a shed component must not bounce
    straight back in -- the reconfiguration fixpoint would oscillate).

    Register it in OSGi under
    :data:`~repro.core.resolving.RESOLVING_SERVICE_INTERFACE` and lower
    :attr:`cap` at run time (then call ``drcr.reconfigure()``) to
    degrade gracefully.
    """

    name = "graceful-degradation"

    def __init__(self, cap=1.0):
        if cap <= 0:
            raise ValueError("cap must be positive")
        self.cap = float(cap)
        #: Names shed by the most recent revalidation sweep.
        self.shed = []

    def admit(self, candidate, view):
        cpu = candidate.contract.cpu
        total = view.declared_utilization(cpu, include_candidate=True)
        if not fits(total, self.cap):
            return Decision.no(
                "cpu %d would exceed degradation cap %.2f "
                "(%.2f declared)" % (cpu, self.cap, total))
        return Decision.yes("within degradation cap")

    def revalidate(self, component, view):
        cpu = component.contract.cpu
        total = view.declared_utilization(cpu, include_candidate=False)
        if fits(total, self.cap):
            return Decision.yes("cpu %d within budget" % cpu)
        victims = set()
        remaining = sorted((peer for peer in view.registry.active()
                            if peer.contract.cpu == cpu),
                           key=_importance_key)
        while remaining and not fits(total, self.cap):
            victim = remaining.pop()  # least important last
            victims.add(victim.name)
            total -= victim.contract.cpu_usage
        self.shed = sorted(victims)
        if component.name in victims:
            return Decision.no(
                "shed: cpu %d over budget (cap %.2f), lowest-priority "
                "components go first" % (cpu, self.cap))
        return Decision.yes("survives degradation")
