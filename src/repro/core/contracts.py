"""Real-time contracts.

A contract is the machine-checkable core of a DRCom descriptor: the
task's type, priority, CPU claim, rate and placement.  DRCR's global
view (paper section 2.2) is a view over these contracts, and admission
policies decide whether a new contract fits next to the already-admitted
ones.

Beyond the paper's point estimates, a contract may carry an optional
:class:`StochasticContract` -- the descriptor's ``<stochastic>`` clause
declaring the *distributions* of inter-arrival and execution times
(Nandi et al.'s stochastic contracts; Beugnard's "level 4" QoS tier).
The runtime :mod:`repro.monitor` checks these declarations online.
"""

import math
import sys

from repro.core.errors import ContractError
from repro.rtos.task import TaskType

_NS_PER_SEC = 1_000_000_000

#: Default sim-time epoch (ns) on which the runtime contract monitor
#: evaluates goodness-of-fit checks.  Lives here (not in
#: :mod:`repro.monitor`) so the static verifier can reason about
#: sample-rate feasibility without importing the runtime layer.
DEFAULT_MONITOR_EPOCH_NS = 1_000_000_000


class DistributionSpec:
    """One declared distribution (family + parameters, all in ns).

    Families:

    ``exponential``
        ``mean_ns`` > 0.
    ``uniform``
        ``min_ns`` >= 0, ``max_ns`` > ``min_ns``.
    ``normal``
        ``mean_ns`` > 0, ``std_ns`` > 0.
    """

    __slots__ = ("family", "mean_ns", "min_ns", "max_ns", "std_ns")

    FAMILIES = ("exponential", "uniform", "normal")

    def __init__(self, family, mean_ns=None, min_ns=None, max_ns=None,
                 std_ns=None):
        if family not in self.FAMILIES:
            raise ContractError(
                "unknown distribution family %r (supported: %s)"
                % (family, ", ".join(self.FAMILIES)))
        self.family = family
        self.mean_ns = None if mean_ns is None else float(mean_ns)
        self.min_ns = None if min_ns is None else float(min_ns)
        self.max_ns = None if max_ns is None else float(max_ns)
        self.std_ns = None if std_ns is None else float(std_ns)
        if family == "exponential":
            if self.mean_ns is None or self.mean_ns <= 0:
                raise ContractError(
                    "exponential distribution needs mean_ns > 0, got %r"
                    % (mean_ns,))
        elif family == "uniform":
            if self.min_ns is None or self.max_ns is None \
                    or self.min_ns < 0 or self.max_ns <= self.min_ns:
                raise ContractError(
                    "uniform distribution needs 0 <= min_ns < max_ns, "
                    "got min_ns=%r max_ns=%r" % (min_ns, max_ns))
        else:  # normal
            if self.mean_ns is None or self.mean_ns <= 0 \
                    or self.std_ns is None or self.std_ns <= 0:
                raise ContractError(
                    "normal distribution needs mean_ns > 0 and "
                    "std_ns > 0, got mean_ns=%r std_ns=%r"
                    % (mean_ns, std_ns))
        for key, value in self.as_dict().items():
            if key != "family" and not math.isfinite(value):
                raise ContractError(
                    "%s distribution needs finite parameters, got %s=%r"
                    % (family, key, value))

    @property
    def mean(self):
        """The distribution's expected value (ns)."""
        if self.family == "uniform":
            return (self.min_ns + self.max_ns) / 2.0
        return self.mean_ns

    def cdf(self, x):
        """P(X <= x)."""
        if self.family == "exponential":
            if x <= 0:
                return 0.0
            return 1.0 - math.exp(-x / self.mean_ns)
        if self.family == "uniform":
            if x <= self.min_ns:
                return 0.0
            if x >= self.max_ns:
                return 1.0
            return (x - self.min_ns) / (self.max_ns - self.min_ns)
        # normal
        return 0.5 * (1.0 + math.erf(
            (x - self.mean_ns) / (self.std_ns * math.sqrt(2.0))))

    def quantile(self, p):
        """Inverse CDF (ns) for p in (0, 1)."""
        if not 0.0 < p < 1.0:
            raise ContractError("quantile needs p in (0, 1), got %r"
                                % (p,))
        if self.family == "exponential":
            return -self.mean_ns * math.log(1.0 - p)
        if self.family == "uniform":
            return self.min_ns + p * (self.max_ns - self.min_ns)
        # normal: bisect the CDF (monotone; no closed-form erfinv in
        # the stdlib).  10 * std brackets anything the monitor asks for.
        lo = self.mean_ns - 10.0 * self.std_ns
        hi = self.mean_ns + 10.0 * self.std_ns
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if self.cdf(mid) < p:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def as_dict(self):
        data = {"family": self.family}
        for key in ("mean_ns", "min_ns", "max_ns", "std_ns"):
            value = getattr(self, key)
            if value is not None:
                data[key] = value
        return data

    def __eq__(self, other):
        if not isinstance(other, DistributionSpec):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __hash__(self):
        return hash((self.family, self.mean_ns, self.min_ns,
                     self.max_ns, self.std_ns))

    def __repr__(self):
        params = ", ".join("%s=%g" % (key, value)
                           for key, value in sorted(self.as_dict().items())
                           if key != "family")
        return "DistributionSpec(%s, %s)" % (self.family, params)


class StochasticContract:
    """The declared distributional promises of one component.

    At least one clause (``interarrival`` or ``exectime``) is required.
    ``tolerance`` is the significance level of the online
    goodness-of-fit test (a violation is declared when the p-value
    drops below it); ``min_samples`` is the fewest observations per
    epoch before a check is evaluated at all.
    """

    __slots__ = ("interarrival", "exectime", "tolerance", "min_samples")

    def __init__(self, interarrival=None, exectime=None, tolerance=0.01,
                 min_samples=32):
        if interarrival is None and exectime is None:
            raise ContractError(
                "stochastic contract needs at least one clause "
                "(interarrival or exectime)")
        for clause, spec in (("interarrival", interarrival),
                             ("exectime", exectime)):
            if spec is not None and not isinstance(spec, DistributionSpec):
                raise ContractError(
                    "%s clause must be a DistributionSpec, got %r"
                    % (clause, spec))
        self.interarrival = interarrival
        self.exectime = exectime
        tolerance = float(tolerance)
        if not 0.0 < tolerance <= 0.5:
            raise ContractError(
                "tolerance must be in (0, 0.5], got %r" % (tolerance,))
        self.tolerance = tolerance
        min_samples = int(min_samples)
        if min_samples < 8:
            raise ContractError(
                "min_samples must be >= 8, got %r" % (min_samples,))
        self.min_samples = min_samples

    def clauses(self):
        """The declared (name, DistributionSpec) pairs."""
        pairs = []
        if self.interarrival is not None:
            pairs.append(("interarrival", self.interarrival))
        if self.exectime is not None:
            pairs.append(("exectime", self.exectime))
        return pairs

    def as_dict(self):
        data = {"tolerance": self.tolerance,
                "min_samples": self.min_samples}
        for name, spec in self.clauses():
            data[name] = spec.as_dict()
        return data

    def __eq__(self, other):
        if not isinstance(other, StochasticContract):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __hash__(self):
        return hash((self.interarrival, self.exectime, self.tolerance,
                     self.min_samples))

    def __repr__(self):
        return "StochasticContract(%s, tolerance=%g, min_samples=%d)" % (
            "+".join(name for name, _ in self.clauses()),
            self.tolerance, self.min_samples)


class RealTimeContract:
    """The real-time promises/requirements of one component."""

    __slots__ = ("name", "task_type", "priority", "cpu_usage",
                 "frequency_hz", "period_ns", "deadline_ns", "cpu",
                 "stochastic")

    def __init__(self, name, task_type, priority=0, cpu_usage=0.0,
                 frequency_hz=None, deadline_ns=None, cpu=0,
                 min_interarrival_ns=None, stochastic=None):
        self.name = name
        if not isinstance(task_type, TaskType):
            raise ContractError("task_type must be a TaskType, got %r"
                                % (task_type,))
        self.task_type = task_type
        if priority < 0:
            raise ContractError("priority must be >= 0, got %r"
                                % (priority,))
        self.priority = int(priority)
        if not 0.0 <= cpu_usage <= 1.0:
            raise ContractError(
                "cpuusage must be a fraction in [0, 1], got %r"
                % (cpu_usage,))
        self.cpu_usage = float(cpu_usage)
        if task_type is TaskType.PERIODIC:
            if not frequency_hz or frequency_hz <= 0:
                raise ContractError(
                    "periodic contract %s needs a positive frequency"
                    % name)
            self.frequency_hz = float(frequency_hz)
            period = _NS_PER_SEC / self.frequency_hz
            if not (math.isfinite(period) and round(period) >= 1):
                raise ContractError(
                    "periodic contract %s: frequency %r Hz has no finite "
                    "period of at least 1 ns" % (name, frequency_hz))
            self.period_ns = int(round(period))
        elif task_type is TaskType.SPORADIC:
            if not min_interarrival_ns or min_interarrival_ns <= 0:
                raise ContractError(
                    "sporadic contract %s needs a positive minimum "
                    "inter-arrival time" % name)
            if not 1 <= min_interarrival_ns <= sys.float_info.max:
                raise ContractError(
                    "sporadic contract %s needs a minimum inter-arrival "
                    "time of at least 1 ns that a float can hold, got %r"
                    % (name, min_interarrival_ns))
            # The MIA plays the period's role: it bounds the demand and
            # feeds the same schedulability analyses.
            self.period_ns = int(min_interarrival_ns)
            self.frequency_hz = _NS_PER_SEC / self.period_ns
        else:
            self.frequency_hz = None
            self.period_ns = None
        if deadline_ns is not None and deadline_ns <= 0:
            raise ContractError("deadline must be positive, got %r"
                                % (deadline_ns,))
        self.deadline_ns = deadline_ns if deadline_ns is not None \
            else self.period_ns
        if cpu < 0:
            raise ContractError("cpu must be >= 0, got %r" % (cpu,))
        self.cpu = int(cpu)
        if stochastic is not None \
                and not isinstance(stochastic, StochasticContract):
            raise ContractError(
                "stochastic must be a StochasticContract, got %r"
                % (stochastic,))
        self.stochastic = stochastic

    @property
    def is_periodic(self):
        """Whether the contract describes a periodic task."""
        return self.task_type is TaskType.PERIODIC

    @property
    def is_rate_bound(self):
        """Whether the contract bounds its demand rate (periodic period
        or sporadic minimum inter-arrival) -- i.e. whether it is
        analysable by the periodic schedulability tests."""
        return self.period_ns is not None

    @property
    def wcet_ns(self):
        """Derived worst-case execution time: cpuusage * period.

        Rounded *up*: WCET is a demand bound, and truncating toward
        zero would let admission/RTA under-count by up to 1 ns per
        task.  ``None`` for aperiodic contracts (no period to scale
        by).
        """
        if self.period_ns is None:
            return None
        return int(math.ceil(self.cpu_usage * self.period_ns))

    def as_dict(self):
        """Plain-data view (management interface, traces, tests)."""
        data = {
            "name": self.name,
            "type": self.task_type.value,
            "priority": self.priority,
            "cpuusage": self.cpu_usage,
            "frequency_hz": self.frequency_hz,
            "period_ns": self.period_ns,
            "deadline_ns": self.deadline_ns,
            "cpu": self.cpu,
        }
        if self.stochastic is not None:
            data["stochastic"] = self.stochastic.as_dict()
        return data

    def __eq__(self, other):
        if not isinstance(other, RealTimeContract):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __hash__(self):
        return hash((self.name, self.task_type, self.priority,
                     self.cpu_usage, self.frequency_hz, self.deadline_ns,
                     self.cpu))

    def __repr__(self):
        if self.is_periodic:
            return ("RealTimeContract(%s, periodic %.6gHz, prio=%d, "
                    "cpu=%d, usage=%.3f)" % (
                        self.name, self.frequency_hz, self.priority,
                        self.cpu, self.cpu_usage))
        return "RealTimeContract(%s, aperiodic, prio=%d, cpu=%d)" % (
            self.name, self.priority, self.cpu)
