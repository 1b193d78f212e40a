"""Built-in resolving services (admission policies).

"This system allows itself to be easily extended with other constraint
resolving policies to fit different context" (abstract) -- these are the
policies shipped in the box, all implementing
:class:`repro.core.resolving.ResolvingService`:

==========================  ==============================================
Policy                      Accepts a candidate when...
==========================  ==============================================
AlwaysAcceptPolicy          always (the no-admission baseline, ablation A1)
AlwaysRejectPolicy          never (fail-closed mode)
UtilizationBoundPolicy      declared cpuusage on its CPU stays <= cap
LiuLaylandPolicy            RM utilization bound holds for the CPU's set
ResponseTimeAnalysisPolicy  exact fixed-priority RTA passes
EDFPolicy                   EDF demand criterion passes
PriorityBandPolicy          contract priority lies within [lo, hi]
CompositePolicy             every child policy accepts
==========================  ==============================================
"""

from repro.analysis import (
    TaskSpec,
    edf_processor_demand_test,
    edf_utilization_test,
    liu_layland_test,
    rta_schedulable,
)
from repro.core.placement import fits
from repro.core.resolving import Decision, ResolvingService


def _periodic_specs(view, cpu, candidate_contract=None):
    """TaskSpecs of admitted periodic contracts on ``cpu`` (+candidate)."""
    contracts = list(view.admitted_contracts(cpu))
    if candidate_contract is not None and candidate_contract.cpu == cpu:
        contracts.append(candidate_contract)
    return [TaskSpec.from_contract(c) for c in contracts
            if c.is_rate_bound]


class AlwaysAcceptPolicy(ResolvingService):
    """Admit everything: the 'no global admission' baseline the paper
    argues against (ad-hoc solutions "lack of accurate global view",
    section 1).  Used by ablation A1."""

    name = "always-accept"

    def admit(self, candidate, view):
        return Decision.yes("admission disabled")


class AlwaysRejectPolicy(ResolvingService):
    """Reject everything (fail-closed maintenance mode)."""

    name = "always-reject"

    def admit(self, candidate, view):
        return Decision.no("admission closed")


class UtilizationBoundPolicy(ResolvingService):
    """Enforce the declared-cpuusage budget per CPU.

    This is the paper's own admission currency: "using [the cpuusage]
    attribute, the component can specify how much CPU it will claim to
    guarantee its real-time characteristics" (section 2.3), with the
    budget "'enforced' by a central scheme rather than by each single
    bundle" (section 2.1).
    """

    name = "utilization-bound"

    def __init__(self, cap=1.0):
        if not 0.0 < cap <= 1.0:
            raise ValueError("cap must be in (0, 1], got %r" % (cap,))
        self.cap = cap

    def admit(self, candidate, view):
        cpu = candidate.contract.cpu
        total = view.declared_utilization(cpu, include_candidate=True)
        if fits(total, self.cap):
            return Decision.yes(
                "cpu%d utilization %.3f <= cap %.3f"
                % (cpu, total, self.cap))
        return Decision.no(
            "cpu%d utilization %.3f would exceed cap %.3f"
            % (cpu, total, self.cap))

    def revalidate(self, component, view):
        cpu = component.contract.cpu
        total = view.declared_utilization(cpu, include_candidate=False)
        if fits(total, self.cap):
            return Decision.yes("within cap")
        return Decision.no(
            "cpu%d utilization %.3f exceeds cap %.3f after change"
            % (cpu, total, self.cap))


class LiuLaylandPolicy(ResolvingService):
    """Sufficient rate-monotonic bound on each CPU's periodic set."""

    name = "liu-layland"

    def admit(self, candidate, view):
        if not candidate.contract.is_rate_bound:
            return Decision.yes("aperiodic: no RM bound applies")
        specs = _periodic_specs(view, candidate.contract.cpu,
                                candidate.contract)
        if liu_layland_test(specs):
            return Decision.yes("RM bound holds for %d tasks" % len(specs))
        return Decision.no(
            "RM utilization bound violated with %d tasks" % len(specs))


class ResponseTimeAnalysisPolicy(ResolvingService):
    """Exact fixed-priority response-time analysis per CPU."""

    name = "rm-rta"

    def admit(self, candidate, view):
        if not candidate.contract.is_rate_bound:
            return Decision.yes("aperiodic: RTA not applicable")
        specs = _periodic_specs(view, candidate.contract.cpu,
                                candidate.contract)
        ok, responses = rta_schedulable(specs)
        if ok:
            return Decision.yes("RTA passes for %d tasks" % len(specs))
        failing = sorted(name for name, r in responses.items()
                         if r is None)
        return Decision.no("RTA fails (unbounded response: %s)"
                           % ", ".join(failing) if failing
                           else "RTA fails (deadline overrun)")


class EDFPolicy(ResolvingService):
    """EDF schedulability (utilization test for implicit deadlines,
    demand criterion when any deadline is constrained)."""

    name = "edf"

    def admit(self, candidate, view):
        if not candidate.contract.is_rate_bound:
            return Decision.yes("aperiodic: EDF test not applicable")
        specs = _periodic_specs(view, candidate.contract.cpu,
                                candidate.contract)
        constrained = any(s.deadline_ns < s.period_ns for s in specs)
        if not constrained:
            if edf_utilization_test(specs):
                return Decision.yes("EDF utilization <= 1")
            return Decision.no("EDF utilization exceeds 1")
        ok, violation = edf_processor_demand_test(specs)
        if ok:
            return Decision.yes("EDF demand criterion holds")
        return Decision.no("EDF demand exceeds supply at t=%dns"
                           % violation)


class PriorityBandPolicy(ResolvingService):
    """Only admit contracts whose priority lies in a configured band.

    An example of the *application-specific* constraint resolving the
    paper motivates ("the requirements of real-time applications are
    normally very complex and application specific", section 2.1) --
    e.g. reserving priorities 0-1 for the platform.
    """

    name = "priority-band"

    def __init__(self, lowest_allowed=0, highest_allowed=255):
        if lowest_allowed > highest_allowed:
            raise ValueError("empty priority band")
        self.lowest_allowed = lowest_allowed
        self.highest_allowed = highest_allowed

    def admit(self, candidate, view):
        priority = candidate.contract.priority
        if self.lowest_allowed <= priority <= self.highest_allowed:
            return Decision.yes("priority %d within band [%d, %d]"
                                % (priority, self.lowest_allowed,
                                   self.highest_allowed))
        return Decision.no("priority %d outside band [%d, %d]"
                           % (priority, self.lowest_allowed,
                              self.highest_allowed))


class CompositePolicy(ResolvingService):
    """All child policies must accept (first rejection wins)."""

    name = "composite"

    def __init__(self, policies):
        self.policies = list(policies)
        if not self.policies:
            raise ValueError("composite needs at least one policy")

    def admit(self, candidate, view):
        for policy in self.policies:
            decision = policy.admit(candidate, view)
            if not decision:
                return Decision.no("%s: %s" % (policy.name,
                                               decision.reason))
        return Decision.yes("all %d policies accept" % len(self.policies))

    def revalidate(self, component, view):
        for policy in self.policies:
            decision = policy.revalidate(component, view)
            if not decision:
                return Decision.no("%s: %s" % (policy.name,
                                               decision.reason))
        return Decision.yes("all policies keep admission")
