"""drtlint as a pluggable pre-admission resolving service.

The paper's section 3 lets operators plug *customized resolving
services* into the DRCR through the OSGi registry.
:class:`LintResolvingService` is one such service: before a candidate
is admitted it lints the candidate **together with** the already-
admitted fleet and vetoes the admission when that marginal addition
introduces new findings at or above the configured severity.

Only the ``contract``, ``admission`` and ``stochastic`` families run.
The ``wiring`` family is deliberately excluded: an unsatisfied inport is
the DRCR's own functional-resolution business (the component simply
waits in UNSATISFIED), not an admission veto.

Differential blame
------------------
The service lints the admitted set twice -- once without and once with
the candidate -- and only findings **new** in the second run count
against the candidate.  Pre-existing warnings about components that
are already running can therefore never block an unrelated deployment.
"""

from repro.core.resolving import Decision, ResolvingService
from repro.lint.diagnostics import Severity
from repro.lint.engine import lint_descriptors

_DEFAULT_FAMILIES = ("contract", "admission", "stochastic")


class LintResolvingService(ResolvingService):
    """Consult drtlint before every admission.

    Parameters
    ----------
    fail_on:
        Minimum :class:`~repro.lint.diagnostics.Severity` that vetoes
        an admission (default: ``ERROR``).
    """

    name = "drtlint"

    #: Analyzer families to run: contract + admission + stochastic.
    families = _DEFAULT_FAMILIES

    def __init__(self, fail_on=Severity.ERROR):
        self.fail_on = fail_on

    def admit(self, candidate, view):
        """Veto when adding the candidate introduces new findings."""
        registry = view.kernel.sim.telemetry.registry("lint")
        registry.counter("resolver_consults_total").inc()
        admitted = [component.descriptor
                    for component in view.registry.active()
                    if component.name != candidate.name]
        baseline = self._fingerprints(
            lint_descriptors(admitted, location="<admitted>",
                             families=self.families))
        diagnostics = lint_descriptors(
            admitted + [candidate.descriptor], location="<admitted>",
            families=self.families)
        introduced = [d for d in diagnostics
                      if d.severity >= self.fail_on
                      and (d.code, d.component, d.message)
                      not in baseline]
        if not introduced:
            return Decision.yes("drtlint: no new findings")
        registry.counter("resolver_rejections_total").inc()
        for diagnostic in introduced:
            registry.counter(
                "resolver_code.%s" % diagnostic.code).inc()
        worst = max(introduced, key=lambda d: d.severity.rank)
        return Decision.no(
            "drtlint: %d new finding(s) at or above %s -- [%s] %s"
            % (len(introduced), self.fail_on.value, worst.code,
               worst.message))

    def _fingerprints(self, diagnostics):
        return {(d.code, d.component, d.message)
                for d in diagnostics if d.severity >= self.fail_on}
