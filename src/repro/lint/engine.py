"""drtlint's orchestration layer.

Collects descriptor sources from paths, groups them into *deployment
units*, runs every analyzer family and aggregates the findings into a
:class:`LintResult` -- all without instantiating a Framework, a DRCR or
a kernel.

Unit model
----------
* every ``.xml`` file passed (or found under a directory) is one
  descriptor; **all** XML descriptors of one invocation form a single
  deployment unit, because a directory of one-component-per-file
  descriptors is how a deployment set ships;
* every ``.py`` file is its **own** deployment unit: an example or
  implementation module is a self-contained deployment script.  Its
  embedded descriptor XML literals (any string constant containing a
  ``drt:component`` element) are linted together, and the module source
  runs through the DRT4xx AST checks.  Literals with ``%``-format
  placeholders are templates, not descriptors, and are skipped;
* every ``.json`` file that is a *deployment plan* (sniffed first:
  ``plan_version``, or ``nodes`` + ``deployments`` --
  :func:`repro.lint.deployment.looks_like_plan_file`) contributes one
  plan unit plus one unit per node with components (contract/wiring/
  admission run per node, because ports bind per kernel) plus one per
  referenced rule source, and runs the DRT6xx topology checks;
* every remaining ``.json`` file that is an adaptation *rule file* (a
  JSON object with a top-level ``rules`` list, docs/ADAPTATION.md) is
  its own unit and runs through the DRT5xx checks; other JSON files
  (fault plans, benchmark baselines) pass through unexamined;
* a ``.json`` file that does not parse is one source with one
  "invalid JSON" error: DRT600 when the deployment family runs, else
  DRT500 when the rules family does.

Paths reachable more than once in one invocation (a file named
directly and again under a directory argument, a symlink, a duplicate
argument) are deduplicated by real path, so no source is ever linted
-- or counted -- twice.
"""

import ast
import json
import os
import re

from repro.lint import admission, adaptrules, contracts, deployment, \
    memo, rtsafety, stochastic, wiring
from repro.lint.diagnostics import Diagnostic, Severity

#: Families selectable by callers (the resolver disables wiring: the
#: DRCR's own functional resolution handles unsatisfied inports by
#: keeping components UNSATISFIED rather than by vetoing admission).
FAMILIES = ("contract", "wiring", "admission", "rtsafety", "rules",
            "deployment", "stochastic")

#: Code-prefix spellings accepted wherever a family name is (the CI
#: smoke job says ``--family DRT5``; both forms resolve identically).
FAMILY_ALIASES = {
    "DRT1": "contract",
    "DRT2": "wiring",
    "DRT3": "admission",
    "DRT4": "rtsafety",
    "DRT5": "rules",
    "DRT6": "deployment",
    "DRT7": "stochastic",
}


def resolve_family(name):
    """Canonical family for ``name`` (a family or a ``DRTn`` prefix,
    case-insensitive); raises ``ValueError`` on anything else."""
    if name in FAMILIES:
        return name
    canonical = FAMILY_ALIASES.get(name.upper())
    if canonical is None:
        raise ValueError(
            "unknown analyzer family %r (expected one of %s)"
            % (name, ", ".join(FAMILIES + tuple(FAMILY_ALIASES))))
    return canonical


def family_of_code(code):
    """The analyzer family a ``DRTnxx`` code belongs to, or None."""
    return FAMILY_ALIASES.get(code[:4])

_DESCRIPTOR_MARKER = re.compile(r"<\s*(?:drt:)?component[\s>]")
_TEMPLATE_MARKER = re.compile(r"%[sdrfi(]")

#: Schema version of :meth:`LintResult.as_dict` / ``--json`` output.
JSON_SCHEMA_VERSION = 1


class LintResult:
    """Aggregated outcome of one lint run."""

    def __init__(self, diagnostics, units=0, sources=0):
        self.diagnostics = sorted(diagnostics,
                                  key=lambda d: d.sort_key())
        self.units = units
        self.sources = sources

    def by_severity(self, severity):
        """Diagnostics of exactly ``severity``."""
        return [d for d in self.diagnostics if d.severity is severity]

    @property
    def errors(self):
        """Error-severity diagnostics."""
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self):
        """Warning-severity diagnostics."""
        return self.by_severity(Severity.WARNING)

    def at_or_above(self, severity):
        """Diagnostics at or above ``severity``."""
        return [d for d in self.diagnostics if d.severity >= severity]

    def codes(self):
        """Sorted unique codes present in the result."""
        return sorted({d.code for d in self.diagnostics})

    def counts(self):
        """``{severity value: count}`` including zeroes (stable keys)."""
        counts = {member.value: 0 for member in Severity}
        for diagnostic in self.diagnostics:
            counts[diagnostic.severity.value] += 1
        return counts

    def as_dict(self):
        """Schema-stable JSON document (``--json`` output)."""
        by_code = {}
        for diagnostic in self.diagnostics:
            by_code[diagnostic.code] = by_code.get(diagnostic.code,
                                                   0) + 1
        return {
            "version": JSON_SCHEMA_VERSION,
            "tool": "drtlint",
            "summary": {
                "units": self.units,
                "sources": self.sources,
                "diagnostics": len(self.diagnostics),
                "by_severity": self.counts(),
                "by_code": dict(sorted(by_code.items())),
            },
            "diagnostics": [d.as_dict() for d in self.diagnostics],
        }

    def format_text(self):
        """Human-readable report, one line per finding plus a hint."""
        lines = []
        for diagnostic in self.diagnostics:
            lines.append(diagnostic.format())
            if diagnostic.severity >= Severity.WARNING:
                lines.append("    fix: %s" % diagnostic.fix_hint)
        counts = self.counts()
        lines.append(
            "drtlint: %d diagnostic(s) (%d error, %d warning, %d "
            "info) across %d unit(s), %d source(s)"
            % (len(self.diagnostics), counts["error"],
               counts["warning"], counts["info"], self.units,
               self.sources))
        return "\n".join(lines)

    def __repr__(self):
        return "LintResult(%d diagnostics, %d units)" % (
            len(self.diagnostics), self.units)


# ----------------------------------------------------------------------
# analyzer driver
# ----------------------------------------------------------------------
def lint_descriptor_texts(texts, families=FAMILIES):
    """Lint raw descriptor documents forming one deployment.

    ``texts`` is a list of ``(location, xml_text)`` pairs.  Returns a
    list of diagnostics (parse failures become DRT100).  Texts are
    parsed through the lint memo (:mod:`repro.lint.memo`), so a text
    seen recently is not parsed again.
    """
    diagnostics = []
    entries = []
    for location, text in texts:
        facts = memo.descriptor_facts(text)
        if "contract" in families:
            diagnostics.extend(facts.schema_diagnostics(location))
        if facts.descriptor is None:
            diagnostics.append(Diagnostic(
                "DRT100", "", location, facts.error))
            continue
        entries.append((facts.descriptor, location))
    diagnostics.extend(lint_descriptor_entries(entries, families))
    return diagnostics


def lint_descriptor_entries(entries, families=FAMILIES):
    """Lint already-parsed descriptors forming one deployment.

    ``entries`` is a list of ``(descriptor, location)`` pairs.
    """
    diagnostics = []
    if "contract" in families:
        for descriptor, location in entries:
            diagnostics.extend(
                contracts.check_descriptor(descriptor, location))
        diagnostics.extend(contracts.check_deployment_names(entries))
    if "wiring" in families:
        diagnostics.extend(wiring.check_wiring(entries))
    if "admission" in families:
        diagnostics.extend(admission.check_admission(entries))
    if "stochastic" in families:
        diagnostics.extend(stochastic.check_stochastic(entries))
    return diagnostics


def lint_descriptors(descriptors, location="<memory>",
                     families=FAMILIES):
    """Lint a list of :class:`ComponentDescriptor` as one deployment."""
    return lint_descriptor_entries(
        [(descriptor, location) for descriptor in descriptors],
        families)


# ----------------------------------------------------------------------
# path walking
# ----------------------------------------------------------------------
def collect_files(paths):
    """Expand files/directories into a list of lintable files.

    Deduplicated by real path, first occurrence wins: a descriptor
    reachable both as a file argument and under a directory argument
    is one source, not two.
    """
    files = []
    seen = set()

    def add(path):
        real = os.path.realpath(path)
        if real not in seen:
            seen.add(real)
            files.append(path)

    for path in paths:
        if os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs.sort()
                for name in sorted(names):
                    if name.endswith((".xml", ".py", ".json")):
                        add(os.path.join(root, name))
        elif os.path.isfile(path):
            add(path)
        else:
            raise FileNotFoundError("no such file or directory: %r"
                                    % (path,))
    return files


def extract_descriptor_literals(source):
    """``(line, xml_text)`` for every descriptor literal in a module.

    A string constant is a descriptor when it contains a
    ``drt:component`` element; ``%``-format templates are skipped (they
    only become descriptors once instantiated).
    """
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return []  # DRT400 is reported by the rtsafety family
    literals = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Constant):
            continue
        if not isinstance(node.value, str):
            continue
        if not _DESCRIPTOR_MARKER.search(node.value):
            continue
        if _TEMPLATE_MARKER.search(node.value):
            continue
        literals.append((node.lineno, node.value))
    return literals


def _parses(text):
    try:
        json.loads(text)
    except ValueError:
        return False
    return True


def lint_paths(paths, families=FAMILIES, telemetry=None):
    """Lint files and directories; returns a :class:`LintResult`.

    All ``.xml`` files form one deployment unit; each ``.py`` file is
    its own unit (see the module docstring).  ``telemetry`` is an
    optional :class:`~repro.telemetry.metrics.Telemetry`; when given,
    the run updates the ``lint.*`` counters
    (``docs/OBSERVABILITY.md``).
    """
    files = collect_files(paths)
    diagnostics = []
    units = 0
    sources = 0
    xml_texts = []
    for path in files:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        if path.endswith(".xml"):
            xml_texts.append((path, text))
            sources += 1
            continue
        if path.endswith(".json"):
            # Neither sniffer recognises a file that does not parse;
            # it is a finding (DRT600, else DRT500), never skipped.
            broken = not _parses(text)
            if deployment.looks_like_plan_file(text) or (
                    broken and "deployment" in families):
                plan_diagnostics, plan_units, plan_sources = \
                    deployment.lint_plan_source(text, path, families)
                diagnostics.extend(plan_diagnostics)
                units += plan_units
                sources += plan_sources
            elif adaptrules.looks_like_rule_file(text) or broken:
                if "rules" in families:
                    diagnostics.extend(
                        adaptrules.check_rule_source(text, path))
                units += 1
                sources += 1
            continue
        literals = extract_descriptor_literals(text)
        unit = [("%s:%d" % (path, line), xml)
                for line, xml in literals]
        diagnostics.extend(lint_descriptor_texts(unit, families))
        if "rtsafety" in families:
            diagnostics.extend(
                rtsafety.check_python_source(text, path))
        units += 1
        sources += 1 + len(literals)
    if xml_texts:
        diagnostics.extend(lint_descriptor_texts(xml_texts, families))
        units += 1
    result = LintResult(diagnostics, units=units, sources=sources)
    if telemetry is not None:
        record_metrics(telemetry, result)
    return result


def lint_plan(document, location="<plan>", families=FAMILIES,
              telemetry=None, nodes=None):
    """Lint one deployment-plan document (a parsed JSON object).

    The in-memory twin of passing a plan file to :func:`lint_paths`:
    the :class:`~repro.cluster.federation.Cluster`'s ``PlanGuard``
    and ``export_plan()`` round-trips call this.  ``nodes`` (None =
    every node) restricts the node-local checks to the named nodes,
    as :func:`repro.lint.deployment.lint_plan_document` describes.
    Returns a :class:`LintResult`.
    """
    diagnostics, units, sources = deployment.lint_plan_document(
        document, location, families=families, nodes=nodes)
    result = LintResult(diagnostics, units=units, sources=sources)
    if telemetry is not None:
        record_metrics(telemetry, result)
    return result


def record_metrics(telemetry, result):
    """Update the ``lint.*`` telemetry counters from a result."""
    registry = telemetry.registry("lint")
    registry.counter("runs_total").inc()
    registry.counter("units_total").inc(result.units)
    registry.counter("sources_total").inc(result.sources)
    registry.counter("diagnostics_total").inc(len(result.diagnostics))
    for severity, count in result.counts().items():
        if count:
            registry.counter("severity.%s" % severity).inc(count)
    for diagnostic in result.diagnostics:
        registry.counter("code.%s" % diagnostic.code).inc()
