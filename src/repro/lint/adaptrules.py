"""DRT5xx: static analysis of adaptation rule files.

Rule files (JSON documents with a top-level ``rules`` list, see
docs/ADAPTATION.md) are validated with the *same* parser the runtime
controller uses (:func:`repro.adapt.rules.parse_rule_document`), so
drtlint and the :class:`~repro.adapt.controller.AdaptationController`
can never disagree about schema validity.  On top of schema validity
this module checks what only a whole-file view can see:

* **DRT500** -- JSON / schema violations (the parser's findings,
  re-coded; unknown parameters and actions get their own codes);
* **DRT501** -- predicate over a context parameter outside the
  catalog (:data:`repro.adapt.context.CONTEXT_PARAMS`);
* **DRT502** -- unknown action kind or invalid action arguments
  (:data:`repro.adapt.actions.ACTIONS`);
* **DRT503** -- two simultaneously-satisfiable rules commanding
  opposing actions (suspend/resume, enable/disable) on one target;
* **DRT504** -- a predicate that can never hold given the parameter's
  documented range (``deadline_miss_rate > 2``), or an ``all`` group
  demanding disjoint ranges of one parameter;
* **DRT505** -- a rule with no damping at all (no ``cooldown_ns``, no
  ``clear``, no ``for_epochs``): it will fire every epoch while its
  condition holds;
* **DRT506** -- a threshold over a *grid-clamped* parameter
  (histogram percentiles report bucket upper bounds and saturate at
  the last finite bound, see ``percentile_from_buckets``) that the
  clamped value can never exceed: ``dispatch_latency_p99 > X`` with X
  at or above the grid max is silently dead.
"""

import json

from repro.adapt.actions import OPPOSITES, target_key
from repro.adapt.context import param_clamp_max, param_range
from repro.adapt.rules import parse_rule_document_tolerant
from repro.lint.diagnostics import Diagnostic


def looks_like_rule_file(text):
    """Whether a ``.json`` source is an adaptation rule file.

    Cheap structural sniff: a JSON object with a ``rules`` key.  Other
    JSON files (fault plans, benchmark baselines, metric dumps) pass
    through drtlint unexamined.
    """
    try:
        document = json.loads(text)
    except ValueError:
        return False
    return isinstance(document, dict) and "rules" in document


# The parser reports every problem as one flat string list; route the
# two problem shapes that have dedicated codes onto them and leave the
# rest under the schema code.  (Message prefixes are owned by
# repro.adapt.rules in this same repository; tests/lint/ pins the
# routing.)
def _code_for_problem(problem):
    if "unknown context parameter" in problem:
        return "DRT501"
    if "unknown action" in problem or "action '" in problem \
            or 'action "' in problem:
        return "DRT502"
    return "DRT500"


# ----------------------------------------------------------------------
# interval arithmetic over threshold predicates
# ----------------------------------------------------------------------
# An interval is (lo, lo_closed, hi, hi_closed); None = unbounded.
_FULL = (None, False, None, False)


def _op_interval(op, value):
    if op == ">":
        return (value, False, None, False)
    if op == ">=":
        return (value, True, None, False)
    if op == "<":
        return (None, False, value, False)
    if op == "<=":
        return (None, False, value, True)
    if op == "==":
        return (value, True, value, True)
    return None  # "!=" constrains nothing interval-wise


def _intersect(first, second):
    lo, lo_closed = first[0], first[1]
    if lo is None:
        lo, lo_closed = second[0], second[1]
    elif second[0] is not None:
        if second[0] > lo:
            lo, lo_closed = second[0], second[1]
        elif second[0] == lo:
            lo_closed = lo_closed and second[1]
    hi, hi_closed = first[2], first[3]
    if hi is None:
        hi, hi_closed = second[2], second[3]
    elif second[2] is not None:
        if second[2] < hi:
            hi, hi_closed = second[2], second[3]
        elif second[2] == hi:
            hi_closed = hi_closed and second[3]
    return (lo, lo_closed, hi, hi_closed)


def _empty(interval):
    lo, lo_closed, hi, hi_closed = interval
    if lo is None or hi is None:
        return False
    if lo > hi:
        return True
    return lo == hi and not (lo_closed and hi_closed)


def _range_interval(param):
    lo, hi = param_range(param)
    return (lo, True, hi, True)


def _constraint_map(predicate):
    """``{context key: interval}`` for an all-satisfiable view of a
    predicate: a threshold leaf, or an ``all`` group of leaves.  Other
    shapes (``any``, trends, ``!=``) return constraints only for what
    must *definitely* hold, so the analysis stays conservative."""
    constraints = {}
    if predicate.kind == "threshold":
        interval = _op_interval(predicate.op, predicate.value)
        if interval is not None:
            constraints[predicate.key] = interval
    elif predicate.kind == "all":
        for child in predicate.children:
            for key, interval in _constraint_map(child).items():
                if key in constraints:
                    constraints[key] = _intersect(constraints[key],
                                                  interval)
                else:
                    constraints[key] = interval
    return constraints


def _compatible(first, second):
    """Whether two rules' conditions can hold in the same epoch (as
    far as interval analysis can tell)."""
    for key, interval in first.items():
        other = second.get(key)
        if other is not None and _empty(_intersect(interval, other)):
            return False
    return True


# ----------------------------------------------------------------------
# the checks
# ----------------------------------------------------------------------
def _check_reachability(rule, location):
    diagnostics = []
    for predicate in ((rule.when,) if rule.clear is None
                      else (rule.when, rule.clear)):
        constraints = _constraint_map(predicate)
        for key, interval in constraints.items():
            bounded = _intersect(interval, _range_interval(key))
            if _empty(bounded):
                lo, hi = param_range(key)
                diagnostics.append(Diagnostic(
                    "DRT504", rule.name, location,
                    "condition on %r can never hold (documented "
                    "range [%s, %s])"
                    % (key,
                       "-inf" if lo is None else "%g" % lo,
                       "+inf" if hi is None else "%g" % hi)))
    return diagnostics


def _check_contradictions(rules, location):
    diagnostics = []
    reported = set()
    for index, first in enumerate(rules):
        first_constraints = _constraint_map(first.when)
        first_actions = {target_key(action): action["action"]
                         for action in first.actions}
        for second in rules[index + 1:]:
            pair = tuple(sorted((first.name, second.name)))
            if pair in reported:
                continue
            clash = None
            for action in second.actions:
                kind = first_actions.get(target_key(action))
                if kind is not None \
                        and OPPOSITES.get(kind) == action["action"]:
                    clash = (kind, action["action"],
                             target_key(action))
                    break
            if clash is None:
                continue
            if not _compatible(first_constraints,
                               _constraint_map(second.when)):
                continue
            reported.add(pair)
            diagnostics.append(Diagnostic(
                "DRT503", "%s/%s" % pair, location,
                "rules %r and %r can both hold yet command %s vs %s "
                "on %s" % (first.name, second.name, clash[0],
                           clash[1], clash[2])))
    return diagnostics


def _check_clamped_thresholds(rule, location):
    """DRT506: thresholds a grid-clamped parameter can never exceed.

    DRT504 compares against the parameter's documented *range*;
    clamped parameters (latency percentiles) have an unbounded range
    but a bounded *report*: overflow samples saturate at the last
    finite histogram bound, so strictly-above comparisons at or past
    that ceiling are dead code no interval over the range can see.
    """
    diagnostics = []
    for predicate in ((rule.when,) if rule.clear is None
                      else (rule.when, rule.clear)):
        for leaf in predicate.leaves():
            if leaf.kind != "threshold":
                continue
            ceiling = param_clamp_max(leaf.param)
            if ceiling is None:
                continue
            op, value = leaf.op, leaf.value
            dead = (op == ">" and value >= ceiling) \
                or (op == ">=" and value > ceiling) \
                or (op == "==" and value > ceiling)
            if not dead:
                continue
            diagnostics.append(Diagnostic(
                "DRT506", rule.name, location,
                "condition %r %s %g can never hold: the reported "
                "value saturates at the histogram grid's last finite "
                "bound (%g ns)" % (leaf.key, op, value, ceiling)))
    return diagnostics


def _check_damping(rule, location):
    if rule.cooldown_ns or rule.clear is not None \
            or rule.max_firings is not None:
        return []
    if any(leaf.for_epochs > 1 for leaf in rule.when.leaves()):
        return []
    return [Diagnostic(
        "DRT505", rule.name, location,
        "no cooldown_ns, clear predicate, for_epochs or max_firings: "
        "the rule fires every epoch while %r holds"
        % rule.when.as_dict())]


def check_rule_source(text, location):
    """All DRT5xx diagnostics for one rule file's text."""
    try:
        document = json.loads(text)
    except ValueError as error:
        return [Diagnostic("DRT500", "", location,
                           "invalid JSON: %s" % error)]
    rules, problems = parse_rule_document_tolerant(document)
    diagnostics = [Diagnostic(_code_for_problem(problem), "",
                              location, problem)
                   for problem in problems]
    for rule in rules:
        diagnostics.extend(_check_reachability(rule, location))
        diagnostics.extend(_check_clamped_thresholds(rule, location))
        diagnostics.extend(_check_damping(rule, location))
    diagnostics.extend(_check_contradictions(rules, location))
    return diagnostics
