"""Differential check: the compiled evaluator against the reference loop.

``reference_evaluate`` below is the evaluator as it was before rule
sets were compiled and indexed: one recursive ``holds`` walk of every
predicate tree, for every rule, every epoch.  It is kept here, and
only here, as the specification the compiled
:class:`~repro.adapt.evaluator.RuleEvaluator` must match: the same
firings in the same order, the same suppression counts reason by
reason, and the same per-rule state, epoch after epoch, across hot
swaps of the rule set.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adapt.actions import target_key
from repro.adapt.evaluator import RuleEvaluator
from repro.adapt.rules import HISTORY_EPOCHS, OPS, parse_rule_document

INF = math.inf
NAN = math.nan
STEP_NS = 10


# ----------------------------------------------------------------------
# the reference loop
# ----------------------------------------------------------------------
class _ReferenceState:
    __slots__ = ("streak", "latched", "last_fired_ns", "firings")

    def __init__(self):
        self.streak = 0
        self.latched = False
        self.last_fired_ns = None
        self.firings = 0


class Reference:
    """The reference evaluator's state: per-name rule states and the
    context history trend predicates read."""

    def __init__(self, max_actions_per_epoch=None):
        self.max_actions_per_epoch = max_actions_per_epoch
        self._states = {}
        self._history = []


def _series(self, key, epochs):
    if len(self._history) < epochs:
        return None
    window = self._history[-epochs:]
    values = [snapshot.get(key) for snapshot in window]
    if any(value is None for value in values):
        return None
    return values


def holds(self, predicate, context):
    kind = predicate.kind
    if kind == "all":
        return all(holds(self, child, context)
                   for child in predicate.children)
    if kind == "any":
        return any(holds(self, child, context)
                   for child in predicate.children)
    key = predicate.key
    if kind == "trend":
        values = _series(self, key, predicate.epochs)
        if values is None:
            return False
        pairs = zip(values, values[1:])
        if predicate.trend == "rising":
            return all(a < b for a, b in pairs)
        return all(a > b for a, b in pairs)
    value = context.get(key)
    if value is None:
        return False
    return OPS[predicate.op](value, predicate.value)


def reference_evaluate(self, rules, context, now_ns):
    self._history.append(context)
    if len(self._history) > HISTORY_EPOCHS:
        del self._history[0]
    suppressed = {"hysteresis": 0, "cooldown": 0,
                  "exhausted": 0, "conflict": 0}
    candidates = []
    for rule in rules:
        state = self._states.get(rule.name)
        if state is None:
            state = self._states[rule.name] = _ReferenceState()
        if state.latched and (
                rule.clear is None
                or holds(self, rule.clear, context)):
            state.latched = False
        if not holds(self, rule.when, context):
            state.streak = 0
            continue
        state.streak += 1
        needed = max(leaf.for_epochs
                     for leaf in rule.when.leaves())
        if state.streak < needed or state.latched:
            suppressed["hysteresis"] += 1
            continue
        if rule.max_firings is not None \
                and state.firings >= rule.max_firings:
            suppressed["exhausted"] += 1
            continue
        if rule.cooldown_ns and state.last_fired_ns is not None \
                and now_ns - state.last_fired_ns < rule.cooldown_ns:
            suppressed["cooldown"] += 1
            continue
        candidates.append(rule)
    candidates.sort(key=lambda rule: (rule.priority, rule.name))
    firings = []
    claimed = set()
    budget = self.max_actions_per_epoch
    for rule in candidates:
        keys = {target_key(action) for action in rule.actions}
        if claimed & keys or (
                budget is not None
                and len(firings) + 1 > budget):
            suppressed["conflict"] += 1
            continue
        claimed |= keys
        state = self._states[rule.name]
        state.last_fired_ns = now_ns
        state.firings += 1
        state.latched = rule.clear is not None
        firings.append(rule)
    return firings, suppressed


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
PARAMS = ("deadline_miss_rate", "releases", "overruns")
#: Bounds shared across rules (so buckets hold equal bounds) and drawn
#: again as context values (so a value often equals a bound).
BOUNDS = (-INF, -1.0, 0, 0.0, 0.5, 1, 2.5, INF)
VALUES = BOUNDS + (-0.5, 0.25, 1.5, 3.0, NAN)

thresholds = st.builds(
    lambda param, op, value, for_epochs: {
        "param": param, "op": op, "value": value,
        "for_epochs": for_epochs},
    st.sampled_from(PARAMS), st.sampled_from(sorted(OPS)),
    st.sampled_from(BOUNDS), st.integers(1, 3))
trends = st.builds(
    lambda param, trend, epochs, for_epochs: {
        "param": param, "trend": trend, "epochs": epochs,
        "for_epochs": for_epochs},
    st.sampled_from(PARAMS), st.sampled_from(("rising", "falling")),
    st.integers(2, 4), st.integers(1, 2))
predicates = st.recursive(
    st.one_of(thresholds, thresholds, trends),
    lambda children: st.builds(
        lambda group, members: {group: members},
        st.sampled_from(("all", "any")),
        st.lists(children, min_size=1, max_size=3)),
    max_leaves=4)
actions = st.sampled_from((
    {"action": "reconfigure"},
    {"action": "suspend", "component": "A"},
    {"action": "resume", "component": "A"},
    {"action": "suspend", "component": "B"},
    {"action": "disable", "component": "C"},
))


@st.composite
def rule_documents(draw):
    rules = []
    for index in range(draw(st.integers(1, 8))):
        rule = {
            "name": "r%d" % index,
            "priority": draw(st.integers(0, 3)),
            # weighted towards the indexed shape: one threshold leaf
            "when": draw(st.one_of(thresholds, thresholds, predicates)),
            "then": draw(st.lists(actions, min_size=1, max_size=2)),
        }
        if draw(st.booleans()):
            rule["clear"] = draw(predicates)
        cooldown = draw(st.sampled_from((0, 0, STEP_NS, 3 * STEP_NS)))
        if cooldown:
            rule["cooldown_ns"] = cooldown
        max_firings = draw(st.sampled_from((None, None, 1, 3)))
        if max_firings is not None:
            rule["max_firings"] = max_firings
        rules.append(rule)
    return {"rules": rules}


contexts = st.dictionaries(st.sampled_from(PARAMS),
                           st.sampled_from(VALUES))
#: Hot swaps between epochs: keep the set, take a subset of the full
#: set, go back to the full set, re-parse the current set (same names,
#: new objects), reverse its order, or append same-name duplicates
#: (the first occurrence must win).
swaps = st.one_of(
    st.just(("keep",)), st.just(("keep",)), st.just(("keep",)),
    st.tuples(st.just("subset"), st.lists(st.booleans(), min_size=8,
                                          max_size=8)),
    st.just(("full",)), st.just(("reparse",)), st.just(("reverse",)),
    st.just(("duplicate",)))


def _reparse(rules):
    """The same rules parsed again: equal names, new objects."""
    return [parse_rule_document({"rules": [rule.as_dict()]})[0]
            for rule in rules]


def _first_by_name(rules):
    seen = set()
    unique = []
    for rule in rules:
        if rule.name not in seen:
            seen.add(rule.name)
            unique.append(rule)
    return unique


def _nondefault(states):
    """Per-rule state that differs from a fresh state (the compiled
    evaluator creates no state for a rule that never held)."""
    default = (0, False, None, 0)
    views = {name: (state.streak, state.latched, state.last_fired_ns,
                    state.firings)
             for name, state in states.items()}
    return {name: view for name, view in views.items()
            if view != default}


@settings(max_examples=150, deadline=None)
@given(document=rule_documents(),
       budget=st.sampled_from((None, 1, 2)),
       epochs=st.lists(st.tuples(contexts, swaps), min_size=1,
                       max_size=40))
def test_compiled_evaluator_matches_reference(document, budget, epochs):
    full = parse_rule_document(document)
    compiled = RuleEvaluator(max_actions_per_epoch=budget)
    reference = Reference(max_actions_per_epoch=budget)
    current = full
    for epoch, (context, swap) in enumerate(epochs):
        kind = swap[0]
        if kind == "subset":
            current = [rule for rule, keep in zip(full, swap[1]) if keep]
        elif kind == "full":
            current = full
        elif kind == "reparse":
            current = _reparse(current)
        elif kind == "reverse":
            current = list(current)
            current.reverse()
        elif kind == "duplicate":
            current = list(current) + _reparse(current)
        now_ns = epoch * STEP_NS
        fired, suppressed = compiled.evaluate(current, dict(context),
                                              now_ns)
        expected, expected_suppressed = reference_evaluate(
            reference, _first_by_name(current), dict(context), now_ns)
        assert [firing.rule for firing in fired] == expected
        assert all(firing.at_ns == now_ns for firing in fired)
        assert suppressed == expected_suppressed
        assert _nondefault(compiled._states) \
            == _nondefault(reference._states)


def test_list_mutated_in_place_is_recompiled():
    """The controller hands over one cached list; a caller that edits
    a list in place still gets the edited set evaluated."""
    rules = parse_rule_document({"rules": [
        {"name": "high", "when": {"param": "releases", "op": ">",
                                  "value": 10},
         "then": {"action": "reconfigure"}}]})
    evaluator = RuleEvaluator()
    fired, _ = evaluator.evaluate(rules, {"releases": 5}, 0)
    assert not fired
    rules.extend(parse_rule_document({"rules": [
        {"name": "low", "when": {"param": "releases", "op": "<",
                                 "value": 10},
         "then": {"action": "reconfigure"}}]}))
    fired, _ = evaluator.evaluate(rules, {"releases": 5}, 1)
    assert [firing.rule.name for firing in fired] == ["low"]
