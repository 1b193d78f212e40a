"""The rule evaluator: epoch-by-epoch decisions, thrash-proofed.

Each epoch the controller hands the evaluator the merged context and
the current rule set; the evaluator answers with the firings that
survived four layers of damping:

* **arming hysteresis** -- a predicate with ``for_epochs: N`` must hold
  for N *consecutive* epochs before the rule arms, so one noisy sample
  cannot trigger an action;
* **release hysteresis** -- a rule with a ``clear`` predicate latches
  after firing and stays silent until the clear condition holds, the
  classic two-threshold band (fire above X, re-arm below Y);
* **cooldown** -- a fired rule is silent for ``cooldown_ns`` of
  simulated time, bounding the action rate per rule;
* **conflict resolution** -- surviving firings are ordered by
  ``(priority, name)`` (lower number = more important, as everywhere
  in this repository) and walked in order; a firing whose actions
  touch a target some earlier firing already claimed this epoch is
  dropped, as is everything past ``max_actions_per_epoch``.

Every suppression is counted by reason; the controller publishes the
counts as ``adapt.rules_suppressed_*`` so a mis-tuned rule set is
visible in telemetry rather than silently inert (docs/ADAPTATION.md).

Evaluator state is keyed by rule *name*: a provider removed and
re-registered resumes its cooldown clock rather than resetting it,
which is what you want when a rule file is hot-reloaded in place.  A
rule absent from this epoch's set keeps its streak, latch and
cooldown untouched; if a name appears twice, the first occurrence
wins, as in :meth:`AdaptationController.current_rules`.

Compilation
-----------
An epoch costs only the rules it can change.  When the rule sequence
differs (element by element, by identity) from the previous epoch's,
the evaluator compiles each rule once: its ``when`` and ``clear``
trees become closures, and its arming length and action targets are
computed up front.  Rules whose ``when`` is a single ordered threshold
leaf (``<``, ``<=``, ``>``, ``>=``) go into an index keyed by
``(context key, op)`` and sorted by bound, so one ``bisect`` per
bucket yields exactly the rules that hold.  The epoch loop then
touches the rules that hold now, the rules armed last epoch (their
streak must reset) and the latched ones (which check ``clear``);
groups, trends, ``==`` and ``!=`` run their closure every epoch.  A
missing key or a NaN context value makes no ordered leaf hold.
"""

from bisect import bisect_left, bisect_right
from operator import attrgetter

from repro.adapt.actions import target_key
from repro.adapt.rules import HISTORY_EPOCHS, OPS

#: The ordered ops the threshold index serves, as ``op -> (cut,
#: tail)``.  A bucket's bounds are sorted ascending; the rules holding
#: for a context value are ``members[cut(bounds, value):]`` when
#: ``tail`` is true, ``members[:cut(bounds, value)]`` otherwise.
_INDEXED_OPS = {
    ">": (bisect_left, False),    # bound < value
    ">=": (bisect_right, False),  # bound <= value
    "<": (bisect_right, True),    # bound > value
    "<=": (bisect_left, True),    # bound >= value
}

_ORDER = attrgetter("order")


class _RuleState:
    """Per-rule runtime state (streaks, latches, cooldown clock)."""

    __slots__ = ("streak", "latched", "last_fired_ns", "firings")

    def __init__(self):
        self.streak = 0
        self.latched = False
        self.last_fired_ns = None
        self.firings = 0


class Firing:
    """One rule that fired this epoch (actions not yet executed)."""

    __slots__ = ("rule", "at_ns")

    def __init__(self, rule, at_ns):
        self.rule = rule
        self.at_ns = at_ns

    def __repr__(self):
        return "Firing(%s @ %d)" % (self.rule.name, self.at_ns)


def _compile(predicate, history):
    """``predicate`` as a closure ``context -> bool``.

    A missing parameter makes a leaf false, never an error: a
    node-scoped parameter disappears when its node dies, and a rule
    about a dead node has nothing left to say.  Trend leaves read
    ``history`` (oldest first, this epoch's context last).
    """
    kind = predicate.kind
    if kind in ("all", "any"):
        children = tuple(_compile(child, history)
                         for child in predicate.children)
        if kind == "all":
            return lambda context: all(child(context)
                                       for child in children)
        return lambda context: any(child(context) for child in children)
    key = predicate.key
    if kind == "trend":
        epochs = predicate.epochs
        rising = predicate.trend == "rising"

        def trend(context):
            if len(history) < epochs:
                return False
            values = [snapshot.get(key) for snapshot in history[-epochs:]]
            if any(value is None for value in values):
                return False
            pairs = zip(values, values[1:])
            if rising:
                return all(a < b for a, b in pairs)
            return all(a > b for a, b in pairs)
        return trend
    compare = OPS[predicate.op]
    bound = predicate.value

    def threshold(context):
        value = context.get(key)
        return value is not None and compare(value, bound)
    return threshold


class _CompiledRule:
    """One rule with its per-rule constants computed once."""

    __slots__ = ("rule", "name", "order", "when", "clear", "needed",
                 "targets")

    def __init__(self, rule, history):
        self.rule = rule
        self.name = rule.name
        self.order = (rule.priority, rule.name)
        self.when = _compile(rule.when, history)
        self.clear = None if rule.clear is None \
            else _compile(rule.clear, history)
        self.needed = max(leaf.for_epochs for leaf in rule.when.leaves())
        self.targets = frozenset(target_key(action)
                                 for action in rule.actions)


class RuleEvaluator:
    """Stateful predicate evaluation with damping (module docstring)."""

    def __init__(self, max_actions_per_epoch=None):
        self.max_actions_per_epoch = max_actions_per_epoch
        self._states = {}
        self._history = []
        self._rules = None
        #: ``(key, bounds, members, cut, tail)`` per indexed bucket.
        self._buckets = []
        #: Compiled rules outside the index (closure every epoch).
        self._others = []
        #: Compiled rules of the current set that are armed or latched.
        self._live = set()

    def _rebuild(self, rules):
        """Compile ``rules`` (a tuple) and index its threshold rules."""
        self._rules = rules
        compiled = []
        seen = set()
        for rule in rules:
            if rule.name not in seen:
                seen.add(rule.name)
                compiled.append(_CompiledRule(rule, self._history))
        buckets = {}
        self._others = []
        for entry in compiled:
            when = entry.rule.when
            if when.kind == "threshold" and when.op in _INDEXED_OPS:
                buckets.setdefault((when.key, when.op), []).append(entry)
            else:
                self._others.append(entry)
        self._buckets = []
        for (key, op), members in buckets.items():
            members.sort(key=lambda entry: entry.rule.when.value)
            cut, tail = _INDEXED_OPS[op]
            self._buckets.append((
                key, [entry.rule.when.value for entry in members],
                members, cut, tail))
        self._live = set()
        for entry in compiled:
            state = self._states.get(entry.name)
            if state is not None and (state.streak or state.latched):
                self._live.add(entry)

    # ------------------------------------------------------------------
    # the epoch
    # ------------------------------------------------------------------
    def evaluate(self, rules, context, now_ns):
        """Run one epoch; returns ``(firings, suppressed)``.

        ``firings`` is the conflict-resolved, priority-ordered list of
        :class:`Firing`; ``suppressed`` maps reason (``"hysteresis"``,
        ``"cooldown"``, ``"exhausted"``, ``"conflict"``) to a count.
        """
        history = self._history
        history.append(context)
        if len(history) > HISTORY_EPOCHS:
            del history[0]
        rules = tuple(rules)
        if rules != self._rules:
            self._rebuild(rules)
        holding = []
        get = context.get
        for key, bounds, members, cut, tail in self._buckets:
            value = get(key)
            if value is None or value != value:
                continue
            at = cut(bounds, value)
            if tail:
                if at < len(members):
                    holding.extend(members[at:])
            elif at:
                holding.extend(members[:at])
        for entry in self._others:
            if entry.when(context):
                holding.append(entry)
        suppressed = {"hysteresis": 0, "cooldown": 0,
                      "exhausted": 0, "conflict": 0}
        states = self._states
        live = self._live
        if live:
            for entry in live.difference(holding):
                state = states[entry.name]
                state.streak = 0
                if state.latched and (entry.clear is None
                                      or entry.clear(context)):
                    state.latched = False
                if not state.latched:
                    live.discard(entry)
        candidates = []
        for entry in holding:
            live.add(entry)
            state = states.get(entry.name)
            if state is None:
                state = states[entry.name] = _RuleState()
            elif state.latched and (entry.clear is None
                                    or entry.clear(context)):
                state.latched = False
            state.streak += 1
            if state.streak < entry.needed or state.latched:
                suppressed["hysteresis"] += 1
                continue
            rule = entry.rule
            if rule.max_firings is not None \
                    and state.firings >= rule.max_firings:
                suppressed["exhausted"] += 1
                continue
            if rule.cooldown_ns and state.last_fired_ns is not None \
                    and now_ns - state.last_fired_ns < rule.cooldown_ns:
                suppressed["cooldown"] += 1
                continue
            candidates.append(entry)
        candidates.sort(key=_ORDER)
        firings = []
        claimed = set()
        budget = self.max_actions_per_epoch
        for entry in candidates:
            if not claimed.isdisjoint(entry.targets) or (
                    budget is not None and len(firings) >= budget):
                suppressed["conflict"] += 1
                continue
            claimed |= entry.targets
            state = states[entry.name]
            state.last_fired_ns = now_ns
            state.firings += 1
            state.latched = entry.clear is not None
            firings.append(Firing(entry.rule, now_ns))
        return firings, suppressed
