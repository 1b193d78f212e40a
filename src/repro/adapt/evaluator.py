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
which is what you want when a rule file is hot-reloaded in place.
"""

from repro.adapt.actions import target_key
from repro.adapt.rules import OPS

#: Epochs of context history kept for trend predicates.
HISTORY_EPOCHS = 32


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


class RuleEvaluator:
    """Stateful predicate evaluation with damping (module docstring)."""

    def __init__(self, max_actions_per_epoch=None):
        self.max_actions_per_epoch = max_actions_per_epoch
        self._states = {}
        self._history = []

    # ------------------------------------------------------------------
    # predicates
    # ------------------------------------------------------------------
    def _series(self, key, epochs):
        """The last ``epochs`` observed values of ``key`` (oldest
        first), or ``None`` if any epoch lacks the parameter."""
        if len(self._history) < epochs:
            return None
        window = self._history[-epochs:]
        values = [snapshot.get(key) for snapshot in window]
        if any(value is None for value in values):
            return None
        return values

    def holds(self, predicate, context):
        """Whether ``predicate`` holds against the current context.

        A missing parameter makes a leaf false, never an error: a
        node-scoped parameter disappears when its node dies, and a
        rule about a dead node has nothing left to say.
        """
        kind = predicate.kind
        if kind == "all":
            return all(self.holds(child, context)
                       for child in predicate.children)
        if kind == "any":
            return any(self.holds(child, context)
                       for child in predicate.children)
        key = predicate.key
        if kind == "trend":
            values = self._series(key, predicate.epochs)
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

    # ------------------------------------------------------------------
    # the epoch
    # ------------------------------------------------------------------
    def evaluate(self, rules, context, now_ns):
        """Run one epoch; returns ``(firings, suppressed)``.

        ``firings`` is the conflict-resolved, priority-ordered list of
        :class:`Firing`; ``suppressed`` maps reason (``"hysteresis"``,
        ``"cooldown"``, ``"exhausted"``, ``"conflict"``) to a count.
        """
        self._history.append(context)
        if len(self._history) > HISTORY_EPOCHS:
            del self._history[0]
        suppressed = {"hysteresis": 0, "cooldown": 0,
                      "exhausted": 0, "conflict": 0}
        candidates = []
        for rule in rules:
            state = self._states.get(rule.name)
            if state is None:
                state = self._states[rule.name] = _RuleState()
            if state.latched and (
                    rule.clear is None
                    or self.holds(rule.clear, context)):
                state.latched = False
            if not self.holds(rule.when, context):
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
            firings.append(Firing(rule, now_ns))
        return firings, suppressed
