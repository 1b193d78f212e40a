"""Declarative adaptation rules: JSON schema, validation, providers.

A rule file is one JSON document::

    {
      "schema_version": 1,
      "rules": [
        {
          "name": "latency-guard",
          "priority": 10,
          "when": {"param": "dispatch_latency_p99", "op": ">",
                   "value": 50000, "for_epochs": 2},
          "clear": {"op": "<=", "value": 20000},
          "then": [{"action": "shed_lowest_priority", "count": 1}],
          "cooldown_ns": 100000000
        }
      ]
    }

``when`` is a predicate tree: a *threshold* leaf (``param``/``op``/
``value``, optional ``node`` or ``component`` scope and ``for_epochs``
arming hysteresis), a *trend* leaf (``param``/``trend``: ``rising`` or
``falling`` over ``epochs`` consecutive observations, at most
:data:`HISTORY_EPOCHS`), or an ``all``/``any`` group of
sub-predicates.  A threshold ``value`` may be infinite but not NaN:
``> NaN`` could never hold and ``!= NaN`` would hold every epoch.
``clear`` (optional) latches the rule after a firing until the clear
condition holds -- release hysteresis.
``then`` is one action or a list; the catalog lives in
:mod:`repro.adapt.actions`.  Lower ``priority`` numbers win conflicts,
matching task priorities everywhere else in this repository.

Validation is eager and total: :func:`parse_rule_document` either
returns fully-checked :class:`AdaptationRule` records or raises
:class:`RuleSchemaError` listing *every* problem -- the same contract
:mod:`repro.lint` wraps into DRT50x diagnostics, so the CLI, the
controller and the linter cannot disagree about what a valid rule is.

Providers
---------
Rules reach the controller through *providers*, mirroring how
``LintResolvingService`` plugs into the DRCR: anything registered in
the OSGi service registry under :data:`RULE_PROVIDER_INTERFACE` with a
``rules()`` method contributes its rules from the next epoch on, and
stops contributing the moment it is unregistered -- hot add/remove
needs no controller cooperation beyond the per-epoch registry query.
The controller reads ``rules()`` when a provider joins, so a provider
changes its rules by re-registering (hot reload is unregister, then
register the re-parsed provider).
"""

import math
import operator

from repro.adapt.actions import validate_action
from repro.adapt.context import CONTEXT_PARAMS, scoped

#: OSGi service interface for rule providers (``rules()`` duck type).
RULE_PROVIDER_INTERFACE = "drcom.adapt.RuleProvider"

#: OSGi service interface for extra context providers (``collect(now)``
#: duck type, see :class:`repro.adapt.context.ContextProvider`).
CONTEXT_PROVIDER_INTERFACE = "drcom.adapt.ContextProvider"

#: Schema version accepted by :func:`parse_rule_document`.
RULE_SCHEMA_VERSION = 1

#: Comparison operators a threshold predicate may use: the schema
#: accepts exactly these keys and the evaluator compiles leaves to
#: these functions (``context value <op> bound``).
OPS = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
    "!=": operator.ne,
}

#: Epochs of context history the evaluator keeps for trend
#: predicates, and so the longest trend a rule may ask for.
HISTORY_EPOCHS = 32

#: Directions a trend predicate may use.
TRENDS = ("rising", "falling")


class RuleSchemaError(ValueError):
    """A rule document failed validation; ``problems`` lists why."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class Predicate:
    """One validated ``when``/``clear`` node.

    ``kind`` is ``"threshold"``, ``"trend"``, ``"all"`` or ``"any"``.
    Leaves carry ``param`` (catalog name), an optional ``node`` or
    ``component`` scope, the context ``key`` those resolve to, and
    either ``op``/``value`` or ``trend``/``epochs``; groups carry
    ``children``.
    """

    __slots__ = ("kind", "param", "node", "component", "key", "op",
                 "value", "trend", "epochs", "for_epochs", "children")

    def __init__(self, kind, param=None, node=None, component=None,
                 op=None, value=None, trend=None, epochs=2, for_epochs=1,
                 children=()):
        self.kind = kind
        self.param = param
        self.node = node
        self.component = component
        #: The context key the evaluator and drtlint read, built once.
        self.key = None if param is None \
            else scoped(param, node, component)
        self.op = op
        self.value = value
        self.trend = trend
        self.epochs = epochs
        self.for_epochs = for_epochs
        self.children = tuple(children)

    def leaves(self):
        """Every threshold/trend leaf under this node (inclusive)."""
        if self.kind in ("all", "any"):
            found = []
            for child in self.children:
                found.extend(child.leaves())
            return found
        return [self]

    def as_dict(self):
        """Plain-data view (round-trips through the JSON schema)."""
        if self.kind in ("all", "any"):
            return {self.kind: [c.as_dict() for c in self.children]}
        if self.kind == "trend":
            data = {"param": self.param, "trend": self.trend,
                    "epochs": self.epochs}
        else:
            data = {"param": self.param, "op": self.op,
                    "value": self.value}
        if self.node is not None:
            data["node"] = self.node
        if self.component is not None:
            data["component"] = self.component
        if self.for_epochs != 1:
            data["for_epochs"] = self.for_epochs
        return data

    def __repr__(self):
        return "Predicate(%r)" % (self.as_dict(),)


class AdaptationRule:
    """One validated rule, ready for the evaluator."""

    __slots__ = ("name", "priority", "when", "clear", "actions",
                 "cooldown_ns", "max_firings")

    def __init__(self, name, when, actions, priority=100, clear=None,
                 cooldown_ns=0, max_firings=None):
        self.name = name
        self.priority = priority
        self.when = when
        self.clear = clear
        self.actions = tuple(actions)
        self.cooldown_ns = cooldown_ns
        self.max_firings = max_firings

    def as_dict(self):
        """Plain-data view (round-trips through the JSON schema)."""
        data = {
            "name": self.name,
            "priority": self.priority,
            "when": self.when.as_dict(),
            "then": [dict(action) for action in self.actions],
        }
        if self.clear is not None:
            data["clear"] = self.clear.as_dict()
        if self.cooldown_ns:
            data["cooldown_ns"] = self.cooldown_ns
        if self.max_firings is not None:
            data["max_firings"] = self.max_firings
        return data

    def __repr__(self):
        return "AdaptationRule(%s, priority=%d)" % (self.name,
                                                    self.priority)


def _is_number(value):
    return isinstance(value, (int, float)) \
        and not isinstance(value, bool)


def _parse_scope(data, field, param, where, problems):
    """Validate a leaf's optional ``node``/``component`` scope; returns
    the scope name or ``None``."""
    name = data.get(field)
    if name is None:
        return None
    if not isinstance(name, str) or not name:
        problems.append("%s: %r must be a non-empty string"
                        % (where, field))
        return None
    if param in CONTEXT_PARAMS \
            and not CONTEXT_PARAMS[param][field + "_scoped"]:
        problems.append("%s: parameter %r is not %s-scoped"
                        % (where, param, field))
    return name


def _parse_predicate(data, where, problems, default_param=None):
    """Validate one predicate node; returns a :class:`Predicate` or
    ``None`` (problems appended either way)."""
    if not isinstance(data, dict):
        problems.append("%s: predicate must be an object, got %r"
                        % (where, type(data).__name__))
        return None
    for group in ("all", "any"):
        if group in data:
            extra = set(data) - {group}
            if extra:
                problems.append(
                    "%s: %r group takes no sibling keys, got %s"
                    % (where, group, sorted(extra)))
            children = data[group]
            if not isinstance(children, list) or not children:
                problems.append("%s: %r must be a non-empty list"
                                % (where, group))
                return None
            parsed = [_parse_predicate(child,
                                       "%s.%s[%d]" % (where, group, i),
                                       problems)
                      for i, child in enumerate(children)]
            if any(child is None for child in parsed):
                return None
            return Predicate(group, children=parsed)
    param = data.get("param", default_param)
    if not isinstance(param, str) or not param:
        problems.append("%s: missing 'param'" % where)
        return None
    if param not in CONTEXT_PARAMS:
        problems.append("%s: unknown context parameter %r"
                        % (where, param))
    node = _parse_scope(data, "node", param, where, problems)
    component = _parse_scope(data, "component", param, where, problems)
    if node is not None and component is not None:
        problems.append("%s: 'node' and 'component' are mutually "
                        "exclusive" % where)
    for_epochs = data.get("for_epochs", 1)
    if not isinstance(for_epochs, int) or isinstance(for_epochs, bool) \
            or for_epochs < 1:
        problems.append("%s: 'for_epochs' must be a positive integer"
                        % where)
        for_epochs = 1
    known = {"param", "node", "component", "for_epochs", "op", "value",
             "trend", "epochs"}
    extra = set(data) - known
    if extra:
        problems.append("%s: unknown keys %s" % (where, sorted(extra)))
    if "trend" in data:
        if "op" in data or "value" in data:
            problems.append("%s: 'trend' excludes 'op'/'value'" % where)
        trend = data["trend"]
        if trend not in TRENDS:
            problems.append("%s: trend must be one of %s, got %r"
                            % (where, "/".join(TRENDS), trend))
            return None
        epochs = data.get("epochs", 2)
        if not isinstance(epochs, int) or isinstance(epochs, bool) \
                or not 2 <= epochs <= HISTORY_EPOCHS:
            problems.append("%s: 'epochs' must be an integer in 2..%d "
                            "(the evaluator keeps %d epochs of history)"
                            % (where, HISTORY_EPOCHS, HISTORY_EPOCHS))
            epochs = 2
        return Predicate("trend", param=param, node=node,
                         component=component, trend=trend,
                         epochs=epochs, for_epochs=for_epochs)
    op = data.get("op")
    if not isinstance(op, str) or op not in OPS:
        problems.append("%s: 'op' must be one of %s, got %r"
                        % (where, " ".join(sorted(OPS)), op))
        return None
    value = data.get("value")
    if not _is_number(value):
        problems.append("%s: 'value' must be a number, got %r"
                        % (where, value))
        return None
    if isinstance(value, float) and math.isnan(value):
        problems.append("%s: 'value' must not be NaN ('> NaN' never "
                        "holds, '!= NaN' always does)" % where)
        return None
    return Predicate("threshold", param=param, node=node,
                     component=component, op=op, value=value,
                     for_epochs=for_epochs)


def _parse_rule(data, index, problems):
    where = "rules[%d]" % index
    if not isinstance(data, dict):
        problems.append("%s: rule must be an object" % where)
        return None
    name = data.get("name")
    if not isinstance(name, str) or not name:
        problems.append("%s: missing 'name'" % where)
        name = "<%s>" % where
    where = "rule %r" % name
    priority = data.get("priority", 100)
    if not isinstance(priority, int) or isinstance(priority, bool):
        problems.append("%s: 'priority' must be an integer" % where)
        priority = 100
    cooldown = data.get("cooldown_ns", 0)
    if not isinstance(cooldown, int) or isinstance(cooldown, bool) \
            or cooldown < 0:
        problems.append("%s: 'cooldown_ns' must be a non-negative "
                        "integer" % where)
        cooldown = 0
    max_firings = data.get("max_firings")
    if max_firings is not None and (
            not isinstance(max_firings, int)
            or isinstance(max_firings, bool) or max_firings < 1):
        problems.append("%s: 'max_firings' must be a positive integer "
                        "or absent" % where)
        max_firings = None
    known = {"name", "priority", "when", "clear", "then",
             "cooldown_ns", "max_firings"}
    extra = set(data) - known
    if extra:
        problems.append("%s: unknown keys %s" % (where, sorted(extra)))
    if "when" not in data:
        problems.append("%s: missing 'when'" % where)
        return None
    when = _parse_predicate(data["when"], "%s when" % where, problems)
    clear = None
    if "clear" in data:
        default_param = None
        if when is not None and when.kind in ("threshold", "trend"):
            default_param = when.param
        clear = _parse_predicate(data["clear"], "%s clear" % where,
                                 problems,
                                 default_param=default_param)
    then = data.get("then")
    if then is None:
        problems.append("%s: missing 'then'" % where)
        return None
    if isinstance(then, dict):
        then = [then]
    if not isinstance(then, list) or not then:
        problems.append("%s: 'then' must be an action or a non-empty "
                        "list of actions" % where)
        return None
    actions = []
    for position, action in enumerate(then):
        action_problems = validate_action(action)
        if action_problems:
            problems.extend("%s then[%d]: %s" % (where, position, p)
                            for p in action_problems)
        else:
            actions.append(dict(action))
    if when is None or len(actions) != len(then):
        return None
    return AdaptationRule(name, when, actions, priority=priority,
                          clear=clear, cooldown_ns=cooldown,
                          max_firings=max_firings)


def parse_rule_document_tolerant(document):
    """Validate a rule document; returns ``(rules, problems)``.

    Rules that validate individually are returned even when sibling
    rules (or the envelope) have problems -- drtlint uses this so one
    malformed rule cannot mask findings about the valid ones.
    """
    problems = []
    if not isinstance(document, dict):
        return [], ["document must be a JSON object"]
    version = document.get("schema_version", RULE_SCHEMA_VERSION)
    if version != RULE_SCHEMA_VERSION:
        problems.append("unsupported schema_version %r (supported: %d)"
                        % (version, RULE_SCHEMA_VERSION))
    extra = set(document) - {"schema_version", "rules"}
    if extra:
        problems.append("unknown top-level keys %s" % sorted(extra))
    rules_data = document.get("rules")
    if not isinstance(rules_data, list):
        problems.append("missing 'rules' list")
        return [], problems
    rules = []
    seen = set()
    for index, data in enumerate(rules_data):
        before = len(problems)
        rule = _parse_rule(data, index, problems)
        if rule is None:
            continue
        if rule.name in seen:
            problems.append("duplicate rule name %r" % rule.name)
        seen.add(rule.name)
        if len(problems) == before:
            rules.append(rule)
    return rules, problems


def parse_rule_document(document):
    """Validate a rule document (a dict) into a list of rules.

    Raises :class:`RuleSchemaError` carrying *every* problem found;
    returns the fully-validated :class:`AdaptationRule` list otherwise.
    """
    rules, problems = parse_rule_document_tolerant(document)
    if problems:
        raise RuleSchemaError(problems)
    return rules


def load_rule_file(path):
    """Parse and validate one rule ``.json`` file into rules."""
    import json
    with open(path, "r", encoding="utf-8") as handle:
        try:
            document = json.load(handle)
        except ValueError as error:
            raise RuleSchemaError(
                ["%s: invalid JSON: %s" % (path, error)]) from error
    return parse_rule_document(document)


class RuleProvider:
    """Base rule provider: a named, stable source of rules."""

    def __init__(self, name="rules"):
        self.name = name

    def rules(self):
        """The provider's rules: read when the provider joins a
        controller; re-register to change rules."""
        raise NotImplementedError

    def register(self, framework, properties=None):
        """Register in ``framework``'s OSGi service registry under
        :data:`RULE_PROVIDER_INTERFACE`; returns the registration
        (``registration.unregister()`` removes the rules again)."""
        merged = {"drcom.adapt.provider": self.name}
        if properties:
            merged.update(properties)
        return framework.registry.register(
            RULE_PROVIDER_INTERFACE, self, properties=merged)

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self.name)


class JsonRuleProvider(RuleProvider):
    """Rules from a JSON document, dict, or ``.json`` file path.

    Validation happens at construction -- a provider that registers
    successfully can never feed the evaluator malformed rules.
    """

    def __init__(self, source, name=None):
        if isinstance(source, str) and source.lstrip().startswith("{"):
            import json
            source = json.loads(source)
        if isinstance(source, dict):
            self._rules = parse_rule_document(source)
            origin = "<document>"
        else:
            self._rules = load_rule_file(source)
            origin = str(source)
        super().__init__(name or origin)

    def rules(self):
        return list(self._rules)


class StaticRuleProvider(RuleProvider):
    """Already-parsed rules -- programmatic construction and tests."""

    def __init__(self, rules, name="static"):
        super().__init__(name)
        self._rules = list(rules)

    def rules(self):
        return list(self._rules)
