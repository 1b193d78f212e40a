"""repro.adapt -- the declarative adaptation-rule subsystem.

The paper's §2.4/§4 adaptation managers observe the platform through
the management interface and steer deployments at run time; this
package is that loop made declarative, following the CoBAUI
decomposition (SNIPPETS.md):

* **Context Providers** (:mod:`repro.adapt.context`) sample live
  telemetry instruments, kernel task statistics, cluster membership
  and (opt-in) per-component management status into named context
  parameters, windowed per epoch;
* **Rule Providers** (:mod:`repro.adapt.rules`) contribute
  JSON-declared, schema-validated rules -- statically, or hot
  added/removed at run time through the OSGi service registry;
* the **Rule Evaluator** (:mod:`repro.adapt.evaluator`) decides each
  epoch, damped by arming/release hysteresis, per-rule cooldown and
  priority-ordered conflict resolution;
* the **Adaptation Controller** (:mod:`repro.adapt.controller`)
  executes the surviving actions strictly through public APIs: §2.4
  management services, the DRCR's lifecycle/reconfiguration methods,
  graceful degradation, and the cluster coordinator.

Everything is observable as ``adapt.*`` telemetry
(docs/OBSERVABILITY.md), lintable as DRT5xx (docs/STATIC_ANALYSIS.md),
and documented in docs/ADAPTATION.md; ``python -m repro adapt`` runs
the C5 load-spike experiment from EXPERIMENTS.md through the shared
harness in :mod:`repro.experiments`.
"""

from repro.adapt.actions import ACTIONS, target_key, validate_action
from repro.adapt.context import (
    CONTEXT_PARAMS,
    ClusterContextProvider,
    ComponentContextProvider,
    ContextProvider,
    KernelContextProvider,
    StaticContextProvider,
    TelemetryContextProvider,
    scoped,
)
from repro.adapt.controller import ActionError, AdaptationController
from repro.adapt.evaluator import Firing, RuleEvaluator
from repro.adapt.rules import (
    CONTEXT_PROVIDER_INTERFACE,
    RULE_PROVIDER_INTERFACE,
    RULE_SCHEMA_VERSION,
    AdaptationRule,
    JsonRuleProvider,
    Predicate,
    RuleProvider,
    RuleSchemaError,
    StaticRuleProvider,
    load_rule_file,
    parse_rule_document,
)

__all__ = [
    "ACTIONS",
    "CONTEXT_PARAMS",
    "CONTEXT_PROVIDER_INTERFACE",
    "RULE_PROVIDER_INTERFACE",
    "RULE_SCHEMA_VERSION",
    "ActionError",
    "AdaptationController",
    "AdaptationRule",
    "ClusterContextProvider",
    "ComponentContextProvider",
    "ContextProvider",
    "Firing",
    "JsonRuleProvider",
    "KernelContextProvider",
    "Predicate",
    "RuleEvaluator",
    "RuleProvider",
    "RuleSchemaError",
    "StaticContextProvider",
    "StaticRuleProvider",
    "TelemetryContextProvider",
    "load_rule_file",
    "parse_rule_document",
    "scoped",
    "target_key",
    "validate_action",
]
