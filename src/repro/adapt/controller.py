"""The adaptation controller: the CoBAUI loop, closed.

One :class:`AdaptationController` owns the epoch cadence.  Every
``epoch_ns`` of *simulated* time it

1. merges the context from every provider (built-ins derived from the
   platform, explicitly added ones, and any service registered in OSGi
   under :data:`~repro.adapt.rules.CONTEXT_PROVIDER_INTERFACE`),
2. collects the rule set the same way (local providers plus OSGi
   :data:`~repro.adapt.rules.RULE_PROVIDER_INTERFACE` services -- the
   per-epoch registry query is what makes hot add/remove work; the
   providers' rules are merged again only when that provider list
   differs from the previous epoch's, so a provider's ``rules()`` is
   read when it joins),
3. lets the :class:`~repro.adapt.evaluator.RuleEvaluator` decide (it
   compiles a rule set once, when the merged list changes), and
4. executes the surviving firings.

Execution is deliberately unprivileged: every action goes through the
same public surface an operator script would use -- the §2.4 management
service located by LDAP filter (or :meth:`Cluster.manage` in a
federation), the DRCR's lifecycle and reconfiguration methods, the
graceful-degradation resolver, and the cluster coordinator's
``migrate``/placement path.  The controller holds no back door into
any subsystem, so a rule can never do something the management API
forbids (`tests/integration/test_adaptation_scenario.py` enforces the
no-private-access property over this package).

An action that raises is contained: the error is counted
(``adapt.action_errors_total``), logged in :attr:`history`, and the
epoch continues -- a broken rule degrades to a no-op, it does not take
the control loop down with it.
"""

import time

from repro.adapt.context import (
    ClusterContextProvider,
    KernelContextProvider,
    TelemetryContextProvider,
)
from repro.adapt.evaluator import RuleEvaluator
from repro.adapt.rules import (
    CONTEXT_PROVIDER_INTERFACE,
    RULE_PROVIDER_INTERFACE,
    StaticRuleProvider,
)
from repro.core.management import MANAGEMENT_SERVICE_INTERFACE
from repro.sim.engine import MSEC

#: Default epoch: 50 ms of simulated time.
DEFAULT_EPOCH_NS = 50 * MSEC

#: Wall-clock buckets for ``adapt.action_latency_ns`` (actions run
#: Python code, not simulated code, so this is host time).
ACTION_LATENCY_BOUNDS_NS = (
    1_000, 5_000, 10_000, 50_000, 100_000, 500_000,
    1_000_000, 5_000_000, 10_000_000, 100_000_000,
)

#: Bounded length of :attr:`AdaptationController.history`.
HISTORY_LIMIT = 256

#: Most actions one epoch executes (the evaluator drops the rest as
#: ``conflict`` suppressions).
MAX_ACTIONS_PER_EPOCH = 8


class ActionError(RuntimeError):
    """An action could not be executed (unknown component, no cluster,
    no degradation service, ...)."""


class AdaptationController:
    """Close the telemetry -> rules -> management loop (see module
    docstring).

    Pass exactly one of ``platform`` (a
    :class:`~repro.platform.Platform`, which includes a
    :class:`~repro.cluster.node.ClusterNode`) and ``cluster=`` (a
    :class:`~repro.cluster.federation.Cluster`, for fleet-scope
    adaptation).  Everything else the controller needs is read from
    it; ``set_degradation_cap`` acts on the
    :class:`~repro.faults.recovery.GracefulDegradationService` the
    platform's DRCR consults.
    """

    def __init__(self, platform=None, *, cluster=None,
                 epoch_ns=DEFAULT_EPOCH_NS, providers=(), rules=None):
        if (platform is None) == (cluster is None):
            raise ValueError("AdaptationController takes exactly one "
                             "of a platform and cluster=")
        if epoch_ns <= 0:
            raise ValueError("epoch_ns must be positive")
        self.cluster = cluster
        if cluster is None:
            self.sim = platform.sim
            self.framework = platform.framework
            self.drcr = platform.drcr
            scope = KernelContextProvider(platform.kernel)
        else:
            self.sim = cluster.sim
            self.framework = None
            self.drcr = None
            scope = ClusterContextProvider(cluster)
        self.epoch_ns = epoch_ns
        self.evaluator = RuleEvaluator(
            max_actions_per_epoch=MAX_ACTIONS_PER_EPOCH)
        telemetry = self.sim.telemetry
        self._metrics = metrics = telemetry.registry("adapt")
        self._m_epochs = metrics.counter("epochs_total")
        self._m_evaluated = metrics.counter("rules_evaluated_total")
        self._m_fired = metrics.counter("rules_fired_total")
        self._m_suppressed = metrics.counter("rules_suppressed_total")
        self._m_suppressed_by = {
            reason: metrics.counter(
                "rules_suppressed_%s_total" % reason)
            for reason in ("hysteresis", "cooldown", "exhausted",
                           "conflict")
        }
        self._m_actions = metrics.counter("actions_executed_total")
        self._m_action_errors = metrics.counter("action_errors_total")
        self._m_action_latency = metrics.histogram(
            "action_latency_ns", bounds=ACTION_LATENCY_BOUNDS_NS)
        self._m_rules_loaded = metrics.gauge("rules_loaded")
        self._m_context_params = metrics.gauge("context_params")
        self._context_providers = [TelemetryContextProvider(telemetry),
                                   scope, *providers]
        self._rule_providers = []
        #: The rule providers of the last merge, and its result.
        self._merged_from = None
        self._merged = []
        if rules:
            self.add_rules(rules)
        #: Recent executed/failed actions, newest last (bounded).
        self.history = []
        self._epoch_event = None
        self._running = False

    # ------------------------------------------------------------------
    # providers
    # ------------------------------------------------------------------
    def add_rule_provider(self, provider):
        """Add a local rule provider (its rules are read when it joins;
        re-register to change rules)."""
        self._rule_providers.append(provider)

    def add_rules(self, rules, name="inline"):
        """Wrap already-parsed rules in a local provider."""
        self.add_rule_provider(StaticRuleProvider(rules, name=name))

    def _frameworks(self):
        """Every OSGi framework to query for registered providers."""
        if self.cluster is not None:
            return [node.framework
                    for node in self.cluster.alive_nodes()]
        return [self.framework] if self.framework is not None else []

    def _registered_services(self, interface):
        services = []
        for framework in self._frameworks():
            registry = framework.registry
            for reference in registry.get_references(interface):
                service = registry.get_service(reference)
                if service is not None:
                    services.append(service)
        return services

    def current_rules(self):
        """This epoch's rule set: local providers first, then every
        OSGi-registered provider; first occurrence of a name wins.

        The merge is rebuilt only when the provider list differs from
        the previous call's; until then the same list object is
        returned (treat it as read-only).
        """
        providers = list(self._rule_providers)
        providers.extend(
            self._registered_services(RULE_PROVIDER_INTERFACE))
        if providers != self._merged_from:
            rules = []
            seen = set()
            for provider in providers:
                for rule in provider.rules():
                    if rule.name not in seen:
                        seen.add(rule.name)
                        rules.append(rule)
            self._merged_from = providers
            self._merged = rules
        return self._merged

    def collect_context(self):
        """This epoch's merged context (later providers win clashes)."""
        now = self.sim.now
        context = {}
        providers = list(self._context_providers)
        providers.extend(
            self._registered_services(CONTEXT_PROVIDER_INTERFACE))
        for provider in providers:
            context.update(provider.collect(now))
        return context

    # ------------------------------------------------------------------
    # the epoch
    # ------------------------------------------------------------------
    def start(self):
        """Begin evaluating every ``epoch_ns`` of simulated time."""
        if not self._running:
            self._running = True
            self._arm()
        return self

    def stop(self):
        """Stop evaluating (pending epoch cancelled); also holds when
        called from inside an epoch, by an action or a provider."""
        self._running = False
        if self._epoch_event is not None:
            self._epoch_event.cancel_if_pending()
            self._epoch_event = None

    def _arm(self):
        self._epoch_event = self.sim.schedule(
            self.epoch_ns, self._on_epoch, label="adapt-epoch")

    def _on_epoch(self):
        self._epoch_event = None
        self.step()
        if self._running and self._epoch_event is None:
            self._arm()

    def step(self):
        """Run one epoch now; returns the executed firings."""
        context = self.collect_context()
        rules = self.current_rules()
        self._m_epochs.inc()
        self._m_evaluated.inc(len(rules))
        self._m_rules_loaded.set(len(rules))
        self._m_context_params.set(len(context))
        firings, suppressed = self.evaluator.evaluate(
            rules, context, self.sim.now)
        for reason, count in suppressed.items():
            if count:
                self._m_suppressed.inc(count)
                self._m_suppressed_by[reason].inc(count)
        for firing in firings:
            self._m_fired.inc()
            for action in firing.rule.actions:
                self._run_action(firing.rule, action)
        return firings

    def _run_action(self, rule, action):
        started = time.perf_counter_ns()
        try:
            outcome = self.execute(action)
        except Exception as error:  # contained: see module docstring
            self._m_action_errors.inc()
            self._log(rule, action, "error: %s" % error)
        else:
            self._m_actions.inc()
            self._log(rule, action, outcome)
        finally:
            self._m_action_latency.observe(
                time.perf_counter_ns() - started)

    def _log(self, rule, action, outcome):
        self.history.append({
            "at_ns": self.sim.now,
            "rule": rule.name,
            "action": dict(action),
            "outcome": outcome,
        })
        if len(self.history) > HISTORY_LIMIT:
            del self.history[0]

    # ------------------------------------------------------------------
    # action execution (public APIs only)
    # ------------------------------------------------------------------
    def _require_drcr(self):
        if self.drcr is None:
            raise ActionError("no DRCR attached to this controller")
        return self.drcr

    def _require_cluster(self):
        if self.cluster is None:
            raise ActionError("action needs a cluster, controller has "
                              "none")
        return self.cluster

    def _manage(self, component, op, *args):
        """Route one §2.4 operation through the management service."""
        if self.cluster is not None:
            return self.cluster.manage(component, op, *args)
        if self.framework is None:
            raise ActionError("no framework to locate management "
                              "services in")
        registry = self.framework.registry
        reference = registry.get_reference(
            MANAGEMENT_SERVICE_INTERFACE,
            "(drcom.name=%s)" % component)
        if reference is None:
            raise ActionError("no management service for %r"
                              % component)
        return getattr(registry.get_service(reference), op)(*args)

    def _component_drcr(self, component):
        """The DRCR owning ``component`` (its home node's in a
        federation)."""
        if self.cluster is not None:
            home = self.cluster.deployments.get(component)
            if home is None:
                raise ActionError("component %r is not deployed "
                                  "anywhere" % component)
            return self.cluster.nodes[home].drcr
        return self._require_drcr()

    def execute(self, action):
        """Execute one validated action; returns an outcome string."""
        kind = action["action"]
        if kind in ("suspend", "resume"):
            self._manage(action["component"], kind)
            return "%s %s" % (kind, action["component"])
        if kind == "set_property":
            self._manage(action["component"], "set_property",
                         action["property"], action["value"])
            return "set %s.%s=%r" % (action["component"],
                                     action["property"],
                                     action["value"])
        if kind == "enable":
            self._component_drcr(
                action["component"]).enable_component(
                    action["component"])
            return "enable %s" % action["component"]
        if kind == "disable":
            self._component_drcr(
                action["component"]).disable_component(
                    action["component"])
            return "disable %s" % action["component"]
        if kind == "shed_lowest_priority":
            from repro.faults.recovery import shed_lowest_priority
            drcr = self._require_drcr()
            shed = []
            for _ in range(action.get("count", 1)):
                victim = shed_lowest_priority(drcr,
                                              cpu=action.get("cpu"))
                if victim is None:
                    break
                shed.append(victim)
            return "shed %s" % (", ".join(shed) or "nothing")
        if kind == "set_degradation_cap":
            from repro.faults.recovery import GracefulDegradationService
            drcr = self._require_drcr()
            # The resolvers the DRCR consults: its internal policy and
            # its customized resolving services.
            services = [service for service
                        in [drcr.internal_policy]
                        + drcr.customized_resolving_services()
                        if isinstance(service, GracefulDegradationService)]
            if not services:
                raise ActionError("the DRCR consults no "
                                  "GracefulDegradationService")
            for service in services:
                service.cap = float(action["cap"])
            drcr.reconfigure()
            return "degradation cap -> %.2f" % action["cap"]
        if kind == "reconfigure":
            self._require_drcr().reconfigure(
                full=action.get("full", True))
            return "reconfigured"
        if kind == "migrate":
            migration = self._require_cluster().migrate(
                action["component"], dst=action.get("dst"))
            return "migrate %s (%s)" % (action["component"], migration)
        if kind == "rebalance":
            return self._rebalance(action)
        raise ActionError("unknown action kind %r" % kind)

    def _rebalance(self, action):
        cluster = self._require_cluster()
        node_name = action.get("node")
        if node_name is None:
            alive = cluster.alive_nodes()
            if not alive:
                raise ActionError("no alive nodes to rebalance")
            node = max(alive,
                       key=lambda n: (len(n.drcr.registry.active()),
                                      n.name))
            node_name = node.name
        elif node_name not in cluster.nodes:
            raise ActionError("unknown node %r" % node_name)
        node = cluster.nodes[node_name]
        moved = []
        for _ in range(action.get("count", 1)):
            candidates = [component for component
                          in node.drcr.registry.active()
                          if component.name not in moved]
            if not candidates:
                break
            victim = max(candidates,
                         key=lambda c: (c.contract.priority, c.name))
            cluster.migrate(victim.name)
            moved.append(victim.name)
        return "rebalance %s: moved %s" % (node_name,
                                           ", ".join(moved) or
                                           "nothing")

    def report(self):
        """Plain-data summary: counters plus recent action history."""
        counters = {
            name: instrument.value
            for name, instrument in (
                ("epochs_total", self._m_epochs),
                ("rules_evaluated_total", self._m_evaluated),
                ("rules_fired_total", self._m_fired),
                ("rules_suppressed_total", self._m_suppressed),
                ("actions_executed_total", self._m_actions),
                ("action_errors_total", self._m_action_errors),
            )
        }
        return {
            "epoch_ns": self.epoch_ns,
            "counters": counters,
            "history": list(self.history),
        }

    def __repr__(self):
        return "AdaptationController(epoch=%dns)" % self.epoch_ns
