"""Context providers: live platform state as named parameters.

A *context parameter* is one number with a stable name --
``deadline_miss_rate``, ``dispatch_latency_p99``, ``alive_nodes`` --
sampled once per adaptation epoch.  Rules (:mod:`repro.adapt.rules`)
predicate over these names only; they never touch an instrument, a
kernel or a registry themselves.  That indirection is the Context
Provider half of the CoBAUI split: providers translate *platform*
vocabulary (telemetry instruments, task stats, membership tables) into
*rule* vocabulary, and everything downstream is plain data.

Windowing
---------
Telemetry instruments are cumulative: a counter only ever grows and a
histogram keeps every sample since boot.  A rule like "miss rate above
2%" is about *now*, not about the whole run, so
:class:`TelemetryContextProvider` snapshots instrument state each epoch
and publishes the **delta** since the previous epoch.  Percentiles are
approximated from the delta of the histogram's bucket counts: the
reported ``p99`` is the smallest bucket upper bound covering 99% of the
window's samples (exact summary stats only exist cumulatively --
:class:`~repro.telemetry.metrics.Histogram` carries no per-sample
memory).

Node scoping
------------
In a federation every node shares one simulator and therefore one
telemetry switchboard, so the ``rtos`` registry aggregates the whole
fleet.  :class:`ClusterContextProvider` recovers per-node visibility
from each node's *public* kernel task list (``kernel.tasks`` /
``task.stats``) and publishes node-scoped parameters under
``<param>@<node>`` -- the form a rule's ``"node"`` field resolves to.

Component scoping
-----------------
The §2.4 management services expose each component's own status.
:class:`ComponentContextProvider` publishes that view under
``<param>#<component>`` -- the form a rule's ``"component"`` field
resolves to -- so per-component QoS checks (deadline misses, budget
overuse) are ordinary rules.  It is opt-in: every ``get_status()``
summarises the task's whole latency series, too costly to pay each
epoch on a controller whose rules never read the view.
"""

import math

from repro.core.management import MANAGEMENT_SERVICE_INTERFACE
from repro.sim.engine import MSEC
from repro.telemetry.metrics import DEFAULT_LATENCY_BOUNDS_NS

#: The largest value a grid percentile can report: samples past the
#: last finite histogram bound clamp to it (see
#: :func:`percentile_from_buckets` and docs/ADAPTATION.md).
LATENCY_GRID_MAX_NS = float(DEFAULT_LATENCY_BOUNDS_NS[-1])

#: CPU time a component must have used before its ``budget_ratio`` is
#: published: shorter samples say more about release phase than about
#: budget.
BUDGET_WARMUP_NS = 10 * MSEC

#: Catalog of context parameters the built-in providers can publish.
#: ``range`` is the closed interval of values the parameter can take
#: (``None`` = unbounded on that side); drtlint's DRT504 unreachable-
#: predicate check reads it.  ``node_scoped`` marks parameters that are
#: (also) published per node as ``<param>@<node>``, and
#: ``component_scoped`` those published per component as
#: ``<param>#<component>``.  ``clamp_max`` marks parameters whose
#: reported value saturates at that number even though the underlying
#: quantity is unbounded (histogram-grid percentiles, see
#: :func:`percentile_from_buckets`); drtlint's DRT506
#: unreachable-threshold check reads it.
CONTEXT_PARAMS = {
    "deadline_miss_rate": {
        "description": "deadline misses per release this epoch",
        "range": (0.0, 1.0), "node_scoped": True, "component_scoped": False,
    },
    "deadline_misses": {
        "description": "deadline misses this epoch",
        "range": (0.0, None), "node_scoped": True, "component_scoped": True,
    },
    "budget_ratio": {
        "description": "measured utilization / declared cpuusage "
                       "(after BUDGET_WARMUP_NS of CPU time)",
        "range": (0.0, None), "node_scoped": False, "component_scoped": True,
    },
    "releases": {
        "description": "task releases this epoch",
        "range": (0.0, None), "node_scoped": False, "component_scoped": False,
    },
    "overruns": {
        "description": "WCET overruns this epoch",
        "range": (0.0, None), "node_scoped": False, "component_scoped": False,
    },
    "preemptions": {
        "description": "preemptions this epoch",
        "range": (0.0, None), "node_scoped": False, "component_scoped": False,
    },
    "dispatch_latency_p50": {
        "description": "median dispatch latency this epoch (ns, "
                       "bucket upper bound)",
        "range": (None, None), "node_scoped": False, "component_scoped": False,
        "clamp_max": LATENCY_GRID_MAX_NS,
    },
    "dispatch_latency_p95": {
        "description": "95th-percentile dispatch latency this epoch "
                       "(ns, bucket upper bound)",
        "range": (None, None), "node_scoped": False, "component_scoped": False,
        "clamp_max": LATENCY_GRID_MAX_NS,
    },
    "dispatch_latency_p99": {
        "description": "99th-percentile dispatch latency this epoch "
                       "(ns, bucket upper bound)",
        "range": (None, None), "node_scoped": False, "component_scoped": False,
        "clamp_max": LATENCY_GRID_MAX_NS,
    },
    "dispatch_latency_mean": {
        "description": "mean dispatch latency this epoch (ns)",
        "range": (None, None), "node_scoped": False, "component_scoped": False,
    },
    "active_components": {
        "description": "components currently ACTIVE",
        "range": (0.0, None), "node_scoped": True, "component_scoped": False,
    },
    "quarantines": {
        "description": "components quarantined this epoch",
        "range": (0.0, None), "node_scoped": False, "component_scoped": False,
    },
    "admission_rejections": {
        "description": "admissions rejected this epoch",
        "range": (0.0, None), "node_scoped": False, "component_scoped": False,
    },
    "rt_utilization": {
        "description": "fraction of the epoch the RT domain was busy",
        "range": (0.0, None), "node_scoped": True, "component_scoped": False,
    },
    "alive_nodes": {
        "description": "cluster members currently alive",
        "range": (0.0, None), "node_scoped": False, "component_scoped": False,
    },
    "dead_nodes": {
        "description": "cluster members declared dead",
        "range": (0.0, None), "node_scoped": False, "component_scoped": False,
    },
    "migrations": {
        "description": "migrations begun this epoch",
        "range": (0.0, None), "node_scoped": False, "component_scoped": False,
    },
    "failovers": {
        "description": "failovers begun this epoch",
        "range": (0.0, None), "node_scoped": False, "component_scoped": False,
    },
    "stochastic_violations": {
        "description": "stochastic-contract violations this epoch",
        "range": (0.0, None), "node_scoped": True, "component_scoped": False,
    },
    "stochastic_checks": {
        "description": "stochastic-contract checks evaluated this epoch",
        "range": (0.0, None), "node_scoped": False, "component_scoped": False,
    },
}


def scoped(param, node=None, component=None):
    """The context key for ``param`` on ``node`` or ``component``
    (neither = global)."""
    if component is not None:
        return "%s#%s" % (param, component)
    return param if node is None else "%s@%s" % (param, node)


def _catalog_entry(key):
    """The catalog entry behind a (possibly scoped) context key."""
    return CONTEXT_PARAMS.get(key.split("@", 1)[0].split("#", 1)[0])


def param_range(param):
    """``(lo, hi)`` documented range (``None`` ends = unbounded), or
    ``(None, None)`` for parameters outside the catalog."""
    entry = _catalog_entry(param)
    if entry is None:
        return (None, None)
    return entry["range"]


def param_clamp_max(param):
    """The saturation ceiling of a grid-clamped parameter (the largest
    value it can ever report), or ``None`` for unclamped parameters."""
    entry = _catalog_entry(param)
    if entry is None:
        return None
    return entry.get("clamp_max")


class ContextProvider:
    """One source of context parameters.

    Subclasses (or duck-typed peers registered in OSGi under
    :data:`~repro.adapt.rules.CONTEXT_PROVIDER_INTERFACE`) implement
    :meth:`collect`, returning ``{parameter name: number}`` for the
    epoch ending at ``now_ns``.  Providers own their windowing state;
    the controller merges the dicts (later providers win name clashes).
    """

    def collect(self, now_ns):
        """Sample this provider's parameters; returns a dict."""
        raise NotImplementedError


def percentile_from_buckets(bounds, delta_counts, quantile):
    """Smallest bucket upper bound covering ``quantile`` of the window.

    ``bounds`` are the histogram's upper edges, ``delta_counts`` the
    per-bucket sample counts of this window (``len(bounds) + 1``, the
    tail being the overflow bucket).  Samples in the overflow bucket
    report the last finite bound -- the grid cannot see further.
    Returns ``None`` for an empty window.
    """
    total = sum(delta_counts)
    if total <= 0:
        return None
    rank = max(1, int(math.ceil(quantile * total)))
    cumulative = 0
    for index, count in enumerate(delta_counts):
        cumulative += count
        if cumulative >= rank:
            return float(bounds[min(index, len(bounds) - 1)])
    return float(bounds[-1])


class _Windows(dict):
    """Per-key delta trackers for cumulative counter/gauge values."""

    def delta(self, key, value):
        """``value`` minus ``key``'s previous sample (0 before the
        first)."""
        change = value - self.get(key, 0)
        self[key] = value
        return change


class TelemetryContextProvider(ContextProvider):
    """Global parameters from the platform's telemetry switchboard.

    Reads the public ``rtos`` and ``drcr`` metric registries of one
    :class:`~repro.telemetry.metrics.Telemetry` and publishes the
    windowed parameters of the catalog above.  With telemetry disabled
    every instrument is a null singleton reporting zero, so the
    provider degrades to an empty-but-valid context rather than
    failing.
    """

    def __init__(self, telemetry):
        self._telemetry = telemetry
        self._windows = _Windows()
        self._hist_counts = None
        self._hist_stats = (0, 0.0)  # (count, sum)

    def collect(self, now_ns):
        rtos = self._telemetry.registry("rtos")
        drcr = self._telemetry.registry("drcr")
        misses = self._windows.delta(
            "misses", rtos.counter("deadline_misses_total").value)
        releases = self._windows.delta(
            "releases", rtos.counter("releases_total").value)
        context = {
            "deadline_misses": float(misses),
            "releases": float(releases),
            "deadline_miss_rate":
                misses / releases if releases > 0 else 0.0,
            "overruns": float(self._windows.delta(
                "overruns", rtos.counter("overruns_total").value)),
            "preemptions": float(self._windows.delta(
                "preemptions",
                rtos.counter("preemptions_total").value)),
            "active_components":
                float(drcr.gauge("components_active").value),
            "quarantines": float(self._windows.delta(
                "quarantines",
                drcr.counter("quarantines_total").value)),
            "admission_rejections": float(self._windows.delta(
                "rejections",
                drcr.counter("admission_rejections_total").value)),
        }
        context.update(self._latency_params(
            rtos.histogram("dispatch_latency_ns")))
        return context

    def _latency_params(self, histogram):
        bounds = getattr(histogram, "bounds", None)
        counts = getattr(histogram, "counts", None)
        if not bounds or counts is None:
            return {}
        if self._hist_counts is None:
            self._hist_counts = [0] * len(counts)
        delta = [now - before for now, before
                 in zip(counts, self._hist_counts)]
        self._hist_counts = list(counts)
        stats = histogram.stats
        count, total = stats.count, stats.count * stats.mean
        last_count, last_total = self._hist_stats
        self._hist_stats = (count, total)
        params = {}
        for quantile, name in ((0.50, "dispatch_latency_p50"),
                               (0.95, "dispatch_latency_p95"),
                               (0.99, "dispatch_latency_p99")):
            value = percentile_from_buckets(bounds, delta, quantile)
            if value is not None:
                params[name] = value
        if count > last_count:
            params["dispatch_latency_mean"] = (
                (total - last_total) / (count - last_count))
        return params


class KernelContextProvider(ContextProvider):
    """Per-kernel parameters from public task statistics.

    Sums :class:`~repro.rtos.kernel.TaskStats` over ``kernel.tasks``
    and windows the totals.  With ``node`` given, every parameter is
    published node-scoped (``<param>@<node>``) -- this is how a
    federation gets per-node miss rates out of a shared telemetry
    switchboard.
    """

    def __init__(self, kernel, node=None):
        self._kernel = kernel
        self._node = node
        self._windows = _Windows()
        # The first window runs from the kernel's build, not from t0.
        self._last_now = kernel.built_ns

    def collect(self, now_ns):
        kernel = self._kernel
        misses = activations = 0
        for task in kernel.tasks:
            stats = task.stats
            misses += stats.deadline_misses
            activations += stats.activations
        misses = self._windows.delta("misses", misses)
        activations = self._windows.delta("activations", activations)
        busy = self._windows.delta("busy", kernel.rt_busy_ns())
        elapsed = now_ns - self._last_now
        self._last_now = now_ns
        node = self._node
        return {
            scoped("deadline_misses", node): float(misses),
            scoped("deadline_miss_rate", node):
                misses / activations if activations > 0 else 0.0,
            scoped("rt_utilization", node):
                busy / elapsed if elapsed > 0 else 0.0,
        }


class ClusterContextProvider(ContextProvider):
    """Federation parameters: membership plus per-node kernel stats.

    Publishes the global ``alive_nodes``/``dead_nodes``/``migrations``/
    ``failovers`` parameters from the cluster's public API and
    telemetry, and delegates to one :class:`KernelContextProvider` per
    member for the node-scoped parameters, created the first time an
    epoch finds the member alive -- so a node joined later with
    :meth:`~repro.cluster.federation.Cluster.add_node` publishes them
    too.  Nodes that crash simply stop being sampled; their last
    values drop out of the context (absent parameter = predicate
    false, see the evaluator).
    """

    def __init__(self, cluster):
        self._cluster = cluster
        self._windows = _Windows()
        self._per_node = {}

    def collect(self, now_ns):
        cluster = self._cluster
        alive = cluster.alive_nodes()
        metrics = cluster.sim.telemetry.registry("cluster")
        context = {
            "alive_nodes": float(len(alive)),
            "dead_nodes": float(len(cluster.nodes) - len(alive)),
            "migrations": float(self._windows.delta(
                "migrations",
                metrics.counter("migrations_total").value)),
            "failovers": float(self._windows.delta(
                "failovers",
                metrics.counter("failovers_total").value)),
        }
        for node in alive:
            provider = self._per_node.get(node.name)
            if provider is None:
                provider = self._per_node[node.name] = \
                    KernelContextProvider(node.kernel, node=node.name)
            context.update(provider.collect(now_ns))
            context[scoped("active_components", node.name)] = float(
                len(node.drcr.registry.active()))
        return context


class ComponentContextProvider(ContextProvider):
    """Per-component parameters from the §2.4 management services.

    Each epoch reads ``get_status()`` of every management service
    registered in ``framework`` and publishes, per ACTIVE component,
    ``deadline_misses#<name>`` (windowed like every other counter)
    and, once the component has used :data:`BUDGET_WARMUP_NS` of CPU
    time, ``budget_ratio#<name>``: measured utilization over declared
    ``cpuusage``.  Inactive components publish nothing, so a rule that
    suspended one stops matching it.  Opt-in (see the module
    docstring): pass it in the controller's ``providers``.
    """

    def __init__(self, framework):
        self._framework = framework
        self._windows = _Windows()

    def collect(self, now_ns):
        registry = self._framework.registry
        context = {}
        for reference in registry.get_references(
                MANAGEMENT_SERVICE_INTERFACE):
            status = registry.get_service(reference).get_status()
            if status["state"] != "active":
                continue
            name = status["name"]
            task = status["task"]
            stats = task["stats"]
            misses = stats["deadline_misses"]
            delta = self._windows.delta(name, misses)
            # A redeployed component's task counts from zero again.
            context[scoped("deadline_misses", component=name)] = float(
                delta if delta >= 0 else misses)
            if stats["cpu_time_ns"] >= BUDGET_WARMUP_NS:
                declared = status["contract"]["cpuusage"]
                measured = task["measured_utilization"]
                context[scoped("budget_ratio", component=name)] = (
                    measured / declared if declared > 0 else math.inf)
        return context


class StaticContextProvider(ContextProvider):
    """A fixed parameter map -- test/benchmark scaffolding."""

    def __init__(self, params):
        self.params = dict(params)

    def collect(self, now_ns):
        return dict(self.params)
