"""Metric definitions shared by ``run.py``, ``compare.py`` and the
smoke test.

Two clocks:

* ``sim`` -- simulated time.  Deterministic for a seed: two runs of
  the same code must agree exactly, and ``compare.py`` compares them
  for equality.
* ``wall`` -- host time, i.e. what the simulation costs in Python
  (``host`` marks host memory).  These carry a relative regression
  bound.

:data:`DRIVER_METRICS` are the ``end_to_end`` metrics of
``BENCHMARK.json`` (the smoke test checks that the two agree): each
workload reports every one of them, so their definitions are generic
("the workload's control operation", "its control-path reaction").
:data:`WORKLOAD_METRICS` are the named per-workload metrics, printed
beside them and compared by ``compare.py``.
"""

import math

#: A tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10

#: ``percentile`` value of a metric whose tail is the highest of
#: :data:`TAIL_CHOICES` its sample count supports.
TAIL = "tail"

#: The percentiles a ``TAIL`` metric is chosen from, highest first.
TAIL_CHOICES = (99, 98, 97, 95, 90)


class Metric:
    """One reported metric (definitions: README.md)."""

    __slots__ = ("name", "unit", "clock", "better", "bound", "source",
                 "percentile", "workloads")

    def __init__(self, name, unit, clock, better, bound=None, source=None,
                 percentile=None, workloads=None):
        self.name = name
        self.unit = unit
        self.clock = clock
        self.better = better
        self.bound = bound
        self.source = source
        self.percentile = percentile
        self.workloads = workloads


DRIVER_METRICS = (
    Metric("setup_s", "s", "wall", "lower", bound=0.25),
    Metric("sim_speed", "sim_s/s", "wall", "higher", bound=0.2),
    Metric("peak_rss_mb", "MB", "host", "lower", bound=0.15),
    Metric("op_wall_p50_ms", "ms", "wall", "lower", bound=0.25),
    Metric("reaction_p50_ms", "ms", "sim", "lower", bound=0.15),
    Metric("reaction_tail_ms", "ms", "sim", "lower", bound=0.15),
)

_ALL = ("steady", "churn", "spike", "federation")

WORKLOAD_METRICS = (
    Metric("reconfig_p50_ms", "ms", "wall", "lower", bound=0.25,
           source="reconfig_ms", percentile=50,
           workloads=("churn", "federation")),
    Metric("reconfig_tail_ms", "ms", "wall", "lower", bound=0.25,
           source="reconfig_ms", percentile=TAIL,
           workloads=("churn", "federation")),
    Metric("release_latency_p50_us", "us", "sim", "lower",
           source="release_latency_us", percentile=50,
           workloads=("steady", "spike")),
    Metric("release_latency_p99_us", "us", "sim", "lower",
           source="release_latency_us", percentile=99,
           workloads=("steady", "spike")),
    Metric("deadline_miss_ratio", "ratio", "sim", "lower",
           source="deadline_miss_ratio",
           workloads=("steady", "churn", "spike")),
    Metric("cmd_rtt_p50_ms", "ms", "sim", "lower", source="cmd_rtt_ms",
           percentile=50, workloads=("steady",)),
    Metric("cmd_rtt_p99_ms", "ms", "sim", "lower", source="cmd_rtt_ms",
           percentile=99, workloads=("steady",)),
    Metric("first_release_p99_ms", "ms", "sim", "lower",
           source="first_release_ms", percentile=99, workloads=("churn",)),
    Metric("adapt_reaction_p50_ms", "ms", "sim", "lower",
           source="adapt_reaction_ms", percentile=50, workloads=("spike",)),
    Metric("adapt_reaction_p90_ms", "ms", "sim", "lower",
           source="adapt_reaction_ms", percentile=90, workloads=("spike",)),
    Metric("migration_p99_ms", "ms", "sim", "lower", source="migration_ms",
           percentile=99, workloads=("federation",)),
    Metric("failover_p50_ms", "ms", "sim", "lower", source="failover_ms",
           percentile=50, workloads=("federation",)),
    Metric("op_fail_ratio", "ratio", "count", "lower", bound=0.0,
           workloads=_ALL),
)

#: Per-layer metrics of the traced run: (name, unit, better).
LAYER_METRICS = (
    ("sim.run_self_s", "s", "lower"),
    ("sim.wall_us_per_event", "us", "lower"),
    ("sim.events", "count", "lower"),
    ("rtos.releases", "count", "lower"),
    ("rtos.dispatches", "count", "lower"),
    ("rtos.context_switches", "count", "lower"),
    ("rtos.preemptions", "count", "lower"),
    ("rtos.deadline_misses", "count", "lower"),
    ("hybrid.cmd_send_s", "s", "lower"),
    ("hybrid.commands_sent", "count", "higher"),
    ("hybrid.commands_dropped", "count", "lower"),
    ("hybrid.reply_ratio", "ratio", "higher"),
    ("osgi.bundle_op_s", "s", "lower"),
    ("osgi.bundle_op_p99_ms", "ms", "lower"),
    ("osgi.service_lookups", "count", "lower"),
    ("osgi.filter_cache_hit_ratio", "ratio", "higher"),
    ("core.deploy_batch_s", "s", "lower"),
    ("core.reconfigurations", "count", "lower"),
    ("core.reconfiguration_passes", "count", "lower"),
    ("core.components_skipped", "count", "higher"),
    ("core.admissions", "count", "lower"),
    ("core.admission_rejections", "count", "lower"),
    ("adapt.step_s", "s", "lower"),
    ("adapt.step_p99_ms", "ms", "lower"),
    ("adapt.epochs", "count", "lower"),
    ("adapt.rules_evaluated", "count", "lower"),
    ("adapt.actions", "count", "lower"),
    ("monitor.gof_s", "s", "lower"),
    ("monitor.checks", "count", "lower"),
    ("monitor.quarantines", "count", "lower"),
    ("lint.plan_s", "s", "lower"),
    ("lint.plan_ms_per_check", "ms", "lower"),
    ("lint.plan_checks", "count", "lower"),
    ("cluster.export_plan_s", "s", "lower"),
    ("cluster.api_s", "s", "lower"),
    ("cluster.messages_sent", "count", "lower"),
    ("cluster.probes_sent", "count", "lower"),
    ("cluster.migration_retries", "count", "lower"),
    ("bench.driver_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def percentile(ordered, q):
    """Linear-interpolated percentile of an already sorted list."""
    if not ordered:
        return math.nan
    rank = q / 100.0 * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def beyond(count, q):
    """Samples strictly beyond percentile ``q`` of ``count``."""
    return int(count * (100 - q) / 100.0 + 1e-9)


def tail_percentile(count):
    """The highest of :data:`TAIL_CHOICES` with at least
    :data:`MIN_BEYOND` samples beyond it (the last choice otherwise)."""
    for q in TAIL_CHOICES:
        if beyond(count, q) >= MIN_BEYOND:
            return q
    return TAIL_CHOICES[-1]
