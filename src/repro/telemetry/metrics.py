"""Metric instruments and the platform-wide registry.

Three instrument kinds, deliberately mirroring the Prometheus/OpenMetrics
vocabulary so operators can map them onto familiar tooling:

* :class:`Counter` -- a monotonically increasing count (dispatches,
  admission rejections, dropped commands);
* :class:`Gauge` -- a value that goes up and down (mailbox depth, live
  component population per lifecycle state);
* :class:`Histogram` -- fixed-bucket distribution built on the existing
  :class:`~repro.sim.stats.RunningStats`, so every histogram also carries
  exact streaming mean/min/max alongside its bucket counts.

Instruments live in a :class:`MetricsRegistry`, one per subsystem
(``sim``, ``rtos``, ``drcr``, ``hybrid``); the registries hang off a
single :class:`Telemetry` object owned by the simulator, so every layer
of the platform reaches the same telemetry through the object graph it
already holds (``kernel.sim.telemetry``, ``drcr.kernel.sim.telemetry``).

Cost discipline
---------------
Instrument updates sit on the kernel's hot paths (a few per dispatch),
so the per-event work is plain attribute arithmetic -- no locks, no
string formatting, no dict lookups after the instrument is created.
Creating instruments *is* a dict lookup (get-or-create), so callers
cache the instrument in an attribute at construction time.
``Telemetry(enabled=False)`` swaps every instrument for a shared null
object whose methods do nothing, which is the single switch that turns
the whole layer off.

Three conventions keep the per-job path short (docs/PERFORMANCE.md):

* **Tallies.**  A layer that counts an event on every job keeps the
  count itself, as an int attribute of an object it owns (the kernel's
  :class:`~repro.rtos.kernel.KernelTally`, each scheduler's
  ``enqueues``/``dequeues``), and bumps it with ``+= 1``.  At
  construction it registers the attribute with the counter --
  ``registry.counter(name).add_source(owner, "attribute")`` -- and the
  counter's ``value`` is its own :meth:`Counter.inc` total plus every
  registered attribute, read at the moment ``value`` is read.  A source
  stays registered for the counter's life, so a counter never
  decreases.  The null counter ignores sources.
* **Batched histograms.**  :meth:`Histogram.observe` appends the sample
  to a pending list; the histogram folds pending samples into its
  buckets and summary statistics, in arrival order, when
  :data:`HISTOGRAM_BATCH` are pending and before every read
  (``counts``, ``stats``, ``count``, ``buckets()``, ``as_dict()``), so
  a read at any point sees every sample.
* **Windowed increments.**  Per-event counters that admit batching are
  folded into one ``inc(n)`` per run window (``sim.events_total`` does
  this inside ``Simulator.run``).
"""

import bisect
import math

from repro.sim.stats import RunningStats

#: Samples a :class:`Histogram` holds pending before it folds them in.
#: Reads fold at once, so this bounds memory, not what a read sees.
HISTOGRAM_BATCH = 256

#: Default histogram buckets for nanosecond latencies.  Scheduling
#: latency in this repository can be *negative* (the calibrated timer
#: fires early; see Table 1), so the grid is symmetric around zero.
DEFAULT_LATENCY_BOUNDS_NS = (
    -50_000, -20_000, -10_000, -5_000, -1_000, 0,
    1_000, 5_000, 10_000, 20_000, 50_000, 100_000, 1_000_000,
)


class MetricsError(ValueError):
    """Raised on metric misuse: name/type clashes, bad bucket bounds."""


class Counter:
    """A monotonically increasing counter.

    Its :attr:`value` is its own :meth:`inc` total plus the int
    attribute of every source registered with :meth:`add_source`.
    """

    __slots__ = ("name", "_count", "_sources")
    kind = "counter"

    def __init__(self, name):
        self.name = name
        self._count = 0
        self._sources = []

    def inc(self, amount=1):
        """Add ``amount`` (default 1; must not be negative)."""
        if amount < 0:
            raise MetricsError("counter %s cannot decrease" % self.name)
        self._count += amount

    def add_source(self, owner, attribute):
        """Also count ``owner.<attribute>``: an int its owner keeps and
        only ever raises (a per-event tally on a hot path)."""
        self._sources.append((owner, attribute))

    @property
    def value(self):
        """The count: own increments plus every source, read now."""
        value = self._count
        for owner, attribute in self._sources:
            value += getattr(owner, attribute)
        return value

    def as_dict(self):
        """Plain-data (JSON-safe) view."""
        return {"type": self.kind, "value": self.value}

    def __repr__(self):
        return "Counter(%s=%d)" % (self.name, self.value)


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("name", "value")
    kind = "gauge"

    def __init__(self, name):
        self.name = name
        self.value = 0

    def set(self, value):
        """Set the gauge to ``value``."""
        self.value = value

    def inc(self, amount=1):
        """Add ``amount`` (may be negative)."""
        self.value += amount

    def dec(self, amount=1):
        """Subtract ``amount``."""
        self.value -= amount

    def as_dict(self):
        """Plain-data (JSON-safe) view."""
        return {"type": self.kind, "value": self.value}

    def __repr__(self):
        return "Gauge(%s=%r)" % (self.name, self.value)


class Histogram:
    """Fixed-bucket histogram with exact streaming summary statistics.

    ``bounds`` are the *upper* bucket edges, strictly increasing; a
    sample ``v`` lands in the first bucket whose bound satisfies
    ``v <= bound``, and samples above the last bound land in the
    implicit overflow (``+inf``) bucket.  Mean/min/max/stdev come from a
    :class:`~repro.sim.stats.RunningStats`, so they are exact regardless
    of the bucket grid.

    :meth:`observe` only appends to a pending list; pending samples are
    folded in arrival order, by the same arithmetic a per-sample fold
    runs, when :data:`HISTOGRAM_BATCH` are pending and before every
    read, so every read sees every sample.
    """

    __slots__ = ("name", "bounds", "_counts", "_stats", "_pending")
    kind = "histogram"

    def __init__(self, name, bounds=DEFAULT_LATENCY_BOUNDS_NS):
        bounds = tuple(bounds)
        if not bounds:
            raise MetricsError("histogram %s needs at least one bound"
                               % name)
        if any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise MetricsError(
                "histogram %s bounds must be strictly increasing: %r"
                % (name, bounds))
        self.name = name
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)
        self._stats = RunningStats()
        self._pending = []

    def observe(self, value):
        """Record one sample (folded in before the next read)."""
        pending = self._pending
        pending.append(value)
        if len(pending) >= HISTOGRAM_BATCH:
            self._fold()

    def _fold(self):
        """Fold the pending samples in, oldest first."""
        pending = self._pending
        if not pending:
            return
        counts = self._counts
        bounds = self.bounds
        for value in pending:
            counts[bisect.bisect_left(bounds, value)] += 1
        self._stats.add_all(pending)
        pending.clear()

    @property
    def counts(self):
        """Per-bucket sample counts; the last is the overflow bucket."""
        self._fold()
        return self._counts

    @property
    def stats(self):
        """The :class:`~repro.sim.stats.RunningStats` of every sample."""
        self._fold()
        return self._stats

    @property
    def count(self):
        """Total number of observed samples."""
        return self.stats.count

    def buckets(self):
        """``(upper_bound, count)`` pairs; the last bound is ``inf``."""
        return list(zip(self.bounds + (math.inf,), self.counts))

    def as_dict(self):
        """Plain-data (JSON-safe) view; min/max are None when empty."""
        stats = self.stats
        empty = stats.count == 0
        return {
            "type": self.kind,
            "count": stats.count,
            "mean": None if empty else stats.mean,
            "min": None if empty else stats.minimum,
            "max": None if empty else stats.maximum,
            "buckets": {
                ("le_%g" % bound if bound != math.inf else "inf"): count
                for bound, count in self.buckets()
            },
        }

    def __repr__(self):
        return "Histogram(%s, n=%d)" % (self.name, self.count)


# ----------------------------------------------------------------------
# null objects: what a disabled Telemetry hands out
# ----------------------------------------------------------------------
class NullCounter:
    """No-op counter (shared singleton: :data:`NULL_COUNTER`)."""

    __slots__ = ()
    kind = "counter"
    name = "null"
    value = 0

    def inc(self, amount=1):
        """Do nothing."""

    def add_source(self, owner, attribute):
        """Ignore the source."""

    def as_dict(self):
        """Empty view."""
        return {}


class NullGauge:
    """No-op gauge (shared singleton: :data:`NULL_GAUGE`)."""

    __slots__ = ()
    kind = "gauge"
    name = "null"
    value = 0

    def set(self, value):
        """Do nothing."""

    def inc(self, amount=1):
        """Do nothing."""

    def dec(self, amount=1):
        """Do nothing."""

    def as_dict(self):
        """Empty view."""
        return {}


class NullHistogram:
    """No-op histogram (shared singleton: :data:`NULL_HISTOGRAM`)."""

    __slots__ = ()
    kind = "histogram"
    name = "null"
    count = 0

    def observe(self, value):
        """Do nothing."""

    def buckets(self):
        """Empty view."""
        return []

    def as_dict(self):
        """Empty view."""
        return {}


NULL_COUNTER = NullCounter()
NULL_GAUGE = NullGauge()
NULL_HISTOGRAM = NullHistogram()


class NullRegistry:
    """Registry returned by a disabled :class:`Telemetry`: every
    instrument request yields the shared null singleton of that kind."""

    __slots__ = ()
    subsystem = "null"

    def counter(self, name):
        """The shared :data:`NULL_COUNTER`."""
        return NULL_COUNTER

    def gauge(self, name):
        """The shared :data:`NULL_GAUGE`."""
        return NULL_GAUGE

    def histogram(self, name, bounds=DEFAULT_LATENCY_BOUNDS_NS):
        """The shared :data:`NULL_HISTOGRAM`."""
        return NULL_HISTOGRAM

    def names(self):
        """Always empty."""
        return []

    def as_dict(self):
        """Always empty."""
        return {}


NULL_REGISTRY = NullRegistry()


# ----------------------------------------------------------------------
# the real registry
# ----------------------------------------------------------------------
class MetricsRegistry:
    """Named instruments for one subsystem, get-or-create semantics.

    Asking twice for the same name returns the same instrument (this is
    how the hybrid bridges of many components aggregate into one set of
    platform-wide counters); asking for the same name with a different
    instrument kind, or a histogram with different bounds, raises
    :class:`MetricsError` -- a metric name means one thing.
    """

    __slots__ = ("subsystem", "_metrics")

    def __init__(self, subsystem=""):
        self.subsystem = subsystem
        self._metrics = {}

    def _get_or_create(self, name, factory, kind):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = factory()
            return metric
        if metric.kind != kind:
            raise MetricsError(
                "metric %s.%s already exists as a %s, not a %s"
                % (self.subsystem, name, metric.kind, kind))
        return metric

    def counter(self, name):
        """Get or create the counter ``name``."""
        return self._get_or_create(name, lambda: Counter(name), "counter")

    def gauge(self, name):
        """Get or create the gauge ``name``."""
        return self._get_or_create(name, lambda: Gauge(name), "gauge")

    def histogram(self, name, bounds=DEFAULT_LATENCY_BOUNDS_NS):
        """Get or create the histogram ``name`` with ``bounds``."""
        metric = self._get_or_create(
            name, lambda: Histogram(name, bounds), "histogram")
        if metric.bounds != tuple(bounds):
            raise MetricsError(
                "histogram %s.%s already exists with bounds %r"
                % (self.subsystem, name, metric.bounds))
        return metric

    def get(self, name):
        """The instrument named ``name``, or None."""
        return self._metrics.get(name)

    def names(self):
        """Instrument names, in creation order."""
        return list(self._metrics)

    def __len__(self):
        return len(self._metrics)

    def __iter__(self):
        return iter(self._metrics.values())

    def as_dict(self):
        """``{name: instrument.as_dict()}`` for the whole subsystem."""
        return {name: metric.as_dict()
                for name, metric in self._metrics.items()}

    def __repr__(self):
        return "MetricsRegistry(%s, %d metrics)" % (self.subsystem,
                                                    len(self._metrics))


class Telemetry:
    """The platform-wide telemetry switchboard.

    One instance per :class:`~repro.sim.engine.Simulator` (and therefore
    per platform); subsystems obtain their :class:`MetricsRegistry` via
    :meth:`registry` and cache the instruments they update.

    ``Telemetry(enabled=False)`` is the single off switch: every
    ``registry()`` call then returns :data:`NULL_REGISTRY`, so all
    instrument updates become no-ops and exports are empty -- no other
    code needs to check a flag.
    """

    __slots__ = ("_enabled", "_registries")

    def __init__(self, enabled=True):
        self._enabled = bool(enabled)
        self._registries = {}

    @property
    def enabled(self):
        """Whether this telemetry records anything."""
        return self._enabled

    def registry(self, subsystem):
        """The :class:`MetricsRegistry` for ``subsystem`` (created on
        first use), or :data:`NULL_REGISTRY` when disabled."""
        if not self._enabled:
            return NULL_REGISTRY
        registry = self._registries.get(subsystem)
        if registry is None:
            registry = self._registries[subsystem] = \
                MetricsRegistry(subsystem)
        return registry

    def subsystems(self):
        """Registered subsystem names, in creation order."""
        return list(self._registries)

    def aggregate(self):
        """The platform-wide flat view: ``{"subsystem.name": instrument}``."""
        flat = {}
        for subsystem, registry in self._registries.items():
            for metric in registry:
                flat["%s.%s" % (subsystem, metric.name)] = metric
        return flat

    def as_dict(self):
        """Nested plain-data view: ``{subsystem: {name: {...}}}``."""
        return {subsystem: registry.as_dict()
                for subsystem, registry in self._registries.items()}

    def __repr__(self):
        return "Telemetry(%s, %d subsystems)" % (
            "enabled" if self._enabled else "disabled",
            len(self._registries))
