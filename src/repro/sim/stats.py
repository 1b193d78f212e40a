"""Streaming statistics.

The paper's Table 1 reports AVERAGE, AVEDEV, MIN and MAX of scheduling
latency.  AVEDEV is the Excel-style *mean absolute deviation from the
mean*, which cannot be computed in one streaming pass; the benchmarks
therefore collect full sample series (:class:`SampleSeries`) for latency,
while long-running kernel counters use the cheap :class:`RunningStats`.
"""

import math


class RunningStats:
    """Single-pass mean/variance/min/max via Welford's algorithm."""

    __slots__ = ("count", "mean", "_m2", "minimum", "maximum")

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value):
        """Fold one sample into the statistics."""
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def add_all(self, values):
        """Fold ``values`` in order, by the arithmetic :meth:`add` runs
        per sample, so the result is bit-identical to calling it on
        each (a batched histogram folds through here)."""
        count = self.count
        mean = self.mean
        m2 = self._m2
        minimum = self.minimum
        maximum = self.maximum
        for value in values:
            count += 1
            delta = value - mean
            mean += delta / count
            m2 += delta * (value - mean)
            if value < minimum:
                minimum = value
            if value > maximum:
                maximum = value
        self.count = count
        self.mean = mean
        self._m2 = m2
        self.minimum = minimum
        self.maximum = maximum

    @property
    def variance(self):
        """Population variance (0.0 until two samples arrive)."""
        if self.count < 2:
            return 0.0
        return self._m2 / self.count

    @property
    def stdev(self):
        """Population standard deviation."""
        return math.sqrt(self.variance)

    def merge(self, other):
        """Fold another :class:`RunningStats` into this one (Chan merge)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self._m2 = other._m2
            self.minimum = other.minimum
            self.maximum = other.maximum
            return
        total = self.count + other.count
        delta = other.mean - self.mean
        self._m2 += other._m2 + delta * delta * self.count * other.count / total
        self.mean += delta * other.count / total
        self.count = total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    def __repr__(self):
        return ("RunningStats(n=%d, mean=%.2f, stdev=%.2f, min=%s, max=%s)"
                % (self.count, self.mean, self.stdev, self.minimum,
                   self.maximum))


class SampleSeries:
    """A stored sample series with the Table-1 summary statistics."""

    def __init__(self, values=()):
        self._values = list(values)
        #: Append one sample: the sample list's own bound ``append``,
        #: so the kernel's per-job latency sample is one C call.  No
        #: method rebinds ``_values`` (``clear`` empties it in place).
        self.add = self._values.append

    def extend(self, values):
        """Append many samples."""
        self._values.extend(values)

    def clear(self):
        """Drop all samples (start a fresh measurement window)."""
        self._values.clear()

    def __len__(self):
        return len(self._values)

    def __iter__(self):
        return iter(self._values)

    @property
    def values(self):
        """The raw samples, in arrival order (a copy)."""
        return list(self._values)

    @property
    def average(self):
        """Arithmetic mean (``nan`` when empty)."""
        if not self._values:
            return math.nan
        return sum(self._values) / len(self._values)

    @property
    def avedev(self):
        """Mean absolute deviation from the mean -- the paper's AVEDEV."""
        if not self._values:
            return math.nan
        mean = self.average
        return sum(abs(v - mean) for v in self._values) / len(self._values)

    @property
    def minimum(self):
        """Smallest sample (``nan`` when empty)."""
        return min(self._values) if self._values else math.nan

    @property
    def maximum(self):
        """Largest sample (``nan`` when empty)."""
        return max(self._values) if self._values else math.nan

    @property
    def stdev(self):
        """Population standard deviation."""
        if len(self._values) < 2:
            return 0.0
        mean = self.average
        return math.sqrt(
            sum((v - mean) ** 2 for v in self._values) / len(self._values))

    def percentile(self, q):
        """Linear-interpolated percentile, ``q`` in ``[0, 100]``."""
        if not self._values:
            return math.nan
        if not 0 <= q <= 100:
            raise ValueError("percentile out of range: %r" % (q,))
        ordered = sorted(self._values)
        if len(ordered) == 1:
            return ordered[0]
        rank = (q / 100.0) * (len(ordered) - 1)
        low = int(math.floor(rank))
        high = int(math.ceil(rank))
        if low == high:
            return ordered[low]
        frac = rank - low
        return ordered[low] * (1.0 - frac) + ordered[high] * frac

    def summary(self):
        """Return the Table-1 row: average / avedev / min / max."""
        return {
            "average": self.average,
            "avedev": self.avedev,
            "min": self.minimum,
            "max": self.maximum,
            "count": len(self._values),
        }


def summarize(values):
    """Shorthand: build a series from ``values`` and return its summary."""
    return SampleSeries(values).summary()
