"""The batched histogram against the per-sample one it replaced.

``Histogram.observe`` only appends to a pending list, and the histogram
folds pending samples in when ``HISTOGRAM_BATCH`` are pending and
before every read.  ``ReferenceHistogram`` below keeps the per-sample
``observe`` -- one bisect and one ``RunningStats.add`` per sample -- and
is kept here, and only here, as the reference.

On drawn sample streams (negative and positive ints, floats and
repeats), read through one of ``counts``, ``stats``, ``count``,
``buckets()`` and ``as_dict()`` after drawn runs of samples (on either
side of the batch size among them), the two must agree exactly: bucket
counts, count, mean, m2, min and max under ``==``.
"""

import bisect
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.stats import RunningStats
from repro.telemetry.metrics import (
    DEFAULT_LATENCY_BOUNDS_NS,
    HISTOGRAM_BATCH,
    Histogram,
)


class ReferenceHistogram:
    """The per-sample histogram: every sample folded as it arrives."""

    def __init__(self, bounds):
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.stats = RunningStats()

    def observe(self, value):
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.stats.add(value)

    @property
    def count(self):
        return self.stats.count

    def buckets(self):
        return list(zip(self.bounds + (math.inf,), self.counts))

    def as_dict(self):
        empty = self.stats.count == 0
        return {
            "type": "histogram",
            "count": self.stats.count,
            "mean": None if empty else self.stats.mean,
            "min": None if empty else self.stats.minimum,
            "max": None if empty else self.stats.maximum,
            "buckets": {
                ("le_%g" % bound if bound != math.inf else "inf"): count
                for bound, count in self.buckets()
            },
        }


def summary(stats):
    return (stats.count, stats.mean, stats._m2, stats.minimum,
            stats.maximum)


#: Each reader returns what one read path shows.
READERS = {
    "counts": lambda h: list(h.counts),
    "stats": lambda h: summary(h.stats),
    "count": lambda h: h.count,
    "buckets": lambda h: h.buckets(),
    "as_dict": lambda h: h.as_dict(),
}

samples = st.one_of(
    st.integers(min_value=-200_000, max_value=2_000_000),
    st.floats(min_value=-1e6, max_value=1e7, allow_nan=False),
    st.sampled_from([-50_000, 0, 0.1, 1_000, 999.5, 1_000_000]))

#: Samples observed before a read: short runs, and runs on either side
#: of the batch size and of twice it.
runs = st.one_of(
    st.integers(min_value=0, max_value=40),
    st.sampled_from([HISTOGRAM_BATCH - 1, HISTOGRAM_BATCH,
                     HISTOGRAM_BATCH + 1, 2 * HISTOGRAM_BATCH - 1,
                     2 * HISTOGRAM_BATCH, 2 * HISTOGRAM_BATCH + 3]))


@st.composite
def streams(draw):
    """A sample pattern, cycled into a stream (so repeats are common),
    and the reads: ``(samples before the read, reader)`` pairs."""
    pattern = draw(st.lists(samples, min_size=1, max_size=24))
    reads = draw(st.lists(st.tuples(runs, st.sampled_from(sorted(READERS))),
                          min_size=1, max_size=5))
    bounds = draw(st.sampled_from([DEFAULT_LATENCY_BOUNDS_NS,
                                   (0, 10, 20), (1_000,)]))
    return pattern, reads, bounds


@settings(max_examples=200, deadline=None)
@given(streams())
def test_the_batched_histogram_agrees_with_its_reference(stream):
    pattern, reads, bounds = stream
    histogram = Histogram("lat", bounds)
    reference = ReferenceHistogram(bounds)
    position = 0
    for run, reader in reads:
        for _ in range(run):
            value = pattern[position % len(pattern)]
            position += 1
            histogram.observe(value)
            reference.observe(value)
        assert READERS[reader](histogram) == READERS[reader](reference)
    for read in READERS.values():
        assert read(histogram) == read(reference)


def test_a_full_batch_folds_without_a_read():
    histogram = Histogram("lat", (0,))
    for value in range(HISTOGRAM_BATCH + 1):
        histogram.observe(value)
    assert histogram._stats.count == HISTOGRAM_BATCH
    assert histogram.count == HISTOGRAM_BATCH + 1
