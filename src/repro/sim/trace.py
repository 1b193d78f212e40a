"""Structured trace recording.

The kernel, the DRCR runtime and the benchmarks all append typed records
to a :class:`TraceRecorder`.  Tests assert on exact record sequences
(for example the admit/deactivate order of the paper's section 4.3
dynamicity scenario), so records are plain, comparable data.
"""


class TraceRecord:
    """One trace record: a timestamp, a category, and free-form fields."""

    __slots__ = ("time", "category", "fields")

    def __init__(self, time, category, /, **fields):
        self.time = time
        self.category = category
        self.fields = fields

    def __getattr__(self, name):
        try:
            return self.fields[name]
        except KeyError:
            raise AttributeError(name) from None

    def __eq__(self, other):
        if not isinstance(other, TraceRecord):
            return NotImplemented
        return (self.time == other.time
                and self.category == other.category
                and self.fields == other.fields)

    def __repr__(self):
        parts = ", ".join(
            "%s=%r" % (key, value) for key, value in self.fields.items())
        return "TraceRecord(t=%d, %s, %s)" % (self.time, self.category,
                                              parts)


class TraceRecorder:
    """Append-only list of :class:`TraceRecord` with category filters."""

    def __init__(self):
        self._records = []
        self._enabled = True

    def __len__(self):
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    @property
    def enabled(self):
        """Whether :meth:`record` currently stores anything."""
        return self._enabled

    def disable(self):
        """Stop recording (records already stored are kept)."""
        self._enabled = False

    def enable(self):
        """Resume recording."""
        self._enabled = True

    def record(self, time, category, /, **fields):
        """Append one record (no-op while disabled)."""
        if self._enabled:
            self._records.append(TraceRecord(time, category, **fields))

    def by_category(self, category):
        """Return all records with the given category, in order."""
        return [r for r in self._records if r.category == category]

    def categories(self):
        """Return the set of categories seen so far."""
        return {r.category for r in self._records}

    def last(self, category=None):
        """Return the most recent record (optionally of a category)."""
        if category is None:
            return self._records[-1] if self._records else None
        for record in reversed(self._records):
            if record.category == category:
                return record
        return None

    def clear(self):
        """Drop all stored records."""
        self._records.clear()
