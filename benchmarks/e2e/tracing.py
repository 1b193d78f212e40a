"""Wall-clock layer spans recorded from outside the program.

A :class:`Tracer` times calls into the stack's layers and keeps every
span in memory until the run ends.  Spans come from two places, both
in the benchmark's own files:

* call sites in the workload code -- ``tracer.call("osgi.bundle_start",
  bundle.start)`` instead of ``bundle.start()``;
* attributes patched for the traced pass only -- ``controller.step``,
  ``cluster.export_plan`` (instance attributes, which the objects'
  own code looks up through ``self``) and
  ``repro.lint.engine.lint_plan`` / ``repro.monitor.service
  .chi_square_gof`` (module attributes, looked up at call time).

The first dotted component of a span name is its layer (``sim``,
``hybrid``, ``osgi``, ``core``, ``adapt``, ``monitor``, ``lint``,
``cluster``, ``bench``).  A span's self time is its duration minus the
time its child spans cover; whatever no span covers is the benchmark's
own driver time.  Nothing under ``src/`` is instrumented, so work the
program does *inside* a simulator run (kernel dispatch, message
handlers, DRCR rounds triggered by events) is self time of
``sim.run``.

The untraced runs use :data:`NULL_TRACER`, whose ``call`` is a plain
call: end-to-end numbers never pay for spans.
"""

import json
import time

#: Span layers in report order.
LAYERS = ("sim", "hybrid", "osgi", "core", "adapt", "monitor", "lint",
          "cluster", "bench")


class NullTracer:
    """The untraced pass: calls go straight through."""

    enabled = False
    op_id = None

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def patch(self, owner, attr, name):
        """Nothing to patch when tracing is off."""


NULL_TRACER = NullTracer()


class Tracer:
    """Records ``(name, start, end, parent, op_id)`` spans in memory.

    ``op_id`` is the generator operation that caused the span (the
    workload sets it around each operation; spans opened by the
    program's own event loop carry ``None``).
    """

    enabled = True

    def __init__(self):
        self.spans = []
        self.op_id = None
        self._stack = []
        self._patched = []
        self.started = time.perf_counter()

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        spans = self.spans
        index = len(spans)
        parent = self._stack[-1] if self._stack else -1
        spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            spans[index] = (name, start, end, parent, self.op_id)

    def patch(self, owner, attr, name):
        """Replace ``owner.attr`` with a traced wrapper until
        :meth:`restore`."""
        original = getattr(owner, attr)
        had_own = attr in vars(owner)

        def traced(*args, **kwargs):
            return self.call(name, original, *args, **kwargs)

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original, had_own))

    def restore(self):
        """Undo every :meth:`patch`, newest first."""
        while self._patched:
            owner, attr, original, had_own = self._patched.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def self_times(self):
        """Per-span self time (seconds), index-aligned with ``spans``."""
        selfs = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                selfs[parent] -= end - start
        return selfs

    def table(self, wall_s):
        """Per-name rows ``{name: {calls, total_s, self_s, share}}`` and
        per-layer totals ``{layer: self_s}``; time no span covers is
        charged to ``bench``."""
        rows = {}
        for span, self_s in zip(self.spans, self.self_times()):
            name, start, end = span[0], span[1], span[2]
            row = rows.setdefault(name, {"calls": 0, "total_s": 0.0,
                                         "self_s": 0.0, "durations": []})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += self_s
            row["durations"].append(end - start)
        layers = dict.fromkeys(LAYERS, 0.0)
        for name, row in rows.items():
            layers[layer_of(name)] += row["self_s"]
            row["share"] = row["self_s"] / wall_s if wall_s > 0 else 0.0
        layers["bench"] += wall_s - sum(layers.values())
        return rows, layers

    def write(self, path):
        """Write the spans as a Chrome trace (load it in Perfetto)."""
        origin = self.started
        events = [{"name": name, "cat": layer_of(name), "ph": "X",
                   "ts": (start - origin) * 1e6,
                   "dur": (end - start) * 1e6, "pid": 1, "tid": 1,
                   "args": {"span": index, "parent": parent,
                            "op": op_id}}
                  for index, (name, start, end, parent, op_id)
                  in enumerate(self.spans)]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ms"}, handle)


def layer_of(name):
    """The layer a span name belongs to."""
    return name.split(".", 1)[0]
