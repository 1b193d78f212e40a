"""Flat metrics export: JSON files and operator-readable text.

Two consumers, two shapes:

* :func:`metrics_dict` / :func:`write_metrics_json` -- the machine
  shape: one JSON object with a nested ``subsystems`` map, suitable for
  diffing runs, feeding dashboards, or archiving next to a Chrome
  trace;
* :func:`format_metrics` -- the human shape: a flat, sorted
  ``subsystem.metric`` table that :func:`repro.core.inspection
  .system_report` appends, so ``python -m repro`` shows the platform's
  counters with no extra flags.

Both shapes are derived from the same
:meth:`~repro.telemetry.metrics.Telemetry.as_dict` data, so they can
never drift from each other.  :func:`check_writable` lets a CLI refuse
an unusable output path (a metrics dump, a trace, a report) before it
runs.
"""

import json
import os

#: Schema version of the metrics JSON document.
METRICS_FORMAT_VERSION = 1


def check_writable(*paths):
    """Raise the :class:`OSError` that writing any of ``paths`` would
    raise, so a CLI can refuse an unusable output path before it runs.

    Empty entries (an option not given) are skipped.  A file this
    creates is removed again; an existing one is left as it is.
    """
    for path in paths:
        if not path:
            continue
        existed = os.path.lexists(path)
        with open(path, "a", encoding="utf-8"):
            pass
        if not existed:
            os.remove(path)


def metrics_dict(telemetry):
    """The machine-shape document for one :class:`Telemetry`."""
    return {
        "version": METRICS_FORMAT_VERSION,
        "enabled": telemetry.enabled,
        "subsystems": telemetry.as_dict(),
    }


def write_metrics_json(telemetry, path, indent=2):
    """Write :func:`metrics_dict` to ``path``; returns the document."""
    document = metrics_dict(telemetry)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=indent, sort_keys=True)
        handle.write("\n")
    return document


def _format_value(metric_data):
    if metric_data["type"] == "histogram":
        if metric_data["count"] == 0:
            return "n=0"
        return "n=%d mean=%.1f min=%g max=%g" % (
            metric_data["count"], metric_data["mean"],
            metric_data["min"], metric_data["max"])
    value = metric_data["value"]
    return "%g" % value if isinstance(value, float) else str(value)


def format_metrics(telemetry):
    """The human shape: one ``subsystem.metric  value`` line each,
    sorted; ``"(telemetry disabled)"`` / ``"(no metrics)"`` when there
    is nothing to show."""
    if not telemetry.enabled:
        return "(telemetry disabled)"
    lines = []
    for subsystem, metrics in sorted(telemetry.as_dict().items()):
        for name, data in sorted(metrics.items()):
            lines.append("%-44s %s" % ("%s.%s" % (subsystem, name),
                                       _format_value(data)))
    return "\n".join(lines) if lines else "(no metrics)"
