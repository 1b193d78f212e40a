#!/usr/bin/env python3
"""Scaling guardrails: fail if a benchmark regressed >2x.

Usage::

    python benchmarks/check_scaling_guardrail.py \
        BENCH_scaling_drcr.json benchmarks/baselines/BENCH_scaling_drcr.json

Compares a fresh benchmark document against the committed baseline of
the same ``benchmark``.  The fresh document declares what to check in
its ``guards`` map (``write_bench`` in ``benchmarks/conftest.py``),
``{path: {better, cap?, floor?, ladder?}}``, and one loop checks each
entry:

* ``cap``: the value must not exceed it, even when the baseline lacks
  the path;
* ``ladder``: the named path (``fleet_sizes``, ``gossip.node_sizes``)
  must be equal in both documents, else the relative check is skipped;
* a path missing from the baseline skips the relative check;
* the relative check, at ``TOLERANCE``: for ``better: lower``
  ``value <= TOLERANCE * max(baseline, floor)``, for ``better: higher``
  ``max(baseline, floor) / value <= TOLERANCE``.

A path is dotted keys, list indexes (``rows.-1.lint_ms``) and
``field=value`` selectors (``rows.workload=drain.events_per_s``).
Exit status 1 on any regression; 2 on unusable input: mismatched
benchmarks, no guards, or a guarded path missing from the fresh
document.
"""

import json
import sys

TOLERANCE = 2.0


def load(path):
    with open(path) as handle:
        return json.load(handle)


def resolve(document, path):
    """The value at ``path`` in ``document``, or None if absent."""
    node = document
    try:
        for part in path.split("."):
            if isinstance(node, list) and "=" in part:
                field, value = part.split("=", 1)
                node = next((item for item in node
                             if isinstance(item, dict)
                             and str(item.get(field)) == value), None)
            elif isinstance(node, list):
                node = node[int(part)]
            else:
                node = node[part]
    except (LookupError, TypeError, ValueError):
        return None
    return node


def check(current, baseline):
    """Check ``current``'s guards against ``baseline``; returns the
    exit status."""
    kind = current.get("benchmark")
    if kind != baseline.get("benchmark"):
        print("benchmark kinds differ: %r vs %r"
              % (kind, baseline.get("benchmark")))
        return 2
    guards = current.get("guards")
    if not guards:
        print("no guards declared for benchmark %r" % (kind,))
        return 2
    failures = []

    def report(label, value, relation, bound, holds):
        verdict = "ok" if holds else "REGRESSED"
        print("%-48s %12.3f %s %12.3f  %s"
              % (label, value, relation, bound, verdict))
        if not holds:
            failures.append(label)

    for path, guard in guards.items():
        ladder = guard.get("ladder")
        value = resolve(current, path)
        steps = resolve(current, ladder) if ladder else None
        if value is None or (ladder and steps is None):
            print("the document lacks guarded path %s"
                  % (path if value is None else ladder))
            return 2
        if "cap" in guard:
            report(path + " cap", value, "<=", guard["cap"],
                   value <= guard["cap"])
        if ladder and steps != resolve(baseline, ladder):
            print("%s differs (%s vs %s): skipping %s"
                  % (ladder, steps, resolve(baseline, ladder), path))
            continue
        reference = resolve(baseline, path)
        if reference is None:
            print("baseline lacks %s: skipping" % path)
            continue
        reference = max(reference, guard.get("floor", reference))
        if guard.get("better") == "higher":
            report(path, value, ">=", reference / TOLERANCE,
                   reference / max(value, 1e-9) <= TOLERANCE)
        else:
            report(path, value, "<=", TOLERANCE * reference,
                   value <= TOLERANCE * reference)

    if failures:
        print("guardrail FAILED: %s regressed more than %.0fx vs the "
              "committed baseline" % (", ".join(failures), TOLERANCE))
        return 1
    print("guardrail passed")
    return 0


def main(argv):
    if len(argv) != 3:
        print(__doc__)
        return 2
    return check(load(argv[1]), load(argv[2]))


if __name__ == "__main__":
    sys.exit(main(sys.argv))
