"""Compare two revisions on benchmark E1 with identical benchmark code.

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py REV_A REV_B [--pairs 10] [--seed N]
                                      [--workload W] [--seconds S]

Both revisions are exported with ``git archive`` into a temporary
directory, and this checkout's ``benchmarks/e2e`` is copied over each
export, so the two sides differ only in the program.  Every pair runs
A and B back to back with the same seed, alternating which side goes
first.  For each workload and metric the table shows each side's
median and quartiles, the fraction of pairs B won (ties count for
neither) and a verdict:

* simulated-time metrics must be ``identical``; anything else is
  ``changed`` (behaviour moved, not speed);
* wall and host metrics are ``improved`` when B wins at least 9 pairs
  in 10 and the medians differ by more than A's quartile spread,
  ``regressed`` when B's median is worse than A's by more than the
  metric's bound, ``unresolved`` when A's own spread is wider than the
  bound and B does not beat (or lose to) A in every pair, and
  ``within bound`` otherwise;
* ``op_fail_ratio`` regresses on any increase.

Exit status 1 when any metric regressed or changed.
"""

import argparse
import io
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

from catalogue import DRIVER_METRICS, WORKLOAD_METRICS  # noqa: E402
from run import parse_reports  # noqa: E402

METRICS = {metric.name: metric for metric in DRIVER_METRICS
           + WORKLOAD_METRICS}


def export(rev, into):
    """``git archive`` of ``rev`` plus this checkout's benchmark."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive",
                              "--format=tar", rev], check=True,
                             stdout=subprocess.PIPE).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    target = Path(into) / "benchmarks" / "e2e"
    shutil.rmtree(target, ignore_errors=True)
    shutil.copytree(HERE, target,
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    return Path(into)


def run_side(tree, args):
    command = [sys.executable, str(tree / "benchmarks/e2e/run.py"),
               "--seed", str(args.seed), "--seconds", repr(args.seconds)]
    if args.workload:
        command += ["--workload", args.workload]
    proc = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE,
                          text=True)
    reports = parse_reports(proc.stdout)
    if not reports:
        raise SystemExit("%s produced no report (exit %d)"
                         % (tree, proc.returncode))
    return reports


def collect(reports):
    values = {}
    for workload, report in reports.items():
        for name, entry in list(report["metrics"].items()) \
                + list(report["workload_metrics"].items()):
            values[(workload, name)] = entry["value"]
    return values


def verdict(metric, a, b):
    """Verdict and B's win fraction for one metric."""
    lower = metric.better == "lower"
    wins = sum(1 for x, y in zip(a, b) if (y < x if lower else y > x))
    win_fraction = wins / len(a)
    if metric.clock == "sim":
        return ("identical" if len(set(a + b)) == 1 else "changed"), \
            win_fraction
    if metric.clock == "count":
        return ("regressed" if max(b) > max(a) else "within bound"), \
            win_fraction
    med_a, med_b = statistics.median(a), statistics.median(b)
    q1, q3 = quartiles(a)
    worse = (med_b - med_a) if lower else (med_a - med_b)
    limit = metric.bound * abs(med_a)
    all_better = all((y < x) if lower else (y > x) for x in a for y in b)
    all_worse = all((y > x) if lower else (y < x) for x in a for y in b)
    noisy = q3 - q1 > limit
    if win_fraction >= 0.9 and -worse > q3 - q1:
        return "improved", win_fraction
    if worse > limit:
        return ("unresolved" if noisy and not all_worse
                else "regressed"), win_fraction
    if noisy and not all_better:
        return "unresolved", win_fraction
    return "within bound", win_fraction


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("rev_a")
    parser.add_argument("rev_b")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload",
                        choices=("steady", "churn", "spike", "federation"))
    parser.add_argument("--seconds", type=float, default=15.0)
    args = parser.parse_args(argv)
    samples = {"A": {}, "B": {}}
    with tempfile.TemporaryDirectory(prefix="e2e-compare-") as scratch:
        trees = {"A": export(args.rev_a, Path(scratch) / "a"),
                 "B": export(args.rev_b, Path(scratch) / "b")}
        for pair in range(args.pairs):
            order = ("A", "B") if pair % 2 == 0 else ("B", "A")
            for side in order:
                for key, value in collect(run_side(trees[side],
                                                   args)).items():
                    samples[side].setdefault(key, []).append(value)
            print("pair %d/%d done (%s first)" % (pair + 1, args.pairs,
                                                  order[0]), flush=True)
    print("\n%-11s %-24s %-5s %12s %25s %12s %25s %5s  %s"
          % ("workload", "metric", "clock", "A median", "A quartiles",
             "B median", "B quartiles", "win", "verdict"))
    bad = 0
    for key in sorted(samples["A"]):
        workload, name = key
        metric = METRICS[name]
        a, b = samples["A"][key], samples["B"].get(key)
        if b is None or len(b) != len(a):
            print("%-11s %-24s missing on B" % key)
            bad += 1
            continue
        result, win = verdict(metric, a, b)
        bad += result in ("regressed", "changed")
        qa, qb = quartiles(a), quartiles(b)
        print("%-11s %-24s %-5s %12.6g [%11.6g, %11.6g] %12.6g "
              "[%11.6g, %11.6g] %4.0f%%  %s"
              % (workload, name, metric.clock, statistics.median(a),
                 qa[0], qa[1], statistics.median(b), qb[0], qb[1],
                 100 * win, result))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
