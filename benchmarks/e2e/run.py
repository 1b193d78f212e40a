"""End-to-end benchmark E1: four full-stack workloads.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workload W] [--seed N]
                                  [--seconds S] [--trace [0|1]]

Without ``--workload`` the four workloads run one after another, each
in its own single-threaded subprocess.  Each run prints a table of
every metric with its unit and clock, one ``E2E-REPORT`` JSON line
(read by ``compare.py`` and the smoke test) and, last, the result
line ``{"correct", "attempted", "failed", "metrics"}``.  It exits 1
when any output check fails and 2 when the program's sources are
missing.

``--seconds`` sizes the measured window (each workload converts it to
simulated time with its calibrated rate).
``--trace`` replaces the end-to-end metrics with per-layer ones: the
workload runs once untraced and once with layer spans, writes
``benchmarks/e2e/out/trace_<workload>.json`` and reports
``trace.overhead_ratio``, the traced pass's host-scaled measured window
over the untraced pass's.
"""

import argparse
import gc
import heapq
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 9

#: Runs of :func:`reference_job` per host probe.
PROBE_REPEATS = 2

#: Seconds :func:`reference_job` takes on the reference machine (a
#: 2-core Xeon VM running CPython 3.11, quiet host).
REFERENCE_JOB_S = 5.0e-3

REPORT_PREFIX = "E2E-REPORT "


class _Timer:
    __slots__ = ("key", "period", "fired")

    def __init__(self, index):
        self.key = index & 63
        self.period = 1 + (index * 7919) % 97
        self.fired = 0


def reference_job():
    """A fixed pure-Python event loop -- a heap of ``__slots__`` timers
    and a dict of counts, shaped like the simulator's hot path but
    independent of the program.

    The host is shared, and how fast it runs Python drifts within a
    run and between runs.  :func:`probe_host` times this job around
    every measured slice and set-up, and each wall time is divided by
    the probe's slowness.  That cancels the host's drift but not a
    change in the program.  :func:`probe_host` runs it with the
    collector off, so the program's heap cannot slow it down."""
    timers = [_Timer(index) for index in range(512)]
    heap = [(index, index, timer) for index, timer in enumerate(timers)]
    heapq.heapify(heap)
    seq = len(heap)
    counts = {}
    for _ in range(8000):
        when, _, timer = heapq.heappop(heap)
        timer.fired += 1
        counts[timer.key] = counts.get(timer.key, 0) + 1
        seq += 1
        heapq.heappush(heap, (when + timer.period, seq, timer))
    return counts


def probe_host():
    """How slowly the host runs Python now: the mean of
    :data:`PROBE_REPEATS` runs of :func:`reference_job`, over
    :data:`REFERENCE_JOB_S` (about 1.0 on the quiet reference machine).
    The mean, not the best run: contention comes in bursts, and the
    slice it scales pays for the bursts too."""
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(PROBE_REPEATS):
            reference_job()
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    return elapsed / PROBE_REPEATS / REFERENCE_JOB_S


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=("steady", "churn", "spike", "federation"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------
def measured_ns(cls, seconds):
    from repro.sim.engine import SEC
    slices = max(1, round(cls.sim_per_wall * seconds * SEC / cls.slice_ns))
    return slices * cls.slice_ns


def drive(episode, tracer, probe=False):
    """Warm up, then run the measured window slice by slice.

    Returns ``(slices, probe_s)``: ``(sim_ns, wall_s, host, ops)`` per
    slice, where ``host`` is the mean of the host probes just before
    and after the slice (``None`` without ``probe``) and ``ops`` the
    length of ``episode.op_wall`` after it; ``probe_s`` is the wall
    time the probes took."""
    from scenarios import WARMUP_NS
    sim = episode.sim
    episode.start()
    tracer.call("sim.run", sim.run_for, WARMUP_NS)
    episode.on_window_open()
    slices = []
    start = time.perf_counter()
    before = probe_host() if probe else None
    probe_s = time.perf_counter() - start
    remaining = episode.inputs["measured_ns"]
    while remaining > 0:
        step = min(episode.slice_ns, remaining)
        start = time.perf_counter()
        tracer.call("sim.run", sim.run_for, step)
        wall = time.perf_counter() - start
        remaining -= step
        host = None
        if probe:
            after = probe_host()
            probe_s += time.perf_counter() - start - wall
            host = (before + after) / 2
            before = after
        slices.append((step, wall, host, len(episode.op_wall)))
    episode.on_window_close()
    episode.stop_load()
    return slices, probe_s


def finish(episode):
    """Drain in-flight work untraced, then check the outputs."""
    from scenarios import DRAIN_NS
    from tracing import NULL_TRACER
    episode.tr = NULL_TRACER
    episode.sim.run_for(DRAIN_NS)
    return episode.finish()


def sim_fingerprint(episode, result):
    """Everything simulated-time about a run, for equality checks."""
    return json.dumps({"attempted": episode.attempted,
                       "failed": episode.failed,
                       "reaction": result["reaction"],
                       "catalogue": result["catalogue"]}, sort_keys=True)


def untraced(cls, inputs):
    """``(episode, setups, slices)``: ``(wall_s, host)`` per set-up, each
    probed like a slice, and the slices of :func:`drive`."""
    from tracing import NULL_TRACER
    setups = []
    for _ in range(SETUPS):
        episode = None
        gc.collect()
        before = probe_host()
        start = time.perf_counter()
        episode = cls(inputs, NULL_TRACER)
        wall = time.perf_counter() - start
        setups.append((wall, (before + probe_host()) / 2))
    slices, _ = drive(episode, NULL_TRACER, probe=True)
    return episode, setups, slices


def host_scaled_ops(episode, slices):
    """Each control operation's wall time over its slice's host probe."""
    scaled = []
    first = 0
    for _, _, host, last in slices:
        scaled += [op / host for op in episode.op_wall[first:last]]
        first = last
    return scaled


def timed_pass(cls, inputs, tracer):
    """Set up and drive one episode.  Returns it with the pass's wall
    seconds (host probes excluded) and its measured window's
    host-scaled wall seconds."""
    start = time.perf_counter()
    episode = cls(inputs, tracer)
    for owner, attr, name in episode.traced_attributes():
        tracer.patch(owner, attr, name)
    slices, probe_s = drive(episode, tracer, probe=True)
    wall = time.perf_counter() - start - probe_s
    return episode, wall, sum(step_wall / host
                              for _, step_wall, host, _ in slices)


def traced(cls, inputs):
    """The untraced reference pass, then the traced pass.

    Returns the traced episode and tracer, the traced pass's wall
    seconds, ``trace.overhead_ratio`` (the passes' host-scaled measured
    windows, traced over untraced), the telemetry counts and the
    reference pass's :func:`sim_fingerprint`."""
    import repro.lint.engine
    import repro.monitor.service
    from tracing import NULL_TRACER, Tracer
    gc.collect()
    reference, _, untraced_window = timed_pass(cls, inputs, NULL_TRACER)
    reference_print = sim_fingerprint(reference, finish(reference))
    reference = None
    gc.collect()

    tracer = Tracer()
    tracer.patch(repro.lint.engine, "lint_plan", "lint.plan")
    tracer.patch(repro.monitor.service, "chi_square_gof", "monitor.gof")
    try:
        episode, wall, traced_window = timed_pass(cls, inputs, tracer)
    finally:
        tracer.restore()
    counts = episode.sim.telemetry.as_dict()
    return (episode, tracer, wall, traced_window / untraced_window, counts,
            reference_print)


def driver_metrics(episode, result, setups, slices, ops):
    """The ``end_to_end`` metrics, wall ones host-scaled (the raw values
    and the median host probe go to the report)."""
    from catalogue import DRIVER_METRICS, percentile
    from repro.sim.engine import MSEC, SEC
    ops = sorted(ops)
    reaction = sorted(result["reaction"])
    raw = {
        "host": statistics.median(host for _, _, host, _ in slices),
        "setup_s": statistics.median(wall for wall, _ in setups),
        "sim_speed": statistics.median(step / SEC / wall
                                       for step, wall, _, _ in slices),
        "op_wall_p50_ms": percentile(sorted(episode.op_wall), 50) * 1e3,
    }
    values = {
        "setup_s": statistics.median(wall / host for wall, host in setups),
        "sim_speed": statistics.median(step / SEC / wall * host
                                       for step, wall, host, _ in slices),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_wall_p50_ms": percentile(ops, 50) * 1e3,
        "reaction_p50_ms": percentile(reaction, 50) / MSEC,
        "reaction_tail_ms": percentile(reaction,
                                       episode.reaction_tail) / MSEC,
    }
    counts = {"setup_s": len(setups), "sim_speed": len(slices),
              "op_wall_p50_ms": len(ops),
              "reaction_p50_ms": len(reaction),
              "reaction_tail_ms": len(reaction)}
    tails = {"reaction_tail_ms": episode.reaction_tail}
    metrics = {metric.name: {"value": values[metric.name],
                             "unit": metric.unit, "clock": metric.clock,
                             "n": counts.get(metric.name),
                             "percentile": tails.get(metric.name)}
               for metric in DRIVER_METRICS}
    return metrics, raw


def workload_metrics(name, episode, result, ops):
    """The named per-workload metrics; ``ops`` are the control
    operations' wall seconds (host-scaled when untraced)."""
    from catalogue import (TAIL, WORKLOAD_METRICS, beyond, percentile,
                           tail_percentile)
    samples = dict(result["catalogue"], reconfig_ms=[op * 1e3 for op in ops])
    metrics = {}
    for metric in WORKLOAD_METRICS:
        if name not in metric.workloads:
            continue
        q = metric.percentile
        if metric.name == "op_fail_ratio":
            value, count = episode.failed / max(1, episode.attempted), \
                episode.attempted
        elif q is None:
            value, count = samples[metric.source], None
        else:
            ordered = sorted(samples[metric.source])
            if q == TAIL:
                q = tail_percentile(len(ordered))
            value, count = percentile(ordered, q), len(ordered)
        entry = {"value": value, "unit": metric.unit,
                 "clock": metric.clock, "n": count, "percentile": q}
        if q not in (None, 50):
            entry["beyond"] = beyond(count, q)
        metrics[metric.name] = entry
    return metrics


def layer_metrics(tracer, wall, overhead, counts):
    """Per-layer numbers of the traced pass (spans + telemetry)."""
    from catalogue import LAYER_METRICS, percentile
    rows, layers = tracer.table(wall)

    def count(subsystem, name):
        return counts.get(subsystem, {}).get(name, {}).get("value", 0)

    def calls(prefix):
        return sum(row["calls"] for name, row in rows.items()
                   if name.startswith(prefix))

    def durations(prefix):
        return sorted(d for name, row in rows.items()
                      if name.startswith(prefix) for d in row["durations"])

    def self_s(prefix):
        return sum(row["self_s"] for name, row in rows.items()
                   if name.startswith(prefix))

    events = count("sim", "events_total")
    sent = count("hybrid", "commands_sent_total")
    hits = count("osgi", "filter_cache_hits_total")
    misses = count("osgi", "filter_cache_misses_total")
    lint_calls = calls("lint.plan")
    values = {
        "sim.run_self_s": self_s("sim.run"),
        "sim.wall_us_per_event": self_s("sim.run") / max(1, events) * 1e6,
        "sim.events": events,
        "rtos.releases": count("rtos", "releases_total"),
        "rtos.dispatches": count("rtos", "dispatches_total"),
        "rtos.context_switches": count("rtos", "context_switches_total"),
        "rtos.preemptions": count("rtos", "preemptions_total"),
        "rtos.deadline_misses": count("rtos", "deadline_misses_total"),
        "hybrid.cmd_send_s": layers["hybrid"],
        "hybrid.commands_sent": sent,
        "hybrid.commands_dropped": count("hybrid", "commands_dropped_total"),
        "hybrid.reply_ratio": count("hybrid", "replies_received_total")
        / sent if sent else 0.0,
        "osgi.bundle_op_s": layers["osgi"],
        "osgi.bundle_op_p99_ms": percentile(durations("osgi."), 99) * 1e3
        if calls("osgi.") else 0.0,
        "osgi.service_lookups": count("osgi", "service_lookups_total"),
        "osgi.filter_cache_hit_ratio": hits / (hits + misses)
        if hits + misses else 0.0,
        "core.deploy_batch_s": layers["core"],
        "core.reconfigurations": count("drcr", "reconfigurations_total"),
        "core.reconfiguration_passes":
            count("drcr", "reconfiguration_passes_total"),
        "core.components_skipped": count("drcr", "components_skipped_total"),
        "core.admissions": count("drcr", "admissions_total"),
        "core.admission_rejections":
            count("drcr", "admission_rejections_total"),
        "adapt.step_s": layers["adapt"],
        "adapt.step_p99_ms": percentile(durations("adapt.step"), 99) * 1e3
        if calls("adapt.step") else 0.0,
        "adapt.epochs": count("adapt", "epochs_total"),
        "adapt.rules_evaluated": count("adapt", "rules_evaluated_total"),
        "adapt.actions": count("adapt", "actions_executed_total"),
        "monitor.gof_s": layers["monitor"],
        "monitor.checks": count("contracts", "checks_total"),
        "monitor.quarantines": count("contracts", "quarantines_total"),
        "lint.plan_s": layers["lint"],
        "lint.plan_ms_per_check": self_s("lint.plan") / lint_calls * 1e3
        if lint_calls else 0.0,
        "lint.plan_checks": count("lint", "plan_checks_total"),
        "cluster.export_plan_s": self_s("cluster.export_plan"),
        "cluster.api_s": layers["cluster"] - self_s("cluster.export_plan"),
        "cluster.messages_sent": count("cluster", "messages_sent_total"),
        "cluster.probes_sent": count("cluster", "probes_sent_total"),
        "cluster.migration_retries":
            count("cluster", "migration_retries_total"),
        "bench.driver_s": layers["bench"],
        "trace.overhead_ratio": overhead,
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in LAYER_METRICS}
    return metrics, rows, layers


def run_one(args):
    from scenarios import WARMUP_NS, WORKLOADS
    cls = WORKLOADS[args.workload]
    inputs = cls.make_inputs(args.seed, measured_ns(cls, args.seconds))
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds,
              "measured_sim_s": inputs["measured_ns"] / 1e9,
              "warmup_sim_s": WARMUP_NS / 1e9,
              "trace": bool(args.trace)}
    if args.trace:
        (episode, tracer, wall, overhead, counts,
         reference_print) = traced(cls, inputs)
        metrics, rows, layers = layer_metrics(tracer, wall, overhead, counts)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / ("trace_%s.json" % args.workload))
        tracer = None
        result = finish(episode)
        deterministic = sim_fingerprint(episode, result) == reference_print
        report["layers"] = {"wall_s": wall, "overhead_ratio": overhead,
                            "by_layer": layers,
                            "spans": {name: {k: row[k] for k in
                                             ("calls", "total_s", "self_s",
                                              "share")}
                                      for name, row in rows.items()}}
        ops = episode.op_wall
    else:
        episode, setups, slices = untraced(cls, inputs)
        result = finish(episode)
        deterministic = True
        ops = host_scaled_ops(episode, slices)
        metrics, report["raw"] = driver_metrics(episode, result, setups,
                                                slices, ops)
    if not deterministic:
        episode.fail("traced and untraced passes disagree in sim time")
    report["metrics"] = metrics
    report["workload_metrics"] = workload_metrics(args.workload, episode,
                                                  result, ops)
    report["generator_lag_ns"] = episode.max_lag_ns
    report["attempted"] = episode.attempted
    report["failed"] = episode.failed
    report["failures"] = episode.failure_notes
    print_report(report)
    line = {"correct": episode.failed == 0,
            "attempted": max(1, episode.attempted),
            "failed": episode.failed,
            "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                        for name, entry in metrics.items()}}
    print(REPORT_PREFIX + json.dumps(report, sort_keys=True))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def parse_reports(stdout):
    """``{workload: report}`` from the ``E2E-REPORT`` lines of a run."""
    reports = [json.loads(line[len(REPORT_PREFIX):])
               for line in stdout.splitlines()
               if line.startswith(REPORT_PREFIX)]
    return {report["workload"]: report for report in reports}


def print_report(report):
    from catalogue import MIN_BEYOND
    from scenarios import WORKLOADS
    name = report["workload"]
    print("== %s (seed %d, %.1f sim-s measured after %.1f sim-s warm-up; "
          "open loop, generator at most %d sim-ns late)"
          % (name, report["seed"], report["measured_sim_s"],
             report["warmup_sim_s"], report["generator_lag_ns"]))
    print("   why: %s" % WORKLOADS[name].why)
    rows = list(report["metrics"].items()) \
        + list(report["workload_metrics"].items())
    for metric, entry in rows:
        extra = []
        if entry.get("n") is not None:
            extra.append("n=%d" % entry["n"])
        if entry.get("percentile") not in (None, 50):
            extra.append("p%d" % entry["percentile"])
        if "beyond" in entry and entry["beyond"] < MIN_BEYOND:
            extra.append("only %d beyond" % entry["beyond"])
        print("   %-28s %14.6g %-8s %-6s %s"
              % (metric, entry["value"], entry["unit"],
                 entry.get("clock", ""), " ".join(extra)))
    if "layers" in report:
        layers = report["layers"]
        print("   per-layer self time of the traced pass (%.2f s wall, "
              "%.3fx the untraced pass):" % (layers["wall_s"],
                                             layers["overhead_ratio"]))
        print("   %-24s %8s %10s %10s %7s" % ("span", "calls", "total_s",
                                               "self_s", "share"))
        for span, row in sorted(layers["spans"].items(),
                                key=lambda item: -item[1]["self_s"]):
            print("   %-24s %8d %10.4f %10.4f %6.1f%%"
                  % (span, row["calls"], row["total_s"], row["self_s"],
                     100 * row["share"]))
        for layer, self_s in layers["by_layer"].items():
            print("   layer %-18s %10.4f s %6.1f%%"
                  % (layer, self_s, 100 * self_s / layers["wall_s"]))
    print("   attempted %d, failed %d" % (report["attempted"],
                                          report["failed"]))
    for note in report["failures"]:
        print("   FAILED: %s" % note)


# ----------------------------------------------------------------------
# all four workloads, one subprocess each
# ----------------------------------------------------------------------
def run_all(args):
    status = 0
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in ("steady", "churn", "spike", "federation"):
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", repr(args.seconds),
                   "--trace", str(args.trace)]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              env=dict(os.environ, OMP_NUM_THREADS="1"))
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print("%s: exited %d without a result" % (workload,
                                                      proc.returncode))
            return 2
        result = json.loads(lines[-1])
        status = max(status, proc.returncode)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, entry in result["metrics"].items():
            merged["metrics"]["%s/%s" % (workload, name)] = entry
    print(json.dumps(merged))
    return status


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write("run.py: program sources not found under %s\n"
                         % SRC)
        return 2
    if args.workload is None:
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
