"""Experiment C5b -- scaling: adaptation-rule evaluation cost.

The adaptation controller runs inside the simulation loop every epoch
(50 ms of simulated time by default), so its wall-clock cost per epoch
bounds how large a rule set a deployment can afford.  This benchmark
ladders the rule population 10..500 (override with
``C5_RULE_COUNTS=10,50``) and measures:

* the evaluator-only cost per epoch (predicates + damping + conflict
  resolution over a synthetic context),
* the evaluator-only cost per epoch over a *silent* population: N
  single-threshold guards that never hold, the shape of the 200
  silent guards in E1 ``spike`` (best of 3 timed runs),
* the full ``AdaptationController.step()`` cost on a live platform
  (context collection from real telemetry + OSGi provider query
  included),

and asserts the *shape*: evaluation stays roughly linear in the rule
count (growth across the ladder well below quadratic), a silent
population costs far less than linear (the evaluator's threshold
index answers a quiet epoch with one bisect per ``(key, op)`` bucket,
so ``silent_growth`` must stay below a third of the rule growth), and
a live epoch with the largest rule set stays under 50 ms of wall
clock -- an epoch that costs more than it simulates could never run
in real time.  Both growth ratios compare two rows timed in one
process, so they do not depend on the machine.  Rows land in
``BENCH_scaling_adapt.json``, which ``check_scaling_guardrail.py``
compares against the committed baseline.
"""

import time

import pytest

from repro.adapt.controller import AdaptationController
from repro.adapt.evaluator import RuleEvaluator
from repro.adapt.rules import parse_rule_document
from repro.sim.engine import MSEC

from conftest import ladder, quiet_platform, run_once, write_bench

DEFAULT_RULE_COUNTS = (10, 50, 200, 500)
EPOCHS = 200
SILENT_REPEATS = 3
PARAMS = ("deadline_miss_rate", "releases", "overruns",
          "dispatch_latency_p99", "rt_utilization", "active_components")
# Growth ratios near 1.0 time noisily on small ladders, so their
# relative references are floored at flat.
GUARDS = {
    # Evaluation stays roughly linear in the rule count.
    "cost_growth": {"floor": 1.0},
    # A quiet epoch stays one bisect per (key, op) bucket.
    "silent_growth": {"floor": 1.0},
    "rows.-1.silent_epoch_us": {"ladder": "rule_counts"},
}


def make_rules(count):
    """``count`` distinct guards over the whole parameter alphabet:
    a third never fire, a third sit in cooldown, a third conflict."""
    rules = []
    for index in range(count):
        param = PARAMS[index % len(PARAMS)]
        fires = index % 3 == 0
        rules.append({
            "name": "guard-%04d" % index,
            "priority": index,
            "when": {"param": param,
                     "op": ">" if fires else "<",
                     "value": -1.0,
                     "for_epochs": 1 + index % 3},
            "then": [{"action": "reconfigure"}],
            "cooldown_ns": 10 * MSEC,
        })
    return parse_rule_document({"rules": rules})


def make_silent_rules(count):
    """``count`` guards whose single threshold leaf never holds (each
    parameter's catalog range is non-negative), as in E1 ``spike``."""
    return parse_rule_document({"rules": [
        {"name": "silent-%04d" % index, "priority": index,
         "when": {"param": PARAMS[index % len(PARAMS)], "op": "<",
                  "value": -1.0, "for_epochs": 1 + index % 3},
         "then": [{"action": "reconfigure"}],
         "cooldown_ns": 10 * MSEC}
        for index in range(count)]})


def synthetic_context():
    return {
        "deadline_miss_rate": 0.5, "releases": 100.0,
        "overruns": 3.0, "dispatch_latency_p99": 40_000.0,
        "rt_utilization": 0.7, "active_components": 12.0,
    }


def measure_evaluator(count):
    rules = make_rules(count)
    evaluator = RuleEvaluator(max_actions_per_epoch=8)
    context = synthetic_context()
    start = time.perf_counter()
    fired = 0
    for epoch in range(EPOCHS):
        firings, _ = evaluator.evaluate(rules, dict(context),
                                        epoch * 50 * MSEC)
        fired += len(firings)
    elapsed = time.perf_counter() - start
    return {
        "rules": count,
        "epochs": EPOCHS,
        "fired": fired,
        "eval_epoch_us": elapsed / EPOCHS * 1e6,
        "eval_rule_ns": elapsed / EPOCHS / count * 1e9,
    }


def measure_silent(count):
    """Evaluator cost per epoch (us) over ``count`` silent guards, best
    of :data:`SILENT_REPEATS` timed runs after one warm-up epoch."""
    rules = make_silent_rules(count)
    evaluator = RuleEvaluator(max_actions_per_epoch=8)
    context = synthetic_context()
    evaluator.evaluate(rules, dict(context), 0)
    best = None
    for repeat in range(SILENT_REPEATS):
        start = time.perf_counter()
        for epoch in range(EPOCHS):
            firings, _ = evaluator.evaluate(
                rules, dict(context), (repeat * EPOCHS + epoch + 1)
                * 50 * MSEC)
            assert not firings
        elapsed = (time.perf_counter() - start) / EPOCHS
        best = elapsed if best is None else min(best, elapsed)
    return best * 1e6


def measure_live_step(count):
    """Full controller epoch on a live platform (real telemetry
    context, OSGi provider query, firing execution)."""
    platform = quiet_platform(seed=count)
    controller = AdaptationController(platform,
                                      rules=make_rules(count))
    platform.run_for(100 * MSEC)
    controller.step()  # warm the windows
    start = time.perf_counter()
    for _ in range(20):
        controller.step()
    elapsed = (time.perf_counter() - start) / 20
    platform.shutdown()
    return elapsed * 1e3


@pytest.mark.benchmark(group="scaling")
def test_adapt_scaling(benchmark):
    counts = ladder("C5_RULE_COUNTS", DEFAULT_RULE_COUNTS)

    def experiment():
        rows = [measure_evaluator(count) for count in counts]
        for row in rows:
            row["silent_epoch_us"] = measure_silent(row["rules"])
        live_ms = measure_live_step(counts[-1])
        return rows, live_ms

    rows, live_ms = run_once(benchmark, experiment)
    print("\nC5b -- adaptation-rule evaluation scaling:")
    print("%6s %8s %14s %14s %14s"
          % ("rules", "fired", "epoch[us]", "per-rule[ns]",
             "silent[us]"))
    for row in rows:
        print("%6d %8d %14.1f %14.1f %14.1f"
              % (row["rules"], row["fired"], row["eval_epoch_us"],
                 row["eval_rule_ns"], row["silent_epoch_us"]))
    print("live controller step at %d rules: %.2f ms"
          % (counts[-1], live_ms))

    small, large = rows[0], rows[-1]
    rule_growth = large["rules"] / small["rules"]
    cost_growth = large["eval_epoch_us"] / max(small["eval_epoch_us"],
                                               1e-6)
    silent_growth = large["silent_epoch_us"] \
        / max(small["silent_epoch_us"], 1e-6)
    print("cost growth %.2fx, silent growth %.2fx over a %.0fx rule "
          "growth" % (cost_growth, silent_growth, rule_growth))

    document = {
        "benchmark": "scaling_adapt",
        "rule_counts": list(counts),
        "epochs": EPOCHS,
        "rows": rows,
        "live_step_ms_at_max": live_ms,
        "rule_growth": rule_growth,
        "cost_growth": cost_growth,
        "silent_growth": silent_growth,
    }
    write_bench(document, GUARDS)
    benchmark.extra_info["rows"] = rows

    # The damped rule mix actually exercised every code path.
    assert all(row["fired"] > 0 for row in rows)
    # Roughly linear: far below quadratic growth across the ladder.
    assert cost_growth < rule_growth * 3
    # A quiet epoch is one bisect per bucket, not one walk per rule.
    assert silent_growth < rule_growth / 3
    # An epoch must cost (much) less wall clock than it simulates.
    assert live_ms < 50.0
