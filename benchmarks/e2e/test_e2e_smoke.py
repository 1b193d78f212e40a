"""Smoke test of benchmark E1 on short runs (``--seconds 0.5``, well
under a minute).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.  Every
workload runs in three subprocesses -- twice untraced and once traced,
each under its own ``PYTHONHASHSEED`` -- and the test asserts that

* every simulated-time metric is identical across the three runs (the
  program's behaviour depends neither on hash order nor on tracing);
* no operation failed;
* every metric ``BENCHMARK.json`` names is printed, and its unit,
  direction and bound are the ones ``catalogue.py`` defines.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from catalogue import DRIVER_METRICS, LAYER_METRICS
from run import parse_reports

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKLOADS = ("steady", "churn", "spike", "federation")


def run(hash_seed, trace):
    command = [sys.executable, str(HERE / "run.py"), "--seconds", "0.5",
               "--seed", "7", "--trace", "1" if trace else "0"]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=120,
                          env=dict(os.environ, PYTHONHASHSEED=str(hash_seed)))
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return parse_reports(proc.stdout), \
        json.loads(proc.stdout.strip().splitlines()[-1])


def sim_values(entries):
    return {name: entry["value"] for name, entry in entries.items()
            if entry.get("clock") == "sim"}


@pytest.fixture(scope="module")
def runs():
    return [run(11, trace=False), run(12, trace=False), run(13, trace=True)]


def test_sim_metrics_identical_across_hash_seeds_and_tracing(runs):
    (first, _), (second, _), (traced, _) = runs
    for workload in WORKLOADS:
        one, two = first[workload], second[workload]
        assert sim_values(one["metrics"]) == sim_values(two["metrics"])
        assert sim_values(one["workload_metrics"]) \
            == sim_values(two["workload_metrics"]) \
            == sim_values(traced[workload]["workload_metrics"])


def test_no_operation_fails(runs):
    for reports, result in runs:
        assert result["correct"] and result["failed"] == 0
        for workload in WORKLOADS:
            report = reports[workload]
            assert report["failed"] == 0, report["failures"]
            assert report["workload_metrics"]["op_fail_ratio"]["value"] == 0


def test_every_declared_metric_is_printed(runs):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in declared["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in DRIVER_METRICS]
    assert [(m["name"], m["unit"], m["better"])
            for m in declared["per_layer"]] == list(LAYER_METRICS)
    (_, untraced), _, (_, traced) = runs
    for workload in WORKLOADS:
        for metric in declared["end_to_end"]:
            entry = untraced["metrics"]["%s/%s" % (workload, metric["name"])]
            assert entry["unit"] == metric["unit"]
        for metric in declared["per_layer"]:
            entry = traced["metrics"]["%s/%s" % (workload, metric["name"])]
            assert entry["unit"] == metric["unit"]
