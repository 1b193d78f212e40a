"""The ``python -m repro`` demo must run and print the report, and
the demo and ``cluster`` CLIs must reject unusable input with exit
status 2 and a one-line diagnostic, never a traceback or an empty
run."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.faults.plan import example_plan


def test_python_dash_m_repro():
    result = subprocess.run(
        [sys.executable, "-m", "repro"],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "DRCR system report" in result.stdout
    assert "CALC00" in result.stdout
    assert "scheduling latency" in result.stdout
    # The pipeline resolved: the display lists its provider.
    assert "DISP00" in result.stdout


REPO = pathlib.Path(__file__).resolve().parents[2]


def example_with(change):
    """The built-in fault plan as JSON, with ``change`` applied to its
    plain-data form."""
    data = example_plan().to_dict()
    change(data)
    return json.dumps(data)


#: Fault plans whose JSON parses but has the wrong shape, a field of
#: the wrong type, a recovery config the machinery would refuse, or a
#: fault the single-platform demo has no cluster for.
MISSHAPEN_PLANS = {
    "number.json": "123",
    "null.json": "null",
    "entry-number.json": '{"name": "x", "faults": [1]}',
    "faults-string.json": '{"name": "x", "faults": "crash"}',
    "faults-object.json": '{"name": "x", "faults": {"kind": "crash"}}',
    "at-null.json": example_with(
        lambda data: data["faults"][0].update(at_ns=None)),
    "seed-null.json": example_with(
        lambda data: data.update(seed=None)),
    "watchdog-number.json": example_with(
        lambda data: data.update(watchdog=5)),
    "duration-list.json": example_with(
        lambda data: data["faults"][1].update(duration_ns=[1])),
    "watchdog-limit-null.json": example_with(
        lambda data: data["watchdog"].update(limit_ns=None)),
    "watchdog-unknown-key.json": example_with(
        lambda data: data["watchdog"].update(limit_us=500)),
    "watchdog-policy-reboot.json": example_with(
        lambda data: data["watchdog"].update(policy="reboot")),
    "quarantine-cooldown-negative.json": example_with(
        lambda data: data["quarantine"].update(cooldown_ns=-5)),
    "quarantine-unknown-key.json": example_with(
        lambda data: data["quarantine"].update(retries=2)),
    "node-crash.json": json.dumps({
        "name": "nc", "seed": 1,
        "faults": [{"kind": "node_crash", "target": "node1",
                    "at_ns": 1000000}]}),
}


#: Input that proves unusable only once the run is under way (the
#: fleet is too small for the workload): the deploys before it print.
#: Every other case is refused before anything is printed.
MID_RUN = (
    ["cluster", "--utilization", "5"],
    ["cluster", "--nodes", "2", "--components", "2",
     "--utilization", "1.8"],
)


@pytest.mark.parametrize("args", [
    ["--faults", "missing.json"],
    ["--faults", "broken.json"],
    ["--faults", "nameless.json"],
    *(["--faults", name] for name in MISSHAPEN_PLANS),
    ["--trace", "no-such-dir/t.json"],
    ["--metrics", "no-such-dir/m.json"],
    ["cluster", "--seconds", "0"],
    ["cluster", "--seconds", "-1"],
    ["cluster", "--utilization", "0"],
    *MID_RUN,
    ["cluster", "--drop", "2"],
    ["cluster", "--json", "no-such-dir/r.json"],
    ["cluster", "--export-plan", "no-such-dir/p.json"],
    ["--trace", "t.json", "--metrics", "."],
    ["cluster", "--json", "r.json", "--export-plan", "."],
], ids=["faults-missing", "faults-invalid-json", "faults-invalid-plan",
        "faults-plan-number", "faults-plan-null", "faults-entry-number",
        "faults-list-string", "faults-list-object", "faults-at-null",
        "faults-seed-null", "faults-watchdog-number",
        "faults-duration-list", "faults-watchdog-limit-null",
        "faults-watchdog-unknown-key", "faults-watchdog-policy-reboot",
        "faults-quarantine-cooldown-negative",
        "faults-quarantine-unknown-key", "faults-node-crash",
        "trace-unwritable", "metrics-unwritable", "cluster-seconds-0",
        "cluster-seconds-negative", "cluster-utilization-0",
        "cluster-utilization-5", "cluster-no-migration-target",
        "cluster-drop-2", "cluster-json-unwritable",
        "cluster-export-plan-unwritable", "metrics-is-a-directory",
        "cluster-export-plan-is-a-directory"])
def test_bad_input_exits_2_without_traceback(args, tmp_path):
    (tmp_path / "broken.json").write_text('{"name": "x", "faults": [')
    (tmp_path / "nameless.json").write_text('{"faults": []}')
    for name, text in MISSHAPEN_PLANS.items():
        (tmp_path / name).write_text(text)
    result = subprocess.run(
        [sys.executable, "-m", "repro", *args], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 2, (result.returncode, result.stderr)
    assert "Traceback" not in result.stderr, result.stderr
    prog = "python -m repro cluster" if args[0] == "cluster" \
        else "python -m repro"
    assert prog + ":" in result.stderr, result.stderr
    if args not in MID_RUN:
        assert result.stdout == "", result.stdout
    # A valid output path given beside an unusable one is left unwritten.
    assert not (tmp_path / "t.json").exists()
    assert not (tmp_path / "r.json").exists()
