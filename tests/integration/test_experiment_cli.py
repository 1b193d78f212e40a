"""The C5 and C6 experiment CLIs: golden output and input validation.

``python -m repro adapt --compare`` and ``python -m repro contracts
--compare`` must print exactly the recorded stdout, byte for byte, and
write the same JSON report.  Each golden is the output of::

    python -m repro <adapt|contracts> --compare --seconds 1 --json report.json

run from an empty directory (seed 7).  Regenerate the goldens after an
*intentional* output change with::

    PYTHONPATH=src python tests/integration/test_experiment_cli.py

Malformed input must end in a diagnostic and exit status 2, never a
traceback or a silently empty run.
"""

import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]
DATA = pathlib.Path(__file__).parent / "data"
SUBCOMMANDS = ("adapt", "contracts")


def run_cli(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return subprocess.run([sys.executable, "-m", "repro", *args],
                          cwd=cwd, env=env, capture_output=True,
                          timeout=300)


def run_compare(subcommand, cwd):
    """Run the golden command in ``cwd``; returns (stdout, report)."""
    result = run_cli([subcommand, "--compare", "--seconds", "1",
                      "--json", "report.json"], cwd)
    assert result.returncode == 0, result.stderr.decode()
    return result.stdout, (cwd / "report.json").read_bytes()


def golden(subcommand, suffix):
    return DATA / ("golden_%s_compare.%s" % (subcommand, suffix))


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_compare_output_matches_golden(subcommand, tmp_path):
    stdout, report = run_compare(subcommand, tmp_path)
    assert stdout == golden(subcommand, "txt").read_bytes()
    assert json.loads(report) == json.loads(
        golden(subcommand, "json").read_bytes())


@pytest.mark.parametrize("args", [
    ["--epoch-ms", "0"],
    ["--seconds", "0"],
    ["--seconds", "-1"],
    ["--static", "--compare"],
    ["--seconds", "0.1", "--json", "no-such-dir/r.json"],
    ["--seconds", "0.1", "--json", "."],
], ids=["epoch-ms-0", "seconds-0", "seconds-negative", "static-compare",
        "json-unwritable", "json-is-a-directory"])
@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_bad_input_exits_2_without_traceback(subcommand, args, tmp_path):
    result = run_cli([subcommand, *args], tmp_path)
    stderr = result.stderr.decode()
    assert result.returncode == 2, (result.returncode, stderr)
    assert "Traceback" not in stderr, stderr
    assert subcommand in stderr, stderr
    # Refused before the run: no report is printed.
    assert result.stdout == b"", result.stdout.decode()


if __name__ == "__main__":          # golden-file regeneration hook
    for subcommand in SUBCOMMANDS:
        with tempfile.TemporaryDirectory() as scratch:
            stdout, report = run_compare(subcommand,
                                         pathlib.Path(scratch))
        golden(subcommand, "txt").write_bytes(stdout)
        golden(subcommand, "json").write_bytes(report)
        print("wrote %s and %s" % (golden(subcommand, "txt"),
                                   golden(subcommand, "json")))
