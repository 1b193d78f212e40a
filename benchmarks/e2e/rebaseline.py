"""Record this checkout's numbers in ``results/seed.json``.

Usage (from the repository root)::

    python3 benchmarks/e2e/rebaseline.py [--seed N]

Runs all four workloads once untraced and once traced (``run.py``
without ``--workload``) and stores both sets of ``E2E-REPORT`` lines
with the machine's CPU count and the Python version.  Re-baseline
after a change to the benchmark itself is accepted, never in a change
that claims a gain.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

from run import parse_reports  # noqa: E402


def reports(seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", str(seed),
         "--trace", "1" if trace else "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        raise SystemExit("run.py exited %d" % proc.returncode)
    return parse_reports(proc.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    document = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": args.seed,
        "untraced": reports(args.seed, trace=False),
        "traced": reports(args.seed, trace=True),
    }
    path = HERE / "results" / "seed.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print("wrote %s" % path.relative_to(ROOT))


if __name__ == "__main__":
    sys.exit(main())
