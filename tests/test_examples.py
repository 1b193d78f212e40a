"""Every script in ``examples/`` must run to completion.

The examples are the user-facing walkthroughs of the public API; an
API change that breaks one should fail the suite, not a reader.  Each
runs in a subprocess from a scratch working directory with
``PYTHONPATH`` pointing at ``src``, so output files never land in the
repository.
"""

import os
import subprocess
import sys

import pytest

REPO = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                    os.pardir))
EXAMPLES = sorted(name for name in os.listdir(os.path.join(REPO,
                                                           "examples"))
                  if name.endswith(".py"))


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    result = subprocess.run(
        [sys.executable, os.path.join(REPO, "examples", name)],
        cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=300)
    assert result.returncode == 0, (
        "examples/%s exited %d\nstdout:\n%s\nstderr:\n%s"
        % (name, result.returncode, result.stdout[-2000:],
           result.stderr[-2000:]))
