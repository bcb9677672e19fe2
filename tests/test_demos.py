"""The walkthroughs in `demos/` run to completion on the current API."""

import os
import subprocess
import sys

import pytest

import mesospin

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "demos")
# the budget demo runs a 150-sample ensemble per row by default
ARGS = {"imperfection_budget.py": ["--samples", "4"]}


@pytest.mark.parametrize("name", ["artifact_pipeline.py",
                                  "collapse_and_revival.py",
                                  "dephasing_scaling.py",
                                  "imperfection_budget.py",
                                  "kitten_metrology.py",
                                  "tomography_wigner.py"])
def test_demo_runs(name, tmp_path):
    src = os.path.dirname(os.path.dirname(mesospin.__file__))
    env = {**os.environ, "TMPDIR": str(tmp_path),
           "PYTHONPATH": os.pathsep.join(
               p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run(
        [sys.executable, os.path.join(DEMOS, name), *ARGS.get(name, [])],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout
