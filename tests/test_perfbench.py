"""Every benchmark workload runs on this checkout at tiny scale and passes
its output checks: the chain workload reads `len(traj.events)` and
round-trips the trajectory text, the flow workload checks exhaustive flow
costs and the spectral-profile bound, so each guards the package fields
and values it uses."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["arrhenius", "spectral", "flow", "chain"])
def test_workload_tiny_scale_passes(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--scale", "tiny", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result
