"""The benchmark's chain workload runs on this checkout and passes its
output checks: it reads `len(traj.events)` and round-trips the trajectory
text, so it guards the `Trajectory` fields it uses."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_chain_workload_tiny_scale_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain", "--seed", "3",
         "--scale", "tiny", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result
