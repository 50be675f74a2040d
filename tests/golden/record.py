"""Golden command outputs: the stdout, and any file written, of a fixed set
of `plaquette` runs, which `tests/test_golden.py` compares byte for byte.

A change that means to move one of these outputs re-records them all with

    python tests/golden/record.py

and names each re-recorded file, and why it moved.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

# name -> arguments of `python -m plaquette`; "{out}" is a file the run
# writes, recorded as <name>.out next to its stdout, <name>.stdout
RUNS = {
    "verify_quick": ["verify", "--level", "quick"],
    "exact_L4": ["exact", "--size", "4"],
    "exact_L3_betas": ["exact", "--size", "3", "--beta", "0.5,1,2"],
    "exact_L3_per": ["exact", "--size", "3", "--bc", "per", "--beta", "1"],
    "flow_L3": ["flow", "--size", "3"],
    "flow_L4_monte_carlo": ["flow", "--size", "4", "--mode", "monte_carlo", "--seed", "3",
                            "--samples", "1000"],
    "simulate": ["simulate"],
    "simulate_L5_rect": ["simulate", "--size", "5", "--init", "rect", "--stop", "events=2000",
                         "--out", "{out}"],
    "arrhenius_plus": ["arrhenius", "--workers", "1"],
    "arrhenius_per": ["arrhenius", "--workers", "1", "--bc", "per"],
}


def run(name):
    """{file name: bytes} of one run: its stdout, its stderr if any, and the
    file it wrote if any. A run that exits nonzero raises RuntimeError."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")  # as tests/conftest.py: the last digits depend on it
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        argv = [str(out) if a == "{out}" else a for a in RUNS[name]]
        proc = subprocess.run([sys.executable, "-m", "plaquette", *argv],
                              capture_output=True, env=env, timeout=300)
        if proc.returncode != 0:
            raise RuntimeError(f"{name} exited {proc.returncode}: {proc.stderr.decode()}")
        files = {f"{name}.stdout": proc.stdout}
        if proc.stderr:
            files[f"{name}.stderr"] = proc.stderr
        if out.exists():
            files[f"{name}.out"] = out.read_bytes()
    return files


def recorded(name):
    """{file name: bytes} of the files recorded for one run."""
    return {p.name: p.read_bytes() for p in sorted(HERE.glob(f"{name}.*"))}


def main():
    for path in HERE.iterdir():
        if path.stem in RUNS:
            path.unlink()
    for name in RUNS:
        for file_name, data in run(name).items():
            (HERE / file_name).write_bytes(data)
            print(file_name, len(data))


if __name__ == "__main__":
    main()
