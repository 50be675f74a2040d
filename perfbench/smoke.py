"""Smoke test of the benchmark itself, at the tiny scale.

    python3 perfbench/smoke.py

For every workload, in both modes, the command must print each metric
BENCHMARK.json names with its unit and pass every output check. A wrong
expected value must be counted in `fail_ratio`, and the command must
refuse to run without the package source beside it. Takes about a minute.
"""

import copy
import json
import shutil
import subprocess
import sys

import run  # pins BLAS threads before numpy is imported


def run_cli(workload, trace, cwd=run.ROOT, script=run.HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


def check_metrics(bench):
    wanted = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for workload in run.WORKLOAD_NAMES:
        for trace, units in wanted.items():
            done = run_cli(workload, trace)
            assert done.returncode == 0, done.stderr
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, done.stderr
            assert result["attempted"] >= 1
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            assert got == units, (workload, trace, set(got) ^ set(units))
            for key, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (workload, key)
            print(f"ok  {workload} trace={trace}: {len(got)} metrics")


def check_wrong_references():
    run.import_package()
    import workloads

    wrong = copy.deepcopy(workloads.TINY)
    wrong["arrhenius"]["slope_band"] = {"plus": (100.0, 200.0), "per": (100.0, 200.0)}
    side, beta, level, cost = wrong["flow"]["exhaustive"][0]
    wrong["flow"]["exhaustive"][0] = (side, beta, level, cost * 1.001)
    side, bc, beta, gap = wrong["spectral"]["lanczos"]
    wrong["spectral"]["lanczos"] = (side, bc, beta, gap + 1e-6)
    wrong["chain"]["fraction_local_band"] = (2.0, 3.0)
    for workload in run.WORKLOAD_NAMES:
        result, _ = run.run_workload(workload, 3, 0, 1, "tiny", conf=wrong[workload])
        ratio = result["metrics"]["fail_ratio"]["value"]
        assert result["failed"] > 0 and not result["correct"] and ratio > 0, workload
        print(f"ok  {workload}: wrong reference gives fail_ratio={ratio:.4g}")


def check_refuses_without_source():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = run_cli("chain", 0, cwd=bare, script=bare / "perfbench" / "run.py")
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert not done.stdout.strip(), done.stdout
    print("ok  refuses to run without the package source")


def main():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    run.OUT.mkdir(exist_ok=True)
    check_metrics(bench)
    check_wrong_references()
    check_refuses_without_source()
    return 0


if __name__ == "__main__":
    sys.exit(main())
