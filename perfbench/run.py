"""plaquette benchmark: one workload in one fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the package is imported from
that checkout's src/ directory, never from an installed copy. Workloads
are `arrhenius`, `spectral`, `flow` and `chain` (see perfbench/README.md).

The run first times three fresh processes that import `plaquette.cli` and
build the workload's inputs (`setup_s`), then repeats passes of the
workload until the next one would end after S seconds (at least one
pass); pass times are rescaled to a nominal host by a reference kernel
timed during the run (reference.py). With --trace 1 every pass is run
twice on the same inputs, once untraced and once traced, and the
per-layer metrics come from the traced copies. The last line of stdout
is the JSON result; a record with host facts, every pass and, when
traced, every span goes to perfbench/out/.
"""

import os

# Pin BLAS/OpenMP before numpy is imported, here and in every probe child.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("arrhenius", "spectral", "flow", "chain")
SETUP_PROBES = {"full": 3, "tiny": 1}
PROBE_TIMEOUT_S = 120


def import_package():
    """Import plaquette.cli from this checkout; return the seconds it took."""
    if not (SRC / "plaquette" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source under {SRC}; "
                         "run from the root of a plaquette checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import plaquette.cli
    elapsed = time.perf_counter() - t0
    if Path(plaquette.cli.__file__).resolve().parent != (SRC / "plaquette").resolve():
        raise SystemExit(f"perfbench: imported {plaquette.cli.__file__}, not {SRC}")
    return elapsed


def probe(name, seed, scale):
    """Child-process side of one set-up measurement."""
    import_s = import_package()
    import tracing
    import workloads

    t0 = time.perf_counter()
    workloads.WORKLOADS[name][0](seed, workloads.SCALES[scale][name], tracing.NULL)
    inputs_s = time.perf_counter() - t0
    print(json.dumps({"import_s": import_s, "inputs_s": inputs_s}))


def measure_setup(name, seed, scale):
    """Wall time of fresh processes that import the package and build the
    inputs, with the import and input times each child reports."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", name, "--seed", str(seed), "--scale", scale]
    out = []
    for _ in range(SETUP_PROBES[scale]):
        t0 = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=PROBE_TIMEOUT_S)
        wall = time.perf_counter() - t0
        rec = json.loads(done.stdout.strip().splitlines()[-1])
        rec["wall_s"] = wall
        out.append(rec)
    return out


def host_facts():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
    }


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_values(busy, attrs, self_s):
    """Every per-layer metric of one traced pass, by name."""
    b = lambda name: busy.get(name, 0.0)  # noqa: E731
    a = lambda name: attrs.get(name, 0)  # noqa: E731
    hit = ("dynamics.hitting_time.plus", "dynamics.hitting_time.per")
    hit_s = sum(b(n) for n in hit)
    return {
        "lattice.count_by_defect_number.busy_s": b("lattice.count_by_defect_number"),
        "lattice.count_by_defect_number.configs": a("lattice.count_by_defect_number.configs"),
        "dynamics.hitting_time.plus.busy_s": b(hit[0]),
        "dynamics.hitting_time.per.busy_s": b(hit[1]),
        "dynamics.hitting_time.plus.s_per_replica": _ratio(b(hit[0]), a(hit[0] + ".replicas")),
        "dynamics.hitting_time.per.s_per_replica": _ratio(b(hit[1]), a(hit[1] + ".replicas")),
        "dynamics.hitting_time.replicas_per_s":
            _ratio(sum(a(n + ".replicas") for n in hit), hit_s),
        "dynamics.hitting_time.mc_time_per_s":
            _ratio(sum(a(n + ".tau_sum") for n in hit), hit_s),
        "dynamics.hitting_time.flagged": sum(a(n + ".flagged") for n in hit),
        "dynamics.simulate.busy_s": b("dynamics.simulate"),
        "dynamics.simulate.events": a("dynamics.simulate.events"),
        "dynamics.simulate.events_per_s":
            _ratio(a("dynamics.simulate.events"), b("dynamics.simulate")),
        "dynamics.trajectory_to_text.busy_s": b("dynamics.trajectory_to_text"),
        "dynamics.trajectory_to_text.bytes": a("dynamics.trajectory_to_text.bytes"),
        "dynamics.trajectory_from_text.busy_s": b("dynamics.trajectory_from_text"),
        "exact.build_generator.busy_s": b("exact.build_generator"),
        "exact.build_generator.states": a("exact.build_generator.states"),
        "exact.build_generator.nnz": a("exact.build_generator.nnz"),
        "exact.spectral_gap.dense.busy_s": b("exact.spectral_gap.dense"),
        "exact.spectral_gap.lanczos.busy_s": b("exact.spectral_gap.lanczos"),
        "exact.tv_mixing_time.busy_s": b("exact.tv_mixing_time"),
        "exact.profile_mixing_bound.busy_s": b("exact.profile_mixing_bound"),
        "exact.profile_mixing_bound.segments": a("exact.profile_mixing_bound.segments"),
        "exact.spectral_profile.busy_s": b("exact.spectral_profile"),
        "paths.flow_cost.exhaustive.busy_s": b("paths.flow_cost.exhaustive"),
        "paths.flow_cost.exhaustive.edges": a("paths.flow_cost.exhaustive.edges"),
        "paths.flow_cost.monte_carlo.busy_s": b("paths.flow_cost.monte_carlo"),
        "paths.flow_cost.monte_carlo.samples": a("paths.flow_cost.monte_carlo.samples"),
        "paths.flow_cost.monte_carlo.edges": a("paths.flow_cost.monte_carlo.edges"),
        "ground.estimate_trace_kernel.busy_s": b("ground.estimate_trace_kernel"),
        "ground.estimate_trace_kernel.events": a("ground.estimate_trace_kernel.events"),
        "ground.estimate_trace_kernel.records": a("ground.estimate_trace_kernel.records"),
        "ground.excursion_statistics.busy_s": b("ground.excursion_statistics"),
        "ground.excursion_statistics.excursions":
            a("ground.excursion_statistics.excursions"),
        "ground.excursion_statistics.unfinished":
            a("ground.excursion_statistics.unfinished"),
        "bench.self_s": self_s,
    }


def _metric_units():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def _task_seconds(res, work_only=False):
    return sum(seconds for seconds, is_work in res.tasks if is_work or not work_only)


def run_workload(name, seed, seconds, trace, scale="full", conf=None):
    """Run one workload; return (result line, full record)."""
    import_package()
    import reference
    import tracing
    import workloads

    conf = conf if conf is not None else workloads.SCALES[scale][name]
    build, one_pass, finish, work_unit = workloads.WORKLOADS[name]

    # Pass times are rescaled to a nominal host (see reference.py); set-up
    # and the traced run report raw seconds.
    clock = None if trace else reference.Clock()
    setup = measure_setup(name, seed, scale)
    inputs = build(seed, conf, tracing.NULL)
    tracer = tracing.Tracer()
    untraced, traced, pass_spans = [], [], []

    t_start = time.perf_counter()
    k = 0
    while True:
        t0 = time.perf_counter()
        res = workloads.PassResult(clock)
        one_pass(inputs, k, tracing.NULL, res)
        if clock:
            clock.sample(force=True)
        untraced.append(res)
        if trace:
            res = workloads.PassResult()
            with tracer.span("pass") as sp:
                sp.set(index=k)
                one_pass(inputs, k, tracer, res)
            traced.append(res)
            pass_spans.append(sp.id)
        k += 1
        now = time.perf_counter()
        if now - t_start + (now - t0) > seconds:
            break
    final = finish(inputs, untraced, tracing.NULL)

    runs = untraced + traced + [final]
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    if trace:
        per_pass = [per_layer_values(*tracing.pass_totals(tracer.spans, i))
                    for i in pass_spans]
        values = {key: statistics.median([p[key] for p in per_pass]) for key in per_pass[0]}
        values["cli.import_s"] = statistics.median([s["import_s"] for s in setup])
        values["setup.inputs_s"] = statistics.median([s["inputs_s"] for s in setup])
        values["trace.overhead_s"] = statistics.median(
            [_task_seconds(t) - _task_seconds(u) for t, u in zip(traced, untraced)])
        values["fail_ratio"] = _ratio(failed, attempted)
    else:
        factor = clock.factor()
        values = {
            "wall_s": factor * statistics.median([_task_seconds(r) for r in untraced]),
            "setup_s": statistics.median([s["wall_s"] for s in setup]),
            "work_per_s": statistics.median(
                [_ratio(r.work, _task_seconds(r, True) or _task_seconds(r)) for r in untraced]
            ) / factor,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    units = _metric_units()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": v, "unit": units[key]} for key, v in values.items()},
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "scale": scale,
        "work_unit": work_unit,
        "host": host_facts(),
        "setup": setup,
        "passes": [{"index": i, "raw_s": _task_seconds(r),
                    "work": r.work,
                    "attempted": r.attempted, "failed": r.failed,
                    "tasks": r.tasks}
                   for i, r in enumerate(untraced)],
        "traced_passes_raw_s": [_task_seconds(r) for r in traced],
        "reference_s": clock.samples if clock else [],
        "nominal_reference_s": reference.NOMINAL_S,
        "nominal_factor": clock.factor() if clock else None,
        "result": result,
        "spans": [sp.record(name) for sp in tracer.spans],
    }
    return result, record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="'tiny' shrinks every task for the smoke test")
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.probe:
        probe(args.workload, args.seed, args.scale)
        return 0
    result, record = run_workload(args.workload, args.seed, args.seconds, args.trace,
                                  args.scale)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    print("# host " + json.dumps(record["host"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
