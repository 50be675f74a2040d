"""The four benchmark workloads: input builders, one pass of each, and the
checks on every output.

A pass is a fixed list of tasks. Pass k of a run draws its random inputs
from (workload seed, k, task), so one seed always yields the same input
sequence and successive passes average over fresh draws. An op is a task,
or one hitting-time replica in `arrhenius`; an op fails when it raises,
fails its output check, or is a replica that ran out of its event budget.

Each scale maps a workload to its sizes and checks. `FULL` is the measured
benchmark; `TINY` keeps the same tasks on small boxes for the smoke test,
where statistical bands are left out (`None`) because a few samples cannot
resolve them.
"""

import math
import sys
import time
import traceback

import numpy as np

from plaquette import dynamics, exact, ground, lattice, paths
from plaquette.dynamics import RateModel
from plaquette.lattice import PERIODIC, PLUS, LatticeSpec, SpinConfig

# Repository references (tests/oracles/frozen.txt, tests/test_paths.py).
GAP_L2_BETA1 = 0.2847662422089848
GAP_L3_BETA1 = 0.1542219403486512
FLOW_L2_BETA1 = 70.61244879144519
FLOW_L3_BETA1 = 436.477575655193
HIST_L3_PLUS = {0: 1, 4: 36, 6: 96, 8: 246, 10: 96, 12: 36, 16: 1}
HIST_L4_PLUS = {0: 1, 4: 100, 6: 600, 8: 4150, 10: 12840, 12: 20700,
                14: 17000, 16: 7825, 18: 2200, 20: 120}

ARRHENIUS_BETAS = (2.0, 2.25, 2.5, 2.75, 3.0, 3.25, 3.5)

# Pinned values and bands below were measured on the unoptimised package
# (numpy 2.4, scipy 1.17, one BLAS thread). Each stochastic band spans at
# least four standard deviations either side of its median over 30-40
# seeds, the slope bands for a single pass of 25 replicas; they are not
# the acceptance-test targets.
FULL = {
    "arrhenius": {
        "betas": ARRHENIUS_BETAS,
        "replicas": 25,
        "max_events": 10**7,
        "slope_band": {"plus": (3.3, 5.9), "per": (2.4, 3.7)},
    },
    "spectral": {
        # (side, bc, beta, gap, ground mass)
        "rows": [
            (3, PLUS, 0.5, 0.6157295414131853, 0.0629180535828592),
            (3, PLUS, 1.0, GAP_L3_BETA1, 0.5039238756068948),
            (3, PERIODIC, 1.0, 0.1028327544709796, 0.8476636071780114),
        ],
        # (side, bc, beta, gap): above exact.DENSE_THRESHOLD, so Lanczos
        "lanczos": (4, PLUS, 1.0, 0.13288074424781995),
        "dense_threshold": exact.DENSE_THRESHOLD,
        "histogram": (4, HIST_L4_PLUS),
    },
    "flow": {
        # (side, beta, level, cost)
        "exhaustive": [
            (3, 1.0, 1, FLOW_L3_BETA1),
            (3, 2.0, 1, 1794.8911910125098),
            (3, 1.0, 2, FLOW_L3_BETA1),
        ],
        "monte_carlo": (4, 1.0, 1, 1000),
        "mc_cost_band": (2.5e4, 1.5e5),
    },
    "chain": {
        "side": 64,
        "beta": 1.0,
        "events": 50_000,
        "trace": (4, 3.0, 1000),
        "excursions": (4, 3.0, 500),
        "fraction_local_band": (0.48, 0.63),
        "p_escape_band": (0.002, 0.08),
        "p_other_band": (0.44, 0.68),
    },
}

TINY = {
    "arrhenius": {
        "betas": (2.0, 2.25, 2.5),
        "replicas": 4,
        "max_events": 10**6,
        "slope_band": None,
    },
    "spectral": {
        "rows": [(2, PLUS, 1.0, GAP_L2_BETA1, None)],
        "lanczos": (3, PLUS, 1.0, GAP_L3_BETA1),
        "dense_threshold": 256,
        "histogram": (3, HIST_L3_PLUS),
    },
    "flow": {
        "exhaustive": [(2, 1.0, 1, FLOW_L2_BETA1)],
        "monte_carlo": (3, 1.0, 1, 50),
        "mc_cost_band": None,
    },
    "chain": {
        "side": 8,
        "beta": 1.0,
        "events": 500,
        "trace": (3, 3.0, 20),
        "excursions": (3, 3.0, 10),
        "fraction_local_band": None,
        "p_escape_band": None,
        "p_other_band": None,
    },
}

SCALES = {"full": FULL, "tiny": TINY}


class CheckFailed(Exception):
    pass


def require(ok, what):
    if not ok:
        raise CheckFailed(what)


def close(value, ref, rtol):
    return math.isclose(value, ref, rel_tol=rtol)


def in_band(value, band):
    return band is None or band[0] <= value <= band[1]


def task_seed(seed, *path):
    """A 64-bit integer seed for one task, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1, np.uint64)[0])


class PassResult:
    """What one pass did: ops attempted and failed, work units done, and
    each task as (seconds, counts as work time). With a clock, a
    reference sample may be taken before each task."""

    def __init__(self, clock=None):
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.work = 0.0
        self.tasks = []
        self.samples = {}


def run_task(res, tr, name, fn, ops=1, work=False):
    """Run one task: fn returns the number of its ops that failed, or
    raises, which fails them all. `work` marks the tasks whose time is the
    denominator of the workload's work rate."""
    if res.clock:
        res.clock.sample()
    with tr.span("task." + name):
        t0 = time.perf_counter()
        try:
            bad = fn() or 0
        except Exception as exc:  # one bad task must not end the run
            if not isinstance(exc, CheckFailed):
                traceback.print_exc(file=sys.stderr)
            print(f"FAILED {name}: {exc}", file=sys.stderr)
            bad = ops
        res.tasks.append((time.perf_counter() - t0, work))
    res.attempted += ops
    res.failed += bad


# ------------------------------------------------------------ arrhenius


def _half_area_rectangle(spec):
    """The `plaquette arrhenius` plus-boundary start: a centred minus
    rectangle of about half the box."""
    L = spec.side
    w = min(L, max(1, round(L / math.sqrt(2.0))))
    h = min(L, max(1, round(L * L / 2.0 / w)))
    i0 = (L - w) // 2 + 1
    j0 = (L - h) // 2 + 1
    cells = [(i, j) for i in range(i0, i0 + w) for j in range(j0, j0 + h)]
    return SpinConfig.all_plus(spec).flip(cells)


def build_arrhenius(seed, conf, tr):
    points = {}
    with tr.span("setup.inputs"):
        for bc in ("plus", "per"):
            points[bc] = []
            for beta in conf["betas"]:
                L = lattice.critical_length(beta)
                if bc == "plus":
                    spec = LatticeSpec(L, PLUS)
                    init = _half_area_rectangle(spec)
                    target = dynamics.stop_at_zero_defects()
                else:
                    spec = LatticeSpec(L, PERIODIC)
                    init = SpinConfig.all_plus(spec)
                    target = dynamics.stop_at_ground_other_than(init)
                points[bc].append((beta, spec, init, target))
    return {"seed": seed, "conf": conf, "points": points}


def arrhenius_pass(inp, k, tr, res):
    conf = inp["conf"]
    res.samples = {"plus": [], "per": []}
    for b, (bc, points) in enumerate(inp["points"].items()):
        for i, (beta, spec, init, target) in enumerate(points):
            def fn():
                with tr.span(f"dynamics.hitting_time.{bc}") as sp:
                    hit = dynamics.hitting_time(
                        spec, beta, init, target, conf["replicas"],
                        seed=task_seed(inp["seed"], k, b, i),
                        kind="metropolis", max_events=conf["max_events"],
                    )
                taus = hit.taus[~np.isnan(hit.taus)]
                sp.set(replicas=hit.replicas, flagged=hit.flagged,
                       tau_sum=float(taus.sum()))
                res.samples[bc].append(taus)
                res.work += taus.size
                return hit.flagged

            run_task(res, tr, f"hitting_time.{bc}.{beta}", fn, ops=conf["replicas"])
    return res


def weighted_slope(betas, tau_sets):
    """Slope of log mean hitting time against beta, each point weighted by
    the inverse variance of its log mean."""
    x = np.asarray(betas, dtype=float)
    y, w = [], []
    for taus in tau_sets:
        mean = float(taus.mean())
        se_log = float(taus.std(ddof=1)) / math.sqrt(taus.size) / mean
        y.append(math.log(mean))
        w.append(1.0 / max(se_log, 1e-12) ** 2)
    y, w = np.asarray(y), np.asarray(w)
    xbar = np.sum(w * x) / np.sum(w)
    ybar = np.sum(w * y) / np.sum(w)
    return float(np.sum(w * (x - xbar) * (y - ybar)) / np.sum(w * (x - xbar) ** 2))


def arrhenius_finish(inp, results, tr):
    """Fit the activation slope of each boundary over every replica of the
    run's passes and check it against its band."""
    conf = inp["conf"]
    res = PassResult()
    for bc in ("plus", "per"):
        def fn():
            pooled = [np.concatenate(col) for col in
                      zip(*(r.samples[bc] for r in results))]
            require(len(pooled) == len(conf["betas"]), f"{bc}: missing grid points")
            require(all(t.size >= 2 for t in pooled), f"{bc}: too few replicas to fit")
            slope = weighted_slope(conf["betas"], pooled)
            print(f"# arrhenius {bc} slope={slope!r}", file=sys.stderr)
            band = conf["slope_band"] and conf["slope_band"][bc]
            require(in_band(slope, band), f"{bc} slope {slope:.3f} outside {band}")

        run_task(res, tr, f"slope.{bc}", fn)
    return res


# ------------------------------------------------------------- spectral


def build_spectral(seed, conf, tr):
    with tr.span("setup.inputs"):
        rows = [(LatticeSpec(L, bc), beta, gap, mass)
                for (L, bc, beta, gap, mass) in conf["rows"]]
        L, bc, beta, gap = conf["lanczos"]
        lanczos = (LatticeSpec(L, bc), beta, gap)
        L, hist = conf["histogram"]
        histogram = (LatticeSpec(L, PLUS), hist)
    return {"seed": seed, "conf": conf, "rows": rows, "lanczos": lanczos,
            "histogram": histogram}


def _generator(tr, spec, beta):
    with tr.span("exact.build_generator") as sp:
        G = exact.build_generator(spec, RateModel(beta))
    sp.set(states=G.n_states, nnz=G.Q.nnz)
    return G


def _gap(tr, G, threshold):
    path = "dense" if G.n_states <= threshold else "lanczos"
    with tr.span(f"exact.spectral_gap.{path}"):
        return exact.spectral_gap(G, dense_threshold=threshold)


def spectral_pass(inp, k, tr, res):
    conf = inp["conf"]
    threshold = conf["dense_threshold"]
    for spec, beta, gap_ref, mass_ref in inp["rows"]:
        def fn():
            G = _generator(tr, spec, beta)
            gap = _gap(tr, G, threshold)
            with tr.span("exact.tv_mixing_time"):
                tmix = exact.tv_mixing_time(G)
            with tr.span("exact.profile_mixing_bound") as sp:
                bound = exact.profile_mixing_bound(G)
            sp.set(segments=len(bound.segments))
            with tr.span("exact.ground_mass"):
                mass = exact.ground_mass(G)
            require(close(gap, gap_ref, 1e-9), f"gap {gap!r} != {gap_ref!r}")
            require(mass_ref is None or close(mass, mass_ref, 1e-9),
                    f"ground mass {mass!r} != {mass_ref!r}")
            require(tmix <= bound.value, f"tmix {tmix} above profile bound {bound.value}")
            require(tmix >= 0.98 * math.log(2.0) / gap, f"tmix {tmix} below trel*ln2")

        run_task(res, tr, f"row.{spec.side}.{spec.bc}.{beta}", fn)

    spec, beta, gap_ref = inp["lanczos"]

    def lanczos():
        G = _generator(tr, spec, beta)
        require(G.n_states > threshold, "Lanczos task fell under the dense threshold")
        gap = _gap(tr, G, threshold)
        require(close(gap, gap_ref, 1e-8), f"gap {gap!r} != {gap_ref!r}")

    run_task(res, tr, f"lanczos.{spec.side}", lanczos)

    spec, hist_ref = inp["histogram"]

    def histogram():
        with tr.span("lattice.count_by_defect_number") as sp:
            hist = lattice.count_by_defect_number(spec)
        sp.set(configs=sum(hist.values()))
        require(hist == hist_ref, f"histogram {hist} != {hist_ref}")
        require(sum(hist.values()) == 2 ** spec.n_sites, "histogram total")

    run_task(res, tr, f"histogram.{spec.side}", histogram)
    res.work = res.attempted
    return res


# ----------------------------------------------------------------- flow


def build_flow(seed, conf, tr):
    with tr.span("setup.inputs"):
        exhaustive = [(LatticeSpec(L, PLUS), beta, level, cost)
                      for (L, beta, level, cost) in conf["exhaustive"]]
        L, beta, level, samples = conf["monte_carlo"]
        mc = (LatticeSpec(L, PLUS), beta, level, samples)
    return {"seed": seed, "conf": conf, "exhaustive": exhaustive, "mc": mc}


def flow_pass(inp, k, tr, res):
    conf = inp["conf"]
    for spec, beta, level, cost_ref in inp["exhaustive"]:
        def fn():
            with tr.span("paths.flow_cost.exhaustive") as sp:
                flow = paths.flow_cost(spec, beta, level)
            sp.set(edges=len(flow.congestion))
            G = _generator(tr, spec, beta)
            with tr.span("exact.spectral_profile"):
                lam = exact.spectral_profile(G, level)
            require(close(flow.cost, cost_ref, 1e-12), f"cost {flow.cost!r} != {cost_ref!r}")
            require(lam * flow.cost >= 1.0 - 1e-9, f"lambda*cost {lam * flow.cost} < 1")

        run_task(res, tr, f"exhaustive.{spec.side}.{beta}.{level}", fn)

    spec, beta, level, samples = inp["mc"]

    def monte_carlo():
        with tr.span("paths.flow_cost.monte_carlo") as sp:
            flow = paths.flow_cost(spec, beta, level, mode="monte_carlo",
                                   seed=task_seed(inp["seed"], k, 0), samples=samples)
        sp.set(samples=flow.samples, edges=len(flow.congestion))
        require(flow.samples == samples, "sample count")
        require(math.isfinite(flow.ci_halfwidth), "confidence half-width")
        require(in_band(flow.cost, conf["mc_cost_band"]),
                f"monte carlo cost {flow.cost} outside {conf['mc_cost_band']}")

    run_task(res, tr, f"monte_carlo.{spec.side}", monte_carlo)
    res.work = res.attempted
    return res


# ---------------------------------------------------------------- chain


def build_chain(seed, conf, tr):
    with tr.span("setup.inputs"):
        spec = LatticeSpec(conf["side"], PLUS)
        init = SpinConfig.all_minus(spec)
        L, beta, records = conf["trace"]
        trace = (LatticeSpec(L, PERIODIC), beta, records)
        L, beta, n = conf["excursions"]
        excursions = (LatticeSpec(L, PERIODIC), beta, n)
    return {"seed": seed, "conf": conf, "spec": spec, "init": init,
            "stop": dynamics.stop_after_events(conf["events"]),
            "trace": trace, "excursions": excursions}


def chain_pass(inp, k, tr, res):
    conf = inp["conf"]
    out = {}

    def simulate():
        with tr.span("dynamics.simulate") as sp:
            traj = dynamics.simulate(inp["spec"], conf["beta"], inp["init"], inp["stop"],
                                     seed=task_seed(inp["seed"], k, 0), record=True)
        res.work += traj.n_events
        sp.set(events=traj.n_events)
        require(traj.stopped and traj.n_events == conf["events"], "event count")
        require(len(traj.events) == traj.n_events, "recorded event count")
        out["traj"] = traj

    def round_trip():
        traj = out.get("traj")
        require(traj is not None, "no trajectory to write")
        with tr.span("dynamics.trajectory_to_text") as sp:
            text = dynamics.trajectory_to_text(traj)
        sp.set(bytes=len(text))
        with tr.span("dynamics.trajectory_from_text"):
            back = dynamics.trajectory_from_text(text)
        require(back.final == traj.final, "round trip changed the final state")
        require(back.n_events == traj.n_events and back.elapsed == traj.elapsed,
                "round trip changed the header")

    def trace_kernel():
        spec, beta, records = inp["trace"]
        with tr.span("ground.estimate_trace_kernel") as sp:
            rep = ground.estimate_trace_kernel(spec, beta, records,
                                               seed=task_seed(inp["seed"], k, 1))
        res.work += rep.sample.n_events
        sp.set(events=rep.sample.n_events, records=len(rep.sample.states))
        require(rep.sample.completed and rep.n_pairs == records - 1, "record count")
        require(in_band(rep.fraction_local, conf["fraction_local_band"]),
                f"fraction_local {rep.fraction_local} outside {conf['fraction_local_band']}")

    def excursions():
        spec, beta, n = inp["excursions"]
        with tr.span("ground.excursion_statistics") as sp:
            ex = ground.excursion_statistics(spec, beta, n,
                                             seed=task_seed(inp["seed"], k, 2))
        sp.set(excursions=ex.replicas, unfinished=ex.n_unfinished)
        require(ex.n_unfinished == 0, f"{ex.n_unfinished} unfinished excursions")
        total = ex.p_escape + ex.p_other_ground + ex.p_same_ground
        require(math.isclose(total, 1.0, abs_tol=1e-12), "probabilities do not sum to 1")
        require(in_band(ex.p_escape, conf["p_escape_band"]),
                f"p_escape {ex.p_escape} outside {conf['p_escape_band']}")
        require(in_band(ex.p_other_ground, conf["p_other_band"]),
                f"p_other_ground {ex.p_other_ground} outside {conf['p_other_band']}")

    run_task(res, tr, "simulate", simulate, work=True)
    run_task(res, tr, "round_trip", round_trip)
    run_task(res, tr, "trace_kernel", trace_kernel, work=True)
    run_task(res, tr, "excursions", excursions)
    return res


def _no_finish(inp, results, tr):
    return PassResult()


# name -> (build inputs, one pass, run-level checks, work unit)
WORKLOADS = {
    "arrhenius": (build_arrhenius, arrhenius_pass, arrhenius_finish, "replicas"),
    "spectral": (build_spectral, spectral_pass, _no_finish, "tasks"),
    "flow": (build_flow, flow_pass, _no_finish, "tasks"),
    "chain": (build_chain, chain_pass, _no_finish, "events"),
}
