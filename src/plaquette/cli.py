"""Command-line front end: verification suites, exact analysis, flow
bounds, Arrhenius sweeps, and trajectory runs.

Every command is deterministic given its configuration and seed. Outputs
are CSV on stdout (schema comment line first) or the text formats of the
library modules; --out mirrors the main artifact to a file. A config
file in "key = value" form supplies defaults that explicit flags
override; unknown keys are rejected.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import lattice, dynamics, exact, paths, ground
from .lattice import (
    FIXED,
    PERIODIC,
    PLUS,
    BudgetExceededError,
    LatticeSpec,
    SpinConfig,
    critical_length,
    defect_map,
)
from .dynamics import RateModel

SCHEMA_LINE = "# schema=1"

CONFIG_KEYS = {
    "beta",
    "size",
    "bc",
    "seed",
    "replicas",
    "out",
    "budget_events",
    "split_threshold",
    "mode",
    "level",
    "samples",
    "workers",
    "eps",
    "kind",
    "stop",
    "init",
    "records",
    "dump_matrix",
}


def _parse_config(path):
    conf = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SystemExit(f"{path}:{lineno}: expected 'key = value'")
            key, val = (s.strip() for s in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in CONFIG_KEYS:
                raise SystemExit(f"{path}:{lineno}: unknown key {key!r}")
            conf[key] = val
    return conf


def _merge(args, parser_defaults):
    """Fill argparse None values from --config, then from hard defaults."""
    conf = _parse_config(args.config) if getattr(args, "config", None) else {}
    for key, val in conf.items():
        if getattr(args, key, None) is None and hasattr(args, key):
            setattr(args, key, val)
    for key, val in parser_defaults.items():
        if getattr(args, key, None) is None:
            setattr(args, key, val)
    return args


def _betas(arg):
    try:
        vals = [float(x) for x in str(arg).split(",") if x.strip() != ""]
    except ValueError:
        raise SystemExit(f"bad --beta value {arg!r}")
    if not vals:
        raise SystemExit("empty --beta list")
    return vals


def _resolve_size(size_arg, beta):
    if str(size_arg) == "critical":
        L = critical_length(beta)
        if L < 1:
            raise SystemExit(f"critical length at beta={beta} is below 1")
        return L
    try:
        return int(size_arg)
    except ValueError:
        raise SystemExit(f"bad --size value {size_arg!r}")


def _resolve_spec(bc_arg, L):
    bc_arg = str(bc_arg)
    if bc_arg == "plus":
        return LatticeSpec(L, PLUS)
    if bc_arg == "per":
        return LatticeSpec(L, PERIODIC)
    if bc_arg.startswith("fixed:"):
        path = bc_arg[len("fixed:") :]
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        rows = [ln for ln in text.strip().splitlines() if ln.strip()]
        side = len(rows) - 2
        if side != L:
            raise SystemExit(f"frame file is for side {side}, not {L}")
        theta = dynamics.frame_from_text(side, text)
        return LatticeSpec(L, FIXED, theta=theta)
    raise SystemExit(f"bad --bc value {bc_arg!r} (plus, per, or fixed:<file>)")


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _fmt(x):
    if isinstance(x, float):
        return repr(x)
    return str(x)


# ---------------------------------------------------------------- exact


def cmd_exact(args):
    _merge(args, {"beta": "1.0", "size": "2", "bc": "plus", "eps": "0.25"})
    betas = _betas(args.beta)
    eps = float(args.eps)
    lines = [SCHEMA_LINE, "beta,L,bc,gap,trel,tmix,profile_bound,pi_ground"]
    dump_done = False
    for beta in betas:
        L = _resolve_size(args.size, beta)
        spec = _resolve_spec(args.bc, L)
        G = exact.build_generator(spec, RateModel(beta))
        gap = exact.spectral_gap(G)
        trel = 1.0 / gap
        if G.n_states <= exact.DENSE_THRESHOLD:
            tmix = exact.tv_mixing_time(G, eps=eps)
        else:
            tmix = float("nan")
        profile = exact.profile_mixing_bound(G).value
        pig = exact.ground_mass(G)
        lines.append(
            ",".join(
                [_fmt(beta), str(L), str(args.bc)]
                + [_fmt(v) for v in (gap, trel, tmix, profile, pig)]
            )
        )
        if args.dump_matrix and not dump_done:
            with open(args.dump_matrix, "w", encoding="utf-8") as fh:
                fh.write(exact.dump_generator_text(G))
            dump_done = True
    _emit(lines, args.out)
    return 0


# ----------------------------------------------------------------- flow


def cmd_flow(args):
    _merge(
        args,
        {
            "beta": "1.0",
            "size": "2",
            "bc": "plus",
            "level": "1",
            "mode": "exhaustive",
            "seed": "0",
            "samples": "10000",
            "split_threshold": "100",
        },
    )
    betas = _betas(args.beta)
    if len(betas) != 1:
        raise SystemExit("flow takes a single --beta")
    beta = betas[0]
    L = _resolve_size(args.size, beta)
    spec = _resolve_spec(args.bc, L)
    level = int(args.level)
    if args.mode not in ("exhaustive", "monte_carlo"):
        raise SystemExit(f"unknown --mode {args.mode!r}: use exhaustive or monte_carlo")
    try:
        res = paths.flow_cost(
            spec,
            beta,
            level,
            mode=str(args.mode),
            seed=int(args.seed),
            samples=int(args.samples),
            c=int(args.split_threshold),
        )
    except (BudgetExceededError, paths.PathSamplingError) as err:
        raise SystemExit(f"flow: {err}") from None
    lam = float("nan")
    holds = ""
    if L <= 3:
        G = exact.build_generator(spec, RateModel(beta))
        lam = exact.spectral_profile(G, level)
        holds = str(lam * res.cost >= 1.0 - 1e-9).lower()
    lines = [
        SCHEMA_LINE,
        "beta,L,level,mode,cost,inv_cost,lambda_S,holds",
        ",".join(
            [
                _fmt(beta),
                str(L),
                str(level),
                res.mode,
                _fmt(res.cost),
                _fmt(1.0 / res.cost),
                _fmt(lam),
                holds,
            ]
        ),
    ]
    if res.mode == "monte_carlo":
        lines.append(f"# ci_halfwidth={res.ci_halfwidth!r}")
        lines.append(
            "# monte carlo congestion is maximized over observed edges only:"
            " a lower estimate of the true maximum"
        )
    sys.stdout.write("\n".join(lines) + "\n")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(SCHEMA_LINE + "\n" + paths.flow_report_csv(res))
    return 0


# ------------------------------------------------------------ arrhenius


def _rect_init(spec):
    """Centered minus rectangle of area about half the box."""
    L = spec.side
    w = min(L, max(1, round(L / math.sqrt(2.0))))
    h = min(L, max(1, round(L * L / 2.0 / w)))
    i0 = (L - w) // 2 + 1
    j0 = (L - h) // 2 + 1
    cells = [(i, j) for i in range(i0, i0 + w) for j in range(j0, j0 + h)]
    return SpinConfig.all_plus(spec).flip(cells)


def _arrhenius_point(payload):
    (beta, L, bc_arg, seed, idx, replicas, kind, budget) = payload
    spec = _resolve_spec(bc_arg, L)
    if spec.bc == PERIODIC:
        init = SpinConfig.all_plus(spec)
        target = dynamics.stop_at_ground_other_than(init)
    else:
        init = _rect_init(spec)
        target = dynamics.stop_at_zero_defects()
    res = dynamics.hitting_time(
        spec,
        beta,
        init,
        target,
        replicas,
        seed=(seed, idx),
        kind=kind,
        max_events=budget,
    )
    return (beta, L, res)


def _weighted_slope(betas, means, ci_his):
    x = np.asarray(betas)
    y = np.log(np.asarray(means))
    se = np.log(np.asarray(ci_his) / np.asarray(means)) / 1.96
    w = 1.0 / np.maximum(se, 1e-12) ** 2
    xbar = np.sum(w * x) / np.sum(w)
    ybar = np.sum(w * y) / np.sum(w)
    sxx = np.sum(w * (x - xbar) ** 2)
    slope = float(np.sum(w * (x - xbar) * (y - ybar)) / sxx)
    stderr = float(math.sqrt(1.0 / sxx))
    return slope, stderr


def cmd_arrhenius(args):
    _merge(
        args,
        {
            "beta": "2.0,2.25,2.5,2.75,3.0,3.25,3.5",
            "size": "critical",
            "bc": "plus",
            "seed": "0",
            "replicas": "200",
            "kind": "metropolis",
            "budget_events": str(10**7),
            "workers": str(os.cpu_count() or 1),
        },
    )
    if str(args.bc).startswith("fixed:"):
        raise SystemExit("arrhenius sweeps take --bc plus or per")
    betas = sorted(_betas(args.beta))
    replicas = int(args.replicas)
    seed = int(args.seed)
    budget = int(args.budget_events)
    workers = int(args.workers)
    payloads = [
        (beta, _resolve_size(args.size, beta), str(args.bc), seed, i, replicas,
         str(args.kind), budget)
        for i, beta in enumerate(betas)
    ]
    if workers > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_arrhenius_point, payloads))
    else:
        results = [_arrhenius_point(p) for p in payloads]
    lines = [SCHEMA_LINE, "beta,L,bc,mean_tau,ci_lo,ci_hi,replicas,flagged"]
    for beta, L, res in results:
        lines.append(
            ",".join(
                [
                    _fmt(beta),
                    str(L),
                    str(args.bc),
                    _fmt(res.mean),
                    _fmt(res.ci_lo),
                    _fmt(res.ci_hi),
                    str(res.replicas),
                    str(res.flagged),
                ]
            )
        )
    slope, stderr = _weighted_slope(
        [r[0] for r in results],
        [r[2].mean for r in results],
        [r[2].ci_hi for r in results],
    )
    lines.append(f"# slope={slope!r}")
    lines.append(f"# slope_stderr={stderr!r}")
    lines.append("# start states: half-area minus rectangle (plus bc) or a"
                 " ground state (periodic bc): worst-case flavor, not stationary")
    _emit(lines, args.out)
    return 0


# ------------------------------------------------------------- simulate


def cmd_simulate(args):
    _merge(
        args,
        {
            "beta": "1.0",
            "size": "3",
            "bc": "plus",
            "seed": "0",
            "stop": "events=1000",
            "init": "plus",
            "kind": "metropolis",
            "budget_events": str(10**7),
        },
    )
    betas = _betas(args.beta)
    if len(betas) != 1:
        raise SystemExit("simulate takes a single --beta")
    beta = betas[0]
    L = _resolve_size(args.size, beta)
    spec = _resolve_spec(args.bc, L)
    init_arg = str(args.init)
    if init_arg == "plus":
        init = SpinConfig.all_plus(spec)
    elif init_arg == "minus":
        init = SpinConfig.all_minus(spec)
    elif init_arg == "rect":
        init = _rect_init(spec)
    elif init_arg.startswith("file:"):
        with open(init_arg[5:], "r", encoding="utf-8") as fh:
            init = SpinConfig.from_text(spec, fh.read())
    else:
        raise SystemExit(f"bad --init value {init_arg!r}")
    stop_arg = str(args.stop)
    try:
        if stop_arg.startswith("events="):
            stop = dynamics.stop_after_events(int(stop_arg[7:]))
        elif stop_arg.startswith("time="):
            stop = dynamics.stop_after_time(float(stop_arg[5:]))
        elif stop_arg == "hit-ground":
            stop = dynamics.stop_at_zero_defects()
        else:
            raise ValueError("use events=N, time=T or hit-ground")
    except ValueError as err:
        raise SystemExit(f"bad --stop value {stop_arg!r}: {err}") from None
    try:
        traj = dynamics.simulate(
            spec,
            beta,
            init,
            stop,
            seed=int(args.seed),
            kind=str(args.kind),
            max_events=int(args.budget_events),
        )
    except BudgetExceededError as err:
        raise SystemExit(f"simulate: {err}") from None
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dynamics.trajectory_to_text(traj))
    summary = [
        SCHEMA_LINE,
        "beta,L,bc,seed,tau",
        ",".join([_fmt(beta), str(L), str(args.bc), str(args.seed), _fmt(traj.elapsed)]),
    ]
    sys.stdout.write("\n".join(summary) + "\n")
    return 0


# --------------------------------------------------------------- verify


def _checks_quick():
    """Named invariant checks, each raising AssertionError on failure."""

    def parity_bijection_L3():
        spec = LatticeSpec(3, PLUS)
        seen = set()
        for cfg in lattice.enumerate_configs(spec):
            d = defect_map(cfg)
            assert lattice.parity_check(spec, d)
            back = lattice.invert_defects(spec, d)
            assert back.spins.tobytes() == cfg.spins.tobytes()
            seen.add(d.plaq.tobytes())
        assert len(seen) == 512

    def no_two_defect_states_L3():
        hist = lattice.count_by_defect_number(LatticeSpec(3, PLUS))
        assert hist.get(2, 0) == 0

    def defect_histogram_L2():
        hist = lattice.count_by_defect_number(LatticeSpec(2, PLUS))
        assert hist == {0: 1, 4: 9, 6: 6}, hist

    def counting_bound_L3():
        L = 3
        hist = lattice.count_by_defect_number(LatticeSpec(L, PLUS))
        for n, cnt in hist.items():
            if n == 0:
                continue
            k = n / 2.0
            bound = min((math.e * k) ** (2 * k) * L ** (2 * k), L ** (3 * k))
            assert cnt <= bound, (n, cnt, bound)

    def torus_ground_count_side3():
        assert len(lattice.ground_states(LatticeSpec(3, PERIODIC))) == 32

    def torus_count_prefix_side3():
        spec = LatticeSpec(3, PERIODIC)
        hist = lattice.count_by_defect_number(spec)
        for n, cnt in hist.items():
            if n == 0:
                continue
            assert cnt <= lattice.defect_pattern_count_bound(spec, n), n

    def flip_toggles_corners():
        rng = np.random.default_rng(0)
        spec = LatticeSpec(5, PLUS)
        for _ in range(20):
            bits = rng.integers(0, 2, size=(5, 5))
            cfg = SpinConfig._from_frozen(spec, (1 - 2 * bits).astype(np.int8))
            R = lattice.Rectangle.from_corners(1, 4, 0, 3)
            d0 = set(defect_map(cfg).defects())
            d1 = set(defect_map(cfg.flip(R.flip_sites())).defects())
            assert d1 == d0.symmetric_difference(R.corners)

    def rate_ratio_heatbath_metropolis():
        for beta in (0.5, 1.0, 3.0):
            met = RateModel(beta, "metropolis").table
            hb = RateModel(beta, "heat_bath").table
            ratio = hb / met
            assert np.all(ratio >= 0.5 - 1e-12) and np.all(ratio <= 1 + 1e-12)

    def detailed_balance_L2():
        spec = LatticeSpec(2, PLUS)
        G = exact.build_generator(spec, RateModel(1.5))
        pi = G.pi
        Q = G.Q.toarray()
        F = pi[:, None] * Q
        assert np.allclose(F, F.T, atol=1e-12)

    def generator_rowsums_zero_L3():
        G = exact.build_generator(LatticeSpec(3, PLUS), RateModel(1.0))
        sums = np.asarray(G.Q.sum(axis=1)).ravel()
        assert np.max(np.abs(sums)) < 1e-10

    def gap_L1_formula():
        for beta in (0.7, 1.3):
            G = exact.build_generator(LatticeSpec(1, PLUS), RateModel(beta))
            assert abs(exact.spectral_gap(G) - (1 + math.exp(-4 * beta))) < 1e-10

    def gap_beta0_L2():
        G = exact.build_generator(LatticeSpec(2, PLUS), RateModel(0.0))
        assert abs(exact.spectral_gap(G) - 2.0) < 1e-10

    def eigenfunction_rayleigh_L3():
        G = exact.build_generator(LatticeSpec(3, PLUS), RateModel(1.0))
        gap, f = exact.slow_eigenfunction(G)
        ratio = exact.rayleigh_lower_bound(G, f)
        assert ratio <= 1.0 / gap + 1e-9
        assert ratio >= (1.0 / gap) * (1 - 1e-6)

    def tmix_ge_trel_ln2_L2():
        G = exact.build_generator(LatticeSpec(2, PLUS), RateModel(1.0))
        assert exact.tv_mixing_time(G) >= 0.98 * math.log(2) * exact.relaxation_time(G)

    def profile_bound_ge_tmix_L2():
        G = exact.build_generator(LatticeSpec(2, PLUS), RateModel(1.0))
        assert exact.profile_mixing_bound(G).value >= exact.tv_mixing_time(G)

    def singleton_lambda_formula_L2():
        spec = LatticeSpec(2, PLUS)
        model = RateModel(1.0)
        G = exact.build_generator(spec, model)
        pi = G.pi
        idx = 3
        lam = exact._lambda_of_subset(G, np.array([idx]))
        c = -G.Q[idx, idx]
        assert abs(lam - c / (1 - pi[idx])) < 1e-10

    def rectangle_energy_discipline():
        rng = np.random.default_rng(2)
        spec = LatticeSpec(5, PLUS)
        for _ in range(30):
            bits = rng.integers(0, 2, size=(5, 5))
            cfg = SpinConfig._from_frozen(spec, (1 - 2 * bits).astype(np.int8))
            d = defect_map(cfg)
            if d.count == 0:
                continue
            for R in paths.extended_rectangles(d):
                cts = paths.rectangle_removal_path(cfg, R).defect_counts()
                assert max(cts) <= d.count + 2
                assert cts[-1] - cts[0] in (-2, -4)

    def extended_rectangle_count_bounds():
        rng = np.random.default_rng(3)
        spec = LatticeSpec(5, PLUS)
        for _ in range(30):
            bits = rng.integers(0, 2, size=(5, 5))
            cfg = SpinConfig._from_frozen(spec, (1 - 2 * bits).astype(np.int8))
            d = defect_map(cfg)
            if d.count == 0:
                continue
            assert len(paths.extended_rectangles(d)) >= d.count / 4

    def split_part_bounds():
        rng = np.random.default_rng(4)
        spec = LatticeSpec(6, PLUS)
        for _ in range(30):
            bits = rng.integers(0, 2, size=(6, 6))
            cfg = SpinConfig._from_frozen(spec, (1 - 2 * bits).astype(np.int8))
            sp = paths.compute_split(cfg, 1)
            colcount = np.count_nonzero(defect_map(cfg).plaq == -1, axis=1)
            for i in range(1, sp.m):
                lo, hi = sp.part_columns(i)
                cnt = int(colcount[lo : hi + 1].sum())
                assert 6 <= cnt <= 6 + 6 + 1

    def classify_total_random_vectors():
        rng = np.random.default_rng(5)
        for _ in range(2000):
            v = tuple(int(x) for x in rng.integers(0, 21, size=21))
            cls = paths.classify_occupancy(v, 6.0)
            assert cls.sparse or cls.theta is not None

    def flow_bound_L2_beta1():
        spec = LatticeSpec(2, PLUS)
        res = paths.flow_cost(spec, 1.0, level=1)
        G = exact.build_generator(spec, RateModel(1.0))
        assert exact.spectral_gap(G) >= 1.0 / res.cost

    def ground_code_roundtrip_side3():
        spec = LatticeSpec(3, PERIODIC)
        for g in lattice.ground_states(spec):
            code = ground.encode_ground(g)
            assert ground.decode_ground(spec, code).spins.tobytes() == g.spins.tobytes()

    def minimal_path_recovery_side3():
        spec = LatticeSpec(3, PERIODIC)
        g = SpinConfig.all_plus(spec)
        u = ground.encode_ground(g)
        w = list(u)
        w[1] = -1
        h = ground.decode_ground(spec, tuple(w))
        a, b = (h, g) if ground.code_order_key(tuple(w)) < ground.code_order_key(u) else (g, h)
        for m in (1, 2, 3):
            for k in (1, 2):
                cfg = ground.minimal_path_config(a, b, m, k)
                pls = ground.locate_on_minimal_path(cfg)
                assert any(
                    p.m == m and p.k == k
                    and p.sigma.spins.tobytes() == a.spins.tobytes()
                    for p in pls
                )

    def trajectory_roundtrip():
        spec = LatticeSpec(3, PLUS)
        traj = dynamics.simulate(
            spec, 1.0, SpinConfig.all_minus(spec),
            dynamics.stop_after_events(200), seed=7,
        )
        text = dynamics.trajectory_to_text(traj)
        back = dynamics.trajectory_from_text(text)
        assert back.final.spins.tobytes() == traj.final.spins.tobytes()

    def hitting_seed_determinism():
        spec = LatticeSpec(2, PLUS)
        a = dynamics.hitting_time(
            spec, 1.5, SpinConfig.all_minus(spec),
            dynamics.stop_at_zero_defects(), 20, seed=3,
        )
        b = dynamics.hitting_time(
            spec, 1.5, SpinConfig.all_minus(spec),
            dynamics.stop_at_zero_defects(), 20, seed=3,
        )
        assert np.array_equal(a.taus, b.taus) and a.mean == b.mean

    def ground_mass_decay_rate_L3():
        # 1 - pi(ground) shrinks like the 4-defect Boltzmann factor
        for bc in (PLUS, PERIODIC):
            vals = []
            for beta in (2.0, 3.0):
                G = exact.build_generator(LatticeSpec(3, bc), RateModel(beta))
                vals.append(1.0 - exact.ground_mass(G))
            ratio = vals[1] / vals[0]
            assert 0.5 * math.exp(-4) <= ratio <= 2 * math.exp(-4), (bc, ratio)

    def excursion_nonreturn_side3():
        ex = ground.excursion_statistics(
            LatticeSpec(3, PERIODIC), 3.0, n_excursions=150, seed=12
        )
        pn = ex.p_other_ground + ex.p_escape
        assert 0.2 <= pn * 3 <= 5.0, pn

    return [
        ("parity_bijection_L3", parity_bijection_L3),
        ("no_two_defect_states_L3", no_two_defect_states_L3),
        ("defect_histogram_L2", defect_histogram_L2),
        ("counting_bound_L3", counting_bound_L3),
        ("torus_ground_count_side3", torus_ground_count_side3),
        ("torus_count_prefix_side3", torus_count_prefix_side3),
        ("flip_toggles_corners", flip_toggles_corners),
        ("rate_ratio_heatbath_metropolis", rate_ratio_heatbath_metropolis),
        ("detailed_balance_L2", detailed_balance_L2),
        ("generator_rowsums_zero_L3", generator_rowsums_zero_L3),
        ("gap_L1_formula", gap_L1_formula),
        ("gap_beta0_L2", gap_beta0_L2),
        ("eigenfunction_rayleigh_L3", eigenfunction_rayleigh_L3),
        ("tmix_ge_trel_ln2_L2", tmix_ge_trel_ln2_L2),
        ("profile_bound_ge_tmix_L2", profile_bound_ge_tmix_L2),
        ("singleton_lambda_formula_L2", singleton_lambda_formula_L2),
        ("rectangle_energy_discipline", rectangle_energy_discipline),
        ("extended_rectangle_count_bounds", extended_rectangle_count_bounds),
        ("split_part_bounds", split_part_bounds),
        ("classify_total_random_vectors", classify_total_random_vectors),
        ("flow_bound_L2_beta1", flow_bound_L2_beta1),
        ("ground_code_roundtrip_side3", ground_code_roundtrip_side3),
        ("minimal_path_recovery_side3", minimal_path_recovery_side3),
        ("trajectory_roundtrip", trajectory_roundtrip),
        ("hitting_seed_determinism", hitting_seed_determinism),
        ("ground_mass_decay_rate_L3", ground_mass_decay_rate_L3),
        ("excursion_nonreturn_side3", excursion_nonreturn_side3),
    ]


def _checks_full():
    def counting_bound_L4():
        L = 4
        hist = lattice.count_by_defect_number(LatticeSpec(L, PLUS))
        assert hist.get(2, 0) == 0
        for n, cnt in hist.items():
            if n == 0:
                continue
            k = n / 2.0
            bound = min((math.e * k) ** (2 * k) * L ** (2 * k), L ** (3 * k))
            assert cnt <= bound, (n, cnt, bound)

    def ground_code_roundtrip_side4():
        spec = LatticeSpec(4, PERIODIC)
        gs = lattice.ground_states(spec)
        assert len(gs) == 2 ** 7
        for g in gs:
            code = ground.encode_ground(g)
            assert ground.decode_ground(spec, code).spins.tobytes() == g.spins.tobytes()

    def path_suite_10k_L6():
        rng = np.random.default_rng(99)
        spec = LatticeSpec(6, PLUS)
        L = 6
        for trial in range(10000):
            bits = rng.integers(0, 2, size=(L, L))
            cfg = SpinConfig._from_frozen(spec, (1 - 2 * bits).astype(np.int8))
            d0 = defect_map(cfg).count
            if d0 == 0:
                continue
            p = paths.sample_full_path(cfg, 3.0, seed=rng)
            assert p.final.spins.min() == 1
            assert len(p) <= L * L * min(3.0 * L + 1, d0 / 2.0) + L * L

    return [
        ("counting_bound_L4", counting_bound_L4),
        ("ground_code_roundtrip_side4", ground_code_roundtrip_side4),
        ("path_suite_10k_L6", path_suite_10k_L6),
    ]


def cmd_verify(args):
    _merge(args, {"level": "quick"})
    level = str(args.level)
    if level not in ("quick", "full"):
        raise SystemExit("--level must be quick or full")
    checks = _checks_quick()
    if level == "full":
        checks += _checks_full()
    failures = []
    print(SCHEMA_LINE)
    print("check,status")
    for name, fn in checks:
        try:
            fn()
            print(f"{name},pass")
        except Exception as e:  # noqa: BLE001 - report and continue
            failures.append((name, e))
            print(f"{name},FAIL")
    if failures:
        name, e = failures[0]
        print(f"FAILED: {name}: {e}", file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------------------- main


def _add_common(p):
    p.add_argument("--beta", default=None, help="inverse temperature, comma list allowed")
    p.add_argument("--size", default=None, help='side length, or "critical"')
    p.add_argument("--bc", default=None, help="plus, per, or fixed:<frame file>")
    p.add_argument("--seed", default=None)
    p.add_argument("--out", default=None, help="mirror main output to this file")
    p.add_argument("--config", default=None, help='"key = value" config file')
    p.add_argument("--kind", default=None, help="metropolis or heat_bath")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="plaquette",
        description="square plaquette model: exact analysis, path bounds, simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the named invariant suite")
    p.add_argument("--level", default=None, help="quick or full")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("exact", help="gap, relaxation, mixing, profile bound")
    _add_common(p)
    p.add_argument("--eps", default=None, help="mixing threshold (default 0.25)")
    p.add_argument("--dump-matrix", dest="dump_matrix", default=None,
                   help="write generator entries 'i j rate' to this file")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("flow", help="congestion bound on the spectral gap")
    _add_common(p)
    p.add_argument("--level", default=None, help="defect level k of the source set")
    p.add_argument("--mode", default=None, help="exhaustive or monte_carlo")
    p.add_argument("--samples", default=None)
    p.add_argument("--split-threshold", dest="split_threshold", default=None)
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("arrhenius", help="hitting-time sweep at the critical length")
    _add_common(p)
    p.add_argument("--replicas", default=None)
    p.add_argument("--budget-events", dest="budget_events", default=None)
    p.add_argument("--workers", default=None)
    p.set_defaults(func=cmd_arrhenius)

    p = sub.add_parser("simulate", help="run one trajectory to a stop rule")
    _add_common(p)
    p.add_argument("--stop", default=None, help='"events=N", "time=T", or "hit-ground"')
    p.add_argument("--init", default=None, help="plus, minus, rect, or file:<path>")
    p.add_argument("--budget-events", dest="budget_events", default=None)
    p.set_defaults(func=cmd_simulate)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
