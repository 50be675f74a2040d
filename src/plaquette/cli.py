"""Command-line front end: verification suites, exact analysis, flow
bounds, Arrhenius sweeps, and trajectory runs.

Every command is deterministic given its configuration and seed. Outputs
are CSV on stdout (schema comment line first) or the text formats of the
library modules; --out writes the command's main artifact to a file.
Each option is declared once, with its type, default and choices, in
its `add_argument` call. A config file in "key = value" form supplies
option values that are parsed and checked like the matching flags, which
override them; keys of another command are ignored and unknown keys are
rejected.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

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


# -------------------------------------------------------- option values


def _checked(convert, ok, expected):
    """Option type: convert(text), accepted when ok(value) holds."""

    def parse(text):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return parse


_count = _checked(int, lambda n: n >= 1, "a positive integer")
_seed = _checked(int, lambda n: n >= 0, "a nonnegative integer")
_split_threshold = _checked(int, lambda n: n >= 2, "an integer of at least 2")
_tv_threshold = _checked(float, lambda eps: exact._TV_TAIL < eps < 1,
                         f"a number in ({exact._TV_TAIL:g}, 1)")
_betas = _checked(lambda text: [float(x) for x in text.split(",") if x.strip()],
                  lambda vals: vals and all(math.isfinite(b) and b >= 0 for b in vals),
                  "finite nonnegative numbers separated by commas")


def _size(text):
    """A side length, or "critical" for floor(exp(beta/2)) at each beta."""
    return text if text == "critical" else _count(text)


def _config_values(path, parsers, command):
    """The values a "key = value" file sets for `command`'s options, as
    strings for argparse to convert. Keys of the other commands are
    ignored; a key that no command has is an error."""
    actions = {a.dest: a for a in parsers[command]._actions}
    known = {a.dest for p in parsers.values() for a in p._actions} - {"help", "config"}
    values = {}
    for lineno, raw in enumerate(_read(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SystemExit(f"{path}:{lineno}: expected 'key = value'")
        key, val = (s.strip() for s in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in known:
            raise SystemExit(f"{path}:{lineno}: unknown key {key!r}")
        action = actions.get(key)
        if action is None:
            continue
        # argparse converts a string default with the option's type but
        # does not check it against the option's choices
        if action.choices is not None and val not in action.choices:
            raise SystemExit(f"{path}:{lineno}: {key} must be one of"
                             f" {', '.join(action.choices)}, not {val!r}")
        values[key] = val
    return values


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as err:
        raise SystemExit(f"cannot read {path}: {err.strerror}") from None


def _load(path, parse):
    """parse(text of the file at path); one line naming the file on error."""
    try:
        return parse(_read(path))
    except ValueError as err:
        raise SystemExit(f"{path}: {err}") from None


def _one_beta(args):
    if len(args.beta) != 1:
        raise SystemExit(f"{args.command} takes a single --beta")
    return args.beta[0]


def _resolve_size(size, beta):
    """--size at beta, "critical" read as floor(exp(beta/2)), which is >= 1
    since every beta has passed _betas."""
    try:
        return critical_length(beta) if size == "critical" else size
    except ValueError as err:
        raise SystemExit(f"--size critical: {err}") from None


def _resolve_spec(bc, L):
    if bc == "plus":
        return LatticeSpec(L, PLUS)
    if bc == "per":
        return LatticeSpec(L, PERIODIC)
    if bc.startswith("fixed:"):
        theta = _load(bc[len("fixed:"):], lambda text: dynamics.frame_from_text(L, text))
        return LatticeSpec(L, FIXED, theta=theta)
    raise SystemExit(f"bad --bc value {bc!r} (plus, per, or fixed:<file>)")


def _write(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as err:
        raise SystemExit(f"cannot write {path}: {err.strerror}") from None


def _emit(lines, out_path=None):
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if out_path:
        _write(out_path, text)


def _row(*fields):
    """One CSV row: floats by repr, which round-trips, the rest by str."""
    return ",".join(repr(x) if isinstance(x, float) else str(x) for x in fields)


# ---------------------------------------------------------------- exact


def _nan_over_budget(compute):
    try:
        return compute()
    except BudgetExceededError:
        return float("nan")


def cmd_exact(args):
    lines = [SCHEMA_LINE, "beta,L,bc,gap,trel,tmix,profile_bound,pi_ground"]
    for i, beta in enumerate(args.beta):
        L = _resolve_size(args.size, beta)
        G = exact.build_generator(_resolve_spec(args.bc, L), RateModel(beta, args.kind))
        # tmix and the profile bound read nan where the box is past their
        # dense budget (exact.DENSE_THRESHOLD states)
        try:
            gap = exact.spectral_gap(G)
            tmix = _nan_over_budget(lambda: exact.tv_mixing_time(G, eps=args.eps))
        except exact.ConvergenceError as err:
            raise SystemExit(f"exact: {err}") from None
        profile = _nan_over_budget(lambda: exact.profile_mixing_bound(G).value)
        lines.append(_row(beta, L, args.bc, gap, 1.0 / gap, tmix, profile,
                          exact.ground_mass(G)))
        if args.dump_matrix and i == 0:
            _write(args.dump_matrix, exact.dump_generator_text(G))
    _emit(lines, args.out)
    return 0


# ----------------------------------------------------------------- flow


def cmd_flow(args):
    beta = _one_beta(args)
    L = _resolve_size(args.size, beta)
    spec = _resolve_spec(args.bc, L)
    if spec.bc != PLUS:
        raise SystemExit("flow: flow bounds are computed for the all-plus boundary (--bc plus)")
    try:
        res = paths.flow_cost(spec, beta, args.level, mode=args.mode, seed=args.seed,
                              samples=args.samples, c=args.split_threshold, kind=args.kind)
    except (paths.PathSamplingError, ValueError) as err:
        raise SystemExit(f"flow: {err}") from None
    lam = float("nan")
    holds = ""
    if L <= 3:
        G = exact.build_generator(spec, RateModel(beta, args.kind))
        lam = exact.spectral_profile(G, args.level)
        holds = str(lam * res.cost >= 1.0 - 1e-9).lower()
    lines = [SCHEMA_LINE, "beta,L,level,mode,cost,inv_cost,lambda_S,holds",
             _row(beta, L, args.level, res.mode, res.cost, 1.0 / res.cost, lam, holds)]
    if res.mode == "monte_carlo":
        lines.append(f"# ci_halfwidth={res.ci_halfwidth!r}")
        lines.append(
            "# monte carlo congestion is the maximum over observed edges of noisy"
            " per-edge means: biased upward at small sample counts, not a bound"
            " in either direction"
        )
    _emit(lines)
    if args.out:
        _write(args.out, SCHEMA_LINE + "\n" + paths.flow_report_csv(res))
    return 0


# ------------------------------------------------------------ arrhenius


def _rect_init(spec):
    """Minus rectangle of area about half the box, centred in array
    storage (the same for 1-based fixed and 0-based periodic sites)."""
    L = spec.side
    w = min(L, max(1, round(L / math.sqrt(2.0))))
    h = min(L, max(1, round(L * L / 2.0 / w)))
    spins = np.ones((L, L), np.int8)
    a, b = (L - w) // 2, (L - h) // 2
    spins[a:a + w, b:b + h] = -1
    return SpinConfig(spec, spins)


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
    """Weighted least-squares slope of log mean against beta and its
    standard error; both nan with fewer than two distinct betas."""
    if len(set(betas)) < 2:
        return math.nan, math.nan
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
    if args.bc.startswith("fixed:"):
        raise SystemExit("arrhenius sweeps take --bc plus or per")
    payloads = [
        (beta, _resolve_size(args.size, beta), args.bc, args.seed, i, args.replicas, args.kind,
         args.budget_events)
        for i, beta in enumerate(sorted(args.beta))
    ]
    for payload in payloads:  # every point's box is refused here, before any replica runs
        _resolve_spec(args.bc, payload[1])
    if args.workers > 1 and len(payloads) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            results = list(pool.map(_arrhenius_point, payloads))
    else:
        results = [_arrhenius_point(p) for p in payloads]
    lines = [SCHEMA_LINE, "beta,L,bc,mean_tau,ci_lo,ci_hi,replicas,flagged"]
    for beta, L, res in results:
        lines.append(_row(beta, L, args.bc, res.mean, res.ci_lo, res.ci_hi, res.replicas,
                          res.flagged))
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
    beta = _one_beta(args)
    L = _resolve_size(args.size, beta)
    spec = _resolve_spec(args.bc, L)
    if args.init == "plus":
        init = SpinConfig.all_plus(spec)
    elif args.init == "minus":
        init = SpinConfig.all_minus(spec)
    elif args.init == "rect":
        init = _rect_init(spec)
    elif args.init.startswith("file:"):
        init = _load(args.init[len("file:"):], lambda text: SpinConfig.from_text(spec, text))
    else:
        raise SystemExit(f"bad --init value {args.init!r}")
    try:
        if args.stop.startswith("events="):
            stop = dynamics.stop_after_events(int(args.stop[7:]))
        elif args.stop.startswith("time="):
            stop = dynamics.stop_after_time(float(args.stop[5:]))
        elif args.stop == "hit-ground":
            stop = dynamics.stop_at_zero_defects()
        else:
            raise ValueError("use events=N, time=T or hit-ground")
    except ValueError as err:
        raise SystemExit(f"bad --stop value {args.stop!r}: {err}") from None
    traj = dynamics.simulate(spec, beta, init, stop, seed=args.seed, kind=args.kind,
                             max_events=args.budget_events, record=bool(args.out))
    if args.out:
        _write(args.out, dynamics.trajectory_to_text(traj))
    _emit([
        SCHEMA_LINE,
        "beta,L,bc,seed,tau",
        _row(beta, L, args.bc, args.seed, traj.elapsed),
    ])
    return 0


# --------------------------------------------------------------- verify
# Each check is a function named after itself that raises AssertionError
# on failure. A suite's roster is read off its definitions: every local
# of `_checks_quick` or `_checks_full` is a check, run in definition order.


def _counting_bound(spec):
    hist = lattice.count_by_defect_number(spec)
    assert hist.get(2, 0) == 0
    for n, cnt in hist.items():
        if n:
            bound = lattice.defect_pattern_count_bound(spec, n)
            assert cnt <= bound, (n, cnt, bound)


def _ground_code_roundtrip(side):
    spec = LatticeSpec(side, PERIODIC)
    gs = lattice.ground_states(spec)
    assert len(gs) == 2 ** (2 * side - 1)
    for g in gs:
        code = ground.encode_ground(g)
        assert ground.decode_ground(spec, code) == g


def _checks_quick():
    def parity_bijection_L3():
        spec = LatticeSpec(3, PLUS)
        seen = set()
        for cfg in lattice.enumerate_configs(spec):
            d = defect_map(cfg)
            assert lattice.parity_check(spec, d)
            back = lattice.invert_defects(spec, d)
            assert back == cfg
            seen.add(d)
        assert len(seen) == 512

    def no_two_defect_states_L3():
        hist = lattice.count_by_defect_number(LatticeSpec(3, PLUS))
        assert hist.get(2, 0) == 0

    def defect_histogram_L2():
        hist = lattice.count_by_defect_number(LatticeSpec(2, PLUS))
        assert hist == {0: 1, 4: 9, 6: 6}, hist

    def counting_bound_L3():
        _counting_bound(LatticeSpec(3, PLUS))

    def torus_ground_count_side3():
        assert len(lattice.ground_states(LatticeSpec(3, PERIODIC))) == 32

    def torus_count_prefix_side3():
        _counting_bound(LatticeSpec(3, PERIODIC))

    def flip_toggles_corners():
        rng = np.random.default_rng(0)
        spec = LatticeSpec(5, PLUS)
        for _ in range(20):
            cfg = SpinConfig.random(spec, rng)
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
            cfg = SpinConfig.random(spec, rng)
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
            d = defect_map(SpinConfig.random(spec, rng))
            if d.count == 0:
                continue
            assert len(paths.extended_rectangles(d)) >= d.count / 4

    def split_part_bounds():
        rng = np.random.default_rng(4)
        spec = LatticeSpec(6, PLUS)
        for _ in range(30):
            cfg = SpinConfig.random(spec, rng)
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
        _ground_code_roundtrip(3)

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
                    and p.sigma == a
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
        assert back.final == traj.final

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

    return list(locals().values())


def _checks_full():
    def counting_bound_L4():
        _counting_bound(LatticeSpec(4, PLUS))

    def ground_code_roundtrip_side4():
        _ground_code_roundtrip(4)

    def path_suite_10k_L6():
        rng = np.random.default_rng(99)
        spec = LatticeSpec(6, PLUS)
        L = 6
        for trial in range(10000):
            cfg = SpinConfig.random(spec, rng)
            d0 = defect_map(cfg).count
            if d0 == 0:
                continue
            p = paths.sample_full_path(cfg, 3.0, seed=rng)
            assert p.final.spins.min() == 1
            assert len(p) <= L * L * min(3.0 * L + 1, d0 / 2.0) + L * L

    return list(locals().values())


def cmd_verify(args):
    checks = _checks_quick()
    if args.level == "full":
        checks += _checks_full()
    failures = []
    print(SCHEMA_LINE)
    print("check,status")
    for fn in checks:
        try:
            fn()
            print(f"{fn.__name__},pass")
        except Exception as e:  # noqa: BLE001 - report and continue
            failures.append((fn.__name__, e))
            print(f"{fn.__name__},FAIL")
    if failures:
        name, e = failures[0]
        print(f"FAILED: {name}: {e}", file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------------------- main


def _parser():
    """The argument parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="plaquette",
        description="square plaquette model: exact analysis, path bounds, simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary):
        p = sub.add_parser(name, help=summary,
                           formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.add_argument("--config", help='"key = value" file of option values; flags win over it')
        p.set_defaults(func=func)
        return p

    verify = command("verify", cmd_verify, "run the named invariant suite")
    verify.add_argument("--level", default="quick", choices=("quick", "full"),
                        help="which invariant suite to run")
    ex = command("exact", cmd_exact, "gap, relaxation, mixing, profile bound")
    flow = command("flow", cmd_flow, "congestion bound on the spectral gap")
    arr = command("arrhenius", cmd_arrhenius, "hitting-time sweep at the critical length")
    sim = command("simulate", cmd_simulate, "run one trajectory to a stop rule")
    mirror = "mirror stdout to this file"
    for p, beta, size, out in (
        (ex, "1.0", "2", mirror),
        (flow, "1.0", "2", "write the per-edge congestion report to this file"),
        (arr, "2.0,2.25,2.5,2.75,3.0,3.25,3.5", "critical", mirror),
        (sim, "1.0", "3", "write the trajectory to this file"),
    ):
        p.add_argument("--beta", type=_betas, default=beta,
                       help="inverse temperature, comma list allowed")
        p.add_argument("--size", type=_size, default=size,
                       help='side length, or "critical" for floor(exp(beta/2))')
        p.add_argument("--bc", default="plus", help="plus, per, or fixed:<frame file>")
        p.add_argument("--kind", default="metropolis", choices=RateModel.KINDS, help="jump rates")
        p.add_argument("--out", help=out)
    for p in (flow, arr, sim):
        p.add_argument("--seed", type=_seed, default=0, help="random seed")
    for p in (arr, sim):
        p.add_argument("--budget-events", type=_count, default=dynamics.MAX_EVENTS_DEFAULT,
                       help="event cap per trajectory")
    ex.add_argument("--eps", type=_tv_threshold, default=0.25, help="mixing threshold")
    ex.add_argument("--dump-matrix",
                    help="write the first beta's generator entries 'i j rate' to this file")
    flow.add_argument("--level", type=_count, default=1, help="defect level k of the source set")
    flow.add_argument("--mode", default="exhaustive", choices=("exhaustive", "monte_carlo"),
                      help="every source state, or sampled ones")
    flow.add_argument("--samples", type=_count, default=10000, help="monte carlo source samples")
    flow.add_argument("--split-threshold", type=_split_threshold, default=100,
                      help="defects per split part, in units of L")
    arr.add_argument("--replicas", type=_count, default=200, help="replicas per beta")
    arr.add_argument("--workers", type=_count, default=os.cpu_count() or 1,
                     help="worker processes")
    sim.add_argument("--stop", default="events=1000", help='"events=N", "time=T", or "hit-ground"')
    sim.add_argument("--init", default="plus", help="plus, minus, rect, or file:<path>")
    return parser, sub.choices


def main(argv=None):
    parser, commands = _parser()
    args = parser.parse_args(argv)
    if args.config:
        commands[args.command].set_defaults(**_config_values(args.config, commands, args.command))
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as err:  # every spent budget exits here, with one line
        raise SystemExit(f"{args.command}: {err}") from None


if __name__ == "__main__":
    raise SystemExit(main())
