"""Acceptance battery: one test per shipped guarantee, wall budget included.

Each test states its tolerance inline and runs end to end on a fresh
interpreter. Three assertions (09a, 10a, 10b) record measured behavior
that sits outside the intended target bands; they are kept failing on
purpose rather than widened. The README walks through each of them.
"""

import math
import time

import numpy as np

from plaquette.lattice import (
    LatticeSpec,
    SpinConfig,
    PLUS,
    PERIODIC,
    defect_map,
    parity_check,
    invert_defects,
    count_by_defect_number,
    ground_states,
)
from plaquette.dynamics import RateModel
from plaquette import cli, exact, ground, paths


def _all_configs(spec):
    L = spec.side
    n = L * L
    for mask in range(1 << n):
        spins = np.ones((L, L), dtype=np.int8)
        for b in range(n):
            if mask >> b & 1:
                spins[b % L, b // L] = -1
        yield SpinConfig._from_frozen(spec, spins)


def _random_plus_config(spec, rng):
    L = spec.side
    sites = [(i % L + 1, i // L + 1) for i in range(L * L)]
    bits = rng.integers(0, 2, size=L * L)
    return SpinConfig.all_plus(spec).flip([s for k, s in enumerate(sites) if bits[k]])


def test_01_parity_bijection():
    # every L=3 state maps to a distinct parity-even pattern and back; the
    # image fills the whole 2^9-element parity-constrained set
    t0 = time.monotonic()
    spec = LatticeSpec(3, PLUS)
    seen = set()
    for cfg in _all_configs(spec):
        pattern = defect_map(cfg)
        assert parity_check(spec, pattern)
        key = pattern.plaq.tobytes()
        assert key not in seen
        seen.add(key)
        back = invert_defects(spec, pattern)
        assert np.array_equal(back.spins, cfg.spins)
    assert len(seen) == 512

    # independent count of the parity-constrained set: sign patterns on the
    # 4x4 plaquette grid with every row and column product positive
    masks = np.arange(1 << 16, dtype=np.uint32)
    bits = (masks[:, None] >> np.arange(16)) & 1
    grid = bits.reshape(-1, 4, 4)
    even = (grid.sum(axis=1) % 2 == 0).all(axis=1) & (grid.sum(axis=2) % 2 == 0).all(axis=1)
    assert int(even.sum()) == 512
    assert time.monotonic() - t0 < 1.0


def test_02_defect_counting_bounds():
    t0 = time.monotonic()
    for L in (3, 4):
        hist = count_by_defect_number(LatticeSpec(L, PLUS))
        assert hist.get(2, 0) == 0
        for two_k, cnt in hist.items():
            if two_k == 0:
                assert cnt == 1
                continue
            k = two_k // 2
            bound = min((math.e * k) ** (2 * k) * float(L) ** (2 * k), float(L) ** (3 * k))
            assert cnt <= bound, (L, two_k, cnt, bound)
    n = 3
    hist = count_by_defect_number(LatticeSpec(n, PERIODIC))
    assert hist.get(2, 0) == 0
    Lp = n - 1
    prefix = 2.0 ** (2 * Lp + 1)
    for two_k, cnt in hist.items():
        k = two_k // 2
        if k == 0:
            assert cnt <= prefix
            continue
        bound = prefix * min((math.e * k) ** (2 * k) * float(Lp) ** (2 * k), float(Lp) ** (3 * k))
        assert cnt <= bound, (two_k, cnt, bound)
    assert time.monotonic() - t0 < 30.0


def test_03_ground_mass_decay():
    # deficit 1 - pi(grounds) per added unit of beta, band [0.5, 2]*e^-4;
    # L=3 has no two-defect level, so the deficit is a Boltzmann sum over
    # four or more defects and its leading contraction factor is e^-4 (the
    # same band as verify's ground_mass_decay_rate_L3)
    t0 = time.monotonic()
    ratios = {}
    for bc in (PLUS, PERIODIC):
        spec = LatticeSpec(3, bc)
        deficit = {}
        for beta in (1.0, 2.0, 3.0):
            G = exact.build_generator(spec, RateModel(beta))
            deficit[beta] = 1.0 - exact.ground_mass(G)
        ratios[bc] = (deficit[2.0] / deficit[1.0], deficit[3.0] / deficit[2.0])
    assert time.monotonic() - t0 < 5.0
    lo, hi = 0.5 * math.exp(-4.0), 2.0 * math.exp(-4.0)
    for bc, pair in ratios.items():
        for r in pair:
            assert lo <= r <= hi, (
                f"bc={bc}: per-unit-beta deficit ratio {r:.6g} outside "
                f"[{lo:.6g}, {hi:.6g}]; measured contraction tracks e^-4={math.exp(-4):.6g}"
            )


def test_04_flow_gap_bound():
    # spectral gap from the eigensolver vs congestion cost from full path
    # enumeration, two independent routes to the same inequality
    t0 = time.monotonic()
    for L, beta in ((2, 1.0), (2, 2.0), (3, 1.0)):
        spec = LatticeSpec(L, PLUS)
        res = paths.flow_cost(spec, beta, level=1)
        G = exact.build_generator(spec, RateModel(beta))
        gap = exact.spectral_gap(G)
        assert gap * res.cost >= 1.0, (L, beta, gap, res.cost)
    assert time.monotonic() - t0 < 600.0


def test_05_path_battery():
    # 10^4 full paths at L=6, beta=3: termination, length, per-segment
    # energy discipline, edge typing, split recovery, occupancy stability
    t0 = time.monotonic()
    L, BETA = 6, 3.0
    spec = LatticeSpec(L, PLUS)
    rng = np.random.default_rng(20260819)
    all_plus_key = SpinConfig.all_plus(spec).spins.tobytes()
    api_edges = 0
    for trial in range(10_000):
        cfg = _random_plus_config(spec, rng)
        p = paths.sample_full_path(cfg, BETA, seed=trial)
        assert p.initial == cfg
        w = paths._Walker(cfg)
        n0 = w.count
        assert len(p) <= L * L * min(BETA * L + 1, n0 / 2.0), (len(p), n0)
        row0 = np.count_nonzero(defect_map(cfg).plaq == -1, axis=0)
        cum = 0
        api_path = trial % 20 == 0
        for mark in p.marks:
            seg = p.flips[cum : cum + mark.n_flips]
            seg_start_cfg = w.config() if api_path else None
            n_seg = w.count
            rows_in_order = []
            for x in seg:
                if not rows_in_order or rows_in_order[-1] != x[1]:
                    rows_in_order.append(x[1])
            seg_edges = []
            for idx, x in enumerate(seg):
                assert 1 <= x[0] <= L and 1 <= x[1] <= L
                n_minus = w.count
                if mark.kind == "rectangle":
                    seg_edges.append(paths.EdgeRef(w.config(), x))
                w.flip(x)
                n_plus = w.count
                if mark.kind == "rectangle":
                    etype = (
                        "fin"
                        if x[1] == rows_in_order[-1]
                        else "init"
                        if x[1] == rows_in_order[0] and len(rows_in_order) > 1
                        else "mid"
                    )
                    # energy bound in log-weight form:
                    # -beta*max(n-,n+) >= -2beta - beta*n_seg for init/mid,
                    # and >= -beta*n_seg for fin
                    cap = n_seg if etype == "fin" else n_seg + 2
                    assert -BETA * max(n_minus, n_plus) >= -BETA * cap - 1e-9, (
                        etype,
                        n_minus,
                        n_plus,
                        n_seg,
                    )
                    assert n_plus <= n_seg + 2
                rows_now = np.count_nonzero(defect_map(w.config()).plaq == -1, axis=0)
                drift = int(np.abs(rows_now - row0).max())
                assert drift <= 8
            if mark.kind == "rectangle":
                assert n_seg - w.count in (2, 4)
                for e in seg_edges:
                    assert paths.identify_split(e) == mark.part_index
            else:
                assert mark.kind == "naive"
                assert mark is p.marks[-1] and w.count == 0
            if api_path and mark.kind == "rectangle":
                occ = paths.occupancy_vector(seg_start_cfg, mark.part_index)
                start_rows = np.count_nonzero(defect_map(seg_start_cfg).plaq == -1, axis=0)
                assert occ.v == tuple(int(v) for v in start_rows)
                for edge_idx, e in enumerate(seg_edges):
                    x = e.site
                    etype_bulk = (
                        "fin"
                        if x[1] == rows_in_order[-1]
                        else "init"
                        if x[1] == rows_in_order[0] and len(rows_in_order) > 1
                        else "mid"
                    )
                    assert paths.edge_type(e, mark.rectangle, seg_start_cfg) == etype_bulk
                    api_edges += 1
            cum += mark.n_flips
        assert w.count == 0 and w.key() == all_plus_key
    assert api_edges > 10_000
    assert time.monotonic() - t0 < 300.0


def test_06_occupancy_partition():
    # exactly one class for every vector: realizable-range, stress-range,
    # and peaked families, plus every vector arising from real configs
    t0 = time.monotonic()
    rng = np.random.default_rng(606)
    n_dense = 0
    for i in range(100_000):
        kind = i % 3
        if kind == 0:
            v = rng.integers(0, 22, size=21)
        elif kind == 1:
            v = rng.integers(0, 46, size=21)
        else:
            v = np.full(21, int(rng.integers(30, 61)))
            idx = rng.integers(0, 21, size=6)
            v[idx] += rng.integers(-3, 4, size=6)
            v = np.clip(v, 0, None)
        vec = tuple(int(x) for x in v)
        cls = paths.classify_occupancy(vec, 6.0)
        assert cls.sparse != (cls.theta is not None)
        if cls.theta is not None:
            n_dense += 1
            if n_dense % 100 == 0:
                # the reported offset is the smallest workable one
                occ = paths.OccupancyVector(v=vec)
                for smaller in range(cls.theta):
                    target = occ.v_max - smaller
                    nm = occ.num(target)
                    assert any(6.0 * nm < occ.num(target - k) for k in range(-32, 33))
    assert n_dense > 30_000

    spec = LatticeSpec(8, PLUS)
    for trial in range(10_000):
        cfg = _random_plus_config(spec, rng)
        sp = paths.compute_split(cfg)
        for part in range(1, sp.n + 1):
            occ = paths.occupancy_vector(cfg, part)
            cls = paths.classify_occupancy(occ, 6.0)
            assert cls.sparse != (cls.theta is not None)
    assert time.monotonic() - t0 < 60.0


def test_07_torus_ground_structure():
    t0 = time.monotonic()
    for n in (2, 3, 4):
        spec = LatticeSpec(n, PERIODIC)
        # brute force over all 2^(n^2) assignments, plaquettes via rolls
        masks = np.arange(1 << (n * n), dtype=np.uint32)
        bits = ((masks[:, None] >> np.arange(n * n)) & 1).astype(np.int8)
        spins = (1 - 2 * bits).reshape(-1, n, n)
        plaq = (
            spins
            * np.roll(spins, -1, axis=1)
            * np.roll(spins, -1, axis=2)
            * np.roll(np.roll(spins, -1, axis=1), -1, axis=2)
        )
        n_ground = int((plaq == 1).all(axis=(1, 2)).sum())
        assert n_ground == 2 ** (2 * n - 1)
        grounds = ground_states(spec)
        assert len(grounds) == n_ground
        codes = set()
        for g in grounds:
            code = ground.encode_ground(g)
            assert len(code) == 2 * n - 1
            codes.add(code)
            back = ground.decode_ground(spec, code)
            assert np.array_equal(back.spins, g.spins)
        assert len(codes) == n_ground
    assert time.monotonic() - t0 < 120.0


def test_08_variational_lower_bounds():
    t0 = time.monotonic()
    for beta in (1.0, 2.0, 3.0):
        G = exact.build_generator(LatticeSpec(3, PLUS), RateModel(beta))
        f = exact.test_function_plus_values(G)
        assert exact.rayleigh_lower_bound(G, f) <= exact.relaxation_time(G) * (1 + 1e-12)

        Gt = exact.build_generator(LatticeSpec(3, PERIODIC), RateModel(beta))
        g = np.array([ground.test_function_g(Gt.config(i)) for i in range(Gt.n_states)])
        assert exact.rayleigh_lower_bound(Gt, g) <= exact.relaxation_time(Gt) * (1 + 1e-12)
    assert time.monotonic() - t0 < 60.0


def test_09a_trace_locality():
    # target: at least 95% of ground-to-ground transition mass on single
    # code-line moves plus the antipode; the chain instead spends a
    # beta-independent share of moves on multi-line rearrangements, and the
    # measured local fraction plateaus near 2/3 as the side grows
    t0 = time.monotonic()
    measured = {}
    for side in (3, 4):
        rep = ground.estimate_trace_kernel(LatticeSpec(side, PERIODIC), 3.0, 10_000, seed=11)
        measured[side] = rep.fraction_local
    assert time.monotonic() - t0 < 540.0
    for side, frac in measured.items():
        assert frac >= 0.95, (
            f"side {side}: local fraction {frac:.4f} < 0.95 "
            f"(all sides measured: {measured})"
        )


def test_09b_excursion_nonreturn():
    t0 = time.monotonic()
    for side in (3, 4, 5):
        st = ground.excursion_statistics(LatticeSpec(side, PERIODIC), 3.0, 400, seed=12)
        assert st.n_unfinished == 0
        scaled = (st.p_escape + st.p_other_ground) * side
        assert 0.2 <= scaled <= 5.0, (side, scaled)
    assert time.monotonic() - t0 < 60.0


_ARRHENIUS = {}


def _arrhenius_sweep():
    if _ARRHENIUS:
        return _ARRHENIUS
    t0 = time.monotonic()
    betas = [2.0, 2.25, 2.5, 2.75, 3.0, 3.25, 3.5]
    for bc in ("plus", "per"):
        means, his = [], []
        for idx, b in enumerate(betas):
            L = cli._resolve_size("critical", b)
            _, _, res = cli._arrhenius_point((b, L, bc, 0, idx, 200, "metropolis", 10**7))
            assert res.flagged == 0
            means.append(res.mean)
            his.append(res.ci_hi)
        slope, stderr = cli._weighted_slope(betas, means, his)
        _ARRHENIUS[bc] = (slope, stderr)
    assert time.monotonic() - t0 < 1800.0
    return _ARRHENIUS


def test_10a_arrhenius_plus_band():
    # target band [3.0, 4.0] for the fitted activation slope; the grid's
    # beta=2 anchor runs at critical length 2, where the half-area start
    # is a barrier-free domino, and its tiny tau tilts the fit above 4
    slope, stderr = _arrhenius_sweep()["plus"]
    assert 3.0 <= slope <= 4.0, (
        f"plus-boundary slope {slope:.3f} (stderr {stderr:.3f}) outside [3.0, 4.0]"
    )


def test_10b_arrhenius_ordering():
    # target: periodic activation slope at or above the plus one; measured
    # periodic slope ~3.1 sits below because the inter-ground hitting time
    # scales like one trace move, e^(4*beta)/L, not like e^(4*beta)
    sweep = _arrhenius_sweep()
    slope_plus, _ = sweep["plus"]
    slope_per, stderr = sweep["per"]
    assert slope_per >= slope_plus, (
        f"periodic slope {slope_per:.3f} (stderr {stderr:.3f}) "
        f"below plus slope {slope_plus:.3f}"
    )


def test_11_spectral_references():
    t0 = time.monotonic()
    for beta in (0.5, 1.0, 2.0, 3.0):
        G = exact.build_generator(LatticeSpec(1, PLUS), RateModel(beta))
        assert abs(exact.spectral_gap(G) - (1.0 + math.exp(-4.0 * beta))) < 1e-10
    G0 = exact.build_generator(LatticeSpec(2, PLUS), RateModel(0.0))
    assert abs(exact.spectral_gap(G0) - 2.0) < 1e-10
    assert time.monotonic() - t0 < 1.0
