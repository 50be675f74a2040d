"""Periodic ground-state codes, minimal-path complexes, and excursions."""

import numpy as np
import pytest

from plaquette.dynamics import RateModel, Simulator, simulate
from plaquette.ground import (
    PathPlacement,
    code_order_key,
    code_weight,
    decode_ground,
    encode_ground,
    estimate_trace_kernel,
    excursion_statistics,
    locate_on_minimal_path,
    minimal_path_config,
    test_function_g as interp_g,
)
from plaquette.lattice import (
    PERIODIC,
    PLUS,
    BudgetExceededError,
    LatticeSpec,
    SpinConfig,
    defect_count,
    defect_map,
    ground_states,
)

# absorbed-at-the-far-end probabilities of the idealized one-dimensional
# weight walk, times L (tests/oracles/gen_small_oracles.py)
SRW_BAND = {3: 3.0, 4: 1.9901217351040104, 5: 1.6447807289132594}


def spec_of(side):
    return LatticeSpec(side, PERIODIC)


def test_code_roundtrip_exhaustive():
    for side in (3, 4):
        spec = spec_of(side)
        codes = set()
        for g in ground_states(spec):
            code = encode_ground(g)
            assert len(code) == 2 * side - 1
            assert decode_ground(spec, code) == g
            codes.add(code)
        assert len(codes) == 2 ** (2 * side - 1)


def test_encode_rejects_non_ground():
    spec = spec_of(3)
    bad = SpinConfig.all_plus(spec).flip([(0, 0)])
    with pytest.raises(ValueError):
        encode_ground(bad)


def test_decode_rejects_bad_code():
    spec = spec_of(3)
    with pytest.raises(ValueError):
        decode_ground(spec, (1, 1, 1))
    with pytest.raises(ValueError):
        decode_ground(spec, (1, 1, 1, 1, 2))


def test_code_order_antipodal_never_ties():
    # odd code length: a vector and its negation differ in weight
    spec = spec_of(3)
    for g in ground_states(spec):
        u = encode_ground(g)
        v = tuple(-x for x in u)
        assert code_weight(u) + code_weight(v) == 5
        assert code_order_key(u) != code_order_key(v)


def test_minimal_path_endpoints_and_window():
    spec = spec_of(4)
    g = SpinConfig.all_plus(spec)
    u = list(encode_ground(g))
    w = list(u)
    w[2] = -1
    h = decode_ground(spec, tuple(w))
    lo, hi = (h, g) if code_order_key(tuple(w)) < code_order_key(tuple(u)) else (g, h)
    assert minimal_path_config(lo, hi, 1, 0) == lo
    assert minimal_path_config(lo, hi, 1, 4) == hi
    mid = minimal_path_config(lo, hi, 2, 2)
    assert defect_count(mid) == 4
    with pytest.raises(ValueError):
        minimal_path_config(hi, lo, 1, 1)  # endpoints out of order
    with pytest.raises(ValueError):
        minimal_path_config(lo, hi, 5, 1)  # window start past the side
    far = decode_ground(spec, tuple(-x for x in u))
    with pytest.raises(ValueError):
        minimal_path_config(lo, far, 1, 1)  # more than one line apart... or
        # the antipodal family, which needs ordered codes too


def test_interpolated_states_have_rectangle_defects():
    spec = spec_of(4)
    gs = ground_states(spec)
    rng = np.random.default_rng(0)
    hits = 0
    for _ in range(60):
        g = gs[int(rng.integers(len(gs)))]
        u = list(encode_ground(g))
        i = int(rng.integers(len(u)))
        w = list(u)
        w[i] = -w[i]
        h = decode_ground(spec, tuple(w))
        a, b = (g, h) if code_order_key(tuple(u)) < code_order_key(tuple(w)) else (h, g)
        for k in (1, 2, 3):
            m = int(rng.integers(1, 5))
            cfg = minimal_path_config(a, b, m, k)
            d = defect_map(cfg)
            assert d.count == 4
            pts = d.defects()
            cols = sorted({x for x, _ in pts})
            rows = sorted({y for _, y in pts})
            assert set(pts) == {(c, r) for c in cols for r in rows}
            hits += 1
    assert hits == 180


def test_locate_recovers_constructed_placements():
    spec = spec_of(3)
    gs = ground_states(spec)
    rng = np.random.default_rng(1)
    for _ in range(80):
        g = gs[int(rng.integers(len(gs)))]
        u = list(encode_ground(g))
        i = int(rng.integers(len(u)))
        w = list(u)
        w[i] = -w[i]
        h = decode_ground(spec, tuple(w))
        a, b = (g, h) if code_order_key(tuple(u)) < code_order_key(tuple(w)) else (h, g)
        m = int(rng.integers(1, 4))
        k = int(rng.integers(1, 3))
        cfg = minimal_path_config(a, b, m, k)
        placements = locate_on_minimal_path(cfg)
        assert placements
        assert any(
            p.m == m and p.k == k and p.sigma == a and p.eta == b for p in placements
        )
        for p in placements:
            assert isinstance(p, PathPlacement)
            assert minimal_path_config(p.sigma, p.eta, p.m, p.k) == cfg


def test_locate_multiplicity_histogram_side3():
    # every 4-defect on-path state at side 3 decomposes in exactly two ways
    spec = spec_of(3)
    gs = ground_states(spec)
    states = {}
    constructions = 0
    for g in gs:
        u = list(encode_ground(g))
        neigh = [tuple(-x if j == i else x for j, x in enumerate(u)) for i in range(len(u))]
        neigh.append(tuple(-x for x in u))  # the antipodal line family
        for w in neigh:
            if not code_order_key(tuple(u)) < code_order_key(w):
                continue
            h = decode_ground(spec, w)
            for m in (1, 2, 3):
                for k in (1, 2):
                    cfg = minimal_path_config(g, h, m, k)
                    states[cfg.code] = cfg
                    constructions += 1
    hist = {}
    for cfg in states.values():
        n = len(locate_on_minimal_path(cfg))
        hist[n] = hist.get(n, 0) + 1
    assert constructions == 576
    assert hist == {2: 288}


def test_locate_rejects_off_complex_states():
    spec = spec_of(3)
    with pytest.raises(ValueError):
        locate_on_minimal_path(SpinConfig.all_plus(spec))  # a ground state
    six = SpinConfig.all_plus(spec).flip([(0, 0), (1, 1)])
    assert defect_count(six) == 6
    with pytest.raises(ValueError):
        locate_on_minimal_path(six)


def test_g_on_grounds_and_interpolants():
    spec = spec_of(3)
    for g in ground_states(spec):
        u = encode_ground(g)
        assert interp_g(g) == abs(code_weight(u) - 2.5)
    # generic window: the value interpolates the endpoint values linearly
    g = SpinConfig.all_plus(spec)
    u = list(encode_ground(g))
    w = list(u)
    w[0] = -1
    h = decode_ground(spec, tuple(w))
    a, b = (h, g) if code_order_key(tuple(w)) < code_order_key(tuple(u)) else (g, h)
    cfg = minimal_path_config(a, b, 2, 1)
    first = sorted(
        locate_on_minimal_path(cfg), key=lambda p: (code_order_key(encode_ground(p.sigma)), p.m)
    )[0]
    ga = abs(code_weight(encode_ground(first.sigma)) - 2.5)
    gb = abs(code_weight(encode_ground(first.eta)) - 2.5)
    want = (first.k / 3) * gb + (1 - first.k / 3) * ga
    assert interp_g(cfg) == pytest.approx(want, rel=1e-12)


def test_g_vanishes_off_the_complex():
    spec = spec_of(3)
    six = SpinConfig.all_plus(spec).flip([(0, 0), (1, 1)])
    assert interp_g(six) == 0.0


def test_first_excursion_jump_uniform_over_sites():
    # from a ground every site flip carries the same rate
    spec = spec_of(3)
    counts = {}
    for seed in range(450):
        rng = np.random.default_rng(seed)
        sim = Simulator(spec, RateModel(3.0), SpinConfig.all_plus(spec), rng)
        sim.step()
        diff = np.argwhere(sim.state().spins != 1)
        assert diff.shape[0] == 1
        site = (int(diff[0][0]), int(diff[0][1]))
        counts[site] = counts.get(site, 0) + 1
    assert set(counts) == set(spec.sites())
    expected = 450 / 9
    chi2 = sum((n - expected) ** 2 / expected for n in counts.values())
    assert chi2 < 26.1  # p = 0.999 for 8 degrees of freedom


def test_excursion_statistics_bands():
    for side in (3, 4):
        ex = excursion_statistics(spec_of(side), 3.0, n_excursions=250, seed=2)
        assert ex.replicas == 250
        total = ex.p_escape + ex.p_other_ground + ex.p_same_ground
        assert total == pytest.approx(1.0, abs=1e-12)
        assert ex.mean_duration > 0
        nonreturn = (ex.p_escape + ex.p_other_ground) * side
        assert 0.2 <= nonreturn <= 5.0
        # idealized one-dimensional walk sits in the same band
        assert 0.2 <= SRW_BAND[side] <= 5.0


def test_excursion_determinism():
    a = excursion_statistics(spec_of(3), 2.5, n_excursions=60, seed=7)
    b = excursion_statistics(spec_of(3), 2.5, n_excursions=60, seed=7)
    assert a.durations == b.durations
    assert a.p_other_ground == b.p_other_ground


def test_excursion_budget_too_small_to_finish():
    # one event leaves four defects on a periodic box; nothing has ended
    with pytest.raises(RuntimeError):
        excursion_statistics(spec_of(3), 2.0, n_excursions=5, seed=0, max_events=1)


def excursions_by_simulate(spec, beta, n, seed, max_events):
    """excursion_statistics' tallies the way they were first computed: one
    recorded `simulate` per child seed."""
    init = SpinConfig.all_plus(spec)

    def ended(sim):
        return sim.n_events > 0 and not 0 < sim.n_defects <= 4

    ends, durations, unfinished = [], [], 0
    for ss in np.random.SeedSequence(seed).spawn(n):
        try:
            traj = simulate(spec, beta, init, ended, seed=ss, max_events=max_events)
        except BudgetExceededError:
            unfinished += 1
            continue
        durations.append(traj.elapsed - traj.events[0][0])
        final = traj.final
        ends.append("escape" if defect_count(final) else "same" if final == init else "other")
    done = len(ends)
    probs = tuple(ends.count(e) / done for e in ("escape", "other", "same"))
    return probs, durations, unfinished


@pytest.mark.parametrize("side", [2, 3, 4, 5])
def test_excursion_replicas_match_a_loop_of_simulate(side):
    # 2 is the first budget at which an excursion can end
    for max_events in (10**6, 2, 3):
        ex = excursion_statistics(spec_of(side), 1.5, 40, seed=side, max_events=max_events)
        probs, durations, unfinished = excursions_by_simulate(spec_of(side), 1.5, 40, side,
                                                              max_events)
        assert (ex.p_escape, ex.p_other_ground, ex.p_same_ground) == probs
        assert ex.durations == durations and ex.n_unfinished == unfinished
    # every excursion on the 2x2 torus ends at its second event; on larger
    # boxes three events leave some unfinished
    assert 0 < unfinished < 40 or side == 2


@pytest.mark.parametrize("count", [0, -1, 2.5])
def test_excursion_counts_below_one_are_rejected(count):
    with pytest.raises(ValueError, match="n_excursions must be an integer of at least 1"):
        excursion_statistics(spec_of(3), 2.0, n_excursions=count)


def test_trace_kernel_report():
    rep = estimate_trace_kernel(spec_of(3), 3.0, n_records=400, seed=3)
    assert rep.n_pairs == 399
    assert sum(rep.counts.values()) == rep.n_pairs
    assert 0.0 <= rep.fraction_local <= 1.0
    assert sum(rep.visits.values()) == 400
    again = estimate_trace_kernel(spec_of(3), 3.0, n_records=400, seed=3)
    assert again.counts == rep.counts


@pytest.mark.parametrize("count", [-3, 2.5])
def test_trace_kernel_record_counts_must_be_nonnegative_integers(count):
    # the start is a ground state: -3 used to give one record, 2.5 three
    with pytest.raises(ValueError, match="n_records must be a nonnegative integer"):
        estimate_trace_kernel(spec_of(3), 3.0, n_records=count, seed=3)


def test_trace_kernel_with_no_records():
    rep = estimate_trace_kernel(spec_of(3), 3.0, n_records=0, seed=3)
    assert rep.n_pairs == 0 and rep.visits == {} and rep.sample.n_events == 0


def test_trace_kernel_locality_plateau():
    # consecutive ground records are Hamming-1 or antipodal about half the
    # time at these sizes; the rest turn corners through the 4-defect shelf
    rep = estimate_trace_kernel(spec_of(3), 3.0, n_records=1500, seed=4)
    assert 0.35 <= rep.fraction_local <= 0.65


def test_requires_periodic_boundary():
    plus_cfg = SpinConfig.all_plus(LatticeSpec(3, PLUS))
    with pytest.raises(ValueError):
        encode_ground(plus_cfg)
    with pytest.raises(ValueError):
        excursion_statistics(LatticeSpec(3, PLUS), 2.0, n_excursions=5, seed=0)


def test_locate_rejects_four_defects_with_no_adjacent_pair():
    # a 2x2 block flip at side 4 leaves defects in columns and rows {1, 3},
    # which no line window joins
    cfg = SpinConfig.all_plus(spec_of(4)).flip([(0, 0), (0, 1), (1, 0), (1, 1)])
    assert defect_map(cfg).defects() == [(1, 1), (1, 3), (3, 1), (3, 3)]
    with pytest.raises(ValueError, match="^off the path complex$"):
        locate_on_minimal_path(cfg)


@pytest.mark.parametrize("side", [2, 3, 4])
def test_every_located_placement_is_a_path_state(side):
    # the guarantee behind try_line's missing ground checks: every window
    # it flips leaves a ground state, and the placement rebuilds the state
    spec = spec_of(side)
    located = 0
    for code in range(1 << side * side):
        cfg = SpinConfig.from_code(spec, code)
        if defect_count(cfg) != 4:
            continue
        try:
            placements = locate_on_minimal_path(cfg)
        except ValueError as err:
            assert str(err) == "off the path complex"
            continue
        for p in placements:
            assert defect_count(p.sigma) == 0 and defect_count(p.eta) == 0
            assert minimal_path_config(p.sigma, p.eta, p.m, p.k) == cfg
        located += 1
    assert located > 0
