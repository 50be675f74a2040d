"""Generator assembly, spectra, mixing bounds, and variational tools.

Spectral and mass constants are pinned from the independent dense
recomputation in tests/oracles/gen_small_oracles.py.
"""

import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.stats import poisson

from plaquette import exact

from plaquette.cli import _rect_init
from plaquette.dynamics import (
    RateModel,
    hitting_time,
    stop_at_ground_other_than,
    stop_at_zero_defects,
)
from plaquette.exact import (
    DENSE_THRESHOLD,
    ConvergenceError,
    ProfileBound,
    build_generator,
    dirichlet_form,
    dump_generator_text,
    ground_mass,
    level_set,
    mean_hitting_time,
    profile_mixing_bound,
    rayleigh_lower_bound,
    relaxation_time,
    slow_eigenfunction,
    spectral_gap,
    spectral_profile,
    stationary_distribution,
    test_function_plus as witness_plus,
    test_function_plus_values as witness_plus_values,
    tv_mixing_time,
    variance,
    _kernel_below,
    _lambda_of_subset,
    _poisson_weights,
    _tv_all_starts,
    _tv_spectral,
)
from plaquette.lattice import (
    FIXED,
    PERIODIC,
    PLUS,
    BudgetExceededError,
    LatticeSpec,
    SpinConfig,
    critical_length,
    defect_count,
)

GAP_L1_BETA1 = 1.0183156388887342
GAP_L2_BETA0 = 2.0
GAP_L2_BETA1 = 0.2847662422089848
GAP_L2_BETA2 = 0.050965672292375516
GAP_L3_BETA1 = 0.1542219403486512
GAP_L4_BETA1 = 0.13288074424781995
GAP_L4_BETA3 = 0.0015039808491194731  # ARPACK eigsh: 0.0015039808491205775
TMIX_L2_BETA1 = 6.6988703495881055  # expm bisection, independent route
PI_GROUND_L3_PLUS_BETA2 = 0.9874647454351252
PI_GROUND_TORUS3_BETA2 = 0.9969532819332968


def G_of(L, beta, bc=PLUS):
    return build_generator(LatticeSpec(L, bc), RateModel(beta))


def test_generator_shape_and_rowsums():
    G = G_of(2, 1.0)
    assert G.n_states == 16
    Q = G.Q.toarray()
    assert np.all(Q - np.diag(np.diag(Q)) >= 0)
    assert np.max(np.abs(Q.sum(axis=1))) < 1e-12
    # sixteen states indexed by spin bitmask, counts match a direct pass
    for i in range(16):
        assert G.counts[i] == defect_count(G.config(i))
        assert G.config(i).code == i


def test_config_rejects_codes_outside_the_box():
    # 512 used to decode to all-plus, 10**6 to another state, and -1 to
    # raise OverflowError
    G = G_of(3, 1.0)
    for i in (512, 10**6, -1):
        with pytest.raises(ValueError, match="outside"):
            G.config(i)
    with pytest.raises(TypeError):
        G.config(1.0)
    assert G.config(np.int64(511)) == SpinConfig.all_minus(G.spec)


def test_generator_rates_follow_the_defect_change():
    # Q[i, i ^ (1 << b)] is the rate for k = (d(cfg) - d(cfg.flip([x])) + 4) / 2
    theta = np.ones((4, 4), dtype=np.int8)
    theta[0, 1] = theta[3, 2] = -1
    specs = [LatticeSpec(2, PLUS), LatticeSpec(2, PERIODIC), LatticeSpec(2, FIXED, theta=theta)]
    cases = [(spec, kind) for spec in specs for kind in ("metropolis", "heat_bath")]
    cases.append((LatticeSpec(3, PERIODIC), "metropolis"))
    for spec, kind in cases:
        model = RateModel(1.3, kind)
        G = build_generator(spec, model)
        Q = G.Q.tocsr()
        sites = spec.sites()  # storage order, so bit b is sites[b]
        for i in range(G.n_states):
            cfg = G.config(i)
            d = defect_count(cfg)
            for b, x in enumerate(sites):
                k = (d - defect_count(cfg.flip([x])) + 4) // 2
                assert Q[i, i ^ (1 << b)] == model.rate_for_k(k)


def test_stationary_distribution_is_gibbs():
    G = G_of(2, 1.3)
    pi = stationary_distribution(G)
    w = np.exp(-1.3 * G.counts.astype(float))
    assert np.allclose(pi, w / w.sum(), atol=1e-13)
    flow = pi[:, None] * G.Q.toarray()
    assert np.allclose(flow, flow.T, atol=1e-13)


def test_gap_pinned_values():
    assert spectral_gap(G_of(1, 1.0)) == pytest.approx(GAP_L1_BETA1, abs=1e-11)
    assert spectral_gap(G_of(2, 0.0)) == pytest.approx(GAP_L2_BETA0, abs=1e-11)
    assert spectral_gap(G_of(2, 1.0)) == pytest.approx(GAP_L2_BETA1, abs=1e-11)
    assert spectral_gap(G_of(2, 2.0)) == pytest.approx(GAP_L2_BETA2, abs=1e-11)
    assert spectral_gap(G_of(3, 1.0)) == pytest.approx(GAP_L3_BETA1, abs=1e-11)


def test_gap_sparse_route_agrees_with_dense():
    # includes L=3 periodic at beta=3, where the gap is 3.2e-5
    for L, bc, kind, beta in itertools.product((2, 3), (PLUS, PERIODIC), RateModel.KINDS,
                                               (0.0, 1.0, 3.0)):
        G = build_generator(LatticeSpec(L, bc), RateModel(beta, kind))
        dense = spectral_gap(G)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sparse = spectral_gap(G, dense_threshold=1)
        assert sparse == pytest.approx(dense, abs=1e-11), (L, bc, kind, beta)


def test_gap_sparse_route_pinned_and_deterministic_at_l4():
    G = G_of(4, 1.0)
    assert G.n_states > DENSE_THRESHOLD
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gap = spectral_gap(G)
    assert gap == pytest.approx(GAP_L4_BETA1, abs=1e-11)
    assert spectral_gap(G) == gap
    # L=4 is the critical length at beta=3
    assert spectral_gap(G_of(4, 3.0)) == pytest.approx(GAP_L4_BETA3, abs=1e-11)


def test_gap_sparse_route_raises_when_unconverged(monkeypatch):
    monkeypatch.setattr(exact, "_GAP_MAXITER", 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="did not converge"):
            spectral_gap(G_of(3, 1.0), dense_threshold=1)


def test_heat_bath_gap_within_factor_two():
    g_met = spectral_gap(G_of(2, 1.0))
    g_hb = spectral_gap(build_generator(LatticeSpec(2, PLUS), RateModel(1.0, "heat_bath")))
    assert 0.5 * g_met - 1e-12 <= g_hb <= g_met + 1e-12


def test_slow_eigenfunction_saturates_rayleigh():
    G = G_of(3, 1.0)
    gap, f = slow_eigenfunction(G)
    assert gap == pytest.approx(spectral_gap(G), abs=1e-11)
    ratio = rayleigh_lower_bound(G, f)
    assert ratio == pytest.approx(relaxation_time(G), rel=1e-8)
    pi = G.pi
    assert abs(float(pi @ f)) < 1e-9


def test_rayleigh_is_a_lower_bound_for_any_function():
    G = G_of(2, 1.5)
    trel = relaxation_time(G)
    rng = np.random.default_rng(8)
    for _ in range(25):
        f = rng.normal(size=G.n_states)
        assert rayleigh_lower_bound(G, f) <= trel * (1 + 1e-10)
    with pytest.raises(ValueError):
        rayleigh_lower_bound(G, np.ones(G.n_states))


def test_variance_and_dirichlet_basics():
    G = G_of(2, 1.0)
    f = (G.counts == 0).astype(float)
    assert variance(G, f) > 0
    assert dirichlet_form(G, f) > 0
    assert dirichlet_form(G, np.ones(16)) == pytest.approx(0.0, abs=1e-14)


def test_level_sets_and_profile():
    G = G_of(2, 1.0)
    assert level_set(G, 1).size == 15
    assert spectral_profile(G, 0) == pytest.approx(spectral_gap(G), abs=1e-12)
    # restricting support cannot lower the bottom eigenvalue
    assert spectral_profile(G, 1) >= spectral_gap(G) - 1e-12
    assert spectral_profile(G, 6) >= spectral_profile(G, 4) - 1e-12
    with pytest.raises(ValueError):
        level_set(G, 7)


def test_singleton_subset_closed_form():
    G = G_of(2, 1.0)
    pi = G.pi
    for idx in (0, 3, 7):
        lam = _lambda_of_subset(G, np.array([idx]))
        hold = -float(G.Q[idx, idx])
        assert lam == pytest.approx(hold / (1.0 - pi[idx]), rel=1e-12)


def test_tv_mixing_time_pinned():
    tmix = tv_mixing_time(G_of(2, 1.0))
    # independent expm route gives 6.6989; allow the 1% bisection slack
    # plus the uniformization tail
    assert abs(tmix - TMIX_L2_BETA1) < 0.12
    assert tmix >= math.log(2) * relaxation_time(G_of(2, 1.0)) * 0.98


def test_spectral_tv_matches_uniformization():
    tail = 1e-8
    generators = [
        G_of(2, 1.0),
        G_of(2, 1.0, PERIODIC),
        build_generator(LatticeSpec(2, PLUS), RateModel(1.0, "heat_bath")),
        G_of(3, 1.0),
    ]
    for G in generators:
        for t in (0.3, 2.0, 7.0, 20.0):
            spec_tv = _tv_spectral(G, t, tail)
            unif_tv = _tv_all_starts(G, t, tail)
            assert abs(spec_tv - unif_tv) <= tail + 1e-9


@pytest.mark.parametrize("bc", [PLUS, PERIODIC])
def test_certificate_brackets_the_expm_distance(bc):
    tail = 1e-8
    G = build_generator(LatticeSpec(2, bc), RateModel(1.0, "heat_bath"))
    for t in (0.3, 2.0, 7.0, 20.0, 200.0):
        E = scipy.linalg.expm(t * G.Q.toarray())
        exact_tv = 0.5 * float(np.max(np.abs(E - G.pi[None, :]).sum(axis=1)))
        A = _kernel_below(G, t, tail)
        assert np.all(A >= 0)
        assert np.all(A <= E + 1e-12)
        assert np.all(A.sum(axis=1) >= 1.0 - tail)
        cert = _tv_all_starts(G, t, tail)
        assert exact_tv <= cert <= exact_tv + tail + 1e-12


def test_tv_mixing_time_l3_rows_unchanged():
    # the times the uniformization-only bisection returned on these rows
    for bc, beta, tmix in (
        (PLUS, 0.5, 2.402777777777778),
        (PLUS, 1.0, 11.11111111111111),
        (PERIODIC, 1.0, 13.11111111111111),
    ):
        assert tv_mixing_time(G_of(3, beta, bc)) == tmix


def test_tv_mixing_time_certified_when_the_spectral_route_under_reports(monkeypatch):
    G = G_of(2, 1.0)
    honest = tv_mixing_time(G)
    monkeypatch.setattr(exact, "_tv_spectral", lambda G, t, tail=1e-8: _tv_spectral(G, t, tail) - 0.05)
    tmix = tv_mixing_time(G)
    assert _tv_all_starts(G, tmix) < 0.25
    assert abs(tmix - honest) <= 0.02 * honest


def test_poisson_weights_match_scipy_stats():
    tail = 1e-8
    for lam in (0.1, 1.0, 11.0, 94.0, 1000.0):
        w = _poisson_weights(lam, tail)
        K = w.size - 1
        assert K == int(poisson.isf(tail, lam)) + 1
        assert poisson.sf(K, lam) <= tail
        assert np.allclose(w, poisson.pmf(np.arange(K + 1), lam), rtol=1e-10, atol=1e-300)
    assert np.all(np.isfinite(w))
    assert w.sum() >= 1.0 - tail


def test_tv_mixing_monotone_in_eps():
    G = G_of(2, 1.0)
    assert tv_mixing_time(G, eps=0.1) > tv_mixing_time(G, eps=0.25)


def test_profile_bound_dominates_tmix():
    for beta in (0.5, 1.0):
        G = G_of(2, beta)
        pb = profile_mixing_bound(G)
        assert isinstance(pb, ProfileBound)
        assert pb.value >= tv_mixing_time(G)


def test_profile_bound_tries_the_largest_level_set_first(monkeypatch):
    # at L=4 a level set is past the dense budget; it must raise before
    # any dense solve on a smaller set is spent
    sizes = []

    def spy(G, idx):
        sizes.append(idx.size)
        return _lambda_of_subset(G, idx)

    monkeypatch.setattr(exact, "_lambda_of_subset", spy)
    with pytest.raises(BudgetExceededError):
        profile_mixing_bound(G_of(4, 3.0))
    assert len(sizes) == 1 and sizes[0] > DENSE_THRESHOLD


def test_ground_mass_pinned():
    assert ground_mass(G_of(3, 2.0)) == pytest.approx(PI_GROUND_L3_PLUS_BETA2, abs=1e-12)
    assert ground_mass(G_of(3, 2.0, PERIODIC)) == pytest.approx(
        PI_GROUND_TORUS3_BETA2, abs=1e-12
    )


def test_ground_mass_deficit_shrinks_at_the_four_defect_rate():
    # the lowest excited level carries four defects, so the deficit
    # contracts like exp(-4) per unit of inverse temperature
    for bc in (PLUS, PERIODIC):
        d2 = 1.0 - ground_mass(G_of(3, 2.0, bc))
        d3 = 1.0 - ground_mass(G_of(3, 3.0, bc))
        assert 0.9 * math.exp(-4) < d3 / d2 < 1.1 * math.exp(-4)


def test_plus_test_function_bound():
    for beta in (1.0, 2.0):
        G = G_of(3, beta)
        f = witness_plus_values(G)
        assert variance(G, f) / dirichlet_form(G, f) <= relaxation_time(G) * (1 + 1e-12)
    with pytest.raises(ValueError):
        witness_plus(SpinConfig.all_plus(LatticeSpec(3, PERIODIC)))


def test_dump_generator_text_parses():
    G = G_of(2, 1.0)
    text = dump_generator_text(G)
    lines = text.strip().splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    assert len(body) == G.Q.nnz
    i, j, rate = body[0].split()
    assert float(rate) != 0.0
    Q = G.Q.tocoo()
    triples = {(int(a), int(b)) for a, b in zip(Q.row, Q.col)}
    assert (int(i), int(j)) in triples


def test_generator_budget():
    with pytest.raises(BudgetExceededError):
        build_generator(LatticeSpec(3, PLUS), RateModel(1.0), budget=100)


def test_eigen_budget_guard():
    G = G_of(2, 1.0)
    assert G.n_states <= DENSE_THRESHOLD
    with pytest.raises(BudgetExceededError):
        _lambda_of_subset(
            build_generator(LatticeSpec(4, PLUS), RateModel(0.5)),
            np.arange(DENSE_THRESHOLD + 1),
        )


def sweep_point(bc, beta):
    """Generator, start and target mask of `plaquette arrhenius` at one beta:
    the half-area minus rectangle to zero defects (plus), or all-plus to
    another ground state (periodic)."""
    L = critical_length(beta)
    if bc == PLUS:
        spec = LatticeSpec(L, PLUS)
        init = _rect_init(spec)
    else:
        spec = LatticeSpec(L, PERIODIC)
        init = SpinConfig.all_plus(spec)
    G = build_generator(spec, RateModel(beta))
    target = G.counts == 0
    if bc == PERIODIC:
        target[init.code] = False
    return G, init, target


def test_mean_hitting_time_solves_the_generator_system():
    # from every start: tau = 0 on the target, sum_j Q_ij tau_j = -1 off it
    for spec, beta in ((LatticeSpec(2, PLUS), 1.0), (LatticeSpec(2, PERIODIC), 2.0)):
        G = build_generator(spec, RateModel(beta))
        target = G.counts == 0
        tau = np.array([mean_hitting_time(G, G.config(i), target) for i in range(G.n_states)])
        assert np.all(tau[target] == 0.0) and np.all(tau[~target] > 0)
        resid = G.Q.toarray()[~target] @ tau + 1.0
        assert np.max(np.abs(resid)) < 1e-9 * np.max(tau)


def test_mean_hitting_time_at_the_critical_length():
    # exact means of the arrhenius sweep, beta = 2, 2.25, 2.5, 2.75 (L = 2, 3, 3, 3)
    means = {
        PLUS: (2.884, 43.37, 67.17, 106.5),
        PERIODIC: (994.0, 1304, 3548, 9655),
    }
    for bc, want in means.items():
        for beta, m in zip((2.0, 2.25, 2.5, 2.75), want):
            assert mean_hitting_time(*sweep_point(bc, beta)) == pytest.approx(m, rel=1e-3)


def test_mean_hitting_time_budget_and_bad_target(monkeypatch):
    G, init, target = sweep_point(PLUS, 2.0)
    with pytest.raises(ValueError):
        mean_hitting_time(G, init, np.zeros(G.n_states, dtype=bool))
    with pytest.raises(ValueError):
        mean_hitting_time(G, init, target[:-1])
    monkeypatch.setattr(exact, "DENSE_THRESHOLD", int((~target).sum()) - 1)
    with pytest.raises(BudgetExceededError):
        mean_hitting_time(G, init, target)


def test_mean_hitting_time_rejects_a_start_from_another_box():
    # an L=2 start used to answer 10.57, a periodic L=3 start 17.2
    G, init, target = sweep_point(PLUS, 2.5)
    for other in (LatticeSpec(2, PLUS), LatticeSpec(3, PERIODIC)):
        with pytest.raises(ValueError, match="different box"):
            mean_hitting_time(G, SpinConfig.all_minus(other), target)


def test_hitting_time_intervals_cover_the_exact_means():
    # the sampler's 95% intervals against the exact means, seeded as
    # `plaquette arrhenius --seed 0 --replicas 2000` seeds its grid points
    for bc in (PLUS, PERIODIC):
        for idx, beta in enumerate((2.0, 2.25, 2.5, 2.75)):
            G, init, target = sweep_point(bc, beta)
            want = mean_hitting_time(G, init, target)
            stop = stop_at_zero_defects() if bc == PLUS else stop_at_ground_other_than(init)
            res = hitting_time(G.spec, beta, init, stop, 2000, seed=(0, idx))
            assert res.flagged == 0
            assert res.ci_lo <= want <= res.ci_hi, (bc, beta, want, res.mean)
