"""Generator assembly, spectra, mixing bounds, and variational tools.

Spectral and mass constants are pinned from the independent dense
recomputation in tests/oracles/gen_small_oracles.py.
"""

import dataclasses
import gc
import itertools
import math
import time
import tracemalloc
import types
import warnings
from decimal import Decimal

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
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
    _involutions,
    _kernel_below,
    _lambda_of_subset,
    _poisson_weights,
    _tv_all_starts,
    _tv_chi2_bound,
    _tv_spectral_reaches,
)
from plaquette.lattice import (
    FIXED,
    PERIODIC,
    PLUS,
    BudgetExceededError,
    LatticeSpec,
    SpinConfig,
    _box_defects,
    _plaquettes,
    _site_k,
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
# ARPACK eigsh (smallest, tol=0) on -S + 10 sqrt(pi) sqrt(pi)^T
GAP_L4_BETA05 = 0.6765894507219039
GAP_L4_BETA025 = 1.2285479131127321
# the periodic L=4 gap lies outside the trivial symmetry sector; these
# equal the bottoms of its character sectors
GAP_TORUS4_BETA1 = 0.15327804682312
GAP_TORUS4_BETA3 = 3.90693684248536e-05
TMIX_L2_BETA1 = 6.6988703495881055  # expm bisection, independent route
# 30-digit references, mpmath `eigsy` on the symmetry blocks (the `_mp`
# keys of tests/oracles/frozen.txt); lambda(S_1) at L=3 plus is the gap,
# as S_1 leaves out one state, and is solved there by its own route
GAP_L3_MP = {
    (PLUS, 0.5): "0.615729541413185214568333779224",
    (PLUS, 1.0): "0.154221940348650835362782977112",
    (PLUS, 2.0): "0.0220633201356792397938945699739",
    (PLUS, 3.0): "0.00295262375965891633168295730111",
    (PLUS, 6.0): "0.00000729633738272029070555059912647",
    (PERIODIC, 1.0): "0.102832754470986440175784894606",
    (PERIODIC, 3.0): "0.000032274515514082821550487490235",
}
LAMBDA_S1_L3_PLUS_BETA1_MP = "0.154221940348650835362782977112"
# a dense eigenvalue's absolute error is at most EIGH_C eps ||S||_2; the
# errors met on these boxes reach 1.4 eps ||S|| (L=3 plus, beta 3)
EIGH_C = 4
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
        assert G.counts[i] == defect_count(SpinConfig.from_code(G.spec, i))
        assert SpinConfig.from_code(G.spec, i).code == i


def test_config_rejects_codes_outside_the_box():
    # 512 used to decode to all-plus, 10**6 to another state, and -1 to
    # raise OverflowError
    G = G_of(3, 1.0)
    for i in (512, 10**6, -1):
        with pytest.raises(ValueError, match="outside"):
            SpinConfig.from_code(G.spec, i)
    with pytest.raises(TypeError):
        SpinConfig.from_code(G.spec, 1.0)
    assert SpinConfig.from_code(G.spec, np.int64(511)) == SpinConfig.all_minus(G.spec)


def test_generator_rates_follow_the_defect_change():
    # Q[i, i ^ (1 << b)] is the rate for k = (d(cfg) - d(cfg.flip([x])) + 4) / 2
    theta = np.ones((4, 4), dtype=np.int8)
    theta[0, 1] = theta[3, 2] = -1
    specs = [LatticeSpec(2, PLUS), LatticeSpec(2, PERIODIC), LatticeSpec(2, FIXED, theta=theta)]
    cases = [(spec, kind) for spec in specs for kind in ("metropolis", "heat_bath")]
    cases.append((LatticeSpec(3, PERIODIC), "metropolis"))
    # the one periodic 1x1 flip changes no plaquette: k = 2, not a popcount
    cases.append((LatticeSpec(1, PERIODIC), "metropolis"))
    for spec, kind in cases:
        model = RateModel(1.3, kind)
        G = build_generator(spec, model)
        Q = G.Q.tocsr()
        sites = spec.sites()  # storage order, so bit b is sites[b]
        for i in range(G.n_states):
            cfg = SpinConfig.from_code(spec, i)
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
    assert spectral_gap(G_of(4, 1.0, PERIODIC)) == pytest.approx(GAP_TORUS4_BETA1, abs=1e-11)
    assert spectral_gap(G_of(4, 3.0, PERIODIC)) == pytest.approx(GAP_TORUS4_BETA3, abs=1e-11)


def test_gap_sparse_route_converges_where_scipy_lobpcg_stalled(monkeypatch):
    # scipy's LOBPCG stalled at beta 0.5 near residual 1e-8 for its 1000
    # iterations; from a fixed-seed Gaussian start alone this solver took
    # 581 and 366 steps at beta 0.25 and 0.5, from the slow mode under 150
    monkeypatch.setattr(exact, "_GAP_MAXITER", 150)
    assert spectral_gap(G_of(4, 0.25)) == pytest.approx(GAP_L4_BETA025, abs=1e-11)
    assert spectral_gap(G_of(4, 0.5)) == pytest.approx(GAP_L4_BETA05, abs=1e-11)


def test_gap_sparse_route_converges_without_the_previous_direction(monkeypatch):
    # a floor of 1 drops p at every step, the branch a near-singular Gram
    # matrix takes: preconditioned steepest descent, which still converges
    monkeypatch.setattr(exact, "_GRAM_FLOOR", 1.0)
    for L, bc, beta in ((2, PLUS, 1.0), (3, PLUS, 1.0), (3, PERIODIC, 3.0)):
        G = G_of(L, beta, bc)
        assert spectral_gap(G, dense_threshold=1) == pytest.approx(spectral_gap(G), abs=1e-11)


def test_symmetrized_generator_matches_the_product_formula():
    # S from the k table against sqrt(Q_ij Q_ji) off the diagonal, Q's own
    # diagonal: the same entries, bit for bit
    for L, bc, kind in itertools.product((1, 2, 3), (PLUS, PERIODIC), RateModel.KINDS):
        G = build_generator(LatticeSpec(L, bc), RateModel(1.3, kind))
        d = G.Q.diagonal()
        off = G.Q - scipy.sparse.diags(d)
        M = off.multiply(off.T)
        M.data = np.sqrt(M.data)
        ref = (M + scipy.sparse.diags(d)).tocsr()
        assert G.S is G.S
        assert G.S.nnz == ref.nnz and (G.S != ref).nnz == 0, (L, bc, kind)
        assert np.array_equal(G.S.toarray(), ref.toarray()), (L, bc, kind)


def flip_matrix(k, values):
    """CSR matrix with values[k[i, b]] at (i, i ^ 2^b) for every state i and
    site b, and nothing on the diagonal: each row's entries in site order,
    then sorted, as the generator was assembled before the box tables."""
    N, n = k.shape
    cols = np.arange(N, dtype=np.int64)[:, None] ^ (1 << np.arange(n, dtype=np.int64))
    M = scipy.sparse.csr_matrix((values[k].ravel(), cols.ravel(), np.arange(0, N * n + 1, n)),
                                shape=(N, N))
    M.sort_indices()
    return M


def reference_k(spec):
    """k[i, t], the k of flat site t in state i, counted from the spins by
    `_site_k` over the spin product `_plaquettes` of every state."""
    L, n = spec.side, spec.n_sites
    codes = np.arange(2**n)
    spins = np.where(codes[:, None] >> np.arange(n) & 1, -1, 1).astype(np.int8)
    spins = spins.reshape(-1, L, L)
    if not spec.is_periodic:
        padded = np.repeat(spec.frame_template()[None], codes.size, axis=0)
        padded[:, 1:-1, 1:-1] = spins
        spins = padded
    return _site_k(spec, _plaquettes(spec, spins) == -1).reshape(codes.size, n)


def reference_q_and_s(G):
    """Q and S from the spins' k table (`reference_k`) by sparse sums: Q's
    diagonal minus its CSR row sums, S's the same as Q's."""
    r = G.model.table
    k = reference_k(G.spec)
    Q = flip_matrix(k, r)
    Q = (Q - scipy.sparse.diags(np.asarray(Q.sum(axis=1)).ravel())).tocsr()
    S = (flip_matrix(k, np.sqrt(r * r[::-1])) + scipy.sparse.diags(Q.diagonal())).tocsr()
    return Q, S


def same_csr(A, B):
    return all(np.array_equal(getattr(A, a), getattr(B, a)) for a in ("indptr", "indices", "data"))


def test_gathered_q_and_s_are_the_sparse_sums_bit_for_bit():
    boxes = [spec for L in (1, 2, 3, 4)
             for spec in (LatticeSpec(L, PLUS), LatticeSpec(L, PERIODIC), broken_frame(L))]
    for spec, kind, beta in itertools.product(boxes, RateModel.KINDS, (0.0, 0.5, 1.0, 3.0)):
        G = build_generator(spec, RateModel(beta, kind))
        Q, S = reference_q_and_s(G)
        assert same_csr(G.Q, Q) and same_csr(G.S, S), (spec, kind, beta)
        assert np.shares_memory(G.S.indices, G.Q.indices)
        if spec.side <= 3:
            assert np.array_equal(G.Q.toarray(), Q.toarray())
            assert np.array_equal(G.S.toarray(), S.toarray())
        if spec.side in (2, 3):
            assert dump_generator_text(G) == dump_generator_text(types.SimpleNamespace(Q=Q))


def test_gathered_generator_drops_rates_that_underflow():
    # exp(-4 beta) is 0 at beta 300: the sparse sums dropped those entries
    for bc in (PLUS, PERIODIC):
        with np.errstate(over="ignore"):
            G = G_of(3, 300.0, bc)
        Q, S = reference_q_and_s(G)
        assert Q.nnz < 10 * 512 and S.nnz < Q.nnz
        assert same_csr(G.Q, Q) and same_csr(G.S, S), bc


def test_box_table_is_read_only_and_shared_across_beta():
    G, H = G_of(3, 1.0), G_of(3, 2.0)
    assert G.counts is H.counts and G.symmetry is H.symmetry
    sym = G.symmetry
    box = G._box
    # the box keeps its pattern, each entry's k and the counts, and the
    # symmetry table no basis, only each sector's character and orbits
    kept = {name for name, v in vars(box).items() if isinstance(v, np.ndarray)}
    assert kept == {"indptr", "indices", "diag", "kc", "counts"}
    assert [f.name for f in dataclasses.fields(sym)] == [
        "act", "reps", "orbit", "carrier", "columns", "characters"]
    assert [chi.shape for chi in sym.characters] == [(sym.act.shape[0],)] * len(sym.columns)
    arrays = [G.counts, box.indptr, box.indices, box.diag, box.kc, G.Q.indices, G.Q.indptr,
              G.S.indices, sym.act, sym.reps, sym.orbit, sym.carrier, *sym.columns,
              *sym.characters]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 1


def test_box_table_is_per_frame():
    a, b = broken_frame(3), LatticeSpec(3, FIXED, np.ones((5, 5), dtype=np.int8))
    Ga, Gb = build_generator(a, RateModel(1.0)), build_generator(b, RateModel(1.0))
    assert exact._box(a) is not exact._box(b)
    assert not np.array_equal(Ga.counts, Gb.counts)
    assert (Ga.Q != Gb.Q).nnz > 0
    assert Ga.symmetry.act.shape[0] == 2 and Gb.symmetry.act.shape[0] == 4
    # the all-plus frame is the plus box
    assert np.array_equal(Gb.counts, G_of(3, 1.0).counts)


def test_box_cache_is_bounded():
    rng = np.random.default_rng(5)
    for _ in range(exact._BOX_CACHE + 3):
        theta = np.where(rng.random((4, 4)) < 0.5, -1, 1).astype(np.int8)
        build_generator(LatticeSpec(2, FIXED, theta), RateModel(1.0))
    info = exact._box.cache_info()
    assert info.maxsize == exact._BOX_CACHE
    assert info.currsize <= exact._BOX_CACHE


def test_sparse_gap_forms_only_s():
    # the sparse route forms S alone: Q and the box's N x n k tables were
    # all held at once, a tracemalloc peak of 32.4 MB for this build and gap
    spectral_gap(G_of(3, 1.0), dense_threshold=1)  # scipy's imports are not counted
    exact._box.cache_clear()  # the box table is counted
    tracemalloc.start()
    try:
        G = G_of(4, 1.0)
        gap = spectral_gap(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gap == pytest.approx(GAP_L4_BETA1, rel=1e-9)
    assert "Q" not in G.__dict__ and "S" in G.__dict__
    assert peak < 25 * 2**20, peak
    Q, S = reference_q_and_s(G)  # read after the gap, Q is the same
    assert same_csr(G.Q, Q) and same_csr(G.S, S)


def test_sector_table_is_kept_by_the_box_and_a_generator_keeps_no_basis():
    G, H = G_of(3, 1.0), G_of(3, 2.0)
    sym = G.symmetry
    assert H.symmetry is sym  # one table per box, whatever beta
    # the characters are those of the group, each sector's kept orbits those
    # on whose stabilizer it is 1, and the trivial sector comes first
    h = np.arange(sym.act.shape[0])
    fixes = sym.act[:, sym.reps] == sym.reps
    for cols, chi in zip(sym.columns, sym.characters):
        assert np.array_equal(chi[h[:, None] ^ h], chi[:, None] * chi)
        assert np.array_equal(cols, np.nonzero(~np.any(fixes & (chi < 0)[:, None], axis=0))[0])
    assert np.all(sym.characters[0] == 1) and sym.columns[0].size == sym.reps.size
    # a generator keeps no basis: each sector block is the size of its
    # sector, and its square tables are S and Q
    for K in (G, H):
        spectral_gap(K)
        tv_mixing_time(K)
        profile_mixing_bound(K)
        assert [M.shape for M in K.sector_blocks] == [(c.size, c.size) for c in sym.columns]
        square = {name for name, v in vars(K).items()
                  if getattr(v, "shape", None) == (K.n_states, K.n_states)}
        assert square <= {"Q", "S"}
    del G, H
    gc.collect()
    assert exact._box(LatticeSpec(3, PLUS)).symmetry is sym


def dense_bases(sym):
    """The basis of each sector of `sym`, dense, from its group table alone:
    column j of the sector of character chi has chi(carrier[z]) /
    sqrt(orbit size) at each code z of the j-th orbit on whose stabilizer
    chi is 1."""
    h = np.arange(sym.act.shape[0])
    chi = np.where(np.bitwise_count(h[:, None] & h) % 2, -1, 1)
    fixes = sym.act[:, sym.reps] == sym.reps
    size = np.bincount(sym.orbit)
    bases = []
    for c in h:
        kept = ~np.any(fixes & (chi[c] < 0)[:, None], axis=0)
        if kept.any():
            rows = np.nonzero(kept[sym.orbit])[0]
            B = np.zeros((sym.orbit.size, int(kept.sum())))
            B[rows, (np.cumsum(kept) - 1)[sym.orbit[rows]]] = (
                chi[c, sym.carrier[rows]] / np.sqrt(size[sym.orbit[rows]]))
            bases.append(B)
    return bases


def test_sector_blocks_match_the_dense_bases_to_rounding():
    # the blocks are read off the representative rows of S; the reference
    # is the product B^T S B with each sector's basis formed whole
    for spec, kind, beta in itertools.product(symmetric_boxes(), RateModel.KINDS, (1.0, 3.0)):
        G = build_generator(spec, RateModel(beta, kind))
        S = G.S.toarray()
        norm = np.linalg.norm(S, 2)
        bases = dense_bases(G.symmetry)
        assert len(bases) == len(G.sector_blocks)
        for B, M in zip(bases, G.sector_blocks):
            assert np.max(np.abs(M - B.T @ (S @ B))) <= 1e-15 * norm, (spec, kind, beta)
            assert np.array_equal(M, M.T), (spec, kind, beta)
        w, V = G.eigen
        assert np.max(np.abs((V * w) @ V.T - S)) <= 1e-13, (spec, kind, beta)


def test_dense_gaps_are_within_rounding_of_the_30_digit_references():
    # eigh is backward stable, so a gap's error is absolute, of order
    # eps ||S||, however small the gap: at plus beta 6 that is 3e-10
    # relative, and no fixed 1e-11 relative pin holds the exact value there
    eps = np.finfo(float).eps
    for (bc, beta), ref in GAP_L3_MP.items():
        G = G_of(3, beta, bc)
        tol = EIGH_C * eps * np.linalg.norm(G.S.toarray(), 2)
        assert abs(Decimal(spectral_gap(G)) - Decimal(ref)) <= tol, (bc, beta)
    # the level value's problem carries S's rounding amplified by
    # 1 / (1 - pi(S_1)), 1 / pi(ground) (`_lambda_of_subset`)
    G = G_of(3, 1.0)
    tol = EIGH_C * eps * np.linalg.norm(G.S.toarray(), 2) / ground_mass(G)
    assert abs(Decimal(spectral_profile(G, 1)) - Decimal(LAMBDA_S1_L3_PLUS_BETA1_MP)) <= tol


def test_lobpcg_residual_is_within_the_gap_tolerance(monkeypatch):
    # the Ritz value's error is quadratic in the residual, so a looser
    # _GAP_TOL (1e-6) kept every gap pin; the residual itself is held here,
    # recomputed from the vector that `_lobpcg` returns
    returned = []
    lobpcg = exact._lobpcg

    def spy(S, y, x):
        out = lobpcg(S, y, x)
        returned.append((S, y, out))
        return out

    monkeypatch.setattr(exact, "_lobpcg", spy)
    for bc in (PLUS, PERIODIC):
        gap = spectral_gap(G_of(4, 1.0, bc))
        (S, y, (lam, x, steps)), = returned
        returned.clear()
        assert lam == gap and abs(y @ x) <= 1e-12 * np.linalg.norm(x)
        residual = np.linalg.norm(S @ x + lam * x) / np.linalg.norm(x)
        assert residual <= 1e-11, (bc, residual, steps)


def test_gap_sparse_route_raises_when_unconverged(monkeypatch):
    monkeypatch.setattr(exact, "_GAP_MAXITER", 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="did not converge"):
            spectral_gap(G_of(3, 1.0), dense_threshold=1)


def test_sparse_gap_raises_convergence_error_at_large_beta():
    # beta 150 gave a gap of 0 or below, on which `plaquette exact` divided
    # by zero; beta 200 escaped as numpy's LinAlgError after a
    # divide-by-zero warning
    for beta, what in ((150.0, "is not positive"), (200.0, "broke down")):
        G = G_of(4, beta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match=f"LOBPCG gap .*{what}"):
                spectral_gap(G)


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


def test_level_set_value_matches_the_generalized_pencil():
    # the rank-one reduction to one standard eigh against scipy's
    # generalized eigh of the pencil (-diag(p) Q_AA, diag(p) - p p^T) it
    # replaced, on every proper level set
    checked = 0
    for L in (1, 2, 3):
        for bc in (PLUS, PERIODIC):
            for beta in (0.0, 0.5, 1.0, 3.0):
                G = G_of(L, beta, bc)
                for k in np.unique(G.counts):
                    idx = level_set(G, k)
                    if idx.size == G.n_states:
                        continue
                    p = G.pi[idx]
                    A = -(p[:, None] * G.Q[idx][:, idx].toarray())
                    A = 0.5 * (A + A.T)
                    B = np.diag(p) - np.outer(p, p)
                    want = scipy.linalg.eigh(A, B, eigvals_only=True, subset_by_index=[0, 0])[0]
                    assert _lambda_of_subset(G, idx) == pytest.approx(want, rel=1e-12)
                    checked += 1
    assert checked == 48


def dense_lambda_of_subset(G, idx):
    """The level-set value as one `eigh` of the whole corrected -S_AA."""
    v = np.sqrt(G.pi[idx])
    r = math.sqrt(1.0 - float(v @ v))
    c = 1.0 / (r * (1.0 + r))
    M = -G.S[idx][:, idx].toarray()
    Mv = M @ v
    u = c * Mv + (0.5 * c * c * float(v @ Mv)) * v
    M += np.outer(u, v) + np.outer(v, u)
    return scipy.linalg.eigh(M, eigvals_only=True, subset_by_index=[0, 0])[0]


def test_level_set_sectors_match_the_dense_route():
    checked = 0
    for spec, beta in itertools.product(symmetric_boxes(), (0.0, 0.5, 1.0, 3.0)):
        G = build_generator(spec, RateModel(beta))
        act = G.symmetry.act
        for k in np.unique(G.counts):
            idx = level_set(G, k)
            if idx.size == G.n_states:
                continue
            assert np.all(np.isin(act[:, idx], idx))  # a union of orbits
            assert _lambda_of_subset(G, idx) == pytest.approx(
                dense_lambda_of_subset(G, idx), rel=1e-12), (spec, beta, k)
            checked += 1
    assert checked == 80


def test_level_value_of_a_set_that_is_not_closed_is_one_dense_eigh(monkeypatch):
    G = G_of(3, 1.0)
    sym = G.symmetry
    o = int(np.argmax(np.bincount(sym.orbit)))  # an orbit of four codes
    idx = np.nonzero(sym.orbit == o)[0][:2]
    assert not np.all(np.isin(sym.act[:, idx], idx))

    def no_sectors(self):
        raise AssertionError("a set that is not a union of orbits read the sectors")

    monkeypatch.setattr(exact.SparseGenerator, "sector_blocks", property(no_sectors))
    monkeypatch.delattr(sym, "characters")  # a read raises AttributeError; put back after the test
    assert _lambda_of_subset(G, idx) == pytest.approx(dense_lambda_of_subset(G, idx), rel=1e-12)


def test_tv_mixing_time_pinned():
    tmix = tv_mixing_time(G_of(2, 1.0))
    # independent expm route gives 6.6989; allow the 1% bisection slack
    # plus the uniformization tail
    assert abs(tmix - TMIX_L2_BETA1) < 0.12
    assert tmix >= math.log(2) * relaxation_time(G_of(2, 1.0)) * 0.98


def worst_start_reference(G, t):
    """The worst start's total variation at time t, from every
    representative row of P_t - Pi formed whole off `G.eigen`."""
    w, V = G.eigen
    r = np.sqrt(G.pi)[:, None]
    U = V[:, :-1]
    reps = G.symmetry.reps
    A = (U[reps] / r[reps] * np.exp(t * w[:-1])) @ (U * r).T
    return 0.5 * float(np.max(np.abs(A).sum(axis=1)))


def reaches_like_the_reference(G, t, ref):
    """The spectral read answers `ref >= eps` on a grid of eps around the
    reference read ref, the reference plus _TV_TAIL."""
    for eps in (ref, np.nextafter(ref, 1.0), 0.5 * ref, 0.25, 0.01):
        assert _tv_spectral_reaches(G, t, eps) == (ref >= eps), (t, eps)


def test_spectral_tv_matches_uniformization():
    tail = exact._TV_TAIL
    generators = [
        G_of(2, 1.0),
        G_of(2, 1.0, PERIODIC),
        build_generator(LatticeSpec(2, PLUS), RateModel(1.0, "heat_bath")),
        G_of(3, 1.0),
    ]
    for G in generators:
        for t in (0.3, 2.0, 7.0, 20.0):
            spec_tv = worst_start_reference(G, t) + tail
            unif_tv = _tv_all_starts(G, t)
            assert abs(spec_tv - unif_tv) <= tail + 1e-9
            reaches_like_the_reference(G, t, spec_tv)


@pytest.mark.parametrize("bc", [PLUS, PERIODIC])
def test_certificate_brackets_the_expm_distance(bc):
    # the certificate forms the representative rows of the kernel only
    tail = exact._TV_TAIL
    G = build_generator(LatticeSpec(2, bc), RateModel(1.0, "heat_bath"))
    reps = G.symmetry.reps
    for t in (0.3, 2.0, 7.0, 20.0, 200.0):
        E = scipy.linalg.expm(t * G.Q.toarray())
        exact_tv = 0.5 * float(np.max(np.abs(E - G.pi[None, :]).sum(axis=1)))
        A = _kernel_below(G, t)
        assert A.shape == (reps.size, G.n_states)
        assert np.all(A >= 0)
        assert np.all(A <= E[reps] + 1e-12)
        assert np.all(A.sum(axis=1) >= 1.0 - tail)
        cert = _tv_all_starts(G, t)
        assert exact_tv <= cert <= exact_tv + tail + 1e-12


def full_kernel_below(G, t):
    """Every row of the certificate's kernel: the truncated series on the
    identity and s full N x N squarings, as the certificate formed it
    before it read the symmetry table."""
    Q = G.Q
    N = Q.shape[0]
    q = float(np.max(-Q.diagonal()))
    if q <= 0 or t <= 0:
        return np.eye(N)
    s = max(0, math.ceil(math.log2(q * t / 8.0)))
    w = _poisson_weights(q * t / 2**s, exact._TV_TAIL / 2**s)
    P = scipy.sparse.eye(N, format="csr") + Q / q
    W = np.eye(N)
    A = w[0] * W
    for k in range(1, w.size):
        W = P @ W
        A += w[k] * W
    for _ in range(s):
        A = A @ A
    return A


def broken_frame(L):
    """A fixed box whose frame is minus along the whole top edge: the
    reflection across the columns keeps it, the one across the rows
    does not."""
    theta = np.ones((L + 2, L + 2), dtype=np.int8)
    theta[0, 1:L + 1] = -1
    return LatticeSpec(L, FIXED, theta)


def symmetric_boxes():
    """Every box of side 1 to 3: plus, periodic and the broken frame."""
    for L in (1, 2, 3):
        yield from (LatticeSpec(L, PLUS), LatticeSpec(L, PERIODIC), broken_frame(L))


def test_orbit_row_certificate_matches_the_full_kernel():
    for spec, kind in itertools.product(symmetric_boxes(), RateModel.KINDS):
        G = build_generator(spec, RateModel(1.0, kind))
        reps = G.symmetry.reps
        for t in (0.3, 2.0, 7.0, 20.0, tv_mixing_time(G)):
            ref = full_kernel_below(G, t)
            assert np.max(np.abs(_kernel_below(G, t) - ref[reps])) <= 1e-13, (spec, kind, t)
            rows = np.abs(ref - G.pi).sum(axis=1) + (1.0 - ref.sum(axis=1))
            assert _tv_all_starts(G, t) == pytest.approx(0.5 * np.max(rows), abs=1e-13)


def candidate_involutions(spec):
    """The involutions the group was once chosen from by the exact check:
    both axis reflections of a fixed box, whatever its frame and side, and
    the line flips of a periodic one."""
    if spec.is_periodic:
        return _involutions(spec)
    t = np.arange(spec.n_sites).reshape(spec.side, spec.side)
    return [(t[::-1].ravel(), 0), (t[:, ::-1].ravel(), 0)]


def passes_exact_check(counts, k, sigma, g):
    """k[g(i), sigma[b]] == k[i, b] and counts[g(i)] == counts[i] for all i, b."""
    return np.array_equal(counts[g], counts) and np.array_equal(k[g][:, sigma], k)


def code_image(spec, sigma, mask):
    z = np.arange(2 ** spec.n_sites)
    return mask ^ sum(((z >> b) & 1) << int(s) for b, s in enumerate(sigma))


def reference_act(spec):
    """The group table as the exact check built it: a candidate is kept
    when it permutes the defect counts and the spins' k table
    (`reference_k`) and is not already in the group."""
    counts, k = np.bitwise_count(_box_defects(spec)), reference_k(spec)
    act = np.arange(2 ** spec.n_sites)[None, :]
    for sigma, mask in candidate_involutions(spec):
        g = code_image(spec, sigma, mask)
        if passes_exact_check(counts, k, sigma, g) and not (act == g).all(axis=1).any():
            act = np.concatenate([act, act[:, g]])
    return act


def test_symmetry_keeps_exactly_the_involutions_that_pass_the_check():
    for spec in symmetric_boxes():
        G = build_generator(spec, RateModel(1.0))
        counts, k = G.counts, reference_k(spec)
        act = G.symmetry.act
        passed = 0
        for sigma, mask in candidate_involutions(spec):
            g = code_image(spec, sigma, mask)
            kept = bool((act == g).all(axis=1).any())
            assert kept == passes_exact_check(counts, k, sigma, g), (spec, sigma, mask)
            passed += kept and not np.array_equal(g, np.arange(G.n_states))
        assert act.shape[0] == 2 ** passed, spec
        assert np.array_equal(act[0], np.arange(G.n_states))
        off = G.Q - scipy.sparse.diags(G.Q.diagonal())
        for g in act:
            assert np.array_equal(g[g], act[0])  # an involution
            assert (off[g][:, g] != off).nnz == 0, spec
        L = spec.side
        if spec.bc == FIXED and L > 1:
            # the frame breaks the reflection across the rows: it is dropped
            sigma = np.arange(L * L).reshape(L, L)[::-1].ravel()
            g = code_image(spec, sigma, 0)
            assert not passes_exact_check(counts, k, sigma, g)
            assert not (act == g).all(axis=1).any()
            assert act.shape[0] == 2
    # the group orders: two reflections, and 2L - 1 independent line flips
    assert build_generator(LatticeSpec(3, PLUS), RateModel(1.0)).symmetry.act.shape[0] == 4
    assert build_generator(LatticeSpec(3, PERIODIC), RateModel(1.0)).symmetry.act.shape[0] == 32


def frames(L, rng, n):
    """n frames of side L: random ones, and ones mirrored across the rows,
    the columns or both, in turn."""
    for i in range(n):
        theta = rng.choice(np.array([-1, 1], np.int8), size=(L + 2, L + 2))
        if i % 4 in (1, 3):
            theta = theta * theta[::-1]
        if i % 4 in (2, 3):
            theta = theta * theta[:, ::-1]
        yield theta


def test_symmetry_group_read_off_the_frame_is_the_exact_check():
    # every L=2 frame, L=1 frames, and random and mirror-symmetric L=3 frames;
    # the plus and periodic boxes of side 1 to 4 too
    ring = np.ones((4, 4), bool)
    ring[1:3, 1:3] = False
    specs = []
    for bits in range(1 << 12):
        theta = np.ones((4, 4), np.int8)
        theta[ring] = 1 - 2 * (bits >> np.arange(12) & 1)
        specs.append(LatticeSpec(2, FIXED, theta))
    rng = np.random.default_rng(36)
    specs += [LatticeSpec(1, FIXED, theta) for theta in frames(1, rng, 16)]
    specs += [LatticeSpec(3, FIXED, theta) for theta in frames(3, rng, 300)]
    specs += [LatticeSpec(L, bc) for L in (1, 2, 3) for bc in (PLUS, PERIODIC)]
    orders = {}
    for spec in specs:
        act = exact.Symmetry.of(spec).act
        ref = reference_act(spec)
        assert act.dtype == ref.dtype and np.array_equal(act, ref), spec
        orders[spec.side, act.shape[0]] = orders.get((spec.side, act.shape[0]), 0) + 1
    # each group order is met, the reflections of L=3 kept one at a time too
    assert {(1, 1), (1, 2), (2, 1), (2, 2), (2, 4), (2, 8), (3, 1), (3, 2), (3, 4),
            (3, 32)} <= orders.keys()


def test_symmetry_orbits_partition_the_codes():
    for spec in symmetric_boxes():
        sym = build_generator(spec, RateModel(1.0)).symmetry
        N = sym.act.shape[1]
        z = np.arange(N)
        assert np.all(sym.orbit[sym.act] == sym.orbit[None, :])  # orbits are closed
        assert np.array_equal(sym.reps, np.unique(sym.act.min(axis=0)))
        assert np.array_equal(sym.reps[sym.orbit], sym.act.min(axis=0))
        assert np.array_equal(sym.act[sym.carrier, sym.reps[sym.orbit]], z)
        assert np.bincount(sym.orbit).sum() == N
        images = {frozenset(sym.act[:, x].tolist()) for x in z}
        assert len(images) == sym.reps.size
        assert sum(len(o) for o in images) == N  # disjoint orbits covering every code
    assert build_generator(LatticeSpec(3, PLUS), RateModel(1.0)).symmetry.reps.size == 168
    assert build_generator(LatticeSpec(3, PERIODIC), RateModel(1.0)).symmetry.reps.size == 16


def test_symmetry_sector_bases_are_orthonormal_and_invariant():
    for spec in symmetric_boxes():
        G = build_generator(spec, RateModel(1.0))
        sym = G.symmetry
        bases = dense_bases(sym)
        B = np.hstack(bases)
        assert B.shape == (G.n_states, G.n_states), spec
        assert np.max(np.abs(B.T @ B - np.eye(G.n_states))) <= 1e-14, spec
        S = G.S.toarray()
        for Bc in bases:
            # each element acts on a sector as one sign, and S keeps it
            for g in sym.act:
                sign = round(float(Bc[g, 0] @ Bc[:, 0]))
                assert sign in (-1, 1) and np.allclose(Bc[g], sign * Bc, rtol=0, atol=1e-15)
            SB = S @ Bc
            assert np.max(np.abs(SB - Bc @ (Bc.T @ SB))) <= 1e-13, spec
    sizes = sorted(c.size for c in build_generator(
        LatticeSpec(3, PLUS), RateModel(1.0)).symmetry.columns)
    assert sizes == [104, 120, 120, 168]


def test_sector_eigen_matches_the_full_eigh():
    for spec, kind, beta in itertools.product(symmetric_boxes(), RateModel.KINDS,
                                              (0.0, 1.0, 3.0)):
        G = build_generator(spec, RateModel(beta, kind))
        S = G.S.toarray()
        w, V = G.eigen
        assert np.all(np.diff(w) >= 0)
        assert np.max(np.abs(w - np.linalg.eigh(S)[0])) <= 1e-12, (spec, kind, beta)
        assert np.max(np.abs(V.T @ V - np.eye(G.n_states))) <= 1e-12
        assert np.max(np.abs(S @ V - V * w)) <= 1e-12


def tv_rows_reference(G, t):
    """Every start's l1 distance from stationarity at time t, from the
    full kernel P_t - Pi that the mixing search used to form each step."""
    w, V = G.eigen
    r = np.sqrt(G.pi)[:, None]
    U = V[:, :-1]
    A = (U * (np.exp(t * w[:-1]) / r)) @ (U * r).T
    return np.abs(A).sum(axis=1)


def tv_boxes():
    """(G, times): every L=2 and L=3 box, both boundaries and both kinds,
    at a few times and its mixing time; and L=1 at beta 0, a uniform
    two-state chain, where the chi^2 bound holds with equality."""
    for L, bc, kind in itertools.product((2, 3), (PLUS, PERIODIC), RateModel.KINDS):
        G = build_generator(LatticeSpec(L, bc), RateModel(1.0, kind))
        yield G, (0.05, 0.3, 2.0, 7.0, 20.0, tv_mixing_time(G))
    for bc in (PLUS, PERIODIC):
        yield G_of(1, 0.0, bc), tuple(np.linspace(0.05, 5.0, 40))


def test_chi2_bound_is_above_every_start():
    for G, times in tv_boxes():
        for t in times:
            # the bound is per orbit representative; every start reads its orbit's
            bound = _tv_chi2_bound(G, t)[G.symmetry.orbit]
            if G.n_states > 2:
                assert np.all(bound >= 0.5 * tv_rows_reference(G, t)), t
            else:
                assert np.allclose(bound, 0.5 * tv_rows_reference(G, t), rtol=1e-14, atol=0)


def test_pruned_tv_search_matches_the_full_kernel():
    # the representative rows hold the worst start; the spectral read is
    # at or above eps exactly when the worst start is, also at eps itself
    tail = exact._TV_TAIL
    for G, times in tv_boxes():
        for t in times:
            ref = 0.5 * float(np.max(tv_rows_reference(G, t))) + tail
            tv = worst_start_reference(G, t) + tail
            assert tv == pytest.approx(ref, abs=1e-15), t
            reaches_like_the_reference(G, t, tv)
            if not math.isclose(ref, 0.25, abs_tol=1e-12):
                assert _tv_spectral_reaches(G, t, 0.25) == (ref >= 0.25), t


def test_tv_mixing_time_l3_rows_unchanged():
    # the times the uniformization-only bisection returned on these rows
    for bc, beta, tmix in (
        (PLUS, 0.5, 2.402777777777778),
        (PLUS, 1.0, 11.11111111111111),
        (PERIODIC, 1.0, 13.11111111111111),
    ):
        assert tv_mixing_time(G_of(3, beta, bc)) == tmix


def first_time_below_reference(reaches, lo, t):
    """The bracket search without a floor: every doubling step and every
    midpoint asks whether the distance reaches eps."""
    for _ in range(200):
        if not reaches(t):
            break
        lo = t
        t *= 2.0
    else:
        raise RuntimeError("mixing bracket not found")
    hi = t
    while hi - lo > exact._TV_RTOL * hi:
        mid = 0.5 * (lo + hi)
        if not reaches(mid):
            hi = mid
        else:
            lo = mid
    return hi


def tv_mixing_time_reference(G, eps, reaches=_tv_spectral_reaches):
    q = float(np.max(-G.Q.diagonal()))
    hi = first_time_below_reference(lambda t: reaches(G, t, eps), 0.0, 1.0 / q)
    if _tv_all_starts(G, hi) >= eps:
        hi = first_time_below_reference(lambda t: _tv_all_starts(G, t) >= eps, hi, 2.0 * hi)
    return hi


def test_tv_mixing_time_equals_the_search_without_the_floor():
    # the relaxation floor skips reads, never moves a bracket
    for L, bc, kind, beta in itertools.product((1, 2, 3), (PLUS, PERIODIC), RateModel.KINDS,
                                               (0.0, 0.5, 1.0, 3.0)):
        G = build_generator(LatticeSpec(L, bc), RateModel(beta, kind))
        for eps in (0.25, 0.1, 0.01):
            assert tv_mixing_time(G, eps) == tv_mixing_time_reference(G, eps), (L, bc, kind, beta)


def test_tv_mixing_time_skips_the_times_the_relaxation_bound_decides(monkeypatch):
    G = G_of(3, 1.0)
    floor = math.log(2.0) / spectral_gap(G)
    times = []

    def counted(G, t, eps):
        times.append(t)
        return _tv_spectral_reaches(G, t, eps)

    assert tv_mixing_time_reference(G, 0.25, counted) == 11.11111111111111
    assert len(times) == 14
    assert sum(t < floor for t in times) == 6
    times.clear()
    monkeypatch.setattr(exact, "_tv_spectral_reaches", counted)
    assert tv_mixing_time(G) == 11.11111111111111
    assert len(times) == 8
    assert min(times) >= floor * (1 - 1e-9)


def test_tv_mixing_time_certified_when_the_spectral_route_under_reports(monkeypatch):
    G = G_of(2, 1.0)
    honest = tv_mixing_time(G)
    # the spectral read answers as if the distance were 0.05 lower
    monkeypatch.setattr(exact, "_tv_spectral_reaches",
                        lambda G, t, eps: _tv_spectral_reaches(G, t, eps + 0.05))
    tmix = tv_mixing_time(G)
    assert _tv_all_starts(G, tmix) < 0.25
    assert abs(tmix - honest) <= 0.02 * honest


def test_tv_mixing_time_raises_convergence_error_where_the_gap_rounds_away():
    # each escaped as a bare RuntimeError after 200 doublings; the first
    # now stops at the l2 ceiling t*. L=2 plus reaches it at beta 30, where
    # the dense gap rounds to 6.7e-16; at beta 20 the gap itself rounds to
    # -1.3e-49 and raises first
    cases = ((2, PLUS, 30.0, r"past t\* [\d.e+]+, where the l2 bound"),
             (3, PLUS, 20.0, "not positive"),
             (2, PERIODIC, 300.0, "not positive"))
    for L, bc, beta, what in cases:
        G = G_of(L, beta, bc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match=rf"{what}.*beta {beta!r} with gap"
                                                       rf"|beta {beta!r}: the gap .*{what}"):
                tv_mixing_time(G)


def test_tv_mixing_time_stops_at_the_l2_ceiling():
    # the certificate-only search ran 200 doublings, about 20 s, before it
    # raised; past t* the distance is below eps, so it raises there
    G = build_generator(LatticeSpec(3, PERIODIC), RateModel(10.0))
    gap = spectral_gap(G)
    start = time.perf_counter()
    with pytest.raises(ConvergenceError, match=r"^mixing bracket not found: .* past t\* .*"
                                               r", where the l2 bound puts it below, at beta 10.0"
                                               r" with gap") as err:
        tv_mixing_time(G)
    assert time.perf_counter() - start < 2.0
    t_star = (1.0 + 1e-9) * math.log(1.0 / (2.0 * (0.25 - exact._TV_TAIL)
                                            * math.sqrt(G.pi.min()))) / gap
    assert f" past t* {t_star:.3g}," in str(err.value)


def test_the_certificate_is_read_at_t_zero_only_above_eps_one_half(monkeypatch):
    # below eps 1/2 the floor keeps every read of the certificate at t > 0;
    # above it a chain can start within eps of stationarity, and the time
    # 0.0 is returned with no read at all
    seen = []
    monkeypatch.setattr(exact, "_tv_all_starts",
                        lambda G, t: seen.append(t) or _tv_all_starts(G, t))
    for L, bc, kind in itertools.product((1, 2, 3), (PLUS, PERIODIC), RateModel.KINDS):
        for beta in (0.0, 0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0):
            G = build_generator(LatticeSpec(L, bc), RateModel(beta, kind))
            for eps in (0.25, 0.1, 0.01):
                try:
                    tv_mixing_time(G, eps)
                except ConvergenceError:
                    pass
    assert len(seen) > 288 and min(seen) > 0
    seen.clear()
    G = G_of(1, 0.0)
    assert tv_mixing_time(G, eps=0.9) == 0.0
    assert seen == []


def test_tv_mixing_time_is_zero_exactly_where_the_start_is_within_eps(monkeypatch):
    # d(0) = 1 - pi_min, with the tail the spectral read carries; where it
    # is below eps the search used to halve its bracket down to t = 0
    # (1076 reads at L=1, beta 0, eps 0.9) and now does not run
    reads = []
    monkeypatch.setattr(exact, "_tv_spectral_reaches",
                        lambda G, t, eps: reads.append(t) or _tv_spectral_reaches(G, t, eps))
    zeros = 0
    for L, bc, kind in itertools.product((1, 2, 3), (PLUS, PERIODIC), RateModel.KINDS):
        for beta in (0.0, 0.1, 0.25, 0.5, 1.0, 2.0):
            G = build_generator(LatticeSpec(L, bc), RateModel(beta, kind))
            for eps in (0.5, 0.6, 0.75, 0.9, 0.95, 0.99, 0.999):
                reads.clear()
                tmix = tv_mixing_time(G, eps)
                within = worst_start_reference(G, 0.0) + exact._TV_TAIL < eps
                assert _tv_spectral_reaches(G, 0.0, eps) == (not within)
                assert within == (1.0 - G.pi.min() + exact._TV_TAIL < eps)
                assert within == (tmix == 0.0), (L, bc, kind, beta, eps)
                if within:
                    zeros += 1
                    assert reads == []
    # as many zeros as the search returned when it bisected down to t = 0
    assert zeros == 170


def test_tv_factors_raise_where_the_stationary_mass_underflows():
    # pi underflows to 0 at periodic L=2, beta 300: the factors divided by
    # it, and the spectral read returned 0.0 from rows of nan
    G = G_of(2, 300.0, PERIODIC)
    assert not G.pi.all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (1.0, 1e300):
            with pytest.raises(ConvergenceError, match=r"underflows to 0 at beta 300\.0"):
                _tv_spectral_reaches(G, t, 0.25)


@pytest.mark.parametrize("L, beta, bc", [(2, 300.0, PLUS), (2, 300.0, PERIODIC),
                                         (3, 200.0, PLUS)])
def test_profile_bound_is_refused_where_the_stationary_mass_underflows(L, beta, bc):
    # the lower limit 4 min(pi) is 0 there, and log(hi / lo) divided by it
    G = G_of(L, beta, bc)
    assert not G.pi.all()
    with pytest.raises(ConvergenceError, match=f"underflows to 0 at beta {beta!r}"):
        profile_mixing_bound(G)


def test_every_generator_has_a_state_leaving_at_rate_one_half():
    # a flip or its reverse finds k >= 2, whose rate is at least 1/2 under
    # both kinds, so q = max(-diag Q) >= 1/2 and no generator is zero
    for spec, kind in itertools.product(symmetric_boxes(), RateModel.KINDS):
        for beta in (0.0, 1.0, 3.0, 30.0, 300.0):
            with np.errstate(over="ignore"):
                G = build_generator(spec, RateModel(beta, kind))
            assert float(np.max(-G.Q.diagonal())) >= 0.5, (spec, kind, beta)


def test_profile_staircase_stays_within_the_largest_defect_count():
    # x >= 4 min(pi) keeps k(x) <= counts.max(), up to the largest beta at
    # which no stationary mass underflows; there the geometric midpoint of
    # a segment underflowed (ZeroDivisionError, L=3 plus beta=30) or
    # pi(plus) / x overflowed (OverflowError). From beta 30 a level set's
    # value may round to 0 or below, which gave a negative bound (-5.45e16
    # at L=3 plus beta=30) and now raises ConvergenceError
    for spec, kind in itertools.product(symmetric_boxes(), RateModel.KINDS):
        lo, hi = 0.0, 1000.0
        for _ in range(50):
            mid = (lo + hi) / 2
            with np.errstate(over="ignore"):
                ok = build_generator(spec, RateModel(mid, kind)).pi.all()
            lo, hi = (mid, hi) if ok else (lo, mid)
        for beta in (0.0, 1.0, 3.0, 30.0, lo):
            with np.errstate(over="ignore"):
                G = build_generator(spec, RateModel(beta, kind))
            try:
                ks = [k for _, _, k, _ in profile_mixing_bound(G).segments]
            except ConvergenceError as err:
                assert beta >= 30.0 and "is not positive" in str(err), (spec, kind, beta)
                continue
            assert spec != LatticeSpec(3, PLUS) or beta < 30.0, (spec, kind, beta)
            assert max(ks) <= G.counts.max(), (spec, kind, beta)


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


def test_tv_mixing_time_refuses_eps_at_or_below_the_tail():
    # the distance read carries the certificate's tail, so the bracket
    # search ran 200 doublings and raised RuntimeError
    G = G_of(2, 1.0)
    tail = exact._TV_TAIL
    for eps in (tail, 0.5 * tail, 0.0, -0.25, float("nan")):
        with pytest.raises(ValueError, match="eps must exceed"):
            tv_mixing_time(G, eps=eps)
    assert tv_mixing_time(G, eps=2 * tail) > tv_mixing_time(G, eps=0.25)


def test_profile_bound_dominates_tmix():
    for beta in (0.5, 1.0):
        G = G_of(2, beta)
        pb = profile_mixing_bound(G)
        assert isinstance(pb, ProfileBound)
        assert pb.value >= tv_mixing_time(G)


def test_profile_bound_is_at_least_the_certified_mixing_time():
    # without the breakpoint pi(plus) the range above it was charged
    # lambda(S_1) instead of the gap: periodic L=2 at beta 5 gave 11.73
    # against a tmix of 1.8e8, and L=3 at beta 8 gave 81.35 against 2.1e13
    for spec, kind in itertools.product(symmetric_boxes(), RateModel.KINDS):
        for beta in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 6.5, 8.0):
            G = build_generator(spec, RateModel(beta, kind))
            pb = profile_mixing_bound(G)
            assert pb.value >= tv_mixing_time(G), (spec, kind, beta)
            assert pb.segments[-1][2] == 0, (spec, kind, beta)
    G = G_of(3, 1.0, PERIODIC)
    assert profile_mixing_bound(G).value == pytest.approx(132.253, abs=1e-3)


def test_spectral_values_that_are_not_positive_raise():
    # the dense gap read -2.69e-15 and the profile bound -5.45e16 (L=3 plus
    # beta 30) and -1.16e18 (L=2 plus beta 20), where the LOBPCG gap raised.
    # At L=2 plus beta 20 the true gap is about 1.2e-17 and the dense one
    # rounds to -1.3e-49, so lambda(S_4) is read where the gap rounds to
    # 6.7e-16 but lambda(S_4) to -1.5e-16, at beta 30
    cases = ((spectral_gap, 3, 20.0, "dense gap"),
             (spectral_gap, 2, 20.0, "dense gap"),
             (profile_mixing_bound, 3, 30.0, r"lambda\(S_\d+\)"),
             (profile_mixing_bound, 2, 30.0, r"lambda\(S_\d+\)"))
    for fn, L, beta, what in cases:
        with pytest.raises(ConvergenceError,
                           match=rf"^{what} -?[\d.e+-]+ at beta {beta!r}: the gap is not positive$"):
            fn(G_of(L, beta))


def test_tv_certificate_that_is_not_finite_raises():
    # the squarings overflowed to inf, the distance read nan, and
    # tv_mixing_time returned the spectral time as certified
    G = G_of(2, 14.0, PERIODIC)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _tv_all_starts(G, 1e3) < 1.0
        for t in (7.744681031906218e+23, 1e30):
            with pytest.raises(ConvergenceError, match="^the TV certificate at t .* is nan$"):
                _tv_all_starts(G, t)
        for beta in (11.0, 13.0, 14.0):
            with pytest.raises(ConvergenceError, match=rf"is nan, at beta {beta!r} with gap"):
                tv_mixing_time(G_of(2, beta, PERIODIC))


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


def test_plus_test_function_values_are_the_scalar_ramp_bit_for_bit():
    def ramp(x):  # the scalar ramp the values were read off, one state at a time
        xm = x if x <= 0.5 else 1.0 - x
        if xm <= 0.25:
            return 0.0
        if xm < 1.0 / 3.0:
            return 12.0 * xm - 3.0
        return 1.0

    G = G_of(3, 1.0)
    f = witness_plus_values(G)
    assert np.array_equal(f, [ramp(i.bit_count() / 9) for i in range(G.n_states)])
    assert np.array_equal(f, [witness_plus(SpinConfig.from_code(G.spec, i))
                              for i in range(G.n_states)])
    # L=3 never lands on the ramp's slope; minus fractions of larger boxes do
    x = np.array(sorted({k / n for n in range(1, 65) for k in range(n + 1)}))
    assert np.array_equal(exact._g_profile(x), [ramp(v) for v in x])


def test_plus_test_function_bound():
    for beta in (1.0, 2.0):
        G = G_of(3, beta)
        f = witness_plus_values(G)
        assert variance(G, f) / dirichlet_form(G, f) <= relaxation_time(G) * (1 + 1e-12)
    with pytest.raises(ValueError):
        witness_plus(SpinConfig.all_plus(LatticeSpec(3, PERIODIC)))
    G = build_generator(LatticeSpec(2, PERIODIC), RateModel(1.0))
    with pytest.raises(ValueError, match="^this test function is for the all-plus boundary$"):
        witness_plus_values(G)


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
    # 2^25 states is past lattice.ENUM_BUDGET; a failed build is not
    # cached, so every build raises
    for _ in range(2):
        with pytest.raises(BudgetExceededError):
            build_generator(LatticeSpec(5, PLUS), RateModel(1.0))


def test_eigen_budget_guard():
    G = G_of(2, 1.0)
    assert G.n_states <= DENSE_THRESHOLD
    with pytest.raises(BudgetExceededError):
        _lambda_of_subset(
            build_generator(LatticeSpec(4, PLUS), RateModel(0.5)),
            np.arange(DENSE_THRESHOLD + 1),
        )


def test_derived_tables_are_formed_once():
    G = G_of(3, 1.0)
    for name in ("pi", "S", "sector_blocks", "eigen", "tv_factors"):
        assert getattr(G, name) is getattr(G, name), name


def test_tables_past_the_dense_threshold_raise_on_every_read():
    # a cached property caches no exception: the second read raises too
    G = G_of(4, 1.0)
    for name in ("symmetry", "eigen"):
        for _ in range(2):
            with pytest.raises(BudgetExceededError, match=f"limited to {DENSE_THRESHOLD}"):
                getattr(G, name)


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
        tau = np.array([mean_hitting_time(G, SpinConfig.from_code(G.spec, i), target)
                        for i in range(G.n_states)])
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
