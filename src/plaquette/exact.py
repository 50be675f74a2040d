"""Exact spectral and mixing analysis on fully enumerated boxes.

State index i is the configuration's code, `SpinConfig.code`: bit b is 1
where the spin at flat site b is -1, so index 0 is the all-plus state.
The generator acts as Q[i, i ^ (1 << b)] = rate of flipping site b.

Everything here is dense or sparse linear algebra on enumerated boxes
(2^(L^2) grows fast; the hard budget is explicit). The chain is
reversible, so S = D^1/2 Q D^-1/2 with D = diag(pi) is symmetric, and
sqrt(pi) spans its kernel.

- Below the dense threshold one `eigh` of S, S = V diag(w) V^T, is cached
  on the generator. The gap, the slow eigenfunction and every step of the
  mixing-time search read it, the last through
  P_t = D^-1/2 V e^{tw} V^T D^1/2, one matrix product per time.
- Above it the gap is the smallest eigenvalue of -S on the complement of
  sqrt(pi), found by LOBPCG with a diagonal preconditioner from a
  fixed-seed start, and accepted only once its residual is checked.
- The time the mixing search returns is certified by a route that does
  not rest on the eigensolver: exp(tQ) by scaling and squaring, each
  factor a truncated uniformization series, so the kernel is bounded
  entrywise from below with a known row deficit.
- The profile bound integrates a staircase built from level-set
  eigenvalues.

scipy is imported inside the functions that use it, so importing this
module, and with it the CLI and the Monte Carlo layers, loads numpy only.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .lattice import (
    ENUM_BUDGET_DEFAULT,
    PLUS,
    BudgetExceededError,
    SpinConfig,
    _box_defects,
    _site_masks,
)

DENSE_THRESHOLD = 4096
_GAP_TOL = 1e-11
_GAP_MAXITER = 1000
_TV_RTOL = 0.01  # relative width of tv_mixing_time's bisection
_TV_TAIL = 1e-8  # row deficit allowed in the TV certificate's kernel


class ConvergenceError(RuntimeError):
    """The sparse eigensolver stopped without reaching its tolerance."""


class SparseGenerator:
    """Generator matrix plus the state indexing it lives on."""

    def __init__(self, spec, model, Q, counts):
        self.spec = spec
        self.model = model
        self.Q = Q
        self.counts = counts
        self._pi = None
        self._eigen = None

    @property
    def n_states(self):
        return self.Q.shape[0]

    def config(self, i):
        return SpinConfig.from_code(self.spec, i)

    @property
    def pi(self):
        if self._pi is None:
            self._pi = stationary_distribution(self)
        return self._pi

    @property
    def eigen(self):
        """(w, V) with S = V diag(w) V^T, w ascending, for the symmetrized
        generator S; computed once, and only up to DENSE_THRESHOLD states."""
        if self._eigen is None:
            if self.n_states > DENSE_THRESHOLD:
                raise BudgetExceededError(
                    f"dense eigendecomposition limited to {DENSE_THRESHOLD} states"
                )
            self._eigen = np.linalg.eigh(_symmetrized(self).toarray())
        return self._eigen


def build_generator(spec, model, budget=ENUM_BUDGET_DEFAULT):
    """Assemble the full jump-rate matrix over every configuration; site
    b's k is the popcount of the defect bits under masks[b], 2 where the
    mask is 0 (the periodic 1x1 flip, which changes no plaquette)."""
    import scipy.sparse as sparse

    D = _box_defects(spec, budget)
    N = D.size
    n = spec.n_sites
    counts = np.bitwise_count(D)
    masks = np.array(_site_masks(spec.side, spec.is_periodic), np.uint64)
    k = np.bitwise_count(D[:, None] & masks)
    k[:, masks == 0] = 2
    rows = np.repeat(np.arange(N, dtype=np.int64), n)
    cols = (np.arange(N, dtype=np.int64)[:, None] ^ (1 << np.arange(n, dtype=np.int64))[None, :]).ravel()
    Q = sparse.coo_matrix((model.table[k].ravel(), (rows, cols)), shape=(N, N)).tocsr()
    Q = Q - sparse.diags(np.asarray(Q.sum(axis=1)).ravel())
    return SparseGenerator(spec, model, Q.tocsr(), counts)


def stationary_distribution(G):
    """Reversible measure: weight exp(-beta * defect count), normalized."""
    beta = G.model.beta
    w = np.exp(-beta * (G.counts - G.counts.min()).astype(float))
    return w / w.sum()


def ground_mass(G):
    """Stationary probability of the zero-defect states."""
    return float(G.pi[G.counts == 0].sum())


def _symmetrized(G):
    import scipy.sparse as sparse

    Q = G.Q
    d = Q.diagonal()
    off = Q - sparse.diags(d)
    M = off.multiply(off.T)
    M.data = np.sqrt(M.data)
    return (M + sparse.diags(d)).tocsr()


def spectral_gap(G, dense_threshold=DENSE_THRESHOLD):
    """Smallest positive eigenvalue of -Q (via the symmetric conjugate).

    Up to min(dense_threshold, DENSE_THRESHOLD) states it is read off the
    cached dense eigendecomposition. Above that it is the smallest
    eigenvalue of -S under the constraint x . sqrt(pi) = 0, which deflates
    the stationary mode, found by LOBPCG (block size 1, Jacobi
    preconditioner 1/diag(-S)) to residual _GAP_TOL.

    The start is a fixed-seed Gaussian vector, so the result is the same
    on every call. It is not a symmetric vector such as all ones: -S and
    the preconditioner commute with the box's symmetries, so a start they
    fix keeps every iterate in the symmetric sector, which need not hold
    the gap. A solver warning, or a residual above _GAP_TOL, raises
    ConvergenceError.
    """
    if G.n_states <= min(dense_threshold, DENSE_THRESHOLD):
        return float(-G.eigen[0][-2])
    import scipy.sparse as sparse
    import scipy.sparse.linalg as splinalg

    A = -_symmetrized(G)
    x0 = np.random.default_rng(0).standard_normal((G.n_states, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        try:
            w, X = splinalg.lobpcg(A, x0, M=sparse.diags(1.0 / A.diagonal()),
                                   Y=np.sqrt(G.pi)[:, None], largest=False,
                                   tol=_GAP_TOL, maxiter=_GAP_MAXITER)
        except UserWarning as err:
            raise ConvergenceError(f"LOBPCG gap did not converge: {err}") from None
    x = X[:, 0]
    residual = float(np.linalg.norm(A @ x - w[0] * x) / np.linalg.norm(x))
    if not residual <= _GAP_TOL:
        raise ConvergenceError(f"LOBPCG gap residual {residual:.3g} above {_GAP_TOL:g}")
    return float(w[0])


def relaxation_time(G):
    return 1.0 / spectral_gap(G)


def slow_eigenfunction(G):
    """(gap, f) where f spans the slowest nontrivial mode of Q."""
    w, V = G.eigen
    return float(-w[-2]), V[:, -2] / np.sqrt(G.pi)


def dirichlet_form(G, f):
    f = np.asarray(f, dtype=float)
    return float(-(G.pi * f) @ (G.Q @ f))


def variance(G, f):
    f = np.asarray(f, dtype=float)
    m = float(G.pi @ f)
    return float(G.pi @ (f - m) ** 2)


def rayleigh_lower_bound(G, f):
    """Var(f)/D(f): a certified lower bound on the relaxation time."""
    v = variance(G, f)
    if v <= 1e-30:
        raise ValueError("degenerate test function")
    return v / dirichlet_form(G, f)


def mean_hitting_time(G, init, target_mask):
    """Exact mean time for the chain started at configuration `init` to
    first enter the states where the boolean `target_mask` is true.

    The means tau on the complement A of the target solve -Q_AA tau = 1.
    In the symmetrized form, -S_AA y = sqrt(pi_A) with tau = y / sqrt(pi_A),
    the matrix is positive definite, and it is solved densely by Cholesky
    up to DENSE_THRESHOLD states of A; above that it raises
    BudgetExceededError.
    """
    if init.spec != G.spec:
        raise ValueError("initial configuration belongs to a different box")
    target = np.asarray(target_mask, dtype=bool)
    if target.shape != (G.n_states,) or not target.any():
        raise ValueError("target_mask must mark at least one of the generator's states")
    i = init.code
    if target[i]:
        return 0.0
    A = np.nonzero(~target)[0]
    if A.size > DENSE_THRESHOLD:
        raise BudgetExceededError(f"hitting-time solve limited to {DENSE_THRESHOLD} states")
    import scipy.linalg

    S = _symmetrized(G)[A][:, A].toarray()
    r = np.sqrt(G.pi[A])
    y = scipy.linalg.solve(-S, r, assume_a="pos")
    a = np.searchsorted(A, i)
    return float(y[a] / r[a])


def level_set(G, k):
    """Indices of states with at least k defects."""
    idx = np.nonzero(G.counts >= k)[0]
    if idx.size == 0:
        raise ValueError("empty level set")
    return idx


def _lambda_of_subset(G, idx):
    """Smallest Dirichlet/variance ratio over functions supported on idx."""
    N = G.n_states
    if idx.size == N:
        return spectral_gap(G)
    if idx.size > DENSE_THRESHOLD:
        raise BudgetExceededError(
            f"subset eigenproblem limited to {DENSE_THRESHOLD} states"
        )
    import scipy.linalg

    pi = G.pi
    Qsub = G.Q[idx][:, idx].toarray()
    A = -(pi[idx][:, None] * Qsub)
    A = 0.5 * (A + A.T)
    p = pi[idx]
    B = np.diag(p) - np.outer(p, p)
    w = scipy.linalg.eigh(A, B, eigvals_only=True, subset_by_index=[0, 0])
    return float(w[0])


def spectral_profile(G, k):
    """lambda(S_k) over the level set of at least k defects; k=0 gives the gap."""
    if k <= 0:
        return spectral_gap(G)
    return _lambda_of_subset(G, level_set(G, k))


def _poisson_weights(lam, tail):
    """Poisson(lam) probabilities of 0..K, with P(X > K) <= tail.

    K is one past the smallest k with P(X > k) <= tail. The weights are
    formed in log space, so exp(-lam) does not underflow them at large lam.
    """
    from scipy import special

    hi = int(lam) + 1
    while special.pdtrc(hi, lam) > tail:
        hi *= 2
    K = int(np.argmax(special.pdtrc(np.arange(hi + 1), lam) <= tail)) + 1
    k = np.arange(K + 1)
    return np.exp(k * math.log(lam) - lam - special.gammaln(k + 1))


def _kernel_below(G, t):
    """Entrywise lower bound A on exp(tQ), row sums at least 1 - _TV_TAIL.

    Scaling and squaring: with s = max(0, ceil(log2(q t / 8))) and
    h = t / 2^s, exp(hQ) = sum_k Poisson(qh)[k] P^k with P = I + Q/q is
    cut once the remaining mass is below _TV_TAIL / 2^s (about 30 terms),
    and the N x N result is squared s times. Every factor is nonnegative
    and below the exact kernel, and a product's row deficit is at most the
    sum of its factors' deficits, so the deficit of A is at most _TV_TAIL.
    """
    import scipy.sparse as sparse

    Q = G.Q
    N = Q.shape[0]
    q = float(np.max(-Q.diagonal()))
    if q <= 0 or t <= 0:
        return np.eye(N)
    s = max(0, math.ceil(math.log2(q * t / 8.0)))
    w = _poisson_weights(q * t / 2**s, _TV_TAIL / 2**s)
    P = sparse.eye(N, format="csr") + Q / q
    W = np.eye(N)
    A = w[0] * W
    for k in range(1, w.size):
        W = P @ W
        A += w[k] * W
    for _ in range(s):
        A = A @ A
    return A


def _tv_all_starts(G, t):
    """Worst-start total variation distance from stationarity at time t,
    an upper bound within _TV_TAIL of the true distance.

    A = `_kernel_below(G, t)` is below P_t entrywise, so for each start
    sum|P_t - pi| <= sum|A - pi| + (1 - sum A). The largest row of half
    that is returned; the slack over the true distance is at most the row
    deficit, which is at most _TV_TAIL.
    """
    A = _kernel_below(G, t)
    rows = np.abs(A - G.pi[None, :]).sum(axis=1) + (1.0 - A.sum(axis=1))
    return 0.5 * float(np.max(rows))


def _tv_spectral(G, t):
    """Worst-start total variation at time t from the cached eigenpairs.

    P_t - Pi = D^-1/2 V' e^{tw'} V'^T D^1/2, where ' drops the stationary
    mode (the top eigenvalue, 0). _TV_TAIL is added so that the value is
    at or above the certificate `_tv_all_starts`, which exceeds the true
    distance by at most _TV_TAIL.
    """
    w, V = G.eigen
    r = np.sqrt(G.pi)[:, None]
    U = V[:, :-1]
    A = (U * (np.exp(t * w[:-1]) / r)) @ (U * r).T
    return 0.5 * float(np.max(np.abs(A).sum(axis=1))) + _TV_TAIL


def _first_time_below(tv, lo, t, eps):
    """Double t until tv(t) < eps, then bisect [lo, t] to relative width
    _TV_RTOL; returns the upper endpoint, where tv is below eps."""
    for _ in range(200):
        if tv(t) < eps:
            break
        lo = t
        t *= 2.0
    else:
        raise RuntimeError("mixing bracket not found; chain mixes too slowly")
    hi = t
    while hi - lo > _TV_RTOL * hi:
        mid = 0.5 * (lo + hi)
        if tv(mid) < eps:
            hi = mid
        else:
            lo = mid
    return hi


def tv_mixing_time(G, eps=0.25):
    """Smallest time with worst-start TV below eps, to 1% relative precision.

    Doubles an upper bracket from 1/q, then bisects, reading the distance
    off the spectral representation. The endpoint is then certified by
    `_tv_all_starts` (truncation slack included). Should the certificate
    fail, the search goes on above that endpoint with the certificate
    alone, so the time returned is always certified below eps. Above
    DENSE_THRESHOLD states `G.eigen` raises BudgetExceededError.
    """
    q = float(np.max(-G.Q.diagonal()))
    if q <= 0:
        raise ValueError("zero generator")
    hi = _first_time_below(lambda t: _tv_spectral(G, t), 0.0, 1.0 / q, eps)
    if _tv_all_starts(G, hi) >= eps:
        hi = _first_time_below(lambda t: _tv_all_starts(G, t), hi, 2.0 * hi, eps)
    return hi


@dataclass
class ProfileBound:
    value: float
    segments: list  # (x_lo, x_hi, k, lambda_k)
    x_lo: float
    x_hi: float


def profile_mixing_bound(G):
    """Mixing-time upper bound from the level-set spectral staircase.

    Integrates 2/(x * lambda(S_k(x))) for x from 4*min(pi) to 16, where
    k(x) = min{k : pi(plus) * exp(-beta k) <= x}; every state of mass
    <= x then has at least k(x) defects, so any set of mass <= x sits
    inside S_k(x) and the staircase under-estimates the true profile.
    """
    pi = G.pi
    beta = G.model.beta
    pi_plus = float(pi[0])
    k_max = int(G.counts.max())
    a = 4.0 * float(pi.min())
    b = 16.0

    def k_of(x):
        if pi_plus <= x or beta == 0:
            return 0
        k = int(math.ceil(math.log(pi_plus / x) / beta - 1e-12))
        if k > k_max:
            raise AssertionError("breakpoint below the minimum stationary mass")
        return k

    pts = {a, b}
    for k in range(1, k_max + 1):
        x_k = pi_plus * math.exp(-beta * k)
        if a < x_k < b:
            pts.add(x_k)
    grid = sorted(pts)
    uniq = np.unique(G.counts)
    lam_cache = {}

    def lam_for(k):
        if k == 0:
            key = 0
        else:
            key = int(uniq[np.searchsorted(uniq, k)])  # S_k == S_key
        if key not in lam_cache:
            lam_cache[key] = spectral_profile(G, key)
        return lam_cache[key]

    steps = [(lo, hi, k_of(math.sqrt(lo * hi))) for lo, hi in zip(grid, grid[1:])]
    # proper level sets from the largest down, then the whole box (the
    # gap): a set past the dense budget raises before any solve is spent
    for k in sorted({k for _, _, k in steps}, key=lambda k: (k == 0, k)):
        lam_for(k)
    total = 0.0
    segments = []
    for lo, hi, k in steps:
        lam = lam_for(k)
        total += (2.0 / lam) * math.log(hi / lo)
        segments.append((lo, hi, k, lam))
    return ProfileBound(value=total, segments=segments, x_lo=a, x_hi=b)


def _g_profile(x):
    xm = x if x <= 0.5 else 1.0 - x
    if xm <= 0.25:
        return 0.0
    if xm < 1.0 / 3.0:
        return 12.0 * xm - 3.0
    return 1.0


def test_function_plus(cfg):
    """Slow mode witness: the minus fraction pushed through a ramp that is
    0 below a quarter, 1 above a third, linear between, and symmetric."""
    if cfg.spec.bc != PLUS:
        raise ValueError("this test function is for the all-plus boundary")
    return _g_profile(cfg.code.bit_count() / cfg.spec.n_sites)


def test_function_plus_values(G):
    """test_function_plus over all states; state i has popcount(i) minus spins."""
    if G.spec.bc != PLUS:
        raise ValueError("this test function is for the all-plus boundary")
    n = G.spec.n_sites
    return np.array([_g_profile(i.bit_count() / n) for i in range(G.n_states)])


def dump_generator_text(G):
    """Coordinate text dump 'i j rate', one entry per line, diagonal included."""
    coo = G.Q.tocoo()
    lines = [f"{i} {j} {float(v)!r}" for i, j, v in zip(coo.row, coo.col, coo.data)]
    return "\n".join(lines) + "\n"
