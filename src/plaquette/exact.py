"""Exact spectral and mixing analysis on fully enumerated boxes.

State index i encodes spins by its bits: bit b (array C-order over the
(column, row) grid) is 1 where the spin is -1, so index 0 is the all-plus
state. The generator acts as Q[i, i ^ (1 << b)] = rate of flipping site b.

Everything here is dense or sparse linear algebra on at most a few
thousand states (2^(L^2) grows fast; the hard budget is explicit), with
three exceptions worth naming: the spectral gap falls back to a Lanczos
solver above the dense threshold, total-variation mixing is evaluated by
uniformization with a rigorously truncated Poisson sum, and the profile
bound integrates a staircase built from level-set eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sparse
import scipy.sparse.linalg as splinalg
from scipy.stats import poisson

from .lattice import (
    ENUM_BUDGET_DEFAULT,
    PLUS,
    BudgetExceededError,
    SpinConfig,
    _all_defects,
    _site_k,
)

DENSE_THRESHOLD = 4096


class SparseGenerator:
    """Generator matrix plus the state indexing it lives on."""

    def __init__(self, spec, model, Q, counts):
        self.spec = spec
        self.model = model
        self.Q = Q
        self.counts = counts
        self._pi = None

    @property
    def n_states(self):
        return self.Q.shape[0]

    def config(self, i):
        L = self.spec.side
        n = L * L
        bits = (i >> np.arange(n, dtype=np.uint64)) & 1
        spins = (1 - 2 * bits.astype(np.int8)).reshape(L, L)
        return SpinConfig._from_frozen(self.spec, spins)

    def config_index(self, cfg):
        bits = (cfg.spins.reshape(-1) == -1).astype(np.uint64)
        return int((bits << np.arange(bits.size, dtype=np.uint64)).sum())

    @property
    def pi(self):
        if self._pi is None:
            self._pi = stationary_distribution(self)
        return self._pi


def build_generator(spec, model, budget=ENUM_BUDGET_DEFAULT):
    """Assemble the full jump-rate matrix over every configuration."""
    _, defective = _all_defects(spec, budget)
    N = defective.shape[0]
    n = spec.n_sites
    counts = np.count_nonzero(defective, axis=(1, 2))
    rates = model.table[_site_k(spec, defective)].reshape(N, n)
    rows = np.repeat(np.arange(N, dtype=np.int64), n)
    cols = (np.arange(N, dtype=np.int64)[:, None] ^ (1 << np.arange(n, dtype=np.int64))[None, :]).ravel()
    Q = sparse.coo_matrix((rates.ravel(), (rows, cols)), shape=(N, N)).tocsr()
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
    Q = G.Q
    d = Q.diagonal()
    off = Q - sparse.diags(d)
    M = off.multiply(off.T)
    M.data = np.sqrt(M.data)
    return (M + sparse.diags(d)).tocsr()


def spectral_gap(G, dense_threshold=DENSE_THRESHOLD):
    """Smallest positive eigenvalue of -Q (via the symmetric conjugate)."""
    S = _symmetrized(G)
    N = S.shape[0]
    if N <= dense_threshold:
        w = np.linalg.eigvalsh(S.toarray())
        return float(-w[-2])
    w = splinalg.eigsh(S, k=2, which="LA", return_eigenvectors=False)
    return float(-np.min(w))


def relaxation_time(G):
    return 1.0 / spectral_gap(G)


def slow_eigenfunction(G):
    """(gap, f) where f spans the slowest nontrivial mode of Q."""
    S = _symmetrized(G)
    N = S.shape[0]
    if N > DENSE_THRESHOLD:
        raise BudgetExceededError(f"dense eigenvector pass limited to {DENSE_THRESHOLD} states")
    w, V = np.linalg.eigh(S.toarray())
    gap = float(-w[-2])
    u = V[:, -2]
    f = u / np.sqrt(G.pi)
    return gap, f


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


def _tv_all_starts(G, t, tail=1e-8):
    """Worst-start total variation distance from stationarity at time t.

    Uniformization: exp(tQ) = sum_k Poisson(qt)[k] P^k with P = I + Q/q.
    The Poisson sum is cut once the remaining mass is below `tail`, and
    that mass is added to the result, so the return value is an upper
    bound within `tail` of the true distance.
    """
    pi = G.pi
    Q = G.Q
    N = Q.shape[0]
    q = float(np.max(-Q.diagonal()))
    if q <= 0 or t <= 0:
        return 0.5 * float(np.max(np.abs(np.eye(N) - pi[None, :]).sum(axis=1)))
    PT = (sparse.eye(N, format="csr") + Q / q).T.tocsr()
    lam = q * t
    K = int(poisson.isf(tail, lam)) + 1
    w = poisson.pmf(np.arange(K + 1), lam)
    WT = np.eye(N)
    acc = w[0] * WT
    for k in range(1, K + 1):
        WT = PT @ WT
        if w[k] > 0:
            acc += w[k] * WT
    A = acc.T
    d = 0.5 * float(np.max(np.abs(A - pi[None, :]).sum(axis=1)))
    return d + tail


def tv_mixing_time(G, eps=0.25, rtol=0.01, tail=1e-8, budget=DENSE_THRESHOLD):
    """Smallest time with worst-start TV below eps, to 1% relative precision.

    Doubles an upper bracket, then bisects; the returned endpoint is
    certified below eps (including the truncation slack).
    """
    if G.n_states > budget:
        raise BudgetExceededError(f"mixing computation limited to {budget} states")
    q = float(np.max(-G.Q.diagonal()))
    if q <= 0:
        raise ValueError("zero generator")
    t = 1.0 / q
    lo = 0.0
    hi = None
    for _ in range(200):
        if _tv_all_starts(G, t, tail) < eps:
            hi = t
            break
        lo = t
        t *= 2.0
    if hi is None:
        raise RuntimeError("mixing bracket not found; chain mixes too slowly")
    while hi - lo > rtol * hi:
        mid = 0.5 * (lo + hi)
        if _tv_all_starts(G, mid, tail) < eps:
            hi = mid
        else:
            lo = mid
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
            lam_cache[key] = spectral_gap(G) if key == 0 else spectral_profile(G, key)
        return lam_cache[key]

    total = 0.0
    segments = []
    for lo, hi in zip(grid, grid[1:]):
        k = k_of(math.sqrt(lo * hi))
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
    return _g_profile(cfg.minus_count / cfg.spec.n_sites)


def test_function_plus_values(G):
    """test_function_plus over all enumerated states, vectorized."""
    if G.spec.bc != PLUS:
        raise ValueError("this test function is for the all-plus boundary")
    n = G.spec.n_sites
    idx = np.arange(G.n_states, dtype=np.uint64)
    minus = np.zeros(G.n_states, dtype=np.int64)
    for b in range(n):
        minus += ((idx >> np.uint64(b)) & np.uint64(1)).astype(np.int64)
    return np.array([_g_profile(m / n) for m in minus])


def dump_generator_text(G):
    """Coordinate text dump 'i j rate', one entry per line, diagonal included."""
    coo = G.Q.tocoo()
    lines = [f"{i} {j} {float(v)!r}" for i, j, v in zip(coo.row, coo.col, coo.data)]
    return "\n".join(lines) + "\n"
