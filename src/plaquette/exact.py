"""Exact spectral and mixing analysis on fully enumerated boxes.

State index i is the configuration's code, `SpinConfig.code`: bit b is 1
where the spin at flat site b is -1, so index 0 is the all-plus state.
The generator acts as Q[i, i ^ (1 << b)] = rate of flipping site b.

Everything here is dense or sparse linear algebra on enumerated boxes
(2^(L^2) grows fast; the hard budget is lattice.ENUM_BUDGET). The chain is
reversible, so S = D^1/2 Q D^-1/2 with D = diag(pi) is symmetric, and
sqrt(pi) spans its kernel.

- Derived data is cached one way, by `functools`: `_box` is an
  lru_cache over `_Box`, and the box's `symmetry` and the generator's
  Q, pi, S, sector_blocks, eigen and tv_factors are cached properties,
  each formed on its first read and kept on the object that owns it, so
  a generator's tables are freed with it. A read that raises (a table
  past DENSE_THRESHOLD) caches nothing.
- What the rates do not change is built once per box and kept for the
  last _BOX_CACHE boxes (`_box`): the defect counts, the sorted CSR
  pattern of Q and each entry's k in that order. `build_generator` forms
  only Q's diagonal, minus the row sums; Q and S are each one gather of
  a rate table on the pattern, formed when read, so the gap above the
  dense threshold forms S and never Q.
- Below the dense threshold each box builds one `Symmetry` table:
  the group H of box symmetries that commute with Q, read off the box's
  geometry (`_involutions`): the 2L - 1 independent whole-line flips of a
  periodic box, and each axis reflection of a framed box that leaves the
  frame's defects unchanged, so an asymmetric frame falls back to fewer
  or none. It holds each code's orbit representative, the element
  carrying the representative to the code, and each sector's character
  and kept orbits. No sector basis is formed: a sector block is one
  scatter of the representative rows of S.
- S = V diag(w) V^T is found by one `eigh` per sector
  (`SparseGenerator.eigen`). The gap, the slow eigenfunction and
  every step of the mixing-time search read it, the last through
  P_t = D^-1/2 V e^{tw} V^T D^1/2. A step asks only whether some start
  is at or above eps, and forms only the rows of P_t whose chi^2 bound
  reaches eps, at orbit representatives: a few GEMM blocks near the
  mixing time, not the N x N product. No step is taken below
  ln(1/(2 eps)) / gap, where d(t) >= e^{-t gap} / 2 already puts the
  distance at or above eps.
- Above it the gap is the smallest eigenvalue of -S on the complement of
  sqrt(pi), found by a block-size-1 LOBPCG in numpy (one product with S
  per step, negated in place, so -S is never formed) with a diagonal
  preconditioner, started from the slow mode (the minus fraction, less its
  stationary mean) with a little of a fixed-seed vector, and accepted only
  once its residual is checked.
- The time the mixing search returns is certified by a route that does
  not rest on the eigensolver: exp(tQ) by scaling and squaring, each
  factor a truncated uniformization series, so the kernel is bounded
  entrywise from below with a known row deficit. Only its representative
  rows are formed; a squaring gathers the full factor from them.
- The profile bound integrates a staircase built from level-set
  eigenvalues: the bottom of -S restricted to the set with a rank-two
  correction (`_lambda_of_subset`). A level set is a union of orbits, so
  it is one `eigh` per sector, on the sector block's rows of the set's
  orbits, and only the trivial sector's carries the correction.

scipy is imported inside the functions that use it, so importing this
module, and with it the CLI and the Monte Carlo layers, loads numpy only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .lattice import (
    PLUS,
    BudgetExceededError,
    _box_defects,
    _plaquettes,
    _site_masks,
)

DENSE_THRESHOLD = 4096
_GAP_TOL = 1e-11
_GAP_MAXITER = 1000
_GRAM_FLOOR = 1e-12  # smallest/largest scaled Gram eigenvalue that keeps LOBPCG's p
_TV_RTOL = 0.01  # relative width of tv_mixing_time's bisection
_TV_TAIL = 1e-8  # row deficit allowed in the TV certificate's kernel
_TV_BLOCK = 8  # exact worst-start rows formed per product
_TV_MARGIN = 1e-9  # over the chi^2 bound, for rounding in the exact rows
_BOX_CACHE = 8  # boxes whose beta-free tables `_box` keeps
_ROW_BLOCK = 4096  # rows of Q per block of `_row_sums`
_DIAG = 5  # the k table's entry at a diagonal slot, one past the largest k


class ConvergenceError(RuntimeError):
    """The sparse eigensolver stopped without reaching its tolerance."""


class SparseGenerator:
    """Generator matrix plus the state indexing it lives on; the box's
    beta-free tables (`_Box`) are shared by every generator of the box.

    It holds the rates, the box and Q's `diagonal`. The rest is a
    `functools.cached_property`, formed on first read and freed with this
    object: Q, pi, S, sector_blocks, eigen and tv_factors; no sector
    basis is kept or formed. A read that raises (eigen above
    DENSE_THRESHOLD) caches nothing and raises again on the next read.
    """

    def __init__(self, box, model, diagonal):
        self.spec = box.spec
        self.model = model
        self.diagonal = diagonal
        self.counts = box.counts
        self._box = box

    @property
    def n_states(self):
        return self.counts.size

    @functools.cached_property
    def pi(self):
        return stationary_distribution(self)

    @functools.cached_property
    def Q(self):
        """The generator (CSR) on the box's pattern: each entry the rate of
        its k, the diagonal `diagonal`."""
        return _on_pattern(self._box, self.model.table, self.diagonal)

    @functools.cached_property
    def S(self):
        """The symmetrized generator D^1/2 Q D^-1/2 (CSR), on Q's index
        arrays.

        The entry for flipping site b at state i is sqrt(r(k) r(4 - k)),
        k = k_b(i): the reverse flip finds the other 4 - k plaquettes
        defective (and the periodic 1x1 flip has k = 2 both ways). The
        diagonal is Q's.
        """
        r = self.model.table
        return _on_pattern(self._box, np.sqrt(r * r[::-1]), self.diagonal)

    @property
    def symmetry(self):
        """The box's `Symmetry` table (`_Box.symmetry`)."""
        return self._box.symmetry

    @functools.cached_property
    def sector_blocks(self):
        """S in each sector (`Symmetry`), on its kept orbits: M[o, o'] =
        sqrt(|O|/|O'|) sum over z' in O' of chi(carrier z') S[rep_o, z'].
        That is b_o^T S b_o' for the sector's unit vectors b_o (never
        formed), as S b_o' lies in the sector, so b_o^T S b_o' =
        sqrt|O| (S b_o')[rep_o]: one scatter of the representative rows of S.
        """
        sym = self.symmetry
        R = sym.reps.size
        rows = self.S[sym.reps].tocoo()  # row o is orbit o's representative's
        to = sym.orbit[rows.col]
        size = np.bincount(sym.orbit)
        values = rows.data * np.sqrt(size[rows.row] / size[to])
        carrier, pair = sym.carrier[rows.col], rows.row * R + to
        # every orbit pair is summed, and the pairs the sector drops are cut
        return [np.bincount(pair, chi[carrier] * values, R * R).reshape(R, R)[np.ix_(cols, cols)]
                for cols, chi in zip(sym.columns, sym.characters)]

    @functools.cached_property
    def eigen(self):
        """(w, V) with S = V diag(w) V^T, w ascending, for the symmetrized
        generator S; only up to DENSE_THRESHOLD states. One `eigh` per
        sector block, M = V_M diag(w_M) V_M^T. A column of V_M gives the
        eigenvector of S with chi(carrier z) / sqrt|O_z| times its entry for
        z's orbit at each code z of a kept orbit, and 0 elsewhere: one gather
        per sector, put where the order of w puts it.
        """
        sym = self.symmetry
        pairs = [np.linalg.eigh(M) for M in self.sector_blocks]
        w = np.concatenate([p[0] for p in pairs])
        order = np.argsort(w, kind="stable")
        places = np.split(np.argsort(order), np.cumsum([c.size for c in sym.columns])[:-1])
        root = np.sqrt(np.bincount(sym.orbit))
        V = np.zeros((self.n_states,) * 2)
        for cols, chi, (_, VM), at in zip(sym.columns, sym.characters, pairs, places):
            z = np.nonzero(np.isin(sym.orbit, cols))[0]
            scale = chi[sym.carrier[z]] / root[sym.orbit[z]]
            V[np.ix_(z, at)] = scale[:, None] * VM[np.searchsorted(cols, sym.orbit[z])]
        return w[order], V

    @functools.cached_property
    def tv_factors(self):
        """(U^2, U / sqrt(pi), (U sqrt(pi))^T, w') for the worst-start
        search, the first two on the representative rows only. U = V' is V
        without its stationary column; start x's row of P_t - Pi is
        (U / sqrt(pi))[x] e^{tw'} (U sqrt(pi))^T.

        A stationary mass that underflows to 0 (periodic L=2 at beta 300)
        would make rows of nan, which no distance exceeds: `_check_pi`
        raises before the division, so no RuntimeWarning."""
        w, V = self.eigen
        _check_pi(self, "the distance")
        r = np.sqrt(self.pi)[:, None]
        U = V[:, :-1]
        reps = self.symmetry.reps
        return U[reps] ** 2, U[reps] / r[reps], (U * r).T, w[:-1]


def _check_pi(G, what):
    """ConvergenceError naming beta where the stationary mass of a state
    underflows to 0, which leaves `what` undefined."""
    if not G.pi.all():
        raise ConvergenceError(f"the stationary mass of a state underflows to 0 at beta"
                               f" {G.model.beta!r}, so {what} cannot be formed")


def _positive(value, what, beta):
    """value, a gap (lambda(S_k) is that of the chain killed outside S_k), or
    ConvergenceError naming beta where rounding left it not positive."""
    if not value > 0:
        raise ConvergenceError(f"{what} {value:.3g} at beta {beta!r}: the gap is not positive")
    return value


def _frozen(*arrays):
    """Make the arrays read-only."""
    for a in arrays:
        a.flags.writeable = False


class _Box:
    """What every generator of one box shares whatever the rates, built
    once per box by `_box`; its arrays are read-only.

    counts[i] is state i's defect count. indptr and indices are the sorted
    CSR pattern of Q: row i holds i ^ 2^b for every site b, and i itself
    at slot diag[i] = indptr[i] + popcount(i), since the columns below i
    are those that clear a set bit of i. kc holds each entry's k in that
    order (`_site_k_column`), filled one site at a time, and _DIAG at the
    diagonal slot.
    """

    def __init__(self, spec):
        n = spec.n_sites
        D = _box_defects(spec)
        N = D.size
        z = np.arange(N, dtype=np.int64)
        self.indptr = np.arange(0, N * (n + 1) + 1, n + 1, dtype=np.int32)
        self.diag = self.indptr[:-1] + np.bitwise_count(z)
        self.indices = np.empty(N * (n + 1), np.int32)
        self.indices[self.diag] = z
        self.kc = np.full(N * (n + 1), _DIAG, np.uint8)
        low = np.zeros(N, np.int64)  # set bits of i below b
        for b, mask in enumerate(_site_masks(spec.side, spec.is_periodic)):
            bit = z >> b & 1
            # below the diagonal the set bits of i, highest first; above it
            # the clear ones, lowest first
            slot = np.where(bit, self.diag - low - 1, self.diag + 1 + b - low)
            self.indices[slot] = z ^ (1 << b)
            self.kc[slot] = _site_k_column(D, mask)
            low += bit
        self.spec = spec
        self.counts = np.bitwise_count(D)
        _frozen(self.counts, self.indptr, self.indices, self.diag, self.kc)

    @functools.cached_property
    def symmetry(self):
        """The box's `Symmetry` table, only up to DENSE_THRESHOLD states;
        above that every read raises."""
        if self.counts.size > DENSE_THRESHOLD:
            raise BudgetExceededError(f"symmetry table limited to {DENSE_THRESHOLD} states")
        return Symmetry.of(self.spec)


def _site_k_column(D, mask):
    """Each state's k at the site whose plaquettes are `mask`, from the
    states' defect bits D: the popcount of D under the mask, 2 where the
    mask is 0 (the periodic 1x1 flip, which changes no plaquette)."""
    if not mask:
        return np.full(D.size, 2, np.uint8)
    return np.bitwise_count(D & np.uint64(mask))


# the `_Box` of a spec, kept for the _BOX_CACHE boxes used last; the spec's
# key holds the frame, so two frames of one side are two boxes
_box = functools.lru_cache(maxsize=_BOX_CACHE)(_Box)


def _involutions(spec):
    """The generators of the box's symmetry group as (sigma, mask): the
    code z goes to the code with bit sigma[b] set where bit b of z is, XOR
    mask. Periodic boxes: the flips of every row and of all columns but the
    last; each changes two spins of every plaquette it meets, and all rows
    together flip what all columns do. Fixed boxes of side L > 1: each axis
    reflection that leaves the frame's defects (`_plaquettes` of the frame)
    unchanged; a `plus` box keeps both, and at L = 1 a reflection is the
    identity. The defects of code z are the frame's XOR the masks of its
    minus sites, and a reflection rho of the plaquette grid carries site
    b's mask to that of site sigma[b]; so D(g(z)) = rho D(z) for every z
    exactly when rho fixes the frame's defects, and then g permutes the
    defect counts and each site's k, and commutes with Q."""
    L = spec.side
    t = np.arange(L * L).reshape(L, L)
    if spec.is_periodic:
        lines = list(t) + list(t.T[:-1])
        return [(t.ravel(), sum(1 << int(b) for b in line)) for line in lines]
    F = _plaquettes(spec, spec.frame_template())
    return [(np.flip(t, axis).ravel(), 0) for axis in (0, 1)
            if L > 1 and np.array_equal(np.flip(F, axis), F)]


@dataclass
class Symmetry:
    """The group H of commuting involutions of the codes that
    `_involutions` generates, all commuting with Q.

    act[h, z] is element h applied to code z; h is the product of the
    generators whose bit is set in h, so act[0] is the identity and every
    element is its own inverse. Each code z lies in the orbit
    reps[orbit[z]], whose least code is its representative, and
    act[carrier[z], reps[orbit[z]]] == z. A sector is a character
    chi(h) = (-1)^popcount(c & h) whose span is nonzero: characters holds
    chi's values on the elements, and columns the orbits on whose
    stabilizer chi is 1. Its span has a unit vector per kept orbit,
    chi(carrier[z]) / sqrt(orbit size) at each code z of the orbit; the N
    of all sectors are orthonormal, S keeps each span, and no table holds
    them. The first sector is the trivial character's, with every orbit.
    """

    act: np.ndarray
    reps: np.ndarray
    orbit: np.ndarray
    carrier: np.ndarray
    columns: tuple
    characters: tuple

    @classmethod
    def of(cls, spec):
        """The table of a box, from its geometry alone: a frame that breaks
        a reflection leaves it out, and a box with no generator gets the
        trivial group."""
        N = 1 << spec.n_sites
        z = np.arange(N, dtype=np.int64)
        act = z[None, :]
        for sigma, mask in _involutions(spec):
            g = np.full(N, mask, np.int64)
            for b, s in enumerate(sigma):
                g ^= (z >> b & 1) << int(s)
            act = np.concatenate([act, act[:, g]])
        rep_code, carrier = act.min(axis=0), act.argmin(axis=0)
        reps = np.unique(rep_code)
        orbit = np.searchsorted(reps, rep_code)
        h = np.arange(act.shape[0])
        chi = np.where(np.bitwise_count(h[:, None] & h) % 2, -1, 1)
        # kept[c, o]: no h with chi_c(h) = -1 fixes orbit o's representative
        kept = ~((chi < 0) @ (act[:, reps] == reps))
        sectors = kept.any(axis=1)
        columns, characters = tuple(np.nonzero(k)[0] for k in kept[sectors]), tuple(chi[sectors])
        _frozen(act, reps, orbit, carrier, *columns, *characters)
        return cls(act, reps, orbit, carrier, columns, characters)


def build_generator(spec, model):
    """The jump-rate generator over every configuration, on the box's
    table (`_box`); only Q's diagonal, minus the row sums, is formed here.
    A box past lattice.ENUM_BUDGET raises on every call, as `_box` caches
    no table it fails to build."""
    box = _box(spec)
    return SparseGenerator(box, model, -_row_sums(box, model.table))


def _row_sums(box, values):
    """Per row of Q's pattern, the sum of values[k] over its entries off
    the diagonal, in column order as a CSR row sum adds them, taken
    _ROW_BLOCK rows at a time, so no N x n array of values is formed."""
    n, N = box.spec.n_sites, box.counts.size
    sums = np.empty(N)
    for i in range(0, N, _ROW_BLOCK):
        kc = box.kc[box.indptr[i]:box.indptr[min(i + _ROW_BLOCK, N)]]
        v = values[kc[kc != _DIAG]]
        sums[i:i + _ROW_BLOCK] = np.add.reduceat(v, np.arange(0, v.size, n))
    return sums


def _on_pattern(box, values, diag):
    """CSR matrix on the box's pattern with values[k] off the diagonal and
    diag on it. An entry that is exactly 0 (a rate that underflows, at
    large beta) is dropped, as a sparse sum drops it."""
    import scipy.sparse as sparse

    data = np.append(values, 0.0)[box.kc]
    data[box.diag] = diag
    M = sparse.csr_matrix((data, box.indices, box.indptr), shape=(box.counts.size,) * 2)
    if not data.all():
        M = M.copy()  # with index arrays of its own, which the drop rewrites
        M.eliminate_zeros()
    return M


def stationary_distribution(G):
    """Reversible measure: weight exp(-beta * defect count), normalized."""
    beta = G.model.beta
    w = np.exp(-beta * (G.counts - G.counts.min()).astype(float))
    return w / w.sum()


def ground_mass(G):
    """Stationary probability of the zero-defect states."""
    return float(G.pi[G.counts == 0].sum())


def spectral_gap(G, dense_threshold=DENSE_THRESHOLD):
    """Smallest positive eigenvalue of -Q (via the symmetric conjugate).

    Up to min(dense_threshold, DENSE_THRESHOLD) states it is read off the
    cached dense eigendecomposition. Above that it is the smallest
    eigenvalue of -S under the constraint x . sqrt(pi) = 0, which deflates
    the stationary mode, found by `_lobpcg` (block size 1, Jacobi
    preconditioner 1/diag(-S)) to residual _GAP_TOL.

    The start is the slow mode (m - pi.m) sqrt(pi), m = popcount(i) / n
    the minus fraction, normalized, plus 1e-3 of a fixed-seed Gaussian
    vector, normalized, so the result is the same on every call. The
    minus fraction relaxes slowly, so the start lies close to the bottom
    of the spectrum and the step count falls (581 -> 112 at L=4 `plus`,
    beta 0.25). The random part stays: -S and the preconditioner commute
    with the box's symmetries, so a start inside some symmetry sectors
    keeps every iterate in them. The reflections of a framed box keep the
    minus fraction, so its slow mode lies in the trivial sector, and no
    rule puts the gap there: the periodic L=4 gap, for one, lies outside
    it. The residual is checked again on the returned vector; above
    _GAP_TOL it raises ConvergenceError.

    At large beta the iteration breaks down: a state whose exit rate
    underflows to 0 leaves no Jacobi preconditioner, and pi concentrated
    on one state leaves no start. A division by zero, an invalid value
    or an overflow there, and a failed small `eigh` raise ConvergenceError,
    with no RuntimeWarning, and so does a gap from either route that is
    not positive, lost to rounding (`_positive`).
    """
    if G.n_states <= min(dense_threshold, DENSE_THRESHOLD):
        return _positive(float(-G.eigen[0][-2]), "dense gap", G.model.beta)
    S = G.S
    beta = G.model.beta
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            y = np.sqrt(G.pi)
            m = np.bitwise_count(np.arange(G.n_states)) / G.spec.n_sites
            x0 = (m - G.pi @ m) * y
            g = np.random.default_rng(0).standard_normal(G.n_states)
            x0 = x0 / np.linalg.norm(x0) + 1e-3 / np.linalg.norm(g) * g
            del m, g
            lam, x, steps = _lobpcg(S, y / np.linalg.norm(y), x0)
            r = S @ x
            r += lam * x  # minus the residual of -S
            residual = float(np.linalg.norm(r) / np.linalg.norm(x))
    except (FloatingPointError, np.linalg.LinAlgError) as err:
        raise ConvergenceError(f"LOBPCG gap broke down at beta {beta!r}: {err}") from None
    if not residual <= _GAP_TOL:
        raise ConvergenceError(f"LOBPCG gap did not converge: residual {residual:.3g}"
                               f" after {steps} iterations, above {_GAP_TOL:g}")
    return _positive(lam, "LOBPCG gap", beta)


def _lobpcg(S, y, x):
    """(lam, x, steps): the smallest eigenpair of A = -S, S symmetric, on
    the complement of the unit vector y, an eigenvector of S, by locally
    optimal preconditioned conjugate gradients (LOBPCG, Knyazev 2001) at
    block size 1 from x. A is never formed: each product with S is negated
    in place.

    Each step is a Rayleigh-Ritz on span{x, w, p}: w is the residual under
    the Jacobi preconditioner 1/diag(A), projected onto the complement of
    y, and p is the previous step's direction, dropped when the Gram
    matrix of the three, scaled to unit diagonal, is near singular. The
    Gram matrix and the projected matrix H = basis^T A basis are filled in
    one pass over i <= j, at most six dot products each, H from its upper
    triangle (A is symmetric); the Ritz vector comes out of them with unit
    norm, and x, A x, p and A p are updated in place, so a step costs one
    product with S and no normalizing pass. It stops at residual _GAP_TOL
    or after _GAP_MAXITER steps.
    """
    def times_a(v):
        Av = S @ v
        return np.negative(Av, out=Av)

    d = -1.0 / S.diagonal()
    x = x - (y @ x) * y
    x /= np.linalg.norm(x)
    Ax = times_a(x)
    lam = float(x @ Ax)
    p = Ap = None
    gram, H = np.empty((3, 3)), np.empty((3, 3))
    for step in range(_GAP_MAXITER):
        w = Ax - lam * x  # the residual
        if np.linalg.norm(w) <= _GAP_TOL:
            break
        w *= d
        w -= (y @ w) * y
        Aw = times_a(w)
        basis, images = (x, w, p), (Ax, Aw, Ap)
        m = 2 if p is None else 3
        for i in range(m):
            for j in range(i, m):
                gram[i, j] = gram[j, i] = basis[i] @ basis[j]
                H[i, j] = H[j, i] = basis[i] @ images[j]
        while True:
            s = 1.0 / np.sqrt(np.diag(gram)[:m])
            g, T = np.linalg.eigh(s[:, None] * gram[:m, :m] * s)
            if g[0] > _GRAM_FLOOR * g[-1] or m == 2:
                break
            m = 2
        T *= s[:, None] / np.sqrt(g)  # coefficients of an orthonormal basis of the span
        theta, C = np.linalg.eigh(T.T @ H[:m, :m] @ T)
        c = T @ C[:, 0]
        w *= c[1]
        Aw *= c[1]
        if m == 3:
            p *= c[2]
            p += w
            Ap *= c[2]
            Ap += Aw
        else:
            p, Ap = w, Aw
        x *= c[0]
        x += p
        Ax *= c[0]
        Ax += Ap
        lam = float(theta[0])
    else:
        step = _GAP_MAXITER
    return lam, x, step


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

    S = G.S[A][:, A].toarray()
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
    """Smallest Dirichlet/variance ratio over functions supported on idx.

    The ratio is the pencil (-diag(p) Q_AA, diag(p) - p p^T) with p = pi_A.
    Reversibility turns diag(p)^-1/2 into a congruence to (-S_AA, I - v v^T)
    with v = sqrt(p) and |v|^2 = pi(A) < 1. (I - v v^T)^-1/2 = I + c v v^T
    with r = sqrt(1 - pi(A)) and c = 1/(r (1 + r)), so the value is the
    smallest eigenvalue of the standard problem
    M = (I + c v v^T)(-S_AA)(I + c v v^T) = -S_AA + u v^T + v u^T,
    u = c (-S_AA v) + (c^2 / 2)(v . -S_AA v) v (`_corrected_bottom`).
    Conditioning: I + c v v^T has norm 1/r, so M carries the rounding of
    -S_AA amplified by up to 1/(1 - pi(A)), the same factor as the pencil's
    B^-1.

    When idx is a union of orbits of `G.symmetry` (every level set is: the
    counts are invariant), -S_AA keeps each sector, so M is solved one
    sector at a time, on the rows and columns of the sector's block
    (`sector_blocks`) whose orbits lie in A. v is constant on orbits, so
    v and u lie in the trivial sector, whose block alone carries the
    correction, with v = sqrt(|O| pi(rep_o)) on its orbit o.
    Any other set is one `eigh` of the whole of M.
    """
    N = G.n_states
    if idx.size == N:
        return spectral_gap(G)
    if idx.size > DENSE_THRESHOLD:
        raise BudgetExceededError(
            f"subset eigenproblem limited to {DENSE_THRESHOLD} states"
        )
    inside = np.zeros(N, dtype=bool)
    inside[idx] = True
    if N > DENSE_THRESHOLD or not inside[G.symmetry.act[:, idx]].all():
        return _corrected_bottom(-G.S[idx][:, idx].toarray(), np.sqrt(G.pi[idx]))
    sym = G.symmetry
    blocks = G.sector_blocks
    keep = inside[sym.reps]  # the trivial sector keeps every orbit
    v = np.sqrt(np.bincount(sym.orbit) * G.pi[sym.reps])[keep]
    lam = _corrected_bottom(-blocks[0][np.ix_(keep, keep)], v)
    for cols, block in zip(sym.columns[1:], blocks[1:]):
        keep = inside[sym.reps[cols]]
        if keep.any():
            lam = min(lam, _bottom(-block[np.ix_(keep, keep)]))
    return lam


def _corrected_bottom(M, v):
    """Smallest eigenvalue of M + u v^T + v u^T for M = -S_AA and
    v = sqrt(pi_A) in one orthonormal basis (`_lambda_of_subset`); M is
    overwritten."""
    r = math.sqrt(1.0 - float(v @ v))
    c = 1.0 / (r * (1.0 + r))
    Mv = M @ v
    u = c * Mv + (0.5 * c * c * float(v @ Mv)) * v
    M += np.outer(u, v)
    M += np.outer(v, u)
    return _bottom(M)


def _bottom(M):
    """Smallest eigenvalue of the symmetric M."""
    import scipy.linalg

    return float(scipy.linalg.eigh(M, eigvals_only=True, subset_by_index=[0, 0])[0])


def spectral_profile(G, k):
    """lambda(S_k) over the level set of at least k defects; k <= 0 gives
    the whole box, whose value is the gap."""
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
    """Entrywise lower bound A on the representative rows of exp(tQ),
    A[r] on the row of start G.symmetry.reps[r], row sums at least
    1 - _TV_TAIL.

    Scaling and squaring: with s = max(0, ceil(log2(q t / 8))) and
    h = t / 2^s, exp(hQ) = sum_k Poisson(qh)[k] P^k with P = I + Q/q is
    cut once the remaining mass is below _TV_TAIL / 2^s (about 30 terms),
    and the result is squared s times. Every factor is nonnegative and
    below the exact kernel, and a product's row deficit is at most the sum
    of its factors' deficits, so the deficit of A is at most _TV_TAIL.

    Only the representative rows are formed. The symmetries commute with
    Q, so the kernel K of every factor has K[h(x), z] = K[x, h(z)] for
    each h in the group, and a squaring A <- A K reads the full K as the
    representative rows gathered: K[x, z] = A[orbit[x], act[carrier[x], z]].
    """
    import scipy.sparse as sparse

    sym = G.symmetry
    Q = G.Q
    N, R = Q.shape[0], sym.reps.size
    W = np.zeros((N, R))  # the transposed rows, so each term is one CSR product
    W[sym.reps, np.arange(R)] = 1.0
    q = float(np.max(-G.diagonal))
    s = max(0, math.ceil(math.log2(q * t / 8.0)))
    w = _poisson_weights(q * t / 2**s, _TV_TAIL / 2**s)
    PT = (sparse.eye(N, format="csr") + Q / q).T.tocsr()
    A = w[0] * W
    for k in range(1, w.size):
        W = PT @ W
        A += w[k] * W
    A = np.ascontiguousarray(A.T)
    if s:
        gather = sym.orbit[:, None] * N + sym.act[sym.carrier]
        for _ in range(s):
            A = A @ A.ravel()[gather]
    return A


def _tv_all_starts(G, t):
    """Worst-start total variation distance from stationarity at time t,
    an upper bound within _TV_TAIL of the true distance.

    A = `_kernel_below(G, t)` is below P_t entrywise on the representative
    rows, so for each representative start sum|P_t - pi| <= sum|A - pi| +
    (1 - sum A). The largest row of half that is returned: the distance is
    the same from every start of an orbit. The slack over the true
    distance is at most the row deficit, which is at most _TV_TAIL. At a
    huge t the squarings double row sums a rounding above 1 into inf; a
    distance that is not finite raises ConvergenceError, with no warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        A = _kernel_below(G, t)
        rows = np.abs(A - G.pi[None, :]).sum(axis=1) + (1.0 - A.sum(axis=1))
    tv = 0.5 * float(np.max(rows))
    if not math.isfinite(tv):
        raise ConvergenceError(f"the TV certificate at t {t:.3g} is {tv}")
    return tv


def _tv_spectral_reaches(G, t, eps):
    """Whether the worst-start total variation at time t, read off the
    cached eigenpairs with _TV_TAIL added, is at or above eps.

    P_t - Pi = D^-1/2 V' e^{tw'} V'^T D^1/2, where ' drops the stationary
    mode (the top eigenvalue, 0). _TV_TAIL is added so that the read is
    at or above the certificate `_tv_all_starts`, which exceeds the true
    distance by at most _TV_TAIL.

    Not every row of P_t is formed. A start's row distance and bound are
    those of its orbit's representative (G.symmetry), so only the
    representatives whose `_tv_chi2_bound`, plus _TV_TAIL and _TV_MARGIN
    (room for rounding in the rows), reaches eps can reach it. The rows
    are formed in decreasing bound, _TV_BLOCK at a time, while a block
    starts with such a representative, and the answer is yes at the first
    row at or above eps. The blocks are cut from the order of all
    representatives whatever eps is, so a row is formed by the same
    product at every eps and reads the same to the last bit.
    """
    _, left, right, w = G.tv_factors
    e = np.exp(t * w)
    bound = _tv_chi2_bound(G, t) + _TV_TAIL + _TV_MARGIN
    order = np.argsort(-bound)
    for j in range(0, np.count_nonzero(bound >= eps), _TV_BLOCK):
        rows = np.abs((left[order[j:j + _TV_BLOCK]] * e) @ right).sum(axis=1)
        if 0.5 * float(np.max(rows)) + _TV_TAIL >= eps:
            return True
    return False


def _tv_chi2_bound(G, t):
    """Per representative start x (G.symmetry.reps), half its chi^2
    distance from stationarity at time t,
    ||h_t^x - 1||_{2,pi} / 2 = sqrt(sum_k e^{2t w_k} V_xk^2) / (2 sqrt(pi_x))
    with h_t^x = P_t(x, .) / pi. By Cauchy-Schwarz it is at or above x's
    total variation distance (the l2 bound, as in Levin, Peres and
    Wilmer), and it costs one matrix-vector product for all starts."""
    U2, _, _, w = G.tv_factors
    return 0.5 * np.sqrt(U2 @ np.exp(2.0 * t * w)) / np.sqrt(G.pi[G.symmetry.reps])


def _first_time_below(reaches, lo, t, eps, floor, ceiling):
    """Double t until reaches(t), whether the distance is at or above eps,
    is false, then bisect [lo, t] to relative width _TV_RTOL; returns the
    upper endpoint, where the distance is below eps.

    A time below `floor` counts as reaching eps without a call: the caller
    passes a floor under which the distance is known to be at or above
    eps (`tv_mixing_time`'s relaxation bound), so the brackets, and the
    time returned, are those of the search that asked there too. Past
    `ceiling` the caller knows the distance is below eps, so a read still
    at or above eps there has lost the time to rounding: the doubling
    stops there with ConvergenceError.
    """
    def below(t):
        return t >= floor and not reaches(t)

    for _ in range(200):
        if below(t):
            break
        if t > ceiling:
            raise ConvergenceError(f"mixing bracket not found: the distance stays at or"
                                   f" above eps {eps!r} past t* {ceiling:.3g}, where the"
                                   f" l2 bound puts it below")
        lo = t
        t *= 2.0
    else:
        raise ConvergenceError(f"mixing bracket not found: the distance stays at or"
                               f" above eps {eps!r} through 200 doublings")
    hi = t
    while hi - lo > _TV_RTOL * hi:
        mid = 0.5 * (lo + hi)
        if below(mid):
            hi = mid
        else:
            lo = mid
    return hi


def tv_mixing_time(G, eps=0.25):
    """Smallest time with worst-start TV below eps, to 1% relative precision.

    Doubles an upper bracket from 1/q, then bisects. A step needs only
    whether some start is at or above eps, and `_tv_spectral_reaches`
    answers that off the spectral representation, forming only the rows
    whose chi^2 bound reaches eps. The endpoint is then certified by
    `_tv_all_starts` (truncation slack included). Should the certificate
    fail, the search goes on above that endpoint with the certificate
    alone, so the time returned is always certified below eps.
    Above DENSE_THRESHOLD states it raises BudgetExceededError before the
    gap is solved for. At large beta the gap (`spectral_gap`) rounds to 0
    or below, or to a few ulps above it, and the distance read off the
    eigenpairs never falls: a gap that is not positive, a stationary mass
    that underflows to 0, no time below eps by the ceiling t* below or in
    200 doublings, or a certificate that is not finite raises
    ConvergenceError naming beta.
    The distance read carries _TV_TAIL, so eps must exceed it
    (ValueError otherwise).

    Neither search reads the distance at a time below the floor
    (1 - 1e-9) ln(1/(2 eps)) / gap (0 for eps >= 1/2):
    a reversible chain has d(t) >= e^{-t gap} / 2 (Levin, Peres and
    Wilmer, the t_rel ln(1/(2 eps)) lower bound on the mixing time), so
    there the distance is at or above eps, and both reads would say so.
    Neither doubles past the ceiling
    t* = (1 + 1e-9) ln(1/(2 (eps - _TV_TAIL) sqrt(pi_min))) / gap: by the
    l2 bound d(t) <= e^{-t gap} / (2 sqrt(pi_min)) (`_tv_chi2_bound`) the
    distance is below eps - _TV_TAIL there, so a read at or above eps is
    rounding. The factors 1 -+ 1e-9 leave room for rounding in the gap.
    A time returned is the one a search without floor or ceiling returns.
    The distance at t = 0 is 1 - pi_min, read with _TV_TAIL as the
    spectral read carries it; where that is below eps (only possible at
    eps > 1/2) the time is 0.0, and neither search runs.
    """
    if not eps > _TV_TAIL:
        raise ValueError(f"eps must exceed the certificate's tail {_TV_TAIL:g}, got {eps!r}")
    if G.n_states > DENSE_THRESHOLD:
        raise BudgetExceededError(f"mixing time limited to {DENSE_THRESHOLD} states")
    q = float(np.max(-G.diagonal))  # >= 1/2: a flip or its reverse has k >= 2
    gap = spectral_gap(G)
    if 1.0 - float(np.min(G.pi)) + _TV_TAIL < eps:
        return 0.0
    beta = G.model.beta
    floor = 0.0
    if eps < 0.5:
        floor = (1.0 - 1e-9) * math.log(1.0 / (2.0 * eps)) / gap
    try:
        _check_pi(G, "the distance")
        l2 = 2.0 * (eps - _TV_TAIL) * math.sqrt(float(np.min(G.pi)))
        ceiling = (1.0 + 1e-9) * math.log(1.0 / l2) / gap
        hi = _first_time_below(lambda t: _tv_spectral_reaches(G, t, eps), 0.0, 1.0 / q, eps,
                               floor, ceiling)
        if not _tv_all_starts(G, hi) < eps:
            hi = _first_time_below(lambda t: _tv_all_starts(G, t) >= eps, hi, 2.0 * hi, eps,
                                   floor, ceiling)
    except ConvergenceError as err:
        raise ConvergenceError(f"{err}, at beta {beta!r} with gap {gap:.3g}") from None
    return hi


@dataclass
class ProfileBound:
    value: float
    segments: list  # (x_lo, x_hi, k, lambda_k), from 4 * min(pi) up to 16


def profile_mixing_bound(G):
    """Mixing-time upper bound from the level-set spectral staircase.

    Integrates 2/(x * lambda(S_k(x))) for x from 4*min(pi) to 16, where
    k(x) = min{k : pi(plus) * exp(-beta k) <= x}; every state of mass
    <= x then has at least k(x) defects, so any set of mass <= x sits
    inside S_k(x) and the staircase under-estimates the true profile.
    The breakpoints x_k = pi(plus) exp(-beta k), k >= 0, cut the range
    into segments, each with k the number of breakpoints above its lower
    end; as x >= 4 * min(pi), k never exceeds the largest defect count.
    A value lambda(S_k) that is not positive raises ConvergenceError.
    """
    _check_pi(G, "the profile bound")
    pi = G.pi
    beta = G.model.beta
    a = 4.0 * float(pi.min())
    b = 16.0
    xs = [float(pi[0]) * math.exp(-beta * k) for k in range(int(G.counts.max()) + 1)]
    grid = sorted({a, b, *(x for x in xs if a < x < b)})
    uniq = np.unique(G.counts)
    steps = [(lo, hi, sum(x > lo for x in xs)) for lo, hi in zip(grid, grid[1:])]
    # S_k is S_key for the least defect count key >= k, the whole box for
    # k = 0. Each key is solved once: the proper level sets from the largest
    # down, then the gap, so a set past the dense budget raises before any
    # solve is spent.
    key_of = {k: 0 if k == 0 else int(uniq[np.searchsorted(uniq, k)]) for _, _, k in steps}
    lam = {key: _positive(spectral_profile(G, key), f"lambda(S_{key})", beta)
           for key in sorted(set(key_of.values()), key=lambda key: (key == 0, key))}
    segments = [(lo, hi, k, lam[key_of[k]]) for lo, hi, k in steps]
    total = 0.0
    for lo, hi, _, lam_k in segments:
        total += (2.0 / lam_k) * math.log(hi / lo)
    return ProfileBound(value=total, segments=segments)


def _g_profile(x):
    """The ramp, elementwise over the array x of minus fractions."""
    xm = np.where(x <= 0.5, x, 1.0 - x)
    return np.where(xm <= 0.25, 0.0, np.where(xm < 1.0 / 3.0, 12.0 * xm - 3.0, 1.0))


def test_function_plus(cfg):
    """Slow mode witness: the minus fraction pushed through a ramp that is
    0 below a quarter, 1 above a third, linear between, and symmetric."""
    if cfg.spec.bc != PLUS:
        raise ValueError("this test function is for the all-plus boundary")
    return float(_g_profile(cfg.code.bit_count() / cfg.spec.n_sites))


def test_function_plus_values(G):
    """test_function_plus over all states; state i has popcount(i) minus spins."""
    if G.spec.bc != PLUS:
        raise ValueError("this test function is for the all-plus boundary")
    return _g_profile(np.bitwise_count(np.arange(G.n_states)) / G.spec.n_sites)


def dump_generator_text(G):
    """Coordinate text dump 'i j rate', one entry per line, diagonal included."""
    coo = G.Q.tocoo()
    lines = [f"{i} {j} {float(v)!r}" for i, j, v in zip(coo.row, coo.col, coo.data)]
    return "\n".join(lines) + "\n"
