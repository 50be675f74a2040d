"""First-principles oracle values for the small-box tests.

Everything here is computed from raw spin arrays and dense linear
algebra, independently of the library, so the test constants frozen
from this script's output cross-check the package rather than echo it.

The keys ending in `_mp` are 30-digit references: the generator is
built in mpmath at 40 digits, split into the sectors of the box's
reflections (`plus`) or whole-line flips (torus), and each sector block
is solved by mpmath `eigsy`. They are printed as strings of 30
significant digits. The whole run takes 3-4 minutes, most of it in
`eigsy` on the 168-state `plus` blocks.

Run:  python3 tests/oracles/gen_small_oracles.py > tests/oracles/frozen.txt
"""

import itertools
import math

import mpmath
import numpy as np
import scipy.linalg


def plaq_plus(s):
    """Plaquette signs on the (L+1)^2 grid, all-plus frame."""
    L = s.shape[0]
    p = np.ones((L + 2, L + 2), dtype=np.int64)
    p[1 : L + 1, 1 : L + 1] = s
    return p[:-1, :-1] * p[1:, :-1] * p[:-1, 1:] * p[1:, 1:]


def plaq_torus(s):
    return s * np.roll(s, -1, 0) * np.roll(s, -1, 1) * np.roll(np.roll(s, -1, 0), -1, 1)


def all_states(L):
    for bits in itertools.product((1, -1), repeat=L * L):
        yield np.array(bits, dtype=np.int64).reshape(L, L)


def defect_hist(L, plaq):
    hist = {}
    for s in all_states(L):
        n = int((plaq(s) == -1).sum())
        hist[n] = hist.get(n, 0) + 1
    return hist


def generator(L, beta, plaq):
    """Dense Glauber generator with Metropolis rates, and the counts."""
    states = [s for s in all_states(L)]
    index = {s.tobytes(): i for i, s in enumerate(states)}
    counts = np.array([int((plaq(s) == -1).sum()) for s in states])
    N = len(states)
    Q = np.zeros((N, N))
    for i, s in enumerate(states):
        for a in range(L):
            for b in range(L):
                t = s.copy()
                t[a, b] = -t[a, b]
                j = index[t.tobytes()]
                dn = counts[j] - counts[i]
                Q[i, j] = min(1.0, math.exp(-beta * dn))
        Q[i, i] = -Q[i].sum()
    return Q, counts


def gap_of(Q, counts, beta):
    pi = np.exp(-beta * counts.astype(float))
    pi /= pi.sum()
    r = np.sqrt(pi)
    A = (r[:, None] * Q) / r[None, :]
    w = np.linalg.eigvalsh(0.5 * (A + A.T))
    return -w[-2]


def tv_mixing(Q, counts, beta, eps=0.25):
    pi = np.exp(-beta * counts.astype(float))
    pi /= pi.sum()

    def tv(t):
        P = scipy.linalg.expm(t * Q)
        return 0.5 * np.abs(P - pi[None, :]).sum(axis=1).max()

    lo, hi = 0.0, 1.0
    while tv(hi) > eps:
        hi *= 2
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if tv(mid) > eps:
            lo = mid
        else:
            hi = mid
    return hi


def group_plus(L):
    """The axis reflections of a square box with a symmetric frame, as
    (h, map of spin arrays): bit 0 of h reverses the rows, bit 1 the
    columns."""
    maps = (lambda s: s, lambda s: s[::-1], lambda s: s[:, ::-1], lambda s: s[::-1, ::-1])
    return list(enumerate(maps))


def group_torus(L):
    """The flips of whole rows and of all columns but the last, which with
    the rows give every column flip: the sign pattern u_a v_b, one bit of
    h per generator."""
    elements = []
    for h in range(1 << (2 * L - 1)):
        u = np.array([-1 if h >> a & 1 else 1 for a in range(L)])
        v = np.array([-1 if h >> (L + b) & 1 else 1 for b in range(L - 1)] + [1])
        elements.append((h, lambda s, m=np.outer(u, v): s * m))
    return elements


def mp_sectors(L, beta, plaq, group):
    """(blocks, v): the blocks b_o^T S b_o' of the symmetrized generator
    S = D^1/2 Q D^-1/2 at mpmath precision, one per character
    chi(h) = (-1)^popcount(c & h) of `group` whose span is nonzero, each
    with the defect count of its orbits' states; and, for the trivial
    sector, v_o = b_o . sqrt(pi).

    b_o is chi(h)/sqrt|O| at h(x_o), x_o the orbit's first state; an orbit
    is kept when chi is 1 on the stabilizer of x_o."""
    states = list(all_states(L))
    index = {s.tobytes(): i for i, s in enumerate(states)}
    counts = [int((plaq(s) == -1).sum()) for s in states]
    N = len(states)
    weight = [mpmath.exp(-beta * c) for c in counts]
    Z = mpmath.fsum(weight)
    sqrt_pi = [mpmath.sqrt(x / Z) for x in weight]
    S = []  # (i, j, S_ij), S_ij = sqrt(pi_i / pi_j) q_ij
    for i, s in enumerate(states):
        diag = mpmath.mpf(0)
        for a in range(L):
            for b in range(L):
                t = s.copy()
                t[a, b] = -t[a, b]
                j = index[t.tobytes()]
                q = min(mpmath.mpf(1), mpmath.exp(-beta * (counts[j] - counts[i])))
                diag -= q
                S.append((i, j, sqrt_pi[i] / sqrt_pi[j] * q))
        S.append((i, i, diag))
    image = {h: [index[g(s).tobytes()] for s in states] for h, g in group}
    first = sorted({min(image[h][i] for h in image) for i in range(N)})
    blocks = []
    for c in image:
        def chi(h):
            return -1 if bin(c & h).count("1") % 2 else 1
        kept = [x for x in first
                if all(chi(h) == 1 for h in image if image[h][x] == x)]
        if not kept:
            continue
        b = {}  # state -> (column, coefficient)
        for col, x in enumerate(kept):
            orbit = {image[h][x]: h for h in image}
            for z, h in orbit.items():
                b[z] = (col, chi(h) / mpmath.sqrt(len(orbit)))
        M = mpmath.zeros(len(kept))
        for i, j, value in S:
            if i in b and j in b:
                M[b[i][0], b[j][0]] += b[i][1] * value * b[j][1]
        blocks.append((M, [counts[x] for x in kept]))
        if c == 0:
            v = [mpmath.mpf(0)] * len(kept)
            for z, (col, coef) in b.items():
                v[col] += coef * sqrt_pi[z]
    return blocks, v


def mp_gap(blocks):
    """The smallest positive eigenvalue of -S: every sector's eigenvalues
    of -M, less the trivial sector's stationary 0."""
    values = []
    for M, _ in blocks:
        values += sorted(mpmath.eigsy(-M, eigvals_only=True))
    values.remove(min(values, key=abs))
    return min(values)


def mp_lambda_of_level(blocks, v, k):
    """lambda(S_k), the smallest Dirichlet/variance ratio over functions on
    the states with at least k defects. With v = sqrt(pi) on the set, the
    pencil (-S_AA, I - v v^T) is congruent under (I - v v^T)^-1/2 =
    I + c v v^T, c = 1/(r (1 + r)), r = sqrt(1 - |v|^2), to the standard
    problem A + u v^T + v u^T, A = -S_AA, u = c Av + (c^2/2)(v . Av) v; v lies in
    the trivial sector, so the other sectors need no correction."""
    values = []
    for n, (M, counts) in enumerate(blocks):
        keep = [a for a, c in enumerate(counts) if c >= k]
        if not keep:
            continue
        A = mpmath.matrix([[-M[a, b] for b in keep] for a in keep])
        if n == 0:
            w = mpmath.matrix([v[a] for a in keep])
            r = mpmath.sqrt(1 - (w.T * w)[0])
            c = 1 / (r * (1 + r))
            Aw = A * w
            u = c * Aw + (c * c / 2 * (w.T * Aw)[0]) * w
            A = A + u * w.T + w * u.T
        values.append(min(mpmath.eigsy(A, eigvals_only=True)))
    return min(values)


def srw_band(L, beta):
    """Non-return probability of the idealized weight walk, times L.

    Walk on {1, ..., L-1} over line weights, hop rate 2 both ways,
    uniform killing, absorbed at 1 (same ground) and L-1 (other
    ground); started at 2, i.e. right after leaving the boundary.
    """
    kill = 8 * math.exp(-2 * beta) + (L * L - 12) * math.exp(-4 * beta)
    n = L - 3  # interior states 2 .. L-2
    if n <= 0:
        return float(L)  # L = 3: one step away from the far end
    A = np.zeros((n, n))
    b = np.zeros(n)
    for k in range(n):
        A[k, k] = 4.0 + kill
        if k > 0:
            A[k, k - 1] = -2.0
        if k + 1 < n:
            A[k, k + 1] = -2.0
    b[-1] = 2.0  # step from L-2 into the absorbing far end
    p = np.linalg.solve(A, b)
    return p[0] * L


def main():
    out = {}

    # enumeration facts, plus boundary
    out["hist_L2_plus"] = defect_hist(2, plaq_plus)
    out["hist_L3_plus"] = defect_hist(3, plaq_plus)
    h4 = defect_hist(4, plaq_plus)
    out["hist_L4_plus_defects2"] = h4.get(2, 0)
    out["hist_L4_plus_total"] = sum(h4.values())
    out["hist_L4_plus"] = h4

    # enumeration facts, torus
    out["torus2_ground"] = defect_hist(2, plaq_torus).get(0)
    h3t = defect_hist(3, plaq_torus)
    out["torus3_ground"] = h3t.get(0)
    out["hist_torus3"] = h3t
    out["torus4_ground"] = defect_hist(4, plaq_torus).get(0)

    # spectral constants
    Q, c = generator(1, 1.0, plaq_plus)
    out["gap_L1_beta1"] = gap_of(Q, c, 1.0)
    for beta in (0.0, 1.0, 2.0):
        Q, c = generator(2, beta, plaq_plus)
        out[f"gap_L2_beta{beta:g}"] = gap_of(Q, c, beta)
    Q3, c3 = generator(3, 1.0, plaq_plus)
    out["gap_L3_beta1"] = gap_of(Q3, c3, 1.0)

    # mixing time, L=2 beta=1
    Q, c = generator(2, 1.0, plaq_plus)
    out["tmix_L2_beta1"] = tv_mixing(Q, c, 1.0)

    # ground-state mass and its decay rate, side 3, both boundaries
    for name, plaq in (("plus", plaq_plus), ("torus", plaq_torus)):
        masses = {}
        for beta in (2.0, 3.0):
            counts = np.array([int((plaq(s) == -1).sum()) for s in all_states(3)])
            pi = np.exp(-beta * counts.astype(float))
            pi /= pi.sum()
            masses[beta] = pi[counts == 0].sum()
        out[f"pi_ground_L3_{name}_beta2"] = masses[2.0]
        out[f"pi_ground_L3_{name}_beta3"] = masses[3.0]
        out[f"deficit_ratio_L3_{name}"] = (1 - masses[3.0]) / (1 - masses[2.0])

    # idealized excursion walk, far-ground probability times L
    for L in (3, 4, 5):
        out[f"srw_band_L{L}_beta3"] = srw_band(L, 3.0)

    # 30-digit gaps and the level value flow --size 3 prints (level 1)
    mpmath.mp.dps = 40
    for name, plaq, group, betas in (("plus", plaq_plus, group_plus, (0.5, 1, 2, 3, 6)),
                                     ("torus", plaq_torus, group_torus, (1, 3))):
        for beta in betas:
            blocks, v = mp_sectors(3, mpmath.mpf(beta), plaq, group(3))
            out[f"gap_L3_{name}_beta{beta:g}_mp"] = mpmath.nstr(mp_gap(blocks), 30)
            if (name, beta) == ("plus", 1):
                out["lambda_S1_L3_plus_beta1_mp"] = mpmath.nstr(
                    mp_lambda_of_level(blocks, v, 1), 30)

    for k in sorted(out):
        print(f"{k} = {out[k]!r}")


if __name__ == "__main__":
    main()
