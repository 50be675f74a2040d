"""Canonical unwinding paths and flow-cost (congestion) bounds.

A path from a configuration toward all-plus is built from rectangle
segments: given a rectangle R on the plaquette grid with at least three
defective corners, flipping the site block strictly inside R one row at a
time slides a defect pair from the row holding two defective corners
("the pair row") toward the opposite row, where it annihilates. Each
segment removes 2 or 4 defects and never raises the defect count by more
than 2 along the way.

Which rectangles a configuration may use is decided in three stages:
column bands holding roughly c*L defects each (splits), per-row defect
counts inside one band (occupancy vectors), and a sparse/dense
classification of those vectors that picks out the crowded rows. The
resulting set F of "good" rectangles drives a randomized path measure,
and the congestion of the induced multicommodity flow upper-bounds the
inverse spectral gap of the dynamics restricted above a defect level.

Everything in this module is for the all-plus boundary (fixed frames
lack a defect-free reference state, periodic boxes have their own ground
machinery elsewhere).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .lattice import (
    ENUM_BUDGET_DEFAULT,
    PLUS,
    Rectangle,
    SpinConfig,
    defect_map,
    reading_order_key,
    _all_defects,
    _plaquettes,
)
from .dynamics import RateModel, _as_rng


class PartitionViolation(ValueError):
    """An occupancy vector fits no sparse or dense class."""


class PathSamplingError(RuntimeError):
    """The drawn split part offers no good rectangle."""


@dataclass
class SegmentMark:
    kind: str  # "rectangle" or "naive"
    rectangle: Rectangle | None
    part_index: int | None
    n_flips: int


@dataclass(frozen=True)
class EdgeRef:
    """A directed move: flip `site` out of configuration `e_minus`."""

    e_minus: SpinConfig
    site: tuple

    def e_plus(self):
        return self.e_minus.flip([self.site])


class _Walker:
    """Mutable replay state: spins, plaquette grid, defect count."""

    def __init__(self, cfg):
        if cfg.spec.is_periodic:
            raise ValueError("path machinery is for non-periodic boxes")
        self.spec = cfg.spec
        self.L = cfg.spec.side
        self.padded = cfg.padded()
        self.P = _plaquettes(self.spec, self.padded)
        self.count = int(np.count_nonzero(self.P == -1))

    def flip(self, site):
        i, j = site
        self.padded[i, j] = -self.padded[i, j]
        blk = self.P[i - 1 : i + 1, j - 1 : j + 1]
        before = int(np.count_nonzero(blk == -1))
        np.negative(blk, out=blk)
        self.count += 4 - 2 * before

    def k_at(self, site):
        i, j = site
        blk = self.P[i - 1 : i + 1, j - 1 : j + 1]
        return int(np.count_nonzero(blk == -1))

    def key(self):
        return self.padded[1:-1, 1:-1].tobytes()

    def config(self):
        return SpinConfig._from_frozen(self.spec, self.padded[1:-1, 1:-1].copy())


class CanonicalPath:
    """A site-flip sequence from `initial`, with per-segment bookkeeping."""

    def __init__(self, initial, flips, marks):
        self.initial = initial
        self.flips = list(flips)
        self.marks = list(marks)

    def __len__(self):
        return len(self.flips)

    def states(self):
        """All visited configurations, initial first (length len+1)."""
        out = [self.initial]
        w = _Walker(self.initial)
        for x in self.flips:
            w.flip(x)
            out.append(w.config())
        return out

    def edges(self):
        """[(EdgeRef, step index)] for every traversal along the path."""
        sts = self.states()
        return [(EdgeRef(sts[i], self.flips[i]), i) for i in range(len(self.flips))]

    @property
    def final(self):
        if not self.flips:
            return self.initial
        w = _Walker(self.initial)
        for x in self.flips:
            w.flip(x)
        return w.config()

    def defect_counts(self):
        """Defect count at every visited state, initial first."""
        w = _Walker(self.initial)
        out = [w.count]
        for x in self.flips:
            w.flip(x)
            out.append(w.count)
        return out


def path_to_text(path):
    """Header with the initial rows joined by '/', then one site per line."""
    head = path.initial.to_text().replace("\n", "/")
    lines = [head] + [f"{x[0]} {x[1]}" for x in path.flips]
    return "\n".join(lines) + "\n"


def path_from_text(spec, text):
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    initial = SpinConfig.from_text(spec, lines[0].replace("/", "\n"))
    flips = []
    for ln in lines[1:]:
        a, b = ln.split()
        flips.append((int(a), int(b)))
    return CanonicalPath(initial, flips, [SegmentMark("naive", None, None, len(flips))])


def mirror_config(cfg):
    """Vertical reflection: site (i, j) -> (i, L+1-j)."""
    return SpinConfig._from_frozen(cfg.spec, cfg.spins[:, ::-1].copy())


def mirror_rectangle(spec, R):
    """Image of a plaquette rectangle under the vertical reflection."""
    L = spec.side
    return Rectangle.from_corners(R.x1, R.x2, L - R.y2, L - R.y1)


def defect_neighbours(d, x):
    """(left, right, down, up): nearest defects from x along its row and
    column, each None when absent. x must itself be a defect."""
    if d.value(x) != -1:
        raise ValueError(f"{x} is not a defect")
    P = d.plaq
    i, j = x
    row_cols = np.nonzero(P[:, j] == -1)[0]
    col_rows = np.nonzero(P[i, :] == -1)[0]
    left = row_cols[row_cols < i]
    right = row_cols[row_cols > i]
    down = col_rows[col_rows < j]
    up = col_rows[col_rows > j]
    return (
        (int(left[-1]), j) if left.size else None,
        (int(right[0]), j) if right.size else None,
        (i, int(down[-1])) if down.size else None,
        (i, int(up[0])) if up.size else None,
    )


def _removal_order(R, dset):
    """Flip order for the site block of R, decided by which corners are
    defective. The row holding two defective corners goes first and the
    sweep starts on the side of the third defect, which keeps the
    intermediate defect excess at 2."""
    bl, br, tl, tr = R.corners
    has = {c: (c in dset) for c in (bl, br, tl, tr)}
    n_def = sum(has.values())
    if n_def < 3 or (has[bl] and has[tl] and has[tr]):
        rows, cols = "desc", "asc"
    elif has[tl] and has[tr] and has[br]:
        rows, cols = "desc", "desc"
    elif has[bl] and has[br] and has[tl]:
        rows, cols = "asc", "asc"
    else:  # {bl, br, tr} defective, tl not
        rows, cols = "asc", "desc"
    row_iter = (
        range(R.y2, R.y1, -1) if rows == "desc" else range(R.y1 + 1, R.y2 + 1)
    )
    col_list = list(range(R.x1 + 1, R.x2 + 1))
    if cols == "desc":
        col_list = col_list[::-1]
    return [(ccc, r) for r in row_iter for ccc in col_list]


def rectangle_removal_path(sigma, R):
    """Flip every site strictly inside R once, in the case-determined order."""
    spec = sigma.spec
    if spec.is_periodic:
        raise ValueError("rectangle paths are for non-periodic boxes")
    L = spec.side
    if not (0 <= R.x1 <= R.x2 <= L and 0 <= R.y1 <= R.y2 <= L):
        raise ValueError(f"{R} outside the plaquette grid")
    if R.is_degenerate():
        return CanonicalPath(sigma, [], [SegmentMark("rectangle", R, None, 0)])
    dset = set(defect_map(sigma).defects())
    flips = _removal_order(R, dset)
    return CanonicalPath(sigma, flips, [SegmentMark("rectangle", R, None, len(flips))])


def _rect_for_pair(ci, cj, j, z_row):
    lo, hi = (ci, cj) if ci < cj else (cj, ci)
    y1, y2 = (z_row, j) if z_row < j else (j, z_row)
    return Rectangle.from_corners(lo, hi, y1, y2)


def extended_rectangles(d, row=None, col_range=None):
    """Rectangles spanned by a same-row defect pair and the farther of the
    nearest defects below them (pair on top) or above them (pair on
    bottom). `row` restricts the pair's row; `col_range` = (a, b)
    restricts all involved defects to plaquette columns a..b."""
    P = d.plaq
    ncols, nrows = P.shape
    a, b = (0, ncols - 1) if col_range is None else col_range
    out = set()
    rows = range(nrows) if row is None else [row]
    for j in rows:
        cols = [i for i in np.nonzero(P[a : b + 1, j] == -1)[0] + a]
        if len(cols) < 2:
            continue
        below = {}
        above = {}
        for i in cols:
            col_rows = np.nonzero(P[i, :] == -1)[0]
            dn = col_rows[col_rows < j]
            up = col_rows[col_rows > j]
            below[i] = int(dn[-1]) if dn.size else None
            above[i] = int(up[0]) if up.size else None
        for u in range(len(cols)):
            for v in range(u + 1, len(cols)):
                ci, cj = cols[u], cols[v]
                dns = [r for r in (below[ci], below[cj]) if r is not None]
                if dns:
                    out.add(_rect_for_pair(ci, cj, j, min(dns)))
                ups = [r for r in (above[ci], above[cj]) if r is not None]
                if ups:
                    out.add(_rect_for_pair(ci, cj, j, max(ups)))
    return out


@dataclass(frozen=True)
class SplitStructure:
    """Column-band decomposition: boundaries (s_1, ..., s_{m+1})."""

    boundaries: tuple
    c: int

    @property
    def m(self):
        return len(self.boundaries) - 1

    @property
    def n(self):
        return max(1, self.m - 1)

    def part_columns(self, i):
        """Inclusive plaquette-column range of part i (1-based)."""
        if not 1 <= i <= self.m:
            raise ValueError(f"part index {i} out of range 1..{self.m}")
        return (self.boundaries[i - 1], self.boundaries[i] - 1)

    def part_of_column(self, col):
        for i in range(1, self.m + 1):
            lo, hi = self.part_columns(i)
            if lo <= col <= hi:
                return i
        raise ValueError(f"column {col} outside the grid")


def compute_split(sigma, c=100):
    """Greedy left-to-right bands, each closed once it holds >= c*L defects."""
    spec = sigma.spec
    if spec.is_periodic:
        raise ValueError("splits are for non-periodic boxes")
    L = spec.side
    colcount = np.count_nonzero(defect_map(sigma).plaq == -1, axis=1)
    bounds = [0]
    while bounds[-1] < L + 1:
        s = bounds[-1]
        running = 0
        nxt = L + 1
        for col in range(s, L + 1):
            running += int(colcount[col])
            if running >= c * L:
                nxt = col + 1
                break
        bounds.append(nxt)
    return SplitStructure(boundaries=tuple(bounds), c=c)


@dataclass(frozen=True)
class OccupancyVector:
    """Defect count per plaquette row inside one split part."""

    v: tuple

    @property
    def v_max(self):
        return max(self.v)

    def num(self, k):
        return sum(1 for x in self.v if x == k)

    @property
    def total(self):
        return sum(self.v)


def occupancy_vector(sigma, i, c=100):
    split = compute_split(sigma, c)
    if not 1 <= i <= split.m:
        raise ValueError(f"part index {i} out of range 1..{split.m}")
    lo, hi = split.part_columns(i)
    P = defect_map(sigma).plaq
    v = np.count_nonzero(P[lo : hi + 1, :] == -1, axis=0)
    return OccupancyVector(v=tuple(int(x) for x in v))


@dataclass(frozen=True)
class ThetaClass:
    sparse: bool
    theta: int | None


def classify_occupancy(v, beta):
    """Sparse when the largest row count is at most beta^2; otherwise the
    smallest offset theta in [0:floor(beta)] whose row-count level
    v_max - theta dominates all levels within distance 32 up to a factor
    beta. Exactly one class per vector, or a partition violation."""
    if not isinstance(v, OccupancyVector):
        v = OccupancyVector(v=tuple(int(x) for x in v))
    if v.v_max <= beta * beta:
        return ThetaClass(sparse=True, theta=None)
    for theta in range(0, int(math.floor(beta)) + 1):
        target = v.v_max - theta
        if target < 0:
            break
        nm = v.num(target)
        if all(beta * nm >= v.num(target - k) for k in range(-32, 33)):
            return ThetaClass(sparse=False, theta=theta)
    raise PartitionViolation("partition violation")


def good_rectangles(sigma, i, beta, c=100):
    """The rectangle pool F(sigma, i) for part i.

    Sparse part: every extended rectangle of the part. Dense part with
    offset theta: extended rectangles whose pair row has occupancy
    v_max - theta. Classification failures fall back to the sparse pool:
    any exit-path measure yields a valid congestion bound, and the dense
    classification can fail at small beta.
    """
    split = compute_split(sigma, c)
    if not 1 <= i <= split.n:
        raise ValueError(f"part index {i} out of range 1..{split.n}")
    col_range = split.part_columns(i)
    d = defect_map(sigma)
    occ = occupancy_vector(sigma, i, c)
    try:
        cls = classify_occupancy(occ, beta)
    except PartitionViolation:
        cls = ThetaClass(sparse=True, theta=None)
    if cls.sparse:
        return extended_rectangles(d, col_range=col_range)
    target = occ.v_max - cls.theta
    out = set()
    for j, vj in enumerate(occ.v):
        if vj == target:
            out |= extended_rectangles(d, row=j, col_range=col_range)
    return out


def sample_partial_path(sigma, beta, seed, c=100):
    """One segment: uniform part index, uniform good rectangle, removal path."""
    d = defect_map(sigma)
    if d.count == 0:
        raise ValueError("empty defect set")
    rng = _as_rng(seed)
    split = compute_split(sigma, c)
    i = int(rng.integers(1, split.n + 1))
    pool = sorted(good_rectangles(sigma, i, beta, c))
    if not pool:
        raise PathSamplingError(f"no good rectangles in part {i}")
    R = pool[int(rng.integers(len(pool)))]
    path = rectangle_removal_path(sigma, R)
    path.marks[0].part_index = i
    return path


def identify_split(e, c=100):
    """Part index of the flip: the part of e_minus holding plaquette
    column x1 - 1."""
    split = compute_split(e.e_minus, c)
    return split.part_of_column(e.site[0] - 1)


def edge_type(e, R, sigma):
    """Position of the move inside the removal path of R from sigma:
    'none' when the move is not on that path, 'init' on the first row
    flipped (when more than one row), 'fin' on the last row, 'mid'
    between."""
    dset = set(defect_map(sigma).defects())
    n_def = sum(1 for ccc in R.corners if ccc in dset)
    if n_def < 3:
        raise ValueError("untyped rectangle")
    flips = _removal_order(R, dset)
    if e.site not in flips:
        return "none"
    pos = flips.index(e.site)
    w = _Walker(sigma)
    for x in flips[:pos]:
        w.flip(x)
    if w.key() != e.e_minus.spins.tobytes():
        return "none"
    rows_in_order = []
    for x in flips:
        if not rows_in_order or rows_in_order[-1] != x[1]:
            rows_in_order.append(x[1])
    row = e.site[1]
    if row == rows_in_order[-1]:
        return "fin"
    if row == rows_in_order[0] and len(rows_in_order) > 1:
        return "init"
    return "mid"


def naive_path(sigma):
    """Flip every minus spin once, top row first, left to right."""
    L = sigma.spec.side
    minus = [
        (i + 1, j + 1)
        for i in range(L)
        for j in range(L)
        if sigma.spins[i, j] == -1
    ]
    minus.sort(key=reading_order_key)
    return CanonicalPath(sigma, minus, [SegmentMark("naive", None, None, len(minus))])


def sample_full_path(sigma, beta, seed, truncate_at=None, c=100):
    """Concatenate partial segments while the segment index stays at most
    beta*L and defects remain, then one naive segment; optionally cut at
    the first state with at most truncate_at defects."""
    spec = sigma.spec
    if spec.bc != PLUS:
        raise ValueError("full paths are defined for the all-plus boundary")
    rng = _as_rng(seed)
    L = spec.side
    M = math.floor(beta * L)
    flips = []
    marks = []
    w = _Walker(sigma)
    cur = sigma
    s = 1
    while True:
        if truncate_at is not None and w.count <= truncate_at:
            break
        if w.count == 0:
            break
        seg = (
            sample_partial_path(cur, beta, rng, c)
            if s <= M
            else naive_path(cur)
        )
        taken = 0
        cut = False
        for x in seg.flips:
            w.flip(x)
            flips.append(x)
            taken += 1
            if truncate_at is not None and w.count <= truncate_at:
                cut = True
                break
        mark = seg.marks[0]
        marks.append(SegmentMark(mark.kind, mark.rectangle, mark.part_index, taken))
        if cut:
            break
        cur = w.config()
        s += 1
    return CanonicalPath(sigma, flips, marks)


@dataclass
class FlowResult:
    cost: float
    edge: EdgeRef
    congestion: dict  # (state bytes, site) -> congestion value
    mode: str
    level: int
    beta: float
    c: int
    samples: int | None = None
    ci_halfwidth: float | None = None


def _edge_hash(state_bytes):
    return hashlib.sha1(state_bytes).hexdigest()[:12]


def flow_report_csv(result):
    """Rows 'edge_state_hash,site_x,site_y,congestion', heaviest first."""
    rows = ["edge_state_hash,site_x,site_y,congestion"]
    items = sorted(result.congestion.items(), key=lambda kv: -kv[1])
    for (sb, site), cong in items:
        rows.append(f"{_edge_hash(sb)},{site[0]},{site[1]},{cong!r}")
    return "\n".join(rows) + "\n"


def _flow_exhaustive(spec, beta, level, c, kind, budget):
    model = RateModel(beta, kind)
    L = spec.side
    trunc = level - 1
    M = math.floor(beta * L)
    spins_all, defective = _all_defects(spec, budget)
    counts_all = np.count_nonzero(defective, axis=(1, 2))
    N = spins_all.shape[0]

    def cfg_from_bytes(bb):
        arr = np.frombuffer(bb, dtype=np.int8).reshape(L, L).copy()
        return SpinConfig._from_frozen(spec, arr)

    pool_cache = {}

    def branches(bb):
        """[(q, flips, part_index)] for one partial-segment draw from bb."""
        if bb in pool_cache:
            return pool_cache[bb]
        cfg = cfg_from_bytes(bb)
        split = compute_split(cfg, c)
        dset = set(defect_map(cfg).defects())
        out = []
        for i in range(1, split.n + 1):
            pool = sorted(good_rectangles(cfg, i, beta, c))
            if not pool:
                raise PathSamplingError(f"no good rectangles in part {i}")
            q = 1.0 / (split.n * len(pool))
            for R in pool:
                out.append((q, _removal_order(R, dset), i))
        pool_cache[bb] = out
        return out

    def naive_flips(bb):
        return naive_path(cfg_from_bytes(bb)).flips

    def replay(bb, flips):
        """Walk flips from bb, stopping after the truncation crossing.
        Returns (edge list [(bytes, site, k, count)], end bytes, end count,
        steps taken)."""
        w = _Walker(cfg_from_bytes(bb))
        edges = []
        taken = 0
        for x in flips:
            edges.append((w.key(), x, w.k_at(x), w.count))
            w.flip(x)
            taken += 1
            if w.count <= trunc:
                break
        return edges, w.key(), w.count, taken

    ell_memo = {}

    def ell_rem(bb, cnt, s):
        """Expected remaining truncated-path length from a segment start."""
        if cnt <= trunc:
            return 0.0
        key = (bb, s)
        if key in ell_memo:
            return ell_memo[key]
        if s > M:
            _, _, endc, taken = replay(bb, naive_flips(bb))
            assert endc <= trunc
            val = float(taken)
        else:
            val = 0.0
            for q, flips, _ in branches(bb):
                _, endb, endc, taken = replay(bb, flips)
                val += q * (taken + ell_rem(endb, endc, s + 1))
        ell_memo[key] = val
        return val

    # Forward pass: pooled mass W and mass-weighted cumulative length ML
    # per (state, segment index). Every edge of a branch receives the same
    # increment q*(ML + W*(segment steps + expected remaining length)).
    sources = np.nonzero(counts_all >= level)[0]
    if sources.size == 0:
        raise ValueError("empty level set")
    numer = {}
    denom = {}
    layer = {}
    for idx in sources:
        bb = spins_all[idx].tobytes()
        relw = math.exp(-beta * float(counts_all[idx]))
        wml = layer.setdefault(bb, [0.0, 0.0])
        wml[0] += relw
    s = 1
    while layer:
        nxt = {}
        for bb, (W, ML) in layer.items():
            cnt = _Walker(cfg_from_bytes(bb)).count
            if cnt <= trunc:
                continue
            if s > M:
                branch_list = [(1.0, naive_flips(bb), None)]
            else:
                branch_list = branches(bb)
            for q, flips, _ in branch_list:
                edges, endb, endc, taken = replay(bb, flips)
                tail = 0.0 if endc <= trunc else ell_rem(endb, endc, s + 1)
                inc = q * (ML + W * (taken + tail))
                for eb, site, kk, ecount in edges:
                    ekey = (eb, site)
                    numer[ekey] = numer.get(ekey, 0.0) + inc
                    if ekey not in denom:
                        denom[ekey] = math.exp(-beta * ecount) * model.table[kk]
                if endc > trunc:
                    wml = nxt.setdefault(endb, [0.0, 0.0])
                    wml[0] += q * W
                    wml[1] += q * (ML + W * taken)
        layer = nxt
        s += 1
        if s > M + 2:
            break
    congestion = {k: float(2.0 * numer[k] / denom[k]) for k in numer}
    best = max(congestion, key=congestion.get)
    edge = EdgeRef(cfg_from_bytes(best[0]), best[1])
    return FlowResult(
        cost=congestion[best],
        edge=edge,
        congestion=congestion,
        mode="exhaustive",
        level=level,
        beta=beta,
        c=c,
    )


def _flow_monte_carlo(spec, beta, level, c, kind, seed, samples):
    model = RateModel(beta, kind)
    L = spec.side
    trunc = level - 1
    rng = _as_rng(seed)
    n_states = 2.0 ** (L * L)
    acc = {}
    acc2 = {}
    denom = {}
    for _ in range(samples):
        bits = rng.integers(0, 2, size=(L, L))
        cfg = SpinConfig._from_frozen(spec, (1 - 2 * bits).astype(np.int8))
        d0 = defect_map(cfg).count
        if d0 < level:
            continue
        relw = math.exp(-beta * float(d0))
        path = sample_full_path(cfg, beta, rng, truncate_at=trunc, c=c)
        glen = len(path)
        x = relw * glen
        w = _Walker(cfg)
        for site in path.flips:
            ekey = (w.key(), site)
            acc[ekey] = acc.get(ekey, 0.0) + x
            acc2[ekey] = acc2.get(ekey, 0.0) + x * x
            if ekey not in denom:
                denom[ekey] = math.exp(-beta * w.count) * model.table[w.k_at(site)]
            w.flip(site)
    if not acc:
        raise ValueError("no sampled path visited the level set")
    congestion = {}
    half = {}
    for k, a in acc.items():
        mean = a / samples
        var = max(acc2[k] - a * a / samples, 0.0) / max(samples - 1, 1)
        se = math.sqrt(var / samples)
        congestion[k] = float(2.0 * n_states * mean / denom[k])
        half[k] = float(2.0 * n_states * 1.96 * se / denom[k])
    best = max(congestion, key=congestion.get)
    arr = np.frombuffer(best[0], dtype=np.int8).reshape(L, L).copy()
    edge = EdgeRef(SpinConfig._from_frozen(spec, arr), best[1])
    return FlowResult(
        cost=congestion[best],
        edge=edge,
        congestion=congestion,
        mode="monte_carlo",
        level=level,
        beta=beta,
        c=c,
        samples=samples,
        ci_halfwidth=half[best],
    )


def flow_cost(
    spec,
    beta,
    level,
    mode="exhaustive",
    seed=0,
    samples=10000,
    c=100,
    kind="metropolis",
    budget=ENUM_BUDGET_DEFAULT,
):
    """Congestion of the truncated-path flow out of the level set
    {at least `level` defects}; its inverse lower-bounds the restricted
    spectral value, so in particular 1/cost <= spectral gap for level 1.

    Exhaustive mode enumerates the whole branching tree of the path
    measure from every source (enumeration budget applies). Monte Carlo
    mode samples sources uniformly and reports an unbiased per-edge
    estimator maximized over observed edges: a lower estimate of the
    true maximum.
    """
    if spec.bc != PLUS:
        raise ValueError("flow bounds are computed for the all-plus boundary")
    if level < 1:
        raise ValueError("level must be at least 1")
    if mode == "exhaustive":
        return _flow_exhaustive(spec, beta, level, c, kind, budget)
    if mode == "monte_carlo":
        return _flow_monte_carlo(spec, beta, level, c, kind, seed, samples)
    raise ValueError(f"unknown mode {mode!r}")
