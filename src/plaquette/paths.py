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

import bisect
import collections
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
    _defect_bits,
    _site_masks,
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
    """Mutable replay state of a fixed box.

    The spins are a byte buffer, so `key()` is `SpinConfig.key()` and a
    flip is `buf[t] ^= 0xFE` (int8 1 <-> -1); the defects are one int `D`
    over plaquette bits a*(L+1)+b, and a flip XORs in the site's four-bit
    mask. The defect count and k are popcounts.
    """

    def __init__(self, cfg):
        if cfg.spec.is_periodic:
            raise ValueError("path machinery is for non-periodic boxes")
        self.spec = cfg.spec
        self.L = cfg.spec.side
        self.masks = _site_masks(self.L, False)
        self.buf = bytearray(cfg.key())
        self.D = _defect_bits(defect_map(cfg).plaq == -1)

    @property
    def count(self):
        return self.D.bit_count()

    def flip(self, site):
        t = (site[0] - 1) * self.L + site[1] - 1
        self.buf[t] ^= 0xFE
        self.D ^= self.masks[t]

    def k_at(self, site):
        return (self.D & self.masks[(site[0] - 1) * self.L + site[1] - 1]).bit_count()

    def key(self):
        return bytes(self.buf)

    def config(self):
        arr = np.frombuffer(self.key(), dtype=np.int8).reshape(self.L, self.L)
        return SpinConfig._from_frozen(self.spec, arr)


class CanonicalPath:
    """A site-flip sequence from `initial`, with per-segment bookkeeping."""

    def __init__(self, initial, flips, marks):
        self.initial = initial
        self.flips = list(flips)
        self.marks = list(marks)
        # the walker indexes sites unchecked, so check them here
        spec = initial.spec
        lo = 0 if spec.is_periodic else 1
        hi = lo + spec.side - 1
        if self.flips and not (lo <= min(map(min, self.flips)) and max(map(max, self.flips)) <= hi):
            bad = next(x for x in self.flips if not spec.contains_site(x))
            raise ValueError(f"site {bad} outside the box")

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
    i, j = x
    rows, cols = _defect_lines(_defect_bits(d.plaq == -1), d.plaq.shape[0])
    row, col = rows[j], cols[i]
    p, q = row.index(i), col.index(j)
    return (
        (row[p - 1], j) if p else None,
        (row[p + 1], j) if p + 1 < len(row) else None,
        (i, col[q - 1]) if q else None,
        (i, col[q + 1]) if q + 1 < len(col) else None,
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


def _defect_lines(D, n1):
    """Rows and columns of the defect int D: rows[b] holds the plaquette
    columns of the defects in row b, cols[a] the rows of those in column
    a, both ascending."""
    rows = [[] for _ in range(n1)]
    cols = [[] for _ in range(n1)]
    while D:
        low = D & -D
        a, b = divmod(low.bit_length() - 1, n1)
        rows[b].append(a)
        cols[a].append(b)
        D ^= low
    return rows, cols


def _lines(sigma):
    """_defect_lines of a configuration on a fixed box."""
    if sigma.spec.is_periodic:
        raise ValueError("splits are for non-periodic boxes")
    return _defect_lines(_defect_bits(defect_map(sigma).plaq == -1), sigma.spec.side + 1)


def _extended(rows, cols, pair_rows, a, b):
    """Extended rectangles with pair row in `pair_rows` and columns in
    a..b, as (y2, x1, y1, x2) tuples, which sort as Rectangle does."""
    none_below, none_above = len(rows), -1
    out = set()
    for j in pair_rows:
        cs = [i for i in rows[j] if a <= i <= b]
        near = []
        for i in cs:
            col = cols[i]
            p = bisect.bisect_left(col, j)
            near.append((
                col[p - 1] if p else none_below,
                col[p + 1] if p + 1 < len(col) else none_above,
            ))
        for u, (dn_u, up_u) in enumerate(near):
            for v in range(u + 1, len(cs)):
                dn, up = min(dn_u, near[v][0]), max(up_u, near[v][1])
                if dn != none_below:
                    out.add((j, cs[u], dn, cs[v]))
                if up != none_above:
                    out.add((up, cs[u], j, cs[v]))
    return out


def extended_rectangles(d, row=None, col_range=None):
    """Rectangles spanned by a same-row defect pair and the farther of the
    nearest defects below them (pair on top) or above them (pair on
    bottom). `row` restricts the pair's row; `col_range` = (a, b)
    restricts all involved defects to plaquette columns a..b."""
    n1 = d.plaq.shape[0]
    rows, cols = _defect_lines(_defect_bits(d.plaq == -1), n1)
    a, b = (0, n1 - 1) if col_range is None else col_range
    pair_rows = range(n1) if row is None else [row]
    return {Rectangle(*t) for t in _extended(rows, cols, pair_rows, a, b)}


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


def _split(cols, c):
    L = len(cols) - 1
    bounds = [0]
    while bounds[-1] < L + 1:
        running = 0
        nxt = L + 1
        for col in range(bounds[-1], L + 1):
            running += len(cols[col])
            if running >= c * L:
                nxt = col + 1
                break
        bounds.append(nxt)
    return SplitStructure(boundaries=tuple(bounds), c=c)


def compute_split(sigma, c=100):
    """Greedy left-to-right bands, each closed once it holds >= c*L defects."""
    return _split(_lines(sigma)[1], c)


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


def _occupancy(rows, a, b):
    return OccupancyVector(v=tuple(sum(1 for i in r if a <= i <= b) for r in rows))


def occupancy_vector(sigma, i, c=100):
    rows, cols = _lines(sigma)
    split = _split(cols, c)
    if not 1 <= i <= split.m:
        raise ValueError(f"part index {i} out of range 1..{split.m}")
    return _occupancy(rows, *split.part_columns(i))


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
    # A level within distance 32 that no row has passes for any beta >= 0.
    num = collections.Counter(v.v)
    for theta in range(0, int(math.floor(beta)) + 1):
        target = v.v_max - theta
        if target < 0:
            break
        nm = num.get(target, 0)
        if all(beta * nm >= k for lv, k in num.items() if abs(lv - target) <= 32):
            return ThetaClass(sparse=False, theta=theta)
    raise PartitionViolation("partition violation")


def _pool(rows, cols, split, i, beta):
    """good_rectangles of part i as (y2, x1, y1, x2) tuples."""
    a, b = split.part_columns(i)
    occ = _occupancy(rows, a, b)
    try:
        cls = classify_occupancy(occ, beta)
    except PartitionViolation:
        cls = ThetaClass(sparse=True, theta=None)
    pair_rows = range(len(rows))
    if not cls.sparse:
        pair_rows = [j for j, vj in enumerate(occ.v) if vj == occ.v_max - cls.theta]
    return _extended(rows, cols, pair_rows, a, b)


def good_rectangles(sigma, i, beta, c=100):
    """The rectangle pool F(sigma, i) for part i.

    Sparse part: every extended rectangle of the part. Dense part with
    offset theta: extended rectangles whose pair row has occupancy
    v_max - theta. Classification failures fall back to the sparse pool:
    any exit-path measure yields a valid congestion bound, and the dense
    classification can fail at small beta.
    """
    rows, cols = _lines(sigma)
    split = _split(cols, c)
    if not 1 <= i <= split.n:
        raise ValueError(f"part index {i} out of range 1..{split.n}")
    return {Rectangle(*t) for t in _pool(rows, cols, split, i, beta)}


def _rectangle_segment(rows, cols, beta, rng, c):
    """One partial segment from the defect lines of a state: a uniform
    part index i, a uniform rectangle R of its sorted pool, and R's
    removal order. Returns (flips, R, i)."""
    split = _split(cols, c)
    i = int(rng.integers(1, split.n + 1))
    pool = sorted(_pool(rows, cols, split, i, beta))
    if not pool:
        raise PathSamplingError(f"no good rectangles in part {i}")
    R = Rectangle(*pool[int(rng.integers(len(pool)))])
    return _removal_order(R, {(a, b) for a, col in enumerate(cols) for b in col}), R, i


def sample_partial_path(sigma, beta, seed, c=100):
    """One segment: uniform part index, uniform good rectangle, removal path."""
    d = defect_map(sigma)
    if d.count == 0:
        raise ValueError("empty defect set")
    rng = _as_rng(seed)
    flips, R, i = _rectangle_segment(*_lines(sigma), beta, rng, c)
    return CanonicalPath(sigma, flips, [SegmentMark("rectangle", R, i, len(flips))])


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
    if w.key() != e.e_minus.key():
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
    s = 1
    while True:
        if truncate_at is not None and w.count <= truncate_at:
            break
        if w.count == 0:
            break
        if s <= M:
            seg, R, i = _rectangle_segment(*_defect_lines(w.D, L + 1), beta, rng, c)
            kind = "rectangle"
        else:
            seg, R, i = naive_path(w.config()).flips, None, None
            kind = "naive"
        taken = 0
        cut = False
        for x in seg:
            w.flip(x)
            flips.append(x)
            taken += 1
            if truncate_at is not None and w.count <= truncate_at:
                cut = True
                break
        marks.append(SegmentMark(kind, R, i, taken))
        if cut:
            break
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


def _flow_result(spec, congestion, **fields):
    """FlowResult whose cost and edge are the first heaviest edge."""
    best = max(congestion, key=congestion.get)
    arr = np.frombuffer(best[0], dtype=np.int8).reshape(spec.side, spec.side)
    edge = EdgeRef(SpinConfig._from_frozen(spec, arr), best[1])
    return FlowResult(cost=congestion[best], edge=edge, congestion=congestion, **fields)


def _flow_exhaustive(spec, beta, level, c, kind, budget):
    model = RateModel(beta, kind)
    L = spec.side
    n = L * L
    trunc = level - 1
    M = math.floor(beta * L)
    # A state is its enumeration index: bit t set when the spin at flat
    # site t is minus. A flip at t XORs 1 << t into it and masks[t] into
    # its defect int, as in _Walker.
    spins_all, defective = _all_defects(spec, budget)
    counts_all = np.count_nonzero(defective, axis=(1, 2))
    dbits = [_defect_bits(m) for m in defective]
    masks = _site_masks(L, False)

    def walk(code, flips):
        """(steps, end state, end count) of flips from code, stopping
        after the truncation crossing."""
        D = dbits[code]
        taken = 0
        for t in flips:
            code ^= 1 << t
            D ^= masks[t]
            taken += 1
            if D.bit_count() <= trunc:
                break
        return taken, code, D.bit_count()

    tree = {}

    def branches(code, s):
        """[(q, flips, steps, end state, end count)] of segment s from
        code: the rectangle draws while s <= M, then the naive path."""
        key = (code, s > M)
        if key not in tree:
            if s > M:
                cfg = SpinConfig._from_frozen(spec, spins_all[code].copy())
                drawn = [(1.0, naive_path(cfg).flips)]
            else:
                rows, cols = _defect_lines(dbits[code], L + 1)
                split = _split(cols, c)
                dset = {(a, b) for a, col in enumerate(cols) for b in col}
                drawn = []
                for i in range(1, split.n + 1):
                    pool = sorted(_pool(rows, cols, split, i, beta))
                    if not pool:
                        raise PathSamplingError(f"no good rectangles in part {i}")
                    q = 1.0 / (split.n * len(pool))
                    drawn += [(q, _removal_order(Rectangle(*R), dset)) for R in pool]
            tree[key] = []
            for q, sites in drawn:
                flips = [(i - 1) * L + j - 1 for i, j in sites]
                tree[key].append((q, flips, *walk(code, flips)))
        return tree[key]

    ell_memo = {}

    def ell_rem(code, cnt, s):
        """Expected remaining truncated-path length from a segment start."""
        if cnt <= trunc:
            return 0.0
        key = (code, s)
        if key not in ell_memo:
            val = 0.0
            for q, _, taken, endb, endc in branches(code, s):
                val += q * (taken + ell_rem(endb, endc, s + 1))
            ell_memo[key] = val
        return ell_memo[key]

    # Forward pass: pooled mass W and mass-weighted cumulative length ML
    # per (state, segment index). Every edge of a branch receives the same
    # increment q*(ML + W*(segment steps + expected remaining length)).
    # Edges are keyed state * n + site until the end.
    sources = np.nonzero(counts_all >= level)[0]
    if sources.size == 0:
        raise ValueError("empty level set")
    numer = {}
    layer = {}
    for idx in sources:
        relw = math.exp(-beta * float(counts_all[idx]))
        wml = layer.setdefault(int(idx), [0.0, 0.0])
        wml[0] += relw
    s = 1
    while layer:
        nxt = {}
        for code, (W, ML) in layer.items():
            if dbits[code].bit_count() <= trunc:
                continue
            for q, flips, taken, endb, endc in branches(code, s):
                tail = 0.0 if endc <= trunc else ell_rem(endb, endc, s + 1)
                inc = q * (ML + W * (taken + tail))
                cur = code
                for t in flips[:taken]:
                    e = cur * n + t
                    numer[e] = numer.get(e, 0.0) + inc
                    cur ^= 1 << t
                if endc > trunc:
                    wml = nxt.setdefault(endb, [0.0, 0.0])
                    wml[0] += q * W
                    wml[1] += q * (ML + W * taken)
        layer = nxt
        s += 1
        if s > M + 2:
            break
    congestion = {}
    for e, v in numer.items():
        code, t = divmod(e, n)
        D = dbits[code]
        denom = math.exp(-beta * D.bit_count()) * model.table[(D & masks[t]).bit_count()]
        congestion[spins_all[code].tobytes(), (t // L + 1, t % L + 1)] = float(2.0 * v / denom)
    return _flow_result(spec, congestion, mode="exhaustive", level=level, beta=beta, c=c)


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
        w = _Walker(cfg)
        if w.count < level:
            continue
        relw = math.exp(-beta * float(w.count))
        path = sample_full_path(cfg, beta, rng, truncate_at=trunc, c=c)
        x = relw * len(path)
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
    res = _flow_result(
        spec, congestion, mode="monte_carlo", level=level, beta=beta, c=c, samples=samples
    )
    res.ci_halfwidth = half[res.edge.e_minus.key(), res.edge.site]
    return res


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
    if mode == "monte_carlo" and samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if mode == "exhaustive":
        return _flow_exhaustive(spec, beta, level, c, kind, budget)
    if mode == "monte_carlo":
        return _flow_monte_carlo(spec, beta, level, c, kind, seed, samples)
    raise ValueError(f"unknown mode {mode!r}")
