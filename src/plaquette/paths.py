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
    reading_order_key,
    _box_defects,
    _CodedState,
    _code_bytes,
    _code_defects,
    _defect_bits,
    _site_codec,
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


class CanonicalPath:
    """A site-flip sequence from `initial`, with per-segment bookkeeping."""

    def __init__(self, initial, flips, marks):
        if initial.spec.is_periodic:
            raise ValueError("path machinery is for non-periodic boxes")
        self.initial = initial
        self.flips = list(flips)
        self.marks = list(marks)
        flat = _site_codec(initial.spec.side, False)[1]
        bad = next((x for x in self.flips if tuple(x) not in flat), None)
        if bad is not None:
            raise ValueError(f"site {bad} outside the box")

    def __len__(self):
        return len(self.flips)

    def _walk(self):
        """The walker at each visited state, initial first."""
        w = _CodedState(self.initial)
        yield w
        for x in self.flips:
            w.flip(x)
            yield w

    def states(self):
        """All visited configurations, initial first (length len+1)."""
        return [w.config() for w in self._walk()]

    def edges(self):
        """[(EdgeRef, step index)] for every traversal along the path."""
        sts = self.states()
        return [(EdgeRef(sts[i], self.flips[i]), i) for i in range(len(self.flips))]

    @property
    def final(self):
        *_, w = self._walk()
        return w.config()

    def defect_counts(self):
        """Defect count at every visited state, initial first."""
        return [w.count for w in self._walk()]


def path_to_text(path):
    """Header with the initial rows joined by '/', then one site per line."""
    head = path.initial.to_text().replace("\n", "/")
    lines = [head] + [f"{x[0]} {x[1]}" for x in path.flips]
    return "\n".join(lines) + "\n"


def path_from_text(spec, text):
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("path text has no initial configuration")
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


def _removal_order(R, cols):
    """Flip order for the site block of R, decided by which corners are
    defective in the defect columns `cols` (`_defect_lines`). The row
    holding two defective corners goes first and the sweep starts on the
    side of the third defect, which keeps the intermediate defect excess
    at 2. So rows run downward unless exactly three corners are defective
    and one of them is missing at the top, and columns run leftward when
    exactly three are defective and the missing one is on the left."""
    bl, br, tl, tr = (y in cols[x] for x, y in R.corners)
    n_def = bl + br + tl + tr
    if n_def < 3 or (tl and tr):
        rows = range(R.y2, R.y1, -1)
    else:
        rows = range(R.y1 + 1, R.y2 + 1)
    xs = range(R.x1 + 1, R.x2 + 1)
    if n_def == 3 and not (bl and tl):
        xs = xs[::-1]
    return [(x, y) for y in rows for x in xs]


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
    flips = _removal_order(R, _lines(sigma)[1])
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
    return _defect_lines(_code_defects(sigma.spec, sigma.code), sigma.spec.side + 1)


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
    return _removal_order(R, cols), R, i


def sample_partial_path(sigma, beta, seed, c=100):
    """One segment: uniform part index, uniform good rectangle, removal path."""
    rows, cols = _lines(sigma)
    if not any(cols):
        raise ValueError("empty defect set")
    rng = _as_rng(seed)
    flips, R, i = _rectangle_segment(rows, cols, beta, rng, c)
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
    flips = rectangle_removal_path(sigma, R).flips
    cols = _lines(sigma)[1]
    if sum(y in cols[x] for x, y in R.corners) < 3:
        raise ValueError("untyped rectangle")
    if e.site not in flips:
        return "none"
    if sigma.flip(flips[: flips.index(e.site)]) != e.e_minus:
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


def _minus_sites(spec, code):
    """The sites of the code's set bits (its minus spins), in reading order."""
    sites = _site_codec(spec.side, spec.is_periodic)[0]
    minus = [sites[t] for t in range(spec.n_sites) if code >> t & 1]
    return sorted(minus, key=reading_order_key)


def naive_path(sigma):
    """Flip every minus spin once, top row first, left to right."""
    minus = _minus_sites(sigma.spec, sigma.code)
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
    w = _CodedState(sigma)
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
            seg, R, i = _minus_sites(spec, w.code), None, None
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


def _flow_result(spec, model, numer, half=None, **fields):
    """FlowResult from edge numerators keyed code * n + t: congestion is
    numer / (exp(-beta * defects) * rate) under the key (SpinConfig.key(),
    site), in numer's order; `half` gives the heaviest edge's ci_halfwidth."""
    n, beta = spec.n_sites, fields["beta"]
    masks = _site_masks(spec.side, False)
    sites = _site_codec(spec.side, False)[0]
    states = {}
    congestion = {}
    cost = -math.inf
    for e, x in numer.items():
        code, t = divmod(e, n)
        if code not in states:
            D = _code_defects(spec, code)
            states[code] = _code_bytes(code, n), D, math.exp(-beta * D.bit_count())
        key, D, weight = states[code]
        denom = weight * model.table[(D & masks[t]).bit_count()]
        v = congestion[key, sites[t]] = float(x / denom)
        if v > cost:
            cost, best, best_denom = v, e, denom
    code, t = divmod(best, n)
    edge = EdgeRef(SpinConfig.from_code(spec, code), sites[t])
    res = FlowResult(cost=cost, edge=edge, congestion=congestion, **fields)
    if half is not None:
        res.ci_halfwidth = float(half[best] / best_denom)
    return res


def _flow_exhaustive(spec, beta, level, c, kind):
    model = RateModel(beta, kind)
    L = spec.side
    n = L * L
    trunc = level - 1
    M = math.floor(beta * L)
    # States are codes; a flip at t XORs 1 << t and masks[t] into them.
    D = _box_defects(spec, ENUM_BUDGET_DEFAULT)
    counts_all = np.bitwise_count(D)
    dbits = D.tolist()
    masks = _site_masks(L, False)
    flat = _site_codec(L, False)[1]

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
                drawn = [(1.0, _minus_sites(spec, code))]
            else:
                rows, cols = _defect_lines(dbits[code], L + 1)
                split = _split(cols, c)
                drawn = []
                for i in range(1, split.n + 1):
                    pool = sorted(_pool(rows, cols, split, i, beta))
                    if not pool:
                        raise PathSamplingError(f"no good rectangles in part {i}")
                    q = 1.0 / (split.n * len(pool))
                    drawn += [(q, _removal_order(Rectangle(*R), cols)) for R in pool]
            tree[key] = []
            for q, sites in drawn:
                flips = [flat[x] for x in sites]
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
    layer = {int(i): [math.exp(-beta * float(counts_all[i])), 0.0] for i in sources}
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
    return _flow_result(spec, model, {e: 2.0 * v for e, v in numer.items()},
                        mode="exhaustive", level=level, beta=beta, c=c)


def _flow_monte_carlo(spec, beta, level, c, kind, seed, samples):
    model = RateModel(beta, kind)
    L = spec.side
    trunc = level - 1
    rng = _as_rng(seed)
    flat = _site_codec(L, False)[1]
    n_states = 2.0 ** (L * L)
    acc = {}
    acc2 = {}
    for _ in range(samples):
        cfg = SpinConfig.random(spec, rng)
        w = _CodedState(cfg)
        if w.count < level:
            continue
        relw = math.exp(-beta * float(w.count))
        path = sample_full_path(cfg, beta, rng, truncate_at=trunc, c=c)
        x = relw * len(path)
        for site in path.flips:
            t = flat[site]
            e = w.code * L * L + t
            acc[e] = acc.get(e, 0.0) + x
            acc2[e] = acc2.get(e, 0.0) + x * x
            w._flip(t)
    if not acc:
        raise ValueError("no sampled path visited the level set")
    numer = {}
    half = {}
    for e, a in acc.items():
        mean = a / samples
        var = max(acc2[e] - a * a / samples, 0.0) / max(samples - 1, 1)
        se = math.sqrt(var / samples)
        numer[e] = 2.0 * n_states * mean
        half[e] = 2.0 * n_states * 1.96 * se
    return _flow_result(spec, model, numer, half, mode="monte_carlo",
                        level=level, beta=beta, c=c, samples=samples)


def flow_cost(
    spec,
    beta,
    level,
    mode="exhaustive",
    seed=0,
    samples=10000,
    c=100,
    kind="metropolis",
):
    """Congestion of the truncated-path flow out of the level set
    {at least `level` defects}; its inverse lower-bounds the restricted
    spectral value, so in particular 1/cost <= spectral gap for level 1.

    Exhaustive mode enumerates the whole branching tree of the path
    measure from every source (the default enumeration budget applies).
    Monte Carlo mode samples sources uniformly and reports an unbiased
    per-edge estimator maximized over observed edges: a lower estimate of
    the true maximum.

    The split threshold c must be at least 2: with c = 1 a part can hold
    one defect per row, and at L = 3 most states have an empty pool. With
    c >= 2 a part holds 2L > L + 1 defects, so a row holds a pair, whose
    third corner exists as the plus frame makes each column's defect count
    even. At L <= 2 a pool can still be empty: PathSamplingError.
    """
    if spec.bc != PLUS:
        raise ValueError("flow bounds are computed for the all-plus boundary")
    if level < 1:
        raise ValueError("level must be at least 1")
    if c < 2:
        raise ValueError(f"split threshold c must be at least 2, got {c}")
    if mode == "monte_carlo" and samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if mode == "exhaustive":
        return _flow_exhaustive(spec, beta, level, c, kind)
    if mode == "monte_carlo":
        return _flow_monte_carlo(spec, beta, level, c, kind, seed, samples)
    raise ValueError(f"unknown mode {mode!r}")
