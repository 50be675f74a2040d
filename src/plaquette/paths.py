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

All three stages read bit masks of a state's defect int D (`_lines`):
occupancies are popcounts, nearest defects along a column are
`bit_length`s, and the corner tests of a removal order are single bits.
A rectangle is its field tuple (y2, x1, y1, x2), which sorts as
`Rectangle` does, until a public function wraps it.
The Monte Carlo flow and the public samplers draw segments one state at
a time through `_segments`, which forms each drawn state's split, pool
and removal order from its defect int and keeps none of them. The
exhaustive flow forms the same segments for every state of the
enumerated box at once, as arrays (`_box_segments`, on the per-side
tables of `_flow_tables`), and sums the flow in layer passes over them;
the tests hold those arrays to `_lines`, `_split`, `_pool` and `_block`.
Both flows work on codes and flat site indices until a public path is
built, and hand `_flow_result` each edge's numerator, defect count and k
as arrays.

Everything in this module is for the all-plus boundary (fixed frames
lack a defect-free reference state, periodic boxes have their own ground
machinery elsewhere).
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .lattice import (
    PLUS,
    Rectangle,
    SpinConfig,
    reading_order_key,
    _box_defects,
    _code_bytes,
    _code_defects,
    _site_codec,
    _site_flat,
    _site_masks,
)
from .dynamics import RateModel, _as_rng, _check_beta


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


class CanonicalPath:
    """A site-flip sequence from `initial`, with per-segment bookkeeping."""

    def __init__(self, initial, flips, marks):
        if initial.spec.is_periodic:
            raise ValueError("path machinery is for non-periodic boxes")
        self.initial = initial
        self.flips = list(flips)
        self.marks = list(marks)
        self._flat = [_site_flat(initial.spec, x) for x in self.flips]

    def __len__(self):
        return len(self.flips)

    def _walk(self):
        """(code, D) at each visited state, initial first: a flip at t XORs
        bit t into the code and the site's plaquette mask into D."""
        spec = self.initial.spec
        masks = _site_masks(spec.side, False)
        code = self.initial.code
        D = _code_defects(spec, code)
        yield code, D
        for t in self._flat:
            code ^= 1 << t
            D ^= masks[t]
            yield code, D

    def states(self):
        """All visited configurations, initial first (length len+1)."""
        return [SpinConfig.from_code(self.initial.spec, code) for code, _ in self._walk()]

    def edges(self):
        """[(EdgeRef, step index)] for every traversal along the path."""
        sts = self.states()
        return [(EdgeRef(sts[i], self.flips[i]), i) for i in range(len(self.flips))]

    @property
    def final(self):
        *_, (code, _) = self._walk()
        return SpinConfig.from_code(self.initial.spec, code)

    def defect_counts(self):
        """Defect count at every visited state, initial first."""
        return [D.bit_count() for _, D in self._walk()]


def mirror_config(cfg):
    """Vertical reflection: site (i, j) -> (i, L+1-j)."""
    return SpinConfig(cfg.spec, cfg.spins[:, ::-1])


def mirror_rectangle(spec, R):
    """Image of a plaquette rectangle under the vertical reflection."""
    L = spec.side
    return Rectangle.from_corners(R.x1, R.x2, L - R.y2, L - R.y1)


@functools.lru_cache(maxsize=None)
def _row_bits(n1):
    """Per plaquette row b, the bits a*n1 + b of its plaquettes (a, b)."""
    return tuple(sum(1 << a * n1 + b for a in range(n1)) for b in range(n1))


def _band(a, b, n1):
    """The bits of plaquette columns a..b in a defect int."""
    return (1 << (b + 1) * n1) - (1 << a * n1)


def _lines(D, n1):
    """Row and column masks of the defect int D on the n1 x n1 plaquette
    grid, where plaquette (a, b) is bit a*n1 + b: rows[b] holds D's bits
    of row b in place, and cols[a] is column a shifted down, its bit b set
    where (a, b) is a defect."""
    full = (1 << n1) - 1
    return (tuple(D & m for m in _row_bits(n1)),
            tuple(D >> a * n1 & full for a in range(n1)))


def _below(mask, j):
    """Highest set bit of mask under bit j, or -1."""
    return (mask & (1 << j) - 1).bit_length() - 1


def _above(mask, j):
    """Lowest set bit of mask over bit j, or -1."""
    up = mask >> j + 1
    return (up & -up).bit_length() + j if up else -1


def _state_defects(sigma):
    """The defect int of a configuration on a fixed box."""
    if sigma.spec.is_periodic:
        raise ValueError("splits are for non-periodic boxes")
    return _code_defects(sigma.spec, sigma.code)


def _state_lines(sigma):
    """_lines of a configuration on a fixed box."""
    return _lines(_state_defects(sigma), sigma.spec.side + 1)


def defect_neighbours(d, x):
    """(left, right, down, up): nearest defects from x along its row and
    column, each None when absent. x must itself be a defect."""
    if d.value(x) != -1:
        raise ValueError(f"{x} is not a defect")
    i, j = x
    n1 = d.spec.plaq_shape[0]
    rows, cols = _lines(d.bits, n1)
    left, right = _below(rows[j], i * n1 + j), _above(rows[j], i * n1 + j)
    down, up = _below(cols[i], j), _above(cols[i], j)
    return (
        (left // n1, j) if left >= 0 else None,
        (right // n1, j) if right >= 0 else None,
        (i, down) if down >= 0 else None,
        (i, up) if up >= 0 else None,
    )


def _sweep(R, cols):
    """How the site block of R = (y2, x1, y1, x2) is removed, decided by
    which corners are defective in the column masks `cols` (`_lines`):
    2 if rows run downward, plus 1 if columns run leftward. The row holding
    two defective corners goes first and the sweep starts on the side of
    the third defect, which keeps the intermediate defect excess at 2. So
    rows run downward unless exactly three corners are defective and one
    of them is missing at the top, and columns run leftward when exactly
    three are defective and the missing one is on the left.

    Written in arithmetic only, so the fields of R and the masks may be
    ints or numpy arrays of them (`_box_segments`)."""
    y2, x1, y1, x2 = R
    left, right = cols[x1], cols[x2]
    bl, br, tl, tr = left >> y1 & 1, right >> y1 & 1, left >> y2 & 1, right >> y2 & 1
    three = bl + br + tl + tr == 3
    down = 1 - three * (1 - tl * tr)
    leftward = three * (1 - bl * tl)
    return 2 * down + leftward


def _block(R, sweep, L):
    """Flat site indices (`_site_codec`: site (x, y) at (x-1)*L + y-1) of
    the site block of R in the order of `_sweep`."""
    y2, x1, y1, x2 = R
    ys = range(y2 - 1, y1 - 1, -1) if sweep & 2 else range(y1, y2)
    xs = range(x1 * L, x2 * L, L)
    if sweep & 1:
        xs = xs[::-1]
    return [x + y for y in ys for x in xs]


def _sites_of(L, flips):
    """Lattice sites of flat indices on the fixed box of side L."""
    sites = _site_codec(L, False)[0]
    return [sites[t] for t in flips]


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
    R4 = (R.y2, R.x1, R.y1, R.x2)
    order = _block(R4, _sweep(R4, _state_lines(sigma)[1]), L)
    return CanonicalPath(sigma, _sites_of(L, order),
                         [SegmentMark("rectangle", R, None, len(order))])


def _extended(rows, cols, pair_rows, a, b):
    """Extended rectangles with pair row in `pair_rows` and columns in
    a..b, as (y2, x1, y1, x2) tuples. A pair spans to the farther of its
    defects' nearest defects below (the pair on top) and above (the pair
    at the bottom)."""
    n1 = len(rows)
    none_below, none_above = n1, -1
    band = _band(a, b, n1)
    out = set()
    for j in pair_rows:
        row = rows[j] & band
        if not row & row - 1:
            continue  # fewer than two defects
        under = (1 << j) - 1
        near = []  # per defect (column, nearest below, nearest above)
        while row:
            low = row & -row
            row ^= low
            i = (low.bit_length() - 1) // n1
            col = cols[i]
            dn = (col & under).bit_length() - 1  # _below and _above, inline
            up = col >> j + 1
            near.append((i, dn if dn >= 0 else none_below,
                         (up & -up).bit_length() + j if up else none_above))
        for (x1, dn_u, up_u), (x2, dn_v, up_v) in itertools.combinations(near, 2):
            dn = dn_u if dn_u < dn_v else dn_v
            up = up_u if up_u > up_v else up_v
            if dn != none_below:
                out.add((j, x1, dn, x2))
            if up != none_above:
                out.add((up, x1, j, x2))
    return out


def extended_rectangles(d, row=None, col_range=None):
    """Rectangles spanned by a same-row defect pair and the farther of the
    nearest defects below them (pair on top) or above them (pair on
    bottom). `row` restricts the pair's row; `col_range` = (a, b)
    restricts all involved defects to plaquette columns a..b."""
    n1 = d.spec.plaq_shape[0]
    rows, cols = _lines(d.bits, n1)
    a, b = (0, n1 - 1) if col_range is None else col_range
    pair_rows = range(n1) if row is None else [row]
    return {Rectangle(*R) for R in _extended(rows, cols, pair_rows, a, b)}


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


def _check_c(c):
    """ValueError unless the split threshold c is an integer."""
    if not isinstance(c, numbers.Integral):
        raise ValueError(f"split threshold c must be an integer, got {c!r}")


def _split(cols, c):
    """Boundaries of the greedy bands of the column masks `cols`."""
    _check_c(c)
    L = len(cols) - 1
    bounds = [0]
    while bounds[-1] < L + 1:
        running = 0
        nxt = L + 1
        for col in range(bounds[-1], L + 1):
            running += cols[col].bit_count()
            if running >= c * L:
                nxt = col + 1
                break
        bounds.append(nxt)
    return tuple(bounds)


def compute_split(sigma, c=100):
    """Greedy left-to-right bands, each closed once it holds >= c*L defects."""
    return SplitStructure(boundaries=_split(_state_lines(sigma)[1], c), c=c)


@dataclass(frozen=True)
class OccupancyVector:
    """Defect count per plaquette row inside one split part."""

    v: tuple


def _row_counts(rows, a, b):
    """Defects per row in plaquette columns a..b."""
    band = _band(a, b, len(rows))
    return tuple((r & band).bit_count() for r in rows)


def occupancy_vector(sigma, i, c=100):
    rows, cols = _state_lines(sigma)
    split = SplitStructure(boundaries=_split(cols, c), c=c)
    return OccupancyVector(v=_row_counts(rows, *split.part_columns(i)))


@dataclass(frozen=True)
class ThetaClass:
    sparse: bool
    theta: int | None


def _theta(v, beta):
    """classify_occupancy of the row counts v: its offset theta, or None
    when sparse."""
    v_max = max(v)
    if v_max <= beta * beta:
        return None
    num = {}
    for x in v:
        num[x] = num.get(x, 0) + 1
    for theta in range(0, int(math.floor(beta)) + 1):
        target = v_max - theta  # >= 1, as v_max > beta^2 >= theta (integers)
        # A level within distance 32 that no row has passes for any
        # beta >= 0; the offset fits when no level there beats the bound.
        bound = beta * num.get(target, 0)
        for lv, k in num.items():
            if k > bound and abs(lv - target) <= 32:
                break
        else:
            return theta
    raise PartitionViolation("partition violation")


def classify_occupancy(v, beta):
    """Sparse when the largest row count is at most beta^2; otherwise the
    smallest offset theta in [0:floor(beta)] whose row-count level
    v_max - theta dominates all levels within distance 32 up to a factor
    beta. Exactly one class per vector, or a partition violation."""
    _check_beta(beta)
    theta = _theta(v.v if isinstance(v, OccupancyVector) else tuple(v), beta)
    return ThetaClass(sparse=theta is None, theta=theta)


def _pair_rows(v, beta):
    """The rows a part with row counts v pairs defects on: those with
    count v_max - theta in a dense part, every row in a sparse one or
    where the classification fails (`good_rectangles`)."""
    try:
        theta = _theta(v, beta)
    except PartitionViolation:
        theta = None
    if theta is None:
        return range(len(v))
    level = max(v) - theta
    return [j for j, vj in enumerate(v) if vj == level]


def _pool(rows, cols, a, b, beta):
    """good_rectangles of the part over plaquette columns a..b, as
    (y2, x1, y1, x2) tuples."""
    return _extended(rows, cols, _pair_rows(_row_counts(rows, a, b), beta), a, b)


def good_rectangles(sigma, i, beta, c=100):
    """The rectangle pool F(sigma, i) for part i.

    Sparse part: every extended rectangle of the part. Dense part with
    offset theta: extended rectangles whose pair row has occupancy
    v_max - theta. Classification failures fall back to the sparse pool:
    any exit-path measure yields a valid congestion bound, and the dense
    classification can fail at small beta.
    """
    _check_beta(beta)
    rows, cols = _state_lines(sigma)
    split = SplitStructure(boundaries=_split(cols, c), c=c)
    if not 1 <= i <= split.n:
        raise ValueError(f"part index {i} out of range 1..{split.n}")
    return {Rectangle(*R) for R in _pool(rows, cols, *split.part_columns(i), beta)}


def _segments(L, beta, c):
    """The segment draw of defect ints on the plus box of side L at
    (beta, c), beta and c checked once: `draw(D, rng)` takes a uniform
    part index of the split (`SplitStructure.n` parts), then a uniform
    rectangle of that part's sorted pool (PathSamplingError when empty),
    and returns (flat flips, R, i): R a field tuple removed in the order of
    `_sweep`, i the part. Each draw forms D's lines, split, pool and
    removal order afresh and keeps none of them. One part draws no part
    index, which leaves rng's stream as a draw from [1, 2) would.
    The exhaustive flow reads the same segments for a whole box from
    `_box_segments`."""
    _check_beta(beta)
    _check_c(c)

    def draw(D, rng):
        rows, cols = _lines(D, L + 1)
        # fewer than c*L defects make one part
        bounds = _split(cols, c) if D.bit_count() >= c * L else (0, L + 1)
        n = max(1, len(bounds) - 2)
        i = int(rng.integers(1, n + 1)) if n > 1 else 1
        rects = sorted(_pool(rows, cols, bounds[i - 1], bounds[i] - 1, beta))
        if not rects:
            raise PathSamplingError(f"no good rectangles in part {i}")
        R = rects[int(rng.integers(len(rects)))]
        return _block(R, _sweep(R, cols), L), R, i

    return draw


def sample_partial_path(sigma, beta, seed, c=100):
    """One segment: uniform part index, uniform good rectangle, removal path."""
    D = _state_defects(sigma)
    if not D:
        raise ValueError("empty defect set")
    L = sigma.spec.side
    flips, R, i = _segments(L, beta, c)(D, _as_rng(seed))
    return CanonicalPath(sigma, _sites_of(L, flips),
                         [SegmentMark("rectangle", Rectangle(*R), i, len(flips))])


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
    cols = _state_lines(sigma)[1]
    if sum(cols[x] >> y & 1 for x, y in R.corners) < 3:
        raise ValueError("untyped rectangle")
    if e.site not in flips:
        return "none"
    if sigma.flip(flips[: flips.index(e.site)]) != e.e_minus:
        return "none"
    # `_block` takes the rows in turn: the order's ends are its first and last
    row = e.site[1]
    if row == flips[-1][1]:
        return "fin"
    if row == flips[0][1]:
        return "init"
    return "mid"


@functools.lru_cache(maxsize=None)
def _reading_order(L):
    """Flat site indices of the side-L box in reading order."""
    sites = _site_codec(L, False)[0]
    return tuple(sorted(range(L * L), key=lambda t: reading_order_key(sites[t])))


def _naive(code, L):
    """The code's set bits (its minus spins), in reading order."""
    return [t for t in _reading_order(L) if code >> t & 1]


def naive_path(sigma):
    """Flip every minus spin once, top row first, left to right."""
    L = sigma.spec.side
    minus = _sites_of(L, _naive(sigma.code, L))
    return CanonicalPath(sigma, minus, [SegmentMark("naive", None, None, len(minus))])


def _walk(code, D, flips, masks, trunc):
    """(steps, code, D) after the flat flips from the state (code, D),
    stopping at the first state with at most trunc defects."""
    taken = 0
    for t in flips:
        code ^= 1 << t
        D ^= masks[t]
        taken += 1
        if D.bit_count() <= trunc:
            break
    return taken, code, D


def _rectangle_segments(beta, L):
    """How many segments of a path are drawn from rectangle pools before
    the naive one: floor(beta*L), capped at (L+1)^2. A rectangle segment
    removes at least two of the at most (L+1)^2 defects, so the cap
    changes no path, and a huge finite beta cannot overflow the floor."""
    return math.floor(min(beta * L, (L + 1) ** 2))


def _sample_path(draw, L, beta, code, D, rng, trunc):
    """One full path from the state (code, D) on the plus box of side L:
    segments from `draw` (`_segments`) while the segment index is at most
    beta*L, then the naive
    segment, until no defects remain, cut at the first state with at most
    `trunc` defects (no cut when trunc < 0). Returns the flips (flat
    indices) and per segment (R, i, steps), R a (y2, x1, y1, x2) tuple,
    or None on the naive segment."""
    M = _rectangle_segments(beta, L)
    masks = _site_masks(L, False)
    flips = []
    marks = []
    s = 1
    while D and D.bit_count() > trunc:
        if s <= M:
            seg, R, i = draw(D, rng)
        else:
            seg, R, i = _naive(code, L), None, None
        taken, code, D = _walk(code, D, seg, masks, trunc)
        flips += seg[:taken]
        marks.append((R, i, taken))
        s += 1
    return flips, marks


def sample_full_path(sigma, beta, seed, truncate_at=None, c=100):
    """Concatenate partial segments while the segment index stays at most
    beta*L and defects remain, then one naive segment; optionally cut at
    the first state with at most truncate_at defects."""
    spec = sigma.spec
    if spec.bc != PLUS:
        raise ValueError("full paths are defined for the all-plus boundary")
    if truncate_at is not None and not isinstance(truncate_at, numbers.Integral):
        raise ValueError(f"truncate_at must be an integer or None, got {truncate_at!r}")
    L = spec.side
    code = sigma.code
    trunc = -1 if truncate_at is None else truncate_at
    draw = _segments(L, beta, c)
    D = _code_defects(spec, code)
    flips, marks = _sample_path(draw, L, beta, code, D, _as_rng(seed), trunc)
    marks = [SegmentMark("naive", None, None, taken) if R is None
             else SegmentMark("rectangle", Rectangle(*R), i, taken)
             for R, i, taken in marks]
    return CanonicalPath(sigma, _sites_of(L, flips), marks)


@dataclass
class FlowResult:
    cost: float
    edge: EdgeRef
    congestion: dict  # (SpinConfig.code, site) -> congestion value
    mode: str
    level: int
    beta: float
    samples: int | None = None
    ci_halfwidth: float | None = None


def flow_report_csv(result):
    """Rows 'edge_state_hash,site_x,site_y,congestion', heaviest first; the
    hash is of the state's int8 spin bytes."""
    n = result.edge.e_minus.spec.n_sites
    rows = ["edge_state_hash,site_x,site_y,congestion"]
    items = sorted(result.congestion.items(), key=lambda kv: -kv[1])
    for (code, site), cong in items:
        h = hashlib.sha1(_code_bytes(code, n)).hexdigest()[:12]
        rows.append(f"{h},{site[0]},{site[1]},{cong!r}")
    return "\n".join(rows) + "\n"


def _flow_result(spec, model, codes, ts, numer, count, k, half=None, **fields):
    """FlowResult from parallel per-edge inputs, in the flow's edge order:
    each edge's state code and flat site index t (ints), and arrays of its
    numerator and of the defect count and the flipped site's k at its
    state. Congestion is numer / (exp(-beta * count) * rate[k]) under the
    key (code, site), and the heaviest edge is the first maximum; `half`
    gives each edge's ci_halfwidth numerator."""
    beta = fields["beta"]
    weights = np.array([math.exp(-beta * j) for j in range(spec.n_plaquettes + 1)])
    denom = weights[count] * model.table[k]
    zero = np.flatnonzero(denom == 0)
    if zero.size:
        raise ValueError(
            f"the flow weight exp(-beta * {int(count[zero[0]])}) * rate of an edge "
            f"underflows to 0 at beta={beta!r}"
        )
    with np.errstate(over="ignore"):
        congestion = numer / denom
    best = int(np.argmax(congestion))
    cost = float(congestion[best])
    ci = None if half is None else float(half[best]) / float(denom[best])
    if math.isinf(cost) or ci is not None and math.isinf(ci):
        raise ValueError(
            f"the congestion or ci_halfwidth of an edge overflows a float at beta={beta!r}"
        )
    sites = _site_codec(spec.side, False)[0]
    congestion = dict(zip(zip(codes, map(sites.__getitem__, ts)), congestion.tolist()))
    edge = EdgeRef(SpinConfig.from_code(spec, codes[best]), sites[ts[best]])
    return FlowResult(cost=cost, edge=edge, congestion=congestion, ci_halfwidth=ci, **fields)


@functools.lru_cache(maxsize=None)
def _flow_tables(L):
    """What the exhaustive flow reads on the plus box of side L whatever
    beta, read only:

    - rects: every rectangle (y2, x1, y1, x2) of the plaquette grid with
      x1 < x2 and y1 < y2, one column each, in sorted order;
    - flips, codes, defects: per rectangle r and sweep, at row
      4*r + sweep, its `_block` flips (padded with 0 to L*L), and in
      column j the code and defect XOR of its first j flips (0 past the
      block);
    - below, above: per column mask (`_lines`) and row j, its nearest
      defect under and over j (`_below`, `_above`), L+1 and -1 when there
      is none.
    """
    n1 = L + 1
    masks = _site_masks(L, False)
    rects = [(y2, x1, y1, x2) for y2 in range(n1) for x1 in range(n1)
             for y1 in range(y2) for x2 in range(x1 + 1, n1)]
    flips = np.zeros((4 * len(rects), L * L), np.intp)
    codes = np.zeros((4 * len(rects), L * L + 1), np.intp)
    defects = np.zeros((4 * len(rects), L * L + 1), np.uint64)
    for row, (R, sweep) in enumerate(itertools.product(rects, range(4))):
        code = D = 0
        for j, t in enumerate(_block(R, sweep, L)):
            code ^= 1 << t
            D ^= masks[t]
            flips[row, j], codes[row, j + 1], defects[row, j + 1] = t, code, D
    near = [[(_below(m, j), _above(m, j)) for j in range(n1)] for m in range(1 << n1)]
    below, above = np.moveaxis(np.array(near), 2, 0)
    below[below < 0] = n1
    tables = np.array(rects, np.intp).T, flips, codes, defects, below, above
    for a in tables:
        a.flags.writeable = False
    return tables


def _distinct(rows):
    """(first, inverse) over the rows of a small nonnegative int array: the
    index of the first of each distinct row, and each row's distinct
    index."""
    keys = rows @ (int(rows.max(initial=0)) + 1) ** np.arange(rows.shape[1])
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first, inverse


_BOX_BLOCK = 1 << 12  # states per block of the pool matrix


def _box_segments(L, D, beta, c):
    """The rectangle segments of the states with defect ints D (a uint64
    array) on the plus box of side L at (beta, c), all at once: what
    `_split`, `_pool` and `_block` give one state at a time.

    Returns (state, row, q, empty): per segment, in (state, part,
    rectangle) order, the index of its state in D, its row 4*r + sweep in
    `_flow_tables(L)` and its probability 1/(parts * pool size); and per
    state the first part whose pool is empty, 0 when none is (a draw of
    `_segments` raises there).

    Splits come from `_split` once per distinct column-count vector, pair
    rows from `_pair_rows` once per distinct row-count vector of a part.
    The pool matrix (states x rectangles) is formed _BOX_BLOCK states at
    a time from the column masks: a rectangle is pooled when both its
    columns lie in one part and its pair row is a pair row of that part
    with defects in both columns, and its far edge is the farther of
    their nearest defects (`_extended`).
    """
    _check_beta(beta)
    rects, _, _, _, below, above = _flow_tables(L)
    y2, x1, y1, x2 = rects
    n1 = L + 1
    cols = (D[:, None] >> np.arange(0, n1 * n1, n1, dtype=np.uint64)
            & np.uint64((1 << n1) - 1)).astype(np.intp)
    # part[s, x]: the part (1-based) holding column x, 0 past the last part
    first, inverse = _distinct(np.bitwise_count(cols))
    part = np.zeros((first.size, n1), np.intp)
    for d, i in enumerate(first.tolist()):
        bounds = _split(cols[i].tolist(), c)
        for p in range(1, max(1, len(bounds) - 2) + 1):
            part[d, bounds[p - 1]:bounds[p]] = p
    part = part[inverse]
    parts = part.max(axis=1)
    # pairs[s, p - 1]: the pair rows of part p as a row mask
    counts = np.einsum("sxp,sxj->spj", part[:, :, None] == np.arange(1, n1 + 1),
                       cols[:, :, None] >> np.arange(n1) & 1).reshape(-1, n1)
    first, inverse = _distinct(counts)
    pairs = np.array([sum(1 << j for j in _pair_rows(tuple(counts[i].tolist()), beta))
                      for i in first.tolist()])[inverse].reshape(D.size, n1)
    out = []
    empty = np.zeros(D.size, np.intp)
    for lo in range(0, D.size, _BOX_BLOCK):
        sl = slice(lo, lo + _BOX_BLOCK)
        col, p, n = cols[sl], part[sl][:, x1], parts[sl]
        left, right = col[:, x1], col[:, x2]
        both = left & right & np.take_along_axis(pairs[sl], np.maximum(p - 1, 0), axis=1)
        on_top = (both >> y2 & 1 == 1) & (np.minimum(below[left, y2], below[right, y2]) == y1)
        at_bottom = (both >> y1 & 1 == 1) & (np.maximum(above[left, y1], above[right, y1]) == y2)
        s, r = np.nonzero((p > 0) & (p == part[sl][:, x2]) & (on_top | at_bottom))
        slot = s * n1 + p[s, r] - 1
        size = np.bincount(slot, minlength=n.size * n1)
        if n.max() > 1:
            order = np.argsort(slot, kind="stable")
            s, r, slot = s[order], r[order], slot[order]
        sweep = _sweep((y2[r], (s, x1[r]), y1[r], (s, x2[r])), col)
        out.append((lo + s, 4 * r + sweep, 1.0 / (n[s] * size[slot])))
        hole = (size.reshape(-1, n1) == 0) & (np.arange(n1) < n[:, None])
        empty[sl] = np.where(hole.any(axis=1), hole.argmax(axis=1) + 1, 0)
    state, row, q = (np.concatenate(a) for a in zip(*out))
    return state, row, q, empty


_EDGE_BLOCK = 1 << 20  # edge visits the exhaustive flow forms at a time


def _blocks(visits):
    """Slices of consecutive entries, each nonempty, whose visit counts sum
    to about _EDGE_BLOCK at most."""
    cum = np.cumsum(visits)
    lo = 0
    while lo < visits.size:
        hi = max(lo + 1, int(np.searchsorted(cum, cum[lo] - visits[lo] + _EDGE_BLOCK, "right")))
        yield slice(lo, hi)
        lo = hi


def _flow_exhaustive(spec, beta, level, c, kind):
    """The exhaustive flow as array passes over the box's codes.

    A branch is one segment from one state: every pooled rectangle
    (`_box_segments`) while the segment index s is at most M, then the
    naive path, each walked up to the first state with at most trunc
    defects. A backward pass gives ell[s][x], the expected remaining
    length from the start of segment s at state x, as the sum over x's
    branches of q*(steps + ell[s + 1] at the branch end). The forward pass
    carries one layer of states per segment index, in the order first
    reached, with its pooled mass W and mass-weighted length ML: every
    edge of a branch receives q*(ML + W*(steps + ell)), and each branch
    end above the truncation collects q*W and q*(ML + W*steps) for the
    next layer.

    Each sum runs in the order of the recursion over states, branches and
    flips that defines the flow (np.bincount and np.add.at add in index
    order), and the weights come from math.exp, whose last bit np.exp
    does not always match, so the numerators are reproducible bit for bit
    (the pins in the tests); edges are keyed state * L^2 + site, in the
    order first reached.
    """
    model = RateModel(beta, kind)
    L = spec.side
    n = L * L
    trunc = level - 1
    M = _rectangle_segments(beta, L)
    # States are codes; a flip at t XORs 1 << t and masks[t] into them.
    D = _box_defects(spec)
    N = D.size
    counts = np.bitwise_count(D)
    sources = np.flatnonzero(counts >= level)
    if sources.size == 0:
        raise ValueError("empty level set")
    (y2, x1, y1, x2), flips, codes, defects, _, _ = _flow_tables(L)

    # The rectangle branches of every state above the truncation, by state.
    live = np.flatnonzero(counts > trunc)
    st, row, q, hole = _box_segments(L, D[live], beta, c)
    st = live[st]
    empty = np.zeros(N, np.intp)
    empty[live] = hole
    offsets = np.searchsorted(st, np.arange(N + 1))
    area = ((y2 - y1) * (x2 - x1))[row >> 2]
    steps = np.empty(st.size, np.intp)
    block = _EDGE_BLOCK // (n + 1)
    for lo in range(0, st.size, block):
        sl = slice(lo, lo + block)
        cut = np.bitwise_count(D[st[sl], None] ^ defects[row[sl]]) <= trunc
        steps[sl] = np.where(cut.any(axis=1), cut.argmax(axis=1), area[sl])
    end = st ^ codes[row, steps]
    alive = counts[end] > trunc
    rect_visits = np.diff(np.concatenate(([0], np.cumsum(steps)))[offsets])

    # The naive branch of every state: its minus sites in reading order;
    # cleared[p] holds the sites read before position p, plus once flipped.
    order = np.array(_reading_order(L))
    cleared = np.array([sum(1 << t for t in order[:p].tolist()) for p in range(n)])
    masks = np.array(_site_masks(L, False), np.uint64)
    x = np.arange(N)
    naive = np.zeros(N, np.intp)
    walked, Dw = np.zeros(N, np.intp), D.copy()
    for t in order.tolist():
        minus = x >> t & 1 == 1
        Dw[minus] ^= masks[t]
        walked += minus
        stop = minus & (naive == 0) & (np.bitwise_count(Dw) <= trunc)
        naive[stop] = walked[stop]
    naive = np.where(naive > 0, naive, walked)

    # Backward pass: ell[s] by state, for s = M+1 down to 2.
    ell = {M + 1: naive.astype(float)}
    for s in range(M, 1, -1):
        ell[s] = np.bincount(st, q * (steps + np.where(alive, ell[s + 1][end], 0.0)),
                             minlength=N)

    # Forward pass. `first` holds the visit that first reached each edge,
    # `reach` the branch end that first reached each next-layer state.
    never = np.iinfo(np.int64).max
    numer = np.zeros(N * n)
    first = np.full(N * n, never)
    visits = 0
    weights = np.array([math.exp(-beta * float(k)) for k in range(spec.n_plaquettes + 1)])
    layer, W, ML = sources, weights[counts[sources]], np.zeros(sources.size)
    for s in range(1, M + 2):
        if not layer.size:
            break
        nW, nML = np.zeros(N), np.zeros(N)
        reach = np.full(N, never)
        reached = 0
        if s <= M:
            bad = empty[layer]
            if bad.any():
                raise PathSamplingError(f"no good rectangles in part {bad[bad > 0][0]}")
        for sl in _blocks(rect_visits[layer] if s <= M else naive[layer]):
            x, w, ml = layer[sl], W[sl], ML[sl]
            if s <= M:
                lens = offsets[x + 1] - offsets[x]
                b = np.arange(lens.sum()) + np.repeat(offsets[x] - np.cumsum(lens) + lens, lens)
                w, ml = np.repeat(w, lens), np.repeat(ml, lens)
                qb, taken, go = q[b], steps[b], alive[b]
                tail = np.where(go, ell[s + 1][end[b]], 0.0)
                eb = np.repeat(b, taken)
                j = np.arange(eb.size) - np.repeat(np.cumsum(taken) - taken, taken)
                e = (st[eb] ^ codes[row[eb], j]) * n + flips[row[eb], j]
            else:
                qb, taken, tail = 1.0, naive[x], 0.0
                minus = x[:, None] >> order & 1
                on = (minus == 1) & (np.cumsum(minus, axis=1) <= taken[:, None])
                e = ((x[:, None] & ~cleared) * n + order)[on]
            inc = qb * (ml + w * (taken + tail))
            np.add.at(numer, e, np.repeat(inc, taken))
            np.minimum.at(first, e, np.arange(visits, visits + e.size))
            visits += e.size
            if s <= M:
                en, qb, w, ml, taken = end[b][go], qb[go], w[go], ml[go], taken[go]
                np.add.at(nW, en, qb * w)
                np.add.at(nML, en, qb * (ml + w * taken))
                np.minimum.at(reach, en, np.arange(reached, reached + en.size))
                reached += en.size
        layer = np.flatnonzero(reach != never)
        layer = layer[np.argsort(reach[layer])]
        W, ML = nW[layer], nML[layer]
    edges = np.flatnonzero(first != never)
    edges = edges[np.argsort(first[edges])]
    state, t = np.divmod(edges, n)
    return _flow_result(spec, model, state.tolist(), t.tolist(), 2.0 * numer[edges],
                        counts[state], np.bitwise_count(D[state] & masks[t]),
                        mode="exhaustive", level=level, beta=beta)


def _flow_monte_carlo(spec, beta, level, c, kind, seed, samples):
    model = RateModel(beta, kind)
    L = spec.side
    n = L * L
    trunc = level - 1
    rng = _as_rng(seed)
    masks = _site_masks(L, False)
    draw = _segments(L, beta, c)
    acc = {}  # edge -> sum of its per-sample terms
    acc2 = {}  # edge -> sum of their squares
    # per edge in acc's order, flat (no tuple per edge for the collector to
    # track): its code and t, and the defect count and k at its state
    seen = []
    for _ in range(samples):
        code = SpinConfig.random(spec, rng).code
        D = _code_defects(spec, code)
        count = D.bit_count()
        if count < level:
            continue
        flips = _sample_path(draw, L, beta, code, D, rng, trunc)[0]
        x = math.exp(-beta * float(count)) * len(flips)
        xx = x * x
        for t in flips:
            e = code * n + t
            a = acc.get(e)
            if a is None:
                acc[e] = x
                acc2[e] = xx
                seen += code, t, D.bit_count(), (D & masks[t]).bit_count()
            else:
                acc[e] = a + x
                acc2[e] += xx
            code ^= 1 << t
            D ^= masks[t]
    if not acc:
        raise ValueError("no sampled path visited the level set")
    # elementwise, the same IEEE operations as per-edge float arithmetic;
    # scaling by 2^(n+1) (2 * the number of states) is exact while finite
    a = np.fromiter(acc.values(), float, len(acc))
    a2 = np.fromiter(acc2.values(), float, len(acc))
    mean = a / samples
    # one sample leaves the variance undefined: nan, not 0
    var = np.maximum(a2 - a * a / samples, 0.0) / (samples - 1 or math.nan)
    se = np.sqrt(var / samples)
    with np.errstate(over="ignore"):
        numer = np.ldexp(mean, n + 1)
        half = np.ldexp(se, n + 1) * 1.96
    codes, ts, counts, ks = (seen[j::4] for j in range(4))
    return _flow_result(spec, model, codes, ts, numer, np.array(counts), np.array(ks), half,
                        mode="monte_carlo", level=level, beta=beta, samples=samples)


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
    measure from every source (lattice.ENUM_BUDGET applies).
    Monte Carlo mode samples sources uniformly and reports the maximum,
    over the edges observed, of unbiased but noisy per-edge means. That
    maximum is biased upward at small sample counts and bounds the true
    cost in neither direction: at beta=1, level 1, seeds 0-2, it is
    12-16 times the exhaustive cost at L=4 with 1000 samples and 2.1-2.5
    times with 10 000, and 0.96-1.14 times at L=3 with 1000 samples.

    The split threshold c must be at least 2: with c = 1 a part can hold
    one defect per row, and at L = 3 most states have an empty pool. With
    c >= 2 a part holds 2L > L + 1 defects, so a row holds a pair, whose
    third corner exists as the plus frame makes each column's defect count
    even. At L <= 2 a pool can still be empty: PathSamplingError.
    """
    if spec.bc != PLUS:
        raise ValueError("flow bounds are computed for the all-plus boundary")
    if not isinstance(level, numbers.Integral):
        raise ValueError(f"level must be an integer, got {level!r}")
    if level < 1:
        raise ValueError("level must be at least 1")
    _check_c(c)
    if c < 2:
        raise ValueError(f"split threshold c must be at least 2, got {c}")
    if mode == "monte_carlo":
        if not isinstance(samples, numbers.Integral):
            raise ValueError(f"samples must be an integer, got {samples!r}")
        if samples < 1:
            raise ValueError(f"samples must be at least 1, got {samples}")
    if mode == "exhaustive":
        return _flow_exhaustive(spec, beta, level, c, kind)
    if mode == "monte_carlo":
        return _flow_monte_carlo(spec, beta, level, c, kind, seed, samples)
    raise ValueError(f"unknown mode {mode!r}")
