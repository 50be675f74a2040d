"""Square plaquette model on finite 2D lattices.

A configuration assigns a spin +-1 to every site of an L x L box. Each
unit square ("plaquette") carries the product of the four spins at its
corners; plaquettes with product -1 are called defects. The energy of a
configuration is, up to an additive constant, the number of its defects,
so everything in this package is phrased in terms of defect pictures.

This module holds the geometry: boundary conditions, defect maps, the
parity identities characterizing which defect pictures are reachable,
inversion from defect pictures back to spins, enumeration helpers for
small boxes, and the rectangle type shared by the path machinery.

The plaquette geometry lives in two batch-aware kernels: `_plaquettes`
forms the four-spin product of every plaquette, and `_site_k` counts,
for every site, the defective plaquettes among the four that contain it
(the k that a flip's rate depends on). Every layer (defect maps,
enumeration, the exact generator, the simulator, the path walker) calls
these two. The event loops (`dynamics.Simulator`, `paths._Walker`, the
exhaustive flow) hold the defects as one int over plaquette bits
(`_defect_bits`) and flip by XORing in the site's plaquette mask
(`_site_masks`), so a defect count or a site's k is a popcount.

Coordinate conventions, used consistently across the package:

* Fixed boundary ("plus" or a general frame): sites live on [1:L]^2.
  Spins outside the box are frozen; the frame occupies the ring
  [0:L+1]^2 minus [1:L]^2. Plaquettes are indexed by their lower-left
  corner and live on [0:L]^2, so there are (L+1)^2 of them.
* Periodic boundary: sites and plaquettes both live on [0:L-1]^2 with
  wrap-around.
* Arrays are indexed arr[i, j] where i is the column index and j the
  row index, both shifted to 0-based storage. For fixed boxes
  arr[i, j] is site (i+1, j+1).
* "Reading order" on sites or plaquettes means top row first, left to
  right within a row: x precedes y iff x2 > y2, or x2 == y2 and
  x1 < y1.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

PLUS = "plus"
FIXED = "fixed"
PERIODIC = "periodic"

ENUM_BUDGET_DEFAULT = 1 << 20


class BudgetExceededError(RuntimeError):
    """An exhaustive operation would touch more states than allowed."""


def reading_order_key(x):
    """Sort key realizing reading order (top row first, then left to right)."""
    return (-x[1], x[0])


class LatticeSpec:
    """Geometry and boundary condition of one finite box.

    side: interior side length L >= 1.
    bc: one of "plus", "fixed", "periodic".
    theta: for bc="fixed", an (L+2, L+2) array of +-1 holding the frozen
        frame; interior entries are ignored (forced to +1 internally).
    """

    __slots__ = ("side", "bc", "_template", "_key")

    def __init__(self, side, bc=PLUS, theta=None):
        if not isinstance(side, (int, np.integer)) or side < 1:
            raise ValueError(f"side must be a positive integer, got {side!r}")
        if bc not in (PLUS, FIXED, PERIODIC):
            raise ValueError(f"unknown boundary condition {bc!r}")
        self.side = int(side)
        self.bc = bc
        if bc == PERIODIC:
            if theta is not None:
                raise ValueError("periodic boxes take no boundary frame")
            self._template = None
        else:
            L = self.side
            if bc == PLUS:
                tpl = np.ones((L + 2, L + 2), dtype=np.int8)
            else:
                if theta is None:
                    raise ValueError("bc='fixed' requires a theta frame")
                tpl = np.asarray(theta, dtype=np.int8).copy()
                if tpl.shape != (L + 2, L + 2):
                    raise ValueError(
                        f"theta must have shape {(L + 2, L + 2)}, got {tpl.shape}"
                    )
                if not np.all(np.abs(tpl) == 1):
                    raise ValueError("theta entries must be +-1")
                tpl[1:-1, 1:-1] = 1
            tpl.flags.writeable = False
            self._template = tpl
        tpl_bytes = b"" if self._template is None else self._template.tobytes()
        self._key = (self.side, self.bc, tpl_bytes)

    @property
    def is_periodic(self):
        return self.bc == PERIODIC

    @property
    def n_sites(self):
        return self.side * self.side

    @property
    def plaq_shape(self):
        L = self.side
        return (L, L) if self.is_periodic else (L + 1, L + 1)

    @property
    def n_plaquettes(self):
        a, b = self.plaq_shape
        return a * b

    def sites(self):
        """All sites in array storage order (column-major in coordinates)."""
        L = self.side
        lo = 0 if self.is_periodic else 1
        return [(i, j) for i in range(lo, lo + L) for j in range(lo, lo + L)]

    def contains_site(self, x):
        L = self.side
        lo = 0 if self.is_periodic else 1
        return lo <= x[0] < lo + L and lo <= x[1] < lo + L

    def plaquettes(self):
        a, b = self.plaq_shape
        return [(i, j) for i in range(a) for j in range(b)]

    def boundary_is_plus(self):
        """True when the frozen frame is identically +1 (or absent)."""
        return self._template is None or bool(np.all(self._template == 1))

    def frame_template(self):
        """(L+2, L+2) array: frame spins in place, interior +1. Fixed BCs only."""
        if self.is_periodic:
            raise ValueError("periodic boxes have no frame")
        return self._template

    def __eq__(self, other):
        return isinstance(other, LatticeSpec) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"LatticeSpec(side={self.side}, bc={self.bc!r})"


def _site_index(spec, x):
    """Array indices of site x, validating membership."""
    if not spec.contains_site(x):
        raise ValueError(f"site {x} outside the box")
    off = 0 if spec.is_periodic else 1
    return (x[0] - off, x[1] - off)


class SpinConfig:
    """Immutable spin assignment on the interior sites of a box."""

    __slots__ = ("spec", "spins")

    def __init__(self, spec, spins):
        arr = np.array(spins, dtype=np.int8)
        L = spec.side
        if arr.shape != (L, L):
            raise ValueError(f"spins must have shape {(L, L)}, got {arr.shape}")
        if not np.all(np.abs(arr) == 1):
            raise ValueError("spins must be +-1")
        arr.flags.writeable = False
        self.spec = spec
        self.spins = arr

    @classmethod
    def _from_frozen(cls, spec, arr):
        # Internal fast path: arr must already be a private int8 (L, L) array.
        obj = object.__new__(cls)
        arr.flags.writeable = False
        obj.spec = spec
        obj.spins = arr
        return obj

    @classmethod
    def all_plus(cls, spec):
        return cls._from_frozen(spec, np.ones((spec.side, spec.side), np.int8))

    @classmethod
    def all_minus(cls, spec):
        return cls._from_frozen(spec, -np.ones((spec.side, spec.side), np.int8))

    def site_value(self, x):
        i, j = _site_index(self.spec, x)
        return int(self.spins[i, j])

    @property
    def minus_count(self):
        return int(np.count_nonzero(self.spins == -1))

    def flip(self, sites):
        """New configuration with the given sites flipped (each toggles once)."""
        arr = self.spins.copy()
        for x in sites:
            i, j = _site_index(self.spec, x)
            arr[i, j] = -arr[i, j]
        return SpinConfig._from_frozen(self.spec, arr)

    def padded(self):
        """(L+2, L+2) array with the frozen frame in place. Fixed BCs only."""
        out = self.spec.frame_template().copy()
        out[1:-1, 1:-1] = self.spins
        return out

    def to_text(self):
        """Rows of '+'/'-' characters, top row first, columns left to right."""
        return _grid_to_text(self.spins)

    @classmethod
    def from_text(cls, spec, text):
        return cls._from_frozen(spec, _grid_from_text(text, spec.side))

    def key(self):
        return self.spins.tobytes()

    def __eq__(self, other):
        return (
            isinstance(other, SpinConfig)
            and self.spec == other.spec
            and self.spins.tobytes() == other.spins.tobytes()
        )

    def __hash__(self):
        return hash((self.spec._key, self.spins.tobytes()))

    def __repr__(self):
        return f"SpinConfig({self.spec!r},\n{self.to_text()})"


def _grid_to_text(arr):
    """Square +-1 array as rows of '+'/'-': top row (highest j) first,
    columns left to right."""
    rows = np.where(arr.T[::-1] == 1, b"+", b"-")
    return "\n".join(r.tobytes().decode() for r in rows)


def _grid_from_text(text, n):
    """Inverse of _grid_to_text for an n x n grid; blank lines and
    surrounding whitespace are ignored, any other character is an error."""
    rows = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError(f"expected {n} rows of {n} characters")
    flat = "".join(rows)
    bad = flat.replace("+", "").replace("-", "")
    if bad:
        raise ValueError(f"bad spin character {bad[0]!r}")
    chars = np.frombuffer(flat.encode(), dtype=np.uint8).reshape(n, n)
    return np.ascontiguousarray(np.where(chars == ord("+"), 1, -1).astype(np.int8)[::-1].T)


def _plaquettes(spec, s):
    """Plaquette variables over the last two axes of s, batch-aware.

    Periodic boxes: s has shape (..., L, L) and the result the same.
    Fixed boxes: s is padded, shape (..., L+2, L+2) with the frame in
    place, and the result has shape (..., L+1, L+1). Plaquette (a, b) is
    the product of the spins at (a, b), (a+1, b), (a, b+1), (a+1, b+1) in
    array storage.
    """
    if spec.is_periodic:
        r = np.roll(s, -1, -2)
        return s * r * np.roll(s, -1, -1) * np.roll(r, -1, -1)
    return s[..., :-1, :-1] * s[..., 1:, :-1] * s[..., :-1, 1:] * s[..., 1:, 1:]


def _site_k(spec, defective):
    """Per-site count of defective plaquettes containing the site, as int8
    of shape (..., L, L) in site storage order, from a boolean defect mask
    over the plaquette grid (..., *plaq_shape).

    This is the k of the rate rule: a flip changes the defect count by
    4 - 2k. On the periodic 1x1 box the one plaquette holds the site four
    times, so a flip toggles it back to itself; that flip is
    energy-neutral, and k is 2.
    """
    m = defective.astype(np.int8)  # a sum of bools would be a logical or
    if spec.is_periodic and spec.side == 1:
        return np.full(m.shape, 2, np.int8)
    if spec.is_periodic:
        r = np.roll(m, 1, -2)
        return m + r + np.roll(m, 1, -1) + np.roll(r, 1, -1)
    return m[..., :-1, :-1] + m[..., 1:, :-1] + m[..., :-1, 1:] + m[..., 1:, 1:]


@functools.lru_cache(maxsize=None)
def _site_masks(side, periodic):
    """Per site, at its flat storage index t = i*L + j, the plaquettes that
    contain it as bits of one int: plaquette (a, b) is the bit at its flat
    index in the plaquette grid, a*(L+1) + b (fixed) or a*L + b (periodic).

    A flip at t XORs masks[t] into a configuration's defect bits, and the
    site's k is the popcount of the defect bits under masks[t]. The four
    bits are XORed together, so the periodic 1x1 mask, whose one plaquette
    holds the site four times, is 0: that flip changes no plaquette (and
    its k is 2, which the popcount does not give; see _site_k).
    """
    L = side
    if not periodic:
        n1 = L + 1
        quad = 3 | 3 << n1
        return tuple(quad << (a * n1 + b) for a in range(L) for b in range(L))
    masks = []
    for i in range(L):
        for j in range(L):
            m = 0
            for a in (i - 1, i):
                for b in (j - 1, j):
                    m ^= 1 << (a % L * L + b % L)
            masks.append(m)
    return tuple(masks)


def _defect_bits(defective):
    """A boolean plaquette mask as one int, each plaquette at the bit of its
    flat index in the plaquette grid (the layout of _site_masks)."""
    packed = np.packbits(defective, axis=None, bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


class DefectConfig:
    """A +-1 pattern on the plaquette grid (not necessarily realizable)."""

    __slots__ = ("spec", "plaq")

    def __init__(self, spec, plaq):
        arr = np.array(plaq, dtype=np.int8)
        if arr.shape != spec.plaq_shape:
            raise ValueError(f"plaquette grid must have shape {spec.plaq_shape}")
        if not np.all(np.abs(arr) == 1):
            raise ValueError("plaquette variables must be +-1")
        arr.flags.writeable = False
        self.spec = spec
        self.plaq = arr

    @classmethod
    def _from_frozen(cls, spec, arr):
        obj = object.__new__(cls)
        arr.flags.writeable = False
        obj.spec = spec
        obj.plaq = arr
        return obj

    @property
    def count(self):
        return int(np.count_nonzero(self.plaq == -1))

    def defects(self):
        """Defect coordinates, sorted ascending by (x1, x2)."""
        ii, jj = np.nonzero(self.plaq == -1)
        return [(int(a), int(b)) for a, b in sorted(zip(ii, jj))]

    def value(self, x):
        return int(self.plaq[x[0], x[1]])

    def to_text(self):
        return "\n".join(f"({a},{b})" for a, b in self.defects())

    @classmethod
    def from_defect_list(cls, spec, defects):
        arr = np.ones(spec.plaq_shape, dtype=np.int8)
        for a, b in defects:
            arr[a, b] = -1
        return cls._from_frozen(spec, arr)

    def __eq__(self, other):
        return (
            isinstance(other, DefectConfig)
            and self.spec == other.spec
            and self.plaq.tobytes() == other.plaq.tobytes()
        )

    def __hash__(self):
        return hash((self.spec._key, self.plaq.tobytes()))


def defect_map(cfg):
    """The defect picture of a spin configuration."""
    spec = cfg.spec
    s = cfg.spins if spec.is_periodic else cfg.padded()
    return DefectConfig._from_frozen(spec, _plaquettes(spec, s))


def defect_count(cfg):
    return defect_map(cfg).count


def hamiltonian(cfg):
    """Energy: -(number of plaquettes)/2 + (number of defects)."""
    return -cfg.spec.n_plaquettes / 2.0 + defect_map(cfg).count


def log_relative_weight(cfg, beta):
    """log of the stationary weight relative to the defect-free level.

    Defined as -beta * (defect count). Only meaningful when the zero-defect
    level is realizable with the given boundary, which fails for fixed
    frames that are not identically +1.
    """
    if not cfg.spec.boundary_is_plus():
        raise ValueError(
            "unsupported normalization reference: boundary frame is not all-plus"
        )
    return -beta * defect_map(cfg).count


def relative_weight(cfg, beta):
    return math.exp(log_relative_weight(cfg, beta))


def parity_check(spec, pattern):
    """Whether a plaquette pattern satisfies the row/column product identities.

    Fixed boundary: the product over plaquette column i equals the product
    of the four frame spins at the column's ends, for every i in [0:L];
    same for rows. Periodic boundary: every row and column product is +1.
    """
    plaq = pattern.plaq if isinstance(pattern, DefectConfig) else np.asarray(pattern)
    if plaq.shape != spec.plaq_shape:
        raise ValueError(f"pattern must have shape {spec.plaq_shape}")
    if spec.is_periodic:
        return bool(np.all(plaq.prod(axis=0) == 1) and np.all(plaq.prod(axis=1) == 1))
    t = spec.frame_template()
    L = spec.side
    col_target = t[0 : L + 1, 0] * t[1 : L + 2, 0] * t[0 : L + 1, L + 1] * t[1 : L + 2, L + 1]
    row_target = t[0, 0 : L + 1] * t[0, 1 : L + 2] * t[L + 1, 0 : L + 1] * t[L + 1, 1 : L + 2]
    return bool(
        np.all(plaq.prod(axis=1) == col_target) and np.all(plaq.prod(axis=0) == row_target)
    )


def invert_defects(spec, pattern, anchor=None):
    """Reconstruct a spin configuration from a parity-valid defect pattern.

    Fixed boundary: the inverse is unique; site (x1, x2) carries
    theta(0,0) * theta(x1,0) * theta(0,x2) times the product of all
    plaquettes strictly below and to the left.

    Periodic boundary: the fibre has one element per assignment of spins
    on column 0 and row 0; `anchor` is a pair (col0, row0) of +-1 arrays
    of length L agreeing at their shared site (0,0), defaulting to all +1.
    """
    d = pattern if isinstance(pattern, DefectConfig) else DefectConfig(spec, pattern)
    if not parity_check(spec, d):
        raise ValueError("defect pattern violates the parity identities")
    P = d.plaq
    L = spec.side
    if not spec.is_periodic:
        if anchor is not None:
            raise ValueError("anchor applies only to periodic boxes")
        t = spec.frame_template()
        cum = np.cumprod(np.cumprod(P, axis=0), axis=1)
        spins = t[0, 0] * np.outer(t[1 : L + 1, 0], t[0, 1 : L + 1]) * cum[0:L, 0:L]
        return SpinConfig._from_frozen(spec, spins.astype(np.int8))
    if anchor is None:
        col0 = np.ones(L, dtype=np.int8)
        row0 = np.ones(L, dtype=np.int8)
    else:
        col0 = np.asarray(anchor[0], dtype=np.int8)
        row0 = np.asarray(anchor[1], dtype=np.int8)
        if col0.shape != (L,) or row0.shape != (L,):
            raise ValueError(f"anchor arrays must have length {L}")
        if col0[0] != row0[0]:
            raise ValueError("anchor column and row disagree at site (0,0)")
    spins = np.empty((L, L), dtype=np.int8)
    spins[0, :] = col0
    spins[:, 0] = row0
    for i in range(1, L):
        for j in range(1, L):
            spins[i, j] = P[i - 1, j - 1] * spins[i - 1, j - 1] * spins[i, j - 1] * spins[i - 1, j]
    cfg = SpinConfig._from_frozen(spec, spins)
    if defect_map(cfg).plaq.tobytes() != P.tobytes():
        raise ValueError("defect pattern is not realizable with any anchor")
    return cfg


def _all_spin_arrays(spec, budget):
    """(N, L, L) int8 array of every configuration; index bit b flips
    the site at flat position b (array C-order), bit 0 meaning spin -1."""
    L = spec.side
    n = spec.n_sites
    N = 1 << n
    if N > budget:
        raise BudgetExceededError(
            f"enumeration needs {N} states, budget is {budget}"
        )
    idx = np.arange(N, dtype=np.uint64)
    bits = (idx[:, None] >> np.arange(n, dtype=np.uint64)[None, :]) & 1
    return (1 - 2 * bits.astype(np.int8)).reshape(N, L, L)


def _all_defects(spec, budget):
    """Every configuration, as from _all_spin_arrays, with its defect
    mask: an (N, *plaq_shape) boolean array."""
    spins = _all_spin_arrays(spec, budget)
    s = spins
    if not spec.is_periodic:
        L = spec.side
        s = np.broadcast_to(spec.frame_template(), (spins.shape[0], L + 2, L + 2)).copy()
        s[:, 1:-1, 1:-1] = spins
    return spins, _plaquettes(spec, s) == -1


def enumerate_configs(spec, budget=ENUM_BUDGET_DEFAULT):
    """Every configuration of the box, in the fixed bit-index order."""
    spins = _all_spin_arrays(spec, budget)
    return [SpinConfig._from_frozen(spec, spins[i].copy()) for i in range(spins.shape[0])]


def count_by_defect_number(spec, budget=ENUM_BUDGET_DEFAULT):
    """Exhaustive histogram {defect count: number of configurations}."""
    _, defective = _all_defects(spec, budget)
    binc = np.bincount(np.count_nonzero(defective, axis=(1, 2)))
    return {int(k): int(v) for k, v in enumerate(binc) if v > 0}


def enumerate_by_defect_count(spec, count, budget=ENUM_BUDGET_DEFAULT):
    """All configurations with exactly `count` defects."""
    spins, defective = _all_defects(spec, budget)
    sel = np.nonzero(np.count_nonzero(defective, axis=(1, 2)) == count)[0]
    return [SpinConfig._from_frozen(spec, spins[i].copy()) for i in sel]


def ground_states(spec, budget=ENUM_BUDGET_DEFAULT):
    """All zero-defect configurations.

    Plus boundary: the all-plus state, and nothing else. Periodic: the
    2^(2L-1) states sigma[i, j] = a[i] * b[j] over sign vectors a, b
    with a[0] fixed to +1. General fixed frames: exhaustive search.
    """
    L = spec.side
    if spec.bc == PLUS:
        return [SpinConfig.all_plus(spec)]
    if spec.is_periodic:
        out = []
        for bbits in itertools.product((1, -1), repeat=L):
            b = np.array(bbits, dtype=np.int8)
            for abits in itertools.product((1, -1), repeat=L - 1):
                a = np.array((1,) + abits, dtype=np.int8)
                out.append(SpinConfig._from_frozen(spec, np.outer(a, b)))
        return out
    return enumerate_by_defect_count(spec, 0, budget)


def critical_length(beta):
    """floor(exp(beta / 2)), the length scale the scaling results live at."""
    return int(math.floor(math.exp(beta / 2.0)))


def defect_pattern_count_bound(spec, two_k):
    """Counting bound for configurations with exactly 2k defects.

    Fixed boundary on [1:L]^2: min{(e k)^(2k) L^(2k), L^(3k)}. Periodic
    boxes carry the extra prefactor 2^(2Lp+1) with Lp = side - 1, from
    the free choice of spins on one row and one column.
    """
    if two_k % 2 != 0:
        raise ValueError("defect counts are even")
    k = two_k // 2
    if k == 0:
        return 1.0 if not spec.is_periodic else 2.0 ** (2 * (spec.side - 1) + 1)
    if spec.is_periodic:
        Lp = spec.side - 1
        prefix = 2.0 ** (2 * Lp + 1)
    else:
        Lp = spec.side
        prefix = 1.0
    a = (math.e * k) ** (2 * k) * float(Lp) ** (2 * k)
    b = float(Lp) ** (3 * k)
    return prefix * min(a, b)


@dataclass(frozen=True, order=True)
class Rectangle:
    """Axis-aligned rectangle on the plaquette grid, given by corner ranges.

    Field order (y2, x1, y1, x2) doubles as the package-wide sort key for
    reproducible uniform draws.
    """

    y2: int
    x1: int
    y1: int
    x2: int

    @classmethod
    def from_corners(cls, x1, x2, y1, y2):
        if x1 > x2 or y1 > y2:
            raise ValueError("need x1 <= x2 and y1 <= y2")
        return cls(y2=y2, x1=x1, y1=y1, x2=x2)

    @property
    def corners(self):
        """(bottom-left, bottom-right, top-left, top-right)."""
        return (
            (self.x1, self.y1),
            (self.x2, self.y1),
            (self.x1, self.y2),
            (self.x2, self.y2),
        )

    def corner_set(self):
        return set(self.corners)

    def flip_sites(self):
        """Sites whose joint flip toggles exactly this rectangle's corners:
        the site block [x1+1 : x2] x [y1+1 : y2]."""
        return [
            (a, b)
            for a in range(self.x1 + 1, self.x2 + 1)
            for b in range(self.y1 + 1, self.y2 + 1)
        ]

    def is_degenerate(self):
        return self.x1 == self.x2 or self.y1 == self.y2

    def __repr__(self):
        return f"Rectangle([{self.x1}:{self.x2}]x[{self.y1}:{self.y2}])"
