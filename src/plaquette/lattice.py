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

Every layer names a configuration by one int, its code (`SpinConfig.code`,
decoded by `SpinConfig.from_code`): bit t is set where the spin at flat
site t = i*L + j is minus, so the code is the enumeration index. A
`SpinConfig` holds only its box and code; `SpinConfig.spins` is decoded
from the code (`_code_bytes`) each time it is read. Its defects are one
int over plaquette bits (`_code_defects`), the frame's defects XOR the
plaquette mask (`_site_masks`) of each minus site, so a defect count or
a site's k is a popcount. A `DefectConfig` likewise holds only its box
and that int, `bits`, and decodes `plaq` when read; `defect_map` is
`_code_defects` of the code. `_plaquettes`, the spin product, gives the
frame's defects and is the tests' reference for the map. The path walks
of `paths` XOR bit t into the code and mask t into the defect int to
flip site t, and `_box_defects` gives a whole box's defect ints as one
array by code.
`dynamics.Simulator` instead keeps, per site, the 4-bit pattern of its
defective plaquettes in the slot order of `_site_plaquettes`, which the
masks are built from too, and so is `_toggles`, the XOR masks a flip
applies to the patterns around it: each of the flipped site's
plaquettes marks the slots that hold it. `_site_k`, k counted from spin
geometry, is the test reference for both.

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
* `_site_offset` is the one place that offset lives. `_site_codec` maps
  each flat index t = i*L + j (bit t of a code) to its site and back,
  and `_sites_flat` maps arrays of sites; every layer that addresses a
  site by t goes through them. `_site_flat` and `_sites_flat` refuse a
  site outside the box with ValueError.
* "Reading order" on sites or plaquettes means top row first, left to
  right within a row: x precedes y iff x2 > y2, or x2 == y2 and
  x1 < y1.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

PLUS = "plus"
FIXED = "fixed"
PERIODIC = "periodic"

ENUM_BUDGET = 1 << 20  # the most configurations any box enumeration touches
# the most sites of any box, checked as it is made: a chain keeps about 1.4 kB
# of tables a site (`dynamics.Simulator`'s toggles, patterns and buckets)
SITE_BUDGET = 1 << 20


class BudgetExceededError(RuntimeError):
    """An operation would touch more sites, states or events than allowed."""


def reading_order_key(x):
    """Sort key realizing reading order (top row first, then left to right)."""
    return (-x[1], x[0])


class LatticeSpec:
    """Geometry and boundary condition of one finite box.

    side: interior side length L >= 1, with L^2 at most SITE_BUDGET
        (BudgetExceededError otherwise, before any frame is built).
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
        _check_sites(self.side)
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
                tpl = _signs(theta, (L + 2, L + 2), "theta")
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
        return list(_site_codec(self.side, self.is_periodic)[0])

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


def _signs(values, shape, what):
    """values as a new int8 array of the given shape, each entry checked to
    be exactly +1 or -1 before the cast (so 255 or 1.7 is refused, not
    wrapped or truncated, and so is a bool or complex array, whose True or
    1+0j equals 1); ValueError naming `what` otherwise."""
    arr = np.asarray(values)
    if arr.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {arr.shape}")
    if arr.dtype.kind in "bc" or not np.all((arr == 1) | (arr == -1)):
        raise ValueError(f"{what} must be +-1")
    return arr.astype(np.int8)


def _site_offset(periodic):
    """Coordinate of array index 0: fixed boxes put site (i+1, j+1) at
    array index (i, j), periodic ones site (i, j)."""
    return 0 if periodic else 1


@functools.lru_cache(maxsize=None)
def _site_codec(side, periodic):
    """(sites, flat): the site at each flat index t = i*L + j, and the flat
    index of each site."""
    lo = _site_offset(periodic)
    sites = tuple((i + lo, j + lo) for i in range(side) for j in range(side))
    return sites, {x: t for t, x in enumerate(sites)}


def _site_flat(spec, x):
    """Flat index of site x, validating membership."""
    t = _site_codec(spec.side, spec.is_periodic)[1].get(tuple(x))
    if t is None:
        raise ValueError(f"site {x} outside the box")
    return t


def _sites_flat(spec, i, j):
    """Flat indices of the sites (i[k], j[k]), given as int64 arrays: the
    array form of `_site_flat`, with its ValueError for the first site
    outside the box."""
    L, lo = spec.side, _site_offset(spec.is_periodic)
    a, b = i - lo, j - lo
    bad = (a < 0) | (a >= L) | (b < 0) | (b >= L)
    if bad.any():
        k = int(bad.argmax())
        raise ValueError(f"site {(int(i[k]), int(j[k]))} outside the box")
    return a * L + b


class SpinConfig:
    """Immutable spin assignment on the interior sites of a box, held as
    its code: bit t set where the spin at flat site t (array C-order) is
    minus. `spins` is decoded from the code on each read."""

    __slots__ = ("spec", "code")

    def __init__(self, spec, spins):
        arr = _signs(spins, (spec.side, spec.side), "spins")
        self.spec = spec
        self.code = _defect_bits(arr == -1)

    @classmethod
    def all_plus(cls, spec):
        return cls.from_code(spec, 0)

    @classmethod
    def all_minus(cls, spec):
        return cls.from_code(spec, (1 << spec.n_sites) - 1)

    def site_value(self, x):
        return 1 - 2 * (self.code >> _site_flat(self.spec, x) & 1)

    def flip(self, sites):
        """New configuration with the given sites flipped (each toggles once)."""
        code = self.code
        for x in sites:
            code ^= 1 << _site_flat(self.spec, x)
        return SpinConfig.from_code(self.spec, code)

    @property
    def spins(self):
        """Read-only (L, L) int8 array of the spins."""
        L = self.spec.side
        return np.frombuffer(_code_bytes(self.code, L * L), np.int8).reshape(L, L)

    def to_text(self):
        """Rows of '+'/'-' characters, top row first, columns left to right."""
        return _grid_to_text(self.spins)

    @classmethod
    def from_text(cls, spec, text):
        return cls(spec, _grid_from_text(text, spec.side))

    @classmethod
    def random(cls, spec, rng):
        """Independent uniform spins, drawn as one (L, L) block of bits."""
        bits = rng.integers(0, 2, size=(spec.side, spec.side))
        return cls.from_code(spec, _defect_bits(bits))

    @classmethod
    def from_code(cls, spec, code):
        """The configuration whose `code` is `code`, in [0, 2**n_sites)."""
        code = operator.index(code)
        n = spec.n_sites
        if not 0 <= code < 1 << n:
            raise ValueError(f"code {code} outside [0, 2**{n})")
        obj = object.__new__(cls)
        obj.spec = spec
        obj.code = code
        return obj

    def __eq__(self, other):
        return isinstance(other, SpinConfig) and (self.spec, self.code) == (other.spec, other.code)

    def __hash__(self):
        return hash((self.spec._key, self.code))

    def __repr__(self):
        return f"SpinConfig({self.spec!r},\n{self.to_text()})"


# the binary digits of a code -> int8 spin bytes (+1 is 0x01, -1 is 0xff)
_BIT_TO_SPIN = bytes.maketrans(b"01", b"\x01\xff")


def _code_bytes(code, n):
    """spins.tobytes() of the configuration with this code on n sites."""
    return bin(code)[:1:-1].ljust(n, "0").encode().translate(_BIT_TO_SPIN)


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


def _site_plaquettes(side, periodic):
    """Yields per site, in flat storage order t = i*L + j, the flat indices of
    the four plaquettes that contain it, in slot order s = 2*da + db:
    plaquette (a, b) = (i + lo + da, j + lo + db), with lo = 0 (fixed) or
    -1 (periodic, wrapped), at flat index a*(L+1) + b (fixed) or a*L + b
    (periodic). On the periodic 1x1 box the four slots hold one plaquette.
    """
    L = side
    n1, lo = (L, -1) if periodic else (L + 1, 0)
    for i in range(L):
        for j in range(L):
            yield tuple((i + lo + da) % n1 * n1 + (j + lo + db) % n1
                        for da in (0, 1) for db in (0, 1))


@functools.lru_cache(maxsize=None)
def _site_masks(side, periodic):
    """Per site, at its flat storage index t, the plaquettes that contain it
    (`_site_plaquettes`) as bits of one int.

    A flip at t XORs masks[t] into a configuration's defect bits, and the
    site's k is the popcount of the defect bits under masks[t]. The four
    bits are XORed together, so the periodic 1x1 mask, whose one plaquette
    holds the site four times, is 0: that flip changes no plaquette, and
    its k is 2, which readers of the masks set where a mask is 0.
    """
    return tuple(functools.reduce(operator.xor, (1 << p for p in slots))
                 for slots in _site_plaquettes(side, periodic))


@functools.lru_cache(maxsize=None)
def _toggles(side, periodic):
    """Per flat site index t, the pairs (u, x) for the sites u that share a
    plaquette with t, t itself included, in increasing u. A site's pattern
    has bit s set where its slot-s plaquette (`_site_plaquettes`) is
    defective; a flip at t toggles each of t's plaquettes, so it XORs into
    u's pattern the bit of each slot of u that holds one. A plaquette
    that fills several slots (periodic L <= 2) is toggled once per slot
    of t and marked once per slot of u, and what meets twice cancels: on
    the periodic 1x1 box, whose flip toggles its one plaquette four
    times, there are no pairs.
    """
    slots = list(_site_plaquettes(side, periodic))
    holders = {}  # plaquette -> [(u, the bit of u's slot holding it)]
    for u, row in enumerate(slots):
        for s, p in enumerate(row):
            holders.setdefault(p, []).append((u, 1 << s))
    table = []
    for row in slots:
        xs = {}
        for p in row:
            for u, bit in holders[p]:
                xs[u] = xs.get(u, 0) ^ bit
        table.append(tuple((u, x) for u, x in sorted(xs.items()) if x))
    return tuple(table)


def _defect_bits(defective):
    """A boolean (or 0/1) array as one int, the entry at flat index t at
    bit t: a plaquette mask in the layout of _site_masks, or a site mask as
    a code."""
    packed = np.packbits(defective, axis=None, bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


@functools.lru_cache(maxsize=None)
def _frame_defects(spec):
    """Defect bits of the all-plus state: those the frame makes, none on
    plus and periodic boxes."""
    if spec.is_periodic:
        return 0
    return _defect_bits(_plaquettes(spec, spec.frame_template()) == -1)


@functools.lru_cache(maxsize=None)
def _frame_patterns(spec):
    """Per site, the pattern of its defective plaquettes in the all-plus
    state, which only a frame makes nonzero. The periodic 1x1 site keeps
    k = 2 (see `_site_k`)."""
    if spec.is_periodic and spec.side == 1:
        return (0b0011,)
    D = _frame_defects(spec)
    return tuple(sum((D >> p & 1) << s for s, p in enumerate(row))
                 for row in _site_plaquettes(spec.side, spec.is_periodic))


@functools.lru_cache(maxsize=None)
def _row_layout(side):
    """(row, first, rest, relay) over the L x L bits of a code: the bits of
    row 0, the first bit of every row, every bit but the last of a row,
    and per row r > 0 the shifts (r L, r (L + 1)) that move it from the
    code's row stride L to the fixed plaquette grid's L + 1."""
    L = side
    first = sum(1 << (r * L) for r in range(L))
    relay = tuple((r * L, r * (L + 1)) for r in range(1, L))
    return (1 << L) - 1, first, ((1 << L * L) - 1) ^ (first << (L - 1)), relay


def _code_defects(spec, code):
    """Defect bits of the configuration with this code: the frame's defects
    XOR the plaquette masks (`_site_masks`) of its minus sites, by row
    shifts. Site (i, j) lies on plaquettes (i + a, j + b), a, b in {0, 1},
    of a fixed box and (i - a, j - b) of a periodic one. With S the code at
    the plaquette grid's row stride (L + 1 fixed, L periodic), its bit sits
    on plaquette (i, j); T = S ^ (S shifted one column), and T ^ (T
    shifted one row) XORs in all four. Periodic shifts wrap around."""
    L = spec.side
    row, first, rest, relay = _row_layout(L)
    if spec.bc == PERIODIC:
        T = code ^ (code >> 1 & rest) ^ (code & first) << (L - 1)
        return T ^ T >> L ^ (T & row) << (L * (L - 1))
    S = code & row
    for a, b in relay:
        S |= (code >> a & row) << b
    T = S ^ S << 1
    return _frame_defects(spec) ^ T ^ T << (L + 1)


def _check_sites(side):
    """Refuse a box of side L past SITE_BUDGET sites before its (L+2)^2
    frame or any per-site table is built; the count is named as L^2."""
    if side * side > SITE_BUDGET:
        raise BudgetExceededError(f"a box of side {side} has {side}^2 sites,"
                                  f" budget is 2^{SITE_BUDGET.bit_length() - 1}")


def _enum_size(spec):
    """The box's number of configurations, 2^n; past ENUM_BUDGET it raises,
    comparing exponents, so the count is named, never formed."""
    n, budget = spec.n_sites, ENUM_BUDGET.bit_length() - 1
    if n > budget:
        raise BudgetExceededError(f"enumeration needs 2^{n} states, budget is 2^{budget}")
    return 1 << n


def _box_defects(spec):
    """uint64 array whose entry i is `_code_defects(spec, i)`, filled by
    doubling: codes in [2^b, 2^(b+1)) are those below 2^b with site b
    minus, so D[2^b : 2^(b+1)] = D[:2^b] ^ masks[b]."""
    D = np.empty(_enum_size(spec), np.uint64)
    D[0] = _frame_defects(spec)
    for b, m in enumerate(_site_masks(spec.side, spec.is_periodic)):
        D[1 << b : 2 << b] = D[: 1 << b] ^ np.uint64(m)
    return D


class DefectConfig:
    """A +-1 pattern on the plaquette grid (not necessarily realizable),
    held as its defect int `bits`: bit a*n1 + b set where plaquette (a, b)
    is -1, in the layout of `_site_masks`. `plaq` is decoded from the bits
    on each read."""

    __slots__ = ("spec", "bits")

    def __init__(self, spec, plaq):
        arr = _signs(plaq, spec.plaq_shape, "plaquette grid")
        self.spec = spec
        self.bits = _defect_bits(arr == -1)

    @classmethod
    def from_bits(cls, spec, bits):
        """The pattern whose defect int is `bits`, in [0, 2**n_plaquettes)."""
        bits = operator.index(bits)
        if not 0 <= bits < 1 << spec.n_plaquettes:
            raise ValueError(f"defect bits {bits} outside [0, 2**{spec.n_plaquettes})")
        obj = object.__new__(cls)
        obj.spec, obj.bits = spec, bits
        return obj

    @property
    def plaq(self):
        """Read-only int8 array of the plaquette variables, of plaq_shape."""
        shape = self.spec.plaq_shape
        return np.frombuffer(_code_bytes(self.bits, shape[0] * shape[1]), np.int8).reshape(shape)

    @property
    def count(self):
        return self.bits.bit_count()

    def defects(self):
        """Defect coordinates, sorted ascending by (x1, x2)."""
        n1 = self.spec.plaq_shape[1]
        return [divmod(t, n1) for t, bit in enumerate(bin(self.bits)[:1:-1]) if bit == "1"]

    def value(self, x):
        a, b = self.spec.plaq_shape
        if not (0 <= x[0] < a and 0 <= x[1] < b):
            raise ValueError(f"plaquette {x} outside the {a}x{b} plaquette grid")
        return 1 - 2 * (self.bits >> int(x[0] * b + x[1]) & 1)

    def __eq__(self, other):
        return (isinstance(other, DefectConfig)
                and (self.spec, self.bits) == (other.spec, other.bits))

    def __hash__(self):
        return hash((self.spec._key, self.bits))


def defect_map(cfg):
    """The defect picture of a spin configuration."""
    return DefectConfig.from_bits(cfg.spec, _code_defects(cfg.spec, cfg.code))


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
    """Whether a plaquette pattern satisfies the row/column product identities:
    a flip toggles two plaquettes in each plaquette row and column it
    touches, so a realizable pattern has the line products of the frame's
    defects (the four frame spins at the line's ends, +1 on periodic boxes).
    """
    plaq = pattern.plaq if isinstance(pattern, DefectConfig) else np.asarray(pattern)
    if plaq.shape != spec.plaq_shape:
        raise ValueError(f"pattern must have shape {spec.plaq_shape}")
    rel = plaq * DefectConfig.from_bits(spec, _frame_defects(spec)).plaq
    return bool(np.all(rel.prod(axis=0) == 1) and np.all(rel.prod(axis=1) == 1))


def invert_defects(spec, pattern, anchor=None):
    """Reconstruct a spin configuration from a parity-valid defect pattern.

    Both boundaries fill one grid whose column 0 and row 0 are given:
    grid[i, j] = grid[0, 0] * grid[i, 0] * grid[0, j] times the product of
    the plaquettes strictly below and to the left. On a fixed box that
    grid is the frame's lower-left part, with the sites at [1:L]^2, so the
    inverse is unique. On a periodic box it is the spin array itself, and
    the fibre has one element per `anchor`: a pair (col0, row0) of +-1
    arrays of length L, the spins on column 0 and row 0, agreeing at
    their shared site (0,0), and all +1 by default.
    """
    d = pattern if isinstance(pattern, DefectConfig) else DefectConfig(spec, pattern)
    if not parity_check(spec, d):
        raise ValueError("defect pattern violates the parity identities")
    L = spec.side
    if not spec.is_periodic:
        if anchor is not None:
            raise ValueError("anchor applies only to periodic boxes")
        grid = spec.frame_template()[: L + 1, : L + 1]
    else:
        grid = np.ones((L, L), dtype=np.int8)
        if anchor is not None:
            col0 = _signs(anchor[0], (L,), "anchor column")
            row0 = _signs(anchor[1], (L,), "anchor row")
            if col0[0] != row0[0]:
                raise ValueError("anchor column and row disagree at site (0,0)")
            grid[0, :], grid[:, 0] = col0, row0
    n = len(grid)
    cum = np.ones((n, n), dtype=np.int8)
    cum[1:, 1:] = np.cumprod(np.cumprod(d.plaq[: n - 1, : n - 1], axis=0), axis=1)
    spins = grid[0, 0] * np.outer(grid[:, 0], grid[0, :]) * cum
    return SpinConfig(spec, spins[n - L :, n - L :])


def enumerate_configs(spec):
    """Every configuration of the box, in code order."""
    return [SpinConfig.from_code(spec, i) for i in range(_enum_size(spec))]


def count_by_defect_number(spec):
    """Exhaustive histogram {defect count: number of configurations}."""
    binc = np.bincount(np.bitwise_count(_box_defects(spec)))
    return {int(k): int(v) for k, v in enumerate(binc) if v > 0}


def enumerate_by_defect_count(spec, count):
    """All configurations with exactly `count` defects, in code order."""
    sel = np.flatnonzero(np.bitwise_count(_box_defects(spec)) == count)
    return [SpinConfig.from_code(spec, i) for i in sel.tolist()]


def ground_states(spec):
    """All zero-defect configurations.

    Plus boundary: the all-plus state, and nothing else. Periodic: the
    2^(2L-1) states sigma[i, j] = a[i] * b[j] over sign vectors a, b
    with a[0] fixed to +1. General fixed frames: exhaustive search.
    """
    if spec.bc == PLUS:
        return [SpinConfig.all_plus(spec)]
    if spec.is_periodic:
        signs = list(itertools.product((1, -1), repeat=spec.side))
        return [SpinConfig(spec, np.outer(a, b)) for b in signs for a in signs if a[0] == 1]
    return enumerate_by_defect_count(spec, 0)


def critical_length(beta):
    """floor(exp(beta / 2)), the length scale the scaling results live at.
    ValueError where exp(beta / 2) overflows a float."""
    try:
        return int(math.floor(math.exp(beta / 2.0)))
    except OverflowError:
        raise ValueError(f"critical length exp(beta/2) overflows at beta {beta!r}") from None


def defect_pattern_count_bound(spec, two_k):
    """Counting bound for configurations with exactly 2k defects.

    Fixed boundary on [1:L]^2: min{(e k)^(2k) L^(2k), L^(3k)}. Periodic
    boxes carry the extra prefactor 2^(2Lp+1) with Lp = side - 1, from
    the free choice of spins on one row and one column.
    """
    if two_k % 2 != 0:
        raise ValueError("defect counts are even")
    k = two_k // 2
    Lp = spec.side - 1 if spec.is_periodic else spec.side
    prefix = 2.0 ** (2 * Lp + 1) if spec.is_periodic else 1.0
    return prefix * min((math.e * k) ** (2 * k) * float(Lp) ** (2 * k), float(Lp) ** (3 * k))


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
