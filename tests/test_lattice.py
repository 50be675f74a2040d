"""Geometry, parity, enumeration, and counting-bound tests.

Pinned constants come from tests/oracles/gen_small_oracles.py, which
recomputes everything from raw arrays without importing this package.
"""

import math
import random
import tracemalloc

import numpy as np
import pytest

from plaquette import lattice
from plaquette.lattice import (
    FIXED,
    PERIODIC,
    PLUS,
    BudgetExceededError,
    DefectConfig,
    LatticeSpec,
    Rectangle,
    SpinConfig,
    count_by_defect_number,
    critical_length,
    defect_count,
    defect_map,
    defect_pattern_count_bound,
    enumerate_configs,
    ground_states,
    hamiltonian,
    invert_defects,
    log_relative_weight,
    parity_check,
    reading_order_key,
    relative_weight,
    _box_defects,
    _code_bytes,
    _code_defects,
    _defect_bits,
    _enum_size,
    _frame_defects,
    _plaquettes,
    _site_flat,
    _site_masks,
)

HIST_L2_PLUS = {0: 1, 4: 9, 6: 6}
HIST_L3_PLUS = {0: 1, 4: 36, 6: 96, 8: 246, 10: 96, 12: 36, 16: 1}
HIST_TORUS3 = {0: 32, 4: 288, 6: 192}


def random_config(spec, rng):
    bits = rng.integers(0, 2, size=(spec.side, spec.side))
    return SpinConfig(spec, 1 - 2 * bits)


def test_single_flip_defect_block():
    spec = LatticeSpec(2, PLUS)
    cfg = SpinConfig.all_plus(spec).flip([(1, 1)])
    assert set(defect_map(cfg).defects()) == {(0, 0), (1, 0), (0, 1), (1, 1)}


def test_overlapping_flips_cancel():
    # blocks of (1,1) and (2,2) share plaquette (1,1), toggled twice
    spec = LatticeSpec(2, PLUS)
    cfg = SpinConfig.all_plus(spec).flip([(1, 1), (2, 2)])
    assert set(defect_map(cfg).defects()) == {
        (0, 0), (1, 0), (0, 1), (2, 1), (1, 2), (2, 2),
    }


def test_periodic_flip_wraps():
    spec = LatticeSpec(3, PERIODIC)
    cfg = SpinConfig.all_plus(spec).flip([(0, 0)])
    assert set(defect_map(cfg).defects()) == {(0, 0), (2, 0), (0, 2), (2, 2)}


def test_reading_order():
    spec = LatticeSpec(2, PLUS)
    assert sorted(spec.sites(), key=reading_order_key) == [
        (1, 2), (2, 2), (1, 1), (2, 1),
    ]


def test_text_roundtrip_orientation():
    spec = LatticeSpec(2, PLUS)
    cfg = SpinConfig.all_plus(spec).flip([(1, 1)])
    assert cfg.to_text() == "++\n-+"
    assert SpinConfig.from_text(spec, cfg.to_text()) == cfg


def test_text_roundtrip_random():
    rng = np.random.default_rng(0)
    for spec in (LatticeSpec(4, PLUS), LatticeSpec(4, PERIODIC)):
        for _ in range(25):
            cfg = random_config(spec, rng)
            assert SpinConfig.from_text(spec, cfg.to_text()) == cfg


def test_hamiltonian_and_weight():
    spec = LatticeSpec(3, PLUS)
    cfg = SpinConfig.all_plus(spec)
    n_plaq = 16
    assert hamiltonian(cfg) == -n_plaq / 2.0
    rng = np.random.default_rng(1)
    for _ in range(20):
        cfg = random_config(spec, rng)
        n = defect_count(cfg)
        assert hamiltonian(cfg) == -n_plaq / 2.0 + n
        assert relative_weight(cfg, 1.3) == pytest.approx(math.exp(-1.3 * n), rel=1e-12)


def test_parity_holds_on_every_reachable_pattern():
    for spec in (LatticeSpec(2, PLUS), LatticeSpec(2, PERIODIC)):
        for cfg in enumerate_configs(spec):
            assert parity_check(spec, defect_map(cfg))


def test_parity_rejects_single_defect():
    spec = LatticeSpec(2, PLUS)
    p = np.ones((3, 3), dtype=np.int8)
    p[1, 1] = -1
    assert not parity_check(spec, p)


def test_parity_respects_fixed_frame():
    # a frame with one minus spin flips the sign targets of two rows/cols
    theta = np.ones((4, 4), dtype=np.int8)
    theta[0, 1] = -1
    spec = LatticeSpec(2, FIXED, theta=theta)
    cfg = SpinConfig.all_plus(spec)
    d = defect_map(cfg)
    assert d.count == 2
    assert parity_check(spec, d)


def test_invert_defects_bijection_L3():
    spec = LatticeSpec(3, PLUS)
    seen = set()
    for cfg in enumerate_configs(spec):
        d = defect_map(cfg)
        assert invert_defects(spec, d) == cfg
        seen.add(d.plaq.tobytes())
    assert len(seen) == 512


def test_invert_defects_periodic_fibre():
    spec = LatticeSpec(3, PERIODIC)
    zero = np.ones((3, 3), dtype=np.int8)
    found = set()
    for a in range(4):
        col0 = np.array([1, 1 - 2 * (a & 1), 1 - 2 * ((a >> 1) & 1)], dtype=np.int8)
        for b in range(4):
            row0 = np.array([1, 1 - 2 * (b & 1), 1 - 2 * ((b >> 1) & 1)], dtype=np.int8)
            cfg = invert_defects(spec, zero, anchor=(col0, row0))
            assert defect_map(cfg).count == 0
            found.add(cfg.spins.tobytes())
    # anchors with spin (0,0) pinned to +1 give half the ground manifold
    assert len(found) == 16
    assert found <= {g.spins.tobytes() for g in ground_states(spec)}


def test_invert_defects_rejects_bad_parity():
    spec = LatticeSpec(2, PLUS)
    p = np.ones((3, 3), dtype=np.int8)
    p[0, 0] = -1
    with pytest.raises(ValueError):
        invert_defects(spec, p)


def test_defect_histograms_pinned():
    assert count_by_defect_number(LatticeSpec(2, PLUS)) == HIST_L2_PLUS
    assert count_by_defect_number(LatticeSpec(3, PLUS)) == HIST_L3_PLUS
    assert count_by_defect_number(LatticeSpec(3, PERIODIC)) == HIST_TORUS3


def test_no_two_defect_states():
    assert count_by_defect_number(LatticeSpec(3, PLUS)).get(2, 0) == 0
    assert count_by_defect_number(LatticeSpec(4, PLUS)).get(2, 0) == 0
    assert count_by_defect_number(LatticeSpec(3, PERIODIC)).get(2, 0) == 0


def test_four_defect_states_are_rectangles():
    spec = LatticeSpec(3, PLUS)
    for cfg in enumerate_configs(spec):
        d = defect_map(cfg)
        if d.count != 4:
            continue
        pts = d.defects()
        cols = sorted({x for x, _ in pts})
        rows = sorted({y for _, y in pts})
        assert len(cols) == 2 and len(rows) == 2
        assert set(pts) == {(c, r) for c in cols for r in rows}


def test_counting_bound_formula():
    spec = LatticeSpec(3, PLUS)
    hist = count_by_defect_number(spec)
    for n, cnt in hist.items():
        if n:
            assert cnt <= defect_pattern_count_bound(spec, n)
    with pytest.raises(ValueError):
        defect_pattern_count_bound(spec, 3)


def test_counting_bound_periodic_prefix():
    spec = LatticeSpec(3, PERIODIC)
    hist = count_by_defect_number(spec)
    assert defect_pattern_count_bound(spec, 0) == 2.0 ** 5
    for n, cnt in hist.items():
        assert cnt <= defect_pattern_count_bound(spec, n)


def test_ground_states_counts():
    assert len(ground_states(LatticeSpec(3, PLUS))) == 1
    assert len(ground_states(LatticeSpec(2, PERIODIC))) == 8
    assert len(ground_states(LatticeSpec(3, PERIODIC))) == 32
    assert len(ground_states(LatticeSpec(4, PERIODIC))) == 128


def test_ground_states_are_rank_one():
    for g in ground_states(LatticeSpec(3, PERIODIC)):
        s = g.spins
        assert defect_map(g).count == 0
        assert np.array_equal(np.outer(s[:, 0] * s[0, 0], s[0, :]), s)


def test_critical_length_values():
    assert critical_length(0.0) == 1
    assert critical_length(2.0) == 2
    assert critical_length(2.2) == 3
    assert critical_length(3.0) == 4
    assert critical_length(3.5) == 5
    assert critical_length(1419.0) > 10 ** 300
    with pytest.raises(ValueError, match=r"^critical length exp\(beta/2\) overflows at beta 1500$"):
        critical_length(1500)


def test_rectangle_corners_and_block():
    R = Rectangle.from_corners(1, 3, 0, 2)
    assert R.corners == ((1, 0), (3, 0), (1, 2), (3, 2))
    assert R.flip_sites() == [
        (2, 1), (2, 2), (3, 1), (3, 2),
    ]
    with pytest.raises(ValueError):
        Rectangle.from_corners(3, 1, 0, 2)


def test_rectangle_sort_key_order():
    # ordered by top row first, then left column, bottom row, right column
    a = Rectangle.from_corners(0, 1, 0, 2)
    b = Rectangle.from_corners(0, 1, 0, 3)
    c = Rectangle.from_corners(1, 2, 0, 2)
    assert sorted([c, b, a]) == [a, c, b]


def test_flip_rectangle_block_toggles_corners():
    rng = np.random.default_rng(5)
    spec = LatticeSpec(5, PLUS)
    for _ in range(40):
        cfg = random_config(spec, rng)
        x1, y1 = rng.integers(0, 4, size=2)
        x2 = int(rng.integers(x1 + 1, 6))
        y2 = int(rng.integers(y1 + 1, 6))
        R = Rectangle.from_corners(int(x1), x2, int(y1), y2)
        before = set(defect_map(cfg).defects())
        after = set(defect_map(cfg.flip(R.flip_sites())).defects())
        assert after == before.symmetric_difference(R.corners)


def codec_specs(L):
    """Plus, periodic and a non-plus fixed frame of side L."""
    theta = np.ones((L + 2, L + 2), dtype=np.int8)
    theta[0, 1] = theta[L + 1, L] = -1
    return (LatticeSpec(L, PLUS), LatticeSpec(L, PERIODIC), LatticeSpec(L, FIXED, theta=theta))


def padded_spins(cfg):
    """The array the spin product `_plaquettes` takes: the spins inside
    their frame on a fixed box, the spins alone on a periodic one."""
    if cfg.spec.is_periodic:
        return cfg.spins
    out = cfg.spec.frame_template().copy()
    out[1:-1, 1:-1] = cfg.spins
    return out


def test_code_is_the_enumeration_index():
    # decode, encode and the code's defect ints, one by one and for the
    # whole box, against the enumeration and the spin product, for every
    # configuration; spin t of code i is minus exactly where bit t is set
    for L in (1, 2, 3):
        for spec in codec_specs(L):
            cfgs = enumerate_configs(spec)
            assert len(cfgs) == 1 << spec.n_sites
            box = _box_defects(spec)
            assert box.dtype == np.uint64 and box.size == len(cfgs)
            for i, cfg in enumerate(cfgs):
                assert SpinConfig.from_code(spec, i) == cfg
                assert cfg.code == i
                bits = [(i >> t) & 1 for t in range(spec.n_sites)]
                assert cfg.spins.ravel().tolist() == [1 - 2 * b for b in bits]
                D = _defect_bits(_plaquettes(spec, padded_spins(cfg)) == -1)
                assert _code_defects(spec, i) == D
                assert int(box[i]) == D


def xor_walk_defects(spec, code):
    """The defect int by one XOR of its plaquette mask per minus site, as
    `_code_defects` formed it before the row shifts."""
    D = _frame_defects(spec)
    masks = _site_masks(spec.side, spec.is_periodic)
    while code:
        low = code & -code
        D ^= masks[low.bit_length() - 1]
        code ^= low
    return D


def test_code_defects_by_row_shifts_match_the_xor_walk():
    # every code at L <= 3 on plus, periodic and a broken frame; at L = 5,
    # 16 and 64 every single minus site, all minus and 200 random codes
    for L in (1, 2, 3):
        for spec in codec_specs(L):
            for code in range(1 << spec.n_sites):
                assert _code_defects(spec, code) == xor_walk_defects(spec, code), (spec, code)
    rng = random.Random(11)
    for L in (5, 16, 64):
        for spec in codec_specs(L):
            n = spec.n_sites
            codes = [1 << t for t in range(n)] + [(1 << n) - 1]
            codes += [rng.getrandbits(n) for _ in range(200)]
            for code in codes:
                assert _code_defects(spec, code) == xor_walk_defects(spec, code), (spec, code)


def test_spin_config_holds_its_code():
    # for every configuration: decode and encode against an array built bit
    # by bit, equality and hashing against the spin bytes, and flip and
    # site_value against array arithmetic
    for L in (1, 2, 3):
        for spec in codec_specs(L):
            n = spec.n_sites
            arrays = [np.array([1 - 2 * (c >> t & 1) for t in range(n)], np.int8).reshape(L, L)
                      for c in range(1 << n)]
            cfgs = [SpinConfig.from_code(spec, c) for c in range(1 << n)]
            for c, (arr, cfg) in enumerate(zip(arrays, cfgs)):
                assert cfg.spins.tobytes() == _code_bytes(c, n) == arr.tobytes()
                assert cfg.spins.dtype == np.int8 and cfg.spins.shape == (L, L)
                built = SpinConfig(spec, arr)
                assert built.code == c and built == cfg and hash(built) == hash(cfg)
                for x in spec.sites():
                    i, j = divmod(_site_flat(spec, x), L)
                    assert cfg.site_value(x) == arr[i, j]
                    flipped = arr.copy()
                    flipped[i, j] *= -1
                    assert cfg.flip([x]) == SpinConfig(spec, flipped)
                    assert cfg.flip([x]).code == c ^ (1 << (i * L + j))
                assert cfg.flip(spec.sites()) == SpinConfig(spec, -arr)
            assert len(set(cfgs) | {SpinConfig(spec, a) for a in arrays}) == 1 << n
            raw = [cfg.spins.tobytes() for cfg in cfgs]
            for a in range(1 << n):
                for b in range(a, 1 << n):
                    same = raw[a] == raw[b]
                    assert (cfgs[a] == cfgs[b]) == same
                    assert hash(cfgs[a]) == hash(cfgs[b]) or not same
    plus, per, framed = codec_specs(2)
    assert len({SpinConfig.from_code(s, 5) for s in (plus, per, framed)}) == 3
    assert SpinConfig.from_code(plus, 5) != SpinConfig.from_code(per, 5)


def test_spins_are_a_read_only_decode_of_the_code():
    cfg = SpinConfig.from_code(LatticeSpec(3, PLUS), 0b101)
    assert not cfg.spins.flags.writeable
    with pytest.raises(ValueError):
        cfg.spins[0, 0] = -1
    assert cfg.code == 0b101 and SpinConfig.__slots__ == ("spec", "code")
    assert not hasattr(SpinConfig, "_from_frozen") and not hasattr(lattice, "_site_index")


def test_defect_map_holds_its_defect_int():
    # for every configuration: the map against the spin product over the
    # padded spins, through plaq, bits, count, defects() and value;
    # equality and hashing against the plaquette bytes, pairwise; the
    # array constructor and from_bits round-trip
    for L in (1, 2, 3):
        for spec in codec_specs(L):
            maps, raw = [], []
            for cfg in enumerate_configs(spec):
                p = _plaquettes(spec, padded_spins(cfg))
                d = defect_map(cfg)
                assert d.plaq.dtype == np.int8 and d.plaq.shape == p.shape == spec.plaq_shape
                assert d.plaq.tobytes() == p.tobytes() and not d.plaq.flags.writeable
                assert d.bits == sum(1 << t for t, v in enumerate(p.ravel().tolist()) if v == -1)
                assert d.count == int(np.count_nonzero(p == -1))
                assert d.defects() == sorted(zip(*np.nonzero(p == -1)))
                assert all(type(a) is int for x in d.defects() for a in x)
                assert all(d.value(x) == p[x] for x in np.ndindex(p.shape))
                built = DefectConfig(spec, p)
                assert built.bits == d.bits and built == d and hash(built) == hash(d)
                assert DefectConfig.from_bits(spec, d.bits) == d
                maps.append(d)
                raw.append(p.tobytes())
            for a in range(len(maps)):
                for b in range(a, len(maps)):
                    same = raw[a] == raw[b]
                    assert (maps[a] == maps[b]) == same
                    assert hash(maps[a]) == hash(maps[b]) or not same
    plus, per, framed = codec_specs(2)
    assert DefectConfig.from_bits(plus, 0) != DefectConfig.from_bits(framed, 0)
    assert DefectConfig.from_bits(plus, 0) != DefectConfig.from_bits(per, 0)


def test_defect_maps_are_read_only_and_hold_only_their_bits():
    spec = LatticeSpec(3, PLUS)
    d = defect_map(SpinConfig.all_plus(spec).flip([(2, 2)]))
    with pytest.raises(ValueError):
        d.plaq[1, 1] = 1
    assert d.bits == 0b110011 << 5 and d.defects() == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert DefectConfig.__slots__ == ("spec", "bits")
    assert not hasattr(DefectConfig, "_from_frozen") and not hasattr(SpinConfig, "padded")
    for bits in (-1, 1 << 16):
        with pytest.raises(ValueError, match=r"^defect bits -?\d+ outside \[0, 2\*\*16\)$"):
            DefectConfig.from_bits(spec, bits)
    with pytest.raises(ValueError, match=r"^plaquette \(4, 0\) outside the 4x4 plaquette grid$"):
        d.value((4, 0))


def test_random_draws_the_array_construction():
    # one (L, L) block of bits per draw, packed into the code, leaves the
    # configurations and the Generator stream of 1 - 2 * bits unchanged
    for L in (1, 2, 3, 5, 64):
        for spec in (LatticeSpec(L, PLUS), LatticeSpec(L, PERIODIC)):
            rng, ref = np.random.default_rng(L), np.random.default_rng(L)
            for _ in range(20):
                cfg = SpinConfig.random(spec, rng)
                assert cfg == SpinConfig(spec, 1 - 2 * ref.integers(0, 2, (L, L)))
            assert rng.random() == ref.random()


def test_enumeration_budget():
    with pytest.raises(BudgetExceededError):
        count_by_defect_number(LatticeSpec(5, PLUS))
    # the count is named by its exponent: 2^14400 has 4335 digits, past
    # the 4300 that int-to-str conversion allows
    with pytest.raises(BudgetExceededError,
                       match=r"^enumeration needs 2\^14400 states, budget is 2\^20$"):
        _enum_size(LatticeSpec(120))
    assert _enum_size(LatticeSpec(4, PERIODIC)) == 1 << 16
    assert lattice.ENUM_BUDGET == 1 << 20


def test_site_budget():
    # a simulated box is held to SITE_BUDGET sites from its side alone, so
    # the (L+2)^2 frame of a huge box is never built
    assert lattice.SITE_BUDGET == 1 << 20
    lattice._check_sites(1024)
    for L in (1025, 3269017, 10**100):
        with pytest.raises(BudgetExceededError,
                           match=rf"^a box of side {L} has {L}\^2 sites, budget is 2\^20$"):
            lattice._check_sites(L)


@pytest.mark.parametrize("bc", [PLUS, PERIODIC, FIXED])
def test_every_box_is_held_to_the_site_budget_before_its_frame_is_built(bc):
    # a plus box used to allocate its (L+2)^2 frame (MemoryError at side
    # 3269017), and a periodic one was built and refused only by the CLI
    def frame(side):
        return np.ones((side + 2, side + 2), np.int8) if bc == FIXED else None

    LatticeSpec(1024, bc, frame(1024))  # the largest side within the budget
    L = 1025
    theta = frame(L)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError,
                           match=rf"^a box of side {L} has {L}\^2 sites, budget is 2\^20$"):
            LatticeSpec(L, bc, theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (L + 2) ** 2 // 4, peak


def test_site_bounds_checked():
    spec = LatticeSpec(3, PLUS)
    cfg = SpinConfig.all_plus(spec)
    with pytest.raises(ValueError):
        cfg.flip([(0, 1)])
    with pytest.raises(ValueError):
        cfg.flip([(1, 4)])
    per = SpinConfig.all_plus(LatticeSpec(3, PERIODIC))
    with pytest.raises(ValueError):
        per.flip([(3, 0)])


def test_lattice_spec_refuses_bad_geometry():
    frame = np.ones((5, 5), np.int8)
    cases = [
        (lambda: LatticeSpec(0), "side must be a positive integer, got 0"),
        (lambda: LatticeSpec(3, "moebius"), "unknown boundary condition 'moebius'"),
        (lambda: LatticeSpec(3, PERIODIC, theta=frame),
         "periodic boxes take no boundary frame"),
        (lambda: LatticeSpec(3, FIXED), "bc='fixed' requires a theta frame"),
        (lambda: LatticeSpec(3, FIXED, theta=np.ones((4, 4))),
         r"theta must have shape \(5, 5\), got \(4, 4\)"),
        (lambda: LatticeSpec(3, FIXED, theta=2 * frame), r"theta must be \+-1"),
        (lambda: LatticeSpec(3, PERIODIC).frame_template(), "periodic boxes have no frame"),
    ]
    for make, message in cases:
        with pytest.raises(ValueError, match=f"^{message}$"):
            make()


def test_validating_constructors_refuse_bad_arrays():
    spec = LatticeSpec(3, PLUS)
    assert SpinConfig(spec, -np.ones((3, 3))) == SpinConfig.all_minus(spec)
    with pytest.raises(ValueError, match=r"^spins must have shape \(3, 3\), got \(2, 3\)$"):
        SpinConfig(spec, np.ones((2, 3)))
    with pytest.raises(ValueError, match=r"^spins must be \+-1$"):
        SpinConfig(spec, np.zeros((3, 3)))
    with pytest.raises(ValueError, match="^expected 3 rows of 3 characters$"):
        SpinConfig.from_text(spec, "+++\n+++\n")
    assert DefectConfig(spec, np.ones((4, 4))).count == 0
    with pytest.raises(ValueError,
                       match=r"^plaquette grid must have shape \(4, 4\), got \(3, 3\)$"):
        DefectConfig(spec, np.ones((3, 3)))
    with pytest.raises(ValueError, match=r"^plaquette grid must be \+-1$"):
        DefectConfig(spec, np.zeros((4, 4)))
    with pytest.raises(ValueError, match=r"^pattern must have shape \(4, 4\)$"):
        parity_check(spec, np.ones((3, 3)))


def test_sign_arrays_are_checked_before_the_int8_cast():
    # 255 wrapped to -1 and 257 to +1 in the cast, 1.7 and -1.9 were
    # truncated to +-1, 1.0000001 to +1, and True and 1+0j read as +1; the
    # anchor was not checked
    plus, per = LatticeSpec(1, PLUS), LatticeSpec(2, PERIODIC)
    makers = {
        "theta": lambda v: LatticeSpec(1, FIXED, np.full((3, 3), v)),
        "spins": lambda v: SpinConfig(plus, np.full((1, 1), v)),
        "plaquette grid": lambda v: DefectConfig(plus, np.full((2, 2), v)),
        "anchor column": lambda v: invert_defects(per, np.ones((2, 2)),
                                                  anchor=(np.full(2, v), np.ones(2))),
    }
    bad = [np.uint8(255), 255, 257, 1.7, -1.9, 1.0000001, 0, 0.5, np.nan, np.inf, -2, True,
           1 + 0j]
    for what, make in makers.items():
        for value in bad:
            with pytest.raises(ValueError, match=rf"^{what} must be \+-1$"):
                make(value)
    with pytest.raises(ValueError, match=r"^spins must be \+-1$"):
        SpinConfig(LatticeSpec(2, PLUS), [[1, 1], [1, 1.0000001]])
    with pytest.raises(ValueError, match=r"^anchor row must be \+-1$"):
        invert_defects(per, np.ones((2, 2)), anchor=(np.ones(2), np.array([1, 255], np.uint8)))
    with pytest.raises(ValueError, match=r"^anchor column must have shape \(2,\), got \(3,\)$"):
        invert_defects(per, np.ones((2, 2)), anchor=(np.ones(3), np.ones(2)))


def test_valid_sign_arrays_give_the_same_code_whatever_their_dtype():
    rng = np.random.default_rng(5)
    for L, bc in ((1, PLUS), (3, PLUS), (3, PERIODIC), (4, FIXED)):
        frame = rng.choice([-1, 1], size=(L + 2, L + 2)) if bc == FIXED else None
        specs = [LatticeSpec(L, bc, None if frame is None else frame.astype(dtype))
                 for dtype in (np.int8, np.int64, float)]
        assert specs[0] == specs[1] == specs[2]
        spec = specs[0]
        for _ in range(5):
            spins = rng.choice([-1, 1], size=(L, L))
            cfgs = [SpinConfig(spec, spins.astype(dtype)) for dtype in (np.int8, np.int64, float)]
            cfgs.append(SpinConfig(spec, spins.tolist()))
            code = sum(1 << t for t, v in enumerate(spins.ravel()) if v == -1)
            assert all(cfg.code == code for cfg in cfgs)
            d = defect_map(cfgs[0])
            plaq = d.plaq
            assert all(DefectConfig(spec, plaq.astype(dtype)) == d
                       for dtype in (np.int8, np.int64, float))
            if bc == PERIODIC:
                col0, row0 = spins[0, :], spins[:, 0]
                backs = [invert_defects(spec, d, anchor=(col0.astype(dtype), row0.astype(dtype)))
                         for dtype in (np.int8, np.int64, float)]
                assert all(back == cfgs[0] for back in backs)


def test_invert_defects_anchors_and_refusals():
    plus, per = LatticeSpec(3, PLUS), LatticeSpec(3, PERIODIC)
    ones = np.ones(3, np.int8)
    with pytest.raises(ValueError, match="^anchor applies only to periodic boxes$"):
        invert_defects(plus, np.ones((4, 4)), anchor=(ones, ones))
    with pytest.raises(ValueError, match=r"^anchor row must have shape \(3,\), got \(2,\)$"):
        invert_defects(per, np.ones((3, 3)), anchor=(ones, ones[:2]))
    with pytest.raises(ValueError, match=r"^anchor column and row disagree at site \(0,0\)$"):
        invert_defects(per, np.ones((3, 3)), anchor=(ones, -ones))
    lone = np.ones((3, 3))
    lone[1, 1] = -1  # one defect: every row and column product must be +1
    with pytest.raises(ValueError, match="^defect pattern violates the parity identities$"):
        invert_defects(per, lone)
    # the default anchor puts +1 on column 0 and row 0
    cfg = SpinConfig.all_plus(per).flip([(1, 1)])
    back = invert_defects(per, defect_map(cfg))
    assert defect_map(back) == defect_map(cfg)
    assert np.all(back.spins[0, :] == 1) and np.all(back.spins[:, 0] == 1)


def _periodic_patterns(L):
    """Every parity-valid periodic pattern: any block on plaquettes
    [0:L-2]^2, completed so that each row and column multiplies to +1."""
    n = (L - 1) ** 2
    for bits in range(1 << n):
        block = (1 - 2 * (bits >> np.arange(n) & 1)).reshape(L - 1, L - 1)
        p = np.ones((L, L), np.int8)
        p[: L - 1, : L - 1] = block
        p[: L - 1, L - 1] = block.prod(axis=1)
        p[L - 1, : L - 1] = block.prod(axis=0)
        p[L - 1, L - 1] = block.prod()
        yield p


def test_invert_defects_realizes_every_parity_valid_pattern():
    # every parity-valid periodic pattern at L <= 4, from the default anchor
    # and two random agreeing ones: the defect map is the pattern, and
    # column 0 and row 0 are the anchor; fixed boxes (plus and a random
    # frame), whose inverse is unique, over every configuration at L <= 3
    rng = np.random.default_rng(27)
    for L in range(1, 5):
        spec = LatticeSpec(L, PERIODIC)
        patterns = list(_periodic_patterns(L))
        assert len({p.tobytes() for p in patterns}) == 2 ** ((L - 1) ** 2)
        for p in patterns:
            assert parity_check(spec, p)
            anchors = [(np.ones(L), np.ones(L))]
            for _ in range(2):
                col0, row0 = 1 - 2 * rng.integers(0, 2, size=(2, L))
                row0[0] = col0[0]
                anchors.append((col0, row0))
            for i, (col0, row0) in enumerate(anchors):
                cfg = invert_defects(spec, p, anchor=None if i == 0 else (col0, row0))
                assert np.array_equal(defect_map(cfg).plaq, p)
                assert np.array_equal(cfg.spins[0, :], col0)
                assert np.array_equal(cfg.spins[:, 0], row0)
    for L in range(1, 4):
        theta = (1 - 2 * rng.integers(0, 2, size=(L + 2, L + 2))).astype(np.int8)
        for spec in (LatticeSpec(L, PLUS), LatticeSpec(L, FIXED, theta=theta)):
            for cfg in enumerate_configs(spec):
                assert invert_defects(spec, defect_map(cfg)) == cfg


def test_log_relative_weight_needs_a_plus_frame():
    L = 2
    theta = np.ones((L + 2, L + 2), np.int8)
    theta[0, 0] = -1
    cfg = SpinConfig.all_plus(LatticeSpec(L, FIXED, theta=theta))
    with pytest.raises(ValueError, match="^unsupported normalization reference: boundary"
                                         " frame is not all-plus$"):
        log_relative_weight(cfg, 1.0)
    assert log_relative_weight(SpinConfig.all_minus(LatticeSpec(L, PLUS)), 1.5) == -1.5 * 4
