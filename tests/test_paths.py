"""Rectangle removal paths, splits, occupancy classes, and flow bounds."""

import bisect
import collections
import hashlib
import gc
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from plaquette.lattice import (
    FIXED,
    PERIODIC,
    PLUS,
    BudgetExceededError,
    LatticeSpec,
    Rectangle,
    SpinConfig,
    defect_map,
    invert_defects,
    reading_order_key,
    _code_bytes,
    _code_defects,
    _site_codec,
    _site_flat,
    _site_k,
    _site_masks,
)
from plaquette.paths import (
    CanonicalPath,
    EdgeRef,
    PartitionViolation,
    PathSamplingError,
    classify_occupancy,
    compute_split,
    defect_neighbours,
    edge_type,
    extended_rectangles,
    flow_cost,
    flow_report_csv,
    good_rectangles,
    identify_split,
    mirror_config,
    mirror_rectangle,
    naive_path,
    occupancy_vector,
    rectangle_removal_path,
    sample_full_path,
    sample_partial_path,
    _block,
    _box_segments,
    _flow_tables,
    _lines,
    _pool,
    _segments,
    _split,
    _sweep,
)
from plaquette.exact import build_generator, spectral_gap, spectral_profile
from plaquette.dynamics import RateModel

# independent dense-eigensolver values (tests/oracles/gen_small_oracles.py)
GAP_L2_BETA1 = 0.2847662422089848
GAP_L2_BETA2 = 0.050965672292375516
GAP_L3_BETA1 = 0.1542219403486512

# regression pins for the flow constants themselves
FLOW_L2_BETA1 = 70.61244879144519

# exhaustive plus-box flows, (L, beta, level) -> cost, edge count, the
# congestion and report digests of flow_digests, and the heaviest edge as
# (state code, site)
FLOW_PINS = {
    (2, 1.0, 1): (70.61244879144519, 39, "c3042ee4af6cca48", "f3e80b05f0c32989", (13, (2, 2))),
    (3, 1.0, 1): (436.477575655193, 3144, "aa12a827c55c4047", "3793c6f5cd534713", (219, (1, 2))),
    (3, 1.0, 2): (436.477575655193, 3144, "aa12a827c55c4047", "3793c6f5cd534713", (219, (1, 2))),
    (3, 2.0, 1): (1794.8911910125098, 3156, "346ba252c7873daf", "c50d047bb5c440dc",
                  (219, (1, 2))),
}

# the same for L = 3, level 1 at split threshold c = 2, where a part can
# cover a column band, by beta; pinned from the list kernel
FLOW_PINS_C2 = {
    1.0: (453.558830905748, 1689, "6392d633590a7ab1", "fc254d6d5ffecf71"),
    2.0: (1797.1415336637365, 1717, "f074e99dcb1512c9", "2940fec9db6740ec"),
}


def random_config(spec, rng):
    bits = rng.integers(0, 2, size=(spec.side, spec.side))
    return SpinConfig(spec, 1 - 2 * bits)


def config_with_defects(spec, defects):
    p = np.ones(spec.plaq_shape, dtype=np.int8)
    for x, y in defects:
        p[x, y] = -1
    return invert_defects(spec, p)


def heaviest_edge(res):
    """FlowResult.edge as (state code, site)."""
    return res.edge.e_minus.code, res.edge.site


def flow_digests(res):
    """sha256 prefixes of the congestion entries, sorted by state key bytes,
    and of the CSV report."""
    n = res.edge.e_minus.spec.n_sites
    entries = sorted((_code_bytes(code, n), s, v) for (code, s), v in res.congestion.items())
    lines = "".join(f"{sb.hex()} {s[0]} {s[1]} {v!r}\n" for sb, s, v in entries)
    return (
        hashlib.sha256(lines.encode()).hexdigest()[:16],
        hashlib.sha256(flow_report_csv(res).encode()).hexdigest()[:16],
    )


def test_walker_codec_matches_the_lattice_kernels():
    # the path walks' (code, D), flipped by XOR through _site_flat and
    # _site_masks, against SpinConfig.flip, SpinConfig.code, defect_map and
    # _site_k after every flip, on plus, non-plus and periodic boxes; flat
    # index t is site spec.sites()[t] and bit t of the code
    rng = np.random.default_rng(12)
    for L in range(2, 6):
        theta = np.ones((L + 2, L + 2), dtype=np.int8)
        theta[0, 1] = theta[L + 1, 2] = theta[3, 0] = -1
        for spec in (LatticeSpec(L, PLUS), LatticeSpec(L, FIXED, theta=theta),
                     LatticeSpec(L, PERIODIC)):
            sites = spec.sites()
            assert [_site_flat(spec, x) for x in sites] == list(range(L * L))
            assert _site_codec(L, spec.is_periodic)[0] == tuple(sites)
            masks = _site_masks(L, spec.is_periodic)
            cfg = random_config(spec, rng)
            code = cfg.code
            D = _code_defects(spec, code)
            for _ in range(60):
                x = sites[int(rng.integers(len(sites)))]
                t = _site_flat(spec, x)
                code ^= 1 << t
                D ^= masks[t]
                cfg = cfg.flip([x])
                d = defect_map(cfg)
                k = _site_k(spec, d.plaq == -1)
                assert D.bit_count() == d.count
                assert code == cfg.code and SpinConfig.from_code(spec, code) == cfg
                assert [(D & m).bit_count() for m in masks] == [int(k[divmod(_site_flat(spec, y), L)]) for y in sites]
                assert [(code >> t) & 1 for t in range(L * L)] == [int(v == -1) for v in cfg.spins.flat]
            lo = sites[0][0]
            for x in ((lo - 1, lo), (lo, lo + L), (lo + L, lo)):
                with pytest.raises(ValueError, match="outside the box"):
                    _site_flat(spec, x)
            assert code == cfg.code


def test_naive_path_reading_order():
    spec = LatticeSpec(2, PLUS)
    p = naive_path(SpinConfig.all_minus(spec))
    assert p.flips == [(1, 2), (2, 2), (1, 1), (2, 1)]
    assert p.final == SpinConfig.all_plus(spec)
    assert p.marks[0].kind == "naive"


def test_naive_path_flips_exactly_the_minus_sites():
    rng = np.random.default_rng(0)
    spec = LatticeSpec(5, PLUS)
    for _ in range(20):
        cfg = random_config(spec, rng)
        p = naive_path(cfg)
        minus = {x for x in spec.sites() if cfg.site_value(x) == -1}
        assert set(p.flips) == minus and len(p.flips) == len(minus)
        assert p.flips == sorted(p.flips, key=reading_order_key)
        assert p.final == SpinConfig.all_plus(spec)


def test_path_states_edges_counts():
    spec = LatticeSpec(3, PLUS)
    cfg = SpinConfig.all_minus(spec)
    p = naive_path(cfg)
    sts = p.states()
    assert len(sts) == len(p) + 1
    assert sts[0] == cfg and sts[-1] == p.final
    for (e, i), a, b in zip(p.edges(), sts, sts[1:]):
        assert e.e_minus == a and e.e_minus.flip([e.site]) == b
    counts = p.defect_counts()
    assert counts[0] == defect_map(cfg).count and counts[-1] == 0


def test_path_walk_matches_the_spin_flip_chain():
    # states(), final and defect_counts() walk (code, D) by XOR; they must
    # equal the SpinConfig.flip chain and its defect_map counts, on plus and
    # framed boxes, for random flip sequences (repeats included) and for
    # sampled full paths
    rng = np.random.default_rng(31)
    for L in range(1, 6):
        theta = (1 - 2 * rng.integers(0, 2, size=(L + 2, L + 2))).astype(np.int8)
        for spec in (LatticeSpec(L, PLUS), LatticeSpec(L, FIXED, theta=theta)):
            sites = spec.sites()
            for _ in range(10):
                cfg = random_config(spec, rng)
                n = int(rng.integers(0, 3 * L * L))
                walks = [CanonicalPath(cfg, [sites[i] for i in rng.integers(0, L * L, n)], [])]
                if spec.bc == PLUS:
                    walks.append(sample_full_path(cfg, 1.0, seed=int(rng.integers(1 << 30))))
                for p in walks:
                    chain = [p.initial]
                    for x in p.flips:
                        chain.append(chain[-1].flip([x]))
                    assert p.states() == chain
                    assert p.final == chain[-1]
                    assert p.defect_counts() == [defect_map(s).count for s in chain]


def test_canonical_path_rejects_sites_outside_the_box():
    # (0, 1) once flipped (3, 1) through a negative index
    cfg = SpinConfig.all_plus(LatticeSpec(3, PLUS))
    for site in ((0, 1), (4, 2), (2, -1), (1, 4)):
        with pytest.raises(ValueError, match="outside the box"):
            CanonicalPath(cfg, [(1, 1), site], [])
    p = CanonicalPath(cfg, [(1, 1), (3, 3)], [])
    assert p.final == cfg.flip([(1, 1), (3, 3)])
    # a periodic start is refused when the path is built, not on its
    # first walk
    per = SpinConfig.all_plus(LatticeSpec(3, PERIODIC))
    for flips in ([], [(0, 0)], [(2, 2), (3, 0)]):
        with pytest.raises(ValueError, match="non-periodic"):
            CanonicalPath(per, flips, [])


def test_removal_path_toggles_rectangle_corners():
    rng = np.random.default_rng(1)
    spec = LatticeSpec(5, PLUS)
    for _ in range(60):
        cfg = random_config(spec, rng)
        d = defect_map(cfg)
        if d.count == 0:
            continue
        for R in extended_rectangles(d):
            p = rectangle_removal_path(cfg, R)
            want = set(d.defects()).symmetric_difference(R.corners)
            assert set(defect_map(p.final).defects()) == want
            assert sorted(p.flips) == sorted(R.flip_sites())


def test_removal_path_energy_envelope():
    # defects never exceed the start by more than 2, and the path sheds
    # 2 or 4 of them overall
    rng = np.random.default_rng(2)
    spec = LatticeSpec(6, PLUS)
    checked = 0
    for _ in range(60):
        cfg = random_config(spec, rng)
        d = defect_map(cfg)
        if d.count == 0:
            continue
        for R in extended_rectangles(d):
            counts = rectangle_removal_path(cfg, R).defect_counts()
            assert max(counts) <= counts[0] + 2
            assert counts[-1] - counts[0] in (-2, -4)
            checked += 1
    assert checked > 100


def _five_case_order(R, dset):
    # the removal order's earlier case table, kept as the reference
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
    row_iter = range(R.y2, R.y1, -1) if rows == "desc" else range(R.y1 + 1, R.y2 + 1)
    col_list = list(range(R.x1 + 1, R.x2 + 1))
    if cols == "desc":
        col_list = col_list[::-1]
    return [(x, y) for y in row_iter for x in col_list]


def test_removal_order_starts_at_the_defect_pair_row():
    # the two rules agree with the five-case table on all 16 corner
    # subsets, a defect off the corners changing nothing; the order is of
    # flat indices, read as sites through the codec, and the corner tests
    # read column masks
    R = Rectangle.from_corners(1, 3, 0, 2)
    sites = _site_codec(4, False)[0]
    for bits in range(16):
        dset = {c for b, c in enumerate(R.corners) if bits >> b & 1} | {(0, 4)}
        cols = [sum(1 << y for x, y in dset if x == a) for a in range(5)]
        R4 = (R.y2, R.x1, R.y1, R.x2)
        order = _block(R4, _sweep(R4, cols), 4)
        assert [sites[t] for t in order] == _five_case_order(R, dset), bits
    # pattern with corners at bottom-left, bottom-right, top-left only:
    # the pair row is the bottom, the sweep runs upward and left to right
    spec = LatticeSpec(4, PLUS)
    cfg = config_with_defects(
        spec, [(0, 0), (3, 0), (0, 3), (3, 3), (1, 1), (1, 2), (2, 1), (2, 2)]
    )
    d = defect_map(cfg)
    R = Rectangle.from_corners(1, 2, 1, 2)
    assert R in extended_rectangles(d)
    p = rectangle_removal_path(cfg, R)
    rows = [y for _, y in p.flips]
    assert rows == sorted(rows)  # bottom row first when the pair is below


def test_single_row_rectangle_is_all_final():
    spec = LatticeSpec(4, PLUS)
    cfg = config_with_defects(spec, [(0, 1), (2, 1), (0, 3), (2, 3)])
    R = Rectangle.from_corners(0, 2, 1, 3)
    sub = Rectangle.from_corners(0, 2, 1, 1)
    assert sub.is_degenerate()
    p = rectangle_removal_path(cfg, R)
    for e, _ in p.edges():
        t = edge_type(e, R, cfg)
        assert t in ("init", "mid", "fin")


def test_edge_type_temporal_split():
    spec = LatticeSpec(5, PLUS)
    cfg = config_with_defects(spec, [(0, 0), (4, 0), (0, 4), (4, 4)])
    R = Rectangle.from_corners(0, 4, 0, 4)
    p = rectangle_removal_path(cfg, R)
    types = [edge_type(e, R, cfg) for e, _ in p.edges()]
    rows = [y for _, y in p.flips]
    first_row, last_row = rows[0], rows[-1]
    for t, y in zip(types, rows):
        if y == last_row:
            assert t == "fin"
        elif y == first_row:
            assert t == "init"
        else:
            assert t == "mid"
    # a move not on the path types as none
    off = EdgeRef(cfg, p.flips[0])
    other = EdgeRef(p.states()[2], p.flips[0])
    assert edge_type(other, R, cfg) == "none"


def test_edge_type_matches_the_rows_in_order_reference():
    # edge_type reads the first and the last row off the removal order; the
    # reference lists the rows in the order they are flipped. Every edge of
    # every extended rectangle of random states at L <= 6, one-row
    # rectangles included (all "fin"), and moves that miss the path
    rng = np.random.default_rng(44)
    seen = collections.Counter()
    one_row = 0
    for k in range(150):
        L = 2 + k % 5
        cfg = random_config(LatticeSpec(L, PLUS), rng)
        for R in extended_rectangles(defect_map(cfg)):
            p = rectangle_removal_path(cfg, R)
            rows_in_order = []
            for x in p.flips:
                if not rows_in_order or rows_in_order[-1] != x[1]:
                    rows_in_order.append(x[1])
            assert len(set(rows_in_order)) == len(rows_in_order)
            states = p.states()
            for e, i in p.edges():
                y = e.site[1]
                want = ("fin" if y == rows_in_order[-1] else
                        "init" if y == rows_in_order[0] and len(rows_in_order) > 1 else
                        "mid")
                assert edge_type(e, R, cfg) == want
                seen[want] += 1
                # the same flip out of the next state: its prefix misses
                assert edge_type(EdgeRef(states[i + 1], e.site), R, cfg) == "none"
            if p.flips and R.y2 - R.y1 == 1:
                one_row += 1
                assert len(rows_in_order) == 1
            # column x1 lies left of the block, so off the path
            assert edge_type(EdgeRef(cfg, (R.x1, R.y2)), R, cfg) == "none"
    assert one_row > 20 and min(seen.values()) > 100, (one_row, seen)


def test_edge_type_energy_discipline():
    rng = np.random.default_rng(3)
    spec = LatticeSpec(5, PLUS)
    seen_fin = 0
    for _ in range(40):
        cfg = random_config(spec, rng)
        d = defect_map(cfg)
        if d.count == 0:
            continue
        n0 = d.count
        for R in extended_rectangles(d):
            p = rectangle_removal_path(cfg, R)
            counts = p.defect_counts()
            for (e, i) in p.edges():
                t = edge_type(e, R, cfg)
                lo, hi = counts[i], counts[i + 1]
                if t == "fin":
                    assert max(lo, hi) <= n0
                    seen_fin += 1
                else:
                    assert max(lo, hi) <= n0 + 2
    assert seen_fin > 50


def test_untyped_rectangle_rejected():
    spec = LatticeSpec(4, PLUS)
    cfg = config_with_defects(spec, [(0, 0), (2, 0), (0, 2), (2, 2)])
    bad = Rectangle.from_corners(1, 3, 1, 3)  # no defective corners
    p = rectangle_removal_path(cfg, bad)
    with pytest.raises(ValueError):
        edge_type(p.edges()[0][0], bad, cfg)


def test_mirror_involution_and_rectangles():
    rng = np.random.default_rng(4)
    spec = LatticeSpec(5, PLUS)
    for _ in range(10):
        cfg = random_config(spec, rng)
        assert mirror_config(mirror_config(cfg)) == cfg
        d = set(defect_map(cfg).defects())
        md = set(defect_map(mirror_config(cfg)).defects())
        assert md == {(x, 5 - y) for x, y in d}
    R = Rectangle.from_corners(1, 3, 0, 2)
    MR = mirror_rectangle(spec, R)
    assert MR == Rectangle.from_corners(1, 3, 3, 5)


def test_mirror_equivariance_of_three_corner_removal():
    # with exactly three defective corners the removal of the mirrored
    # rectangle is the mirror of the removal, step by step
    rng = np.random.default_rng(5)
    spec = LatticeSpec(5, PLUS)
    checked = 0
    for _ in range(60):
        cfg = random_config(spec, rng)
        d = defect_map(cfg)
        if d.count == 0:
            continue
        dset = d.defects()
        for R in extended_rectangles(d):
            n_corners = sum(1 for c in R.corners if c in dset)
            if n_corners != 3:
                continue
            p = rectangle_removal_path(cfg, R)
            m = rectangle_removal_path(mirror_config(cfg), mirror_rectangle(spec, R))
            mirrored = [mirror_config(s) for s in p.states()]
            assert [s.code for s in m.states()] == [s.code for s in mirrored]
            checked += 1
    assert checked > 30


def test_defect_neighbours():
    spec = LatticeSpec(4, PLUS)
    cfg = config_with_defects(spec, [(1, 1), (3, 1), (1, 3), (3, 3)])
    d = defect_map(cfg)
    left, right, down, up = defect_neighbours(d, (3, 3))
    assert left == (1, 3) and down == (3, 1)
    assert right is None and up is None
    with pytest.raises(ValueError):
        defect_neighbours(d, (0, 0))
    # (-1, -1) once read plaquette (3, 3) through a negative index, and
    # (4, 0) escaped as an IndexError
    d3 = defect_map(config_with_defects(LatticeSpec(3, PLUS), [(0, 0), (3, 0), (0, 3), (3, 3)]))
    for x in ((-1, -1), (4, 0)):
        with pytest.raises(ValueError, match=rf"plaquette \({x[0]}, {x[1]}\) outside"):
            defect_neighbours(d3, x)


def test_extended_rectangles_four_corner_exact():
    spec = LatticeSpec(4, PLUS)
    cfg = config_with_defects(spec, [(1, 0), (3, 0), (1, 2), (3, 2)])
    d = defect_map(cfg)
    assert extended_rectangles(d) == {Rectangle.from_corners(1, 3, 0, 2)}


def test_extended_rectangles_use_nearest_row():
    # ladder of pairs in columns 0 and 2: each pair row extends only to
    # the nearest companion row, not past it
    spec = LatticeSpec(4, PLUS)
    cfg = config_with_defects(spec, [(0, j) for j in range(4)] + [(2, j) for j in range(4)])
    d = defect_map(cfg)
    top = extended_rectangles(d, row=3)
    assert Rectangle.from_corners(0, 2, 2, 3) in top
    assert Rectangle.from_corners(0, 2, 0, 3) not in top
    assert Rectangle.from_corners(0, 2, 1, 3) not in top
    bottom = extended_rectangles(d, row=0)
    assert Rectangle.from_corners(0, 2, 0, 1) in bottom
    assert Rectangle.from_corners(0, 2, 0, 3) not in bottom


def test_extended_rectangles_counting_and_corners():
    rng = np.random.default_rng(6)
    spec = LatticeSpec(6, PLUS)
    for _ in range(50):
        cfg = random_config(spec, rng)
        d = defect_map(cfg)
        if d.count == 0:
            continue
        T = extended_rectangles(d)
        assert len(T) >= d.count / 4
        dset = set(d.defects())
        for R in T:
            assert sum(1 for c in R.corners if c in dset) >= 3
        # per-row lower bound, rows with q >= 1 defects
        for j in range(spec.side + 1):
            q = sum(1 for _, y in dset if y == j)
            if q >= 1:
                assert len(extended_rectangles(d, row=j)) >= 0.5 * (q - 1) ** 2


def test_extended_rectangles_column_window():
    spec = LatticeSpec(4, PLUS)
    cfg = config_with_defects(spec, [(c, r) for c in range(4) for r in (1, 3)])
    d = defect_map(cfg)
    narrowed = extended_rectangles(d, col_range=(0, 1))
    assert narrowed
    for R in narrowed:
        assert 0 <= R.x1 <= R.x2 <= 1
    assert len(extended_rectangles(d)) > len(narrowed)


def test_compute_split_single_part_at_default_threshold():
    rng = np.random.default_rng(7)
    spec = LatticeSpec(6, PLUS)
    cfg = random_config(spec, rng)
    sp = compute_split(cfg, 100)
    assert sp.m == 1 and sp.n == 1
    assert sp.part_columns(1) == (0, 6)
    with pytest.raises(ValueError):
        sp.part_columns(2)


def test_compute_split_band_sizes():
    rng = np.random.default_rng(8)
    spec = LatticeSpec(6, PLUS)
    L = 6
    for _ in range(40):
        cfg = random_config(spec, rng)
        sp = compute_split(cfg, 1)
        colcount = np.count_nonzero(defect_map(cfg).plaq == -1, axis=1)
        for i in range(1, sp.m):  # all bands except the last
            lo, hi = sp.part_columns(i)
            assert 1 * L <= colcount[lo : hi + 1].sum() <= 1 * L + L + 1
        # bands tile the column range
        cols = [sp.part_columns(i) for i in range(1, sp.m + 1)]
        assert cols[0][0] == 0 and cols[-1][1] == L
        for (a, b), (c, e) in zip(cols, cols[1:]):
            assert c == b + 1
        for i in range(1, sp.m + 1):
            lo, hi = sp.part_columns(i)
            for col in range(lo, hi + 1):
                assert sp.part_of_column(col) == i


def test_occupancy_vector_counts_rows_in_part_columns():
    spec = LatticeSpec(3, PLUS)
    cfg = config_with_defects(spec, [(0, 0), (1, 0), (0, 2), (1, 2)])
    v = occupancy_vector(cfg, 1, 100)
    assert v.v == (2, 0, 2, 0)
    assert sum(v.v) == 4 and max(v.v) == 2 and v.v.count(2) == 2 and v.v.count(0) == 2


def test_classify_sparse_iff_small_max():
    assert classify_occupancy((1, 0, 1, 0), 1.0).sparse
    assert not classify_occupancy((3, 3, 3, 1), 1.5).sparse


def test_classify_dense_offset_selection():
    # level 3 dominates: three rows there, one at 1, none elsewhere
    cls = classify_occupancy((3, 3, 3, 1), 1.5)
    assert cls.theta == 0
    # level 8 thins out but level 6 backs it up two offsets down
    cls = classify_occupancy((8, 8, 6, 6, 6, 6, 0, 0, 0), 2.0)
    assert cls.theta == 0
    v = (8, 8, 0, 0, 0, 0, 0, 0, 0)
    with pytest.raises(PartitionViolation):
        classify_occupancy(v, 2.0)


def test_classify_realizable_violation():
    # four defects in one row, two in each of three others: at beta = 1
    # no offset is backed strongly enough
    spec = LatticeSpec(3, PLUS)
    cfg = config_with_defects(
        spec,
        [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1), (0, 2), (2, 2), (0, 3), (3, 3)],
    )
    v = occupancy_vector(cfg, 1, 100)
    assert v.v == (4, 2, 2, 2)
    with pytest.raises(PartitionViolation):
        classify_occupancy(v.v, 1.0)
    # the sampler still works: the violation falls back to the sparse class
    pool = good_rectangles(cfg, 1, 1.0, 100)
    assert pool
    p = sample_partial_path(cfg, 1.0, seed=0)
    assert p.marks[0].kind == "rectangle"


def test_good_rectangles_dense_branch():
    # alternate-site flips in two site rows pile eight defects into four
    # plaquette rows; at beta = 2 the dense class picks those rows
    spec = LatticeSpec(8, PLUS)
    sites = [(x, 2) for x in (1, 3, 5, 7)] + [(x, 6) for x in (1, 3, 5, 7)]
    cfg = SpinConfig.all_plus(spec).flip(sites)
    v = occupancy_vector(cfg, 1, 100)
    assert v.v == (0, 8, 8, 0, 0, 8, 8, 0, 0)
    cls = classify_occupancy(v.v, 2.0)
    assert not cls.sparse and cls.theta == 0
    pool = good_rectangles(cfg, 1, 2.0, 100)
    assert pool
    for R in pool:
        pair_rows = {R.y1, R.y2}
        assert pair_rows & {1, 2, 5, 6}


def test_sample_partial_path_empty_pool():
    # first band holds four defects on four distinct rows: nothing to pair
    spec = LatticeSpec(3, PLUS)
    cfg = config_with_defects(
        spec,
        [(0, 0), (0, 1), (1, 2), (1, 3), (2, 0), (2, 1), (3, 2), (3, 3)],
    )
    sp = compute_split(cfg, 1)
    assert sp.m == 2 and sp.n == 1
    assert sp.part_columns(1) == (0, 1)
    with pytest.raises(PathSamplingError):
        sample_partial_path(cfg, 1.0, seed=0, c=1)


def test_sample_partial_path_uniform_over_parts():
    spec = LatticeSpec(6, PLUS)
    sites = [(1, 2), (3, 2), (5, 2), (1, 5), (3, 5), (5, 5)]
    cfg = SpinConfig.all_plus(spec).flip(sites)
    sp = compute_split(cfg, 1)
    assert sp.n >= 2
    hits = {}
    for seed in range(300):
        p = sample_partial_path(cfg, 2.0, seed=seed, c=1)
        hits[p.marks[0].part_index] = hits.get(p.marks[0].part_index, 0) + 1
    assert set(hits) == set(range(1, sp.n + 1))
    expected = 300 / sp.n
    for n in hits.values():
        assert abs(n - expected) < 5 * math.sqrt(expected)


def test_sample_full_path_reaches_ground():
    rng = np.random.default_rng(9)
    spec = LatticeSpec(6, PLUS)
    for trial in range(30):
        cfg = random_config(spec, rng)
        p = sample_full_path(cfg, 3.0, seed=trial)
        assert p.final == SpinConfig.all_plus(spec)
        assert p.initial == cfg
        for mark in p.marks:
            assert mark.kind in ("rectangle", "naive")
        n0 = defect_map(cfg).count
        assert len(p) <= 36 * min(3.0 * 6 + 1, n0 / 2.0)


def test_sample_full_path_truncation():
    rng = np.random.default_rng(10)
    spec = LatticeSpec(6, PLUS)
    for trial in range(20):
        cfg = random_config(spec, rng)
        if defect_map(cfg).count <= 4:
            continue
        p = sample_full_path(cfg, 3.0, seed=trial, truncate_at=4)
        counts = p.defect_counts()
        # the cut happens at the first state at or below the threshold
        assert counts[-1] <= 4
        assert all(c > 4 for c in counts[:-1])


def test_sample_full_path_truncation_takes_an_integer_or_none():
    # 2.5 used to cut as 2 would, and "x" raised a bare TypeError
    cfg = SpinConfig.all_minus(LatticeSpec(3, PLUS))
    for bad in (2.5, "x", 2.0):
        with pytest.raises(ValueError, match="truncate_at must be an integer or None"):
            sample_full_path(cfg, 1.0, seed=0, truncate_at=bad)
    assert sample_full_path(cfg, 1.0, seed=0, truncate_at=np.int64(2)).defect_counts()[-1] <= 2


def test_sample_full_path_requires_plus():
    spec = LatticeSpec(3, PERIODIC)
    with pytest.raises(ValueError):
        sample_full_path(SpinConfig.all_plus(spec), 1.0, seed=0)


def test_naive_stage_after_deep_segments():
    # beta small makes the partial stage cutoff floor(beta*L) tiny, so the
    # naive stage must appear for states with many defects
    spec = LatticeSpec(3, PLUS)
    cfg = SpinConfig.all_minus(spec)
    p = sample_full_path(cfg, 0.3, seed=0)
    assert p.marks[-1].kind == "naive"
    assert p.final == SpinConfig.all_plus(spec)


def test_identify_split_matches_sampled_part():
    spec = LatticeSpec(6, PLUS)
    sites = [(1, 2), (3, 2), (5, 2), (1, 5), (3, 5), (5, 5)]
    cfg = SpinConfig.all_plus(spec).flip(sites)
    for seed in range(40):
        p = sample_partial_path(cfg, 2.0, seed=seed, c=1)
        part = p.marks[0].part_index
        for e, _ in p.edges():
            assert identify_split(e, c=1) == part


def test_flow_cost_pinned_and_bounds_gap():
    spec = LatticeSpec(2, PLUS)
    res = flow_cost(spec, 1.0, level=1)
    assert res.mode == "exhaustive" and res.level == 1
    assert res.cost == pytest.approx(FLOW_L2_BETA1, rel=1e-12)
    assert GAP_L2_BETA1 >= 1.0 / res.cost
    res2 = flow_cost(spec, 2.0, level=1)
    assert GAP_L2_BETA2 >= 1.0 / res2.cost
    G = build_generator(spec, RateModel(1.0))
    assert spectral_profile(G, 1) >= 1.0 / res.cost
    assert spectral_gap(G) == pytest.approx(GAP_L2_BETA1, abs=1e-11)


def test_flow_cost_L3():
    spec = LatticeSpec(3, PLUS)
    res = flow_cost(spec, 1.0, level=1)
    assert GAP_L3_BETA1 >= 1.0 / res.cost
    # deeper level sets only relax the requirement
    res4 = flow_cost(spec, 1.0, level=4)
    G = build_generator(spec, RateModel(1.0))
    assert spectral_profile(G, 4) >= 1.0 / res4.cost


@pytest.mark.parametrize("L, beta, level", sorted(FLOW_PINS))
def test_exhaustive_flow_pinned_bit_for_bit(L, beta, level):
    res = flow_cost(LatticeSpec(L, PLUS), beta, level)
    cost, n_edges, *digests, edge = FLOW_PINS[L, beta, level]
    assert res.cost == cost and len(res.congestion) == n_edges
    assert flow_digests(res) == tuple(digests)
    assert heaviest_edge(res) == edge
    assert res.congestion[res.edge.e_minus.code, res.edge.site] == res.cost


def test_monte_carlo_flow_at_split_threshold_two_pinned_bit_for_bit():
    # at L = 6 and c = 2 some states split into several parts, so the
    # part draw runs, and one-part states skip it without moving the stream
    res = flow_cost(LatticeSpec(6, PLUS), 1.0, 1, mode="monte_carlo", seed=2, samples=100, c=2)
    assert res.cost == 761658103037.1957 and res.ci_halfwidth == 1492849881952.9036
    assert len(res.congestion) == 4533
    assert flow_digests(res) == ("48b1e563d9d56898", "fc3d804c9eccbd07")
    assert heaviest_edge(res) == (3724222133, (3, 4))


def test_monte_carlo_flow_pinned_bit_for_bit():
    res = flow_cost(LatticeSpec(4, PLUS), 1.0, 1, mode="monte_carlo", seed=123, samples=1000)
    assert res.cost == 35834.439356964416 and res.ci_halfwidth == 70235.50113965027
    assert len(res.congestion) == 11949
    assert flow_digests(res) == ("f7081a94c3106e3c", "92ae705953e6a7fb")
    # four edges reach the maximum; the heaviest is the first in edge order
    assert sum(v == res.cost for v in res.congestion.values()) == 4
    assert heaviest_edge(res) == (27849, (2, 2))


def test_flow_monte_carlo_consistent():
    spec = LatticeSpec(2, PLUS)
    exact_res = flow_cost(spec, 1.0, level=1)
    mc = flow_cost(spec, 1.0, level=1, mode="monte_carlo", seed=3, samples=4000)
    assert mc.mode == "monte_carlo" and mc.samples == 4000
    assert mc.ci_halfwidth is not None and mc.ci_halfwidth > 0
    key = max(exact_res.congestion, key=exact_res.congestion.get)
    if key in mc.congestion:
        assert abs(mc.congestion[key] - exact_res.congestion[key]) <= 4 * mc.ci_halfwidth
    # the observed maximum cannot exceed its own CI by construction, and
    # stays a lower-style estimate of the true maximum's scale
    assert mc.cost <= exact_res.cost * 1.5


def test_flow_requires_plus_and_valid_mode():
    with pytest.raises(ValueError):
        flow_cost(LatticeSpec(2, PERIODIC), 1.0, level=1)
    with pytest.raises(ValueError):
        flow_cost(LatticeSpec(2, PLUS), 1.0, level=0)
    with pytest.raises(ValueError):
        flow_cost(LatticeSpec(2, PLUS), 1.0, level=1, mode="guess")
    for samples in (0, -3):
        with pytest.raises(ValueError, match="samples must be at least 1"):
            flow_cost(LatticeSpec(2, PLUS), 1.0, level=1, mode="monte_carlo", samples=samples)
    # c=1 leaves most L=3 states with empty pools: refused before any work
    for mode in ("exhaustive", "monte_carlo"):
        with pytest.raises(ValueError, match="split threshold c must be at least 2"):
            flow_cost(LatticeSpec(3, PLUS), 1.0, level=1, mode=mode, c=1)


def test_flow_counts_must_be_integers():
    # level 1.5 used to run, with sources at >= 1.5 defects and the paths
    # cut at 0.5, and samples 2.5 escaped from range as a TypeError
    spec = LatticeSpec(2, PLUS)
    for mode in ("exhaustive", "monte_carlo"):
        with pytest.raises(ValueError, match="level must be an integer, got 1.5"):
            flow_cost(spec, 1.0, level=1.5, mode=mode, samples=10)
    with pytest.raises(ValueError, match="samples must be an integer, got 2.5"):
        flow_cost(spec, 1.0, level=1, mode="monte_carlo", samples=2.5)
    assert flow_cost(spec, 1.0, level=np.int64(1)).cost == FLOW_L2_BETA1
    mc = flow_cost(spec, 1.0, level=1, mode="monte_carlo", seed=3, samples=np.int64(40))
    assert mc.cost == flow_cost(spec, 1.0, level=1, mode="monte_carlo", seed=3, samples=40).cost


def test_a_monte_carlo_flow_past_the_float_range_is_named():
    # at 1024 sites the scale 2^(n+1) used to escape from 2.0 ** n as a
    # bare OverflowError; scaled exactly, the congestion overflows instead
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"ci_halfwidth of an edge overflows a float at beta=0\.5"):
            flow_cost(LatticeSpec(32, PLUS), 0.5, 1, mode="monte_carlo", samples=3)


@pytest.mark.parametrize("beta, cost", [(1.0, 453.558830905748), (2.0, 1797.1415336637365)])
def test_exhaustive_flow_at_split_threshold_two(beta, cost):
    spec = LatticeSpec(3, PLUS)
    res = flow_cost(spec, beta, 1, c=2)
    assert res.cost == pytest.approx(cost, rel=1e-12)
    assert (res.cost, len(res.congestion), *flow_digests(res)) == FLOW_PINS_C2[beta]
    lam = spectral_profile(build_generator(spec, RateModel(beta)), 1)
    assert lam * res.cost >= 1.0


def test_exhaustive_flow_past_the_budget_raises_at_once():
    # 2^25 states at L=5: the enumeration refuses before allocating
    with pytest.raises(BudgetExceededError,
                       match=r"^enumeration needs 2\^25 states, budget is 2\^20$"):
        flow_cost(LatticeSpec(5, PLUS), 3.0, 1)


def test_flow_report_csv_sorted():
    res = flow_cost(LatticeSpec(2, PLUS), 1.0, level=1)
    lines = flow_report_csv(res).strip().splitlines()
    assert lines[0] == "edge_state_hash,site_x,site_y,congestion"
    vals = [float(ln.rsplit(",", 1)[1]) for ln in lines[1:]]
    assert vals == sorted(vals, reverse=True)
    assert vals[0] == pytest.approx(res.cost, rel=1e-12)


# The list kernel that built rectangle pools before the bit-mask one, kept
# as its independent reference: per-row and per-column sorted lists of the
# defect coordinates, bisection for the nearest defects, and the occupancy
# classification written with a Counter.


def _ref_lines(D, n1):
    rows = [[] for _ in range(n1)]
    cols = [[] for _ in range(n1)]
    while D:
        low = D & -D
        a, b = divmod(low.bit_length() - 1, n1)
        rows[b].append(a)
        cols[a].append(b)
        D ^= low
    return rows, cols


def _ref_split(cols, c):
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
    return tuple(bounds)


def _ref_extended(rows, cols, pair_rows, a, b):
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


def _ref_theta(v, beta):
    # None for sparse and for a partition violation (the sparse fallback)
    v_max = max(v)
    if v_max <= beta * beta:
        return None
    num = collections.Counter(v)
    for theta in range(0, int(math.floor(beta)) + 1):
        target = v_max - theta
        if target < 0:
            break
        nm = num.get(target, 0)
        if all(beta * nm >= k for lv, k in num.items() if abs(lv - target) <= 32):
            return theta
    return None


def _ref_pool(rows, cols, a, b, beta):
    v = tuple(sum(1 for i in r if a <= i <= b) for r in rows)
    theta = _ref_theta(v, beta)
    pair_rows = range(len(rows))
    if theta is not None:
        pair_rows = [j for j, vj in enumerate(v) if vj == max(v) - theta]
    return sorted(_ref_extended(rows, cols, pair_rows, a, b))


class _Picks:
    """An rng for one draw of `_segments`: it picks part i and pool entry r,
    and keeps the number of parts it was asked to pick from."""

    def __init__(self, i, r):
        self.i, self.r, self.parts = i, r, 1

    def integers(self, low, high=None):
        if high is None:
            return self.r
        self.parts = high - 1
        return self.i


def test_mask_kernel_matches_the_list_reference():
    # lines, split bounds, every part's pool and each pooled rectangle's
    # removal order, on spin-configuration states and on raw defect ints
    # (not all realizable, so pools may be empty); the draw of `_segments`
    # picks from the same parts and pools, and raises on an empty one
    rng = np.random.default_rng(16)
    checked = 0
    for L in range(2, 7):
        spec = LatticeSpec(L, PLUS)
        n1 = L + 1
        sites = _site_codec(L, False)[0]
        states = [(True, _code_defects(spec, random_config(spec, rng).code)) for _ in range(12)]
        states += [(False, int.from_bytes(rng.bytes(8), "little") & (1 << n1 * n1) - 1)
                   for _ in range(12)]
        for realizable, D in states:
            rows, cols = _lines(D, n1)
            ref_rows, ref_cols = _ref_lines(D, n1)
            assert [[a for a in range(n1) if r >> a * n1 + b & 1] for b, r in enumerate(rows)] == ref_rows
            assert [[b for b in range(n1) if col >> b & 1] for col in cols] == ref_cols
            dset = {(a, b) for b, r in enumerate(ref_rows) for a in r}
            for beta in (0.5, 1.0, 2.0, 3.0):
                for c in (2, 100):
                    bounds = _ref_split(ref_cols, c)
                    assert _split(cols, c) == bounds
                    draw = _segments(L, beta, c)
                    n_parts = max(1, len(bounds) - 2)
                    for i in range(1, len(bounds)):
                        a, b = bounds[i - 1], bounds[i] - 1
                        want = _ref_pool(ref_rows, ref_cols, a, b, beta)
                        got = sorted(_pool(rows, cols, a, b, beta))
                        assert got == want, (L, D, beta, c, i)
                        if i > n_parts:
                            continue
                        if not want:
                            with pytest.raises(PathSamplingError):
                                draw(D, _Picks(i, 0))
                            continue
                        for r, R in enumerate(want):
                            pick = _Picks(i, r)
                            flips, got_R, got_i = draw(D, pick)
                            assert (got_R, got_i, pick.parts) == (R, i, n_parts)
                            assert flips == _block(R, _sweep(R, cols), L)
                            if realizable:
                                order = [sites[t] for t in flips]
                                assert order == _five_case_order(Rectangle(*R), dset)
                        checked += 1
    assert checked > 500


def test_path_samplers_and_pools_reject_bad_beta():
    # beta -1 used to give the naive path or a rectangle, inf an
    # OverflowError and nan a failed float-to-int conversion
    spec = LatticeSpec(3, PLUS)
    sigma = SpinConfig.all_minus(spec)
    v = occupancy_vector(sigma, 1)
    calls = [
        lambda beta: sample_full_path(sigma, beta, seed=0),
        lambda beta: sample_partial_path(sigma, beta, seed=0),
        lambda beta: good_rectangles(sigma, 1, beta),
        lambda beta: classify_occupancy(v, beta),
        lambda beta: _segments(3, beta, 100),
        lambda beta: flow_cost(LatticeSpec(2, PLUS), beta, 1),
        lambda beta: flow_cost(LatticeSpec(2, PLUS), beta, 1, mode="monte_carlo", samples=10),
    ]
    for call in calls:
        for beta in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="beta must be finite and nonnegative"):
                call(beta)


def test_a_huge_finite_beta_caps_the_rectangle_segments():
    # floor(beta * L) used to overflow; past (L+1)^2 segments every defect
    # is gone, so the cap leaves the path as it is
    sigma = SpinConfig.all_minus(LatticeSpec(3, PLUS))
    with np.errstate(over="ignore"):
        huge = sample_full_path(sigma, 1e308, seed=0)
    assert huge.flips == sample_full_path(sigma, 1e6, seed=0).flips
    assert huge.final == SpinConfig.all_plus(sigma.spec)
    assert all(m.kind == "rectangle" for m in huge.marks)


@pytest.mark.parametrize("L, beta, mode", [(2, 200.0, "exhaustive"), (3, 120.0, "exhaustive"),
                                           (3, 300.0, "monte_carlo"), (2, 1e308, "exhaustive")])
def test_an_underflowing_flow_weight_is_named(L, beta, mode):
    with np.errstate(over="ignore"), pytest.raises(
            ValueError, match=rf"exp\(-beta \* \d+\) \* rate .* underflows to 0 at beta={re.escape(repr(beta))}"):
        flow_cost(LatticeSpec(L, PLUS), beta, 1, mode=mode, samples=200)


def test_a_flow_at_large_beta_still_returns():
    assert flow_cost(LatticeSpec(2, PLUS), 100.0, 1).cost == pytest.approx(5.780779014500599e87,
                                                                         rel=1e-12)


def test_the_exhaustive_flow_frees_its_arrays_on_return():
    spec = LatticeSpec(3, PLUS)
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        # the first call fills the module-level caches and CPython's free
        # lists of small tuples, which keep up to 2000 each once freed
        flow_cost(spec, 1.0, 1)
        before = tracemalloc.get_traced_memory()[0]
        res = flow_cost(spec, 1.0, 1)
        del res
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    assert left < 0.1e6


def _kernel_segments(L, D, beta, c):
    """The per-state reference for `_box_segments`: every segment of D as
    (rectangle, flat flips, q) in (part, rectangle) order, or the first
    part whose pool is empty, where the draw of `_segments` raises."""
    rows, cols = _lines(D, L + 1)
    bounds = _split(cols, c)
    n = max(1, len(bounds) - 2)
    out = []
    for i in range(1, n + 1):
        pool = sorted(_pool(rows, cols, bounds[i - 1], bounds[i] - 1, beta))
        if not pool:
            with pytest.raises(PathSamplingError) as err:
                _segments(L, beta, c)(D, _Picks(i, 0))
            assert str(err.value) == f"no good rectangles in part {i}"
            return i
        for R in pool:
            out.append((R, _block(R, _sweep(R, cols), L), 1.0 / (n * len(pool))))
    return out


def test_box_segments_match_the_per_state_kernel():
    # the pool matrix, sweeps and q of the box arrays against the per-state
    # kernel, state by state: every state at L = 2 and 3, 3000 random ones
    # at L = 4, and which states have an empty part (PathSamplingError)
    rng = np.random.default_rng(24)
    raised = 0
    for L, codes in ((2, np.arange(16)), (3, np.arange(512)),
                     (4, rng.integers(0, 1 << 16, 3000))):
        spec = LatticeSpec(L, PLUS)
        D = np.array([_code_defects(spec, int(x)) for x in codes], np.uint64)
        rects, flips = _flow_tables(L)[:2]
        for beta in (0.5, 1.0, 2.0, 3.0):
            for c in (2, 3, 100):
                state, row, q, empty = _box_segments(L, D, beta, c)
                starts = np.searchsorted(state, np.arange(D.size + 1))
                for k, Dk in enumerate(D.tolist()):
                    want = _kernel_segments(L, Dk, beta, c)
                    if isinstance(want, int):
                        assert empty[k] == want, (L, beta, c, k)
                        raised += 1
                        continue
                    assert empty[k] == 0
                    got = []
                    for b in range(starts[k], starts[k + 1]):
                        y2, x1, y1, x2 = (int(v) for v in rects[:, row[b] >> 2])
                        area = (y2 - y1) * (x2 - x1)
                        got.append(((y2, x1, y1, x2), flips[row[b], :area].tolist(), float(q[b])))
                    assert got == want, (L, beta, c, k)
    # the empty states at every (beta, c), and more at L <= 2 with c = 2
    assert raised > 24


def test_exhaustive_flow_at_side_four_pinned_bit_for_bit():
    # 65 536 states, 859 790 edges; pinned from the state-by-state
    # recursion the array passes replaced
    res = flow_cost(LatticeSpec(4, PLUS), 1.0, 1)
    assert res.cost == 2804.4247340308216 and len(res.congestion) == 859790
    assert flow_digests(res) == ("2facc2ccfa09116c", "c7aaf6ed289640f5")
    assert heaviest_edge(res) == (13107, (1, 2))


def test_split_threshold_must_be_an_integer():
    # c = 2.5 used to close a band at 2.5*L defects: flow_cost at L=3,
    # beta 1 returned 436.89..., between its c=2 and c=3 costs
    spec = LatticeSpec(3, PLUS)
    cfg = SpinConfig.all_minus(spec)
    calls = [
        lambda: flow_cost(spec, 1.0, 1, c=2.5),
        lambda: flow_cost(spec, 1.0, 1, mode="monte_carlo", samples=10, c=2.5),
        lambda: compute_split(cfg, 2.5),
        lambda: occupancy_vector(cfg, 1, c=2.5),
        lambda: good_rectangles(cfg, 1, 1.0, c=2.5),
        lambda: identify_split(EdgeRef(cfg, (1, 1)), c=2.5),
        lambda: sample_partial_path(cfg, 1.0, seed=0, c=2.5),
        lambda: sample_full_path(cfg, 1.0, seed=0, c=2.5),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"^split threshold c must be an integer, got 2\.5$"):
            call()
    assert flow_cost(spec, 1.0, 1, c=np.int64(3)).cost == flow_cost(spec, 1.0, 1, c=3).cost
    assert compute_split(cfg, np.int64(2)) == compute_split(cfg, 2)
    assert compute_split(cfg, 1).m >= 1  # verify's split_part_bounds reads c = 1


def test_flow_names_a_level_set_that_no_path_reaches():
    spec = LatticeSpec(2, PLUS)  # at most 6 defects
    with pytest.raises(ValueError, match="^empty level set$"):
        flow_cost(spec, 1.0, 7)
    with pytest.raises(ValueError, match="^no sampled path visited the level set$"):
        flow_cost(spec, 1.0, 7, mode="monte_carlo", samples=20)


def test_path_helpers_refuse_what_they_cannot_walk():
    spec = LatticeSpec(3, PLUS)
    cfg = SpinConfig.all_minus(spec)
    per = SpinConfig.all_minus(LatticeSpec(3, PERIODIC))
    with pytest.raises(ValueError, match="^rectangle paths are for non-periodic boxes$"):
        rectangle_removal_path(per, Rectangle.from_corners(0, 1, 0, 1))
    far = Rectangle.from_corners(0, 4, 0, 1)
    with pytest.raises(ValueError, match=rf"^{re.escape(repr(far))} outside the plaquette grid$"):
        rectangle_removal_path(cfg, far)
    flat = rectangle_removal_path(cfg, Rectangle.from_corners(1, 1, 0, 2))
    assert len(flat) == 0 and flat.final == cfg
    with pytest.raises(ValueError, match="^column 4 outside the grid$"):
        compute_split(cfg, 2).part_of_column(4)
    with pytest.raises(ValueError, match=r"^part index 2 out of range 1\.\.1$"):
        good_rectangles(cfg, 2, 1.0, c=2)
    with pytest.raises(ValueError, match=r"^part index 0 out of range 1\.\.1$"):
        occupancy_vector(cfg, 0, c=2)
    with pytest.raises(ValueError, match="^empty defect set$"):
        sample_partial_path(SpinConfig.all_plus(spec), 1.0, seed=0)
