"""Rectangle removal paths, splits, occupancy classes, and flow bounds."""

import hashlib
import math

import numpy as np
import pytest

from plaquette.lattice import (
    FIXED,
    PERIODIC,
    PLUS,
    LatticeSpec,
    Rectangle,
    SpinConfig,
    defect_map,
    invert_defects,
    reading_order_key,
    _site_index,
    _site_k,
)
from plaquette.paths import (
    CanonicalPath,
    EdgeRef,
    PartitionViolation,
    PathSamplingError,
    SplitStructure,
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
    path_from_text,
    path_to_text,
    rectangle_removal_path,
    sample_full_path,
    sample_partial_path,
    _Walker,
)
from plaquette.exact import build_generator, spectral_gap, spectral_profile
from plaquette.dynamics import RateModel

# independent dense-eigensolver values (tests/oracles/gen_small_oracles.py)
GAP_L2_BETA1 = 0.2847662422089848
GAP_L2_BETA2 = 0.050965672292375516
GAP_L3_BETA1 = 0.1542219403486512

# regression pins for the flow constants themselves
FLOW_L2_BETA1 = 70.61244879144519

# exhaustive plus-box flows, (L, beta, level) -> cost, edge count, and the
# congestion and report digests of flow_digests
FLOW_PINS = {
    (2, 1.0, 1): (70.61244879144519, 39, "c3042ee4af6cca48", "f3e80b05f0c32989"),
    (3, 1.0, 1): (436.477575655193, 3144, "aa12a827c55c4047", "3793c6f5cd534713"),
    (3, 1.0, 2): (436.477575655193, 3144, "aa12a827c55c4047", "3793c6f5cd534713"),
    (3, 2.0, 1): (1794.8911910125098, 3156, "346ba252c7873daf", "c50d047bb5c440dc"),
}


def random_config(spec, rng):
    bits = rng.integers(0, 2, size=(spec.side, spec.side))
    return SpinConfig._from_frozen(spec, (1 - 2 * bits).astype(np.int8))


def config_with_defects(spec, defects):
    p = np.ones(spec.plaq_shape, dtype=np.int8)
    for x, y in defects:
        p[x, y] = -1
    return invert_defects(spec, p)


def flow_digests(res):
    """sha256 prefixes of the sorted congestion entries and of the CSV report."""
    lines = "".join(
        f"{sb.hex()} {s[0]} {s[1]} {v!r}\n" for (sb, s), v in sorted(res.congestion.items())
    )
    return (
        hashlib.sha256(lines.encode()).hexdigest()[:16],
        hashlib.sha256(flow_report_csv(res).encode()).hexdigest()[:16],
    )


def test_walker_codec_matches_the_lattice_kernels():
    # the walker's byte buffer and defect bits against defect_map, _site_k
    # and SpinConfig.key() after every flip, on plus and non-plus frames
    rng = np.random.default_rng(12)
    for L in range(2, 6):
        theta = np.ones((L + 2, L + 2), dtype=np.int8)
        theta[0, 1] = theta[L + 1, 2] = theta[3, 0] = -1
        for spec in (LatticeSpec(L, PLUS), LatticeSpec(L, FIXED, theta=theta)):
            sites = spec.sites()
            cfg = random_config(spec, rng)
            w = _Walker(cfg)
            for _ in range(60):
                x = sites[int(rng.integers(len(sites)))]
                w.flip(x)
                cfg = cfg.flip([x])
                d = defect_map(cfg)
                k = _site_k(spec, d.plaq == -1)
                assert w.count == d.count
                assert w.key() == cfg.key() and w.config() == cfg
                assert [w.k_at(y) for y in sites] == [int(k[_site_index(spec, y)]) for y in sites]


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
        assert e.e_minus == a and e.e_plus() == b
    counts = p.defect_counts()
    assert counts[0] == defect_map(cfg).count and counts[-1] == 0


def test_path_text_roundtrip():
    spec = LatticeSpec(3, PLUS)
    p = naive_path(SpinConfig.all_minus(spec))
    q = path_from_text(spec, path_to_text(p))
    assert q.initial == p.initial and q.flips == p.flips
    for site in ("0 1", "4 2", "2 -1"):
        with pytest.raises(ValueError, match="outside the box"):
            path_from_text(spec, "+++/+++/+++\n" + site + "\n")


def test_canonical_path_rejects_sites_outside_the_box():
    # the walker indexes sites unchecked: (0, 1) used to flip (3, 1)
    # through a negative index
    cfg = SpinConfig.all_plus(LatticeSpec(3, PLUS))
    for site in ((0, 1), (4, 2), (2, -1), (1, 4)):
        with pytest.raises(ValueError, match="outside the box"):
            CanonicalPath(cfg, [(1, 1), site], [])
    p = CanonicalPath(cfg, [(1, 1), (3, 3)], [])
    assert p.final == cfg.flip([(1, 1), (3, 3)])


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
            want = set(d.defects()).symmetric_difference(R.corner_set())
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


def test_removal_order_starts_at_the_defect_pair_row():
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
            assert [s.key() for s in m.states()] == [s.key() for s in mirrored]
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
    assert v.total == 4 and v.v_max == 2 and v.num(2) == 2 and v.num(0) == 2


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
    cost, n_edges, *digests = FLOW_PINS[L, beta, level]
    assert res.cost == cost and len(res.congestion) == n_edges
    assert flow_digests(res) == tuple(digests)


def test_monte_carlo_flow_pinned_bit_for_bit():
    res = flow_cost(LatticeSpec(4, PLUS), 1.0, 1, mode="monte_carlo", seed=123, samples=1000)
    assert res.cost == 35834.439356964416 and res.ci_halfwidth == 70235.50113965027
    assert len(res.congestion) == 11949
    assert flow_digests(res) == ("f7081a94c3106e3c", "92ae705953e6a7fb")


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


def test_flow_report_csv_sorted():
    res = flow_cost(LatticeSpec(2, PLUS), 1.0, level=1)
    lines = flow_report_csv(res).strip().splitlines()
    assert lines[0] == "edge_state_hash,site_x,site_y,congestion"
    vals = [float(ln.rsplit(",", 1)[1]) for ln in lines[1:]]
    assert vals == sorted(vals, reverse=True)
    assert vals[0] == pytest.approx(res.cost, rel=1e-12)
