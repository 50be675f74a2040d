"""Rate model, event-driven simulation, stop rules, and trajectory I/O."""

import hashlib
import math
import warnings

import numpy as np
import pytest
from scipy.special import chdtrc

from plaquette.dynamics import (
    POP4,
    RateModel,
    Simulator,
    _as_rng,
    frame_from_text,
    hitting_time,
    simulate,
    site_defect_count,
    site_rate,
    stop_after_events,
    stop_after_time,
    stop_at_ground_other_than,
    stop_at_state,
    stop_at_zero_defects,
    trace_chain,
    trajectory_from_text,
    trajectory_to_text,
    replay_trajectory,
)
from plaquette.exact import build_generator
from plaquette.lattice import (
    FIXED,
    PERIODIC,
    PLUS,
    BudgetExceededError,
    LatticeSpec,
    SpinConfig,
    _site_k,
    _site_plaquettes,
    _toggles,
    defect_count,
    defect_map,
    relative_weight,
)


def mixed_frame_spec(side):
    """A fixed box whose frame is not all plus (and not all minus)."""
    theta = np.ones((side + 2, side + 2), dtype=np.int8)
    theta[0, 1] = theta[side + 1, 2] = theta[3, 0] = -1
    return LatticeSpec(side, FIXED, theta=theta)


def random_config(spec, rng):
    bits = rng.integers(0, 2, size=(spec.side, spec.side))
    return SpinConfig(spec, 1 - 2 * bits)


def bucket_total(sim):
    """The simulator's total rate: each k bucket's size times its rate."""
    return sum(len(b) * r for b, r in zip(sim._buckets, sim._rate))


def test_metropolis_table():
    m = RateModel(1.0)
    # k minus plaquettes in the flip block; the flip leaves 4 - k of them
    for k, dn in enumerate((4, 2, 0, -2, -4)):
        assert m.rate_for_k(k) == pytest.approx(min(1.0, math.exp(-dn)), rel=1e-14)


def test_heat_bath_within_factor_two_of_metropolis():
    for beta in (0.3, 1.0, 2.5):
        met = RateModel(beta, "metropolis").table
        hb = RateModel(beta, "heat_bath").table
        assert np.all(hb <= met + 1e-15)
        assert np.all(hb >= 0.5 * met - 1e-15)


def test_bad_rate_kind():
    with pytest.raises(ValueError):
        RateModel(1.0, "glauber-ish")


def test_rate_model_rejects_bad_beta():
    # nan and inf used to build nan tables that failed later, in the eigensolver
    for kind in RateModel.KINDS:
        for beta in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ValueError, match="beta must be finite and nonnegative"):
                RateModel(beta, kind)


def test_rate_model_is_silent_and_exact_at_large_beta():
    # exp(beta * dh) overflows to inf there (and beta * dh itself at
    # 1e308); min(1, inf) and 1 / (1 + inf) are the exact rates, but the
    # table used to warn of the overflow
    for beta in (200.0, 1e308):
        for kind in RateModel.KINDS:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                table = RateModel(beta, kind).table
            for k, dh in enumerate((4, 2, 0, -2, -4)):
                e = math.exp(-beta * abs(dh))  # in [0, 1]: no overflow
                if kind == "metropolis":
                    ref = e if dh > 0 else 1.0
                else:
                    ref = e / (1.0 + e) if dh > 0 else 1.0 / (1.0 + e)
                assert table[k] == pytest.approx(ref, rel=1e-15, abs=0), (beta, kind, k)


def test_site_defect_count_matches_map():
    rng = np.random.default_rng(0)
    for spec in (LatticeSpec(4, PLUS), LatticeSpec(4, PERIODIC), mixed_frame_spec(4)):
        for _ in range(15):
            cfg = random_config(spec, rng)
            d = defect_map(cfg)
            for x in spec.sites():
                k = site_defect_count(cfg, x)
                flipped = defect_map(cfg.flip([x]))
                assert d.count - flipped.count == 2 * k - 4
    # periodic boxes do not wrap site coordinates; fixed ones exclude the frame
    with pytest.raises(ValueError):
        site_defect_count(SpinConfig.all_plus(LatticeSpec(3, PERIODIC)), (5, 7))
    with pytest.raises(ValueError):
        site_defect_count(SpinConfig.all_plus(LatticeSpec(3, PLUS)), (0, 1))


def test_periodic_unit_box_flips_are_energy_neutral():
    # the one plaquette of the periodic 1x1 box holds its site four times,
    # so a flip leaves it alone: no defect appears and the rate is that of k = 2
    spec = LatticeSpec(1, PERIODIC)
    for kind in ("metropolis", "heat_bath"):
        model = RateModel(1.0, kind)
        rng = np.random.default_rng(3)
        sim = Simulator(spec, model, SpinConfig.all_plus(spec), rng)
        for i in range(6):
            # the flip changes no plaquette, only the code's one bit
            assert sim.step() == (0, 0)
            assert sim.code == (i + 1) % 2
            assert sim.n_defects == defect_count(sim.state()) == 0
            assert bucket_total(sim) == model.rate_for_k(2)
        assert site_rate(model, sim.state(), (0, 0)) == model.rate_for_k(2)
        Q = build_generator(spec, model).Q.toarray()
        assert Q[0, 1] == Q[1, 0] == model.rate_for_k(2)


def test_detailed_balance_pointwise():
    # pi(s) r(s -> t) = pi(t) r(t -> s) for single site flips
    rng = np.random.default_rng(1)
    spec = LatticeSpec(4, PLUS)
    model = RateModel(1.7)
    for _ in range(40):
        cfg = random_config(spec, rng)
        x = (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        other = cfg.flip([x])
        lhs = relative_weight(cfg, 1.7) * site_rate(model, cfg, x)
        rhs = relative_weight(other, 1.7) * site_rate(model, other, x)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_simulator_tracks_defects():
    # state, code, defect count and total rate against a configuration
    # flipped alongside and the lattice kernels, after every step
    specs = (LatticeSpec(2, PERIODIC), LatticeSpec(3, PERIODIC), mixed_frame_spec(3), LatticeSpec(4, PLUS))
    for spec in specs:
        rng = np.random.default_rng(2)
        model = RateModel(0.8)
        cfg = random_config(spec, rng)
        sim = Simulator(spec, model, cfg, rng)
        for _ in range(300):
            cfg = cfg.flip([sim.step()])
            assert sim.state() == cfg
            assert sim.n_defects == defect_count(cfg)
            assert sim.code == cfg.code
            total = model.table[_site_k(spec, defect_map(cfg).plaq == -1)].sum()
            assert bucket_total(sim) == pytest.approx(total, rel=1e-12)
        assert sim.n_events == 300
        assert sim.time > 0


def test_simulate_keeps_the_invariants_after_every_event():
    # a stop predicate checks, after every event of simulate, each site's
    # k against the spin geometry, the defect count, the code against a
    # configuration flipped alongside, and the k buckets
    specs = (LatticeSpec(1, PERIODIC), LatticeSpec(2, PERIODIC), LatticeSpec(3, PERIODIC),
             mixed_frame_spec(3), LatticeSpec(6, PLUS))
    for spec in specs:
        sites = spec.sites()
        for kind in RateModel.KINDS:
            rng = np.random.default_rng(4)
            init = random_config(spec, rng)
            model = RateModel(0.8, kind)
            seen = {"cfg": init, "code": init.code}

            def check(sim):
                flipped = sim.code ^ seen["code"]
                assert sim.n_events == 0 or flipped.bit_count() == 1
                if flipped:
                    seen["cfg"] = seen["cfg"].flip([sites[flipped.bit_length() - 1]])
                seen["code"] = sim.code
                cfg = seen["cfg"]
                assert sim.code == cfg.code == sim.state().code
                assert sim.n_defects == defect_count(cfg)
                k = _site_k(spec, defect_map(cfg).plaq == -1).ravel().tolist()
                assert [POP4[p] for p in sim._pat] == k
                for kb, bucket in enumerate(sim._buckets):
                    assert all(k[t] == kb and sim._pos[t] == i for i, t in enumerate(bucket))
                assert sorted(t for b in sim._buckets for t in b) == list(range(len(sites)))
                assert bucket_total(sim) == pytest.approx(model.table[k].sum(), rel=1e-12)
                return sim.n_events >= 300

            traj = simulate(spec, 0.8, init, check, seed=5, kind=kind)
            assert traj.n_events == 300 and traj.final == seen["cfg"]
            assert replay_trajectory(traj) == traj.final


def test_one_step_law_matches_the_generator_row():
    # from state i the first flip lands on site b with probability
    # Q[i, i ^ (1 << b)] / q_i, after a holding time of mean 1 / q_i
    rng = np.random.default_rng(21)
    n = 4000
    for spec in (LatticeSpec(3, PLUS), LatticeSpec(3, PERIODIC), mixed_frame_spec(3)):
        sites = spec.sites()  # storage order, which is the bit order of the state index
        for kind in RateModel.KINDS:
            model = RateModel(0.7, kind)
            G = build_generator(spec, model)
            cfg = random_config(spec, rng)
            i = cfg.code
            row = np.array([G.Q[i, i ^ (1 << b)] for b in range(len(sites))])
            q = -G.Q[i, i]
            hits = np.zeros(len(sites))
            hold = 0.0
            for _ in range(n):
                sim = Simulator(spec, model, cfg, rng)
                hits[sites.index(sim.step())] += 1
                hold += sim.time
            expected = n * row / q
            chi2 = float(((hits - expected) ** 2 / expected).sum())
            assert chdtrc(len(sites) - 1, chi2) > 1e-3, (spec, kind, hits, expected)
            assert abs(hold / n * q - 1.0) < 4.0 / math.sqrt(n)


def test_simulate_deterministic_given_seed():
    spec = LatticeSpec(3, PLUS)
    init = SpinConfig.all_minus(spec)
    a = simulate(spec, 1.0, init, stop_after_events(200), seed=11)
    b = simulate(spec, 1.0, init, stop_after_events(200), seed=11)
    assert a.events == b.events
    assert a.final == b.final
    assert a.elapsed == b.elapsed
    c = simulate(spec, 1.0, init, stop_after_events(200), seed=12)
    assert c.events != a.events


def test_stop_rules():
    spec = LatticeSpec(3, PLUS)
    init = SpinConfig.all_minus(spec)
    t = simulate(spec, 2.0, init, stop_after_events(137), seed=0)
    assert t.n_events == 137 and t.stopped
    t = simulate(spec, 2.0, init, stop_after_time(5.0), seed=0)
    assert t.elapsed >= 5.0
    t = simulate(spec, 2.0, init, stop_at_zero_defects(), seed=0)
    assert defect_count(t.final) == 0
    t = simulate(spec, 2.0, init, stop_at_state(SpinConfig.all_plus(spec)), seed=0)
    assert t.final == SpinConfig.all_plus(spec)


def test_stop_at_state_fires_at_a_state_with_defects():
    # the target was compared at zero defects only, so this run spent its
    # whole budget though the chain visits the 4-defect target early
    spec = LatticeSpec(2, PLUS)
    init = SpinConfig.all_plus(spec)
    target = init.flip([(1, 1)])
    assert defect_count(target) == 4
    t = simulate(spec, 0.5, init, stop_at_state(target), seed=0, max_events=100_000)
    assert t.final == target and 0 < t.n_events <= 2000


def test_stop_at_state_checks_the_box_before_any_event():
    per = LatticeSpec(3, PERIODIC)
    pred = stop_at_state(SpinConfig.all_plus(LatticeSpec(3, PLUS)).flip([(1, 1)]))
    # a start with defects: the check no longer waits for a ground state
    init = SpinConfig.all_plus(per).flip([(0, 0)])
    sim = Simulator(per, RateModel(1.0), init, _as_rng(0))
    with pytest.raises(ValueError, match="different box"):
        pred(sim)
    with pytest.raises(ValueError, match="different box"):
        sim._run(pred, 100)
    assert sim.n_events == 0
    # each simulator is checked on its first call, so a predicate shared by
    # replicas refuses a later one from another box too
    plus = LatticeSpec(3, PLUS)
    assert not pred(Simulator(plus, RateModel(1.0), SpinConfig.all_plus(plus), None))
    with pytest.raises(ValueError, match="different box"):
        pred(sim)


def test_stop_after_time_rejects_bad_times():
    # a nan stop time used to run the chain to the event budget
    for t in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            stop_after_time(t)
    assert stop_after_time(0)


def test_stop_after_events_rejects_bad_counts():
    # a negative count used to run no event and report tau 0
    for n in (-5, -1, 2.5, float("nan"), "3"):
        with pytest.raises(ValueError, match="nonnegative integer"):
            stop_after_events(n)
    assert stop_after_events(0) and stop_after_events(np.int64(3))


def test_stop_on_initial_state_gives_empty_trajectory():
    spec = LatticeSpec(3, PLUS)
    init = SpinConfig.all_plus(spec)
    t = simulate(spec, 2.0, init, stop_at_zero_defects(), seed=0)
    assert t.n_events == 0 and t.elapsed == 0.0 and t.final == init


def test_stop_at_other_ground():
    spec = LatticeSpec(3, PERIODIC)
    init = SpinConfig.all_plus(spec)
    t = simulate(spec, 2.5, init, stop_at_ground_other_than(init), seed=3)
    assert defect_count(t.final) == 0
    assert t.final != init


def test_stop_target_from_another_box_is_rejected():
    # these matched by spins alone and returned five times
    per = LatticeSpec(3, PERIODIC)
    for target in (stop_at_state(SpinConfig.all_plus(LatticeSpec(3, PLUS))),
                   stop_at_ground_other_than(SpinConfig.all_minus(LatticeSpec(3, PLUS)))):
        with pytest.raises(ValueError, match="different box"):
            hitting_time(per, 1.0, SpinConfig.all_minus(per), target, 5, seed=1)


def test_event_budget_enforced():
    spec = LatticeSpec(3, PLUS)
    init = SpinConfig.all_minus(spec)
    with pytest.raises(BudgetExceededError):
        simulate(spec, 3.0, init, stop_after_events(10**6), seed=0, max_events=50)


def test_trajectory_text_roundtrip_and_replay():
    spec = LatticeSpec(3, PERIODIC)
    rng = np.random.default_rng(4)
    init = random_config(spec, rng)
    traj = simulate(spec, 1.2, init, stop_after_events(150), seed=9)
    back = trajectory_from_text(trajectory_to_text(traj))
    assert back.final == traj.final
    assert back.n_events == traj.n_events
    assert back.elapsed == pytest.approx(traj.elapsed, rel=0, abs=0)
    assert replay_trajectory(back) == traj.final


def test_replay_rejects_sites_outside_the_box():
    spec = LatticeSpec(3, PLUS)
    init = SpinConfig.all_minus(spec)
    traj = simulate(spec, 1.0, init, stop_after_events(5), seed=0)
    text = trajectory_to_text(traj).replace("n_events = 5", "n_events = 6")
    # (0, 1) is frame, not box; a negative index would land on (3, 1)
    for site in ("0 1", "4 1"):
        row = f"{traj.elapsed + 1.0!r} {site}\n"
        with pytest.raises(ValueError, match=f"site \\({site[0]}, 1\\) outside the box"):
            trajectory_from_text(text.replace("[final]", row + "[final]"))
    for t in (-1, 9):
        traj.flips = np.append(traj.flips, t)
        with pytest.raises(ValueError, match="outside the box"):
            replay_trajectory(traj)
        traj.flips = traj.flips[:-1]
    assert replay_trajectory(traj) == traj.final


def test_trajectory_text_names_what_is_missing():
    spec = LatticeSpec(2, PERIODIC)
    traj = simulate(spec, 1.0, SpinConfig.all_minus(spec), stop_after_events(3), seed=0)
    text = trajectory_to_text(traj)
    no_side = "\n".join(ln for ln in text.splitlines() if not ln.startswith("side"))
    with pytest.raises(ValueError, match="'side'"):
        trajectory_from_text(no_side)
    no_final = text[: text.index("[final]")]
    with pytest.raises(ValueError, match=r"\[final\]"):
        trajectory_from_text(no_final)
    spec = mixed_frame_spec(2)
    traj = simulate(spec, 1.0, SpinConfig.all_minus(spec), stop_after_events(3), seed=0)
    text = trajectory_to_text(traj)
    no_frame = text.replace("[frame]", "[framing]")
    with pytest.raises(ValueError, match=r"\[frame\]"):
        trajectory_from_text(no_frame)
    assert trajectory_from_text(text).spec == spec


def test_a_trajectory_header_past_the_site_budget_is_refused():
    # side 3269017 used to end in MemoryError, building the plus box's
    # (L+2)^2 frame before the sections were read
    for bc in (PLUS, PERIODIC):
        spec = LatticeSpec(2, bc)
        traj = simulate(spec, 1.0, SpinConfig.all_minus(spec), stop_after_events(3), seed=0)
        text = trajectory_to_text(traj).replace("side = 2", "side = 3269017")
        with pytest.raises(BudgetExceededError, match=r"^a box of side 3269017 has 3269017\^2"):
            trajectory_from_text(text)


def test_trajectory_header_must_match_the_events():
    spec = LatticeSpec(3, PERIODIC)
    traj = simulate(spec, 1.0, SpinConfig.all_minus(spec), stop_after_events(6), seed=0)
    text = trajectory_to_text(traj)
    too_many = text.replace("n_events = 6", "n_events = 999")
    with pytest.raises(ValueError, match="'n_events'"):
        trajectory_from_text(too_many)
    early = text.replace(f"elapsed = {traj.elapsed!r}", f"elapsed = {0.5 * traj.events[-1][0]!r}")
    with pytest.raises(ValueError, match="'elapsed'"):
        trajectory_from_text(early)
    for bad in ("nan", "inf"):
        with pytest.raises(ValueError, match="'elapsed'"):
            trajectory_from_text(text.replace(f"elapsed = {traj.elapsed!r}", f"elapsed = {bad}"))
    late = text.replace(f"elapsed = {traj.elapsed!r}", "elapsed = 1000000000.0")
    assert trajectory_from_text(late).elapsed == 1e9
    empty = trajectory_to_text(simulate(spec, 1.0, traj.initial, stop_after_events(0)))
    assert "elapsed = 0.0" in empty
    with pytest.raises(ValueError, match="'elapsed'"):
        trajectory_from_text(empty.replace("elapsed = 0.0", "elapsed = -1.0"))
    # beta and rates go through RateModel; these used to load
    for old, new in (("rates = metropolis", "rates = foo"), ("beta = 1.0", "beta = nan"),
                     ("beta = 1.0", "beta = -3.0")):
        assert old in text
        with pytest.raises(ValueError):
            trajectory_from_text(text.replace(old, new))
    back = trajectory_from_text(text.replace("rates = metropolis", "rates = heat_bath"))
    assert back.kind == "heat_bath" and back.beta == 1.0


# (box, beta, events, seed, sha256 of trajectory_to_text, sha256 of
# repr(traj.events)), recorded when each event was stored as a
# (time, site) tuple; all runs start all minus
PINNED_TRAJECTORIES = [
    (lambda: LatticeSpec(64, PLUS), 1.0, 50_000, 7,
     "4a2fdd4ef00530349c54a8a3be9ac60b965991dc2447f0ec09a7983380dbbaa3",
     "f1ee15eab874b973c746f19d9bcf9d42a0e6ff4418d9661d5f0950b8ae635257"),
    (lambda: LatticeSpec(5, PERIODIC), 1.2, 400, 3,
     "dc29151c03307563f2a72f18d594f259e433d326dfa2e8fce66ccdc5989b0cdc",
     "a388b674a1be7d5510c693648767c14f0dc2a2142fbfad5a0d2812a55374c2f9"),
    (lambda: mixed_frame_spec(2), 1.0, 60, 0,
     "fd9d3b70222b0b24bf2c0c5a0b57c464a3941cdbc16118c811519e50769ef156",
     "bdbc3e25c1c8ec6973831eeff810331ca123630ce9a98dc4d5891ccd193a4036"),
    (lambda: LatticeSpec(3, PLUS), 1.0, 0, 0,
     "1b33880440834ca42079cd2c52b749ee350401ac3ecd776c286ae170efe02a49",
     "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
]


@pytest.mark.parametrize("make_spec, beta, n, seed, text_sha, events_sha", PINNED_TRAJECTORIES)
def test_trajectory_columns_keep_the_text_and_the_events(make_spec, beta, n, seed, text_sha,
                                                          events_sha):
    spec = make_spec()
    traj = simulate(spec, beta, SpinConfig.all_minus(spec), stop_after_events(n), seed=seed)
    text = trajectory_to_text(traj)
    assert hashlib.sha256(text.encode()).hexdigest() == text_sha
    assert hashlib.sha256(repr(traj.events).encode()).hexdigest() == events_sha
    assert traj.times.dtype == np.float64 and traj.flips.dtype == np.int64
    assert traj.times.size == traj.flips.size == n
    assert traj.times.nbytes + traj.flips.nbytes <= 16 * traj.n_events
    sites = spec.sites()
    assert [(t, sites[f]) for t, f in zip(traj.times.tolist(), traj.flips.tolist())] == traj.events
    back = trajectory_from_text(text)
    assert back.events == traj.events and back.final == traj.final
    assert np.array_equal(back.flips, traj.flips) and back.flips.dtype == np.int64
    assert trajectory_to_text(back) == text


def test_unrecorded_trajectory_has_no_columns():
    spec = LatticeSpec(3, PLUS)
    traj = simulate(spec, 1.0, SpinConfig.all_minus(spec), stop_after_events(20), record=False)
    assert traj.times is None and traj.flips is None and traj.events is None
    for read in (trajectory_to_text, replay_trajectory):
        with pytest.raises(ValueError, match="not recorded"):
            read(traj)


def test_trajectory_events_block_edge_cases():
    spec = LatticeSpec(3, PERIODIC)
    traj = simulate(spec, 1.0, SpinConfig.all_minus(spec), stop_after_events(6), seed=0)
    text = trajectory_to_text(traj)
    head, rest = text.split("[events]\n")
    block, tail = rest.split("[final]\n")
    rows = block.splitlines()
    # blank and comment lines inside the block are skipped
    spaced = (head + "[events]\n\n# a comment\n" + "\n \t \n".join(rows)
              + "\n   # indented comment\n\n[final]\n" + tail)
    for variant in (spaced, text.replace("[events]", "  [events] ").replace("[final]", "\t[final]"),
                    text.replace("\n", "\r\n")):
        back = trajectory_from_text(variant)
        assert back.events == traj.events and back.final == traj.final
    empty = trajectory_to_text(simulate(spec, 1.0, traj.initial, stop_after_events(0)))
    assert "[events]\n[final]" in empty
    for variant in (empty, empty.replace("[events]\n", "[events]\n\n# no events\n  \n")):
        back = trajectory_from_text(variant)
        assert back.events == [] and back.flips.size == 0 and back.final == traj.initial
    t, i, j = rows[2].split()
    for bad in (f"{t} {i}", f"{t} {i} {j} 7", f"{t} {i}.0 {j}", f"{t} {i} x", f"x {i} {j}",
                f"{t} {i} {j} # inline"):
        with pytest.raises(ValueError, match=r"^bad \[events\] row: .* row \d"):
            trajectory_from_text(text.replace(rows[2], bad))


def test_frame_from_text_rejects_bad_characters():
    good = "++++\n+++-\n-+++\n+-++"
    assert frame_from_text(2, good)[0, 1] == -1
    with pytest.raises(ValueError, match="bad spin character 'x'"):
        frame_from_text(2, good.replace("+++-", "+x+-"))
    with pytest.raises(ValueError):
        frame_from_text(2, good.replace("+++-", "+0+-"))
    with pytest.raises(ValueError):
        SpinConfig.from_text(LatticeSpec(2, PLUS), "+.\n++")


def test_fixed_frame_from_text():
    text = "++++\n+..+\n-..+\n+-++"
    theta = frame_from_text(2, text.replace(".", "+"))
    spec = LatticeSpec(2, FIXED, theta=theta)
    cfg = SpinConfig.all_plus(spec)
    # minus frame spins sit at left column row 1 and bottom row column 1;
    # their plaquette pairs overlap at (0,0), leaving two defects
    assert theta[0, 1] == -1
    assert theta[1, 0] == -1
    assert defect_count(cfg) == 2
    t = simulate(spec, 1.0, cfg, stop_after_events(100), seed=0)
    assert t.n_events == 100


def test_hitting_time_basics():
    spec = LatticeSpec(2, PLUS)
    init = SpinConfig.all_minus(spec)
    res = hitting_time(spec, 1.5, init, stop_at_zero_defects(), 25, seed=7)
    assert res.replicas == 25 and res.flagged == 0
    assert res.ci_lo <= res.mean <= res.ci_hi
    assert np.all(res.taus > 0)
    again = hitting_time(spec, 1.5, init, stop_at_zero_defects(), 25, seed=7)
    assert np.array_equal(res.taus, again.taus)


def test_hitting_time_zero_when_started_in_target():
    spec = LatticeSpec(2, PLUS)
    res = hitting_time(spec, 1.0, SpinConfig.all_plus(spec), stop_at_zero_defects(), 5, seed=0)
    assert np.all(res.taus == 0.0)


def test_hitting_time_budget_flags():
    spec = LatticeSpec(3, PLUS)
    init = SpinConfig.all_minus(spec)
    # nine sites must flip at least once; eight events can never finish
    res = hitting_time(
        spec, 3.0, init, stop_at_zero_defects(), 6, seed=1, max_events=8
    )
    assert res.flagged == 6
    assert math.isnan(res.mean)


def hitting_taus_by_simulate(spec, beta, init, target, replicas, seed, max_events):
    """hitting_time's taus the way they were first computed: one `simulate`
    per child seed, nan where the budget ran out."""
    taus = np.full(replicas, np.nan)
    for r, child in enumerate(np.random.SeedSequence(seed).spawn(replicas)):
        try:
            taus[r] = simulate(spec, beta, init, target, seed=child,
                               max_events=max_events, record=False).elapsed
        except BudgetExceededError:
            pass
    return taus


@pytest.mark.parametrize("seed", [7, (7, 2)])  # an int and the tuple of `arrhenius`
def test_replicas_draw_the_spawned_streams(seed):
    spec = LatticeSpec(3, PERIODIC)
    start = Simulator(spec, RateModel(1.0), SpinConfig.all_plus(spec), None)
    sims = list(start.replicas(seed, 4))
    assert len(sims) == 4
    for sim, child in zip(sims, np.random.SeedSequence(seed).spawn(4)):
        ref = start.replica(_as_rng(child))
        assert sim.rng.bit_generator.state == ref.rng.bit_generator.state
        assert [sim.step() for _ in range(50)] == [ref.step() for _ in range(50)]
        assert (sim.time, sim.code, sim.n_defects) == (ref.time, ref.code, ref.n_defects)
    assert start.n_events == 0 and start.code == 0


@pytest.mark.parametrize("side", [2, 3, 4, 5])
def test_hitting_time_replicas_match_a_loop_of_simulate(side):
    plus, per = LatticeSpec(side, PLUS), LatticeSpec(side, PERIODIC)
    rect = SpinConfig.all_plus(plus).flip(
        [(i, j) for i in range(1, side + 1) for j in range(1, side // 2 + 1)])
    ground0 = SpinConfig.all_plus(per)
    cases = [(plus, rect, stop_at_zero_defects()),
             (per, ground0, stop_at_ground_other_than(ground0))]
    flagged = []
    for spec, init, target in cases:
        # the small budget leaves some replicas unfinished
        for max_events in (10**6, 12):
            res = hitting_time(spec, 2.5, init, target, 30, seed=side, max_events=max_events)
            ref = hitting_taus_by_simulate(spec, 2.5, init, target, 30, side, max_events)
            assert np.array_equal(res.taus, ref, equal_nan=True)
            assert res.flagged == int(np.isnan(ref).sum())
            flagged.append(res.flagged)
    assert any(0 < f < 30 for f in flagged)


def test_a_replica_leaves_its_start_unchanged():
    spec = LatticeSpec(4, PLUS)
    init = random_config(spec, np.random.default_rng(3))
    model = RateModel(1.0)
    start = Simulator(spec, model, init, None)
    sim = start.replica(np.random.default_rng(4))
    sim._run(stop_after_events(200), 10**6)
    assert sim.n_events == 200 and start.n_events == 0
    fresh = Simulator(spec, model, init, None)
    assert start._pat == fresh._pat
    assert start._buckets == fresh._buckets
    assert start._pos == fresh._pos
    assert (start.code, start.n_defects, start.time) == (init.code, defect_count(init), 0.0)


class FixedDraws:
    """A Generator stand-in whose uniforms are all u and whose holding
    times are all 1."""

    def __init__(self, u):
        self.u = u

    def standard_exponential(self, size):
        return np.ones(size)

    def random(self, size):
        return np.full(size, self.u)


@pytest.mark.parametrize("u", [1.0, 1.5])
def test_event_loop_takes_the_last_positive_class_past_the_weights(u):
    spec = LatticeSpec(3, PLUS)
    init = SpinConfig.all_minus(spec)
    # r = u * total reaches or passes the total, as rounding can carry it
    sim = Simulator(spec, RateModel(1.0), init, FixedDraws(u))
    k = max(k for k, b in enumerate(sim._buckets) if b)
    last = sim._buckets[k][-1]
    assert sim.step() == sim.sites[last]
    assert sim.n_defects == defect_count(init) + 4 - 2 * k


def test_event_loop_takes_the_last_site_when_the_index_rounds_up():
    spec = LatticeSpec(3, PLUS)
    init = SpinConfig.all_minus(spec)
    found = 0
    for i in range(2000):
        sim = Simulator(spec, RateModel(0.5 + i / 1000), init, None)
        w = [len(b) * r for b, r in zip(sim._buckets, sim._rate)]
        k = next(k for k, wk in enumerate(w) if wk)
        # the largest r inside class k whose quotient r / rate rounds up
        r = math.nextafter(w[k], 0.0)
        total = bucket_total(sim)
        u = r / total
        if u * total != r or int(r / sim._rate[k]) < len(sim._buckets[k]):
            continue
        sim.rng = FixedDraws(u)
        last = sim._buckets[k][-1]
        assert sim.step() == sim.sites[last]
        found += 1
    assert found


@pytest.mark.parametrize("count", [0, -1, 2.5])
def test_hitting_time_rejects_replica_counts_below_one(count):
    spec = LatticeSpec(2, PLUS)
    with pytest.raises(ValueError, match="replicas must be an integer of at least 1"):
        hitting_time(spec, 1.0, SpinConfig.all_minus(spec), stop_at_zero_defects(), count)


def test_trace_chain_records_in_set_and_distinct():
    spec = LatticeSpec(3, PERIODIC)
    init = SpinConfig.all_plus(spec)

    def in_ground(sim):
        return sim.n_defects == 0

    tr = trace_chain(spec, 2.0, init, in_ground, n_records=60, seed=5)
    assert tr.completed and len(tr.states) == 60
    for s in tr.states:
        assert defect_count(s) == 0
    for a, b in zip(tr.states, tr.states[1:]):
        assert a != b
    assert all(t2 >= t1 for t1, t2 in zip(tr.times, tr.times[1:]))


def test_trace_chain_takes_a_nonnegative_integer_record_count():
    # 0 and -3 used to return one record from a start in the set, 2.5 three
    spec = LatticeSpec(3, PERIODIC)
    init = SpinConfig.all_plus(spec)

    def anywhere(sim):
        return True

    none = trace_chain(spec, 2.0, init, anywhere, n_records=0, seed=5)
    assert none.completed and none.n_events == 0 and none.states == [] and none.times == []
    assert len(trace_chain(spec, 2.0, init, anywhere, n_records=1, seed=5).states) == 1
    for bad in (-3, 2.5, "3", None):
        with pytest.raises(ValueError, match="n_records must be a nonnegative integer"):
            trace_chain(spec, 2.0, init, anywhere, n_records=bad, seed=5)


def test_trace_chain_budget_leaves_it_incomplete():
    spec = LatticeSpec(3, PERIODIC)
    init = SpinConfig.all_plus(spec)

    def in_ground(sim):
        return sim.n_defects == 0

    full = trace_chain(spec, 2.0, init, in_ground, n_records=30, seed=5)
    short = trace_chain(spec, 2.0, init, in_ground, n_records=30, seed=5,
                        max_events=full.n_events - 1)
    assert not short.completed and short.n_events == full.n_events - 1
    assert short.states == full.states[: len(short.states)] and len(short.states) < 30
    assert short.times == full.times[: len(short.times)]
    empty = trace_chain(spec, 2.0, init, lambda sim: False, n_records=0, seed=5)
    assert empty.completed and empty.n_events == 0 and empty.states == []


def toggles_from_offsets(side, periodic):
    """`lattice._toggles` as it was first built: the XOR mask of each offset
    (da, db) read off the centre of a fixed 3x3 box, with offsets that wrap
    onto one site (periodic L <= 2) XORing their masks."""
    slots = list(_site_plaquettes(3, False))
    centre = slots[4]
    x_at = {(da, db): sum((p in centre) << s for s, p in enumerate(slots[4 + 3 * da + db]))
            for da in (-1, 0, 1) for db in (-1, 0, 1)}
    L = side
    table = []
    for i in range(L):
        for j in range(L):
            xs = {}
            for (da, db), x in x_at.items():
                a, b = i + da, j + db
                if periodic:
                    a, b = a % L, b % L
                elif not (0 <= a < L and 0 <= b < L):
                    continue
                xs[a * L + b] = xs.get(a * L + b, 0) ^ x
            table.append(tuple((u, x) for u, x in sorted(xs.items()) if x))
    return tuple(table)


def test_toggles_match_the_offset_construction():
    for L in (1, 2, 3, 4, 5, 8, 64):
        for periodic in (False, True):
            assert _toggles(L, periodic) == toggles_from_offsets(L, periodic), (L, periodic)
    assert _toggles(1, True) == ((),)


def test_simulator_refuses_a_start_from_another_box():
    spec = LatticeSpec(3, PLUS)
    with pytest.raises(ValueError, match="^initial configuration belongs to a different box$"):
        Simulator(spec, RateModel(1.0), SpinConfig.all_plus(LatticeSpec(3, PERIODIC)),
                  _as_rng(0))


def test_trajectory_event_times_must_be_finite_nonnegative_and_in_order():
    # each of these used to load: swapped times as [1.64, 1.34, 1.67, 4.28]
    spec = LatticeSpec(3, PLUS)
    traj = simulate(spec, 1.0, SpinConfig.all_minus(spec), stop_after_events(4), seed=0)
    text = trajectory_to_text(traj)
    head, rest = text.split("[events]\n")
    body, final = rest.split("[final]\n")
    rows = [ln.split(" ", 1) for ln in body.splitlines()]
    assert len(rows) == 4

    def edited(times):
        lines = "".join(f"{t} {site}\n" for t, (_, site) in zip(times, rows))
        return f"{head}[events]\n{lines}[final]\n{final}"

    times = [t for t, _ in rows]
    assert trajectory_from_text(edited(times)).times.tolist() == traj.times.tolist()
    swapped = [times[1], times[0], *times[2:]]
    for bad, row in ((swapped, 2), ([times[0], "nan", *times[2:]], 2),
                     ([times[0], "-5.0", *times[2:]], 2), (["-5.0", *times[1:]], 1)):
        with pytest.raises(ValueError, match=rf"^\[events\] row {row} has time "):
            trajectory_from_text(edited(bad))


def test_trajectory_text_with_a_bad_header_or_final_state_is_refused():
    spec = LatticeSpec(3, PLUS)
    traj = simulate(spec, 1.0, SpinConfig.all_minus(spec), stop_after_events(20), seed=1)
    text = trajectory_to_text(traj)
    with pytest.raises(ValueError, match="^bad header line 'side 3'$"):
        trajectory_from_text("side 3\n" + text)
    head, final = text.split("[final]\n")
    other = SpinConfig.from_text(spec, final).flip([(2, 2)])
    with pytest.raises(ValueError,
                       match="^event list does not reproduce the recorded final state$"):
        trajectory_from_text(f"{head}[final]\n{other.to_text()}\n")
