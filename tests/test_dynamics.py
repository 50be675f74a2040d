"""Rate model, event-driven simulation, stop rules, and trajectory I/O."""

import math

import numpy as np
import pytest
from scipy.special import chdtrc

from plaquette.dynamics import (
    RateModel,
    Simulator,
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
    return SpinConfig._from_frozen(spec, (1 - 2 * bits).astype(np.int8))


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
        for _ in range(6):
            sim.step()
            assert sim.n_defects == defect_count(sim.state()) == 0
            assert sim._total == model.rate_for_k(2)
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
    # defect count, key and total rate against the lattice kernels after every step
    specs = (LatticeSpec(2, PERIODIC), LatticeSpec(3, PERIODIC), mixed_frame_spec(3), LatticeSpec(4, PLUS))
    for spec in specs:
        rng = np.random.default_rng(2)
        model = RateModel(0.8)
        sim = Simulator(spec, model, random_config(spec, rng), rng)
        for _ in range(300):
            sim.step()
            cfg = sim.state()
            assert sim.n_defects == defect_count(cfg)
            assert sim.state_key() == cfg.key()
            total = model.table[_site_k(spec, defect_map(cfg).plaq == -1)].sum()
            assert sim._total == pytest.approx(total, rel=1e-12)
        assert sim.n_events == 300
        assert sim.time > 0


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
            i = G.config_index(cfg)
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


def test_stop_after_time_rejects_bad_times():
    # a nan stop time used to run the chain to the event budget
    for t in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            stop_after_time(t)
    assert stop_after_time(0)


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
    # (0, 1) is frame, not box; a negative index would land on (3, 1)
    traj.events.append((traj.elapsed + 1.0, (0, 1)))
    with pytest.raises(ValueError, match="outside the box"):
        replay_trajectory(traj)
    traj.events[-1] = (traj.elapsed + 1.0, (4, 1))
    with pytest.raises(ValueError, match="outside the box"):
        replay_trajectory(traj)


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
    late = text.replace(f"elapsed = {traj.elapsed!r}", "elapsed = 1000000000.0")
    assert trajectory_from_text(late).elapsed == 1e9


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
