"""Single-flip Glauber dynamics for the plaquette model, event-driven.

Flipping the spin at site x toggles exactly the (up to) four plaquettes
containing x. With k of those four currently defective, the flip changes
the defect count by 4 - 2k, so the jump rates depend on the configuration
only through k. Two standard rate families are provided:

* metropolis: rate = min(1, exp(-beta * (4 - 2k)))
* heat_bath:  rate = 1 / (1 + exp(beta * (4 - 2k)))

Both satisfy detailed balance for the weights exp(-beta * defect count).

Simulation is event-driven and rejection-free (the n-fold way of Bortz,
Kalos and Lebowitz): waiting times are sampled from the current total
rate and only actual flips cost work, so metastable stretches are free.
Since a rate depends only on k, the simulator keeps the sites in five
buckets by k. An event draws an exponential holding time, then one
uniform that picks a class from the five weights len(bucket) * rate(k)
and a site inside it. A flip XORs one bit into the configuration's code
and the site's plaquette mask into its defect int (`lattice._CodedState`),
and re-reads k, a popcount, at the at most nine sites that share a
plaquette with it. No step scans the L^2 rates; what grows with the box
is only the cost of the XORs and popcounts on the two ints. All
randomness flows through numpy Generators seeded via SeedSequence so runs
are reproducible and replicas independent. `simulate` is the module's
one event loop; `hitting_time` and `trace_chain` run through it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .lattice import (
    FIXED,
    BudgetExceededError,
    LatticeSpec,
    SpinConfig,
    _CodedState,
    _grid_from_text,
    _grid_to_text,
    _site_codec,
    _site_flat,
    _site_masks,
)

MAX_EVENTS_DEFAULT = 10**7


class RateModel:
    """Jump-rate family at a fixed inverse temperature."""

    KINDS = ("metropolis", "heat_bath")

    def __init__(self, beta, kind="metropolis"):
        if kind not in self.KINDS:
            raise ValueError(f"unknown rate kind {kind!r}")
        if not (math.isfinite(beta) and beta >= 0):
            raise ValueError("beta must be finite and nonnegative")
        self.beta = float(beta)
        self.kind = kind
        ks = np.arange(5)
        dh = 4.0 - 2.0 * ks
        if kind == "metropolis":
            tbl = np.minimum(1.0, np.exp(-self.beta * dh))
        else:
            tbl = 1.0 / (1.0 + np.exp(self.beta * dh))
        self.table = tbl

    def rate_for_k(self, k):
        """Rate of a flip that finds k of the site's four plaquettes defective."""
        return float(self.table[k])

    def __repr__(self):
        return f"RateModel(beta={self.beta}, kind={self.kind!r})"


def site_defect_count(cfg, x):
    """How many of the plaquettes containing site x are defective."""
    return _CodedState(cfg).k_index(_site_flat(cfg.spec, x))


def site_rate(model, cfg, x):
    """Jump rate of the flip at x from configuration cfg."""
    return model.rate_for_k(site_defect_count(cfg, x))


@functools.lru_cache(maxsize=None)
def _near_sites(side, periodic):
    """Per flat site index t = i*L + j of a box, the flat indices of the
    sites whose k a flip at t can change: those sharing a plaquette with
    t, t itself included."""
    L = side
    masks = _site_masks(side, periodic)
    near = []
    for i in range(L):
        for j in range(L):
            t = i * L + j
            block = set()
            for a in range(i - 1, i + 2):
                for b in range(j - 1, j + 2):
                    if not periodic and not (0 <= a < L and 0 <= b < L):
                        continue
                    u = a % L * L + b % L
                    if masks[u] & masks[t]:
                        block.add(u)
            near.append(tuple(sorted(block)))
    return tuple(near)


class Simulator(_CodedState):
    """Mutable chain state with rejection-free event selection.

    The state is a `lattice._CodedState`: the configuration's code (so
    `state_key()` is `SpinConfig.code`) and its defect int; a flip is two
    XORs, and the defect count and each neighbour's k are popcounts.
    Sites sit in five buckets by k, so a step draws a class from the five
    weights len(bucket) * rate(k) and then a site uniformly inside it.

    Sites are addressed in lattice coordinates (1-based for fixed boxes,
    0-based for periodic ones). Stop predicates receive this object and
    may read `time`, `n_events`, `n_defects`, `code` and `state()`.
    """

    def __init__(self, spec, model, init, rng):
        if init.spec != spec:
            raise ValueError("initial configuration belongs to a different box")
        super().__init__(init)
        self.model = model
        self.rng = rng
        self.time = 0.0
        self.n_events = 0
        self._near = _near_sites(spec.side, spec.is_periodic)
        self.n_defects = self.count
        self._k = [self.k_index(t) for t in range(len(self.masks))]
        self._rate = model.table.tolist()
        self._buckets = [[], [], [], [], []]
        self._pos = [0] * len(self._k)
        for t, k in enumerate(self._k):
            self._pos[t] = len(self._buckets[k])
            self._buckets[k].append(t)
        self._total = self._rate_sum()

    def _rate_sum(self):
        b, r = self._buckets, self._rate
        return (len(b[0]) * r[0] + len(b[1]) * r[1] + len(b[2]) * r[2]
                + len(b[3]) * r[3] + len(b[4]) * r[4])

    state = _CodedState.config

    def state_key(self):
        return self.code

    def _flip(self, t):
        self.code ^= 1 << t
        D = self.D ^ self.masks[t]
        self.D = D
        self.n_defects = D.bit_count()
        k, pos, buckets, masks = self._k, self._pos, self._buckets, self.masks
        for u in self._near[t]:
            new = (D & masks[u]).bit_count()
            old = k[u]
            if new != old:
                bucket = buckets[old]
                last = bucket.pop()
                if last != u:
                    bucket[pos[u]] = last
                    pos[last] = pos[u]
                bucket = buckets[new]
                pos[u] = len(bucket)
                bucket.append(u)
                k[u] = new
        self._total = self._rate_sum()

    def step(self):
        """Advance by one event; returns the flipped site."""
        total = self._total
        if total <= 0:
            raise RuntimeError("total rate vanished; no move possible")
        self.time += self.rng.exponential(1.0 / total)
        r = self.rng.random() * total
        rate = self._rate
        for k, bucket in enumerate(self._buckets):
            w = len(bucket) * rate[k]
            if r < w:
                t = bucket[min(int(r / rate[k]), len(bucket) - 1)]
                break
            r -= w
        else:
            # rounding carried r past the last class: take the last class of
            # positive weight
            k = max(k for k, bucket in enumerate(self._buckets) if bucket and rate[k] > 0)
            t = self._buckets[k][-1]
        self._flip(t)
        self.n_events += 1
        return self.sites[t]


@dataclass
class Trajectory:
    spec: LatticeSpec
    beta: float
    kind: str
    seed: object
    initial: SpinConfig
    events: list  # [(time, site)] or None when not recorded
    final: SpinConfig
    n_events: int
    elapsed: float
    stopped: bool  # True when the stop predicate fired


def stop_after_events(n):
    def pred(sim):
        return sim.n_events >= n

    return pred


def stop_after_time(t):
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"stop time must be finite and nonnegative, got {t!r}")

    def pred(sim):
        return sim.time >= t

    return pred


def stop_at_zero_defects():
    def pred(sim):
        return sim.n_defects == 0

    return pred


def _check_box(sim, cfg):
    if sim.spec != cfg.spec:
        raise ValueError("stop target belongs to a different box")


def stop_at_state(cfg):
    code = cfg.code

    def pred(sim):
        if sim.n_defects:
            return False
        _check_box(sim, cfg)  # only at zero defects: no cost per event
        return sim.code == code

    return pred


def stop_at_ground_other_than(cfg0):
    code0 = cfg0.code

    def pred(sim):
        if sim.n_defects:
            return False
        _check_box(sim, cfg0)
        return sim.code != code0

    return pred


def _as_rng(seed):
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.PCG64(seed))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def simulate(
    spec,
    beta,
    init,
    stop,
    seed=0,
    kind="metropolis",
    max_events=MAX_EVENTS_DEFAULT,
    record=True,
):
    """Run until the stop predicate fires; raise if the event budget runs out.

    The predicate is checked on the initial state and after every event, so
    a predicate true at time zero yields an empty trajectory.
    """
    model = RateModel(beta, kind)
    sim = Simulator(spec, model, init, _as_rng(seed))
    events = [] if record else None

    def snapshot(stopped):
        return Trajectory(
            spec=spec,
            beta=beta,
            kind=kind,
            seed=seed,
            initial=init,
            events=events,
            final=sim.state(),
            n_events=sim.n_events,
            elapsed=sim.time,
            stopped=stopped,
        )

    stopped = stop(sim)
    while not stopped:
        if sim.n_events >= max_events:
            err = BudgetExceededError(
                f"event budget {max_events} exhausted before the stop condition"
            )
            err.partial = snapshot(stopped=False)
            raise err
        site = sim.step()
        if record:
            events.append((sim.time, site))
        stopped = stop(sim)
    return snapshot(stopped=True)


def replay_trajectory(traj):
    """Recompute the final state from the initial state and the event list."""
    if traj.events is None:
        raise ValueError("trajectory was not recorded")
    spec = traj.spec
    L = spec.side
    flat = _site_codec(L, spec.is_periodic)[1]
    try:
        ts = [flat[site] for _, site in traj.events]
    except KeyError as err:
        raise ValueError(f"event site {err.args[0]} outside the box") from None
    odd = np.bincount(np.array(ts, np.int64), minlength=L * L).reshape(L, L) % 2 == 1
    spins = traj.initial.spins
    return SpinConfig._from_frozen(spec, np.where(odd, -spins, spins))


@dataclass
class HittingResult:
    taus: np.ndarray  # hitting times; nan where the budget ran out
    flagged: int
    mean: float
    ci_lo: float
    ci_hi: float
    replicas: int


def hitting_time(
    spec,
    beta,
    init,
    target,
    replicas,
    seed=0,
    kind="metropolis",
    max_events=MAX_EVENTS_DEFAULT,
):
    """Mean hitting time of a target predicate over independent replicas.

    The confidence interval is a 95% normal interval for log(mean), mapped
    back, which keeps it positive and stable across the decades these
    times span. Budget-exhausted replicas are excluded and counted in
    `flagged`. An initial state already in the target gives time 0.
    """
    ss = np.random.SeedSequence(seed)
    children = ss.spawn(replicas)
    taus = np.full(replicas, np.nan)
    for r in range(replicas):
        try:
            traj = simulate(
                spec,
                beta,
                init,
                target,
                seed=children[r],
                kind=kind,
                max_events=max_events,
                record=False,
            )
            taus[r] = traj.elapsed
        except BudgetExceededError:
            pass
    good = taus[~np.isnan(taus)]
    flagged = int(np.isnan(taus).sum())
    if good.size == 0:
        return HittingResult(taus, flagged, math.nan, math.nan, math.nan, replicas)
    mean = float(good.mean())
    if good.size > 1 and mean > 0:
        se = float(good.std(ddof=1)) / math.sqrt(good.size)
        half = 1.96 * se / mean
        ci_lo, ci_hi = mean * math.exp(-half), mean * math.exp(half)
    else:
        ci_lo = ci_hi = mean
    return HittingResult(taus, flagged, mean, ci_lo, ci_hi, replicas)


@dataclass
class TraceSample:
    times: list
    states: list
    n_events: int
    completed: bool


def trace_chain(
    spec,
    beta,
    init,
    in_set,
    n_records,
    seed=0,
    kind="metropolis",
    max_events=MAX_EVENTS_DEFAULT,
):
    """Watch the chain only through a subset S of states.

    Records the first S-state seen (the initial one if it lies in S),
    then each later time the chain sits in S at a state different from
    the last record. Excursions outside S are skipped entirely; repeated
    re-entries at the unchanged state are not records. Stops after
    n_records records or when the event budget is spent (completed=False
    then). The chain runs through `simulate`, whose stop predicate takes
    the records.
    """
    times, states = [], []
    last_code = None

    def watch(sim):
        nonlocal last_code
        if in_set(sim) and sim.code != last_code:
            times.append(sim.time)
            states.append(sim.state())
            last_code = sim.code
        return len(states) >= n_records

    try:
        traj = simulate(spec, beta, init, watch, seed=seed, kind=kind,
                        max_events=max_events, record=False)
    except BudgetExceededError as err:
        return TraceSample(times, states, err.partial.n_events, completed=False)
    return TraceSample(times, states, traj.n_events, completed=True)


# Trajectory serialization: a small line-oriented text format so runs can
# be stored, inspected, and replayed exactly.


def frame_from_text(side, text):
    """Parse an (L+2)-line frame block into a theta array for LatticeSpec."""
    return _grid_from_text(text, side + 2)


def trajectory_to_text(traj):
    if traj.events is None:
        raise ValueError("trajectory was not recorded")
    spec = traj.spec
    out = ["# schema=1", "# kind=trajectory"]
    out.append(f"beta = {traj.beta!r}")
    out.append(f"side = {spec.side}")
    out.append(f"bc = {spec.bc}")
    out.append(f"rates = {traj.kind}")
    out.append(f"n_events = {traj.n_events}")
    out.append(f"elapsed = {traj.elapsed!r}")
    if spec.bc == FIXED:
        out.append("[frame]")
        out.append(_grid_to_text(spec.frame_template()))
    out.append("[init]")
    out.append(traj.initial.to_text())
    out.append("[events]")
    for t, site in traj.events:
        out.append(f"{t!r} {site[0]} {site[1]}")
    out.append("[final]")
    out.append(traj.final.to_text())
    return "\n".join(out) + "\n"


def trajectory_from_text(text):
    lines = text.splitlines()
    header = {}
    sections = {}
    current = None
    for ln in lines:
        s = ln.strip()
        if not s or s.startswith("#"):
            continue
        if s.startswith("[") and s.endswith("]"):
            current = s[1:-1]
            sections[current] = []
        elif current is None:
            if "=" not in s:
                raise ValueError(f"bad header line {ln!r}")
            k, v = s.split("=", 1)
            header[k.strip()] = v.strip()
        else:
            sections[current].append(s)

    def header_value(key):
        if key not in header:
            raise ValueError(f"trajectory text lacks the header key {key!r}")
        return header[key]

    def section_text(name):
        if name not in sections:
            raise ValueError(f"trajectory text lacks the [{name}] section")
        return "\n".join(sections[name])

    side = int(header_value("side"))
    bc = header_value("bc")
    if bc == FIXED:
        spec = LatticeSpec(side, FIXED, frame_from_text(side, section_text("frame")))
    else:
        spec = LatticeSpec(side, bc)
    init = SpinConfig.from_text(spec, section_text("init"))
    final = SpinConfig.from_text(spec, section_text("final"))
    events = []
    for row in sections.get("events", []):
        t_s, a, b = row.split()
        events.append((float(t_s), (int(a), int(b))))
    n_events = int(header_value("n_events"))
    if n_events != len(events):
        raise ValueError(f"header key 'n_events' = {n_events} but [events] has {len(events)} lines")
    elapsed = float(header_value("elapsed"))
    last = events[-1][0] if events else 0.0
    if not (math.isfinite(elapsed) and elapsed >= last):
        raise ValueError(f"header key 'elapsed' = {elapsed!r} is not finite or before {last!r}")
    model = RateModel(float(header_value("beta")), header_value("rates"))
    traj = Trajectory(
        spec=spec,
        beta=model.beta,
        kind=model.kind,
        seed=None,
        initial=init,
        events=events,
        final=final,
        n_events=n_events,
        elapsed=elapsed,
        stopped=True,
    )
    if replay_trajectory(traj) != final:
        raise ValueError("event list does not reproduce the recorded final state")
    return traj
