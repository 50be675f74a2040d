"""Single-flip Glauber dynamics for the plaquette model, event-driven.

Flipping the spin at site x toggles exactly the (up to) four plaquettes
containing x. With k of those four currently defective, the flip changes
the defect count by 4 - 2k, so the jump rates depend on the configuration
only through k. Two standard rate families are provided:

* metropolis: rate = min(1, exp(-beta * (4 - 2k)))
* heat_bath:  rate = 1 / (1 + exp(beta * (4 - 2k)))

Both satisfy detailed balance for the weights exp(-beta * defect count).

Simulation is event-driven: waiting times are sampled from the current
total rate and only actual flips cost work, so metastable stretches are
free. All randomness flows through numpy Generators seeded via
SeedSequence so runs are reproducible and replicas independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import (
    FIXED,
    BudgetExceededError,
    LatticeSpec,
    SpinConfig,
    _grid_from_text,
    _grid_to_text,
    _plaquettes,
    _site_index,
    _site_k,
    defect_map,
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
    spec = cfg.spec
    return int(_site_k(spec, defect_map(cfg).plaq == -1)[_site_index(spec, x)])


def site_rate(model, cfg, x):
    """Jump rate of the flip at x from configuration cfg."""
    return model.rate_for_k(site_defect_count(cfg, x))


class Simulator:
    """Mutable chain state with incremental rate bookkeeping.

    Sites are addressed in lattice coordinates (1-based for fixed boxes,
    0-based for periodic ones). Stop predicates receive this object and
    may read `time`, `n_events`, `n_defects`, and `state()`.
    """

    def __init__(self, spec, model, init, rng):
        if init.spec != spec:
            raise ValueError("initial configuration belongs to a different box")
        self.spec = spec
        self.model = model
        self.rng = rng
        self.time = 0.0
        self.n_events = 0
        self._L = spec.side
        if spec.is_periodic:
            self._spins = init.spins.copy()
        else:
            self._spins = init.padded()
        self._P = _plaquettes(spec, self._spins)
        defective = self._P == -1
        self._k = _site_k(spec, defective)
        self.n_defects = int(np.count_nonzero(defective))
        self._rates = self.model.table[self._k]
        self._total = float(self._rates.sum())

    def _plaq_block_index(self, i, j):
        """Index arrays of the 2x2 plaquette block around interior site (i, j)."""
        if self.spec.is_periodic:
            L = self._L
            return np.ix_([(i - 1) % L, i], [(j - 1) % L, j])
        return (slice(i, i + 2), slice(j, j + 2))

    def _count_k(self, i, j):
        return int(np.count_nonzero(self._P[self._plaq_block_index(i, j)] == -1))

    def state(self):
        if self.spec.is_periodic:
            arr = self._spins.copy()
        else:
            arr = self._spins[1:-1, 1:-1].copy()
        return SpinConfig._from_frozen(self.spec, arr)

    def state_key(self):
        if self.spec.is_periodic:
            return self._spins.tobytes()
        return self._spins[1:-1, 1:-1].tobytes()

    def flip(self, site):
        """Apply one flip at a lattice-coordinate site, updating bookkeeping."""
        off = 0 if self.spec.is_periodic else 1
        i, j = site[0] - off, site[1] - off
        L = self._L
        if not (0 <= i < L and 0 <= j < L):
            raise ValueError(f"site {site} outside the box")
        if self.spec.is_periodic:
            self._spins[i, j] = -self._spins[i, j]
            if L == 1:
                return  # the flip toggles the one plaquette four times
        else:
            self._spins[i + 1, j + 1] = -self._spins[i + 1, j + 1]
        blk = self._plaq_block_index(i, j)
        before = int(np.count_nonzero(self._P[blk] == -1))
        self._P[blk] = -self._P[blk]
        self.n_defects += (4 - before) - before
        # Only sites sharing a plaquette with (i, j) change their k.
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                a, b = i + di, j + dj
                if self.spec.is_periodic:
                    a %= L
                    b %= L
                elif not (0 <= a < L and 0 <= b < L):
                    continue
                self._k[a, b] = self._count_k(a, b)
                self._rates[a, b] = self.model.table[self._k[a, b]]
        self._total = float(self._rates.sum())

    def step(self):
        """Advance by one event; returns the flipped site."""
        total = self._total
        if total <= 0:
            raise RuntimeError("total rate vanished; no move possible")
        self.time += self.rng.exponential(1.0 / total)
        flat_rates = self._rates.ravel()
        r = self.rng.random() * total
        idx = int(np.searchsorted(np.cumsum(flat_rates), r))
        idx = min(idx, flat_rates.size - 1)
        L = self._L
        i, j = divmod(idx, L)
        off = 0 if self.spec.is_periodic else 1
        site = (i + off, j + off)
        self.flip(site)
        self.n_events += 1
        return site


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
    def pred(sim):
        return sim.time >= t

    return pred


def stop_at_zero_defects():
    def pred(sim):
        return sim.n_defects == 0

    return pred


def stop_at_state(cfg):
    key = cfg.spins.tobytes()

    def pred(sim):
        return sim.n_defects == 0 and sim.state_key() == key

    return pred


def stop_at_ground_other_than(cfg0):
    key0 = cfg0.spins.tobytes()

    def pred(sim):
        return sim.n_defects == 0 and sim.state_key() != key0

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
    off = 0 if spec.is_periodic else 1
    n = len(traj.events)
    idx = np.fromiter((c for _, site in traj.events for c in site), np.int64, 2 * n).reshape(n, 2)
    idx -= off
    outside = np.nonzero(((idx < 0) | (idx >= L)).any(axis=1))[0]
    if outside.size:
        raise ValueError(f"event site {traj.events[outside[0]][1]} outside the box")
    odd = np.bincount(idx[:, 0] * L + idx[:, 1], minlength=L * L).reshape(L, L) % 2 == 1
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


def ground_membership():
    def pred(sim):
        return sim.n_defects == 0

    return pred


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
    then).
    """
    model = RateModel(beta, kind)
    sim = Simulator(spec, model, init, _as_rng(seed))
    times, states = [], []
    last_key = None
    if in_set(sim):
        times.append(sim.time)
        states.append(sim.state())
        last_key = sim.state_key()
    while len(states) < n_records:
        if sim.n_events >= max_events:
            return TraceSample(times, states, sim.n_events, completed=False)
        sim.step()
        if in_set(sim) and sim.state_key() != last_key:
            times.append(sim.time)
            states.append(sim.state())
            last_key = sim.state_key()
    return TraceSample(times, states, sim.n_events, completed=True)


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
    if events and elapsed < events[-1][0]:
        raise ValueError(f"header key 'elapsed' = {elapsed!r} is before the last event at {events[-1][0]!r}")
    traj = Trajectory(
        spec=spec,
        beta=float(header_value("beta")),
        kind=header_value("rates"),
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
