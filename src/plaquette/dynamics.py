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
buckets by k. An event pops an exponential holding time and a uniform
that picks a class from the five weights len(bucket) * rate(k), the same
five it sums for the total rate, and a site inside it; both are drawn
from the Generator in blocks that start at 16
and double up to 4096, so short runs draw little and long ones make no
numpy call per event. Each site carries the 4-bit pattern of its
defective plaquettes, so k = POP4[pattern]. A flip at t toggles all of
t's plaquettes, which changes each neighbour u's pattern by a fixed XOR
mask: `lattice._toggles` lists those (u, x) pairs, at most nine per
site, and the defect count moves by 4 - 2k. The code, one int, is the
state, and the simulator keeps no defect int. No step scans the L^2
rates; what grows with the box is one bit XORed into the code. An
event takes about 3-4 us at L=64 and 2-2.6 us at L=4 (one core of a
shared 2-vCPU host). All randomness flows through numpy Generators
seeded via SeedSequence so runs are reproducible and replicas
independent. `Simulator._run` is the module's one event loop, and every
run of the chain is started, seeded and ended through it: `simulate`,
`Simulator.step`, `trace_chain` and the replicas of `Simulator.replicas`.
`hitting_time` and `ground.excursion_statistics` build the start once,
with its patterns, buckets and tables, and draw every replica from it:
a copy of the start (`Simulator.replica`, three list copies) with the
Generator of the seed's next spawned child. A replica's result is read
off the simulator (`time`, `code`) with no trajectory built. A
recorded run appends each event's time and flat site index t to two
compact arrays, 16 bytes an event, which become the `Trajectory`'s
`times` and `flips`; the text format and replay read those columns.
"""

from __future__ import annotations

import itertools
import math
import numbers
import re
from array import array
from dataclasses import dataclass

import numpy as np

from .lattice import (
    FIXED,
    BudgetExceededError,
    LatticeSpec,
    SpinConfig,
    _code_defects,
    _defect_bits,
    _frame_defects,
    _frame_patterns,
    _grid_from_text,
    _grid_to_text,
    _site_codec,
    _site_flat,
    _site_masks,
    _sites_flat,
    _toggles,
)

MAX_EVENTS_DEFAULT = 10**7
_TEXT_CHUNK = 4096  # events per joined piece of trajectory text


def _check_beta(beta):
    """ValueError unless the inverse temperature beta is finite and
    nonnegative; every layer that takes a beta checks it here."""
    if not (math.isfinite(beta) and beta >= 0):
        raise ValueError(f"beta must be finite and nonnegative, got {beta!r}")


class RateModel:
    """Jump-rate family at a fixed inverse temperature."""

    KINDS = ("metropolis", "heat_bath")

    def __init__(self, beta, kind="metropolis"):
        if kind not in self.KINDS:
            raise ValueError(f"unknown rate kind {kind!r}")
        _check_beta(beta)
        self.beta = float(beta)
        self.kind = kind
        ks = np.arange(5)
        dh = 4.0 - 2.0 * ks
        # at large beta the exponent overflows to inf, which min(1, inf) and
        # 1 / (1 + inf) turn into the exact rates 1 and 0
        with np.errstate(over="ignore"):
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
    """How many of the plaquettes containing site x are defective: the
    popcount under its mask, 2 where the mask is 0 (see `_site_masks`)."""
    spec = cfg.spec
    m = _site_masks(spec.side, spec.is_periodic)[_site_flat(spec, x)]
    return (_code_defects(spec, cfg.code) & m).bit_count() if m else 2


def site_rate(model, cfg, x):
    """Jump rate of the flip at x from configuration cfg."""
    return model.rate_for_k(site_defect_count(cfg, x))


# k of each 4-bit pattern of defective plaquettes
POP4 = tuple(bin(p).count("1") for p in range(16))
_BLOCK_FIRST, _BLOCK_MAX = 16, 4096  # sizes of the blocks of random draws


def _never(sim):
    return False


class Simulator:
    """Mutable chain state with rejection-free event selection.

    The state is the configuration's code (`SpinConfig.code`) with, per
    site, the 4-bit pattern of its defective plaquettes; a site's k is
    POP4[pattern]. A flip at t XORs the patterns of its `lattice._toggles`
    entry and moves the defect count by 4 - 2k; no defect int is kept.
    Sites sit in five buckets by k, so a step draws a class from the five
    weights len(bucket) * rate(k) and then a site uniformly inside it.
    Exponential holding times and uniforms are drawn in blocks that start
    at _BLOCK_FIRST and double up to _BLOCK_MAX.

    Sites are addressed in lattice coordinates (1-based for fixed boxes,
    0-based for periodic ones). Stop predicates receive this object and
    may read `time`, `n_events`, `n_defects`, `code` and `state()`.
    """

    def __init__(self, spec, model, init, rng):
        if init.spec != spec:
            raise ValueError("initial configuration belongs to a different box")
        self.spec = spec
        self.model = model
        self.rng = rng
        self.sites = _site_codec(spec.side, spec.is_periodic)[0]
        self.time = 0.0
        self.n_events = 0
        self.code = init.code
        self._toggles = tog = _toggles(spec.side, spec.is_periodic)
        # reach the initial state from all-plus, one minus site at a time
        pat = list(_frame_patterns(spec))
        n_defects = _frame_defects(spec).bit_count()
        for t in np.flatnonzero(init.spins.ravel() < 0).tolist():
            n_defects += 4 - 2 * POP4[pat[t]]
            for u, x in tog[t]:
                pat[u] ^= x
        self.n_defects = n_defects
        self._pat = pat
        self._rate = model.table.tolist()
        self._buckets = [[], [], [], [], []]
        self._pos = [0] * len(pat)
        for t, p in enumerate(pat):
            bucket = self._buckets[POP4[p]]
            self._pos[t] = len(bucket)
            bucket.append(t)
        self._exps, self._unis, self._block = [], [], _BLOCK_FIRST

    def replica(self, rng):
        """A fresh simulator at this one's state, drawing from rng: it
        copies the patterns, positions and buckets and shares the read-only
        tables, so a start built once runs any number of replicas."""
        sim = object.__new__(Simulator)
        sim.__dict__.update(self.__dict__)
        sim.rng = rng
        sim._pat = self._pat.copy()
        sim._pos = self._pos.copy()
        sim._buckets = [b.copy() for b in self._buckets]
        sim._exps, sim._unis, sim._block = [], [], _BLOCK_FIRST
        return sim

    def replicas(self, seed, n):
        """n replicas of this simulator, drawn one at a time: replica r
        draws from the Generator of `SeedSequence(seed)`'s r-th spawned
        child."""
        for child in np.random.SeedSequence(seed).spawn(n):
            yield self.replica(_as_rng(child))

    def state(self):
        return SpinConfig.from_code(self.spec, self.code)

    def step(self):
        """Advance by one event; returns the flipped site, the one bit
        the event changed in the code."""
        code = self.code
        self._run(_never, self.n_events + 1)
        return self.sites[(code ^ self.code).bit_length() - 1]

    def _run(self, stop, max_events, record=None):
        """The event loop: flip until stop(self) holds, checked first and
        after every event, and return True; return False once n_events
        reaches max_events first. Given `record`, a pair of arrays
        (`array("d")`, `array("q")`), appends each event's time to the
        first and its flat site index t to the second. Runs on locals
        and writes back after each event only what stop predicates read."""
        tog, pat, pos, rng = self._toggles, self._pat, self._pos, self.rng
        buckets = self._buckets
        b0, b1, b2, b3, b4 = buckets
        r0, r1, r2, r3, r4 = rate = self._rate
        exps, unis = self._exps, self._unis
        time, n, n_defects, code = self.time, self.n_events, self.n_defects, self.code
        if record is not None:
            add_time, add_flip = record[0].append, record[1].append
        while not stop(self):
            if n >= max_events:
                return False
            w0, w1, w2, w3, w4 = len(b0) * r0, len(b1) * r1, len(b2) * r2, len(b3) * r3, len(b4) * r4
            total = w0 + w1 + w2 + w3 + w4
            if total <= 0:
                raise RuntimeError("total rate vanished; no move possible")
            if not exps:
                size = self._block
                self._block = min(2 * size, _BLOCK_MAX)
                self._exps = exps = rng.standard_exponential(size).tolist()
                self._unis = unis = rng.random(size).tolist()
            time += exps.pop() / total
            # the class: the first whose weight exceeds what is left of r
            r = unis.pop() * total
            if r < w0:
                k, bucket, i = 0, b0, int(r / r0)
            elif (r := r - w0) < w1:
                k, bucket, i = 1, b1, int(r / r1)
            elif (r := r - w1) < w2:
                k, bucket, i = 2, b2, int(r / r2)
            elif (r := r - w2) < w3:
                k, bucket, i = 3, b3, int(r / r3)
            elif (r := r - w3) < w4:
                k, bucket, i = 4, b4, int(r / r4)
            else:
                # rounding carried r past the last class: take the last class
                # of positive weight
                k = max(k for k, bucket in enumerate(buckets) if bucket and rate[k] > 0)
                bucket, i = buckets[k], -1
            try:
                t = bucket[i]
            except IndexError:  # rounding carried r / rate up to len(bucket)
                t = bucket[-1]
            code ^= 1 << t
            n_defects += 4 - 2 * k
            for u, x in tog[t]:
                old = pat[u]
                new = pat[u] = old ^ x
                ko, kn = POP4[old], POP4[new]
                if ko != kn:
                    bucket = buckets[ko]
                    last = bucket.pop()
                    if last != u:
                        bucket[pos[u]] = last
                        pos[last] = pos[u]
                    bucket = buckets[kn]
                    pos[u] = len(bucket)
                    bucket.append(u)
            n += 1
            self.time, self.n_events, self.n_defects, self.code = time, n, n_defects, code
            if record is not None:
                add_time(time)
                add_flip(t)
        return True


@dataclass
class Trajectory:
    """A run's events are two columns, None when not recorded: `times`
    (float64) and `flips`, the flat index t (`lattice._site_codec`) of
    each flipped site, the bit the event XORs into the code."""

    spec: LatticeSpec
    beta: float
    kind: str
    initial: SpinConfig
    times: np.ndarray
    flips: np.ndarray
    final: SpinConfig
    n_events: int
    elapsed: float
    stopped = True  # every run ends where its stop rule fires; perfbench reads it

    @property
    def events(self):
        """[(time, site)] in lattice coordinates, built from the columns
        on each read; None when not recorded."""
        if self.flips is None:
            return None
        sites = _site_codec(self.spec.side, self.spec.is_periodic)[0]
        return list(zip(self.times.tolist(), [sites[t] for t in self.flips.tolist()]))


def stop_after_events(n):
    if not isinstance(n, numbers.Integral) or n < 0:
        raise ValueError(f"stop event count must be a nonnegative integer, got {n!r}")

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
        _check_box(sim, cfg)
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


def _check_count(name, n):
    """ValueError unless n is an integer of at least 1."""
    if not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"{name} must be an integer of at least 1, got {n!r}")


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
    columns = (array("d"), array("q")) if record else None
    if not sim._run(stop, max_events, columns):
        raise BudgetExceededError(
            f"event budget {max_events} exhausted before the stop condition"
        )
    times = flips = None
    if record:
        times, flips = (np.frombuffer(c, c.typecode) for c in columns)
    return Trajectory(
        spec=spec,
        beta=beta,
        kind=kind,
        initial=init,
        times=times,
        flips=flips,
        final=sim.state(),
        n_events=sim.n_events,
        elapsed=sim.time,
    )


def replay_trajectory(traj):
    """Recompute the final state from the initial state and the flips."""
    if traj.flips is None:
        raise ValueError("trajectory was not recorded")
    spec = traj.spec
    L = spec.side
    flips = traj.flips
    bad = (flips < 0) | (flips >= L * L)
    if bad.any():
        raise ValueError(f"event flat index {int(flips[bad.argmax()])} outside the box")
    odd = np.bincount(flips, minlength=L * L) % 2 == 1
    return SpinConfig.from_code(spec, traj.initial.code ^ _defect_bits(odd))


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
    The replicas are `Simulator.replicas(seed, replicas)` of one
    prepared start, each run through `Simulator._run`; `replicas` must be
    at least 1.
    """
    _check_count("replicas", replicas)
    start = Simulator(spec, RateModel(beta, kind), init, None)
    taus = np.full(replicas, np.nan)
    for r, sim in enumerate(start.replicas(seed, replicas)):
        if sim._run(target, max_events):
            taus[r] = sim.time
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
    then). The chain runs on `Simulator._run`, whose stop predicate takes
    the records.
    """
    if not isinstance(n_records, numbers.Integral) or n_records < 0:
        raise ValueError(f"n_records must be a nonnegative integer, got {n_records!r}")
    times, states = [], []
    last_code = None

    def watch(sim):
        nonlocal last_code
        if len(states) < n_records and in_set(sim) and sim.code != last_code:
            times.append(sim.time)
            states.append(sim.state())
            last_code = sim.code
        return len(states) >= n_records

    sim = Simulator(spec, RateModel(beta, kind), init, _as_rng(seed))
    completed = sim._run(watch, max_events)
    return TraceSample(times, states, sim.n_events, completed)


# Trajectory serialization: a small line-oriented text format so runs can
# be stored, inspected, and replayed exactly.


def frame_from_text(side, text):
    """Parse an (L+2)-line frame block into a theta array for LatticeSpec."""
    return _grid_from_text(text, side + 2)


def trajectory_to_text(traj):
    """The trajectory as text: a `key = value` header, then the [frame]
    (fixed boxes), [init], [events] and [final] sections. Each event is
    one line `time i j`, time as `repr` and the site in lattice
    coordinates; the block is joined _TEXT_CHUNK events at a time, so no
    string per event outlives its chunk."""
    if traj.flips is None:
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
    parts = ["\n".join(out) + "\n"]
    labels = [f"{i} {j}" for i, j in _site_codec(spec.side, spec.is_periodic)[0]]
    for lo in range(0, len(traj.flips), _TEXT_CHUNK):
        hi = lo + _TEXT_CHUNK
        parts.append("".join([f"{t!r} {labels[f]}\n" for t, f in
                              zip(traj.times[lo:hi].tolist(), traj.flips[lo:hi].tolist())]))
    parts.append("[final]\n" + traj.final.to_text() + "\n")
    return "".join(parts)


# `[name]` closing its line, trailing blanks allowed
_SECTION = re.compile(r"\[(.*)\][^\S\n]*$", re.M)
# a line whose first non-blank character is `#`
_COMMENT = re.compile(r"^[^\S\n]*#.*$", re.M)
_EVENT_ROW = np.dtype([("time", "f8"), ("i", "i8"), ("j", "i8")])


def _section_heads(text):
    """The `_SECTION` matches with only blanks before them on their line:
    the section headers. The search scans for `[` as a literal, so the
    event lines cost it no more than a character scan."""
    return [m for m in _SECTION.finditer(text)
            if not text[text.rfind("\n", 0, m.start()) + 1:m.start()].strip()]


def _grid_section(body):
    """A grid section's lines, stripped, without blank and `#` lines."""
    return "\n".join(s for ln in body.splitlines() if (s := ln.strip()) and not s.startswith("#"))


def _chunks(text):
    """text in pieces of about _TEXT_CHUNK event lines (24 characters an
    event at L=64), each ending at a line end."""
    lo = 0
    while lo < len(text):
        hi = text.find("\n", lo + 24 * _TEXT_CHUNK) + 1 or len(text)
        yield text[lo:hi]
        lo = hi


def _event_columns(spec, body):
    """(times, flips) of an [events] block: blank and `#` lines are
    skipped, every other line is `time i j`, parsed by one np.loadtxt
    call, and each site maps to its flat index through the codec. The
    lines reach loadtxt one chunk at a time, so only one chunk's line
    strings are alive at once."""
    if "#" in body:
        body = _COMMENT.sub("", body)
    if not body or body.isspace():
        return np.empty(0), np.empty(0, np.int64)
    lines = itertools.chain.from_iterable(map(str.splitlines, _chunks(body)))
    try:
        rows = np.loadtxt(lines, dtype=_EVENT_ROW, comments=None, ndmin=1)
    except ValueError as err:
        raise ValueError(f"bad [events] row: {err}") from None
    return rows["time"].copy(), _sites_flat(spec, rows["i"], rows["j"])


def trajectory_from_text(text):
    """Inverse of `trajectory_to_text`. Blank and `#` lines are skipped;
    event times must be finite, from 0 and in order, the header, the
    event count and `elapsed` are checked against the events, and the
    events are replayed against [final]. ValueError names what does not
    fit."""
    heads = _section_heads(text)
    header = {}
    for ln in text[: heads[0].start() if heads else len(text)].splitlines():
        s = ln.strip()
        if not s or s.startswith("#"):
            continue
        if "=" not in s:
            raise ValueError(f"bad header line {ln!r}")
        k, v = s.split("=", 1)
        header[k.strip()] = v.strip()
    ends = [m.start() for m in heads[1:]] + [len(text)]
    sections = {m[1]: text[m.end():end] for m, end in zip(heads, ends)}

    def header_value(key):
        if key not in header:
            raise ValueError(f"trajectory text lacks the header key {key!r}")
        return header[key]

    def section_text(name):
        if name not in sections:
            raise ValueError(f"trajectory text lacks the [{name}] section")
        return _grid_section(sections[name])

    side = int(header_value("side"))
    bc = header_value("bc")
    if bc == FIXED:
        spec = LatticeSpec(side, FIXED, frame_from_text(side, section_text("frame")))
    else:
        spec = LatticeSpec(side, bc)
    init = SpinConfig.from_text(spec, section_text("init"))
    final = SpinConfig.from_text(spec, section_text("final"))
    times, flips = _event_columns(spec, sections.get("events", ""))
    n_events = int(header_value("n_events"))
    if n_events != len(flips):
        raise ValueError(f"header key 'n_events' = {n_events} but [events] has {len(flips)} lines")
    bad = np.flatnonzero(~(np.isfinite(times) & (np.diff(times, prepend=0.0) >= 0)))
    if bad.size:
        raise ValueError(f"[events] row {bad[0] + 1} has time {float(times[bad[0]])!r}, "
                         "which is not finite, below 0 or before the time before it")
    elapsed = float(header_value("elapsed"))
    last = float(times[-1]) if len(times) else 0.0
    if not (math.isfinite(elapsed) and elapsed >= last):
        raise ValueError(f"header key 'elapsed' = {elapsed!r} is not finite or before {last!r}")
    model = RateModel(float(header_value("beta")), header_value("rates"))
    traj = Trajectory(
        spec=spec,
        beta=model.beta,
        kind=model.kind,
        initial=init,
        times=times,
        flips=flips,
        final=final,
        n_events=n_events,
        elapsed=elapsed,
    )
    if replay_trajectory(traj) != final:
        raise ValueError("event list does not reproduce the recorded final state")
    return traj
