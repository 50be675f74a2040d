"""Ground states of the periodic box and the paths between them.

A periodic ground state is a rank-one spin pattern sigma[i, j] =
a[i] * b[j]; the gauge (a, b) ~ (-a, -b) is fixed by a code vector of
odd length 2L-1: entries 0..L-1 are the spins of the top row j = L-1
(column markers), entries L..2L-2 recover spin rows 0..L-2 relative to
that row. Codes biject with ground states, so there are 2^(2L-1).

Two grounds whose codes differ in one entry are joined by flipping one
lattice line (a column for code index < L, spin row j for index L+j);
antipodal codes are joined by flipping spin row L-1. Flipping a cyclic
window of k cells of that line gives the intermediate states: a ladder
of minimal-energy paths carrying exactly 4 defects for 0 < k < L. On
such paths the defect quartet forms two parallel pairs whose positions
name the line and the window, which is what `locate_on_minimal_path`
inverts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import SpinConfig, _code_defects
from .dynamics import (
    MAX_EVENTS_DEFAULT,
    RateModel,
    Simulator,
    _check_count,
    stop_after_events,
    stop_at_zero_defects,
    trace_chain,
)

_MIN_VISITS = 5  # estimate_trace_kernel flags ground codes recorded fewer times


def _require_periodic(spec):
    if not spec.is_periodic:
        raise ValueError("ground-state codes are defined for periodic boxes")


def encode_ground(cfg):
    """Code vector (length 2L-1, entries +-1) of a zero-defect state, read
    off the bits of `SpinConfig.code` (bit i*L + j is minus at site (i, j))."""
    spec = cfg.spec
    _require_periodic(spec)
    code = cfg.code
    if _code_defects(spec, code):
        raise ValueError("not a ground state")
    L = spec.side
    top = [code >> (i * L + L - 1) & 1 for i in range(L)]
    cols = [1 - 2 * b for b in top]
    rows = [1 - 2 * ((code >> j & 1) ^ top[0]) for j in range(L - 1)]
    return tuple(cols + rows)


def decode_ground(spec, code):
    _require_periodic(spec)
    L = spec.side
    if len(code) != 2 * L - 1 or any(x not in (-1, 1) for x in code):
        raise ValueError("bad code vector")
    a = np.array(code[:L], dtype=np.int8)
    b = np.array(list(code[L:]) + [1], dtype=np.int8)
    return SpinConfig(spec, np.outer(a, b))


def code_weight(code):
    """Number of +1 entries."""
    return sum(1 for x in code if x == 1)


def code_order_key(code):
    """Total order: weight first, then entrywise. Codes have odd length,
    so a code and its negation never tie on weight."""
    return (code_weight(code), code)


def _line_cells(spec, line_kind, line_index, start, k):
    """k cells of a lattice line, cyclic from `start` (0-based)."""
    L = spec.side
    if line_kind == "column":
        return [(line_index, (start + t) % L) for t in range(k)]
    return [((start + t) % L, line_index) for t in range(k)]


def _family_of(spec, code_a, code_b):
    """(line_kind, line_index, family) joining two codes, or None."""
    L = spec.side
    diff = [i for i in range(2 * L - 1) if code_a[i] != code_b[i]]
    if len(diff) == 2 * L - 1:
        return ("row", L - 1, "antipodal")
    if len(diff) != 1:
        return None
    ell = diff[0]
    if ell < L:
        return ("column", ell, "column")
    return ("row", ell - L, "row")


def minimal_path_config(sigma, eta, m, k):
    """The state k steps along the minimal path from sigma to eta: the
    cyclic window of k cells starting at position m (1-based) of the
    joining line carries eta's values, the rest keeps sigma's. Requires
    code(sigma) < code(eta) in the weight-then-entry order."""
    spec = sigma.spec
    _require_periodic(spec)
    L = spec.side
    u, w = encode_ground(sigma), encode_ground(eta)
    fam = _family_of(spec, u, w)
    if fam is None:
        raise ValueError("configurations are not joined by a single line")
    if code_order_key(u) >= code_order_key(w):
        raise ValueError("path endpoints must be ordered by code")
    if not (1 <= m <= L and 0 <= k <= L):
        raise ValueError("window out of range")
    if k == 0:
        return sigma
    if k == L:
        return eta
    line_kind, line_index, _ = fam
    return sigma.flip(_line_cells(spec, line_kind, line_index, m - 1, k))


@dataclass(frozen=True)
class PathPlacement:
    sigma: SpinConfig
    eta: SpinConfig
    m: int
    k: int
    family: str


def _window_candidates(L, lo, hi):
    """Both cyclic windows bounded by marker positions lo != hi: cells
    (lo+1 .. hi) and (hi+1 .. lo)."""
    k1 = (hi - lo) % L
    k2 = L - k1
    return [((lo + 1) % L, k1), ((hi + 1) % L, k2)]


def locate_on_minimal_path(cfg):
    """All (sigma, eta, m, k) with cfg = minimal_path_config(sigma, eta, m, k)
    and 0 < k < L. A 4-defect state not of this form, or a state with any
    other defect count, is off the path complex."""
    spec = cfg.spec
    _require_periodic(spec)
    L = spec.side
    D = _code_defects(spec, cfg.code)  # plaquette (a, b) is bit a*L + b
    if D.bit_count() != 4:
        raise ValueError("off the path complex")
    defects = [divmod(p, L) for p in range(L * L) if D >> p & 1]
    cols = sorted(set(x for x, y in defects))
    rows = sorted(set(y for x, y in defects))
    placements = []

    def try_line(line_kind, line_index, family, lo, hi):
        # with the 2x2 pattern and adjacency tested, flipping either window
        # toggles exactly the four defects: both flips are ground states
        for start, k in _window_candidates(L, lo, hi):
            g = cfg.flip(_line_cells(spec, line_kind, line_index, start, k))
            other = cfg.flip(
                _line_cells(spec, line_kind, line_index, (start + k) % L, L - k)
            )
            if code_order_key(encode_ground(g)) < code_order_key(encode_ground(other)):
                placements.append(
                    PathPlacement(sigma=g, eta=other, m=start + 1, k=k, family=family)
                )

    # two horizontal pairs: defect columns {ell-1, ell} cyclically adjacent
    if len(cols) == 2 and len(rows) == 2:
        pattern = {(x, y) for x in cols for y in rows}
        if set(defects) == pattern:
            for ca, cb in ((cols[0], cols[1]), (cols[1], cols[0])):
                if (ca + 1) % L == cb:
                    try_line("column", cb, "column", rows[0], rows[1])
            for ra, rb in ((rows[0], rows[1]), (rows[1], rows[0])):
                if (ra + 1) % L == rb:
                    family = "antipodal" if rb == L - 1 else "row"
                    try_line("row", rb, family, cols[0], cols[1])
    if not placements:
        raise ValueError("off the path complex")
    placements.sort(
        key=lambda p: (code_order_key(encode_ground(p.sigma)), p.m, p.family)
    )
    return placements


def _g_hat(code):
    L2 = len(code)
    return abs(code_weight(code) - L2 / 2.0)


def test_function_g(cfg):
    """Interpolation of the code-weight witness along the path complex:
    on a ground state, the distance of its code weight from the middle;
    on a minimal path, the linear interpolation of the endpoint values
    (first placement); zero elsewhere."""
    _require_periodic(cfg.spec)
    L = cfg.spec.side
    if _code_defects(cfg.spec, cfg.code) == 0:
        return _g_hat(encode_ground(cfg))
    try:
        p = locate_on_minimal_path(cfg)[0]
    except ValueError:
        return 0.0
    gu = _g_hat(encode_ground(p.sigma))
    gw = _g_hat(encode_ground(p.eta))
    return (p.k / L) * gw + (1.0 - p.k / L) * gu


@dataclass
class TraceKernelReport:
    n_pairs: int
    counts: dict  # {"hamming1": _, "antipode": _, "other": _}
    fraction_local: float
    visits: dict  # code -> record count
    flagged: list  # codes with fewer than _MIN_VISITS records
    sample: object


def estimate_trace_kernel(
    spec,
    beta,
    n_records,
    seed=0,
    kind="metropolis",
    max_events=MAX_EVENTS_DEFAULT,
):
    """Watch the chain through the ground set and classify consecutive
    recorded pairs by code distance: single-line moves (Hamming-1),
    antipodal moves, anything else."""
    _require_periodic(spec)
    sample = trace_chain(
        spec,
        beta,
        SpinConfig.all_plus(spec),
        stop_at_zero_defects(),
        n_records,
        seed=seed,
        kind=kind,
        max_events=max_events,
    )
    codes = [encode_ground(s) for s in sample.states]
    counts = {"hamming1": 0, "antipode": 0, "other": 0}
    visits = {}
    for u in codes:
        visits[u] = visits.get(u, 0) + 1
    for u, w in zip(codes, codes[1:]):
        dist = sum(1 for a, b in zip(u, w) if a != b)
        if dist == 1:
            counts["hamming1"] += 1
        elif dist == len(u):
            counts["antipode"] += 1
        else:
            counts["other"] += 1
    n_pairs = max(len(codes) - 1, 0)
    local = counts["hamming1"] + counts["antipode"]
    flagged = sorted(u for u, v in visits.items() if v < _MIN_VISITS)
    return TraceKernelReport(
        n_pairs=n_pairs,
        counts=counts,
        fraction_local=(local / n_pairs) if n_pairs else float("nan"),
        visits=visits,
        flagged=flagged,
        sample=sample,
    )


@dataclass
class ExcursionStats:
    replicas: int
    p_escape: float  # excursion grew past 4 defects
    p_other_ground: float  # returned to a ground different from the start
    p_same_ground: float
    mean_duration: float
    durations: list
    n_unfinished: int


def excursion_statistics(
    spec,
    beta,
    n_excursions,
    seed=0,
    kind="metropolis",
    max_events=MAX_EVENTS_DEFAULT,
):
    """Independent excursions off the all-plus ground: evolve from the
    first jump until the chain either re-enters the ground set or its
    defect count exceeds 4. The excursions are `Simulator.replicas(seed,
    n_excursions)` of one prepared start, each run through
    `Simulator._run`: one event to the first jump, whose time starts the
    duration, then on to the end, both within the `max_events` budget;
    `n_excursions` must be at least 1."""
    _require_periodic(spec)
    _check_count("n_excursions", n_excursions)
    start = Simulator(spec, RateModel(beta, kind), SpinConfig.all_plus(spec), None)
    n_escape = n_other = n_same = n_unfinished = 0
    durations = []
    jumped = stop_after_events(1)

    def ended(sim):
        return not 0 < sim.n_defects <= 4

    for sim in start.replicas(seed, n_excursions):
        finished = sim._run(jumped, max_events)
        t0 = sim.time
        if not (finished and sim._run(ended, max_events)):
            n_unfinished += 1
            continue
        durations.append(sim.time - t0)
        if sim.n_defects:
            n_escape += 1
        elif sim.code == start.code:
            n_same += 1
        else:
            n_other += 1
    n_done = n_same + n_other + n_escape
    if n_done == 0:
        raise RuntimeError("no excursion finished within the event budget")
    return ExcursionStats(
        replicas=n_excursions,
        p_escape=n_escape / n_done,
        p_other_ground=n_other / n_done,
        p_same_ground=n_same / n_done,
        mean_duration=float(np.mean(durations)),
        durations=durations,
        n_unfinished=n_unfinished,
    )
