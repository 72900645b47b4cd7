"""Repeated-measurement protocols and their cumulative success probabilities.

Protocol 1: measure at the one-shot peak; on any failure reset every site
to |0> and start over. Success accumulates geometrically,
P(n) = 1 - (1-p)^n.

Protocol 2: after the symmetric failure outcome psi1 keep the conditional
state and measure again; reset only on the asymmetric outcomes psi2/psi3.
The measurement times t_1..t_n are chosen greedily, one step at a time,
according to one of three strategies. A schedule, the list of its `ScheduleStep`s,
is replayed from step 1 after a reset (the run statistics are stationary),
which is what makes the cumulative recursion tractable:

    Pbar_n = p_S(1) + sum_j p_S(j) prod_{i<j} p_1(i)          (no reset)
    P_n    = Pbar_n + sum_j [prod_{i<j} p_1(i)] p_U(j) P_{n-j}

with p_U = p_2 + p_3 the per-step reset probability. Every series reads one
per-step table, `_padded`, where a chain that ended early pads as dead steps.

Every strategy plans a step alike (`_step_chooser`): a `_grid_scan` of
(p_S, p_U) on the C blocks of the cell quotient that `scan` reads, only those the
score reads (`measurement._quotient_blocks`, from the one builder
`dynamics._c_blocks`), its score, then `dynamics.select_peak`. A planned step evolves
on the full pair space's eigensystem, a fixed-interval one (`plan_regular`) on the
quotient's, the two blocks side by side (`measurement._quotient_eigensystem`): the
planners take the graph alone, so only this module decides which space a step evolves on.

An explicit outcome-tree enumeration and a Monte Carlo sampler provide two
independent checks of the recursions.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import islice

import numpy as np

from .dynamics import (DEFAULT_GRID_STEP, DEFAULT_REFINE_TOL, HERALD_FLOOR, Eigensystem,
                       _c_orbits, _index_groups, _pair_eigensystem, _pair_position, _pairs,
                       _spectral_cost, _SpectralKernel, _time_grid, initial_state,
                       select_peak)
from .measurement import (ZERO_PROB, Outcome, OutcomeDistribution, _quotient_blocks,
                          _quotient_eigensystem, _weighted_squares, outcome_distribution,
                          post_state)
from .topology import Graph

logger = logging.getLogger(__name__)

#: fraction of the window-max success probability below which a time is not
#: considered a meaningful measurement opportunity for the MinLoss strategy
MINLOSS_FLOOR = 0.1
#: per-step search window for schedule planning is [0, PLAN_WINDOW_FACTOR * N];
#: wider than the one-shot peak window because the conditional chains keep
#: re-peaking at late times
PLAN_WINDOW_FACTOR = 8.0
#: largest reset count m at which the limit check tests 1 - (1-p)^(m+1)
LIMIT_CHECK_RESETS = 3


class Strategy(Enum):
    PEAK_SUCCESS = "peak-success"   # maximize p_S
    MIN_LOSS = "min-loss"           # minimize p_2 + p_3 where p_S is appreciable
    MAX_MARGIN = "max-margin"       # maximize p_S - (p_2 + p_3)


@dataclass(frozen=True)
class ScheduleStep(OutcomeDistribution):
    """One planned measurement of a schedule: its outcome probabilities and its time.

    ``time`` runs from the previous measurement, or from the last reset, after which the
    schedule restarts from step 1. ``pS_bell``, the Bell-heralded probability, is the
    success of all accounting; on graphs without the protocol symmetry the projection
    probability exceeds it, and the excess is one more way to lose the run (``reset_weight``).
    """

    time: float

    @property
    def reset_weight(self) -> float:
        """Probability that this measurement forces a restart."""
        return self.p_unusable + max(0.0, self.pS_projection - self.pS_bell)


def protocol1_cumulative(p: float, n: int) -> float:
    """Success probability within n independent repetitions, 1-(1-p)^n."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0,1], got {p}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if p == 1.0:
        return 1.0
    # -expm1(n log1p(-p)) keeps its precision where 1 - p rounds to 1;
    # subtracting from 0.0 turns the -0.0 of p = 0 into 0.0
    return 0.0 - float(np.expm1(n * np.log1p(-p)))


def protocol1_required(p: float, q: float) -> int:
    """Smallest n with 1-(1-p)^n >= q.

    The logarithmic estimate is off by at most one where p lands on an
    integer boundary; one guard step in each direction corrects it.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0,1), got {p}")
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0,1), got {q}")
    n = max(1, int(np.ceil(np.log1p(-q) / np.log1p(-p))))
    if protocol1_cumulative(p, n) < q:
        return n + 1
    if n > 1 and protocol1_cumulative(p, n - 1) >= q:
        return n - 1
    return n


def _score(strategy: Strategy, p_success, p_unusable):
    """The quantity a strategy maximizes, on a grid or at one time."""
    if strategy is Strategy.PEAK_SUCCESS:
        return p_success
    if strategy is Strategy.MIN_LOSS:
        return -p_unusable
    return p_success - p_unusable


def _success(amp: np.ndarray) -> float:
    """p_S from the amplitudes of the success rows |B,A>, |A,B>, at one time or along
    a block of times."""
    return 0.5 * np.abs(amp[0] + amp[1]) ** 2


def _step_curve(amp: np.ndarray) -> tuple[float, float]:
    """(p_S, p_U) at one time from the amplitudes of the success rows |B,A>, |A,B>,
    then the psi2/psi3 rows."""
    return _success(amp), np.sum(np.abs(amp[2:]) ** 2)


def _block_rows(g: Graph, strategy: Strategy):
    """(bell, reads) of `_grid_scan`: {parity: (pairs, counts)} for each C block of
    `measurement._quotient_blocks` that reads a pair, each pair's count of psi2/psi3 pairs,
    and bell, the C-even block's row of |B,A>, |A,B>. An orbit's pairs share one
    |amplitude| in each block, so the C-even block (1) reads one pair per C-orbit of the
    success pairs and, where the score reads p_U, of the psi2 and psi3 pairs; the C-odd
    block (-1) those psi2/psi3 orbits with X != CX (`dynamics._c_orbits`)."""
    orbit, sign = _c_orbits(g)
    grp = _index_groups(g)
    read = (grp["success"] if strategy is Strategy.PEAK_SUCCESS
            else np.concatenate([grp["success"], grp["g2"], grp["g3"]]))
    _, first, where = np.unique(orbit[read], return_index=True, return_inverse=True)
    unusable = np.bincount(where[2:], minlength=first.size)
    odd = (sign[read[first]] != 0) & (unusable > 0)
    reads = {1: (read[first], unusable), -1: (read[first][odd], unusable[odd])}
    return where[0], {parity: rows for parity, rows in reads.items() if rows[0].size}


def _grid_scan(g: Graph, strategy: Strategy, t_grid: np.ndarray):
    """psi -> (p_S, p_U) along t_grid on the cell quotient's C blocks that `_block_rows`
    reads, each diagonalised once (`measurement._quotient_blocks`). psi's C-even and C-odd
    parts (psi +- C psi)/2 each evolve on their block and are read on `_block_rows`: p_S =
    2 |psi+(B,A)|^2, as psi-(A,B) = -psi-(B,A), and p_U sums both parts' squares on the
    psi2/psi3 orbits, each weighted by its pair count. Peak-success reads no p_U (p_U = 0)
    and builds no C-odd block."""
    n = g.n_vertices
    mirror = _pair_position(n, *_pairs(n)[::-1])  # C|i,j> = |j,i>
    bell, reads = _block_rows(g, strategy)
    blocks = _quotient_blocks(g, tuple(reads))
    parts = [(Eigensystem(*block), parity, rows, unusable[None])
             for block, (parity, (rows, unusable)) in zip(blocks, reads.items())]
    logger.debug("grid scan on the quotient's C blocks: %s", "; ".join(
        f"k{'+' if parity == 1 else '-'} = {e.eigenvalues.size} orbits, {rows.size} rows read"
        for e, parity, rows, _ in parts))

    def scan(psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        p_s, p_u = np.zeros((2, t_grid.size))
        mirrored = psi[mirror]
        kernels = [_SpectralKernel(e, (psi + parity * mirrored) / 2, rows)._blocks(t_grid)
                   for e, parity, rows, _ in parts]
        for amps in zip(*kernels):  # the same columns from each block's kernel
            cols, even = amps[0]
            p_s[cols] = 2 * (np.square(even[bell].real) + np.square(even[bell].imag))
            p_u[cols] = sum(_weighted_squares(unusable, amp)[0]
                            for (_, amp), (*_, unusable) in zip(amps, parts))
        return p_s, p_u

    return scan


def _step_chooser(g: Graph, strategy: Strategy, t_max: float | None, grid_step: float,
                  refine_tol: float):
    """(state, its `_SpectralKernel`) -> measurement time, or None (p_S < HERALD_FLOOR).

    One path for every strategy on [0, t_max]: `_grid_scan`, scored by `_score`
    (min-loss only where p_S reaches MINLOSS_FLOOR of its maximum: p_U is least at
    t=0, where nothing can be measured), then `select_peak` on the kernel's rows."""
    t_grid = _time_grid(PLAN_WINDOW_FACTOR * g.n_vertices if t_max is None else t_max, grid_step)
    grp = _index_groups(g)
    rows = grp["success"]
    if strategy is not Strategy.PEAK_SUCCESS:  # the score reads p_U too
        rows = np.concatenate([rows, grp["g2"], grp["g3"]])
    scan = _grid_scan(g, strategy, t_grid)

    def choose(psi: np.ndarray, kernel: _SpectralKernel) -> float | None:
        p_s, p_u = scan(psi)
        if p_s.max() < HERALD_FLOOR:
            return None
        score = _score(strategy, p_s, p_u)
        if strategy is Strategy.MIN_LOSS:
            score = np.where(p_s >= MINLOSS_FLOOR * p_s.max(), score, -np.inf)
        refine = kernel.on_rows(rows)
        at = (_success if strategy is Strategy.PEAK_SUCCESS  # p_S alone: no p_U sum to make
              else lambda amp: _score(strategy, *_step_curve(amp)))
        return select_peak(score, t_grid, lambda t: float(at(refine(t))), refine_tol)[0]

    return choose


def _protocol2_steps(g: Graph, kernel_of, choose_time):
    """The protocol-2 chain, one ScheduleStep per measurement, lazily.

    Each step evolves the current conditional state for choose_time(state, kernel),
    through its one kernel = kernel_of(state), a map from a time to the evolved state
    (a `_SpectralKernel` of the full space or of the cell quotient), measures,
    and conditions on psi1. The chain ends after a step that leaves psi1 or the product
    of p_1 (`_survival`) no weight, or where choose_time finds no success in its window
    (an error at first).
    """
    psi = first = initial_state(g)
    survival = 1.0
    while psi is not None:
        kernel = kernel_of(psi)
        t = choose_time(psi, kernel)
        if t is None:
            if psi is first:
                raise RuntimeError("success probability identically zero over the "
                                   "search window; cannot plan further measurements")
            return
        phi = kernel(float(t))
        del kernel  # a full kernel's complex copy of V (25 MB at d = 1260) goes now
        dist = outcome_distribution(phi, g)
        survival *= dist.p1
        psi = None if dist.p1 < ZERO_PROB or not survival else post_state(phi, Outcome.PSI1, g)
        yield ScheduleStep(**vars(dist), time=float(t))


def _schedule(g: Graph, kernel_of, choose_time, n_max: int) -> list[ScheduleStep]:
    """The chain's first n_max steps, or all of them if it ends sooner."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    return list(islice(_protocol2_steps(g, kernel_of, choose_time), n_max))


def _plan_cost(n: int, t_max: float, points: float, g: Graph | None = None, steps: int = 1,
               strategy: Strategy = Strategy.MIN_LOSS):
    """(work, bytes) of `steps` steps, each evolved on m states (the pair space's d = N(N-1)
    if planned on a grid, else the quotient's k+ + k-): the pair space's eigensystem if
    planned and the C blocks built (both with --tau, else those `_block_rows` reads),
    unfolded (32 d k bytes, k their states); then per step d m / 2 entry steps for its
    kernel, (r+ k+ + r- k-)/16 + 8 steps and 96 bytes a grid point, r+ and r- the rows each
    block reads, and 480 bytes for its series. Without g, d/2 bounds k+ and k- (C pairs
    each pair with another), and 2N - 3 and 2N - 4 bound r+ and r- where the score reads
    p_U (the orbits of success and of the 4(N-2) psi2/psi3 pairs). The pair space's
    eigensystem counts on every planned run: an upper bound where `plan_protocol2` reads
    the last run's from `dynamics._pair_eigensystem`'s cache."""
    d = n * (n - 1)
    if g is None:
        dims, rows = {1: d // 2, -1: d // 2}, {1: 1}
        if strategy is not Strategy.PEAK_SUCCESS:
            rows = {1: max(2 * n - 3, 0), -1: max(2 * n - 4, 0)}
    else:
        orbit, sign = _c_orbits(g)
        dims = {1: np.count_nonzero(np.bincount(orbit)),
                -1: np.count_nonzero(np.bincount(orbit[sign != 0]))}
        rows = {parity: r.size for parity, (r, _) in _block_rows(g, strategy)[1].items()}
    built = [dims[parity] for parity in (rows if points else dims)]
    k, full = sum(built), _spectral_cost(d if points else 0)
    blocks = [sum(cost) for cost in zip(*map(_spectral_cost, built))]
    grid = sum(r * dims[parity] for parity, r in rows.items()) / 16 + 8
    return (blocks[0] + full[0] + steps * (points * grid + d * (d if points else k) / 2),
            blocks[1] + full[1] + 32 * d * k + 96 * points + 480 * steps)


def plan_protocol2(g: Graph, *, strategy: Strategy = Strategy.PEAK_SUCCESS, n_max: int = 10,
                   t_max: float | None = None, grid_step: float = DEFAULT_GRID_STEP,
                   refine_tol: float = DEFAULT_REFINE_TOL) -> list[ScheduleStep]:
    """Greedy per-step schedule for the conditional-reset protocol.

    Each step evolves the current conditional state from relative time 0,
    scans the strategy's objective over [0, t_max], refines the chosen
    extremum, records the outcome probabilities and conditions on psi1.
    The schedule is reused verbatim after every reset.

    The grid is scanned on the cell quotient's C blocks that the strategy reads
    (`_grid_scan`), but each step is refined and evolves on the pair space
    (`dynamics._pair_eigensystem`): on curves of height ~1e-13, the later steps of a chain
    move with any one-ulp change of the kernel, and the printed protocol-2 outputs rest on
    its rounding. Once they are regenerated, planning steps on both blocks
    (`measurement._quotient_blocks`), as `plan_regular` does, and the full kernel goes.
    """
    return _schedule(g, partial(_SpectralKernel, _pair_eigensystem(g)),
                     _step_chooser(g, strategy, t_max, grid_step, refine_tol), n_max)


def plan_regular(g: Graph, tau: float, n_max: int) -> list[ScheduleStep]:
    """Fixed-interval fallback schedule: every measurement after time tau. Nothing is
    refined, so each step evolves on the cell quotient's eigensystem, its two C blocks
    side by side (`measurement._quotient_eigensystem`)."""
    if not (np.isfinite(tau) and tau > 0):
        raise ValueError(f"tau must be positive and finite, got {tau}")
    return _schedule(g, partial(_SpectralKernel, _quotient_eigensystem(g)),
                     lambda psi, kernel: tau, n_max)


def _padded(schedule: list[ScheduleStep], n: int) -> np.ndarray:
    """The per-step table over n steps: rows p_S, p_1 and reset weight.

    Steps past the end of the chain are dead, (0, 1, 0): nothing ever
    happens there, so an ended chain adds nothing to any series.
    """
    rows = [(s.pS_bell, s.p1, s.reset_weight) for s in schedule[:n]]
    table = np.tile([0.0, 1.0, 0.0], (n, 1))
    table[:len(rows)] = np.reshape(rows, (-1, 3))
    return table.T


def _survival(p1: np.ndarray) -> np.ndarray:
    """prod_{i<j} p_1(i) for each step j: the weight of reaching it without a reset."""
    return np.cumprod(np.concatenate(([1.0], p1[:-1])))


def protocol2_no_reset(schedule: list[ScheduleStep], n: int | None = None) -> np.ndarray:
    """Cumulative success probabilities Pbar_1..Pbar_n along one run."""
    n = len(schedule) if n is None else n
    ps, p1, _ = _padded(schedule, n)
    return np.cumsum(ps * _survival(p1))


def protocol2_total(schedule: list[ScheduleStep], n: int | None = None) -> np.ndarray:
    """Total success probabilities P_1..P_n including restart branches.

    The weight of a restart at step j, w_j = [prod_{i<j} p_1(i)] times the
    step's reset weight, does not depend on n, so each P_n is Pbar_n plus
    one dot product of w with the earlier P in reverse. w is read only up
    to its last nonzero entry: the survival product underflows to 0 and
    steps past the chain end reset nothing, so the sum is linear in n from
    there on.
    """
    n = len(schedule) if n is None else n
    _, p1, reset = _padded(schedule, n)
    w = _survival(p1) * reset
    live = np.flatnonzero(w)
    w = w[:live[-1] + 1 if live.size else 0]
    p = protocol2_no_reset(schedule, n)
    for k in range(1, n):
        m = min(k, w.size)
        p[k] += np.dot(w[:m], p[k - 1::-1][:m])
    return p


def enumerate_outcome_tree(schedule: list[ScheduleStep], n: int) -> tuple[float, float]:
    """Brute-force check of the recursions: walk every outcome sequence.

    Returns (Pbar_n, P_n) by explicit depth-first enumeration of all
    outcome strings of length <= n, multiplying branch probabilities. Kept
    deliberately independent of the closed-form code above.
    """
    ps, p1, pu = (column.tolist() for column in _padded(schedule, n))
    totals = {"all": 0.0, "no_reset": 0.0}

    def walk(depth: int, pos: int, weight: float, had_reset: bool) -> None:
        if depth == n or weight == 0.0:
            return
        totals["all"] += weight * ps[pos]
        if not had_reset:
            totals["no_reset"] += weight * ps[pos]
        walk(depth + 1, pos + 1, weight * p1[pos], had_reset)
        walk(depth + 1, 0, weight * pu[pos], True)

    walk(0, 0, 1.0, False)
    return totals["no_reset"], totals["all"]


@dataclass(frozen=True)
class LimitCheckReport:
    """Outcome of extending protocol 2 until a success target is reached."""

    n_reached: int | None        # smallest n with P_n >= q, None if capped
    series: np.ndarray           # P_1..P_horizon
    schedule: list[ScheduleStep]
    run_success_ok: bool         # per-run conditional success >= one-shot peak
    reset_bound_ok: bool         # geometric lower bound per reset count

    @property
    def reached(self) -> bool:
        return self.n_reached is not None


def _reset_count_masses(schedule: list[ScheduleStep], n: int, m_max: int):
    """Distribution over (resets used) after n measurements.

    Returns (success_by_resets, alive_by_resets): cumulative success mass
    and still-undecided mass with at most m resets, for m = 0..m_max. The
    undecided mass includes the run that met psi1 at all n measurements
    (prod p_1, kept at position n); mass past reset m_max is dropped.
    """
    ps, p1, pu = _padded(schedule, n)
    alive = np.zeros((n + 1, m_max + 1))
    alive[0, 0] = 1.0
    success = np.zeros(m_max + 1)
    for _ in range(n):
        success += ps @ alive[:n]
        reset = pu @ alive[:n]
        alive[1:] = alive[:-1] * p1[:, None]
        alive[0] = np.concatenate(([0.0], reset[:-1]))
    return np.cumsum(success), np.cumsum(alive.sum(axis=0))


def protocol2_limit_check(g: Graph, q: float, max_measurements: int = 500) -> LimitCheckReport:
    """Extend the peak-success schedule lazily until P_n >= q or the cap is hit.

    Also asserts the numerically checkable form of the convergence
    argument: every completed run succeeds with conditional probability at
    least the one-shot peak, hence success within m+1 runs is at least
    1-(1-p)^(m+1); both facts are checked on the planned horizon.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"target q must lie in (0,1), got {q}")
    steps = _protocol2_steps(g, partial(_SpectralKernel, _pair_eigensystem(g)),
                             _step_chooser(g, Strategy.PEAK_SUCCESS, None,
                                           DEFAULT_GRID_STEP, DEFAULT_REFINE_TOL))
    schedule = [next(steps)]
    n = 1
    series = protocol2_total(schedule, n)
    while series[-1] < q and n < max_measurements:
        schedule.extend(islice(steps, 1))  # nothing once the chain has ended
        n += 1
        series = protocol2_total(schedule, n)
    n_reached = n if series[-1] >= q else None

    p_peak = schedule[0].pS_bell
    pbar = protocol2_no_reset(schedule, n)
    _, p1, reset = _padded(schedule, n)
    reset_mass = sum(_survival(p1) * reset)
    run_success_ok = pbar[-1] + 1e-9 >= p_peak and (
        pbar[-1] / max(pbar[-1] + reset_mass, 1e-300) + 1e-9 >= p_peak)
    succ_m, alive_m = _reset_count_masses(schedule, n, LIMIT_CHECK_RESETS)
    reset_bound_ok = all(
        succ_m[m] + alive_m[m] + 1e-9 >= 1.0 - (1.0 - p_peak) ** (m + 1)
        for m in range(LIMIT_CHECK_RESETS + 1))
    return LimitCheckReport(n_reached=n_reached, series=series, schedule=schedule,
                            run_success_ok=run_success_ok,
                            reset_bound_ok=reset_bound_ok)


@dataclass(frozen=True)
class TrajectoryStats:
    """Sampled outcomes of running a schedule many times."""

    trials: int
    successes_by_step: np.ndarray   # count of first successes at step k+1
    resets: int

    def cumulative_success(self) -> np.ndarray:
        return np.cumsum(self.successes_by_step)

    def empirical_p(self, n: int) -> float:
        return float(self.cumulative_success()[n - 1]) / self.trials


def monte_carlo(schedule: list[ScheduleStep], trials: int, seed: int,
                max_steps: int | None = None) -> TrajectoryStats:
    """Sample trajectories of protocol 2 from the planned schedule.

    Each trial draws an outcome per measurement from the schedule's
    recorded probabilities: success ends the trial, psi1 advances to the
    next schedule position, psi2/psi3 (and, on asymmetric graphs, the
    non-Bell part of the both-positive outcome) reset to position zero.
    Vectorized over trials; deterministic for a given seed.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not schedule:
        raise ValueError("schedule has no steps")
    n_steps = len(schedule) if max_steps is None else max_steps
    ps, p1, _ = _padded(schedule, n_steps)

    rng = np.random.default_rng(seed)
    pos = np.zeros(trials, dtype=np.int64)
    active = np.ones(trials, dtype=bool)
    successes = np.zeros(n_steps, dtype=np.int64)
    resets = 0
    for step in range(n_steps):
        u = rng.random(trials)
        cur = np.minimum(pos, n_steps - 1)
        ps_k, p1_k = ps[cur], p1[cur]
        win = active & (u < ps_k)
        cont = active & ~win & (u < ps_k + p1_k)
        lose = active & ~win & ~cont
        successes[step] = int(win.sum())
        resets += int(lose.sum())
        active &= ~win
        pos[cont] += 1
        pos[lose] = 0
    return TrajectoryStats(trials=trials, successes_by_step=successes, resets=resets)

