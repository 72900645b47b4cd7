"""Repeated-measurement protocols and their cumulative success probabilities.

Protocol 1: measure at the one-shot peak; on any failure reset every site
to |0> and start over. Success accumulates geometrically,
P(n) = 1 - (1-p)^n.

Protocol 2: after the symmetric failure outcome psi1 keep the conditional
state and measure again; reset only on the asymmetric outcomes psi2/psi3.
The measurement times t_1..t_n are chosen greedily, one step at a time,
according to one of three strategies; after a reset the same schedule is
replayed from the top (the run statistics are stationary), which is what
makes the cumulative recursion tractable:

    Pbar_n = p_S(1) + sum_j p_S(j) prod_{i<j} p_1(i)          (no reset)
    P_n    = Pbar_n + sum_j [prod_{i<j} p_1(i)] p_U(j) P_{n-j}

with p_U = p_2 + p_3 the per-step reset probability. Every series reads one
per-step table, `_padded`, where a chain that ended early pads as dead steps.

An explicit outcome-tree enumeration and a Monte Carlo sampler provide two
independent checks of the recursions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache, reduce
from itertools import islice

import numpy as np

from .dynamics import (DEFAULT_GRID_STEP, DEFAULT_REFINE_TOL, Eigensystem,
                       Wavefunction, _index_groups, _pair_position, _pairs,
                       _SpectralKernel, _time_grid, evolve, find_peak,
                       initial_state, refine_maximum)
from .measurement import ZERO_PROB, Outcome, outcome_distribution, post_state
from .topology import Graph, find_protocol_automorphism

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
class ScheduleStep:
    """One planned measurement: relative time and outcome probabilities."""

    time: float
    p_success: float       # Bell-heralded probability used in all accounting
    p1: float
    p2: float
    p3: float
    pS_projection: float

    @property
    def p_unusable(self) -> float:
        return self.p2 + self.p3

    @property
    def reset_weight(self) -> float:
        """Probability that this measurement forces a restart."""
        return self.p_unusable + max(0.0, self.pS_projection - self.p_success)


@dataclass
class Schedule:
    """Measurement plan for protocol 2 on a fixed graph.

    Times are relative to the previous measurement (or to the last reset);
    after a reset the schedule restarts from step 1. ``success_deficit``
    is nonzero only on graphs without the protocol symmetry, where the
    projection probability exceeds the Bell-heralded one; that excess is
    treated as one more way to lose the run (``ScheduleStep.reset_weight``).
    """

    strategy: str
    n_vertices: int
    steps: list[ScheduleStep] = field(default_factory=list)

    @property
    def times(self) -> np.ndarray:
        return np.array([s.time for s in self.steps])

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def success_deficit(self) -> float:
        return max(max(0.0, s.pS_projection - s.p_success) for s in self.steps)


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
    """The quantity min-loss or max-margin maximizes, on a grid or at one time."""
    if strategy is Strategy.MIN_LOSS:
        return -p_unusable
    return p_success - p_unusable


def _step_curve(amp: np.ndarray, weight: float = 1.0):
    """(p_S, p_U) from the amplitudes of the success rows then the psi2/psi3 rows.

    amp is (rows,) at one time or (rows, B) on a block of times; each
    psi2/psi3 row counts `weight` times in p_U. A block is summed row after
    row, as numpy sums a whole grid matrix along axis 0; np.sum would sum a
    one-time block pairwise, which rounds differently.
    """
    sq = np.abs(amp[2:]) ** 2
    p_u = np.sum(sq, axis=0) if amp.ndim == 1 else reduce(np.add, sq, np.zeros(amp.shape[1]))
    return 0.5 * np.abs(amp[0] + amp[1]) ** 2, weight * p_u


@lru_cache(maxsize=64)
def _pc_partner(g: Graph) -> np.ndarray | None:
    """Position of PC|i,j> = |Pj,Pi> for every pair |i,j>, or None.

    P is the protocol automorphism and C exchanges the +1 and -1
    excitations. None when the graph has no such P, or when the one found
    is not an involution, so that PC would not pair the rows.
    """
    found = find_protocol_automorphism(g)
    if not found.exists:
        return None
    perm = np.array((0, *found.mapping))
    if not np.array_equal(perm[perm], np.arange(perm.size)):
        return None
    plus, minus = _pairs(g.n_vertices)
    return _pair_position(g.n_vertices, perm[minus], perm[plus])


def _scan_rows(g: Graph, psi: Wavefunction) -> tuple[np.ndarray, float]:
    """The psi2/psi3 rows a grid scan projects, and the weight of each in p_U.

    PC fixes Alice and Bob, so it maps psi2 rows to psi2 rows and psi3 rows
    to psi3 rows, and none to itself. A PC-even state has equal amplitudes
    on the two rows of each such pair, and so does its evolution, since H
    commutes with PC: one row per pair, counted twice, gives p_U. A state
    counts as PC-even when each amplitude matches its partner's to ZERO_PROB
    (planned chains stay within 2e-14 on loop-36 and cross-35); any other
    state, or a graph without the pairing, projects every row once.
    """
    grp = _index_groups(g)
    rows = np.concatenate([grp["g2"], grp["g3"]])
    partner = _pc_partner(g)
    a = psi.amplitudes
    if partner is None or np.max(np.abs(a - a[partner])) > ZERO_PROB:
        return rows, 1.0
    return rows[rows < partner[rows]], 2.0


def _choose_step_time(strategy: Strategy, e: Eigensystem, psi: Wavefunction, g: Graph,
                      t_max: float, grid_step: float, refine_tol: float) -> float | None:
    """Measurement time for the current conditional state, or None.

    None when p_S stays below 1e-15 over [0, t_max]: nothing is left to
    herald. Peak-success is `find_peak` on the state, which reports such a
    window as (0, 0). Min-loss and max-margin also read the psi2/psi3 rows;
    on a PC-even state the grid scan projects one row of each PC pair and
    counts it twice (`_scan_rows`). The refinement reads every row, so the
    chosen times keep the scalar path's bits. The grid curves are reduced
    one phase block at a time, so no rows x T matrix is held.
    """
    if strategy is Strategy.PEAK_SUCCESS:
        t_star, p_star = find_peak(e, psi, g, t_max, grid_step, refine_tol)
        return None if p_star == 0.0 else t_star
    grp = _index_groups(g)
    unusable, weight = _scan_rows(g, psi)
    kernel = _SpectralKernel(e, psi, np.concatenate([grp["success"], grp["g2"], grp["g3"]]))
    scan = kernel if weight == 1.0 else _SpectralKernel(
        e, psi, np.concatenate([grp["success"], unusable]))
    t_grid = _time_grid(t_max, grid_step)
    p_s, p_u = np.empty(t_grid.size), np.empty(t_grid.size)
    for cols, amp in scan._blocks(t_grid):
        p_s[cols], p_u[cols] = _step_curve(amp, weight)
    if p_s.max() < 1e-15:
        return None

    def objective(t: float) -> float:
        return float(_score(strategy, *_step_curve(kernel(t))))

    score = _score(strategy, p_s, p_u)
    if strategy is Strategy.MIN_LOSS:
        # the bare minimum of p_U sits at t=0 where nothing can be measured;
        # only times with appreciable success probability compete
        score = np.where(p_s >= MINLOSS_FLOOR * p_s.max(), score, -np.inf)
    k = int(np.argmax(score))
    lo = max(0.0, float(t_grid[k]) - grid_step)
    hi = min(float(t_grid[-1]), float(t_grid[k]) + grid_step)
    t_star, f_star = refine_maximum(objective, lo, hi, refine_tol)
    if objective(float(t_grid[k])) >= f_star:
        return float(t_grid[k])
    return float(t_star)


def _step_chooser(g: Graph, e: Eigensystem, strategy: Strategy, t_max: float | None,
                  grid_step: float, refine_tol: float):
    """Conditional state -> measurement time (or None), scanning [0, t_max] per step."""
    if t_max is None:
        t_max = PLAN_WINDOW_FACTOR * g.n_vertices
    return lambda psi: _choose_step_time(strategy, e, psi, g, t_max, grid_step, refine_tol)


def _protocol2_steps(g: Graph, e: Eigensystem, choose_time):
    """The protocol-2 chain, one ScheduleStep per measurement, lazily.

    Each step evolves the current conditional state for choose_time(state),
    measures, and conditions on psi1. The chain ends after a step that
    leaves psi1 no weight, or where choose_time returns None because the
    window holds no success; at the first step that is an error.
    """
    psi = first = initial_state(g)
    while psi is not None:
        t = choose_time(psi)
        if t is None:
            if psi is first:
                raise RuntimeError("success probability identically zero over the "
                                   "search window; cannot plan further measurements")
            return
        phi = evolve(e, psi, float(t))
        dist = outcome_distribution(phi, g)
        psi = None if dist.p1 < ZERO_PROB else post_state(phi, Outcome.PSI1, g)
        yield ScheduleStep(time=float(t), p_success=dist.pS_bell, p1=dist.p1, p2=dist.p2,
                           p3=dist.p3, pS_projection=dist.pS_projection)


def _schedule(g: Graph, e: Eigensystem, strategy: str, choose_time, n_max: int) -> Schedule:
    """The chain's first n_max steps, or all of them if it ends sooner."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    return Schedule(strategy=strategy, n_vertices=g.n_vertices,
                    steps=list(islice(_protocol2_steps(g, e, choose_time), n_max)))


def plan_protocol2(g: Graph, e: Eigensystem, strategy: Strategy = Strategy.PEAK_SUCCESS,
                   n_max: int = 10, t_max: float | None = None,
                   grid_step: float = DEFAULT_GRID_STEP,
                   refine_tol: float = DEFAULT_REFINE_TOL) -> Schedule:
    """Greedy per-step schedule for the conditional-reset protocol.

    Each step evolves the current conditional state from relative time 0,
    scans the strategy's objective over [0, t_max], refines the chosen
    extremum, records the outcome probabilities and conditions on psi1.
    The schedule is reused verbatim after every reset.
    """
    return _schedule(g, e, strategy.value,
                     _step_chooser(g, e, strategy, t_max, grid_step, refine_tol), n_max)


def plan_regular(g: Graph, e: Eigensystem, tau: float, n_max: int) -> Schedule:
    """Fixed-interval fallback schedule: every measurement after time tau."""
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    return _schedule(g, e, "regular", lambda psi: tau, n_max)


def _padded(schedule: Schedule, n: int) -> np.ndarray:
    """The per-step table over n steps: rows p_S, p_1 and reset weight.

    Steps past the end of the chain are dead, (0, 1, 0): nothing ever
    happens there, so an ended chain adds nothing to any series.
    """
    rows = [(s.p_success, s.p1, s.reset_weight) for s in schedule.steps[:n]]
    table = np.tile([0.0, 1.0, 0.0], (n, 1))
    table[:len(rows)] = np.reshape(rows, (-1, 3))
    return table.T


def _survival(p1: np.ndarray) -> np.ndarray:
    """prod_{i<j} p_1(i) for each step j: the weight of reaching it without a reset."""
    return np.cumprod(np.concatenate(([1.0], p1[:-1])))


def protocol2_no_reset(schedule: Schedule, n: int | None = None) -> np.ndarray:
    """Cumulative success probabilities Pbar_1..Pbar_n along one run."""
    n = len(schedule) if n is None else n
    ps, p1, _ = _padded(schedule, n)
    return np.cumsum(ps * _survival(p1))


def protocol2_total(schedule: Schedule, n: int | None = None) -> np.ndarray:
    """Total success probabilities P_1..P_n including restart branches.

    The weight of a restart at step j, w_j = [prod_{i<j} p_1(i)] times the
    step's reset weight, does not depend on n, so each P_n is Pbar_n plus
    one dot product of w with the earlier P in reverse.
    """
    n = len(schedule) if n is None else n
    _, p1, reset = _padded(schedule, n)
    w = _survival(p1) * reset
    p = protocol2_no_reset(schedule, n)
    for k in range(1, n):
        p[k] += np.dot(w[:k], p[k - 1::-1])
    return p


def enumerate_outcome_tree(schedule: Schedule, n: int) -> tuple[float, float]:
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

    target: float
    n_reached: int | None        # smallest n with P_n >= target, None if capped
    series: np.ndarray           # P_1..P_horizon
    schedule: Schedule
    one_shot_peak: float
    run_success_ok: bool         # per-run conditional success >= one-shot peak
    reset_bound_ok: bool         # geometric lower bound per reset count

    @property
    def reached(self) -> bool:
        return self.n_reached is not None


def _reset_count_masses(schedule: Schedule, n: int, m_max: int):
    """Distribution over (resets used) after n measurements.

    Returns (success_by_resets, alive_by_resets): cumulative success mass
    and still-undecided mass with at most m resets, for m = 0..m_max.
    Undecided mass that would pass position n or reset m_max is dropped.
    """
    ps, p1, pu = _padded(schedule, n)
    alive = np.zeros((n, m_max + 1))
    alive[0, 0] = 1.0
    success = np.zeros(m_max + 1)
    for _ in range(n):
        success += ps @ alive
        reset = pu @ alive
        alive[1:] = alive[:-1] * p1[:-1, None]
        alive[0] = np.concatenate(([0.0], reset[:-1]))
    return np.cumsum(success), np.cumsum(alive.sum(axis=0))


def protocol2_limit_check(g: Graph, e: Eigensystem, q: float,
                          strategy: Strategy = Strategy.PEAK_SUCCESS,
                          max_measurements: int = 500,
                          t_max: float | None = None,
                          grid_step: float = DEFAULT_GRID_STEP,
                          refine_tol: float = DEFAULT_REFINE_TOL) -> LimitCheckReport:
    """Extend the schedule lazily until P_n >= q or the cap is hit.

    Also asserts the numerically checkable form of the convergence
    argument: every completed run succeeds with conditional probability at
    least the one-shot peak, hence success within m+1 runs is at least
    1-(1-p)^(m+1); both facts are checked on the planned horizon.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"target q must lie in (0,1), got {q}")
    steps = _protocol2_steps(g, e, _step_chooser(g, e, strategy, t_max, grid_step,
                                                 refine_tol))
    schedule = Schedule(strategy=strategy.value, n_vertices=g.n_vertices,
                        steps=[next(steps)])
    n = 1
    series = protocol2_total(schedule, n)
    while series[-1] < q and n < max_measurements:
        schedule.steps.extend(islice(steps, 1))  # nothing once the chain has ended
        n += 1
        series = protocol2_total(schedule, n)
    n_reached = n if series[-1] >= q else None

    p_peak = schedule.steps[0].p_success
    pbar = protocol2_no_reset(schedule, n)
    _, p1, reset = _padded(schedule, n)
    reset_mass = sum(_survival(p1) * reset)
    run_success_ok = pbar[-1] + 1e-9 >= p_peak and (
        pbar[-1] / max(pbar[-1] + reset_mass, 1e-300) + 1e-9 >= p_peak)
    succ_m, alive_m = _reset_count_masses(schedule, n, LIMIT_CHECK_RESETS)
    reset_bound_ok = all(
        succ_m[m] + alive_m[m] + 1e-9 >= 1.0 - (1.0 - p_peak) ** (m + 1)
        for m in range(LIMIT_CHECK_RESETS + 1))
    return LimitCheckReport(target=q, n_reached=n_reached, series=series,
                            schedule=schedule, one_shot_peak=p_peak,
                            run_success_ok=run_success_ok,
                            reset_bound_ok=reset_bound_ok)


@dataclass(frozen=True)
class TrajectoryStats:
    """Sampled outcomes of running a schedule many times."""

    trials: int
    successes_by_step: np.ndarray   # count of first successes at step k+1
    resets: int
    seed: int

    def cumulative_success(self) -> np.ndarray:
        return np.cumsum(self.successes_by_step)

    def empirical_p(self, n: int) -> float:
        return float(self.cumulative_success()[n - 1]) / self.trials


def monte_carlo(g: Graph, schedule: Schedule, trials: int, seed: int,
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
    if len(schedule) == 0:
        raise ValueError("schedule has no steps")
    if schedule.n_vertices != g.n_vertices:
        raise ValueError("schedule was planned for a different graph size")
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
    return TrajectoryStats(trials=trials, successes_by_step=successes,
                           resets=resets, seed=seed)

