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

with p_U = p_2 + p_3 the per-step reset probability.

An explicit outcome-tree enumeration and a Monte Carlo sampler provide two
independent checks of the recursions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import reduce
from itertools import islice

import numpy as np

from .dynamics import (DEFAULT_GRID_STEP, DEFAULT_REFINE_TOL, Eigensystem,
                       Wavefunction, _index_groups, _SpectralKernel, _time_grid,
                       evolve, initial_state, refine_maximum, select_peak)
from .measurement import ZERO_PROB, Outcome, outcome_distribution, post_state
from .topology import Graph

#: fraction of the window-max success probability below which a time is not
#: considered a meaningful measurement opportunity for the MinLoss strategy
MINLOSS_FLOOR = 0.1
#: per-step search window for schedule planning is [0, PLAN_WINDOW_FACTOR * N];
#: wider than the one-shot peak window because the conditional chains keep
#: re-peaking at late times
PLAN_WINDOW_FACTOR = 8.0


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


@dataclass
class Schedule:
    """Measurement plan for protocol 2 on a fixed graph.

    Times are relative to the previous measurement (or to the last reset);
    after a reset the schedule restarts from step 1. ``success_deficit``
    is nonzero only on graphs without the protocol symmetry, where the
    projection probability exceeds the Bell-heralded one; that excess is
    treated as one more way to lose the run (see ``reset_weight``).
    """

    strategy: str
    n_vertices: int
    steps: list[ScheduleStep] = field(default_factory=list)

    @property
    def times(self) -> np.ndarray:
        return np.array([s.time for s in self.steps])

    def __len__(self) -> int:
        return len(self.steps)

    def p_success(self, k: int) -> float:
        return self.steps[k].p_success

    def p_continue(self, k: int) -> float:
        return self.steps[k].p1

    def reset_weight(self, k: int) -> float:
        """Probability that measurement k+1 forces a restart."""
        s = self.steps[k]
        return s.p_unusable + max(0.0, s.pS_projection - s.p_success)

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
    """The quantity a strategy maximizes, on a grid or at one time."""
    if strategy is Strategy.PEAK_SUCCESS:
        return p_success
    if strategy is Strategy.MIN_LOSS:
        return -p_unusable
    return p_success - p_unusable


def _step_curve(amp: np.ndarray):
    """(p_S, p_U) from the amplitudes of the success rows then the psi2/psi3 rows.

    amp is (rows,) at one time or (rows, B) on a block of times. A block is
    summed row after row, as numpy sums a whole grid matrix along axis 0;
    np.sum would sum a one-time block pairwise, which rounds differently.
    """
    sq = np.abs(amp[2:]) ** 2
    p_u = np.sum(sq, axis=0) if amp.ndim == 1 else reduce(np.add, sq, np.zeros(amp.shape[1]))
    return 0.5 * np.abs(amp[0] + amp[1]) ** 2, p_u


def _choose_step_time(strategy: Strategy, e: Eigensystem, psi: Wavefunction, g: Graph,
                      t_grid: np.ndarray, grid_step: float, refine_tol: float) -> float:
    """Measurement time for the current conditional state, per strategy.

    Only the rows the strategy reads are projected: the two success rows,
    plus the psi2/psi3 rows unless it is peak-success. The grid curves are
    reduced one phase block at a time, so no rows x T matrix is held.
    """
    grp = _index_groups(g)
    rows = grp["success"]
    if strategy is not Strategy.PEAK_SUCCESS:
        rows = np.concatenate([rows, grp["g2"], grp["g3"]])

    kernel = _SpectralKernel(e, psi, rows)
    p_s, p_u = np.empty(t_grid.size), np.empty(t_grid.size)
    for cols, amp in kernel._blocks(t_grid):
        p_s[cols], p_u[cols] = _step_curve(amp)
    if p_s.max() < 1e-15:
        raise RuntimeError("success probability identically zero over the "
                           "search window; cannot plan further measurements")

    def objective(t: float) -> float:
        return float(_score(strategy, *_step_curve(kernel(t))))

    if strategy is Strategy.PEAK_SUCCESS:
        t_star, _ = select_peak(p_s, t_grid, objective, grid_step, refine_tol)
        return t_star
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
    """Conditional state -> measurement time, scanning [0, t_max] per step."""
    if t_max is None:
        t_max = PLAN_WINDOW_FACTOR * g.n_vertices
    t_grid = _time_grid(t_max, grid_step)
    return lambda psi: _choose_step_time(strategy, e, psi, g, t_grid, grid_step, refine_tol)


def _protocol2_steps(g: Graph, e: Eigensystem, choose_time):
    """The protocol-2 chain, one ScheduleStep per measurement, lazily.

    Each step evolves the current conditional state for choose_time(state),
    measures, and conditions on psi1. The chain ends after a step that
    leaves psi1 no weight: further steps would condition on nothing.
    """
    psi = initial_state(g)
    while psi is not None:
        t = float(choose_time(psi))
        phi = evolve(e, psi, t)
        dist = outcome_distribution(phi, g)
        psi = None if dist.p1 < ZERO_PROB else post_state(phi, Outcome.PSI1, g)
        yield ScheduleStep(time=t, p_success=dist.pS_bell, p1=dist.p1, p2=dist.p2,
                           p3=dist.p3, pS_projection=dist.pS_projection)


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
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    choose = _step_chooser(g, e, strategy, t_max, grid_step, refine_tol)
    return Schedule(strategy=strategy.value, n_vertices=g.n_vertices,
                    steps=list(islice(_protocol2_steps(g, e, choose), n_max)))


def plan_regular(g: Graph, e: Eigensystem, tau: float, n_max: int) -> Schedule:
    """Fixed-interval fallback schedule: every measurement after time tau."""
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    return Schedule(strategy="regular", n_vertices=g.n_vertices,
                    steps=list(islice(_protocol2_steps(g, e, lambda psi: tau), n_max)))


def _padded(schedule: Schedule, n: int) -> list[tuple[float, float, float]]:
    """Per-step (p_success, p1, reset weight), padded with dead steps."""
    rows = [(schedule.p_success(k), schedule.p_continue(k), schedule.reset_weight(k))
            for k in range(len(schedule))]
    while len(rows) < n:
        rows.append((0.0, 1.0, 0.0))  # exhausted chain: nothing ever happens
    return rows[:n]


def protocol2_no_reset(schedule: Schedule, n: int | None = None) -> np.ndarray:
    """Cumulative success probabilities Pbar_1..Pbar_n along one run."""
    n = len(schedule) if n is None else n
    rows = _padded(schedule, n)
    out = np.empty(n)
    total, surv = 0.0, 1.0
    for k, (ps, p1, _) in enumerate(rows):
        total += ps * surv
        out[k] = total
        surv *= p1
    return out


def protocol2_total(schedule: Schedule, n: int | None = None) -> np.ndarray:
    """Total success probabilities P_1..P_n including restart branches."""
    n = len(schedule) if n is None else n
    rows = _padded(schedule, n)
    pbar = protocol2_no_reset(schedule, n)
    p = np.empty(n)
    for nn in range(1, n + 1):
        val = pbar[nn - 1]
        surv = 1.0
        for j in range(1, nn):
            val += surv * rows[j - 1][2] * p[nn - j - 1]
            surv *= rows[j - 1][1]
        p[nn - 1] = val
    return p


def enumerate_outcome_tree(schedule: Schedule, n: int) -> tuple[float, float]:
    """Brute-force check of the recursions: walk every outcome sequence.

    Returns (Pbar_n, P_n) by explicit depth-first enumeration of all
    outcome strings of length <= n, multiplying branch probabilities. Kept
    deliberately independent of the closed-form code above.
    """
    rows = _padded(schedule, n)
    totals = {"all": 0.0, "no_reset": 0.0}

    def walk(depth: int, pos: int, weight: float, had_reset: bool) -> None:
        if depth == n or weight == 0.0:
            return
        ps, p1, pu = rows[pos]
        totals["all"] += weight * ps
        if not had_reset:
            totals["no_reset"] += weight * ps
        walk(depth + 1, pos + 1, weight * p1, had_reset)
        walk(depth + 1, 0, weight * pu, True)

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
    """
    rows = _padded(schedule, n)
    horizon = len(rows)
    alive = np.zeros((horizon + 1, m_max + 1))
    alive[0, 0] = 1.0
    success = np.zeros(m_max + 1)
    for step in range(n):
        nxt = np.zeros_like(alive)
        for pos in range(horizon):
            for m in range(m_max + 1):
                w = alive[pos, m]
                if w == 0.0:
                    continue
                ps, p1, pu = rows[pos]
                success[m] += w * ps
                if pos + 1 <= horizon - 1:
                    nxt[pos + 1, m] += w * p1
                if m + 1 <= m_max:
                    nxt[0, m + 1] += w * pu
        alive = nxt
    cum_success = np.cumsum(success)
    cum_alive = np.cumsum(alive.sum(axis=0))
    return cum_success, cum_alive


def protocol2_limit_check(g: Graph, e: Eigensystem, q: float,
                          strategy: Strategy = Strategy.PEAK_SUCCESS,
                          max_measurements: int = 500,
                          t_max: float | None = None,
                          grid_step: float = DEFAULT_GRID_STEP,
                          refine_tol: float = DEFAULT_REFINE_TOL,
                          bound_resets: int = 3) -> LimitCheckReport:
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

    p_peak = schedule.p_success(0)
    pbar = protocol2_no_reset(schedule, n)
    surv = np.cumprod([1.0] + [schedule.p_continue(k) for k in range(min(len(schedule), n) - 1)])
    reset_mass = sum(surv[k] * schedule.reset_weight(k)
                     for k in range(min(len(schedule), n)))
    run_success_ok = pbar[-1] + 1e-9 >= p_peak and (
        pbar[-1] / max(pbar[-1] + reset_mass, 1e-300) + 1e-9 >= p_peak)
    succ_m, alive_m = _reset_count_masses(schedule, n, bound_resets)
    reset_bound_ok = all(
        succ_m[m] + alive_m[m] + 1e-9 >= 1.0 - (1.0 - p_peak) ** (m + 1)
        for m in range(bound_resets + 1))
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


def monte_carlo(g: Graph, e: Eigensystem, schedule: Schedule, trials: int,
                seed: int, max_steps: int | None = None) -> TrajectoryStats:
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
    rows = _padded(schedule, n_steps)
    ps = np.array([r[0] for r in rows])
    p1 = np.array([r[1] for r in rows])

    rng = np.random.default_rng(seed)
    pos = np.zeros(trials, dtype=np.int64)
    active = np.ones(trials, dtype=bool)
    successes = np.zeros(n_steps, dtype=np.int64)
    resets = 0
    for step in range(n_steps):
        u = rng.random(trials)
        cur = np.minimum(pos, len(rows) - 1)
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

