import signal
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import peak, prepared
from qutrit_bell import (Strategy, enumerate_outcome_tree,
                         monte_carlo, plan_protocol2, plan_regular,
                         protocol1_cumulative, protocol1_required,
                         protocol2_limit_check, protocol2_no_reset,
                         protocol2_total)
from qutrit_bell.dynamics import PHASE_BLOCK, _index_groups, _SpectralKernel, amplitude_rows
from qutrit_bell.protocols import Schedule, ScheduleStep, _step_curve


def synthetic_schedule(rows, n_vertices=5, strategy="synthetic"):
    """Schedule stub from (p_success, p1, p2, p3) rows; projection = bell."""
    steps = [ScheduleStep(time=1.0, p_success=ps, p1=p1, p2=p2, p3=p3,
                          pS_projection=ps)
             for (ps, p1, p2, p3) in rows]
    return Schedule(strategy=strategy, n_vertices=n_vertices, steps=steps)


@pytest.fixture(scope="module")
def cross5_schedule():
    g, e, _ = prepared("cross", 5)
    return plan_protocol2(g, e, Strategy.PEAK_SUCCESS, n_max=10)


@pytest.fixture(scope="module")
def loop4_schedule():
    g, e, _ = prepared("loop", 4)
    return plan_protocol2(g, e, Strategy.PEAK_SUCCESS, n_max=10)


class TestProtocol1:
    def test_reference_values(self):
        assert protocol1_cumulative(0.3429, 2) == pytest.approx(0.5682, abs=1e-4)
        assert protocol1_cumulative(0.4998, 10) == pytest.approx(0.9990, abs=1e-4)
        assert protocol1_cumulative(1.0, 7) == 1.0

    @given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
           st.integers(min_value=1, max_value=200))
    @settings(max_examples=80, deadline=None)
    def test_closed_form_equals_geometric_sum(self, p, n):
        explicit = sum(p * (1 - p) ** (k - 1) for k in range(1, n + 1))
        assert abs(protocol1_cumulative(p, n) - explicit) < 1e-12

    @given(st.floats(min_value=1e-12, max_value=0.999),
           st.floats(min_value=1e-3, max_value=0.999))
    @settings(max_examples=80, deadline=None)
    def test_required_is_minimal(self, p, q):
        n = protocol1_required(p, q)
        assert protocol1_cumulative(p, n) >= q
        if n > 1:
            assert protocol1_cumulative(p, n - 1) < q

    @pytest.mark.parametrize("p", [1e-15, 9e-33])
    def test_required_returns_where_one_minus_p_rounds_to_one(self, p):
        def too_slow(signum, frame):
            raise TimeoutError("protocol1_required did not return")

        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.alarm(5)
        try:
            n = protocol1_required(p, 0.9)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert n == pytest.approx(-np.log1p(-0.9) / p, rel=1e-9)

    def test_required_from_computed_peaks(self):
        assert protocol1_required(peak("cross", 5)[1], 0.90) == 6
        assert protocol1_required(peak("cross", 35)[1], 0.90) == 16

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            protocol1_required(0.0, 0.9)
        with pytest.raises(ValueError):
            protocol1_required(0.5, 1.0)
        with pytest.raises(ValueError):
            protocol1_cumulative(1.5, 3)
        with pytest.raises(ValueError):
            protocol1_cumulative(0.5, 0)


class TestPlanProtocol2:
    def test_first_step_matches_one_shot_peak(self, cross5_schedule):
        t_star, p_star = peak("cross", 5)
        assert cross5_schedule.steps[0].time == pytest.approx(t_star, abs=1e-5)
        assert cross5_schedule.p_success(0) == pytest.approx(p_star, abs=1e-9)
        assert cross5_schedule.p_success(0) == pytest.approx(0.3429, abs=5e-3)

    def test_later_peaks_diminish(self, cross5_schedule, loop4_schedule):
        for sched in (cross5_schedule, loop4_schedule):
            first = sched.p_success(0)
            for k in range(1, len(sched)):
                assert sched.p_success(k) <= first + 1e-12

    def test_step_probabilities_are_consistent(self, cross5_schedule):
        for s in cross5_schedule.steps:
            total = s.p1 + s.p2 + s.p3 + s.pS_projection
            assert total == pytest.approx(1.0, abs=1e-10)
            assert s.time > 0

    def test_all_strategies_produce_valid_schedules(self):
        g, e, _ = prepared("loop", 8)
        for strategy in Strategy:
            sched = plan_protocol2(g, e, strategy, n_max=3)
            assert len(sched) == 3
            assert sched.strategy == strategy.value
            series = protocol2_total(sched)
            assert np.all(np.diff(series) >= -1e-12)

    def test_rejects_bad_n_max(self):
        g, e, _ = prepared("cross", 5)
        with pytest.raises(ValueError):
            plan_protocol2(g, e, Strategy.PEAK_SUCCESS, n_max=0)

    def test_blocked_curves_equal_whole_grid_curves(self):
        # the last block holds one time, the case np.sum would round pairwise
        g, e, psi0 = prepared("loop", 8)
        grp = _index_groups(g)
        rows = np.concatenate([grp["success"], grp["g2"], grp["g3"]])
        t = 0.01 * np.arange(2 * PHASE_BLOCK + 1)
        amps = amplitude_rows(e, psi0, rows, t)
        whole = (0.5 * np.abs(amps[0] + amps[1]) ** 2,
                 np.sum(np.abs(amps[2:]) ** 2, axis=0))
        p_s, p_u = np.empty(t.size), np.empty(t.size)
        for cols, amp in _SpectralKernel(e, psi0, rows)._blocks(t):
            p_s[cols], p_u[cols] = _step_curve(amp)
        assert np.array_equal(p_s, whole[0])
        assert np.array_equal(p_u, whole[1])

    def test_planning_holds_no_rows_by_grid_matrix(self):
        g, e, _ = prepared("loop", 16)
        # one rows x T complex matrix over the 8N planning grid: 11.9 MB
        rows = 2 + len(_index_groups(g)["g2"]) + len(_index_groups(g)["g3"])
        t_size = int(8.0 * 16 / 0.01) + 1
        tracemalloc.start()
        try:
            plan_protocol2(g, e, Strategy.MIN_LOSS, n_max=1)
            _, peak_bytes = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak_bytes < rows * t_size * 16


class TestRegularSchedule:
    def test_fixed_interval(self):
        g, e, _ = prepared("cross", 5)
        sched = plan_regular(g, e, tau=2.3, n_max=6)
        assert sched.strategy == "regular"
        assert np.allclose(sched.times, 2.3)
        series = protocol2_total(sched)
        assert np.all(np.diff(series) >= -1e-12)

    def test_rejects_bad_tau(self):
        g, e, _ = prepared("cross", 5)
        with pytest.raises(ValueError):
            plan_regular(g, e, tau=0.0, n_max=3)


class TestCumulativeSeries:
    def test_single_term(self, cross5_schedule):
        pbar = protocol2_no_reset(cross5_schedule, 1)
        assert pbar[0] == pytest.approx(cross5_schedule.p_success(0), abs=1e-14)
        ptot = protocol2_total(cross5_schedule, 1)
        assert ptot[0] == pbar[0]

    def test_chain_cut(self):
        sched = synthetic_schedule([(0.3, 0.0, 0.35, 0.35)] * 5)
        pbar = protocol2_no_reset(sched)
        assert np.allclose(pbar, 0.3)

    def test_no_reset_below_total(self, cross5_schedule, loop4_schedule):
        for sched in (cross5_schedule, loop4_schedule):
            pbar = protocol2_no_reset(sched)
            ptot = protocol2_total(sched)
            assert ptot[0] == pbar[0]
            assert np.all(ptot[1:] >= pbar[1:])
            assert np.all(np.diff(pbar) >= -1e-15)
            assert np.all(np.diff(ptot) >= -1e-15)
            assert ptot[-1] <= 1.0 + 1e-12

    def test_degenerates_to_simple_repetition(self):
        # never continue, always reset on failure: geometric accumulation
        p = 0.37
        sched = synthetic_schedule([(p, 0.0, (1 - p) / 2, (1 - p) / 2)] * 8)
        ptot = protocol2_total(sched)
        for n in range(1, 9):
            assert ptot[n - 1] == pytest.approx(protocol1_cumulative(p, n), abs=1e-12)

    def test_recursion_matches_tree_enumeration(self, cross5_schedule):
        pbar = protocol2_no_reset(cross5_schedule)
        ptot = protocol2_total(cross5_schedule)
        for n in range(1, 11):
            tree_bar, tree_tot = enumerate_outcome_tree(cross5_schedule, n)
            assert abs(pbar[n - 1] - tree_bar) < 1e-10
            assert abs(ptot[n - 1] - tree_tot) < 1e-10


class TestLimitCheck:
    def test_loop4_reaches_099_at_8(self):
        g, e, _ = prepared("loop", 4)
        report = protocol2_limit_check(g, e, q=0.99)
        assert report.reached
        assert report.n_reached == 8
        assert report.series[report.n_reached - 1] >= 0.99
        assert report.run_success_ok
        assert report.reset_bound_ok

    def test_cross5_reaches_target(self):
        g, e, _ = prepared("cross", 5)
        report = protocol2_limit_check(g, e, q=0.5)
        assert report.reached
        assert report.series[report.n_reached - 1] >= 0.5
        if report.n_reached > 1:
            assert report.series[report.n_reached - 2] < 0.5
        assert report.run_success_ok
        assert report.reset_bound_ok

    def test_cap_reported(self):
        g, e, _ = prepared("cross", 9)
        report = protocol2_limit_check(g, e, q=0.999, max_measurements=4)
        assert not report.reached
        assert len(report.series) == 4

    @pytest.mark.parametrize("family,n", [("cross", 5), ("loop", 8)])
    def test_schedule_equals_plan_step_for_step(self, family, n):
        g, e, _ = prepared(family, n)
        report = protocol2_limit_check(g, e, q=0.99, max_measurements=12)
        planned = plan_protocol2(g, e, n_max=len(report.schedule))
        assert len(report.schedule) > 1
        assert report.schedule.steps == planned.steps

    def test_rejects_bad_target(self):
        g, e, _ = prepared("cross", 5)
        with pytest.raises(ValueError):
            protocol2_limit_check(g, e, q=1.0)


class TestMonteCarlo:
    def test_deterministic_given_seed(self, cross5_schedule):
        g, e, _ = prepared("cross", 5)
        a = monte_carlo(g, e, cross5_schedule, trials=2000, seed=42)
        b = monte_carlo(g, e, cross5_schedule, trials=2000, seed=42)
        assert np.array_equal(a.successes_by_step, b.successes_by_step)
        assert a.resets == b.resets

    def test_certain_success(self):
        g, e, _ = prepared("cross", 5)
        sched = synthetic_schedule([(1.0, 0.0, 0.0, 0.0)] * 3)
        stats = monte_carlo(g, e, sched, trials=500, seed=1)
        assert stats.successes_by_step[0] == 500
        assert stats.cumulative_success()[-1] == 500

    def test_matches_analytic_series(self, cross5_schedule):
        g, e, _ = prepared("cross", 5)
        trials = 100_000
        stats = monte_carlo(g, e, cross5_schedule, trials=trials, seed=7,
                            max_steps=5)
        analytic = protocol2_total(cross5_schedule, 5)
        for n in range(1, 6):
            p = analytic[n - 1]
            sigma = np.sqrt(p * (1 - p) / trials)
            assert abs(stats.empirical_p(n) - p) <= 3 * sigma

    def test_counts_bounded_by_trials(self, cross5_schedule):
        g, e, _ = prepared("cross", 5)
        stats = monte_carlo(g, e, cross5_schedule, trials=3000, seed=3)
        assert np.all(stats.cumulative_success() <= 3000)

    def test_rejects_bad_trials(self, cross5_schedule):
        g, e, _ = prepared("cross", 5)
        with pytest.raises(ValueError):
            monte_carlo(g, e, cross5_schedule, trials=0, seed=1)

