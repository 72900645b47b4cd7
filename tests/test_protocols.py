import os
import signal
import tracemalloc
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import peak, prepared, random_graph_with_moved_roles
from qutrit_bell import (Outcome, Strategy, assemble_hamiltonian, enumerate_outcome_tree,
                         evolve, monte_carlo, outcome_distribution, plan_protocol2,
                         plan_regular, post_state, protocol1_cumulative, protocol1_required,
                         protocol2_limit_check, protocol2_no_reset, protocol2_total,
                         spectral_decompose)
from qutrit_bell import cli, dynamics, measurement, protocols
from qutrit_bell.cli import main
from qutrit_bell.dynamics import (DEFAULT_GRID_STEP, DEFAULT_REFINE_TOL, PHASE_BLOCK,
                                  TIE_TOL, _index_groups, _SpectralKernel,
                                  _time_grid, amplitude_rows, find_peak, pair_index)
from qutrit_bell.protocols import (ScheduleStep, _grid_scan, _protocol2_steps, _step_chooser,
                                   _step_curve)
from qutrit_bell.topology import ROLE_SWAPS, find_protocol_automorphism

DATA = Path(__file__).resolve().parent / "data"


def synthetic_schedule(rows):
    """Schedule stub from (pS_bell, p1, p2, p3) rows; projection = bell."""
    return [ScheduleStep(p1=p1, p2=p2, p3=p3, pS_projection=ps, pS_bell=ps, time=1.0)
            for (ps, p1, p2, p3) in rows]


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
        assert cross5_schedule[0].time == pytest.approx(t_star, abs=1e-5)
        assert cross5_schedule[0].pS_bell == pytest.approx(p_star, abs=1e-9)
        assert cross5_schedule[0].pS_bell == pytest.approx(0.3429, abs=5e-3)

    def test_later_peaks_diminish(self, cross5_schedule, loop4_schedule):
        for sched in (cross5_schedule, loop4_schedule):
            first = sched[0].pS_bell
            for k in range(1, len(sched)):
                assert sched[k].pS_bell <= first + 1e-12

    def test_step_probabilities_are_consistent(self, cross5_schedule):
        for s in cross5_schedule:
            total = s.p1 + s.p2 + s.p3 + s.pS_projection
            assert total == pytest.approx(1.0, abs=1e-10)
            assert s.time > 0

    def test_all_strategies_produce_valid_schedules(self):
        g, e, _ = prepared("loop", 8)
        for strategy in Strategy:
            sched = plan_protocol2(g, e, strategy, n_max=3)
            assert len(sched) == 3
            series = protocol2_total(sched)
            assert np.all(np.diff(series) >= -1e-12)

    def test_rejects_bad_n_max(self):
        g, e, _ = prepared("cross", 5)
        with pytest.raises(ValueError):
            plan_protocol2(g, e, Strategy.PEAK_SUCCESS, n_max=0)

    @pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
    def test_rejects_a_window_that_is_not_positive(self, strategy):
        g, e, _ = prepared("cross", 5)
        for t_max in (0.0, -1.0):
            with pytest.raises(ValueError, match="t_max must be positive"):
                plan_protocol2(g, e, strategy, n_max=2, t_max=t_max)

    # (time, pS_bell, p1) of each step as the CLI prints them. The loop-4
    # tail plans on curves of height ~1e-13, and cross-7 moved when the
    # rounding of V^T psi0 changed: both pin the kernel's scalar path.
    # Min-loss and max-margin also scan p_U on the grid; max-margin stalls
    # at t = 0 after its first step, where p_S is roundoff.
    PINNED_SCHEDULES = {
        ("loop", 4, "peak-success"): [
            ("25.15652991", "0.4999823158", "0.02972908738"),
            ("25.15652991", "0.000594824536", "0.05938747997"),
            ("25.15652992", "3.542499403e-07", "0.05942278537"),
            ("1.093762169", "1.954802822e-10", "0.4346790704"),
            ("1.093762243", "3.27950962e-11", "0.4346792114"),
            ("1.093762243", "5.501925681e-12", "0.434679212"),
            ("1.093762462", "9.230400197e-13", "0.4346796285"),
            ("1.09376456", "1.548552461e-13", "0.4346836147"),
            ("1.093761546", "2.597929365e-14", "0.4346778862"),
            ("1.093764561", "4.358474091e-15", "0.4346836162")],
        ("cross", 7, "peak-success"): [
            ("38.28164163", "0.2613616541", "0.6903919736"),
            ("22.24706041", "0.0922672129", "0.3315527005"),
            ("37.25766733", "0.1142560812", "0.7028686059"),
            ("14.28089175", "0.1058357996", "0.8446389614"),
            ("1.666173346", "0.02564755522", "0.5047678522"),
            ("49.89456592", "0.0107431986", "0.622738956"),
            ("8.784179236", "0.009111684427", "0.9245583962"),
            ("8.451986342", "0.005730013117", "0.8598482965"),
            ("22.72020001", "0.001751550917", "0.9781515129"),
            ("15.83325513", "0.0006293128752", "0.9877083336")],
        ("loop", 8, "min-loss"): [
            ("10.52477721", "0.2352290265", "0.7144439216"),
            ("38.38185619", "0.1624503076", "0.7776125001"),
            ("1.918401199", "0.0283439288", "0.8762302464"),
            ("54.13512662", "0.01106596411", "0.9090559978"),
            ("56.90717761", "0.02209156099", "0.9008714758"),
            ("16.44536876", "0.01659189864", "0.94871434"),
            ("56.87548119", "0.04355662088", "0.8963771731"),
            ("12.29950751", "0.006082037856", "0.9302111516"),
            ("56.97", "0.003809548085", "0.9286892546"),
            ("25.43353782", "0.01610566609", "0.9136496464")],
        ("cross", 9, "min-loss"): [
            ("5.333600806", "0.04215421965", "0.8922932238"),
            ("52.57419248", "0.2010550738", "0.716253554"),
            ("68.52797912", "0.03835882609", "0.9087435961"),
            ("60.97360394", "0.01318932553", "0.9575892512"),
            ("56.45016857", "0.01690150823", "0.9563374357"),
            ("26.08515789", "0.01047918319", "0.9629583022"),
            ("26.99617802", "0.006410171276", "0.9732138941"),
            ("35.8110991", "0.01255775737", "0.9681406898"),
            ("52.33664878", "0.004663421842", "0.9783331896"),
            ("37.13826822", "0.003406112016", "0.9884674583")],
        ("loop", 8, "max-margin"): [
            ("38.02471899", "0.4666508391", "0.3455376013"),
            ("0", "5.392791923e-32", "1"),
            ("0", "4.935506401e-32", "1"),
            ("0", "5.827934071e-32", "1"),
            ("0", "5.102751035e-32", "1"),
            ("0", "5.596580914e-32", "1"),
            ("0", "5.033110048e-32", "1"),
            ("0", "6.713352269e-32", "1"),
            ("0", "5.900889953e-32", "1"),
            ("0", "4.987096497e-32", "1")],
        ("cross", 9, "max-margin"): [
            ("67.19400995", "0.222265539", "0.6482067169"),
            ("0", "7.237283619e-32", "1"),
            ("0", "8.7635831e-32", "1"),
            ("0", "7.656173382e-32", "1"),
            ("0", "9.598955213e-32", "1"),
            ("0", "1.041506803e-31", "1"),
            ("0", "1.142317198e-31", "1"),
            ("0", "9.249278558e-32", "1"),
            ("0", "7.437098851e-32", "1"),
            ("0", "7.975757382e-32", "1")],
    }

    @pytest.mark.parametrize("family,n,strategy", [
        pytest.param(*key, id="-".join(map(str, key[:2] if key[2] == "peak-success" else key)))
        for key in PINNED_SCHEDULES])
    def test_printed_schedule_is_pinned(self, family, n, strategy):
        g, e, _ = prepared(family, n)
        sched = plan_protocol2(g, e, Strategy(strategy), n_max=10)
        printed = [(f"{s.time:.10g}", f"{s.pS_bell:.10g}", f"{s.p1:.10g}")
                   for s in sched]
        assert printed == self.PINNED_SCHEDULES[(family, n, strategy)]

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


def planned_chain(family, n, strategy, steps):
    """(graph, eigensystem, the conditional states a plan scans from, the times it chose)."""
    g, e, _ = prepared(family, n)
    choose = _step_chooser(g, strategy, None, DEFAULT_GRID_STEP, DEFAULT_REFINE_TOL)
    states, times = [], []

    def recording(psi, kernel):
        states.append(psi)
        times.append(choose(psi, kernel))
        return times[-1]

    list(islice(_protocol2_steps(g, e, recording), steps))
    return g, e, states, times


def objective_rows(g, strategy):
    """The rows a strategy's objective reads: the success rows, then every psi2/psi3 row."""
    grp = _index_groups(g)
    if strategy is Strategy.PEAK_SUCCESS:
        return grp["success"]
    return np.concatenate([grp["success"], grp["g2"], grp["g3"]])


def scanned_curves(psi, g, t, strategy=Strategy.MIN_LOSS):
    """(p_S, p_U) on grid t as the planner scans them from psi."""
    return _grid_scan(g, strategy, t)(psi)


class TestMirrorRows:
    """The grid scan reads the {A,B} orbit and each psi2/psi3 orbit once, on the
    C blocks folded by the role exchanges; the refinement reads the pair rows."""

    @pytest.fixture
    def built(self, monkeypatch):
        """(row count, dimension) of each kernel the planner builds or reads on a
        row subset, in order."""
        built = []

        class Recording(_SpectralKernel):
            def __init__(self, e, psi0, rows=None):
                d = e.eigenvalues.size
                built.append((d if rows is None else len(rows), d))
                super().__init__(e, psi0, rows)

            def on_rows(self, rows):
                built.append((len(rows), self._v.shape[1]))
                return super().on_rows(rows)

        for module in (measurement, protocols):
            monkeypatch.setattr(module, "_SpectralKernel", Recording)
        return built

    def test_loop36_scans_34_orbits_for_136_unusable_rows(self, built):
        g, e, psi0 = prepared("loop", 36)
        grp = _index_groups(g)
        assert len(grp["g2"]) + len(grp["g3"]) == 136
        plan_protocol2(g, e, Strategy.MIN_LOSS, n_max=1, t_max=20.0)
        # the step's kernel on every row of the full space (its V^T psi also serves
        # the refinement); the grid scan reads the {A,B} orbit and 17 psi2/psi3
        # orbits of the 171-orbit C-even fold, 17 of the 162-orbit C-odd fold; the
        # refinement all 2 + 136 rows of the full space
        assert built == [(1260, 1260), (18, 171), (17, 162), (138, 1260)]

    @pytest.mark.parametrize("family,n", [("loop", 36), ("cross", 35)])
    def test_chain_curves_equal_full_row_curves(self, family, n):
        g, e, states, _ = planned_chain(family, n, Strategy.MIN_LOSS, 3)
        rows = objective_rows(g, Strategy.MIN_LOSS)
        t = 0.01 * np.arange(2 * PHASE_BLOCK + 1)
        for psi in states:
            p_s, p_u = scanned_curves(psi, g, t)
            full = _SpectralKernel(e, psi, rows)(t)
            assert np.max(np.abs(p_s - 0.5 * np.abs(full[0] + full[1]) ** 2)) <= 1e-13
            assert np.max(np.abs(p_u - np.sum(np.abs(full[2:]) ** 2, axis=0))) <= 1e-13

    def test_graph_without_the_symmetry_scans_every_row(self, built):
        g = random_graph_with_moved_roles()
        assert all(find_protocol_automorphism(g, swap) is None for swap in ROLE_SWAPS)
        e = spectral_decompose(assemble_hamiltonian(g))
        every = 2 + len(_index_groups(g)["g2"]) + len(_index_groups(g)["g3"])
        plan_protocol2(g, e, Strategy.MAX_MARGIN, n_max=1)
        # the step's kernel; no fold: {A,B} and the 16 psi2/psi3 pairs of the
        # C-even block, the same 16 pairs of the C-odd block (each two psi2/psi3
        # rows), then every row
        assert every == 2 + 2 * 16
        assert built == [(90, 90), (17, 45), (16, 45), (every, 90)]

    def test_peak_success_reads_only_the_success_rows(self, built):
        g, e, _ = prepared("loop", 8)
        plan_protocol2(g, e, Strategy.PEAK_SUCCESS, n_max=2)
        # per step, the step's kernel, the grid scan of the {A,B} orbit on the
        # 10-orbit C-even fold, then the refinement
        assert built == [(56, 56), (1, 10), (2, 56)] * 2

    def test_a_state_off_the_fold_is_refused(self):
        g, e, psi0 = prepared("loop", 8)
        choose = _step_chooser(g, Strategy.MIN_LOSS, None, DEFAULT_GRID_STEP,
                               DEFAULT_REFINE_TOL)
        assert choose(psi0, _SpectralKernel(e, psi0)) is not None
        n, r = g.n_vertices, g.roles
        a = np.zeros_like(psi0)
        a[pair_index(n, r.charlie_plus, r.alice)] = 1.0  # A <-> B moves it to |c+,B>
        with pytest.raises(ValueError, match="not invariant"):
            choose(a, _SpectralKernel(e, a))

    def test_graph_without_a_role_exchange_diagonalises_once(self, monkeypatch):
        calls = []

        def counting(h):
            calls.append(h.shape[0])
            return spectral_decompose(h)

        for module in (cli, measurement):
            monkeypatch.setattr(module, "spectral_decompose", counting)
        for name, dims in (("no-role-exchange.txt", [42, 21]), ("cross5.txt", [20, 5])):
            calls.clear()
            assert main(["protocol2", "--topology", "custom", "--topology-file",
                         str(DATA / name), "--n-max", "3", "--no-timestamp",
                         "--output", os.devnull]) == 0
            # the full space, then the C-even fold peak-success scans (with no
            # role exchange, the C-even block itself)
            assert calls == dims


class TestOnePlannerStep:
    """Every strategy is one grid scan and one `select_peak`."""

    @pytest.mark.parametrize("family,n", [("loop", 4), ("cross", 7)])
    def test_peak_success_times_equal_find_peak(self, family, n):
        g, e, states, times = planned_chain(family, n, Strategy.PEAK_SUCCESS, 12)
        assert len(states) > 1
        for psi, t in zip(states, times):
            t_peak, p_peak = find_peak(e, psi, g, t_max=protocols.PLAN_WINDOW_FACTOR * n)
            assert t == (None if p_peak == 0.0 else t_peak)

    @pytest.mark.parametrize("family,n", [("loop", 4), ("cross", 7)])
    @pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
    def test_step_objective_reaches_the_grid_maximum(self, family, n, strategy):
        g, e, states, times = planned_chain(family, n, strategy, 6)
        grid = _time_grid(protocols.PLAN_WINDOW_FACTOR * n, DEFAULT_GRID_STEP)
        rows = objective_rows(g, strategy)
        for psi, t in zip(states, times):
            p_s, p_u = scanned_curves(psi, g, grid, strategy)
            score = protocols._score(strategy, p_s, p_u)
            if strategy is Strategy.MIN_LOSS:
                score = np.where(p_s >= protocols.MINLOSS_FLOOR * p_s.max(), score, -np.inf)
            objective = protocols._score(strategy, *_step_curve(_SpectralKernel(e, psi, rows)(t)))
            assert objective >= score.max() - TIE_TOL

    @pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
    def test_automorphism_searched_at_most_once_per_plan(self, strategy, monkeypatch):
        g, e, _ = prepared("loop", 8)
        calls = []

        def counting(graph, role_perm):
            calls.append(role_perm)
            return find_protocol_automorphism(graph, role_perm)

        monkeypatch.setattr(dynamics, "find_protocol_automorphism", counting)
        plan_protocol2(g, e, strategy, n_max=4)
        # each role swap once per C block the grid scan folds, not once per step:
        # the C-even block for peak-success, both blocks for the others
        folds = 1 if strategy is Strategy.PEAK_SUCCESS else 2
        assert sorted(calls) == sorted(ROLE_SWAPS * folds)


class TestRegularSchedule:
    def test_fixed_interval(self):
        g, e, _ = prepared("cross", 5)
        sched = plan_regular(g, e, tau=2.3, n_max=6)
        assert np.allclose([s.time for s in sched], 2.3)
        series = protocol2_total(sched)
        assert np.all(np.diff(series) >= -1e-12)

    def test_rejects_bad_tau(self):
        g, e, _ = prepared("cross", 5)
        with pytest.raises(ValueError):
            plan_regular(g, e, tau=0.0, n_max=3)

    def test_chain_ends_where_the_survival_product_underflows(self):
        # loop-4 at tau = 1: prod p_1 reaches exactly 0 at step 566, after
        # which no step weighs in either series
        g, e, psi = prepared("loop", 4)
        n = 5000
        sched = plan_regular(g, e, 1.0, n)
        assert len(sched) == 566
        survival = protocols._survival(protocols._padded(sched, n)[1])
        assert survival[565] > 0.0 and survival[566] == 0.0
        steps = []  # the chain stepped on to n, as it was before it ended there
        for _ in range(n):
            phi = evolve(e, psi, 1.0)
            d = outcome_distribution(phi, g)
            psi = post_state(phi, Outcome.PSI1, g)
            steps.append(ScheduleStep(**vars(d), time=1.0))
        assert steps[:566] == sched
        assert np.array_equal(protocol2_no_reset(sched, n), protocol2_no_reset(steps, n))
        assert np.array_equal(protocol2_total(sched, n), protocol2_total(steps, n))


class TestCumulativeSeries:
    def test_single_term(self, cross5_schedule):
        pbar = protocol2_no_reset(cross5_schedule, 1)
        assert pbar[0] == pytest.approx(cross5_schedule[0].pS_bell, abs=1e-14)
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

    def test_total_matches_the_direct_double_sum(self, cross5_schedule, loop4_schedule):
        rng = np.random.default_rng(5)
        raw = rng.random((300, 4))
        raw /= raw.sum(axis=1, keepdims=True)
        for sched in (cross5_schedule, loop4_schedule, synthetic_schedule(raw)):
            n = len(sched) + 5  # padded with dead steps
            rows = [(s.p1, s.reset_weight) for s in sched]
            rows += [(1.0, 0.0)] * 5
            pbar = protocol2_no_reset(sched, n)
            direct = np.empty(n)
            for m in range(n):
                val, surv = pbar[m], 1.0
                for j in range(m):
                    val += surv * rows[j][1] * direct[m - j - 1]
                    surv *= rows[j][0]
                direct[m] = val
            assert np.allclose(protocol2_total(sched, n), direct, rtol=1e-14, atol=0.0)
            for m in range(1, 9):
                assert enumerate_outcome_tree(sched, m)[1] == pytest.approx(
                    protocol2_total(sched, m)[-1], abs=1e-12)

    def test_reads_restart_weights_only_up_to_the_last_nonzero_one(self):
        # loop-4 at tau = 1: the survival product underflows to 0 after 566
        # steps, so the weights past it add exact zeros to the full recursion
        g, e, _ = prepared("loop", 4)
        n = 5000
        sched = plan_regular(g, e, 1.0, n)
        _, p1, reset = protocols._padded(sched, n)
        w = protocols._survival(p1) * reset
        assert np.flatnonzero(w)[-1] < 1000
        full = protocol2_no_reset(sched, n)
        for k in range(1, n):
            full[k] += np.dot(w[:k], full[k - 1::-1])
        assert np.array_equal(protocol2_total(sched, n), full)

    def test_recursion_matches_tree_enumeration(self, cross5_schedule):
        pbar = protocol2_no_reset(cross5_schedule)
        ptot = protocol2_total(cross5_schedule)
        for n in range(1, 11):
            tree_bar, tree_tot = enumerate_outcome_tree(cross5_schedule, n)
            assert abs(pbar[n - 1] - tree_bar) < 1e-10
            assert abs(ptot[n - 1] - tree_tot) < 1e-10


def triple_loop_reset_count_masses(schedule, n, m_max):
    """The reset-count recursion as a loop over steps, positions and counts."""
    rows = [(s.pS_bell, s.p1, s.reset_weight) for s in schedule[:n]]
    rows += [(0.0, 1.0, 0.0)] * (n - len(rows))
    alive = np.zeros((n + 1, m_max + 1))
    alive[0, 0] = 1.0
    success = np.zeros(m_max + 1)
    for _ in range(n):
        nxt = np.zeros_like(alive)
        for pos in range(n):
            for m in range(m_max + 1):
                w = alive[pos, m]
                if w == 0.0:
                    continue
                ps, p1, pu = rows[pos]
                success[m] += w * ps
                nxt[pos + 1, m] += w * p1
                if m + 1 <= m_max:
                    nxt[0, m + 1] += w * pu
        alive = nxt
    return np.cumsum(success), np.cumsum(alive.sum(axis=0))


class TestPerStepTable:
    def test_dead_steps_pad_the_table(self):
        sched = synthetic_schedule([(0.25, 0.5, 0.125, 0.125)])
        table = protocols._padded(sched, 3)
        assert table.tolist() == [[0.25, 0.0, 0.0], [0.5, 1.0, 1.0], [0.25, 0.0, 0.0]]

    @pytest.mark.parametrize("m_max", range(4))
    def test_reset_count_masses_match_the_triple_loop(self, m_max):
        rng = np.random.default_rng(100 + m_max)
        for _ in range(25):
            raw = rng.random((int(rng.integers(1, 8)), 4))
            raw /= raw.sum(axis=1, keepdims=True)
            sched = synthetic_schedule(raw)
            n = len(sched) + int(rng.integers(1, 6))
            got = protocols._reset_count_masses(sched, n, m_max)
            want = triple_loop_reset_count_masses(sched, n, m_max)
            for a, b in zip(got, want):
                assert np.max(np.abs(a - b)) <= 1e-15

    def test_cross5_undecided_mass_keeps_the_run_without_reset(self, cross5_schedule):
        n = len(cross5_schedule)
        succ, alive = protocols._reset_count_masses(cross5_schedule, n, 3)
        _, p1, reset = protocols._padded(cross5_schedule, n)
        survived = float(np.prod(p1))
        assert survived == pytest.approx(0.0368, abs=1e-4)
        # with no reset a run succeeds, resets or meets psi1 at all n steps
        assert alive[0] == pytest.approx(survived, abs=1e-15)
        assert succ[0] == pytest.approx(protocol2_no_reset(cross5_schedule)[-1], abs=1e-15)
        assert succ[0] + alive[0] + np.sum(protocols._survival(p1) * reset) \
            == pytest.approx(1.0, abs=1e-12)

    def test_tree_returns_python_floats(self, cross5_schedule):
        for n in (3, len(cross5_schedule) + 2):
            assert [type(x) for x in enumerate_outcome_tree(cross5_schedule, n)] == [float] * 2


class TestChainEnd:
    def test_loop4_chain_ends_after_ten_steps(self, loop4_schedule):
        g, e, _ = prepared("loop", 4)
        sched = plan_protocol2(g, e, n_max=20)
        assert sched == loop4_schedule
        assert f"{protocol2_total(sched, 20)[-1]:.10g}" == "0.9999964653"


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
        assert report.schedule == planned

    def test_rejects_bad_target(self):
        g, e, _ = prepared("cross", 5)
        with pytest.raises(ValueError):
            protocol2_limit_check(g, e, q=1.0)


class TestMonteCarlo:
    def test_deterministic_given_seed(self, cross5_schedule):
        a = monte_carlo(cross5_schedule, trials=2000, seed=42)
        b = monte_carlo(cross5_schedule, trials=2000, seed=42)
        assert np.array_equal(a.successes_by_step, b.successes_by_step)
        assert a.resets == b.resets

    def test_certain_success(self):
        sched = synthetic_schedule([(1.0, 0.0, 0.0, 0.0)] * 3)
        stats = monte_carlo(sched, trials=500, seed=1)
        assert stats.successes_by_step[0] == 500
        assert stats.cumulative_success()[-1] == 500

    def test_matches_analytic_series(self, cross5_schedule):
        trials = 100_000
        stats = monte_carlo(cross5_schedule, trials=trials, seed=7,
                            max_steps=5)
        analytic = protocol2_total(cross5_schedule, 5)
        for n in range(1, 6):
            p = analytic[n - 1]
            sigma = np.sqrt(p * (1 - p) / trials)
            assert abs(stats.empirical_p(n) - p) <= 3 * sigma

    def test_counts_bounded_by_trials(self, cross5_schedule):
        stats = monte_carlo(cross5_schedule, trials=3000, seed=3)
        assert np.all(stats.cumulative_success() <= 3000)

    def test_rejects_bad_trials(self, cross5_schedule):
        with pytest.raises(ValueError):
            monte_carlo(cross5_schedule, trials=0, seed=1)

