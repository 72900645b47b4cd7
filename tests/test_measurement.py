import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import peak, prepared, quotient_matrix, random_graph_with_moved_roles, time_budget
from qutrit_bell import (Graph, Outcome, assemble_hamiltonian, dynamics, evolve, initial_state,
                         measurement, outcome_distribution, post_state, spectral_decompose)
from qutrit_bell.cli import _load_topology_file
from qutrit_bell.dynamics import (CHEBYSHEV_SPAN, DEFAULT_GRID_STEP, _chebyshev_order,
                                  _chebyshev_spans, _time_grid, pair_index)
from qutrit_bell.measurement import _quotient, outcome_curves

DATA = Path(__file__).resolve().parent / "data"


def evolved(family, n, t):
    g, e, psi0 = prepared(family, n)
    return g, evolve(e, psi0, t)


class TestOutcomeDistribution:
    def test_initial_state_is_all_psi1(self):
        g, _, psi0 = prepared("cross", 5)
        d = outcome_distribution(psi0, g)
        assert d.p1 == pytest.approx(1.0, abs=1e-14)
        assert d.p2 == d.p3 == d.pS_projection == 0.0

    def test_completeness_along_the_evolution(self):
        rng = np.random.default_rng(7)
        g, e, psi0 = prepared("loop", 8)
        for t in rng.uniform(0.0, 40.0, size=25):
            d = outcome_distribution(evolve(e, psi0, float(t)), g)
            assert d.p1 + d.p2 + d.p3 + d.pS_projection == pytest.approx(1.0, abs=1e-10)
            assert d.pS_bell <= d.pS_projection + 1e-12
            for p in (d.p1, d.p2, d.p3, d.pS_projection, d.pS_bell):
                assert -1e-12 <= p <= 1.0 + 1e-12

    def test_completeness_on_random_states(self):
        rng = np.random.default_rng(11)
        g, _, _ = prepared("cross", 5)
        for _ in range(20):
            a = rng.normal(size=20) + 1j * rng.normal(size=20)
            psi = a / np.linalg.norm(a)
            d = outcome_distribution(psi, g)
            assert d.p1 + d.p2 + d.p3 + d.pS_projection == pytest.approx(1.0, abs=1e-10)
            assert d.pS_bell <= d.pS_projection + 1e-12

    def test_loop4_first_peak(self):
        t_star, _ = peak("loop", 4)
        g, psi = evolved("loop", 4, t_star)
        d = outcome_distribution(psi, g)
        assert d.pS_projection == pytest.approx(0.4998, abs=5e-3)
        assert d.pS_bell == pytest.approx(d.pS_projection, abs=1e-10)

    def test_non_normalized_rejected(self):
        g, _, psi0 = prepared("cross", 5)
        for bad in (psi0 * 1.5, np.full_like(psi0, np.nan)):
            with pytest.raises(ValueError, match="norm"):
                outcome_distribution(bad, g)

    def test_p_unusable_accessor(self):
        g, psi = evolved("cross", 5, 2.3)
        d = outcome_distribution(psi, g)
        assert d.p_unusable == pytest.approx(d.p2 + d.p3, abs=1e-15)


class TestOutcomeCurves:
    # up to t = 20: two or more Chebyshev spans of equal length, the last at most one
    # point shorter; loop-8's 3 and random-10's 6 held to R |t - t0| <= CHEBYSHEV_SPAN,
    # cross-5's 2 to PHASE_BLOCK points
    GRID = 0.01 * np.arange(2001)

    @staticmethod
    def system(name):
        if name == "random-10":
            g = random_graph_with_moved_roles()
            return g, spectral_decompose(assemble_hamiltonian(g)), initial_state(g)
        family, n = name.split("-")
        return prepared(family, int(n))

    @pytest.mark.parametrize("name", ["loop-8", "cross-5", "random-10"])
    def test_equals_per_point_distribution(self, name):
        g, e, psi0 = self.system(name)
        curves = np.array(outcome_curves(g, psi0, self.GRID))
        per_point = []
        for t in self.GRID:
            d = outcome_distribution(evolve(e, psi0, float(t)), g)
            per_point.append((d.pS_bell, d.p1, d.p2, d.p3, d.pS_projection))
        assert curves.shape == (5, self.GRID.size)
        assert np.max(np.abs(curves - np.array(per_point).T)) < 1e-12

    #: a first step of 1 that the rest does not keep, sorted points, repeats, reversals,
    #: and two points a long way past the others, reached through spans of no point
    UNEVEN = np.concatenate([[0.0, 1.0, 3.0],
                             np.sort(np.random.default_rng(5).uniform(0.0, 60.0, 300)),
                             [3.0, 3.0, 1.5, 0.0, 2600.0, 2599.5]])

    @staticmethod
    def roundoff_bound(g, psi0, t_max):
        """A bound on |p_curve - p_per_point| over [0, t_max], from the two methods' rounding.

        On a unit state, the recurrence rounds each of its order + 1 terms in each of
        its ceil(R t_max / CHEBYSHEV_SPAN) spans at about eps per component, and each
        span carries the error before it on; the spectral form rounds lambda t at
        about eps R t_max, |lambda| <= R. Over the D components of the pair space
        that is at most sqrt(D) eps (spans (order + 1) + R t_max) in the 2-norm, and a
        probability moves by at most twice the change of a unit state.
        """
        radius = np.abs(quotient_matrix(g)).sum(axis=1).max()
        spans = np.ceil(radius * t_max / CHEBYSHEV_SPAN)
        terms = spans * (_chebyshev_order(CHEBYSHEV_SPAN) + 1) + radius * t_max
        return 2 * np.finfo(float).eps * np.sqrt(psi0.size) * terms

    @pytest.mark.parametrize("name", ["loop-4", "cross-5", "no-role-exchange"])
    @pytest.mark.parametrize("grid", [0.5 * np.arange(4001), UNEVEN], ids=["to-2000", "uneven"])
    def test_long_and_uneven_grids_agree_with_the_spectral_form(self, name, grid):
        # loop-4's quotient, of 5 cells, is the smallest any 4-site graph has
        if name == "no-role-exchange":
            g = Graph(*_load_topology_file(str(DATA / "no-role-exchange.txt")))
            e, psi0 = spectral_decompose(assemble_hamiltonian(g)), initial_state(g)
        else:
            g, e, psi0 = self.system(name)
        curves = np.array(outcome_curves(g, psi0, grid))
        want = []
        for t in grid:
            d = outcome_distribution(evolve(e, psi0, float(t)), g)
            want.append((d.pS_bell, d.p1, d.p2, d.p3, d.pS_projection))
        assert np.max(np.abs(curves - np.array(want).T)) < self.roundoff_bound(g, psi0, grid.max())

    @pytest.mark.parametrize("lam", [2.0, -0.5, 0.0])
    def test_one_orbit_fold_turns_by_its_phase(self, lam):
        # no 4-site graph has a one-cell quotient, so the recurrence takes a 1 x 1 one
        # here: [[lam]] with R = |lam|, R = 0 (a state that never moves) included
        t = 0.25 * np.arange(8001)
        spans = _chebyshev_spans(lambda v: lam * v, abs(lam), np.ones(1, dtype=complex), t)
        got = np.concatenate([table.T @ terms[:, 0] for _, table, terms in spans])
        terms = np.ceil(abs(lam) * t[-1] / CHEBYSHEV_SPAN) * (_chebyshev_order(CHEBYSHEV_SPAN) + 1)
        assert np.max(np.abs(got - np.exp(-1j * lam * t))) < np.finfo(float).eps * (
            terms + abs(lam) * t[-1] + 1)

    @pytest.mark.parametrize("grid", [[0.0, np.inf], [0.0, np.nan, 1.0], [[0.0, 0.1], [0.2, 0.3]]])
    def test_grid_must_be_one_dimensional_and_finite(self, grid):
        # spans of no point would step towards an infinite time for ever
        g, _, psi0 = prepared("loop", 4)
        with time_budget(1), pytest.raises(ValueError, match="1-D and finite"):
            outcome_curves(g, psi0, grid)

    @pytest.mark.parametrize("name", ["loop-4", "loop-36", "cross-35", "random-10",
                                      "no-role-exchange"])
    def test_radius_bounds_the_norm_below_the_row_sums(self, name):
        # the recurrence diverges if R < ||H||; a loose R costs orders
        if name == "no-role-exchange":
            g = Graph(*_load_topology_file(str(DATA / "no-role-exchange.txt")))
        else:
            g = self.system(name)[0]
        h = quotient_matrix(g)
        norm = np.abs(np.linalg.eigvalsh(h)).max()
        row_sum = np.abs(h).sum(axis=1).max()
        assert norm <= _quotient(g)[4] < row_sum

    def test_grid_beyond_the_cost_cap_is_refused_before_any_step(self):
        # the CLI refuses the same scans through the same check
        g, _, psi0 = prepared("loop", 4)
        with time_budget(1), pytest.raises(ValueError, match="beyond the cap"):
            outcome_curves(g, psi0, [0.0, 1e300])
        with pytest.raises(ValueError, match="beyond the cap"):
            outcome_curves(g, psi0, [0.0, -2e6, 3.0])

    def test_non_unit_start_state_rejected_like_one_state(self):
        g, e, psi0 = prepared("cross", 5)
        doubled = 2.0 * psi0
        with pytest.raises(ValueError, match="norm") as one_state:
            outcome_distribution(doubled, g)
        with pytest.raises(ValueError, match="norm") as on_grid:
            outcome_curves(g, doubled, self.GRID)
        assert str(on_grid.value) == str(one_state.value)

    def test_nan_state_rejected(self):
        # the start state's norm is checked before it is folded onto the cells
        g, _, _ = prepared("loop", 4)
        with pytest.raises(ValueError, match="norm"):
            outcome_curves(g, np.full(12, np.nan, dtype=complex), self.GRID)

    def test_norm_check_reads_a_product_that_loses_norm(self, monkeypatch):
        # the quotient's row of |c+,c->'s cell, a psi1 cell, scaled by 1 + 1e-6: H_q is no
        # longer symmetric and the state's norm drifts. p1 is printed as the remainder, so
        # only the per-point norm c^H G c can see it
        g, _, psi0 = prepared("cross", 5)
        cells, s, cols, vals, radius = _quotient(g)
        scaled = vals.copy()
        scaled[:, cells[np.flatnonzero(psi0)[0]]] *= 1 + 1e-6
        outcome_curves(g, psi0, self.GRID)
        monkeypatch.setattr(measurement, "_quotient", lambda _: (cells, s, cols, scaled, radius))
        with pytest.raises(ValueError, match="norm deviates"):
            outcome_curves(g, psi0, self.GRID)

    def test_an_even_grid_builds_one_bessel_table(self, monkeypatch):
        # loop-36's scan over [0, 10]: R t_max = 41 takes two spans of 501 and 500 points,
        # the second reading the first one's table
        tables, spans = [], []
        coefficients, span = dynamics._chebyshev_coefficients, dynamics._chebyshev_span
        monkeypatch.setattr(dynamics, "_chebyshev_coefficients",
                            lambda *args: tables.append(args) or coefficients(*args))
        monkeypatch.setattr(dynamics, "_chebyshev_span",
                            lambda *args: spans.append(args) or span(*args))
        g, _, psi0 = prepared("loop", 36)
        outcome_curves(g, psi0, _time_grid(10.0, DEFAULT_GRID_STEP))
        assert len(tables) == 1 and len(spans) == 2

    def test_loop36_grid_holds_no_wide_block(self):
        g, e, psi0 = prepared("loop", 36)
        d = psi0.size
        tracemalloc.start()
        try:
            outcome_curves(g, psi0, 0.01 * np.arange(1001))
            _, peak_bytes = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the bound is evolve's complex cast of the full V^T (d x d, 25.4 MB); the
        # call diagonalises nothing and peaks at 2.5 MB, while it builds the one Bessel
        # table (502 columns); a span's 73 terms of the 333 cells take 0.4 MB, and its
        # 501 states on the 35 cells of psi2, psi3 and success 0.3 MB
        assert peak_bytes < d * d * 16 + 2 ** 20


class TestPostState:
    def test_psi1_support(self):
        g, psi = evolved("cross", 5, 2.3)
        out = post_state(psi, Outcome.PSI1, g)
        n = g.n_vertices
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j and (n in (i, j) or n - 1 in (i, j)):
                    assert out[pair_index(n, i, j)] == 0.0

    def test_all_outcomes_normalized(self):
        g, psi = evolved("loop", 8, 9.5)
        d = outcome_distribution(psi, g)
        for outcome in Outcome:
            prob = {Outcome.PSI1: d.p1, Outcome.PSI2: d.p2,
                    Outcome.PSI3: d.p3, Outcome.SUCCESS: d.pS_projection}[outcome]
            if prob > 1e-6:
                out = post_state(psi, outcome, g)
                assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-10)

    def test_success_state_is_the_bell_combination(self):
        t_star, _ = peak("loop", 4)
        g, psi = evolved("loop", 4, t_star)
        out = post_state(psi, Outcome.SUCCESS, g)
        n = g.n_vertices
        bell = np.zeros(n * (n - 1), dtype=complex)
        bell[pair_index(n, n - 1, n)] = 1 / np.sqrt(2)
        bell[pair_index(n, n, n - 1)] = 1 / np.sqrt(2)
        fidelity = abs(np.vdot(bell, out)) ** 2
        assert fidelity == pytest.approx(1.0, abs=1e-10)

    def test_zero_probability_outcome_refused(self):
        g, _, psi0 = prepared("cross", 5)
        with pytest.raises(ValueError, match="probability"):
            post_state(psi0, Outcome.SUCCESS, g)

    def test_nan_state_refused(self):
        g, _, _ = prepared("loop", 4)
        with pytest.raises(ValueError, match="probability nan"):
            post_state(np.full(12, np.nan, dtype=complex), Outcome.PSI1, g)

    def test_measurement_is_idempotent_on_psi1(self):
        g, psi = evolved("cross", 5, 2.3)
        d = outcome_distribution(post_state(psi, Outcome.PSI1, g), g)
        assert d.p2 == d.p3 == d.pS_projection == 0.0
        assert d.p1 == pytest.approx(1.0, abs=1e-12)


class TestBellFidelity:
    """The heralded state's Bell fidelity, |a_BA + a_AB|^2 / (2 (|a_BA|^2 + |a_AB|^2)),
    is pS_bell / pS_projection of `outcome_distribution`."""

    def test_exact_bell_state(self):
        g, _, _ = prepared("cross", 5)
        n = g.n_vertices
        a = np.zeros(n * (n - 1), dtype=complex)
        a[pair_index(n, n - 1, n)] = 1 / np.sqrt(2)
        a[pair_index(n, n, n - 1)] = 1 / np.sqrt(2)
        d = outcome_distribution(a, g)
        assert d.pS_bell == pytest.approx(1.0, abs=1e-14)
        assert d.pS_projection == pytest.approx(1.0, abs=1e-14)

    def test_orthogonal_combination(self):
        g, _, _ = prepared("cross", 5)
        n = g.n_vertices
        a = np.zeros(n * (n - 1), dtype=complex)
        a[pair_index(n, n, n - 1)] = 1 / np.sqrt(2)
        a[pair_index(n, n - 1, n)] = -1 / np.sqrt(2)
        d = outcome_distribution(a, g)
        assert d.pS_bell == 0.0
        assert d.pS_projection == pytest.approx(1.0, abs=1e-14)

    def test_zero_weight_defaults_to_zero(self):
        g, _, psi0 = prepared("cross", 5)
        d = outcome_distribution(psi0, g)
        assert d.pS_bell == d.pS_projection == 0.0

    def test_unity_along_builtin_evolutions(self):
        for family, n in (("cross", 7), ("loop", 8)):
            g, e, psi0 = prepared(family, n)
            for t in (1.0, 4.2, 17.0):
                d = outcome_distribution(evolve(e, psi0, t), g)
                assert d.pS_projection > 1e-8
                assert d.pS_bell == pytest.approx(d.pS_projection, abs=1e-10)

    def test_consistency_with_distribution(self):
        g, psi = evolved("loop", 8, 12.0)
        d = outcome_distribution(psi, g)
        n = g.n_vertices
        a_ba, a_ab = (psi[pair_index(n, i, j)] for i, j in ((n, n - 1), (n - 1, n)))
        assert d.pS_projection > 0
        fidelity = 0.5 * abs(a_ba + a_ab) ** 2 / (abs(a_ba) ** 2 + abs(a_ab) ** 2)
        assert d.pS_bell == pytest.approx(d.pS_projection * fidelity, abs=1e-12)
