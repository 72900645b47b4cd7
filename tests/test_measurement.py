import numpy as np
import pytest

from conftest import peak, prepared
from qutrit_bell import (Outcome, bell_fidelity, evolve, outcome_distribution,
                         post_state)
from qutrit_bell.dynamics import Wavefunction, pair_index


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
            psi = Wavefunction(a / np.linalg.norm(a))
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
        bad = Wavefunction(psi0.amplitudes * 1.5)
        with pytest.raises(ValueError, match="norm"):
            outcome_distribution(bad, g)

    def test_p_unusable_accessor(self):
        g, psi = evolved("cross", 5, 2.3)
        d = outcome_distribution(psi, g)
        assert d.p_unusable == pytest.approx(d.p2 + d.p3, abs=1e-15)


class TestPostState:
    def test_psi1_support(self):
        g, psi = evolved("cross", 5, 2.3)
        out = post_state(psi, Outcome.PSI1, g)
        n = g.n_vertices
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j and (n in (i, j) or n - 1 in (i, j)):
                    assert out.amplitudes[pair_index(n, i, j)] == 0.0

    def test_all_outcomes_normalized(self):
        g, psi = evolved("loop", 8, 9.5)
        d = outcome_distribution(psi, g)
        for outcome in Outcome:
            prob = {Outcome.PSI1: d.p1, Outcome.PSI2: d.p2,
                    Outcome.PSI3: d.p3, Outcome.SUCCESS: d.pS_projection}[outcome]
            if prob > 1e-6:
                out = post_state(psi, outcome, g)
                assert out.norm() == pytest.approx(1.0, abs=1e-10)
                assert out.time_stamp == 0.0

    def test_success_state_is_the_bell_combination(self):
        t_star, _ = peak("loop", 4)
        g, psi = evolved("loop", 4, t_star)
        out = post_state(psi, Outcome.SUCCESS, g)
        n = g.n_vertices
        bell = np.zeros(n * (n - 1), dtype=complex)
        bell[pair_index(n, n - 1, n)] = 1 / np.sqrt(2)
        bell[pair_index(n, n, n - 1)] = 1 / np.sqrt(2)
        fidelity = abs(np.vdot(bell, out.amplitudes)) ** 2
        assert fidelity == pytest.approx(1.0, abs=1e-10)

    def test_zero_probability_outcome_refused(self):
        g, _, psi0 = prepared("cross", 5)
        with pytest.raises(ValueError, match="probability"):
            post_state(psi0, Outcome.SUCCESS, g)

    def test_measurement_is_idempotent_on_psi1(self):
        g, psi = evolved("cross", 5, 2.3)
        d = outcome_distribution(post_state(psi, Outcome.PSI1, g), g)
        assert d.p2 == d.p3 == d.pS_projection == 0.0
        assert d.p1 == pytest.approx(1.0, abs=1e-12)


class TestBellFidelity:
    def test_exact_bell_state(self):
        g, _, _ = prepared("cross", 5)
        n = g.n_vertices
        a = np.zeros(n * (n - 1), dtype=complex)
        a[pair_index(n, n - 1, n)] = 1 / np.sqrt(2)
        a[pair_index(n, n, n - 1)] = 1 / np.sqrt(2)
        assert bell_fidelity(Wavefunction(a), g) == pytest.approx(1.0, abs=1e-14)

    def test_orthogonal_combination(self):
        g, _, _ = prepared("cross", 5)
        n = g.n_vertices
        a = np.zeros(n * (n - 1), dtype=complex)
        a[pair_index(n, n, n - 1)] = 1 / np.sqrt(2)
        a[pair_index(n, n - 1, n)] = -1 / np.sqrt(2)
        assert bell_fidelity(Wavefunction(a), g) == 0.0

    def test_zero_weight_defaults_to_zero(self):
        g, _, psi0 = prepared("cross", 5)
        assert bell_fidelity(psi0, g) == 0.0

    def test_unity_along_builtin_evolutions(self):
        for family, n in (("cross", 7), ("loop", 8)):
            g, e, psi0 = prepared(family, n)
            for t in (1.0, 4.2, 17.0):
                psi = evolve(e, psi0, t)
                d = outcome_distribution(psi, g)
                if d.pS_projection > 1e-8:
                    assert bell_fidelity(psi, g) == pytest.approx(1.0, abs=1e-10)

    def test_consistency_with_distribution(self):
        g, psi = evolved("loop", 8, 12.0)
        d = outcome_distribution(psi, g)
        if d.pS_projection > 0:
            assert d.pS_bell == pytest.approx(
                d.pS_projection * bell_fidelity(psi, g), abs=1e-12)
