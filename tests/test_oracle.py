import numpy as np
import pytest

from conftest import prepared
from qutrit_bell import assemble_hamiltonian, build_cross, build_loop
from qutrit_bell.oracle import (FullHamiltonian, _chebyshev_step, full_evolve_compare,
                                full_initial_index, generator_matrix,
                                sector_restriction, su3_algebra_check)
from qutrit_bell.topology import Graph, Roles


class TestAlgebra:
    def test_max_violation(self):
        assert su3_algebra_check() < 1e-14

    def test_specific_commutator(self):
        # [S^0_{+1}, S^{+1}_0] = S^0_0 - S^{+1}_{+1}
        lhs = (generator_matrix(0, 1) @ generator_matrix(1, 0)
               - generator_matrix(1, 0) @ generator_matrix(0, 1))
        rhs = generator_matrix(0, 0) - generator_matrix(1, 1)
        assert np.array_equal(lhs, rhs)

    def test_distinct_sites_commute(self):
        a = np.kron(generator_matrix(1, 0), np.eye(3))
        b = np.kron(np.eye(3), generator_matrix(0, -1))
        assert np.array_equal(a @ b, b @ a)

    def test_adjoint_relation(self):
        for beta in (-1, 0, 1):
            for alpha in (-1, 0, 1):
                assert np.array_equal(generator_matrix(beta, alpha).T,
                                      generator_matrix(alpha, beta))


class TestFullHamiltonian:
    def test_edge_operator_action(self):
        # single edge on a 4-path: the edge term exchanges unequal site
        # states and annihilates equal ones
        g = Graph(4, frozenset({(1, 2), (2, 3), (3, 4)}), Roles(1, 2, 3, 4))
        full = FullHamiltonian(g)
        h = full.dense()
        assert np.array_equal(h, h.T)
        all_zero = np.zeros(full.dimension, dtype=complex)
        all_zero[int(sum(3 ** k for k in range(4)))] = 1.0  # every digit 1
        assert np.allclose(full.apply(all_zero), 0.0)
        psi0 = np.zeros(full.dimension, dtype=complex)
        psi0[full_initial_index(g)] = 1.0
        image = full.apply(psi0)
        assert np.vdot(image, image).real > 0.0

    def test_dense_matches_apply(self):
        g = build_loop(4)
        full = FullHamiltonian(g)
        rng = np.random.default_rng(5)
        v = rng.normal(size=full.dimension) + 1j * rng.normal(size=full.dimension)
        assert np.allclose(full.dense() @ v, full.apply(v), atol=1e-12)

    def test_size_cap(self):
        with pytest.raises(ValueError, match="N <= 9"):
            FullHamiltonian(build_cross(11))


class TestSectorRestriction:
    @pytest.mark.parametrize("builder,n", [(build_loop, 4), (build_cross, 5)])
    def test_equals_reduced_hamiltonian(self, builder, n):
        g = builder(n)
        reduced = assemble_hamiltonian(g).matrix
        restricted = sector_restriction(g)
        assert np.array_equal(restricted, reduced)


class TestFullEvolveCompare:
    @pytest.mark.parametrize("family,n", [("loop", 4), ("cross", 5)])
    def test_reduced_engine_matches_full_space(self, family, n):
        g, *_ = prepared(family, n)
        result = full_evolve_compare(g, np.arange(0.0, 10.0 + 1e-9, 0.1))
        assert result.max_amplitude_deviation < 1e-9
        assert result.max_sector_leakage < 1e-12

    def test_zero_time_exact(self):
        g, *_ = prepared("loop", 4)
        result = full_evolve_compare(g, [0.0])
        assert result.max_amplitude_deviation < 1e-15
        assert result.max_sector_leakage < 1e-15

    def test_uneven_grid_with_repeats_and_reversals(self):
        g, *_ = prepared("cross", 5)
        result = full_evolve_compare(g, [0.3, 0.3, 2.0, 1.1, 0.0, 9.7])
        assert result.max_amplitude_deviation < 1e-9
        assert result.max_sector_leakage < 1e-12

    @pytest.mark.parametrize("family,n", [("loop", 4), ("cross", 5)])
    @pytest.mark.parametrize("dt", [0.0, 0.1, -0.5, 7.3])
    def test_chebyshev_step_matches_dense_eigh(self, family, n, dt):
        # dt = 7.3 gives x = |E| dt = 29.2, about 70 Bessel terms
        g, *_ = prepared(family, n)
        full = FullHamiltonian(g)
        lam, vec = np.linalg.eigh(full.dense())
        rng = np.random.default_rng(7)
        psi = rng.normal(size=full.dimension) + 1j * rng.normal(size=full.dimension)
        psi /= np.linalg.norm(psi)
        reference = vec @ (np.exp(-1j * lam * dt) * (vec.T @ psi))
        assert np.max(np.abs(_chebyshev_step(full, psi, dt) - reference)) < 1e-12


class TestSymmetryCheck:
    """The reduced engine's Bell-channel amplitudes, as `verify` reads them.

    The grids keep each system under half a second through the 3^N oracle.
    """

    def test_cross7(self):
        g, *_ = prepared("cross", 7)
        result = full_evolve_compare(g, np.arange(0.0, 20.0, 0.25))
        assert result.max_bell_asymmetry < 1e-10

    def test_loop8(self):
        g, *_ = prepared("loop", 8)
        result = full_evolve_compare(g, np.arange(0.0, 20.0, 0.5))
        assert result.max_bell_asymmetry < 1e-10

    def test_zero_time(self):
        g, *_ = prepared("cross", 5)
        assert full_evolve_compare(g, [0.0]).max_bell_asymmetry < 1e-15
