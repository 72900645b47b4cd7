import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import peak, prepared
from qutrit_bell import (Graph, Hamiltonian, Roles, assemble_hamiltonian,
                         build_cross, build_loop, enumerate_basis, evolve,
                         find_protocol_automorphism, find_peak, initial_state,
                         outcome_distribution, scan_success, spectral_decompose,
                         success_probability)
from qutrit_bell.dynamics import (PHASE_BLOCK, Wavefunction, _SpectralKernel,
                                  amplitude_rows, pair_index, refine_maximum)


def reversed_labels(g):
    """g with vertex v renamed N+1-v: Alice and Bob move off sites N-1 and N."""
    n = g.n_vertices
    return Graph(n, frozenset((n + 1 - v, n + 1 - u) for u, v in g.edges),
                 Roles(*(n + 1 - v for v in g.roles.as_tuple())))

# spectrum of the 4-site loop in the pair basis, frozen once as a regression
# snapshot (degeneracies reflect the ring's symmetry group)
LOOP4_EIGENVALUES = [-2.5615528128, -2.5615528128, -2.3722813233, -1.0, -1.0,
                     0.0, 1.0, 1.0, 1.0, 1.5615528128, 1.5615528128, 3.3722813233]


class TestBasis:
    def test_smallest_case(self):
        b = enumerate_basis(2)
        assert [(s.plus_site, s.minus_site) for s in b.states] == [(1, 2), (2, 1)]

    @pytest.mark.parametrize("n,size", [(5, 20), (35, 1190), (8, 56)])
    def test_size(self, n, size):
        assert len(enumerate_basis(n)) == size

    def test_lexicographic_order(self):
        b = enumerate_basis(4)
        pairs = [(s.plus_site, s.minus_site) for s in b.states]
        assert pairs == sorted(pairs)

    def test_index_map_is_a_bijection(self):
        b = enumerate_basis(6)
        seen = {b.index_of(s.plus_site, s.minus_site) for s in b.states}
        assert seen == set(range(len(b)))

    @given(st.integers(min_value=2, max_value=12), st.data())
    @settings(max_examples=60, deadline=None)
    def test_pair_index_closed_form(self, n, data):
        i = data.draw(st.integers(1, n))
        j = data.draw(st.integers(1, n).filter(lambda x: x != i))
        assert pair_index(n, i, j) == enumerate_basis(n).index_of(i, j)

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            enumerate_basis(1)


class TestHamiltonian:
    def test_loop4_diagonal_is_zero(self):
        g, b, _, _ = prepared("loop", 4)
        h = assemble_hamiltonian(g, b)
        assert np.all(np.diag(h.matrix) == 0.0)

    def test_loop4_swap_element_on_an_edge(self):
        g, b, _, _ = prepared("loop", 4)
        h = assemble_hamiltonian(g, b)
        assert (1, 3) in g.edges
        assert h.matrix[b.index_of(3, 1), b.index_of(1, 3)] == 1.0

    def test_entries_and_symmetry(self):
        for family, n in (("cross", 7), ("loop", 8)):
            g, b, _, _ = prepared(family, n)
            m = assemble_hamiltonian(g, b).matrix
            assert np.array_equal(m, m.T)
            assert set(np.unique(m)) <= {0.0, 1.0}

    def test_commutes_with_protocol_automorphism(self):
        for family, n in (("cross", 5), ("cross", 9), ("loop", 8)):
            g, b, _, _ = prepared(family, n)
            m = assemble_hamiltonian(g, b).matrix
            perm = find_protocol_automorphism(g).mapping
            d = len(b)
            p = np.zeros((d, d))
            for k, s in enumerate(b.states):
                p[b.index_of(perm[s.plus_site - 1], perm[s.minus_site - 1]), k] = 1.0
            assert np.max(np.abs(p @ m - m @ p)) < 1e-12

    def test_mismatched_basis_rejected(self):
        g = build_cross(5)
        with pytest.raises(ValueError):
            assemble_hamiltonian(g, enumerate_basis(7))


class TestSpectralDecompose:
    def test_two_level_swap_block(self):
        e = spectral_decompose(Hamiltonian(np.array([[0.0, 1.0], [1.0, 0.0]])))
        assert np.allclose(sorted(e.eigenvalues), [-1.0, 1.0])

    def test_trace_identity(self):
        for family, n in (("cross", 7), ("loop", 8)):
            g, b, e, _ = prepared(family, n)
            h = assemble_hamiltonian(g, b)
            assert abs(np.trace(h.matrix) - e.eigenvalues.sum()) < 1e-8

    def test_loop4_spectrum_snapshot(self):
        _, _, e, _ = prepared("loop", 4)
        assert np.allclose(sorted(e.eigenvalues), LOOP4_EIGENVALUES, atol=1e-9)

    def test_reconstruction(self):
        g, b, e, _ = prepared("cross", 5)
        h = assemble_hamiltonian(g, b).matrix
        rebuilt = (e.eigenvectors * e.eigenvalues) @ e.eigenvectors.T
        assert np.max(np.abs(rebuilt - h)) < 1e-10

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(ValueError):
            spectral_decompose(Hamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]])))


class TestInitialState:
    def test_cross5(self):
        g, b, _, psi0 = prepared("cross", 5)
        assert psi0.amplitudes[b.index_of(1, 2)] == 1.0
        assert psi0.norm() == pytest.approx(1.0, abs=1e-14)

    def test_loop8(self):
        g, b, _, psi0 = prepared("loop", 8)
        assert psi0.amplitudes[b.index_of(4, 3)] == 1.0


class TestEvolve:
    def test_identity_at_zero(self):
        _, _, e, psi0 = prepared("cross", 5)
        out = evolve(e, psi0, 0.0)
        assert np.allclose(out.amplitudes, psi0.amplitudes, atol=1e-14)

    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_unitarity(self, t):
        _, _, e, psi0 = prepared("loop", 8)
        assert abs(evolve(e, psi0, t).norm() - 1.0) < 1e-10

    def test_group_property(self):
        _, _, e, psi0 = prepared("cross", 7)
        once = evolve(e, psi0, 1.3 + 2.4)
        twice = evolve(e, evolve(e, psi0, 1.3), 2.4)
        assert np.max(np.abs(once.amplitudes - twice.amplitudes)) < 1e-9
        assert twice.time_stamp == pytest.approx(3.7)

    def test_dimension_mismatch(self):
        _, _, e, _ = prepared("cross", 5)
        with pytest.raises(ValueError):
            evolve(e, Wavefunction(np.zeros(3, dtype=complex)), 1.0)


class TestSpectralKernel:
    ROWS = [0, 7, 20, 55]

    def test_blocked_grid_matches_evolve_at_block_boundaries(self):
        _, _, e, psi0 = prepared("loop", 8)
        t = 0.01 * np.arange(2 * PHASE_BLOCK + 100)  # three phase blocks
        amps = amplitude_rows(e, psi0, self.ROWS, t)
        for k in (0, PHASE_BLOCK - 1, PHASE_BLOCK, 2 * PHASE_BLOCK - 1,
                  2 * PHASE_BLOCK, t.size - 1):
            full = evolve(e, psi0, float(t[k])).amplitudes
            assert np.max(np.abs(amps[:, k] - full[self.ROWS])) < 1e-12

    def test_scalar_time_equals_grid_column(self):
        _, _, e, psi0 = prepared("loop", 8)
        t = 0.01 * np.arange(2 * PHASE_BLOCK + 100)
        kernel = _SpectralKernel(e, psi0, self.ROWS)
        grid = kernel(t)
        for k in (3, PHASE_BLOCK, 2 * PHASE_BLOCK + 99):
            assert np.max(np.abs(kernel(float(t[k])) - grid[:, k])) < 1e-15

    @staticmethod
    def dense(e, psi, rows, t):
        """The kernel's formula in one piece: complex exp, then one product."""
        lam, v = e.eigenvalues, e.eigenvectors
        coeff = np.ascontiguousarray(v.T).astype(complex) @ psi
        phases = np.exp(-1j * np.multiply.outer(lam, t))
        return v[rows].astype(complex) @ (phases * coeff.reshape((-1,) + (1,) * np.ndim(t)))

    def test_bit_identical_to_the_dense_formula(self):
        # protocol-2 goldens on near-zero curves move with a one-ulp change
        _, _, e, _ = prepared("loop", 8)
        rng = np.random.default_rng(3)
        psi = rng.normal(size=56) + 1j * rng.normal(size=56)
        kernel = _SpectralKernel(e, Wavefunction(psi), self.ROWS)
        t = 0.01 * np.arange(2 * PHASE_BLOCK + 100)
        assert np.array_equal(kernel(t), self.dense(e, psi, self.ROWS, t))
        for k in (0, 5, PHASE_BLOCK, t.size - 1):
            assert np.array_equal(kernel(float(t[k])), self.dense(e, psi, self.ROWS, t[k]))
            assert np.array_equal(evolve(e, Wavefunction(psi), float(t[k])).amplitudes,
                                  self.dense(e, psi, slice(None), t[k]))

    def test_lone_last_time_is_its_own_block(self):
        # a one-column product rounds differently from a wider one, so the
        # block edges are part of the result
        _, _, e, _ = prepared("loop", 8)
        psi = np.random.default_rng(4).normal(size=56) + 0j
        t = 0.01 * np.arange(2 * PHASE_BLOCK + 1)
        got = _SpectralKernel(e, Wavefunction(psi), self.ROWS)(t)
        for s in range(0, t.size, PHASE_BLOCK):
            cols = slice(s, s + PHASE_BLOCK)
            assert np.array_equal(got[:, cols], self.dense(e, psi, self.ROWS, t[cols]))


class TestSuccessProbability:
    def test_zero_at_start(self):
        g, _, _, psi0 = prepared("cross", 5)
        assert success_probability(psi0, g) == 0.0

    def test_loop4_peak_value(self):
        t_star, p_star = peak("loop", 4)
        assert p_star == pytest.approx(0.4998, abs=5e-3)

    def test_equals_projection_on_symmetric_graphs(self):
        from qutrit_bell import outcome_distribution
        g, _, e, psi0 = prepared("loop", 8)
        for t in (0.7, 3.1, 11.0):
            psi = evolve(e, psi0, t)
            d = outcome_distribution(psi, g)
            assert abs(d.pS_bell - d.pS_projection) < 1e-10

    def test_roles_off_the_last_two_sites(self):
        g, _, e, psi0 = prepared("cross", 5)
        h = reversed_labels(g)
        assert (h.roles.alice, h.roles.bob) == (2, 1)
        b = enumerate_basis(5)
        e_h = spectral_decompose(assemble_hamiltonian(h, b))
        psi_h = initial_state(h, b)
        for t in (0.0, 0.7, 3.1, 11.0):
            d = outcome_distribution(evolve(e, psi0, t), g)
            d_h = outcome_distribution(evolve(e_h, psi_h, t), h)
            assert [d_h.p1, d_h.p2, d_h.p3, d_h.pS_projection, d_h.pS_bell] == pytest.approx(
                [d.p1, d.p2, d.p3, d.pS_projection, d.pS_bell], abs=1e-12)
        t_star, p_star = find_peak(e, psi0, g)
        t_h, p_h = find_peak(e_h, psi_h, h)
        assert t_h == pytest.approx(t_star, abs=1e-6)
        assert p_h == pytest.approx(p_star, abs=1e-12)


class TestScanAndPeaks:
    def test_scan_starts_at_zero(self):
        g, _, e, psi0 = prepared("cross", 5)
        ts, p = scan_success(e, psi0, g, np.arange(0.0, 5.0, 0.1))
        assert p[0] == pytest.approx(0.0, abs=1e-15)
        assert np.all((p >= -1e-12) & (p <= 1.0 + 1e-12))

    def test_cross5_has_an_early_peak(self):
        g, _, e, psi0 = prepared("cross", 5)
        ts, p = scan_success(e, psi0, g, np.arange(0.0, 10.0, 0.01))
        interior = (p[1:-1] >= p[:-2]) & (p[1:-1] >= p[2:]) & (p[1:-1] > 0.1)
        assert interior.any()

    def test_peak_decreases_with_size(self):
        assert peak("cross", 13)[1] < peak("cross", 5)[1]
        assert peak("loop", 12)[1] < peak("loop", 8)[1]

    def test_bad_grid_rejected(self):
        g, _, e, psi0 = prepared("cross", 5)
        with pytest.raises(ValueError):
            scan_success(e, psi0, g, np.array([]))
        with pytest.raises(ValueError):
            scan_success(e, psi0, g, np.array([1.0, 0.5]))

    def test_find_peak_earliest_on_exact_ties(self):
        # the cross-5 curve recurs exactly; the first recurrence must win
        t_star, p_star = peak("cross", 5)
        assert t_star == pytest.approx(2.3005, abs=1e-3)
        assert p_star == pytest.approx(0.342936, abs=1e-5)

    def test_find_peak_degenerate_flat_curve(self):
        g, b, _, psi0 = prepared("cross", 5)
        frozen = spectral_decompose(Hamiltonian(np.zeros((20, 20))))
        t_star, p_star = find_peak(frozen, psi0, g, t_max=5.0)
        assert (t_star, p_star) == (0.0, 0.0)

    def test_find_peak_rejects_bad_window(self):
        g, _, e, psi0 = prepared("cross", 5)
        with pytest.raises(ValueError):
            find_peak(e, psi0, g, t_max=-1.0)


class TestSymmetryInvariant:
    @pytest.mark.parametrize("family,n", [("cross", 5), ("cross", 7), ("loop", 4),
                                          ("loop", 8)])
    def test_bell_amplitudes_stay_equal(self, family, n):
        g, _, e, psi0 = prepared(family, n)
        rows = (pair_index(n, g.roles.bob, g.roles.alice),
                pair_index(n, g.roles.alice, g.roles.bob))
        amps = amplitude_rows(e, psi0, rows, np.arange(0.0, 2.0 * n, 0.01))
        assert np.max(np.abs(amps[0] - amps[1])) < 1e-10


class TestRefineMaximum:
    def test_quadratic(self):
        t, v = refine_maximum(lambda x: 1.0 - (x - 0.6) ** 2, 0.0, 1.0, 1e-9)
        assert t == pytest.approx(0.6, abs=1e-6)
        assert v == pytest.approx(1.0, abs=1e-12)

    def test_cosine(self):
        t, v = refine_maximum(np.cos, 5.0, 8.0, 1e-8)
        assert t == pytest.approx(2 * np.pi, abs=1e-5)

    def test_fallback_reuses_endpoint_values(self):
        # a linear f has no curvature, so every iteration trisects; it needs
        # f at a, b and the candidate, and f(m) once at the start
        calls = []

        def f(x):
            calls.append(x)
            return x

        t, v = refine_maximum(f, 0.0, 1.0, tol=0.0, max_iter=10)
        assert len(calls) == 1 + 3 * 10
        assert t == v == 1.0 - 2.0 ** -11
