import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import peak, prepared, random_graph_with_moved_roles
from qutrit_bell import (Graph, Hamiltonian, Roles, assemble_hamiltonian,
                         build_cross, build_loop, evolve,
                         find_protocol_automorphism, find_peak, initial_state,
                         outcome_distribution, scan_success, spectral_decompose)
from qutrit_bell.dynamics import (GRID_END_SLACK, PHASE_BLOCK, Wavefunction,
                                  _SpectralKernel, _index_groups, _pairs, _time_grid,
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


def sorted_pairs(n):
    """Every ordered pair (i, j), i != j, by a plain double loop."""
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]


def reference_hamiltonian(g):
    """The exchange Hamiltonian built pair by pair, with a dict for the ordering."""
    pairs = sorted_pairs(g.n_vertices)
    index = {pair: k for k, pair in enumerate(pairs)}
    h = np.zeros((len(pairs), len(pairs)))
    for m, mm in g.edges:
        for k, (i, j) in enumerate(pairs):
            ti = mm if i == m else (m if i == mm else i)
            tj = mm if j == m else (m if j == mm else j)
            if (ti, tj) != (i, j):
                h[index[ti, tj], k] += 1.0
    return h


def reference_index_groups(g):
    """The four outcome row sets, pair by pair."""
    a, b = g.roles.alice, g.roles.bob
    pairs = sorted_pairs(g.n_vertices)
    groups = {"success": [pairs.index((b, a)), pairs.index((a, b))],
              "g1": [], "g2": [], "g3": []}
    for k, (i, j) in enumerate(pairs):
        if {i, j} != {a, b}:
            groups["g2" if a in (i, j) else "g3" if b in (i, j) else "g1"].append(k)
    return groups


REGRESSION_GRAPHS = {"cross-5": build_cross(5), "cross-9": build_cross(9),
                     "cross-35": build_cross(35), "loop-4": build_loop(4),
                     "loop-8": build_loop(8), "loop-36": build_loop(36),
                     "random-10": random_graph_with_moved_roles()}


class TestBasis:
    """The pair basis is `_pairs` and its inverse `pair_index`."""

    def test_smallest_case(self):
        assert list(zip(*_pairs(2))) == [(1, 2), (2, 1)]

    @pytest.mark.parametrize("n,size", [(5, 20), (35, 1190), (8, 56)])
    def test_size(self, n, size):
        plus, minus = _pairs(n)
        assert plus.shape == minus.shape == (size,)

    def test_lexicographic_order(self):
        pairs = [(int(i), int(j)) for i, j in zip(*_pairs(6))]
        assert pairs == sorted(pairs) == sorted_pairs(6)

    def test_index_map_is_a_bijection(self):
        n = 6
        plus, minus = _pairs(n)
        assert [pair_index(n, int(i), int(j)) for i, j in zip(plus, minus)] == \
            list(range(n * (n - 1)))

    @given(st.integers(min_value=2, max_value=12), st.data())
    @settings(max_examples=60, deadline=None)
    def test_pair_index_closed_form(self, n, data):
        i = data.draw(st.integers(1, n))
        j = data.draw(st.integers(1, n).filter(lambda x: x != i))
        assert pair_index(n, i, j) == sorted_pairs(n).index((i, j))

    @pytest.mark.parametrize("i,j", [(1, 1), (0, 2), (2, 6)])
    def test_pair_index_rejects_invalid_pairs(self, i, j):
        with pytest.raises(ValueError):
            pair_index(5, i, j)


class TestHamiltonian:
    def test_loop4_diagonal_is_zero(self):
        g, _, _ = prepared("loop", 4)
        h = assemble_hamiltonian(g)
        assert np.all(np.diag(h.matrix) == 0.0)

    def test_loop4_swap_element_on_an_edge(self):
        g, _, _ = prepared("loop", 4)
        h = assemble_hamiltonian(g)
        assert (1, 3) in g.edges
        assert h.matrix[pair_index(4, 3, 1), pair_index(4, 1, 3)] == 1.0

    def test_entries_and_symmetry(self):
        for family, n in (("cross", 7), ("loop", 8)):
            g, _, _ = prepared(family, n)
            m = assemble_hamiltonian(g).matrix
            assert np.array_equal(m, m.T)
            assert set(np.unique(m)) <= {0.0, 1.0}

    def test_commutes_with_protocol_automorphism(self):
        for family, n in (("cross", 5), ("cross", 9), ("loop", 8)):
            g, _, _ = prepared(family, n)
            m = assemble_hamiltonian(g).matrix
            perm = find_protocol_automorphism(g).mapping
            p = np.zeros_like(m)
            for k, (i, j) in enumerate(sorted_pairs(n)):
                p[pair_index(n, perm[i - 1], perm[j - 1]), k] = 1.0
            assert np.max(np.abs(p @ m - m @ p)) < 1e-12

    @pytest.mark.parametrize("g", REGRESSION_GRAPHS.values(), ids=REGRESSION_GRAPHS)
    def test_equals_pair_by_pair_assembly(self, g):
        assert np.array_equal(assemble_hamiltonian(g).matrix, reference_hamiltonian(g))

    @pytest.mark.parametrize("g", REGRESSION_GRAPHS.values(), ids=REGRESSION_GRAPHS)
    def test_index_groups_equal_pair_by_pair_groups(self, g):
        groups, reference = _index_groups(g), reference_index_groups(g)
        assert groups.keys() == reference.keys()
        for key, rows in reference.items():
            assert np.array_equal(groups[key], rows), key

class TestSpectralDecompose:
    def test_two_level_swap_block(self):
        e = spectral_decompose(Hamiltonian(np.array([[0.0, 1.0], [1.0, 0.0]])))
        assert np.allclose(sorted(e.eigenvalues), [-1.0, 1.0])

    def test_trace_identity(self):
        for family, n in (("cross", 7), ("loop", 8)):
            g, e, _ = prepared(family, n)
            h = assemble_hamiltonian(g)
            assert abs(np.trace(h.matrix) - e.eigenvalues.sum()) < 1e-8

    def test_loop4_spectrum_snapshot(self):
        _, e, _ = prepared("loop", 4)
        assert np.allclose(sorted(e.eigenvalues), LOOP4_EIGENVALUES, atol=1e-9)

    def test_reconstruction(self):
        g, e, _ = prepared("cross", 5)
        h = assemble_hamiltonian(g).matrix
        rebuilt = (e.eigenvectors * e.eigenvalues) @ e.eigenvectors.T
        assert np.max(np.abs(rebuilt - h)) < 1e-10

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(ValueError):
            spectral_decompose(Hamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]])))


class TestInitialState:
    def test_cross5(self):
        g, _, psi0 = prepared("cross", 5)
        assert psi0.amplitudes[pair_index(5, 1, 2)] == 1.0
        assert psi0.norm() == pytest.approx(1.0, abs=1e-14)

    def test_loop8(self):
        g, _, psi0 = prepared("loop", 8)
        assert psi0.amplitudes[pair_index(8, 4, 3)] == 1.0


class TestEvolve:
    def test_identity_at_zero(self):
        _, e, psi0 = prepared("cross", 5)
        out = evolve(e, psi0, 0.0)
        assert np.allclose(out.amplitudes, psi0.amplitudes, atol=1e-14)

    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_unitarity(self, t):
        _, e, psi0 = prepared("loop", 8)
        assert abs(evolve(e, psi0, t).norm() - 1.0) < 1e-10

    def test_group_property(self):
        _, e, psi0 = prepared("cross", 7)
        once = evolve(e, psi0, 1.3 + 2.4)
        twice = evolve(e, evolve(e, psi0, 1.3), 2.4)
        assert np.max(np.abs(once.amplitudes - twice.amplitudes)) < 1e-9
        assert twice.time_stamp == pytest.approx(3.7)

    def test_dimension_mismatch(self):
        _, e, _ = prepared("cross", 5)
        with pytest.raises(ValueError):
            evolve(e, Wavefunction(np.zeros(3, dtype=complex)), 1.0)


class TestSpectralKernel:
    ROWS = [0, 7, 20, 55]

    def test_blocked_grid_matches_evolve_at_block_boundaries(self):
        _, e, psi0 = prepared("loop", 8)
        t = 0.01 * np.arange(2 * PHASE_BLOCK + 100)  # three phase blocks
        amps = amplitude_rows(e, psi0, self.ROWS, t)
        for k in (0, PHASE_BLOCK - 1, PHASE_BLOCK, 2 * PHASE_BLOCK - 1,
                  2 * PHASE_BLOCK, t.size - 1):
            full = evolve(e, psi0, float(t[k])).amplitudes
            assert np.max(np.abs(amps[:, k] - full[self.ROWS])) < 1e-12

    def test_scalar_time_equals_grid_column(self):
        _, e, psi0 = prepared("loop", 8)
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
        _, e, _ = prepared("loop", 8)
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
        _, e, _ = prepared("loop", 8)
        psi = np.random.default_rng(4).normal(size=56) + 0j
        t = 0.01 * np.arange(2 * PHASE_BLOCK + 1)
        got = _SpectralKernel(e, Wavefunction(psi), self.ROWS)(t)
        for s in range(0, t.size, PHASE_BLOCK):
            cols = slice(s, s + PHASE_BLOCK)
            assert np.array_equal(got[:, cols], self.dense(e, psi, self.ROWS, t[cols]))


class TestSuccessProbability:
    def test_zero_at_start(self):
        g, _, psi0 = prepared("cross", 5)
        assert outcome_distribution(psi0, g).pS_bell == 0.0

    def test_loop4_peak_value(self):
        t_star, p_star = peak("loop", 4)
        assert p_star == pytest.approx(0.4998, abs=5e-3)

    def test_equals_projection_on_symmetric_graphs(self):
        from qutrit_bell import outcome_distribution
        g, e, psi0 = prepared("loop", 8)
        for t in (0.7, 3.1, 11.0):
            psi = evolve(e, psi0, t)
            d = outcome_distribution(psi, g)
            assert abs(d.pS_bell - d.pS_projection) < 1e-10

    def test_roles_off_the_last_two_sites(self):
        g, e, psi0 = prepared("cross", 5)
        h = reversed_labels(g)
        assert (h.roles.alice, h.roles.bob) == (2, 1)
        e_h = spectral_decompose(assemble_hamiltonian(h))
        psi_h = initial_state(h)
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
        g, e, psi0 = prepared("cross", 5)
        ts, p = scan_success(e, psi0, g, np.arange(0.0, 5.0, 0.1))
        assert p[0] == pytest.approx(0.0, abs=1e-15)
        assert np.all((p >= -1e-12) & (p <= 1.0 + 1e-12))

    def test_cross5_has_an_early_peak(self):
        g, e, psi0 = prepared("cross", 5)
        ts, p = scan_success(e, psi0, g, np.arange(0.0, 10.0, 0.01))
        interior = (p[1:-1] >= p[:-2]) & (p[1:-1] >= p[2:]) & (p[1:-1] > 0.1)
        assert interior.any()

    def test_peak_decreases_with_size(self):
        assert peak("cross", 13)[1] < peak("cross", 5)[1]
        assert peak("loop", 12)[1] < peak("loop", 8)[1]

    def test_bad_grid_rejected(self):
        g, e, psi0 = prepared("cross", 5)
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
        g, _, psi0 = prepared("cross", 5)
        frozen = spectral_decompose(Hamiltonian(np.zeros((20, 20))))
        t_star, p_star = find_peak(frozen, psi0, g, t_max=5.0)
        assert (t_star, p_star) == (0.0, 0.0)

    def test_find_peak_rejects_bad_window(self):
        g, e, psi0 = prepared("cross", 5)
        with pytest.raises(ValueError):
            find_peak(e, psi0, g, t_max=-1.0)


class TestTimeGrid:
    @given(st.floats(1e-3, 1.0), st.floats(1e-3, 100.0))
    @settings(max_examples=200, deadline=None)
    def test_ends_within_one_step_of_t_max(self, step, t_max):
        grid = _time_grid(t_max, step)
        assert grid[0] == 0.0
        assert t_max - step < grid[-1] <= t_max + GRID_END_SLACK

    def test_equals_arange_unless_it_overshoots(self):
        # --t-max 0.1 ... 30.0: the scan and peak grids drop arange's extra
        # point where it passes t_max (0.71 for 0.7); a last point that
        # passes t_max by rounding alone (0.30000000000000004 for 0.3) stays.
        # The verify grid is unchanged.
        overshoots = 0
        for t_max in (k / 10 for k in range(1, 301)):
            old = np.arange(0.0, t_max + 0.01, 0.01)
            if old[-1] > t_max + GRID_END_SLACK:
                overshoots += 1
                old = old[:-1]
            assert np.array_equal(_time_grid(t_max, 0.01), old)
            assert np.array_equal(_time_grid(t_max, 0.1), np.arange(0.0, t_max + 1e-9, 0.1))
        assert overshoots == 47


class TestSymmetryInvariant:
    @pytest.mark.parametrize("family,n", [("cross", 5), ("cross", 7), ("loop", 4),
                                          ("loop", 8)])
    def test_bell_amplitudes_stay_equal(self, family, n):
        g, e, psi0 = prepared(family, n)
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
