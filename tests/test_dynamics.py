import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import peak, prepared, random_graph_with_moved_roles, time_budget
from qutrit_bell import (Graph, Roles, assemble_hamiltonian,
                         build_cross, build_loop, evolve,
                         find_protocol_automorphism, find_peak, initial_state,
                         outcome_distribution, spectral_decompose)
from qutrit_bell.dynamics import (CANDIDATE_TOL, DEFAULT_GRID_STEP, GRID_END_SLACK,
                                  PEAK_WINDOW_FACTOR, PHASE_BLOCK,
                                  _peak_candidates, _SpectralKernel, _index_groups, _pairs,
                                  _time_grid, amplitude_rows, pair_index, refine_maximum)
from qutrit_bell.measurement import outcome_curves


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
        assert np.all(np.diag(h) == 0.0)

    def test_loop4_swap_element_on_an_edge(self):
        g, _, _ = prepared("loop", 4)
        h = assemble_hamiltonian(g)
        assert (1, 3) in g.edges
        assert h[pair_index(4, 3, 1), pair_index(4, 1, 3)] == 1.0

    def test_entries_and_symmetry(self):
        for family, n in (("cross", 7), ("loop", 8)):
            g, _, _ = prepared(family, n)
            m = assemble_hamiltonian(g)
            assert np.array_equal(m, m.T)
            assert set(np.unique(m)) <= {0.0, 1.0}

    def test_commutes_with_protocol_automorphism(self):
        for family, n in (("cross", 5), ("cross", 9), ("loop", 8)):
            g, _, _ = prepared(family, n)
            m = assemble_hamiltonian(g)
            perm = find_protocol_automorphism(g)
            p = np.zeros_like(m)
            for k, (i, j) in enumerate(sorted_pairs(n)):
                p[pair_index(n, perm[i - 1], perm[j - 1]), k] = 1.0
            assert np.max(np.abs(p @ m - m @ p)) < 1e-12

    @pytest.mark.parametrize("g", REGRESSION_GRAPHS.values(), ids=REGRESSION_GRAPHS)
    def test_equals_pair_by_pair_assembly(self, g):
        assert np.array_equal(assemble_hamiltonian(g), reference_hamiltonian(g))

    @pytest.mark.parametrize("g", REGRESSION_GRAPHS.values(), ids=REGRESSION_GRAPHS)
    def test_index_groups_equal_pair_by_pair_groups(self, g):
        groups, reference = _index_groups(g), reference_index_groups(g)
        assert groups.keys() == reference.keys()
        for key, rows in reference.items():
            assert np.array_equal(groups[key], rows), key

class TestSpectralDecompose:
    def test_two_level_swap_block(self):
        e = spectral_decompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(sorted(e.eigenvalues), [-1.0, 1.0])

    def test_trace_identity(self):
        for family, n in (("cross", 7), ("loop", 8)):
            g, e, _ = prepared(family, n)
            h = assemble_hamiltonian(g)
            assert abs(np.trace(h) - e.eigenvalues.sum()) < 1e-8

    def test_loop4_spectrum_snapshot(self):
        _, e, _ = prepared("loop", 4)
        assert np.allclose(sorted(e.eigenvalues), LOOP4_EIGENVALUES, atol=1e-9)

    def test_reconstruction(self):
        g, e, _ = prepared("cross", 5)
        h = assemble_hamiltonian(g)
        rebuilt = (e.eigenvectors * e.eigenvalues) @ e.eigenvectors.T
        assert np.max(np.abs(rebuilt - h)) < 1e-10

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(ValueError):
            spectral_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_roundoff_asymmetry_rejected(self):
        # eigh reads one triangle, so even a 1e-12 asymmetry would be dropped
        h = assemble_hamiltonian(prepared("loop", 4)[0])
        h[0, 1] += 1e-12
        with pytest.raises(ValueError, match="not symmetric"):
            spectral_decompose(h)


class TestInitialState:
    def test_cross5(self):
        g, _, psi0 = prepared("cross", 5)
        assert psi0[pair_index(5, 1, 2)] == 1.0
        assert np.linalg.norm(psi0) == pytest.approx(1.0, abs=1e-14)

    def test_loop8(self):
        g, _, psi0 = prepared("loop", 8)
        assert psi0[pair_index(8, 4, 3)] == 1.0


class TestEvolve:
    def test_identity_at_zero(self):
        _, e, psi0 = prepared("cross", 5)
        out = evolve(e, psi0, 0.0)
        assert np.allclose(out, psi0, atol=1e-14)

    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_unitarity(self, t):
        _, e, psi0 = prepared("loop", 8)
        assert abs(np.linalg.norm(evolve(e, psi0, t)) - 1.0) < 1e-10

    def test_group_property(self):
        _, e, psi0 = prepared("cross", 7)
        once = evolve(e, psi0, 1.3 + 2.4)
        twice = evolve(e, evolve(e, psi0, 1.3), 2.4)
        assert np.max(np.abs(once - twice)) < 1e-9

    def test_dimension_mismatch(self):
        _, e, _ = prepared("cross", 5)
        with pytest.raises(ValueError):
            evolve(e, np.zeros(3, dtype=complex), 1.0)


class TestSpectralKernel:
    ROWS = [0, 7, 20, 55]

    def test_blocked_grid_matches_evolve_at_block_boundaries(self):
        _, e, psi0 = prepared("loop", 8)
        t = 0.01 * np.arange(2 * PHASE_BLOCK + 100)  # three phase blocks
        amps = amplitude_rows(e, psi0, self.ROWS, t)
        for k in (0, PHASE_BLOCK - 1, PHASE_BLOCK, 2 * PHASE_BLOCK - 1,
                  2 * PHASE_BLOCK, t.size - 1):
            full = evolve(e, psi0, float(t[k]))
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

    #: bound on a grid column's deviation from the one-piece formula, per unit
    #: of |psi|; measured 1.4e-15 on loop-8 and 8.4e-15 on the loop-36 8N grid
    GRID_TOL = 1e-13

    def test_bit_identical_to_the_dense_formula(self):
        # the scalar path must not move: protocol-2 goldens on near-zero
        # curves move with a one-ulp change; the grid path agrees to GRID_TOL
        _, e, _ = prepared("loop", 8)
        rng = np.random.default_rng(3)
        psi = rng.normal(size=56) + 1j * rng.normal(size=56)
        kernel = _SpectralKernel(e, psi, self.ROWS)
        t = 0.01 * np.arange(2 * PHASE_BLOCK + 100)
        dev = np.max(np.abs(kernel(t) - self.dense(e, psi, self.ROWS, t)))
        assert dev < self.GRID_TOL * np.linalg.norm(psi)
        for k in (0, 5, PHASE_BLOCK, t.size - 1):
            assert np.array_equal(kernel(float(t[k])), self.dense(e, psi, self.ROWS, t[k]))
            assert np.array_equal(evolve(e, psi, float(t[k])),
                                  self.dense(e, psi, slice(None), t[k]))

    def test_lone_last_time_is_its_own_block(self):
        # the last block holds one time, shifted by the whole grid before it
        _, e, _ = prepared("loop", 8)
        psi = np.random.default_rng(4).normal(size=56) + 0j
        t = 0.01 * np.arange(2 * PHASE_BLOCK + 1)
        got = _SpectralKernel(e, psi, self.ROWS)(t)
        for s in range(0, t.size, PHASE_BLOCK):
            cols = slice(s, s + PHASE_BLOCK)
            dev = np.max(np.abs(got[:, cols] - self.dense(e, psi, self.ROWS, t[cols])))
            assert dev < self.GRID_TOL * np.linalg.norm(psi)

    #: grid lengths about the kernel's block width w, the largest power of two
    #: <= sqrt T: one point, the shortest grids, k^2 - 1, k^2 and k^2 + 1 for each
    #: width k = 2 ... 32 and for k = 56 (T = 3137), and any T up to 3000
    LENGTHS = st.one_of(st.sampled_from([1, 2, 3]),
                        st.builds(lambda w, k: w * w + k, st.sampled_from([2, 4, 8, 16, 32, 56]),
                                  st.sampled_from([-1, 0, 1])),
                        st.integers(1, 3000))

    @given(LENGTHS, st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_row_grid_matches_the_dense_formula_in_bounded_blocks(self, size, seed):
        _, e, _ = prepared("loop", 8)
        rng = np.random.default_rng(seed)
        rows = rng.choice(56, size=rng.integers(1, 57), replace=False)
        psi = rng.normal(size=56) + 1j * rng.normal(size=56)
        t = DEFAULT_GRID_STEP * np.arange(size)
        kernel = _SpectralKernel(e, psi, rows)
        got = np.full((rows.size, size), np.nan, dtype=complex)
        for cols, amp in kernel._blocks(t):
            assert amp.size <= rows.size * PHASE_BLOCK
            got[:, cols] = amp
        dev = np.max(np.abs(got - self.dense(e, psi, rows, t)))  # nan if a column was missed
        assert dev < self.GRID_TOL * np.linalg.norm(psi)

    @pytest.mark.parametrize("factor", [PEAK_WINDOW_FACTOR, 8.0])
    def test_loop36_window_agrees_with_the_dense_formula(self, factor):
        g, e, psi0 = prepared("loop", 36)
        t = _time_grid(factor * 36, DEFAULT_GRID_STEP)
        rows = _index_groups(g)["success"]
        sample = np.arange(0, t.size, 97)
        got = amplitude_rows(e, psi0, rows, t)[:, sample]
        dev = np.max(np.abs(got - self.dense(e, psi0, rows, t[sample])))
        assert dev < self.GRID_TOL

    @pytest.mark.parametrize("t", [
        [0.1, 0.2, 0.3],                       # does not start at 0
        [0.0, 0.1, 0.3],                       # uneven
        [0.0, 0.3, 0.3, 2.0, 1.1],             # repeats and reversals
        [0.0, 0.01, 0.02, 0.03, 0.04 + 1e-15],  # last point one rounding off
        [[0.0, 0.1], [0.2, 0.3]],              # not 1-D
    ])
    def test_grid_must_be_arithmetic_from_zero(self, t):
        _, e, psi0 = prepared("loop", 4)
        for rows in (self.ROWS[:2], None):
            with pytest.raises(ValueError, match="arange"):
                _SpectralKernel(e, psi0, rows)(np.asarray(t))


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
        g, _, psi0 = prepared("cross", 5)
        p = outcome_curves(g, psi0, np.arange(0.0, 5.0, 0.1))[0]
        assert p[0] == pytest.approx(0.0, abs=1e-15)
        assert np.all((p >= -1e-12) & (p <= 1.0 + 1e-12))

    def test_cross5_has_an_early_peak(self):
        g, _, psi0 = prepared("cross", 5)
        p = outcome_curves(g, psi0, np.arange(0.0, 10.0, 0.01))[0]
        interior = (p[1:-1] >= p[:-2]) & (p[1:-1] >= p[2:]) & (p[1:-1] > 0.1)
        assert interior.any()

    def test_peak_decreases_with_size(self):
        assert peak("cross", 13)[1] < peak("cross", 5)[1]
        assert peak("loop", 12)[1] < peak("loop", 8)[1]

    def test_find_peak_earliest_on_exact_ties(self):
        # the cross-5 curve recurs exactly; the first recurrence must win
        t_star, p_star = peak("cross", 5)
        assert t_star == pytest.approx(2.3005, abs=1e-3)
        assert p_star == pytest.approx(0.342936, abs=1e-5)

    def test_find_peak_degenerate_flat_curve(self):
        g, _, psi0 = prepared("cross", 5)
        frozen = spectral_decompose(np.zeros((20, 20)))
        t_star, p_star = find_peak(frozen, psi0, g, t_max=5.0)
        assert (t_star, p_star) == (0.0, 0.0)

    def test_find_peak_rejects_bad_window(self):
        g, e, psi0 = prepared("cross", 5)
        with pytest.raises(ValueError):
            find_peak(e, psi0, g, t_max=-1.0)

    def test_loop36_peak_window_scan_within_budget(self):
        # 23,041 points at d = 1260, 2 cores: 1.1-1.4 s with a sin and a cos
        # per grid point, 0.11-0.12 s with one offset table per call
        g, e, psi0 = prepared("loop", 36)
        grid = _time_grid(PEAK_WINDOW_FACTOR * 36, DEFAULT_GRID_STEP)
        with time_budget(0.5):
            amplitude_rows(e, psi0, _index_groups(g)["success"], grid)

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=40),
           st.sampled_from([1.0, 0.4 * CANDIDATE_TOL]))
    @settings(max_examples=300, deadline=None)
    def test_peak_candidates_equal_the_loop(self, levels, scale):
        # small integer levels make plateaus, ties and maxima at both ends
        # common; the small scale puts several levels within CANDIDATE_TOL
        curve = scale * np.array(levels, dtype=float)
        pmax = float(curve.max())
        loop = [k for k in range(len(curve))
                if curve[k] >= pmax - CANDIDATE_TOL
                and (k == 0 or curve[k] >= curve[k - 1])
                and (k == len(curve) - 1 or curve[k] >= curve[k + 1])]
        assert _peak_candidates(curve).tolist() == loop


class TestTimeGrid:
    @given(st.floats(1e-3, 1.0), st.floats(1e-3, 100.0))
    @settings(max_examples=200, deadline=None)
    def test_ends_within_one_step_of_t_max(self, step, t_max):
        grid = _time_grid(t_max, step)
        assert np.array_equal(grid, step * np.arange(grid.size))  # the kernel's grid
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
