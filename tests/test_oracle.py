import numpy as np
import pytest

from conftest import prepared
from qutrit_bell import assemble_hamiltonian, build_cross, build_loop
from qutrit_bell.cli import main
from qutrit_bell.dynamics import _time_grid
from qutrit_bell.oracle import (FullHamiltonian, _chebyshev_coefficients, _chebyshev_order,
                                _chebyshev_span, _sector_indices, _site_digit, _spans,
                                full_evolve_compare, full_initial_index, generator_matrix,
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

    @pytest.mark.parametrize("builder,n", [(build_cross, 5), (build_loop, 4)])
    def test_commutes_with_the_plus_minus_relabelling(self, builder, n):
        # on-site +1 <-> -1 on every site: digit d of STATES = (-1, 0, +1)
        # becomes 2 - d. In the two-excitation sector this is C|i,j> = |j,i>,
        # the symmetry the C-even peak block rests on.
        full = FullHamiltonian(builder(n))
        idx = np.arange(full.dimension)
        flipped = sum((2 - _site_digit(idx, site)) * 3 ** (site - 1)
                      for site in range(1, n + 1))
        assert sorted(flipped) == list(idx)
        h = full.dense()
        assert np.array_equal(h[np.ix_(flipped, flipped)], h)


class TestSectorRestriction:
    @pytest.mark.parametrize("builder,n", [(build_loop, 4), (build_cross, 5)])
    def test_equals_reduced_hamiltonian(self, builder, n):
        g = builder(n)
        reduced = assemble_hamiltonian(g)
        restricted = sector_restriction(g)
        assert np.array_equal(restricted, reduced)

    def test_image_outside_the_sector_raises(self, monkeypatch):
        # with the last sector state left out, some column's image lands outside
        sect = _sector_indices(build_loop(4))
        monkeypatch.setattr("qutrit_bell.oracle._sector_indices", lambda g: sect[:-1])
        with pytest.raises(ValueError, match="out of the sector"):
            sector_restriction(build_loop(4))


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
        # one recurrence serves every offset, repeats included; dt comes
        # last, so the returned full state is the one at dt. 7.3 gives
        # x = |E| dt = 29.2, about 70 Bessel terms
        g, *_ = prepared(family, n)
        full = FullHamiltonian(g)
        psi = _random_state(full.dimension)
        offsets = np.array([0.0, 0.1, -0.5, 7.3, 0.1, 0.0, dt])
        everything = np.arange(full.dimension)
        states, leak, last = _chebyshev_span(full, psi, offsets, everything)
        reference = _dense_states(full, psi, offsets)
        assert np.max(np.abs(states - reference)) < 1e-12
        assert np.max(np.abs(last - reference[-1])) < 1e-12
        assert not leak.any()  # no state has a component outside all rows

    # an uneven grid over 4 spans, ending in a lone point beyond a span; and a
    # fine grid whose first span has 2001 points, more than one PHASE_BLOCK
    @pytest.mark.parametrize("t_grid", [
        np.concatenate([np.arange(0.0, 30.0, 0.7), [29.4, 3.0, 3.0, 41.0]]),
        np.arange(0.0, 24.0, 0.004)])
    def test_grid_across_spans_matches_dense_eigh(self, t_grid):
        g, *_ = prepared("loop", 4)
        full = FullHamiltonian(g)
        psi = _random_state(full.dimension)
        everything = np.arange(full.dimension)
        spans = list(_spans(full, psi, t_grid, everything))
        assert len(spans) >= 3
        assert [p.start for p, *_ in spans[1:]] == [p.stop for p, *_ in spans[:-1]]
        assert spans[-1][0].stop == t_grid.size
        reference = _dense_states(full, psi, t_grid)
        for points, states, _ in spans:
            assert np.max(np.abs(states - reference[points])) < 1e-12

    def test_leakage_bound_covers_the_outside(self):
        # a state that starts partly outside the sector: the bound must be
        # at least the largest outside magnitude at every time (the dense
        # reference itself is good to about 1e-15)
        g, *_ = prepared("cross", 5)
        full = FullHamiltonian(g)
        psi = _random_state(full.dimension)
        sect = _sector_indices(g)
        t_grid = np.arange(0.0, 12.0, 0.3)
        reference = _dense_states(full, psi, t_grid)
        reference[:, sect] = 0.0
        for points, _, leak in _spans(full, psi, t_grid, sect):
            assert np.all(leak >= np.max(np.abs(reference[points]), axis=1) - 1e-13)

    @pytest.mark.parametrize("x", [0.0, 1e-300, -1e-300, 1e-9, 0.8, -29.2, 32.0])
    def test_coefficient_table_sums_to_the_exponential(self, x):
        # sum_k c_k(x) T_k(y) = exp(-ixy) on [-1, 1], here at 64 Chebyshev nodes
        order = _chebyshev_order(abs(x))
        coeffs = _chebyshev_coefficients(order, np.array([x]))[:, 0]
        y = np.cos(np.pi * (np.arange(64) + 0.5) / 64)
        t_k = np.cos(np.outer(np.arange(order + 1), np.arccos(y)))
        assert np.max(np.abs(coeffs @ t_k - np.exp(-1j * x * y))) < 1e-13

    def test_coefficient_table_at_zero_is_exactly_one(self):
        assert np.array_equal(_chebyshev_coefficients(_chebyshev_order(0.0), [0.0]), [[1.0]])


def _random_state(dimension: int) -> np.ndarray:
    rng = np.random.default_rng(7)
    psi = rng.normal(size=dimension) + 1j * rng.normal(size=dimension)
    return psi / np.linalg.norm(psi)


def _dense_states(full: FullHamiltonian, psi: np.ndarray, times) -> np.ndarray:
    """exp(-iHt) psi for each t (times x dimension), from eigh of the dense full H."""
    lam, vec = np.linalg.eigh(full.dense())
    return (vec @ (np.exp(-1j * np.outer(lam, times)) * (vec.T @ psi)[:, None])).T


class _CountedApply:
    """FullHamiltonian.apply with a call counter."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self._apply = FullHamiltonian.apply
        monkeypatch.setattr(FullHamiltonian, "apply", self)

    def __get__(self, full, owner):
        def counted(vec):
            self.calls += 1
            return self._apply(full, vec)
        return counted


class TestCost:
    def test_apply_counts_on_the_default_verify_grid(self, monkeypatch):
        # cross-9, 101 points: one recurrence per span of CHEBYSHEV_SPAN / |E|
        # = 4 time units; a fresh expansion per point took 1500 applies, and
        # the restriction one per sector column
        g, *_ = prepared("cross", 9)
        counter = _CountedApply(monkeypatch)
        sector_restriction(g)
        assert counter.calls == 0
        full_evolve_compare(g, _time_grid(10.0, 0.1))
        assert counter.calls <= 200

    def test_leaking_apply_fails_verify(self, monkeypatch, capsys):
        apply = FullHamiltonian.apply

        def leaky(full, vec):
            out = apply(full, vec)
            out[0] += 1e-6 * np.linalg.norm(vec)  # every site at -1: outside the sector
            return out

        monkeypatch.setattr(FullHamiltonian, "apply", leaky)
        code = main(["verify", "--topology", "loop", "--n", "4", "--no-timestamp"])
        rows = dict(line.split(",", 1) for line in capsys.readouterr().out.splitlines()
                    if not line.startswith("#"))
        assert code == 3
        assert rows["N4_sector_leakage"].endswith(",FAIL")
        assert rows["N4_sector_restriction_max_diff"].endswith(",pass")


class TestSymmetryCheck:
    """The reduced engine's Bell-channel amplitudes, as `verify` reads them.

    Each grid takes well under a second through the 3^N oracle.
    """

    def test_cross7(self):
        g, *_ = prepared("cross", 7)
        result = full_evolve_compare(g, np.arange(0.0, 20.0, 0.25))
        assert result.max_bell_asymmetry < 1e-10

    def test_loop8(self):
        g, *_ = prepared("loop", 8)
        result = full_evolve_compare(g, np.arange(0.0, 20.0, 0.05))
        assert result.max_bell_asymmetry < 1e-10

    def test_zero_time(self):
        g, *_ = prepared("cross", 5)
        assert full_evolve_compare(g, [0.0]).max_bell_asymmetry < 1e-15
