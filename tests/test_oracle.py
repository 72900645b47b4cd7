from functools import partial
from pathlib import Path

import numpy as np
import pytest

from conftest import prepared
from qutrit_bell import assemble_hamiltonian, build_cross, build_loop, dynamics, oracle
from qutrit_bell.cli import VERIFY_GRID_STEP, _load_topology_file, main
from qutrit_bell.dynamics import (CHEBYSHEV_GAP, CHEBYSHEV_SPAN, PHASE_BLOCK,
                                  _chebyshev_coefficients, _SpectralKernel,
                                  _chebyshev_order, _chebyshev_span, _chebyshev_spans,
                                  _chebyshev_step, _norm_bound, _time_grid, pair_index)
from qutrit_bell.oracle import (_closure, _closure_system, _images, _radius, _scatter,
                                _sector_indices, full_evolve_compare, full_initial_index,
                                generator_matrix, sector_restriction, su3_algebra_check)
from qutrit_bell.topology import Graph, Roles

DATA = Path(__file__).resolve().parent / "data"


def _site_digit(indices, site: int):
    """The base-3 digit of site `site` (1-based) in each product state's index."""
    return (indices // 3 ** (site - 1)) % 3


class WholeSpace:
    """The full Hamiltonian on every one of the 3^N states (N <= 7 here), from `_images`
    of them all: the reference the oracle's closure is checked against."""

    def __init__(self, g: Graph, images=_images):
        self.graph = g
        self.dimension = 3 ** g.n_vertices
        table = images(g, np.arange(self.dimension))
        #: row e holds each state's image under edge e's exchange, or the zero slot
        #: `dimension` where the two site states are equal
        self.table = np.where(table < 0, self.dimension, table)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """H vec: an exchange is an involution, so the image table is its own source table."""
        return _scatter(self.table, vec)

    def dense(self) -> np.ndarray:
        h = np.zeros((self.dimension + 1, self.dimension))
        idx = np.arange(self.dimension)
        for row in self.table:
            h[row, idx] += 1.0
        return h[:-1]


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
        full = WholeSpace(g)
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
        full = WholeSpace(g)
        rng = np.random.default_rng(5)
        v = rng.normal(size=full.dimension) + 1j * rng.normal(size=full.dimension)
        assert np.allclose(full.dense() @ v, full.apply(v), atol=1e-12)

    @pytest.mark.parametrize("builder,n", [(build_loop, 4), (build_cross, 5)])
    @pytest.mark.parametrize("state", ["sector basis", "dense random", "outside the sector",
                                       "zero"])
    def test_apply_equals_the_whole_vector_gather(self, builder, n, state):
        # each edge's exchange is an involution, so scattering the amplitudes
        # adds the same terms in the same order as gathering the whole vector
        # per edge: the results agree bit for bit
        g = builder(n)
        full = WholeSpace(g)
        sect = _sector_indices(g)
        vec = np.zeros(full.dimension, dtype=complex)
        if state == "sector basis":
            vec[sect[len(sect) // 2]] = 1.0
        elif state == "dense random":
            vec = _random_state(full.dimension)
        elif state == "outside the sector":
            vec[full_initial_index(g)] = 0.6 - 0.2j
            vec[np.sum(3 ** np.arange(n)) + 1] = 0.8j  # site 1 at +1, every other at 0
        padded = np.concatenate([vec, [0.0]])
        gathered = sum(padded[row] for row in full.table)
        assert np.array_equal(full.apply(vec), gathered)

    def test_size_cap(self):
        # a state is an int64 index below 3^N: 3^39 < 2^63 < 3^40
        with pytest.raises(ValueError, match="int64"):
            full_evolve_compare(build_loop(40), [0.0])
        with pytest.raises(ValueError, match="int64"):
            sector_restriction(build_loop(40))

    def test_images_at_the_int64_bound(self):
        # at 39 sites the place value 3^38 and the largest index 3^39 - 1 stay exact:
        # each image is the states' digits, swapped, summed in Python integers
        g = build_cross(39)
        digits = np.random.default_rng(3).integers(0, 3, size=(6, 39))
        digits[0] = 2  # 3^39 - 1, every site at +1
        digits[1, -1], digits[1, :-1] = 2, 0  # site 39 at +1, every other at -1
        place = [3 ** k for k in range(39)]
        images = _images(g, [sum(map(int, row * place)) for row in digits])
        for e, (m, n) in enumerate(g.edges):
            for k, row in enumerate(digits):
                swapped = row.copy()
                swapped[[m - 1, n - 1]] = row[[n - 1, m - 1]]
                want = -1 if row[m - 1] == row[n - 1] else sum(map(int, swapped * place))
                assert images[e, k] == want

    @pytest.mark.parametrize("builder,n", [(build_cross, 5), (build_loop, 4)])
    def test_commutes_with_the_plus_minus_relabelling(self, builder, n):
        # on-site +1 <-> -1 on every site: digit d of STATES = (-1, 0, +1)
        # becomes 2 - d. In the two-excitation sector this is C|i,j> = |j,i>,
        # the symmetry the C-even peak block rests on.
        full = WholeSpace(builder(n))
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
        full = WholeSpace(g)
        psi = _random_state(full.dimension)
        offsets = np.array([0.0, 0.1, -0.5, 7.3, 0.1, 0.0, dt])
        table, terms = _chebyshev_span(full.apply, len(g.edges), psi, len(g.edges) * offsets,
                                       {})
        reference = _dense_states(full, psi, offsets)
        assert np.max(np.abs(table.T @ terms - reference)) < 1e-12
        # the state a span hands on, its table's last column
        assert np.max(np.abs(table[:, -1] @ terms - reference[-1])) < 1e-12

    # an uneven grid over 4 spans, ending in a lone point reached through a
    # span of no point; and a fine even grid of 6000 points, 2001 of them in
    # reach of t = 0, which is cut into equal spans of at most PHASE_BLOCK points
    @pytest.mark.parametrize("t_grid", [
        np.concatenate([np.arange(0.0, 30.0, 0.7), [29.4, 3.0, 3.0, 41.0]]),
        np.arange(0.0, 24.0, 0.004)])
    def test_grid_across_spans_matches_dense_eigh(self, t_grid):
        g, *_ = prepared("loop", 4)
        full = WholeSpace(g)
        psi = _random_state(full.dimension)
        spans = list(_chebyshev_spans(full.apply, len(g.edges), psi, t_grid))
        assert len(spans) >= 3
        assert [p.start for p, *_ in spans[1:]] == [p.stop for p, *_ in spans[:-1]]
        assert spans[-1][0].stop == t_grid.size
        reference = _dense_states(full, psi, t_grid)
        for points, table, terms in spans:
            assert table.shape[1] == points.stop - points.start <= PHASE_BLOCK
            assert np.max(np.abs(table.T @ terms - reference[points])) < 1e-12

    def test_leakage_bound_covers_the_outside(self):
        # a state that starts partly outside the sector: the bound must be
        # at least the largest outside magnitude at every time (the dense
        # reference itself is good to about 1e-15)
        g, *_ = prepared("cross", 5)
        full = WholeSpace(g)
        psi = _random_state(full.dimension)
        sect = _sector_indices(g)
        t_grid = np.arange(0.0, 12.0, 0.3)
        reference = _dense_states(full, psi, t_grid)
        reference[:, sect] = 0.0
        outside = np.setdiff1d(np.arange(full.dimension), sect)
        for points, table, terms in _chebyshev_spans(full.apply, len(g.edges), psi, t_grid):
            leak = np.abs(table).T @ np.max(np.abs(terms[:, outside]), axis=1)
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

    @pytest.mark.parametrize("family,n", [("loop", 4), ("cross", 5)])
    @pytest.mark.parametrize("reach", [0.5, 1.0])
    def test_lone_step_matches_dense_eigh(self, family, n, reach):
        # a step of no grid point, up to the widest, R dt = CHEBYSHEV_GAP
        g, *_ = prepared(family, n)
        full = WholeSpace(g)
        psi = _random_state(full.dimension)
        dt = reach * CHEBYSHEV_GAP / len(g.edges)
        state = _chebyshev_step(full.apply, len(g.edges), psi, dt)
        assert np.max(np.abs(state - _dense_states(full, psi, [dt])[0])) < 1e-12


def _random_state(dimension: int) -> np.ndarray:
    rng = np.random.default_rng(7)
    psi = rng.normal(size=dimension) + 1j * rng.normal(size=dimension)
    return psi / np.linalg.norm(psi)


def _dense_states(full: WholeSpace, psi: np.ndarray, times) -> np.ndarray:
    """exp(-iHt) psi for each t (times x dimension), from eigh of the dense full H."""
    lam, vec = np.linalg.eigh(full.dense())
    return (vec @ (np.exp(-1j * np.outer(lam, times)) * (vec.T @ psi)[:, None])).T


class _CountedScatter:
    """oracle._scatter, the product of the propagation, with a call counter."""

    def __init__(self, monkeypatch):
        self.calls = 0
        monkeypatch.setattr(oracle, "_scatter", self)

    def __call__(self, images, vec):
        self.calls += 1
        return _scatter(images, vec)


class TestCost:
    def test_product_counts_on_the_default_verify_grid(self, monkeypatch):
        # cross-9, 101 points: one recurrence per span of CHEBYSHEV_SPAN / |E|
        # = 4 time units; a fresh expansion per point took 1500 products, and
        # the restriction one per sector column
        g, *_ = prepared("cross", 9)
        counter = _CountedScatter(monkeypatch)
        sector_restriction(g)
        assert counter.calls == 0
        full_evolve_compare(g, _time_grid(10.0, 0.1))
        assert 0 < counter.calls <= 200

    def test_faulty_product_fails_verify(self, monkeypatch, capsys):
        # the fault sits in the product the propagation calls: it adds to the
        # first state of the closure, a sector state
        def faulty(images, vec):
            out = _scatter(images, vec)
            out[0] += 1e-6 * np.linalg.norm(vec)
            return out

        monkeypatch.setattr(oracle, "_scatter", faulty)
        code = main(["verify", "--topology", "loop", "--n", "4", "--no-timestamp"])
        rows = dict(line.split(",", 1) for line in capsys.readouterr().out.splitlines()
                    if not line.startswith("#"))
        assert code == 3
        assert rows["N4_full_vs_reduced_max_amplitude_dev"].endswith(",FAIL")
        assert rows["N4_sector_restriction_max_diff"].endswith(",pass")

    def test_faulty_quotient_fails_verify(self, monkeypatch, capsys):
        # the fault sits in the cells that the C blocks' one builder reads (`dynamics`),
        # whose blocks --tau, the planner's grid and the peak tables read: |A,B>
        # relabelled into the cell of |c+,c->, a cell of its own, reads amplitude 1 at
        # t = 0, where the full space has 0
        pair_cells = dynamics._pair_cells

        def faulty(g):
            cells = pair_cells(g).copy()
            r = g.roles
            cells[pair_index(g.n_vertices, r.alice, r.bob)] = cells[
                pair_index(g.n_vertices, r.charlie_plus, r.charlie_minus)]
            return cells

        monkeypatch.setattr(dynamics, "_pair_cells", faulty)
        code = main(["verify", "--topology", "cross", "--n", "5", "--no-timestamp"])
        rows = dict(line.split(",", 1) for line in capsys.readouterr().out.splitlines()
                    if not line.startswith("#"))
        assert code == 3
        assert rows.pop("N5_full_vs_reduced_max_amplitude_dev").endswith(",FAIL")
        assert all(row.endswith(",pass") for name, row in rows.items() if name != "check")


def _on_closure(full: WholeSpace, seeds):
    """(closure C, position of every full-space state in C, the image table on C, which
    is its own source table: the edges' exchanges are involutions)."""
    closure = _closure(full.graph, seeds)
    position = np.full(full.dimension + 1, closure.size)
    position[closure] = np.arange(closure.size)
    return closure, position, position[full.table[:, closure]]


def _leaking_images(g: Graph, states) -> np.ndarray:
    """`_images`, except that the first edge (m, n) exchanges a sector state s, with
    sites m and n at 0, with the state x that has both at +1: a partial involution
    still, but one that leaves the sector."""
    m, n = next(iter(g.edges))  # the first row of the images
    s = next(int(x) for x in _sector_indices(g) if _site_digit(x, m) == _site_digit(x, n) == 1)
    x = s + 3 ** (m - 1) + 3 ** (n - 1)
    states = np.asarray(states)
    images = _images(g, states)
    assert (images[0, (states == s) | (states == x)] == -1).all()
    images[0, states == s], images[0, states == x] = x, s
    return images


class TestClosure:
    """The recurrence on the closure of the sector is the 3^N one, bit for bit, both at
    the closure's R: it bounds ||H|| on the closure alone, off which the 3^N state stays
    exactly 0."""

    SYSTEMS = {
        "cross-5": (lambda: build_cross(5), _images),
        "loop-4": (lambda: build_loop(4), _images),
        "cross-7": (lambda: build_cross(7), _images),
        "no-role-exchange": (
            lambda: Graph(*_load_topology_file(str(DATA / "no-role-exchange.txt"))), _images),
        "leaking loop-4": (lambda: build_loop(4), _leaking_images),
    }

    @pytest.mark.parametrize("name", SYSTEMS)
    def test_spans_equal_the_whole_space_run(self, name, monkeypatch):
        build, images = self.SYSTEMS[name]
        g = build()
        monkeypatch.setattr(oracle, "_images", images)  # the images `_closure` reads
        full = WholeSpace(g, images)
        sect, init = _sector_indices(g), full_initial_index(g)
        closure, position, table = _on_closure(full, np.append(sect, init))
        product = partial(_scatter, table)
        leaves = name.startswith("leaking")
        assert np.isin(sect, closure).all()
        assert (closure.size > sect.size) == leaves
        whole = np.zeros(full.dimension, dtype=complex)
        whole[init] = 1.0
        local = whole[closure]
        radius, rows = _radius(table, table), position[sect]
        assert radius < len(g.edges)
        # the default verify grid's step over three spans' reach, CHEBYSHEV_SPAN / R each,
        # then a point reached through a lone step
        t_max = 3 * CHEBYSHEV_SPAN / radius
        t_grid = np.append(_time_grid(t_max, 0.1), t_max + 1.5 * CHEBYSHEV_GAP / radius)
        spans = list(_chebyshev_spans(full.apply, radius, whole, t_grid))
        local_spans = list(_chebyshev_spans(product, radius, local, t_grid))
        assert len(spans) == len(local_spans) >= 3
        off = np.setdiff1d(np.arange(full.dimension), closure)
        for (points, table, terms), (local_points, local_table, local_terms) in zip(
                spans, local_spans):
            assert points == local_points
            assert np.array_equal(table, local_table)
            assert np.array_equal(terms[:, closure], local_terms)
            assert not terms[:, off].any()
        outside = np.setdiff1d(np.arange(full.dimension), sect)
        assert any(terms[:, outside].any() for _, _, terms in spans) == leaves
        # the state a span hands on, scattered back to 3^N
        x = radius * t_grid[:40]
        table, terms = _chebyshev_span(full.apply, radius, whole, x, {})
        local_table, local_terms = _chebyshev_span(product, radius, local, x, {})
        assert np.array_equal(table, local_table)
        scattered = np.zeros_like(whole)
        scattered[closure] = np.einsum("k,kn->n", local_table[:, -1], local_terms)
        assert np.array_equal(np.einsum("k,kn->n", table[:, -1], terms), scattered)


def _ascending_images(g: Graph, states) -> np.ndarray:
    """`_images` where an image's index exceeds its state's, -1 elsewhere: each edge maps
    one way, so H does not map back. It is nilpotent, and at loop-4 the Collatz-Wielandt
    bound of H alone reads 1.44, below ||H||_2 = 2.56."""
    images = _images(g, states)
    return np.where(images > np.asarray(states), images, -1)


class TestRadius:
    """The R that `full_evolve_compare` steps with, read from its closure."""

    SYSTEMS = {**TestClosure.SYSTEMS,
               "ascending loop-4": (lambda: build_loop(4), _ascending_images)}

    @pytest.mark.parametrize("name", SYSTEMS)
    def test_radius_bounds_the_norm(self, name, monkeypatch):
        build, images = self.SYSTEMS[name]
        monkeypatch.setattr(oracle, "_images", images)
        seen = []

        def spans(product, radius, psi, t_grid):
            seen.append((product, radius, psi.size))
            return iter(())

        monkeypatch.setattr(oracle, "_chebyshev_spans", spans)
        g = build()
        full_evolve_compare(g, [0.0])
        [(product, radius, size)] = seen
        h = np.column_stack([product(column) for column in np.eye(size)])
        assert np.linalg.svd(h, compute_uv=False)[0] <= radius < len(g.edges)
        symmetric = np.array_equal(h, h.T)
        assert symmetric == (name != "ascending loop-4")
        if symmetric:  # the dilation's two halves are H's own iteration
            assert radius == _norm_bound(product, size)


class TestLeakage:
    """`full_evolve_compare`'s leakage bound, sum_k |c_k| max|T_k psi outside the
    sector|, taken by one reduction over each span's stored terms."""

    SYSTEMS = {"cross-5": (lambda: build_cross(5), _images),
               "cross-9": (lambda: build_cross(9), _images),
               "leaking loop-4": (lambda: build_loop(4), _leaking_images)}

    @pytest.mark.parametrize("name", SYSTEMS)
    def test_bound_is_the_per_term_one(self, name, monkeypatch):
        # the reference zeroes the sector rows of |T_k psi| and takes its maximum term
        # by term, as the recurrence once did inside its loop
        build, images = self.SYSTEMS[name]
        monkeypatch.setattr(oracle, "_images", images)
        spans = []

        def recorded(*args):
            for span in _chebyshev_spans(*args):
                spans.append(span)
                yield span

        monkeypatch.setattr(oracle, "_chebyshev_spans", recorded)
        g = build()
        result = full_evolve_compare(g, _time_grid(20.0, 0.1))
        sect = _sector_indices(g)
        rows = np.searchsorted(_closure(g, np.append(sect, full_initial_index(g))), sect)
        want = 0.0
        for _, table, terms in spans:
            outside = np.zeros(len(terms))
            for k, vec in enumerate(terms):
                mag = np.abs(vec)
                mag[rows] = 0.0
                outside[k] = mag.max()
            want = max(want, np.max(np.abs(table).T @ outside))
        assert len(spans) >= 2
        assert (want > 0) == name.startswith("leaking")
        assert np.array_equal(result.max_sector_leakage, want)

    def test_an_even_grid_builds_one_bessel_table(self, monkeypatch):
        # cross-9 over [0, 100] at the default verify step: R t_max = 411, 13 spans and
        # no step of no grid point
        tables = []
        coefficients = dynamics._chebyshev_coefficients
        monkeypatch.setattr(dynamics, "_chebyshev_coefficients",
                            lambda *args: tables.append(args) or coefficients(*args))
        g, *_ = prepared("cross", 9)
        full_evolve_compare(g, _time_grid(100.0, VERIFY_GRID_STEP))
        assert len(tables) == 1


class TestImages:
    """`_images` against the edge-by-edge digit swap it replaced, on random product states."""

    SYSTEMS = {"cross-7": lambda: build_cross(7), "loop-8": lambda: build_loop(8),
               "no-role-exchange": lambda: Graph(*_load_topology_file(
                   str(DATA / "no-role-exchange.txt")))}

    @pytest.mark.parametrize("name", SYSTEMS)
    def test_equals_the_per_edge_swap(self, name):
        g = self.SYSTEMS[name]()
        states = np.random.default_rng(11).integers(0, 3 ** g.n_vertices, size=2000)
        want = np.empty((len(g.edges), states.size), dtype=np.int64)
        for row, (m, n) in zip(want, g.edges):  # row e is edge e of `g.edges`
            dm, dn = _site_digit(states, m), _site_digit(states, n)
            swapped = states + (dn - dm) * 3 ** (m - 1) + (dm - dn) * 3 ** (n - 1)
            row[:] = np.where(dm != dn, swapped, -1)
        images = _images(g, states)
        assert images.dtype == np.int64
        assert np.array_equal(images, want)

    def test_beyond_the_int64_bound_raises(self):
        with pytest.raises(ValueError, match="int64"):
            _images(build_loop(40), [0])


class TestReducedAmplitudes:
    """`full_evolve_compare`'s reduced side: the quotient kernel's amplitudes at each
    Chebyshev span's times in one piece (`_SpectralKernel.at_times`), against the kernel's
    scalar path, one time at a time."""

    @pytest.mark.parametrize("builder,n,t_grid", [
        (build_loop, 36, _time_grid(230.4, VERIFY_GRID_STEP)),
        (build_cross, 35, _time_grid(224.0, VERIFY_GRID_STEP)),
        (build_cross, 5, np.array([0.3, 0.3, 2.0, 1.1, 0.0, 9.7]))],
        ids=["loop-36", "cross-35", "uneven cross-5"])
    def test_spans_match_the_scalar_path(self, builder, n, t_grid, monkeypatch):
        at_times, times, deviations = _SpectralKernel.at_times, [], []

        def compared(kernel, t):
            out = at_times(kernel, t)
            times.append(np.array(t))
            scalar = np.column_stack([kernel(x) for x in np.asarray(t).tolist()])
            deviations.append(np.max(np.abs(out - scalar)))
            return out

        monkeypatch.setattr(_SpectralKernel, "at_times", compared)
        result = full_evolve_compare(builder(n), t_grid)
        assert len(times) >= (2 if n > 5 else 1)
        assert np.array_equal(np.concatenate(times), t_grid)  # every point, in grid order
        assert max(deviations) < 1e-13
        # the paper's largest systems over their 6.4N table windows, as `verify` runs them
        assert result.max_amplitude_deviation < 1e-13


class TestScatter:
    @pytest.mark.parametrize("builder,n", [(build_cross, 9), (build_loop, 36)])
    def test_running_sum_in_edge_order(self, builder, n):
        # the reference scatters each column to its images, one edge after the other;
        # the sum over the edges must keep that order whatever the table's layout
        g = builder(n)
        closure = _closure(g, _sector_indices(g))
        images = _images(g, closure)
        table = np.where(images < 0, closure.size, np.searchsorted(closure, images))
        vec = _random_state(closure.size)
        want = np.zeros(closure.size + 1, dtype=complex)
        for row in table:
            want[row] += vec  # a repeated index is the zero slot alone, dropped below
        for order in ("C", "F"):
            sources = np.asarray(table, order=order)  # involutive: images are sources
            assert sources.flags[f"{order}_CONTIGUOUS"]
            assert np.array_equal(_scatter(sources, vec), want[:-1])

    @pytest.mark.parametrize("build,images", [
        (lambda: build_cross(9), _images), (lambda: build_loop(36), _images),
        (lambda: build_loop(4), _leaking_images)], ids=["cross-9", "loop-36", "leaking loop-4"])
    def test_cached_table(self, build, images, monkeypatch):
        # the table every product of `full_evolve_compare` reads: C-ordered, so no product
        # copies it, read-only, and summed as the gather's running sum in edge order
        monkeypatch.setattr(oracle, "_images", images)
        closure, _, sources, _ = _closure_system(build())
        assert sources.flags["C_CONTIGUOUS"] and not sources.flags["WRITEABLE"]
        vec = _random_state(closure.size)
        padded = np.append(vec, 0.0)
        want = padded[sources[0]]
        for row in sources[1:]:
            want += padded[row]
        assert np.array_equal(_scatter(sources, vec), want)


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
