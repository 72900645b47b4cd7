"""Properties on random connected graphs with N <= 7 and random roles.

Half of the drawn graphs are built to carry the protocol symmetry: the
edges are closed under an involution that exchanges Charlie's two sites,
fixes Alice's and Bob's and pairs some of the other sites at random. The
rest are plain random graphs, which rarely have it.

The C-even block of the one-shot peak is checked on the same graphs and on
the 25 systems of the protocol-1 tables; H's quotient on the cells of the pair
space's coarsest equitable partition, the states it holds, the C-odd block it
carries and the chain that `scan`, `--tau` and the planner step on it, on the
same graphs and on graphs with a symmetry that fixes every role. networkx's VF2
is the reference the cells are checked against: never more than its orbits.
The last property fuzzes the CLI's numeric flags on loop-4 and cross-5.
"""

import io
import math
from contextlib import redirect_stderr, redirect_stdout, suppress
from dataclasses import fields
from functools import partial
from itertools import combinations, islice
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (ROLE_SWAPS, SWAP_CHARLIE, SWAP_ENDS, pair_map, peak, quotient_matrix,
                      time_budget, vf2_orbit_fold_sizes, vf2_protocol_automorphism)
from qutrit_bell import (Graph, Roles, assemble_hamiltonian, build_cross, build_loop,
                         dynamics, evolve, find_peak, initial_state, one_shot_peak,
                         outcome_distribution, plan_regular, protocol1_cumulative,
                         protocol1_required, spectral_decompose)
from qutrit_bell.cli import _load_topology_file, main
from qutrit_bell.dynamics import (DEFAULT_GRID_STEP, DEFAULT_REFINE_TOL, PHASE_BLOCK,
                                  _c_blocks, _c_orbits, _index_groups, _pair_cells,
                                  _pair_position, _pairs, _SpectralKernel, pair_index)
from qutrit_bell.measurement import (ZERO_PROB, Outcome, OutcomeDistribution, _quotient,
                                     _quotient_blocks, _quotient_eigensystem, outcome_curves,
                                     post_state)
from qutrit_bell.oracle import full_evolve_compare, sector_restriction
from qutrit_bell.protocols import (PLAN_WINDOW_FACTOR, Strategy, _grid_scan, _protocol2_steps,
                                   _step_chooser)
from test_acceptance import (QUANTILES, REPEAT_RESET_COLUMNS, TABLE_CROSS_COUNTS,
                             TABLE_LOOP_COUNTS, _count_marks, _repeat_marks)

DATA = Path(__file__).resolve().parent / "data"
#: a few uneven times; the oracle reaches them in one or two Chebyshev spans
ORACLE_GRID = [0.0, 0.37, 1.3, 2.9, 6.1]


@st.composite
def protocol_graphs(draw, symmetric=None, max_sites=7, swaps=(SWAP_CHARLIE,)):
    """(graph, symmetric): a connected graph on 4..max_sites sites with
    random roles.

    A random spanning tree plus random extra edges; when symmetric, both
    are closed under one random involution per role permutation in `swaps`
    (by default one that exchanges Charlie's sites and fixes Alice's and
    Bob's), which also pairs some of the other sites.
    """
    n = draw(st.integers(4, max_sites))
    sites = draw(st.permutations(range(1, n + 1)))
    c_plus, c_minus, alice, bob = sites[:4]
    if symmetric is None:
        symmetric = draw(st.booleans())
    mirrors = []
    for swap in swaps:
        mirror = {v: v for v in range(1, n + 1)}
        mirror.update({sites[k]: sites[swap[k]] for k in range(4)})
        rest = sites[4:] if not mirrors else draw(st.permutations(sites[4:]))
        for k in range(draw(st.integers(0, len(rest) // 2))):
            u, v = rest[2 * k], rest[2 * k + 1]
            mirror[u], mirror[v] = v, u
        mirrors.append(mirror)
    edges = {(sites[k], sites[draw(st.integers(0, k - 1))]) for k in range(1, n)}
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=n)))
    while symmetric:  # until closed under the group the mirrors generate
        closed = edges | {(m[u], m[v]) for m in mirrors for u, v in edges}
        if closed == edges:
            break
        edges = closed
    edges = frozenset((min(u, v), max(u, v)) for u, v in edges if u != v)
    return Graph(n, edges, Roles(c_plus, c_minus, alice, bob)), symmetric


@given(protocol_graphs(symmetric=True))
@settings(max_examples=30, deadline=None)
def test_bell_amplitudes_equal_and_match_the_oracle_under_the_symmetry(drawn):
    g, _ = drawn
    result = full_evolve_compare(g, ORACLE_GRID)
    assert result.max_bell_asymmetry <= 1e-10
    assert result.max_amplitude_deviation <= 1e-9


#: random graphs, half of them closed under an exchange of Charlie's sites and one of
#: Alice's and Bob's: graphs with a trivial fold, and folds with signed and dropped states
ANY_OR_BOTH_SWAPS = st.one_of(protocol_graphs(),
                              protocol_graphs(symmetric=True, swaps=(SWAP_CHARLIE, SWAP_ENDS)))
#: graphs closed under an involution that fixes every role and pairs other sites: a
#: symmetry that moves no role, which the cells fold too
ROLE_FIXING = protocol_graphs(symmetric=True, swaps=((0, 1, 2, 3),))


def cell_isometry(g):
    """S for `measurement._quotient(g)` on the ordered pairs: column O is cell O's
    indicator times the quotient's own s_O."""
    cells, s, *_ = _quotient(g)
    iso = np.zeros((cells.size, s.size))
    iso[np.arange(cells.size), cells] = s[cells]
    return iso


def c_folds(g):
    """{parity: (fold, b)} of the two C blocks on the cells: the C-even block of
    `_c_blocks(g)`, and the C-odd one read off the quotient as T^T H_q T, T's column
    (e_X - e_CX)/sqrt2 per cell pair {X, CX} with X != CX (C maps each cell X onto a
    cell CX), X the cell of its least pair's |lo,hi>. b holds each
    fold's states on the unordered pairs of the C block: u_p = 1/sqrt|O| (C-even, |O| the
    unordered pairs of p's orbit state), or +-1/sqrt|X|, + where p's |lo,hi> lies in X
    (C-odd)."""
    n = g.n_vertices
    lo, hi = (np.array(x) for x in zip(*combinations(range(1, n + 1), 2)))
    cells, s, *_ = _quotient(g)
    forward, backward = cells[_pair_position(n, lo, hi)], cells[_pair_position(n, hi, lo)]
    [(even, label, _)] = _c_blocks(g, (1,))
    label = label[_pair_position(n, lo, hi)]  # each unordered pair's orbit state
    b_even = np.zeros((lo.size, even.shape[0]))
    b_even[np.arange(lo.size), label] = 1.0 / np.sqrt(np.bincount(label))[label]
    least = {}  # each cell pair {X, CX}, X != CX, by its least pair: (X, CX)
    for x, cx in zip(forward.tolist(), backward.tolist()):
        if x != cx:
            least.setdefault(frozenset((x, cx)), (x, cx))
    t = np.zeros((s.size, len(least)))
    b_odd = np.zeros((lo.size, len(least)))
    for o, (x, cx) in enumerate(least.values()):
        t[[x, cx], o] = np.sqrt(0.5), -np.sqrt(0.5)
        b_odd[forward == x, o], b_odd[forward == cx, o] = s[x], -s[x]
    return {1: (even, b_even), -1: (t.T @ quotient_matrix(g) @ t, b_odd)}


def fold_sizes(g):
    """(C-even, C-odd) fold sizes of `c_folds`, as `vf2_orbit_fold_sizes` counts them."""
    return tuple(c_folds(g)[parity][0].shape[0] for parity in (1, -1))


@given(st.one_of(ANY_OR_BOTH_SWAPS, ROLE_FIXING))
@settings(max_examples=60, deadline=None)
def test_folds_are_invariant_subspaces_of_the_oracle_restriction(drawn):
    # R, the 3^N Hamiltonian restricted to the pair sector (independent of the
    # reduced engine), keeps the span of the cells, R S = S (S^T R S), and its
    # quotient there is the engine's; and C maps each cell onto one cell
    g, _ = drawn
    r = sector_restriction(g)
    s = cell_isometry(g)
    assert np.max(np.abs(r @ s - s @ (s.T @ r @ s))) <= 1e-12
    assert np.max(np.abs(s.T @ r @ s - quotient_matrix(g))) <= 1e-12
    plus, minus = _pairs(g.n_vertices)
    cells = _pair_cells(g)
    images = cells[_pair_position(g.n_vertices, minus, plus)]
    assert len(set(zip(cells, images))) == cells.max() + 1


@given(st.one_of(ANY_OR_BOTH_SWAPS, ROLE_FIXING))
@settings(max_examples=60, deadline=None)
def test_folds_are_never_larger_than_the_vf2_orbit_fold(drawn):
    g, _ = drawn
    (even, odd), (orbit_even, orbit_odd) = fold_sizes(g), vf2_orbit_fold_sizes(g)
    assert even <= orbit_even and odd <= orbit_odd


#: two leaves, 6 and 7, on the non-role site 5 of the path 1-2-3-5-4; Charlie's
#: sites differ in degree, and so do Alice's and Bob's
TWO_LEAVES = Graph(7, frozenset({(1, 2), (2, 3), (3, 5), (4, 5), (5, 6), (5, 7)}),
                   Roles(1, 2, 3, 4))


def test_a_role_fixing_leaf_swap_folds_below_the_c_blocks():
    g = TWO_LEAVES
    assert all(vf2_protocol_automorphism(g, swap) is None for swap in ROLE_SWAPS)
    even, odd = fold_sizes(g)
    assert even < 21 and odd < 21  # N(N-1)/2: the C blocks unfolded
    assert (even, odd) == vf2_orbit_fold_sizes(g)
    e, psi0 = spectral_decompose(assemble_hamiltonian(g)), initial_state(g)
    grid = 0.37 * np.arange(200)
    curves = np.array(outcome_curves(g, psi0, grid))
    for k, t in enumerate(grid):
        d = outcome_distribution(evolve(e, psi0, float(t)), g)
        want = (d.pS_bell, d.p1, d.p2, d.p3, d.pS_projection)
        assert np.max(np.abs(curves[:, k] - want)) <= 1e-12
    t_star, p_star = one_shot_peak(g)
    assert abs(outcome_distribution(evolve(e, psi0, t_star), g).pS_bell - p_star) <= 1e-12


@given(ANY_OR_BOTH_SWAPS, st.floats(0.0, 50.0))
@settings(max_examples=40, deadline=None)
def test_planner_fold_keeps_the_planned_states_and_their_grid(drawn, t):
    # every strategy's grid, on the quotient's C blocks, against the full space's rows;
    # peak-success reads no p_U and scans p_U = 0
    g, _ = drawn
    iso = cell_isometry(g)
    e = spectral_decompose(assemble_hamiltonian(g))
    grp = _index_groups(g)
    rows = np.concatenate([grp["success"], grp["g2"], grp["g3"]])
    # the planner's window [0, 8N] in two kernel blocks, the last of two times
    grid = PLAN_WINDOW_FACTOR * g.n_vertices / (PHASE_BLOCK + 1) * np.arange(PHASE_BLOCK + 2)
    scans = {strategy: _grid_scan(g, strategy, grid) for strategy in Strategy}
    psi = evolve(e, initial_state(g), t)
    states = [initial_state(g)]
    if outcome_distribution(psi, g).p1 >= ZERO_PROB:
        states.append(post_state(psi, Outcome.PSI1, g))  # what the planner conditions on
    for state in states:
        assert np.max(np.abs(iso @ (iso.T @ state) - state)) <= 1e-12
        amp = _SpectralKernel(e, state, rows)(grid)
        p_s, p_u = 0.5 * np.abs(amp[0] + amp[1]) ** 2, np.sum(np.abs(amp[2:]) ** 2, axis=0)
        for strategy, scan in scans.items():
            got_s, got_u = scan(state)
            assert np.max(np.abs(got_s - p_s)) <= 1e-12
            assert np.max(np.abs(got_u - (0.0 if strategy is Strategy.PEAK_SUCCESS
                                          else p_u))) <= 1e-12


def assert_c_blocks_split_the_quotient(g):
    """`measurement._quotient_blocks` against the full H: H has no entry between a C-even
    orbit state and a C-odd one of `measurement._c_orbits` (unnormalised, so the sums are
    integers and exactly 0), the blocks have one eigenvalue per orbit state, and the
    concatenated eigenvectors on the pairs are orthonormal and satisfy H W = W Lambda."""
    orbit, sign = _c_orbits(g)
    pairs = np.arange(orbit.size)
    even = np.zeros((orbit.size, np.unique(orbit).size))
    even[pairs, np.unique(orbit, return_inverse=True)[1]] = 1.0
    signed = sign != 0
    odd = np.zeros((orbit.size, np.unique(orbit[signed]).size))
    odd[pairs[signed], np.unique(orbit[signed], return_inverse=True)[1]] = sign[signed]
    h = assemble_hamiltonian(g)
    assert not np.any(odd.T @ h @ even)
    assert [lam.size for lam, _ in _quotient_blocks(g)] == [even.shape[1], odd.shape[1]]
    e = _quotient_eigensystem(g)
    w = e.eigenvectors
    assert np.max(np.abs(w.T @ w - np.eye(w.shape[1]))) <= 1e-12
    assert np.max(np.abs(h @ w - w * e.eigenvalues)) <= 1e-12


@given(st.one_of(ANY_OR_BOTH_SWAPS, ROLE_FIXING))
@settings(max_examples=60, deadline=None)
def test_c_blocks_split_the_quotient(drawn):
    assert_c_blocks_split_the_quotient(drawn[0])


def test_c_blocks_split_the_quotient_without_a_role_exchange():
    g = Graph(*_load_topology_file(str(DATA / "no-role-exchange.txt")))
    assert all(vf2_protocol_automorphism(g, swap) is None for swap in ROLE_SWAPS)
    assert_c_blocks_split_the_quotient(g)


@given(protocol_graphs(), st.floats(0.0, 50.0))
@settings(max_examples=40, deadline=None)
def test_outcome_probabilities_sum_to_one(drawn, t):
    g, _ = drawn
    psi = evolve(spectral_decompose(assemble_hamiltonian(g)), initial_state(g), t)
    d = outcome_distribution(psi, g)
    probs = [d.p1, d.p2, d.p3, d.pS_projection]
    assert all(0.0 <= p <= 1.0 + 1e-12 for p in probs)
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)
    # p1 is the remainder of the other three; it must also be psi1's own weight
    weight_g1 = float(np.sum(np.abs(psi[_index_groups(g)["g1"]]) ** 2))
    assert d.p1 == pytest.approx(weight_g1, abs=1e-12)



@given(protocol_graphs(), st.floats(0.0, 50.0))
@settings(max_examples=30, deadline=None)
def test_no_call_changes_the_state_it_is_given(drawn, t):
    # states are plain arrays, so any in-place write would reach the caller
    g, _ = drawn
    e = spectral_decompose(assemble_hamiltonian(g))
    psi0 = initial_state(g)
    initial_state(g)[:] = np.nan  # each call builds a new array
    assert initial_state(g) is not psi0 and np.array_equal(initial_state(g), psi0)
    grid = 0.1 * np.arange(50)
    for state in (psi0, evolve(e, psi0, t)):
        kept = state.copy()
        evolve(e, state, t)
        if outcome_distribution(state, g).p1 >= ZERO_PROB:
            post_state(state, Outcome.PSI1, g)
        outcome_curves(g, state, grid)
        _SpectralKernel(e, state, _index_groups(g)["success"])(grid)
        assert state.tobytes() == kept.tobytes()
    # the chain of `plan_protocol2`: each conditional state is scanned, evolved,
    # measured and conditioned on, and must reach its chooser as it was made
    chooser = _step_chooser(g, Strategy.MAX_MARGIN, None, DEFAULT_GRID_STEP,
                            DEFAULT_REFINE_TOL)
    given_states = []

    def choose(psi, kernel):
        given_states.append((psi, psi.copy()))
        return chooser(psi, kernel)

    with suppress(RuntimeError):  # no success within the window at the first step
        list(islice(_protocol2_steps(g, partial(_SpectralKernel, e), choose), 3))
    assert given_states
    for psi, kept in given_states:
        assert psi.tobytes() == kept.tobytes()


def c_isometry_unscaled(n, parity):
    """sqrt2 B (parity +1) or sqrt2 D (-1): column {i,j}, i < j in lexicographic
    order, is |i,j> + parity |j,i>."""
    b = np.zeros((n * (n - 1), n * (n - 1) // 2))
    for k, (i, j) in enumerate(combinations(range(1, n + 1), 2)):
        b[[pair_index(n, i, j), pair_index(n, j, i)], k] = 1.0, parity
    return b


def role_exchanges(g):
    """The ordered-pair permutation U of one role exchange P per role permutation, as
    VF2 finds it: |i,j> -> |Pi,Pj>, then C where P exchanges Charlie's sites."""
    n = g.n_vertices
    plus, minus = _pairs(n)
    exchanges = []
    for swap in ROLE_SWAPS:
        mapping = vf2_protocol_automorphism(g, swap)
        if mapping is not None:
            u = np.zeros((plus.size, plus.size))
            for (i, j), (k, m) in pair_map(g, mapping, swap).items():
                u[pair_index(n, k, m), pair_index(n, i, j)] = 1.0
            exchanges.append(u)
    return exchanges


def assert_fold_is_the_projected_hamiltonian(g, parity):
    """The `c_folds` fold of that parity is symmetric and is B^T H_parity B, H_parity =
    D^T H D formed here from the full H, for its states B, whose columns are
    orthonormal and invariant under every role exchange, so they span no more than
    the block's invariant states. The C-even fold is exactly symmetric, and where
    nothing folds it is H+ in its orbit states' order, to the bit (`assert_unfolded`)."""
    h = assemble_hamiltonian(g)
    d = c_isometry_unscaled(g.n_vertices, parity)
    # D = d / sqrt2, d of +-1 entries: the two 1/sqrt2 make an exact 1/2
    h_block = 0.5 * (d.T @ h @ d)
    m, b = c_folds(g)[parity]
    assert np.max(np.abs(m - m.T)) <= (0.0 if parity == 1 else 1e-14)
    assert np.max(np.abs(b.T @ b - np.eye(m.shape[0])), initial=0.0) <= 1e-14
    exchanges = role_exchanges(g)
    for ex in exchanges:
        assert np.max(np.abs(ex @ d @ b - d @ b), initial=0.0) <= 1e-14
    if exchanges:
        assert m.shape[0] <= b.shape[0] - np.linalg.matrix_rank(np.vstack([ex @ d - d
                                                                           for ex in exchanges]))
    if parity == 1 and m.shape == h_block.shape:
        assert_unfolded(m, h_block, b)
    assert np.max(np.abs(m - b.T @ h_block @ b), initial=0.0) <= 1e-14


@given(ANY_OR_BOTH_SWAPS)
@settings(max_examples=100, deadline=None)
def test_c_even_block_is_the_projected_hamiltonian_and_c_commutes(drawn):
    g, _ = drawn
    n = g.n_vertices
    assert_fold_is_the_projected_hamiltonian(g, 1)
    h = assemble_hamiltonian(g)
    plus, minus = _pairs(n)
    c = np.array([pair_index(n, j, i) for i, j in zip(plus, minus)])
    assert np.array_equal(h[np.ix_(c, c)], h)


@given(ANY_OR_BOTH_SWAPS)
@settings(max_examples=100, deadline=None)
def test_c_odd_block_is_the_projected_hamiltonian(drawn):
    g, _ = drawn
    assert_fold_is_the_projected_hamiltonian(g, -1)


def exchange_matrix_edge_by_edge(g, label=None, weight=None):
    """H's nonzeros on the ordered pairs as a loop over the edges, one np.add.at scatter
    each, onto label[image], label[pair] (default the pairs themselves), each weighted by
    weight[image] weight[pair] (default 1)."""
    n = g.n_vertices
    plus, minus = _pairs(n)
    label = np.arange(plus.size) if label is None else label
    weight = np.ones(plus.size) if weight is None else weight
    h = np.zeros((label.max() + 1,) * 2)
    for (m, mm) in g.edges:
        ti = np.where(plus == m, mm, np.where(plus == mm, m, plus))
        tj = np.where(minus == m, mm, np.where(minus == mm, m, minus))
        moved = (ti != plus) | (tj != minus)
        image = _pair_position(n, ti[moved], tj[moved])
        np.add.at(h, (label[image], label[moved]), weight[image] * weight[moved])
    return h


@given(ANY_OR_BOTH_SWAPS)
@settings(max_examples=100, deadline=None)
def test_exchange_matrix_is_the_edge_by_edge_scatter_to_the_bit(drawn):
    # the entries are integer sums, signed in the C-odd block (then scaled alike), so the
    # order of the scatter cannot show: the full H, both C blocks of `_c_blocks` and the
    # cell quotient, built on coalesced keys, match the edge-by-edge scatter bit for bit
    g, _ = drawn
    assert np.array_equal(assemble_hamiltonian(g), exchange_matrix_edge_by_edge(g))
    for block, label, weight in _c_blocks(g):
        scale = 1.0 / np.sqrt(np.bincount(label[weight != 0]))
        by_edge = exchange_matrix_edge_by_edge(g, label, weight)
        assert np.array_equal(block, by_edge * np.outer(scale, scale))
    cells, s, *_ = _quotient(g)
    assert np.array_equal(quotient_matrix(g), exchange_matrix_edge_by_edge(g, cells)
                          * np.outer(s, s))


@given(ANY_OR_BOTH_SWAPS, st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_c_blocks_evolve_any_state_as_the_full_space_does(drawn, seed):
    g, _ = drawn
    n = g.n_vertices
    rng = np.random.default_rng(seed)
    a = rng.normal(size=n * (n - 1)) + 1j * rng.normal(size=n * (n - 1))
    iso = cell_isometry(g)
    a = iso @ (iso.T @ a)  # a random state on the cells
    psi0 = a / np.linalg.norm(a)
    grid = 0.37 * np.arange(258)  # up to t = 95: many Chebyshev spans, R |t - t0| <= 32 each
    e = spectral_decompose(assemble_hamiltonian(g))
    curves = np.array(outcome_curves(g, psi0, grid))
    for k, t in enumerate(grid):
        d = outcome_distribution(evolve(e, psi0, float(t)), g)
        want = (d.pS_bell, d.p1, d.p2, d.p3, d.pS_projection)
        assert np.max(np.abs(curves[:, k] - want)) <= 1e-12


def full_space_regular_chain(g, tau, n_max):
    """`plan_regular`'s chain stepped on the full space: `evolve`, `outcome_distribution`
    and `post_state` on psi1, up to n_max steps or one that leaves psi1 no weight."""
    e = spectral_decompose(assemble_hamiltonian(g))
    psi, steps = initial_state(g), []
    while len(steps) < n_max:
        phi = evolve(e, psi, tau)
        steps.append(outcome_distribution(phi, g))
        if steps[-1].p1 < ZERO_PROB:
            break
        psi = post_state(phi, Outcome.PSI1, g)
    return steps


def assert_regular_schedule_is_the_full_space_chain(g, tau, n_max):
    sched = plan_regular(g, tau, n_max)
    full = full_space_regular_chain(g, tau, n_max)
    assert len(sched) == len(full)
    for step, want in zip(sched, full):
        assert step.time == tau
        assert max(abs(getattr(step, f.name) - getattr(want, f.name))
                   for f in fields(OutcomeDistribution)) <= 1e-12


@given(ANY_OR_BOTH_SWAPS, st.floats(0.05, 50.0), st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_regular_schedule_on_the_folds_is_the_full_space_chain(drawn, tau, n_max):
    g, _ = drawn
    assert_regular_schedule_is_the_full_space_chain(g, tau, n_max)


def test_regular_schedule_without_a_role_exchange_is_the_full_space_chain():
    g = Graph(*_load_topology_file(str(DATA / "no-role-exchange.txt")))
    assert all(vf2_protocol_automorphism(g, swap) is None for swap in ROLE_SWAPS)
    for tau in (0.7, 2.5, 9.1):
        assert_regular_schedule_is_the_full_space_chain(g, tau, 10)


@given(st.one_of(ANY_OR_BOTH_SWAPS, ROLE_FIXING), st.lists(st.floats(0.05, 30.0), min_size=1,
                                                          max_size=3))
@settings(max_examples=40, deadline=None)
def test_quotient_chain_unfolds_to_the_full_space_chain(drawn, times):
    # a conditional chain on psi1: at each state, the planner's grid, the --tau kernel
    # and `scan`'s readout, all on the cell quotient, against the full space
    g, _ = drawn
    e = spectral_decompose(assemble_hamiltonian(g))
    grp = _index_groups(g)
    rows = np.concatenate([grp["success"], grp["g2"], grp["g3"]])
    grid = 0.05 * np.arange(400)
    scan, lifted = _grid_scan(g, Strategy.MIN_LOSS, grid), _quotient_eigensystem(g)
    psi = initial_state(g)
    for t in times:
        amp = _SpectralKernel(e, psi, rows)(grid)
        p_s, p_u = scan(psi)
        assert np.max(np.abs(p_s - 0.5 * np.abs(amp[0] + amp[1]) ** 2)) <= 1e-12
        assert np.max(np.abs(p_u - np.sum(np.abs(amp[2:]) ** 2, axis=0))) <= 1e-12
        phi = evolve(e, psi, t)
        assert np.max(np.abs(evolve(lifted, psi, t) - phi)) <= 1e-12
        d = outcome_distribution(phi, g)
        curves = np.array(outcome_curves(g, psi, [0.0, t]))[:, 1]
        assert np.max(np.abs(curves - (d.pS_bell, d.p1, d.p2, d.p3, d.pS_projection))) <= 1e-12
        if d.p1 < ZERO_PROB:
            break
        psi = post_state(phi, Outcome.PSI1, g)


@given(protocol_graphs(symmetric=True, swaps=(SWAP_CHARLIE, SWAP_ENDS)),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_outcome_curves_refuse_a_state_the_folds_cannot_hold(drawn, seed):
    g, _ = drawn
    n = g.n_vertices
    rng = np.random.default_rng(seed)
    a = rng.normal(size=n * (n - 1)) + 1j * rng.normal(size=n * (n - 1))
    with pytest.raises(ValueError, match="not invariant"):
        outcome_curves(g, a / np.linalg.norm(a), [0.0, 0.1])


#: grids of `outcome_curves`: an even one, step 0.05 over [0, 10], and an uneven one
#: whose last three points lie 50 past the others, reached through a step of no grid point
CURVE_GRIDS = {"even": dynamics._time_grid(10.0, 0.05),
               "gap": np.concatenate([np.sort(np.random.default_rng(2).uniform(0.0, 10.0, 60)),
                                      [60.0, 60.3, 59.9]])}


def assert_outcome_curves_are_the_spectral_ones(g):
    """`outcome_curves` from the initial state against the pair amplitudes of the quotient
    eigensystem's scalar path, one time at a time: all five curves within 1e-12, p1
    read on psi1's own pairs, where `outcome_curves` prints the remainder."""
    kernel = _SpectralKernel(_quotient_eigensystem(g), initial_state(g))
    grp = _index_groups(g)
    ba, ab = grp["success"]
    for name, grid in CURVE_GRIDS.items():
        with patch.object(dynamics, "_chebyshev_step", wraps=dynamics._chebyshev_step) as step:
            got = np.array(outcome_curves(g, initial_state(g), grid))
        assert (step.call_count > 0) == (name == "gap")
        amps = np.array([kernel(t) for t in grid.tolist()]).T
        weight = {rows: np.sum(np.abs(amps[grp[rows]]) ** 2, axis=0) for rows in grp}
        want = [0.5 * np.abs(amps[ba] + amps[ab]) ** 2, weight["g1"], weight["g2"],
                weight["g3"], weight["success"]]
        assert np.max(np.abs(got - want)) <= 1e-12


@given(ANY_OR_BOTH_SWAPS)
@settings(max_examples=30, deadline=None)
def test_outcome_curves_are_the_quotient_eigensystem_curves(drawn):
    assert_outcome_curves_are_the_spectral_ones(drawn[0])


@pytest.mark.parametrize("name", ["no-role-exchange", "random-36"])
def test_outcome_curves_are_the_quotient_eigensystem_curves_on_named_graphs(name):
    # random-36 is the seeded graph of the benchmark's second `scan` op
    from test_topology import named_graph
    g = (Graph(*_load_topology_file(str(DATA / "no-role-exchange.txt")))
         if name == "no-role-exchange" else named_graph(name))
    assert_outcome_curves_are_the_spectral_ones(g)


def pair_orbits(g):
    """The orbits of the unordered pairs {i,j}, i < j, under one role exchange per
    role permutation, as VF2 finds them, as sets of lexicographic positions, by a
    breadth-first closure of each pair under the mappings."""
    pairs = list(combinations(range(1, g.n_vertices + 1), 2))
    where = {pair: k for k, pair in enumerate(pairs)}
    maps = [m for m in (vf2_protocol_automorphism(g, swap) for swap in ROLE_SWAPS)
            if m is not None]
    orbits, seen = [], set()
    for k in range(len(pairs)):
        if k in seen:
            continue
        orbit = [k]
        for q in orbit:
            for m in maps:
                i, j = pairs[q]
                image = where[tuple(sorted((m[i - 1], m[j - 1])))]
                if image not in orbit:
                    orbit.append(image)
        seen.update(orbit)
        orbits.append(set(orbit))
    return orbits


def assert_unfolded(fold, h_plus, b):
    """Where nothing folds, b (unordered pairs x orbit states) is a permutation and each
    orbit state holds one pair's |i,j> and |j,i>: the C-even block is H+ in the states'
    order, to the bit, as the builder rounds it, its counts 2 H+ (exact) scaled once by
    s^2, s = 1/sqrt2 of the state's two pairs."""
    s = 1.0 / np.sqrt(2.0)
    assert np.array_equal(fold, 2 * (b.T @ h_plus @ b) * (s * s))


def assert_role_block_is_the_folded_c_even_block(g, on_the_orbits=False):
    """The C-even block of `_c_blocks` is B^T H+ B on its own states, each a union of the
    role exchanges' pair orbits (exactly those orbits if on_the_orbits)."""
    n = g.n_vertices
    b = c_isometry_unscaled(n, 1)
    h = assemble_hamiltonian(g)
    h_plus = 0.5 * (b.T @ h @ b)  # exact, as above
    [(fold, label, _)] = _c_blocks(g, (1,))
    assert np.array_equal(fold, fold.T)
    plus, minus = _pairs(n)
    assert np.array_equal(label, label[_pair_position(n, minus, plus)])  # C keeps each state
    unordered = label[[pair_index(n, i, j) for i, j in combinations(range(1, n + 1), 2)]]
    states = [set(np.flatnonzero(unordered == o)) for o in range(fold.shape[0])]
    orbits = pair_orbits(g)
    assert all(len({unordered[k] for k in orbit}) == 1 for orbit in orbits)
    if on_the_orbits:
        assert sorted(orbits, key=min) == sorted(states, key=min)
    ordered = np.zeros((label.size, fold.shape[0]))  # the states on the pairs, unscaled
    ordered[np.arange(label.size), label] = 1.0
    s = 1.0 / np.sqrt(ordered.sum(axis=0))
    # B^T H B with B = ordered diag(s): integer sums, then one exact scaling each
    assert np.array_equal(fold, (ordered.T @ h @ ordered) * np.outer(s, s))
    b = np.zeros((h_plus.shape[0], len(states)))  # the states on the pairs {i,j}, unscaled
    b[np.arange(unordered.size), unordered] = 1.0
    s = 1.0 / np.sqrt(b.sum(axis=0))
    assert np.max(np.abs(fold - (b * s).T @ h_plus @ (b * s))) <= 1e-14
    if fold.shape == h_plus.shape:  # nothing folds
        assert_unfolded(fold, h_plus, b)
    r = g.roles
    for u, v in ((r.charlie_plus, r.charlie_minus), (r.alice, r.bob)):
        assert np.sum(label == label[pair_index(n, u, v)]) == 2  # |u,v> and |v,u> alone
    return fold, h_plus


@given(st.one_of(ANY_OR_BOTH_SWAPS, ROLE_FIXING))
@settings(max_examples=100, deadline=None)
def test_role_block_is_the_c_even_block_on_pair_orbits(drawn):
    assert_role_block_is_the_folded_c_even_block(drawn[0])


@pytest.mark.parametrize("family,n,dim", [("loop", 36, 171), ("cross", 35, 290),
                                          ("loop", 8, 10), ("cross", 9, 17)])
def test_role_block_of_the_built_in_families(family, n, dim):
    # Burnside over {1, P, Q, PQ}: the pairs each fixes, averaged. The loop's
    # P and Q are reflections and PQ the half turn, each fixing N/2 pairs; on
    # the cross P = (1 2) fixes C(N-2, 2) + 1 pairs, Q (the arm swap) 3 + (N-3)/2
    # and PQ (N-1)/2. loop-36: (630 + 3*18)/4; cross-35: (595 + 529 + 19 + 17)/4.
    g = build_cross(n) if family == "cross" else build_loop(n)
    fold, _ = assert_role_block_is_the_folded_c_even_block(g, on_the_orbits=True)
    assert fold.shape == (dim, dim)


#: (C-even, C-odd) fold sizes of the cells of the built-in families (`c_folds`)
C_FOLD_SIZES = {("loop", 36): (171, 162), ("cross", 35): (290, 18), ("loop", 8): (10, 8),
                ("cross", 5): (5, 3), ("loop", 4): (3, 2)}


@pytest.mark.parametrize("family,n,dim", [("loop", 36, 333), ("cross", 35, 308),
                                          ("loop", 8, 18), ("cross", 5, 8), ("loop", 4, 5)])
def test_planner_fold_of_the_built_in_families(family, n, dim):
    # dim is the number of cells, the size of the quotient that `scan`, --tau and the
    # planner's grid read, which the two C folds split exactly
    g = build_cross(n) if family == "cross" else build_loop(n)
    cells, s, *_ = _quotient(g)
    assert cells.size == n * (n - 1) and s.size == dim
    sizes = fold_sizes(g)
    assert sizes == C_FOLD_SIZES[(family, n)]
    assert sum(sizes) == dim
    assert tuple(lam.size for lam, _ in _quotient_blocks(g)) == sizes  # the planner's blocks


def test_role_block_without_a_role_exchange_is_the_c_even_block():
    # no automorphism of the 7-site graph moves a role or fixes them all: no fold, so
    # the block is H+ in its states' order, to the bit (`assert_unfolded`)
    g = Graph(*_load_topology_file(str(DATA / "no-role-exchange.txt")))
    assert vf2_orbit_fold_sizes(g) == (21, 21)
    fold, h_plus = assert_role_block_is_the_folded_c_even_block(g)
    assert fold.shape == h_plus.shape == (21, 21)


def assert_one_builder(g):
    """`one_shot_peak` diagonalises the C-even block of `measurement._quotient_blocks`,
    which the planner's grid, --tau and `verify` read: the same eigenvalues, to the bit."""
    built = []

    def recording(h):
        built.append(spectral_decompose(h))
        return built[-1]

    with patch.object(dynamics, "spectral_decompose", recording):
        one_shot_peak(g)
    [(even, _)] = _quotient_blocks(g, (1,))
    assert len(built) == 1
    assert np.array_equal(built[0].eigenvalues, even)
    assert np.array_equal(_quotient_eigensystem(g).eigenvalues[:even.size], even)


@given(st.one_of(ANY_OR_BOTH_SWAPS, ROLE_FIXING))
@settings(max_examples=60, deadline=None)
def test_one_shot_peak_reads_the_planners_c_even_block(drawn):
    assert_one_builder(drawn[0])


@pytest.mark.parametrize("family,n", [("loop", 36), ("cross", 35)])
def test_one_shot_peak_reads_the_planners_c_even_block_of_the_largest_systems(family, n):
    assert_one_builder(build_cross(n) if family == "cross" else build_loop(n))


def test_folds_of_the_seeded_36_site_graph_are_invariant():
    # the graph of `scan`'s second op: no role exchange, two role-fixing leaf swaps
    from test_topology import named_graph
    g = named_graph("random-36")
    assert fold_sizes(g) == (563, 561)
    h = assemble_hamiltonian(g)
    s = cell_isometry(g)
    assert np.max(np.abs(h @ s - s @ (s.T @ h @ s))) <= 1e-12
    assert np.max(np.abs(s.T @ h @ s - quotient_matrix(g))) <= 1e-12


def assert_block_peak_matches_find_peak(block, full, refine_tol=DEFAULT_REFINE_TOL):
    assert abs(block[1] - full[1]) <= 1e-12
    assert abs(block[0] - full[0]) <= refine_tol


@given(st.one_of(protocol_graphs(), protocol_graphs(symmetric=True,
                                                    swaps=(SWAP_CHARLIE, SWAP_ENDS))))
@settings(max_examples=60, deadline=None)
def test_block_peak_matches_the_full_space_peak(drawn):
    g, _ = drawn
    full = find_peak(spectral_decompose(assemble_hamiltonian(g)), initial_state(g), g)
    assert_block_peak_matches_find_peak(one_shot_peak(g), full)


@pytest.mark.parametrize("family,n", [("cross", n) for n in range(5, 36, 2)]
                         + [("loop", n) for n in range(4, 37, 4)])
def test_tables_systems_block_peak_and_protocol1_output(family, n, capsys):
    full = peak(family, n)
    g = build_cross(n) if family == "cross" else build_loop(n)
    assert_block_peak_matches_find_peak(one_shot_peak(g), full)

    assert main(["protocol1", "--topology", family, "--n-list", str(n),
                 "--no-timestamp"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()
            if line[:1].isdigit()]
    assert len(rows) == len(QUANTILES) + 10  # the default --n-max
    counts = tuple(int(row[2]) for row in rows[:len(QUANTILES)])
    series = [float(row[2]) for row in rows[len(QUANTILES):]]
    # the counts and series the acceptance gate takes from the full-space peak,
    # and its reference rows where the gate holds them consistent
    assert counts == tuple(protocol1_required(full[1], q) for q in QUANTILES)
    assert max(abs(p - protocol1_cumulative(full[1], k + 1))
               for k, p in enumerate(series)) <= 1e-9
    table = TABLE_CROSS_COUNTS if family == "cross" else TABLE_LOOP_COUNTS
    if _count_marks(family, n) == ():
        assert counts == table[n]
    if (family, n) in REPEAT_RESET_COLUMNS and _repeat_marks(family, n) == ():
        column = REPEAT_RESET_COLUMNS[(family, n)]
        assert max(abs(p - want) for p, want in zip(series, column)) < 1e-3


#: a float flag: special values, negatives, or a moderate range small enough
#: that every command on loop-4 and cross-5 stays well under a second
FLOAT_FLAG = st.one_of(st.none(),
                       st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0,
                                        1e-300, 1e300]),
                       st.floats(-30.0, -1e-3),
                       st.floats(0.05, 20.0))
FLAGS = {"scan": ("t-max", "grid-step"),
         "peaks": ("t-max", "grid-step", "refine-tol"),
         "protocol1": ("t-max", "grid-step", "refine-tol", "n-max"),
         "protocol2": ("t-max", "grid-step", "refine-tol", "tau", "n-max"),
         "verify": ("t-max", "grid-step")}


@st.composite
def fuzzed_argv(draw):
    """argv of one command with some of its numeric flags drawn.

    --n-max stays small: protocol-1 writes one row per step and protocol-2
    plans one grid scan per step.
    """
    command = draw(st.sampled_from(sorted(FLAGS)))
    topology, n = draw(st.sampled_from([("loop", "4"), ("cross", "5")]))
    size = ["--n-list", n] if command in ("peaks", "protocol1") else ["--n", n]
    argv = [command, "--topology", topology, *size, "--no-timestamp"]
    for flag in FLAGS[command]:
        value = draw(st.one_of(st.none(), st.integers(-3, 12)) if flag == "n-max"
                     else FLOAT_FLAG)
        if value is not None:
            argv.append(f"--{flag}={value!r}")
    return argv


@given(fuzzed_argv())
@settings(max_examples=100, deadline=None)
def test_fuzzed_numeric_flags_end_in_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with time_budget(5), redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert out.getvalue()
