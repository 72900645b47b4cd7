"""Properties on random connected graphs with N <= 7 and random roles.

Half of the drawn graphs are built to carry the protocol symmetry: the
edges are closed under an involution that exchanges Charlie's two sites,
fixes Alice's and Bob's and pairs some of the other sites at random. The
rest are plain random graphs, which rarely have it.

The C-even block of the one-shot peak is checked on the same graphs and on
the 25 systems of the protocol-1 tables; both C blocks folded by the role
exchanges, the states they hold and the outcome curves that `scan` and the
planner read from them, on the same graphs. The last property fuzzes the
CLI's numeric flags on loop-4 and cross-5.
"""

import io
import math
from contextlib import redirect_stderr, redirect_stdout, suppress
from itertools import combinations, islice, permutations
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import peak, time_budget
from qutrit_bell import (Graph, Roles, assemble_hamiltonian, build_cross, build_loop,
                         dynamics, evolve, find_peak, find_protocol_automorphism,
                         initial_state, one_shot_peak, outcome_distribution,
                         protocol1_cumulative, protocol1_required, spectral_decompose)
from qutrit_bell.cli import main
from qutrit_bell.dynamics import (DEFAULT_GRID_STEP, DEFAULT_REFINE_TOL, FULL_STATE_BLOCK,
                                  PHASE_BLOCK, _index_groups, _pairs, _role_fold,
                                  _unordered_position, amplitude_rows, pair_index)
from qutrit_bell.measurement import ZERO_PROB, Outcome, outcome_curves, post_state
from qutrit_bell.oracle import full_evolve_compare
from qutrit_bell.protocols import (PLAN_WINDOW_FACTOR, Strategy, _grid_scan, _protocol2_steps,
                                   _step_chooser)
from qutrit_bell.topology import ROLE_SWAPS, SWAP_CHARLIE, SWAP_ENDS
from test_acceptance import (QUANTILES, REPEAT_RESET_COLUMNS, TABLE_CROSS_COUNTS,
                             TABLE_LOOP_COUNTS, _count_marks, _repeat_marks)

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


def is_protocol_automorphism(g, perm):
    r = g.roles
    return ({(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g.edges}
            == set(g.edges)
            and (perm[r.charlie_plus], perm[r.charlie_minus]) == (r.charlie_minus,
                                                                  r.charlie_plus)
            and perm[r.alice] == r.alice and perm[r.bob] == r.bob)


def brute_force_automorphisms(g):
    """Every vertex map that exchanges Charlie's sites, fixes Alice's and Bob's
    and is a graph automorphism, by trying all maps of the other sites."""
    r = g.roles
    others = [v for v in range(1, g.n_vertices + 1) if v not in r.as_tuple()]
    found = []
    for image in permutations(others):
        perm = dict(zip(others, image))
        perm.update({r.charlie_plus: r.charlie_minus, r.charlie_minus: r.charlie_plus,
                     r.alice: r.alice, r.bob: r.bob})
        if is_protocol_automorphism(g, perm):
            found.append(perm)
    return found


@given(protocol_graphs())
@settings(max_examples=100, deadline=None)
def test_automorphism_search_agrees_with_brute_force(drawn):
    g, symmetric = drawn
    mapping = find_protocol_automorphism(g)
    assert (mapping is not None) == bool(brute_force_automorphisms(g))
    if symmetric:
        assert mapping is not None
    if mapping is not None:
        perm = {v: mapping[v - 1] for v in range(1, g.n_vertices + 1)}
        assert sorted(perm.values()) == list(range(1, g.n_vertices + 1))
        assert is_protocol_automorphism(g, perm)


@given(protocol_graphs(symmetric=True))
@settings(max_examples=30, deadline=None)
def test_bell_amplitudes_equal_and_match_the_oracle_under_the_symmetry(drawn):
    g, _ = drawn
    result = full_evolve_compare(g, ORACLE_GRID)
    assert result.max_bell_asymmetry <= 1e-10
    assert result.max_amplitude_deviation <= 1e-9


#: random graphs, half of them closed under an exchange of Charlie's sites and one of
#: Alice's and Bob's: graphs with a trivial fold, and folds with signed and dropped orbits
ANY_OR_BOTH_SWAPS = st.one_of(protocol_graphs(),
                              protocol_graphs(symmetric=True, swaps=(SWAP_CHARLIE, SWAP_ENDS)))


def fold_isometry(g, parity):
    """S for `_role_fold(g, parity)` on the ordered pairs: column O is the orbit state
    sum_p u_p (|i,j> + parity |j,i>)/sqrt2, from the fold's own signed indicator."""
    _, label, u = _role_fold(g, parity)
    b = np.zeros((label.size, label.max() + 1))
    b[np.arange(label.size), label] = u
    return c_isometry_unscaled(g.n_vertices, parity) @ b / np.sqrt(2)


def both_folds_isometry(g):
    return np.hstack([fold_isometry(g, parity) for parity in (1, -1)])


@given(ANY_OR_BOTH_SWAPS, st.floats(0.0, 50.0))
@settings(max_examples=40, deadline=None)
def test_planner_fold_keeps_the_planned_states_and_their_grid(drawn, t):
    g, _ = drawn
    iso = both_folds_isometry(g)
    e = spectral_decompose(assemble_hamiltonian(g))
    grp = _index_groups(g)
    rows = np.concatenate([grp["success"], grp["g2"], grp["g3"]])
    # the planner's window [0, 8N] in two kernel blocks, the last of two times
    grid = PLAN_WINDOW_FACTOR * g.n_vertices / (PHASE_BLOCK + 1) * np.arange(PHASE_BLOCK + 2)
    scan = _grid_scan(g, Strategy.MIN_LOSS, grid)
    psi = evolve(e, initial_state(g), t)
    states = [initial_state(g)]
    if outcome_distribution(psi, g).p1 >= ZERO_PROB:
        states.append(post_state(psi, Outcome.PSI1, g))  # what the planner conditions on
    for state in states:
        assert np.max(np.abs(iso @ (iso.T @ state) - state)) <= 1e-12
        amp = amplitude_rows(e, state, rows, grid)
        p_s, p_u = scan(state)
        assert np.max(np.abs(p_s - 0.5 * np.abs(amp[0] + amp[1]) ** 2)) <= 1e-12
        assert np.max(np.abs(p_u - np.sum(np.abs(amp[2:]) ** 2, axis=0))) <= 1e-12


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
        amplitude_rows(e, state, _index_groups(g)["success"], grid)
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
        list(islice(_protocol2_steps(g, e, choose), 3))
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
    """The ordered-pair permutation U of each role exchange P the graph has:
    |i,j> -> |Pi,Pj>, then C where P exchanges Charlie's sites."""
    n, r = g.n_vertices, g.roles
    plus, minus = _pairs(n)
    exchanges = []
    for mapping in (find_protocol_automorphism(g, swap) for swap in ROLE_SWAPS):
        if mapping is not None:
            p = np.array((0, *mapping))
            i, j = ((p[minus], p[plus]) if p[r.charlie_plus] == r.charlie_minus
                    else (p[plus], p[minus]))
            u = np.zeros((plus.size, plus.size))
            u[[pair_index(n, k, l) for k, l in zip(i, j)], np.arange(plus.size)] = 1.0
            exchanges.append(u)
    return exchanges


def assert_fold_is_the_projected_hamiltonian(g, parity):
    """`_role_fold(g, parity)` is exactly symmetric and is B^T H_parity B, H_parity =
    D^T H D formed here from the full H, for its signed indicator B, whose columns are
    orthonormal, invariant under every role exchange and span every invariant state
    of the block. With no exchange it is H_parity to the bit."""
    h = assemble_hamiltonian(g)
    d = c_isometry_unscaled(g.n_vertices, parity)
    # D = d / sqrt2, d of +-1 entries: the two 1/sqrt2 make an exact 1/2
    h_block = 0.5 * (d.T @ h @ d)
    m, label, u = _role_fold(g, parity)
    assert np.array_equal(m, m.T)
    b = np.zeros((label.size, m.shape[0]))
    b[np.arange(label.size), label] = u
    assert np.max(np.abs(b.T @ b - np.eye(m.shape[0]))) <= 1e-14
    exchanges = role_exchanges(g)
    for ex in exchanges:
        assert np.max(np.abs(ex @ d @ b - d @ b)) <= 1e-14
    if exchanges:
        assert m.shape[0] == label.size - np.linalg.matrix_rank(np.vstack([ex @ d - d
                                                                           for ex in exchanges]))
    else:
        assert np.array_equal(m, h_block)
    assert np.max(np.abs(m - b.T @ h_block @ b)) <= 1e-14


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


def exchange_matrix_edge_by_edge(g, plus, minus, position, parity=1, label=None, sign=None):
    """`dynamics._exchange_matrix` as a loop over the edges, one np.add.at scatter each."""
    label = np.arange(plus.size) if label is None else label
    sign = np.ones(plus.size) if sign is None else sign
    h = np.zeros((label.max() + 1,) * 2)
    for (m, mm) in g.edges:
        ti = np.where(plus == m, mm, np.where(plus == mm, m, plus))
        tj = np.where(minus == m, mm, np.where(minus == mm, m, minus))
        moved = (ti != plus) | (tj != minus)
        ti, tj = ti[moved], tj[moved]
        image = position(ti, tj)
        np.add.at(h, (label[image], label[moved]),
                  np.where(ti > tj, parity, 1.0) * sign[image] * sign[moved])
    return h


@given(ANY_OR_BOTH_SWAPS)
@settings(max_examples=100, deadline=None)
def test_exchange_matrix_is_the_edge_by_edge_scatter_to_the_bit(drawn):
    # the entries are integer sums (then scaled alike), so the order of the
    # scatter cannot show: the full H and both signed folds match bit for bit
    g, _ = drawn
    built = [assemble_hamiltonian(g), *(_role_fold(g, p) for p in (1, -1))]
    with patch.object(dynamics, "_exchange_matrix", exchange_matrix_edge_by_edge):
        reference = [assemble_hamiltonian(g), *(_role_fold(g, p) for p in (1, -1))]
    assert np.array_equal(built[0], reference[0])
    for (h, label, u), (h_ref, label_ref, u_ref) in zip(built[1:], reference[1:]):
        assert np.array_equal(h, h_ref)
        assert np.array_equal(label, label_ref) and np.array_equal(u, u_ref)


@given(ANY_OR_BOTH_SWAPS, st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_c_blocks_evolve_any_state_as_the_full_space_does(drawn, seed):
    g, _ = drawn
    n = g.n_vertices
    rng = np.random.default_rng(seed)
    a = rng.normal(size=n * (n - 1)) + 1j * rng.normal(size=n * (n - 1))
    iso = both_folds_isometry(g)
    a = iso @ (iso.T @ a)  # a random state the role exchanges keep
    psi0 = a / np.linalg.norm(a)
    grid = 0.37 * np.arange(FULL_STATE_BLOCK + 2)  # two kernel blocks, the last of two times
    e = spectral_decompose(assemble_hamiltonian(g))
    curves = np.array(outcome_curves(g, psi0, grid))
    for k, t in enumerate(grid):
        d = outcome_distribution(evolve(e, psi0, float(t)), g)
        want = (d.pS_bell, d.p1, d.p2, d.p3, d.pS_projection)
        assert np.max(np.abs(curves[:, k] - want)) <= 1e-12


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


def pair_orbits(g):
    """The orbits of the unordered pairs {i,j}, i < j, under the role
    exchanges the graph has, as sets of lexicographic positions, by a
    breadth-first closure of each pair under the searched mappings."""
    pairs = list(combinations(range(1, g.n_vertices + 1), 2))
    where = {pair: k for k, pair in enumerate(pairs)}
    maps = [m for m in (find_protocol_automorphism(g, swap) for swap in ROLE_SWAPS)
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


def assert_role_block_is_the_folded_c_even_block(g):
    b = c_isometry_unscaled(g.n_vertices, 1)
    h_plus = 0.5 * (b.T @ assemble_hamiltonian(g) @ b)  # exact, as above
    fold, label, _ = _role_fold(g, 1)
    assert np.array_equal(fold, fold.T)
    orbits = pair_orbits(g)
    assert sorted(orbits, key=min) == [set(np.flatnonzero(label == o)) for o in range(len(orbits))]
    b = np.zeros((h_plus.shape[0], len(orbits)))  # the orbit isometry, unscaled
    b[np.arange(label.size), label] = 1.0
    s = 1.0 / np.sqrt(b.sum(axis=0))
    # B^T H+ B with B = b diag(s): integer sums, then one exact scaling each
    assert np.array_equal(fold, (b.T @ h_plus @ b) * np.outer(s, s))
    assert np.max(np.abs(fold - (b * s).T @ h_plus @ (b * s))) <= 1e-14
    r = g.roles
    for u, v in ((r.charlie_plus, r.charlie_minus), (r.alice, r.bob)):
        assert np.sum(label == label[_unordered_position(g.n_vertices, u, v)]) == 1
    return fold, h_plus


@given(ANY_OR_BOTH_SWAPS)
@settings(max_examples=100, deadline=None)
def test_role_block_is_the_c_even_block_on_pair_orbits(drawn):
    g, _ = drawn
    fold, h_plus = assert_role_block_is_the_folded_c_even_block(g)
    if fold.shape == h_plus.shape:  # no role exchange: no fold, to the bit
        assert np.array_equal(fold, h_plus)


@pytest.mark.parametrize("family,n,dim", [("loop", 36, 171), ("cross", 35, 290),
                                          ("loop", 8, 10), ("cross", 9, 17)])
def test_role_block_of_the_built_in_families(family, n, dim):
    # Burnside over {1, P, Q, PQ}: the pairs each fixes, averaged. The loop's
    # P and Q are reflections and PQ the half turn, each fixing N/2 pairs; on
    # the cross P = (1 2) fixes C(N-2, 2) + 1 pairs, Q (the arm swap) 3 + (N-3)/2
    # and PQ (N-1)/2. loop-36: (630 + 3*18)/4; cross-35: (595 + 529 + 19 + 17)/4.
    g = build_cross(n) if family == "cross" else build_loop(n)
    fold, _ = assert_role_block_is_the_folded_c_even_block(g)
    assert fold.shape == (dim, dim)


#: (C-even, C-odd) fold sizes of the planner's and `scan`'s two blocks
C_FOLD_SIZES = {("loop", 36): (171, 162), ("cross", 35): (290, 18), ("loop", 8): (10, 8),
                ("cross", 5): (5, 3), ("loop", 4): (3, 2)}


@pytest.mark.parametrize("family,n,dim", [("loop", 36, 333), ("cross", 35, 308),
                                          ("loop", 8, 18), ("cross", 5, 8), ("loop", 4, 5)])
def test_planner_fold_of_the_built_in_families(family, n, dim):
    # dim is the size of the fold of H on the ordered pairs, which the two C folds
    # split exactly
    g = build_cross(n) if family == "cross" else build_loop(n)
    sizes = []
    for parity in (1, -1):
        fold, label, u = _role_fold(g, parity)
        assert label.size == u.size == n * (n - 1) // 2
        sizes.append(fold.shape[0])
    assert tuple(sizes) == C_FOLD_SIZES[(family, n)]
    assert sum(sizes) == dim


def test_role_block_without_a_role_exchange_is_the_c_even_block():
    from test_topology import named_graph  # the seeded 36-site graph of `scan`
    g = named_graph("random-36")
    assert all(find_protocol_automorphism(g, swap) is None for swap in ROLE_SWAPS)
    b = c_isometry_unscaled(g.n_vertices, 1)
    assert np.array_equal(_role_fold(g, 1)[0],
                          0.5 * (b.T @ assemble_hamiltonian(g) @ b))


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
FLAGS = {"scan": ("t-max", "grid-step", "refine-tol"),
         "peaks": ("t-max", "grid-step", "refine-tol"),
         "protocol1": ("t-max", "grid-step", "refine-tol", "n-max"),
         "protocol2": ("t-max", "grid-step", "refine-tol", "tau", "n-max"),
         "verify": ("t-max", "grid-step", "refine-tol")}


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
