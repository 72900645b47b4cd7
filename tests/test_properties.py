"""Properties on random connected graphs with N <= 7 and random roles.

Half of the drawn graphs are built to carry the protocol symmetry: the
edges are closed under an involution that exchanges Charlie's two sites,
fixes Alice's and Bob's and pairs some of the other sites at random. The
rest are plain random graphs, which rarely have it.
"""

from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qutrit_bell import (Graph, Roles, assemble_hamiltonian, evolve,
                         find_protocol_automorphism, initial_state,
                         outcome_distribution, spectral_decompose)
from qutrit_bell.dynamics import _index_groups
from qutrit_bell.oracle import full_evolve_compare

#: a few uneven times; the oracle steps through them one Chebyshev step each
ORACLE_GRID = [0.0, 0.37, 1.3, 2.9, 6.1]


@st.composite
def protocol_graphs(draw, symmetric=None):
    """(graph, symmetric): a connected graph on 4..7 sites with random roles.

    A random spanning tree plus random extra edges; when symmetric, both
    are closed under a random involution that exchanges Charlie's sites.
    """
    n = draw(st.integers(4, 7))
    sites = draw(st.permutations(range(1, n + 1)))
    c_plus, c_minus, alice, bob = sites[:4]
    if symmetric is None:
        symmetric = draw(st.booleans())
    mirror = {v: v for v in range(1, n + 1)}
    mirror[c_plus], mirror[c_minus] = c_minus, c_plus
    rest = sites[4:]
    for k in range(draw(st.integers(0, len(rest) // 2))):
        u, v = rest[2 * k], rest[2 * k + 1]
        mirror[u], mirror[v] = v, u
    edges = {(sites[k], sites[draw(st.integers(0, k - 1))]) for k in range(1, n)}
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=n)))
    if symmetric:
        edges |= {(mirror[u], mirror[v]) for u, v in edges}
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
    rep = find_protocol_automorphism(g)
    assert rep.exists == bool(brute_force_automorphisms(g))
    if symmetric:
        assert rep.exists
    if rep.exists:
        perm = {v: rep.mapping[v - 1] for v in range(1, g.n_vertices + 1)}
        assert sorted(perm.values()) == list(range(1, g.n_vertices + 1))
        assert is_protocol_automorphism(g, perm)
    else:
        assert rep.mapping is None


@given(protocol_graphs(symmetric=True))
@settings(max_examples=30, deadline=None)
def test_bell_amplitudes_equal_and_match_the_oracle_under_the_symmetry(drawn):
    g, _ = drawn
    result = full_evolve_compare(g, ORACLE_GRID)
    assert result.max_bell_asymmetry <= 1e-10
    assert result.max_amplitude_deviation <= 1e-9


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
    weight_g1 = float(np.sum(np.abs(psi.amplitudes[_index_groups(g)["g1"]]) ** 2))
    assert d.p1 == pytest.approx(weight_g1, abs=1e-12)
