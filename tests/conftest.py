"""Shared helpers: built systems are cached across the whole test session."""

from __future__ import annotations

import contextlib
import signal
from functools import lru_cache
from itertools import islice

import networkx as nx
import numpy as np
import pytest

from qutrit_bell import (Graph, Roles, assemble_hamiltonian, build_cross, build_loop,
                         find_peak, initial_state, oracle, spectral_decompose)
from qutrit_bell.measurement import _quotient

#: the role permutations that keep the sets {c+, c-} and {A, B}: position k of
#: `Roles.as_tuple()` (c+, c-, A, B) moves to position perm[k]
SWAP_CHARLIE, SWAP_ENDS, SWAP_BOTH = ROLE_SWAPS = (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2)


@pytest.fixture(autouse=True)
def fresh_closure():
    """`oracle._closure_system` keeps the last graph's closure, built from the `_images`
    and `_scatter` of its time: a test that patches them must neither read another test's
    closure nor leave its own."""
    oracle._closure_system.cache_clear()
    yield
    oracle._closure_system.cache_clear()


@lru_cache(maxsize=None)
def prepared(family: str, n: int):
    """(graph, eigensystem, initial state) for a built-in system."""
    g = build_cross(n) if family == "cross" else build_loop(n)
    return g, spectral_decompose(assemble_hamiltonian(g)), initial_state(g)


@lru_cache(maxsize=None)
def peak(family: str, n: int, t_max: float | None = None):
    g, eig, psi0 = prepared(family, n)
    return find_peak(eig, psi0, g, t_max=t_max)


def quotient_matrix(g: Graph) -> np.ndarray:
    """The cell quotient H_q of `measurement._quotient` as a k x k array, from its
    gather table (an empty slot adds 0)."""
    _, s, cols, vals, _ = _quotient(g)
    h = np.zeros((s.size, s.size))
    np.add.at(h, (np.arange(s.size), cols), vals)
    return h


def random_graph_with_moved_roles():
    """A seeded connected 10-site graph; Alice and Bob sit at 1 and 5."""
    nxg = nx.connected_watts_strogatz_graph(10, 4, 0.5, seed=3)
    return Graph(10, frozenset((min(u, v) + 1, max(u, v) + 1) for u, v in nxg.edges),
                 Roles(3, 7, 1, 5))


def vf2_automorphisms(g: Graph, role_perm=SWAP_CHARLIE):
    """Every automorphism that moves role k onto role role_perm[k], each as a tuple
    mapping[v-1] = image of v: networkx's VF2 search (Cordella et al., IEEE TPAMI
    26, 1367 (2004)) from a role-coloured copy of the graph to a copy where role
    role_perm[k] wears role k's colour."""
    roles = g.roles.as_tuple()
    copies = []
    for colours in ({roles[k]: k for k in range(4)},
                    {roles[role_perm[k]]: k for k in range(4)}):
        nxg = nx.Graph()
        nxg.add_nodes_from(range(1, g.n_vertices + 1))
        nxg.add_edges_from(g.edges)
        nx.set_node_attributes(nxg, colours, "role")
        copies.append(nxg)
    matcher = nx.algorithms.isomorphism.GraphMatcher(
        *copies, node_match=lambda a, b: a.get("role") == b.get("role"))
    for iso in matcher.isomorphisms_iter():
        yield tuple(iso[v] for v in range(1, g.n_vertices + 1))


def vf2_protocol_automorphism(g: Graph, role_perm=SWAP_CHARLIE) -> tuple[int, ...] | None:
    """The first of `vf2_automorphisms(g, role_perm)`, or None."""
    return next(vf2_automorphisms(g, role_perm), None)


def pair_map(g: Graph, mapping, role_perm) -> dict:
    """The ordered-pair permutation of a role automorphism: |i,j> -> |Pi,Pj>, then C
    where P exchanges Charlie's sites, so that it keeps |c+,c->."""
    n, swap = g.n_vertices, role_perm[0] != 0
    image = {(i, j): (mapping[i - 1], mapping[j - 1])
             for i in range(1, n + 1) for j in range(1, n + 1) if i != j}
    return {p: q[::-1] if swap else q for p, q in image.items()}


def vf2_orbit_fold_sizes(g: Graph, limit: int | None = None) -> tuple[int, int]:
    """(C-even, C-odd) fold sizes on the ordered-pair orbits of the automorphisms VF2
    finds for the identity and each of ROLE_SWAPS (at most `limit` each: then a
    subgroup, whose orbits are never coarser): one C-even state per orbit pair
    {X, CX}, one C-odd state per X != CX. The reference the colour-refinement folds
    are never larger than."""
    n = g.n_vertices
    parent = {(i, j): (i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j}

    def root(p):
        while parent[p] != p:
            p = parent[p]
        return p

    for role_perm in ((0, 1, 2, 3), *ROLE_SWAPS):
        for mapping in islice(vf2_automorphisms(g, role_perm), limit):
            for p, q in pair_map(g, mapping, role_perm).items():
                parent[root(p)] = root(q)
    orbits = {root(p) for p in parent}
    conjugate = sum(root((j, i)) == (i, j) for i, j in orbits)  # orbits X = CX
    return (len(orbits) + conjugate) // 2, (len(orbits) - conjugate) // 2


@contextlib.contextmanager
def time_budget(seconds):
    """Raise TimeoutError in the block once `seconds` of wall time have passed."""
    def too_slow(signum, frame):
        raise TimeoutError(f"did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
