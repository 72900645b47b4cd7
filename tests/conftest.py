"""Shared helpers: built systems are cached across the whole test session."""

from __future__ import annotations

import contextlib
import signal
from functools import lru_cache

import networkx as nx

from qutrit_bell import (Graph, Roles, assemble_hamiltonian, build_cross, build_loop,
                         find_peak, initial_state, spectral_decompose)
from qutrit_bell.topology import SWAP_CHARLIE


@lru_cache(maxsize=None)
def prepared(family: str, n: int):
    """(graph, eigensystem, initial state) for a built-in system."""
    g = build_cross(n) if family == "cross" else build_loop(n)
    return g, spectral_decompose(assemble_hamiltonian(g)), initial_state(g)


@lru_cache(maxsize=None)
def peak(family: str, n: int, t_max: float | None = None):
    g, eig, psi0 = prepared(family, n)
    return find_peak(eig, psi0, g, t_max=t_max)


def random_graph_with_moved_roles():
    """A seeded connected 10-site graph; Alice and Bob sit at 1 and 5."""
    nxg = nx.connected_watts_strogatz_graph(10, 4, 0.5, seed=3)
    return Graph(10, frozenset((min(u, v) + 1, max(u, v) + 1) for u, v in nxg.edges),
                 Roles(3, 7, 1, 5))


def vf2_protocol_automorphism(g: Graph, role_perm=SWAP_CHARLIE) -> tuple[int, ...] | None:
    """Reference for `find_protocol_automorphism(g, role_perm)`: networkx's VF2 search
    (Cordella et al., IEEE TPAMI 26, 1367 (2004)) from a role-coloured copy
    of the graph to a copy where role role_perm[k] wears role k's colour, so
    every match it returns moves role k onto role role_perm[k]."""
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
    iso = next(matcher.isomorphisms_iter(), None)
    return None if iso is None else tuple(iso[v] for v in range(1, g.n_vertices + 1))


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
