"""Qutrit graphs for the Bell-distribution protocol.

Two built-in families are provided:

* ``build_cross``: a central vertex (index 3) with two single-site stubs
  for Charlie (vertices 1 and 2) and two chains, one of even indices
  ending at Alice's site N-1 and one of odd indices ending at Bob's
  site N.
* ``build_loop``: a ring of N sites (N divisible by 4) on which the four
  special sites sit at quarter positions, in the cyclic order
  charlie_minus, alice, charlie_plus, bob, separated by equal arcs.

Both families possess the reflection that fixes Alice's and Bob's sites
while exchanging Charlie's two sites; this symmetry is what guarantees the
two Bell-channel amplitudes stay equal during the evolution.

Vertices are 1-based throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

Edge = tuple[int, int]


@dataclass(frozen=True)
class Roles:
    """The four special vertices of a protocol graph."""

    charlie_plus: int
    charlie_minus: int
    alice: int
    bob: int

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.charlie_plus, self.charlie_minus, self.alice, self.bob)


@dataclass(frozen=True)
class Graph:
    """Undirected, connected qutrit graph with role assignments.

    ``edges`` holds normalized pairs (u < v). Instances are immutable and
    validated on construction; they can be shared freely between workers.
    """

    n_vertices: int
    edges: frozenset[Edge]
    roles: Roles

    def __post_init__(self):
        n = self.n_vertices
        if n < 2:
            raise ValueError(f"graph needs at least 2 vertices, got {n}")
        for (u, v) in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (1 <= u < v <= n):
                raise ValueError(f"edge ({u},{v}) out of range or not normalized")
        rs = self.roles.as_tuple()
        if len(set(rs)) != 4:
            raise ValueError(f"roles must name four distinct vertices, got {rs}")
        for r in rs:
            if not 1 <= r <= n:
                raise ValueError(f"role vertex {r} outside [1,{n}]")
        if not nx.is_connected(self.as_networkx()):
            raise ValueError("graph is not connected")

    def as_networkx(self) -> nx.Graph:
        g = nx.Graph()
        g.add_nodes_from(range(1, self.n_vertices + 1))
        g.add_edges_from(self.edges)
        return g


@dataclass(frozen=True)
class AutomorphismReport:
    """Result of the protocol-symmetry search.

    When ``exists``, ``mapping[v-1]`` is the image of vertex v under a graph
    automorphism that exchanges charlie_plus with charlie_minus and fixes
    both alice and bob.
    """

    exists: bool
    mapping: tuple[int, ...] | None = None


def _normalize(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def build_cross(n: int) -> Graph:
    """Cross of n qutrits: center 3, stubs 1 and 2, even/odd arms.

    Alice's arm is the chain 3-4-6-...-(n-1), Bob's the chain 3-5-7-...-n.
    Charlie holds vertices 1 and 2, both attached to the center.
    """
    if n % 2 == 0:
        raise ValueError(f"cross size must be odd, got {n}")
    if n < 5:
        raise ValueError(f"cross size must be >= 5, got {n}")
    edges = [_normalize(1, 3), _normalize(2, 3)]
    prev = 3
    for v in range(4, n, 2):
        edges.append(_normalize(prev, v))
        prev = v
    prev = 3
    for v in range(5, n + 1, 2):
        edges.append(_normalize(prev, v))
        prev = v
    roles = Roles(charlie_plus=1, charlie_minus=2, alice=n - 1, bob=n)
    return Graph(n_vertices=n, edges=frozenset(edges), roles=roles)


def _loop_order(n: int) -> list[int]:
    """Cyclic vertex order of the built-in loop.

    The four role sites are placed at quarter positions, separated by arcs
    of n/4 - 1 filler vertices each.
    """
    q = n // 4 - 1
    anchors = (n // 2 - 1, n - 1, n // 2, n)  # c-, alice, c+, bob
    fillers = [v for v in range(1, n + 1) if v not in anchors]
    order: list[int] = []
    k = 0
    for a in anchors:
        order.append(a)
        order.extend(fillers[k:k + q])
        k += q
    return order


def build_loop(n: int) -> Graph:
    """Ring of n qutrits (n divisible by 4) with role sites at quarter points.

    Going around the ring: charlie_minus, ..., alice, ..., charlie_plus,
    ..., bob, with equal arcs between them. Alice and bob lie on the
    reflection axis; the reflection swaps Charlie's two sites.
    """
    if n % 4 != 0:
        raise ValueError(f"loop size must be a multiple of 4, got {n}")
    if n < 4:
        raise ValueError(f"loop size must be >= 4, got {n}")
    order = _loop_order(n)
    edges = frozenset(_normalize(order[k], order[(k + 1) % n]) for k in range(n))
    roles = Roles(charlie_plus=n // 2, charlie_minus=n // 2 - 1, alice=n - 1, bob=n)
    return Graph(n_vertices=n, edges=edges, roles=roles)


def find_protocol_automorphism(g: Graph) -> AutomorphismReport:
    """Search for the symmetry the protocol relies on.

    Wanted: a graph automorphism that exchanges Charlie's two sites and
    fixes Alice's and Bob's. A VF2 isomorphism search runs from a
    role-colored copy of the graph to a copy with Charlie's colors
    exchanged, so every match it returns is such an automorphism and the
    role constraints prune the search. Nonexistence is a valid result, not
    an error.
    """
    r = g.roles
    g1, g2 = g.as_networkx(), g.as_networkx()
    fixed = {r.alice: "a", r.bob: "b"}
    nx.set_node_attributes(g1, {r.charlie_plus: "c+", r.charlie_minus: "c-", **fixed}, "role")
    nx.set_node_attributes(g2, {r.charlie_plus: "c-", r.charlie_minus: "c+", **fixed}, "role")
    matcher = nx.algorithms.isomorphism.GraphMatcher(
        g1, g2, node_match=lambda a, b: a.get("role") == b.get("role"))
    iso = next(matcher.isomorphisms_iter(), None)
    mapping = None if iso is None else tuple(iso[v] for v in range(1, g.n_vertices + 1))
    return AutomorphismReport(mapping is not None, mapping)


def path_distance(g: Graph, u: int, v: int) -> int:
    """Shortest-path edge count between u and v."""
    n = g.n_vertices
    if not (1 <= u <= n and 1 <= v <= n):
        raise ValueError(f"vertices ({u},{v}) outside [1,{n}]")
    return nx.shortest_path_length(g.as_networkx(), u, v)
