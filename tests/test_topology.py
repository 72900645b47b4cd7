import random
from itertools import permutations, product

import networkx as nx
import pytest
from hypothesis import given, settings

from hypothesis import strategies as st

from conftest import (ROLE_SWAPS, SWAP_CHARLIE, SWAP_ENDS, pair_map, vf2_orbit_fold_sizes,
                      vf2_protocol_automorphism)
from qutrit_bell import (Graph, Roles, bell_pairs_share_a_cell, build_cross, build_loop,
                         pair_cells, path_distance)
from qutrit_bell.dynamics import _pair_cells, pair_index
from test_properties import fold_sizes, protocol_graphs


def edges_of(g):
    return set(g.edges)


class TestBuildCross:
    def test_n5_shape(self):
        g = build_cross(5)
        assert edges_of(g) == {(1, 3), (2, 3), (3, 4), (3, 5)}
        assert g.roles == Roles(charlie_plus=1, charlie_minus=2, alice=4, bob=5)

    def test_n7_shape(self):
        g = build_cross(7)
        assert edges_of(g) == {(1, 3), (2, 3), (3, 4), (4, 6), (3, 5), (5, 7)}

    def test_tree_edge_count(self):
        for n in (5, 7, 9, 21, 35):
            assert len(build_cross(n).edges) == n - 1

    def test_alice_bob_distance(self):
        g = build_cross(35)
        # 32 edges -> a path of 33 vertices including both endpoints
        assert path_distance(g, g.roles.alice, g.roles.bob) == 32
        for n in (5, 7, 13):
            g = build_cross(n)
            assert path_distance(g, g.roles.alice, g.roles.bob) == n - 3

    @pytest.mark.parametrize("bad", [4, 6, 3, 1, -5])
    def test_rejects_bad_sizes(self, bad):
        with pytest.raises(ValueError):
            build_cross(bad)


class TestBuildLoop:
    def test_n4_is_a_ring_with_antipodal_roles(self):
        g = build_loop(4)
        assert len(g.edges) == 4
        assert g.roles == Roles(charlie_plus=2, charlie_minus=1, alice=3, bob=4)
        # every vertex has degree 2 and both role pairs sit opposite each other
        assert all(d == 2 for _, d in nx.Graph(list(g.edges)).degree)
        assert path_distance(g, 1, 2) == 2
        assert path_distance(g, 3, 4) == 2

    def test_n8_quarter_spacing(self):
        g = build_loop(8)
        r = g.roles
        assert (r.charlie_plus, r.charlie_minus, r.alice, r.bob) == (4, 3, 7, 8)
        assert len(g.edges) == 8
        for c in (r.charlie_plus, r.charlie_minus):
            for t in (r.alice, r.bob):
                assert path_distance(g, c, t) == 2
        assert path_distance(g, r.alice, r.bob) == 4
        assert path_distance(g, r.charlie_plus, r.charlie_minus) == 4

    def test_ring_edge_count(self):
        for n in (4, 8, 12, 16, 36):
            assert len(build_loop(n).edges) == n

    @pytest.mark.parametrize("bad", [6, 10, 5, 2, 0])
    def test_rejects_bad_sizes(self, bad):
        with pytest.raises(ValueError):
            build_loop(bad)


class TestGraphValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(4, frozenset({(1, 1), (1, 2), (2, 3), (3, 4)}), Roles(1, 2, 3, 4))

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError):
            Graph(4, frozenset({(1, 2), (2, 3), (3, 5)}), Roles(1, 2, 3, 4))

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            Graph(4, frozenset({(1, 2), (3, 4)}), Roles(1, 2, 3, 4))

    def test_duplicate_roles_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            Graph(4, frozenset({(1, 2), (2, 3), (3, 4)}), Roles(1, 1, 3, 4))


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


class TestProtocolAutomorphism:
    """The role exchanges that networkx's VF2 finds, against the cells of
    `dynamics._pair_cells`: each exchange maps every cell onto itself, so a fold is
    never larger than the fold on the exchanges' orbits."""

    def test_cross_families(self):
        for n in (5, 7, 9, 13):
            g = build_cross(n)
            mapping = vf2_protocol_automorphism(g)
            assert mapping is not None
            self._check_mapping(g, mapping)
            assert bell_pairs_share_a_cell(g)
            assert fold_sizes(g) == vf2_orbit_fold_sizes(g)

    def test_loop_families(self):
        for n in (4, 8, 12, 16):
            g = build_loop(n)
            mapping = vf2_protocol_automorphism(g)
            assert mapping is not None
            self._check_mapping(g, mapping)
            assert bell_pairs_share_a_cell(g)
            assert fold_sizes(g) == vf2_orbit_fold_sizes(g)

    @staticmethod
    def _check_mapping(g, mapping, swap=SWAP_CHARLIE):
        """mapping is an automorphism moving role k onto role swap[k], and its
        ordered-pair map keeps every cell."""
        perm = {v: mapping[v - 1] for v in range(1, g.n_vertices + 1)}
        assert sorted(perm.values()) == list(range(1, g.n_vertices + 1))
        mapped = {tuple(sorted((perm[u], perm[v]))) for (u, v) in g.edges}
        assert mapped == set(g.edges)
        roles = g.roles.as_tuple()
        assert [perm[roles[k]] for k in range(4)] == [roles[k] for k in swap]
        n, cells = g.n_vertices, _pair_cells(g)
        for (i, j), (k, m) in pair_map(g, mapping, swap).items():
            assert cells[pair_index(n, i, j)] == cells[pair_index(n, k, m)]

    def test_cross5_swaps_only_the_stubs(self):
        g = build_cross(5)
        mapping = vf2_protocol_automorphism(g)
        assert mapping == (2, 1, 3, 4, 5)
        self._check_mapping(g, mapping)

    def test_asymmetric_graph_has_none(self):
        # a lopsided path: nothing can exchange charlie's sites, and nothing folds
        g = Graph(5, frozenset({(1, 2), (2, 3), (3, 4), (4, 5)}), Roles(1, 3, 4, 5))
        assert all(vf2_protocol_automorphism(g, swap) is None for swap in ROLE_SWAPS)
        assert not bell_pairs_share_a_cell(g)
        assert fold_sizes(g) == vf2_orbit_fold_sizes(g) == (10, 10)

    def test_custom_symmetric_graph_found_by_generic_search(self):
        # 6-cycle with charlie's sites mirror-placed about the alice-bob axis,
        # labelled unlike either built-in family
        ring = {(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)}
        g = Graph(6, frozenset(ring), Roles(charlie_plus=1, charlie_minus=3,
                                            alice=2, bob=5))
        mapping = vf2_protocol_automorphism(g)
        assert mapping is not None
        self._check_mapping(g, mapping)
        assert bell_pairs_share_a_cell(g)

    @given(st.sampled_from([(swap,) for swap in ROLE_SWAPS] + [(SWAP_CHARLIE, SWAP_ENDS)])
           .flatmap(lambda swaps: st.tuples(st.just(swaps),
                                            protocol_graphs(max_sites=14, swaps=swaps))))
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_vf2_past_brute_force_reach(self, drawn):
        # graphs closed under P, Q, PQ or both P and Q; each searched for all three
        built, (g, symmetric) = drawn
        for swap in ROLE_SWAPS:
            mapping = vf2_protocol_automorphism(g, swap)
            if symmetric and (swap in built or len(built) == 2):
                assert mapping is not None
            if mapping is not None:
                self._check_mapping(g, mapping, swap)
        even, odd = fold_sizes(g)
        reference = vf2_orbit_fold_sizes(g, limit=24)
        assert even <= reference[0] and odd <= reference[1]

    @pytest.mark.parametrize("name", ["K12", "Q5", "rook-6x6", "random-36"])
    def test_agrees_with_vf2_on_named_graphs(self, name):
        g = named_graph(name)
        for swap in ROLE_SWAPS:
            mapping = vf2_protocol_automorphism(g, swap)
            if mapping is not None:
                self._check_mapping(g, mapping, swap)
        symmetric = vf2_protocol_automorphism(g) is not None
        assert symmetric == (name != "random-36") == bell_pairs_share_a_cell(g)
        even, odd = fold_sizes(g)
        reference = vf2_orbit_fold_sizes(g, limit=8)
        assert even <= reference[0] and odd <= reference[1]

    def test_random_36_folds_its_role_fixing_leaf_swaps(self):
        # no automorphism moves a role, but two pairs of leaves share a neighbour
        # (17, 28 on 31; 30, 32 on 6): each swap folds the pair space
        g = named_graph("random-36")
        assert all(vf2_protocol_automorphism(g, swap) is None for swap in ROLE_SWAPS)
        assert fold_sizes(g) == vf2_orbit_fold_sizes(g) == (563, 561)

    @pytest.mark.parametrize("g", [build_cross(9), build_loop(8)], ids=["cross-9", "loop-8"])
    def test_demo_graphs_have_exactly_one_automorphism(self, g):
        # demo 01 prints the cells: with one Charlie exchange, and one arm or mirror
        # exchange, they are exactly the orbits of the group the two generate
        [perm] = brute_force_automorphisms(g)
        mapping = tuple(perm[v] for v in range(1, g.n_vertices + 1))
        assert vf2_protocol_automorphism(g) == mapping
        self._check_mapping(g, mapping)
        assert fold_sizes(g) == vf2_orbit_fold_sizes(g)

    def test_refinement_tells_a_missing_edge_from_an_image_in_its_own_cell(self):
        # pairs of unequal degree: a round that read a missing edge as the pair's own
        # key hashed some of them alike, stopped at 31 cells and failed the check
        edges = {(1, 2), (2, 4), (2, 7), (2, 8), (3, 4), (3, 5), (4, 5), (4, 6), (4, 8), (5, 6)}
        g = Graph(8, frozenset(edges), Roles(1, 2, 7, 8))
        assert _pair_cells(g).max() + 1 == 43
        assert len(pair_cells(g)) == 43

    @pytest.mark.parametrize("g", [build_cross(9), build_loop(8)], ids=["cross-9", "loop-8"])
    def test_pair_cells_lists_the_refinement(self, g):
        # the public view demo 01 prints: each ordered pair once, cells as refined
        n, cells = g.n_vertices, _pair_cells(g)
        listed = pair_cells(g)
        assert sorted(p for cell in listed for p in cell) == sorted(
            (i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j)
        assert len(listed) == cells.max() + 1
        assert all(len({cells[pair_index(n, i, j)] for i, j in cell}) == 1 for cell in listed)

    @pytest.mark.parametrize("g", [build_cross(9), build_loop(8)], ids=["cross-9", "loop-8"])
    @pytest.mark.parametrize("swap", ROLE_SWAPS, ids=["charlie", "ends", "both"])
    def test_built_in_families_have_every_role_exchange(self, g, swap):
        mapping = vf2_protocol_automorphism(g, swap)
        assert mapping is not None
        self._check_mapping(g, mapping, swap)


def named_graph(name):
    """Graphs with large symmetry groups, where role colours prune little.

    K12, the Q5 hypercube (Alice on 00000, Bob on 11111, Charlie on 00001
    and 00010) and the 6x6 rook's graph (Alice on (0,0), Bob on (1,1),
    Charlie on (0,1) and (1,0)) each have a protocol automorphism. random-36 is built like the seeded 36-site graph of the
    benchmark's `scan` workload: a random spanning tree plus random extra
    edges up to 45, roles 1 2 35 36, redrawn until Charlie's two sites
    differ in degree, so it has none.
    """
    if name == "K12":
        return Graph(12, frozenset((u, v) for u in range(1, 13) for v in range(u + 1, 13)),
                     Roles(3, 4, 1, 2))
    if name == "Q5":
        edges = {(x + 1, (x | 1 << b) + 1) for x in range(32) for b in range(5)
                 if not x >> b & 1}
        return Graph(32, frozenset(edges), Roles(2, 3, 1, 32))
    if name == "rook-6x6":
        cell = {(i, j): 6 * i + j + 1 for i, j in product(range(6), repeat=2)}
        edges = {(cell[a], cell[b]) for a in cell for b in cell
                 if cell[a] < cell[b] and (a[0] == b[0] or a[1] == b[1])}
        return Graph(36, frozenset(edges), Roles(cell[0, 1], cell[1, 0], cell[0, 0], cell[1, 1]))
    for attempt in range(1000):
        rng = random.Random(attempt)
        order = list(range(1, 37))
        rng.shuffle(order)
        edges = set()
        for k in range(1, 36):
            u, v = order[k], order[rng.randrange(k)]
            edges.add((min(u, v), max(u, v)))
        while len(edges) < 45:
            edges.add(tuple(sorted(rng.sample(range(1, 37), 2))))
        g = Graph(36, frozenset(edges), Roles(1, 2, 35, 36))
        if sum(1 in e for e in edges) != sum(2 in e for e in edges):
            return g
    raise AssertionError("no draw separates Charlie's sites by degree")


class TestPathDistance:
    def test_same_vertex(self):
        g = build_cross(7)
        for v in range(1, 8):
            assert path_distance(g, v, v) == 0

    def test_matches_networkx(self):
        for builder, n in ((build_cross, 9), (build_loop, 8)):
            g = builder(n)
            nxg = nx.Graph(list(g.edges))
            for u in range(1, n + 1):
                for v in range(1, n + 1):
                    assert path_distance(g, u, v) == nx.shortest_path_length(nxg, u, v)

    def test_loop8_antipodal(self):
        g = build_loop(8)
        assert path_distance(g, 1, 5) == 4

    def test_out_of_range_rejected(self):
        g = build_loop(4)
        with pytest.raises(ValueError):
            path_distance(g, 1, 9)
