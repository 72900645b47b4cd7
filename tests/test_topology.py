import networkx as nx
import pytest

from qutrit_bell import (Graph, Roles, build_cross, build_loop,
                         find_protocol_automorphism, path_distance)


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
        assert all(d == 2 for _, d in g.as_networkx().degree)
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


class TestProtocolAutomorphism:
    def test_cross_families(self):
        for n in (5, 7, 9, 13):
            g = build_cross(n)
            rep = find_protocol_automorphism(g)
            assert rep.exists
            self._check_mapping(g, rep.mapping)

    def test_loop_families(self):
        for n in (4, 8, 12, 16):
            g = build_loop(n)
            rep = find_protocol_automorphism(g)
            assert rep.exists
            self._check_mapping(g, rep.mapping)

    @staticmethod
    def _check_mapping(g, mapping):
        perm = {v: mapping[v - 1] for v in range(1, g.n_vertices + 1)}
        assert sorted(perm.values()) == list(range(1, g.n_vertices + 1))
        mapped = {tuple(sorted((perm[u], perm[v]))) for (u, v) in g.edges}
        assert mapped == set(g.edges)
        r = g.roles
        assert perm[r.charlie_plus] == r.charlie_minus
        assert perm[r.charlie_minus] == r.charlie_plus
        assert perm[r.alice] == r.alice
        assert perm[r.bob] == r.bob

    def test_cross5_swaps_only_the_stubs(self):
        rep = find_protocol_automorphism(build_cross(5))
        assert rep.mapping == (2, 1, 3, 4, 5)

    def test_asymmetric_graph_has_none(self):
        # a lopsided tree: nothing can exchange charlie's sites
        g = Graph(5, frozenset({(1, 2), (2, 3), (3, 4), (4, 5)}), Roles(1, 3, 4, 5))
        rep = find_protocol_automorphism(g)
        assert not rep.exists
        assert rep.mapping is None

    def test_custom_symmetric_graph_found_by_generic_search(self):
        # 6-cycle with charlie's sites mirror-placed about the alice-bob axis,
        # labelled unlike either built-in family
        ring = {(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)}
        g = Graph(6, frozenset(ring), Roles(charlie_plus=1, charlie_minus=3,
                                            alice=2, bob=5))
        rep = find_protocol_automorphism(g)
        assert rep.exists
        self._check_mapping(g, rep.mapping)


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
