import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedleak.topology import (
    Graph,
    generate_graph,
    metropolis_weights,
    min_connected_density,
    read_edge_list,
    write_edge_list,
)


def bfs_reachable(g: Graph) -> int:
    """Independent connectivity oracle: plain set-based BFS from node 0."""
    adj = {i: set() for i in range(g.n)}
    for i, j in g.edges:
        adj[i].add(j)
        adj[j].add(i)
    seen = {0}
    frontier = [0]
    while frontier:
        node = frontier.pop()
        for nxt in adj[node]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen)


def path_graph(n):
    return Graph(n=n, edges=tuple((i, i + 1) for i in range(n - 1)))


def star_graph(n):
    return Graph(n=n, edges=tuple((0, i) for i in range(1, n)))


def complete_graph(n):
    return Graph(n=n, edges=tuple((i, j) for i in range(n) for j in range(i + 1, n)))


class TestGraphType:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(n=3, edges=((0, 0),))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(n=3, edges=((0, 3),))

    def test_rejects_duplicate_even_reversed(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(n=3, edges=((0, 1), (1, 0)))

    def test_rejects_single_node(self):
        with pytest.raises(ValueError, match="at least 2"):
            Graph(n=1, edges=())

    def test_adjacency_symmetric(self):
        g = Graph(n=4, edges=((0, 2), (1, 3)))
        assert np.array_equal(g.adjacency, g.adjacency.T)
        assert not g.adjacency.diagonal().any()

    def test_neighbors_sorted(self):
        g = star_graph(5)
        assert list(g.neighbors(0)) == [1, 2, 3, 4]
        assert list(g.neighbors(3)) == [0]


class TestGenerateGraph:
    def test_density_one_gives_complete_graph(self):
        g = generate_graph(4, 1.0, seed=123)
        assert g.m == 6
        assert g.edges == complete_graph(4).edges

    def test_exact_edge_count_and_connectivity(self):
        g = generate_graph(10, 0.4, seed=7)
        assert g.m == 18  # round(0.4 * 45)
        assert bfs_reachable(g) == 10

    def test_infeasible_density_rejected(self):
        # spanning tree on 3 nodes needs density 2/3
        with pytest.raises(ValueError, match="connected graph"):
            generate_graph(3, 0.1, seed=0)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            generate_graph(1, 1.0, seed=0)

    def test_density_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            generate_graph(5, 1.5, seed=0)

    def test_seed_reproducible(self):
        a = generate_graph(12, 0.35, seed=99)
        b = generate_graph(12, 0.35, seed=99)
        assert a.edges == b.edges

    def test_different_seeds_differ(self):
        a = generate_graph(12, 0.35, seed=1)
        b = generate_graph(12, 0.35, seed=2)
        assert a.edges != b.edges

    @given(
        n=st.integers(min_value=2, max_value=14),
        m_frac=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_connected_with_exact_edges(self, n, m_frac, seed):
        max_m = n * (n - 1) // 2
        m = round((n - 1) + m_frac * (max_m - (n - 1)))
        density = 2 * m / (n * (n - 1))
        g = generate_graph(n, density, seed=seed)
        assert g.m == m
        assert bfs_reachable(g) == n


class TestGraphDensity:
    def test_complete(self):
        assert complete_graph(5).density == 1.0

    def test_path(self):
        assert path_graph(5).density == pytest.approx(0.4)

    def test_star(self):
        # 9 edges over 45 possible
        assert star_graph(10).density == pytest.approx(0.2)

    def test_min_connected_density_matches_tree(self):
        assert min_connected_density(4) == pytest.approx(path_graph(4).density)


class TestMetropolisWeights:
    def test_complete_graph_uniform(self):
        for n in (2, 3, 6):
            w = metropolis_weights(complete_graph(n))
            assert np.allclose(w.a, np.full((n, n), 1.0 / n), atol=1e-15)

    def test_path_three_nodes_hand_derived(self):
        w = metropolis_weights(path_graph(3))
        # degrees 1, 2, 1: both edges get 1/(1 + max(1, 2)) = 1/3, and the
        # diagonal is 1 - 1/3 at the ends and 1 - 2/3 in the middle
        third = 1.0 / 3.0
        expected = np.array(
            [[2 * third, third, 0.0], [third, third, third], [0.0, third, 2 * third]]
        )
        assert np.allclose(w.a, expected, atol=1e-15)

    @pytest.mark.parametrize("seed", range(6))
    def test_invariants_on_random_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 20))
        density = float(rng.uniform(min_connected_density(n) + 0.2, 1.0))
        g = generate_graph(n, density, seed=seed)
        w = metropolis_weights(g)
        a = w.a
        assert np.allclose(a, a.T, atol=1e-15)
        assert a.min() >= 0.0
        assert np.abs(a.sum(axis=0) - 1.0).max() < 1e-12
        assert np.abs(a.sum(axis=1) - 1.0).max() < 1e-12
        off_graph = ~g.adjacency & ~np.eye(n, dtype=bool)
        assert np.all(a[off_graph] == 0.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_contracts_disagreement_subspace(self, seed):
        # spectral radius of A - 11^T/n, symmetric since A is
        g = generate_graph(9, 0.5, seed=seed)
        a = metropolis_weights(g).a
        assert np.abs(np.linalg.eigvalsh(a - 1.0 / g.n)).max() < 1.0

    def test_disconnected_rejected(self):
        g = Graph(n=4, edges=((0, 1), (2, 3)))
        with pytest.raises(ValueError, match="connected"):
            metropolis_weights(g)

    @pytest.mark.parametrize("seed", range(3))
    def test_gossip_convergence_to_mean(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(4, 21))
        g = generate_graph(n, 0.5, seed=seed)
        a = metropolis_weights(g).a
        vec = rng.standard_normal(n)
        mixed = np.linalg.matrix_power(a, 500) @ vec
        assert np.abs(mixed - vec.mean()).max() < 1e-8


class TestEdgeListFormat:
    def test_round_trip(self, tmp_path):
        g = generate_graph(11, 0.4, seed=3)
        path = tmp_path / "graph.txt"
        write_edge_list(g, path)
        back = read_edge_list(path)
        assert back.n == g.n and back.edges == g.edges

    def test_header_format(self, tmp_path):
        g = path_graph(3)
        path = tmp_path / "graph.txt"
        write_edge_list(g, path)
        assert path.read_text().splitlines()[0] == "3 2"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("nonsense\n")
        with pytest.raises(ValueError, match="header"):
            read_edge_list(path)

    def test_wrong_edge_count_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 2\n0 1\n")
        with pytest.raises(ValueError, match="m=2"):
            read_edge_list(path)
