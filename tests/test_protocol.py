import numpy as np
import pytest

from fedleak.protocol import ALL_MODES, Mode, extract_observation, view_matrix
from fedleak.topology import Graph, generate_graph, metropolis_weights


def columns(rows):
    """g with node j's gradient rows[j] as column j."""
    return np.column_stack([np.asarray(r, float) for r in rows])


class TestMode:
    def test_parse(self):
        assert Mode.parse("DFL_SA") is Mode.DFL_SA
        with pytest.raises(ValueError, match="unknown mode"):
            Mode.parse("federated")

    def test_flags(self):
        assert Mode.DFL.decentralized and not Mode.DFL.secure_aggregation
        assert Mode.CFL_SA.secure_aggregation and not Mode.CFL_SA.decentralized


class TestExtractObservation:
    def test_cfl_exposes_every_gradient(self):
        g = columns(np.arange(10.0).reshape(5, 2))
        for k in (-1, 2):  # CFL has no corrupt node; any index shows all
            observed, visible = extract_observation(Mode.CFL, k, g)
            assert set(visible) == set(range(5))
            assert np.array_equal(observed, g)
            assert np.array_equal(observed[:, 3], [6.0, 7.0])

    def test_cfl_sa_single_average_plus_own(self):
        # k receives the average and knows its own gradient; the view
        # keeps what the own term does not explain: the others' sum.
        g = columns([[4.0], [1.0], [2.0]])
        observed, visible = extract_observation(Mode.CFL_SA, 1, g)
        assert observed.shape == (1,)
        assert observed[0] == 6.0
        assert observed[0] == pytest.approx(3 * g.mean() - g[0, 1])
        assert not visible

    def test_dfl_star_leaf_sees_hub_and_itself(self):
        # The leaf's own gradient is known, so only the hub's is shown.
        star = Graph(n=5, edges=((0, 1), (0, 2), (0, 3), (0, 4)))
        g = columns((10.0 + np.arange(5.0))[:, None])
        observed, visible = extract_observation(Mode.DFL, 3, g, graph=star)
        assert set(visible) == {0}
        assert np.array_equal(observed, [[10.0]])

    def test_dfl_sa_complete_graph_aggregate(self):
        graph = generate_graph(3, 1.0, seed=0)
        w = metropolis_weights(graph)
        g = columns([[3.0], [6.0], [0.0]])
        observed, visible = extract_observation(Mode.DFL_SA, 1, g, graph=graph, weights=w)
        # (3 + 6 + 0) / 3 with the own term 6 / 3 dropped.
        assert observed.shape == (1,)
        assert observed[0] == pytest.approx(1.0, abs=1e-15)
        assert not visible

    def test_dfl_requires_graph(self):
        g = columns([[1.0], [2.0]])
        with pytest.raises(ValueError, match="requires a graph"):
            extract_observation(Mode.DFL, 0, g)

    def test_dfl_sa_requires_weights(self):
        graph = generate_graph(3, 1.0, seed=0)
        g = columns([[1.0], [2.0], [3.0]])
        with pytest.raises(ValueError, match="weight matrix"):
            extract_observation(Mode.DFL_SA, 0, g, graph=graph)

    def test_graph_size_must_match(self):
        graph = generate_graph(4, 1.0, seed=0)
        with pytest.raises(ValueError, match="graph has n=4 but g has 3 columns"):
            extract_observation(Mode.DFL, 0, columns([[1.0], [2.0], [3.0]]), graph=graph)

    @pytest.mark.parametrize(
        "mode, corrupt",
        [(m, 9) for m in ALL_MODES] + [(m, -1) for m in ALL_MODES if m is not Mode.CFL],
    )
    def test_out_of_range_corrupt_node_rejected(self, mode, corrupt):
        graph = generate_graph(9, 0.5, seed=0)
        g = np.random.default_rng(0).standard_normal((4, 9))
        with pytest.raises(ValueError, match=f"corrupt node {corrupt} out of range for n=9"):
            extract_observation(
                mode, corrupt, g, graph=graph, weights=metropolis_weights(graph)
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_dfl_never_contains_non_neighbor(self, seed):
        graph = generate_graph(9, 0.4, seed=seed)
        g = np.random.default_rng(seed).standard_normal((2, 9))
        for k in range(9):
            observed, visible = extract_observation(Mode.DFL, k, g, graph=graph)
            exposed = {
                j
                for j in range(9)
                for column in observed.T
                if np.array_equal(column, g[:, j])
            }
            neighbors = set(int(j) for j in graph.neighbors(k))
            assert exposed == neighbors
            assert set(visible) == neighbors

    def test_re_extraction_bit_identical(self):
        graph = generate_graph(6, 0.6, seed=2)
        w = metropolis_weights(graph)
        g = np.random.default_rng(3).standard_normal((3, 6))
        for mode in ALL_MODES:
            a, seen_a = extract_observation(mode, 4, g, graph=graph, weights=w)
            b, seen_b = extract_observation(mode, 4, g, graph=graph, weights=w)
            assert np.array_equal(a, b)
            assert set(seen_a) == set(seen_b)


class TestViewMatrix:
    """Every view is linear: extract_observation(mode, k, g) is g @ V."""

    @pytest.fixture(scope="class")
    def cell(self):
        graph = generate_graph(9, 0.4, seed=5)
        g = np.random.default_rng(6).standard_normal((50, 9))
        return graph, metropolis_weights(graph), g

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_observation_is_g_times_view(self, cell, mode):
        graph, w, g = cell
        for k in range(9):
            observed, _ = extract_observation(mode, k, g, graph=graph, weights=w)
            v = view_matrix(mode, k, 9, graph=graph, weights=w)
            linear = (g @ v).reshape(observed.shape)
            # relative to the gradients' scale: an aggregate may cancel
            np.testing.assert_allclose(observed, linear, rtol=1e-12, atol=1e-12 * np.abs(g).max())
            if mode in (Mode.CFL, Mode.DFL):
                assert np.array_equal(observed, linear)

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_own_row_is_zero_except_cfl(self, cell, mode):
        graph, w, _ = cell
        for k in range(9):
            v = view_matrix(mode, k, 9, graph=graph, weights=w)
            assert v.shape[0] == 9
            assert np.any(v[k]) == (mode is Mode.CFL)

    def test_per_mode_matrices(self, cell):
        graph, w, _ = cell
        k = 2
        nbrs = graph.neighbors(k)
        assert np.array_equal(view_matrix(Mode.CFL, k, 9), np.eye(9))
        assert np.array_equal(view_matrix(Mode.CFL_SA, k, 9)[:, 0], 1.0 - np.eye(9)[k])
        assert np.array_equal(view_matrix(Mode.DFL, k, 9, graph=graph), np.eye(9)[:, nbrs])
        row = w.row(k).copy()
        row[k] = 0.0
        assert np.array_equal(view_matrix(Mode.DFL_SA, k, 9, graph=graph, weights=w)[:, 0], row)
