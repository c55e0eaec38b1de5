import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

from fedleak.infotheory import (
    MIEstimate,
    SampleMatrix,
    _kth_neighbor_radius,
    _strict_counts,
    gaussian_view_mi,
    knn_cmi,
    knn_mi,
)
from fedleak.protocol import Mode, view_matrix
from fedleak.topology import Graph, generate_graph, metropolis_weights


def closed_form(mode, k, n, graph=None, weights=None):
    """gaussian_view_mi of corrupt node k's view: one value per node."""
    return gaussian_view_mi(view_matrix(mode, k, n, graph, weights))


def cfl_sa(n, k=0):
    """The CFL_SA value, equal for every target; checks it is."""
    values = np.delete(closed_form(Mode.CFL_SA, k, n), k)
    assert np.all(values == values[0])
    return float(values[0])


def hand_dfl_sa(weights, k, i):
    """0.5 * ln(s / (s - a[k,i]^2)) with s = sum_{j != k} a[k,j]^2."""
    row = weights.row(k)
    s = float(np.sum(row**2) - row[k] ** 2)
    return math.inf if s - row[i] ** 2 <= s * 1e-12 else 0.5 * math.log(s / (s - row[i] ** 2))


class TestAnalyticAverageLeakage:
    def test_ten_nodes_frozen_value(self):
        # 0.5 * ln(9/8)
        assert cfl_sa(10) == pytest.approx(0.0588915178, abs=1e-9)

    def test_three_nodes_half_log_two(self):
        assert cfl_sa(3) == pytest.approx(0.5 * math.log(2.0), abs=1e-12)

    def test_strictly_decreasing_and_positive(self):
        values = [cfl_sa(n) for n in range(3, 200)]
        assert all(v > 0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("n", [3, 4, 10, 57, 199])
    def test_matches_hand_formula(self, n):
        expected = 0.5 * math.log((n - 1) / (n - 2))
        for k in (0, n - 1):
            assert cfl_sa(n, k) == pytest.approx(expected, rel=1e-13)

    def test_two_nodes_diverge(self):
        # the sum of the others is the other node's gradient itself
        assert list(closed_form(Mode.CFL_SA, 0, 2)) == [0.0, math.inf]

    def test_matches_estimator_on_fresh_draws(self):
        # large-sample estimator run on direct draws of the two variables
        rng = np.random.default_rng(42)
        g = rng.standard_normal((100_000, 10))
        est = knn_mi(g[:, 1:].sum(axis=1), g[:, 1], k=3)
        assert est.value == pytest.approx(cfl_sa(10), abs=0.005)


class TestAnalyticAggregateLeakage:
    def test_absent_target_leaks_nothing(self):
        g = generate_graph(8, 0.4, seed=2)
        w = metropolis_weights(g)
        for k in range(8):
            mi = closed_form(Mode.DFL_SA, k, 8, g, w)
            for i in range(8):
                if i != k and not g.adjacency[k, i]:
                    assert mi[i] == 0.0

    @pytest.mark.parametrize("n", [3, 5, 10, 25])
    def test_complete_graph_equals_average_case(self, n):
        g = generate_graph(n, 1.0, seed=0)
        w = metropolis_weights(g)
        mi = closed_form(Mode.DFL_SA, 0, n, g, w)
        for i in range(1, n):
            assert mi[i] == pytest.approx(cfl_sa(n), abs=1e-12)

    def test_corrupt_leaf_with_single_neighbor_diverges(self):
        star = Graph(n=5, edges=((0, 1), (0, 2), (0, 3), (0, 4)))
        w = metropolis_weights(star)
        # leaf node 3 observes a*G_0 + known own term: hub fully exposed
        assert list(closed_form(Mode.DFL_SA, 3, 5, star, w)) == [math.inf, 0, 0, 0, 0]

    def test_corrupt_node_own_entry_is_zero(self):
        # k's own gradient is dropped from its view, so its row is zero
        g = generate_graph(6, 0.6, seed=1)
        w = metropolis_weights(g)
        for mode in (Mode.CFL_SA, Mode.DFL, Mode.DFL_SA):
            for k in range(6):
                assert closed_form(mode, k, 6, g, w)[k] == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_average_dominates_complete_graph_value(self, seed):
        # geometric-mean vs harmonic-mean step: non-complete connected
        # graphs leak at least as much through the aggregate, on average
        # over (corrupt, target) pairs, as the complete graph does.
        n = 9
        g = generate_graph(n, 0.5, seed=seed)
        assert g.m < n * (n - 1) // 2
        w = metropolis_weights(g)
        values = [
            np.delete(closed_form(Mode.DFL_SA, k, n, g, w), k) for k in range(n)
        ]
        assert np.mean(values) > cfl_sa(n)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_hand_formula_on_random_metropolis_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 31))
        density = float(rng.uniform(2.0 / n, 1.0))
        g = generate_graph(n, density, seed=seed)
        w = metropolis_weights(g)
        for k in range(n):
            mi = closed_form(Mode.DFL_SA, k, n, g, w)
            for i in range(n):
                if i == k:
                    continue
                expected = hand_dfl_sa(w, k, i)
                if math.isinf(expected):
                    assert mi[i] == math.inf
                else:
                    assert mi[i] == pytest.approx(expected, rel=1e-13, abs=0.0)


class TestGaussianViewMi:
    def test_dfl_neighbors_diverge_and_others_leak_nothing(self):
        g = generate_graph(10, 0.3, seed=4)
        for k in range(10):
            mi = closed_form(Mode.DFL, k, 10, g)
            for i in range(10):
                if i != k:
                    assert mi[i] == (math.inf if g.adjacency[k, i] else 0.0)

    def test_cfl_diverges_for_every_node(self):
        assert np.all(closed_form(Mode.CFL, -1, 7) == math.inf)

    def test_matches_log_det_ratio(self):
        # For a full-column-rank view, I(V^T G; G_i) is the entropy
        # difference 0.5 * ln(det(V^T V) / det(V^T V - v_i v_i^T)).
        v = np.random.default_rng(5).standard_normal((6, 3))
        gram = v.T @ v
        expected = [
            0.5 * math.log(np.linalg.det(gram) / np.linalg.det(gram - np.outer(row, row)))
            for row in v
        ]
        assert gaussian_view_mi(v) == pytest.approx(expected, rel=1e-10)

    def test_one_dimensional_view(self):
        # a view (n,) is the column (n, 1)
        a = np.array([0.0, 0.5, 0.25, 0.25])
        assert np.array_equal(gaussian_view_mi(a), gaussian_view_mi(a[:, None]))


class TestSampleMatrix:
    def test_non_finite_rejected(self):
        data = np.zeros((5, 2))
        data[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            SampleMatrix(data=data)


def gaussian_pair(rho, n, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    y = rho * x + math.sqrt(1.0 - rho * rho) * rng.standard_normal(n)
    return x, y


class TestKnnMi:
    def test_independent_variables_near_zero(self):
        rng = np.random.default_rng(0)
        est = knn_mi(rng.standard_normal(1000), rng.standard_normal(1000))
        assert abs(est.value) < 0.05

    def test_additive_noise_channel(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(1000)
        y = x + rng.standard_normal(1000)
        # Gaussian channel closed form: 0.5 * ln(1 + 1) nats
        assert knn_mi(x, y).value == pytest.approx(0.5 * math.log(2.0), abs=0.05)

    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
    def test_bivariate_gaussian_oracle(self, rho):
        x, y = gaussian_pair(rho, 1000, seed=11)
        expected = -0.5 * math.log(1.0 - rho * rho) if rho else 0.0
        assert knn_mi(x, y, k=3).value == pytest.approx(expected, abs=0.05)

    def test_self_information_grows_with_samples_and_tops_noisy_pairs(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(2000)
        small = knn_mi(x[:500], x[:500]).value
        large = knn_mi(x, x).value
        noisy = knn_mi(x, x + 0.1 * rng.standard_normal(2000)).value
        assert large > small > 0
        assert small > noisy

    def test_estimator_metadata(self):
        x, y = gaussian_pair(0.5, 200, seed=5)
        est = knn_mi(x, y, k=4)
        assert isinstance(est, MIEstimate)
        assert est.estimator == "knn" and est.k == 4
        assert float(est) == est.value

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_joint_shuffle_leaves_estimate_unchanged(self, seed):
        x, y = gaussian_pair(0.6, 300, seed=seed)
        perm = np.random.default_rng(seed + 1).permutation(300)
        base = knn_mi(x, y).value
        shuffled = knn_mi(x[perm], y[perm]).value
        assert shuffled == pytest.approx(base, abs=1e-9)

    def test_monotone_rescaling_stable(self):
        x, y = gaussian_pair(0.7, 1000, seed=8)
        assert knn_mi(2.0 * x, y).value == pytest.approx(
            knn_mi(x, y).value, abs=0.05
        )

    def test_k_at_least_sample_count_rejected(self):
        x = np.arange(5.0)
        with pytest.raises(ValueError, match="more than k"):
            knn_mi(x, x, k=5)

    def test_degenerate_data_rejected(self):
        x = np.ones(50)
        with pytest.raises(ValueError, match="degenerate"):
            knn_mi(x, x)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="same number"):
            knn_mi(np.arange(5.0), np.arange(6.0))


class TestKnnCmi:
    def test_independent_conditioner_matches_unconditional(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal(1000)
        y = x + rng.standard_normal(1000)
        z = rng.standard_normal(1000)
        assert knn_cmi(x, y, z).value == pytest.approx(
            knn_mi(x, y).value, abs=0.05
        )

    def test_conditioning_on_y_itself_gives_zero(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal(500)
        y = x + 0.5 * rng.standard_normal(500)
        assert knn_cmi(x, y, y).value == pytest.approx(0.0, abs=1e-12)

    def test_all_independent_near_zero(self):
        rng = np.random.default_rng(15)
        est = knn_cmi(
            rng.standard_normal(1000),
            rng.standard_normal(1000),
            rng.standard_normal(1000),
        )
        assert abs(est.value) < 0.05

    def test_errors_match_knn_mi(self):
        x = np.ones(20)
        with pytest.raises(ValueError, match="degenerate"):
            knn_cmi(x, x, x)


def pinned_inputs(case):
    """Fixed draws for the pinned estimates: x (600, 3), y (600,) with
    I(x_0; y) > 0, z (600, 2). "rounded" rounds all to 0.1, so distances
    tie and many k-th radii are 0; "tiny" puts them at 3 + 1e-13 * draw,
    where p +- r rounds and the spacing of floats makes ties."""
    rng = np.random.default_rng(2409)
    x = rng.standard_normal((600, 3))
    y = 0.6 * x[:, 0] + 0.8 * rng.standard_normal(600)
    z = rng.standard_normal((600, 2))
    if case == "rounded":
        x, y, z = np.round(x, 1), np.round(y, 1), np.round(z, 1)
    elif case == "tiny":
        x, y, z = 3.0 + 1e-13 * x, 3.0 + 1e-13 * y, 3.0 + 1e-13 * z
    return x, y, z


class TestPinnedEstimates:
    """Exact floats, recorded before the counts moved from kd-trees to
    sorted columns; any change to the counting shows here."""

    @pytest.mark.parametrize(
        "case, mi1, mi3, self_mi, cmi1, cmi2",
        [
            ("plain", 0.2922280251451497, 0.25841222710216893, 5.4733117553029285,
             0.2946133551868919, 0.04193410621125215),
            ("rounded", 0.7899689934792811, 0.5003979032027877, 1.910479202209319,
             0.5504333118100107, 0.27672991387211465),
            ("tiny", 0.33556063872776676, 0.2730223607990414, 5.964589533080707,
             0.32275834151775584, 0.05372370653760372),
        ],
    )
    def test_values(self, case, mi1, mi3, self_mi, cmi1, cmi2):
        x, y, z = pinned_inputs(case)
        assert knn_mi(x[:, 0], y).value == mi1
        assert knn_mi(x, y, k=4).value == mi3
        assert knn_mi(y, y).value == self_mi
        assert knn_cmi(x[:, 0], y, z[:, 0]).value == cmi1
        assert knn_cmi(x[:, 1], y, z, k=5).value == cmi2


def reference_counts(column, radii):
    """What the one-column count must equal: the kd-tree closed-ball
    count at one ulp below each radius."""
    points = column[:, None]
    return cKDTree(points).query_ball_point(
        points, np.nextafter(radii, 0.0), p=np.inf, return_length=True
    )


def assert_counts_match(x, y, k=3):
    """Both marginals' counts at the joint k-th radii, against the
    reference."""
    radii = _kth_neighbor_radius(np.column_stack([x, y]), k)
    for column in (x, y):
        expected = reference_counts(column, radii)
        assert np.array_equal(_strict_counts(column[:, None], radii), expected)
    return radii


class TestStrictCounts:
    """One-column points are counted in windows of their sorted column;
    the counts must equal the kd-tree's exactly, ties included."""

    @pytest.mark.parametrize("n", [100, 1000, 4500])
    def test_tied_values_and_zero_radii(self, n):
        # a few levels 0.1 apart: whole blocks of ties at every radius
        rng = np.random.default_rng(n)
        x = np.round(0.1 * rng.standard_normal(n), 1)
        y = np.round(0.1 * rng.standard_normal(n), 1)
        radii = assert_counts_match(x, y)
        assert np.any(radii == 0.0)

    @pytest.mark.parametrize("n", [100, 1000, 4500])
    def test_tiny_scale_with_offset(self, n):
        # p +- r rounds to a neighbouring float, so searchsorted alone
        # lands one tie block off
        rng = np.random.default_rng(n + 1)
        x = 3.0 + 1e-13 * rng.standard_normal(n)
        y = 3.0 + 1e-8 * rng.standard_normal(n)
        assert_counts_match(x, y)

    @pytest.mark.parametrize("n", [300, 4500])
    def test_continuous_data(self, n):
        rng = np.random.default_rng(n + 2)
        assert_counts_match(rng.standard_normal(n), rng.standard_normal(n))

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=2, max_value=400),
        decimals=st.sampled_from([None, 0, 1, 2]),
        scale=st.sampled_from([1.0, 1e-8, 1e-13]),
        offset=st.sampled_from([0.0, 3.0, -1e6]),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_radii_match_the_kd_tree(self, seed, n, decimals, scale, offset):
        rng = np.random.default_rng(seed)
        column = rng.standard_normal(n)
        if decimals is not None:
            column = np.round(column, decimals)
        column = offset + scale * column
        # radii from 0 to the full spread, plus exact gaps between samples
        radii = np.abs(rng.standard_normal(n)) * rng.choice([0.0, 1e-3, 1.0], n) * scale
        gaps = np.abs(column - rng.permutation(column))
        radii = np.where(rng.random(n) < 0.5, gaps, radii)
        counts = _strict_counts(column[:, None], radii)
        assert np.array_equal(counts, reference_counts(column, radii))

