import math
import os
import time
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtri

from fedleak import infotheory, leakage
from fedleak.infotheory import SampleMatrix, knn_cmi, knn_mi
from fedleak.leakage import (
    CellSummary,
    ExperimentConfig,
    PairLeakage,
    analytic_cell_average,
    cell_seed_sequences,
    cell_topology,
    draw_gradient_samples,
    run_experiment,
    verify_proposition1,
)
from fedleak.protocol import ALL_MODES, Mode
from fedleak.topology import Graph, generate_graph, metropolis_weights


def cfl_sa_closed_form(n):
    return 0.5 * math.log((n - 1) / (n - 2))


def dfl_sa_closed_form(weights, k, i):
    """0.5 * ln(s / (s - a[k,i]^2)) with s = sum_{j != k} a[k,j]^2."""
    row = weights.row(k)
    s = float(np.sum(row**2) - row[k] ** 2)
    return 0.5 * math.log(s / (s - row[i] ** 2))


class TestConfigValidation:
    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="samples"):
            ExperimentConfig(samples=50)

    def test_infeasible_density_rejected(self):
        with pytest.raises(ValueError, match="infeasible"):
            ExperimentConfig(n_values=(4,), densities=(0.2,))

    def test_density_only_matters_for_decentralized_modes(self):
        ExperimentConfig(n_values=(4,), densities=(0.2,), modes=(Mode.CFL, Mode.CFL_SA))

    def test_mode_strings_accepted(self):
        config = ExperimentConfig(modes=("cfl", "dfl_sa"))
        assert config.modes == (Mode.CFL, Mode.DFL_SA)

    def test_empty_modes_rejected(self):
        with pytest.raises(ValueError, match="modes"):
            ExperimentConfig(modes=())


class TestDrawGradientSamples:
    def test_moments_and_independence(self):
        m = draw_gradient_samples(6, 1000, seed=0)
        assert np.abs(m.data.mean(axis=0)).max() < 0.1
        assert np.abs(m.data.var(axis=0) - 1.0).max() < 0.1
        corr = np.corrcoef(m.data.T)
        off = corr[~np.eye(6, dtype=bool)]
        assert np.abs(off).max() < 0.1

    def test_seed_reproducible(self):
        a = draw_gradient_samples(4, 200, seed=7)
        b = draw_gradient_samples(4, 200, seed=7)
        assert np.array_equal(a.data, b.data)


def mode_pairs(mode, samples, graph=None, weights=None, k_nn=3):
    """(k, i, nats) of every pair of one mode on one cell, in one
    process: the sweep's task, _corrupt_pairs, for each corrupt node
    alone, in corrupt order (-1 alone for CFL, which involves none)."""
    est = leakage._CellEstimator(samples.data, k_nn)
    corrupt = (-1,) if mode is Mode.CFL else range(samples.n_variables)
    return [
        pair for k in corrupt for pair in leakage._corrupt_pairs(est, mode, (k,), graph, weights)
    ]


def average(pairs):
    return float(np.mean([value for _, _, value in pairs]))


@pytest.fixture(scope="module")
def small_cell():
    n = 8
    samples = draw_gradient_samples(n, 1000, seed=21)
    graph = generate_graph(n, 0.5, seed=3)
    weights = metropolis_weights(graph)
    return n, samples, graph, weights


class TestEstimateModeLeakage:
    def test_cfl_terms_are_self_information(self, small_cell):
        n, samples, _, _ = small_cell
        pairs = mode_pairs(Mode.CFL, samples)
        assert len(pairs) == n
        for corrupt, target, value in pairs:
            assert corrupt == -1
            assert value == pytest.approx(
                knn_mi(samples.data[:, target], samples.data[:, target]).value
            )

    def test_dfl_on_complete_graph_equals_cfl_average(self, small_cell):
        n, samples, _, _ = small_cell
        complete = generate_graph(n, 1.0, seed=0)
        w = metropolis_weights(complete)
        cfl = mode_pairs(Mode.CFL, samples)
        dfl = mode_pairs(Mode.DFL, samples, graph=complete, weights=w)
        # identical estimator calls, just averaged over (k, i) pairs
        assert average(dfl) == pytest.approx(average(cfl), abs=1e-12)

    def test_dfl_relative_leakage_tracks_density(self, small_cell):
        n, samples, graph, weights = small_cell
        cfl = mode_pairs(Mode.CFL, samples)
        dfl = mode_pairs(Mode.DFL, samples, graph=graph, weights=weights)
        assert average(dfl) / average(cfl) == pytest.approx(
            graph.density, abs=0.05
        )

    def test_cfl_sa_average_matches_closed_form(self):
        samples = draw_gradient_samples(10, 1000, seed=5)
        pairs = mode_pairs(Mode.CFL_SA, samples)
        assert len(pairs) == 90
        assert average(pairs) == pytest.approx(cfl_sa_closed_form(10), abs=0.01)

    def test_dfl_sa_non_neighbor_pairs_near_zero(self, small_cell):
        n, samples, graph, weights = small_cell
        pairs = mode_pairs(Mode.DFL_SA, samples, graph=graph, weights=weights)
        far = [p for p in pairs if not graph.adjacency[p[0], p[1]]]
        # A non-neighbor's gradient is absent from the aggregate, so each
        # true MI is 0 and each estimate is KSG noise around it. Its scale
        # comes from a shuffle null of the same reduced observation
        # (Holmes and Nemenman, PRE 100:022404, 2019): permuting the
        # target keeps both marginals and breaks any dependence.
        rng = np.random.default_rng(0)
        null = []
        for corrupt, target, _ in far:
            assert dfl_sa_closed_form(weights, corrupt, target) == 0.0
            row = weights.row(corrupt)
            reduced = samples.data @ row - row[corrupt] * samples.data[:, corrupt]
            for _ in range(2):
                shuffled = rng.permutation(samples.data[:, target])
                null.append(knn_mi(reduced, shuffled).value)
        sigma = float(np.std(null, ddof=1))
        values = np.array([p[2] for p in far])
        # A leak of G_i moves the mean; four standard errors of it.
        assert abs(values.mean()) < 4 * sigma / math.sqrt(len(values))
        # Each pair: a family-wise bound with false-failure rate <= 1e-3.
        z = -ndtri(1e-3 / (2 * len(values)))
        assert np.abs(values).max() < z * sigma

    def test_conditioned_estimates_match_fast_path(self, small_cell):
        # The fast path drops G_k's known term from the observation; the
        # reference conditions the full observation on G_k (Frenzel-Pompe).
        n, samples, graph, weights = small_cell
        data = samples.data
        for mode in (Mode.CFL_SA, Mode.DFL_SA):
            fast = mode_pairs(mode, samples, graph=graph, weights=weights)
            cond = []
            for k in range(n):
                if mode is Mode.CFL_SA:
                    observed = data.sum(axis=1) / n
                else:
                    observed = data @ weights.row(k)
                cond += [
                    knn_cmi(observed, data[:, i], data[:, k]).value
                    for i in range(n)
                    if i != k
                ]
            assert np.mean(cond) == pytest.approx(average(fast), abs=0.05)

    @pytest.mark.parametrize(
        "block, candidates",
        [(None, None), (1, None), (7, None), (None, 4), (None, 10_000)],
        ids=[
            "matrix", "block-1", "block-7", "matrix-most-rows-recounted", "matrix-no-row-recounted"
        ],
    )
    def test_pairs_equal_knn_mi_on_rebuilt_observation(self, monkeypatch, block, candidates):
        if block is not None:
            # 7 divides no sample count below: the last block is short
            monkeypatch.setattr(infotheory, "_BLOCK", block)
        if candidates is not None:
            # 4 leaves the 4k = 12 floor at k = 3: about half the points
            # of the Gaussian and the 0.1-rounded draws find their k-th
            # joint neighbor among them; at least N - 1: nearly every
            # point does
            monkeypatch.setattr(infotheory, "_NEIGHBOR_CANDIDATES", candidates)

        def rounded(samples):
            # rounded to 0.1: tied distances and zero radii in every marginal
            return SampleMatrix(data=np.round(samples.data, 1))

        def check(samples, graph, mode, pairs):
            data = samples.data
            weights = metropolis_weights(graph)
            for k, i, value in pairs:
                target = data[:, i]
                if mode is Mode.CFL:
                    observed = target
                elif mode is Mode.CFL_SA:
                    observed = data.sum(axis=1) - data[:, k]
                elif mode is Mode.DFL_SA:
                    row = weights.row(k)
                    observed = data @ row - row[k] * data[:, k]
                else:
                    nbrs = graph.neighbors(k)
                    observed = target if i in nbrs else data[:, nbrs]
                assert value == knn_mi(observed, target).value, (mode, k, i)

        def check_modes(samples, graph):
            weights = metropolis_weights(graph)
            for mode in ALL_MODES:
                pairs = mode_pairs(mode, samples, graph=graph, weights=weights)
                check(samples, graph, mode, pairs)
                assert len(pairs) == (n if mode is Mode.CFL else n * (n - 1))

        n = 6
        # nodes 0 and 5 are leaves; nodes 1 to 4 have two or three neighbors
        graph = Graph(n=n, edges=((0, 1), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)))
        gaussian = draw_gradient_samples(n, 300, seed=11)
        # rounded to 1: zero joint radii, and observation values shared by
        # more points than there are candidates; row 0 stands apart, or
        # every radius of some self term would be 0
        coarse = np.round(gaussian.data)
        coarse[0] = 10.0 + np.arange(n)
        for samples in (gaussian, rounded(gaussian), SampleMatrix(coarse)):
            check_modes(samples, graph)
        # N = k + 1 has no candidate set; N = k + 2 has one of k + 1 points
        for n_samples in (4, 5):
            check_modes(draw_gradient_samples(n, n_samples, seed=n_samples), graph)
        # node 0 sees 20 neighbors and scores the three nodes beyond node 20
        wide = Graph(n=24, edges=tuple((0, j) for j in range(1, 21)) + ((20, 21), (21, 22), (22, 23)))
        gaussian = draw_gradient_samples(24, 300, seed=12)
        for samples in (gaussian, rounded(gaussian)):
            est = leakage._CellEstimator(samples.data, 3)
            pairs = leakage._corrupt_pairs(est, Mode.DFL, (0,), wide, None)
            check(samples, wide, Mode.DFL, pairs)
            assert [i for _, i, _ in pairs if i > 20] == [21, 22, 23]

    @pytest.mark.parametrize("decimals", [None, 1], ids=["gaussian", "rounded"])
    def test_mi_scores_every_listed_target_as_knn_mi(self, decimals):
        # a one-column observation (an SA aggregate, a single DFL
        # neighbor) is counted once for the stack of every target's
        # radii; a two-column one goes target by target
        data = draw_gradient_samples(6, 300, seed=5).data
        if decimals is not None:
            data = np.round(data, decimals)
        est = leakage._CellEstimator(data, 3)
        targets = [4, 1, 5, 2]
        for observed in (data[:, 1:].sum(axis=1), data[:, 3], data[:, [0, 3]]):
            assert est.mi(observed, []) == []
            values = est.mi(observed, targets)
            assert values == [knn_mi(observed, data[:, i]).value for i in targets]
            assert est.mi(observed, targets[::-1]) == values[::-1]

    def test_no_targets_build_no_candidates(self, monkeypatch):
        # CFL's observation, and DFL's on a complete graph, has many
        # columns and no hidden target: no distance row may be computed
        def no_cdist(*args, **kwargs):
            raise AssertionError("cdist called")

        monkeypatch.setattr(infotheory, "cdist", no_cdist)
        samples = draw_gradient_samples(6, 300, seed=2)
        est = leakage._CellEstimator(samples.data, 3)
        assert est.mi(samples.data[:, [0, 3]], []) == []
        graph = generate_graph(6, 1.0, seed=0)
        assert len(mode_pairs(Mode.DFL, samples, graph=graph)) == 6 * 5

    @pytest.mark.parametrize("k", [16, 32, 40])
    def test_dfl_candidates_grow_with_k(self, k):
        # max(32, 4k) candidates per point: a fixed 32 settled fewer
        # points the closer k came to it, and none from k = 32 on
        n = 6
        graph = Graph(n=n, edges=((0, 1), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)))
        data = draw_gradient_samples(n, 400, seed=k).data
        est = leakage._CellEstimator(data, k)
        for corrupt in (1, 3):
            nbrs = graph.neighbors(corrupt)
            for _, i, value in leakage._corrupt_pairs(est, Mode.DFL, (corrupt,), graph, None):
                observed = data[:, i] if i in nbrs else data[:, nbrs]
                assert value == knn_mi(observed, data[:, i], k=k).value, (corrupt, i)
        nearest, _, _ = est._observe_matrix(data[:, graph.neighbors(1)])
        assert nearest.shape == (400, max(32, 4 * k))

    def test_dfl_memory_stays_below_one_distance_matrix(self):
        # peak below half of one N x N float64 array: the observation's
        # max-norm distances are never all held at once
        n_samples = 2000
        n = 8
        ring = Graph(n=n, edges=tuple((j, (j + 1) % n) for j in range(n)))
        samples = draw_gradient_samples(n, n_samples, seed=3)
        tracemalloc.start()
        try:
            mode_pairs(Mode.DFL, samples, graph=ring, weights=metropolis_weights(ring))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n_samples * n_samples * 8 / 2

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_self_term_equals_knn_mi(self, k):
        rng = np.random.default_rng(k)
        columns = [rng.standard_normal(size) for size in (k + 1, k + 2, 300, 1000)]
        columns += [np.round(rng.standard_normal(1000), 2), np.round(rng.standard_normal(300), 1)]
        # irregular gaps, no tie but one: a duplicate pair a, a then b and
        # p with |b - a| < |p - b|, so p's 2nd and 3rd neighbors tie, one
        # of them 3 places away in the sorted column
        left = np.cumsum(rng.uniform(1.0, 2.0, 20))
        a = left[-1] + 10
        right = a + 40 + np.cumsum(rng.uniform(1.0, 2.0, 20))
        columns.append(rng.permutation(np.concatenate([left, [a, a, a + 0.25, a + 1], right])))
        for column in columns:
            est = leakage._CellEstimator(column[:, None], k)
            assert est.self_mi(0) == knn_mi(column, column, k=k).value, len(column)

    @pytest.mark.parametrize(
        "column", [np.ones(50), np.repeat(np.arange(10.0), 5)], ids=["constant", "ties-of-5"]
    )
    def test_self_term_rejects_what_knn_mi_rejects(self, column):
        # every point has at least k = 3 exact duplicates, so every radius
        # of I(G_i; G_i) is 0; the self term gave a finite value here
        message = "^degenerate data: all joint samples are identical$"
        with pytest.raises(ValueError, match=message):
            knn_mi(column, column)
        est = leakage._CellEstimator(np.column_stack([np.arange(50.0), column]), 3)
        with pytest.raises(ValueError, match=message):
            est.self_mi(1)

    def test_only_views_showing_a_constant_column_reject_it(self):
        # no SA view shows node 2, so each pair is knn_mi on a view that
        # accepts the constant column; building the estimator rejected it
        n = 5
        data = draw_gradient_samples(n, 300, seed=0).data
        data[:, 2] = 1.0
        samples = SampleMatrix(data)
        path = Graph(n=n, edges=tuple((j, j + 1) for j in range(n - 1)))
        weights = metropolis_weights(path)
        for mode in (Mode.CFL_SA, Mode.DFL_SA):
            pairs = mode_pairs(mode, samples, graph=path, weights=weights)
            assert len(pairs) == n * (n - 1)
            for k, i, value in pairs:
                if mode is Mode.CFL_SA:
                    observed = data.sum(axis=1) - data[:, k]
                else:
                    row = weights.row(k)
                    observed = data @ row - row[k] * data[:, k]
                assert value == knn_mi(observed, data[:, i]).value, (mode, k, i)
        # node 4 sees node 3 alone; nodes 1 and 3 see node 2
        est = leakage._CellEstimator(data, 3)
        pairs = leakage._corrupt_pairs(est, Mode.DFL, (4,), path, None)
        assert [value for _, i, value in pairs if i == 2] == [knn_mi(data[:, 3], data[:, 2]).value]
        message = "^degenerate data: all joint samples are identical$"
        with pytest.raises(ValueError, match=message):
            mode_pairs(Mode.CFL, samples)
        with pytest.raises(ValueError, match=message):
            leakage._corrupt_pairs(est, Mode.DFL, (1,), path, None)

    def test_dfl_corrupt_node_without_neighbors_rejected(self):
        est = leakage._CellEstimator(draw_gradient_samples(4, 200, seed=0).data, 3)
        graph = Graph(n=4, edges=((0, 1), (1, 2)))  # node 3 is isolated
        with pytest.raises(ValueError, match="node 3 has no neighbors"):
            leakage._corrupt_pairs(est, Mode.DFL, (3,), graph, None)

    @pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.value)
    @pytest.mark.parametrize(
        "n_samples, k_nn, message",
        [(200, 0, "k must be >= 1, got 0"), (3, 3, "need more than k=3 samples, got 3")],
        ids=["k0", "kN"],
    )
    def test_bad_k_nn_rejected_in_every_mode(self, mode, n_samples, k_nn, message):
        # knn_mi's messages in every mode: the secure-aggregation modes
        # returned 0.0 or raised IndexError, dfl numpy's "kth out of bounds"
        samples = draw_gradient_samples(5, n_samples, seed=1)
        graph = Graph(n=5, edges=tuple((j, (j + 1) % 5) for j in range(5)))
        with pytest.raises(ValueError, match=f"^{message}$"):
            mode_pairs(mode, samples, graph=graph, weights=metropolis_weights(graph), k_nn=k_nn)

    @pytest.mark.parametrize("corrupt", [-1, 8])
    def test_out_of_range_corrupt_node_rejected(self, small_cell, corrupt):
        # -1 would otherwise index node n-1 and score it as its own target.
        _, samples, _, _ = small_cell
        est = leakage._CellEstimator(samples.data, 3)
        with pytest.raises(ValueError, match=f"corrupt node {corrupt} out of range for n=8"):
            leakage._corrupt_pairs(est, Mode.CFL_SA, (corrupt,), None, None)

    def test_missing_topology_rejected(self, small_cell):
        _, samples, graph, _ = small_cell
        est = leakage._CellEstimator(samples.data, 3)
        with pytest.raises(ValueError, match="requires a graph"):
            leakage._corrupt_pairs(est, Mode.DFL, (0,), None, None)
        with pytest.raises(ValueError, match="weight matrix"):
            leakage._corrupt_pairs(est, Mode.DFL_SA, (0,), graph, None)

    @pytest.mark.slow
    def test_sa_averages_match_closed_forms_at_ten_thousand_samples(self):
        n = 10
        graph = generate_graph(n, 0.5, seed=1)
        weights = metropolis_weights(graph)
        samples = draw_gradient_samples(n, 10_000, seed=17)
        cfl_sa = mode_pairs(Mode.CFL_SA, samples)
        assert average(cfl_sa) == pytest.approx(cfl_sa_closed_form(n), abs=0.02)
        dfl_sa = mode_pairs(Mode.DFL_SA, samples, graph=graph, weights=weights)
        expected = np.mean(
            [
                dfl_sa_closed_form(weights, k, i)
                for k in range(n)
                for i in range(n)
                if i != k
            ]
        )
        assert average(dfl_sa) == pytest.approx(expected, abs=0.02)


def cell(report, mode, n, density):
    """The one summary record of (mode, n, density) in report."""
    (row,) = [r for r in report.summary if (r.mode, r.n, r.density) == (mode, n, density)]
    return row


class TestRunExperiment:
    @pytest.fixture(scope="class")
    def small_report(self):
        config = ExperimentConfig(
            n_values=(6,), densities=(0.6, 1.0), samples=400, seed=9
        )
        return run_experiment(config)

    def test_cell_structure(self, small_report):
        cells = [(row.n, row.density) for row in small_report.summary]
        assert list(dict.fromkeys(cells)) == [(6, 0.6), (6, 1.0)]
        # per cell: n CFL rows + 3 modes with n(n-1) rows each
        assert len(small_report.pairs) == 2 * (6 + 3 * 30)

    def test_relative_cfl_is_one(self, small_report):
        for density in (0.6, 1.0):
            assert cell(small_report, Mode.CFL, 6, density).relative == 1.0

    def test_relative_values_bounded(self, small_report):
        for row in small_report.summary:
            assert -0.05 <= row.relative <= 1.05

    def test_pair_relative_is_over_the_cfl_cell_average(self, small_report):
        for pair in small_report.pairs:
            cfl = cell(small_report, Mode.CFL, pair.n, pair.density).leakage_nats
            assert pair.relative == pair.mi_nats / cfl

    def test_graph_and_closed_form_come_from_cell_topology(self, small_report):
        graph, _ = cell_topology(9, 6, 0.6)
        assert small_report.graphs[(6, 0.6)] == graph
        row = cell(small_report, Mode.DFL_SA, 6, 0.6)
        assert analytic_cell_average(Mode.DFL_SA, 6, 0.6, seed=9) == (
            row.analytic_nats,
            row.actual_density,
        )

    def test_actual_density_recorded(self, small_report):
        row = cell(small_report, Mode.DFL, 6, 0.6)
        graph = small_report.graphs[(6, 0.6)]
        assert row.actual_density == pytest.approx(graph.density)

    def test_deterministic_per_seed(self, small_report):
        config = ExperimentConfig(
            n_values=(6,), densities=(0.6, 1.0), samples=400, seed=9
        )
        again = run_experiment(config)
        assert again.pairs == small_report.pairs
        assert again.summary == small_report.summary

    def test_single_mode_config(self):
        config = ExperimentConfig(
            n_values=(5,), densities=(0.9,), samples=150, seed=2, modes=(Mode.CFL_SA,)
        )
        report = run_experiment(config)
        assert {row.mode for row in report.summary} == {Mode.CFL_SA}
        assert math.isnan(cell(report, Mode.CFL_SA, 5, 0.9).relative)
        assert len(report.pairs) == 20
        assert all(math.isnan(pair.relative) for pair in report.pairs)

    def test_cell_seeds_are_coordinate_keyed(self):
        a = cell_seed_sequences(3, 10, 0.5)
        b = cell_seed_sequences(3, 10, 0.5)
        c = cell_seed_sequences(3, 10, 0.6)
        assert a[1] == b[1] != c[1]


def serial_report(config):
    """run_experiment's report built from one mode_pairs call per (cell,
    mode), in one process."""
    pairs, summary = [], []
    for n in config.n_values:
        for density in config.densities:
            sample_ss, _, _ = cell_seed_sequences(config.seed, n, density)
            samples = draw_gradient_samples(n, config.samples, sample_ss)
            graph, weights = cell_topology(config.seed, n, density)
            results = {
                mode: mode_pairs(mode, samples, graph, weights, k_nn=config.k_nn)
                for mode in config.modes
            }
            cfl = average(results[Mode.CFL])
            for mode, result in results.items():
                closed, analytic = leakage._closed_forms(mode, n, graph, weights)
                pairs += [
                    PairLeakage(
                        mode, n, density, k, i, value, closed.get((k, i), math.nan), value / cfl
                    )
                    for k, i, value in result
                ]
                actual = graph.density if mode.decentralized else math.nan
                mean = average(result)
                summary.append(CellSummary(mode, n, density, actual, mean, analytic, mean / cfl))
    return pairs, summary


def assert_no_child():
    # every child of this process, os.fork ones included
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children this process forks, with os.sched_getaffinity
    reporting two usable CPUs."""
    pids = []
    real = os.fork

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    return pids


@pytest.mark.usefixtures("stall_guard")
class TestWorkerPool:
    CONFIG = ExperimentConfig(n_values=(6,), densities=(0.6, 1.0), samples=300, seed=4)

    @staticmethod
    def exact(report):
        # repr writes every float exactly, NaN included
        return repr(report.pairs), repr(report.summary), report.graphs

    def test_report_does_not_depend_on_worker_count(self, monkeypatch, forks):
        reports, sizes = [], []
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            before = len(forks)
            reports.append(run_experiment(self.CONFIG))
            sizes.append(len(forks) - before)
        assert sizes == [1, 2]
        assert len(reports[0].summary) == 8
        assert self.exact(reports[0]) == self.exact(reports[1])

    def test_no_worker_outlives_the_sweep(self):
        run_experiment(self.CONFIG)
        assert_no_child()

    def test_unit_error_reaches_the_caller(self, monkeypatch):
        # _corrupt_pairs is the function each task runs
        real = leakage._corrupt_pairs

        def failing(est, mode, *args):
            if mode is Mode.DFL:
                raise ValueError("no estimate for dfl")
            return real(est, mode, *args)

        monkeypatch.setattr(leakage, "_corrupt_pairs", failing)
        with pytest.raises(ValueError, match="^no estimate for dfl$"):
            run_experiment(self.CONFIG)
        assert_no_child()

    def test_unpicklable_error_reaches_the_caller(self, monkeypatch):
        # An exception the worker cannot pickle still fails the sweep by
        # name, not as a hang or a lost worker.
        real = leakage._corrupt_pairs

        def failing(est, mode, *args):
            if mode is Mode.DFL:
                exc = ValueError("no estimate for dfl")
                exc.hook = lambda: None
                raise exc
            return real(est, mode, *args)

        monkeypatch.setattr(leakage, "_corrupt_pairs", failing)
        with pytest.raises(RuntimeError, match=r"ValueError\('no estimate for dfl'\)") as info:
            run_experiment(self.CONFIG)
        assert "sweep worker" not in str(info.value)
        assert_no_child()

    def test_lost_worker_fails_the_sweep(self, monkeypatch, forks):
        # A lost worker is neither waited for nor replaced: the sweep
        # fails, no process is forked after the workers, and none is left.
        real = leakage._corrupt_pairs

        def exiting(est, mode, corrupt, *args):
            if mode is Mode.DFL and 2 in corrupt:
                os._exit(7)
            return real(est, mode, corrupt, *args)

        monkeypatch.setattr(leakage, "_corrupt_pairs", exiting)
        with pytest.raises(RuntimeError, match=r"^sweep worker (\d+) exited with code 7 ") as info:
            run_experiment(self.CONFIG)
        assert len(forks) == 2
        assert int(info.value.args[0].split()[2]) in forks
        assert_no_child()

    def test_wrapped_estimator_runs_in_the_workers(self, monkeypatch, tmp_path):
        # A wrapper put in place of _corrupt_pairs (a tracer's) is a
        # closure, which cannot be pickled; the workers must still run it.
        expected = self.exact(run_experiment(self.CONFIG))
        real = leakage._corrupt_pairs

        def wrapper(est, mode, *args):
            (tmp_path / mode.value).touch()
            return real(est, mode, *args)

        monkeypatch.setattr(leakage, "_corrupt_pairs", wrapper)
        assert self.exact(run_experiment(self.CONFIG)) == expected
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(m.value for m in ALL_MODES)

    def test_progress_once_per_cell_in_sweep_order(self):
        calls = []
        run_experiment(self.CONFIG, lambda *args: calls.append(args))
        assert calls == [(1, 2, 6, 0.6), (2, 2, 6, 1.0)]

    def test_small_tasks_give_the_serial_report(self, monkeypatch, tmp_path):
        # One task per (cell, mode, corrupt node), DFL nodes with equal
        # neighbour sets sharing one, on inputs the workers inherit at
        # fork; the parent builds each cell's estimator once, before the
        # fork, and no worker builds one.
        config = ExperimentConfig(n_values=(6, 9), densities=(0.6, 1.0), samples=300, seed=5)
        tasks = []
        real_results = leakage._fork_results

        def fork_results(groups, *args):
            tasks.extend(task for group in groups for task in group)
            return real_results(groups, *args)

        class Estimator(leakage._CellEstimator):
            def __init__(self, data, k):
                super().__init__(data, k)
                with open(tmp_path / str(os.getpid()), "a") as log:
                    log.write(f"{id(data)}\n")

        monkeypatch.setattr(leakage, "_fork_results", fork_results)
        monkeypatch.setattr(leakage, "_CellEstimator", Estimator)
        report = run_experiment(config)
        monkeypatch.undo()

        # per cell: one CFL task, n per SA mode, one per DFL neighbour set
        views = {
            (n, d): len({tuple(graph.neighbors(k)) for k in range(n)})
            for n in (6, 9)
            for d in (0.6, 1.0)
            for graph in [cell_topology(5, n, d)[0]]
        }
        assert views[(6, 1.0)] == 6 and views[(9, 1.0)] == 9
        assert len(tasks) == sum(1 + 2 * n + views[(n, d)] for n, d in views)
        pairs, summary = serial_report(config)
        assert repr(report.pairs) == repr(pairs)
        assert repr(report.summary) == repr(summary)
        (log,) = tmp_path.iterdir()
        assert log.name == str(os.getpid())
        cells = log.read_text().split()
        assert len(cells) == len(set(cells)) == 4

    def test_tasks_beyond_a_full_task_pipe_all_run(self, monkeypatch):
        # Far more tasks than workers, each sent to a worker only when its
        # last reply has arrived: every one runs once, in sweep order.
        def one_pair(est, mode, corrupt, *args):
            return [(corrupt[0], 0, 1.0)]

        monkeypatch.setattr(leakage, "_corrupt_pairs", one_pair)
        config = ExperimentConfig(
            n_values=(400, 401, 402), densities=(1.0,), samples=100, modes=(Mode.CFL_SA,)
        )
        report = run_experiment(config)
        assert [(p.n, p.k) for p in report.pairs] == [
            (n, k) for n in (400, 401, 402) for k in range(n)
        ]

    def test_a_worker_holds_one_task_and_none_goes_out_after_a_failure(
        self, monkeypatch, tmp_path
    ):
        # One worker, which starts the tasks in sweep order. While the
        # parent is busy after the first cell, the worker can run only the
        # task it holds; after the failing task no other one starts.
        real = leakage._corrupt_pairs
        started = tmp_path / "started"

        def failing(est, mode, corrupt, graph, weights):
            with open(started, "a") as log:
                log.write(f"{graph.density} {mode.value} {corrupt}\n")
            if graph.density == 1.0 and mode is Mode.CFL_SA and corrupt == (2,):
                raise ValueError("task fails")
            return real(est, mode, corrupt, graph, weights)

        def progress(done, *args):
            if done == 1:
                time.sleep(0.5)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(leakage, "_corrupt_pairs", failing)
        with pytest.raises(ValueError, match="^task fails$"):
            run_experiment(self.CONFIG, progress)
        tasks = [
            f"{graph.density} {mode.value} {corrupt}"
            for d in self.CONFIG.densities
            for graph in [cell_topology(self.CONFIG.seed, 6, d)[0]]
            for mode in self.CONFIG.modes
            for corrupt in leakage._shared_views(mode, 6, graph)
        ]
        j = tasks.index("1.0 cfl_sa (2,)")
        assert started.read_text().splitlines() == tasks[: j + 1]
        assert_no_child()

    @pytest.mark.parametrize("density, observed", [(0.3, 5), (0.9, 3)])
    def test_shared_dfl_views_are_observed_once(self, monkeypatch, tmp_path, density, observed):
        # At d=0.9, 6 of the 8 nodes pair up by neighbour set (1-6, 3-5,
        # 4-7) and the other two have no hidden target; at d=0.3 no two
        # multi-column views are equal.
        config = ExperimentConfig(
            n_values=(8,), densities=(density,), samples=300, seed=0, modes=(Mode.CFL, Mode.DFL)
        )
        real = leakage._CellEstimator._observe_matrix

        def observe_matrix(self, x):
            with open(tmp_path / "calls", "a") as log:
                log.write("x\n")
            return real(self, x)

        monkeypatch.setattr(leakage._CellEstimator, "_observe_matrix", observe_matrix)
        report = run_experiment(config)
        monkeypatch.undo()
        assert len((tmp_path / "calls").read_text().split()) == observed
        pairs, summary = serial_report(config)
        assert repr(report.pairs) == repr(pairs)
        assert repr(report.summary) == repr(summary)


def synthetic_summary(cells):
    """CellSummary records from {(n, density): {mode: value}}."""
    return [
        CellSummary(
            mode=mode,
            n=n,
            density=density,
            actual_density=density,
            leakage_nats=value,
            analytic_nats=math.nan,
            relative=math.nan,
        )
        for (n, density), values in cells.items()
        for mode, value in values.items()
    ]


def holds(verdicts):
    """No relation of any cell failed."""
    return all(r.status != "FAIL" for c in verdicts for r in c.relations)


HEALTHY = {Mode.CFL: 6.0, Mode.DFL: 3.0, Mode.DFL_SA: 0.40, Mode.CFL_SA: 0.10}


class TestVerifyProposition1:
    def test_strict_cell_passes(self):
        verdicts = verify_proposition1(synthetic_summary({(10, 0.5): HEALTHY}), tol=0.05)
        assert holds(verdicts)
        assert [r.name for r in verdicts[0].relations] == [
            "cfl_vs_dfl",
            "dfl_vs_dfl_sa",
            "dfl_sa_vs_cfl_sa",
        ]

    def test_complete_graph_requires_near_equality(self):
        equal = {Mode.CFL: 6.0, Mode.DFL: 6.0, Mode.DFL_SA: 0.1, Mode.CFL_SA: 0.1}
        assert holds(verify_proposition1(synthetic_summary({(10, 1.0): equal}), tol=0.05))
        # a clearly separated outer relation on a complete graph fails
        assert not holds(
            verify_proposition1(synthetic_summary({(10, 1.0): HEALTHY}), tol=0.05)
        )

    def test_inflated_cfl_sa_names_violated_relation(self):
        broken = dict(HEALTHY)
        broken[Mode.CFL_SA] = 2.0
        verdicts = verify_proposition1(synthetic_summary({(10, 0.5): broken}), tol=0.05)
        assert not holds(verdicts)
        failing = [
            r.name for c in verdicts for r in c.relations if r.status == "FAIL"
        ]
        assert failing == ["dfl_sa_vs_cfl_sa"]

    def test_middle_relation_skipped_at_two_nodes(self):
        tied = {Mode.CFL: 6.0, Mode.DFL: 3.0, Mode.DFL_SA: 3.0, Mode.CFL_SA: 0.1}
        verdicts = verify_proposition1(synthetic_summary({(2, 0.5): tied}), tol=0.05)
        middle = verdicts[0].relations[1]
        assert middle.status == "SKIPPED"  # skipped relations never fail the cell
        assert holds(verdicts)

    def test_missing_mode_rejected(self):
        partial = {Mode.CFL: 6.0, Mode.DFL: 3.0, Mode.DFL_SA: 0.4}
        with pytest.raises(ValueError, match="lacks modes"):
            verify_proposition1(synthetic_summary({(10, 0.5): partial}), tol=0.05)

    def test_estimated_small_cell_chain_direction_holds(self):
        config = ExperimentConfig(n_values=(8,), densities=(0.4,), samples=500, seed=4)
        (verdict,) = verify_proposition1(run_experiment(config).summary, tol=0.05)
        for rel in verdict.relations:
            assert rel.gap >= -0.05


class TestPairAnalytics:
    def test_sa_pairs_carry_closed_forms(self):
        config = ExperimentConfig(n_values=(6,), densities=(0.8,), samples=150, seed=1)
        report = run_experiment(config)
        weights = metropolis_weights(report.graphs[(6, 0.8)])
        for pair in report.pairs:
            if pair.mode is Mode.CFL_SA:
                assert pair.mi_analytic == pytest.approx(cfl_sa_closed_form(6), rel=1e-13)
            elif pair.mode is Mode.DFL_SA:
                assert pair.mi_analytic == pytest.approx(
                    dfl_sa_closed_form(weights, pair.k, pair.i), rel=1e-13
                )
            else:
                assert math.isnan(pair.mi_analytic)
