"""Monte-Carlo measurement of per-mode privacy leakage.

Per-node gradients are modeled as i.i.d. standard normal scalars, one
sample column per node. For every corrupt node k and honest target i
the estimator evaluates how much the mode's observation reveals about
G_i given what k knows, its own G_k:

    CFL      I(G_i; G_i)                    (every gradient is visible)
    CFL_SA   I((1/n) sum_j G_j; G_i | G_k)
    DFL      I({neighbor gradients}; G_i | G_k)
    DFL_SA   I(sum_j a[k,j] G_j; G_i | G_k)

and averages over all (k, i) pairs. The observation is the one that
protocol.extract_observation returns for the sample columns: the
view with k's own term dropped, plus the nodes it shows directly.
Because G_k is independent of the rest, conditioning on it equals
dropping it, so the unconditional KSG estimator runs on that view (the
identity under which Kraskov-Stoegbauer-Grassberger and Frenzel-Pompe
agree). A target the view shows directly scores the self term; every
other target gets one KSG estimate against the view. The test suite
checks the averages against knn_cmi on the full observation.

Self-information I(G_i; G_i) diverges for continuous variables: the
estimator reports its finite value at the given sample count, never a
symbolic infinity, so relative leakage depends on the pinned sample
size. A mode's average divided by the CFL average gives the relative
leakage that the topology/aggregation combination leaks per node.

Beside the estimates stand the Gaussian closed forms of the same view:
infotheory.gaussian_view_mi on protocol.view_matrix, one call per
corrupt node. They are reported for the secure-aggregation modes, whose
values are finite; for CFL and DFL they are +inf on every shown target.

A sweep (run_experiment) is a grid of independent cells. Each (cell,
mode) estimate runs in a forked worker process, one worker per usable
CPU; the parent draws the inputs and assembles the report in sweep
order, so the report does not depend on the number of workers.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import signal
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.spatial.distance import cdist
from scipy.special import digamma

from .infotheory import (
    SampleMatrix,
    _count_index,
    _kth_neighbor_radius,
    _strict_counts,
    gaussian_view_mi,
    knn_mi,
)
from .protocol import ALL_MODES, Mode, extract_observation, view_matrix
from .topology import (
    Graph,
    WeightMatrix,
    generate_graph,
    metropolis_weights,
    min_connected_density,
)

__all__ = [
    "ExperimentConfig",
    "PairLeakage",
    "ModeLeakage",
    "CellSummary",
    "LeakageReport",
    "RelationVerdict",
    "CellVerdict",
    "Proposition1Verdict",
    "draw_gradient_samples",
    "estimate_mode_leakage",
    "verify_proposition1",
    "run_experiment",
    "analytic_cell_average",
    "cell_seed_sequences",
    "cell_topology",
]

# Multi-column observations (DFL's neighbor gradients) up to this many
# samples take their radii and observation counts from the observation's
# N x N max-norm distance matrix (one float buffer, 8 MB at N=1000),
# mostly from each point's _NEIGHBOR_CANDIDATES nearest neighbors in it;
# beyond it, where the matrix would pass 128 MB, from kd-trees. The
# matrix and the candidates are built once per corrupt node and serve
# all its targets, while the kd-tree path searches a tree over the
# observation and the target for every target, so it loses on every
# probed observation, more so the more neighbors: DFL alone at N=1000,
# one thread, took 0.19 s on the matrix against 0.25 s on kd-trees at
# n=8, density 0.3; 0.11 s against 0.21 s at n=8, density 0.9; 0.47 s
# against 3.6 s at n=16, density 0.3 (BENCH_sweep.json, candidates);
# and 1.0 s against 67.6 s at n=30, density 0.6 (kd-trees: fork_pool).
_MATRIX_PATH_MAX_SAMPLES = 4000

# Nearest observation neighbors kept per point on the matrix path. A
# point whose k-th joint neighbor lies among them is settled from them
# alone; any other is recounted on its full matrix row. DFL at n=8,
# N=1000 took 0.26/0.12 s at density 0.3/0.9 with 16 candidates,
# 0.19/0.11 s with 32 and 0.18/0.12 s with 64; at n=30, density 0.6,
# 0.97 s with 32 and 1.16 s with 64.
_NEIGHBOR_CANDIDATES = 32


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep definition for the leakage experiment."""

    n_values: tuple[int, ...] = (10, 20, 30, 40, 50)
    densities: tuple[float, ...] = (0.3, 0.6, 0.9)
    samples: int = 1000
    k_nn: int = 3
    seed: int = 0
    modes: tuple[Mode, ...] = ALL_MODES

    def __post_init__(self):
        object.__setattr__(self, "n_values", tuple(int(v) for v in self.n_values))
        object.__setattr__(self, "densities", tuple(float(d) for d in self.densities))
        object.__setattr__(
            self, "modes", tuple(Mode.parse(m) if isinstance(m, str) else m for m in self.modes)
        )
        if self.samples < 100:
            raise ValueError(f"samples must be >= 100, got {self.samples}")
        if self.k_nn < 1:
            raise ValueError(f"k_nn must be >= 1, got {self.k_nn}")
        if self.k_nn >= self.samples:
            raise ValueError(
                f"k_nn must be < samples, got k_nn={self.k_nn} and "
                f"samples={self.samples}"
            )
        if not self.n_values:
            raise ValueError("n_values is empty")
        if not self.modes:
            raise ValueError("modes is empty")
        needs_graph = any(m.decentralized for m in self.modes)
        for n in self.n_values:
            if n < 2:
                raise ValueError(f"node counts must be >= 2, got {n}")
            for d in self.densities:
                if not (0.0 < d <= 1.0):
                    raise ValueError(f"density {d} outside (0, 1]")
                if needs_graph and d < min_connected_density(n):
                    raise ValueError(
                        f"density {d} infeasible for a connected graph on "
                        f"{n} nodes (minimum {min_connected_density(n):.6g})"
                    )
        if not self.densities:
            raise ValueError("densities is empty")


@dataclass(frozen=True)
class PairLeakage:
    """One (corrupt node, honest target) estimator evaluation.

    corrupt is -1 for CFL, whose per-target term does not involve a
    corrupt-node index. mi_analytic is the closed form for the
    secure-aggregation modes and NaN for CFL / DFL, whose shown targets
    have infinite self-information."""

    mode: Mode
    n: int
    density: float
    corrupt: int
    target: int
    mi_nats: float
    mi_analytic: float


@dataclass(frozen=True)
class ModeLeakage:
    """Per-pair estimates plus their average for one mode on one cell."""

    mode: Mode
    pairs: tuple[tuple[int, int, float], ...]  # (corrupt, target, nats)
    average: float


@dataclass(frozen=True)
class CellSummary:
    mode: Mode
    n: int
    density: float
    actual_density: float  # realized 2m/(n(n-1)); NaN without a graph
    leakage_nats: float
    analytic_nats: float
    relative: float


@dataclass
class LeakageReport:
    pairs: list[PairLeakage] = field(default_factory=list)
    summary: list[CellSummary] = field(default_factory=list)
    graphs: dict[tuple[int, float], Graph] = field(default_factory=dict)

    def cell(self, mode: Mode, n: int, density: float) -> CellSummary:
        for row in self.summary:
            if row.mode is mode and row.n == n and row.density == density:
                return row
        raise KeyError(f"no cell ({mode.value}, n={n}, density={density})")

    def cells(self) -> list[tuple[int, float]]:
        seen: list[tuple[int, float]] = []
        for row in self.summary:
            key = (row.n, row.density)
            if key not in seen:
                seen.append(key)
        return seen


def draw_gradient_samples(n: int, samples: int, seed) -> SampleMatrix:
    """n independent standard-normal columns, reproducible per seed."""
    rng = np.random.default_rng(seed)
    return SampleMatrix(data=rng.standard_normal((samples, n)))


class _CellEstimator:
    """KSG evaluator shared by the many estimates in one cell.

    mi(i) gives exactly knn_mi(observation, G_i) (same radii, same
    strict counts) for the observation last passed to observe(), and
    self_mi(i) exactly knn_mi(G_i, G_i). A multi-column observation of
    at most _MATRIX_PATH_MAX_SAMPLES rows takes its radii and counts
    from its max-norm distance matrix, built once per observation, and
    from each point's _NEIGHBOR_CANDIDATES nearest observation neighbors
    in it (_matrix_counts); any other observation gets them from
    _kth_neighbor_radius and _strict_counts over its count index (its
    sorted column, or a kd-tree when it has several columns), also built
    once per observation. Target counts always come from _strict_counts
    on the target's sorted column; that column and the self term are
    cached for the whole cell.
    """

    def __init__(self, data: np.ndarray, k: int):
        self.data = data
        self.k = k
        self._psi = float(digamma(k)) + float(digamma(data.shape[0]))
        self._sorted_columns: dict[int, np.ndarray] = {}
        self._self_mi: dict[int, float] = {}
        self._x: np.ndarray | None = None
        self._x_index = None
        self._x_dist: np.ndarray | None = None
        self._candidates: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def self_mi(self, i: int) -> float:
        """I(G_i; G_i): the term of a target the observation shows.

        In one dimension a point's nearest neighbors on each side come in
        order, so its k+1 nearest distances (itself included) lie in a
        +-k window of the sorted column. When every point's k-th distance
        is strictly beyond its (k-1)-th (and so above 0), exactly k points
        lie strictly inside each radius in both marginals, and the value
        is knn_mi's expression with every count k. Otherwise knn_mi runs.
        """
        if i not in self._self_mi:
            k = self.k
            column = self._sorted_column(i)
            n = len(column)
            pad = np.full(k, np.inf)
            windows = sliding_window_view(np.concatenate([pad, column, pad]), 2 * k + 1)
            dist = np.abs(windows - column[:, None])
            dist.partition((k - 1, k), axis=1)
            if n > k and np.all(dist[:, k] > dist[:, k - 1]):
                counts = np.full(n, k)
                value = float(digamma(k) + digamma(n) - np.mean(digamma(counts) + digamma(counts)))
            else:
                value = knn_mi(self.data[:, i], self.data[:, i], k=k).value
            self._self_mi[i] = value
        return self._self_mi[i]

    def observe(self, observed: np.ndarray) -> None:
        """Make observed, an (N,) or (N, d) array, the one mi() scores."""
        self._x = observed.reshape(len(observed), -1)
        self._x_index = self._x_dist = self._candidates = None

    def mi(self, i: int) -> float:
        """I(observation; G_i) in nats."""
        n_samples, d = self._x.shape
        if d > 1 and n_samples <= _MATRIX_PATH_MAX_SAMPLES:
            cx, cy = self._matrix_counts(i)
        else:
            cx, cy = self._tree_counts(i)
        return self._psi - float(np.mean(digamma(cx) + digamma(cy)))

    def _sorted_column(self, i: int) -> np.ndarray:
        if i not in self._sorted_columns:
            self._sorted_columns[i] = _count_index(self.data[:, i, None])
        return self._sorted_columns[i]

    def _target_counts(self, i: int, radii: np.ndarray) -> np.ndarray:
        return _strict_counts(self.data[:, i, None], radii, index=self._sorted_column(i))

    def _tree_counts(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        radii = _kth_neighbor_radius(np.hstack([self._x, self.data[:, i, None]]), self.k)
        if self._x_index is None:
            self._x_index = _count_index(self._x)
        return (
            _strict_counts(self._x, radii, index=self._x_index),
            self._target_counts(i, radii),
        )

    def _observe_matrix(self) -> None:
        """The observation's distance matrix and, per point, the indices
        and distances of its m nearest observation neighbors (itself
        among them) and the (m+1)-th smallest distance b, a bound below
        every other point's distance. m = min(_NEIGHBOR_CANDIDATES, N-1);
        with m <= k the candidates cannot hold a k-th neighbor and are
        not kept."""
        self._x_dist = cdist(self._x, self._x, "chebyshev")
        m = min(_NEIGHBOR_CANDIDATES, len(self._x) - 1)
        if m > self.k:
            order = np.argpartition(self._x_dist, m, axis=1)
            nearest = order[:, :m].copy()
            bound = np.take_along_axis(self._x_dist, order[:, m, None], axis=1)[:, 0]
            del order  # N x N indices: drop them before any target
            self._candidates = (
                nearest,
                np.take_along_axis(self._x_dist, nearest, axis=1),
                bound,
            )

    def _matrix_counts(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Radii and observation counts of mi(i) on the matrix path.

        For a point with candidate bound b, every point outside its
        candidates is at least b away in the observation, and so in the
        joint space. If the k-th joint distance r among the candidates
        has b >= r, it is the k-th over all points; if also b >
        nextafter(r, 0), no outside point is counted. Such a point is
        settled from its candidates; any other is recounted on its full
        matrix row, as knn_mi's rule reads: joint distance max(observation
        distance, |y_a - y_b|), k-th smallest (itself at 0 included),
        count of observation distances <= nextafter(r, 0)."""
        if self._x_dist is None:
            self._observe_matrix()
        x_dist = self._x_dist
        y = self.data[:, i]
        if self._candidates is None:
            radii = np.empty(len(y))
            counts = np.empty(len(y), dtype=np.intp)
            rows = np.arange(len(y))
        else:
            nearest, near_dist, bound = self._candidates
            joint = np.maximum(near_dist, np.abs(y[:, None] - y[nearest]))
            joint.partition(self.k, axis=1)
            radii = joint[:, self.k]
            strict = np.nextafter(radii, 0.0)
            counts = np.count_nonzero(near_dist <= strict[:, None], axis=1)
            rows = np.flatnonzero((bound < radii) | (bound <= strict))
        if rows.size:
            joint = np.maximum(x_dist[rows], np.abs(y[rows, None] - y))
            joint.partition(self.k, axis=1)
            radii[rows] = joint[:, self.k]
            strict = np.nextafter(radii[rows], 0.0)
            counts[rows] = np.count_nonzero(x_dist[rows] <= strict[:, None], axis=1)
        return counts, self._target_counts(i, radii)


def estimate_mode_leakage(
    mode: Mode,
    samples: SampleMatrix,
    graph: Graph | None = None,
    weights: WeightMatrix | None = None,
    k_nn: int = 3,
    corrupt_nodes: Sequence[int] | None = None,
) -> ModeLeakage:
    """Estimate one mode's leakage table over (corrupt, target) pairs.

    Each corrupt node's observation is protocol.extract_observation's
    view of the sample columns. Targets that view shows directly
    contribute the self term I(G_i; G_i); every other target gets one
    KSG estimate against the view. corrupt_nodes restricts the
    enumeration of k (an unbiased subsample of the same average); None
    enumerates all nodes. CFL involves no corrupt node and ignores it.
    """
    data = samples.data
    n = samples.n_variables
    if mode is Mode.CFL:
        corrupt_iter: Sequence[int] = (-1,)
    elif corrupt_nodes is None:
        corrupt_iter = range(n)
    else:
        corrupt_iter = sorted(corrupt_nodes)
    est = _CellEstimator(data, k_nn)
    pairs: list[tuple[int, int, float]] = []
    for k in corrupt_iter:
        observed, visible = extract_observation(mode, k, data, graph, weights)
        est.observe(observed)
        for i in range(n):
            if i != k:
                pairs.append((k, i, est.self_mi(i) if i in visible else est.mi(i)))

    average = float(np.mean([p[2] for p in pairs]))
    return ModeLeakage(mode=mode, pairs=tuple(pairs), average=average)


def _closed_forms(
    mode: Mode, n: int, graph: Graph | None = None, weights: WeightMatrix | None = None
) -> tuple[dict[tuple[int, int], float], float]:
    """Closed-form leakage of every (corrupt k, target i) pair, k != i,
    and its average over those pairs: gaussian_view_mi of each corrupt
    node's view_matrix. Only the secure-aggregation modes get a table,
    DFL_SA given its graph and weights (CFL and DFL would give +inf on
    every shown target). Otherwise the table is empty and the average NaN.
    """
    if not mode.secure_aggregation or (mode.decentralized and weights is None):
        return {}, math.nan
    table = {}
    for k in range(n):
        mi = gaussian_view_mi(view_matrix(mode, k, n, graph, weights))
        table.update(((k, i), float(mi[i])) for i in range(n) if i != k)
    return table, float(np.mean(list(table.values())))


def cell_seed_sequences(seed: int, n: int, density: float):
    """Independent RNG material for one sweep cell, keyed by its
    coordinates so cells can be recomputed in isolation.

    Returns (sample seed sequence, graph seed int, spare seed
    sequence); nothing in fedleak draws from the spare one."""
    cell = np.random.SeedSequence(
        entropy=(int(seed), int(n), int(round(density * 1_000_000)))
    )
    sample_ss, graph_ss, spare_ss = cell.spawn(3)
    graph_seed = int(graph_ss.generate_state(1)[0])
    return sample_ss, graph_seed, spare_ss


def cell_topology(seed: int, n: int, density: float) -> tuple[Graph, WeightMatrix]:
    """The sweep cell's graph, drawn from its graph seed, and the
    graph's Metropolis weights. Every command that needs a cell's
    topology takes it from here, so they all see the same graph."""
    _, graph_seed, _ = cell_seed_sequences(seed, n, density)
    graph = generate_graph(n, density, graph_seed)
    return graph, metropolis_weights(graph)


def analytic_cell_average(
    mode: Mode, n: int, density: float, seed: int
) -> tuple[float, float]:
    """Closed-form cell average and the realized graph density.

    The graph for DFL_SA is cell_topology's, as in run_experiment, so
    analytic values line up with estimated cells. Raises ValueError
    where no closed form exists.
    """
    graph = weights = None
    actual_density = math.nan
    if mode is Mode.DFL_SA:
        graph, weights = cell_topology(seed, n, density)
        actual_density = graph.density
    _, average = _closed_forms(mode, n, graph, weights)
    if math.isnan(average):
        raise ValueError(f"no closed form for mode {mode.value} at n={n}")
    return average, actual_density


def _estimate_unit(unit: tuple) -> ModeLeakage:
    """One (cell, mode) estimate, run in a pool worker.

    The pool pickles this function by name; the worker looks
    estimate_mode_leakage up when it runs, so a wrapper put in its place
    (a tracer's, a test's), which could not be pickled, still runs."""
    mode, samples, graph, weights, k_nn = unit
    return estimate_mode_leakage(mode, samples, graph=graph, weights=weights, k_nn=k_nn)


def _init_worker() -> None:
    # The pool ends its workers with SIGTERM, so a worker takes its
    # default action, not the parent's handler. Ctrl-C reaches the whole
    # process group; only the parent acts on it.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


class _Terminated(BaseException):
    """A SIGTERM that arrived while the pool ran."""


def _raise_terminated(signum, frame):
    raise _Terminated


@contextmanager
def _pool_results(units: list[tuple]):
    """Yield an iterator of _estimate_unit(unit) over units, in order.

    The units run on forked workers, one per usable CPU but no more than
    there are units. Forked workers start with numpy and scipy loaded and
    with the parent's binding of estimate_mode_leakage; spawned ones
    would import both again. Every worker is ended when the block exits:
    after the last result, when a unit raises (its exception reaches the
    caller), or on SIGTERM, which then ends the workers and the parent,
    by SIGTERM's default action. A process that handles or ignores
    SIGTERM itself, or a thread other than the main one (which cannot
    set a handler), keeps its own handling."""
    workers = min(len(os.sched_getaffinity(0)), len(units))
    catch = (
        threading.current_thread() is threading.main_thread()
        and signal.getsignal(signal.SIGTERM) is signal.SIG_DFL
    )
    if catch:
        signal.signal(signal.SIGTERM, _raise_terminated)
    try:
        with multiprocessing.get_context("fork").Pool(workers, _init_worker) as pool:
            yield pool.imap(_estimate_unit, units, chunksize=1)
    except _Terminated:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.raise_signal(signal.SIGTERM)
        raise  # only if SIGTERM is blocked in this thread
    finally:
        if catch:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)


def run_experiment(config: ExperimentConfig, progress=None) -> LeakageReport:
    """Full sweep over n_values x densities x modes; deterministic per seed.

    Each cell derives its own RNG streams from (seed, n, density), so
    cells are independent of sweep order and may be recomputed in
    isolation. The parent draws every cell's samples, graph and weights
    in sweep order; each (cell, mode) estimate_mode_leakage then runs on
    a pool of forked worker processes (_pool_results), and the report
    is assembled in sweep order from the results. No result depends on
    the number of workers. progress, when given, is called as
    progress(done, total, n, density) once all of a cell's estimates
    have arrived."""
    report = LeakageReport()
    needs_graph = any(m.decentralized for m in config.modes)
    cells = []  # (n, density, graph, weights, actual density) in sweep order
    units = []  # estimate_mode_leakage arguments of each (cell, mode)
    for n in config.n_values:
        for density in config.densities:
            sample_ss, _, _ = cell_seed_sequences(config.seed, n, density)
            samples = draw_gradient_samples(n, config.samples, sample_ss)
            graph = w = None
            actual_density = math.nan
            if needs_graph:
                graph, w = cell_topology(config.seed, n, density)
                actual_density = graph.density
                report.graphs[(n, density)] = graph
            cells.append((n, density, graph, w, actual_density))
            units += [(mode, samples, graph, w, config.k_nn) for mode in config.modes]

    with _pool_results(units) as results:
        for done, (n, density, graph, w, actual_density) in enumerate(cells, 1):
            averages: dict[Mode, float] = {}
            analytic: dict[Mode, float] = {}
            for mode in config.modes:
                result = next(results)
                averages[mode] = result.average
                closed, analytic[mode] = _closed_forms(mode, n, graph, w)
                for corrupt, target, value in result.pairs:
                    report.pairs.append(
                        PairLeakage(
                            mode=mode,
                            n=n,
                            density=density,
                            corrupt=corrupt,
                            target=target,
                            mi_nats=value,
                            mi_analytic=closed.get((corrupt, target), math.nan),
                        )
                    )
            cfl_avg = averages.get(Mode.CFL, math.nan)
            for mode in config.modes:
                report.summary.append(
                    CellSummary(
                        mode=mode,
                        n=n,
                        density=density,
                        actual_density=actual_density if mode.decentralized else math.nan,
                        leakage_nats=averages[mode],
                        analytic_nats=analytic[mode],
                        relative=averages[mode] / cfl_avg if cfl_avg else math.nan,
                    )
                )
            if progress is not None:
                progress(done, len(cells), n, density)
    return report


@dataclass(frozen=True)
class RelationVerdict:
    """One inequality of the ordering chain on one cell."""

    name: str
    gap: float  # estimated
    analytic_gap: float  # from the closed forms; NaN unless both sides have one
    checked: bool
    direction_ok: bool  # estimated gap >= -tol
    margin_ok: bool  # see verify_proposition1

    @property
    def ok(self) -> bool:
        return not self.checked or (self.direction_ok and self.margin_ok)


@dataclass(frozen=True)
class CellVerdict:
    n: int
    density: float
    leakage: dict
    relations: tuple[RelationVerdict, ...]

    @property
    def holds(self) -> bool:
        return all(r.ok for r in self.relations)


@dataclass(frozen=True)
class Proposition1Verdict:
    tol: float
    cells: tuple[CellVerdict, ...]

    @property
    def holds(self) -> bool:
        return all(c.holds for c in self.cells)


def verify_proposition1(report: LeakageReport, tol: float) -> Proposition1Verdict:
    """Check I_CFL >= I_DFL > I_DFL_SA >= I_CFL_SA on every cell.

    The outer relations hold with equality exactly on the complete
    graph, so for density < 1 their gaps must exceed tol and at density
    1 they must vanish within tol. Where both sides have a closed form
    (dfl_sa vs cfl_sa) the closed-form gap decides that margin instead,
    and need only exceed 0: at high density the true gap is far below
    any tol that covers estimator noise. The middle relation is strict
    for any connected graph on more than two nodes and is skipped at
    n = 2. All three also get a direction check on the estimated gap
    with a tol cushion for estimator noise. Returns a verdict object;
    never raises.
    """
    cells = []
    for n, density in report.cells():
        rows = {}
        for mode in ALL_MODES:
            try:
                rows[mode] = report.cell(mode, n, density)
            except KeyError:
                pass
        missing = [m for m in ALL_MODES if m not in rows]
        if missing:
            raise ValueError(
                f"cell (n={n}, density={density}) lacks modes "
                f"{[m.value for m in missing]}; all four are needed"
            )
        complete = density >= 1.0
        relations = []
        for name, lhs, rhs, outer in (
            ("cfl_vs_dfl", Mode.CFL, Mode.DFL, True),
            ("dfl_vs_dfl_sa", Mode.DFL, Mode.DFL_SA, False),
            ("dfl_sa_vs_cfl_sa", Mode.DFL_SA, Mode.CFL_SA, True),
        ):
            gap = rows[lhs].leakage_nats - rows[rhs].leakage_nats
            exact = rows[lhs].analytic_nats - rows[rhs].analytic_nats
            checked = outer or n > 2
            direction_ok = gap >= -tol
            if outer and not math.isnan(exact):
                margin_ok = abs(exact) <= tol if complete else exact > 0
            elif outer and complete:
                margin_ok = abs(gap) <= tol
            else:
                margin_ok = gap > tol
            relations.append(
                RelationVerdict(
                    name=name,
                    gap=gap,
                    analytic_gap=exact,
                    checked=checked,
                    direction_ok=direction_ok,
                    margin_ok=margin_ok,
                )
            )
        cells.append(
            CellVerdict(
                n=n,
                density=density,
                leakage={m.value: r.leakage_nats for m, r in rows.items()},
                relations=tuple(relations),
            )
        )
    return Proposition1Verdict(tol=tol, cells=tuple(cells))
