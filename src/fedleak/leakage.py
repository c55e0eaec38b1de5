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

Every estimate of a cell comes from its infotheory._CellEstimator;
infotheory alone knows how the KSG radii and counts are computed.

Self-information I(G_i; G_i) diverges for continuous variables: the
estimator reports its finite value at the given sample count, never a
symbolic infinity, so relative leakage depends on the pinned sample
size. A mode's average divided by the CFL average gives the relative
leakage that the topology/aggregation combination leaks per node;
run_experiment alone divides, for every cell average and every pair.

Beside the estimates stand the Gaussian closed forms of the same view:
infotheory.gaussian_view_mi on protocol.view_matrix, one call per
corrupt node. They are reported for the secure-aggregation modes, whose
values are finite; for CFL and DFL they are +inf on every shown target.

A sweep (run_experiment) is a grid of independent cells. The parent
draws every cell's inputs and builds the cell's estimator, which is
never changed afterwards, then forks one worker per usable CPU, which
inherits them. Each pool task is one (cell, mode, corrupt node): the
pairs of one corrupt node, or of a CFL cell, which a worker only looks
up and scores. The parent assembles the report in sweep order, so the
report does not depend on the number of workers.
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

from .infotheory import SampleMatrix, _CellEstimator, gaussian_view_mi
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
    "CellSummary",
    "LeakageReport",
    "RelationVerdict",
    "CellVerdict",
    "Proposition1Verdict",
    "draw_gradient_samples",
    "verify_proposition1",
    "run_experiment",
    "analytic_cell_average",
    "cell_seed_sequences",
    "cell_topology",
]

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
    have infinite self-information. relative is mi_nats over the cell's
    CFL average, NaN without one, as for CellSummary.relative."""

    mode: Mode
    n: int
    density: float
    corrupt: int
    target: int
    mi_nats: float
    mi_analytic: float
    relative: float


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


def _corrupt_pairs(
    est: _CellEstimator, mode: Mode, k: int, graph: Graph | None, weights: WeightMatrix | None
) -> list[tuple[int, int, float]]:
    """(k, target, nats) of every target i != k, in target order, for the
    corrupt node k of est's cell (-1 for CFL, which involves none):
    extract_observation's view of the sample columns, scored by est."""
    data = est.data
    observed, visible = extract_observation(mode, k, data, graph, weights)
    targets = [i for i in range(data.shape[1]) if i != k]
    hidden = [i for i in targets if i not in visible]
    scored = dict(zip(hidden, est.mi(observed, hidden)))
    return [(k, i, est.self_mi(i) if i in visible else scored[i]) for i in targets]


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


# A pool worker's inputs, set by _init_worker in the forked worker only:
# the (estimator, graph, weights) of every cell.
_worker_cells: Sequence[tuple[_CellEstimator, Graph | None, WeightMatrix | None]] = ()


def _estimate_unit(task: tuple[int, Mode, int]) -> list[tuple[int, int, float]]:
    """The pairs of one (cell index, mode, corrupt node), run in a pool
    worker on the cell's estimator, graph and weights, which the parent
    built before the fork and the worker inherited. The estimator is
    never changed, so any worker may serve any cell's tasks in any order.
    The pool pickles this function by name; the worker looks
    _corrupt_pairs up when it runs, so a wrapper put in its place (a
    tracer's, a test's), which could not be pickled, still runs."""
    cell, mode, k = task
    est, graph, weights = _worker_cells[cell]
    return _corrupt_pairs(est, mode, k, graph, weights)


def _init_worker(cells) -> None:
    global _worker_cells
    _worker_cells = cells
    # The pool ends its workers with SIGTERM, so a worker takes its
    # default action, not the parent's handler. Ctrl-C reaches the whole
    # process group; only the parent acts on it.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


class _Terminated(BaseException):
    """A SIGTERM that arrived while the pool ran."""


def _raise_terminated(signum, frame):
    raise _Terminated


_WORKER_CHECK_S = 0.1


def _group_result(group, workers):
    """group.get(), checking every _WORKER_CHECK_S that each of workers
    still runs. A pool replaces a worker that exits, but never finishes
    or fails the task that worker held, so its group would never be
    ready: a worker that is gone raises RuntimeError instead."""
    group.wait(_WORKER_CHECK_S)
    while not group.ready():
        alive = multiprocessing.active_children()
        for worker in workers:
            if worker not in alive:
                raise RuntimeError(
                    f"sweep worker {worker.pid} exited with code {worker.exitcode} "
                    "before the sweep finished"
                )
        group.wait(_WORKER_CHECK_S)
    return group.get()


@contextmanager
def _pool_results(tasks: list[list[tuple[int, Mode, int]]], cells):
    """tasks is a list of task groups. Yield an iterator that gives, for
    each group in order, [_estimate_unit(task) for task in group].

    The tasks run on forked workers, one per usable CPU but no more than
    there are tasks, handed out one at a time, so the workers finish at
    most about one task apart. The parent waits for each group as a
    whole: waking for every task's result cost it about 0.3 ms of CPU a
    task, on 2 CPUs.
    Each worker inherits cells, the (estimator, graph, weights) of every
    cell, at fork, through the pool's initializer arguments, which a
    forked worker receives without pickling; a task is then three small
    values. Forked workers also start with numpy and scipy loaded and
    with the parent's binding of _corrupt_pairs; spawned ones would
    import both again. Every worker is ended when the block exits:
    after the last result, when a task raises (its exception reaches
    the caller), when a worker exits (_group_result raises
    RuntimeError), or on SIGTERM, which then ends the workers and the
    parent, by SIGTERM's default action. A process that handles or
    ignores SIGTERM itself, or a thread other than the main one (which
    cannot set a handler), keeps its own handling."""
    workers = min(len(os.sched_getaffinity(0)), sum(map(len, tasks)))
    catch = (
        threading.current_thread() is threading.main_thread()
        and signal.getsignal(signal.SIGTERM) is signal.SIG_DFL
    )
    if catch:
        signal.signal(signal.SIGTERM, _raise_terminated)
    try:
        fork = multiprocessing.get_context("fork")
        before = set(multiprocessing.active_children())
        with fork.Pool(workers, _init_worker, (cells,)) as pool:
            started = set(multiprocessing.active_children()) - before
            groups = [pool.map_async(_estimate_unit, group, chunksize=1) for group in tasks]
            yield (_group_result(group, started) for group in groups)
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
    in sweep order and builds the cell's estimator on its samples. A
    pool of forked worker processes (_pool_results), which inherit them,
    then scores each (cell, mode, corrupt node) as one task, and the
    parent joins each (cell, mode)'s pairs in task order, which is
    corrupt order, and averages them. Every pair and every cell average
    is divided by the cell's CFL average for its relative leakage. The
    report is assembled in sweep order, and no result depends on the
    number of workers. progress, when given, is called as progress(done,
    total, n, density) once all of a cell's estimates have arrived."""
    report = LeakageReport()
    needs_graph = any(m.decentralized for m in config.modes)
    cells = []  # (n, density, graph, weights, actual density) in sweep order
    inputs = []  # (estimator, graph, weights) of each cell, for the workers
    tasks = []  # per cell, its (cell index, mode, corrupt node) in sweep order
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
            tasks.append(
                [
                    (len(cells), mode, k)
                    for mode in config.modes
                    for k in ((-1,) if mode is Mode.CFL else range(n))
                ]
            )
            cells.append((n, density, graph, w, actual_density))
            inputs.append((_CellEstimator(samples.data, config.k_nn), graph, w))

    with _pool_results(tasks, inputs) as cell_results:
        for done, (cell, group, task_results) in enumerate(zip(cells, tasks, cell_results), 1):
            n, density, graph, w, actual_density = cell
            mode_pairs: dict[Mode, list[tuple[int, int, float]]] = {}
            for (_, mode, _), pairs in zip(group, task_results):
                mode_pairs.setdefault(mode, []).extend(pairs)
            averages = {
                mode: float(np.mean([p[2] for p in pairs])) for mode, pairs in mode_pairs.items()
            }
            cfl_avg = averages.get(Mode.CFL, math.nan)

            def relative(value: float) -> float:
                return value / cfl_avg if cfl_avg else math.nan

            for mode, pairs in mode_pairs.items():
                closed, analytic = _closed_forms(mode, n, graph, w)
                for corrupt, target, value in pairs:
                    report.pairs.append(
                        PairLeakage(
                            mode=mode,
                            n=n,
                            density=density,
                            corrupt=corrupt,
                            target=target,
                            mi_nats=value,
                            mi_analytic=closed.get((corrupt, target), math.nan),
                            relative=relative(value),
                        )
                    )
                report.summary.append(
                    CellSummary(
                        mode=mode,
                        n=n,
                        density=density,
                        actual_density=actual_density if mode.decentralized else math.nan,
                        leakage_nats=averages[mode],
                        analytic_nats=analytic,
                        relative=relative(averages[mode]),
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
    n = 2. A relation whose two closed forms are both +inf (at n = 2,
    where each secure-aggregation view shows the other node) is skipped
    too: no finite-sample estimate can order two infinite quantities.
    Every relation checked also gets a direction check on the estimated
    gap with a tol cushion for estimator noise. Returns a verdict
    object; raises ValueError only for a cell that lacks one of the four
    modes.
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
            infinite = rows[lhs].analytic_nats == rows[rhs].analytic_nats == math.inf
            checked = (outer or n > 2) and not infinite
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
