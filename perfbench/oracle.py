"""Output checks and digests for one workload run.

The oracle reads the CSVs the CLI wrote and checks them against values
it recomputes itself, outside the timed region:

* sweeps: every expected (mode, n, density, k, i) row is present once
  with a finite value, and a fixed, seed-derived subsample of rows per
  (cell, mode) equals -- exactly, as floats -- the public `knn_mi` on
  the observation rebuilt from `cell_seed_sequences` and
  `draw_gradient_samples`. CSV floats are written as round-trip repr,
  so equality is exact. For dfl the subsample takes neighbour and
  non-neighbour targets alike, so both code paths are covered.
* attack: every expected (mode, density, node) row is present once with
  a finite SSIM in [-1, 1], every cfl target (exact gradient) has SSIM
  >= 0.99, and one PGM was written per target.

`fedleak verify` is deliberately not used: its margin rule rejects
correct sweeps.

`output_digests` hashes every output file except manifest.txt, which
holds a timestamp and the output directory.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import ATTACK, Workload

SUBSAMPLE = 4  # checked rows per (cell, mode, code path)
CFL_MIN_SSIM = 0.99
VOLATILE = ("manifest.txt",)


@dataclass
class OracleReport:
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    checked: int = 0  # rows recomputed independently
    sa_abs_err_nats: float | None = None

    def fail(self, units: int, problem: str) -> None:
        self.failed += units
        self.problems.append(problem)


def output_digests(out_dir: str | Path) -> dict[str, str]:
    """sha256 of every output file except the volatile manifest."""
    root = Path(out_dir)
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.name not in VOLATILE
    }


def digest_mismatches(reference: dict[str, str], other: dict[str, str]) -> list[str]:
    """Files missing from either side or whose content differs."""
    return sorted(
        name
        for name in set(reference) | set(other)
        if reference.get(name) != other.get(name)
    )


def _read_rows(path: Path, header: list[str]) -> list[dict[str, str]]:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        got = next(reader, None)
        if got != header:
            raise ValueError(f"{path.name}: header {got}, expected {header}")
        return [dict(zip(header, row)) for row in reader if len(row) == len(header)]


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def check_outputs(workload: Workload, seed: int, out_dir: str | Path) -> OracleReport:
    out = Path(out_dir)
    report = OracleReport(attempted=workload.expected_units())
    try:
        if workload.command == ATTACK:
            _check_attack(workload, out, report)
        else:
            _check_sweep(workload, seed, out, report)
    except (OSError, ValueError) as exc:
        report.fail(report.attempted - report.failed, f"unreadable output: {exc}")
    report.failed = min(report.failed, report.attempted)
    return report


def _index_rows(rows, key, expected, report: OracleReport, what: str) -> dict:
    """Map key -> row; missing, duplicate and unexpected rows fail."""
    found: dict = {}
    for row in rows:
        k = key(row)
        if k not in expected:
            report.fail(1, f"unexpected {what} row {k}")
        elif k in found:
            report.fail(1, f"duplicate {what} row {k}")
        else:
            found[k] = row
    missing = [k for k in expected if k not in found]
    if missing:
        report.fail(len(missing), f"{len(missing)} {what} rows missing, e.g. {missing[0]}")
    return found


def sweep_pairs(workload: Workload) -> list[tuple[str, int, float, int, int]]:
    """Every (mode, n, density, corrupt k, target i) the sweep must report."""
    pairs = []
    for n in workload.n_values:
        for density in workload.densities:
            for mode in workload.modes:
                if mode == "cfl":
                    pairs += [(mode, n, density, -1, i) for i in range(n)]
                else:
                    pairs += [
                        (mode, n, density, k, i)
                        for k in range(n)
                        for i in range(n)
                        if i != k
                    ]
    return pairs


def oracle_subsample(workload: Workload, seed: int, graphs: dict) -> list[tuple]:
    """Rows to recompute: SUBSAMPLE per (cell, mode, code path), seed-derived.

    dfl has two code paths (neighbour target: cached self-MI; non-neighbour
    target: the neighbour-set estimate); the other modes have one."""
    strata: dict[tuple, list[tuple]] = {}
    for pair in sweep_pairs(workload):
        mode, n, density, k, i = pair
        path = ""
        if mode == "dfl":
            path = "neighbour" if graphs[(n, density)].adjacency[k, i] else "other"
        strata.setdefault((mode, n, density, path), []).append(pair)
    rng = np.random.default_rng([seed, 0x6F7261])
    chosen = []
    for key in sorted(strata, key=repr):
        members = strata[key]
        picks = rng.choice(len(members), size=min(SUBSAMPLE, len(members)), replace=False)
        chosen += [members[p] for p in sorted(picks)]
    return chosen


def _cell_inputs(workload: Workload, seed: int):
    from fedleak.leakage import cell_seed_sequences, draw_gradient_samples
    from fedleak.topology import generate_graph, metropolis_weights

    data, graphs, weights = {}, {}, {}
    for n in workload.n_values:
        for density in workload.densities:
            sample_ss, graph_seed, _ = cell_seed_sequences(seed, n, density)
            data[(n, density)] = draw_gradient_samples(n, workload.samples, sample_ss).data
            graphs[(n, density)] = generate_graph(n, density, graph_seed)
            weights[(n, density)] = metropolis_weights(graphs[(n, density)])
    return data, graphs, weights


def recompute_pair(mode: str, data: np.ndarray, k: int, i: int, graph, weights, knn_k: int) -> float:
    """The adversary's observation for (k, i), estimated with public knn_mi."""
    from fedleak.infotheory import knn_mi

    target = data[:, i]
    if mode == "cfl":
        observed = target
    elif mode == "cfl_sa":
        observed = data.sum(axis=1) - data[:, k]
    elif mode == "dfl_sa":
        row = weights.row(k)
        observed = data @ row - row[k] * data[:, k]
    elif mode == "dfl":
        nbrs = graph.neighbors(k)
        observed = target if i in set(int(j) for j in nbrs) else data[:, nbrs]
    else:
        raise ValueError(f"unknown mode {mode}")
    return knn_mi(observed, target, k=knn_k).value


def _check_sweep(workload: Workload, seed: int, out: Path, report: OracleReport) -> None:
    rows = _read_rows(
        out / "leakage_pairs.csv",
        ["mode", "n", "density", "k", "i", "mi_nats", "mi_analytic", "relative"],
    )
    expected = set(sweep_pairs(workload))
    found = _index_rows(
        rows,
        lambda r: (r["mode"], int(r["n"]), _float(r["density"]), int(r["k"]), int(r["i"])),
        expected,
        report,
        "pair",
    )
    bad = [key for key, row in found.items() if not math.isfinite(_float(row["mi_nats"]))]
    if bad:
        report.fail(len(bad), f"{len(bad)} non-finite estimates, e.g. {bad[0]}")

    data, graphs, weights = _cell_inputs(workload, seed)
    for pair in oracle_subsample(workload, seed, graphs):
        row = found.get(pair)
        if row is None:
            continue  # already counted as missing
        mode, n, density, k, i = pair
        want = recompute_pair(
            mode, data[(n, density)], k, i, graphs[(n, density)], weights[(n, density)],
            workload.knn_k,
        )
        report.checked += 1
        if _float(row["mi_nats"]) != want:
            report.fail(1, f"pair {pair}: csv {row['mi_nats']} != recomputed {want!r}")

    summary = _read_rows(
        out / "leakage_summary.csv",
        ["mode", "n", "density", "actual_density", "leakage_nats", "analytic_nats", "relative"],
    )
    cells = {(m, n, d) for m, n, d, _, _ in expected}
    if len(summary) != len(cells):
        report.fail(1, f"summary has {len(summary)} rows, expected {len(cells)}")
    # A dfl_sa cell whose graph has a leaf has an infinite closed form
    # (the leaf's aggregate pins its neighbour); such cells are skipped.
    errors = [
        abs(_float(r["leakage_nats"]) - _float(r["analytic_nats"]))
        for r in summary
        if r["mode"] in ("cfl_sa", "dfl_sa") and math.isfinite(_float(r["analytic_nats"]))
    ]
    if errors:
        report.sa_abs_err_nats = float(np.mean(errors))


def _check_attack(workload: Workload, out: Path, report: OracleReport) -> None:
    (n,) = workload.n_values
    expected = {
        (mode, density, node)
        for density in workload.densities
        for mode in workload.modes
        for node in range(n)
        if node != workload.corrupt
    }
    rows = _read_rows(out / "attack_ssim.csv", ["mode", "density", "node", "neighbor_flag", "ssim"])
    found = _index_rows(
        rows,
        lambda r: (r["mode"], _float(r["density"]), int(r["node"])),
        expected,
        report,
        "ssim",
    )
    for key, row in sorted(found.items()):
        value = _float(row["ssim"])
        report.checked += 1
        if not (-1.0 <= value <= 1.0):
            report.fail(1, f"target {key}: ssim {row['ssim']} not a finite value in [-1, 1]")
        elif key[0] == "cfl" and value < CFL_MIN_SSIM:
            report.fail(1, f"target {key}: cfl ssim {value} < {CFL_MIN_SSIM}")
    images = len(list((out / "recon").glob("*.pgm")))
    if images != len(expected):
        report.fail(abs(len(expected) - images), f"{images} PGM files, expected {len(expected)}")
