"""Command-line front end.

Subcommands: simulate (leakage sweep), attack (gradient inversion),
verify (ordering-chain check on a summary CSV), analytic (closed forms
only). Each option is declared once, in `_OPTIONS`, with its flag,
help, default per subcommand, parser and manifest format. Option
precedence is flag > key=value config file > built-in default; every
run writes a manifest that can be passed back via --config of the same
subcommand to reproduce outputs byte for byte.

Exit codes: 0 success, 1 verification failure, 2 usage error,
3 runtime error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .attack import attack_experiment
from .leakage import (
    CellSummary,
    ExperimentConfig,
    PairLeakage,
    analytic_cell_average,
    cell_topology,
    run_experiment,
    verify_proposition1,
)
from .protocol import ALL_MODES, Mode
from .reporting import (
    Series,
    read_csv,
    read_keyvalue,
    svg_line_chart,
    atomic_write_text,
    write_csv,
    write_manifest,
    write_pgm,
    write_records,
)
from .topology import (
    metropolis_weights,
    min_connected_density,
    read_edge_list,
    write_edge_list,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3


class UsageError(Exception):
    pass


class _Option:
    """One option, with its default in each subcommand that takes it.

    Its value comes from --key ('-' for '_'), else from the config
    file's key, else from the default. With an item name it is a
    comma-separated list, empty only where the default is. A manifest
    records each value that is not None as key=show(value), per item.
    """

    def __init__(self, key, help, parse=int, show=str, item="", **defaults):
        self.key, self.flag = key, "--" + key.replace("_", "-")
        self.help, self.parse, self.show, self.item = help, parse, show, item
        self.defaults = defaults  # subcommand -> default value

    def resolve(self, args: argparse.Namespace, config: dict[str, str]):
        default, flag = self.defaults[args.command], getattr(args, self.key)
        if flag is not None:
            source, text = self.flag, flag
        elif self.key in config:
            source, text = f"config key {self.key}", config[self.key]
        else:
            return default
        try:
            if not self.item:
                return self.parse(text)
            value = tuple(self.parse(tok) for tok in text.split(",") if tok.strip())
        except ValueError as exc:
            raise UsageError(f"{source}: invalid value {text!r} ({exc})") from exc
        if not value and default != ():
            raise UsageError(f"{self.flag}: no {self.item} given")
        return value

    def format(self, value) -> str:
        return ",".join(map(self.show, value)) if self.item else self.show(value)


_NODE_COUNTS = (10, 20, 30, 40, 50)
_OPTIONS = (  # attack's n and densities default to None: a graph file gives them
    _Option("seed", "root RNG seed", simulate=0, attack=0, analytic=0),
    _Option("out_dir", "output directory", str, lambda text: str(Path(text)),
            simulate="out/simulate", attack="out/attack", analytic=None),
    _Option("n", "comma-separated node counts (or one count)", item="node count",
            simulate=_NODE_COUNTS, analytic=_NODE_COUNTS),
    _Option("n", "node count (one value; default 10, or the graph file's)", attack=None),
    _Option("densities", "comma-separated target densities", float, repr, item="density",
            simulate=(0.3, 0.6, 0.9), attack=None, analytic=()),
    _Option("modes", "comma-separated subset of cfl,cfl_sa,dfl,dfl_sa", Mode.parse,
            lambda mode: mode.value, item="mode", simulate=ALL_MODES, attack=ALL_MODES),
    _Option("samples", "Monte-Carlo draws per variable", simulate=1000),
    _Option("knn_k", "kNN estimator neighbor count", simulate=3),
    _Option("seeds", "number of seeds to average over", attack=1),
    _Option("iters", "attack iterations", attack=1000),
    _Option("lr", "attack learning rate", float, repr, attack=0.1),
    _Option("corrupt", "corrupt node index", attack=0),
    _Option("graph_file", "edge-list topology file", str, attack=None),
    _Option("tol", "gap tolerance in nats", float, verify=0.05),
)


def _declared(command: str) -> list[_Option]:
    return [option for option in _OPTIONS if command in option.defaults]


def _options(args: argparse.Namespace) -> dict:
    """Each option of args.command by key: flag > --config > default."""
    try:
        config = read_keyvalue(args.config) if args.config else {}
    except (OSError, ValueError) as exc:  # unreadable, or not key=value lines
        raise UsageError(f"--config: {exc}") from exc
    if config.get("command", args.command) != args.command:
        raise UsageError(f"--config: {args.config} is a manifest of fedleak "
                         f"{config['command']}, not {args.command}")
    return {option.key: option.resolve(args, config) for option in _declared(args.command)}


def _manifest(command: str, values: dict) -> dict[str, str]:
    """A run's manifest, before its output_* keys: --config replays it."""
    now = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    manifest = {"command": command, "created_utc": now, "version": __version__}
    for option in _declared(command):
        if values[option.key] is not None:
            manifest[option.key] = option.format(values[option.key])
    return manifest


def _seed(opts: dict) -> int:
    """The root seed; SeedSequence takes no negative one."""
    seed = opts["seed"]
    if seed < 0:
        raise UsageError(f"--seed must be >= 0, got {seed}")
    return seed


def _check_densities(n_values, densities) -> None:
    """Usage error for a density that gives some n no connected graph."""
    for n in n_values:
        for density in densities:
            if not min_connected_density(n) <= density <= 1.0:
                raise UsageError(
                    f"--densities: {density:g} gives no connected graph on {n} "
                    f"nodes (needs {min_connected_density(n):.6g} to 1)"
                )


def _density_token(density: float) -> str:
    return f"{density:g}".replace(".", "p")


def _check_density_tokens(densities) -> None:
    """Usage error for two densities that would write the same file."""
    seen: dict[str, float] = {}
    for density in densities:
        token = _density_token(density)
        if token in seen:
            raise UsageError(
                f"--densities: {seen[token]!r} and {density!r} both name "
                f"their output files d{token}"
            )
        seen[token] = density


def _check_repeats(option: str, values) -> None:
    """Usage error for a value given twice, whose work and rows would repeat."""
    seen = set()
    for value in values:
        if value in seen:
            raise UsageError(f"{option}: {value} is given more than once")
        seen.add(value)


def cmd_simulate(args: argparse.Namespace) -> int:
    opts = _options(args)
    seed = _seed(opts)
    samples, k_nn = opts["samples"], opts["knn_k"]
    n_values, densities, modes = opts["n"], opts["densities"], opts["modes"]
    out_dir = Path(opts["out_dir"])
    manifest = _manifest("simulate", opts)

    if any(m.decentralized for m in modes):
        # n < 2 is left to ExperimentConfig, which names it
        _check_densities([v for v in n_values if v >= 2], densities)
    try:
        config = ExperimentConfig(
            n_values=n_values,
            densities=densities,
            samples=samples,
            k_nn=k_nn,
            seed=seed,
            modes=modes,
        )
    except ValueError as exc:  # an option value out of range
        raise UsageError(str(exc)) from exc
    _check_repeats("--n", n_values)
    _check_repeats("--modes", [m.value for m in modes])
    _check_density_tokens(densities)
    print(
        f"[simulate] {len(n_values)} node counts x {len(densities)} densities "
        f"x {len(modes)} modes, {samples} samples",
        file=sys.stderr,
    )

    def progress(done: int, total: int, n: int, density: float) -> None:
        print(
            f"[simulate] cell {done}/{total} n={n} density={density:g} done",
            file=sys.stderr,
        )

    report = run_experiment(config, progress)

    pairs_path = out_dir / "leakage_pairs.csv"
    write_records(pairs_path, PairLeakage, report.pairs)
    summary_path = out_dir / "leakage_summary.csv"
    write_records(summary_path, CellSummary, report.summary)

    graph_names = []
    for (n, density), graph in sorted(report.graphs.items()):
        name = f"graphs/graph_n{n}_d{_density_token(density)}.txt"
        write_edge_list(graph, out_dir / name)
        graph_names.append(name)

    manifest["output_pairs"] = pairs_path.name
    manifest["output_summary"] = summary_path.name
    if Mode.CFL in modes:  # relative leakage is relative to cfl
        svg_path = out_dir / "leakage_relative.svg"
        atomic_write_text(
            svg_path,
            svg_line_chart(
                _relative_series(report.summary),
                "Relative leakage by mode",
                "nodes n",
                "relative mutual information (mode / cfl)",
            ),
        )
        manifest["output_svg"] = svg_path.name
    for idx, name in enumerate(graph_names):
        manifest[f"output_graph_{idx}"] = name
    write_manifest(out_dir / "manifest.txt", manifest)
    print(f"[simulate] report written to {out_dir}", file=sys.stderr)
    return EXIT_OK


def _relative_series(summary: list[CellSummary]) -> list[Series]:
    """Relative leakage over n, one series per (mode, density), ordered
    as encountered."""
    rows: dict[tuple[Mode, float], list[CellSummary]] = {}
    for row in summary:
        rows.setdefault((row.mode, row.density), []).append(row)
    return [
        Series(
            label=f"{mode.value} d={density:g}",
            xs=tuple(float(row.n) for row in cell_rows),
            ys=tuple(row.relative for row in cell_rows),
        )
        for (mode, density), cell_rows in rows.items()
    ]


def cmd_attack(args: argparse.Namespace) -> int:
    opts = _options(args)
    seed = _seed(opts)
    n, modes, densities = opts["n"], opts["modes"], opts["densities"]
    n_seeds, iters, lr = opts["seeds"], opts["iters"], opts["lr"]
    corrupt, graph_file = opts["corrupt"], opts["graph_file"]
    out_dir = Path(opts["out_dir"])

    needs_topology = any(m.decentralized for m in modes)
    fixed_graph = None
    if graph_file:
        # --n and --densities may only restate the graph's own values
        try:
            fixed_graph = read_edge_list(graph_file)
        except (OSError, ValueError) as exc:  # unreadable, or not an edge list
            raise UsageError(f"--graph-file: {exc}") from exc
        if not fixed_graph.is_connected:
            raise UsageError(f"--graph-file: the graph in {graph_file} is not connected")
        if n is not None and n != fixed_graph.n:
            raise UsageError(
                f"--n: {n} differs from the {fixed_graph.n} nodes of the graph file"
            )
        if densities is not None and densities != (fixed_graph.density,):
            given = ",".join(repr(float(d)) for d in densities)
            raise UsageError(
                f"--densities: {given} differs from the graph file's density "
                f"{fixed_graph.density!r}"
            )
        n = fixed_graph.n
        densities = (fixed_graph.density,)
    if n is None:
        n = 10
    if densities is None:
        densities = (0.4, 0.8, 1.0)
    if n_seeds < 1:
        raise UsageError(f"--seeds must be >= 1, got {n_seeds}")
    if n < 3:
        raise UsageError(f"--n: the attack needs at least 3 nodes, got {n}")
    if not 0 <= corrupt < n:
        raise UsageError(f"--corrupt: node {corrupt} out of range for n={n}")
    if iters < 1:
        raise UsageError(f"--iters must be >= 1, got {iters}")
    if not (math.isfinite(lr) and lr > 0.0):
        raise UsageError(f"--lr must be finite and > 0, got {lr!r}")
    _check_repeats("--modes", [m.value for m in modes])
    if needs_topology and fixed_graph is None:
        _check_densities((n,), densities)
    _check_density_tokens(densities)

    manifest = _manifest("attack", {**opts, "n": n, "densities": densities})

    # A centralized view does not depend on the graph: one view per
    # centralized mode serves every density.
    cells = []  # (mode, density, view key) in output order
    views = {}  # view key -> (mode, graph, weights)
    for density in densities:
        graph = weights = None
        if needs_topology and fixed_graph is None:
            graph, weights = cell_topology(seed, n, density)
        elif needs_topology:
            graph, weights = fixed_graph, metropolis_weights(fixed_graph)
        for mode in modes:
            view = (mode, graph, weights) if mode.decentralized else (mode, None, None)
            key = (mode, density) if mode.decentralized else (mode,)
            views.setdefault(key, view)
            cells.append((mode, density, key))
    ssims = [[] for _ in cells]
    details = [[] for _ in cells]
    images = {}  # seed-0 reconstructions, written by one write_pgm call
    for offset in range(n_seeds):
        # one batched inversion per seed for every distinct view
        results = attack_experiment(
            list(views.values()),
            n=n,
            seed=seed + offset,
            corrupt_node=corrupt,
            iters=iters,
            lr=lr,
        )
        by_view = dict(zip(views, results))
        for idx, (mode, density, key) in enumerate(cells):
            result = by_view[key]
            ssims[idx].append(result.average_ssim)
            details[idx].extend(
                (mode.value, density, target.node, target.is_neighbor, target.ssim)
                for target in result.targets
            )
            if offset == 0:
                for target in result.targets:
                    name = (
                        f"recon/{mode.value}_d{_density_token(density)}"
                        f"_node{target.node:02d}.pgm"
                    )
                    images[out_dir / name] = target.image.pixels
    write_pgm(images)
    detail_rows = [row for rows in details for row in rows]
    summary = {}
    for (mode, density, _), values in zip(cells, ssims):
        summary[(mode, density)] = float(np.mean(values))
        print(
            f"[attack] {mode.value} density={density:g}: "
            f"avg ssim {summary[(mode, density)]:.3f} over {n_seeds} seed(s)",
            file=sys.stderr,
        )

    detail_path = out_dir / "attack_ssim.csv"
    write_csv(
        detail_path,
        ["mode", "density", "node", "neighbor_flag", "ssim"],
        detail_rows,
    )
    summary_path = out_dir / "attack_summary.csv"
    write_csv(
        summary_path,
        ["mode", "density", "average_ssim"],
        [(m.value, d, v) for (m, d), v in summary.items()],
    )
    series = []
    for mode in modes:
        xs = tuple(float(d) for d in densities)
        ys = tuple(summary[(mode, d)] for d in densities)
        series.append(Series(label=mode.value, xs=xs, ys=ys))
    svg_path = out_dir / "attack_ssim.svg"
    atomic_write_text(
        svg_path,
        svg_line_chart(
            series, "Reconstruction quality by mode", "graph density", "average SSIM"
        ),
    )
    manifest["output_detail"] = detail_path.name
    manifest["output_summary"] = summary_path.name
    manifest["output_svg"] = svg_path.name
    write_manifest(out_dir / "manifest.txt", manifest)
    print(f"[attack] results written to {out_dir}", file=sys.stderr)
    return EXIT_OK


_SUMMARY_REQUIRED = ("mode", "n", "density", "leakage_nats")
_SUMMARY_PARSE = {"mode": Mode.parse, "n": int}  # every other field is a float


def _read_summary(path: str) -> list[CellSummary]:
    """A leakage_summary.csv's rows as CellSummary records, each field
    from its column. The columns in _SUMMARY_REQUIRED must be present
    and well-formed; every other one is NaN where absent or empty."""
    header, rows, numbers = read_csv(path)
    if not set(_SUMMARY_REQUIRED).issubset(header):
        raise ValueError(
            f"{path}:1: summary header must contain {sorted(_SUMMARY_REQUIRED)}, got {header}"
        )
    names = [f.name for f in fields(CellSummary)]
    summary = []
    for row, lineno in zip(rows, numbers):
        values = {}
        try:
            for name in names:
                text = row[name] if name in _SUMMARY_REQUIRED else row.get(name) or "nan"
                values[name] = _SUMMARY_PARSE.get(name, float)(text)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        summary.append(CellSummary(**values))
    if not summary:
        raise ValueError(f"{path}: no summary rows")
    return summary


def cmd_verify(args: argparse.Namespace) -> int:
    tol = _options(args)["tol"]
    if not (math.isfinite(tol) and tol >= 0.0):
        raise UsageError(f"--tol must be finite and >= 0, got {tol!r}")
    try:  # an unreadable or malformed report, or a cell without one row per mode
        verdicts = verify_proposition1(_read_summary(args.report), tol)
    except (OSError, ValueError) as exc:
        raise UsageError(f"report: {exc}") from exc
    failures = []
    for cell in verdicts:
        values = " ".join(f"{k}={v:.4f}" for k, v in cell.leakage.items())
        print(f"cell n={cell.n} density={cell.density:g}: {values}")
        for rel in cell.relations:
            if rel.status == "FAIL":
                failures.append(f"{rel.name} at (n={cell.n}, density={cell.density:g})")
            exact = (
                "" if math.isnan(rel.analytic_gap)
                else f" closed-form gap={rel.analytic_gap:+.4f}"
            )
            print(f"  {rel.name:<18} gap={rel.gap:+.4f}{exact}  {rel.status}")
    if failures:
        print(f"CHAIN VIOLATED: {', '.join(failures)}")
        return EXIT_VERIFY_FAILED
    print(f"CHAIN HOLDS ({len(verdicts)} cells, tol={tol:g})")
    return EXIT_OK


def cmd_analytic(args: argparse.Namespace) -> int:
    opts = _options(args)
    seed = _seed(opts)
    n_values, densities, out_dir = opts["n"], opts["densities"], opts["out_dir"]
    small = [v for v in n_values if v < 2]
    if small:
        raise UsageError(f"--n: closed forms need n >= 2, got {small[0]}")
    _check_repeats("--n", n_values)
    _check_repeats("--densities", densities)
    _check_densities(n_values, densities)

    rows = []
    for n in n_values:
        value, _ = analytic_cell_average(Mode.CFL_SA, n, 1.0, seed)
        rows.append((Mode.CFL_SA.value, n, math.nan, value))
        print(f"cfl_sa n={n}: {value:.6f} nats")
        for density in densities:
            value, actual = analytic_cell_average(Mode.DFL_SA, n, density, seed)
            rows.append((Mode.DFL_SA.value, n, density, value))
            print(
                f"dfl_sa n={n} density={density:g} "
                f"(realized {actual:g}): {value:.6f} nats"
            )
    if out_dir:
        path = Path(out_dir) / "analytic.csv"
        write_csv(path, ["mode", "n", "density", "analytic_nats"], rows)
        manifest = _manifest("analytic", opts)
        manifest["output_csv"] = path.name
        write_manifest(Path(out_dir) / "manifest.txt", manifest)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedleak",
        description="Privacy-leakage simulation for federated learning topologies",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, func, help in (
        ("simulate", cmd_simulate, "run the leakage sweep"),
        ("attack", cmd_attack, "run the gradient-inversion attack grid"),
        ("verify", cmd_verify, "check the leakage ordering chain"),
        ("analytic", cmd_analytic, "print closed-form leakage values"),
    ):
        p = sub.add_parser(command, help=help)
        p.set_defaults(func=func)
        note = "" if command == "verify" else " (a manifest works)"
        p.add_argument("--config", help="key=value config file" + note)
        for option in _declared(command):
            p.add_argument(option.flag, dest=option.key, help=option.help)
    sub.choices["verify"].add_argument("report", help="path to a leakage summary CSV")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError, RuntimeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
