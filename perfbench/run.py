"""Benchmark for fedleak: times CLI invocations from outside the program.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 56 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

Run from the root of a checkout that holds `src/fedleak` and
`BENCHMARK.json`. For one workload it:

1. imports `fedleak.cli` once in a fresh interpreter, untimed, so that
   the bytecode is compiled;
2. repeats the workload's CLI invocation, each in a fresh interpreter
   (perfbench/worker.py), as often as fits in --seconds (at least
   MIN_REPS times). Each invocation gives one set-up time (spawn to
   `fedleak.cli` imported; setup_s is their median), one timing of the
   `cli.main` call, and the time of the reference kernel in probe.py
   run right after it. wall_ref_s and cpu_ref_s are the calls' wall
   and CPU times at the reference host speed (see `host_scaled` and
   `Workload.parallel`);
3. with --trace 1, adds a traced invocation and one more untraced one,
   and reports the per-layer metrics instead of the end-to-end ones;
4. checks the outputs outside the timed region: the oracle on the first
   invocation, and equal sha256 digests across every invocation of this
   run and any earlier run of the same sources, workload, seed and
   library versions.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Metric names, units and bounds
come from BENCHMARK.json. A run whose outputs fail a check prints
correct=false and exits 1; a checkout without the program exits 2
without a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
MIN_REPS = 3
WORKER_TIMEOUT_S = 120

# The benchmark's modules, then the package under test (for the oracle).
sys.path[:0] = [str(BENCH_DIR), str(SRC)]
import probe  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@dataclass(frozen=True)
class MetricSpec:
    name: str
    unit: str
    better: str  # "lower" or "higher"
    bound: float | None = None  # end-to-end metrics only


def _parse_metric(entry: dict, with_bound: bool) -> MetricSpec:
    keys = {"name", "unit", "better"} | ({"bound"} if with_bound else set())
    if set(entry) != keys:
        raise ValueError(f"metric {entry} must have exactly the keys {sorted(keys)}")
    if not _NAME.match(entry["name"]):
        raise ValueError(f"bad metric name {entry['name']!r}")
    if not _UNIT.match(entry["unit"]):
        raise ValueError(f"bad unit {entry['unit']!r} for {entry['name']}")
    if entry["better"] not in ("lower", "higher"):
        raise ValueError(f"{entry['name']}: better must be lower or higher")
    bound = None
    if with_bound:
        bound = float(entry["bound"])
        if not 0.0 < bound <= 0.25:
            raise ValueError(f"{entry['name']}: bound {bound} outside (0, 0.25]")
    return MetricSpec(entry["name"], entry["unit"], entry["better"], bound)


def load_spec(path: str | Path) -> dict:
    """Parse BENCHMARK.json into metric specs; raise ValueError if malformed."""
    raw = json.loads(Path(path).read_text())
    spec = {
        "workloads": [w["name"] for w in raw["workloads"]],
        "end_to_end": [_parse_metric(m, True) for m in raw["end_to_end"]],
        "per_layer": [_parse_metric(m, False) for m in raw["per_layer"]],
        "run_seconds": int(raw["run_seconds"]),
    }
    names = [m.name for m in spec["end_to_end"] + spec["per_layer"]]
    if len(names) != len(set(names)):
        raise ValueError("metric names repeat")
    unknown = [w for w in spec["workloads"] if w not in WORKLOADS]
    if unknown:
        raise ValueError(f"workloads {unknown} are not defined in perfbench/workloads.py")
    return spec


def result_json(specs: list[MetricSpec], values: dict, correct: bool, attempted: int,
                failed: int) -> str:
    """The result line: exactly the specified metrics, each with its unit."""
    names = [m.name for m in specs]
    if set(values) != set(names):
        raise ValueError(
            f"metrics {sorted(set(names) - set(values))} missing, "
            f"{sorted(set(values) - set(names))} unexpected"
        )
    bad = [n for n in names if not math.isfinite(values[n])]
    if bad:
        raise ValueError(f"non-finite metrics {bad}")
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {m.name: {"value": float(values[m.name]), "unit": m.unit} for m in specs},
    })


def host_scaled(reps: list[dict], key: str, reference_s: float, probe_key: str) -> float:
    """The run's figure for a per-invocation time, at the reference host speed.

    Each invocation runs the reference kernel right after its call
    (probe.py). The figure is reference_s times the calls' summed time
    `key` over the kernel's summed seconds per pass `probe_key`. The
    host's speed changes every few tenths of a second, so one kernel
    sample says little about the call before it; pooled over a run they
    say how fast the host was during it (see README.md, "Steadiness and
    bounds")."""
    return reference_s * sum(r[key] for r in reps) / sum(r[probe_key] for r in reps)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _worker_env() -> dict[str, str]:
    # FEDLEAK_* variables would override the workload's options.
    return {k: v for k, v in os.environ.items() if not k.startswith("FEDLEAK_")}


def warm_up() -> None:
    """Import fedleak.cli once, untimed: this compiles the bytecode and
    warms the file cache, which the first invocation would otherwise pay."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import fedleak.cli"
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_worker_env(), check=True,
                   timeout=WORKER_TIMEOUT_S, capture_output=True)


def run_worker(workload: Workload, seed: int, run_dir: Path, tag: str,
               traced: bool = False) -> dict:
    """One CLI invocation in a fresh interpreter; returns the worker's record.

    setup_s runs from the spawn to the worker's stamp, taken on the
    system-wide monotonic clock just after it imported fedleak.cli."""
    out_dir = run_dir / tag
    result_path = run_dir / f"{tag}.json"
    cmd = [sys.executable, str(BENCH_DIR / "worker.py")]
    if traced:
        cmd += ["--spans", str(run_dir / f"{tag}.spans.json")]
    cmd += [str(SRC), str(result_path), "--", *workload.argv(seed, str(out_dir))]
    with open(run_dir / f"{tag}.log", "w") as log:
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(), stdout=log,
                                  stderr=subprocess.STDOUT, timeout=WORKER_TIMEOUT_S)
            worker_rc = proc.returncode
        except subprocess.TimeoutExpired:
            worker_rc = -1
    if worker_rc != 0 or not result_path.exists():
        return {"tag": tag, "rc": worker_rc or -1, "out_dir": str(out_dir), "traced": traced}
    rep = json.loads(result_path.read_text())
    rep.update(tag=tag, out_dir=str(out_dir), traced=traced,
               setup_s=rep["imported_monotonic"] - spawned)
    return rep


def source_digest() -> str:
    """sha256 over the package sources."""
    h = hashlib.sha256()
    for path in sorted((SRC / "fedleak").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def digest_store(workload: Workload, seed: int) -> Path:
    """Where the output digests of this workload, seed, program and
    environment are kept between runs in one checkout."""
    key = json.dumps([source_digest(), workload.argv(seed, "OUT_DIR"), _environment()])
    name = hashlib.sha256(key.encode()).hexdigest()[:16]
    return WORK / "digests" / f"{workload.name}-seed{seed}-{name}.json"


def trace_wall_diff(reps: list[dict]) -> float:
    """The traced invocation's wall time minus the mean of the untraced
    invocations right before and after it. The host's speed wanders
    within seconds, so this bounds the tracer's overhead only loosely;
    trace.overhead_s is the tracer's own estimate instead."""
    i = next(i for i, r in enumerate(reps) if r["traced"])
    return reps[i]["wall_s"] - (reps[i - 1]["wall_s"] + reps[i + 1]["wall_s"]) / 2


def layer_metrics(specs: list[MetricSpec], spans_path: Path, untraced: list[dict],
                  overhead_s: float) -> dict[str, float]:
    """Per-layer values from the traced invocation's spans and counters."""
    from tracer import summarize

    trace = json.loads(spans_path.read_text())
    stats = summarize(trace["names"], trace["spans"])
    counters = trace["counters"]
    wall = statistics.median(r["wall_s"] for r in untraced)
    process = {
        "proc.ctx_switches_vol": statistics.median(r["ctx_vol"] for r in untraced),
        "proc.ctx_switches_invol": statistics.median(r["ctx_invol"] for r in untraced),
        "proc.cpu_util": statistics.median(r["cpu_s"] for r in untraced) / wall,
        "trace.overhead_s": overhead_s,
        "infotheory.kdtree_builds": stats.get("infotheory.kdtree_build", {}).get("calls", 0),
    }
    values = {}
    for spec in specs:
        if spec.name in process:
            values[spec.name] = process[spec.name]
        elif spec.name in counters:
            values[spec.name] = counters[spec.name]
        else:
            span, _, field = spec.name.rpartition(".")
            values[spec.name] = stats.get(span, {}).get(field, 0)
    return values


def layer_shares(values: dict[str, float], cli_wall: float) -> dict[str, float]:
    """Share of the traced cli.main wall time spent in each dominant layer."""
    def share(*names):
        return sum(values.get(n, 0.0) for n in names) / cli_wall

    return {
        "L0_tree_queries": share("infotheory.kth_radius.busy_s", "infotheory.strict_counts.busy_s"),
        "matrix_path": share("leakage.chebyshev_matrix.busy_s", "leakage.mi_fixed_set.busy_s"),
        "invert_gradient": share("attack.invert_gradient.busy_s"),
    }


def run_workload(workload: Workload, spec: dict, seed: int, seconds: float,
                 trace: bool) -> tuple[dict, str]:
    """Time, trace and check one workload; returns (record, result line)."""
    run_dir = WORK / "runs" / workload.name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    warm_up()
    reps: list[dict] = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        # Start another invocation only if it should end within --seconds.
        if len(reps) >= MIN_REPS and elapsed + elapsed / len(reps) > seconds:
            break
        reps.append(run_worker(workload, seed, run_dir, f"rep{len(reps)}"))
        if reps[-1]["rc"] != 0:
            break
    if trace and reps[-1]["rc"] == 0:
        reps.append(run_worker(workload, seed, run_dir, "traced", traced=True))
        if reps[-1]["rc"] == 0:
            reps.append(run_worker(workload, seed, run_dir, f"rep{len(reps) - 1}"))

    # Checks, all outside the timed region.
    from oracle import check_outputs, digest_mismatches, output_digests

    expected = workload.expected_units()
    problems: list[str] = []
    ok = [r for r in reps if r["rc"] == 0]
    oracle = check_outputs(workload, seed, ok[0]["out_dir"]) if ok else None
    reference = output_digests(ok[0]["out_dir"]) if ok else {}
    failed = 0
    for rep in reps:
        if rep["rc"] != 0:
            failed += expected
            problems.append(f"{rep['tag']}: exit code {rep['rc']}, see {run_dir / rep['tag']}.log")
            continue
        differ = digest_mismatches(reference, output_digests(rep["out_dir"]))
        if differ:
            failed += expected
            problems.append(f"{rep['tag']}: outputs differ from {ok[0]['tag']} in {differ[:3]}")
        else:
            failed += oracle.failed
    if oracle:
        problems += oracle.problems[:10]

    stored = digest_store(workload, seed)
    if reference and stored.exists():
        differ = digest_mismatches(json.loads(stored.read_text()), reference)
        if differ:
            failed += expected
            problems.append(f"outputs differ from an earlier run at seed {seed} in {differ[:3]}")
    elif reference:
        stored.parent.mkdir(parents=True, exist_ok=True)
        stored.write_text(json.dumps(reference, indent=1, sort_keys=True))

    attempted = expected * len(reps)
    correct = failed == 0 and not problems
    untraced = [r for r in ok if not r["traced"]]
    record = {
        "workload": workload.name,
        "seed": seed,
        "argv": workload.argv(seed, "OUT_DIR"),
        "environment": _environment(),
        "source_sha256": source_digest(),
        "output_sha256": reference,
        "reps": reps,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "problems": problems,
        "oracle_rows_checked": oracle.checked if oracle else 0,
        "sa_abs_err_nats": oracle.sa_abs_err_nats if oracle else None,
    }
    if not untraced:
        return record, ""

    delivered = expected - (oracle.failed if oracle else expected)
    if trace:
        if len(ok) != len(reps):
            return record, ""
        traced = next(r for r in reps if r["traced"])
        values = layer_metrics(spec["per_layer"], run_dir / "traced.spans.json", untraced,
                               traced["trace_overhead_s"])
        metric_specs = spec["per_layer"]
        record["trace_wall_diff_s"] = trace_wall_diff(reps)
        record["layer_shares"] = layer_shares(values, traced["wall_s"])
    else:
        if workload.parallel:
            wall = host_scaled(untraced, "wall_s", probe.REFERENCE_S, "probe_s")
        else:
            wall = host_scaled(untraced, "wall_s", probe.REFERENCE_CPU_S, "probe_cpu_s")
        values = {
            "wall_ref_s": wall,
            "units_per_ref_s": delivered / wall,
            "cpu_ref_s": host_scaled(untraced, "cpu_s", probe.REFERENCE_CPU_S, "probe_cpu_s"),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
            "setup_s": statistics.median(r["setup_s"] for r in untraced),
        }
        metric_specs = spec["end_to_end"]
        record["throughput"] = [f"{workload.unit_name}_per_ref_s", values["units_per_ref_s"]]
        record["wall_s_quartiles"] = quartiles([r["wall_s"] for r in untraced])
        record["probe_s_quartiles"] = quartiles([r["probe_s"] for r in untraced])
    record["metrics"] = values
    if correct:
        # Keep the first invocation's outputs for inspection only.
        for rep in reps[1:]:
            shutil.rmtree(rep["out_dir"], ignore_errors=True)
    return record, result_json(metric_specs, values, correct, attempted, failed)


def print_report(record: dict, spec: dict, trace: bool) -> None:
    name = record["workload"]
    timed = [r for r in record["reps"] if not r.get("traced")]
    print(f"== {name} seed={record['seed']}: {len(timed)} timed invocations of "
          f"`fedleak {' '.join(record['argv'])}`")
    units = {m.name: m.unit for m in spec["end_to_end"] + spec["per_layer"]}
    for key, value in record.get("metrics", {}).items():
        print(f"  {key:<44} {value:>14.6g} {units[key]}")
    if not trace and "metrics" in record:
        q1, q2, q3 = record["wall_s_quartiles"]
        print(f"  {'wall_s quartiles (unscaled)':<44} {q1:.4g} / {q2:.4g} / {q3:.4g} s")
        q1, q2, q3 = record["probe_s_quartiles"]
        print(f"  {'probe_s quartiles':<44} {q1:.4g} / {q2:.4g} / {q3:.4g} s "
              f"(reference {probe.REFERENCE_S} s)")
        throughput, value = record["throughput"]
        print(f"  {throughput:<44} {value:>14.6g} 1/s")
        if record["sa_abs_err_nats"] is not None:
            print(f"  {'sa_abs_err_nats':<44} {record['sa_abs_err_nats']:>14.6g} nats")
    for layer, share in record.get("layer_shares", {}).items():
        print(f"  share of cli.main in {layer:<23} {share:>14.1%}")
    print(f"  {'failed_frac':<44} {record['failed_frac']:>14.6g} ratio "
          f"({record['failed']} of {record['attempted']} units)")
    print(f"  oracle rows checked: {record['oracle_rows_checked']}; output sha256 "
          f"(python {record['environment']['python']}, numpy {record['environment']['numpy']}, "
          f"scipy {record['environment']['scipy']}, nproc {record['environment']['nproc']}):")
    for path, digest in record["output_sha256"].items():
        if path.endswith(".csv"):
            print(f"    {digest}  {path}")
    for problem in record["problems"]:
        print(f"  PROBLEM: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="a workload, or all: every workload defined in workloads.py")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SystemExit inside subprocess.run kills and reaps the running worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    try:
        spec = load_spec(ROOT / "BENCHMARK.json")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if not (SRC / "fedleak" / "cli.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'fedleak' / 'cli.py'} is missing",
              file=sys.stderr)
        return 2
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    results = {}
    all_correct = True
    for name in names:
        record, line = run_workload(WORKLOADS[name], spec, args.seed, seconds, bool(args.trace))
        records = WORK / "records"
        records.mkdir(parents=True, exist_ok=True)
        (records / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1, sort_keys=True))
        print_report(record, spec, bool(args.trace))
        if not line:
            print(f"perfbench: {name}: no invocation succeeded", file=sys.stderr)
            return 1
        results[name] = json.loads(line)
        all_correct &= results[name]["correct"]
    print(line if len(names) == 1 else json.dumps(results))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
