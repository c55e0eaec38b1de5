"""Measure the baseline and write perfbench/BASELINE.json.

    python3 perfbench/baseline.py --seeds 0-9

For every workload in BENCHMARK.json this runs the benchmark once per
seed with --trace 0, then once at the first seed with --trace 1. It
records per metric the median, the quartiles and the spread, which is
the interquartile range over the median (`statistics.quantiles(n=4)`),
beside each end-to-end bound. It then repeats the untraced seeds as a
second set, after the first set of every workload, and records how much
worse each metric's second median is than the first (`drift`). It also records the traced per-layer values and the share of
the traced wall time that each dominant layer takes. A seed that fails
its checks stops the script.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from run import WORK, load_spec  # noqa: E402


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    print(f"{workload} seed={seed} trace={trace}: ok", file=sys.stderr)
    record = json.loads(
        (WORK / "records" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def _stats(spec: dict, runs: list[tuple[dict, dict]]) -> dict:
    stats = {}
    for metric in spec["end_to_end"]:
        values = [result["metrics"][metric.name]["value"] for result, _ in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        stats[metric.name] = {
            "unit": metric.unit, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "bound": metric.bound, "values": values,
        }
    return stats


def _drift(spec: dict, first: dict, second: dict) -> dict[str, float]:
    """How much worse the second set's median is than the first, as a share."""
    drift = {}
    for metric in spec["end_to_end"]:
        a, b = first[metric.name]["median"], second[metric.name]["median"]
        drift[metric.name] = (b - a) / a if metric.better == "lower" else (a - b) / a
    return drift


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    parser.add_argument("--out", default=str(BENCH_DIR / "BASELINE.json"))
    args = parser.parse_args(argv)
    seeds = _seeds(args.seeds)
    spec = load_spec(ROOT / "BENCHMARK.json")
    baseline = {"seeds": seeds, "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in spec["workloads"]:
        runs = [_run(workload, seed, 0) for seed in seeds]
        traced, record = _run(workload, seeds[0], 1)
        baseline["workloads"][workload] = {
            "end_to_end": _stats(spec, runs),
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "layer_shares_of_traced_wall": record["layer_shares"],
            "environment": record["environment"],
            "csv_sha256_first_seed": {
                k: v for k, v in record["output_sha256"].items() if k.endswith(".csv")
            },
        }
        if runs[0][1]["sa_abs_err_nats"] is not None:
            baseline["workloads"][workload]["sa_abs_err_nats"] = [
                r["sa_abs_err_nats"] for _, r in runs
            ]
    for workload, entry in baseline["workloads"].items():
        second = _stats(spec, [_run(workload, seed, 0) for seed in seeds])
        entry["end_to_end_second_set"] = second
        entry["drift"] = _drift(spec, entry["end_to_end"], second)
    Path(args.out).write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
