"""Tests for the benchmark's own code.

    python3 -m pytest -q perfbench

They cover the span arithmetic, BENCHMARK.json parsing and the result
line, and that the oracle and the digest comparison catch corrupted
outputs. The oracle tests run two small CLI invocations.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import run  # noqa: E402
from oracle import (  # noqa: E402
    _cell_inputs,
    check_outputs,
    digest_mismatches,
    oracle_subsample,
    output_digests,
)
from tracer import Tracer, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


# -- span arithmetic ------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    names = ["main", "mid", "leaf"]
    spans = [
        [0, 0.0, 10.0, -1],  # main
        [1, 1.0, 5.0, 0],  # mid, child of main
        [2, 2.0, 3.0, 1],  # leaf, child of mid
        [2, 3.5, 4.0, 1],  # leaf, child of mid
        [2, 6.0, 8.0, 0],  # leaf, child of main
    ]
    stats = summarize(names, spans)
    assert stats["main"] == {"calls": 1, "busy_s": 10.0, "self_s": 10.0 - 4.0 - 2.0}
    assert stats["mid"] == {"calls": 1, "busy_s": 4.0, "self_s": 4.0 - 1.0 - 0.5}
    assert stats["leaf"] == {"calls": 3, "busy_s": 3.5, "self_s": 3.5}
    total_self = sum(s["self_s"] for s in stats.values())
    assert total_self == pytest.approx(stats["main"]["busy_s"])


def test_busy_time_counts_recursion_once():
    names = ["f"]
    spans = [[0, 0.0, 4.0, -1], [0, 1.0, 3.0, 0]]
    stats = summarize(names, spans)["f"]
    assert stats == {"calls": 2, "busy_s": 4.0, "self_s": 4.0}


def test_tracer_records_nesting_and_restores_bindings():
    import fedleak.cli
    import fedleak.leakage

    original = fedleak.leakage.draw_gradient_samples
    tracer = Tracer()
    tracer.install()
    try:
        assert fedleak.leakage.draw_gradient_samples is not original
        tracer.call("outer", fedleak.leakage.draw_gradient_samples, 3, 200, 0)
    finally:
        tracer.uninstall()
    assert fedleak.leakage.draw_gradient_samples is original
    assert tracer.names == ["outer", "leakage.draw_gradient_samples"]
    (outer, inner) = tracer.spans
    assert inner[3] == 0 and outer[3] == -1
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]


def test_host_scaled_divides_pooled_times_by_pooled_kernel_times():
    ref = 0.15
    reps = [{"wall_s": 4.0, "probe_s": 2 * ref}, {"wall_s": 2.0, "probe_s": ref}]
    assert run.host_scaled(reps, "wall_s", ref, "probe_s") == pytest.approx(2.0)
    # A host twice as slow throughout gives the same figure.
    slow = [{"wall_s": 2 * r["wall_s"], "probe_s": 2 * r["probe_s"]} for r in reps]
    assert run.host_scaled(slow, "wall_s", ref, "probe_s") == pytest.approx(2.0)
    # At the reference speed the figure is the mean time.
    at_ref = [{"cpu_s": 3.0, "probe_cpu_s": ref}, {"cpu_s": 1.0, "probe_cpu_s": ref}]
    assert run.host_scaled(at_ref, "cpu_s", ref, "probe_cpu_s") == pytest.approx(2.0)


def test_overhead_estimate_scales_with_recorded_calls():
    tracer = Tracer()
    assert tracer.overhead_estimate(calls=2000, rounds=2) == 0.0
    for _ in range(1000):
        tracer.call("f", lambda: None)
    tracer.counter_calls = 1000
    estimate = tracer.overhead_estimate(calls=2000, rounds=2)
    assert 0.0 < estimate < 0.1


def test_trace_wall_diff_pairs_the_neighbours():
    reps = [{"wall_s": 9.0, "traced": False}, {"wall_s": 2.0, "traced": False},
            {"wall_s": 3.5, "traced": True}, {"wall_s": 3.0, "traced": False}]
    assert run.trace_wall_diff(reps) == 1.0


def test_digest_store_key_follows_workload_and_seed():
    sweep, attack = WORKLOADS["sweep"], WORKLOADS["attack"]
    assert run.digest_store(sweep, 0) == run.digest_store(sweep, 0)
    assert run.digest_store(sweep, 0) != run.digest_store(sweep, 1)
    assert run.digest_store(sweep, 0) != run.digest_store(replace(sweep, n_values=(9,)), 0)
    assert run.digest_store(sweep, 0) != run.digest_store(attack, 0)


def test_layer_metrics_map_spans_counters_and_process_figures(tmp_path):
    spans = tmp_path / "spans.json"
    spans.write_text(json.dumps({
        "names": ["cli.main", "infotheory.kth_radius", "infotheory.kdtree_build"],
        "spans": [[0, 0.0, 2.0, -1], [1, 0.5, 1.5, 0], [2, 0.5, 0.75, 1]],
        "counters": {"attack.steps": 7, "leakage.pairs_estimated": 3},
    }))
    specs = [run.MetricSpec(name, "x", "lower") for name in (
        "cli.main.self_s", "infotheory.kth_radius.busy_s", "infotheory.kth_radius.calls",
        "infotheory.kdtree_builds", "leakage.mi_fixed_set.calls", "attack.steps",
        "leakage.pairs_estimated", "proc.cpu_util", "trace.overhead_s")]
    untraced = [{"wall_s": 1.0, "cpu_s": 0.5, "ctx_vol": 1, "ctx_invol": 2},
                {"wall_s": 3.0, "cpu_s": 1.5, "ctx_vol": 1, "ctx_invol": 2}]
    values = run.layer_metrics(specs, spans, untraced, 0.5)
    assert values == {
        "cli.main.self_s": 1.0,
        "infotheory.kth_radius.busy_s": 1.0,
        "infotheory.kth_radius.calls": 1,
        "infotheory.kdtree_builds": 1,
        "leakage.mi_fixed_set.calls": 0,  # absent span
        "attack.steps": 7,
        "leakage.pairs_estimated": 3,
        "proc.cpu_util": 0.5,
        "trace.overhead_s": 0.5,
    }


# -- metric parsing and units ----------------------------------------------

def _write_spec(tmp_path, **changes):
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    spec.update(changes)
    path = tmp_path / "BENCHMARK.json"
    path.write_text(json.dumps(spec))
    return path


def test_spec_parses_units_and_bounds():
    spec = run.load_spec(BENCH_DIR.parent / "BENCHMARK.json")
    e2e = {m.name: m for m in spec["end_to_end"]}
    assert e2e["setup_s"].unit == "s" and e2e["setup_s"].better == "lower"
    assert e2e["setup_s"].bound == max(m.bound for m in spec["end_to_end"])
    assert e2e["units_per_ref_s"].unit == "1/s" and e2e["units_per_ref_s"].better == "higher"
    layers = {m.name: m for m in spec["per_layer"]}
    assert layers["infotheory.kth_radius.busy_s"].unit == "s"
    assert layers["infotheory.kth_radius.calls"].unit == "count"
    assert all(m.bound is None for m in spec["per_layer"])
    assert spec["workloads"] == ["sweep", "attack"]
    assert set(spec["workloads"]) <= set(WORKLOADS)


@pytest.mark.parametrize(
    "metric",
    [
        {"name": "x", "unit": "milli seconds", "better": "lower", "bound": 0.1},
        {"name": "x", "unit": "s", "better": "faster", "bound": 0.1},
        {"name": "x", "unit": "s", "better": "lower", "bound": 0.5},
        {"name": "x", "unit": "s", "better": "lower"},
        {"name": "_x", "unit": "s", "better": "lower", "bound": 0.1},
    ],
)
def test_spec_rejects_malformed_metrics(tmp_path, metric):
    with pytest.raises(ValueError):
        run.load_spec(_write_spec(tmp_path, end_to_end=[metric]))


def test_result_line_carries_every_metric_with_its_unit():
    specs = [run.MetricSpec("wall_s", "s", "lower", 0.1),
             run.MetricSpec("units_per_s", "1/s", "higher", 0.1)]
    line = run.result_json(specs, {"wall_s": 1.25, "units_per_s": 80.0}, True, 10, 0)
    parsed = json.loads(line)
    assert set(parsed) == {"correct", "attempted", "failed", "metrics"}
    assert parsed["metrics"] == {
        "wall_s": {"value": 1.25, "unit": "s"},
        "units_per_s": {"value": 80.0, "unit": "1/s"},
    }
    with pytest.raises(ValueError, match="missing"):
        run.result_json(specs, {"wall_s": 1.25}, True, 10, 0)
    with pytest.raises(ValueError, match="non-finite"):
        run.result_json(specs, {"wall_s": float("nan"), "units_per_s": 1.0}, True, 10, 0)


# -- oracle and digests -----------------------------------------------------

TINY_SWEEP = replace(WORKLOADS["sweep"], name="tiny_sweep", n_values=(5,), densities=(0.5,),
                     samples=200)
TINY_ATTACK = replace(WORKLOADS["attack"], name="tiny_attack", n_values=(4,),
                      densities=(1.0,))


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    import fedleak.cli

    out = tmp_path_factory.mktemp("sweep")
    assert fedleak.cli.main(TINY_SWEEP.argv(7, str(out))) == 0
    return out


@pytest.fixture(scope="module")
def attack_dir(tmp_path_factory):
    import fedleak.cli

    out = tmp_path_factory.mktemp("attack")
    assert fedleak.cli.main(TINY_ATTACK.argv(7, str(out))) == 0
    return out


def _copy(src: Path, dst: Path) -> Path:
    shutil.copytree(src, dst)
    return dst


def _rewrite_csv(path: Path, edit) -> None:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    edit(rows)
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")


def test_oracle_accepts_correct_sweep(sweep_dir):
    report = check_outputs(TINY_SWEEP, 7, sweep_dir)
    assert report.failed == 0, report.problems
    assert report.attempted == TINY_SWEEP.expected_units() == 5 + 3 * 20
    assert report.checked >= 4 * 4


def test_oracle_catches_a_changed_estimate(sweep_dir, tmp_path):
    _, graphs, _ = _cell_inputs(TINY_SWEEP, 7)
    mode, n, density, k, i = oracle_subsample(TINY_SWEEP, 7, graphs)[-1]
    out = _copy(sweep_dir, tmp_path / "out")

    def corrupt(rows):
        for row in rows[1:]:
            if row[0] == mode and int(row[3]) == k and int(row[4]) == i:
                row[5] = repr(float(row[5]) + 1e-12)

    _rewrite_csv(out / "leakage_pairs.csv", corrupt)
    report = check_outputs(TINY_SWEEP, 7, out)
    assert report.failed == 1
    assert "recomputed" in report.problems[0]


def test_oracle_catches_a_missing_row(sweep_dir, tmp_path):
    out = _copy(sweep_dir, tmp_path / "out")
    _rewrite_csv(out / "leakage_pairs.csv", lambda rows: rows.pop())
    report = check_outputs(TINY_SWEEP, 7, out)
    assert report.failed == 1 and "missing" in report.problems[0]


def test_oracle_accepts_correct_attack_and_catches_bad_ssim(attack_dir, tmp_path):
    assert check_outputs(TINY_ATTACK, 7, attack_dir).failed == 0
    out = _copy(attack_dir, tmp_path / "out")

    def corrupt(rows):
        rows[1][4] = "1.5"  # out of range
        rows[2][4] = "nan"
        rows[3][4] = "0.5"  # first rows are cfl: exact gradient must reach 0.99

    _rewrite_csv(out / "attack_ssim.csv", corrupt)
    report = check_outputs(TINY_ATTACK, 7, out)
    assert report.failed == 3, report.problems


def test_digests_skip_manifest_and_catch_changes(sweep_dir, tmp_path):
    reference = output_digests(sweep_dir)
    assert "manifest.txt" not in reference
    assert "leakage_pairs.csv" in reference
    out = _copy(sweep_dir, tmp_path / "out")
    (out / "manifest.txt").write_text("created_utc=later\n")
    assert digest_mismatches(reference, output_digests(out)) == []
    with open(out / "leakage_summary.csv", "a") as handle:
        handle.write("\n")
    (out / "graphs" / "graph_n5_d0p5.txt").unlink()
    assert digest_mismatches(reference, output_digests(out)) == [
        "graphs/graph_n5_d0p5.txt",
        "leakage_summary.csv",
    ]
