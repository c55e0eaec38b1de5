import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fedleak
from fedleak import attack, leakage
from fedleak.cli import (
    _OPTIONS, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, EXIT_VERIFY_FAILED, main,
)
from fedleak.reporting import read_csv, read_keyvalue, write_csv
from fedleak.topology import generate_graph, read_edge_list, write_edge_list

SMALL_SWEEP = ["--n", "4", "--densities", "1.0", "--samples", "100"]

# (subcommand, option) for every declared option whose value is parsed
PARSED_OPTIONS = [
    (command, option)
    for option in _OPTIONS
    if option.parse is not str
    for command in option.defaults
]


def simulate(tmp_path, *args):
    return main(["simulate", "--out-dir", str(tmp_path / "out"), *args])


@pytest.fixture
def graph_file(tmp_path):
    """A 6-node graph file of density 0.6."""
    path = tmp_path / "graph.txt"
    write_edge_list(generate_graph(6, 0.6, 0), path)
    assert read_edge_list(path).density == 0.6
    return path


def output_files(out_dir):
    """Every file a run wrote except its manifest, relative to out_dir."""
    return sorted(
        p.relative_to(out_dir)
        for p in out_dir.rglob("*")
        if p.is_file() and p.name != "manifest.txt"
    )


def test_attack_help_describes_n_as_one_count(capsys):
    helps = {}
    for command in ("attack", "simulate"):
        assert main([command, "--help"]) == EXIT_OK
        helps[command] = " ".join(capsys.readouterr().out.split())
    assert "--n N node count (one value; default 10, or the graph file's)" in helps["attack"]
    assert "--n N comma-separated node counts (or one count)" in helps["simulate"]
    assert "comma-separated node counts" not in helps["attack"]


class TestUsageErrors:
    def test_tol_only_accepted_by_verify(self, tmp_path):
        assert simulate(tmp_path, *SMALL_SWEEP, "--tol", "0.1") == EXIT_USAGE

    def test_too_few_samples(self, tmp_path, capsys):
        assert simulate(tmp_path, "--n", "4", "--densities", "1.0", "--samples", "10") == EXIT_USAGE
        assert "samples must be >= 100" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_integer_node_count(self, tmp_path, capsys):
        assert simulate(tmp_path, "--n", "abc") == EXIT_USAGE
        assert "--n" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["analytic", "--n", "5", "--densities", "0.3"], "--densities: 0.3"),
            (["attack", "--n", "5", "--densities", "0.3"], "--densities: 0.3"),
            (
                ["simulate", "--n", "4", "--densities", "0.3", "--modes", "cfl,dfl"],
                "--densities: 0.3 gives no connected graph on 4 nodes",
            ),
            (["attack", "--modes", "cfl", "--densities", ""], "--densities: no density given"),
            (["attack", "--n", "2"], "--n: the attack needs at least 3 nodes"),
            (["attack", "--n", "6", "--corrupt", "9"], "--corrupt: node 9 out of range"),
            (["attack", "--seeds", "0", "--iters", "20"], "--seeds must be >= 1"),
            (["attack", "--iters", "-5"], "--iters must be >= 1, got -5"),
            (["attack", "--iters", "20", "--lr", "nan"], "--lr must be finite and > 0"),
            (
                ["simulate", "--n", "4", "--densities", "1.0", "--samples", "100",
                 "--knn-k", "200"],
                "k_nn must be < samples",
            ),
            (
                ["simulate", "--n", "5", "--densities", "0.4444444,0.4444441",
                 "--samples", "100", "--modes", "cfl,dfl"],
                "--densities: 0.4444444 and 0.4444441 both name their output files d0p444444",
            ),
            (
                ["attack", "--n", "5", "--densities", "0.4444444,0.4444441",
                 "--modes", "dfl", "--iters", "10"],
                "--densities: 0.4444444 and 0.4444441 both name their output files d0p444444",
            ),
            (
                ["attack", "--n", "5", "--densities", "0.8,0.8", "--iters", "10"],
                "--densities: 0.8 and 0.8 both name their output files d0p8",
            ),
            (
                ["simulate", "--n", "5,5", "--densities", "0.6", "--samples", "200"],
                "--n: 5 is given more than once",
            ),
            (
                ["simulate", "--n", "5", "--densities", "0.6", "--samples", "200",
                 "--modes", "cfl,dfl,CFL"],
                "--modes: cfl is given more than once",
            ),
            (
                ["analytic", "--n", "5,6,5", "--densities", "0.6"],
                "--n: 5 is given more than once",
            ),
            (
                ["analytic", "--n", "6", "--densities", "0.6,0.6"],
                "--densities: 0.6 is given more than once",
            ),
            (
                ["attack", "--n", "4", "--modes", "cfl,cfl", "--densities", "1.0",
                 "--iters", "5"],
                "--modes: cfl is given more than once",
            ),
            (["analytic", "--modes", "cfl", "--n", "4"], "unrecognized arguments: --modes cfl"),
            (["simulate", *SMALL_SWEEP, "--seed", "-1"], "--seed must be >= 0, got -1"),
            (["attack", "--iters", "5", "--seed", "-3"], "--seed must be >= 0, got -3"),
            (["analytic", "--n", "4", "--seed", "-1"], "--seed must be >= 0, got -1"),
            (["analytic", "--n", ""], "--n: no node count given"),
            (["attack", "--modes", "", "--iters", "5"], "--modes: no mode given"),
            (["simulate", "--n", "", "--densities", "1.0"], "--n: no node count given"),
            (["simulate", *SMALL_SWEEP, "--modes", ""], "--modes: no mode given"),
            (["simulate", "--n", "4", "--densities", ""], "--densities: no density given"),
        ],
        ids=[
            "analytic-density",
            "attack-density",
            "simulate-density",
            "attack-no-density",
            "attack-n",
            "attack-corrupt",
            "attack-seeds",
            "attack-iters",
            "attack-lr",
            "simulate-knn-k",
            "simulate-density-token",
            "attack-density-token",
            "attack-repeated-density",
            "simulate-repeated-n",
            "simulate-repeated-mode",
            "analytic-repeated-n",
            "analytic-repeated-density",
            "attack-repeated-mode",
            "analytic-modes",
            "simulate-seed",
            "attack-seed",
            "analytic-seed",
            "analytic-no-n",
            "attack-no-mode",
            "simulate-no-n",
            "simulate-no-mode",
            "simulate-no-density",
        ],
    )
    def test_bad_option_exits_before_any_work(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        assert main([*argv, "--out-dir", str(out)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["simulate", *SMALL_SWEEP], ["attack", "--iters", "5"], ["analytic", "--n", "4"]],
        ids=["simulate", "attack", "analytic"],
    )
    def test_negative_seed_from_config_exits_before_any_output(self, tmp_path, capsys, argv):
        # SeedSequence would reject it only after a header or a first value
        config = tmp_path / "config.txt"
        config.write_text("seed=-2\n")
        out = tmp_path / "out"
        assert main([*argv, "--config", str(config), "--out-dir", str(out)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == "usage error: --seed must be >= 0, got -2\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, config, message",
        [
            (["--n", "4", "--densities", "0.5"], "", "--n: 4 differs from the 6 nodes"),
            (["--densities", "0.5"], "", "--densities: 0.5 differs from the graph file's density 0.6"),
            (["--densities", "0.6,1.0"], "", "--densities: 0.6,1.0 differs"),
            ([], "n=4\n", "--n: 4 differs from the 6 nodes"),
            ([], "densities=0.5\n", "--densities: 0.5 differs"),
        ],
        ids=["flag-n", "flag-density", "flag-extra-density", "config-n", "config-density"],
    )
    def test_graph_file_conflict_exits_before_any_work(
        self, tmp_path, capsys, graph_file, argv, config, message
    ):
        out = tmp_path / "out"
        if config:
            (tmp_path / "config.txt").write_text(config)
            argv = [*argv, "--config", str(tmp_path / "config.txt")]
        argv = ["attack", *argv, "--graph-file", str(graph_file), "--iters", "5",
                "--out-dir", str(out)]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert message in captured.err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, content, message",
        [
            (["simulate", *SMALL_SWEEP, "--config"], None, "--config: [Errno 2]"),
            (["simulate", *SMALL_SWEEP, "--config"], "n=4\nsamples\n",
             "--config: {path}:2: expected key=value"),
            (["attack", "--iters", "5", "--graph-file"], None, "--graph-file: [Errno 2]"),
            (["attack", "--iters", "5", "--graph-file"], "4 2\n0 1\n2 3\n",
             "--graph-file: the graph in {path} is not connected"),
            (["attack", "--iters", "5", "--graph-file"], "4 4\n0 1\n1 2\n2 3\n",
             "--graph-file: {path}: header says m=4 but found 3 edges"),
        ],
        ids=["config-missing", "config-malformed", "graph-missing", "graph-disconnected",
             "graph-edge-count"],
    )
    def test_bad_input_file_exits_before_any_work(self, tmp_path, capsys, argv, content, message):
        path = tmp_path / "input.txt"
        if content is not None:
            path.write_text(content)
        out = tmp_path / "out"
        assert main([*argv, str(path), "--out-dir", str(out)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert message.format(path=path) in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_graph_file_run_replays_from_its_manifest(self, tmp_path, graph_file):
        # the manifest restates the graph's n and density, which must pass
        first, second = tmp_path / "first", tmp_path / "second"
        argv = ["attack", "--n", "6", "--densities", "0.6", "--graph-file", str(graph_file),
                "--iters", "5", "--out-dir", str(first)]
        assert main(argv) == EXIT_OK
        assert "n=6\n" in (first / "manifest.txt").read_text()
        rerun = ["attack", "--config", str(first / "manifest.txt"), "--out-dir", str(second)]
        assert main(rerun) == EXIT_OK
        files = output_files(first)
        assert output_files(second) == files
        for name in files:
            assert (second / name).read_bytes() == (first / name).read_bytes(), name

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize(
        "command, option", PARSED_OPTIONS, ids=[f"{c}-{o.key}" for c, o in PARSED_OPTIONS]
    )
    def test_unparsable_value_exits_before_any_output(
        self, tmp_path, capsys, command, option, source
    ):
        out = tmp_path / "out"
        if command == "verify":  # writes no files, and reads its report last
            argv = ["verify", str(tmp_path / "report.csv")]
        else:
            argv = [command, "--out-dir", str(out)]
        if source == "flag":
            argv += [option.flag, "abc"]
            message = f"usage error: {option.flag}: invalid value 'abc' ("
        else:
            (tmp_path / "config.txt").write_text(f"{option.key}=abc\n")
            argv += ["--config", str(tmp_path / "config.txt")]
            message = f"usage error: config key {option.key}: invalid value 'abc' ("
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith(message)
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "made_by, argv",
        [
            ("attack", ["simulate", *SMALL_SWEEP]),
            ("analytic", ["simulate", *SMALL_SWEEP]),
            ("simulate", ["attack", "--iters", "5"]),
            ("simulate", ["analytic", "--n", "4"]),
        ],
        ids=["attack-to-simulate", "analytic-to-simulate", "simulate-to-attack",
             "simulate-to-analytic"],
    )
    def test_manifest_of_another_subcommand_exits_before_any_output(
        self, tmp_path, capsys, made_by, argv
    ):
        config = tmp_path / "manifest.txt"
        config.write_text(f"command={made_by}\nseed=1\nn=4\ndensities=1.0\nmodes=cfl\n")
        out = tmp_path / "out"
        assert main([*argv, "--config", str(config), "--out-dir", str(out)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == (
            f"usage error: --config: {config} is a manifest of fedleak {made_by}, "
            f"not {argv[0]}\n"
        )
        assert captured.out == ""
        assert not out.exists()

    def test_analytic_only_flag_removed(self, tmp_path, capsys):
        # `fedleak analytic` writes the closed forms
        argv = ["--analytic-only", "--modes", "dfl_sa", "--n", "5", "--densities", "0.5"]
        assert simulate(tmp_path, *argv) == EXIT_USAGE
        assert "--analytic-only" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_old_manifest_analytic_only_key_ignored(self, tmp_path):
        config = tmp_path / "old.txt"
        config.write_text("analytic_only=true\nmodes=cfl\nn=4\ndensities=1.0\nsamples=100\n")
        assert simulate(tmp_path, "--config", str(config)) == EXIT_OK
        assert (tmp_path / "out" / "leakage_pairs.csv").is_file()

    def test_environment_does_not_set_options(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FEDLEAK_SAMPLES", "10")
        args = ["--n", "4", "--densities", "1.0", "--modes", "cfl_sa"]
        assert simulate(tmp_path, *args) == EXIT_OK
        assert "samples=1000" in (tmp_path / "out" / "manifest.txt").read_text()


class TestSimulateOutputs:
    def test_without_cfl_writes_no_relative_chart(self, tmp_path):
        assert simulate(tmp_path, "--modes", "cfl_sa", *SMALL_SWEEP) == EXIT_OK
        out = tmp_path / "out"
        assert (out / "leakage_pairs.csv").is_file()
        assert (out / "leakage_summary.csv").is_file()
        assert not (out / "leakage_relative.svg").exists()
        assert "output_svg" not in (out / "manifest.txt").read_text()


    @pytest.mark.usefixtures("stall_guard")
    def test_progress_line_per_cell(self, tmp_path, capsys):
        argv = ["--n", "4,5", "--densities", "1.0", "--samples", "100"]
        assert simulate(tmp_path, *argv) == EXIT_OK
        progress = [
            line for line in capsys.readouterr().err.splitlines() if " cell " in line
        ]
        assert progress == [
            "[simulate] cell 1/2 n=4 density=1 done",
            "[simulate] cell 2/2 n=5 density=1 done",
        ]

    @pytest.mark.usefixtures("stall_guard")
    @pytest.mark.parametrize("lost", [False, True], ids=["raises", "exits"])
    def test_failing_unit_is_a_runtime_error(self, tmp_path, capsys, monkeypatch, lost):
        def failing(*args, **kwargs):
            if lost:  # the worker is gone, and its task never ends
                os._exit(7)
            raise ValueError("no estimate")

        # the function each sweep task runs
        monkeypatch.setattr(leakage, "_corrupt_pairs", failing)
        assert simulate(tmp_path, *SMALL_SWEEP) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert ("exited with code 7" if lost else "error: no estimate") in err
        with pytest.raises(ChildProcessError):  # no child left, os.fork ones included
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.usefixtures("stall_guard")
    def test_sigterm_leaves_no_worker(self, tmp_path):
        src = Path(fedleak.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        # Each of the second cell's 40 tasks (one corrupt node, 39 pairs
        # on 40,000 samples) takes seconds, so a worker left behind would
        # still be computing one when the check below ends.
        argv = [sys.executable, "-m", "fedleak.cli", "simulate", "--n", "4,40",
                "--densities", "1.0", "--modes", "cfl_sa", "--samples", "40000",
                "--out-dir", str(tmp_path / "out")]
        proc = subprocess.Popen(argv, env=env, stderr=subprocess.PIPE, start_new_session=True)
        try:
            seen = b""
            deadline = time.monotonic() + 60
            while b"cell 1/2" not in seen:
                wait = max(0.0, deadline - time.monotonic())
                ready, _, _ = select.select([proc.stderr], [], [], wait)
                chunk = os.read(proc.stderr.fileno(), 4096) if ready else b""
                assert chunk, f"no first-cell line from simulate: {seen!r}"
                seen += chunk
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == -signal.SIGTERM  # killed mid-sweep
            # the new session's process group: the parent and its workers
            deadline = time.monotonic() + 1
            while time.monotonic() < deadline:
                try:
                    os.killpg(proc.pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.1)
            else:
                pytest.fail("a worker outlived the SIGTERM")
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait(timeout=60)
            proc.stderr.close()


class TestAttackOutputs:
    def test_centralized_views_inverted_once(self, tmp_path, monkeypatch):
        # cfl and cfl_sa do not depend on the graph: one inversion per
        # target serves every density, and every density gets its rows
        n = 5
        batches = []
        real = attack.invert_gradient

        def spy(observed, *args, **kwargs):
            batches.append(len(observed))
            return real(observed, *args, **kwargs)

        monkeypatch.setattr(attack, "invert_gradient", spy)
        out = tmp_path / "out"
        argv = ["attack", "--n", str(n), "--modes", "cfl,cfl_sa", "--densities", "0.4,0.8",
                "--iters", "30", "--out-dir", str(out)]
        assert main(argv) == EXIT_OK
        assert batches == [2 * (n - 1)]
        _, rows, _ = read_csv(out / "attack_ssim.csv")
        by_density = {}
        for row in rows:
            by_density.setdefault(row["density"], []).append(
                (row["mode"], row["node"], row["neighbor_flag"], row["ssim"])
            )
        assert list(by_density) == ["0.4", "0.8"]
        assert by_density["0.4"] == by_density["0.8"]
        assert len(by_density["0.4"]) == 2 * (n - 1)
        for mode in ("cfl", "cfl_sa"):
            for node in range(1, n):
                name = f"{mode}_d{{}}_node{node:02d}.pgm"
                assert (out / "recon" / name.format("0p4")).read_bytes() == (
                    out / "recon" / name.format("0p8")
                ).read_bytes()

    def test_equal_reconstructions_share_one_file(self, tmp_path):
        # the benchmark's attack arguments at seed 0; a rerun into the same
        # directory replaces every file by an equal one
        out = tmp_path / "out"
        argv = ["attack", "--seed", "0", "--n", "6", "--densities", "0.4,0.8,1.0",
                "--modes", "cfl,cfl_sa,dfl,dfl_sa", "--iters", "1000", "--corrupt", "0",
                "--seeds", "1", "--out-dir", str(out)]
        assert main(argv) == EXIT_OK
        files = output_files(out)
        first = {name: (out / name).read_bytes() for name in files}
        recon = [out / name for name in files if name.parts[0] == "recon"]
        assert len(recon) == 60
        inodes = {path.stat().st_ino for path in recon}
        assert len(inodes) == len({path.read_bytes() for path in recon}) < len(recon)
        assert main(argv) == EXIT_OK
        assert output_files(out) == files
        assert {name: (out / name).read_bytes() for name in files} == first

    def test_densities_default_when_left_out(self, tmp_path):
        out = tmp_path / "out"
        argv = ["attack", "--n", "3", "--modes", "cfl", "--iters", "5", "--out-dir", str(out)]
        assert main(argv) == EXIT_OK
        _, rows, _ = read_csv(out / "attack_summary.csv")
        assert [row["density"] for row in rows] == ["0.4", "0.8", "1.0"]
        assert "nan" not in (out / "attack_ssim.svg").read_text()


class TestManifestRoundTrip:
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ["simulate", "--seed", "5", "--n", "4,5", "--densities", "0.7,1.0",
                 "--samples", "150", "--knn-k", "4"],
                ["leakage_relative.svg", "graphs/graph_n5_d0p7.txt"],
            ),
            (
                ["attack", "--seed", "2", "--n", "5", "--densities", "0.7,1.0",
                 "--iters", "20", "--seeds", "2", "--lr", "0.05", "--corrupt", "1"],
                ["attack_ssim.svg", "recon/dfl_d0p7_node00.pgm"],
            ),
            (
                # more than six significant digits: the density is not rounded
                ["simulate", "--n", "5", "--densities", "0.4444444", "--samples", "100",
                 "--modes", "cfl,dfl"],
                ["leakage_summary.csv", "graphs/graph_n5_d0p444444.txt"],
            ),
            (
                ["analytic", "--seed", "3", "--n", "4,6", "--densities", "0.7,1.0"],
                ["analytic.csv"],
            ),
        ],
        ids=["simulate", "attack", "simulate-long-density", "analytic"],
    )
    def test_manifest_reproduces_outputs(self, tmp_path, argv, expected):
        first, second = tmp_path / "first", tmp_path / "second"
        assert main([*argv, "--out-dir", str(first)]) == EXIT_OK
        rerun = [argv[0], "--config", str(first / "manifest.txt"), "--out-dir", str(second)]
        assert main(rerun) == EXIT_OK
        files = output_files(first)
        assert {str(f) for f in files} >= set(expected)
        assert output_files(second) == files
        for name in files:
            assert (second / name).read_bytes() == (first / name).read_bytes(), name

    @pytest.mark.parametrize(
        "argv",
        [["simulate", *SMALL_SWEEP], ["attack", "--iters", "5", "--graph-file"],
         ["analytic", "--n", "4"]],
        ids=["simulate", "attack", "analytic"],
    )
    def test_manifest_records_every_declared_option(self, tmp_path, graph_file, argv):
        if argv[-1] == "--graph-file":  # without it graph_file is None, left out
            argv = [*argv, str(graph_file)]
        out = tmp_path / "out"
        assert main([*argv, "--out-dir", str(out)]) == EXIT_OK
        keys = set(read_keyvalue(out / "manifest.txt"))
        declared = {option.key for option in _OPTIONS if argv[0] in option.defaults}
        outputs = {key for key in keys if key.startswith("output_")}
        assert outputs
        assert keys == declared | {"command", "out_dir", "created_utc", "version"} | outputs


class TestVerify:
    @pytest.fixture(scope="class")
    def summary(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("sweep")
        argv = ["simulate", "--seed", "7", "--n", "8", "--densities", "0.3,0.9",
                "--samples", "500", "--out-dir", str(out)]
        assert main(argv) == EXIT_OK
        return out / "leakage_summary.csv"

    def test_correct_sweep_passes(self, summary, capsys):
        # The estimated dfl_sa - cfl_sa gap at density 0.9 is below tol;
        # its closed form is positive, so the chain holds.
        assert main(["verify", str(summary)]) == EXIT_OK
        assert "CHAIN HOLDS" in capsys.readouterr().out

    def test_two_node_sweep_passes(self, tmp_path, capsys):
        # At n = 2 both secure-aggregation views show the other node: both
        # closed forms are +inf, and the estimated gap between two finite
        # values of infinite quantities (about -0.7) orders nothing.
        assert simulate(tmp_path, "--n", "2", "--densities", "1.0") == EXIT_OK
        capsys.readouterr()
        assert main(["verify", str(tmp_path / "out" / "leakage_summary.csv")]) == EXIT_OK
        out = capsys.readouterr().out
        (line,) = [line for line in out.splitlines() if "dfl_sa_vs_cfl_sa" in line]
        assert line.endswith("SKIPPED")
        assert "CHAIN HOLDS" in out

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tol_is_a_usage_error(self, summary, capsys, tol):
        assert main(["verify", str(summary), "--tol", tol]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "--tol must be finite and >= 0" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "No such file or directory"),
            ("", "empty file"),
            ("mode,n\ncfl,8\n", "summary header must contain"),
            ("mode,n,density,leakage_nats\n", "no summary rows"),
            ("mode,n,density,leakage_nats\ncfl,8,x,0.5\n", ":2: could not convert"),
            ("mode,n,density,leakage_nats\ncfl,8,0.3\n", ":2: expected 4 columns"),
        ],
        ids=["missing", "empty", "header", "no-rows", "bad-number", "short-row"],
    )
    def test_bad_report_is_a_usage_error(self, tmp_path, capsys, content, message):
        report = tmp_path / "report.csv"
        if content is not None:
            report.write_text(content)
        assert main(["verify", str(report)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error: report: ")
        assert message in captured.err
        assert captured.out == ""

    def test_report_missing_a_mode_is_a_usage_error(self, summary, tmp_path, capsys):
        header, rows, _ = read_csv(summary)
        kept = [r for r in rows if not (r["mode"] == "dfl" and r["density"] == "0.9")]
        partial = tmp_path / "partial.csv"
        write_csv(partial, header, [[r[h] for h in header] for r in kept])
        assert main(["verify", str(partial)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "usage error: report: cell (n=8, density=0.9) lacks modes ['dfl']" in captured.err
        assert captured.out == ""

    def test_swapped_sa_estimates_fail(self, summary, tmp_path, capsys):
        header, rows, _ = read_csv(summary)
        at = {r["mode"]: r for r in rows if r["density"] == "0.3"}
        at["dfl_sa"]["leakage_nats"], at["cfl_sa"]["leakage_nats"] = (
            at["cfl_sa"]["leakage_nats"],
            at["dfl_sa"]["leakage_nats"],
        )
        swapped = tmp_path / "swapped.csv"
        write_csv(swapped, header, [[r[h] for h in header] for r in rows])
        assert main(["verify", str(swapped)]) == EXIT_VERIFY_FAILED
        assert "dfl_sa_vs_cfl_sa at (n=8, density=0.3)" in capsys.readouterr().out
