from fedleak.cli import EXIT_OK, EXIT_USAGE, main

SMALL_SWEEP = ["--n", "4", "--densities", "1.0", "--samples", "100"]


def simulate(tmp_path, *args):
    return main(["simulate", "--out-dir", str(tmp_path / "out"), *args])


class TestUsageErrors:
    def test_tol_only_accepted_by_verify(self, tmp_path):
        assert simulate(tmp_path, *SMALL_SWEEP, "--tol", "0.1") == EXIT_USAGE

    def test_too_few_samples(self, tmp_path, capsys):
        assert simulate(tmp_path, "--n", "4", "--samples", "10") == EXIT_USAGE
        assert "samples must be >= 100" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_integer_node_count(self, tmp_path, capsys):
        assert simulate(tmp_path, "--n", "abc") == EXIT_USAGE
        assert "--n" in capsys.readouterr().err


class TestSimulateOutputs:
    def test_without_cfl_writes_no_relative_chart(self, tmp_path):
        assert simulate(tmp_path, "--modes", "cfl_sa", *SMALL_SWEEP) == EXIT_OK
        out = tmp_path / "out"
        assert (out / "leakage_pairs.csv").is_file()
        assert (out / "leakage_summary.csv").is_file()
        assert not (out / "leakage_relative.svg").exists()
        assert "output_svg" not in (out / "manifest.txt").read_text()
