import json

import numpy as np
import pytest

from tlsphot import cli


def run_cli(args):
    return cli.main(args)


@pytest.fixture()
def fast_sweep_config(tmp_path):
    path = tmp_path / "fast.ini"
    path.write_text(
        "[sweep]\n"
        "beta_values = 1.0\n"
        "sigma_min = 0.1\n"
        "sigma_max = 2.0\n"
        "sigma_count = 12\n"
    )
    return str(path)


class TestRun:
    def test_fig1b_outputs(self, tmp_path, fast_sweep_config):
        out = tmp_path / "run1"
        rc = run_cli(["run", "fig1b", "--config", fast_sweep_config,
                      "--out", str(out)])
        assert rc == 0
        csv = (out / "fig1b.csv").read_text()
        lines = csv.split("\n")
        assert lines[0] == "beta,sigma_over_gamma,eta,half_eps1_sq,is_crossing"
        assert len(lines) == 12 + 2  # header + rows + trailing newline
        assert "\r" not in csv
        assert (out / "manifest.json").exists()
        assert (out / "convergence.csv").exists()
        assert (out / "plot_fig1b.py").exists()

    def test_reruns_are_byte_identical(self, tmp_path, fast_sweep_config):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(["run", "fig1b", "--config", fast_sweep_config,
                        "--out", str(out1)]) == 0
        assert run_cli(["run", "fig1b", "--config", fast_sweep_config,
                        "--out", str(out2)]) == 0
        for name in ("fig1b.csv", "convergence.csv", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_matching_points_values(self, tmp_path):
        out = tmp_path / "mp"
        assert run_cli(["run", "matching-points", "--out", str(out)]) == 0
        lines = (out / "matching_points.csv").read_text().strip().split("\n")
        rows = dict(line.split(",", 1) for line in lines[1:])
        assert float(rows["lower"].split(",")[0]) == pytest.approx(
            0.163394338, abs=1e-6)
        assert float(rows["upper"].split(",")[0]) == pytest.approx(
            1.250495888, abs=1e-6)

    def test_unknown_experiment_exits_2(self, tmp_path):
        assert run_cli(["run", "fig9", "--out", str(tmp_path)]) == 2

    def test_unwritable_output_exits_1(self, tmp_path):
        occupied = tmp_path / "occupied"
        occupied.write_text("")  # a file where the output dir should go
        assert run_cli(["run", "matching-points", "--out",
                        str(occupied)]) == 1

    def test_convergence_failure_exits_3(self, tmp_path):
        cfg = tmp_path / "strict.ini"
        cfg.write_text(
            "[sweep]\nbeta_values = 0.95\nsigma_min = 0.5\nsigma_max = 2.0\n"
            "sigma_count = 4\n"
            "[convergence]\ntolerance = 1e-18\n"
        )
        out = tmp_path / "conv"
        rc = run_cli(["run", "fig1b", "--config", str(cfg), "--out",
                      str(out)])
        assert rc == 3
        report = (out / "convergence.csv").read_text()
        assert "false" in report

    def test_manifest_reproduces_config(self, tmp_path, fast_sweep_config):
        out = tmp_path / "m"
        run_cli(["run", "fig1b", "--config", fast_sweep_config,
                 "--out", str(out), "--beta", "0.97"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["tls"]["beta"] == "0.97"
        assert manifest["experiment"] == "fig1b"
        assert manifest["version"]

    def test_demo_runs(self, tmp_path):
        out = tmp_path / "demo"
        rc = run_cli(["run", "sorter-demo", "--out", str(out),
                      "--grid-n", "801", "--grid-max", "40"])
        assert rc == 0
        text = (out / "sorter_demo.csv").read_text()
        assert "ancilla_one_photon_weight" in text


class TestValidate:
    def test_valid_config_empty_diagnostics(self, tmp_path, capsys):
        cfg = tmp_path / "ok.ini"
        cfg.write_text("[tls]\nbeta = 0.9\n")
        assert run_cli(["validate", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == ""

    def test_negative_sigma_reported(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[sweep]\nsigma_min = -1\n")
        assert run_cli(["validate", "--config", str(cfg)]) == 2
        assert "sigma_min" in capsys.readouterr().out

    def test_unknown_key_reported(self, tmp_path, capsys):
        cfg = tmp_path / "bad2.ini"
        cfg.write_text("[tls]\nbeta = 0.9\nfoo = 1\n")
        assert run_cli(["validate", "--config", str(cfg)]) == 2
        assert "foo" in capsys.readouterr().out

    def test_resolution_violation_reported(self, tmp_path, capsys):
        cfg = tmp_path / "coarse.ini"
        cfg.write_text("[grid]\nn_points = 101\ndelta_max = 50\n"
                       "[run]\nsigma = 1.0\n")
        assert run_cli(["validate", "--config", str(cfg)]) == 2
        assert "resolution" in capsys.readouterr().out

    def test_parse_error_reported(self, tmp_path, capsys):
        cfg = tmp_path / "broken.ini"
        cfg.write_text("this is not ini\n")
        assert run_cli(["validate", "--config", str(cfg)]) == 2
        assert "parse error" in capsys.readouterr().out

    @pytest.mark.parametrize("text, key", [
        ("[grid]\nn_points = 1.5\n", "grid.n_points"),
        ("[run]\nsigma = abc\n", "run.sigma"),
    ])
    def test_unparsable_value_reported(self, tmp_path, capsys, text, key):
        cfg = tmp_path / "typo.ini"
        cfg.write_text(text)
        assert run_cli(["validate", "--config", str(cfg)]) == 2
        assert key in capsys.readouterr().out


class TestConfigFaults:
    @pytest.mark.parametrize("text, key", [
        ("[grid]\nn_points = 1.5\n", "grid.n_points"),
        ("[run]\nsigma = abc\n", "run.sigma"),
        ("[tls]\nbeta = 1.5\n", "tls.beta"),
    ])
    def test_run_exits_2_with_diagnostic(self, tmp_path, capsys, text, key):
        cfg = tmp_path / "typo.ini"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert run_cli(["run", "sorter-demo", "--config", str(cfg),
                        "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("experiment", ["fig1b", "matching-points"])
    def test_unresolved_pulse_exits_2(self, tmp_path, capsys, experiment):
        # the sweep and operating-point grids are only checked when a pulse
        # is sampled on them, after the configuration has parsed
        cfg = tmp_path / "coarse.ini"
        cfg.write_text("[sweep]\nbeta_values = 0.95, 1.0\nsigma_count = 2\n")
        out = tmp_path / "out"
        assert run_cli(["run", experiment, "--config", str(cfg),
                        "--grid-n", "2001", "--beta", "0.93",
                        "--out", str(out)]) == 2
        assert "grid.n_points = 2001" in capsys.readouterr().err
        assert not any(out.iterdir())


class TestCsv:
    def test_numpy_bools_written_lowercase(self, tmp_path):
        path = tmp_path / "t.csv"
        cli.write_csv(path, ["a", "b"],
                      [{"a": np.bool_(True), "b": np.bool_(False)},
                       {"a": True, "b": False}])
        assert path.read_text() == "a,b\ntrue,false\ntrue,false\n"
