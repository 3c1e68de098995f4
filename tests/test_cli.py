import json
import pathlib
import runpy
import tracemalloc

import numpy as np
import pytest

from tlsphot import cli
from tlsphot.grid import SpectralGrid
from tlsphot.pairs import FactoredPair
from tlsphot.scatter import TlsParams, matching_width

SCALAR_EXPERIMENTS = ("fig1b", "loss-curves", "fig3", "matching-points")


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

    @pytest.mark.parametrize("blocked", ["fig3.csv", "convergence.csv",
                                         "manifest.json", "plot_fig3.py"])
    def test_failed_output_write_exits_1(self, tmp_path, capsys, blocked):
        # a directory where an output file should go: one line, no traceback
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        assert run_cli(["run", "fig3", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("failed to write output: ")
        assert err.count("\n") == 1 and blocked in err

    def test_convergence_failure_exits_3(self, tmp_path):
        # a demo samples its pulse, and its headline drifts by about 1e-11
        # on the rerun grid; the scalar experiments' exact values do not
        cfg = tmp_path / "strict.ini"
        cfg.write_text("[convergence]\ntolerance = 1e-18\n")
        out = tmp_path / "conv"
        rc = run_cli(["run", "ns-demo", "--beta", "0.95", "--grid-n", "2001",
                      "--config", str(cfg), "--out", str(out)])
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
                      "--grid-n", "2001"])
        assert rc == 0
        text = (out / "sorter_demo.csv").read_text()
        assert "ancilla_one_photon_weight" in text

    def test_headline_rerun_refines_the_base_grid(self, tmp_path,
                                                  monkeypatch):
        # the lower matched width at beta 0.95 (0.1485) needs about 10800
        # samples on its policy grid; each demo reruns its headline on
        # 2 n - 1 samples of its own width's policy grid, not on the
        # default policy's refined 8001
        cfg = tmp_path / "lower.ini"
        cfg.write_text("[tls]\nbeta = 0.95\n[run]\nbranch = lower\n")
        p = TlsParams.from_beta(0.95)
        n_lower = SpectralGrid.for_pulse_width(
            matching_width(p, "lower")).n_points
        assert n_lower > 4001

        def pulse_spy(fn, counts):
            def spy(*args):
                counts.append(args[-1].grid.n_points)
                return fn(*args)
            return spy

        assert set(cli.EXPERIMENTS) == {*cli._DEMOS, *SCALAR_EXPERIMENTS}
        for name in cli._DEMOS:
            counts = []
            with monkeypatch.context() as m:
                rows, *rest = cli._DEMOS[name]
                m.setitem(cli._DEMOS, name, (pulse_spy(rows, counts), *rest))
                assert run_cli(["run", name, "--config", str(cfg),
                                "--out", str(tmp_path / name)]) == 0
            assert counts == [n_lower, 2 * n_lower - 1], name

    @pytest.mark.parametrize("experiment", SCALAR_EXPERIMENTS)
    def test_scalar_experiment_samples_nothing(self, tmp_path, no_sampling,
                                               experiment):
        # closed forms at exact matching widths: no pulse, no grid, and a
        # headline that refines to itself
        out = tmp_path / "out"
        assert run_cli(["run", experiment, "--beta", "0.95",
                        "--out", str(out)]) == 0
        lines = (out / "convergence.csv").read_text().splitlines()
        report = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert report["base_value"] == report["refined_value"]
        assert report["drift"] == "0.0"

    def test_matching_points_solves_each_root_once(self, tmp_path,
                                                   monkeypatch):
        # the headline's base value is the upper row's root, exact, so
        # there is one solve per branch and no rerun
        counts = []
        solve = cli.matching_width

        def spy(p, branch="upper"):
            counts.append(branch)
            return solve(p, branch)

        monkeypatch.setattr(cli, "matching_width", spy)
        assert run_cli(["run", "matching-points",
                        "--out", str(tmp_path / "out")]) == 0
        assert counts == ["lower", "upper"]


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
        cfg.write_text("[grid]\nn_points = 101\n[run]\nsigma = 1.0\n")
        assert run_cli(["validate", "--config", str(cfg)]) == 2
        assert "resolution" in capsys.readouterr().out

    def test_retired_window_key_reported(self, tmp_path, capsys):
        # the window follows the pulse width; only the sample count is set
        cfg = tmp_path / "window.ini"
        cfg.write_text("[grid]\ndelta_max = 50\n")
        assert run_cli(["validate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().out == (
            "unknown key 'delta_max' in section [grid]\n")

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
    def test_run_prints_every_file_fault_validate_prints(self, tmp_path,
                                                         capsys):
        cfg = tmp_path / "unknown.ini"
        cfg.write_text("[grid]\ndelta_max = 50\n[tls]\nfoo = 1\n"
                       "[plot]\ndpi = 300\n")
        assert run_cli(["validate", "--config", str(cfg)]) == 2
        validated = capsys.readouterr().out
        assert validated.count("\n") == 3
        out = tmp_path / "out"
        assert run_cli(["run", "sorter-demo", "--config", str(cfg),
                        "--out", str(out)]) == 2
        assert capsys.readouterr().err == validated
        assert not out.exists()

    def test_retired_coupling_key_exits_2(self, tmp_path, capsys):
        # rates are in units of the waveguide coupling: it is no setting
        cfg = tmp_path / "coupling.ini"
        cfg.write_text("[tls]\nbeta = 0.95\ngamma_wg = 2.0\n")
        line = "unknown key 'gamma_wg' in section [tls]\n"
        assert run_cli(["validate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().out == line
        out = tmp_path / "out"
        assert run_cli(["run", "fig1b", "--config", str(cfg),
                        "--out", str(out)]) == 2
        assert capsys.readouterr().err == line
        assert not out.exists()

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        cfg, out = tmp_path / "missing.ini", tmp_path / "out"
        assert run_cli(["run", "fig3", "--config", str(cfg),
                        "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and "Traceback" not in err
        assert not out.exists()

    def test_grid_max_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "sorter-demo", "--grid-max", "40",
                     "--out", str(tmp_path)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("text, key", [
        ("[grid]\nn_points = 1.5\n", "grid.n_points"),
        ("[run]\nsigma = abc\n", "run.sigma"),
        ("[tls]\nbeta = 1.5\n", "tls.beta"),
        ("[run]\nbranch = middle\n", "run.branch"),
        ("[convergence]\ntolerance = 0\n", "convergence.tolerance"),
    ])
    def test_run_exits_2_with_diagnostic(self, tmp_path, capsys, text, key):
        cfg = tmp_path / "typo.ini"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert run_cli(["run", "sorter-demo", "--config", str(cfg),
                        "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("flags, key", [
        # the policy grid of sigma = 1e-9 would hold 1.6e12 samples
        (["--sigma", "1e-9"], "run.sigma = 1e-09"),
        (["--grid-n", "3000001"], "grid.n_points = 3000001"),
        # the headlines rerun on 2 n - 1 = 3000001 samples
        (["--grid-n", "1500001"], "grid.n_points = 1500001"),
    ])
    def test_unaffordable_grid_flag_exits_2(self, tmp_path, capsys, flags,
                                            key):
        out = tmp_path / "out"
        assert run_cli(["run", "cz-demo", *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert key in err
        assert "above the maximum" in err
        assert not out.exists()

    def test_narrow_sweep_width_runs(self, tmp_path, capsys):
        # no scalar experiment samples a swept width, so a width whose
        # policy grid would hold 1.6e12 samples is no fault, lossy betas
        # and all
        cfg = tmp_path / "narrow.ini"
        cfg.write_text("[sweep]\nsigma_min = 1e-9\n")
        assert run_cli(["validate", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == ""
        for experiment, flags in (("fig3", []), ("loss-curves", []),
                                  ("fig1b", ["--beta", "0.95"])):
            out = tmp_path / experiment
            assert run_cli(["run", experiment, *flags, "--config", str(cfg),
                            "--out", str(out)]) == 0, experiment
            assert capsys.readouterr().err == ""

    def test_oversized_sigma_count_exits_2(self, tmp_path, capsys,
                                           monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the sweep's widths were sampled")

        monkeypatch.setattr(np, "geomspace", refuse)
        cfg = tmp_path / "count.ini"
        cfg.write_text("[sweep]\nsigma_count = 1e12\n")
        assert run_cli(["validate", "--config", str(cfg)]) == 2
        validated = capsys.readouterr().out
        assert validated.startswith("sweep.sigma_count = 1e12: ")
        out = tmp_path / "out"
        assert run_cli(["run", "fig1b", "--config", str(cfg),
                        "--out", str(out)]) == 2
        assert capsys.readouterr().err == validated
        assert not out.exists()

    @pytest.mark.parametrize("text, line", [
        # run.sigma's policy grid (1 600 001 samples) is affordable, its
        # rerun's 3 200 001 are not
        pytest.param("[run]\nsigma = 0.001\n",
                     "grid.n_points = auto, run.sigma = 0.001: the headline "
                     "rerun needs 2 n - 1 = 3200001 samples, above the "
                     "maximum of 2000001\n", id="rerun-size"),
        pytest.param("[grid]\nn_points = 101\n[run]\nsigma = 1.0\n",
                     "grid.n_points = 101, run.sigma = 1.0: grid resolution: "
                     "grid too coarse: spacing 1.6 exceeds width/10 = 0.1\n",
                     id="resolution"),
    ])
    def test_run_sigma_checked_without_sampling(self, tmp_path, capsys,
                                                monkeypatch, text, line):
        # run.sigma's grid is checked from its sizes alone
        def refuse(*args, **kwargs):
            raise AssertionError("a pulse was sampled")

        monkeypatch.setattr(cli, "make_pulse", refuse)
        monkeypatch.setattr(np, "linspace", refuse)
        cfg = tmp_path / "narrow.ini"
        cfg.write_text(text)
        assert run_cli(["validate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().out == line
        out = tmp_path / "out"
        assert run_cli(["run", "cz-demo", "--config", str(cfg),
                        "--out", str(out)]) == 2
        assert capsys.readouterr().err == line
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_sigma_flag_exits_2(self, tmp_path, capsys, value):
        out = tmp_path / "out"
        assert run_cli(["run", "sorter-demo", "--sigma", value,
                        "--out", str(out)]) == 2
        assert f"run.sigma = {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, key", [
        ("[sweep]\nsigma_min = nan\n", "sweep.sigma_min"),
        ("[sweep]\nsigma_max = inf\n", "sweep.sigma_max"),
        ("[sweep]\nsigma_count = inf\n", "sweep.sigma_count"),
        ("[run]\nsigma = nan\n", "run.sigma"),
    ])
    def test_non_finite_value_exits_2(self, tmp_path, capsys, text, key):
        cfg = tmp_path / "nonfinite.ini"
        cfg.write_text(text)
        assert run_cli(["validate", "--config", str(cfg)]) == 2
        validated = capsys.readouterr().out
        assert key in validated
        out = tmp_path / "out"
        assert run_cli(["run", "fig1b", "--config", str(cfg),
                        "--out", str(out)]) == 2
        assert capsys.readouterr().err == validated
        assert not out.exists()

    @pytest.mark.parametrize("count", ["0", "1", "-3"])
    def test_sigma_count_below_two_exits_2(self, tmp_path, capsys, count):
        # SweepSpec refuses the count, and the diagnostic names the key
        cfg = tmp_path / "count.ini"
        cfg.write_text(f"[sweep]\nsigma_count = {count}\n")
        assert run_cli(["validate", "--config", str(cfg)]) == 2
        assert f"sweep.sigma_count = {count}" in capsys.readouterr().out
        out = tmp_path / "out"
        assert run_cli(["run", "fig1b", "--config", str(cfg),
                        "--out", str(out)]) == 2
        assert "sweep.sigma_count" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, flags, line", [
        # run.sigma's grid is checked from its sizes when the configuration
        # parses: 2001 samples over the policy window of 80 give a spacing
        # of 0.08, above a tenth of 0.05
        pytest.param("", ["--sigma", "0.05"],
                     "grid.n_points = 2001, run.sigma = 0.05: grid "
                     "resolution: grid too coarse", id="run-sigma"),
        # the matched width (0.1485, lower, beta 0.95) only when its pulse
        # is sampled
        pytest.param("[run]\nbranch = lower\n", ["--beta", "0.95"],
                     "grid.n_points = 2001: grid too coarse",
                     id="matched-width"),
    ])
    def test_unresolved_pulse_exits_2(self, tmp_path, capsys, text, flags,
                                      line):
        cfg = tmp_path / "demo.ini"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert run_cli(["run", "sorter-demo", "--config", str(cfg), *flags,
                        "--grid-n", "2001", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(line)
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("experiment, flags", [
        pytest.param("fig1b", ["--grid-n", "2001", "--beta", "0.93"],
                     id="fig1b"),
        pytest.param("matching-points", ["--grid-n", "2001", "--beta", "0.93"],
                     id="matching-points"),
        # 4001 samples do not resolve the sweep's narrowest width, 0.02,
        # which fig1b no longer samples
        pytest.param("fig1b", ["--grid-n", "4001"], id="fig1b-sweep-width"),
    ])
    def test_scalar_run_ignores_grid_n(self, tmp_path, experiment, flags):
        # the scalar experiments sample no pulse: a grid size, resolving or
        # not, leaves every output but the manifest's config echo alone
        cfg = tmp_path / "coarse.ini"
        cfg.write_text("[sweep]\nbeta_values = 0.95, 1.0\nsigma_count = 2\n")
        base, sized = tmp_path / "base", tmp_path / "sized"
        assert run_cli(["run", experiment, "--config", str(cfg), *flags[2:],
                        "--out", str(base)]) == 0
        assert run_cli(["run", experiment, "--config", str(cfg), *flags,
                        "--out", str(sized)]) == 0
        names = sorted(f.name for f in base.iterdir())
        assert names == sorted(f.name for f in sized.iterdir())
        for name in names:
            if name != "manifest.json":
                assert (base / name).read_bytes() == (
                    sized / name).read_bytes(), name

    def test_validate_and_run_accept_4001_samples(self, tmp_path, capsys):
        # the grid validate accepts, run fig1b runs: by construction, since
        # fig1b samples nothing
        cfg = tmp_path / "grid.ini"
        cfg.write_text("[grid]\nn_points = 4001\n")
        assert run_cli(["validate", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == ""
        base, sized = tmp_path / "base", tmp_path / "sized"
        assert run_cli(["run", "fig1b", "--out", str(base)]) == 0
        assert run_cli(["run", "fig1b", "--config", str(cfg),
                        "--out", str(sized)]) == 0
        for name in ("fig1b.csv", "convergence.csv", "plot_fig1b.py"):
            assert (base / name).read_bytes() == (sized / name).read_bytes()

    def test_no_crossing_exits_2(self, tmp_path, capsys):
        # neither branch crosses at beta 0.3: the rows record it, and the
        # upper-branch headline cannot be solved
        out = tmp_path / "out"
        assert run_cli(["run", "matching-points", "--beta", "0.3",
                        "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "tls.beta = 0.3" in err and "upper" in err
        assert not any(out.iterdir())

    @pytest.mark.parametrize("experiment, sigma", [("ns-demo", "1.5"),
                                                   ("cz-demo", "3")])
    def test_uncompensable_sign_gate_exits_2(self, tmp_path, capsys,
                                             experiment, sigma):
        # off its matching width a lossy sign gate would need a pair
        # transmission outside (0, 1]; refused when the gate is built
        out = tmp_path / "out"
        assert run_cli(["run", experiment, "--beta", "0.95", "--sigma", sigma,
                        "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"run.sigma = {float(sigma)}, tls.beta = 0.95: " in err
        assert "eta2 in (0, 1]" in err
        assert not any(out.iterdir())


class TestCsv:
    def test_numpy_bools_written_lowercase(self, tmp_path):
        path = tmp_path / "t.csv"
        cli.write_csv(path, ["a", "b"],
                      [{"a": np.bool_(True), "b": np.bool_(False)},
                       {"a": True, "b": False}])
        assert path.read_text() == "a,b\ntrue,false\ntrue,false\n"


DEMOS = sorted(
    (pathlib.Path(__file__).parent.parent / "demos").glob("demo_*.py"))


class TestNoDensePairs:
    """No experiment or demo asks a pair for its N x N array, or allocates
    one: every pair they build and every op they run stays factored."""

    # one complex N x N array on the smallest grid these runs sample: the
    # demos' --grid-n 2001 (every policy grid holds 4001 samples or more)
    DENSE_BYTES = 16 * 2001**2

    @pytest.fixture(autouse=True)
    def refuse_dense(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a pair was densified")

        monkeypatch.setattr(FactoredPair, "dense", refuse)
        # numpy reports its array buffers to tracemalloc
        tracemalloc.start()
        yield
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < self.DENSE_BYTES, (
            f"traced peak {peak / 2**20:.1f} MiB reaches one N x N array")

    @pytest.mark.parametrize("experiment", cli.EXPERIMENTS)
    def test_cli_experiment(self, tmp_path, experiment):
        cfg = tmp_path / "small.ini"
        cfg.write_text("[sweep]\nbeta_values = 1.0, 0.95\nsigma_min = 0.1\n"
                       "sigma_max = 2.0\nsigma_count = 6\n")
        args = ["run", experiment, "--config", str(cfg),
                "--out", str(tmp_path / "out")]
        if experiment.endswith("-demo"):
            args += ["--grid-n", "2001"]
        assert run_cli(args) == 0

    def test_refusal_is_seen(self):
        with pytest.raises(AssertionError, match="densified"):
            np.asarray(FactoredPair.product(np.ones(3)))
        # an N x N array reaches the traced peak the fixture bounds
        dense = np.empty((2001, 2001), dtype=complex)
        assert tracemalloc.get_traced_memory()[1] >= self.DENSE_BYTES
        del dense
        tracemalloc.reset_peak()

    @pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
    def test_demo_script(self, demo, capsys):
        runpy.run_path(str(demo), run_name="__main__")
        assert capsys.readouterr().out
