import pytest

import tlsphot as tp
from tlsphot.sweeps import SweepSpec, fig1b_data, fig3_data, loss_curves


@pytest.fixture(scope="module")
def small_spec():
    return SweepSpec(beta_values=(1.0, 0.95), sigma_range=(0.05, 4.0),
                     sigma_count=40)


class TestFig1b:
    def test_lossless_rows_use_closed_form(self, small_spec):
        rows = [r for r in fig1b_data(small_spec) if r["beta"] == 1.0]
        for r in rows:
            assert r["eta"] == pytest.approx(
                tp.eta_analytic(r["sigma_over_gamma"]), abs=1e-12)
            assert r["half_eps1_sq"] == pytest.approx(0.5, abs=1e-12)

    def test_peak_location_and_height(self):
        spec = SweepSpec(beta_values=(1.0,), sigma_range=(0.05, 4.0),
                         sigma_count=200)
        rows = fig1b_data(spec)
        best = max(rows, key=lambda r: r["eta"])
        assert best["eta"] == pytest.approx(0.7196, abs=1e-3)
        assert best["sigma_over_gamma"] == pytest.approx(0.47, abs=0.03)

    def test_crossing_flags_bracket_matching_points(self, small_spec):
        rows = [r for r in fig1b_data(small_spec) if r["beta"] == 1.0]
        crossings = [r["sigma_over_gamma"] for r in rows if r["is_crossing"]]
        assert len(crossings) == 2
        lo, hi = sorted(crossings)
        assert lo < 0.163394338 < lo * (4.0 / 0.05) ** (1 / 39)
        assert hi < 1.250495888 < hi * (4.0 / 0.05) ** (1 / 39)

    def test_lossy_eta_from_numeric_overlap(self, small_spec):
        # spot-check one lossy row against a direct numeric evaluation
        rows = [r for r in fig1b_data(small_spec) if r["beta"] == 0.95]
        mid = rows[len(rows) // 2]
        p = tp.TlsParams.from_beta(0.95)
        g = tp.SpectralGrid.for_pulse_width(mid["sigma_over_gamma"])
        f = tp.make_pulse(tp.PulseShape("lorentzian",
                                        mid["sigma_over_gamma"]), g)
        assert mid["eta"] == pytest.approx(tp.eta_numeric(p, f), abs=1e-12)
        assert mid["half_eps1_sq"] == pytest.approx(
            0.5 * tp.epsilon1_analytic(p, mid["sigma_over_gamma"]) ** 2,
            abs=1e-12)

    def test_grid_size_checked(self):
        with pytest.raises(ValueError, match="odd and >= 3"):
            fig1b_data(SweepSpec(beta_values=(0.95,), sigma_count=2,
                                 n_points=4000))

    @pytest.mark.parametrize("n_points", [4000, 1])
    def test_lossless_spec_refuses_grid_size(self, n_points):
        # at beta = 1 the figures take closed forms and sample no grid
        with pytest.raises(ValueError, match="odd and >= 3"):
            fig3_data(SweepSpec(beta_values=(1.0,), n_points=n_points))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(sigma_range=(0.0, 1.0))
        with pytest.raises(ValueError):
            SweepSpec(beta_values=(1.2,))


class TestLossCurves:
    def test_lossless_losses_vanish(self):
        rows = loss_curves(SweepSpec(beta_values=(1.0,)))
        assert rows[0]["two_photon_loss"] == pytest.approx(0.0, abs=1e-9)
        assert rows[0]["two_singles_loss"] == pytest.approx(0.0, abs=1e-9)

    def test_nonlinear_loss_gap(self):
        rows = loss_curves(SweepSpec(beta_values=(0.9, 0.95)))
        for r in rows:
            # the pair loses less than two independent photons would
            assert r["two_photon_loss"] < r["two_singles_loss"]

    def test_upper_branch_loses_less(self):
        spec = SweepSpec(beta_values=(0.95,))
        upper = loss_curves(spec, branch="upper")[0]
        lower = loss_curves(spec, branch="lower")[0]
        assert upper["two_photon_loss"] < lower["two_photon_loss"]
        assert upper["two_singles_loss"] < lower["two_singles_loss"]


class TestFig3:
    def test_lossless_limit(self):
        rows = fig3_data(SweepSpec(beta_values=(1.0,)))
        assert rows[0]["bell_success"] == pytest.approx(1.0, abs=1e-9)
        assert rows[0]["cz_success"] == pytest.approx(1.0, abs=1e-9)

    def test_bell_above_cz_for_lossy(self):
        rows = fig3_data(SweepSpec(beta_values=(0.85, 0.9, 0.95)))
        for r in rows:
            assert r["bell_success"] > r["cz_success"]

    def test_deterministic(self):
        spec = SweepSpec(beta_values=(0.95,), sigma_count=10)
        assert fig3_data(spec) == fig3_data(spec)
