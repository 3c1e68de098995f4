import sys
import threading
from dataclasses import replace

import pytest

import tlsphot as tp
from tlsphot import sweeps
from tlsphot.sweeps import SweepSpec, fig1b_data, fig3_data, success_curves


@pytest.fixture(scope="module")
def small_spec():
    return SweepSpec(beta_values=(1.0, 0.95), sigma_range=(0.05, 4.0),
                     sigma_count=40)


class TestFig1b:
    def test_lossless_rows_use_closed_form(self, small_spec):
        rows = [r for r in fig1b_data(small_spec) if r["beta"] == 1.0]
        for r in rows:
            assert r["eta"] == pytest.approx(
                tp.eta_analytic(tp.TlsParams(), r["sigma_over_gamma"]),
                abs=1e-12)
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

    @pytest.mark.parametrize("betas", [(0.95, 0.9), (0.9, 1.0, 0.95)])
    def test_rows_equal_one_beta_runs(self, betas):
        # the widths-first evaluation gives each beta the rows of its own run
        spec = SweepSpec(beta_values=betas, sigma_range=(0.05, 4.0),
                         sigma_count=9)
        alone = [r for b in betas
                 for r in fig1b_data(SweepSpec(beta_values=(b,),
                                               sigma_range=(0.05, 4.0),
                                               sigma_count=9))]
        assert fig1b_data(spec) == alone

    def test_rows_equal_a_serial_kernel_loop(self):
        # widths on both sides of sigma = 0.4, where the policy grid
        # changes regime, and a lossless beta between two lossy ones
        spec = SweepSpec(beta_values=(0.95, 1.0, 0.9),
                         sigma_range=(0.05, 4.0), sigma_count=15)
        ps = [tp.TlsParams.from_beta(b) for b in spec.beta_values]
        threads = threading.active_count()
        rows = fig1b_data(spec)
        assert threading.active_count() == threads
        sigmas = spec.sigmas()
        assert sigmas[0] < 0.4 <= sigmas[-1]
        serial = [sweeps._eta_kernel(ps, s) for s in sigmas]
        assert [r["eta"] for r in rows] == [
            etas[k] for k in range(len(ps)) for etas in serial]
        assert [r["sigma_over_gamma"] for r in rows] == list(sigmas) * 3

    @pytest.mark.parametrize("failing, raised", [
        ((8,), 8), ((2, 8), 2), ((0, 5), 0), ((6, 7), 6)])
    def test_lowest_failing_width_raises(self, monkeypatch, failing, raised):
        # the serial loop's exception, whichever end of the widths failed
        spec = SweepSpec(beta_values=(0.95,), sigma_range=(0.05, 4.0),
                         sigma_count=9)
        index = {s: i for i, s in enumerate(spec.sigmas())}
        kernel = sweeps._eta_kernel

        def failing_kernel(ps, sigma):
            if index[sigma] in failing:
                raise RuntimeError(f"width {index[sigma]}")
            return kernel(ps, sigma)

        monkeypatch.setattr(sweeps, "_eta_kernel", failing_kernel)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match=f"^width {raised}$"):
            fig1b_data(spec)
        assert threading.active_count() == threads

    def test_both_ends_claim_each_index_once(self):
        # thread switches every microsecond: a cursor update lost between
        # the two ends would skip an index or run one twice
        calls = []

        def record(x):
            calls.append(x)
            return x * x

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for count in (1, 2, 3, 2000):
                calls.clear()
                items = list(range(count))
                assert sweeps._from_both_ends(record, items) == [
                    x * x for x in items]
                assert sorted(calls) == items
        finally:
            sys.setswitchinterval(interval)

    # an oversized count is refused when the spec is built, before any
    # array is allocated
    @pytest.mark.parametrize("count", [0, 1, -3,
                                       SweepSpec.MAX_SIGMA_COUNT + 1, 10**12])
    def test_sigma_count_checked(self, count):
        with pytest.raises(ValueError, match="sigma_count"):
            SweepSpec(sigma_count=count)

    def test_sigma_count_cap_accepted(self):
        top = SweepSpec.MAX_SIGMA_COUNT
        assert len(SweepSpec(sigma_count=top).sigmas()) == top

    def test_unaffordable_narrowest_width_refused(self):
        # a lossy beta samples sigma_min on its policy grid, 1.6e12 samples,
        # refused where it is sampled; the spec itself samples nothing
        spec = SweepSpec(beta_values=(1.0, 0.95), sigma_range=(1e-9, 5.0))
        with pytest.raises(tp.GridSizeError, match="width 1e-09"):
            fig1b_data(spec)

    def test_lossless_spec_samples_no_grid(self):
        # at beta = 1 every figure is closed form, at any width
        spec = SweepSpec(beta_values=(1.0,), sigma_range=(1e-9, 5.0),
                         sigma_count=3)
        assert [r["eta"] for r in fig1b_data(spec)] == [
            tp.eta_analytic(tp.TlsParams(), s) for s in spec.sigmas()]

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(sigma_range=(0.0, 1.0))
        with pytest.raises(ValueError):
            SweepSpec(beta_values=(1.2,))

    @pytest.mark.parametrize("sigma_range", [
        (float("nan"), 5.0), (0.02, float("nan")), (0.02, float("inf"))])
    def test_non_finite_sigma_range_rejected(self, sigma_range):
        with pytest.raises(ValueError, match="sigma_range"):
            SweepSpec(sigma_range=sigma_range)


class TestFig1bTable:
    def test_rows_are_the_closed_forms(self, no_sampling):
        # lossy betas on both sides of a lossless one, widths on both sides
        # of sigma = 0.4, where the policy grid changes regime
        spec = SweepSpec(beta_values=(0.95, 1.0, 0.9),
                         sigma_range=(0.05, 4.0), sigma_count=15)
        threads = threading.active_count()
        rows = sweeps.fig1b_table(spec)
        assert threading.active_count() == threads
        assert len(rows) == 45
        for r in rows:
            p = tp.TlsParams.from_beta(r["beta"])
            sigma = r["sigma_over_gamma"]
            assert r["eta"] == tp.eta_analytic(p, sigma)
            assert r["half_eps1_sq"] == 0.5 * tp.epsilon1_analytic(
                p, sigma) ** 2
        assert [r["sigma_over_gamma"] for r in rows] == list(
            spec.sigmas()) * 3
        assert [r["beta"] for r in rows] == [0.95] * 15 + [1.0] * 15 + [
            0.9] * 15

    def test_crossing_flags_bracket_matching_widths(self):
        spec = SweepSpec(beta_values=(1.0, 0.95, 0.9),
                         sigma_range=(0.05, 4.0), sigma_count=40)
        rows = sweeps.fig1b_table(spec)
        step = (4.0 / 0.05) ** (1 / 39)
        for beta in spec.beta_values:
            p = tp.TlsParams.from_beta(beta)
            crossings = [r["sigma_over_gamma"] for r in rows
                         if r["beta"] == beta and r["is_crossing"]]
            assert len(crossings) == 2
            for sigma, branch in zip(sorted(crossings), ("lower", "upper")):
                assert sigma < tp.matching_width(p, branch) < sigma * step

    def test_lossless_rows_equal_fig1b_data(self, small_spec):
        lossless = replace(small_spec, beta_values=(1.0,))
        assert sweeps.fig1b_table(lossless) == fig1b_data(lossless)

    def test_one_row_builder(self):
        # the two differ only in where eta comes from: every other column
        # is the same bits at every beta, and at beta = 1, where the kernel
        # takes the closed form too, so is every column
        spec = SweepSpec(beta_values=(0.95, 1.0, 0.9),
                         sigma_range=(0.05, 4.0), sigma_count=15)
        table, data = sweeps.fig1b_table(spec), fig1b_data(spec)
        assert len(table) == len(data) == 45
        for mine, theirs in zip(table, data):
            for key in ("beta", "sigma_over_gamma", "half_eps1_sq"):
                assert mine[key] == theirs[key]
            if mine["beta"] == 1.0:
                assert mine == theirs


class TestExactScalarPath:
    def test_figures_sample_nothing(self, no_sampling):
        spec = SweepSpec(beta_values=(1.0, 0.95, 0.6, 0.3))
        rows = success_curves(spec, "lower")
        assert [r["matched"] for r in rows] == [True, True, True, False]
        assert [r["sigma"] for r in rows[:3]] == [
            tp.matching_width(tp.TlsParams.from_beta(b), "lower")
            for b in (1.0, 0.95, 0.6)]
        assert [r["cz_success"] for r in fig3_data(spec, "lower")][:3] == [
            r["cz_success"] for r in rows[:3]]


class TestLossCurves:
    def test_lossless_losses_vanish(self):
        rows = success_curves(SweepSpec(beta_values=(1.0,)))
        assert rows[0]["two_photon_loss"] == pytest.approx(0.0, abs=1e-9)
        assert rows[0]["two_singles_loss"] == pytest.approx(0.0, abs=1e-9)

    def test_nonlinear_loss_gap(self):
        rows = success_curves(SweepSpec(beta_values=(0.9, 0.95)))
        for r in rows:
            # the pair loses less than two independent photons would
            assert r["two_photon_loss"] < r["two_singles_loss"]

    def test_upper_branch_loses_less(self):
        spec = SweepSpec(beta_values=(0.95,))
        upper = success_curves(spec, branch="upper")[0]
        lower = success_curves(spec, branch="lower")[0]
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
