import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dense_oracle as oracle
import tlsphot as tp
from tlsphot import scatter
from tlsphot.grid import gaussian_values, lorentzian_values, policy_size
from tlsphot.pairs import FactoredPair, inner, norm_sq
from tlsphot.roots import NoCrossingError, golden_max


@pytest.fixture(scope="module")
def lossless():
    return tp.TlsParams()


@pytest.fixture(scope="module")
def grid():
    return tp.SpectralGrid(80.0, 3201)


def lorentzian(grid, sigma, center=0.0):
    return tp.make_pulse(tp.PulseShape("lorentzian", sigma, center), grid)


def pair_of(f):
    """Two photons in the mode of ``f``."""
    return FactoredPair.product(f.values)


class TestTransferCoeff:
    def test_resonant_pi_phase(self, lossless):
        assert tp.transfer_coeff(lossless, 0.0) == pytest.approx(-1.0)

    def test_far_detuned_transparent(self, lossless):
        for d in (1e6, -1e6):
            assert tp.transfer_coeff(lossless, d) == pytest.approx(1.0,
                                                                   abs=1e-5)

    def test_unit_modulus_when_lossless(self, lossless, grid):
        t = tp.transfer_coeff(lossless, grid.samples)
        assert np.max(np.abs(np.abs(t) - 1.0)) < 1e-14

    def test_s_at_resonance(self, lossless):
        assert tp.s_coeff(lossless, 0.0) == pytest.approx(-2.0j)

    def test_s_vanishes_far_detuned(self, lossless):
        assert abs(tp.s_coeff(lossless, 1e6)) < 1e-5

    def test_s_definition_identity(self, lossless, grid):
        d = grid.samples
        lhs = 1.0 - tp.transfer_coeff(lossless, d)
        rhs = 1j * tp.s_coeff(lossless, d)
        assert np.max(np.abs(lhs - rhs)) < 1e-14

    def test_params_validation(self):
        # Gamma is the unit, not a parameter
        with pytest.raises(TypeError):
            tp.TlsParams(gamma_wg=2.0)
        with pytest.raises(ValueError):
            tp.TlsParams(gamma_loss=-0.1)
        with pytest.raises(ValueError):
            tp.TlsParams.from_beta(1.2)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_params_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            tp.TlsParams(gamma_loss=value)
        p = tp.TlsParams.from_beta(0.95)
        for figure in (lambda s: tp.eta_analytic(p, s),
                       lambda s: tp.epsilon1_analytic(p, s),
                       lambda s: tp.epsilon_b_analytic(p, s)):
            with pytest.raises(ValueError, match="finite"):
                figure(value)

    def test_beta_roundtrip(self):
        p = tp.TlsParams.from_beta(0.9)
        assert p.beta_dir == pytest.approx(0.9, abs=1e-15)

    # The grid's Fourier convention, psi(t) ~ integral f(delta)
    # exp(-i delta t), makes a phase slope d arg t / d delta a delay.  A
    # causal emitter delays on resonance by 4 / (1 - gamma^2); t conjugated,
    # its mirror t(-delta) on real delta, would advance the photon as much.
    @pytest.mark.parametrize("beta, delay", [(1.0, 4.0), (0.95, 4.0111),
                                             (0.6, 7.2)])
    def test_group_delay_on_resonance(self, beta, delay):
        p = tp.TlsParams.from_beta(beta)
        d = 1e-5
        slope = np.angle(tp.transfer_coeff(p, d)
                         / tp.transfer_coeff(p, -d)) / (2.0 * d)
        assert slope == pytest.approx(4.0 / (1.0 - p.gamma_loss**2),
                                      rel=1e-8)
        assert slope == pytest.approx(delay, abs=1e-4)


class TestScatterOne:
    def test_lossless_survival(self, lossless, grid):
        res = tp.scatter_one(lossless, lorentzian(grid, 0.8))
        assert res.epsilon1 == pytest.approx(1.0, abs=1e-10)
        assert res.lost == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("gamma,sigma", [(0.1, 0.5), (0.3, 1.0),
                                             (0.5, 2.0), (0.05, 0.2)])
    def test_matches_closed_form(self, gamma, sigma):
        p = tp.TlsParams(gamma_loss=gamma)
        g = tp.SpectralGrid.for_pulse_width(sigma)
        res = tp.scatter_one(p, tp.make_pulse(
            tp.PulseShape("lorentzian", sigma), g))
        assert res.epsilon1 == pytest.approx(
            tp.epsilon1_analytic(p, sigma), abs=1e-6)

    @pytest.mark.parametrize("beta", [1.0, 0.95, 0.6])
    @pytest.mark.parametrize("sigma", [0.5, 1.0])
    def test_scattered_photon_arrives_later(self, beta, sigma):
        # psi at the times 2 pi m / (n h) is one FFT of the samples, up to a
        # phase at each time; the centroid of |psi|^2 moves by the group
        # delay arg t' = a / (d^2 + a^2) + b / (d^2 + b^2), a = (1 - gamma)
        # / 2, b = (1 + gamma) / 2, averaged over the output spectrum
        p = tp.TlsParams.from_beta(beta)
        g = tp.SpectralGrid.for_pulse_width(sigma)
        f = lorentzian(g, sigma)
        out = tp.scatter_one(p, f).out.values
        times = 2.0 * np.pi * np.fft.fftfreq(g.n_points, g.spacing)

        def centroid(values):
            prob = np.abs(np.fft.fft(values)) ** 2
            return np.sum(times * prob) / np.sum(prob)

        d_sq = g.samples ** 2
        a, b = (1.0 - p.gamma_loss) / 2.0, (1.0 + p.gamma_loss) / 2.0
        delay = a / (d_sq + a * a) + b / (d_sq + b * b)
        spectrum = g.weights * np.abs(out) ** 2
        expected = np.sum(spectrum * delay) / np.sum(spectrum)
        assert expected > 1.0
        assert centroid(f.values) == pytest.approx(0.0, abs=1e-12)
        assert centroid(out) == pytest.approx(expected, abs=1e-7)

    def test_narrowband_limit_is_resonant_transmission(self):
        p = tp.TlsParams(gamma_loss=0.2)
        # sigma -> 0 of the closed form equals |t(0)|^2
        t0 = abs(tp.transfer_coeff(p, 0.0)) ** 2
        assert tp.epsilon1_analytic(p, 1e-7) == pytest.approx(t0, abs=1e-5)


class TestScatterTwo:
    def test_lossless_norm_conserved(self, lossless, grid):
        out = tp.scatter_two(lossless, grid, pair_of(lorentzian(grid, 0.7)))
        assert norm_sq(out, grid.weights) == pytest.approx(1.0, abs=5e-4)

    def test_output_symmetric(self, lossless, grid):
        out = tp.scatter_two(lossless, grid, pair_of(lorentzian(grid, 0.7)))
        values = out.dense()
        assert np.max(np.abs(values - values.T)) < 1e-12

    def test_asymmetric_input_rejected(self, lossless, grid):
        ones = np.ones(grid.n_points, dtype=complex)
        pair = FactoredPair([(1.0, ones, grid.samples.astype(complex), None)])
        assert not pair.symmetric
        with pytest.raises(ValueError, match="symmetric"):
            tp.scatter_two(lossless, grid, pair)

    def test_overlap_with_product_image_is_one_minus_two_eta(self, lossless):
        # sigma = 1/2: eta = 92/128, so the overlap must be 1 - 2 eta = -0.4375
        g = tp.SpectralGrid(40.0, 2001)
        f = lorentzian(g, 0.5)
        out = tp.scatter_two(lossless, g, pair_of(f))
        prod = FactoredPair.product(tp.scatter_one(lossless, f).out.values)
        # product image has unit norm at gamma=0
        ov = inner(prod, out, g.weights)
        assert ov.real == pytest.approx(1 - 2 * 0.71875, abs=1e-3)
        assert abs(ov.imag) < 1e-8

    def test_far_detuned_passthrough(self, lossless):
        g = tp.SpectralGrid(60.0, 3001)
        f = lorentzian(g, 0.5, center=50.0)
        psi = pair_of(f)
        out = tp.scatter_two(lossless, g, psi)
        ov = abs(inner(psi, out, g.weights))
        assert ov >= 0.999


class TestEta:
    def test_analytic_at_half(self, lossless):
        assert tp.eta_analytic(lossless, 0.5) == pytest.approx(92.0 / 128.0, abs=1e-15)

    def test_analytic_small_width_slope(self, lossless):
        # leading order of the closed form: 12 G^4 s / (3 G^5) = 4 s / G
        for s in (1e-4, 1e-5):
            assert tp.eta_analytic(lossless, s) == pytest.approx(
                4 * s, rel=1e-2)

    def test_analytic_limits_vanish(self, lossless):
        assert tp.eta_analytic(lossless, 1e-9) < 1e-7
        assert tp.eta_analytic(lossless, 1e9) < 1e-7

    def test_analytic_lossless_limit(self, lossless):
        # at G = 1 the closed form reduces to the lossless expression
        for s in np.geomspace(1e-4, 1e4, 200):
            lossless_form = (4 * s * (3 + 38 * s + 96 * s**2)
                             / ((1 + 2 * s) ** 3 * (3 + 2 * s) * (1 + 6 * s)))
            assert abs(tp.eta_analytic(lossless, s) - lossless_form) < 1e-15

    @pytest.mark.parametrize("beta", [0.95, 0.8, 0.5])
    @pytest.mark.parametrize("sigma", [0.3, 1.2143, 3.0])
    def test_analytic_matches_window_extrapolated_numeric(self, beta, sigma):
        # the policy grid's window error falls as W^-3: doubling the window
        # at the same spacing and extrapolating, (8 q(2W) - q(W)) / 7,
        # leaves a residue far below the policy grid's own 7e-7
        p = tp.TlsParams.from_beta(beta)
        delta_max, n = policy_size(sigma)
        q = [tp.eta_numeric(p, lorentzian(tp.SpectralGrid(k * delta_max,
                                                          k * (n - 1) + 1),
                                          sigma))
             for k in (1, 2)]
        assert abs((8 * q[1] - q[0]) / 7
                   - tp.eta_analytic(p, sigma)) < 1e-9

    def test_numeric_matches_analytic(self, lossless):
        for sigma in (0.05, 0.2, 0.5, 1.0, 3.0, 5.0):
            g = tp.SpectralGrid.for_pulse_width(sigma)
            f = tp.make_pulse(tp.PulseShape("lorentzian", sigma), g)
            assert tp.eta_numeric(lossless, f) == pytest.approx(
                tp.eta_analytic(lossless, sigma), abs=1e-4)

    def test_fast_path_equals_dense_inner2(self, lossless):
        g = tp.SpectralGrid(40.0, 1001)
        f = lorentzian(g, 0.9)
        fast = tp.eta_numeric(lossless, f)
        dense = oracle.eta(lossless, f)
        assert fast == pytest.approx(dense, rel=1e-12)

    @pytest.mark.parametrize("beta", [0.8, 1.0])
    @pytest.mark.parametrize("shape", [lorentzian_values, gaussian_values])
    def test_fourier_space_eta_equals_dense_quadrature(self, beta, shape):
        # the oracle's N x N <(t f) x (t f) | bound> on a small grid; the
        # pulse is sampled directly, as make_pulse wants a finer grid
        g = tp.SpectralGrid(10.0, 201)
        f = tp.normalize(tp.OnePhotonAmp(g, shape(g, 1.0)))
        p = tp.TlsParams.from_beta(beta)
        assert tp.eta_numeric(p, f) == pytest.approx(oracle.eta(p, f),
                                                     rel=1e-12)

    @pytest.mark.parametrize("beta", [0.8, 0.9, 0.99])
    def test_half_grid_kernel_equals_eta_numeric(self, beta):
        # eta_numeric is the pair algebra's inner product (pairs.convolve),
        # which shares no FFT code with the kernel.  Widths on both sides of
        # the policy's two regimes: n grows below sigma = 0.4 (spacing
        # bound), the window above 1 (80 widths)
        p = tp.TlsParams.from_beta(beta)
        for sigma in (0.01, 0.037, 0.13, 0.39, 0.41, 1.0, 2.7, 30.0):
            g = tp.SpectralGrid.for_pulse_width(sigma)
            assert scatter._eta_kernel((p,), sigma)[0] == pytest.approx(
                tp.eta_numeric(p, lorentzian(g, sigma)), abs=1e-13), sigma

    def test_maximum_below_bound(self, lossless):
        x, val = golden_max(lambda s: tp.eta_analytic(lossless, s), 0.05,
                            5.0, xtol=1e-12)
        assert val < 0.75
        assert val == pytest.approx(0.7196, abs=1e-3)
        assert x == pytest.approx(0.47, abs=0.01)

    def test_domain_errors(self, lossless):
        with pytest.raises(ValueError):
            tp.eta_analytic(lossless, -1.0)
        with pytest.raises(ValueError):
            tp.epsilon_b_analytic(tp.TlsParams(), 0.0)


def _refuse(*args):
    raise AssertionError("sampled a grid")


@settings(max_examples=100, deadline=None)
@given(beta=st.floats(0.5, 0.999), sigma=st.floats(0.05, 5.0))
@example(beta=0.8, sigma=0.05)  # the narrowest width, the largest grid
def test_kernel_is_eta_numeric_where_make_pulse_samples(beta, sigma):
    # the one home of eta at a width: a lossy emitter's eta is eta_numeric
    # of make_pulse's pulse on the policy grid; a lossless one's is the
    # closed form, unsampled
    p = tp.TlsParams.from_beta(beta)
    f = tp.make_pulse(tp.PulseShape("lorentzian", sigma),
                      tp.SpectralGrid.for_pulse_width(sigma))
    assert scatter._eta_kernel((p,), sigma)[0] == (
        pytest.approx(tp.eta_numeric(p, f), abs=1e-13))
    lossless = tp.TlsParams()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(scatter, "resolved_size", _refuse)
        assert scatter._eta_kernel((lossless, lossless), sigma) == (
            [tp.eta_analytic(lossless, sigma)] * 2)


class TestGaussianPulses:
    # no closed form exists for Gaussians; the numeric path covers them

    def test_matching_value_achievable(self, lossless):
        etas = {}
        for sigma in (0.8, 1.0):
            g = tp.SpectralGrid.for_pulse_width(sigma)
            f = tp.make_pulse(tp.PulseShape("gaussian", sigma), g)
            etas[sigma] = tp.eta_numeric(lossless, f)
        assert etas[0.8] > 0.5 > etas[1.0]

    def test_family_peak_observed_below_bound(self, lossless):
        peak = 0.0
        for sigma in (0.2, 0.3, 0.4, 0.5, 0.7):
            g = tp.SpectralGrid.for_pulse_width(sigma)
            f = tp.make_pulse(tp.PulseShape("gaussian", sigma), g)
            peak = max(peak, tp.eta_numeric(lossless, f))
        # observed for this family; no universal bound is claimed
        assert 0.5 < peak < 0.75


class TestEpsilonB:
    def test_identity_with_eta_when_lossless(self, lossless):
        for sigma in (0.05, 0.16, 0.5, 1.25, 4.0):
            assert abs(tp.epsilon_b_analytic(lossless, sigma)
                       - 4 * tp.eta_analytic(lossless, sigma)) < 1e-12

    def test_lossless_matched_value_is_two(self, lossless):
        sigma = tp.matching_sigma(lossless, "upper")
        assert tp.epsilon_b_analytic(lossless, sigma) == pytest.approx(
            2.0, abs=1e-9)

    def test_numeric_inner2_matches_closed_form(self):
        p = tp.TlsParams(gamma_loss=0.05)
        g = tp.SpectralGrid.for_pulse_width(0.2)
        f = tp.make_pulse(tp.PulseShape("lorentzian", 0.2), g)
        num = tp.epsilon_b_numeric(p, f)
        assert num == pytest.approx(tp.epsilon_b_analytic(p, 0.2), abs=1e-4)

    def test_numeric_equals_dense_bound_norm(self, lossless):
        g = tp.SpectralGrid(40.0, 1001)
        f = lorentzian(g, 0.9)
        bound = oracle.bound_amplitude(lossless, f)
        dense = oracle.inner2(g.weights, bound, bound).real
        assert tp.epsilon_b_numeric(lossless, f) == pytest.approx(
            dense, rel=1e-12)


class TestDecompose:
    def test_matched_point_fully_orthogonal(self, lossless):
        sigma = tp.matching_sigma(lossless, "upper")
        g = tp.SpectralGrid.for_pulse_width(sigma, n_points=2001)
        res = tp.decompose(lossless, tp.make_pulse(
            tp.PulseShape("lorentzian", sigma), g))
        assert abs(res.coeff_along) < 1e-4
        assert res.coeff_orth == pytest.approx(1.0, abs=1e-3)

    def test_half_width_coefficients(self, lossless):
        g = tp.SpectralGrid(40.0, 2001)
        res = tp.decompose(lossless, lorentzian(g, 0.5))
        eta = 0.71875
        assert res.coeff_along.real == pytest.approx(1 - 2 * eta, abs=1e-3)
        assert res.coeff_orth == pytest.approx(
            2 * np.sqrt(eta * (1 - eta)), abs=1e-3)

    def test_bound_overlap_real_negative(self, lossless):
        g = tp.SpectralGrid(40.0, 2001)
        res = tp.decompose(lossless, lorentzian(g, 0.5))
        assert res.bound_overlap.real < 0
        assert res.phase_residual < 1e-6

    def test_lossless_unitarity_budget(self, lossless):
        g = tp.SpectralGrid.for_pulse_width(0.8, n_points=2001)
        res = tp.decompose(lossless, lorentzian(g, 0.8))
        total = abs(res.coeff_along) ** 2 + res.coeff_orth**2
        assert total == pytest.approx(1.0, abs=5e-4)

    def test_lossy_matches_loss_resolved_form(self):
        p = tp.TlsParams.from_beta(0.95)
        sigma = 1.0
        g = tp.SpectralGrid.for_pulse_width(sigma, n_points=2001)
        f = lorentzian(g, sigma)
        res = tp.decompose(p, f)
        eps1 = tp.epsilon1_analytic(p, sigma)
        eta = tp.eta_numeric(p, f)
        eps_b = tp.epsilon_b_analytic(p, sigma)
        assert res.coeff_along.real == pytest.approx(
            eps1 * (1 - 2 * eta / eps1**2), abs=1e-3)
        assert res.coeff_orth == pytest.approx(
            np.sqrt(eps_b - 4 * eta**2 / eps1**2), abs=1e-3)
        assert res.lost == pytest.approx(
            1 - eps1**2 + 4 * eta - eps_b, abs=1e-3)


class TestMatchingSigma:
    def test_lossless_roots(self, lossless):
        lo = tp.matching_sigma(lossless, "lower")
        hi = tp.matching_sigma(lossless, "upper")
        assert lo == pytest.approx(0.163394338, abs=1e-6)
        assert hi == pytest.approx(1.250495888, abs=1e-6)

    def test_root_residual(self, lossless):
        for branch in ("lower", "upper"):
            s = tp.matching_sigma(lossless, branch)
            assert abs(tp.eta_analytic(lossless, s) - 0.5) < 1e-10

    def test_lossy_root_satisfies_condition(self):
        p = tp.TlsParams.from_beta(0.95)
        s = tp.matching_sigma(p, "upper")
        g = tp.SpectralGrid.for_pulse_width(s)
        f = tp.make_pulse(tp.PulseShape("lorentzian", s), g)
        eta = tp.eta_numeric(p, f)
        assert eta == pytest.approx(
            0.5 * tp.epsilon1_analytic(p, s) ** 2, abs=1e-8)

    def test_lower_root_near_half_beta(self):
        # the lower root falls towards sigma = 0 as beta falls to 0.5; at
        # 0.55 it lies below the numeric search's former 0.01 floor
        p = tp.TlsParams.from_beta(0.55)
        s = tp.matching_sigma(p, "lower")
        assert s == pytest.approx(0.0075594928, abs=1e-8)
        f = lorentzian(tp.SpectralGrid.for_pulse_width(s), s)
        assert abs(tp.eta_numeric(p, f)
                   - 0.5 * tp.epsilon1_analytic(p, s) ** 2) < 1e-10

    @pytest.mark.parametrize("beta, root", [(0.52, "0.00142422"),
                                            (0.5, "below sigma = 1e-06")])
    def test_root_below_width_floor_raises(self, beta, root):
        # the numeric grid below the floor is refused; the message names the
        # closed-form root and the floor
        p = tp.TlsParams.from_beta(beta)
        with pytest.raises(NoCrossingError, match="floor 0.005") as info:
            tp.matching_sigma(p, "lower")
        assert root in str(info.value)
        assert info.value.branch == "lower"
        assert tp.matching_sigma(p, "upper") > 0.5

    def test_no_crossing_raises(self):
        # strong loss pushes eps_1^2/2 above the whole eta curve
        p = tp.TlsParams(gamma_loss=3.0)
        with pytest.raises(NoCrossingError):
            tp.matching_sigma(p, "upper")

    def test_bad_branch_rejected(self, lossless):
        with pytest.raises(ValueError):
            tp.matching_sigma(lossless, "middle")


def _closed_mismatch(p, sigma):
    return (tp.eta_analytic(p, sigma)
            - 0.5 * tp.epsilon1_analytic(p, sigma) ** 2)


class TestMatchingWidth:
    @settings(max_examples=40, deadline=None)
    @given(beta=st.floats(0.55, 1.0))
    @example(beta=0.55)
    @example(beta=0.9995)  # the lower roots differ most near beta 1
    @example(beta=1.0)
    def test_roots_are_exact(self, beta):
        p = tp.TlsParams.from_beta(beta)
        lower = tp.matching_width(p, "lower")
        upper = tp.matching_width(p, "upper")
        assert 0.0 < lower < upper
        for sigma, rises in ((lower, True), (upper, False)):
            # the closed forms' own rounding is the floor: eps_1 = 1 - x
            # cancels, so relative to eps_1^2 / 2 it reaches 4e-14 at beta
            # 0.55; 1e-15 absolute is a few ulp of eta at beta 1
            assert abs(_closed_mismatch(p, sigma)) <= 1e-15
            # and a sign change 1e-12 either side, which no width off the
            # root by more than that leaves
            below = _closed_mismatch(p, sigma * (1.0 - 1e-12))
            above = _closed_mismatch(p, sigma * (1.0 + 1e-12))
            assert (below < 0.0 < above) if rises else (below > 0.0 > above)
        # the numeric polish of matching_sigma lands within its quadrature
        # error of the exact roots; lossless, both solve the closed form
        numeric_upper = tp.matching_sigma(p, "upper")
        numeric_lower = tp.matching_sigma(p, "lower")
        if beta == 1.0:
            assert abs(upper - numeric_upper) <= 8 * np.spacing(upper)
            assert abs(lower - numeric_lower) <= 8 * np.spacing(lower)
        else:
            assert upper == pytest.approx(numeric_upper, rel=3e-6, abs=0.0)
            assert lower == pytest.approx(numeric_lower, rel=0.0, abs=2e-9)

    def test_lossless_roots(self, lossless):
        assert tp.matching_width(lossless, "lower") == pytest.approx(
            0.163394338, abs=1e-9)
        assert tp.matching_width(lossless, "upper") == pytest.approx(
            1.250495888, abs=1e-9)

    def test_lower_root_at_half_beta(self):
        # the lower root is a double root at sigma = 0 at beta 0.5, and
        # positive on both sides of it; the upper root stays
        half = tp.TlsParams.from_beta(0.5)
        with pytest.raises(NoCrossingError, match="no positive lower root"
                           ) as info:
            tp.matching_width(half, "lower")
        assert info.value.branch == "lower"
        assert tp.matching_width(half, "upper") > 0.5
        for beta in (0.45, 0.52):
            p = tp.TlsParams.from_beta(beta)
            lower = tp.matching_width(p, "lower")
            assert 0.0 < lower < 0.02
            assert abs(_closed_mismatch(p, lower)) <= 1e-15

    @pytest.mark.parametrize("branch", ["lower", "upper"])
    @pytest.mark.parametrize("gamma", [1.0 / 0.3 - 1.0, 1e40, 1e300])
    def test_no_crossing_raises(self, branch, gamma):
        # the roots meet near beta 0.3855 and vanish below it, also where
        # the sextic's coefficients overflow a float
        with pytest.raises(NoCrossingError, match="unreachable") as info:
            tp.matching_width(tp.TlsParams(gamma_loss=gamma), branch)
        assert info.value.branch == branch

    def test_samples_nothing(self, monkeypatch):
        # a root whose policy grid is too large is still returned
        monkeypatch.setattr(scatter, "resolved_size", _refuse)
        monkeypatch.setattr(np, "linspace", _refuse)
        sigma = tp.matching_width(tp.TlsParams.from_beta(0.5001), "lower")
        with pytest.raises(tp.GridSizeError):
            policy_size(sigma)

    def test_bad_branch_rejected(self, lossless):
        with pytest.raises(ValueError, match="branch"):
            tp.matching_width(lossless, "middle")
