import numpy as np
import pytest

import dense_oracle as oracle
import tlsphot as tp
from tlsphot import scatter
from tlsphot.grid import gaussian_values, lorentzian_values
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
        rhs = 1j * np.sqrt(lossless.gamma_wg) * tp.s_coeff(lossless, d)
        assert np.max(np.abs(lhs - rhs)) < 1e-14

    def test_params_validation(self):
        with pytest.raises(ValueError):
            tp.TlsParams(gamma_wg=0.0)
        with pytest.raises(ValueError):
            tp.TlsParams(gamma_loss=-0.1)
        with pytest.raises(ValueError):
            tp.TlsParams.from_beta(1.2)

    def test_beta_roundtrip(self):
        p = tp.TlsParams.from_beta(0.9)
        assert p.beta_dir == pytest.approx(0.9, abs=1e-15)


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
        prod = tp.product_image(lossless, f)
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
    def test_analytic_at_half(self):
        assert tp.eta_analytic(0.5) == pytest.approx(92.0 / 128.0, abs=1e-15)

    def test_analytic_small_width_slope(self):
        # leading order of the closed form: 12 G^4 s / (3 G^5) = 4 s / G
        for s in (1e-4, 1e-5):
            assert tp.eta_analytic(s) == pytest.approx(4 * s, rel=1e-2)

    def test_analytic_limits_vanish(self):
        assert tp.eta_analytic(1e-9) < 1e-7
        assert tp.eta_analytic(1e9) < 1e-7

    def test_numeric_matches_analytic(self, lossless):
        for sigma in (0.05, 0.2, 0.5, 1.0, 3.0, 5.0):
            g = tp.SpectralGrid.for_pulse_width(sigma)
            f = tp.make_pulse(tp.PulseShape("lorentzian", sigma), g)
            assert tp.eta_numeric(lossless, f) == pytest.approx(
                tp.eta_analytic(sigma), abs=1e-4)

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
        if beta < 1.0 and shape is lorentzian_values:
            # the scalar path's half-grid kernel, on the Lorentzian's policy
            # grid at this sample count (lossless it is the closed form)
            g = tp.SpectralGrid.for_pulse_width(1.0, n_points=201)
            f = tp.normalize(tp.OnePhotonAmp(g, shape(g, 1.0)))
            assert scatter._eta_of_sigma(p, 1.0, 201) == pytest.approx(
                oracle.eta(p, f), rel=1e-12)

    @pytest.mark.parametrize("beta", [0.8, 0.9, 0.99])
    def test_half_grid_kernel_equals_eta_numeric(self, beta):
        # eta_numeric is the pair algebra's inner product (pairs.convolve),
        # which shares no FFT code with the kernel.  Widths on both sides of
        # the policy's two regimes: n grows below sigma = 0.4 (spacing
        # bound), the window above 1 (80 widths)
        p = tp.TlsParams.from_beta(beta)
        for sigma in (0.01, 0.037, 0.13, 0.39, 0.41, 1.0, 2.7, 30.0):
            g = tp.SpectralGrid.for_pulse_width(sigma)
            assert scatter._eta_of_sigma(p, sigma) == pytest.approx(
                tp.eta_numeric(p, lorentzian(g, sigma)), abs=1e-13), sigma

    def test_maximum_below_bound(self):
        x, val = golden_max(tp.eta_analytic, 0.05, 5.0, xtol=1e-12)
        assert val < 0.75
        assert val == pytest.approx(0.7196, abs=1e-3)
        assert x == pytest.approx(0.47, abs=0.01)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            tp.eta_analytic(-1.0)
        with pytest.raises(ValueError):
            tp.epsilon_b_analytic(tp.TlsParams(), 0.0)


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
                       - 4 * tp.eta_analytic(sigma)) < 1e-12

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
            assert abs(tp.eta_analytic(s) - 0.5) < 1e-10

    def test_lossy_root_satisfies_condition(self):
        p = tp.TlsParams.from_beta(0.95)
        s = tp.matching_sigma(p, "upper")
        g = tp.SpectralGrid.for_pulse_width(s)
        f = tp.make_pulse(tp.PulseShape("lorentzian", s), g)
        eta = tp.eta_numeric(p, f)
        assert eta == pytest.approx(
            0.5 * tp.epsilon1_analytic(p, s) ** 2, abs=1e-8)

    def test_no_crossing_raises(self):
        # strong loss pushes eps_1^2/2 above the whole eta curve
        p = tp.TlsParams(gamma_loss=3.0)
        with pytest.raises(NoCrossingError):
            tp.matching_sigma(p, "upper")

    def test_bad_branch_rejected(self, lossless):
        with pytest.raises(ValueError):
            tp.matching_sigma(lossless, "middle")
