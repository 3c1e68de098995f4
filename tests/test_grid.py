import numpy as np
import pytest

import tlsphot as tp
from tlsphot.grid import (
    GridMismatchError,
    ResolutionError,
    _SYMMETRY_TILE,
    require_symmetric,
)


@pytest.fixture(scope="module")
def grid():
    return tp.SpectralGrid(50.0, 4001)


@pytest.fixture(scope="module")
def lor(grid):
    return tp.make_pulse(tp.PulseShape("lorentzian", 1.0), grid)


class TestSpectralGrid:
    def test_symmetric_and_uniform(self, grid):
        assert grid.delta_min == -grid.delta_max
        steps = np.diff(grid.samples)
        assert np.allclose(steps, grid.spacing, rtol=0, atol=1e-12)
        assert grid.samples[grid.n_points // 2] == 0.0

    def test_trapezoid_weights(self, grid):
        h = grid.spacing
        assert grid.weights[0] == pytest.approx(h / 2)
        assert grid.weights[-1] == pytest.approx(h / 2)
        assert np.all(grid.weights[1:-1] == h)
        # integrates a constant to the window length
        assert np.sum(grid.weights) == pytest.approx(2 * grid.delta_max)

    def test_even_n_rejected(self):
        with pytest.raises(ValueError):
            tp.SpectralGrid(10.0, 4000)

    def test_refine_keeps_window_and_parity(self, grid):
        fine = grid.refine(2)
        assert fine.delta_max == grid.delta_max
        assert fine.n_points == 2 * (grid.n_points - 1) + 1
        assert fine.n_points % 2 == 1

    def test_policy_meets_resolution_bound(self):
        for width in (0.05, 0.1, 1.0, 5.0):
            g = tp.SpectralGrid.for_pulse_width(width)
            assert g.spacing <= width / 10 * (1 + 1e-9)
            assert g.delta_max >= 25 * width


class TestMakePulse:
    def test_lorentzian_peak_value(self, grid):
        # at the center the raw shape is sqrt(2 sigma^3/pi)/sigma^2
        sigma = 1.0
        raw = tp.grid.lorentzian_values(grid, sigma)
        i0 = grid.n_points // 2
        assert raw[i0].real == pytest.approx(np.sqrt(2 / np.pi), rel=1e-12)

    def test_unit_norm(self, grid):
        for kind in ("lorentzian", "gaussian"):
            f = tp.make_pulse(tp.PulseShape(kind, 1.3, center=2.0), grid)
            assert f.norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_grid_refinement_stability(self):
        # sampled shape converges: doubling the sample count barely moves it
        g1 = tp.SpectralGrid(50.0, 4001)
        g2 = g1.refine(2)
        f1 = tp.make_pulse(tp.PulseShape("lorentzian", 1.0), g1)
        f2 = tp.make_pulse(tp.PulseShape("lorentzian", 1.0), g2)
        diff = f2.values[::2] - f1.values
        diff_norm = np.sum(g1.weights * np.abs(diff) ** 2)
        assert np.sqrt(diff_norm) < 1e-6

    def test_too_coarse_rejected(self):
        g = tp.SpectralGrid(50.0, 101)
        with pytest.raises(ResolutionError, match="coarse"):
            tp.make_pulse(tp.PulseShape("lorentzian", 1.0), g)

    def test_window_too_narrow_rejected(self):
        g = tp.SpectralGrid(10.0, 2001)
        with pytest.raises(ResolutionError, match="narrow"):
            tp.make_pulse(tp.PulseShape("lorentzian", 1.0), g)

    def test_bad_shape_params(self):
        with pytest.raises(ValueError):
            tp.PulseShape("lorentzian", -1.0)
        with pytest.raises(ValueError):
            tp.PulseShape("sinc", 1.0)


class TestInnerProducts:
    def test_self_inner_is_one(self, lor):
        assert tp.inner1(lor, lor) == pytest.approx(1.0, abs=1e-12)

    def test_conjugate_symmetry(self, grid, lor):
        g = tp.make_pulse(tp.PulseShape("gaussian", 0.8, center=1.5), grid)
        assert tp.inner1(lor, g) == pytest.approx(
            np.conj(tp.inner1(g, lor)), abs=1e-14)

    def test_separated_lorentzians_overlap_small(self):
        # oracle: independent fine-grid trapezoid quadrature
        g = tp.SpectralGrid(120.0, 16001)
        a = tp.make_pulse(tp.PulseShape("lorentzian", 1.0, center=+2.5), g)
        b = tp.make_pulse(tp.PulseShape("lorentzian", 1.0, center=-2.5), g)
        val = tp.inner1(a, b)
        x = np.linspace(-120, 120, 64001)
        fa = np.sqrt(2 / np.pi) / (1 + (x - 2.5) ** 2)
        fb = np.sqrt(2 / np.pi) / (1 + (x + 2.5) ** 2)
        oracle = np.trapezoid(fa * fb, x)
        assert abs(val) < 0.2
        assert val.real == pytest.approx(oracle, abs=1e-6)

    def test_grid_mismatch_raises(self, lor):
        other = tp.make_pulse(tp.PulseShape("lorentzian", 1.0),
                              tp.SpectralGrid(50.0, 2001))
        with pytest.raises(GridMismatchError):
            tp.inner1(lor, other)

    def test_sesquilinearity(self, grid, lor):
        rng = np.random.default_rng(7)
        b = tp.OnePhotonAmp(grid, rng.standard_normal(grid.n_points)
                            + 1j * rng.standard_normal(grid.n_points))
        c = tp.OnePhotonAmp(grid, rng.standard_normal(grid.n_points)
                            + 1j * rng.standard_normal(grid.n_points))
        al, be = 0.3 - 1.1j, -0.8 + 0.2j
        combo = tp.OnePhotonAmp(grid, al * b.values + be * c.values)
        lhs = tp.inner1(lor, combo)
        rhs = al * tp.inner1(lor, b) + be * tp.inner1(lor, c)
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_inner2_product_norm(self, lor):
        psi = tp.product_state(lor)
        assert tp.inner2(psi, psi) == pytest.approx(1.0, abs=1e-12)

    def test_inner2_conjugate_symmetry(self, grid, lor):
        g = tp.make_pulse(tp.PulseShape("gaussian", 0.8), grid)
        a, b = tp.product_state(lor), tp.product_state(g)
        assert tp.inner2(a, b) == pytest.approx(np.conj(tp.inner2(b, a)),
                                                abs=1e-14)


class TestProductState:
    def test_symmetric(self, lor):
        psi = tp.product_state(lor)
        assert np.array_equal(psi.values, psi.values.T)

    def test_narrow_pulse_is_peaked_at_center(self):
        g = tp.SpectralGrid(50.0, 8001)
        f = tp.make_pulse(tp.PulseShape("lorentzian", 0.15, center=3.0), g)
        psi = tp.product_state(f)
        i, j = np.unravel_index(np.argmax(np.abs(psi.values)),
                                psi.values.shape)
        assert g.samples[i] == pytest.approx(3.0, abs=2 * g.spacing)
        assert g.samples[j] == pytest.approx(3.0, abs=2 * g.spacing)


class TestRequireSymmetric:
    # n is not a multiple of the tile, so the last row and column of tiles
    # are partial
    N = 2 * _SYMMETRY_TILE + 37

    def symmetric(self, seed=0):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(self.N) + 1j * rng.standard_normal(self.N)
        return np.outer(v, v)

    def test_symmetric_passes(self):
        require_symmetric(self.symmetric())

    def test_all_zero_passes(self):
        require_symmetric(np.zeros((self.N, self.N), dtype=complex))

    @pytest.mark.parametrize("row, col", [(-1, 0), (-1, -2), (3, -1),
                                          (_SYMMETRY_TILE, 1)])
    def test_asymmetry_located_anywhere_is_caught(self, row, col):
        amp = self.symmetric()
        amp[row, col] += 1e-6 * np.max(np.abs(amp))
        with pytest.raises(ValueError, match="not symmetric"):
            require_symmetric(amp)

    @pytest.mark.parametrize("factor, raises", [(1.01, True), (0.99, False)])
    def test_threshold_is_tol_times_scale(self, factor, raises):
        tol = 1e-10
        amp = np.zeros((self.N, self.N), dtype=complex)
        amp[0, 0] = 2.0  # the scale
        amp[-1, 1] = amp[1, -1] = 0.5
        amp[-1, 1] += factor * tol * 2.0
        if raises:
            with pytest.raises(ValueError, match="not symmetric"):
                require_symmetric(amp, tol)
        else:
            require_symmetric(amp, tol)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            require_symmetric(np.zeros((3, 4), dtype=complex))

    # placed symmetrically, so only the finiteness check can catch them: in
    # a diagonal tile, an off-diagonal tile and the last (partial) tile
    @pytest.mark.parametrize("row, col", [(1, 2), (1, _SYMMETRY_TILE + 1),
                                          (-2, -1)],
                             ids=["diagonal", "off_diagonal", "last_partial"])
    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_values_rejected(self, row, col, value):
        amp = self.symmetric()
        amp[row, col] = amp[col, row] = value
        with pytest.raises(ValueError, match="non-finite"):
            require_symmetric(amp)


class TestTimeReverse:
    def test_involution(self, grid):
        f = tp.make_pulse(tp.PulseShape("gaussian", 0.7, center=1.2), grid)
        back = tp.time_reverse(tp.time_reverse(f))
        assert np.array_equal(back.values, f.values)

    def test_even_pulse_fixed_point(self, lor):
        rev = tp.time_reverse(lor)
        assert np.allclose(rev.values, lor.values, atol=1e-14)

    def test_center_reflection(self, grid):
        f = tp.make_pulse(tp.PulseShape("lorentzian", 1.0, center=2.0), grid)
        g = tp.make_pulse(tp.PulseShape("lorentzian", 1.0, center=-2.0), grid)
        assert np.allclose(tp.time_reverse(f).values, g.values, atol=1e-12)

    def test_norm_preserved_exactly(self, grid):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(grid.n_points) * 1j + rng.standard_normal(
            grid.n_points)
        a = tp.OnePhotonAmp(grid, v)
        assert tp.time_reverse(a).norm_sq() == a.norm_sq()

    def test_two_photon_reverse(self, lor):
        psi = tp.product_state(tp.time_reverse(lor))
        rev = tp.time_reverse(tp.product_state(lor))
        assert np.allclose(rev.values, psi.values, atol=1e-14)
