import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tlsphot as tp
from tlsphot.grid import (
    MAX_N_POINTS,
    GridMismatchError,
    ResolutionError,
    policy_size,
    require_symmetric,
    resolved_size,
)
from tlsphot.pairs import _SYMMETRY_TILE, FactoredPair, inner
from tlsphot.states import FewPhotonState, overlap


def one_photon(amp, pair=False):
    """The state of one photon in ``amp`` on rail 'r', and of two in the
    product amp x amp if ``pair``."""
    return FewPhotonState.from_components(
        amp.grid, ("r",), ones={"r": amp.values},
        pairs={("r", "r"): FactoredPair.product(amp.values)} if pair else {})


def braket(a, b):
    """<a|b> of two one-photon amplitudes, through the library's one overlap
    (``overlap(state, target)`` is <target|state>)."""
    return overlap(one_photon(b), one_photon(a))


@pytest.fixture(scope="module")
def grid():
    return tp.SpectralGrid(50.0, 4001)


@pytest.fixture(scope="module")
def lor(grid):
    return tp.make_pulse(tp.PulseShape("lorentzian", 1.0), grid)


class TestSpectralGrid:
    def test_symmetric_and_uniform(self, grid):
        assert grid.samples[0] == -grid.delta_max
        assert grid.samples[-1] == grid.delta_max
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

    @pytest.mark.parametrize("n", [1, 2, 4000])
    def test_policy_size_rejects_what_the_grid_rejects(self, n):
        # callers that sample only part of the policy grid get its checks
        with pytest.raises(ValueError, match="odd and >= 3"):
            policy_size(1.2, n_points=n)
        with pytest.raises(ValueError, match="odd and >= 3"):
            tp.SpectralGrid(96.0, n)

    @pytest.mark.parametrize("width", [1e-9, 7.9e-4, 5e-324])
    def test_unaffordable_policy_grid_refused(self, width):
        # refused from the sizes alone, before any array is allocated
        with pytest.raises(tp.GridSizeError, match="above the maximum"):
            policy_size(width)
        with pytest.raises(tp.GridSizeError):
            tp.SpectralGrid.for_pulse_width(width)

    def test_largest_policy_grids_admitted(self):
        # the narrowest width matching_sigma solves on a numeric grid
        assert policy_size(0.005) == (80.0, 320001)
        assert policy_size(8.1e-4)[1] <= MAX_N_POINTS

    def test_grid_above_the_maximum_refused(self):
        with pytest.raises(tp.GridSizeError, match="above the maximum"):
            tp.SpectralGrid(1.0, MAX_N_POINTS + 2)
        with pytest.raises(tp.GridSizeError):
            policy_size(1.0, n_points=MAX_N_POINTS + 2)

    def test_policy_window_is_80_widths_at_least_80(self):
        assert policy_size(0.5) == (80.0, 4001)
        assert policy_size(1.25)[0] == 80 * 1.25

    def test_policy_meets_resolution_bound(self):
        for width in (0.05, 0.1, 1.0, 5.0):
            g = tp.SpectralGrid.for_pulse_width(width)
            assert g.spacing <= width / 10 * (1 + 1e-9)
            assert g.delta_max >= 25 * width


class TestResolvedSize:
    # the policy grid's sizes and spacing without the grid: callers that
    # sample part of it, or only check it, get make_pulse's refusals

    @settings(max_examples=200, deadline=None)
    @given(delta_max=st.floats(80.0, 1e9),
           n_points=st.integers(800, 100_000).map(lambda k: 2 * k + 1))
    @example(delta_max=80.0, n_points=1601)  # spacing exactly width / 10
    def test_spacing_is_linspace_spacing(self, delta_max, n_points):
        # the policy window of a width of 1 or more is 80 widths, which
        # 1601 or more samples resolve
        d, n, h = resolved_size(delta_max / 80.0, n_points)
        samples = np.linspace(-d, d, n)
        assert n == n_points
        assert h == samples[1] - samples[0]

    @settings(max_examples=200, deadline=None)
    @given(width=st.floats(0.02, 50.0) | st.floats(1e-12, 5e-4),
           n_points=(st.none()
                     | st.integers(-1, 20_000).map(lambda k: 2 * k + 1)
                     | st.integers(0, 20_000).map(lambda k: 2 * k)))
    @example(width=1.0, n_points=1601)  # spacing exactly width / 10
    @example(width=1.0, n_points=1599)
    @example(width=0.5, n_points=None)
    @example(width=1e-9, n_points=None)
    @example(width=1.2, n_points=4000)
    def test_refuses_what_make_pulse_refuses(self, width, n_points):
        try:
            grid = tp.SpectralGrid(*policy_size(width, n_points))
            tp.make_pulse(tp.PulseShape("lorentzian", width), grid)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                resolved_size(width, n_points)
            assert type(info.value) is type(exc)
            assert str(info.value) == str(exc)
        else:
            assert resolved_size(width, n_points) == (
                grid.delta_max, grid.n_points, grid.spacing)


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
        g2 = tp.SpectralGrid(50.0, 8001)
        f1 = tp.make_pulse(tp.PulseShape("lorentzian", 1.0), g1)
        f2 = tp.make_pulse(tp.PulseShape("lorentzian", 1.0), g2)
        diff = f2.values[::2] - f1.values
        diff_norm = np.sum(g1.weights * np.abs(diff) ** 2)
        assert np.sqrt(diff_norm) < 1e-6

    def test_zero_amplitude_not_normalized(self, grid):
        zero = tp.OnePhotonAmp(grid, np.zeros(grid.n_points, dtype=complex))
        with pytest.raises(ValueError, match="zero amplitude"):
            tp.normalize(zero)

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

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("build", [
        lambda v: tp.PulseShape("lorentzian", v),
        lambda v: tp.PulseShape("gaussian", 1.0, center=v),
        lambda v: tp.SpectralGrid(v, 5),
        lambda v: policy_size(v),
    ], ids=["width", "center", "delta_max", "policy_size"])
    def test_non_finite_params_rejected(self, build, value):
        with pytest.raises(ValueError, match="finite"):
            build(value)


class TestInnerProducts:
    def test_self_inner_is_one(self, lor):
        assert braket(lor, lor) == pytest.approx(1.0, abs=1e-12)

    def test_conjugate_symmetry(self, grid, lor):
        g = tp.make_pulse(tp.PulseShape("gaussian", 0.8, center=1.5), grid)
        assert braket(lor, g) == pytest.approx(
            np.conj(braket(g, lor)), abs=1e-14)

    def test_separated_lorentzians_overlap_small(self):
        # oracle: independent fine-grid trapezoid quadrature
        g = tp.SpectralGrid(120.0, 16001)
        a = tp.make_pulse(tp.PulseShape("lorentzian", 1.0, center=+2.5), g)
        b = tp.make_pulse(tp.PulseShape("lorentzian", 1.0, center=-2.5), g)
        val = braket(a, b)
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
            braket(lor, other)

    def test_sesquilinearity(self, grid, lor):
        rng = np.random.default_rng(7)
        b = tp.OnePhotonAmp(grid, rng.standard_normal(grid.n_points)
                            + 1j * rng.standard_normal(grid.n_points))
        c = tp.OnePhotonAmp(grid, rng.standard_normal(grid.n_points)
                            + 1j * rng.standard_normal(grid.n_points))
        al, be = 0.3 - 1.1j, -0.8 + 0.2j
        combo = tp.OnePhotonAmp(grid, al * b.values + be * c.values)
        lhs = braket(lor, combo)
        rhs = al * braket(lor, b) + be * braket(lor, c)
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_pair_inner_product_norm(self, grid, lor):
        psi = FactoredPair.product(lor.values)
        assert inner(psi, psi, grid.weights) == pytest.approx(1.0, abs=1e-12)

    def test_pair_inner_conjugate_symmetry(self, grid, lor):
        g = tp.make_pulse(tp.PulseShape("gaussian", 0.8), grid)
        a, b = FactoredPair.product(lor.values), FactoredPair.product(g.values)
        w = grid.weights
        assert inner(a, b, w) == pytest.approx(np.conj(inner(b, a, w)),
                                               abs=1e-14)


class TestProductState:
    def test_symmetric(self, lor):
        psi = FactoredPair.product(lor.values)
        assert np.array_equal(psi.dense(), psi.dense().T)

    def test_narrow_pulse_is_peaked_at_center(self):
        g = tp.SpectralGrid(50.0, 8001)
        f = tp.make_pulse(tp.PulseShape("lorentzian", 0.15, center=3.0), g)
        psi = FactoredPair.product(f.values)
        # one term f(x) f(y): |psi| peaks where both factors peak
        (_, a, b, c), = psi.terms
        assert c is None
        i, j = np.argmax(np.abs(a)), np.argmax(np.abs(b))
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
    """The grid's mirror map delta -> -delta, a permutation of its samples,
    as the memory applies it (:func:`tlsphot.gem_invert`)."""

    # the pairs' N x N arrays are 4 MB here
    PAIR_GRID = tp.SpectralGrid(25.0, 501)

    def test_involution(self, grid):
        f = tp.make_pulse(tp.PulseShape("gaussian", 0.7, center=1.2), grid)
        back = tp.gem_invert(tp.gem_invert(one_photon(f)))
        assert np.array_equal(back.one_photon["r"], f.values)

    def test_even_pulse_fixed_point(self):
        f = tp.make_pulse(tp.PulseShape("lorentzian", 1.0), self.PAIR_GRID)
        rev = tp.gem_invert(one_photon(f, pair=True))
        assert np.allclose(rev.one_photon["r"], f.values, atol=1e-14)
        assert np.allclose(rev.pair("r", "r").dense(),
                           np.outer(f.values, f.values), atol=1e-14)

    def test_center_reflection(self, grid):
        f = tp.make_pulse(tp.PulseShape("lorentzian", 1.0, center=2.0), grid)
        g = tp.make_pulse(tp.PulseShape("lorentzian", 1.0, center=-2.0), grid)
        rev = tp.gem_invert(one_photon(f))
        assert np.allclose(rev.one_photon["r"], g.values, atol=1e-12)

    def test_norm_preserved_exactly(self, grid):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(grid.n_points) * 1j + rng.standard_normal(
            grid.n_points)
        a = tp.OnePhotonAmp(grid, v)
        rev = tp.gem_invert(one_photon(a))
        assert rev.norm1_sq(rev.one_photon["r"]) == a.norm_sq()

    def test_two_photon_reverse(self):
        # the pair's reversal is the product of the photon's
        f = tp.make_pulse(tp.PulseShape("lorentzian", 1.0, center=2.0),
                          self.PAIR_GRID)
        rev = tp.gem_invert(one_photon(f, pair=True))
        g = rev.one_photon["r"]
        assert np.allclose(rev.pair("r", "r").dense(), np.outer(g, g),
                           atol=1e-14)
