"""Brent root finder and maximizer, and the matching solve built on them."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tlsphot as tp
from tlsphot import scatter
from tlsphot.roots import NoCrossingError, bisect, golden_max

# lossy matching points, frozen from the golden-section-and-bisection solver
# the Brent solver replaced (both solve to xtol = 1e-12)
SIGMA_LOSSY_GOLDEN = {
    (0.80, "lower"): 0.09914190707393407,
    (0.80, "upper"): 1.0757080860352692,
    (0.90, "lower"): 0.13291270137865158,
    (0.90, "upper"): 1.173650144687588,
    (0.95, "lower"): 0.1485338904135738,
    (0.95, "upper"): 1.2142706997217307,
    (0.99, "lower"): 0.16047989759023484,
    (0.99, "upper"): 1.243570555098667,
}


class Counted:
    """fn with a count of its calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.fn(x)


class TestBisect:
    @pytest.mark.parametrize("fn, lo, hi, root", [
        (math.cos, 0.0, 3.0, math.pi / 2),
        (lambda x: x**3 - 2.0, 0.0, 2.0, 2.0 ** (1 / 3)),
        (lambda x: math.exp(x) - 1e3, -5.0, 30.0, math.log(1e3)),
        (lambda x: math.tanh(50.0 * (x - 0.123)), -1e3, 1e3, 0.123),
        # a triple root: interpolation stalls and bisection steps take over
        (lambda x: (x - 0.7) ** 3, 0.0, 1.0, 0.7),
    ])
    @pytest.mark.parametrize("xtol", [1e-12, 1e-6])
    def test_lands_within_xtol(self, fn, lo, hi, root, xtol):
        assert abs(bisect(fn, lo, hi, xtol=xtol) - root) <= xtol
        assert abs(bisect(fn, hi, lo, xtol=xtol) - root) <= xtol

    @settings(max_examples=100, deadline=None)
    @given(root=st.floats(-10.0, 10.0), width=st.floats(0.1, 100.0),
           split=st.floats(0.01, 0.99), slope=st.floats(0.1, 10.0))
    def test_random_brackets(self, root, width, split, slope):
        lo = root - split * width
        hi = root + (1.0 - split) * width

        def fn(x):
            return math.atan(slope * (x - root)) + 0.1 * (x - root) ** 3

        assert abs(bisect(fn, lo, hi, xtol=1e-10) - root) <= 1e-10

    def test_no_sign_change_raises(self):
        with pytest.raises(NoCrossingError, match="no sign change"):
            bisect(lambda x: x**2 + 1.0, -1.0, 1.0)
        with pytest.raises(NoCrossingError):
            bisect(lambda x: -1.0, 0.0, 1.0)

    def test_endpoint_root_returned_as_is(self):
        fn = Counted(lambda x: x - 0.25)
        assert bisect(fn, 0.25, 3.0) == 0.25
        assert bisect(fn, -3.0, 0.25) == 0.25
        assert fn.calls == 4  # the two endpoints each time, nothing else

    def test_fewer_evaluations_than_bisection(self):
        fn = Counted(lambda x: math.exp(x) - 2.0)
        x = bisect(fn, 0.0, 30.0, xtol=1e-12)
        assert abs(x - math.log(2.0)) <= 1e-12
        # plain bisection needs log2(30 / 1e-12) = 45 halvings
        assert fn.calls <= 15


class TestGoldenMax:
    @pytest.mark.parametrize("fn, lo, hi, peak", [
        (lambda x: -(x - 0.3) ** 2, 0.0, 1.0, 0.3),
        (lambda x: -math.cosh(x - 1.7), -5.0, 5.0, 1.7),
        (lambda x: math.sin(x), 0.0, 3.0, math.pi / 2),
        (lambda x: x * math.exp(-x), 0.0, 30.0, 1.0),
        # maxima at the ends of the bracket
        (lambda x: x, 0.0, 2.0, 2.0),
        (lambda x: -x, 0.5, 2.0, 0.5),
    ])
    @pytest.mark.parametrize("xtol", [1e-6, 1e-4])
    def test_lands_within_xtol(self, fn, lo, hi, peak, xtol):
        counted = Counted(fn)
        x, val = golden_max(counted, lo, hi, xtol=xtol)
        assert abs(x - peak) <= xtol
        assert val == fn(x)
        assert counted.calls <= 60

    def test_eta_peak(self):
        eta = functools.partial(tp.eta_analytic, tp.TlsParams())
        x, val = golden_max(eta, 0.05, 5.0, xtol=1e-8)
        # d eta / d sigma = 0 at the peak, from the closed form's derivative
        h = 1e-5
        slope = (eta(x + h) - eta(x - h)) / (2 * h)
        assert abs(slope) < 1e-6
        assert val == eta(x)


class TestMatchingSolve:
    @pytest.fixture
    def eta_calls(self, monkeypatch):
        calls = []
        original = scatter._eta_kernel

        def counted(ps, sigma):
            calls.append(sigma)
            return original(ps, sigma)

        monkeypatch.setattr(scatter, "_eta_kernel", counted)
        return calls

    @pytest.mark.parametrize("branch", ["lower", "upper"])
    def test_eta_evaluations_per_solve(self, eta_calls, branch):
        p = tp.TlsParams.from_beta(0.9)
        sigma = tp.matching_sigma(p, branch)
        assert sigma == pytest.approx(SIGMA_LOSSY_GOLDEN[(0.9, branch)],
                                      abs=1e-12)
        # a Newton step from the closed-form root, then secant steps
        if branch == "lower":
            assert len(eta_calls) == 2
        else:
            assert len(eta_calls) <= 4
        # no width is evaluated twice
        assert len(set(eta_calls)) == len(eta_calls)
        # the costly narrow-pulse grid at sigma_lo is not needed here
        assert min(eta_calls) > 0.05

    @pytest.mark.parametrize("key", sorted(SIGMA_LOSSY_GOLDEN))
    def test_lossy_roots_match_frozen(self, key):
        beta, branch = key
        sigma = tp.matching_sigma(tp.TlsParams.from_beta(beta), branch)
        assert sigma == pytest.approx(SIGMA_LOSSY_GOLDEN[key], abs=1e-12)

    def test_lower_bracket_stops_at_sigma_lo(self, monkeypatch):
        # with the search's bottom width above the lower root the mismatch
        # stays positive down to it, and the solve reports no crossing there
        monkeypatch.setattr(scatter, "_SIGMA_LO", 0.2)
        p = tp.TlsParams.from_beta(0.9)
        with pytest.raises(NoCrossingError, match="no sign change"):
            tp.matching_sigma(p, "lower")
        assert tp.matching_sigma(p, "upper") == pytest.approx(
            SIGMA_LOSSY_GOLDEN[(0.9, "upper")], abs=1e-12)

    @pytest.mark.parametrize("branch", ["lower", "upper"])
    def test_polish_without_a_nearby_root_raises(self, monkeypatch, branch):
        # a numeric eta raised by 0.1 moves the roots 41 % (upper) and
        # 55 % (lower) away from the closed-form ones: the polish gives up
        # instead of following them
        calls = []
        original = scatter._eta_kernel

        def shifted(ps, sigma):
            calls.append(sigma)
            return [eta + 0.1 for eta in original(ps, sigma)]

        monkeypatch.setattr(scatter, "_eta_kernel", shifted)
        with pytest.raises(NoCrossingError, match="no numeric") as info:
            tp.matching_sigma(tp.TlsParams.from_beta(0.9), branch)
        assert info.value.branch == branch
        assert 0 < len(calls) <= scatter._POLISH_EVALS

    @pytest.mark.parametrize("beta", [0.6, 0.75, 0.8, 0.95, 0.999])
    def test_root_lies_within_xtol(self, beta):
        # the mismatch changes sign within xtol + 4 eps sigma of the
        # returned width: the polish stops once its next step is at most
        # xtol / 2
        p = tp.TlsParams.from_beta(beta)
        for branch in ("lower", "upper"):
            s = tp.matching_sigma(p, branch)
            reach = scatter._XTOL + 4 * np.finfo(float).eps * s
            ends = [scatter._eta_kernel((p,), x)[0]
                    - 0.5 * tp.epsilon1_analytic(p, x) ** 2
                    for x in (s - reach, s + reach)]
            assert ends[0] * ends[1] <= 0.0, branch
