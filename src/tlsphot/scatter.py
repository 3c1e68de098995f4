"""Two-level-scatterer transfer functions and exact few-photon scattering maps.

A two-level emitter chirally coupled to a waveguide transmits a monochromatic
photon with the coefficient

    t(delta) = (delta + i(gamma - 1)/2) / (delta + i(gamma + 1)/2),

where gamma is the loss rate into all other modes and delta the detuning
from resonance, both in units of the coupling Gamma to the guided mode (the
unit, not a parameter).  Photon pairs acquire in addition a spectrally
entangled ("bound") component generated by the kernel

    T = (i / 2 pi) delta(k1 + k2 - p1 - p2) s(p1) s(p2) (s(k1) + s(k2)),
    s(delta) = (1 - t(delta)) / i.

The momentum-conserving delta function is consumed analytically: outputs are
parametrized by the total detuning P = p1 + p2 and the bound term reduces to

    out_b(p1, p2) = (i / 2 pi) s(p1) s(p2) I(P),
    I(P) = integral dk psi(k, P - k) [s(k) + s(P - k)],

an anti-diagonal sum over psi.  For a pair held as a sum of terms
a(x) b(y) c(x + y) (``pairs``), I reduces to 1-D convolutions: the scattered
pair is the input terms times t(x) t(y) plus one bound term
s(x) s(y) I(x + y).  :func:`scatter_two` takes such a pair and the grid it
is sampled on and returns another.  The scalar figures eta, eps_1 and eps_b
use the f x f case of that reduction.  The test suite cross-checks the map
against a plain N x N implementation of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import OnePhotonAmp, SpectralGrid, lorentzian_at, resolved_size
from .pairs import FactoredPair, _fast_len, inner, norm_sq, shared, times
from .roots import NoCrossingError, bisect, golden_max


@dataclass(frozen=True)
class TlsParams:
    """Emitter loss rate gamma, in units of the waveguide coupling Gamma.

    Build one as ``TlsParams(gamma_loss=...)`` or ``TlsParams.from_beta``.
    The directional beta factor beta_dir = 1 / (gamma + 1) is 1 for a
    lossless scatterer.
    """

    gamma_loss: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.gamma_loss < np.inf:
            raise ValueError(f"gamma_loss must be non-negative and finite, "
                             f"got {self.gamma_loss}")

    @property
    def beta_dir(self) -> float:
        return 1.0 / (self.gamma_loss + 1.0)

    @classmethod
    def from_beta(cls, beta: float) -> "TlsParams":
        if not 0.0 < beta <= 1.0:
            raise ValueError(f"beta_dir must be in (0, 1], got {beta}")
        return cls(gamma_loss=1.0 / beta - 1.0)


def transfer_coeff(p: TlsParams, delta):
    """Single-photon transmission t(delta); vectorized over delta."""
    num = delta + 0.5j * (p.gamma_loss - 1.0)
    den = delta + 0.5j * (p.gamma_loss + 1.0)
    return num / den


def s_coeff(p: TlsParams, delta):
    """Scattering amplitude s(delta) = (1 - t(delta)) / i."""
    return _s_of_t(transfer_coeff(p, delta))


def _s_of_t(t):
    """s(delta) from the transmission t(delta) already computed there."""
    return (1.0 - t) / 1j


def transfer_on(p: TlsParams, grid: SpectralGrid) -> np.ndarray:
    """t on the grid's samples, made once per emitter and grid and shared
    (:func:`pairs.shared`) for as long as the grid's samples live."""
    return shared(("t", p), (grid.samples,),
                  lambda: transfer_coeff(p, grid.samples))


@dataclass
class ScatterOneResult:
    """Scattered single photon: unnormalized output, survival eps_1, loss."""

    out: OnePhotonAmp
    epsilon1: float
    lost: float


def scatter_one(p: TlsParams, f: OnePhotonAmp) -> ScatterOneResult:
    """Scatter a single photon: f(delta) -> f(delta) t(delta)."""
    out = OnePhotonAmp(f.grid, times(transfer_on(p, f.grid), f.values))
    eps1 = out.norm_sq()
    return ScatterOneResult(out=out, epsilon1=eps1, lost=1.0 - eps1)


def _bound_term(pair: FactoredPair, s: np.ndarray, h: float) -> FactoredPair:
    """The bound part (i / 2 pi) s(p1) s(p2) I(p1 + p2) of the
    scattered ``pair``, as one symmetric term.  A term coef a(x) b(y) c(x + y)
    of the pair adds coef c(P) h J(P) to I(P), J = conv(a s, b) + conv(a, b s),
    and a symmetrized term the same, since exchanging a and b swaps the two
    convolutions.

    Factors carry shape and coefficients amplitude: a pair of one term
    without c gives (i h coef / 2 pi, s, s, J), with J the one array every
    call on the same a, b and s shares (:func:`_bound_conv`).  Otherwise c
    is the sum of each term's shared J times its coefficient and c, which
    takes no transform once the terms' factors have been seen."""
    kappa = 0.5j / np.pi
    (coef, a, b, c), *rest = pair.terms
    if c is None and not rest:
        return FactoredPair._raw(
            ((kappa * h * coef, s, s, _bound_conv(a, b, s)),), True)
    return FactoredPair._raw(((kappa * h, s, s, sum(
        coef * (_bound_conv(a, b, s) if c is None
                else c * _bound_conv(a, b, s))
        for coef, a, b, c in pair.terms)),), True)


def _bound_conv(a, b, s) -> np.ndarray:
    """J = conv(a s, b) + conv(a, b s), its 2N - 1 linear entries, from
    spectra at the :func:`pairs._fast_len` of 2N - 1 points (2 FFT(a s)
    FFT(a) if a is b): made once per a, b and s and shared."""
    def make():
        fft, size = np.fft.fft, _fast_len(2 * len(a) - 1)
        sa, fa = fft(times(s, a), size), fft(a, size)
        spectrum = (2.0 * (sa * fa) if a is b
                    else sa * fft(b, size) + fa * fft(times(s, b), size))
        return np.fft.ifft(spectrum)[:2 * len(a) - 1]

    return shared("bound", (a, b, s), make)


def scatter_two(p: TlsParams, grid: SpectralGrid,
                pair: FactoredPair) -> FactoredPair:
    """Scatter a photon pair on one rail, sampled on ``grid``, off the emitter.

    Returns the full (unnormalized) output amplitude

        out(p1, p2) = t(p1) t(p2) psi(p1, p2)
                      + (i / 2 pi) s(p1) s(p2) I(p1 + p2)

    as the input terms times t(x) t(y) plus the bound part as one more
    term, with I from 1-D convolutions.

    Raises
    ------
    ValueError
        If ``pair`` is not exchange symmetric by construction.
    """
    if not pair.symmetric:
        raise ValueError("factored two-photon amplitude is not exchange "
                         "symmetric by construction")
    linear, bound = _scattered(p, grid, pair)
    return linear + bound


def _scattered(p: TlsParams, grid: SpectralGrid, pair: FactoredPair):
    """:func:`scatter_two`'s output in its two parts, the input terms times
    t(x) t(y) and the bound term, from one evaluation of t."""
    t = transfer_on(p, grid)
    s = shared("s", (t,), lambda: _s_of_t(t))
    return (pair.map_factors(lambda x: times(t, x)),
            _bound_term(pair, s, grid.spacing))


def bound_amplitude(p: TlsParams, f: OnePhotonAmp) -> FactoredPair:
    """Bound (spectrally entangled) part of the pair output for input f x f."""
    return _scattered(p, f.grid, FactoredPair.product(f.values))[1]


def eta_numeric(p: TlsParams, f: OnePhotonAmp) -> float:
    """Distortion overlap eta = |<product image | bound>| / 2 for f x f."""
    parts = _scattered(p, f.grid, FactoredPair.product(f.values))
    return 0.5 * abs(inner(*parts, f.grid.weights))


def epsilon_b_numeric(p: TlsParams, f: OnePhotonAmp) -> float:
    """Squared norm of the bound amplitude, <bound|bound>, for input f x f."""
    return norm_sq(bound_amplitude(p, f), f.grid.weights)


def eta_analytic(p: TlsParams, sigma: float) -> float:
    """Closed-form eta for a resonant Lorentzian pulse of width sigma.

    With G = gamma + 1 = 1 / beta_dir and u = (G - 2)^2,

        eta = 4 sigma Q / (G^2 (G + 2 sigma)^4 (G + 6 sigma) (3G + 2 sigma)),
        Q = u (3G^3 + 44G^2 sigma + 124G sigma^2 + 64 sigma^3)
            + 16 sigma^2 (3G + 8 sigma).

    In the time domain every factor of the overlap (f, f s, conj(t) f s) is
    rational with simple poles, so its Fourier transform is a sum of
    exponentials on each half line and the last integral is elementary.
    """
    if not 0.0 < sigma < np.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    G = p.gamma_loss + 1.0
    u = (G - 2.0) ** 2
    q = (u * (3 * G**3 + 44 * G**2 * sigma + 124 * G * sigma**2
              + 64 * sigma**3)
         + 16 * sigma**2 * (3 * G + 8 * sigma))
    return (4 * sigma * q
            / (G**2 * (G + 2 * sigma) ** 4 * (G + 6 * sigma)
               * (3 * G + 2 * sigma)))


def epsilon1_analytic(p: TlsParams, sigma: float) -> float:
    """Closed-form single-photon survival for a resonant Lorentzian pulse."""
    if not 0.0 < sigma < np.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    g = p.gamma_loss
    return 1.0 - 4 * g * (g + 1.0 + 4 * sigma) / (
        (g + 1.0) * (g + 1.0 + 2 * sigma) ** 2)


def epsilon_b_analytic(p: TlsParams, sigma: float) -> float:
    """Closed-form <bound|bound> for a resonant Lorentzian pulse."""
    if not 0.0 < sigma < np.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    G = p.gamma_loss + 1.0
    return (16 * sigma * (38 * sigma * G + 3 * G**2 + 96 * sigma**2)
            / (G**2 * (G + 2 * sigma) ** 3 * (3 * G + 2 * sigma)
               * (G + 6 * sigma)))


@dataclass
class ScatterTwoResult:
    """Pair output split along / orthogonal to the product image.

    ``coeff_along`` multiplies the unit-norm product image (t f) x (t f) and
    equals eps_1 (1 - 2 eta / eps_1^2); ``coeff_orth`` is the norm of the
    orthogonal remainder, sqrt(eps_b - 4 eta^2 / eps_1^2); ``lost`` the
    probability scattered out of the guided mode.  ``bound_overlap`` is the
    overlap of the normalized product image with the bound amplitude, which
    the decomposition requires to be real and negative; ``phase_residual``
    reports how far its phase is from pi.
    """

    out: FactoredPair
    coeff_along: complex
    coeff_orth: float
    lost: float
    bound_overlap: complex
    phase_residual: float


def decompose(p: TlsParams, f: OnePhotonAmp) -> ScatterTwoResult:
    """Scatter f x f and resolve the output against the product image."""
    w = f.grid.weights
    image, bound = _scattered(p, f.grid, FactoredPair.product(f.values))
    psi_out = image + bound
    prod_normed = (1.0 / scatter_one(p, f).epsilon1) * image
    along = inner(prod_normed, psi_out, w)
    out_norm_sq = norm_sq(psi_out, w)
    orth_sq = max(0.0, out_norm_sq - abs(along) ** 2)
    c = inner(prod_normed, bound, w)
    phase_residual = abs(np.angle(-c)) if c != 0 else 0.0
    return ScatterTwoResult(
        out=psi_out,
        coeff_along=along,
        coeff_orth=float(np.sqrt(orth_sq)),
        lost=1.0 - out_norm_sq,
        bound_overlap=c,
        phase_residual=phase_residual,
    )


def _matching_sextic(G: float) -> list:
    """Coefficients, sigma^6 first, of the polynomial P whose sign is that of
    eta - eps_1^2 / 2 for a resonant Lorentzian of width sigma, G = gamma + 1.

    Over the common denominator D = 2 G^2 (G + 2 sigma)^4 (G + 6 sigma)
    (3G + 2 sigma) > 0 of :func:`eta_analytic` and :func:`epsilon1_analytic`
    the mismatch is P / D, P = 8 sigma Q - N^2 (G + 6 sigma) (3G + 2 sigma),
    N = G (G + 2 sigma)^2 - 4 (G - 1)(G + 4 sigma) and Q the cubic of
    :func:`eta_analytic`.
    """
    u = (G - 2.0) ** 2
    return [-192 * G**2,
            -64 * G * (11 * G**2 - 24 * G + 24),
            -16 * G * (61 * G**3 - 280 * G**2 + 440 * G - 256),
            -32 * G * (21 * G**4 - 136 * G**3 + 313 * G**2 - 292 * G + 72),
            -4 * G**2 * u * (61 * G**2 - 220 * G + 132),
            -4 * G**3 * u * (11 * G**2 - 44 * G + 38),
            -3 * G**4 * u**2]


def matching_width(p: TlsParams, branch: str = "upper") -> float:
    """Spectral width solving the matching condition eta = eps_1^2 / 2,
    exactly: a root of :func:`_matching_sextic`'s polynomial P.

    P(0) = -3 G^4 (G - 2)^4 <= 0 and P < 0 at large sigma, and its
    coefficients change sign at most twice, so it has at most two positive
    roots, which bracket the hump of eta - eps_1^2 / 2.  ``branch`` selects
    the ``"lower"`` or the ``"upper"`` of them (the upper crossing is the
    recommended operating point, having the smaller loss).  As beta_dir
    falls to 0.5 the lower root falls to sigma = 0, where it is a double
    root of P at beta_dir = 0.5 exactly; below 0.5 it comes back, and the
    two roots meet and vanish near beta_dir = 0.3855.

    ``np.roots`` gives the roots to a few ulp; two Newton steps on the
    closed-form mismatch, with the slope P' / D, polish each.  Nothing is
    sampled: a root whose policy grid is too large is returned, and only a
    caller that samples a pulse of that width refuses it.

    Raises
    ------
    NoCrossingError
        If P has no positive root on the branch; its ``branch`` names it.
    """
    if branch not in ("lower", "upper"):
        raise ValueError(f"branch must be 'lower' or 'upper', got {branch!r}")
    G = p.gamma_loss + 1.0
    # the coefficients overflow only below beta_dir = 1e-38, far below the
    # 0.3855 at which the roots vanish
    try:
        coeffs = _matching_sextic(G)
        finite = all(np.isfinite(coeffs))
    except OverflowError:
        finite = False
    # a real root is returned with a zero imaginary part; a pair of roots
    # that merge within rounding is returned complex, and is no crossing
    roots = sorted(r.real for r in np.roots(coeffs)
                   if r.imag == 0.0 and r.real > 0.0) if finite else []
    if not roots or (branch == "lower" and len(roots) < 2):
        exc = NoCrossingError(
            f"matching condition unreachable at beta_dir={p.beta_dir:.4f}: "
            f"the matching polynomial has no positive {branch} root")
        exc.branch = branch
        raise exc
    sigma = roots[0] if branch == "lower" else roots[-1]
    slope = np.polyder(coeffs)
    for _ in range(2):
        mismatch = (eta_analytic(p, sigma)
                    - 0.5 * epsilon1_analytic(p, sigma) ** 2)
        denom = (2.0 * G**2 * (G + 2 * sigma) ** 4 * (G + 6 * sigma)
                 * (3 * G + 2 * sigma))
        sigma -= mismatch * denom / np.polyval(slope, sigma)
    return float(sigma)


def _eta_kernel(ps, sigma: float) -> list:
    """eta at width sigma for each emitter of ``ps``: the closed form
    (:func:`eta_analytic`) if lossless, sampling nothing, else
    :func:`eta_numeric` of the centred Lorentzian on its policy grid.

    That is kappa sum_q conv(u, u) I, u = w conj(f t) s, I = 2 h conv(f s, f).
    Parseval at one padded length L >= 2N - 1 (:func:`pairs._fast_len`)
    makes it sum_k U(k)^2 B(-k) / L, B the spectrum of conv(f s, f),
    computed from the M + 1 samples at delta >= 0 of the n = 2M + 1 point
    grid: f is real and even and t(-delta) = conj t(delta), so x = -i f s
    and -i u are Hermitian about delta = 0 and their zero-padded DFTs are
    real.  The spectrum at -k of a Hermitian sequence is that of its
    conjugate and F, f's, is even, so the sum is -i sum_k U(k)^2 X'(k) F(k),
    X' the spectrum of conj(x): one real sum over three real spectra, in
    which the shift that centres the samples cancels.  Each spectrum is the
    unscaled ``np.fft.irfft`` of the conjugate half sequence, of i conj(u),
    x and f.  With a = G / 2 (G = gamma + 1), s = 1 / (delta + i a) and
    t = 1 - i s, so for r = f / (delta^2 + a^2) the first two are

        i conj(u) = w r ((1 - a) + i delta),    x = -r (a + i delta),

    filled in from real arrays, with no complex division.  F depends on
    the width alone, so one transform of the pulse serves every emitter.
    A lossy emitter at a width whose policy grid is too large raises
    :func:`~tlsphot.grid.resolved_size`'s GridSizeError.

    Kept for :func:`matching_sigma` and :func:`~tlsphot.sweeps.fig1b_data`,
    which the benchmark's numeric checks alone call, until those move onto
    the closed forms (ROADMAP item 2c).
    """
    if all(p.gamma_loss == 0.0 for p in ps):
        return [eta_analytic(p, sigma) for p in ps]
    delta_max, n, h = resolved_size(sigma)
    half = n // 2
    step = delta_max / half
    d = step * np.arange(half + 1)
    w = np.full(half + 1, h)
    w[-1] *= 0.5
    f = lorentzian_at(d, sigma)
    # the full grid's norm: the centre sample once, every other one twice
    f /= np.sqrt(2.0 * np.sum(w * f * f) - w[0] * f[0] * f[0])
    d_sq = d * d
    size = _fast_len(2 * n - 1)
    kappa = 0.5 / np.pi
    f_hat = None
    etas = []
    for p in ps:
        if p.gamma_loss == 0.0:
            etas.append(eta_analytic(p, sigma))
            continue
        a = 0.5 * (p.gamma_loss + 1.0)
        r = f / (d_sq + a * a)
        z = np.empty(half + 1, complex)
        # U^2 X' F in place, multiplied in that order, z holding i conj(u)
        # and then x.  Each array is freed once it is used and F taken
        # after the first emitter's U^2 X', which keeps the peak memory down
        wr = w * r
        np.multiply(wr, 1.0 - a, out=z.real)
        np.multiply(wr, d, out=z.imag)
        del wr
        g = np.fft.irfft(z, size, norm="forward")
        g *= g
        np.multiply(r, -a, out=z.real)
        np.multiply(r, -d, out=z.imag)
        g *= np.fft.irfft(z, size, norm="forward")
        del r, z
        if f_hat is None:
            f_hat = np.fft.irfft(f, size, norm="forward")
        g *= f_hat
        etas.append(kappa * h / size * abs(float(g.sum())))
    return etas


# matching_sigma's closed-form search range, the narrowest width it solves
# on a numeric grid (a memory guard: the policy grid at sigma = 0.002 has
# about 800 001 samples), its root tolerance, and how far, relative, and in
# how many numeric evaluations its polish may move from the closed-form root
_SIGMA_MIN, _SIGMA_HI = 1e-6, 30.0
_SIGMA_LO, _XTOL = 0.005, 1e-12
_REACH, _POLISH_EVALS = 0.2, 8


def matching_sigma(p: TlsParams, branch: str = "upper") -> float:
    """Spectral width solving the matching condition eta = eps_1^2 / 2.

    The mismatch eta(sigma) - eps_1(sigma)^2 / 2 is single-humped, and
    ``branch`` selects the ``"lower"`` or ``"upper"`` of the two roots that
    bracket its hump (the upper crossing is the recommended operating
    point, having the smaller loss).  The lower root falls to sigma = 0 as
    beta_dir falls to 0.5 and comes back below it.

    The root sigma_c is found first on the closed form
    (:func:`eta_analytic`), in a fraction of a millisecond: a Brent search
    for the hump's peak on [1e-6, 30], then the root between the peak and
    the end of that range on the branch's side.  Lossless, eta is that
    closed form and sigma_c is the answer.  Lossy, the root of the numeric
    eta on the policy grid (:func:`_eta_kernel`) lies within a few 1e-6
    of sigma_c, relative, and is polished from it: one Newton step with
    the closed form's slope at sigma_c, then secant steps on the numeric
    mismatch.  Each iterate is held within 20 % of sigma_c, on the
    branch's side of the peak and above sigma = 0.005, below which the
    policy grid grows past 300 000 samples.  The last evaluated width is
    returned once the next step is at most 5e-13, half the root tolerance
    1e-12: two numeric evaluations per solve on the lower branch (one at
    some beta_dir below 0.6, where the Newton step is already that short),
    two to four on the upper.

    Raises
    ------
    NoCrossingError
        If the hump never reaches eps_1^2 / 2 for these emitter parameters,
        the branch's root lies below sigma = 0.005, or the polish finds no
        numeric root within 20 % of sigma_c in eight numeric evaluations;
        its ``branch`` names the branch.

    Notes
    -----
    Each numeric width is sampled on its own policy grid, which above
    sigma = 0.005 is always affordable.  Kept for the benchmark's numeric
    checks alone, until they move onto :func:`matching_width` (ROADMAP item
    2c); no library path calls it.
    """
    if branch not in ("lower", "upper"):
        raise ValueError(f"branch must be 'lower' or 'upper', got {branch!r}")

    def closed(sigma: float) -> float:
        return (eta_analytic(p, sigma)
                - 0.5 * epsilon1_analytic(p, sigma) ** 2)

    def mismatch(sigma: float) -> float:
        return (_eta_kernel((p,), sigma)[0]
                - 0.5 * epsilon1_analytic(p, sigma) ** 2)

    try:
        peak, peak_val = golden_max(closed, _SIGMA_MIN, _SIGMA_HI, xtol=1e-6)
        if peak_val <= 0.0:
            raise NoCrossingError(
                f"matching condition unreachable at "
                f"beta_dir={p.beta_dir:.4f}: "
                f"max(eta - eps1^2/2) = {peak_val:.3e}"
            )
        if branch == "lower":
            if closed(_SIGMA_MIN) > 0.0:
                raise NoCrossingError(
                    f"no sign change above the width floor {_SIGMA_LO:g}: "
                    f"the closed-form lower root lies below sigma = "
                    f"{_SIGMA_MIN:g}")
            root = bisect(closed, _SIGMA_MIN, peak, xtol=_XTOL)
            lo, hi = _SIGMA_LO, peak
        else:
            root = bisect(closed, peak, _SIGMA_HI, xtol=_XTOL)
            lo, hi = peak, np.inf
        if root < _SIGMA_LO:
            raise NoCrossingError(
                f"no sign change above the width floor {_SIGMA_LO:g}: the "
                f"closed-form {branch} root is sigma = {root:.6g}")
        if p.gamma_loss == 0.0:
            return root
        # a Newton step with the closed form's slope, then secant steps
        lo = max(lo, (1.0 - _REACH) * root)
        hi = min(hi, (1.0 + _REACH) * root)
        dx = 1e-6 * root
        slope = (closed(root + dx) - closed(root - dx)) / (2.0 * dx)
        x, prev = root, None
        for _ in range(_POLISH_EVALS):
            fx = mismatch(x)
            if prev is not None:
                if fx == prev[1]:
                    break
                slope = (fx - prev[1]) / (x - prev[0])
            step = -fx / slope
            if abs(step) <= 0.5 * _XTOL:
                return x
            prev = x, fx
            x = min(max(x + step, lo), hi)
            if x == prev[0]:
                break
        raise NoCrossingError(
            f"no numeric {branch} root found within {_REACH:.0%} of the "
            f"closed-form root sigma = {root:.6g}")
    except NoCrossingError as exc:
        exc.branch = branch
        raise
