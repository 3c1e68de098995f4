"""Detuning-space discretization and one/two-photon spectral amplitudes.

Everything works in the detuning variable ``delta = c*k - omega_0`` measured
in units of the waveguide coupling rate (Gamma = 1 by default).  Pulses and
photon amplitudes are sampled on a uniform grid, symmetric about delta = 0 so
that the time-reversal map delta -> -delta permutes samples.  Inner products
are trapezoid-rule quadratures; accuracy is controlled by the resolution
bounds checked in :func:`make_pulse` and by grid-refinement checks rather
than by higher-order rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .pairs import FactoredPair, inner, is_finite, norm_sq


class GridMismatchError(ValueError):
    """Two amplitudes that must share a grid do not."""


class ResolutionError(ValueError):
    """A pulse is not resolved by the grid it is sampled on."""


# Resolution bounds enforced when sampling a pulse: at least this many samples
# per spectral width, and a window at least this many widths wide.
SAMPLES_PER_WIDTH = 10
WINDOW_WIDTHS = 25

# The default policy uses a wider window than the minimum: the bound-term
# spectral tails truncate like (width/delta_max)^3, and 25 widths leaves that
# truncation above the accuracy the headline scalars are held to.
DEFAULT_WINDOW_WIDTHS = 80
DEFAULT_N_POINTS = 4001


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform detuning grid, symmetric about zero, with trapezoid weights.

    Parameters
    ----------
    delta_max : float
        Half-width of the window; samples run over [-delta_max, delta_max].
    n_points : int
        Number of samples.  Must be odd so that delta = 0 is a sample and the
        mirror map delta -> -delta lands on samples.
    """

    delta_max: float
    n_points: int = DEFAULT_N_POINTS
    samples: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.delta_max <= 0:
            raise ValueError(f"delta_max must be positive, got {self.delta_max}")
        if self.n_points < 3 or self.n_points % 2 == 0:
            raise ValueError(
                f"n_points must be odd and >= 3, got {self.n_points}"
            )
        samples = np.linspace(-self.delta_max, self.delta_max, self.n_points)
        h = samples[1] - samples[0]
        weights = np.full(self.n_points, h)
        weights[0] *= 0.5
        weights[-1] *= 0.5
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "weights", weights)

    @property
    def spacing(self) -> float:
        return self.samples[1] - self.samples[0]

    @property
    def delta_min(self) -> float:
        return -self.delta_max

    @classmethod
    def for_pulse_width(cls, width: float, rate_scale: float = 1.0,
                        n_points: int | None = None,
                        delta_max: float | None = None) -> "SpectralGrid":
        """Default grid policy for a pulse of spectral width ``width``.

        The window is max(80*width, 80*rate_scale) and the sample count is
        ``DEFAULT_N_POINTS``, increased (kept odd) when needed to satisfy the
        spacing bound h <= width/10.
        """
        if width <= 0:
            raise ValueError(f"width must be positive, got {width}")
        if delta_max is None:
            delta_max = max(DEFAULT_WINDOW_WIDTHS * width,
                            DEFAULT_WINDOW_WIDTHS * rate_scale)
        if n_points is None:
            n_points = DEFAULT_N_POINTS
            h_needed = width / SAMPLES_PER_WIDTH
            n_min = int(np.ceil(2.0 * delta_max / h_needed)) + 1
            if n_min > n_points:
                n_points = n_min + 1 if n_min % 2 == 0 else n_min
        return cls(delta_max=delta_max, n_points=n_points)

    def refine(self, factor: int = 2) -> "SpectralGrid":
        """Same window with spacing divided by ``factor`` (n -> factor*(n-1)+1)."""
        return SpectralGrid(self.delta_max, factor * (self.n_points - 1) + 1)

    def require_same(self, other: "SpectralGrid") -> None:
        if (self.n_points != other.n_points
                or self.delta_max != other.delta_max):
            raise GridMismatchError(
                f"grids differ: ({self.delta_max}, {self.n_points}) vs "
                f"({other.delta_max}, {other.n_points})"
            )


@dataclass(frozen=True)
class PulseShape:
    """Spectral pulse family: 'lorentzian' or 'gaussian', width and center."""

    kind: str
    width: float
    center: float = 0.0

    def __post_init__(self):
        if self.kind not in ("lorentzian", "gaussian"):
            raise ValueError(f"unknown pulse kind {self.kind!r}")
        if self.width <= 0:
            raise ValueError(f"width must be positive, got {self.width}")


@dataclass
class OnePhotonAmp:
    """Complex spectral amplitude of a single photon on a grid."""

    grid: SpectralGrid
    values: np.ndarray

    def norm_sq(self) -> float:
        return float(np.sum(self.grid.weights * np.abs(self.values) ** 2))


@dataclass
class TwoPhotonAmp:
    """Symmetric complex two-photon spectral amplitude psi(delta_1, delta_2).

    ``values`` is a dense N x N array or a factored
    :class:`~tlsphot.pairs.FactoredPair`.  The squared ket norm is the
    discrete double integral of |psi|^2; a pair of identical photons in a
    unit-norm mode f has psi = f(x)f(y) with norm 1.
    """

    grid: SpectralGrid
    values: np.ndarray

    def norm_sq(self) -> float:
        return norm_sq(self.values, self.grid.weights)


# tile edge of the blocked symmetry check.  The whole N x N difference would
# take 256 MB at n = 4001; 64 x 64 tiles (64 KB temporaries) are as fast as
# larger ones and, unlike 512-wide tiles (5 MB more), leave peak RSS as is.
_SYMMETRY_TILE = 64


def require_symmetric(values: np.ndarray, tol: float = 1e-10) -> None:
    """Raise if a two-photon array is not (numerically) exchange symmetric,
    max |A - A^T| > tol * max |A|, or holds NaN or inf.

    Upper-triangle tiles are compared with the transposed lower tiles, so no
    N x N temporary is allocated.  A factored pair must be symmetric by
    construction (its ``symmetric`` flag).
    """
    if isinstance(values, FactoredPair):
        if not is_finite(values):
            raise ValueError("two-photon amplitude holds non-finite values")
        if not values.symmetric:
            raise ValueError("factored two-photon amplitude is not exchange "
                             "symmetric by construction")
        return
    n = values.shape[0]
    if values.shape != (n, n):
        raise ValueError(
            f"two-photon amplitude must be square, got shape {values.shape}")
    t = _SYMMETRY_TILE
    scale = dev = 0.0
    # np.maximum, unlike max(), carries a NaN through; inf - inf is a NaN
    with np.errstate(invalid="ignore"):
        for i in range(0, n, t):
            for j in range(i, n, t):
                upper = values[i:i + t, j:j + t]
                lower = values[j:j + t, i:i + t]
                scale = np.maximum(scale, np.max(np.abs(upper)))
                if j != i:
                    scale = np.maximum(scale, np.max(np.abs(lower)))
                dev = np.maximum(dev, np.max(np.abs(upper - lower.T)))
    if not (np.isfinite(scale) and np.isfinite(dev)):
        raise ValueError("two-photon amplitude holds non-finite values")
    if scale == 0.0:
        return
    if dev > tol * scale:
        raise ValueError(
            f"two-photon amplitude is not symmetric: max deviation {dev:.3e} "
            f"against scale {scale:.3e}"
        )


def lorentzian_values(grid: SpectralGrid, width: float,
                      center: float = 0.0) -> np.ndarray:
    """Lorentzian amplitude sqrt(2 sigma^3 / pi) / (sigma^2 + (d - d0)^2)."""
    d = grid.samples
    return (np.sqrt(2.0 * width**3 / np.pi)
            / (width**2 + (d - center) ** 2)).astype(complex)


def gaussian_values(grid: SpectralGrid, width: float,
                    center: float = 0.0) -> np.ndarray:
    """Unit-L2-norm Gaussian amplitude with rms intensity width ``width``."""
    d = grid.samples
    return ((2.0 * np.pi * width**2) ** -0.25
            * np.exp(-((d - center) ** 2) / (4.0 * width**2))).astype(complex)


def make_pulse(shape: PulseShape, grid: SpectralGrid) -> OnePhotonAmp:
    """Sample a pulse shape on a grid and renormalize to unit discrete norm.

    Raises
    ------
    ResolutionError
        If the grid spacing exceeds width/10 or the window is narrower than
        25 widths (bounds that keep the quadratures convergent).
    """
    h = grid.spacing
    # the 1e-9 slack keeps exact boundary grids from failing to rounding
    if h > shape.width / SAMPLES_PER_WIDTH * (1.0 + 1e-9):
        raise ResolutionError(
            f"grid too coarse: spacing {h:.4g} exceeds width/"
            f"{SAMPLES_PER_WIDTH} = {shape.width / SAMPLES_PER_WIDTH:.4g}"
        )
    if grid.delta_max < WINDOW_WIDTHS * shape.width * (1.0 - 1e-9):
        raise ResolutionError(
            f"window too narrow: delta_max {grid.delta_max:.4g} is below "
            f"{WINDOW_WIDTHS}*width = {WINDOW_WIDTHS * shape.width:.4g}"
        )
    if shape.kind == "lorentzian":
        values = lorentzian_values(grid, shape.width, shape.center)
    else:
        values = gaussian_values(grid, shape.width, shape.center)
    amp = OnePhotonAmp(grid, values)
    return normalize(amp)


def normalize(a: OnePhotonAmp) -> OnePhotonAmp:
    n = np.sqrt(a.norm_sq())
    if n == 0.0:
        raise ValueError("cannot normalize a zero amplitude")
    return OnePhotonAmp(a.grid, a.values / n)


def inner1(a: OnePhotonAmp, b: OnePhotonAmp) -> complex:
    """Discrete <a|b> = sum_i w_i conj(a_i) b_i."""
    a.grid.require_same(b.grid)
    return complex(np.sum(a.grid.weights * np.conj(a.values) * b.values))


def inner2(a: TwoPhotonAmp, b: TwoPhotonAmp) -> complex:
    """Discrete <a|b> = sum_ij w_i w_j conj(a_ij) b_ij."""
    a.grid.require_same(b.grid)
    return inner(a.values, b.values, a.grid.weights)


def product_state(f: OnePhotonAmp) -> TwoPhotonAmp:
    """Two identical photons in mode f: psi(x, y) = f(x) f(y)."""
    return TwoPhotonAmp(f.grid, np.outer(f.values, f.values))


def time_reverse(a):
    """Spectral inversion delta -> -delta (a sample permutation).

    Acts on either a :class:`OnePhotonAmp` or a :class:`TwoPhotonAmp`; the
    grid symmetry guarantees mirrored samples exist.  The global delay phase
    of a physical time reversal is dropped.
    """
    if isinstance(a, OnePhotonAmp):
        return OnePhotonAmp(a.grid, a.values[::-1].copy())
    if isinstance(a, TwoPhotonAmp):
        return TwoPhotonAmp(a.grid, a.values[::-1, ::-1].copy())
    raise TypeError(f"cannot time-reverse {type(a).__name__}")
