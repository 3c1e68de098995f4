"""Detuning-space discretization and one/two-photon spectral amplitudes.

Everything works in the detuning variable ``delta = c*k - omega_0`` measured
in units of the waveguide coupling rate Gamma (the unit, not a parameter).
Pulses and photon amplitudes are sampled on a uniform grid, symmetric about
delta = 0 so that the time-reversal map delta -> -delta permutes samples.
Inner products are trapezoid-rule quadratures; accuracy is controlled by the
resolution bounds checked in :func:`make_pulse` and by grid-refinement
checks rather than by higher-order rules.  Photon-pair amplitudes live in
:mod:`tlsphot.pairs` and take the grid's weights where they need them.

Time enters through one Fourier convention, psi(t) = (2 pi)^(-1/2) integral
f(delta) exp(-i delta t) d delta with t in units of 1/Gamma: a spectral phase
exp(i delta tau) delays a pulse by tau, so the emitter, whose t(delta) has its
pole at -i (gamma + 1) / 2, delays a resonant photon by 4 / (1 - gamma^2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# the dense symmetry check lives with the door; grid keeps its public name
from .pairs import require_symmetric  # noqa: F401


class GridMismatchError(ValueError):
    """Two amplitudes that must share a grid do not."""


class ResolutionError(ValueError):
    """A pulse is not resolved by the grid it is sampled on."""


class GridSizeError(ValueError):
    """A grid would hold more than :data:`MAX_N_POINTS` samples."""


# Resolution bounds enforced when sampling a pulse: at least this many samples
# per spectral width, and a window at least this many widths wide.
SAMPLES_PER_WIDTH = 10
WINDOW_WIDTHS = 25

# The default policy uses a wider window than the minimum: the bound-term
# spectral tails truncate like (width/delta_max)^3, and 25 widths leaves that
# truncation above the accuracy the headline scalars are held to.
DEFAULT_WINDOW_WIDTHS = 80
DEFAULT_N_POINTS = 4001

# The most samples a grid may have, 16 MB per real array, so that a width
# too narrow to afford is refused before anything is allocated.  The policy
# grid reaches it at widths just below 8e-4; the narrowest matching width,
# sigma = 0.005, needs 320 001 samples.
MAX_N_POINTS = 2_000_001


def _check_n_points(n_points: int) -> None:
    if n_points < 3 or n_points % 2 == 0:
        raise ValueError(f"n_points must be odd and >= 3, got {n_points}")
    if n_points > MAX_N_POINTS:
        raise GridSizeError(f"n_points {n_points} is above the maximum of "
                            f"{MAX_N_POINTS} samples")


def policy_size(width: float,
                n_points: int | None = None) -> tuple[float, int]:
    """(delta_max, n_points) of :meth:`SpectralGrid.for_pulse_width`'s grid,
    for callers that sample only part of it; it refuses the sizes
    :class:`SpectralGrid` refuses, and raises :class:`GridSizeError` for a
    width whose policy grid would exceed :data:`MAX_N_POINTS`."""
    if not 0.0 < width < np.inf:  # NaN fails every comparison
        raise ValueError(f"width must be positive and finite, got {width}")
    delta_max = DEFAULT_WINDOW_WIDTHS * max(width, 1.0)
    if n_points is None:
        n_points = DEFAULT_N_POINTS
        h_needed = width / SAMPLES_PER_WIDTH
        # bounded as a float first: a subnormal width gives h_needed = 0
        span = 2.0 * delta_max / h_needed if h_needed > 0.0 else np.inf
        if not span <= MAX_N_POINTS - 1:
            raise GridSizeError(
                f"width {width:g} needs {span + 1.0:.6g} samples on its "
                f"policy grid, above the maximum of {MAX_N_POINTS}")
        n_min = int(np.ceil(span)) + 1
        if n_min > n_points:
            n_points = n_min + 1 if n_min % 2 == 0 else n_min
    _check_n_points(n_points)
    return delta_max, n_points


def resolved_size(width: float,
                  n_points: int | None = None) -> tuple[float, int, float]:
    """(delta_max, n_points, spacing) of :func:`policy_size`'s grid, from the
    sizes alone: the spacing is the one :attr:`SpectralGrid.spacing` reports,
    and a grid that does not resolve ``width`` raises the
    :class:`ResolutionError` :func:`make_pulse` would raise on it."""
    delta_max, n_points = policy_size(width, n_points)
    # np.linspace's second sample is step - delta_max, so its spacing is
    # rounded twice
    h = (2.0 * delta_max / (n_points - 1) - delta_max) + delta_max
    _check_resolution(h, delta_max, width)
    return delta_max, n_points, h


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
        if not 0.0 < self.delta_max < np.inf:
            raise ValueError(f"delta_max must be positive and finite, "
                             f"got {self.delta_max}")
        _check_n_points(self.n_points)
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

    @classmethod
    def for_pulse_width(cls, width: float,
                        n_points: int | None = None) -> "SpectralGrid":
        """Default grid policy for a pulse of spectral width ``width``.

        The window is 80 * max(width, 1), so at least 80 Gamma, and the
        sample count is ``DEFAULT_N_POINTS``, increased (kept odd) when
        needed to satisfy the spacing bound h <= width/10.
        """
        return cls(*policy_size(width, n_points))

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
        if not 0.0 < self.width < np.inf:
            raise ValueError(f"width must be positive and finite, "
                             f"got {self.width}")
        if not np.isfinite(self.center):
            raise ValueError(f"center must be finite, got {self.center}")


@dataclass
class OnePhotonAmp:
    """Complex spectral amplitude of a single photon on a grid."""

    grid: SpectralGrid
    values: np.ndarray

    def norm_sq(self) -> float:
        return float(np.sum(self.grid.weights * np.abs(self.values) ** 2))


def lorentzian_values(grid: SpectralGrid, width: float,
                      center: float = 0.0) -> np.ndarray:
    """Lorentzian amplitude sqrt(2 sigma^3 / pi) / (sigma^2 + (d - d0)^2)."""
    return lorentzian_at(grid.samples, width, center).astype(complex)


def lorentzian_at(d: np.ndarray, width: float,
                  center: float = 0.0) -> np.ndarray:
    """:func:`lorentzian_values` at the detunings ``d``, as a real array."""
    return np.sqrt(2.0 * width**3 / np.pi) / (width**2 + (d - center) ** 2)


def gaussian_values(grid: SpectralGrid, width: float,
                    center: float = 0.0) -> np.ndarray:
    """Unit-L2-norm Gaussian amplitude with rms intensity width ``width``."""
    d = grid.samples
    return ((2.0 * np.pi * width**2) ** -0.25
            * np.exp(-((d - center) ** 2) / (4.0 * width**2))).astype(complex)


def _check_resolution(h: float, delta_max: float, width: float) -> None:
    """:func:`make_pulse`'s bounds on the spacing and the half-window."""
    # the 1e-9 slack keeps exact boundary grids from failing to rounding
    if h > width / SAMPLES_PER_WIDTH * (1.0 + 1e-9):
        raise ResolutionError(
            f"grid too coarse: spacing {h:.4g} exceeds width/"
            f"{SAMPLES_PER_WIDTH} = {width / SAMPLES_PER_WIDTH:.4g}")
    if delta_max < WINDOW_WIDTHS * width * (1.0 - 1e-9):
        raise ResolutionError(
            f"window too narrow: delta_max {delta_max:.4g} is below "
            f"{WINDOW_WIDTHS}*width = {WINDOW_WIDTHS * width:.4g}")


def make_pulse(shape: PulseShape, grid: SpectralGrid) -> OnePhotonAmp:
    """Sample a pulse shape on a grid and renormalize to unit discrete norm.

    Raises
    ------
    ResolutionError
        If the grid spacing exceeds width/10 or the window is narrower than
        25 widths (bounds that keep the quadratures convergent).
    """
    _check_resolution(grid.spacing, grid.delta_max, shape.width)
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

