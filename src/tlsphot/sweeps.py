"""Curve data for the distortion-overlap, loss and success figures."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import success_curves
from .grid import _check_n_points
from .scatter import TlsParams, _eta_of_sigma, epsilon1_analytic

DEFAULT_BETAS = (1.0, 0.95, 0.90)


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep: beta values, a spectral-width range, grid override."""

    beta_values: tuple = DEFAULT_BETAS
    sigma_range: tuple = (0.02, 5.0)
    sigma_count: int = 120
    n_points: int | None = None

    def __post_init__(self):
        lo, hi = self.sigma_range
        if lo <= 0 or hi <= lo:
            raise ValueError(f"bad sigma_range {self.sigma_range}")
        if any(not 0.0 < b <= 1.0 for b in self.beta_values):
            raise ValueError(f"beta values must lie in (0, 1], "
                             f"got {self.beta_values}")
        # checked here: a lossless figure takes closed forms, samples no
        # grid, and so would never refuse the size
        if self.n_points is not None:
            _check_n_points(self.n_points)

    def sigmas(self) -> np.ndarray:
        lo, hi = self.sigma_range
        return np.geomspace(lo, hi, self.sigma_count)


def fig1b_data(spec: SweepSpec) -> list:
    """Distortion overlap and half squared single-photon survival vs width.

    Rows hold (beta, sigma_over_gamma, eta, half_eps1_sq, is_crossing); the
    crossing flag marks rows where eta - eps_1^2/2 changes sign before the
    next row, i.e. the sorting operating points.
    """
    rows = []
    for beta in spec.beta_values:
        p = TlsParams.from_beta(beta)
        sigmas = spec.sigmas()
        etas = [_eta_of_sigma(p, s, spec.n_points) for s in sigmas]
        halves = [0.5 * epsilon1_analytic(p, s) ** 2 for s in sigmas]
        diffs = [e - h for e, h in zip(etas, halves)]
        for i, sigma in enumerate(sigmas):
            crossing = (i + 1 < len(sigmas)
                        and diffs[i] * diffs[i + 1] <= 0.0
                        and (diffs[i] != 0.0 or diffs[i + 1] != 0.0))
            rows.append({
                "beta": float(beta),
                "sigma_over_gamma": float(sigma),
                "eta": float(etas[i]),
                "half_eps1_sq": float(halves[i]),
                "is_crossing": bool(crossing),
            })
    return rows


def loss_curves(spec: SweepSpec, branch: str = "upper") -> list:
    """Pair and two-single-photon loss at the matched operating point."""
    rows = success_curves(spec.beta_values, branch=branch,
                          n_points=spec.n_points)
    return [{k: r[k] for k in ("beta", "matched", "sigma", "two_photon_loss",
                               "two_singles_loss")} for r in rows]


def fig3_data(spec: SweepSpec, branch: str = "upper") -> list:
    """Bell-measurement and CZ success probabilities vs beta."""
    rows = success_curves(spec.beta_values, branch=branch,
                          n_points=spec.n_points)
    return [{"beta": r["beta"], "bell_success": r["bell_success"],
             "cz_success": r["cz_success"], "matched": r["matched"]}
            for r in rows]
