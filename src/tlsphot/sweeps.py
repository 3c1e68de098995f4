"""Curve data for the distortion-overlap, loss and success figures."""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .roots import NoCrossingError
from .scatter import (
    TlsParams,
    _eta_kernel,
    epsilon1_analytic,
    epsilon_b_analytic,
    eta_analytic,
    matching_width,
)

DEFAULT_BETAS = (1.0, 0.95, 0.90)


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep: beta values and a spectral-width range."""

    # fig1b_table takes closed forms, about 20 us per width at the three
    # default betas on one core of a 2-core Xeon, so this is a run of a
    # fifth of a second; fig1b_data samples each lossy width, about 3 ms
    # per width.  A larger count is refused unsampled
    MAX_SIGMA_COUNT = 10_000  # unannotated: a constant, not a field

    beta_values: tuple = DEFAULT_BETAS
    sigma_range: tuple = (0.02, 5.0)
    sigma_count: int = 120

    def __post_init__(self):
        lo, hi = self.sigma_range
        # NaN fails every comparison
        if not 0.0 < lo < hi < np.inf:
            raise ValueError(f"bad sigma_range {self.sigma_range}")
        if not 2 <= self.sigma_count <= self.MAX_SIGMA_COUNT:
            raise ValueError(f"sigma_count must be in [2, "
                             f"{self.MAX_SIGMA_COUNT}], got {self.sigma_count}")
        if any(not 0.0 < b <= 1.0 for b in self.beta_values):
            raise ValueError(f"beta values must lie in (0, 1], "
                             f"got {self.beta_values}")

    def sigmas(self) -> np.ndarray:
        lo, hi = self.sigma_range
        return np.geomspace(lo, hi, self.sigma_count)


def fig1b_table(spec: SweepSpec) -> list:
    """Distortion overlap and half squared single-photon survival vs width.

    Rows hold (beta, sigma_over_gamma, eta, half_eps1_sq, is_crossing), all
    from the closed forms (:func:`eta_analytic`, :func:`epsilon1_analytic`):
    nothing is sampled.  The crossing flag marks rows where eta - eps_1^2/2
    changes sign before the next row, i.e. the sorting operating points.
    """
    sigmas = spec.sigmas()
    return _fig1b_rows(spec, sigmas, (
        [eta_analytic(TlsParams.from_beta(beta), s) for s in sigmas]
        for beta in spec.beta_values))


def fig1b_data(spec: SweepSpec) -> list:
    """:func:`fig1b_table`'s rows, with each lossy beta's eta sampled on the
    policy grid of each width (:func:`~tlsphot.scatter._eta_kernel`).  A
    width whose policy grid is too large raises GridSizeError, that of the
    lowest such width.

    Kept for the benchmark's numeric checks alone, until they move onto
    :func:`fig1b_table` (ROADMAP item 2c); no library path calls it.
    """
    sigmas = spec.sigmas()
    ps = [TlsParams.from_beta(beta) for beta in spec.beta_values]
    # widths first: one transform of each width's pulse serves every beta.
    # The helper thread runs the kernel alone, which calls nothing that the
    # benchmark's span tracer (one call stack, not thread-safe) wraps
    return _fig1b_rows(spec, sigmas, zip(*_from_both_ends(
        lambda s: _eta_kernel(ps, s), sigmas)))


def _fig1b_rows(spec: SweepSpec, sigmas, eta_columns) -> list:
    """fig1b's rows from one column of eta at ``sigmas`` per beta of
    ``spec``: eps_1^2 / 2 from its closed form, and the crossing flags."""
    rows = []
    for beta, etas in zip(spec.beta_values, eta_columns):
        p = TlsParams.from_beta(beta)
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


def _from_both_ends(fn, items) -> list:
    """``[fn(x) for x in items]``, the calling thread taking items from the
    front and one helper thread from the back until the two meet.

    fig1b's widths run narrowest first, and a narrow width's grid, time and
    memory grow as 1 / sigma, so the two ends meet at mid-sized grids and at
    most one large kernel is held at a time (numpy's FFTs release the GIL).
    Each result is stored at its index, so the list is the serial loop's.
    A failure at index i stops all claims above i; below it the caller
    runs on, so the exception raised is the serial loop's: the one of the
    lowest failing index.  ``fn`` runs on two threads at once.

    Kept unchanged for :func:`fig1b_data` alone, and goes with it (ROADMAP
    item 2c).
    """
    results = [None] * len(items)
    failures = {}
    lock = threading.Lock()
    ends = [0, len(items)]  # the next front index, one past the next back one

    def claim(front):
        while True:
            with lock:
                if ends[0] >= ends[1]:
                    return
                if front:
                    i = ends[0]
                    ends[0] += 1
                else:
                    ends[1] -= 1
                    i = ends[1]
            try:
                results[i] = fn(items[i])
            except BaseException as exc:
                with lock:
                    failures[i] = exc
                    ends[1] = min(ends[1], i)
                return

    helper = threading.Thread(target=claim, args=(False,))
    helper.start()
    try:
        claim(True)
    finally:
        helper.join()
    if failures:
        raise failures[min(failures)]
    return results


_FIGURES = ("sigma", "eps1", "eps_b", "bell_success", "cz_success",
            "two_photon_loss", "two_singles_loss")


def success_curves(spec: SweepSpec, branch: str = "upper") -> list:
    """Operating point and success/loss figures per directional beta factor.

    Each row holds the matched spectral width, the closed-form eps_1 and
    eps_b there, the Bell-measurement average success eps_b / 2, the CZ
    success eps_1^4, and the pair / two-single-photon loss probabilities,
    all exact: the width is :func:`matching_width`'s, and nothing is
    sampled.  Betas without a matching point are flagged, their figures
    NaN, instead of raising.
    """
    rows = []
    for beta in spec.beta_values:
        p = TlsParams.from_beta(beta)
        try:
            sigma = matching_width(p, branch)
        except NoCrossingError:
            rows.append({"beta": float(beta), "matched": False,
                         **dict.fromkeys(_FIGURES, float("nan"))})
            continue
        eps1 = epsilon1_analytic(p, sigma)
        eps_b = epsilon_b_analytic(p, sigma)
        figures = (sigma, eps1, eps_b, 0.5 * eps_b, eps1**4,
                   1.0 + eps1**2 - eps_b, 1.0 - eps1**2)
        rows.append({"beta": float(beta), "matched": True,
                     **dict(zip(_FIGURES, figures))})
    return rows


def fig3_data(spec: SweepSpec, branch: str = "upper") -> list:
    """Bell-measurement and CZ success probabilities vs beta: the
    :func:`success_curves` table's Fig. 3 columns."""
    return [{k: r[k] for k in ("beta", "bell_success", "cz_success",
                               "matched")}
            for r in success_curves(spec, branch)]
