"""The three benchmark workloads: seeded inputs, operations and output checks.

A workload builds its operating points once (``setup``) and then yields
passes of operations.  Each op carries a ``run`` callable (the timed part),
an optional ``prepare`` callable for inputs built outside the timer, and a
``check`` callable that compares the output with the references and
tolerances of the repository's test suite.  Every random choice comes from
the ``random.Random`` the caller seeds, so a seed fixes every input.

Checks return ``(name, deviation, ok)`` triples: ``ok`` applies the test
suite's own comparison and ``deviation`` is the distance from the reference
that feeds ``ref_err_max``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np


@dataclass
class Op:
    kind: str
    run: object
    check: object
    prepare: object = None


@dataclass
class Point:
    """Matched operating point: emitter, pulse and closed-form references."""

    beta: float
    p: object
    pulse: object
    eps1: float
    eps_b: float


def lorentzian(tp, sigma, grid=None):
    """Lorentzian pulse of width sigma, on the default grid policy's grid."""
    if grid is None:
        grid = tp.SpectralGrid.for_pulse_width(sigma)
    return tp.make_pulse(tp.PulseShape("lorentzian", sigma), grid)


def operating_point(tp, beta, grid=None):
    p = tp.TlsParams.from_beta(beta)
    sigma = tp.matching_sigma(p, "upper")
    pulse = lorentzian(tp, sigma, grid)
    return Point(beta, p, pulse, tp.epsilon1_analytic(p, sigma),
                 tp.epsilon_b_analytic(p, sigma))


def _phase(rng):
    return cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


def _near(name, got, want, tol):
    dev = abs(got - want)
    return (name, dev, dev <= tol)


def _total_probability(state):
    # acceptance criterion 10: |total_probability - 1| < 1e-3
    dev = abs(state.total_probability() - 1.0)
    return ("total_probability", dev, dev < 1e-3)


# -- circuits-n1201 ----------------------------------------------------------

CIRCUIT_GRID = (60.0, 1201)  # the test suite's circuit grid
R2 = 1.0 / math.sqrt(2.0)
BELL = {  # logical amplitudes (0 = lower rail), as in circuits.bell_state
    "psi+": {(0, 1): R2, (1, 0): R2},
    "psi-": {(0, 1): R2, (1, 0): -R2},
    "phi+": {(0, 0): R2, (1, 1): R2},
    "phi-": {(0, 0): R2, (1, 1): -R2},
}
BASIS = ((0, 0), (0, 1), (1, 0), (1, 1))
CZ_SIGNS = {(0, 0): 1.0, (0, 1): -1.0, (1, 0): 1.0, (1, 1): 1.0}


def circuits_setup(tp, rng):
    grid = tp.SpectralGrid(*CIRCUIT_GRID)
    lossy = rng.uniform(0.90, 0.98)
    return {"points": [operating_point(tp, 1.0, grid),
                       operating_point(tp, lossy, grid)],
            "inputs": {"lossy_beta": lossy}}


def _bell_op(tp, pt, which, phase):
    amps = {b: phase * a for b, a in BELL[which].items()}

    def run():
        state = tp.logical_state(pt.pulse.grid, pt.pulse, amps)
        return tp.bell_analyzer(state, pt.p, pt.pulse)

    def check(report):
        # acceptance criterion 6 and its beta = 1 pattern confinement
        if which.startswith("psi"):
            want = pt.eps1**2
        else:
            want = pt.eps_b - pt.eps1**2
        out = [_near("bell_success", report.success_prob, want, 1e-3),
               _total_probability(report.output_state)]
        if pt.beta == 1.0:
            off = sum(prob for d, prob in report.pattern_probs.items()
                      if d not in tp.BELL_PATTERNS[which])
            out.append(("bell_off_target", off, off < 1e-3))
        return out

    return Op("bell", run, check)


def _cz_op(tp, pt, amps):
    def run():
        state = tp.logical_state(pt.pulse.grid, pt.pulse, amps)
        return tp.cz_gate(state, pt.p, pt.pulse)

    def check(report):
        # acceptance criterion 8
        got = report.logical_amplitudes
        out = [_total_probability(report.output_state)]
        if pt.beta < 1.0:
            out.append(_near("cz_success", report.success_prob,
                             pt.eps1**4, 1e-3))
            for b, a in amps.items():
                out.append(_near("cz_amplitude", abs(got[b]) / abs(a),
                                 pt.eps1**2, 1e-3))
        elif len(amps) == 1:
            (basis, a), = amps.items()
            out.append(_near("cz_sign", (got[basis] / a).real,
                             CZ_SIGNS[basis], 1e-3))
            for other, g in got.items():
                if other != basis:
                    out.append(("cz_leak", abs(g), abs(g) < 1e-6))
        else:
            fid = report.fidelity_to_target
            out.append(("cz_fidelity", 1.0 - fid, fid >= 0.999))
        return out

    return Op("cz", run, check)


def circuits_pass(tp, ctx, rng, index):
    ops = []
    for pt in ctx["points"]:
        for which in BELL:
            ops.append(_bell_op(tp, pt, which, _phase(rng)))
        for basis in BASIS:
            ops.append(_cz_op(tp, pt, {basis: _phase(rng)}))
        # moduli kept away from zero so the per-amplitude ratio is defined
        raw = {b: rng.uniform(0.5, 1.0) * _phase(rng) for b in BASIS}
        norm = math.sqrt(sum(abs(a) ** 2 for a in raw.values()))
        ops.append(_cz_op(tp, pt, {b: a / norm for b, a in raw.items()}))
    return ops


# -- ns-n4001 ----------------------------------------------------------------

NS_LOSSY = 2  # lossy operating points solved at set-up, used in turn


def ns_setup(tp, rng):
    lossy = [rng.uniform(0.90, 0.98) for _ in range(NS_LOSSY)]
    points = [operating_point(tp, 1.0)]
    points += [operating_point(tp, b) for b in lossy]
    if any(pt.pulse.grid.n_points != 4001 for pt in points):
        raise RuntimeError("ns-n4001 expects the default n = 4001 grid")
    return {"points": points, "inputs": {"lossy_betas": lossy}}


def ns_input(tp, pulse, amp, pair_sign=1.0):
    """amp * (|0> + |1_f> + pair_sign |2_f>) on one rail, as in the tests."""
    state = tp.FewPhotonState.vacuum(pulse.grid, ("sig",))
    state.vacuum_amp = amp
    state.one_photon["sig"] = amp * pulse.values
    state.two_photon[("sig", "sig")] = (pair_sign * amp
                                        * np.outer(pulse.values, pulse.values))
    return state


def _ns_op(tp, pt, amp):
    held = {}

    def prepare():
        held["state"] = ns_input(tp, pt.pulse, amp)

    def run():
        return tp.ns_gate(held.pop("state"), "sig", pt.p, pt.pulse)

    def check(out):
        checks = [_total_probability(out)]
        if pt.beta == 1.0:
            # acceptance criterion 7
            fid = tp.fidelity(out, ns_input(tp, pt.pulse, amp, -1.0))
            checks.append(("ns_fidelity", 1.0 - fid, fid >= 0.999))
            return checks
        # lossy pair and single-photon coefficients, as in test_circuits
        w = pt.pulse.grid.weights
        u = w * pt.pulse.values.conj()
        pair = complex(u @ out.two_photon[("sig", "sig")] @ u) / amp
        one = complex((u * out.one_photon["sig"]).sum()) / amp
        checks.append(_near("ns_pair_coeff", abs(pair), pt.eps1**2, 1e-3))
        checks.append(("ns_pair_sign", max(pair.real, 0.0), pair.real < 0))
        checks.append(_near("ns_single_coeff", one.real, pt.eps1, 1e-3))
        return checks

    return Op("ns", run, check, prepare)


def ns_pass(tp, ctx, rng, index):
    points = ctx["points"]
    lossy = points[1 + index % NS_LOSSY]
    return [_ns_op(tp, pt, _phase(rng) / math.sqrt(3.0))
            for pt in (points[0], lossy)]


# -- scalar-sweep ------------------------------------------------------------

BETA_RANGE = (0.80, 0.99)
FIG1B_SIGMAS = 50
FIG3_LOSSY = 8


def _strata(rng, k):
    """k betas, one uniform draw from each of k equal slices of BETA_RANGE.

    Matching cost varies with beta, so stratifying keeps the work per pass
    nearly the same for every seed while every value still differs.
    """
    lo, hi = BETA_RANGE
    step = (hi - lo) / k
    return [lo + step * (i + rng.random()) for i in range(k)]


def scalar_setup(tp, rng):
    return {"inputs": {}}


def _matching_op(tp, beta, branch):
    p = tp.TlsParams.from_beta(beta)

    def run():
        return tp.matching_sigma(p, branch)

    def check(sigma):
        # acceptance criterion 2: the root satisfies eta = eps1^2 / 2
        resid = abs(tp.eta_numeric(p, lorentzian(tp, sigma))
                    - 0.5 * tp.epsilon1_analytic(p, sigma) ** 2)
        return [("matching_residual", resid, resid < 1e-10)]

    return Op("matching_" + branch, run, check)


def _fig1b_op(tp, betas, sigma_range):
    spec = tp.SweepSpec(beta_values=tuple(betas), sigma_range=sigma_range,
                        sigma_count=FIG1B_SIGMAS)

    def run():
        return tp.fig1b_data(spec)

    def check(rows):
        # spot check the middle row of each beta, as in test_sweeps
        out = [("fig1b_rows", abs(len(rows) - len(betas) * FIG1B_SIGMAS),
                len(rows) == len(betas) * FIG1B_SIGMAS)]
        for beta in betas:
            mine = [r for r in rows if r["beta"] == beta]
            mid = mine[len(mine) // 2]
            sigma = mid["sigma_over_gamma"]
            p = tp.TlsParams.from_beta(beta)
            out.append(_near("fig1b_eta", mid["eta"],
                             tp.eta_numeric(p, lorentzian(tp, sigma)), 1e-12))
            out.append(_near("fig1b_half_eps1_sq", mid["half_eps1_sq"],
                             0.5 * tp.epsilon1_analytic(p, sigma) ** 2,
                             1e-12))
        return out

    return Op("fig1b", run, check)


def _fig3_op(tp, betas):
    spec = tp.SweepSpec(beta_values=tuple(betas))

    def run():
        return tp.fig3_data(spec)

    def check(rows):
        # acceptance criterion 9 and test_sweeps' lossless limit
        out = []
        rows = sorted(rows, key=lambda r: r["beta"])
        for r in rows:
            out.append(("fig3_matched", 0.0 if r["matched"] else 1.0,
                        r["matched"]))
            if r["beta"] == 1.0:
                out.append(_near("fig3_bell_lossless", r["bell_success"],
                                 1.0, 1e-9))
                out.append(_near("fig3_cz_lossless", r["cz_success"],
                                 1.0, 1e-9))
            else:
                gap = r["cz_success"] - r["bell_success"]
                out.append(("fig3_bell_above_cz", max(gap, 0.0), gap < 0))
        for key in ("bell_success", "cz_success"):
            for a, b in zip(rows, rows[1:]):
                drop = a[key] - b[key]
                out.append(("fig3_monotone", max(drop, 0.0),
                            a[key] <= b[key] + 1e-9))
        return out

    return Op("fig3", run, check)


def scalar_pass(tp, ctx, rng, index):
    # Sorted by latency a pass reads upper, lower, fig1b, fig3 (two, four,
    # one and one ops).  As many ops below the lower-branch solves as above
    # them puts the run's median in their middle, and with seven passes the
    # tail rank (10 ops from the top) sits in the middle of the fig1b calls.
    ops = [_matching_op(tp, b, "lower") for b in _strata(rng, 4)]
    ops += [_matching_op(tp, b, "upper") for b in _strata(rng, 2)]
    sigma_range = (rng.uniform(0.020, 0.022), rng.uniform(4.5, 5.0))
    ops.append(_fig1b_op(tp, _strata(rng, 2), sigma_range))
    ops.append(_fig3_op(tp, [1.0] + _strata(rng, FIG3_LOSSY)))
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    make_pass: object
    # Seconds one pass takes on the reference machine (README.md).  A run
    # makes max(min_passes, ceil(seconds / pass_seconds)) passes, so its op
    # count and mix depend only on --seconds, not on the code under test.
    pass_seconds: float
    # circuits needs two passes for its median and tail ranks to fall
    # inside clusters of like ops rather than on the gap between two
    min_passes: int = 1

    def passes(self, seconds):
        return max(self.min_passes, math.ceil(seconds / self.pass_seconds))


WORKLOADS = {
    w.name: w for w in (
        Workload("circuits-n1201", circuits_setup, circuits_pass, 19.0, 2),
        Workload("ns-n4001", ns_setup, ns_pass, 8.8),
        Workload("scalar-sweep", scalar_setup, scalar_pass, 3.3),
    )
}
