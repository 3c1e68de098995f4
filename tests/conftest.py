"""Shared fixtures: emitter parameters, matched pulses, cached circuit runs.

Circuit-level tests run on the default grid policy of the lossless matched
pulse (``SpectralGrid.for_pulse_width(sigma_up0)``: window 100.04, n 4001),
the grid ``tlsphot run`` samples that pulse on; quadrature errors there sit
near 1e-7, far below every asserted tolerance.  The lossy pulse
``pulse95`` shares that grid, so a test can mix the two pulses.  Tests
build their states with ``FewPhotonState.from_components`` and factored
pairs (``FactoredPair.product``): a dense pair there would take 256 MB.
``random_state`` builds every pair as one factored term, symmetrized on a
same rail; it is used on small grids only.
Expensive end-to-end runs are session-scoped so the unit tests and the
acceptance suite share them.
"""

import sys

import numpy as np
import pytest

import tlsphot as tp
from tlsphot.pairs import FactoredPair
from tlsphot.states import FewPhotonState


def _refuse_sampling(*args, **kwargs):
    raise AssertionError("a pulse was sampled")


@pytest.fixture()
def no_sampling(monkeypatch):
    """make_pulse and resolved_size raise, in every tlsphot module that
    binds them: a closed-form path runs, a sampling one fails."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "tlsphot":
            for attr in ("make_pulse", "resolved_size"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, _refuse_sampling)


@pytest.fixture(scope="session")
def tls0():
    return tp.TlsParams()


@pytest.fixture(scope="session")
def tls95():
    return tp.TlsParams.from_beta(0.95)


@pytest.fixture(scope="session")
def sigma_up0(tls0):
    return tp.matching_width(tls0, "upper")


@pytest.fixture(scope="session")
def sigma_up95(tls95):
    return tp.matching_width(tls95, "upper")


@pytest.fixture(scope="session")
def circuit_grid(sigma_up0):
    return tp.SpectralGrid.for_pulse_width(sigma_up0)


@pytest.fixture(scope="session")
def pulse0(circuit_grid, sigma_up0):
    return tp.make_pulse(tp.PulseShape("lorentzian", sigma_up0), circuit_grid)


@pytest.fixture(scope="session")
def pulse95(circuit_grid, sigma_up95):
    return tp.make_pulse(tp.PulseShape("lorentzian", sigma_up95), circuit_grid)


def ns_input(grid, pulse, two_photon_sign=1.0):
    """(|0> + |1_f> + sign |2_f>)/sqrt(3) on a single rail."""
    amp = 1.0 / np.sqrt(3.0)
    return FewPhotonState.from_components(
        grid, ("sig",), amp, ones={"sig": amp * pulse.values},
        pairs={("sig", "sig"): two_photon_sign * amp
               * FactoredPair.product(pulse.values)})


def random_state(grid, rails, seed):
    """Normalized state with random content in every sector."""
    rng = np.random.default_rng(seed)
    n = grid.n_points

    def rvec():
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)

    vacuum = rng.standard_normal() + 1j * rng.standard_normal()
    ones = {r: rvec() for r in rails}
    pairs = {}
    for i, a in enumerate(rails):
        for b in rails[i:]:
            x, y = rvec(), rvec()
            # one term x(x) y(y); on a same rail its symmetrized form,
            # (x(x) y(y) + y(x) x(y)) / 2
            pairs[(a, b)] = FactoredPair([(1.0, x, y, None)],
                                         symmetric=a == b)
    total = FewPhotonState.from_components(grid, rails, vacuum, ones,
                                           pairs).surviving_norm_sq()
    scale = 1.0 / np.sqrt(total)
    return FewPhotonState.from_components(
        grid, rails, vacuum * scale,
        {r: v * scale for r, v in ones.items()},
        {k: v * scale for k, v in pairs.items()})


@pytest.fixture(scope="session")
def bell_reports0(circuit_grid, tls0, pulse0):
    return {which: tp.bell_analyzer(tp.bell_state(circuit_grid, pulse0, which),
                                    tls0, pulse0)
            for which in ("psi+", "psi-", "phi+", "phi-")}


@pytest.fixture(scope="session")
def bell_reports95(circuit_grid, tls95, pulse95):
    return {which: tp.bell_analyzer(tp.bell_state(circuit_grid, pulse95, which),
                                    tls95, pulse95)
            for which in ("psi+", "psi-", "phi+", "phi-")}


@pytest.fixture(scope="session")
def cz_basis_reports0(circuit_grid, tls0, pulse0):
    reports = {}
    for basis in tp.circuits.LOGICAL_BASIS:
        state = tp.logical_state(circuit_grid, pulse0, {basis: 1.0})
        reports[basis] = tp.cz_gate(state, tls0, pulse0)
    return reports


@pytest.fixture(scope="session")
def cz_super_report0(circuit_grid, tls0, pulse0):
    state = tp.logical_state(circuit_grid, pulse0,
                             {b: 0.5 for b in tp.circuits.LOGICAL_BASIS})
    return tp.cz_gate(state, tls0, pulse0)


@pytest.fixture(scope="session")
def cz_super_report95(circuit_grid, tls95, pulse95):
    state = tp.logical_state(circuit_grid, pulse95,
                             {b: 0.5 for b in tp.circuits.LOGICAL_BASIS})
    return tp.cz_gate(state, tls95, pulse95, compensate=True)


@pytest.fixture(scope="session")
def cz_super_report95_skewed(circuit_grid, tls95, pulse95):
    state = tp.logical_state(circuit_grid, pulse95,
                             {b: 0.5 for b in tp.circuits.LOGICAL_BASIS})
    return tp.cz_gate(state, tls95, pulse95, compensate=False)
