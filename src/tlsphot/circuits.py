"""The four devices: photon sorter, Bell analyzer, sign gate, CZ gate.

Dual-rail conventions
---------------------
Qubit Q1 lives on rails ("q1u", "q1l"), Q2 on ("q2u", "q2l").  Logical 0 is
the photon in the *lower* rail.  (The opposite assignment, logical 0 in the
upper rail, is equally common; only the labels differ here, the rails and
signs do not; translate accordingly when comparing.)  The
controlled-sign interaction flips
the sign of exactly one basis state: Q1 photon in the lower rail together
with Q2 photon in the upper rail, i.e. logical (0, 1) here.  Those two rails
are the ones that enter the central interferometer of the CZ gate.

Bell analyzer network
---------------------
The analyzer combines corresponding rails of the two qubits on 50/50
beamsplitters, sorts all four outputs, sends the sum-frequency (single
photon) outputs to detectors 1-4 and interferes the original-frequency
(photon pair) outputs in a second pair of 50/50 layers onto detectors 5-8.
The beamsplitter phases are frozen here such that the four Bell states light
up disjoint detector pairs:

    psi+ -> (1,4) or (2,3)     psi- -> (1,2) or (3,4)
    phi+ -> (5,8) or (6,7)     phi- -> (5,7) or (6,8)

Detectors 1-4 are the sum-frequency rails of q1u, q1l, q2u, q2l; detectors
5-8 are the original-frequency rails q1u, q1l, q2u, q2l after the output
network.  Failures with a lossy emitter are heralded: the missing photons'
probability sits in lost_mass rather than in any conclusive pattern.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .grid import OnePhotonAmp, SpectralGrid, normalize
from .pairs import FactoredPair, projector, shared
from .modeops import (
    PulseGateSpec,
    component_phase_loss,
    gem_invert,
    sfg_extract,
    sfg_reverse,
)
from .scatter import (
    TlsParams,
    epsilon_b_numeric,
    eta_numeric,
    scatter_one,
)
from .states import (
    FewPhotonState,
    apply_tls,
    beamsplitter,
    loss_channel,
    project_detection,
)

RAILS4 = ("q1u", "q1l", "q2u", "q2l")

# logical basis per qubit: 0 = photon in the lower rail, 1 = upper rail
_QUBIT_RAILS = {"q1": {0: "q1l", 1: "q1u"}, "q2": {0: "q2l", 1: "q2u"}}
LOGICAL_BASIS = ((0, 0), (0, 1), (1, 0), (1, 1))
CZ_SIGNS = {(0, 0): 1.0, (0, 1): -1.0, (1, 0): 1.0, (1, 1): 1.0}

BELL_DETECTORS = {
    "q1u@sum": 1, "q1l@sum": 2, "q2u@sum": 3, "q2l@sum": 4,
    "q1u": 5, "q1l": 6, "q2u": 7, "q2l": 8,
}
BELL_PATTERNS = {
    "psi+": frozenset({(1, 4), (2, 3)}),
    "psi-": frozenset({(1, 2), (3, 4)}),
    "phi+": frozenset({(5, 8), (6, 7)}),
    "phi-": frozenset({(5, 7), (6, 8)}),
}


@dataclass
class CircuitReport:
    output_state: FewPhotonState
    success_prob: float
    fidelity_to_target: float
    lost_mass: float
    pattern_probs: dict
    logical_amplitudes: dict | None = None


def make_pump(p: TlsParams, pulse: OnePhotonAmp) -> PulseGateSpec:
    """Pulse-gate pump for sorting after one emitter pass: t(delta) f(delta).

    t f is normalized unless its norm is within 4 eps of 1 (a lossless
    emitter): then it is kept as it is, the array the scattered pair holds
    as its factor, so the pulse gate's terms merge with the pair's.  Each
    array is made once per emitter and pulse (:func:`pairs.shared`).
    """
    mode = scatter_one(p, pulse).out
    if abs(np.sqrt(mode.norm_sq()) - 1.0) > 4.0 * np.finfo(float).eps:
        mode = OnePhotonAmp(mode.grid, shared(
            "unit", (mode.values, mode.grid.weights),
            lambda: normalize(mode).values))
    return PulseGateSpec(pump_mode=mode)


def matching_residual(p: TlsParams, pulse: OnePhotonAmp) -> float:
    """How far the pulse is from the sorting condition eta = eps_1^2 / 2."""
    eps1 = scatter_one(p, pulse).epsilon1
    return abs(eta_numeric(p, pulse) - 0.5 * eps1**2)


def _sorters(state: FewPhotonState, rails, p: TlsParams,
             pulse: OnePhotonAmp) -> FewPhotonState:
    """A sorter on each of ``rails``, all at one operating point: one
    matching check, warned at the device's caller, and one pump."""
    res = matching_residual(p, pulse)
    if res > 1e-3:
        warnings.warn(
            f"pulse is off the sorting condition by {res:.3e}; "
            "the pair component will partially convert", stacklevel=3)
    pump = make_pump(p, pulse)
    for rail in rails:
        state = sfg_extract(apply_tls(state, rail, p), rail, pump)
    return state


def photon_sorter(state: FewPhotonState, rail: str, p: TlsParams,
                  pulse: OnePhotonAmp) -> FewPhotonState:
    """Emitter pass followed by the pulse gate on ``rail``.

    At the matching point the single-photon content emerges on the
    sum-frequency rail and the photon-pair content stays behind at the
    original frequency.  Off the matching point sorting is imperfect; a
    warning reports the residual.
    """
    return _sorters(state, (rail,), p, pulse)


def logical_state(grid: SpectralGrid, pulse: OnePhotonAmp,
                  amplitudes: dict) -> FewPhotonState:
    """Two-qubit dual-rail state with given logical amplitudes.

    ``amplitudes`` maps (b1, b2) logical labels to complex coefficients; each
    basis state is a photon pair in the pulse mode on the corresponding
    rails, held as one factored term coef f(x) f(y).
    """
    for key in amplitudes:
        if key not in LOGICAL_BASIS:
            raise ValueError(f"logical label {key!r} is not one of "
                             f"{LOGICAL_BASIS}")
    ff = FactoredPair.product(pulse.values)
    pairs = {(_QUBIT_RAILS["q1"][b1], _QUBIT_RAILS["q2"][b2]): coef * ff
             for (b1, b2), coef in amplitudes.items() if coef != 0}
    return FewPhotonState.from_components(grid, RAILS4, pairs=pairs)


def logical_amplitudes(state: FewPhotonState, pulse: OnePhotonAmp) -> dict:
    """Project a state onto the four dual-rail basis states in the pulse mode.

    The amplitude of basis state (b1, b2) is the overlap of its rail pair
    with the product f(x) f(y), u @ pair @ u with u = w * conj(f).
    """
    state.grid.require_same(pulse.grid)
    u = projector(state.grid.weights, pulse.values)
    amps = {}
    for b1, b2 in LOGICAL_BASIS:
        amp = state.pair(_QUBIT_RAILS["q1"][b1], _QUBIT_RAILS["q2"][b2])
        amps[(b1, b2)] = 0j if amp is None else complex(u @ amp @ u)
    return amps


def bell_state(grid: SpectralGrid, pulse: OnePhotonAmp,
               which: str) -> FewPhotonState:
    """One of the four Bell states on the dual-rail qubit pair.

    In logical labels (0 = lower rail): psi+- = (|01> +- |10>)/sqrt2 and
    phi+- = (|00> +- |11>)/sqrt2.
    """
    r = 1.0 / np.sqrt(2.0)
    table = {
        "psi+": {(0, 1): r, (1, 0): r},
        "psi-": {(0, 1): r, (1, 0): -r},
        "phi+": {(0, 0): r, (1, 1): r},
        "phi-": {(0, 0): r, (1, 1): -r},
    }
    if which not in table:
        raise ValueError(f"unknown Bell state {which!r}")
    return logical_state(grid, pulse, table[which])


def _detector_patterns(state: FewPhotonState) -> dict:
    """Two-photon detection patterns keyed by sorted detector-number pairs."""
    probs: dict = {}
    for key in state.two_photon:
        d = tuple(sorted((BELL_DETECTORS[key[0]], BELL_DETECTORS[key[1]])))
        pattern = ({key[0]: 2} if key[0] == key[1]
                   else {key[0]: 1, key[1]: 1})
        probs[d] = probs.get(d, 0.0) + project_detection(state, pattern)
    return probs


def bell_analyzer(state: FewPhotonState, p: TlsParams,
                  pulse: OnePhotonAmp) -> CircuitReport:
    """Run the four-sorter Bell analyzer on a two-photon dual-rail state.

    Returns the per-detector-pair probabilities, with success_prob the total
    probability of landing in one of the eight conclusive pairs.  The input
    must carry exactly two photons; the pulse must sit at the matching point
    of ``p`` for the sorting to be clean.
    """
    if state.one_photon or abs(state.vacuum_amp) > 0 or not state.two_photon:
        raise ValueError("Bell analyzer needs a two-photon dual-rail input")
    out = beamsplitter(state, "q1u", "q2u", np.pi / 4, 0.0)
    out = beamsplitter(out, "q1l", "q2l", np.pi / 4, np.pi)
    out = _sorters(out, RAILS4, p, pulse)
    out = beamsplitter(out, "q1u", "q2u", np.pi / 4, 0.0)
    out = beamsplitter(out, "q1l", "q2l", np.pi / 4, 0.0)
    out = beamsplitter(out, "q1u", "q1l", np.pi / 4, np.pi)
    out = beamsplitter(out, "q2u", "q2l", np.pi / 4, np.pi)
    patterns = _detector_patterns(out)
    conclusive = frozenset().union(*BELL_PATTERNS.values())
    success = sum(prob for d, prob in patterns.items() if d in conclusive)
    return CircuitReport(
        output_state=out,
        success_prob=success,
        fidelity_to_target=float("nan"),
        lost_mass=out.lost_mass,
        pattern_probs=patterns,
    )


def identify_bell_state(pattern) -> str | None:
    """Bell state a conclusive detector pair announces, in either order, or
    None."""
    for name, patterns in BELL_PATTERNS.items():
        if tuple(sorted(pattern)) in patterns:
            return name
    return None


def ns_eta2(p: TlsParams, pulse: OnePhotonAmp) -> float:
    """Skew-compensating pair transmission eps_1^2 / (eps_b - eps_1^2)."""
    if p.gamma_loss == 0.0:
        return 1.0
    eps1_sq = scatter_one(p, pulse).epsilon1 ** 2
    return eps1_sq / (epsilon_b_numeric(p, pulse) - eps1_sq)


def ns_gate(state: FewPhotonState, rail: str, p: TlsParams,
            pulse: OnePhotonAmp) -> FewPhotonState:
    """Nonlinear-sign chain on one rail.

    Emitter pass, pulse-gate extraction of the single-photon content, a pi
    phase (plus the eta2 compensation loss when the emitter is lossy) on the
    photon-pair term, back-conversion, memory inversion of the rail, second
    emitter pass.  For a time-symmetric pulse at the matching point this
    flips the sign of the two-photon component and restores the mode shape.
    """
    return _sign_gates(state, (rail,), p, pulse)


def _sign_gates(state: FewPhotonState, rails, p: TlsParams,
                pulse: OnePhotonAmp, compensate=True) -> FewPhotonState:
    """:func:`ns_gate`'s chain on each of ``rails`` at one operating point,
    as :func:`_sorters`: one even-pulse check, one eta2 and one pump."""
    even_dev = np.max(np.abs(pulse.values - pulse.values[::-1]))
    if even_dev > 1e-9:
        warnings.warn(
            f"pulse spectrum is not even (deviation {even_dev:.3e}); "
            "the second emitter pass will not restore the mode shape",
            stacklevel=3)
    eta2 = ns_eta2(p, pulse) if compensate else 1.0
    pump = make_pump(p, pulse)
    for rail in rails:
        out = sfg_extract(apply_tls(state, rail, p), rail, pump)
        out = component_phase_loss(out, rail, photons=2, phase=np.pi,
                                   transmission=np.sqrt(eta2))
        out = gem_invert(sfg_reverse(out, rail, pump), rail)
        state = apply_tls(out, rail, p)
    return state


def cz_gate(state: FewPhotonState, p: TlsParams, pulse: OnePhotonAmp,
            compensate: bool = True) -> CircuitReport:
    """Controlled-sign gate: two sign gates inside a balanced interferometer.

    The interacting rails q1l and q2u are mixed on a 50/50 beamsplitter,
    pass a sign gate each, and are unmixed; bunching makes the doubly
    occupied logical state pick up the pair phase while single photons pass
    linearly.  With a lossy emitter the outer rails get amplitude
    transmission eps_1 and the sign gates carry the eta2 loss, which leaves
    all four logical amplitudes scaled by the same eps_1^2.
    """
    if not state.two_photon or state.one_photon or abs(state.vacuum_amp) > 0:
        raise ValueError("CZ gate needs a two-photon dual-rail input")
    input_amps = logical_amplitudes(state, pulse)
    out = state
    if p.gamma_loss > 0.0:
        eps1_amp = scatter_one(p, pulse).epsilon1
        out = loss_channel(out, "q1u", eps1_amp)
        out = loss_channel(out, "q2l", eps1_amp)
    out = beamsplitter(out, "q1l", "q2u", np.pi / 4, 0.0)
    out = _sign_gates(out, ("q1l", "q2u"), p, pulse, compensate)
    out = beamsplitter(out, "q1l", "q2u", -np.pi / 4, 0.0)

    out_amps = logical_amplitudes(out, pulse)
    success = sum(abs(a) ** 2 for a in out_amps.values())
    # fidelity to the sign-flipped input, whose basis pairs are the products
    # f(x) f(y) of norm ||f||^4 on four distinct rail pairs
    target_amps = {b: CZ_SIGNS[b] * a for b, a in input_amps.items()}
    ns = out.surviving_norm_sq()
    nt = (sum(abs(a) ** 2 for a in target_amps.values())
          * pulse.norm_sq() ** 2)
    if ns == 0.0 or nt == 0.0:
        raise ValueError("fidelity of a fully lost state is undefined")
    ov = sum(np.conj(target_amps[b]) * out_amps[b] for b in LOGICAL_BASIS)
    fid = abs(ov) ** 2 / (ns * nt)
    patterns = {}
    for basis in LOGICAL_BASIS:
        ra = _QUBIT_RAILS["q1"][basis[0]]
        rb = _QUBIT_RAILS["q2"][basis[1]]
        patterns[(ra, rb)] = project_detection(out, {ra: 1, rb: 1})
    return CircuitReport(
        output_state=out,
        success_prob=success,
        fidelity_to_target=fid,
        lost_mass=out.lost_mass,
        pattern_probs=patterns,
        logical_amplitudes=out_amps,
    )

