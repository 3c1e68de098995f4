"""Active Gaussian operations: mode-selective frequency conversion and memory.

The sum-frequency pulse gate is modeled at the transfer-function level as a
beamsplitter in mode space: the component of each photon living in the pump
mode converts to a dedicated sum-frequency rail with amplitude
sqrt(efficiency); everything orthogonal to the pump passes untouched.  For a
two-photon amplitude the conversion is photon-wise, which splits it into a
both-converted piece, a single-converted piece and an untouched remainder.

The idealization the sorting argument relies on (``ideal=True``, the
default) keeps everything
except the both-converted piece on the signal rail, which realizes perfect
sorting at the matching point.  The physical photon-wise model is available
with ``ideal=False``; its single-converted branch leaves the computational
subspace and is either kept as a cross-carrier pair or discarded into
lost_mass, and :func:`leakage_metric` quantifies it.

The gradient-echo memory inverts pulse shapes, F(delta) -> F(-delta); the
global delay phase it also imparts is dropped as physically irrelevant.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grid import OnePhotonAmp, TwoPhotonAmp
from .states import FewPhotonState, _scale_rail

SUM_SUFFIX = "@sum"


def sum_rail(rail: str) -> str:
    """Label of the sum-frequency rail fed by the pulse gate on ``rail``."""
    return rail + SUM_SUFFIX


@dataclass(frozen=True)
class PulseGateSpec:
    """Pulse-gate configuration: extracted mode and conversion efficiency."""

    pump_mode: OnePhotonAmp
    efficiency: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError(
                f"efficiency must be in [0, 1], got {self.efficiency}"
            )
        if abs(self.pump_mode.norm_sq() - 1.0) > 1e-9:
            raise ValueError("pump mode must be normalized")


def _gate_terms(gate: PulseGateSpec):
    """Pump mode, the weighted conjugate that projects onto it, and the
    converted and unconverted amplitude factors sqrt(eff), sqrt(1 - eff)."""
    pump = gate.pump_mode.values
    u = gate.pump_mode.grid.weights * np.conj(pump)
    return pump, u, np.sqrt(gate.efficiency), np.sqrt(1.0 - gate.efficiency)


def sfg_extract(state: FewPhotonState, rail: str, gate: PulseGateSpec,
                ideal: bool = True,
                keep_single_converted: bool = False) -> FewPhotonState:
    """Extract the pump-mode content of ``rail`` onto its sum-frequency rail.

    The ancilla rail is created (or reused, if present and empty).  With
    ``ideal=False`` the photon-wise single-converted branch of a same-rail
    pair is produced explicitly; by default it is discarded into lost_mass
    because one original-frequency photon plus one sum-frequency photon is
    outside the computational subspace of every circuit built here.
    """
    state.grid.require_same(gate.pump_mode.grid)
    state.rail_index(rail)
    anc = sum_rail(rail)
    if anc in state.rails:
        if (anc in state.one_photon
                or any(anc in k for k in state.two_photon)):
            raise ValueError(f"sum-frequency rail {anc!r} is not empty")
        out = state
    else:
        out = state.with_rail(anc, "sum")

    pump, u, kappa, rho = _gate_terms(gate)
    rt2 = np.sqrt(2.0)

    ones = dict(out.one_photon)
    lost = out.lost_mass
    v = ones.get(rail)
    if v is not None:
        cp = np.sum(u * v)
        ones[rail] = v - (1.0 - rho) * cp * pump
        ones[anc] = kappa * cp * pump

    for ra, rb in state.two_photon:
        if rail not in (ra, rb):
            continue
        other = rb if ra == rail else ra
        amp = state.pair(rail, other)
        if other != rail:
            # cross pair: convert the pump part of the photon on `rail`
            pump_part = np.outer(pump, u @ amp)
            out = out.add_pair(rail, other, -(1.0 - rho) * pump_part)
            out = out.add_pair(anc, other, kappa * pump_part)
            continue
        c_bb = complex(u @ amp @ u)
        pp = np.outer(pump, pump)
        out = out.add_pair(anc, anc, kappa**2 * c_bb * pp)
        if ideal:
            out = out.add_pair(rail, rail, -(1.0 - rho**2) * c_bb * pp)
            if rho > 0.0 and abs(c_bb) > 0.0:
                out = out.add_pair(rail, anc, rt2 * rho * kappa * c_bb * pp)
            continue
        # photon-wise: each photon keeps its non-pump part and a factor rho
        # of its pump part
        g1 = u @ amp
        out = out.add_pair(rail, rail, (1.0 - rho) ** 2 * c_bb * pp
                           - (1.0 - rho) * (np.outer(pump, g1)
                                            + np.outer(g1, pump)))
        cross = rt2 * kappa * (np.outer(g1 - c_bb * pump, pump)
                               + rho * c_bb * pp)
        if keep_single_converted:
            out = out.add_pair(rail, anc, cross)
        else:
            lost += out.norm2_sq(cross)

    return replace(out, one_photon=ones, lost_mass=lost)._pruned(state)


def sfg_reverse(state: FewPhotonState, rail: str,
                gate: PulseGateSpec) -> FewPhotonState:
    """Convert pump-mode content back from the sum-frequency rail to ``rail``.

    Inverse of :func:`sfg_extract` on the pump-mode subspace (exactly so at
    unit efficiency).  Content on the ancilla that is not in the pump mode
    violates the gate contract and raises.
    """
    state.grid.require_same(gate.pump_mode.grid)
    anc = sum_rail(rail)
    if anc not in state.rails:
        raise ValueError(f"no sum-frequency rail for {rail!r}")
    pump, u, kappa, rho = _gate_terms(gate)

    ones = dict(state.one_photon)
    v = ones.pop(anc, None)
    if v is not None:
        cp = np.sum(u * v)
        residual = state.norm1_sq(v - cp * pump)
        if residual > 1e-12:
            raise ValueError(
                f"ancilla photon is not in the pump mode "
                f"(orthogonal weight {residual:.3e})"
            )
        back = kappa * cp * pump
        ones[rail] = ones[rail] + back if rail in ones else back
        if rho > 0.0:
            ones[anc] = rho * cp * pump

    out = replace(state, one_photon=ones, two_photon={
        key: amp for key, amp in state.two_photon.items() if anc not in key})
    for ra, rb in state.two_photon:
        if anc not in (ra, rb):
            continue
        other = rb if ra == anc else ra
        amp = state.pair(anc, other)
        if other == anc:
            c_bb = complex(u @ amp @ u)
            pp = np.outer(pump, pump)
            residual = state.norm2_sq(amp - c_bb * pp)
            if residual > 1e-12:
                raise ValueError("ancilla pair is not in the pump mode")
            out = out.add_pair(rail, rail, kappa**2 * c_bb * pp)
            if rho > 0.0:
                out = out.add_pair(anc, anc, rho**2 * c_bb * pp)
                out = out.add_pair(rail, anc,
                                   np.sqrt(2.0) * rho * kappa * c_bb * pp)
            continue
        pump_part = np.outer(pump, u @ amp)
        residual = state.norm2_sq(amp - pump_part)
        if residual > 1e-12:
            raise ValueError(
                "ancilla photon of a cross pair is not in the pump mode"
            )
        out = out.add_pair(rail, other, kappa * pump_part)
        if rho > 0.0:
            out = out.add_pair(anc, other, rho * pump_part)

    return out._pruned(state)


def gem_invert(state: FewPhotonState, rail=None) -> FewPhotonState:
    """Invert pulse shapes, F(delta) -> F(-delta), on selected rails.

    ``rail`` may be a label, an iterable of labels, or None for every rail
    (the single-rail chain of the sign gate).  Cross-rail pairs flip only the
    axes belonging to inverted rails: a memory in one interferometer arm does
    not touch the spectator photon.
    """
    if rail is None:
        selected = set(state.rails)
    elif isinstance(rail, str):
        selected = {rail}
    else:
        selected = set(rail)
    for r in selected:
        state.rail_index(r)

    def flipped(rails, amp):
        """``amp`` with the axes of the selected rails reversed; axis k
        belongs to rails[k]."""
        if selected.isdisjoint(rails):
            return amp
        return amp[tuple(slice(None, None, -1 if r in selected else 1)
                         for r in rails)].copy()

    out = replace(state, two_photon={}, one_photon={
        r: flipped((r,), v) for r, v in state.one_photon.items()})
    for a, b in state.two_photon:
        out = out.add_pair(a, b, flipped((a, b), state.pair(a, b)))
    return out


def component_phase_loss(state: FewPhotonState, rail: str, photons: int,
                         phase: float,
                         transmission: float = 1.0) -> FewPhotonState:
    """Phase and per-photon loss on the components with ``photons`` photons
    on ``rail``.

    The selected amplitudes pick up e^{i phase} * transmission**photons; the
    removed probability goes to lost_mass.
    """
    if photons not in (1, 2):
        raise ValueError(f"photons must be 1 or 2, got {photons}")
    return _scale_rail(state, rail, (photons,), transmission, phase)


def leakage_metric(gate: PulseGateSpec, psi: TwoPhotonAmp) -> float:
    """Norm of the single-photon pump-mode content of a two-photon amplitude.

    This is the part a photon-wise pulse gate converts into one sum-frequency
    photon plus one unconverted photon; the branch probability is twice its
    square.  The idealized sorter assumes it vanishes, which does not hold
    for the matched orthogonal pair state, so circuits report it rather
    than relying on it.
    """
    psi.grid.require_same(gate.pump_mode.grid)
    w = psi.grid.weights
    pump, u, _, _ = _gate_terms(gate)
    g1 = u @ psi.values
    g_perp = g1 - np.sum(u * g1) * pump
    return float(np.sqrt(np.sum(w * np.abs(g_perp) ** 2)))
