"""Active Gaussian operations: mode-selective frequency conversion and memory.

The sum-frequency pulse gate on a rail is a beamsplitter in mode space that
acts on one mode: the pump-mode amplitudes on the rail and on its
sum-frequency rail (the ancilla) go through M = [[rho, -kappa], [kappa, rho]],
kappa = sqrt(efficiency), rho = sqrt(1 - efficiency), and everything
orthogonal to the pump passes.  :func:`sfg_extract` applies M and
:func:`sfg_reverse` its inverse M^T, so the reverse undoes the extraction at
any efficiency.  A pair on the two gated rails mixes only its both-in-pump
coefficient: that is the idealized gate the sorting argument relies on.  The
photon-wise gate (``ideal=False``) is linear in the signal: it converts, and
keeps, the pump photon of a pair whose partner is outside the pump mode too;
:func:`leakage_metric` measures it.

The gradient-echo memory inverts pulse shapes, F(delta) -> F(-delta); the
global delay phase it also imparts is dropped as physically irrelevant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import OnePhotonAmp
from .pairs import FactoredPair, _reversed, flip, project_term, projector
from .states import (
    FewPhotonState,
    _output,
    _pair_lift,
    _positions,
    _put,
    _read,
    _scale_rail,
    is_sum_rail,
    sum_rail,
)


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
    """Pump mode, the weighted conjugate u that projects onto it (``u @ v``
    is the pump-mode amplitude of v along axis 0, one shared array per pump)
    and the matrix M."""
    pump = gate.pump_mode.values
    kappa, rho = np.sqrt(gate.efficiency), np.sqrt(1.0 - gate.efficiency)
    return (pump, projector(gate.pump_mode.grid.weights, pump),
            np.array([[rho, -kappa], [kappa, rho]]))


def _single_pump(gate: PulseGateSpec, amp: FactoredPair) -> np.ndarray:
    """Single-pump part of a pair amplitude: the partner g_perp = u @ amp -
    (u @ amp @ u) pump of a photon in the pump mode, orthogonal to it."""
    pump, u, _ = _gate_terms(gate)
    g = u @ amp
    return g - np.sum(u * g) * pump


def _plus_outer(v, terms, symmetric):
    """The pair ``v`` (None if absent) plus the terms k x (outer) y of the
    (k, x, y) triples, exchange symmetrized if ``symmetric``; ``v`` itself
    if every term is zero."""
    terms = [(k, x, y, None) for k, x, y in terms
             if k != 0 and np.any(x) and np.any(y)]
    if not terms:
        return v
    new = FactoredPair(terms, symmetric)
    return new if v is None else v + new


def _mapped_ones(vs, pump, u, step):
    """Rail and ancilla outputs of the one-photon values ``vs`` (None if
    absent) under v + pump (step @ (u @ v)); an input whose update is zero
    passes as it is."""
    g = [0.0 if v is None else u @ v for v in vs]
    out = []
    for v, (d_r, d_a) in zip(vs, step):
        y = d_r * g[0] + d_a * g[1]
        out.append(v if y == 0 else pump * y if v is None else pump * y + v)
    return out


def _mapped_terms(vs, pump, u, step):
    """Rail and ancilla outputs of the factored pairs ``vs`` (axis 0 on the
    gated photon, None if absent) under v + pump (outer) (step @ (u @ v)).

    The map acts on a term's axis-0 factor alone when the term has no
    c(x + y): a -> a + d (u @ a) pump on its own rail (a coefficient
    1 + d (u @ pump) if a is the pump), a term d (u @ a) pump(x) b(y) on
    the other.  Keeping b and the pump array itself lets the converted
    parts of a pair's terms merge, so pump-mode content that the map
    removes cancels in one factor.  A term with c adds
    pump (outer) (u @ term) to both rails."""
    out = [[], []]
    for src, v in enumerate(vs):
        for term in () if v is None else v.expanded():
            k, a, b, c = term
            if c is None:
                alpha = u @ a
                for dst, d in enumerate(step[:, src] * alpha):
                    if dst != src:
                        out[dst].append((k * d, pump, b, None))
                    elif a is pump:
                        out[dst].append((k * (1.0 + d), pump, b, None))
                    else:
                        out[dst].append((k, a if d == 0 else a + d * pump,
                                         b, None))
            else:
                out[src].append(term)
                g = project_term(u, term)
                out[0].append((step[0, src], pump, g, None))
                out[1].append((step[1, src], pump, g, None))
    out = [[t for t in terms if t[0] != 0] for terms in out]
    return [FactoredPair(terms) if terms else None for terms in out]


def _pump_map(state: FewPhotonState, rail: str, gate: PulseGateSpec, m,
              extra=None) -> FewPhotonState:
    """``state`` with the pump-mode matrix ``m`` applied to ``rail`` and its
    ancilla, which is appended to the rails if the state lacks it.  A single
    photon, or a photon whose partner is on another rail, is projected as
    g = u @ v and written once, as v + pump (outer) ((m - 1) g)
    (:func:`_mapped_ones`, :func:`_mapped_terms`).  A pair on the two gated
    rails mixes only its both-in-pump coefficient u @ A @ u, through the
    bosonic pair lift.  ``extra`` maps a gated rail pair to (k, x, y) terms
    added to its output as k x (outer) y, exchange symmetrized on a
    same-rail pair.  The map is unitary: it books nothing as lost."""
    anc = sum_rail(rail)
    gated = (rail, anc)
    rails = state.rails if anc in state.rails else state.rails + (anc,)
    pump, u, _ = _gate_terms(gate)
    step = m - np.eye(2)
    order = _positions(rails)
    pairs_in = state.two_photon

    ones = {r: v for r, v in state.one_photon.items() if r not in gated}
    ones.update((r, v) for r, v in zip(gated, _mapped_ones(
        [state.one_photon.get(r) for r in gated], pump, u, step))
        if v is not None)
    twos = {key: amp for key, amp in pairs_in.items()
            if key[0] not in gated and key[1] not in gated}
    for other in (r for r in rails if r not in gated):
        vs = (_read(pairs_in, order, rail, other),
              _read(pairs_in, order, anc, other))
        if vs[0] is None and vs[1] is None:
            continue
        for r, v in zip(gated, _mapped_terms(vs, pump, u, step)):
            _put(twos, order, r, other, v)

    keys = ((rail, rail), (anc, anc), (rail, anc))
    amps = [_read(pairs_in, order, *key) for key in keys]
    coefs = [None if a is None else u @ a @ u for a in amps]
    for key, amp, old, new in zip(keys, amps, coefs, _pair_lift(m, *coefs)):
        delta = (new or 0.0) - (old or 0.0)
        _put(twos, order, *key, _plus_outer(
            amp, [(delta, pump, pump)] + (extra or {}).get(key, []),
            key[0] == key[1]))
    return _output(state, ones, twos, rails)


def _ancilla(state: FewPhotonState, rail: str, gate: PulseGateSpec) -> str:
    """The sum-frequency rail of ``rail``, once ``gate`` is on the state's
    grid and ``rail`` one of its rails with original-frequency light."""
    state.grid.require_same(gate.pump_mode.grid)
    state.rail_index(rail)
    if is_sum_rail(rail):
        raise ValueError(f"rail {rail!r} carries sum-frequency light; the "
                         "pulse gate acts on original-frequency rails")
    return sum_rail(rail)


def sfg_extract(state: FewPhotonState, rail: str, gate: PulseGateSpec,
                ideal: bool = True) -> FewPhotonState:
    """Extract the pump-mode content of ``rail`` onto its sum-frequency rail.

    The ancilla rail is created (or reused, if present and empty).  With
    ``ideal=False`` the pump photon of a same-rail pair whose partner is
    outside the pump mode converts as well, to one photon on each rail, a
    branch a detector sees: the gate keeps it and books nothing as lost.
    """
    anc = _ancilla(state, rail, gate)
    if anc in state.one_photon or any(anc in k for k in state.two_photon):
        raise ValueError(f"sum-frequency rail {anc!r} is not empty")
    pump, _, m = _gate_terms(gate)
    amp = state.pair(rail, rail)
    if ideal or amp is None:
        return _pump_map(state, rail, gate, m)
    # photon-wise: the pump photon of pump x g_perp + g_perp x pump (the
    # symmetric term (2, pump, g_perp)) keeps a factor rho on the rail and
    # converts with a factor sqrt(2) kappa
    g_perp = _single_pump(gate, amp)
    return _pump_map(state, rail, gate, m, {
        (rail, rail): [(2.0, pump, (m[0, 0] - 1.0) * g_perp)],
        (rail, anc): [(1.0, np.sqrt(2.0) * m[1, 0] * g_perp, pump)]})


def sfg_reverse(state: FewPhotonState, rail: str,
                gate: PulseGateSpec) -> FewPhotonState:
    """Convert pump-mode content back from the sum-frequency rail to ``rail``.

    Applies M^T, the inverse of :func:`sfg_extract`'s pump-mode matrix, so
    it undoes the ideal extraction at any efficiency.  Content on the
    ancilla that is not in the pump mode violates the gate contract and
    raises.
    """
    anc = _ancilla(state, rail, gate)
    if anc not in state.rails:
        raise ValueError(f"no sum-frequency rail for {rail!r}")
    pump, u, m = _gate_terms(gate)
    # axis 0 is the ancilla photon; a same-rail ancilla pair is symmetric,
    # so this checks both of its photons.  With g = u @ v, the weight of
    # v - pump (outer) g is ||v||^2 - (2 - ||pump||^2) ||g||^2.
    ancilla = [state.one_photon.get(anc)] + [state.pair(anc, r)
                                             for r in state.rails]
    pump_sq = state.norm1_sq(pump)
    for v in (v for v in ancilla if v is not None):
        g = u @ v
        if v.ndim == 1:
            off = state.norm1_sq(v) - (2.0 - pump_sq) * abs(g) ** 2
        else:
            off = state.norm2_sq(v) - (2.0 - pump_sq) * state.norm1_sq(g)
        if off > 1e-12:
            raise ValueError("ancilla content is not in the pump mode "
                             f"(orthogonal weight {off:.3e})")
    return _pump_map(state, rail, gate, m.T)


def gem_invert(state: FewPhotonState, rail=None) -> FewPhotonState:
    """Invert pulse shapes, F(delta) -> F(-delta), on selected rails.

    ``rail`` may be a label, an iterable of labels, or None for every rail
    (the single-rail chain of the sign gate).  Cross-rail pairs flip only the
    axes belonging to inverted rails: a memory in one interferometer arm does
    not touch the spectator photon.
    """
    selected = (set(state.rails) if rail is None
                else {rail} if isinstance(rail, str) else set(rail))
    for r in selected:
        state.rail_index(r)

    ones = {r: _reversed(v) if r in selected else v
            for r, v in state.one_photon.items()}
    twos = {(a, b): amp if selected.isdisjoint((a, b))
            else flip(amp, (a in selected, b in selected))
            for (a, b), amp in state.two_photon.items()}
    return state._build(state.grid, state.rails, state.vacuum_amp, ones, twos,
                        state.lost_mass)


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


def leakage_metric(gate: PulseGateSpec, pair: FactoredPair) -> float:
    """Norm of the single-photon pump-mode content of a pair on one rail,
    sampled on the pump mode's grid.

    This is the part a photon-wise pulse gate converts into one sum-frequency
    photon plus one unconverted photon; the branch probability is twice its
    square.  The idealized sorter assumes it vanishes, which does not hold
    for the matched orthogonal pair state, so circuits report it rather
    than relying on it.
    """
    g_perp = OnePhotonAmp(gate.pump_mode.grid, _single_pump(gate, pair))
    return float(np.sqrt(g_perp.norm_sq()))
