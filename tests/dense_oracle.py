"""Dense N x N oracle of the few-photon state ops.

The library (``tlsphot``) holds every photon pair as a factored sum of terms
a(x) b(y) c(x + y).  This module is a second, independent implementation
that holds every pair as a plain complex N x N array and applies each op to
the arrays directly, so the tests can compare two implementations instead of
two branches of one.  It shares only the 1-D scalar functions (t, s, pulse
quantities) with the library.

Conventions follow ``tlsphot.states``: pairs are keyed by rail pairs in rail
order, axis 0 on the first rail of the key, and a same-rail pair A_rr of
norm 1 means two photons on rail r.  Linear mode maps act on the symmetric
two-photon matrix Phi, whose (r, s) block is A_rr on the diagonal and
A_rs / sqrt(2) off it: Phi -> L Phi L^T.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from tlsphot.circuits import (
    BELL_DETECTORS,
    BELL_PATTERNS,
    CZ_SIGNS,
    LOGICAL_BASIS,
    RAILS4,
    _QUBIT_RAILS,
    make_pump,
    ns_eta2,
)
from tlsphot.modeops import sum_rail
from tlsphot.scatter import s_coeff, scatter_one, transfer_coeff

PRUNE_SQ = 1e-28
RT2 = np.sqrt(2.0)


# -- amplitudes ----------------------------------------------------------------


def norm1(w, v) -> float:
    return float(np.sum(w * np.abs(v) ** 2))


def norm2(w, a) -> float:
    return float(np.real(w @ (np.abs(a) ** 2) @ w))


def inner2(w, a, b) -> complex:
    """<a|b> = sum_ij w_i w_j conj(a_ij) b_ij."""
    return complex(w @ (np.conj(a) * b) @ w)


def antidiagonal_sums(psi, s, h):
    """I(P_q) = h * sum_m psi[m, q-m] (s_m + s_{q-m}) for q = 0 .. 2N-2."""
    n = psi.shape[0]
    out = np.zeros(2 * n - 1, dtype=complex)
    for m in range(n):
        out[m:m + n] += psi[m, :] * (s[m] + s)
    return h * out


def bound_part(p, grid, psi):
    """(i / 2 pi) s(p1) s(p2) I(p1 + p2) of the pair psi."""
    s = s_coeff(p, grid.samples)
    bound_i = antidiagonal_sums(psi, s, grid.spacing)
    kappa = 0.5j / np.pi
    n = grid.n_points
    out = np.empty((n, n), dtype=complex)
    for m in range(n):
        out[m, :] = ((s[m] * s) * kappa) * bound_i[m:m + n]
    return out


def scatter_two(p, grid, psi):
    """t(p1) t(p2) psi(p1, p2) plus the bound part, row by row."""
    t = transfer_coeff(p, grid.samples)
    return t[:, None] * psi * t[None, :] + bound_part(p, grid, psi)


def product_image(p, f):
    g = scatter_one(p, f).out.values
    return np.outer(g, g)


def bound_amplitude(p, f):
    return bound_part(p, f.grid, np.outer(f.values, f.values))


def eta(p, f) -> float:
    """eta = |<product image | bound>| / 2 from the two N x N arrays."""
    return 0.5 * abs(inner2(f.grid.weights, product_image(p, f),
                            bound_amplitude(p, f)))


# -- the state container -------------------------------------------------------


@dataclass
class DenseState:
    grid: object
    rails: tuple
    vacuum: complex
    ones: dict = field(default_factory=dict)
    twos: dict = field(default_factory=dict)
    lost: float = 0.0

    @classmethod
    def of(cls, state) -> "DenseState":
        """The oracle copy of a library state, every pair as its array."""
        return cls(state.grid, state.rails, state.vacuum_amp,
                   dict(state.one_photon),
                   {k: np.asarray(v) for k, v in state.two_photon.items()},
                   state.lost_mass)

    @property
    def w(self):
        return self.grid.weights

    def copy(self, **changes) -> "DenseState":
        fields = dict(grid=self.grid, rails=self.rails, vacuum=self.vacuum,
                      ones=dict(self.ones), twos=dict(self.twos),
                      lost=self.lost)
        fields.update(changes)
        return DenseState(**fields)

    def key(self, a, b):
        if self.rails.index(a) <= self.rails.index(b):
            return (a, b), False
        return (b, a), True

    def pair(self, a, b):
        """The (a, b) pair with axis 0 on a, zeros if absent."""
        key, flip = self.key(a, b)
        n = self.grid.n_points
        amp = self.twos.get(key, np.zeros((n, n), dtype=complex))
        return amp.T if flip else amp

    def phi(self, a, b):
        """Block (a, b) of the symmetric two-photon matrix Phi."""
        return self.pair(a, b) if a == b else self.pair(a, b) / RT2

    def set_phi(self, a, b, block):
        key, flip = self.key(a, b)
        amp = block if a == b else RT2 * block
        self.twos[key] = amp.T if flip else amp

    def one(self, r):
        return self.ones.get(r, np.zeros(self.grid.n_points, dtype=complex))

    def total_probability(self) -> float:
        return (abs(self.vacuum) ** 2
                + sum(norm1(self.w, v) for v in self.ones.values())
                + sum(norm2(self.w, a) for a in self.twos.values())
                + self.lost)

    def pruned(self, parent) -> "DenseState":
        """Without the amplitudes written since ``parent`` whose
        probability falls below PRUNE_SQ."""
        return self.copy(
            ones={r: v for r, v in self.ones.items()
                  if v is parent.ones.get(r) or norm1(self.w, v) > PRUNE_SQ},
            twos={k: a for k, a in self.twos.items()
                  if a is parent.twos.get(k) or norm2(self.w, a) > PRUNE_SQ})


def _rail_pairs(rails):
    return [(a, b) for i, a in enumerate(rails) for b in rails[i:]]


# -- linear optics ---------------------------------------------------------------


def _linear_map(st: DenseState, mixed, apply_one) -> DenseState:
    """Phi -> L Phi L^T, with L identity outside the rails ``mixed``;
    ``apply_one(r, vs)`` is rail r of L applied to axis 0 of ``vs``, which
    maps each mixed rail to a one-photon vector or a Phi block."""
    out = st.copy()
    if any(q in st.ones for q in mixed):
        ones = {q: st.one(q) for q in mixed}
        for r in mixed:
            out.ones[r] = apply_one(r, ones)

    def left(a, c):  # block (a, c) of L Phi
        if a not in mixed:
            return st.phi(a, c)
        return apply_one(a, {q: st.phi(q, c) for q in mixed})

    for a, b in _rail_pairs(st.rails):
        rows = mixed if a in mixed else (a,)
        cols = mixed if b in mixed else (b,)
        if rows == (a,) and cols == (b,) or not any(
                st.key(q, c)[0] in st.twos for q in rows for c in cols):
            continue  # untouched, or every input block is zero
        if b in mixed:
            block = apply_one(b, {q: left(a, q).T for q in mixed}).T
        else:
            block = left(a, b)
        out.set_phi(a, b, block)
    return out.pruned(st)


def carrier(rail):
    """Light on a rail labelled r@sum (the pulse gate's ancilla) is at the
    sum frequency; every other rail carries the original frequency."""
    return "sum" if rail.endswith("@sum") else "orig"


def beamsplitter(st, i, j, theta, phi=0.0):
    if carrier(i) != carrier(j):
        raise ValueError("carrier mismatch")
    c, s = np.cos(theta), np.sin(theta)
    m = {i: {i: c, j: np.exp(1j * phi) * s},
         j: {i: -np.exp(-1j * phi) * s, j: c}}
    return _linear_map(st, (i, j),
                       lambda r, vs: sum(k * vs[q] for q, k in m[r].items()))


def _scale_rail(st, rail, photons, transmission, phase=0.0):
    out = st.copy()
    for k in photons:
        f = np.exp(1j * phase) * transmission**k
        if k == 1 and rail in st.ones:
            out.lost += (1 - transmission**2) * norm1(st.w, st.ones[rail])
            out.ones[rail] = f * st.ones[rail]
        for key, amp in st.twos.items():
            if key.count(rail) == k:
                out.lost += (1 - transmission ** (2 * k)) * norm2(st.w, amp)
                out.twos[key] = f * amp
    return out.pruned(st)


def loss_channel(st, rail, transmission):
    return _scale_rail(st, rail, (1, 2), transmission)


def component_phase_loss(st, rail, photons, phase, transmission=1.0):
    return _scale_rail(st, rail, (photons,), transmission, phase)


def apply_tls(st, rail, p):
    t = transfer_coeff(p, st.grid.samples)
    out = st.copy()
    before = after = 0.0
    if rail in st.ones:
        out.ones[rail] = t * st.ones[rail]
        before += norm1(st.w, st.ones[rail])
        after += norm1(st.w, out.ones[rail])
    for (a, b), amp in st.twos.items():
        if rail not in (a, b):
            continue
        if a == b:
            new = scatter_two(p, st.grid, amp)
        else:
            new = t[:, None] * amp if a == rail else amp * t[None, :]
        out.twos[(a, b)] = new
        before += norm2(st.w, amp)
        after += norm2(st.w, new)
    out.lost = max(st.lost + before - after, 0.0)
    return out.pruned(st)


def gem_invert(st, rail=None):
    selected = (set(st.rails) if rail is None
                else {rail} if isinstance(rail, str) else set(rail))
    out = st.copy()
    for r, v in st.ones.items():
        if r in selected:
            out.ones[r] = v[::-1].copy()
    for (a, b), amp in st.twos.items():
        out.twos[(a, b)] = amp[tuple(slice(None, None, -1 if r in selected
                                           else 1) for r in (a, b))].copy()
    return out


# -- the pulse gate ----------------------------------------------------------------


def _gate(gate, m):
    """Per-rail mode map of the gate: v -> v + pump ((m - 1) (u @ v))."""
    pump = gate.pump_mode.values
    u = gate.pump_mode.grid.weights * np.conj(pump)
    return pump, u, m - np.eye(2)


def _pump_gate(st, rail, gate, m, photonwise=False):
    anc = sum_rail(rail)
    gated = (rail, anc)
    pump, u, step = _gate(gate, m)
    idx = {rail: 0, anc: 1}

    def apply_one(r, vs):
        """L on axis 0: v_r + pump sum_q step[r, q] (u @ v_q)."""
        upd = sum(step[idx[r], idx[q]] * (u @ vs[q]) for q in gated)
        return vs[r] + np.multiply.outer(pump, upd)

    if photonwise:
        # L on every photon: the linear map of a real pulse gate
        return _linear_map(st, gated, apply_one).pruned(st)
    # the ideal gate: single photons and cross pairs see L, and a pair on
    # the two gated rails mixes only its both-in-pump coefficient
    out = st.copy()
    if any(r in st.ones for r in gated):
        ones = {r: st.one(r) for r in gated}
        for r in gated:
            out.ones[r] = apply_one(r, ones)
    for other in st.rails:
        if other in gated or not any(st.key(r, other)[0] in st.twos
                                     for r in gated):
            continue
        rows = {r: st.pair(r, other) for r in gated}
        for r in gated:
            new = apply_one(r, rows)
            key, flip = out.key(r, other)
            out.twos[key] = new.T if flip else new
    coef = np.array([[u @ st.phi(a, b) @ u for b in gated] for a in gated])
    new = m @ coef @ m.T
    pp = np.multiply.outer(pump, pump)
    for a, b in ((rail, rail), (anc, anc), (rail, anc)):
        i, j = idx[a], idx[b]
        out.set_phi(a, b, st.phi(a, b) + (new[i, j] - coef[i, j]) * pp)
    return out.pruned(st)


def _gate_matrix(gate):
    kappa, rho = np.sqrt(gate.efficiency), np.sqrt(1.0 - gate.efficiency)
    return np.array([[rho, -kappa], [kappa, rho]])


def sfg_extract(st, rail, gate, ideal=True):
    anc = sum_rail(rail)
    if anc in st.ones or any(anc in k for k in st.twos):
        raise ValueError(f"sum-frequency rail {anc!r} is not empty")
    if anc not in st.rails:
        st = st.copy(rails=st.rails + (anc,))
    return _pump_gate(st, rail, gate, _gate_matrix(gate), not ideal)


def sfg_reverse(st, rail, gate):
    anc = sum_rail(rail)
    if anc not in st.rails:
        raise ValueError(f"no sum-frequency rail for {rail!r}")
    pump, u, _ = _gate(gate, np.eye(2))
    ancilla = [st.ones[anc]] if anc in st.ones else []
    ancilla += [st.pair(anc, r) for r in st.rails
                if st.key(anc, r)[0] in st.twos]
    for v in ancilla:  # axis 0 on the ancilla photon
        off = v - np.multiply.outer(pump, u @ v)
        weight = norm1(st.w, off) if v.ndim == 1 else norm2(st.w, off)
        if weight > 1e-12:
            raise ValueError("ancilla content is not in the pump mode")
    return _pump_gate(st, rail, gate, _gate_matrix(gate).T)


# -- circuits ----------------------------------------------------------------------


def ns_gate(st, rail, p, pulse, eta2=None):
    if eta2 is None:
        eta2 = ns_eta2(p, pulse)
    pump = make_pump(p, pulse)
    out = apply_tls(st, rail, p)
    out = sfg_extract(out, rail, pump)
    out = component_phase_loss(out, rail, 2, np.pi, np.sqrt(eta2))
    out = sfg_reverse(out, rail, pump)
    out = gem_invert(out, rail)
    return apply_tls(out, rail, p)


def _pattern(key):
    return tuple(sorted(BELL_DETECTORS[r] for r in key))


def bell_analyzer(st, p, pulse):
    """Pattern probabilities, success and loss of the Bell analyzer."""
    out = beamsplitter(st, "q1u", "q2u", np.pi / 4, 0.0)
    out = beamsplitter(out, "q1l", "q2l", np.pi / 4, np.pi)
    for rail in RAILS4:
        out = sfg_extract(apply_tls(out, rail, p), rail, make_pump(p, pulse))
    out = beamsplitter(out, "q1u", "q2u", np.pi / 4, 0.0)
    out = beamsplitter(out, "q1l", "q2l", np.pi / 4, 0.0)
    out = beamsplitter(out, "q1u", "q1l", np.pi / 4, np.pi)
    out = beamsplitter(out, "q2u", "q2l", np.pi / 4, np.pi)
    probs = {}
    for key, amp in out.twos.items():
        d = _pattern(key)
        probs[d] = probs.get(d, 0.0) + norm2(out.w, amp)
    conclusive = frozenset().union(*BELL_PATTERNS.values())
    return SimpleNamespace(
        output_state=out, pattern_probs=probs, lost_mass=out.lost,
        success_prob=sum(v for d, v in probs.items() if d in conclusive))


def logical_amplitudes(st, pulse):
    u = st.w * np.conj(pulse.values)
    return {b: complex(u @ st.pair(_QUBIT_RAILS["q1"][b[0]],
                                   _QUBIT_RAILS["q2"][b[1]]) @ u)
            for b in LOGICAL_BASIS}


def cz_gate(st, p, pulse, compensate=True):
    """Logical amplitudes, success, fidelity and loss of the CZ gate."""
    amps_in = logical_amplitudes(st, pulse)
    eta2 = ns_eta2(p, pulse) if compensate else 1.0
    out = st
    if p.gamma_loss > 0.0:
        eps1 = scatter_one(p, pulse).epsilon1
        out = loss_channel(loss_channel(out, "q1u", eps1), "q2l", eps1)
    out = beamsplitter(out, "q1l", "q2u", np.pi / 4, 0.0)
    out = ns_gate(out, "q1l", p, pulse, eta2)
    out = ns_gate(out, "q2u", p, pulse, eta2)
    out = beamsplitter(out, "q1l", "q2u", -np.pi / 4, 0.0)
    amps = logical_amplitudes(out, pulse)
    target = {b: CZ_SIGNS[b] * a for b, a in amps_in.items()}
    surviving = out.total_probability() - out.lost
    nt = (sum(abs(a) ** 2 for a in target.values())
          * norm1(st.w, pulse.values) ** 2)
    ov = sum(np.conj(target[b]) * amps[b] for b in LOGICAL_BASIS)
    probs = {}
    for b in LOGICAL_BASIS:
        key = (_QUBIT_RAILS["q1"][b[0]], _QUBIT_RAILS["q2"][b[1]])
        probs[key] = norm2(out.w, out.pair(*key))
    return SimpleNamespace(
        output_state=out, pattern_probs=probs, lost_mass=out.lost,
        logical_amplitudes=amps,
        success_prob=sum(abs(a) ** 2 for a in amps.values()),
        fidelity_to_target=abs(ov) ** 2 / (surviving * nt))
