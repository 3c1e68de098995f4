"""Few-photon multi-rail states (at most two photons total) and linear optics.

A :class:`FewPhotonState` stores a coherent superposition over rail-occupation
patterns: a vacuum amplitude, a spectral amplitude per singly occupied rail,
and a two-photon spectral amplitude per unordered rail pair.  Same-rail pair
amplitudes are exchange symmetric and normalized so that their discrete
double integral is the occupation probability (a pair of identical photons in
a unit mode f on one rail has amplitude f(x) f(y)).  A pair amplitude is a
factored sum of terms a(x) b(y) c(x + y) (:mod:`tlsphot.pairs`); a dense
N x N array given to :meth:`FewPhotonState.from_components` or written into
``two_photon`` goes through the door :func:`tlsphot.pairs.from_dense` once.
A write into a built state's ``one_photon`` or ``two_photon`` gets the
checks ``from_components`` makes.
For a cross-rail pair (r, s) with r before s in the rail order, axis 0 of
the stored pair belongs to the photon on r.  Only :class:`FewPhotonState`
relies on that rule: other code reads pairs with
:meth:`FewPhotonState.pair` and writes them with
:meth:`FewPhotonState.add_pair`, both oriented by the rails they name.

A rail's carrier is read from its label: light on a sum-frequency rail
(:func:`sum_rail`) never interferes with original-frequency light.

Probability that leaks out of the tracked rails (emitter loss, loss channels,
discarded sorter branches) accumulates in the scalar ``lost_mass``; the total
probability including it stays 1 up to quadrature error of the two-photon
scattering map.

All operations return new states; stored amplitudes are never mutated in
place, so untouched amplitudes are shared between input and output states,
and an operation norms (to prune near-zero amplitudes) only those it writes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from .grid import OnePhotonAmp, SpectralGrid
from .pairs import (
    FactoredPair,
    from_dense,
    inner,
    norm_sq,
    scale_axis,
    symmetrized,
)
from .scatter import TlsParams, scatter_two, transfer_coeff

_PRUNE_SQ = 1e-28  # drop amplitudes whose probability falls below this

SUM_SUFFIX = "@sum"


def sum_rail(rail: str) -> str:
    """Label of the sum-frequency rail fed by the pulse gate on ``rail``
    (quantum pulse gate: Eckstein, Brecht & Silberhorn, Opt. Express 19,
    13770 (2011))."""
    return rail + SUM_SUFFIX


def is_sum_rail(rail: str) -> bool:
    """Whether ``rail`` carries sum-frequency light."""
    return rail.endswith(SUM_SUFFIX)


def _checked_one(rails: tuple, n: int, rail: str, values) -> np.ndarray:
    """One-photon ``values`` on ``rail``, checked: a known rail and n finite
    entries."""
    if rail not in rails:
        raise ValueError(f"unknown rail {rail!r}")
    values = np.asarray(values, dtype=complex)
    if values.shape != (n,):
        raise ValueError(f"one-photon amplitude on rail {rail!r} has shape "
                         f"{values.shape}, not ({n},)")
    if not np.isfinite(values).all():
        raise ValueError("state amplitudes hold non-finite values")
    return values


def _checked_pair(rails: tuple, n: int, key, values,
                  ordered: bool = True) -> FactoredPair:
    """Pair ``values`` on the rails (a, b) of ``key``, axis 0 on a, checked:
    known rails, in the rail order if ``ordered``, sized for n samples (a
    term's c for 2n - 1), finite, and exchange symmetric if a is b.  A dense
    array must be n x n and goes through the door :func:`from_dense`."""
    a, b = key
    for rail in key:
        if rail not in rails:
            raise ValueError(f"unknown rail {rail!r}")
    if ordered and rails.index(a) > rails.index(b):
        raise ValueError(f"pair key {key} is not in the rail order {rails}")
    if not isinstance(values, FactoredPair):
        if np.shape(values) != (n, n):
            raise ValueError(f"pair amplitude on rails ({a!r}, {b!r}) has "
                             f"shape {np.shape(values)}, not ({n}, {n})")
        return from_dense(values, a == b)
    terms = values.terms
    if not all(np.shape(x) == np.shape(y) == (n,)
               and (c is None or np.shape(c) == (2 * n - 1,))
               for _, x, y, c in terms):
        raise ValueError(f"factored pair amplitude on rails ({a!r}, {b!r}) "
                         f"has a term not sized for {n} samples")
    if not all(np.isfinite(k) and all(np.isfinite(z).all()
                                      for z in (x, y, c) if z is not None)
               for k, x, y, c in terms):
        raise ValueError("state amplitudes hold non-finite values")
    if a == b and not values.symmetric:
        raise ValueError("factored two-photon amplitude is not exchange "
                         "symmetric by construction")
    return values


class CheckedMap(dict):
    """One sector's amplitudes by storage key: a rail, or a rail pair in the
    rail order.  A write ``map[key] = values`` (or ``update``) passes the
    ``check`` :meth:`FewPhotonState.from_components` makes; ops build the
    maps of their output states around values they hold, unchecked."""

    def __init__(self, check, items=()):
        super().__init__(items)
        self._check = check

    def __setitem__(self, key, values):
        super().__setitem__(key, self._check(key, values))

    def update(self, *args, **kwargs):
        for key, values in dict(*args, **kwargs).items():
            self[key] = values


@dataclass
class FewPhotonState:
    grid: SpectralGrid
    rails: tuple
    vacuum_amp: complex = 0.0
    one_photon: CheckedMap = field(default_factory=dict)
    two_photon: CheckedMap = field(default_factory=dict)
    lost_mass: float = 0.0

    def __post_init__(self):
        n = self.grid.n_points
        self.one_photon = CheckedMap(
            functools.partial(_checked_one, self.rails, n), self.one_photon)
        self.two_photon = CheckedMap(
            functools.partial(_checked_pair, self.rails, n), self.two_photon)

    @classmethod
    def from_components(cls, grid: SpectralGrid, rails, vacuum: complex = 0.0j,
                        ones=None, pairs=None) -> "FewPhotonState":
        """State from its components, validated.

        ``ones`` maps a rail to its one-photon spectral values; ``pairs`` maps
        a rail pair (a, b) to its pair values with axis 0 on a, a
        :class:`~tlsphot.pairs.FactoredPair` or an N x N array (factored by
        :func:`~tlsphot.pairs.from_dense`).  Rails must be known, values
        sized for the grid and finite, and same-rail pairs exchange
        symmetric.  A write into a built state's ``one_photon`` or
        ``two_photon`` gets the same checks.
        """
        rails = tuple(rails)
        if len(set(rails)) != len(rails):
            raise ValueError("duplicate rail labels")
        if not np.isfinite(vacuum):
            raise ValueError("state amplitudes hold non-finite values")
        state = cls(grid=grid, rails=rails, vacuum_amp=vacuum)
        state.one_photon.update(ones or {})
        for (a, b), values in (pairs or {}).items():
            state = state.add_pair(a, b, _checked_pair(
                rails, grid.n_points, (a, b), values, ordered=False))
        return state

    @classmethod
    def vacuum(cls, grid: SpectralGrid, rails) -> "FewPhotonState":
        return cls.from_components(grid, rails, 1.0 + 0.0j)

    # -- bookkeeping helpers -------------------------------------------------

    def rail_index(self, rail: str) -> int:
        try:
            return self.rails.index(rail)
        except ValueError:
            raise ValueError(f"unknown rail {rail!r}") from None

    def _key(self, a: str, b: str):
        """Storage key of the rail pair (a, b), and whether it reverses them."""
        if self.rail_index(a) <= self.rail_index(b):
            return (a, b), False
        return (b, a), True

    def pair(self, a: str, b: str):
        """Pair amplitude on rails (a, b) with axis 0 on ``a``, or
        None if the state holds none."""
        key, flip = self._key(a, b)
        amp = self.two_photon.get(key)
        return amp.T if flip and amp is not None else amp

    def add_pair(self, a: str, b: str,
                 values: FactoredPair | None) -> "FewPhotonState":
        """New state with ``values`` (axis 0 on ``a``) added to the (a, b)
        pair amplitude; None adds nothing."""
        key, flip = self._key(a, b)
        if values is None:
            return self
        if flip:
            values = values.T
        old = self.two_photon.get(key)
        twos = dict(self.two_photon)
        twos[key] = values if old is None else old + values
        return replace(self, two_photon=twos)

    def norm1_sq(self, values: np.ndarray) -> float:
        return OnePhotonAmp(self.grid, values).norm_sq()

    def norm2_sq(self, values) -> float:
        return norm_sq(values, self.grid.weights)

    def surviving_norm_sq(self) -> float:
        total = abs(self.vacuum_amp) ** 2
        total += sum(self.norm1_sq(v) for v in self.one_photon.values())
        total += sum(self.norm2_sq(v) for v in self.two_photon.values())
        return total

    def total_probability(self) -> float:
        return self.surviving_norm_sq() + self.lost_mass

    def with_rail(self, rail: str) -> "FewPhotonState":
        """New state with an extra (empty) rail appended."""
        if rail in self.rails:
            raise ValueError(f"rail {rail!r} already exists")
        return replace(self, rails=self.rails + (rail,))

    def _pruned(self, parent: "FewPhotonState",
                norms=None) -> "FewPhotonState":
        """Drop the amplitudes written since ``parent`` whose probability
        falls below _PRUNE_SQ.

        Ops never mutate arrays, so an array shared with ``parent`` was not
        written and is not re-normed.  ``norms`` maps rails and pair keys to
        norms the op has already computed for its written arrays.
        """
        norms = norms or {}

        def kept(key, values, old, norm_sq):
            if values is old:
                return True
            norm = norms[key] if key in norms else norm_sq(values)
            return norm > _PRUNE_SQ

        ones = {r: v for r, v in self.one_photon.items()
                if kept(r, v, parent.one_photon.get(r), self.norm1_sq)}
        twos = {k: v for k, v in self.two_photon.items()
                if kept(k, v, parent.two_photon.get(k), self.norm2_sq)}
        return replace(self, one_photon=ones, two_photon=twos)


def _lincomb(*terms):
    """Sum of coef * values over the (coef, values) terms whose values are
    not None and coef not 0; None if every term is absent.  Factored pairs
    concatenate their terms, so a zero coefficient would add terms that
    hold nothing."""
    total = None
    for coef, values in terms:
        if values is not None and coef != 0:
            total = coef * values if total is None else total + coef * values
    return total


def _pair_lift(m, a, b, x):
    """New (i, i), (j, j) and (i, j) pair amplitudes from the old a, b and x
    (axis 0 of x on i) when the one-photon mode matrix ``m`` acts on rails
    i, j, with the bosonic sqrt(2) factors.  Amplitudes may be arrays or
    scalar mode coefficients, None if absent."""
    (m_ii, m_ij), (m_ji, m_jj) = m
    xs = None if x is None else symmetrized(x)
    rt2 = np.sqrt(2.0)
    return (_lincomb((m_ii**2, a), (m_ij**2, b), (rt2 * m_ii * m_ij, xs)),
            _lincomb((m_ji**2, a), (m_jj**2, b), (rt2 * m_ji * m_jj, xs)),
            _lincomb((rt2 * m_ii * m_ji, a), (rt2 * m_ij * m_jj, b),
                     (m_ii * m_jj, x),
                     (m_ji * m_ij, None if x is None else x.T)))


def beamsplitter(state: FewPhotonState, rail_i: str, rail_j: str,
                 theta: float, phi: float = 0.0) -> FewPhotonState:
    """Mix two rails: a_i -> cos(t) a_i + e^{i phi} sin(t) a_j and
    a_j -> -e^{-i phi} sin(t) a_i + cos(t) a_j, frequency-pointwise.

    The lift to photon pairs carries the bosonic sqrt(2) factors between
    same-rail and cross-rail amplitudes.  Rails must share a carrier
    (:func:`is_sum_rail`): interference between original and sum-frequency
    light is unphysical.
    """
    if rail_i == rail_j:
        raise ValueError("beamsplitter needs two distinct rails")
    state.rail_index(rail_i)
    state.rail_index(rail_j)
    if is_sum_rail(rail_i) != is_sum_rail(rail_j):
        raise ValueError(f"carrier mismatch: {rail_i!r} and {rail_j!r} "
                         "carry different frequencies")
    c, s = np.cos(theta), np.sin(theta)
    m_ii, m_ij = complex(c), np.exp(1j * phi) * s
    m_ji, m_jj = -np.exp(-1j * phi) * s, complex(c)
    mixed = (rail_i, rail_j)

    ones = {r: v for r, v in state.one_photon.items() if r not in mixed}
    vi = state.one_photon.get(rail_i)
    vj = state.one_photon.get(rail_j)
    ones.update((r, v) for r, v in (
        (rail_i, _lincomb((m_ii, vi), (m_ij, vj))),
        (rail_j, _lincomb((m_ji, vi), (m_jj, vj)))) if v is not None)

    out = replace(state, one_photon=ones, two_photon={
        key: amp for key, amp in state.two_photon.items()
        if key[0] not in mixed and key[1] not in mixed})
    a, b, x = _pair_lift(((m_ii, m_ij), (m_ji, m_jj)),
                         state.pair(rail_i, rail_i),
                         state.pair(rail_j, rail_j), state.pair(rail_i, rail_j))
    out = (out.add_pair(rail_i, rail_i, a).add_pair(rail_j, rail_j, b)
           .add_pair(rail_i, rail_j, x))

    for other in state.rails:
        if other in mixed:
            continue
        ai = state.pair(rail_i, other)
        aj = state.pair(rail_j, other)
        out = (out.add_pair(rail_i, other, _lincomb((m_ii, ai), (m_ij, aj)))
               .add_pair(rail_j, other, _lincomb((m_ji, ai), (m_jj, aj))))
    return out._pruned(state)


def _scale_rail(state: FewPhotonState, rail: str, photons, transmission: float,
                phase: float = 0.0) -> FewPhotonState:
    """Scale every component with k in ``photons`` photons on ``rail`` by
    e^{i phase} transmission**k; the removed probability goes to lost_mass."""
    if not 0.0 <= transmission <= 1.0:
        raise ValueError(f"transmission must be in [0, 1], got {transmission}")
    state.rail_index(rail)
    lost = state.lost_mass
    norms = {}

    def scaled(key, k, amp, norm_sq):
        nonlocal lost
        # at unit transmission nothing is lost and the norm is unchanged
        if transmission != 1.0:
            norm = norm_sq(amp)
            lost += (1.0 - transmission ** (2 * k)) * norm
            norms[key] = transmission ** (2 * k) * norm
        return np.exp(1j * phase) * transmission**k * amp

    ones = dict(state.one_photon)
    if 1 in photons and rail in ones:
        ones[rail] = scaled(rail, 1, ones[rail], state.norm1_sq)
    twos = dict(state.two_photon)
    for key, amp in state.two_photon.items():
        if key.count(rail) in photons:
            twos[key] = scaled(key, key.count(rail), amp, state.norm2_sq)
    return replace(state, one_photon=ones, two_photon=twos,
                   lost_mass=lost)._pruned(state, norms)


def loss_channel(state: FewPhotonState, rail: str,
                 transmission: float) -> FewPhotonState:
    """Per-photon amplitude transmission on one rail; deficit goes to lost_mass."""
    return _scale_rail(state, rail, (1, 2), transmission)


def apply_tls(state: FewPhotonState, rail: str, p: TlsParams) -> FewPhotonState:
    """Scatter every photon on ``rail`` off a two-level emitter.

    Single photons (and single-rail factors of cross-rail pairs) receive the
    transfer coefficient pointwise; a same-rail photon pair goes through the
    full nonlinear two-photon map.  Norm deficits accrue to lost_mass.
    """
    state.rail_index(rail)
    t = transfer_coeff(p, state.grid.samples)
    lost = state.lost_mass
    norms = {}
    ones = dict(state.one_photon)
    if rail in ones:
        before = state.norm1_sq(ones[rail])
        ones[rail] = ones[rail] * t
        norms[rail] = state.norm1_sq(ones[rail])
        lost += before - norms[rail]
    twos = dict(state.two_photon)
    for key, amp in state.two_photon.items():
        if rail not in key:
            continue
        before = state.norm2_sq(amp)
        if key == (rail, rail):
            new = scatter_two(p, state.grid, amp)
        else:
            new = scale_axis(amp, t, key.index(rail))
        twos[key] = new
        norms[key] = state.norm2_sq(new)
        lost += before - norms[key]
    # The two-photon map is unitary only up to quadrature error, which can
    # push the accrued deficit slightly negative; lost_mass stays a probability.
    lost = max(lost, 0.0)
    return replace(state, one_photon=ones, two_photon=twos,
                   lost_mass=lost)._pruned(state, norms)


def project_detection(state: FewPhotonState, pattern: dict) -> float:
    """Probability of a photon-count pattern, integrated over spectra.

    ``pattern`` maps rail labels to counts; omitted rails mean zero photons.
    """
    counts = {r: c for r, c in pattern.items() if c != 0}
    for r, c in counts.items():
        state.rail_index(r)
        if c not in (1, 2):
            raise ValueError(f"photon counts must be 0, 1 or 2, got {c}")
    total = sum(counts.values())
    if total > 2:
        raise ValueError("patterns hold at most two photons")
    if total == 0:
        return abs(state.vacuum_amp) ** 2
    if total == 1:
        (rail,) = counts
        v = state.one_photon.get(rail)
        return 0.0 if v is None else state.norm1_sq(v)
    photons = [r for r, c in counts.items() for _ in range(c)]
    amp = state.two_photon.get(state._key(*photons)[0])
    return 0.0 if amp is None else state.norm2_sq(amp)


def overlap(state: FewPhotonState, target: FewPhotonState) -> complex:
    """Coherent amplitude <target|state> over the surviving components.

    Components on rails the target does not carry contribute zero (the
    target holds no amplitude there).
    """
    state.grid.require_same(target.grid)
    w = state.grid.weights
    total = np.conj(target.vacuum_amp) * state.vacuum_amp
    for r, v in state.one_photon.items():
        if r not in target.rails:
            continue
        tv = target.one_photon.get(r)
        if tv is not None:
            total += np.sum(w * np.conj(tv) * v)
    for (ra, rb), amp in state.two_photon.items():
        if ra not in target.rails or rb not in target.rails:
            continue
        tamp = target.pair(ra, rb)
        if tamp is not None:
            total += inner(tamp, amp, w)
    return complex(total)


def fidelity(state: FewPhotonState, target: FewPhotonState) -> float:
    """|<target|state>|^2 normalized over the not-lost subspace.

    Loss is reported separately through ``state.lost_mass``; two states that
    agree on their surviving components have fidelity 1 regardless of it.
    """
    ns = state.surviving_norm_sq()
    nt = target.surviving_norm_sq()
    if ns == 0.0 or nt == 0.0:
        raise ValueError("fidelity of a fully lost state is undefined")
    return abs(overlap(state, target)) ** 2 / (ns * nt)
