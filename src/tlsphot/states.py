"""Few-photon multi-rail states (at most two photons total) and linear optics.

A :class:`FewPhotonState` stores a coherent superposition over rail-occupation
patterns: a vacuum amplitude, a spectral amplitude per singly occupied rail,
and a two-photon spectral amplitude per unordered rail pair.  Same-rail pair
amplitudes are exchange symmetric and normalized so that their discrete
double integral is the occupation probability (a pair of identical photons in
a unit mode f on one rail has amplitude f(x) f(y)).  A pair amplitude is a
factored sum of terms a(x) b(y) c(x + y) (:mod:`tlsphot.pairs`).  A
cross-rail pair must be a :class:`~tlsphot.pairs.FactoredPair`; a dense
N x N array on a same-rail key, given to the constructor or written into
``two_photon``, goes through the door :func:`tlsphot.pairs.from_dense`
once, which takes only an array that is one exchange-symmetric product
term k a(x) a(y).

The public constructor, ``FewPhotonState(...)`` and so
:meth:`FewPhotonState.from_components` and ``dataclasses.replace``, checks
what it is given: distinct rails, a finite vacuum amplitude, and for each
amplitude a known rail, the grid's sizes, finite values and, on a same-rail
pair, exchange symmetry.  A write ``state.one_photon[rail] = values`` or
``state.two_photon[key] = values`` (or ``update``, ``setdefault``, ``|=``)
gets the same checks.  Attribute writes (``state.vacuum_amp = ...``,
``state.rails = ...``) stay unchecked until the state is frozen.

Every op builds its output exactly once, through the private
:meth:`FewPhotonState._build`, which checks nothing: the op collects the
output's maps in plain dicts, prunes the amplitudes it wrote there
(:func:`_output`; the memory, which keeps every norm, does not prune) and
hands them over.
For a cross-rail pair (r, s) with r before s in the rail order, axis 0 of
the stored pair belongs to the photon on r.  That rule lives in one reader
and one writer, :func:`_read` and :func:`_put`, which the ops here and in
:mod:`tlsphot.modeops` use; other code reads a pair with
:meth:`FewPhotonState.pair`, oriented by the rails it names.

A rail's carrier is read from its label: light on a sum-frequency rail
(:func:`sum_rail`) never interferes with original-frequency light.

Probability that leaks out of the tracked rails (emitter loss, loss channels,
the sign gate's compensation) accumulates in the scalar ``lost_mass``; the
total probability including it stays 1 up to quadrature error of the
two-photon scattering map.  One rule books it (:func:`_output`): a lossy op
adds the norm that the amplitudes it writes lose, and no other op touches it.

All operations return new states; stored amplitudes are never mutated in
place, so untouched amplitudes are shared between input and output states,
and an operation norms only those it writes, once each (a pair keeps its
norm, :func:`tlsphot.pairs.norm_sq`, for the next op to read).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .grid import OnePhotonAmp, SpectralGrid
from .pairs import (
    FactoredPair,
    from_dense,
    inner,
    norm_sq,
    scale_axis,
    symmetrized,
    times,
)
from .scatter import TlsParams, scatter_two, transfer_on

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
    known rails, in the rail order if ``ordered``, one term or more, each
    sized for n samples (c for 2n - 1), finite, and exchange symmetric if a
    is b.  A dense array is taken on a same-rail key only; it must be n x n
    and goes through :func:`from_dense`."""
    a, b = key
    order = _positions(rails)
    for rail in key:
        if rail not in order:
            raise ValueError(f"unknown rail {rail!r}")
    if ordered and order[a] > order[b]:
        raise ValueError(f"pair key {key} is not in the rail order {rails}")
    if not isinstance(values, FactoredPair):
        if a != b:
            raise TypeError(
                f"pair amplitude on rails ({a!r}, {b!r}) is a "
                f"{type(values).__name__}: a cross-rail pair must be a "
                "FactoredPair (README: the np.linalg.svd recipe)")
        if np.shape(values) != (n, n):
            raise ValueError(f"pair amplitude on rails ({a!r}, {b!r}) has "
                             f"shape {np.shape(values)}, not ({n}, {n})")
        return from_dense(values)
    terms = values.terms
    if not terms:
        raise ValueError(f"factored pair amplitude on rails ({a!r}, {b!r}) "
                         "has no terms")
    # norms cache Gram entries on factor identity, through weak references
    if not all(isinstance(z, np.ndarray) for term in terms
               for z in term[1:] if z is not None):
        raise ValueError(f"factored pair amplitude on rails ({a!r}, {b!r}) "
                         "has a factor that is not a numpy array")
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
    rail order.  A write ``map[key] = values`` (or ``update``, ``setdefault``
    or ``|=``) passes the ``check`` the public constructor makes; ops build
    the maps of their output states around values they hold, unchecked."""

    def __init__(self, check, items=()):
        super().__init__(items)
        self._check = check

    def __setitem__(self, key, values):
        super().__setitem__(key, self._check(key, values))

    def update(self, *args, **kwargs):
        for key, values in dict(*args, **kwargs).items():
            self[key] = values

    def setdefault(self, key, default=None):
        if key not in self:
            self[key] = default
        return self[key]

    def __ior__(self, other):
        self.update(other)
        return self


@functools.lru_cache(maxsize=256)
def _positions(rails: tuple) -> dict:
    """Each rail's position in ``rails``, one dict per rails tuple."""
    return {r: i for i, r in enumerate(rails)}


def _checks(rails: tuple, n: int):
    """The write checks of a state's one-photon and pair maps."""
    return (functools.partial(_checked_one, rails, n),
            functools.partial(_checked_pair, rails, n))


def _read(twos, order, a, b):
    """Pair on rails (a, b) of the storage map ``twos`` with axis 0 on
    ``a``, or None; ``order`` holds the rails' positions."""
    if order[a] <= order[b]:
        return twos.get((a, b))
    amp = twos.get((b, a))
    return None if amp is None else amp.T


def _put(twos, order, a, b, values) -> None:
    """Add ``values`` (axis 0 on ``a``, None adds nothing) to the (a, b)
    pair of the storage map ``twos``, under the key in the rail order."""
    if values is None:
        return
    if order[a] > order[b]:
        a, b, values = b, a, values.T
    old = twos.get((a, b))
    twos[(a, b)] = values if old is None else old + values


@dataclass
class FewPhotonState:
    """A superposition of up to two photons on ``rails``.

    The constructor checks its arguments as :meth:`from_components` says;
    ops build their outputs once, through :meth:`_build`, around values
    they hold."""

    grid: SpectralGrid
    rails: tuple
    vacuum_amp: complex = 0.0
    one_photon: CheckedMap = field(default_factory=dict)
    two_photon: CheckedMap = field(default_factory=dict)
    lost_mass: float = 0.0

    def __post_init__(self):
        self.rails = rails = tuple(self.rails)
        if len(set(rails)) != len(rails):
            raise ValueError("duplicate rail labels")
        if not np.isfinite(self.vacuum_amp):
            raise ValueError("state amplitudes hold non-finite values")
        check_one, check_pair = _checks(rails, self.grid.n_points)
        ones = {r: check_one(r, v) for r, v in self.one_photon.items()}
        twos = {}
        for key, values in self.two_photon.items():
            _put(twos, _positions(rails), *key,
                 check_pair(key, values, ordered=False))
        self.one_photon = CheckedMap(check_one, ones)
        self.two_photon = CheckedMap(check_pair, twos)

    @classmethod
    def _build(cls, grid, rails, vacuum, ones, twos,
               lost) -> "FewPhotonState":
        """State around the maps ``ones`` and ``twos`` (pair keys in the rail
        order), unchecked: the one constructor of op outputs."""
        state = cls.__new__(cls)
        check_one, check_pair = _checks(rails, grid.n_points)
        state.grid = grid
        state.rails = rails
        state.vacuum_amp = vacuum
        state.one_photon = CheckedMap(check_one, ones)
        state.two_photon = CheckedMap(check_pair, twos)
        state.lost_mass = lost
        return state

    @classmethod
    def from_components(cls, grid: SpectralGrid, rails, vacuum: complex = 0.0j,
                        ones=None, pairs=None) -> "FewPhotonState":
        """State from its components, validated.

        ``ones`` maps a rail to its one-photon spectral values; ``pairs`` maps
        a rail pair (a, b) to its pair values with axis 0 on a, a
        :class:`~tlsphot.pairs.FactoredPair`; on a same-rail key it may also
        be an N x N array of one product term
        (:func:`~tlsphot.pairs.from_dense`), and an array on a cross-rail
        key raises ``TypeError``.  Pairs given on both (a, b) and (b, a) add
        up.  Rails must be distinct and known, values sized for the grid and
        finite, and same-rail pairs exchange symmetric.  The constructor
        takes the same arguments and makes the same checks, and a write into
        a built state's ``one_photon`` or ``two_photon`` gets them too.
        """
        return cls(grid, rails, vacuum, ones or {}, pairs or {})

    @classmethod
    def vacuum(cls, grid: SpectralGrid, rails) -> "FewPhotonState":
        return cls.from_components(grid, rails, 1.0 + 0.0j)

    # -- bookkeeping helpers -------------------------------------------------

    def _order(self, *rails) -> dict:
        """The positions of this state's rails, once ``rails`` are known."""
        order = _positions(self.rails)
        for rail in rails:
            if rail not in order:
                raise ValueError(f"unknown rail {rail!r}")
        return order

    def rail_index(self, rail: str) -> int:
        return self._order(rail)[rail]

    def pair(self, a: str, b: str):
        """Pair amplitude on rails (a, b) with axis 0 on ``a``, or
        None if the state holds none."""
        return _read(self.two_photon, self._order(a, b), a, b)

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


def _output(state: FewPhotonState, ones: dict, twos: dict, rails=None,
            lossy: bool = False) -> FewPhotonState:
    """The output of an op on ``state``, built once from its maps ``ones``
    and ``twos`` (pair keys in the rail order of ``rails``, by default the
    state's).

    Each amplitude written since ``state`` (ops never mutate arrays, so one
    shared with ``state`` was not) is normed once and dropped if below
    _PRUNE_SQ.  A ``lossy`` op adds to lost_mass the norms of the amplitudes
    of ``state`` it replaced or dropped less those it wrote, clamped at 0
    against the quadrature error of the two-photon map.
    """
    lost = state.lost_mass
    for amps, old, norm_sq in ((ones, state.one_photon, state.norm1_sq),
                               (twos, state.two_photon, state.norm2_sq)):
        if lossy:
            lost += sum(norm_sq(v) for k, v in old.items() if k not in amps)
        for key, v in list(amps.items()):
            before = old.get(key)
            if v is before:
                continue
            norm = norm_sq(v)
            if lossy:
                lost += (0.0 if before is None else norm_sq(before)) - norm
            if norm <= _PRUNE_SQ:
                del amps[key]
    return FewPhotonState._build(
        state.grid, state.rails if rails is None else rails,
        state.vacuum_amp, ones, twos, max(lost, 0.0) if lossy else lost)


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
    order = state._order(rail_i, rail_j)
    if is_sum_rail(rail_i) != is_sum_rail(rail_j):
        raise ValueError(f"carrier mismatch: {rail_i!r} and {rail_j!r} "
                         "carry different frequencies")
    if not (np.isfinite(theta) and np.isfinite(phi)):
        raise ValueError(f"angles must be finite, got {theta}, {phi}")
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

    pairs_in = state.two_photon
    twos = {key: amp for key, amp in pairs_in.items()
            if key[0] not in mixed and key[1] not in mixed}
    a, b, x = _pair_lift(((m_ii, m_ij), (m_ji, m_jj)),
                         _read(pairs_in, order, rail_i, rail_i),
                         _read(pairs_in, order, rail_j, rail_j),
                         _read(pairs_in, order, rail_i, rail_j))
    _put(twos, order, rail_i, rail_i, a)
    _put(twos, order, rail_j, rail_j, b)
    _put(twos, order, rail_i, rail_j, x)

    for other in state.rails:
        if other in mixed:
            continue
        ai = _read(pairs_in, order, rail_i, other)
        aj = _read(pairs_in, order, rail_j, other)
        if ai is None and aj is None:
            continue
        _put(twos, order, rail_i, other, _lincomb((m_ii, ai), (m_ij, aj)))
        _put(twos, order, rail_j, other, _lincomb((m_ji, ai), (m_jj, aj)))
    return _output(state, ones, twos)


def _scale_rail(state: FewPhotonState, rail: str, photons, transmission: float,
                phase: float = 0.0) -> FewPhotonState:
    """Scale every component with k in ``photons`` photons on ``rail`` by
    e^{i phase} transmission**k; the removed probability goes to lost_mass
    (:func:`_output`), none at unit transmission."""
    if not 0.0 <= transmission <= 1.0:
        raise ValueError(f"transmission must be in [0, 1], got {transmission}")
    if not np.isfinite(phase):
        raise ValueError(f"phase must be finite, got {phase}")
    state.rail_index(rail)
    phased = np.exp(1j * phase)
    ones = {r: phased * transmission * v if r == rail and 1 in photons else v
            for r, v in state.one_photon.items()}
    twos = {key: phased * transmission**key.count(rail) * amp
            if key.count(rail) in photons else amp
            for key, amp in state.two_photon.items()}
    return _output(state, ones, twos, lossy=transmission != 1.0)


def loss_channel(state: FewPhotonState, rail: str,
                 transmission: float) -> FewPhotonState:
    """Per-photon amplitude transmission on one rail; deficit goes to lost_mass."""
    return _scale_rail(state, rail, (1, 2), transmission)


def apply_tls(state: FewPhotonState, rail: str, p: TlsParams) -> FewPhotonState:
    """Scatter every photon on ``rail`` off a two-level emitter.

    Single photons (and single-rail factors of cross-rail pairs) receive the
    transfer coefficient pointwise; a same-rail photon pair goes through the
    full nonlinear two-photon map.  Norm deficits accrue to lost_mass
    (:func:`_output`).
    """
    state.rail_index(rail)
    t = transfer_on(p, state.grid)
    ones = {r: times(t, v) if r == rail else v
            for r, v in state.one_photon.items()}
    twos = dict(state.two_photon)
    for key, amp in state.two_photon.items():
        if key == (rail, rail):
            twos[key] = scatter_two(p, state.grid, amp)
        elif rail in key:
            twos[key] = scale_axis(amp, t, key.index(rail))
    return _output(state, ones, twos, lossy=True)


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
    amp = state.pair(*(r for r, c in counts.items() for _ in range(c)))
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
