"""Rail order is bookkeeping: listing the rails of a state in another order
must not change any detection probability or the lost probability of any
operation.  Pair amplitudes are stored under an order-dependent key, so this
exercises every oriented read and write.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tlsphot as tp
from tlsphot.grid import lorentzian_values
from tlsphot.states import FewPhotonState

from conftest import random_state

GRID = tp.SpectralGrid(10.0, 61)
PUMP = tp.normalize(tp.OnePhotonAmp(GRID, lorentzian_values(GRID, 1.0)))
RAILS = ("a", "b", "c")
TOL = 1e-12


def both_orders(seed):
    """The same random state with its rails listed in two orders."""
    state = random_state(GRID, RAILS, seed)
    # stored pairs have axis 0 on the first rail of their key, which is the
    # constructor's convention
    return state, FewPhotonState.from_components(
        GRID, RAILS[::-1], state.vacuum_amp, state.one_photon,
        state.two_photon)


def patterns(rails):
    yield {}
    for i, r in enumerate(rails):
        yield {r: 1}
        yield {r: 2}
        for s in rails[i + 1:]:
            yield {r: 1, s: 1}


def assert_same_physics(first, second):
    assert set(first.rails) == set(second.rails)
    assert first.lost_mass == pytest.approx(second.lost_mass, abs=TOL)
    for pattern in patterns(first.rails):
        assert tp.project_detection(first, pattern) == pytest.approx(
            tp.project_detection(second, pattern), abs=TOL), pattern


def gate(efficiency):
    return tp.PulseGateSpec(pump_mode=PUMP, efficiency=efficiency)


OPS = {
    "beamsplitter": lambda s, r, q, x: tp.beamsplitter(s, r, q, x, 2 * x),
    "loss_channel": lambda s, r, q, x: tp.loss_channel(s, r, x),
    "apply_tls": lambda s, r, q, x: tp.apply_tls(
        s, r, tp.TlsParams(gamma_loss=x)),
    "sfg_extract_ideal": lambda s, r, q, x: tp.sfg_extract(s, r, gate(x)),
    "sfg_extract_photonwise": lambda s, r, q, x: tp.sfg_extract(
        s, r, gate(x), ideal=False),
    "sfg_extract_keep_single": lambda s, r, q, x: tp.sfg_extract(
        s, r, gate(x), ideal=False, keep_single_converted=True),
    "sfg_reverse": lambda s, r, q, x: tp.sfg_reverse(
        tp.sfg_extract(s, r, gate(x)), r, gate(x)),
    "sfg_reverse_keep_single": lambda s, r, q, x: tp.sfg_reverse(
        tp.sfg_extract(s, r, gate(x), ideal=False,
                       keep_single_converted=True), r, gate(x)),
    "gem_invert": lambda s, r, q, x: tp.gem_invert(s, r),
    "gem_invert_two_rails": lambda s, r, q, x: tp.gem_invert(s, (r, q)),
    "component_phase_loss_1": lambda s, r, q, x: tp.component_phase_loss(
        s, r, photons=1, phase=3 * x, transmission=x),
    "component_phase_loss_2": lambda s, r, q, x: tp.component_phase_loss(
        s, r, photons=2, phase=3 * x, transmission=x),
}


@pytest.mark.parametrize("op", sorted(OPS))
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       rails=st.permutations(RAILS),
       x=st.floats(0.05, 0.95))
def test_rail_order_does_not_change_physics(op, seed, rails, x):
    rail, other = rails[0], rails[1]
    first, second = (OPS[op](state, rail, other, x)
                     for state in both_orders(seed))
    assert_same_physics(first, second)


def test_chain_is_independent_of_rail_order():
    first, second = both_orders(7)
    for fn in (OPS["beamsplitter"], OPS["sfg_extract_ideal"],
               OPS["apply_tls"], OPS["gem_invert"]):
        first = fn(first, "b", "a", 0.4)
        second = fn(second, "b", "a", 0.4)
    assert_same_physics(first, second)
    assert tp.fidelity(first, second) == pytest.approx(1.0, abs=TOL)


def oriented_pair():
    """An asymmetric pair as given to the constructor, and its array: it
    comes back bit for bit."""
    a, b = PUMP.values, PUMP.values * GRID.samples
    return tp.pairs.FactoredPair([(1.0, a, b, None)]), np.outer(a, b)


class TestConstructor:
    def test_pair_read_is_oriented(self):
        pair, arr = oriented_pair()
        state = FewPhotonState.from_components(GRID, ("b", "a"),
                                               pairs={("a", "b"): pair})
        assert np.array_equal(state.pair("a", "b"), arr)
        assert np.array_equal(state.pair("b", "a"), arr.T)
        assert state.pair("a", "a") is None

    def test_add_pair_accumulates_across_orientations(self):
        pair, arr = oriented_pair()
        # the same pair given on (c, a) and, transposed, on (a, c)
        state = FewPhotonState.from_components(
            GRID, RAILS, pairs={("c", "a"): pair, ("a", "c"): pair.T})
        assert np.array_equal(state.pair("c", "a"), 2 * arr)
        assert len(state.two_photon) == 1

    def test_rejects_asymmetric_same_rail_pair(self):
        arr = np.outer(PUMP.values, PUMP.values * GRID.samples)
        with pytest.raises(ValueError, match="symmetric"):
            FewPhotonState.from_components(GRID, RAILS,
                                           pairs={("b", "b"): arr})

    def test_rejects_unknown_rail(self):
        with pytest.raises(ValueError, match="unknown rail"):
            FewPhotonState.from_components(GRID, RAILS,
                                           ones={"z": PUMP.values})
        with pytest.raises(ValueError, match="unknown rail"):
            FewPhotonState.from_components(
                GRID, RAILS, pairs={("a", "z"): np.eye(GRID.n_points)})

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_values(self, value):
        vec = PUMP.values.copy()
        vec[GRID.n_points // 2] = value
        with pytest.raises(ValueError, match="non-finite"):
            FewPhotonState.from_components(GRID, RAILS, ones={"a": vec})
        pair = tp.pairs.FactoredPair([(1.0, vec, PUMP.values, None)])
        with pytest.raises(ValueError, match="non-finite"):
            FewPhotonState.from_components(GRID, RAILS,
                                           pairs={("a", "b"): pair})

    def test_rejects_duplicate_rails(self):
        with pytest.raises(ValueError, match="duplicate"):
            FewPhotonState.from_components(GRID, ("a", "a"))
