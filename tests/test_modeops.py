import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tlsphot as tp
from tlsphot.grid import lorentzian_values, require_symmetric
from tlsphot.modeops import sum_rail
from tlsphot.pairs import FactoredPair, norm_sq
from tlsphot.states import (
    FewPhotonState,
    fidelity,
    project_detection,
)

from conftest import random_state


@pytest.fixture(scope="module")
def grid():
    return tp.SpectralGrid(40.0, 801)


@pytest.fixture(scope="module")
def pump_pulse(grid):
    return tp.make_pulse(tp.PulseShape("lorentzian", 1.0), grid)


@pytest.fixture(scope="module")
def gate(pump_pulse):
    return tp.PulseGateSpec(pump_mode=pump_pulse)


@pytest.fixture(scope="module")
def orth_pulse(grid, pump_pulse):
    odd = tp.OnePhotonAmp(grid, pump_pulse.values * grid.samples)
    return tp.normalize(odd)


ANC = sum_rail("sig")


class TestSfgExtract:
    def test_pump_photon_fully_converts(self, grid, pump_pulse, gate):
        st = FewPhotonState.from_components(
            grid, ("sig",), ones={"sig": pump_pulse.values})
        out = tp.sfg_extract(st, "sig", gate)
        assert project_detection(out, {ANC: 1}) == pytest.approx(1.0,
                                                                 abs=1e-12)
        assert project_detection(out, {"sig": 1}) < 1e-20
        # the gate's own ancilla carries sum-frequency light
        with pytest.raises(ValueError, match="'sig'.*'sig@sum'"):
            tp.beamsplitter(out, "sig", ANC, np.pi / 4)

    def test_orthogonal_photon_untouched(self, grid, orth_pulse, gate):
        st = FewPhotonState.from_components(
            grid, ("sig",), ones={"sig": orth_pulse.values})
        out = tp.sfg_extract(st, "sig", gate)
        assert project_detection(out, {"sig": 1}) == pytest.approx(1.0,
                                                                   abs=1e-12)
        assert project_detection(out, {ANC: 1}) < 1e-20

    def test_matched_pair_both_converted_vanishes(self, gate):
        p = tp.TlsParams()
        sigma = tp.matching_sigma(p, "upper")
        g = tp.SpectralGrid(60.0, 1201)
        f = tp.make_pulse(tp.PulseShape("lorentzian", sigma), g)
        pair = tp.scatter_two(p, g, FactoredPair.product(f.values))
        st = FewPhotonState.from_components(
            g, ("sig",), pairs={("sig", "sig"): pair})
        pump = tp.make_pump(p, f)
        out = tp.sfg_extract(st, "sig", pump)
        anc = sum_rail("sig")
        assert project_detection(out, {anc: 2}) < 1e-6
        # idealized gate keeps the full pair weight on the signal rail
        assert project_detection(out, {"sig": 2}) == pytest.approx(
            norm_sq(pair, g.weights), abs=1e-9)

    def test_photonwise_discards_single_converted(self, gate):
        p = tp.TlsParams()
        sigma = tp.matching_sigma(p, "upper")
        g = tp.SpectralGrid(60.0, 1201)
        f = tp.make_pulse(tp.PulseShape("lorentzian", sigma), g)
        pair = tp.scatter_two(p, g, FactoredPair.product(f.values))
        st = FewPhotonState.from_components(
            g, ("sig",), pairs={("sig", "sig"): pair})
        pump = tp.make_pump(p, f)
        out = tp.sfg_extract(st, "sig", pump, ideal=False)
        leak = tp.leakage_metric(pump, pair)
        assert out.lost_mass == pytest.approx(2 * leak**2, abs=1e-9)
        assert out.total_probability() == pytest.approx(
            norm_sq(pair, g.weights), abs=1e-9)

    def test_photonwise_keep_conserves_probability(self, grid, pump_pulse,
                                                   orth_pulse, gate):
        mix = tp.normalize(tp.OnePhotonAmp(
            grid, pump_pulse.values + 0.5 * orth_pulse.values))
        st = FewPhotonState.from_components(
            grid, ("sig",),
            pairs={("sig", "sig"): np.outer(mix.values, mix.values)})
        out = tp.sfg_extract(st, "sig", gate, ideal=False,
                             keep_single_converted=True)
        assert out.lost_mass == 0.0
        assert out.surviving_norm_sq() == pytest.approx(1.0, abs=1e-10)
        assert project_detection(out, {"sig": 1, ANC: 1}) > 0.1

    def test_cross_pair_conversion(self, grid, pump_pulse, orth_pulse, gate):
        st = FewPhotonState.from_components(
            grid, ("sig", "spec"),
            pairs={("sig", "spec"): np.outer(pump_pulse.values,
                                             orth_pulse.values)})
        out = tp.sfg_extract(st, "sig", gate)
        assert project_detection(out, {ANC: 1, "spec": 1}) == pytest.approx(
            1.0, abs=1e-10)

    def test_efficiency_splits_amplitude(self, grid, pump_pulse):
        gate_half = tp.PulseGateSpec(pump_mode=pump_pulse, efficiency=0.6)
        st = FewPhotonState.from_components(
            grid, ("sig",), ones={"sig": pump_pulse.values})
        out = tp.sfg_extract(st, "sig", gate_half)
        assert project_detection(out, {ANC: 1}) == pytest.approx(0.6,
                                                                 abs=1e-12)
        assert project_detection(out, {"sig": 1}) == pytest.approx(0.4,
                                                                   abs=1e-12)


class TestSfgReverse:
    def test_extract_reverse_roundtrip(self, grid, pump_pulse, gate):
        st = FewPhotonState.from_components(
            grid, ("sig",), ones={"sig": pump_pulse.values})
        out = tp.sfg_reverse(tp.sfg_extract(st, "sig", gate), "sig", gate)
        target = FewPhotonState.from_components(
            grid, ("sig", ANC), ones={"sig": pump_pulse.values})
        assert fidelity(out, target) == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_passes(self, grid, gate):
        st = FewPhotonState.vacuum(grid, ("sig",))
        out = tp.sfg_reverse(tp.sfg_extract(st, "sig", gate), "sig", gate)
        assert abs(out.vacuum_amp) == pytest.approx(1.0, abs=1e-15)

    def test_phase_on_ancilla_survives(self, grid, pump_pulse, gate):
        st = FewPhotonState.from_components(
            grid, ("sig",), ones={"sig": pump_pulse.values})
        mid = tp.sfg_extract(st, "sig", gate)
        mid = tp.component_phase_loss(mid, ANC, photons=1, phase=0.77)
        out = tp.sfg_reverse(mid, "sig", gate)
        ov = np.sum(grid.weights * np.conj(pump_pulse.values)
                    * out.one_photon["sig"])
        assert np.angle(ov) == pytest.approx(0.77, abs=1e-12)

    def test_non_pump_ancilla_rejected(self, grid, orth_pulse, gate):
        st = FewPhotonState.from_components(
            grid, ("sig", ANC), ones={ANC: orth_pulse.values})
        with pytest.raises(ValueError, match="pump"):
            tp.sfg_reverse(st, "sig", gate)

    @pytest.mark.parametrize("form", ["dense", "factored"])
    @pytest.mark.parametrize("weight, raises", [(2e-12, True),
                                                (5e-13, False)])
    def test_off_pump_weight_threshold(self, grid, pump_pulse, orth_pulse,
                                       gate, form, weight, raises):
        # ancilla photon in pump + eps orth, partner in the pump mode: the
        # orthogonal weight is eps^2 against the 1e-12 threshold
        p, o = pump_pulse.values, orth_pulse.values
        eps = np.sqrt(weight)
        values = (FactoredPair([(1.0, p, p, None), (eps, o, p, None)])
                  if form == "factored"
                  else np.outer(p, p) + eps * np.outer(o, p))
        st = FewPhotonState.from_components(
            grid, ("sig", ANC), pairs={(ANC, "sig"): values})
        if raises:
            with pytest.raises(ValueError, match="pump"):
                tp.sfg_reverse(st, "sig", gate)
        else:
            out = tp.sfg_reverse(st, "sig", gate)
            assert all(isinstance(v, FactoredPair)
                       for v in out.two_photon.values())

    def test_through_path_amplitude_is_efficiency(self, grid, pump_pulse):
        # tag the converted branch with a phase, then bring it back: the
        # tagged part of the signal amplitude carries a factor = efficiency
        e = 0.7
        gate_e = tp.PulseGateSpec(pump_mode=pump_pulse, efficiency=e)
        st = FewPhotonState.from_components(
            grid, ("sig",), ones={"sig": pump_pulse.values})
        mid = tp.sfg_extract(st, "sig", gate_e)
        mid = tp.component_phase_loss(mid, ANC, photons=1, phase=np.pi / 2)
        out = tp.sfg_reverse(mid, "sig", gate_e)
        ov = np.sum(grid.weights * np.conj(pump_pulse.values)
                    * out.one_photon["sig"])
        assert ov.imag == pytest.approx(e, abs=1e-12)

    def test_pump_pair_round_trip_below_unit_efficiency(self, grid,
                                                         pump_pulse):
        gate_e = tp.PulseGateSpec(pump_mode=pump_pulse, efficiency=0.6)
        st = FewPhotonState.from_components(
            grid, ("sig",),
            pairs={("sig", "sig"): np.outer(pump_pulse.values,
                                            pump_pulse.values)})
        out = tp.sfg_reverse(tp.sfg_extract(st, "sig", gate_e), "sig",
                             gate_e)
        assert out.total_probability() == pytest.approx(1.0, abs=1e-12)
        assert fidelity(out, st) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("efficiency", [0.6, 1.0])
    def test_reverse_after_photonwise_keep(self, grid, pump_pulse,
                                           orth_pulse, efficiency):
        # the single-converted (sig, sig@sum) branch is not in the gate's
        # both-in-pump subspace: it stays, and nothing is double counted
        gate_e = tp.PulseGateSpec(pump_mode=pump_pulse, efficiency=efficiency)
        mix = tp.normalize(tp.OnePhotonAmp(
            grid, pump_pulse.values + 0.5 * orth_pulse.values))
        st = FewPhotonState.from_components(
            grid, ("sig",),
            pairs={("sig", "sig"): np.outer(mix.values, mix.values)})
        mid = tp.sfg_extract(st, "sig", gate_e, ideal=False,
                             keep_single_converted=True)
        out = tp.sfg_reverse(mid, "sig", gate_e)
        assert out.total_probability() == pytest.approx(1.0, abs=1e-12)
        for (a, b), amp in out.two_photon.items():
            if a == b:
                assert amp.symmetric
                require_symmetric(np.asarray(amp))


ROUND_GRID = tp.SpectralGrid(10.0, 61)
ROUND_PUMP = tp.normalize(tp.OnePhotonAmp(
    ROUND_GRID, lorentzian_values(ROUND_GRID, 1.0)))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       rails=st.permutations(("a", "b", "c")),
       efficiency=st.floats(0.0, 1.0))
def test_extract_reverse_round_trip(seed, rails, efficiency):
    """Reverse undoes the (ideal) extraction at any efficiency, on random
    content in every sector, with spectator rails in either order."""
    gate_e = tp.PulseGateSpec(pump_mode=ROUND_PUMP, efficiency=efficiency)
    state = random_state(ROUND_GRID, tuple(rails), seed)
    rail = rails[1]
    out = tp.sfg_reverse(tp.sfg_extract(state, rail, gate_e), rail, gate_e)
    assert out.rails == state.rails + (sum_rail(rail),)
    assert out.total_probability() == pytest.approx(1.0, abs=1e-12)
    assert fidelity(out, state) == pytest.approx(1.0, abs=1e-12)


class TestGemInvert:
    def test_involution(self, grid):
        rng = np.random.default_rng(1)
        v = rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(
            grid.n_points)
        st = FewPhotonState.from_components(grid, ("sig",), ones={"sig": v})
        out = tp.gem_invert(tp.gem_invert(st))
        assert np.array_equal(out.one_photon["sig"], v)

    def test_even_pulse_unchanged(self, grid, pump_pulse):
        st = FewPhotonState.from_components(
            grid, ("sig",), ones={"sig": pump_pulse.values})
        out = tp.gem_invert(st)
        assert np.allclose(out.one_photon["sig"], pump_pulse.values,
                           atol=1e-14)

    def test_scatter_invert_scatter_recovers_pulse(self, grid, pump_pulse):
        # t(-d) t(d) = 1 for a lossless emitter, so the chain restores f
        p = tp.TlsParams()
        st = FewPhotonState.from_components(
            grid, ("sig",), ones={"sig": pump_pulse.values})
        out = tp.apply_tls(tp.gem_invert(tp.apply_tls(st, "sig", p)),
                           "sig", p)
        target = FewPhotonState.from_components(
            grid, ("sig",), ones={"sig": pump_pulse.values})
        assert fidelity(out, target) >= 1.0 - 1e-10

    def test_selective_rail_flip(self, grid, pump_pulse):
        shifted = tp.make_pulse(tp.PulseShape("lorentzian", 1.0, center=1.0),
                                grid)
        st = FewPhotonState.from_components(
            grid, ("a", "b"),
            pairs={("a", "b"): np.outer(shifted.values, shifted.values)})
        out = tp.gem_invert(st, "a")
        expect = np.outer(shifted.values[::-1], shifted.values)
        assert np.allclose(out.two_photon[("a", "b")], expect, atol=1e-14)

    def test_norm_preserved(self, grid, pump_pulse):
        st = FewPhotonState.from_components(
            grid, ("a",),
            pairs={("a", "a"): np.outer(pump_pulse.values, pump_pulse.values)})
        out = tp.gem_invert(st)
        assert out.surviving_norm_sq() == pytest.approx(
            st.surviving_norm_sq(), abs=1e-14)


class TestComponentPhaseLoss:
    def test_pi_phase_negates_pair(self, grid, pump_pulse):
        arr = np.outer(pump_pulse.values, pump_pulse.values)
        st = FewPhotonState.from_components(
            grid, ("a",), pairs={("a", "a"): arr})
        out = tp.component_phase_loss(st, "a", photons=2, phase=np.pi)
        assert np.allclose(out.two_photon[("a", "a")], -arr, atol=1e-15)
        assert out.lost_mass == 0.0

    def test_pair_transmission_squared(self, grid, pump_pulse):
        arr = np.outer(pump_pulse.values, pump_pulse.values)
        st = FewPhotonState.from_components(
            grid, ("a",), pairs={("a", "a"): arr})
        out = tp.component_phase_loss(st, "a", photons=2, phase=0.0,
                                      transmission=0.8)
        assert np.allclose(out.two_photon[("a", "a")], 0.64 * arr, atol=1e-15)
        assert out.total_probability() == pytest.approx(1.0, abs=1e-12)

    def test_eta2_scaling_matches_skew_compensation(self, grid, pump_pulse):
        p = tp.TlsParams.from_beta(0.9)
        eta2 = tp.circuits.ns_eta2(p, pump_pulse)
        arr = np.outer(pump_pulse.values, pump_pulse.values)
        st = FewPhotonState.from_components(
            grid, ("a",), pairs={("a", "a"): arr})
        out = tp.component_phase_loss(st, "a", photons=2, phase=0.0,
                                      transmission=np.sqrt(eta2))
        assert np.allclose(out.two_photon[("a", "a")], eta2 * arr, atol=1e-12)

    def test_selects_photon_count(self, grid, pump_pulse):
        st = FewPhotonState.from_components(
            grid, ("a", "b"), ones={"a": pump_pulse.values})
        out = tp.component_phase_loss(st, "a", photons=2, phase=np.pi)
        assert np.allclose(out.one_photon["a"], pump_pulse.values,
                           atol=1e-15)

    @pytest.mark.parametrize("phase", [np.nan, np.inf, -np.inf])
    def test_non_finite_phase_rejected(self, grid, pump_pulse, phase):
        st = FewPhotonState.from_components(
            grid, ("a",), ones={"a": pump_pulse.values})
        with pytest.raises(ValueError, match="finite"):
            tp.component_phase_loss(st, "a", photons=1, phase=phase)

    def test_transmission_range(self, grid, pump_pulse):
        st = FewPhotonState.from_components(
            grid, ("a",), ones={"a": pump_pulse.values})
        with pytest.raises(ValueError):
            tp.component_phase_loss(st, "a", photons=1, phase=0.0,
                                    transmission=-0.1)


class TestLeakageMetric:
    def test_pump_pair_no_leakage(self, gate, pump_pulse):
        psi = FactoredPair.product(pump_pulse.values)
        assert tp.leakage_metric(gate, psi) < 1e-12

    def test_orthogonal_pair_no_leakage(self, gate, orth_pulse):
        psi = FactoredPair.product(orth_pulse.values)
        assert tp.leakage_metric(gate, psi) < 1e-12

    def test_matched_pair_leakage_reported(self):
        p = tp.TlsParams()
        sigma = tp.matching_sigma(p, "upper")
        g = tp.SpectralGrid(60.0, 1201)
        f = tp.make_pulse(tp.PulseShape("lorentzian", sigma), g)
        pair = tp.scatter_two(p, g, FactoredPair.product(f.values))
        pump = tp.make_pump(p, f)
        leak = tp.leakage_metric(pump, pair)
        # no closed form exists; the value is a diagnostic and is nonzero
        assert 0.1 < leak < 1.0
