import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tlsphot as tp
from tlsphot.pairs import FactoredPair
from tlsphot.states import (
    FewPhotonState,
    apply_tls,
    beamsplitter,
    fidelity,
    loss_channel,
    overlap,
    project_detection,
    sum_rail,
)

from conftest import random_state

SMALL_GRID = tp.SpectralGrid(10.0, 31)
# every pair a beamsplitter on rails a and b reads, and spectator pairs
# that move with one photon (a-c, b-c) or not at all (c-c)
PAIRS = (("a", "a"), ("b", "b"), ("a", "b"), ("a", "c"), ("b", "c"),
         ("c", "c"))


@pytest.fixture(scope="module")
def grid():
    return tp.SpectralGrid(40.0, 801)


@pytest.fixture(scope="module")
def pulse(grid):
    return tp.make_pulse(tp.PulseShape("lorentzian", 1.0), grid)


@pytest.fixture(scope="module")
def pulse_b(grid):
    return tp.make_pulse(tp.PulseShape("gaussian", 1.2, center=1.0), grid)


class TestFromComponents:
    # an amplitude sized for another grid fails when the state is built,
    # not later as a broadcast error in total_probability
    GRID = tp.SpectralGrid(30.0, 601)

    def test_one_photon_length_checked(self):
        with pytest.raises(ValueError, match=r"rail 'a'.*not \(601,\)"):
            FewPhotonState.from_components(self.GRID, ("a", "b"),
                                           ones={"a": np.ones(7)})

    def test_dense_pair_shape_checked(self):
        with pytest.raises(ValueError,
                           match=r"rails \('a', 'b'\).*not \(601, 601\)"):
            FewPhotonState.from_components(self.GRID, ("a", "b"),
                                           pairs={("a", "b"): np.ones((9, 9))})

    def test_factored_term_lengths_checked(self):
        n = self.GRID.n_points
        f = np.ones(n, dtype=complex)
        for pair in (FactoredPair.product(np.ones(9, dtype=complex)),
                     FactoredPair([(1.0, f, f[:-1], None)], True),
                     FactoredPair([(1.0, f, f, np.ones(n, dtype=complex))],
                                  True)):
            with pytest.raises(ValueError, match=r"rails \('a', 'a'\)"):
                FewPhotonState.from_components(self.GRID, ("a",),
                                               pairs={("a", "a"): pair})
        # the sizes the grid asks for pass
        c = np.ones(2 * n - 1, dtype=complex)
        state = FewPhotonState.from_components(
            self.GRID, ("a",), pairs={("a", "a"): FactoredPair.product(f)
                                      + FactoredPair([(1.0, f, f, c)], True)})
        assert state.total_probability() > 0.0

    def test_direct_pair_write_shape_checked(self):
        state = FewPhotonState.vacuum(self.GRID, ("a",))
        with pytest.raises(ValueError,
                           match=r"rails \('a', 'a'\).*not \(601, 601\)"):
            state.two_photon[("a", "a")] = np.ones((9, 9))

    # a write into a built state gets the checks from_components makes

    def test_direct_one_photon_write_length_checked(self):
        state = FewPhotonState.vacuum(self.GRID, ("a",))
        with pytest.raises(ValueError, match=r"rail 'a'.*not \(601,\)"):
            state.one_photon["a"] = np.ones(7)
        with pytest.raises(ValueError, match=r"rail 'a'.*not \(601,\)"):
            state.one_photon.update(a=np.ones(7))
        assert "a" not in state.one_photon

    def test_direct_one_photon_write_rail_checked(self):
        state = FewPhotonState.vacuum(self.GRID, ("a",))
        with pytest.raises(ValueError, match="unknown rail 'zz'"):
            state.one_photon["zz"] = np.ones(601)
        assert state.total_probability() == 1.0

    def test_direct_pair_write_rail_checked(self):
        state = FewPhotonState.vacuum(self.GRID, ("a",))
        f = np.ones(601, dtype=complex)
        with pytest.raises(ValueError, match="unknown rail 'zz'"):
            state.two_photon[("zz", "zz")] = np.outer(f, f)
        assert state.two_photon == {}

    @pytest.mark.parametrize("pair, match", [
        (FactoredPair.product(np.ones(7, dtype=complex)), "not sized"),
        (FactoredPair([(1.0, np.ones(601, dtype=complex),
                        np.arange(601.0) + 0j, None)], False), "symmetric"),
        (FactoredPair.product([1.0 + 0j] * 601), "not a numpy array"),
    ])
    def test_direct_factored_write_checked(self, pair, match):
        state = FewPhotonState.vacuum(self.GRID, ("a",))
        with pytest.raises(ValueError, match=match):
            state.two_photon[("a", "a")] = pair

    def test_direct_pair_write_key_in_rail_order(self):
        # a pair is stored once, under the key in the rail order
        state = FewPhotonState.vacuum(self.GRID, ("a", "b"))
        pair = FactoredPair.product(np.ones(601, dtype=complex))
        with pytest.raises(ValueError, match="rail order"):
            state.two_photon[("b", "a")] = pair
        state.two_photon[("a", "b")] = pair
        assert state.pair("b", "a") is not None

    @pytest.mark.parametrize("key, values, match", [
        (("a", "a"), FactoredPair([(1.0, np.ones(601, dtype=complex),
                                    np.arange(601.0) + 0j, None)]),
         "symmetric"),
        (("b", "a"), FactoredPair.product(np.ones(7, dtype=complex)),
         "not sized"),
        (("a", "b"), FactoredPair.product(np.full(601, np.nan + 0j)),
         "non-finite"),
        (("zz", "a"), FactoredPair.product(np.ones(601, dtype=complex)),
         "unknown rail 'zz'"),
    ], ids=["asymmetric", "short", "nan", "unknown_rail"])
    def test_add_pair_checked(self, key, values, match):
        # a pair added to a state, under a key in either order, gets the
        # constructor's pair checks
        with pytest.raises(ValueError, match=match):
            FewPhotonState.from_components(self.GRID, ("a", "b"), 1.0,
                                           pairs={key: values})

    def test_add_pair_dense_goes_through_the_door(self):
        w = self.GRID.weights
        dense = np.outer(np.arange(601.0), np.ones(601)) / 601.0 + 0j
        # axis 0 on b
        out = FewPhotonState.from_components(self.GRID, ("a", "b"), 1.0,
                                             pairs={("b", "a"): dense})
        assert isinstance(out.two_photon[("a", "b")], FactoredPair)
        assert np.allclose(out.pair("b", "a").dense(), dense, atol=1e-12)
        assert out.total_probability() == pytest.approx(
            1.0 + np.sum(np.outer(w, w) * np.abs(dense) ** 2), rel=1e-12)

    def test_pair_without_terms_rejected(self):
        # it would pass every per-term check and fail later in an op
        with pytest.raises(ValueError, match="no terms"):
            FewPhotonState.from_components(
                self.GRID, ("a",), pairs={("a", "a"): FactoredPair([], True)})

    @pytest.mark.parametrize("vacuum", [np.nan, np.inf, complex(0, np.inf)])
    def test_non_finite_vacuum_rejected(self, vacuum):
        with pytest.raises(ValueError, match="non-finite"):
            FewPhotonState.from_components(self.GRID, ("a",), vacuum)

    def test_writes_into_op_outputs_checked(self):
        f = np.ones(601, dtype=complex)
        out = beamsplitter(FewPhotonState.from_components(
            self.GRID, ("a", "b"), ones={"a": f}), "a", "b", 0.3)
        with pytest.raises(ValueError, match=r"not \(601,\)"):
            out.one_photon["b"] = np.ones(7)

    def test_valid_direct_writes_pass(self, grid, pulse):
        # the one-rail NS input, written into a built state
        amp = 1.0 / np.sqrt(3.0)
        state = FewPhotonState.vacuum(grid, ("sig",))
        state.vacuum_amp = amp
        state.one_photon["sig"] = amp * pulse.values
        state.two_photon[("sig", "sig")] = amp * np.outer(pulse.values,
                                                          pulse.values)
        assert state.total_probability() == pytest.approx(1.0, abs=1e-12)

    def test_ops_do_not_recheck(self, grid, pulse, monkeypatch):
        # ops rebuild states from values they hold; the checks are for writes
        state = FewPhotonState.from_components(
            grid, ("a", "b"), ones={"a": pulse.values},
            pairs={("a", "a"): FactoredPair.product(pulse.values)})

        def refuse(*args):
            raise AssertionError("an op re-ran a write check")

        monkeypatch.setattr(tp.states.CheckedMap, "__setitem__", refuse)
        out = apply_tls(beamsplitter(state, "a", "b", 0.4), "a",
                        tp.TlsParams.from_beta(0.95))
        assert out.total_probability() == pytest.approx(
            state.total_probability(), abs=1e-6)

    # the public constructor makes the checks from_components makes, for a
    # bare call and for dataclasses.replace alike

    def test_bare_constructor_checked(self):
        with pytest.raises(ValueError, match="unknown rail 'zz'"):
            FewPhotonState(self.GRID, ("a",), 1.0,
                           one_photon={"zz": np.ones(7)})
        with pytest.raises(ValueError, match=r"rail 'a'.*not \(601,\)"):
            FewPhotonState(self.GRID, ("a",), one_photon={"a": np.ones(7)})
        with pytest.raises(ValueError, match="duplicate"):
            FewPhotonState(self.GRID, ("a", "a"), 1.0)
        with pytest.raises(ValueError, match="non-finite"):
            FewPhotonState(self.GRID, ("a",), np.nan)
        f = np.ones(601, dtype=complex)
        with pytest.raises(ValueError, match="symmetric"):
            FewPhotonState(self.GRID, ("a",), two_photon={
                ("a", "a"): FactoredPair([(1.0, f, 2.0 * f, None)])})

    def test_bare_constructor_orients_pairs(self):
        # pair keys in either order, as from_components takes them
        f = np.ones(601, dtype=complex)
        pair = FactoredPair([(1.0, f, np.arange(601.0) + 0j, None)])
        state = FewPhotonState(self.GRID, ("a", "b"),
                               two_photon={("b", "a"): pair})
        assert list(state.two_photon) == [("a", "b")]
        assert state.pair("b", "a").terms == pair.terms

    def test_replace_checked(self):
        state = FewPhotonState.vacuum(self.GRID, ("a",))
        with pytest.raises(ValueError, match="non-finite"):
            dataclasses.replace(state, vacuum_amp=np.inf)
        with pytest.raises(ValueError, match=r"not \(601,\)"):
            dataclasses.replace(state, one_photon={"a": np.ones(7)})
        with pytest.raises(ValueError, match="unknown rail 'zz'"):
            dataclasses.replace(state, one_photon={"zz": np.ones(601)})
        out = dataclasses.replace(state, one_photon={"a": np.ones(601)})
        assert out.total_probability() > state.total_probability()

    @pytest.mark.parametrize("sector, key, bad", [
        ("one_photon", "a", np.ones(7)),
        ("one_photon", "zz", np.ones(601)),
        ("two_photon", ("a", "a"), np.ones((9, 9))),
        ("two_photon", ("zz", "zz"), np.ones((601, 601))),
    ])
    def test_setdefault_and_ior_checked(self, sector, key, bad):
        # neither write path may skip the checks a plain write makes
        state = FewPhotonState.vacuum(self.GRID, ("a",))
        amps = getattr(state, sector)
        with pytest.raises(ValueError):
            amps.setdefault(key, bad)
        with pytest.raises(ValueError):
            amps |= {key: bad}
        assert amps == {}
        assert state.total_probability() == 1.0

    def test_setdefault_and_ior_write_checked_values(self):
        state = FewPhotonState.vacuum(self.GRID, ("a", "b"))
        f = np.ones(601)
        # a dense pair goes through the door, as a plain write does
        pair = state.two_photon.setdefault(("a", "a"), np.outer(f, f))
        assert isinstance(pair, FactoredPair)
        assert state.two_photon.setdefault(("a", "a"), None) is pair
        state.one_photon |= {"b": f}
        assert state.one_photon["b"].dtype == complex
        # the emitter pass runs on pairs factored when they were written
        out = apply_tls(state, "a", tp.TlsParams.from_beta(1.0))
        assert out.total_probability() == pytest.approx(
            state.total_probability(), rel=1e-9)

    @pytest.mark.parametrize("call", [
        lambda s: s.rail_index("zz"),
        lambda s: s.pair("a", "zz"),
        lambda s: s.pair("zz", "a"),
        lambda s: beamsplitter(s, "a", "zz", 0.3),
        lambda s: beamsplitter(s, "zz", "a", 0.3),
    ], ids=["rail_index", "pair", "pair_first", "beamsplitter",
            "beamsplitter_first"])
    def test_unknown_rail_message(self, call):
        state = FewPhotonState.vacuum(self.GRID, ("a", "b"))
        with pytest.raises(ValueError, match=r"^unknown rail 'zz'$"):
            call(state)


class TestBeamsplitter:
    def test_one_rail_twice_refused(self, grid, pulse):
        st = FewPhotonState.from_components(grid, ("a", "b"),
                                            ones={"a": pulse.values})
        with pytest.raises(ValueError, match="two distinct rails"):
            beamsplitter(st, "a", "a", 0.3)

    def test_hong_ou_mandel(self, grid, pulse):
        st = FewPhotonState.from_components(
            grid, ("a", "b"),
            pairs={("a", "b"): np.outer(pulse.values, pulse.values)})
        out = beamsplitter(st, "a", "b", np.pi / 4, 0.0)
        assert project_detection(out, {"a": 1, "b": 1}) < 1e-12
        assert project_detection(out, {"a": 2}) == pytest.approx(0.5,
                                                                 abs=1e-9)
        assert project_detection(out, {"b": 2}) == pytest.approx(0.5,
                                                                 abs=1e-9)
        # the cancelled coincidence amplitude is pruned, not kept as zeros
        assert ("a", "b") not in out.two_photon

    @pytest.mark.parametrize("theta, phi", [(np.nan, 0.0), (np.inf, 0.0),
                                            (0.3, np.nan), (0.3, -np.inf)])
    def test_non_finite_angles_rejected(self, grid, pulse, theta, phi):
        # pruning would drop every NaN amplitude and book none of it as lost
        st = FewPhotonState.from_components(grid, ("a", "b"),
                                            ones={"a": pulse.values})
        with pytest.raises(ValueError, match="finite"):
            beamsplitter(st, "a", "b", theta, phi)

    def test_zero_angle_is_identity(self, grid, pulse):
        st = random_state(grid, ("a", "b"), seed=11)
        out = beamsplitter(st, "a", "b", 0.0, 0.3)
        assert fidelity(out, st) == pytest.approx(1.0, abs=1e-12)

    def test_unitary_on_random_states(self, grid):
        st = random_state(grid, ("a", "b", "c"), seed=5)
        out = beamsplitter(st, "a", "b", 0.6, -0.9)
        assert out.surviving_norm_sq() == pytest.approx(
            st.surviving_norm_sq(), abs=1e-10)

    def test_inverse_composition(self, grid):
        st = random_state(grid, ("a", "b", "c"), seed=6)
        out = beamsplitter(beamsplitter(st, "a", "b", 0.7, 0.4),
                           "a", "b", -0.7, 0.4)
        assert fidelity(out, st) == pytest.approx(1.0, abs=1e-12)

    def test_mach_zehnder_swaps_rails(self, grid, pulse):
        # oracle: the 2x2 amplitude matrices compose to an off-diagonal swap
        m = None
        for theta, phi in ((np.pi / 4, 0.0), (np.pi / 4, 0.0)):
            c, s = np.cos(theta), np.sin(theta)
            step = np.array([[c, np.exp(1j * phi) * s],
                             [-np.exp(-1j * phi) * s, c]])
            m = step if m is None else step @ m
        assert abs(m[0, 0]) < 1e-14 and abs(m[1, 1]) < 1e-14

        st = FewPhotonState.from_components(
            grid, ("a", "b"), ones={"a": pulse.values})
        out = beamsplitter(beamsplitter(st, "a", "b", np.pi / 4, 0.0),
                           "a", "b", np.pi / 4, 0.0)
        target = FewPhotonState.from_components(
            grid, ("a", "b"), ones={"b": pulse.values})
        assert fidelity(out, target) == pytest.approx(1.0, abs=1e-12)

    def test_carrier_mismatch_rejected(self, grid, pulse):
        # a@sum carries sum-frequency light whether the state is built with
        # it or the pulse gate adds it, and never mixes with a
        anc = sum_rail("a")
        st = FewPhotonState.from_components(grid, ("a", anc),
                                            ones={"a": pulse.values})
        gated = tp.sfg_extract(st, "a", tp.PulseGateSpec(pulse))
        for state in (st, gated):
            with pytest.raises(ValueError,
                               match="carrier mismatch: 'a' and 'a@sum'"):
                beamsplitter(state, "a", anc, np.pi / 4)
        # two sum-frequency rails share a carrier
        both = FewPhotonState.from_components(grid, (anc, sum_rail("b")),
                                              ones={anc: pulse.values})
        out = beamsplitter(both, anc, sum_rail("b"), np.pi / 4)
        assert project_detection(out, {sum_rail("b"): 1}) == pytest.approx(
            0.5, abs=1e-12)

    def test_spectator_pairs_untouched(self, grid, pulse, pulse_b):
        st = FewPhotonState.from_components(
            grid, ("a", "b", "c"),
            pairs={("b", "c"): np.outer(pulse.values, pulse_b.values)})
        out = beamsplitter(st, "a", "b", 0.5, 0.1)
        # photon on c never moves; total in pairs involving c conserved
        total_c = sum(out.norm2_sq(v) for k, v in out.two_photon.items()
                      if "c" in k)
        assert total_c == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(present=st.lists(st.booleans(), min_size=len(PAIRS),
                        max_size=len(PAIRS)),
       singles=st.booleans(),
       rails=st.permutations(("a", "b", "c")),
       theta=st.floats(-np.pi, np.pi), phi=st.floats(-np.pi, np.pi),
       seed=st.integers(0, 2**32 - 1))
def test_beamsplitter_inverse_and_unitary(present, singles, rails, theta, phi,
                                          seed):
    full = random_state(SMALL_GRID, ("a", "b", "c"), seed)
    state = FewPhotonState.from_components(
        SMALL_GRID, rails, full.vacuum_amp,
        full.one_photon if singles else {},
        {k: full.pair(*k) for k, keep in zip(PAIRS, present) if keep})
    out = beamsplitter(state, "a", "b", theta, phi)
    assert out.total_probability() == pytest.approx(
        state.total_probability(), abs=1e-12)
    back = beamsplitter(out, "a", "b", -theta, phi)
    assert fidelity(back, state) == pytest.approx(1.0, abs=1e-12)


class TestLossChannel:
    def test_full_transmission_identity(self, grid):
        st = random_state(grid, ("a", "b"), seed=8)
        out = loss_channel(st, "a", 1.0)
        assert fidelity(out, st) == pytest.approx(1.0, abs=1e-12)
        assert out.lost_mass == 0.0

    def test_one_photon_loss_bookkeeping(self, grid, pulse):
        alpha = 0.6
        st = FewPhotonState.from_components(
            grid, ("a",), np.sqrt(1 - alpha**2),
            ones={"a": alpha * pulse.values})
        out = loss_channel(st, "a", 0.8)
        assert project_detection(out, {"a": 1}) == pytest.approx(
            (alpha * 0.8) ** 2, abs=1e-12)
        assert out.lost_mass == pytest.approx(alpha**2 * (1 - 0.64),
                                              abs=1e-12)
        assert out.total_probability() == pytest.approx(1.0, abs=1e-12)

    def test_pair_gets_squared_factor(self, grid, pulse):
        st = FewPhotonState.from_components(
            grid, ("a",),
            pairs={("a", "a"): np.outer(pulse.values, pulse.values)})
        out = loss_channel(st, "a", 0.9)
        assert project_detection(out, {"a": 2}) == pytest.approx(
            0.9**4, abs=1e-9)

    def test_range_validation(self, grid, pulse):
        st = FewPhotonState.from_components(
            grid, ("a",), ones={"a": pulse.values})
        with pytest.raises(ValueError):
            loss_channel(st, "a", 1.2)


class TestApplyTls:
    def test_lossless_probability_conserved(self, grid, pulse):
        p = tp.TlsParams()
        st = FewPhotonState.from_components(
            grid, ("a",),
            pairs={("a", "a"): np.outer(pulse.values, pulse.values)})
        out = apply_tls(st, "a", p)
        assert out.total_probability() == pytest.approx(1.0, abs=5e-4)

    def test_single_photon_survival_drop(self, grid, pulse):
        # 1e-5 here: this module's deliberately small grid; the tight 1e-6
        # contract is held on the default grid policy in test_scatter
        p = tp.TlsParams(gamma_loss=0.1)
        st = FewPhotonState.from_components(
            grid, ("a",), ones={"a": pulse.values})
        out = apply_tls(st, "a", p)
        eps1 = tp.epsilon1_analytic(p, 1.0)
        assert project_detection(out, {"a": 1}) == pytest.approx(eps1,
                                                                 abs=1e-5)
        assert out.lost_mass == pytest.approx(1 - eps1, abs=1e-5)

    def test_matched_pair_surviving_weight(self):
        p = tp.TlsParams.from_beta(0.95)
        sigma = tp.matching_sigma(p, "upper")
        g = tp.SpectralGrid(60.0, 1201)
        f = tp.make_pulse(tp.PulseShape("lorentzian", sigma), g)
        st = FewPhotonState.from_components(
            g, ("a",), pairs={("a", "a"): np.outer(f.values, f.values)})
        out = apply_tls(st, "a", p)
        expect = (tp.epsilon_b_analytic(p, sigma)
                  - tp.epsilon1_analytic(p, sigma) ** 2)
        assert project_detection(out, {"a": 2}) == pytest.approx(expect,
                                                                 abs=1e-4)

    def test_cross_pair_single_factor(self, grid, pulse, pulse_b):
        p = tp.TlsParams(gamma_loss=0.2)
        st = FewPhotonState.from_components(
            grid, ("a", "b"),
            pairs={("a", "b"): np.outer(pulse.values, pulse_b.values)})
        out = apply_tls(st, "a", p)
        # only the rail-a photon scatters: survival = eps1 of the a-pulse
        eps1 = tp.scatter_one(p, pulse).epsilon1
        assert project_detection(out, {"a": 1, "b": 1}) == pytest.approx(
            eps1, abs=1e-10)


class TestDetectionAndFidelity:
    def test_vacuum_pattern(self, grid):
        st = FewPhotonState.vacuum(grid, ("a", "b"))
        assert project_detection(st, {}) == 1.0
        assert project_detection(st, {"a": 1}) == 0.0

    def test_one_photon_pattern(self, grid, pulse):
        st = FewPhotonState.from_components(
            grid, ("a", "b"), ones={"a": pulse.values})
        assert project_detection(st, {"a": 1}) == pytest.approx(1.0,
                                                                abs=1e-12)

    def test_pattern_validation(self, grid):
        st = FewPhotonState.vacuum(grid, ("a",))
        with pytest.raises(ValueError):
            project_detection(st, {"a": 3})
        with pytest.raises(ValueError):
            project_detection(st, {"zz": 1})

    def test_three_photon_pattern_refused(self, grid):
        st = FewPhotonState.vacuum(grid, ("a", "b"))
        for pattern in ({"a": 2, "b": 1}, {"a": 1, "b": 2}):
            with pytest.raises(ValueError, match="at most two photons"):
                project_detection(st, pattern)

    def test_fidelity_of_fully_lost_state_refused(self, grid, pulse):
        lost = FewPhotonState.from_components(grid, ("a",))
        target = FewPhotonState.from_components(
            grid, ("a",), ones={"a": pulse.values})
        for pair in ((lost, target), (target, lost)):
            with pytest.raises(ValueError, match="fully lost"):
                fidelity(*pair)

    def test_self_fidelity(self, grid):
        st = random_state(grid, ("a", "b"), seed=2)
        assert fidelity(st, st) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pulses_zero(self, grid, pulse):
        odd = tp.OnePhotonAmp(grid, pulse.values * grid.samples)
        odd = tp.normalize(odd)
        a = FewPhotonState.from_components(
            grid, ("a",), ones={"a": pulse.values})
        b = FewPhotonState.from_components(
            grid, ("a",), ones={"a": odd.values})
        assert fidelity(a, b) < 1e-20

    def test_overlap_linear_in_state(self, grid, pulse, pulse_b):
        a = FewPhotonState.from_components(
            grid, ("a",), ones={"a": pulse.values})
        b = FewPhotonState.from_components(
            grid, ("a",), ones={"a": pulse_b.values})
        assert overlap(a, b) == pytest.approx(np.sum(
            grid.weights * np.conj(pulse_b.values) * pulse.values), abs=1e-12)


class TestUntouchedArrays:
    @pytest.mark.parametrize("op", [
        lambda s: beamsplitter(s, "a", "b", 0.6, 0.3),
        lambda s: apply_tls(s, "a", tp.TlsParams(gamma_loss=0.1)),
        lambda s: tp.sfg_extract(s, "a", tp.PulseGateSpec(
            tp.normalize(tp.OnePhotonAmp(s.grid, s.one_photon["a"])))),
        lambda s: loss_channel(s, "a", 0.8),
    ], ids=["beamsplitter", "apply_tls", "sfg_extract", "loss_channel"])
    def test_spectator_pair_is_not_renormed(self, grid, op, monkeypatch):
        st = random_state(grid, ("a", "b", "c", "d"), seed=21)
        spectator = st.pair("c", "d")
        normed = []
        norm2_sq = FewPhotonState.norm2_sq

        def spy(self, values):
            normed.append(values)
            return norm2_sq(self, values)

        monkeypatch.setattr(FewPhotonState, "norm2_sq", spy)
        out = op(st)
        assert out.pair("c", "d") is spectator
        assert normed
        assert all(v is not spectator for v in normed)


class TestBookkeepingInvariant:
    def test_beamsplitter_commutes_with_symmetric_spectral_map(self, grid):
        # a rail-symmetric, frequency-pointwise map (pulse inversion on all
        # rails) commutes with mode mixing
        st = random_state(grid, ("a", "b"), seed=13)
        bs_then_map = tp.gem_invert(beamsplitter(st, "a", "b", 0.6, 0.25))
        map_then_bs = beamsplitter(tp.gem_invert(st), "a", "b", 0.6, 0.25)
        assert fidelity(bs_then_map, map_then_bs) == pytest.approx(
            1.0, abs=1e-12)

    def test_operation_chain_conserves_probability(self, grid, pulse):
        p = tp.TlsParams(gamma_loss=0.05)
        st = random_state(grid, ("a", "b"), seed=42)
        st = beamsplitter(st, "a", "b", 0.5, 0.2)
        st = loss_channel(st, "a", 0.93)
        st = apply_tls(st, "b", p)
        st = beamsplitter(st, "a", "b", -0.5, 0.2)
        assert st.total_probability() == pytest.approx(1.0, abs=5e-4)
        assert st.lost_mass > 0.0

    def test_lost_mass_is_clamped_against_quadrature_gain(self):
        # on a coarse grid the lossless two-photon map gains norm through
        # quadrature error; the ledger books no negative loss
        grid = tp.SpectralGrid(10.0, 41)
        f = tp.normalize(tp.OnePhotonAmp(grid, tp.grid.lorentzian_values(
            grid, 1.0))).values
        st = FewPhotonState.from_components(
            grid, ("a",), pairs={("a", "a"): FactoredPair.product(f)})
        out = apply_tls(st, "a", tp.TlsParams())
        assert out.surviving_norm_sq() - 1.0 == pytest.approx(0.027585,
                                                              rel=1e-4)
        assert out.lost_mass == 0.0


class _FourRails:
    """A four-rail state with spectator pairs, and ops on it."""

    GRID = tp.SpectralGrid(30.0, 601)
    RAILS = ("a", "b", "c", "d")

    @pytest.fixture(scope="class")
    def pump(self):
        return tp.make_pulse(tp.PulseShape("lorentzian", 1.0), self.GRID)

    @pytest.fixture(scope="class")
    def state(self, pump):
        # gated and mixed rails a, b; spectator pairs c-d and d-d that no op
        # below touches, and a cross pair b-c that moves with one photon
        f = pump.values
        g = tp.make_pulse(tp.PulseShape("gaussian", 1.2, center=0.5),
                          self.GRID).values
        half = 0.5 * FactoredPair.product(f)
        return FewPhotonState.from_components(
            self.GRID, self.RAILS, 0.3, ones={"a": 0.3 * f, "c": 0.2 * g},
            pairs={("a", "a"): half, ("b", "a"): FactoredPair(
                [(0.4, g, f, None)]), ("b", "c"): FactoredPair(
                [(0.3, f, g, None)]), ("c", "d"): FactoredPair(
                [(0.3, g, f, None)]), ("d", "d"): 0.2 * FactoredPair.product(
                g)})

    OPS = {
        "beamsplitter": lambda s, gate: beamsplitter(s, "a", "b", 0.4, 0.2),
        "beamsplitter_reversed": lambda s, gate: beamsplitter(s, "c", "a",
                                                              0.7),
        "apply_tls": lambda s, gate: apply_tls(
            s, "a", tp.TlsParams.from_beta(0.95)),
        "loss_channel": lambda s, gate: loss_channel(s, "b", 0.8),
        "component_phase_loss": lambda s, gate: tp.component_phase_loss(
            s, "a", 2, 0.5, 0.9),
        "gem_invert": lambda s, gate: tp.gem_invert(s, ("a", "c")),
        "gem_invert_all": lambda s, gate: tp.gem_invert(s),
        "sfg_extract": lambda s, gate: tp.sfg_extract(s, "a", gate),
        "sfg_extract_photonwise": lambda s, gate: tp.sfg_extract(
            s, "a", gate, ideal=False),
        "sfg_extract_keep_single": lambda s, gate: tp.sfg_extract(
            s, "a", gate, ideal=False, keep_single_converted=True),
    }



class TestOneConstruction(_FourRails):
    """Every op builds its output state once, through the private
    constructor, and never through the checking public one."""

    def count(self, monkeypatch):
        """Counts of (public, private) constructions from here on."""
        counts = [0, 0]
        post_init, build = (FewPhotonState.__post_init__,
                            FewPhotonState._build.__func__)

        def public(self):
            counts[0] += 1
            post_init(self)

        def private(cls, *args):
            counts[1] += 1
            return build(cls, *args)

        monkeypatch.setattr(FewPhotonState, "__post_init__", public)
        monkeypatch.setattr(FewPhotonState, "_build", classmethod(private))
        return counts

    @pytest.mark.parametrize("op", sorted(_FourRails.OPS))
    def test_op_builds_once(self, op, state, pump, monkeypatch):
        gate = tp.PulseGateSpec(pump, 0.8)
        before = state.total_probability()
        counts = self.count(monkeypatch)
        out = self.OPS[op](state, gate)
        assert counts == [0, 1]
        assert out.total_probability() == pytest.approx(before, abs=1e-4)

    def test_sfg_reverse_builds_once(self, state, pump, monkeypatch):
        gate = tp.PulseGateSpec(pump, 0.8)
        gated = tp.sfg_extract(state, "a", gate)
        counts = self.count(monkeypatch)
        out = tp.sfg_reverse(gated, "a", gate)
        assert counts == [0, 1]
        assert fidelity(out, state) == pytest.approx(1.0, abs=1e-12)

    def test_from_components_builds_once(self, state, monkeypatch):
        counts = self.count(monkeypatch)
        out = FewPhotonState.from_components(
            self.GRID, state.rails[::-1], state.vacuum_amp,
            state.one_photon, state.two_photon)
        assert counts == [1, 0]
        assert fidelity(out, state) == pytest.approx(1.0, abs=1e-12)


class TestLostMass(_FourRails):
    """One rule books lost probability (``states._output``): a lossy op adds
    to lost_mass the surviving norm its written amplitudes lose, and a
    lossless op leaves lost_mass as it is."""

    @pytest.fixture(scope="class")
    def booked(self, state, pump):
        # a lost mass carried in, and single-pump content on the gated pair,
        # which the photon-wise pulse gate discards
        g = tp.make_pulse(tp.PulseShape("gaussian", 1.1, center=-0.7),
                          self.GRID).values
        return dataclasses.replace(state, two_photon={
            **state.two_photon,
            ("a", "a"): state.pair("a", "a") + FactoredPair(
                [(0.3, pump.values, g, None)], symmetric=True)},
            lost_mass=0.0123)

    LOSSLESS = {
        "component_phase_only": lambda s, gate: tp.component_phase_loss(
            s, "a", 2, 0.5),
        "loss_channel_unit": lambda s, gate: loss_channel(s, "b", 1.0),
        "sfg_reverse": lambda s, gate: tp.sfg_reverse(
            tp.sfg_extract(s, "a", gate), "a", gate),
    }

    @pytest.mark.parametrize("op", ["apply_tls", "loss_channel",
                                    "component_phase_loss",
                                    "sfg_extract_photonwise"])
    def test_lossy_op_books_the_norm_it_removes(self, op, booked, pump):
        out = self.OPS[op](booked, tp.PulseGateSpec(pump, 0.8))
        removed = booked.surviving_norm_sq() - out.surviving_norm_sq()
        assert removed > 1e-3
        assert out.lost_mass - booked.lost_mass == pytest.approx(
            removed, rel=1e-12)

    @pytest.mark.parametrize("op", ["beamsplitter", "beamsplitter_reversed",
                                    "gem_invert", "gem_invert_all",
                                    "sfg_extract", "sfg_extract_keep_single",
                                    *LOSSLESS])
    def test_lossless_op_keeps_lost_mass(self, op, booked, pump):
        out = {**self.OPS, **self.LOSSLESS}[op](booked,
                                                tp.PulseGateSpec(pump, 0.8))
        assert out.lost_mass == booked.lost_mass
