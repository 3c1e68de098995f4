import re

import numpy as np
import pytest

import tlsphot as tp
from tlsphot.circuits import CZ_SIGNS, LOGICAL_BASIS, ns_eta2
from tlsphot.modeops import sum_rail
from tlsphot.pairs import FactoredPair
from tlsphot.states import FewPhotonState, fidelity, overlap, project_detection

from conftest import ns_input, random_state


class TestPhotonSorter:
    def test_sorts_superposition_weights(self, circuit_grid, tls0, pulse0):
        alpha, xi = np.sqrt(1 / 3), np.sqrt(2 / 3)
        st = FewPhotonState.from_components(
            circuit_grid, ("sig",), ones={"sig": alpha * pulse0.values},
            pairs={("sig", "sig"): xi * FactoredPair.product(pulse0.values)})
        out = tp.photon_sorter(st, "sig", tls0, pulse0)
        anc = sum_rail("sig")
        assert project_detection(out, {anc: 1}) == pytest.approx(
            alpha**2, abs=1e-3)
        assert project_detection(out, {"sig": 2}) == pytest.approx(
            xi**2, abs=1e-3)

    def test_vacuum_passes(self, circuit_grid, tls0, pulse0):
        st = FewPhotonState.vacuum(circuit_grid, ("sig",))
        out = tp.photon_sorter(st, "sig", tls0, pulse0)
        assert project_detection(out, {}) == pytest.approx(1.0, abs=1e-15)

    def test_completeness(self, circuit_grid, tls0, pulse0):
        st = FewPhotonState.from_components(
            circuit_grid, ("sig",), np.sqrt(0.2),
            ones={"sig": np.sqrt(0.3) * pulse0.values},
            pairs={("sig", "sig"): np.sqrt(0.5)
                   * FactoredPair.product(pulse0.values)})
        out = tp.photon_sorter(st, "sig", tls0, pulse0)
        anc = sum_rail("sig")
        total = (project_detection(out, {})
                 + project_detection(out, {anc: 1})
                 + project_detection(out, {"sig": 2}))
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_lossy_sorted_weights(self, circuit_grid, tls95, pulse95,
                                  sigma_up95):
        alpha = xi = np.sqrt(0.5)
        st = FewPhotonState.from_components(
            circuit_grid, ("sig",), ones={"sig": alpha * pulse95.values},
            pairs={("sig", "sig"): xi * FactoredPair.product(pulse95.values)})
        out = tp.photon_sorter(st, "sig", tls95, pulse95)
        anc = sum_rail("sig")
        eps1 = tp.epsilon1_analytic(tls95, sigma_up95)
        eps_b = tp.epsilon_b_analytic(tls95, sigma_up95)
        assert project_detection(out, {anc: 1}) == pytest.approx(
            alpha**2 * eps1, abs=1e-3)
        assert project_detection(out, {"sig": 2}) == pytest.approx(
            xi**2 * (eps_b - eps1**2), abs=1e-3)

    def test_off_matching_warns(self, circuit_grid, tls0):
        pulse = tp.make_pulse(tp.PulseShape("lorentzian", 2.0), circuit_grid)
        st = FewPhotonState.vacuum(circuit_grid, ("sig",))
        with pytest.warns(UserWarning, match="sorting"):
            tp.photon_sorter(st, "sig", tls0, pulse)


class TestBellAnalyzer:
    def test_detector_pattern_mapping(self, bell_reports0):
        for which, patterns in tp.BELL_PATTERNS.items():
            report = bell_reports0[which]
            on_target = sum(report.pattern_probs.get(d, 0.0)
                            for d in patterns)
            off_target = report.success_prob - on_target
            assert on_target == pytest.approx(1.0, abs=1e-3)
            assert abs(off_target) < 1e-3

    def test_equal_split_between_assigned_pairs(self, bell_reports0):
        for which, patterns in tp.BELL_PATTERNS.items():
            for d in patterns:
                prob = bell_reports0[which].pattern_probs.get(d, 0.0)
                assert prob == pytest.approx(0.5, abs=1e-3)

    def test_lossy_success_probabilities(self, bell_reports95, tls95,
                                         sigma_up95):
        eps1 = tp.epsilon1_analytic(tls95, sigma_up95)
        eps_b = tp.epsilon_b_analytic(tls95, sigma_up95)
        assert bell_reports95["psi+"].success_prob == pytest.approx(
            eps1**2, abs=1e-3)
        assert bell_reports95["psi-"].success_prob == pytest.approx(
            eps1**2, abs=1e-3)
        assert bell_reports95["phi+"].success_prob == pytest.approx(
            eps_b - eps1**2, abs=1e-3)
        assert bell_reports95["phi-"].success_prob == pytest.approx(
            eps_b - eps1**2, abs=1e-3)

    def test_lossy_average_success(self, bell_reports95, tls95, sigma_up95):
        avg = np.mean([bell_reports95[w].success_prob
                       for w in bell_reports95])
        assert avg == pytest.approx(
            0.5 * tp.epsilon_b_analytic(tls95, sigma_up95), abs=1e-3)

    def test_failures_are_heralded(self, bell_reports95):
        for report in bell_reports95.values():
            assert report.success_prob + report.lost_mass == pytest.approx(
                1.0, abs=1e-3)

    def test_identify(self):
        assert tp.identify_bell_state((1, 4)) == "psi+"
        assert tp.identify_bell_state((6, 8)) == "phi-"
        assert tp.identify_bell_state((1, 3)) is None

    def test_identify_ignores_detector_order(self):
        for name, patterns in tp.BELL_PATTERNS.items():
            for first, second in patterns:
                assert tp.identify_bell_state((second, first)) == name

    def test_rejects_wrong_photon_number(self, circuit_grid, tls0, pulse0):
        st = FewPhotonState.vacuum(circuit_grid, tp.RAILS4)
        with pytest.raises(ValueError):
            tp.bell_analyzer(st, tls0, pulse0)

    def test_off_matching_warns_once(self, circuit_grid, tls0):
        # the four sorters share one matching check, which warns at the
        # analyzer's caller
        pulse = tp.make_pulse(tp.PulseShape("lorentzian", 2.0), circuit_grid)
        st = tp.bell_state(circuit_grid, pulse, "psi+")
        with pytest.warns(UserWarning, match="sorting") as record:
            tp.bell_analyzer(st, tls0, pulse)
        assert len(record) == 1
        assert record[0].filename == __file__

    def test_one_operating_point_per_call(self, monkeypatch, circuit_grid,
                                          tls0, pulse0):
        calls = count_calls(monkeypatch, "matching_residual", "make_pump")
        tp.bell_analyzer(tp.bell_state(circuit_grid, pulse0, "phi+"), tls0,
                         pulse0)
        assert calls == {"matching_residual": 1, "make_pump": 1}


def count_calls(monkeypatch, *names):
    """Counts of calls to the named ``circuits`` functions, kept up to date
    as the patched functions run."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(tp.circuits, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(tp.circuits, name, counted)
    return calls


class TestNsGate:
    def test_sign_flip_fidelity(self, circuit_grid, tls0, pulse0):
        out = tp.ns_gate(ns_input(circuit_grid, pulse0), "sig", tls0, pulse0)
        target = ns_input(circuit_grid, pulse0, two_photon_sign=-1.0)
        assert fidelity(out, target) >= 0.999

    def test_vacuum_invariant(self, circuit_grid, tls0, pulse0):
        st = FewPhotonState.vacuum(circuit_grid, ("sig",))
        out = tp.ns_gate(st, "sig", tls0, pulse0)
        assert out.vacuum_amp == pytest.approx(1.0, abs=1e-15)

    def test_self_inverse(self, circuit_grid, tls0, pulse0):
        once = tp.ns_gate(ns_input(circuit_grid, pulse0), "sig", tls0, pulse0)
        twice = tp.ns_gate(once, "sig", tls0, pulse0)
        assert fidelity(twice, ns_input(circuit_grid, pulse0)) >= 0.998

    def test_lossy_pair_coefficient(self, circuit_grid, tls95, pulse95,
                                    sigma_up95):
        st = FewPhotonState.from_components(
            circuit_grid, ("sig",),
            pairs={("sig", "sig"): FactoredPair.product(pulse95.values)})
        out = tp.ns_gate(st, "sig", tls95, pulse95)
        u = circuit_grid.weights * np.conj(pulse95.values)
        coeff = u @ out.pair("sig", "sig") @ u
        eps1 = tp.epsilon1_analytic(tls95, sigma_up95)
        assert abs(coeff) == pytest.approx(eps1**2, abs=1e-3)
        assert coeff.real < 0

    def test_lossy_single_photon_coefficient(self, circuit_grid, tls95,
                                             pulse95, sigma_up95):
        st = FewPhotonState.from_components(
            circuit_grid, ("sig",), ones={"sig": pulse95.values})
        out = tp.ns_gate(st, "sig", tls95, pulse95)
        ov = np.sum(circuit_grid.weights * np.conj(pulse95.values)
                    * out.one_photon["sig"])
        assert ov.real == pytest.approx(
            tp.epsilon1_analytic(tls95, sigma_up95), abs=1e-3)

    def test_uneven_pulse_warns(self, circuit_grid, tls0):
        pulse = tp.make_pulse(tp.PulseShape("lorentzian", 1.25, center=0.5),
                              circuit_grid)
        st = FewPhotonState.vacuum(circuit_grid, ("sig",))
        with pytest.warns(UserWarning, match="even"):
            tp.ns_gate(st, "sig", tls0, pulse)


class TestCzGate:
    def test_truth_table_single_sign_flip(self, cz_basis_reports0):
        for basis, report in cz_basis_reports0.items():
            amp = report.logical_amplitudes[basis]
            expect = -1.0 if basis == (0, 1) else 1.0
            assert amp.real == pytest.approx(expect, abs=1e-3)
            assert abs(amp.imag) < 1e-6
            for other, a in report.logical_amplitudes.items():
                if other != basis:
                    assert abs(a) < 1e-6

    def test_superposition_matches_cz_oracle(self, cz_super_report0):
        assert cz_super_report0.fidelity_to_target >= 0.999
        # oracle on the logical 4-vector
        oracle = {b: 0.5 * tp.circuits.CZ_SIGNS[b] for b in LOGICAL_BASIS}
        for b, a in cz_super_report0.logical_amplitudes.items():
            assert a == pytest.approx(oracle[b], abs=1e-3)

    def test_no_leakage_outside_dual_rail(self, cz_basis_reports0):
        for report in cz_basis_reports0.values():
            out = report.output_state
            dual_rail = sum(report.pattern_probs.values())
            assert out.surviving_norm_sq() == pytest.approx(dual_rail,
                                                            abs=1e-6)

    def test_compensated_amplitudes_uniform(self, cz_super_report95, tls95,
                                            sigma_up95):
        eps1_sq = tp.epsilon1_analytic(tls95, sigma_up95) ** 2
        for b, a in cz_super_report95.logical_amplitudes.items():
            assert abs(a) / 0.5 == pytest.approx(eps1_sq, abs=1e-3)
        signs = {b: np.sign(a.real)
                 for b, a in cz_super_report95.logical_amplitudes.items()}
        assert signs[(0, 1)] == -1.0
        assert all(signs[b] == 1.0 for b in LOGICAL_BASIS if b != (0, 1))

    def test_compensated_success_probability(self, cz_super_report95, tls95,
                                             sigma_up95):
        eps1 = tp.epsilon1_analytic(tls95, sigma_up95)
        assert cz_super_report95.success_prob == pytest.approx(
            eps1**4, abs=1e-3)

    @pytest.mark.parametrize("beta, pinned", [(0.95, 0.997353),
                                              (0.9, 0.988627)])
    def test_lossy_fidelity_pinned(self, beta, pinned):
        # |++> at the matched upper width, on that width's policy grid.
        # The logical amplitudes are the CZ target's, but below beta 1 the
        # survivors are not all in the pulse mode: that gap is the
        # unheralded mode error of ROADMAP item 13
        p = tp.TlsParams.from_beta(beta)
        sigma = tp.matching_width(p, "upper")
        grid = tp.SpectralGrid.for_pulse_width(sigma)
        pulse = tp.make_pulse(tp.PulseShape("lorentzian", sigma), grid)
        report = tp.cz_gate(tp.logical_state(grid, pulse, {
            b: 0.5 for b in LOGICAL_BASIS}), p, pulse)
        assert report.fidelity_to_target == pytest.approx(pinned, abs=1e-5)
        amps = np.array([report.logical_amplitudes[b] for b in LOGICAL_BASIS])
        target = np.array([0.5 * CZ_SIGNS[b] for b in LOGICAL_BASIS])
        logical = abs(np.vdot(target, amps)) ** 2 / np.vdot(amps, amps).real
        assert logical == pytest.approx(1.0, abs=1e-9)

    def test_uncompensated_skew(self, cz_super_report95_skewed, tls95,
                                sigma_up95):
        eps1 = tp.epsilon1_analytic(tls95, sigma_up95)
        eps_b = tp.epsilon_b_analytic(tls95, sigma_up95)
        amps = cz_super_report95_skewed.logical_amplitudes
        assert abs(amps[(0, 1)]) / 0.5 == pytest.approx(
            eps_b - eps1**2, abs=1e-3)
        assert abs(amps[(0, 0)]) / 0.5 == pytest.approx(eps1**2, abs=1e-3)

    def test_skew_compensation_identity(self, tls95, pulse95, sigma_up95):
        # eta2 removes the skew identically: eps1^2 = (eps_b - eps1^2) eta2
        eps1 = tp.scatter_one(tls95, pulse95).epsilon1
        eps_b = tp.epsilon_b_numeric(tls95, pulse95)
        eta2 = ns_eta2(tls95, pulse95)
        assert eps1**2 - (eps_b - eps1**2) * eta2 == pytest.approx(0.0,
                                                                   abs=1e-15)

    @pytest.mark.parametrize("sigma, eta2", [(1.5, "1.32"), (3.0, "-4.51")])
    def test_uncompensable_skew_is_refused(self, circuit_grid, tls95, sigma,
                                           eta2):
        # off the matching width the loss that would remove the skew is a
        # gain (eta2 > 1) or no transmission at all (eta2 < 0)
        pulse = tp.make_pulse(tp.PulseShape("lorentzian", sigma), circuit_grid)
        st = tp.logical_state(circuit_grid, pulse, {(0, 1): 1.0})
        with pytest.raises(tp.CompensationError, match=f"got {eta2} "):
            ns_eta2(tls95, pulse)
        with pytest.raises(tp.CompensationError):
            tp.ns_gate(ns_input(circuit_grid, pulse), "sig", tls95, pulse)
        with pytest.raises(tp.CompensationError):
            tp.cz_gate(st, tls95, pulse)
        assert issubclass(tp.CompensationError, ValueError)
        # uncompensated, the gate runs and keeps the skew
        report = tp.cz_gate(st, tls95, pulse, compensate=False)
        assert 0.0 < report.success_prob < 1.0

    def test_rejects_empty_input(self, circuit_grid, tls0, pulse0):
        st = FewPhotonState.vacuum(circuit_grid, tp.RAILS4)
        with pytest.raises(ValueError):
            tp.cz_gate(st, tls0, pulse0)

    def test_uneven_pulse_warns_once(self, circuit_grid, tls0):
        # the two sign gates share one even-pulse check
        pulse = tp.make_pulse(tp.PulseShape("lorentzian", 1.25, center=0.5),
                              circuit_grid)
        st = tp.logical_state(circuit_grid, pulse, {(0, 1): 1.0})
        with pytest.warns(UserWarning, match="even") as record:
            tp.cz_gate(st, tls0, pulse)
        assert len(record) == 1
        assert record[0].filename == __file__

    def test_one_pump_per_call(self, monkeypatch, circuit_grid, tls95,
                               pulse95):
        calls = count_calls(monkeypatch, "make_pump", "ns_eta2")
        tp.cz_gate(tp.logical_state(circuit_grid, pulse95, {(0, 1): 1.0}),
                   tls95, pulse95)
        assert calls == {"make_pump": 1, "ns_eta2": 1}

    def test_report_fields(self, cz_super_report0, bell_reports0):
        assert set(cz_super_report0.logical_amplitudes) == set(LOGICAL_BASIS)
        assert bell_reports0["psi+"].logical_amplitudes is None


def reference_amplitudes(state, pulse):
    """Logical amplitudes as overlaps with built basis states."""
    return {b: overlap(state, tp.logical_state(state.grid, pulse, {b: 1.0}))
            for b in LOGICAL_BASIS}


def reference_cz_fidelity(out, state, pulse):
    """Fidelity of a CZ output to the built sign-flipped input."""
    target = {b: CZ_SIGNS[b] * a
              for b, a in reference_amplitudes(state, pulse).items()}
    return fidelity(out, tp.logical_state(out.grid, pulse, target))


class TestLogicalReadout:
    @pytest.mark.parametrize("key", [(0, 2), "01", (0, 1, 1)])
    def test_logical_state_rejects_bad_label(self, circuit_grid, pulse0,
                                             key):
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            tp.logical_state(circuit_grid, pulse0, {key: 1.0})

    def test_bell_state_rejects_unknown_name(self, circuit_grid, pulse0):
        with pytest.raises(ValueError, match="unknown Bell state 'psi'"):
            tp.bell_state(circuit_grid, pulse0, "psi")

    @pytest.mark.parametrize("seed", range(4))
    def test_random_states_match_overlaps(self, seed):
        grid = tp.SpectralGrid(10.0, 41)
        rng = np.random.default_rng(seed)
        pulse = tp.normalize(tp.OnePhotonAmp(
            grid, rng.standard_normal(41) + 1j * rng.standard_normal(41)))
        # reversed rail order stores the qubit pairs with axis 0 on q2;
        # the ancilla rail and the one-photon and same-rail content carry
        # no logical amplitude
        rails = tp.RAILS4[::-1] if seed % 2 else tp.RAILS4
        state = random_state(grid, rails + ("q1u@sum",), seed)
        got = tp.logical_amplitudes(state, pulse)
        want = reference_amplitudes(state, pulse)
        for b in LOGICAL_BASIS:
            assert abs(got[b] - want[b]) < 1e-13

    def test_bell_outputs_match_overlaps(self, bell_reports0, pulse0):
        for report in bell_reports0.values():
            got = tp.logical_amplitudes(report.output_state, pulse0)
            want = reference_amplitudes(report.output_state, pulse0)
            for b in LOGICAL_BASIS:
                assert abs(got[b] - want[b]) < 1e-13

    def test_cz_outputs_match_overlaps(self, circuit_grid, tls95, pulse0,
                                       pulse95, cz_basis_reports0,
                                       cz_super_report0,
                                       cz_super_report95,
                                       cz_super_report95_skewed):
        half = {b: 0.5 for b in LOGICAL_BASIS}
        # complex amplitudes make the conjugation of the target count
        phased = {b: 0.5 * np.exp(1j * k) for k, b in enumerate(LOGICAL_BASIS)}
        phased_report = tp.cz_gate(
            tp.logical_state(circuit_grid, pulse95, phased), tls95, pulse95)
        cases = [({basis: 1.0}, pulse0, report)
                 for basis, report in cz_basis_reports0.items()]
        cases += [(half, pulse0, cz_super_report0),
                  (half, pulse95, cz_super_report95),
                  (half, pulse95, cz_super_report95_skewed),
                  (phased, pulse95, phased_report)]
        for amps, pulse, report in cases:
            state = tp.logical_state(circuit_grid, pulse, amps)
            out = report.output_state
            want = reference_amplitudes(out, pulse)
            for b in LOGICAL_BASIS:
                assert abs(report.logical_amplitudes[b] - want[b]) < 1e-13
            assert abs(report.fidelity_to_target
                       - reference_cz_fidelity(out, state, pulse)) < 1e-13


class TestSuccessCurves:
    def test_lossless_limit(self):
        rows = tp.success_curves(tp.SweepSpec(beta_values=(1.0,)))
        assert rows[0]["bell_success"] == pytest.approx(1.0, abs=1e-9)
        assert rows[0]["cz_success"] == pytest.approx(1.0, abs=1e-9)
        assert rows[0]["eps_b"] == pytest.approx(2.0, abs=1e-9)

    def test_bell_dominates_cz_and_monotone(self):
        # 1e-9 slack: the curves meet at beta = 1 and the root solve leaves
        # ~1e-13 jitter there
        betas = np.linspace(0.8, 1.0, 9)
        rows = tp.success_curves(tp.SweepSpec(beta_values=tuple(betas)))
        bell = [r["bell_success"] for r in rows]
        cz = [r["cz_success"] for r in rows]
        assert all(b >= c - 1e-9 for b, c in zip(bell, cz))
        assert all(b2 >= b1 - 1e-9 for b1, b2 in zip(bell, bell[1:]))
        assert all(c2 >= c1 - 1e-9 for c1, c2 in zip(cz, cz[1:]))

    def test_unmatched_beta_flagged(self):
        rows = tp.success_curves(tp.SweepSpec(beta_values=(0.2,)))
        assert rows[0]["matched"] is False
        assert all(np.isnan(v) for k, v in rows[0].items()
                   if k not in ("beta", "matched"))
