"""Factored pair amplitudes against their dense arrays, the oracle.

Unit checks of each pair operation, a hypothesis property test that runs
random op sequences on a factored state and on its densified copy, the
Bell analyzer and CZ gate in both forms, and a guard on the term counts
the circuits produce.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tlsphot as tp
from tlsphot import pairs
from tlsphot.circuits import LOGICAL_BASIS
from tlsphot.grid import lorentzian_values, require_symmetric
from tlsphot.pairs import FactoredPair
from tlsphot.states import FewPhotonState

N = 41
GRID = tp.SpectralGrid(10.0, N)
W = GRID.weights
TOL = 1e-12


def rvec(rng, n=N):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def random_pair(rng, same_rail):
    """Two or three terms, one with c(x + y); exchange symmetric for a
    same-rail pair (a diagonal term and a symmetrized one)."""
    a, b = rvec(rng), rvec(rng)
    terms = [(rng.standard_normal() + 1j, a, a if same_rail else b, None),
             (0.7j, rvec(rng), rvec(rng), rvec(rng, 2 * N - 1)),
             (-0.4, a, rvec(rng), None)]
    return FactoredPair(terms, symmetric=same_rail)


def random_factored_state(rails, seed):
    """Normalized state with random content in every sector and factored
    pairs."""
    rng = np.random.default_rng(seed)
    ones = {r: rvec(rng) for r in rails}
    twos = {(a, b): random_pair(rng, a == b)
            for i, a in enumerate(rails) for b in rails[i:]}
    vacuum = rng.standard_normal() + 1j * rng.standard_normal()
    total = FewPhotonState.from_components(GRID, rails, vacuum, ones,
                                           twos).surviving_norm_sq()
    k = 1.0 / np.sqrt(total)
    return FewPhotonState.from_components(
        GRID, rails, k * vacuum, {r: k * v for r, v in ones.items()},
        {key: k * v for key, v in twos.items()})


def densified(state):
    return FewPhotonState.from_components(
        state.grid, state.rails, state.vacuum_amp, state.one_photon,
        {key: np.asarray(v) for key, v in state.two_photon.items()},
        state.carriers)


def max_deviation(a, b):
    """Largest difference between two states' components (an absent
    component counts as zero) and between their lost masses."""
    assert a.rails == b.rails
    n = a.grid.n_points

    def pair(state, r, s):
        values = state.pair(r, s)
        return np.zeros((n, n)) if values is None else np.asarray(values)

    dev = max(abs(a.vacuum_amp - b.vacuum_amp), abs(a.lost_mass - b.lost_mass))
    for i, r in enumerate(a.rails):
        va, vb = (state.one_photon.get(r, np.zeros(n)) for state in (a, b))
        dev = max(dev, np.max(np.abs(va - vb)))
        for s in a.rails[i:]:
            dev = max(dev, np.max(np.abs(pair(a, r, s) - pair(b, r, s))))
    return dev


class TestFactoredPair:
    @pytest.fixture(params=[False, True], ids=["cross", "same_rail"])
    def pair(self, request):
        return random_pair(np.random.default_rng(3), request.param)

    def test_dense_matches_terms(self):
        rng = np.random.default_rng(1)
        a, b, c = rvec(rng), rvec(rng), rvec(rng, 2 * N - 1)
        got = FactoredPair([(2.0, a, b, c)]).dense()
        i, j = np.indices((N, N))
        assert np.allclose(got, 2.0 * a[i] * b[j] * c[i + j], atol=1e-14)

    def test_symmetric_dense_is_exactly_symmetric(self):
        values = random_pair(np.random.default_rng(2), True).dense()
        assert np.array_equal(values, values.T)
        require_symmetric(values)

    def test_norm_inner_and_projection(self, pair):
        dense = pair.dense()
        other = random_pair(np.random.default_rng(4), pair.symmetric)
        u = rvec(np.random.default_rng(5))
        assert abs(pairs.norm_sq(pair, W) - pairs.norm_sq(dense, W)) < TOL
        assert abs(pairs.inner(other, pair, W)
                   - pairs.inner(other.dense(), dense, W)) < TOL
        assert np.allclose(u @ pair, u @ dense, atol=TOL)
        assert np.allclose(pair.T.dense(), dense.T, atol=TOL)

    def test_dense_norm_kernel_any_layout(self):
        rng = np.random.default_rng(6)
        n = 201  # not a multiple of the 64-row tile
        w = tp.SpectralGrid(10.0, n).weights
        big = rvec(rng, 4 * n * n).reshape(2 * n, 2 * n)
        arr = big[:n, :n].copy()
        for values in (arr, arr.T, np.asfortranarray(arr), big[::2, ::2],
                       arr.real):
            want = float(np.real(w @ (np.abs(values) ** 2) @ w))
            assert pairs.norm_sq(values, w) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("flips", [(True, True), (True, False),
                                       (False, True)])
    def test_flip(self, pair, flips):
        want = pair.dense()[tuple(slice(None, None, -1 if f else 1)
                                  for f in flips)]
        got = pairs.flip(pair, flips)
        assert np.allclose(np.asarray(got), want, atol=TOL)
        # only a flip of both axes stays factored when a term has c
        assert isinstance(got, FactoredPair) == all(flips)

    def test_scale_axis(self, pair):
        t = rvec(np.random.default_rng(7))
        for axis, want in ((0, t[:, None] * pair.dense()),
                           (1, pair.dense() * t[None, :])):
            got = pairs.scale_axis(pair, t, axis)
            assert isinstance(got, FactoredPair)
            assert np.allclose(got.dense(), want, atol=TOL)

    def test_sum_and_scale(self, pair):
        other = random_pair(np.random.default_rng(8), pair.symmetric)
        total = 0.5j * pair + other
        assert isinstance(total, FactoredPair)
        assert total.symmetric == pair.symmetric
        assert np.allclose(total.dense(), 0.5j * pair.dense() + other.dense(),
                           atol=TOL)
        # a dense operand absorbs the terms
        mixed = pair + other.dense()
        assert isinstance(mixed, np.ndarray)
        assert np.allclose(mixed, pair.dense() + other.dense(), atol=TOL)

    def test_shared_factors_merge(self):
        rng = np.random.default_rng(9)
        a, b, c1, c2 = (rvec(rng), rvec(rng), rvec(rng, 2 * N - 1),
                        rvec(rng, 2 * N - 1))
        terms = [(1.0, a, b, None), (2.0, a, b, None),
                 (1j, a, rvec(rng), None), (0.5, b, a, c1), (0.25, b, a, c2)]
        pair = FactoredPair(terms)
        assert len(pair.terms) == 2
        want = sum(FactoredPair([t]).dense() for t in terms)
        assert np.allclose(pair.dense(), want, atol=TOL)

    def test_mirror_terms_fold_into_symmetric_form(self):
        rng = np.random.default_rng(10)
        a, b = rvec(rng), rvec(rng)
        pair = FactoredPair([(1.0, a, b, None), (1.0, b, a, None)])
        assert pair.symmetric and len(pair.terms) == 1
        assert np.allclose(pair.dense(), np.outer(a, b) + np.outer(b, a),
                           atol=TOL)
        assert not FactoredPair([(1.0, a, b, None)]).symmetric

    def test_same_rail_pair_must_be_symmetric_by_construction(self):
        rng = np.random.default_rng(11)
        lopsided = FactoredPair([(1.0, rvec(rng), rvec(rng), None)])
        with pytest.raises(ValueError, match="symmetric"):
            FewPhotonState.from_components(GRID, ("a",),
                                           pairs={("a", "a"): lopsided})

    def test_non_finite_factor_rejected(self):
        a = rvec(np.random.default_rng(12))
        a[3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            FewPhotonState.from_components(
                GRID, ("a", "b"), pairs={("a", "b"): FactoredPair.product(a)})

    def test_nbytes_counts_shared_factors_once(self):
        a = rvec(np.random.default_rng(13))
        assert FactoredPair.product(a).nbytes == a.nbytes


# -- random op sequences: factored state against its densified copy ----------

RAILS = ("a", "b", "c")
PUMP = tp.normalize(tp.OnePhotonAmp(GRID, lorentzian_values(GRID, 1.0)))

op_strategy = st.one_of(
    st.tuples(st.just("bs"), st.permutations(RAILS), st.floats(-3.0, 3.0),
              st.floats(-3.0, 3.0)),
    st.tuples(st.just("loss"), st.sampled_from(RAILS), st.floats(0.0, 1.0)),
    st.tuples(st.just("tls"), st.sampled_from(RAILS), st.floats(0.5, 0.95)),
    st.tuples(st.just("gate"), st.sampled_from(RAILS), st.floats(0.0, 1.0),
              st.floats(-3.0, 3.0)),
    st.tuples(st.just("phase"), st.sampled_from(RAILS),
              st.sampled_from((1, 2)), st.floats(-3.0, 3.0),
              st.floats(0.0, 1.0)),
    st.tuples(st.just("gem"), st.sampled_from(RAILS + (None,))),
)


def apply_op(state, op):
    kind, *args = op
    if kind == "bs":
        (r1, r2, _), theta, phi = args
        return tp.beamsplitter(state, r1, r2, theta, phi)
    if kind == "loss":
        return tp.loss_channel(state, *args)
    if kind == "tls":
        rail, beta = args
        return tp.apply_tls(state, rail, tp.TlsParams.from_beta(beta))
    if kind == "gate":
        # the sign-gate pattern: extract, act on the pair left behind,
        # convert back
        rail, efficiency, phase = args
        gate = tp.PulseGateSpec(pump_mode=PUMP, efficiency=efficiency)
        mid = tp.sfg_extract(state, rail, gate)
        mid = tp.component_phase_loss(mid, rail, 2, phase, 0.8)
        return tp.sfg_reverse(mid, rail, gate)
    if kind == "phase":
        return tp.component_phase_loss(state, *args)
    return tp.gem_invert(state, args[0])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       ops=st.lists(op_strategy, min_size=1, max_size=6))
def test_random_circuits_match_dense(seed, ops):
    factored = random_factored_state(RAILS, seed)
    dense = densified(factored)
    for op in ops:
        try:
            factored = apply_op(factored, op)
        except ValueError:
            # a second gate on a rail whose sum rail still holds content:
            # both forms refuse it
            with pytest.raises(ValueError):
                apply_op(dense, op)
            break
        dense = apply_op(dense, op)
        assert factored.rails == dense.rails
        # no pair survives that the dense path prunes as zero
        assert set(factored.two_photon) == set(dense.two_photon)
        assert max_deviation(factored, dense) < TOL
        assert abs(factored.total_probability() - 1.0) < TOL
        assert abs(dense.total_probability() - 1.0) < TOL
    for (a, b), values in factored.two_photon.items():
        if a == b:
            require_symmetric(values)
    # dense pairs stay dense
    assert all(isinstance(v, np.ndarray) for v in dense.two_photon.values())


# -- circuits in both forms --------------------------------------------------


def bell_inputs(grid, pulse):
    return [tp.bell_state(grid, pulse, which)
            for which in ("psi+", "psi-", "phi+", "phi-")]


def cz_inputs(grid, pulse):
    """The four basis states, the 0.5 superposition and a complex-phase
    superposition."""
    amps = [{basis: 1.0} for basis in LOGICAL_BASIS]
    amps.append({b: 0.5 for b in LOGICAL_BASIS})
    amps.append({b: 0.5 * np.exp(1j * k)
                 for k, b in enumerate(LOGICAL_BASIS)})
    return [tp.logical_state(grid, pulse, a) for a in amps]


def assert_reports_agree(got, want):
    keys = set(got.pattern_probs) | set(want.pattern_probs)
    for key in keys:
        assert abs(got.pattern_probs.get(key, 0.0)
                   - want.pattern_probs.get(key, 0.0)) < TOL, key
    assert abs(got.success_prob - want.success_prob) < TOL
    assert abs(got.lost_mass - want.lost_mass) < TOL
    assert abs(got.output_state.total_probability()
               - want.output_state.total_probability()) < TOL
    assert all(isinstance(v, FactoredPair)
               for v in got.output_state.two_photon.values())
    assert all(isinstance(v, np.ndarray)
               for v in want.output_state.two_photon.values())


@pytest.fixture(params=["lossless", "lossy"], scope="module")
def operating_point(request, circuit_grid, tls0, pulse0, tls95, pulse95):
    return (tls0, pulse0) if request.param == "lossless" else (tls95, pulse95)


class TestCircuitsMatchDense:
    def test_bell_analyzer(self, circuit_grid, operating_point):
        p, pulse = operating_point
        for state in bell_inputs(circuit_grid, pulse):
            got = tp.bell_analyzer(state, p, pulse)
            want = tp.bell_analyzer(densified(state), p, pulse)
            assert_reports_agree(got, want)

    def test_cz_gate(self, circuit_grid, operating_point):
        p, pulse = operating_point
        for state in cz_inputs(circuit_grid, pulse):
            got = tp.cz_gate(state, p, pulse)
            want = tp.cz_gate(densified(state), p, pulse)
            assert_reports_agree(got, want)
            assert abs(got.fidelity_to_target - want.fidelity_to_target) < TOL
            for b in LOGICAL_BASIS:
                assert abs(got.logical_amplitudes[b]
                           - want.logical_amplitudes[b]) < TOL


# Largest term count of any pair array in the output, as measured when the
# factored form was introduced.  Merging keeps these small; a failure here
# means terms stopped merging and the circuits slow down.
MAX_TERMS = {("bell", "lossless"): 2, ("bell", "lossy"): 3,
             ("cz", "lossless"): 3, ("cz", "lossy"): 4,
             ("ns", "lossless"): 3, ("ns", "lossy"): 4}


def max_terms(state):
    return max(len(v.terms) for v in state.two_photon.values())


@pytest.mark.parametrize("loss", ["lossless", "lossy"])
def test_term_counts_stay_bounded(circuit_grid, tls0, pulse0, tls95,
                                  pulse95, loss):
    p, pulse = (tls0, pulse0) if loss == "lossless" else (tls95, pulse95)
    for state in bell_inputs(circuit_grid, pulse):
        out = tp.bell_analyzer(state, p, pulse).output_state
        assert max_terms(out) <= MAX_TERMS[("bell", loss)]
    for state in cz_inputs(circuit_grid, pulse):
        out = tp.cz_gate(state, p, pulse).output_state
        assert max_terms(out) <= MAX_TERMS[("cz", loss)]
    state = FewPhotonState.from_components(
        circuit_grid, ("sig",), 0.5, ones={"sig": 0.5 * pulse.values},
        pairs={("sig", "sig"): 0.7 * FactoredPair.product(pulse.values)})
    out = tp.ns_gate(state, "sig", p, pulse)
    assert max_terms(out) <= MAX_TERMS[("ns", loss)]
    assert isinstance(out.pair("sig", "sig"), FactoredPair)
