"""Factored pair amplitudes against the dense N x N oracle.

Unit checks of each pair operation against its array, the cache of Gram
entries, the sharing of derived arrays, the door for dense input
(``pairs.from_dense``), a hypothesis property test that runs random op
sequences in the library and in the independent dense implementation of
``dense_oracle``, self-inverse checks, the Bell analyzer, CZ gate and NS
gate in both, and a guard on the term counts the circuits produce.
"""

import dataclasses
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle as oracle
import tlsphot as tp
from conftest import ns_input
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


def random_pair(rng, same_rail, with_c=True, n=N):
    """Two or three terms on an ``n``-point grid, one with c(x + y) if
    ``with_c``; exchange symmetric for a same-rail pair (a diagonal term and
    a symmetrized one)."""
    a, b = rvec(rng, n), rvec(rng, n)
    terms = [(rng.standard_normal() + 1j, a, a if same_rail else b, None),
             (0.7j, rvec(rng, n), rvec(rng, n), rvec(rng, 2 * n - 1)),
             (-0.4, a, rvec(rng, n), None)]
    if not with_c:
        del terms[1]
    return FactoredPair(terms, symmetric=same_rail)


def random_factored_state(rails, seed):
    """Normalized state with random content in every sector and factored
    pairs.  As in the circuits, c(x + y) terms (the emitter's bound part)
    start on same-rail pairs; a beamsplitter carries them across rails."""
    rng = np.random.default_rng(seed)
    ones = {r: rvec(rng) for r in rails}
    twos = {(a, b): random_pair(rng, a == b, with_c=a == b)
            for i, a in enumerate(rails) for b in rails[i:]}
    vacuum = rng.standard_normal() + 1j * rng.standard_normal()
    total = FewPhotonState.from_components(GRID, rails, vacuum, ones,
                                           twos).surviving_norm_sq()
    k = 1.0 / np.sqrt(total)
    return FewPhotonState.from_components(
        GRID, rails, k * vacuum, {r: k * v for r, v in ones.items()},
        {key: k * v for key, v in twos.items()})


def max_deviation(state, dense):
    """Largest difference between a library state and an oracle state's
    components (an absent component counts as zero) and lost masses."""
    assert state.rails == dense.rails
    n = state.grid.n_points
    dev = max(abs(state.vacuum_amp - dense.vacuum),
              abs(state.lost_mass - dense.lost))
    for i, r in enumerate(state.rails):
        dev = max(dev, np.max(np.abs(state.one_photon.get(r, np.zeros(n))
                                     - dense.one(r))))
        for s in state.rails[i:]:
            values = state.pair(r, s)
            values = np.zeros((n, n)) if values is None else np.asarray(values)
            dev = max(dev, np.max(np.abs(values - dense.pair(r, s))))
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
        assert abs(pairs.norm_sq(pair, W) - oracle.norm2(W, dense)) < TOL
        assert abs(pairs.inner(other, pair, W)
                   - oracle.inner2(W, other.dense(), dense)) < TOL
        assert np.allclose(u @ pair, u @ dense, atol=TOL)
        assert np.allclose(pair.T.dense(), dense.T, atol=TOL)

    def test_dense_norm_kernel_any_layout(self):
        rng = np.random.default_rng(6)
        n = 201  # not a multiple of the 64-row tile
        w = tp.SpectralGrid(10.0, n).weights
        big = rvec(rng, 4 * n * n).reshape(2 * n, 2 * n)
        arr = big[:n, :n].copy()
        k, a = 0.3 - 2j, rvec(rng, n)
        for values in (arr, arr.T, np.asfortranarray(arr), big[::2, ::2],
                       arr.real):
            scale = np.max(np.abs(values))
            want = float(np.real(w @ (np.abs(values) ** 2) @ w))
            assert pairs._dense_norm_sq(values, w, scale) == pytest.approx(
                want / scale**2, rel=1e-14)
            # the door's residual form: || values - k a(x) a(y) ||
            want = oracle.norm2(w, values - k * np.outer(a, a))
            assert pairs._dense_norm_sq(values, w, scale, (k, a)) == (
                pytest.approx(want / scale**2, rel=1e-13))

    @pytest.mark.parametrize("flips", [(True, True), (True, False),
                                       (False, True)])
    def test_flip(self, pair, flips):
        def want(values):
            return values.dense()[tuple(slice(None, None, -1 if f else 1)
                                        for f in flips)]

        if all(flips):
            got = pairs.flip(pair, flips)
            assert np.allclose(got.dense(), want(pair), atol=TOL)
            return
        # c(x + y) has no one-axis mirror: the op that asks for one fails
        with pytest.raises(ValueError, match="gem_invert"):
            pairs.flip(pair, flips)
        plain = random_pair(np.random.default_rng(14), pair.symmetric,
                            with_c=False)
        got = pairs.flip(plain, flips)
        assert isinstance(got, FactoredPair)
        assert np.allclose(got.dense(), want(plain), atol=TOL)

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
        # a dense operand is not a pair: it enters through the door only
        with pytest.raises(TypeError):
            pair + other.dense()

    @pytest.mark.parametrize("scale", [np.ones(3), np.ones(N)])
    def test_scale_by_array_refused(self, pair, scale):
        # a pair scales by a number only; numpy does not densify it
        with pytest.raises(TypeError):
            pair * scale
        with pytest.raises(TypeError):
            scale * pair

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

    def test_equal_but_distinct_factors_stay_separate(self):
        # terms merge on factor identity: derived factors are shared by
        # construction, so a copy holding the same values is another array.
        # Each pair of terms below shares at most one factor array.
        rng = np.random.default_rng(12)
        a, b, c = rvec(rng), rvec(rng), rvec(rng, 2 * N - 1)
        for terms, symmetric in (
                ([(1.0, a, b, None), (2.0, a.copy(), b.copy(), None)], False),
                ([(1.0, a, b, c), (2.0, a.copy(), b, c.copy())], False),
                ([(1.0, a, b, c), (2.0, a, b.copy(), c.copy())], False),
                ([(1.0, a, b, c), (2.0, a.copy(), b.copy(), c)], False),
                ([(1.0, a, b, None), (2.0, b.copy(), a.copy(), None)], True)):
            pair = FactoredPair(terms, symmetric)
            assert len(pair.terms) == 2
            want = sum(FactoredPair([t], symmetric).dense() for t in terms)
            assert np.allclose(pair.dense(), want, atol=TOL)
        # the same arrays merge
        assert len(FactoredPair([(1.0, a, b, c), (2.0, a, b, c)]).terms) == 1

    def test_symmetry_is_declared_not_inferred(self):
        rng = np.random.default_rng(10)
        a, b = rvec(rng), rvec(rng)
        # a declared term (1, a, b) stands for (a x b + b x a) / 2
        pair = FactoredPair([(1.0, a, b, None)], symmetric=True)
        assert pair.symmetric and len(pair.terms) == 1
        assert np.allclose(pair.dense(),
                           0.5 * (np.outer(a, b) + np.outer(b, a)), atol=TOL)
        # a term list closed under exchange is not flagged
        closed = FactoredPair([(1.0, a, b, None), (1.0, b, a, None)])
        assert not closed.symmetric and len(closed.terms) == 2
        assert np.allclose(closed.dense(), 2.0 * pair.dense(), atol=TOL)
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


class TestCancellation:
    """A Gram sum of cancelling terms keeps a rounding residue; a written
    pair whose norm is that residue is pruned, a genuinely small one is
    kept."""

    GRID = tp.SpectralGrid(60.0, 1201)

    def unit(self, rng):
        v = rvec(rng, self.GRID.n_points)
        return v / np.sqrt(np.sum(self.GRID.weights * np.abs(v) ** 2))

    def written(self, values):
        state = FewPhotonState.from_components(
            self.GRID, ("a", "b"), pairs={("a", "b"): values})
        # a loss channel at transmission 1 rewrites the pair unchanged
        return tp.loss_channel(state, "a", 1.0)

    def test_cancelling_terms_are_pruned(self):
        rng = np.random.default_rng(1)
        a, b = self.unit(rng), self.unit(rng)
        dead = FactoredPair([(1, a, b, None), (-1, 3 * a, b / 3, None)])
        assert oracle.norm2(self.GRID.weights, dead.dense()) < 1e-30
        assert pairs.norm_sq(dead, self.GRID.weights) == 0.0
        assert self.written(dead).two_photon == {}

    @pytest.mark.parametrize("bad", ["nan_factor", "inf_coef"])
    def test_non_finite_sum_is_nan(self, bad):
        # the cut-off compares false on a NaN, and on an inf against its
        # inf scale: neither may read as a norm of 0
        f = self.unit(np.random.default_rng(3))
        if bad == "nan_factor":
            f[5] = np.nan
            pair = FactoredPair.product(f)
        else:
            pair = np.inf * FactoredPair.product(f)
        w = self.GRID.weights
        assert not np.isfinite(pairs.inner(pair, pair, w))
        assert np.isnan(pairs.norm_sq(pair, w))

    def test_small_pair_is_kept(self):
        f = self.unit(np.random.default_rng(2))
        small = 1e-10 * FactoredPair.product(f)
        assert pairs.norm_sq(small, self.GRID.weights) == pytest.approx(
            1e-20, rel=1e-12)
        assert ("a", "b") in self.written(small).two_photon


@pytest.fixture
def convolutions(monkeypatch):
    """The arguments of every ``pairs.convolve`` call from here on."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return convolve(*args, **kwargs)

    convolve = pairs.convolve
    monkeypatch.setattr(pairs, "convolve", counted)
    return calls


class TestGramCache:
    """``pairs._term_inner`` computes each Gram entry once per set of
    factor arrays and weights, and drops it when one of them dies."""

    def test_second_norm_runs_no_convolution(self, convolutions):
        pair = random_pair(np.random.default_rng(11), True)
        first = pairs.norm_sq(pair, W)
        assert convolutions
        convolutions.clear()
        assert pairs.norm_sq(pair, W) == first
        assert not convolutions

    def test_scaled_pair_norms_from_cached_entries(self, convolutions):
        pair = random_pair(np.random.default_rng(12), False)
        norm = pairs.norm_sq(pair, W)
        convolutions.clear()
        k = 0.3 - 1.1j
        scaled = pairs.norm_sq(k * pair, W)
        assert not convolutions
        assert scaled == pytest.approx(abs(k) ** 2 * norm, rel=1e-13)
        assert scaled == pytest.approx(
            oracle.norm2(W, (k * pair).dense()), rel=1e-13)

    def test_entries_die_with_their_factors(self):
        pair = random_pair(np.random.default_rng(13), True)
        before = table_keys()
        pairs.norm_sq(pair, W)
        added = {name: keys - before[name]
                 for name, keys in table_keys().items()}
        # the Gram entries and the convolutions they share
        assert added["_GRAM"] and added["_SHARED"]
        factor = weakref.ref(pair.terms[0][1])
        del pair
        assert factor() is None
        for name, keys in table_keys().items():
            assert not added[name] & keys
        assert len(pairs._GRAM) <= len(before["_GRAM"])

    def test_reused_ids_get_fresh_entries(self):
        def arrays():
            return np.empty(N, complex), np.empty(2 * N - 1, complex)

        def filled(x, f, c):
            f.fill(x)
            c.fill(1j * x)
            return FactoredPair([(1.0, f, f, c)], True)

        pair = filled(1.0, *arrays())
        freed = [id(x) for x in pair.terms[0][2:]]
        first = pairs.norm_sq(pair, W)
        del pair
        # new array objects take the freed ids.  Which new array gets one is
        # up to the allocator (the entry's shared convolution dies too and
        # frees array objects of the same size), so arrays of each size are
        # made and held until one of that size has its id; one that takes
        # the id meant for the other size is given back at once
        sizes = dict(zip(freed, (N, 2 * N - 1)))
        held, got = [], {}
        while len(got) < 2 and len(held) < 20_000:
            for target in [t for t in sizes if t not in got]:
                x = np.empty(sizes[target], complex)
                if id(x) == target:
                    got[target] = x
                elif id(x) not in sizes:
                    held.append(x)
                del x
        assert len(got) == 2
        pair = filled(2.0, got[freed[0]], got[freed[1]])
        assert pairs.norm_sq(pair, W) == pytest.approx(
            oracle.norm2(W, pair.dense()), rel=1e-13)
        assert pairs.norm_sq(pair, W) == pytest.approx(64 * first, rel=1e-13)


@pytest.fixture
def gram_lookups(monkeypatch):
    """The arguments of every ``pairs._term_inner`` call from here on."""
    calls = []

    def counted(*args):
        calls.append(args)
        return term_inner(*args)

    term_inner = pairs._term_inner
    monkeypatch.setattr(pairs, "_term_inner", counted)
    return calls


class TestStoredNorm:
    """``pairs.norm_sq`` keeps a pair's norm on the pair, for the weights
    array it was computed on."""

    def test_second_norm_computes_no_gram_entry(self, gram_lookups):
        pair = random_pair(np.random.default_rng(31), True)
        first = pairs.norm_sq(pair, W)
        assert gram_lookups
        gram_lookups.clear()
        assert pairs.norm_sq(pair, W) == first
        assert not gram_lookups

    def test_other_weights_recompute(self, gram_lookups):
        pair = random_pair(np.random.default_rng(32), False)
        first = pairs.norm_sq(pair, W)
        gram_lookups.clear()
        assert pairs.norm_sq(pair, 2.0 * W) == pytest.approx(4.0 * first,
                                                              rel=1e-13)
        assert gram_lookups
        gram_lookups.clear()
        # equal values in another array are other weights too
        assert pairs.norm_sq(pair, W.copy()) == pytest.approx(first,
                                                              rel=1e-13)
        assert gram_lookups

    def test_scaled_pair_keeps_the_norm(self, gram_lookups):
        # k * pair is normed from its source's stored norm, |k|^2 times it
        pair = random_pair(np.random.default_rng(33), True)
        first = pairs.norm_sq(pair, W)
        gram_lookups.clear()
        k = 0.3 - 1.1j
        assert pairs.norm_sq(k * pair, W) == abs(k) ** 2 * first
        assert pairs.norm_sq(pair * k, W) == abs(k) ** 2 * first
        # a total that is not finite reads NaN, as the Gram loop reads it
        assert np.isnan(pairs.norm_sq(np.inf * pair, W))
        assert not gram_lookups
        # the Gram loop on an unnormed copy of the same pair agrees
        fresh = random_pair(np.random.default_rng(33), True)
        assert pairs.norm_sq(k * fresh, W) == pytest.approx(
            abs(k) ** 2 * first, rel=1e-13)
        assert gram_lookups


@pytest.fixture
def ffts(monkeypatch):
    """The number of ``numpy.fft`` transforms from here on, in a list."""
    count = [0]
    for name in ("fft", "ifft", "rfft", "irfft"):
        def counted(*args, _fn=getattr(np.fft, name), **kwargs):
            count[0] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return count


class TestReversal:
    """The memory reverses each factor into one shared read-only copy
    (``pairs._reversed``), and a full flip has its source's norm."""

    def test_flip_shares_read_only_copies(self):
        state = random_factored_state(RAILS, 21)
        out, again = tp.gem_invert(state), tp.gem_invert(state)
        for rail, v in state.one_photon.items():
            assert out.one_photon[rail] is again.one_photon[rail]
            assert np.array_equal(out.one_photon[rail], v[::-1])
        for key, amp in state.two_photon.items():
            for old, new, twice in zip(amp.terms, out.two_photon[key].terms,
                                       again.two_photon[key].terms):
                for x, y, z in zip(old[1:], new[1:], twice[1:]):
                    if x is None:
                        assert y is None and z is None
                        continue
                    assert y is z and not y.flags.writeable
                    assert np.array_equal(y, x[::-1])
                    assert not np.shares_memory(x, y)

    def test_flip_has_its_source_norm(self, convolutions):
        pair = random_pair(np.random.default_rng(3), True)
        flipped = pairs.flip(pair, (True, True))
        assert flipped.reverses is pair
        norm = pairs.norm_sq(pair, W)
        convolutions.clear()
        # bit for bit, from the source's Gram entries
        assert pairs.norm_sq(flipped, W) == norm
        assert not convolutions
        # asymmetric weights: the flip's own entries, against the oracle
        w = W * np.linspace(0.5, 1.5, N)
        assert pairs.norm_sq(flipped, w) == pytest.approx(
            oracle.norm2(w, flipped.dense()), rel=1e-13)
        assert pairs.norm_sq(flipped, w) != pytest.approx(
            pairs.norm_sq(pair, w), rel=1e-3)

    def test_repeated_cz_gate_repeats_little(self, tls95, sigma_up95, ffts):
        # the read-outs are Gram entries, keyed on a and b and not on the
        # bound term's c, so a warm lossy gate makes no transform
        grid = tp.SpectralGrid(60.0, 1201)
        pulse = tp.make_pulse(tp.PulseShape("lorentzian", sigma_up95), grid)
        state = tp.logical_state(grid, pulse, {(0, 1): 1.0})
        tp.cz_gate(state, tls95, pulse)
        assert ffts[0]
        ffts[0] = 0
        tp.cz_gate(state, tls95, pulse)
        assert ffts[0] == 0

    @pytest.mark.parametrize("loss", ["lossless", "lossy"])
    def test_warm_devices_make_no_fft(self, tls0, sigma_up0, tls95,
                                      sigma_up95, loss, ffts):
        # on the n = 4001 policy grid: each device, called again with the
        # same pulse, runs on cached arrays and Gram entries only
        p, sigma = (tls0, sigma_up0) if loss == "lossless" else (tls95,
                                                                 sigma_up95)
        grid = tp.SpectralGrid.for_pulse_width(sigma)
        assert grid.n_points == 4001
        pulse = tp.make_pulse(tp.PulseShape("lorentzian", sigma), grid)
        cz_in = tp.logical_state(grid, pulse, {(0, 1): 1.0})
        bell_in = tp.bell_state(grid, pulse, "phi+")
        ns_in = ns_input(grid, pulse)
        calls = {
            "cz": lambda: tp.cz_gate(cz_in, p, pulse),
            "bell": lambda: tp.bell_analyzer(bell_in, p, pulse),
            "ns": lambda: tp.ns_gate(ns_in, "sig", p, pulse),
        }
        for call in calls.values():
            call()
        ffts[0] = 0
        warm = {}
        for name, call in calls.items():
            call()
            warm[name], ffts[0] = ffts[0], 0
        assert warm == {"cz": 0, "bell": 0, "ns": 0}


def test_second_scatter_makes_no_fft(ffts):
    # each term's bound convolution J is shared, so a multi-term pair,
    # one of its terms with c(x + y), scatters from cached arrays
    pair = random_pair(np.random.default_rng(41), True)
    p = tp.TlsParams.from_beta(0.9)
    first = tp.scatter_two(p, GRID, pair)
    assert ffts[0]
    ffts[0] = 0
    again = tp.scatter_two(p, GRID, pair)
    assert ffts[0] == 0
    assert np.array_equal(again.dense(), first.dense())


def device_runs(p, pulse):
    """Bell analyses of the four Bell states, CZ gates on the basis and two
    superpositions and an NS gate, all at one operating point."""
    grid = pulse.grid
    outs = [tp.bell_analyzer(s, p, pulse) for s in bell_inputs(grid, pulse)]
    outs += [tp.cz_gate(s, p, pulse) for s in cz_inputs(grid, pulse)]
    return outs + [tp.ns_gate(ns_input(grid, pulse), "sig", p, pulse)]


def bits(out):
    """A device output as numbers and the factor arrays of its state."""
    state = getattr(out, "output_state", out)
    report = ([] if state is out else
              [out.success_prob, out.pattern_probs, out.logical_amplitudes])
    ones = {r: v.tobytes() for r, v in state.one_photon.items()}
    twos = {key: [(k, *(None if x is None else x.tobytes() for x in xs))
                  for k, *xs in amp.terms]
            for key, amp in state.two_photon.items()}
    return report + [state.vacuum_amp, state.lost_mass, ones, twos]


# every table of arrays or numbers the pairs module keys on array identity
TABLES = ("_SHARED", "_GRAM")


def table_keys():
    return {name: set(getattr(pairs, name)) for name in TABLES}


class TestSharing:
    """``pairs.shared``: every derived factor array is made once per set of
    input arrays, read-only, and dies with them."""

    @pytest.mark.parametrize("on_policy", [False, True],
                             ids=["n1201", "policy_grid"])
    @pytest.mark.parametrize("loss", ["lossless", "lossy"])
    def test_devices_equal_cold_and_warm(self, tls0, sigma_up0, tls95,
                                         sigma_up95, on_policy, loss,
                                         convolutions):
        p, sigma = (tls0, sigma_up0) if loss == "lossless" else (tls95,
                                                                 sigma_up95)
        # a fresh grid and pulse: nothing derived from them is held yet
        grid = (tp.SpectralGrid.for_pulse_width(sigma) if on_policy
                else tp.SpectralGrid(60.0, 1201))
        pulse = tp.make_pulse(tp.PulseShape("lorentzian", sigma), grid)
        cold = [bits(out) for out in device_runs(p, pulse)]
        computed = len(convolutions)
        convolutions.clear()
        assert [bits(out) for out in device_runs(p, pulse)] == cold
        assert len(convolutions) < computed  # the warm run shares arrays

    def test_tables_stop_growing(self, tls95, sigma_up95):
        grid = tp.SpectralGrid(60.0, 1201)
        pulse = tp.make_pulse(tp.PulseShape("lorentzian", sigma_up95), grid)
        # CZ and Bell calls in turn, the CZ superpositions (which touch
        # every rail pair) first
        calls = ([(tp.cz_gate, s) for s in cz_inputs(grid, pulse)[::-1]],
                 [(tp.bell_analyzer, s) for s in bell_inputs(grid, pulse)])
        sizes = []
        for i in range(120):
            inputs = calls[i % 2]
            device, state = inputs[i // 2 % len(inputs)]
            device(state, tls95, pulse)
            sizes.append([len(getattr(pairs, name)) for name in TABLES])
        assert all(size == sizes[4] for size in sizes[4:])

    def test_dropping_pulse_and_grid_empties_tables(self, tls95, sigma_up95):
        before = table_keys()

        def run():
            grid = tp.SpectralGrid(60.0, 1201)
            pulse = tp.make_pulse(tp.PulseShape("lorentzian", sigma_up95),
                                  grid)
            outs = device_runs(tls95, pulse)
            # the memory's reversed copies live in the CZ and NS outputs
            assert all(keys - before[name]
                       for name, keys in table_keys().items())
            assert outs

        run()
        assert all(not keys - before[name]
                   for name, keys in table_keys().items())

    def test_shared_arrays_are_read_only(self, tls95, sigma_up95):
        grid = tp.SpectralGrid(60.0, 1201)
        pulse = tp.make_pulse(tp.PulseShape("lorentzian", sigma_up95), grid)
        outs = device_runs(tls95, pulse)
        assert outs and pairs._SHARED
        for value, _ in pairs._SHARED.values():
            assert not value.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                value[0] = 0.0

    def test_keyed_inputs_are_read_only(self, tls95, sigma_up95):
        # a write into a pulse would leave the arrays derived from it stale
        grid = tp.SpectralGrid(60.0, 1201)
        pulse = tp.make_pulse(tp.PulseShape("lorentzian", sigma_up95), grid)
        tp.scatter_one(tls95, pulse)
        for x in (pulse.values, grid.samples):
            with pytest.raises(ValueError, match="read-only"):
                x *= 0.5

    def test_scalar_path_holds_no_grid(self, tls95):
        before = set(pairs._SHARED)
        for sigma in np.linspace(0.5, 2.0, 20):
            grid = tp.SpectralGrid.for_pulse_width(sigma)
            tp.eta_numeric(tls95, tp.make_pulse(
                tp.PulseShape("lorentzian", sigma), grid))
        assert set(pairs._SHARED) - before
        del grid
        assert not set(pairs._SHARED) - before


class TestDoor:
    """``pairs.from_dense``: the one way a dense N x N array becomes a
    pair, and only a same-rail array that is one product term k a(x) a(y);
    a cross-rail pair must be a ``FactoredPair``."""

    REFUSED = r"not one product term.*FactoredPair.*np\.linalg\.svd"

    def arrays(self, rng):
        """Product inputs, as the benchmark's NS input and the README's
        example build them, in the layouts and dtypes the door takes."""
        a = rvec(rng)
        # the NS input's pair with a complex amp and the target's sign
        amp, pair_sign = 0.4 - 0.3j, -1.0
        ns = pair_sign * amp * np.outer(PUMP.values, PUMP.values)
        return {"rank1_same": np.outer(a, a),
                # norms of order 1e-300 and 1e300, each within a float
                "rank1_1e-150": 1e-150 * np.outer(a, a),
                "rank1_1e150": 1e150 * np.outer(a, a),
                "fortran_same": np.asfortranarray(np.outer(a, a)),
                "real_same": np.outer(a.real, a.real),
                "zero_same": np.zeros((N, N), dtype=complex),
                "ns_input": ns,
                "ns_input_fortran": np.asfortranarray(ns)}

    @pytest.mark.parametrize("case", ["rank1_same", "rank1_1e-150",
                                      "rank1_1e150", "fortran_same",
                                      "real_same", "zero_same", "ns_input",
                                      "ns_input_fortran"])
    def test_low_rank_input_is_exact(self, case):
        values = self.arrays(np.random.default_rng(1))[case]
        pair = pairs.from_dense(values)
        (_, a, b, c), = pair.terms
        assert pair.symmetric and a is b and c is None
        # a fresh factor: the pair does not keep the N x N array alive
        assert not np.shares_memory(a, values)
        err = np.max(np.abs(pair.dense() - values))
        assert err <= 1e-14 * np.max(np.abs(values))

    def test_default_grid_product_is_one_term(self):
        grid = tp.SpectralGrid.for_pulse_width(1.25)
        f = tp.make_pulse(tp.PulseShape("lorentzian", 1.25), grid).values
        pair = pairs.from_dense(np.outer(f, f))
        assert len(pair.terms) == 1
        u = grid.weights * np.conj(f)
        assert abs(u @ pair @ u - 1.0) < 1e-14

    def test_symmetric_product_is_one_diagonal_term(self):
        f = PUMP.values
        pair = pairs.from_dense(np.outer(f, f))
        (_, a, b, c), = pair.terms
        assert a is b and c is None
        assert len(pair.expanded()) == 1

    @pytest.mark.parametrize("case", ["rank2_same", "rank2_cross",
                                      "distinct", "degenerate", "hollow",
                                      "rank2_small", "identity", "equal",
                                      "equal_1e-170", "equal_1e200"])
    def test_several_terms_refused(self, case):
        rng = np.random.default_rng(2)
        a, b = np.linalg.qr(np.stack([rvec(rng), rvec(rng)], axis=1))[0].T
        c, d = rvec(rng), rvec(rng)
        lower = np.arange(N) < N // 2
        values, match = {
            "rank2_same": (0.5 * (np.outer(c, d) + np.outer(d, c)),
                           self.REFUSED),
            # an asymmetric array, as a cross-rail amplitude is, fails the
            # symmetry check first
            "rank2_cross": (np.outer(c, d) + np.outer(a, b),
                            "is not symmetric: max deviation"),
            # distinct and equal singular values
            "distinct": (2.0 * np.outer(a, a) + 0.5j * np.outer(b, b),
                         self.REFUSED),
            "degenerate": (np.outer(a, b) + np.outer(b, a), self.REFUSED),
            # symmetric with a zero diagonal: no diagonal pivot
            "hollow": (np.outer(c * lower, d * ~lower)
                       + np.outer(d * ~lower, c * lower), self.REFUSED),
            # a second term of relative weight 1e-16, above (1e-10)^2
            "rank2_small": (np.outer(c, c) + 1e-8 * np.outer(a, a),
                            self.REFUSED),
            "identity": (np.eye(N), self.REFUSED),
            # two orthonormal terms of equal weight at any scale: squared
            # raw, both weights of the 1e-170 array underflow to 0, and the
            # check 0 <= 0 would admit it
            "equal": (np.outer(a, a) + np.outer(b, b), self.REFUSED),
            "equal_1e-170": (1e-170 * (np.outer(a, a) + np.outer(b, b)),
                             self.REFUSED),
            "equal_1e200": (1e200 * (np.outer(a, a) + np.outer(b, b)),
                            self.REFUSED),
        }[case]
        with pytest.raises(ValueError, match=match):
            pairs.from_dense(values)

    @pytest.mark.parametrize("shape", [(0, 0), (0,), (3, 0)])
    def test_empty_array_refused(self, shape):
        # no diagonal to pivot on: refused by name, not in numpy's argmax
        with pytest.raises(ValueError,
                           match=r"from_dense, the dense door.*N >= 1.*"
                           + re.escape(str(shape))):
            pairs.from_dense(np.zeros(shape, dtype=complex))

    def test_scalar_refused_as_not_square(self):
        with pytest.raises(ValueError, match=r"must be square.*shape \(\)"):
            pairs.from_dense(np.ones(()))

    @pytest.mark.parametrize("scale", [1e-170, 1e200])
    def test_norm_out_of_float_range_refused(self, scale):
        # a finite product whose norm N^2 scale^2 is past a float's range is
        # refused as such, not called non-finite
        with pytest.raises(ValueError,
                           match="norm overflows or underflows a float"):
            pairs.from_dense(np.full((N, N), scale + 0j))

    @pytest.mark.parametrize("same_rail", [False, True])
    def test_svd_recipe_builds_several_terms(self, same_rail):
        # the README's recipe for an amplitude the door refuses
        rng = np.random.default_rng(4)
        c, d, e = rvec(rng), rvec(rng), rvec(rng)
        jsa = np.outer(c, d) + np.outer(d, c if same_rail else e)
        u, s, vh = np.linalg.svd(jsa)
        keep = s > 1e-10 * s[0]
        pair = FactoredPair([(sk, uk.copy(), vk.copy(), None)
                             for sk, uk, vk in zip(s[keep], u.T[keep],
                                                   vh[keep])],
                            symmetric=same_rail)
        key = ("a", "a") if same_rail else ("a", "b")
        state = FewPhotonState.from_components(GRID, ("a", "b"),
                                               pairs={key: pair})
        assert len(state.two_photon[key].terms) == 2
        err = np.max(np.abs(state.two_photon[key].dense() - jsa))
        assert err <= 1e-13 * np.max(np.abs(jsa))

    def test_term_within_tolerance_is_certified(self):
        # a second term of relative weight 1e-26, below (1e-10)^2: one term
        rng = np.random.default_rng(3)
        c, a = rvec(rng), rvec(rng)
        values = np.outer(c, c) + 1e-13 * np.outer(a, a)
        pair = pairs.from_dense(values)
        assert len(pair.terms) == 1
        missed = np.sum(np.abs(pair.dense() - values) ** 2)
        assert missed <= pairs._DOOR_RTOL**2 * np.sum(np.abs(values) ** 2)

    def test_checks_run_before_factorization(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("factorized an invalid array")

        monkeypatch.setattr(pairs, "_dense_norm_sq", refuse)
        f = PUMP.values
        lopsided = np.outer(f, f * GRID.samples)
        with pytest.raises(ValueError,
                           match="is not symmetric: max deviation"):
            FewPhotonState.from_components(GRID, ("a",),
                                           pairs={("a", "a"): lopsided})
        for bad in (np.nan, np.inf):
            values = np.outer(f, f)
            values[2, 3] = bad
            with pytest.raises(ValueError, match="non-finite"):
                FewPhotonState.from_components(GRID, ("a",),
                                               pairs={("a", "a"): values})
        with pytest.raises(ValueError, match="unknown rail"):
            FewPhotonState.from_components(
                GRID, ("a",), pairs={("a", "z"): np.eye(N)})

    def test_non_square_refused(self):
        with pytest.raises(ValueError, match=r"square, got shape \(3, 4\)"):
            pairs.from_dense(np.ones((3, 4)))

    @pytest.mark.parametrize("key", [("a", "b"), ("b", "a")])
    @pytest.mark.parametrize("path", ["from_components", "constructor",
                                      "replace", "write"])
    def test_cross_rail_array_refused(self, path, key):
        # the product array the door takes on one rail, on two: it must be
        # a FactoredPair, whichever way the key lists the rails (a write's
        # key lists them in the state's rail order)
        values = np.outer(PUMP.values, PUMP.values)
        empty = FewPhotonState.vacuum(GRID, key)
        build = {
            "from_components": lambda: FewPhotonState.from_components(
                GRID, ("a", "b"), pairs={key: values}),
            "constructor": lambda: FewPhotonState(
                GRID, ("a", "b"), two_photon={key: values}),
            "replace": lambda: dataclasses.replace(
                empty, two_photon={key: values}),
            "write": lambda: empty.two_photon.__setitem__(key, values),
        }[path]
        with pytest.raises(TypeError, match=(
                rf"rails \('{key[0]}', '{key[1]}'\) is a ndarray: a "
                r"cross-rail pair must be a FactoredPair.*np\.linalg\.svd")):
            build()
        assert empty.two_photon == {}

    def test_direct_write_is_converted(self):
        f = PUMP.values
        state = FewPhotonState.vacuum(GRID, ("a", "b"))
        state.two_photon[("a", "a")] = np.outer(f, f)
        pair = state.two_photon[("a", "a")]
        assert isinstance(pair, FactoredPair) and pair.symmetric
        assert np.allclose(pair.dense(), np.outer(f, f), rtol=0, atol=1e-14)
        with pytest.raises(ValueError, match="symmetric"):
            state.two_photon[("b", "b")] = np.outer(f, f * GRID.samples)
        # a pair an op writes passes as it is
        same = FactoredPair.product(f)
        state.two_photon[("a", "b")] = same
        assert state.two_photon[("a", "b")] is same


# -- random op sequences: library against the dense oracle ---------------------

RAILS = ("a", "b", "c")
PUMP = tp.normalize(tp.OnePhotonAmp(GRID, lorentzian_values(GRID, 1.0)))
GATE_MODES = {"ideal": {}, "photonwise": {"ideal": False}}

op_strategy = st.one_of(
    st.tuples(st.just("bs"), st.permutations(RAILS), st.floats(-3.0, 3.0),
              st.floats(-3.0, 3.0)),
    st.tuples(st.just("loss"), st.sampled_from(RAILS), st.floats(0.0, 1.0)),
    st.tuples(st.just("tls"), st.sampled_from(RAILS), st.floats(0.5, 0.95)),
    st.tuples(st.just("gate"), st.sampled_from(RAILS), st.floats(0.0, 1.0),
              st.floats(-3.0, 3.0), st.sampled_from(sorted(GATE_MODES))),
    st.tuples(st.just("phase"), st.sampled_from(RAILS),
              st.sampled_from((1, 2)), st.floats(-3.0, 3.0),
              st.floats(0.0, 1.0)),
    st.tuples(st.just("gem"), st.sampled_from(RAILS + (None,))),
    st.tuples(st.just("ns"), st.sampled_from(RAILS), st.floats(0.5, 0.95)),
)


def apply_op(lib, state, op):
    """``op`` applied by ``lib``: the library (tlsphot) or the oracle."""
    kind, *args = op
    if kind == "bs":
        (r1, r2, _), theta, phi = args
        return lib.beamsplitter(state, r1, r2, theta, phi)
    if kind == "loss":
        return lib.loss_channel(state, *args)
    if kind == "tls":
        rail, beta = args
        return lib.apply_tls(state, rail, tp.TlsParams.from_beta(beta))
    if kind == "gate":
        # the sign-gate pattern: extract, act on the pair left behind,
        # convert back
        rail, efficiency, phase, mode = args
        gate = tp.PulseGateSpec(pump_mode=PUMP, efficiency=efficiency)
        mid = lib.sfg_extract(state, rail, gate, **GATE_MODES[mode])
        mid = lib.component_phase_loss(mid, rail, 2, phase, 0.8)
        return lib.sfg_reverse(mid, rail, gate)
    if kind == "phase":
        return lib.component_phase_loss(state, *args)
    if kind == "ns":
        rail, beta = args
        return lib.ns_gate(state, rail, tp.TlsParams.from_beta(beta), PUMP)
    return lib.gem_invert(state, args[0])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       ops=st.lists(op_strategy, min_size=1, max_size=6))
def test_random_circuits_match_dense(seed, ops):
    factored = random_factored_state(RAILS, seed)
    dense = oracle.DenseState.of(factored)
    for op in ops:
        try:
            factored = apply_op(tp, factored, op)
        except ValueError as exc:
            if "one-axis mirror" in str(exc):
                # a one-rail memory on a cross pair with c(x + y) terms:
                # the factored form cannot express it, and says so
                break
            # a second gate on a rail whose sum rail still holds content,
            # or ancilla content outside the pump mode: both refuse it
            with pytest.raises(ValueError):
                apply_op(oracle, dense, op)
            break
        dense = apply_op(oracle, dense, op)
        assert factored.rails == dense.rails
        # no pair survives that the oracle prunes as zero
        assert set(factored.two_photon) == set(dense.twos)
        assert max_deviation(factored, dense) < TOL
        assert abs(factored.total_probability() - 1.0) < TOL
        assert abs(dense.total_probability() - 1.0) < TOL
    for (a, b), values in factored.two_photon.items():
        assert isinstance(values, FactoredPair)
        if a == b:
            assert values.symmetric
        # a cached Gram entry is the float the formula computes
        warm = pairs.norm_sq(values, W)
        pairs._GRAM.clear()
        assert pairs.norm_sq(values, W) == warm


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rails=st.permutations(RAILS),
       theta=st.floats(-3.0, 3.0), phi=st.floats(-3.0, 3.0),
       one_rail=st.booleans())
def test_self_inverses(seed, rails, theta, phi, one_rail):
    state = random_factored_state(RAILS, seed)
    start = oracle.DenseState.of(state)
    memory = rails[0] if one_rail else None
    for back in (tp.gem_invert(tp.gem_invert(state, memory), memory),
                 tp.beamsplitter(tp.beamsplitter(state, rails[0], rails[1],
                                                 theta, phi),
                                 rails[0], rails[1], -theta, phi)):
        assert max_deviation(back, start) < TOL
        assert abs(back.total_probability() - 1.0) < TOL


# -- the FFT convolution -------------------------------------------------------


def smooth5(n):
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


def test_fast_len_is_least_5_smooth():
    for n in list(range(1, 2000)) + [4001, 8001, 24617, 160001, 320001]:
        got = pairs._fast_len(n)
        assert got >= n and smooth5(got), n
        assert not any(smooth5(m) for m in range(n, got)), n
    # the pair convolutions at n = 1201 and 4001, whose 11-smooth lengths
    # were 2401 = 7^4 and 8019 = 3^6 * 11
    assert pairs._fast_len(2401) == 2430
    assert pairs._fast_len(8001) == 8100


@pytest.mark.parametrize("with_c", [True, False])
def test_real_diagonal_gram_entry(with_c):
    # a1 is a2 and b1 is b2 take the real transform; equal copies take the
    # complex one
    rng = np.random.default_rng(24)
    a, b = rvec(rng), rvec(rng)
    c = rvec(rng, 2 * N - 1) if with_c else None
    real = pairs._gram_entry(a, b, c, a, b, c, W)
    full = pairs._gram_entry(a, b, c, a.copy(), b.copy(), c, W)
    assert abs(real - full) <= 1e-15 * abs(full)


@pytest.mark.parametrize("n", [41, 42])
def test_projection_matches_dense(n):
    # at n = 41 the cyclic length _fast_len(2n - 1) is 2n - 1 itself
    assert (pairs._fast_len(2 * n - 1) == 2 * n - 1) == (n == 41)
    rng = np.random.default_rng(n)
    u = rvec(rng, n)
    for same_rail in (False, True):
        pair = random_pair(rng, same_rail, n=n)
        want = u @ pair.dense()
        assert np.max(np.abs(u @ pair - want)) <= 1e-13 * np.max(
            np.abs(want))


def sequence(real):
    values = st.floats(-1e3, 1e3, allow_nan=False)
    if real:
        return st.lists(values, min_size=1, max_size=60).map(np.array)
    return st.lists(st.tuples(values, values), min_size=1, max_size=60).map(
        lambda z: np.array([complex(*c) for c in z]))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), real_x=st.booleans(), real_y=st.booleans())
def test_convolve_matches_numpy(data, real_x, real_y):
    x = data.draw(sequence(real_x))
    y = data.draw(sequence(real_y))
    got = pairs.convolve(x, y)
    want = np.convolve(x, y)
    assert got.shape == want.shape
    # real inputs give a real array, as fftconvolve does
    assert np.isrealobj(got) == (real_x and real_y)
    assert_convolve_close(got, want, x, y)


def assert_convolve_close(got, want, x, y):
    # the floor at the smallest normal float keeps the bound from
    # underflowing to 0 when the inputs' scale is subnormal
    scale = np.sum(np.abs(x)) * np.max(np.abs(y))
    bound = 1e-13 * max(scale, np.finfo(float).tiny)
    assert np.max(np.abs(got - want), initial=0.0) <= bound


def test_convolve_subnormal_scale():
    # a fresh example database need not find this one: FFT rounding leaves
    # 5e-324 where np.convolve gives 0, and 1e-13 * 5e-324 is 0
    x, y = np.array([0.0, 1.0]), np.array([0.0, 5e-324j])
    assert_convolve_close(pairs.convolve(x, y), np.convolve(x, y), x, y)


# -- ops that leave a pair as it is add no terms -------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_zero_angle_beamsplitter_adds_no_terms(seed):
    state = random_factored_state(RAILS, seed)
    phi = np.random.default_rng(seed).uniform(-3.0, 3.0)
    out = tp.beamsplitter(state, "a", "b", 0.0, phi)
    assert set(out.two_photon) == set(state.two_photon)
    for key, values in state.two_photon.items():
        assert len(out.two_photon[key].terms) == len(values.terms), key
    want = oracle.beamsplitter(oracle.DenseState.of(state), "a", "b", 0.0,
                               phi)
    assert max_deviation(out, want) < TOL


@pytest.mark.parametrize("rail", RAILS)
def test_zero_efficiency_gate_keeps_factor_arrays(rail):
    state = random_factored_state(RAILS, 4)
    gate = tp.PulseGateSpec(pump_mode=PUMP, efficiency=0.0)
    out = tp.sfg_extract(state, rail, gate)
    assert set(out.two_photon) == set(state.two_photon)
    for key, values in state.two_photon.items():
        got = out.two_photon[key].terms
        assert len(got) == len(values.terms), key
        for old, new in zip(values.terms, got):
            assert new[0] == old[0]
            assert all(x is y for x, y in zip(new[1:], old[1:])), key
    assert out.total_probability() == pytest.approx(
        state.total_probability(), abs=TOL)


# -- circuits against the oracle -------------------------------------------------


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


# The circuits run against the oracle on a coarser grid than the suite's
# circuit grid: the oracle's arrays are 5x smaller there, and comparing two
# implementations needs a resolved pulse, not converged physics.
ORACLE_GRID = tp.SpectralGrid(32.0, 541)


@pytest.fixture(params=["lossless", "lossy"], scope="module")
def operating_point(request, tls0, sigma_up0, tls95, sigma_up95):
    p, sigma = ((tls0, sigma_up0) if request.param == "lossless"
                else (tls95, sigma_up95))
    return p, tp.make_pulse(tp.PulseShape("lorentzian", sigma), ORACLE_GRID)


class TestCircuitsMatchDense:
    def test_bell_analyzer(self, operating_point):
        p, pulse = operating_point
        for state in bell_inputs(ORACLE_GRID, pulse):
            got = tp.bell_analyzer(state, p, pulse)
            want = oracle.bell_analyzer(oracle.DenseState.of(state), p, pulse)
            assert_reports_agree(got, want)

    def test_cz_gate(self, operating_point):
        p, pulse = operating_point
        for state in cz_inputs(ORACLE_GRID, pulse):
            got = tp.cz_gate(state, p, pulse)
            want = oracle.cz_gate(oracle.DenseState.of(state), p, pulse)
            assert_reports_agree(got, want)
            assert abs(got.fidelity_to_target - want.fidelity_to_target) < TOL
            for b in LOGICAL_BASIS:
                assert abs(got.logical_amplitudes[b]
                           - want.logical_amplitudes[b]) < TOL

    def test_ns_gate(self, operating_point):
        p, pulse = operating_point
        state = FewPhotonState.from_components(
            ORACLE_GRID, ("sig",), 0.5, ones={"sig": 0.5 * pulse.values},
            pairs={("sig", "sig"): 0.7 * FactoredPair.product(pulse.values)})
        got = tp.ns_gate(state, "sig", p, pulse)
        want = oracle.ns_gate(oracle.DenseState.of(state), "sig", p, pulse)
        assert set(got.two_photon) == set(want.twos)
        assert max_deviation(got, want) < TOL


# Largest term count of any pair in the output, as measured on the
# (60, 1201) grid when the factored form was introduced.  Merging keeps these
# small; a failure here means terms stopped merging and the circuits slow
# down.
MAX_TERMS = {("bell", "lossless"): 2, ("bell", "lossy"): 3,
             ("cz", "lossless"): 3, ("cz", "lossy"): 4,
             ("ns", "lossless"): 3, ("ns", "lossy"): 4}
MEASURED_GRID = tp.SpectralGrid(60.0, 1201)


def max_terms(state):
    return max(len(v.terms) for v in state.two_photon.values())


@pytest.mark.parametrize("on_policy, loss", [
    pytest.param(False, "lossless", id="lossless"),
    pytest.param(False, "lossy", id="lossy"),
    pytest.param(True, "lossless", id="policy-lossless"),
    pytest.param(True, "lossy", id="policy-lossy"),
])
def test_term_counts_stay_bounded(circuit_grid, tls0, sigma_up0, tls95,
                                  sigma_up95, on_policy, loss):
    grid = circuit_grid if on_policy else MEASURED_GRID
    p, sigma = (tls0, sigma_up0) if loss == "lossless" else (tls95,
                                                             sigma_up95)
    pulse = tp.make_pulse(tp.PulseShape("lorentzian", sigma), grid)
    for state in bell_inputs(grid, pulse):
        out = tp.bell_analyzer(state, p, pulse).output_state
        assert max_terms(out) <= MAX_TERMS[("bell", loss)]
    for state in cz_inputs(grid, pulse):
        out = tp.cz_gate(state, p, pulse).output_state
        assert max_terms(out) <= MAX_TERMS[("cz", loss)]
    state = FewPhotonState.from_components(
        grid, ("sig",), 0.5, ones={"sig": 0.5 * pulse.values},
        pairs={("sig", "sig"): 0.7 * FactoredPair.product(pulse.values)})
    out = tp.ns_gate(state, "sig", p, pulse)
    assert max_terms(out) <= MAX_TERMS[("ns", loss)]
    assert isinstance(out.pair("sig", "sig"), FactoredPair)
