"""Photon-pair amplitudes as short sums of factored terms.

A pair amplitude A[i, j], axis 0 on the first photon, is a
:class:`FactoredPair`: a short sum of terms (coef, a, b, c) meaning
A[i, j] = sum coef a_i b_j c_{i+j}, with ``a`` and ``b`` on the grid, ``c``
on the 2N - 1 index sums i + j, and ``c = None`` standing for 1.

The product input f x f is one term (the Schmidt form of a biphoton, Law,
Walmsley & Eberly, PRL 84, 5304 (2000)), and an emitter pass adds one bound
term s(x) s(y) I(x + y) (Shen & Fan, PRL 98, 153003 (2007)); linear optics,
the pulse gate and the memory keep the form.  Norms, overlaps and
projections are 1-D dot products and convolutions (:func:`convolve`, on
``numpy.fft``).  A Gram entry of two terms that share their ``a`` and
their ``b`` convolves the real w |a|^2 and w |b|^2 by the real transform;
a projection of a term with ``c`` is one cyclic convolution at
``_fast_len(2N - 1)`` points, the least at which no kept entry wraps.  An
op the form cannot express (a one-axis flip of a term with ``c``) raises.

Terms of a pair merge when their factors are the same arrays, not merely
equal ones: derived factors are shared by construction (:func:`shared`), so
identity finds every merge the ops make.

Factor arrays are never written to, so work derived from them is done once
per set of input arrays, by one rule (:func:`_held`): an entry is keyed on
the identities of its inputs, holds them through weak references only and
dies with the first of them.  The inputs are made read-only, so a write
that would leave an entry stale raises.  No result depends on an entry.

- :data:`_SHARED` (:func:`shared`) holds derived factor arrays, read-only:
  an emitter's t on a grid's samples (so it lives as long as the grid) and
  s, the products t x and s x, the projector w conj(f), the normalized
  lossy pump, the bound-term convolution J of each term of a scattered
  pair (keyed on its a and b and on s), that of :func:`project_term` (on
  u, a and c), that of a Gram entry (on its a and b factors and the
  weights, not on c) and the memory's reversal of a factor (:func:`flip`).
  Calls at one operating point, such as the Bell analyzer's four sorters
  or the CZ gate's two sign gates, so get the same arrays and hit every
  later cache, on either side of the memory; a pair scattered again takes
  no transform, whatever its number of terms.
- :data:`_GRAM` holds each term pair's Gram entry, keyed on its six factors
  and the weights.

A pair keeps its norm on the weights array it was last normed on
(:func:`norm_sq`); it cannot go stale, as the terms never change and the
factors and weights are read-only from the first Gram lookup on.  A pair
flipped on both axes keeps the pair it reverses, and on weights that read
the same reversed its norm is that pair's: reversing both axes reorders
the sum's products without changing one.

A dense N x N array enters through one door, :func:`from_dense`, which
takes only a same-rail array that is one exchange-symmetric product term
k a(x) a(y), ``c = None``; a cross-rail pair, or an amplitude of several
terms, is built as a :class:`FactoredPair` of its terms.
No other code here builds or reads an N x N array, apart from
:meth:`FactoredPair.dense` for callers that ask for one.
"""

from __future__ import annotations

import weakref
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# A Gram sum of terms that cancel keeps a rounding residue of about eps times
# the squared sum of the term norms; a norm below this multiple of that scale
# is zero to working precision.
_CANCEL_EPS = 64 * np.finfo(float).eps

# rows per tile of the dense norm kernel: 64 rows of n = 4001 are 4 MB
_NORM_TILE = 64
# tile edge of the blocked symmetry check.  The whole N x N difference would
# take 256 MB at n = 4001; 64 x 64 tiles (64 KB temporaries) are as fast as
# larger ones and, unlike 512-wide tiles (5 MB more), leave peak RSS as is.
_SYMMETRY_TILE = 64
# the weight the door's one term may leave out, relative to the array's own:
# the symmetry check's tolerance, squared
_DOOR_RTOL = 1e-10


@lru_cache(maxsize=256)
def _fast_len(n: int) -> int:
    """The least 5-smooth integer >= n, one with no prime factor above 5:
    numpy's FFTs split such a length into radix-2, 3 and 5 passes, and run
    slower at lengths with a factor 7 or 11."""
    best = 1 << (n - 1).bit_length()  # the least power of two >= n
    p5 = 1
    while p5 < best:
        p3 = p5
        while p3 < best:
            # the least p3 * 2^k >= n
            best = min(best, p3 << ((n - 1) // p3).bit_length())
            p3 *= 3
        p5 *= 5
    return best


def convolve(x, y) -> np.ndarray:
    """Linear convolution of two 1-D arrays, length len(x) + len(y) - 1, by
    FFT at :func:`_fast_len`."""
    n = len(x) + len(y) - 1
    return _cyclic(x, y, _fast_len(n))[:n]


def _cyclic(x, y, size) -> np.ndarray:
    """Cyclic convolution of x and y, each zero-padded to ``size``.  Two
    real inputs take the real transform and give a real array; ``y is x``
    takes one forward transform."""
    real = np.isrealobj(x) and np.isrealobj(y)
    fft, ifft = (np.fft.rfft, np.fft.irfft) if real else (np.fft.fft,
                                                          np.fft.ifft)
    x_hat = fft(x, size)
    return ifft(x_hat * (x_hat if y is x else fft(y, size)), size)


def _lin(k1, x1, k2, x2):
    """k1 x1 + k2 x2 for factors, as one new array."""
    out = k1 * x1
    out += k2 * x2
    return out


def _merge(t1, t2, symmetric, partial):
    """One term equal to the sum of terms t1 and t2, or None.  Terms with
    the same three factor arrays add their coefficients; with ``partial``
    set, terms sharing two factor arrays combine the third (c only when both
    set it).  Factors match by identity: derived factors are shared by
    construction (:func:`shared`), so equal values in distinct arrays stay
    separate terms.  In a symmetric pair a term also matches its exchanged
    form."""
    k1, a1, b1, c1 = t1
    k2, a2, b2, c2 = t2
    same_c = c1 is c2
    for a, b in ((a2, b2), (b2, a2)) if symmetric else ((a2, b2),):
        same_a, same_b = a1 is a, b1 is b
        if same_a and same_b and same_c:
            return (k1 + k2, a1, b1, c1)
        if not partial:
            continue
        if same_a and same_b and c1 is not None and c2 is not None:
            return (1.0, a1, b1, _lin(k1, c1, k2, c2))
        if same_a and same_c:
            return (1.0, a1, _lin(k1, b1, k2, b), c1)
        if same_b and same_c:
            return (1.0, _lin(k1, a1, k2, a), b1, c1)
    return None


def _merges(out, term, symmetric):
    """(index, merged term) for each term of ``out`` that ``term`` merges
    into, identical-factor matches first."""
    for partial in (False, True):
        for i, old in enumerate(out):
            new = _merge(old, term, symmetric, partial)
            if new is not None:
                yield i, new


def _merged(terms, symmetric):
    """``terms`` with each term merged into the first earlier one it
    shares factors with."""
    out = []
    for term in terms:
        for i, new in _merges(out, term, symmetric):
            out[i] = new
            break
        else:
            out.append(term)
    return out


class FactoredPair:
    """Pair amplitude sum coef a(x) b(y) c(x + y) over a few terms.

    With ``symmetric`` set, each term stands for its exchange-symmetrized
    form (a(x) b(y) + b(x) a(y)) c(x + y) / 2, so a same-rail pair is
    exchange symmetric by construction.  The flag is declared by whoever
    builds the pair, never inferred from the terms.  Terms sharing two of
    their three factors are merged, which keeps the term count bounded;
    factors are shared when they are the same arrays, and equal values in
    distinct arrays stay separate terms.  Factors are numpy arrays, shared
    between pairs and never written to, so norms and overlaps cache each
    term pair's Gram entry on the identities of its factors, through weak
    references.
    """

    __array_ufunc__ = None  # numpy operators defer to the methods below
    ndim = 2
    # the pair a full flip reversed (:func:`flip`), whose norm this one has
    reverses = None
    # (w, norm) once :func:`norm_sq` has normed the pair on weights w
    _norm = None

    def __init__(self, terms, symmetric=False):
        self.terms = tuple(_merged(terms, symmetric))
        self.symmetric = symmetric

    @classmethod
    def _raw(cls, terms, symmetric):
        """Pair from terms known to need no merging."""
        pair = cls.__new__(cls)
        pair.terms = tuple(terms)
        pair.symmetric = symmetric
        return pair

    @classmethod
    def product(cls, f) -> "FactoredPair":
        """Two photons in mode values ``f``: f(x) f(y)."""
        return cls._raw(((1.0, f, f, None),), True)

    @property
    def n(self) -> int:
        return len(self.terms[0][1])

    @property
    def nbytes(self) -> int:
        arrays = {id(x): x.nbytes for term in self.terms for x in term[1:]
                  if x is not None}
        return sum(arrays.values())

    def expanded(self):
        """Terms with the symmetrized ones written out as two halves."""
        if not self.symmetric:
            return self.terms
        out = []
        for k, a, b, c in self.terms:
            if a is b:
                out.append((k, a, b, c))
            else:
                out += [(0.5 * k, a, b, c), (0.5 * k, b, a, c)]
        return tuple(out)

    def map_factors(self, fn_a, fn_b=None, fn_c=None) -> "FactoredPair":
        """Pair with each term's factors replaced by fn(factor), each fn a
        :func:`shared` derivation or the identity, so a diagonal term stays
        diagonal; ``fn_b`` defaults to ``fn_a``, ``fn_c`` (and a c of None)
        to identity.  Different functions on a and b break exchange
        symmetry, so the terms are then written out."""
        fn_b, fn_c = fn_b or fn_a, fn_c or _keep
        sym = self.symmetric and fn_b is fn_a
        terms = self.terms if sym else self.expanded()
        return FactoredPair._raw([(k, fn_a(a), fn_b(b),
                                   None if c is None else fn_c(c))
                                  for k, a, b, c in terms], sym)

    @property
    def T(self) -> "FactoredPair":
        if self.symmetric:
            return self
        return FactoredPair._raw([(k, b, a, c) for k, a, b, c in self.terms],
                                 False)

    def dense(self) -> np.ndarray:
        """The N x N array; exactly symmetric when the pair is symmetric."""
        n = self.n
        out = np.zeros((n, n), dtype=complex)
        for k, a, b, c in self.terms:
            term = np.multiply.outer(a, b)
            if c is not None:
                term *= sliding_window_view(c, n)
            term *= k
            out += term
        if self.symmetric and any(a is not b for _, a, b, _ in self.terms):
            out = out + out.T
            out *= 0.5
        return out

    def __array__(self, dtype=None, copy=None):
        out = self.dense()
        return out if dtype is None else out.astype(dtype)

    def __mul__(self, k):
        if np.ndim(k) != 0:
            return NotImplemented
        out = FactoredPair._raw([(k * k0, a, b, c)
                                 for k0, a, b, c in self.terms],
                                self.symmetric)
        if self._norm is not None:  # |k|^2 times the source's, NaN if inf
            norm = float(abs(k) ** 2 * self._norm[1])
            out._norm = (self._norm[0], norm if norm < np.inf else np.nan)
        return out

    __rmul__ = __mul__

    def __add__(self, other):
        if not isinstance(other, FactoredPair):
            return NotImplemented
        if self.symmetric and other.symmetric:
            return FactoredPair(self.terms + other.terms, True)
        return FactoredPair(self.expanded() + other.expanded())

    def __rmatmul__(self, u):
        """u @ A: the axis-0 contraction, one correlation per term."""
        out = np.zeros(self.n, dtype=complex)
        for term in self.expanded():
            out += project_term(u, term)
        return out


def project_term(u, term) -> np.ndarray:
    """u @ (coef a(x) b(y) c(x+y)) = coef b(y) sum_x u(x) a(x) c(x + y)."""
    k, a, b, c = term
    if c is None:
        return (k * (u @ a)) * b
    # sum_i u_i a_i c_{i+j} is entry n - 1 + j of c convolved with (u a)
    # reversed; a cyclic convolution at 2n - 1 points or more wraps none of
    # the 3n - 2 linear entries onto the n kept
    n = len(b)
    kept = shared("project", (u, a, c), lambda: _cyclic(
        c, (u * a)[::-1], _fast_len(len(c)))[n - 1:2 * n - 1])
    return k * b * kept


def _held(cache, arrays, make, tag=None):
    """``cache``'s value for ``tag`` and the identities of ``arrays`` (or
    None), made by ``make()`` on a miss.  An entry holds its arrays through
    weak references only; the first of them to die drops the entry, before
    its id can be reused.  The arrays are made read-only, so that an entry
    stays valid for as long as they live."""
    key = (tag, *map(id, arrays))
    entry = cache.get(key)
    if entry is None:
        def drop(_):
            cache.pop(key, None)
        live = [x for x in arrays if x is not None]
        for x in live:
            x.flags.writeable = False
        entry = cache[key] = (make(), [weakref.ref(x, drop) for x in live])
    return entry[0]


def shared(tag, arrays, make) -> np.ndarray:
    """The array ``make()`` derives from ``arrays`` as ``tag`` names, made
    once while they live and shared read-only (:data:`_SHARED`).  It must
    not be one of ``arrays`` or a view of one: the entry would never die."""
    out = _held(_SHARED, arrays, make, tag)
    out.flags.writeable = False
    return out


def times(t, x) -> np.ndarray:
    """t x, pointwise, one shared array per pair of inputs."""
    return shared("*", (t, x), lambda: t * x)


def projector(w, f) -> np.ndarray:
    """u = w conj(f), shared: ``u @ v`` is the overlap <f|v> on weights w."""
    return shared("u", (w, f), lambda: w * np.conj(f))


# arrays derived from factor arrays (shared), keyed on a tag naming the
# derivation and the identities of its inputs
_SHARED = {}
# Gram entries (_term_inner), keyed on the seven arrays (or None) of each
_GRAM = {}


def _term_inner(t1, t2, w) -> complex:
    """<t1|t2> of two terms without their coefficients, computed once per
    set of factor arrays and weights (:data:`_GRAM`)."""
    arrays = (*t1[1:], *t2[1:], w)
    return _held(_GRAM, arrays, lambda: _gram_entry(*arrays))


def _gram_entry(a1, b1, c1, a2, b2, c2, w) -> complex:
    """sum_q conj(c1) c2 conv(w conj(a1) a2, w conj(b1) b2) at q = i + j.
    The convolution does not depend on c1 and c2, and entries that differ
    only there share it (:func:`shared`)."""
    def factors():
        if a1 is a2 and b1 is b2:
            # w |a1|^2 and w |b1|^2 are real: the real transform serves them
            x = w * (a1.real**2 + a1.imag**2)
            return x, x if a1 is b1 else w * (b1.real**2 + b1.imag**2)
        x = w * np.conj(a1) * a2
        return x, x if a1 is b1 and a2 is b2 else w * np.conj(b1) * b2

    if c1 is None and c2 is None:
        x, y = factors()
        return np.sum(x) * np.sum(y)
    cc = c2 if c1 is None else (np.conj(c1) if c2 is None
                                else np.conj(c1) * c2)
    return np.sum(cc * shared("gram", (a1, b1, a2, b2, w),
                              lambda: convolve(*factors())))


def norm_sq(values: FactoredPair, w) -> float:
    """Squared norm sum_ij w_i w_j |A_ij|^2 of a pair.

    Terms that cancel leave a Gram-sum residue near eps (sum |k| ||term||)^2;
    a total below a small multiple of that is returned as 0, and a total
    that is not finite (a NaN factor, an inf coefficient) as NaN.  On weights
    that read the same reversed, a full flip has its source's norm.  The
    pair keeps its norm, for the last weights array it was normed on."""
    if values._norm is not None and values._norm[0] is w:
        return values._norm[1]
    if values.reverses is not None and np.array_equal(w, w[::-1]):
        norm = norm_sq(values.reverses, w)
    else:
        terms = values.expanded()
        total = scale = 0.0
        for i, t1 in enumerate(terms):
            diag = abs(t1[0]) ** 2 * _term_inner(t1, t1, w).real
            total += diag
            scale += np.sqrt(max(diag, 0.0))
            for t2 in terms[i + 1:]:
                total += 2.0 * (np.conj(t1[0]) * t2[0]
                                * _term_inner(t1, t2, w)).real
        norm = (float("nan") if not np.isfinite(total) else
                float(total) if total > _CANCEL_EPS * scale**2 else 0.0)
    values._norm = (w, norm)
    return norm


def inner(x: FactoredPair, y: FactoredPair, w) -> complex:
    """<x|y> = sum_ij w_i w_j conj(x_ij) y_ij."""
    return complex(sum(np.conj(t1[0]) * t2[0] * _term_inner(t1, t2, w)
                       for t1 in x.expanded() for t2 in y.expanded()))


def symmetrized(x):
    """(x + x^T) / 2 of a pair; a scalar mode coefficient is its own."""
    return x if np.ndim(x) == 0 else FactoredPair._raw(x.terms, True)


def scale_axis(values: FactoredPair, t, axis) -> FactoredPair:
    """Pair with axis ``axis`` multiplied pointwise by ``t``."""
    fns = [_keep, _keep]
    fns[axis] = lambda x: times(t, x)
    return values.map_factors(*fns)


def _keep(x):
    return x


def _reversed(x):
    """x reversed, one shared read-only copy per array (:func:`shared`)."""
    return shared("rev", (x,), lambda: x[::-1].copy())


def flip(values: FactoredPair, flips) -> FactoredPair:
    """``values`` with the axes flagged in ``flips`` reversed, its factors
    the shared reversed copies (:func:`_reversed`) of the input's.

    Reversing both axes reverses c(x + y) too, and the output keeps
    ``values`` as the pair it reverses; a one-axis flip of a term with c has
    no factored form and raises."""
    if not all(flips) and any(c is not None for *_, c in values.terms):
        raise ValueError("gem_invert of one photon of a pair: a term "
                         "c(x + y) has no one-axis mirror in factored form")
    out = values.map_factors(*(_reversed if f else _keep for f in flips),
                             fn_c=_reversed)
    if all(flips):
        out.reverses = values
    return out


# -- the door for dense input --------------------------------------------------


def require_symmetric(values: np.ndarray, tol: float = 1e-10) -> float:
    """Raise if a two-photon array is not (numerically) exchange symmetric,
    max |A - A^T| > tol * max |A|, or holds NaN or inf; else return max |A|.

    Upper-triangle tiles are compared with the transposed lower tiles, so no
    N x N temporary is allocated.
    """
    n = values.shape[0]
    if values.shape != (n, n):
        raise ValueError(
            f"two-photon amplitude must be square, got shape {values.shape}")
    t = _SYMMETRY_TILE
    scale = dev = 0.0
    # np.maximum, unlike max(), carries a NaN through; inf - inf is a NaN
    with np.errstate(invalid="ignore"):
        for i in range(0, n, t):
            for j in range(i, n, t):
                upper = values[i:i + t, j:j + t]
                lower = values[j:j + t, i:i + t]
                scale = np.maximum(scale, np.max(np.abs(upper)))
                if j != i:
                    scale = np.maximum(scale, np.max(np.abs(lower)))
                dev = np.maximum(dev, np.max(np.abs(upper - lower.T)))
    if not (np.isfinite(scale) and np.isfinite(dev)):
        raise ValueError("two-photon amplitude holds non-finite values")
    if dev > tol * scale:
        raise ValueError(
            f"two-photon amplitude is not symmetric: max deviation {dev:.3e} "
            f"against scale {scale:.3e}"
        )
    return scale


def _dense_norm_sq(values, w, scale, term=None) -> float:
    """sum_ij w_i w_j |A - k a(x) a(y)|_ij^2 / scale^2 (``term`` = (k, a),
    None for A itself) over 64-row tiles, each divided by ``scale`` before
    it is squared: its float view times the doubled weights, in one reused
    64 x N buffer, so no N x N temporary and no matrix product."""
    if not values.flags.c_contiguous and values.flags.f_contiguous:
        values = values.T  # same weights on both axes, and a symmetric term
    w2 = np.repeat(w, 2)
    buf = np.empty((_NORM_TILE, values.shape[1]), dtype=complex)
    total = 0.0
    for i in range(0, values.shape[0], _NORM_TILE):
        rows = buf[:len(values[i:i + _NORM_TILE])]
        if term is None:
            rows[...] = values[i:i + _NORM_TILE]
        else:
            k, a = term
            np.multiply.outer(k * a[i:i + _NORM_TILE], a, out=rows)
            np.subtract(values[i:i + _NORM_TILE], rows, out=rows)
        rows /= scale
        square = rows.view(float)
        np.multiply(square, square, out=square)
        square *= w2
        total += np.sum(w[i:i + _NORM_TILE] * np.sum(square, axis=1))
    return float(total)


def from_dense(values) -> FactoredPair:
    """The door for dense input: an N x N same-rail array that is one
    exchange-symmetric product term k a(x) a(y), as a one-term pair.

    The array must pass :func:`require_symmetric` (square, finite and
    exchange symmetric).  Its largest-modulus diagonal entry A[j, j] gives
    the term (A[j, j], A[:, j] / A[j, j], same), one new column in both
    slots, so the pair does not keep the N x N array alive.  The term must
    leave out at most (1e-10)^2 of the array's weight, both on tiles scaled
    to unit largest modulus, and the pair's norm must fit a float.  So
    np.outer(f, f) is one diagonal term, exact to rounding, and a zero array
    one zero term.  A cross-rail pair, or an amplitude of several Schmidt
    terms, is a :class:`FactoredPair` of its terms (README: the SVD recipe).

    Raises
    ------
    ValueError
        If the array is not square, finite, symmetric or one product term,
        or its norm overflows or underflows a float.
    """
    values = np.asarray(values)
    scale = require_symmetric(values)
    w = np.ones(values.shape[0])
    j = int(np.argmax(np.abs(np.diagonal(values))))
    top = values[j, j]
    a = np.asarray(values[:, j] / top if top else 0 * w, dtype=complex)
    pair = FactoredPair._raw([(top, a, a, None)], True)
    if not scale:
        return pair
    # an array far from one term may overflow k a(x) a(y) to inf or NaN; the
    # strict < refuses a (positive) weight that underflows to 0 or overflows
    with np.errstate(over="ignore", invalid="ignore"):
        missed = _dense_norm_sq(values, w, scale, (top, a))
        want = scale**2 * (abs(top / scale) * np.vdot(a, a).real)**2
        got = norm_sq(pair, w)
    if not missed <= _DOOR_RTOL**2 * _dense_norm_sq(values, w, scale):
        raise ValueError(
            "dense pair amplitude is not one product term k a(x) a(y); "
            "pass a FactoredPair of its Schmidt terms (README: the "
            "np.linalg.svd recipe)")
    if not abs(got - want) < 1e-12 * want:
        raise ValueError(
            "dense pair amplitude's norm overflows or underflows a float "
            f"(largest modulus {scale:.3e}); rescale the array")
    return pair
