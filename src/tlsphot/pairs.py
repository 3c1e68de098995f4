"""Photon-pair amplitudes in two forms: dense N x N arrays and factored terms.

A pair amplitude A[i, j], axis 0 on the first photon, is either

- a dense complex ``ndarray`` of shape (N, N), or
- a :class:`FactoredPair`: a short sum of terms (coef, a, b, c) meaning
  A[i, j] = sum coef a_i b_j c_{i+j}, with ``a`` and ``b`` on the grid, ``c``
  on the 2N - 1 index sums i + j, and ``c = None`` standing for 1.

The product input f x f is one term, and an emitter pass adds one bound term
s(x) s(y) I(x + y) (Shen & Fan, PRL 98, 153003 (2007)); linear optics, the
pulse gate and the memory keep the form.  Norms, overlaps and projections of
factored pairs are 1-D dot products and convolutions instead of N x N
passes.  Every operation keeps the form of its input; what the factored form
cannot express exactly (a single-axis flip of a term with ``c``, a sum with a
dense operand) becomes one dense array.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import fftconvolve

# rows per tile of the dense norm kernel: 64 rows of n = 4001 are 4 MB
_NORM_TILE = 64


def _same(x, y) -> bool:
    """Whether two factors (arrays or None) hold the same values."""
    return x is y or (x is not None and y is not None
                      and np.array_equal(x, y))


def _lin(k1, x1, k2, x2):
    """k1 x1 + k2 x2 for factors, as one new array."""
    out = k1 * x1
    out += k2 * x2
    return out


def _merge(t1, t2, symmetric, partial):
    """One term equal to the sum of terms t1 and t2, or None.  Terms with
    the same three factors add their coefficients; with ``partial`` set,
    terms sharing two factors combine the third (c only when both set it).
    In a symmetric pair a term also matches its exchanged form."""
    k1, a1, b1, c1 = t1
    k2, a2, b2, c2 = t2
    same_c = _same(c1, c2)
    for a, b in ((a2, b2), (b2, a2)) if symmetric else ((a2, b2),):
        same_a, same_b = _same(a1, a), _same(b1, b)
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


def _fold_mirrors(terms):
    """The symmetric form of ``terms`` if they are closed under exchange
    (every off-diagonal term (k, a, b, c) is matched by (k, b, a, c)), else
    None.  The matched pair folds into one symmetrized term of weight 2k."""
    left = list(terms)
    out = []
    while left:
        k, a, b, c = left.pop(0)
        if _same(a, b):
            out.append((k, a, a, c))
            continue
        for i, (k2, a2, b2, c2) in enumerate(left):
            if k2 == k and _same(a2, b) and _same(b2, a) and _same(c2, c):
                del left[i]
                out.append((2 * k, a, b, c))
                break
        else:
            return None
    return out


def _memo(fn):
    """fn applied once per factor array, so factors that were one array
    stay one array (a diagonal term stays diagonal); None passes."""
    seen = {}

    def call(x):
        if x is None:
            return None
        if id(x) not in seen:
            seen[id(x)] = (x, fn(x))  # holds x so its id stays unique
        return seen[id(x)][1]

    return call


class FactoredPair:
    """Pair amplitude sum coef a(x) b(y) c(x + y) over a few terms.

    With ``symmetric`` set, each term stands for its exchange-symmetrized
    form (a(x) b(y) + b(x) a(y)) c(x + y) / 2, so a same-rail pair is
    exchange symmetric by construction; a term list closed under exchange
    is folded into that form when the pair is built.  Terms sharing two of
    their three factors are merged, which keeps the term count bounded.
    Factor arrays are shared between pairs and never written to.
    """

    __array_ufunc__ = None  # numpy operators defer to the methods below
    ndim = 2

    def __init__(self, terms, symmetric=False):
        terms = list(terms)
        if not symmetric:
            folded = _fold_mirrors(terms)
            symmetric = folded is not None
            terms = folded if symmetric else terms
        self.terms = tuple(_merged(terms, symmetric))
        self.symmetric = symmetric

    @classmethod
    def _raw(cls, terms, symmetric):
        """Pair from terms known to need no folding or merging."""
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
        """Pair with each term's factors replaced by fn(factor), one memo
        per function; ``fn_b`` defaults to ``fn_a``, ``fn_c`` to identity.
        Different functions on a and b break exchange symmetry, so the
        terms are then written out."""
        fa = _memo(fn_a)
        fb = fa if fn_b is None else _memo(fn_b)
        fc = _keep if fn_c is None else _memo(fn_c)
        sym = self.symmetric and fn_b is None
        terms = self.terms if sym else self.expanded()
        return FactoredPair._raw([(k, fa(a), fb(b), fc(c))
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
        return FactoredPair._raw([(k * k0, a, b, c)
                                  for k0, a, b, c in self.terms],
                                 self.symmetric)

    __rmul__ = __mul__

    def __add__(self, other):
        if isinstance(other, np.ndarray):
            return self.dense() + other  # a dense operand absorbs the terms
        if not isinstance(other, FactoredPair):
            return NotImplemented
        if self.symmetric and other.symmetric:
            return FactoredPair(self.terms + other.terms, True)
        return FactoredPair(self.expanded() + other.expanded())

    __radd__ = __add__

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
    # sum_i u_i a_i c_{i+j} is the valid part of c convolved with (u a)
    # reversed
    return k * b * fftconvolve(c, (u * a)[::-1], mode="valid")


def _term_inner(t1, t2, w) -> complex:
    """<t1|t2> of two terms without their coefficients:
    sum_q conj(c1) c2 conv(w conj(a1) a2, w conj(b1) b2) at q = i + j."""
    _, a1, b1, c1 = t1
    _, a2, b2, c2 = t2
    x = w * np.conj(a1) * a2
    y = w * np.conj(b1) * b2
    if c1 is None and c2 is None:
        return np.sum(x) * np.sum(y)
    cc = c2 if c1 is None else (np.conj(c1) if c2 is None
                                else np.conj(c1) * c2)
    return np.sum(cc * fftconvolve(x, y))


def _dense_norm_sq(values, w) -> float:
    """sum_ij w_i w_j |A_ij|^2 over 64-row tiles: each tile's squared
    float view times the doubled weights, so no N x N temporary."""
    if not values.flags.c_contiguous and values.flags.f_contiguous:
        values = values.T  # same weights on both axes
    w2 = np.repeat(w, 2)
    total = 0.0
    for i in range(0, values.shape[0], _NORM_TILE):
        rows = np.ascontiguousarray(values[i:i + _NORM_TILE], dtype=complex)
        total += w[i:i + _NORM_TILE] @ (np.square(rows.view(float)) @ w2)
    return float(total)


def norm_sq(values, w) -> float:
    """Squared norm sum_ij w_i w_j |A_ij|^2 of a pair in either form."""
    if not isinstance(values, FactoredPair):
        return _dense_norm_sq(values, w)
    terms = values.expanded()
    total = 0.0
    for i, t1 in enumerate(terms):
        total += abs(t1[0]) ** 2 * _term_inner(t1, t1, w).real
        for t2 in terms[i + 1:]:
            total += 2.0 * (np.conj(t1[0]) * t2[0]
                            * _term_inner(t1, t2, w)).real
    # cancelling terms can leave a rounding-sized negative sum
    return max(float(total), 0.0)


def inner(x, y, w) -> complex:
    """<x|y> = sum_ij w_i w_j conj(x_ij) y_ij; dense unless both are
    factored."""
    if isinstance(x, FactoredPair) and isinstance(y, FactoredPair):
        return complex(sum(np.conj(t1[0]) * t2[0] * _term_inner(t1, t2, w)
                           for t1 in x.expanded() for t2 in y.expanded()))
    x, y = np.asarray(x), np.asarray(y)
    return complex(w @ (np.conj(x) * y) @ w)


def symmetrized(x):
    """(x + x^T) / 2 of a pair, or x itself for a scalar mode coefficient."""
    if isinstance(x, FactoredPair):
        return FactoredPair._raw(x.terms, True)
    xs = x + x.T
    xs *= 0.5
    return xs


def scale_axis(values, t, axis):
    """Pair with axis ``axis`` multiplied pointwise by ``t``."""
    if isinstance(values, FactoredPair):
        fns = [_keep, _keep]
        fns[axis] = lambda x: t * x
        return values.map_factors(*fns)
    return t[:, None] * values if axis == 0 else values * t[None, :]


def _keep(x):
    return x


def _reversed(x):
    return x[::-1].copy()


def flip(values, flips):
    """A copy of ``values`` with the axes flagged in ``flips`` reversed."""
    if isinstance(values, FactoredPair):
        if all(flips):
            return values.map_factors(_reversed, fn_c=_reversed)
        if any(c is not None for _, _, _, c in values.terms):
            values = values.dense()  # c(x + y) has no one-axis mirror
        else:
            return values.map_factors(*(_reversed if f else _keep
                                        for f in flips))
    return values[tuple(slice(None, None, -1 if f else 1)
                        for f in flips)].copy()


def is_finite(values) -> bool:
    """Whether every value (every coefficient and factor) is finite."""
    if isinstance(values, FactoredPair):
        return all(np.isfinite(k) and all(np.isfinite(x).all()
                                          for x in (a, b, c) if x is not None)
                   for k, a, b, c in values.terms)
    return bool(np.isfinite(values).all())
