"""Scalar root-finding and extremum search used by the parameter sweeps.

Both searches are Brent's (R. P. Brent, *Algorithms for Minimization without
Derivatives*, 1973): a bracketed root by inverse quadratic interpolation and
secant steps, and a bracketed extremum by successive parabolic
interpolation, each falling back on bisection or golden-section steps when
interpolation stalls, so they keep the bracketing methods' guarantees.
"""

from __future__ import annotations

import math
import sys

_EPS = sys.float_info.epsilon
_SQRT_EPS = math.sqrt(_EPS)
_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0


class NoCrossingError(ValueError):
    """The bracketed function does not change sign.

    ``branch`` names the crossing ("lower" or "upper") when
    :func:`tlsphot.scatter.matching_sigma` raised it, and is None otherwise.
    """

    branch = None


def bisect(fn, lo: float, hi: float, xtol: float = 1e-12,
           max_iter: int = 200) -> float:
    """Root of fn on [lo, hi]; requires a sign change.

    Brent's method: the returned x lies within xtol + 4 eps |x| of a root,
    or is an endpoint where fn is exactly 0.
    """
    a, b = lo, hi
    fa, fb = fn(a), fn(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise NoCrossingError(
            f"no sign change on [{lo:.6g}, {hi:.6g}]: "
            f"f(lo)={fa:.6g}, f(hi)={fb:.6g}"
        )
    # b is the best estimate, [b, c] brackets the root, a is the previous b
    c, fc = a, fa
    d = e = b - a
    for _ in range(max_iter):
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * _EPS * abs(b) + 0.5 * xtol
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            # interpolate only if the step stays inside the bracket and
            # shrinks faster than the step before last
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = fn(b)
    return b


def golden_max(fn, lo: float, hi: float, xtol: float = 1e-10,
               above: float = math.inf):
    """Maximum of a unimodal fn on [lo, hi]; returns (x, fn(x)).

    Brent's method: x lies within xtol + 2 sqrt(eps) |x| of the maximum
    (closer than sqrt(eps) |x| the values differ by rounding alone).  The
    returned value is the one fn gave at x, not a new evaluation.  The
    search stops early at the first x where fn(x) > ``above``, and runs to
    the maximum if there is none.
    """
    a, b = lo, hi
    # minimize -fn; x the best point so far, w the second best, v the
    # previous w
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = -fn(x)
    if -fx > above:
        return x, -fx
    d = e = 0.0
    while True:
        mid = 0.5 * (a + b)
        tol = _SQRT_EPS * abs(x) + xtol / 3.0
        if abs(x - mid) <= 2.0 * tol - 0.5 * (b - a):
            return x, -fx
        parabolic = False
        if abs(e) > tol:
            # vertex of the parabola through (v, fv), (w, fw), (x, fx) at
            # x + p / q, with the signs arranged so that q >= 0
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_prev, e = e, d
            # accept a vertex inside the bracket that moves less than half
            # the step before last
            if (abs(p) < abs(0.5 * q * e_prev)
                    and q * (a - x) < p < q * (b - x)):
                parabolic = True
                d = p / q
                if (x + d) - a < 2.0 * tol or b - (x + d) < 2.0 * tol:
                    d = math.copysign(tol, mid - x)
        if not parabolic:
            e = (a - x) if x >= mid else (b - x)
            d = _GOLDEN * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = -fn(u)
        if -fu > above:
            return u, -fu
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
