"""Derive the closed form of the distortion overlap eta at any beta.

    PYTHONPATH=src python tests/derivations/eta_lossy.py

Needs sympy, which is no dependency of the package; pytest does not collect
this file.  It prints the derived eta(sigma) and checks it against
``scatter.eta_analytic`` at beta 0.95, 0.8 and 0.5 and sigma 0.3, 1.2143
and 3, to 1e-14, and checks the coefficients of ``scatter.matching_width``'s
sextic against the stated forms; it exits 1 on a mismatch and 2 without
sympy.

The derivation is the one ``eta_numeric`` evaluates on a grid.  With
G = gamma + 1 = 1 / beta and a = G / 2, the emitter's amplitudes are
s(d) = 1 / (d + i a) and t(d) = 1 - i s(d), the pulse is the Lorentzian
f(d) = sqrt(2 sigma^3 / pi) / (sigma^2 + d^2), and

    <image | bound> = kappa int dP I(P) (u * u)(P),   kappa = i / (2 pi),
    I = 2 (f s) * f,   u = conj(t) f s,

with * the convolution on the line, so that eta = |<image | bound>| / 2.
In the time domain, with g^(tau) = int g(d) exp(-i d tau) dd, a
convolution is a product and Parseval turns the P integral into

    int dP I(P) (u * u)(P) = (1 / 2 pi) int dtau I^(tau) u^(-tau)^2.

Every factor (f, f s, u) is rational in d with simple poles at +-i sigma
and +-i a (sigma != a is assumed; the result is continuous there), so its
transform is, by residues, a sum of exponentials exp(-r |tau|) on each half
line, and the last integral is a sum of 1 / (sum of rates).
"""

import sys
import time
from pathlib import Path

try:
    import sympy as sp
except ImportError:
    print("this derivation needs sympy", file=sys.stderr)
    sys.exit(2)

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
from tlsphot.scatter import (  # noqa: E402
    TlsParams,
    _matching_sextic,
    eta_analytic,
)

sigma, G = sp.symbols("sigma G", positive=True)
d = sp.symbols("d", real=True)
a = G / 2
POLES = (sp.I * sigma, -sp.I * sigma, sp.I * a, -sp.I * a)


def half_lines(expr):
    """The transform of the rational ``expr`` as two lists of (coef, rate),
    one per half line: sum coef exp(-rate tau) for tau > 0 from the poles
    below the real axis, and sum coef exp(rate tau) for tau < 0 from those
    above it."""
    num, den = sp.fraction(sp.together(expr))
    pos, neg = [], []
    for p in POLES:
        if sp.degree(den, d) == 0 or sp.simplify(den.subs(d, p)) != 0:
            continue
        residue = sp.simplify((num / sp.diff(den, d)).subs(d, p))
        # exp(-i p tau) = exp(-rate |tau|) with rate = |Im p|
        if sp.im(p).could_extract_minus_sign():
            pos.append((-2 * sp.pi * sp.I * residue, -sp.I * p))
        else:
            neg.append((2 * sp.pi * sp.I * residue, sp.I * p))
    return pos, neg


def product(*sums):
    """Product of sums of (coef, rate) terms on one half line."""
    out = [(sp.Integer(1), sp.Integer(0))]
    for terms in sums:
        out = [(c1 * c2, r1 + r2) for c1, r1 in out for c2, r2 in terms]
    return out


def derive():
    f = sp.sqrt(2 * sigma**3 / sp.pi) / (sigma**2 + d**2)
    s = 1 / (d + sp.I * a)
    t_conj = 1 + sp.I / (d - sp.I * a)  # conj(t) on the real line
    f_pos, f_neg = half_lines(f)
    fs_pos, fs_neg = half_lines(f * s)
    u_pos, u_neg = half_lines(t_conj * f * s)
    # I^(tau) = 2 (f s)^ f^; u^(-tau) takes u's other half line
    integral = sum(2 * c / r for c, r in
                   product(fs_pos, f_pos, u_neg, u_neg)
                   + product(fs_neg, f_neg, u_pos, u_pos))
    overlap = sp.I / (2 * sp.pi) * integral / (2 * sp.pi)
    # the overlap is a real rational function times a unit phase
    probe = {sigma: sp.Rational(7, 10), G: sp.Rational(13, 10)}
    phase = sp.nsimplify(sp.N(overlap.subs(probe), 30)
                         / abs(sp.N(overlap.subs(probe), 30)),
                         tolerance=1e-20)
    eta = sp.factor(sp.cancel(sp.expand(overlap / phase / 2)))
    if not eta.is_real:
        raise SystemExit(f"eta is not real: {eta}")
    return eta


def main() -> int:
    start = time.perf_counter()
    eta = derive()
    print(f"eta(sigma) = {eta}")
    u = (G - 2) ** 2
    q = (u * (3 * G**3 + 44 * G**2 * sigma + 124 * G * sigma**2
              + 64 * sigma**3) + 16 * sigma**2 * (3 * G + 8 * sigma))
    stated = 4 * sigma * q / (G**2 * (G + 2 * sigma) ** 4 * (G + 6 * sigma)
                              * (3 * G + 2 * sigma))
    failures = 0
    if sp.cancel(eta - stated) != 0:
        print("the derived eta differs from the form eta_analytic states")
        failures += 1
    # matching_width's sextic: the numerator of eta - eps_1^2 / 2 over
    # the common denominator 2 G^2 (G + 2 sigma)^4 (G + 6 sigma) (3G + 2 sigma)
    n = G * (G + 2 * sigma) ** 2 - 4 * (G - 1) * (G + 4 * sigma)
    sextic = sp.expand(8 * sigma * q
                       - n**2 * (G + 6 * sigma) * (3 * G + 2 * sigma))
    listed = sum(c * sigma ** (6 - k)
                 for k, c in enumerate(_matching_sextic(G)))
    if sp.expand(sextic - listed) != 0:
        print("the matching sextic differs from _matching_sextic's")
        failures += 1
    for beta in ("0.95", "0.8", "0.5"):
        for width in ("0.3", "1.2143", "3"):
            p = TlsParams.from_beta(float(beta))
            exact = eta.subs({G: 1 / sp.Rational(beta),
                              sigma: sp.Rational(width)})
            err = abs(float(sp.N(exact, 30)) - eta_analytic(p, float(width)))
            ok = err <= 1e-14
            failures += not ok
            print(f"beta {beta:>4}  sigma {width:>6}  "
                  f"|derived - eta_analytic| = {err:.1e}"
                  f"{'' if ok else '  MISMATCH'}")
    print(f"{time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
