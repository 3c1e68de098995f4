"""Controlled-sign gate from two sign gates in a balanced interferometer.

The interacting rails (Q1 lower, Q2 upper) are mixed on a 50/50
beamsplitter; bunching routes the doubly occupied case entirely through one
sign gate or the other, so exactly that logical state picks up the minus
sign.  With a lossy emitter the outer rails carry matched loss channels and
the gate succeeds with probability eps1^4, heralded by photon loss.
"""

import numpy as np

import tlsphot as tp
from tlsphot.circuits import LOGICAL_BASIS

p = tp.TlsParams()
sigma = tp.matching_width(p, "upper")
grid = tp.SpectralGrid.for_pulse_width(sigma)
pulse = tp.make_pulse(tp.PulseShape("lorentzian", sigma), grid)

print("truth table (logical 0 = photon in the lower rail):")
for basis in LOGICAL_BASIS:
    report = tp.cz_gate(tp.logical_state(grid, pulse, {basis: 1.0}),
                        p, pulse)
    amp = report.logical_amplitudes[basis]
    print(f"  |{basis[0]}{basis[1]}>  ->  {amp.real:+.4f} "
          f"|{basis[0]}{basis[1]}>")
print("the sign lands on |01>: Q1 photon in the lower rail and Q2 photon")
print("in the upper rail are the two that meet inside the interferometer.\n")

plus = {b: 0.5 for b in LOGICAL_BASIS}
report = tp.cz_gate(tp.logical_state(grid, pulse, plus), p, pulse)
print("|+>|+> input -> maximally entangled output:")
for b in LOGICAL_BASIS:
    a = report.logical_amplitudes[b]
    print(f"  |{b[0]}{b[1]}> amplitude {a.real:+.4f}")
print(f"fidelity to the controlled-sign oracle: "
      f"{report.fidelity_to_target:.8f}\n")

lossy = tp.TlsParams.from_beta(0.95)
sigma95 = tp.matching_width(lossy, "upper")
grid95 = tp.SpectralGrid.for_pulse_width(sigma95)
pulse95 = tp.make_pulse(tp.PulseShape("lorentzian", sigma95), grid95)
eps1 = tp.epsilon1_analytic(lossy, sigma95)
eps_b = tp.epsilon_b_analytic(lossy, sigma95)

skew = tp.cz_gate(tp.logical_state(grid95, pulse95, plus), lossy, pulse95,
                  compensate=False)
comp = tp.cz_gate(tp.logical_state(grid95, pulse95, plus), lossy, pulse95)
print(f"beta_dir = 0.95: eps1^2 = {eps1**2:.4f}, eps_b - eps1^2 = "
      f"{eps_b - eps1**2:.4f}")
print("output amplitude magnitudes (relative to input):")
print("  basis      uncompensated   with eta2 loss")
for b in LOGICAL_BASIS:
    u = abs(skew.logical_amplitudes[b]) / 0.5
    c = abs(comp.logical_amplitudes[b]) / 0.5
    print(f"  |{b[0]}{b[1]}>       {u:.4f}          {c:.4f}")
print("the uncompensated pair term is stronger (nonlinear loss); adding the")
print(f"eta2 = eps1^2/(eps_b - eps1^2) = "
      f"{eps1**2 / (eps_b - eps1**2):.4f} loss inside the sign gates")
print(f"equalizes all four, giving success probability eps1^4 = "
      f"{eps1**4:.4f} (simulated: {comp.success_prob:.4f}).")
