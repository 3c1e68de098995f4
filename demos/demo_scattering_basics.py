"""Single- and two-photon scattering off the emitter, and the operating point.

Walks through the building blocks: the transfer coefficient, the distortion
overlap eta of a scattered photon pair, its closed form for Lorentzian
pulses, and the matching widths where the pair output becomes orthogonal to
the product mode (the sorting condition).
"""

import tlsphot as tp

p = tp.TlsParams()  # lossless emitter, rates in units of the coupling

print("transfer coefficient t(delta):")
for d in (0.0, 0.5, 2.0, 20.0):
    t = tp.transfer_coeff(p, d)
    print(f"  delta = {d:5.1f}:  t = {t:.4f}   |t| = {abs(t):.4f}")
print("on resonance the photon picks up a pi phase; far away it passes.\n")

sigma = 0.5
grid = tp.SpectralGrid.for_pulse_width(sigma)
pulse = tp.make_pulse(tp.PulseShape("lorentzian", sigma), grid)

res = tp.decompose(p, pulse)
print(f"photon pair at width sigma = {sigma}:")
print(f"  component along the product mode : {res.coeff_along.real:+.4f}"
      f"   (1 - 2 eta)")
print(f"  orthogonal (entangled) component : {res.coeff_orth:+.4f}")
print(f"  eta from the closed form         : {tp.eta_analytic(p, sigma):.5f}")
print(f"  eta from quadrature              : "
      f"{tp.eta_numeric(p, pulse):.5f}\n")

print("eta against spectral width (closed form):")
for s in (0.05, 0.16, 0.3, 0.47, 0.8, 1.25, 3.0):
    bar = "#" * int(60 * tp.eta_analytic(p, s))
    print(f"  sigma = {s:4.2f}  {bar}")

lo = tp.matching_width(p, "lower")
hi = tp.matching_width(p, "upper")
print(f"\nsorting condition eta = 1/2 holds at sigma = {lo:.4f} and "
      f"{hi:.4f};")
print("the wider pulse is the better operating point (smaller loss when "
      "the emitter leaks).")

p95 = tp.TlsParams.from_beta(0.95)
hi95 = tp.matching_width(p95, "upper")
print(f"\nwith beta_dir = 0.95 the condition becomes eta = eps1^2/2, met at "
      f"sigma = {hi95:.4f},")
print(f"where eps1 = {tp.epsilon1_analytic(p95, hi95):.4f} and eps_b = "
      f"{tp.epsilon_b_analytic(p95, hi95):.4f}.")
