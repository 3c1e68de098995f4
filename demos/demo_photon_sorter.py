"""Sorting the one- and two-photon parts of a pulse into separate outputs.

An emitter pass at the matched width maps the single-photon component onto
the distorted mode t*f and the pair component onto a state orthogonal to it;
a pulse gate pumped with t*f then converts exactly the single-photon part to
the sum frequency.  The script sorts a 40/60 superposition and also shows
the diagnostic the idealized pulse gate hides: the photon-wise conversion
leakage of the orthogonal pair state.
"""

import numpy as np

import tlsphot as tp
from tlsphot.modeops import sum_rail
from tlsphot.pairs import FactoredPair
from tlsphot.states import FewPhotonState, project_detection

p = tp.TlsParams()
sigma = tp.matching_width(p, "upper")
grid = tp.SpectralGrid.for_pulse_width(sigma)
pulse = tp.make_pulse(tp.PulseShape("lorentzian", sigma), grid)

alpha, xi = np.sqrt(0.4), np.sqrt(0.6)


def sorter_input(f):
    """alpha |1_f> + xi |2_f> on the signal rail."""
    return FewPhotonState.from_components(
        f.grid, ("sig",), ones={"sig": alpha * f.values},
        pairs={("sig", "sig"): xi * FactoredPair.product(f.values)})


state = sorter_input(pulse)

print(f"input on one rail: {alpha**2:.2f} single photon + {xi**2:.2f} "
      "photon pair")

sorted_state = tp.photon_sorter(state, "sig", p, pulse)
anc = sum_rail("sig")
print("after emitter + pulse gate:")
print(f"  single photon at the sum frequency : "
      f"{project_detection(sorted_state, {anc: 1}):.6f}")
print(f"  photon pair at the original carrier: "
      f"{project_detection(sorted_state, {'sig': 2}):.6f}")
print(f"  unaccounted probability            : "
      f"{sorted_state.lost_mass:.2e}\n")

pump = tp.make_pump(p, pulse)
pair_out = tp.scatter_two(p, grid, FactoredPair.product(pulse.values))
leak = tp.leakage_metric(pump, pair_out)
print("diagnostic: a photon-wise pulse gate would convert one photon of the")
print(f"pair state with branch probability 2*||G||^2 = {2 * leak**2:.3f} "
      "(G the single-photon")
print("pump content).  The transfer-function model used above idealizes "
      "this away,")
print("as the sorting argument assumes; sfg_extract(..., ideal=False) keeps "
      "it.")

lossy = tp.TlsParams.from_beta(0.95)
sigma95 = tp.matching_width(lossy, "upper")
pulse95 = tp.make_pulse(tp.PulseShape("lorentzian", sigma95),
                        tp.SpectralGrid.for_pulse_width(sigma95))
out95 = tp.photon_sorter(sorter_input(pulse95), "sig", lossy, pulse95)
eps1 = tp.epsilon1_analytic(lossy, sigma95)
eps_b = tp.epsilon_b_analytic(lossy, sigma95)
print(f"\nwith beta_dir = 0.95 the sorted weights shrink to eps1 = "
      f"{eps1:.4f} and")
print(f"eps_b - eps1^2 = {eps_b - eps1**2:.4f} of their inputs:")
print(f"  sum-frequency single photon: "
      f"{project_detection(out95, {anc: 1}):.4f}"
      f"  (expected {alpha**2 * eps1:.4f})")
print(f"  original-carrier pair      : "
      f"{project_detection(out95, {'sig': 2}):.4f}"
      f"  (expected {xi**2 * (eps_b - eps1**2):.4f})")
print(f"  heralded loss              : {out95.lost_mass:.4f}")
