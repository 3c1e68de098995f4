"""Few-photon spectral simulator of a chiral two-level scatterer, with the
active Gaussian operations (mode-selective frequency conversion, memory-based
pulse inversion) and linear optics needed to build a photon sorter, a Bell
analyzer, a nonlinear-sign gate and a controlled-sign gate, lossy emitters
included.
"""

from .grid import (
    GridMismatchError,
    GridSizeError,
    OnePhotonAmp,
    PulseShape,
    ResolutionError,
    SpectralGrid,
    make_pulse,
    normalize,
)
from .scatter import (
    ScatterOneResult,
    ScatterTwoResult,
    TlsParams,
    bound_amplitude,
    decompose,
    epsilon1_analytic,
    epsilon_b_analytic,
    epsilon_b_numeric,
    eta_analytic,
    eta_numeric,
    matching_sigma,
    matching_width,
    s_coeff,
    scatter_one,
    scatter_two,
    transfer_coeff,
)
from .states import (
    FewPhotonState,
    apply_tls,
    beamsplitter,
    fidelity,
    loss_channel,
    overlap,
    project_detection,
)
from .modeops import (
    PulseGateSpec,
    component_phase_loss,
    gem_invert,
    leakage_metric,
    sfg_extract,
    sfg_reverse,
    sum_rail,
)
from .circuits import (
    BELL_PATTERNS,
    CircuitReport,
    CompensationError,
    RAILS4,
    bell_analyzer,
    bell_state,
    cz_gate,
    identify_bell_state,
    logical_amplitudes,
    logical_state,
    make_pump,
    ns_gate,
    photon_sorter,
)
from .sweeps import (
    SweepSpec,
    fig1b_data,
    fig1b_table,
    fig3_data,
    success_curves,
)
from .roots import NoCrossingError

__version__ = "0.1.0"
