"""Span tracer that times calls into tlsphot from outside the package.

Package modules bind names at import (``from .scatter import scatter_two`` in
``states``, ``from .states import apply_tls`` in ``circuits``), so wrapping a
function means replacing every binding of it: the attribute in each tlsphot
module that holds it, plus ``FewPhotonState.norm2_sq`` on the class.  Spans
(name, start, end, parent, op id) stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (metric prefix, module, attribute) for every traced function.  Functions
# without a metric of their own are traced anyway so that their time is
# attributed to them and not to the caller's self time.
TRACED = (
    ("grid.require_symmetric", "tlsphot.grid", "require_symmetric"),
    ("grid.make_pulse", "tlsphot.grid", "make_pulse"),
    ("scatter.scatter_one", "tlsphot.scatter", "scatter_one"),
    ("scatter.scatter_two", "tlsphot.scatter", "scatter_two"),
    ("scatter.eta_numeric", "tlsphot.scatter", "eta_numeric"),
    ("scatter.epsilon_b_numeric", "tlsphot.scatter", "epsilon_b_numeric"),
    ("scatter.matching_sigma", "tlsphot.scatter", "matching_sigma"),
    ("roots.bisect", "tlsphot.roots", "bisect"),
    ("roots.golden_max", "tlsphot.roots", "golden_max"),
    ("states.norm2_sq", "tlsphot.states", "FewPhotonState.norm2_sq"),
    ("states.beamsplitter", "tlsphot.states", "beamsplitter"),
    ("states.apply_tls", "tlsphot.states", "apply_tls"),
    ("states.loss_channel", "tlsphot.states", "loss_channel"),
    ("states.overlap", "tlsphot.states", "overlap"),
    ("states.project_detection", "tlsphot.states", "project_detection"),
    ("states.fidelity", "tlsphot.states", "fidelity"),
    ("modeops.sfg_extract", "tlsphot.modeops", "sfg_extract"),
    ("modeops.sfg_reverse", "tlsphot.modeops", "sfg_reverse"),
    ("modeops.gem_invert", "tlsphot.modeops", "gem_invert"),
    ("modeops.component_phase_loss", "tlsphot.modeops",
     "component_phase_loss"),
    ("circuits.logical_state", "tlsphot.circuits", "logical_state"),
    ("circuits.logical_amplitudes", "tlsphot.circuits", "logical_amplitudes"),
    ("circuits.photon_sorter", "tlsphot.circuits", "photon_sorter"),
    ("circuits.bell_analyzer", "tlsphot.circuits", "bell_analyzer"),
    ("circuits.ns_gate", "tlsphot.circuits", "ns_gate"),
    ("circuits.cz_gate", "tlsphot.circuits", "cz_gate"),
    ("sweeps.fig1b_data", "tlsphot.sweeps", "fig1b_data"),
    ("sweeps.fig3_data", "tlsphot.sweeps", "fig3_data"),
)

# the objective that matching_sigma hands to bisect / golden_max
ROOT_FN = "roots.fn"
ROOT_SEARCHES = ("roots.bisect", "roots.golden_max")

# per-layer metrics read off the spans: "<name>.calls" and "<name>.self_s"
CALLS = (
    "grid.require_symmetric", "scatter.scatter_two", "scatter.eta_numeric",
    "scatter.epsilon_b_numeric", "scatter.matching_sigma", "states.norm2_sq",
    "states.beamsplitter", "states.apply_tls", "states.overlap",
    "modeops.sfg_extract", "circuits.logical_state",
)
SELF_S = CALLS + (
    "grid.make_pulse", "states.loss_channel", "states.project_detection",
    "states.fidelity", "modeops.sfg_reverse", "modeops.gem_invert",
    "modeops.component_phase_loss", "circuits.logical_amplitudes",
    "circuits.bell_analyzer", "circuits.cz_gate", "circuits.ns_gate",
    "circuits.photon_sorter", "sweeps.fig1b_data", "sweeps.fig3_data",
)


class Tracer:
    """Records spans around tlsphot calls; ``enabled`` pauses recording."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self._stack = []
        self.op = "setup"
        self.enabled = True
        self.fn_evals = 0
        self.no_crossing = 0
        self.pair_arrays_peak = 0
        self.pair_bytes_peak = 0
        self._state_cls = None
        self._no_crossing_cls = None

    # -- recording -----------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                self.op]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except self._no_crossing_cls:
            if name == "scatter.matching_sigma":
                self.no_crossing += 1
            raise
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        self._observe(result)
        return result

    def _observe(self, result):
        state = getattr(result, "output_state", result)
        if not isinstance(state, self._state_cls):
            return
        # states share untouched arrays, so count each array once
        arrays = {id(a): a.nbytes for a in state.two_photon.values()}
        nbytes = sum(arrays.values())
        if nbytes > self.pair_bytes_peak:
            self.pair_bytes_peak = nbytes
            self.pair_arrays_peak = len(arrays)

    def _wrap(self, name, fn):
        if name in ROOT_SEARCHES:
            @functools.wraps(fn)
            def wrapper(objective, *args, **kwargs):
                return self._call(name, fn, (self._count(objective),) + args,
                                  kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self._call(name, fn, args, kwargs)
        return wrapper

    def _count(self, objective):
        def counted(x):
            if self.enabled:
                self.fn_evals += 1
            return self._call(ROOT_FN, objective, (x,), {})
        return counted

    # -- installation --------------------------------------------------------

    def install(self, tp):
        """Replace every binding of each traced function in the package."""
        self._state_cls = tp.states.FewPhotonState
        self._no_crossing_cls = tp.roots.NoCrossingError
        modules = [m for k, m in sys.modules.items()
                   if k == "tlsphot" or k.startswith("tlsphot.")]
        for name, modname, attr in TRACED:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(sys.modules[modname], cls_name)
                setattr(cls, meth, self._wrap(name, getattr(cls, meth)))
                continue
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, original)
            bound = 0
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        bound += 1
            if bound == 0:
                raise RuntimeError(f"{modname}.{attr} is bound nowhere")

    # -- results -------------------------------------------------------------

    def self_times(self):
        """Per span name: (calls, self seconds), and total self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
        return calls, self_s

    def layer_metrics(self, traced_s):
        """Per-layer metrics as {name: (value, unit)}.

        ``traced_s`` is the wall time the tracer was enabled for; what no
        span covers is reported as ``bench.unattributed_s``.
        """
        calls, self_s = self.self_times()
        out = {}
        for name in CALLS:
            out[name + ".calls"] = (calls[name], "count")
        for name in SELF_S:
            out[name + ".self_s"] = (self_s[name], "s")
        out["scatter.matching_sigma.no_crossing"] = (self.no_crossing,
                                                     "count")
        out["roots.fn_evals"] = (self.fn_evals, "count")
        out["roots.self_s"] = (sum(self_s[n] for n in ROOT_SEARCHES), "s")
        out["states.pair_arrays_peak"] = (self.pair_arrays_peak, "count")
        out["states.pair_bytes_peak"] = (self.pair_bytes_peak, "B")
        out["bench.unattributed_s"] = (traced_s - sum(self_s.values()), "s")
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
