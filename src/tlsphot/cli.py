"""Batch front-end: named experiments, CSV emission, convergence reporting.

Every run writes one CSV table, a manifest that echoes the resolved
configuration, a convergence report comparing its one headline scalar at the
base grid and on :func:`_rerun_size` samples, and a minimal plot script.
Outputs are deterministic: the same configuration gives byte-identical files.

The scalar experiments (fig1b, loss-curves, fig3, matching-points) take
closed forms and the exact matching widths of
:func:`~tlsphot.scatter.matching_width`: they sample no pulse, at any swept
width, and their headline refines to itself (drift 0).
``grid.n_points`` (``--grid-n``) is the circuit demos' grid alone.  Every
pulse a demo samples, at its operating width, lies on the default grid
policy :meth:`~tlsphot.grid.SpectralGrid.for_pulse_width`; ``grid.n_points``
fixes its sample count, and the window follows the width.  A fixed count
that does not resolve that width exits 2.

Exit codes: 0 success, 1 I/O failure, 2 usage error, 3 convergence failure.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .circuits import (
    LOGICAL_BASIS,
    CompensationError,
    bell_analyzer,
    bell_state,
    cz_gate,
    identify_bell_state,
    logical_state,
    make_pump,
    matching_residual,
    ns_gate,
    photon_sorter,
)
from .grid import (
    MAX_N_POINTS,
    GridSizeError,
    PulseShape,
    ResolutionError,
    SpectralGrid,
    make_pulse,
    policy_size,
    resolved_size,
)
from .modeops import leakage_metric, sum_rail
from .pairs import FactoredPair
from .roots import NoCrossingError
from .scatter import (
    TlsParams,
    epsilon1_analytic,
    eta_analytic,
    matching_width,
    scatter_two,
)
from .states import FewPhotonState, fidelity, project_detection
from .sweeps import SweepSpec, fig1b_table, success_curves

DEFAULTS = {
    "grid": {"n_points": "auto"},
    "tls": {"beta": "1.0"},
    "sweep": {"beta_values": "1.0, 0.95, 0.90", "sigma_min": "0.02",
              "sigma_max": "5.0", "sigma_count": "120"},
    "run": {"branch": "upper", "sigma": "auto"},
    "convergence": {"tolerance": "1e-3"},
}


def read_config(path: str | None, overrides: dict | None = None):
    """Resolve DEFAULTS <- config file <- command-line overrides.

    Returns the configuration and one diagnostic per fault of the file: a
    parse error, or each unknown section and unknown key.  OSError from
    opening the file propagates.
    """
    cfg = {sec: dict(vals) for sec, vals in DEFAULTS.items()}
    diagnostics = []
    if path is not None:
        parser = configparser.ConfigParser()
        try:
            with open(path) as fh:
                parser.read_file(fh)
        except configparser.Error as exc:
            return cfg, [f"parse error in {path}: {exc}"]
        for sec in parser.sections():
            if sec not in cfg:
                diagnostics.append(f"unknown section [{sec}]")
                continue
            for key, val in parser[sec].items():
                if key not in cfg[sec]:
                    diagnostics.append(
                        f"unknown key {key!r} in section [{sec}]")
                    continue
                cfg[sec][key] = val
    for dotted, val in (overrides or {}).items():
        sec, key = dotted.split(".")
        cfg[sec][key] = str(val)
    return cfg, diagnostics


@dataclass(frozen=True)
class _Settings:
    """A resolved configuration, parsed into typed values."""

    p: TlsParams
    spec: SweepSpec
    n_points: int | None
    branch: str
    sigma: float | None
    tolerance: float


def _check(value, ok, message: str):
    """``value`` if ``ok(value)``, else a ValueError with ``message``."""
    if not ok(value):
        raise ValueError(message)
    return value


def _grid_n(raw: str) -> int:
    """A ``grid.n_points`` value whose :func:`_rerun_size` is affordable."""
    n = int(raw)
    _rerun_size(1.0, n)
    return n


def _parse(cfg: dict):
    """Typed settings of a resolved configuration (None if it has faults),
    and one diagnostic per fault, naming its key.

    Ranges are checked by the library types the values feed.
    """
    diagnostics = []

    def field(sec, key, convert):
        raw = cfg[sec][key]
        try:
            return convert(raw)
        except (ValueError, OverflowError) as exc:  # int(float("inf"))
            diagnostics.append(f"{sec}.{key} = {raw}: {exc}")
            return None

    def auto(convert):
        return lambda raw: None if raw == "auto" else convert(raw)

    n_points = field("grid", "n_points", auto(_grid_n))
    p = field("tls", "beta", lambda raw: TlsParams.from_beta(float(raw)))
    betas = field("sweep", "beta_values", lambda raw: SweepSpec(
        beta_values=tuple(float(b) for b in raw.split(","))).beta_values)
    sigma_min = field("sweep", "sigma_min", float)
    sigma_max = field("sweep", "sigma_max", float)
    count = field("sweep", "sigma_count", lambda raw: SweepSpec(
        sigma_count=int(float(raw))).sigma_count)
    branch = field("run", "branch", lambda raw: _check(
        raw, lambda b: b in ("upper", "lower"), "must be upper or lower"))
    sigma = field("run", "sigma", auto(
        lambda raw: PulseShape("lorentzian", float(raw)).width))
    tolerance = field("convergence", "tolerance", lambda raw: _check(
        float(raw), lambda v: v > 0.0, "must be positive"))
    spec = None
    if None not in (sigma_min, sigma_max):
        try:
            spec = SweepSpec(beta_values=betas or (1.0,),
                             sigma_range=(sigma_min, sigma_max),
                             sigma_count=count or 2)
        except ValueError as exc:
            diagnostics.append(f"sweep.sigma_min = {sigma_min}, "
                               f"sweep.sigma_max = {sigma_max}: {exc}")
    if sigma is not None:
        where = (f"grid.n_points = {cfg['grid']['n_points']}, "
                 f"run.sigma = {sigma}")
        try:
            resolved_size(sigma, n_points)
            _rerun_size(sigma, n_points)
        except ResolutionError as exc:
            diagnostics.append(f"{where}: grid resolution: {exc}")
        except GridSizeError as exc:
            diagnostics.append(f"{where}: {exc}")
    if diagnostics:
        return None, diagnostics
    return _Settings(p=p, spec=spec, n_points=n_points, branch=branch,
                     sigma=sigma, tolerance=tolerance), []


def validate_config(path: str) -> list:
    """Diagnostics for a config file: those :func:`read_config` finds, else
    those of its values (ranges, grid resolution)."""
    cfg, diagnostics = read_config(path)
    return diagnostics or _parse(cfg)[1]


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: Path, columns: list, rows: list) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[c]) for c in columns) + "\n")


_PLOT_TEMPLATE = """\
#!/usr/bin/env python3
\"\"\"Regenerate the {experiment} figure from {csv_name} (needs matplotlib).\"\"\"
import csv
import matplotlib.pyplot as plt

with open("{csv_name}") as fh:
    rows = list(csv.DictReader(fh))

x = [float(r["{x}"]) for r in rows]
for column in {y_cols}:
    plt.plot(x, [float(r[column]) for r in rows], label=column)
plt.xlabel("{x}")
plt.legend()
plt.savefig("{experiment}.png", dpi=150)
"""


def _policy_pulse(sigma: float, n_points: int | None):
    """Lorentzian pulse of width ``sigma`` on its default-policy grid."""
    return make_pulse(PulseShape("lorentzian", sigma),
                      SpectralGrid.for_pulse_width(sigma, n_points))


def _rerun_size(width: float, n_points: int | None) -> int:
    """Sample count a headline of pulse width ``width`` reruns on: that
    width's policy grid with its spacing halved, 2 n - 1 samples."""
    n = 2 * policy_size(width, n_points)[1] - 1
    if n > MAX_N_POINTS:
        raise GridSizeError(f"the headline rerun needs 2 n - 1 = {n} "
                            f"samples, above the maximum of {MAX_N_POINTS}")
    return n


# -- experiment table builders --------------------------------------------
# Each builder returns (columns, rows, headline).  The headline is
# (name, base value, refine): refine() recomputes the value on the rerun
# grid of :func:`_rerun_size` samples, or is None for an exact value, which
# samples no grid and refines to itself.


def _build_fig1b(s: _Settings):
    rows = fig1b_table(s.spec)
    columns = ["beta", "sigma_over_gamma", "eta", "half_eps1_sq",
               "is_crossing"]
    p = TlsParams.from_beta(s.spec.beta_values[0])
    return columns, rows, ("eta_sigma_half", eta_analytic(p, 0.5), None)


def _build_matched_curve(s: _Settings, columns, name):
    """The matched-point table's ``columns``; the headline is its ``name``
    column at the smallest matched beta (beta = 1 if none matched)."""
    rows = success_curves(s.spec, s.branch)
    matched = [r for r in rows if r["matched"]]
    base = (min(matched, key=lambda r: r["beta"]) if matched
            else success_curves(replace(s.spec, beta_values=(1.0,)),
                                s.branch)[0])
    return columns, rows, (name, base[name], None)


def _build_loss_curves(s: _Settings):
    return _build_matched_curve(
        s, ["beta", "sigma", "two_photon_loss", "two_singles_loss",
            "matched"], "two_singles_loss")


def _build_fig3(s: _Settings):
    return _build_matched_curve(
        s, ["beta", "bell_success", "cz_success", "matched"], "cz_success")


def _build_matching_points(s: _Settings):
    p = s.p
    rows = []
    for branch in ("lower", "upper"):
        try:
            sigma = matching_width(p, branch)
        except NoCrossingError:
            if branch == "upper":  # the headline's root: no table without it
                raise
            rows.append({"branch": branch, "sigma": float("nan"),
                         "eta_at_sigma": float("nan"),
                         "residual": float("nan"), "matched": False})
            continue
        eta = eta_analytic(p, sigma)
        rows.append({
            "branch": branch,
            "sigma": sigma,
            "eta_at_sigma": eta,
            "residual": eta - 0.5 * epsilon1_analytic(p, sigma) ** 2,
            "matched": True,
        })
    columns = ["branch", "sigma", "eta_at_sigma", "residual", "matched"]
    return columns, rows, ("sigma_upper", sigma, None)


# Each demo's rows function takes (settings, sigma, pulse), the pulse of
# width sigma sampled on its grid, and returns the CSV rows and the value of
# its headline scalar on that grid.


def _sorter_rows(s: _Settings, sigma: float, pulse):
    p = s.p
    alpha = xi = 1.0 / np.sqrt(2.0)
    state = FewPhotonState.from_components(
        pulse.grid, ("sig",), ones={"sig": alpha * pulse.values},
        pairs={("sig", "sig"): xi * FactoredPair.product(pulse.values)})
    out = photon_sorter(state, "sig", p, pulse)
    anc_weight = project_detection(out, {sum_rail("sig"): 1})
    pump = make_pump(p, pulse)
    pair_out = scatter_two(p, pulse.grid, FactoredPair.product(pulse.values))
    rows = [
        {"quantity": "beta", "value": p.beta_dir},
        {"quantity": "sigma", "value": sigma},
        {"quantity": "input_one_photon_weight", "value": alpha**2},
        {"quantity": "input_two_photon_weight", "value": xi**2},
        {"quantity": "ancilla_one_photon_weight", "value": anc_weight},
        {"quantity": "signal_two_photon_weight",
         "value": project_detection(out, {"sig": 2})},
        {"quantity": "lost_mass", "value": out.lost_mass},
        {"quantity": "matching_residual", "value": matching_residual(p, pulse)},
        {"quantity": "pulse_gate_leakage_norm",
         "value": leakage_metric(pump, pair_out)},
    ]
    return rows, anc_weight


def _bell_rows(s: _Settings, sigma: float, pulse):
    rows = []
    success = {}
    for which in ("psi+", "psi-", "phi+", "phi-"):
        report = bell_analyzer(bell_state(pulse.grid, pulse, which), s.p,
                               pulse)
        success[which] = report.success_prob
        for pattern, prob in sorted(report.pattern_probs.items()):
            if prob < 1e-12:
                continue
            rows.append({
                "input_state": which,
                "pattern": "+".join(str(d) for d in pattern),
                "probability": prob,
                "identifies": identify_bell_state(pattern) or "none",
            })
        rows.append({"input_state": which, "pattern": "total_conclusive",
                     "probability": report.success_prob,
                     "identifies": which})
        rows.append({"input_state": which, "pattern": "heralded_failure",
                     "probability": report.lost_mass, "identifies": "none"})
    return rows, success["psi+"]


def _ns_rows(s: _Settings, sigma: float, pulse):
    p = s.p
    amp = 1.0 / np.sqrt(3.0)

    def ns_state(pair_sign):
        return FewPhotonState.from_components(
            pulse.grid, ("sig",), amp, ones={"sig": amp * pulse.values},
            pairs={("sig", "sig"): pair_sign * amp
                   * FactoredPair.product(pulse.values)})

    out = ns_gate(ns_state(1.0), "sig", p, pulse)
    fid = fidelity(out, ns_state(-1.0))
    rows = [
        {"quantity": "beta", "value": p.beta_dir},
        {"quantity": "sigma", "value": sigma},
        {"quantity": "fidelity_to_sign_flipped_input", "value": fid},
        {"quantity": "surviving_probability",
         "value": out.surviving_norm_sq()},
        {"quantity": "lost_mass", "value": out.lost_mass},
        {"quantity": "total_probability", "value": out.total_probability()},
    ]
    return rows, fid


def _cz_rows(s: _Settings, sigma: float, pulse):
    rows = []
    fid_super = float("nan")
    cases = [((0, 0), "basis_00"), ((0, 1), "basis_01"),
             ((1, 0), "basis_10"), ((1, 1), "basis_11"),
             (None, "superposition")]
    for basis, name in cases:
        if basis is None:
            amps_in = {b: 0.5 for b in LOGICAL_BASIS}
        else:
            amps_in = {basis: 1.0}
        report = cz_gate(logical_state(pulse.grid, pulse, amps_in), s.p, pulse)
        row = {"input": name,
               "success_prob": report.success_prob,
               "fidelity": report.fidelity_to_target,
               "lost_mass": report.lost_mass}
        for b in LOGICAL_BASIS:
            a = report.logical_amplitudes[b]
            row[f"amp_{b[0]}{b[1]}_re"] = a.real
            row[f"amp_{b[0]}{b[1]}_im"] = a.imag
        rows.append(row)
        if basis is None:
            fid_super = report.fidelity_to_target
    return rows, fid_super


_DEMOS = {
    "sorter-demo": (_sorter_rows, ["quantity", "value"],
                    "ancilla_one_photon_weight"),
    "bell-demo": (_bell_rows,
                  ["input_state", "pattern", "probability", "identifies"],
                  "psi_plus_success"),
    "ns-demo": (_ns_rows, ["quantity", "value"], "ns_fidelity"),
    "cz-demo": (_cz_rows,
                ["input", "success_prob", "fidelity", "lost_mass"]
                + [f"amp_{b[0]}{b[1]}_{part}" for b in LOGICAL_BASIS
                   for part in ("re", "im")],
                "cz_superposition_fidelity"),
}


def _build_demo(experiment: str, s: _Settings):
    """A demo's rows at the operating width (matched unless ``run.sigma``
    is set) on its policy grid."""
    demo_rows, columns, name = _DEMOS[experiment]
    sigma = s.sigma
    if sigma is None:
        sigma = matching_width(s.p, s.branch)
    rows, base = demo_rows(s, sigma, _policy_pulse(sigma, s.n_points))

    def refine():
        pulse = _policy_pulse(sigma, _rerun_size(sigma, s.n_points))
        return demo_rows(s, sigma, pulse)[1]

    return columns, rows, (name, base, refine)


_BUILDERS = {
    "fig1b": _build_fig1b,
    "loss-curves": _build_loss_curves,
    "fig3": _build_fig3,
    "matching-points": _build_matching_points,
    **{name: functools.partial(_build_demo, name) for name in _DEMOS},
}
EXPERIMENTS = tuple(_BUILDERS)


def run(experiment: str, cfg: dict, out_dir: str) -> int:
    """Execute one experiment; write CSV, manifest, convergence report."""
    if experiment not in _BUILDERS:
        print(f"unknown experiment {experiment!r}; choose from "
              f"{', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    settings, diagnostics = _parse(cfg)
    if diagnostics:
        for line in diagnostics:
            print(line, file=sys.stderr)
        return 2
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        print(f"output directory not writable: {exc}", file=sys.stderr)
        return 1

    try:
        columns, rows, (name, base, refine) = _BUILDERS[experiment](
            settings)
        refined = base if refine is None else refine()
    except (ResolutionError, GridSizeError) as exc:
        # grids the configuration does not spell out (a demo's matched
        # operating point and its headline rerun) are only checked when
        # they are built
        print(f"grid.n_points = {cfg['grid']['n_points']}: {exc}",
              file=sys.stderr)
        return 2
    except NoCrossingError as exc:
        # an operating point or headline needs a crossing this beta lacks
        print(f"tls.beta = {cfg['tls']['beta']}: no {exc.branch} matching "
              f"point: {exc}", file=sys.stderr)
        return 2
    except CompensationError as exc:
        # checked when the sign gate is built, at the operating width
        print(f"run.sigma = {cfg['run']['sigma']}, tls.beta = "
              f"{cfg['tls']['beta']}: {exc}", file=sys.stderr)
        return 2
    stem = experiment.replace("-", "_")
    tolerance = settings.tolerance
    drift = abs(refined - base)
    converged = drift <= tolerance
    report = {"scalar": name, "base_value": base, "refined_value": refined,
              "drift": drift, "tolerance": tolerance, "converged": converged}
    manifest = {
        "experiment": experiment,
        "version": __version__,
        "config": cfg,
        "columns": columns,
        "convergence_tolerance": tolerance,
        "outputs": [f"{stem}.csv", "convergence.csv", f"plot_{stem}.py"],
    }
    numeric = [c for c in columns[1:]
               if rows and isinstance(rows[0][c], (int, float, np.floating))
               and not isinstance(rows[0][c], bool)]
    plot = _PLOT_TEMPLATE.format(experiment=stem, csv_name=f"{stem}.csv",
                                 x=columns[0], y_cols=numeric[:4])
    try:
        write_csv(out / f"{stem}.csv", columns, rows)
        write_csv(out / "convergence.csv", list(report), [report])
        with open(out / "manifest.json", "w", newline="\n") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        (out / f"plot_{stem}.py").write_text(plot)
    except OSError as exc:
        print(f"failed to write output: {exc}", file=sys.stderr)
        return 1

    if not converged:
        print("convergence failure; see convergence.csv", file=sys.stderr)
        return 3
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tlsphot",
        description="Two-level-scatterer photonics experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a named experiment")
    runp.add_argument("experiment")
    runp.add_argument("--config", default=None)
    runp.add_argument("--out", default=".")
    runp.add_argument("--beta", type=float, default=None,
                      help="tls.beta, the emitter of matching-points and "
                      "the demos; fig1b, loss-curves and fig3 sweep "
                      "sweep.beta_values and ignore it")
    runp.add_argument("--sigma", type=float, default=None)
    runp.add_argument("--grid-n", type=int, default=None)
    valp = sub.add_parser("validate", help="check a config file")
    valp.add_argument("--config", required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            diagnostics = validate_config(args.config)
            for line in diagnostics:
                print(line)
            return 0 if not diagnostics else 2
        overrides = {}
        if args.beta is not None:
            overrides["tls.beta"] = args.beta
        if args.sigma is not None:
            overrides["run.sigma"] = args.sigma
        if args.grid_n is not None:
            overrides["grid.n_points"] = args.grid_n
        cfg, diagnostics = read_config(args.config, overrides)
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if diagnostics:
        for line in diagnostics:
            print(line, file=sys.stderr)
        return 2
    return run(args.experiment, cfg, args.out)


if __name__ == "__main__":
    sys.exit(main())
