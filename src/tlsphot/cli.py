"""Batch front-end: named experiments, CSV emission, convergence reporting.

Every run writes one CSV table, a manifest that echoes the resolved
configuration, a convergence report comparing each headline scalar at the
base grid and at doubled resolution, and a minimal plot script.  Outputs are
deterministic: identical configuration yields byte-identical files.

Exit codes: 0 success, 1 I/O failure, 2 usage error, 3 convergence failure.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .circuits import (
    LOGICAL_BASIS,
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
    PulseShape,
    ResolutionError,
    SpectralGrid,
    make_pulse,
    product_state,
)
from .modeops import leakage_metric, sum_rail
from .roots import NoCrossingError
from .scatter import (
    TlsParams,
    epsilon1_analytic,
    eta_analytic,
    eta_numeric,
    matching_sigma,
    scatter_two,
)
from .states import FewPhotonState, fidelity, project_detection
from .sweeps import SweepSpec, fig1b_data, fig3_data, loss_curves

EXPERIMENTS = ("fig1b", "loss-curves", "fig3", "matching-points",
               "sorter-demo", "bell-demo", "ns-demo", "cz-demo")

DEFAULTS = {
    "grid": {"n_points": "auto", "delta_max": "auto"},
    "tls": {"beta": "1.0", "gamma_wg": "1.0"},
    "sweep": {"beta_values": "1.0, 0.95, 0.90", "sigma_min": "0.02",
              "sigma_max": "5.0", "sigma_count": "120"},
    "run": {"branch": "upper", "sigma": "auto"},
    "convergence": {"tolerance": "1e-3"},
}

_DEMO_N_POINTS = 1201
_DEMO_DELTA_MAX = 60.0


class ConfigError(ValueError):
    pass


def _parse_file(path: str) -> dict:
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"parse error in {path}: {exc}") from exc
    return {section: dict(parser[section]) for section in parser.sections()}


def load_config(path: str | None, overrides: dict | None = None) -> dict:
    """Resolve DEFAULTS <- config file <- command-line overrides."""
    cfg = {sec: dict(vals) for sec, vals in DEFAULTS.items()}
    if path is not None:
        for sec, vals in _parse_file(path).items():
            if sec not in cfg:
                raise ConfigError(f"unknown config section [{sec}]")
            for key, val in vals.items():
                if key not in cfg[sec]:
                    raise ConfigError(f"unknown key {key!r} in section [{sec}]")
                cfg[sec][key] = val
    for dotted, val in (overrides or {}).items():
        sec, key = dotted.split(".")
        cfg[sec][key] = str(val)
    return cfg


@dataclass(frozen=True)
class _Settings:
    """A resolved configuration, parsed into typed values."""

    p: TlsParams
    spec: SweepSpec
    n_points: int | None
    delta_max: float | None
    branch: str
    sigma: float | None
    tolerance: float


def _check(value, ok, message: str):
    """``value`` if ``ok(value)``, else a ValueError with ``message``."""
    if not ok(value):
        raise ValueError(message)
    return value


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
        except ValueError as exc:
            diagnostics.append(f"{sec}.{key} = {raw}: {exc}")
            return None

    def auto(convert):
        return lambda raw: None if raw == "auto" else convert(raw)

    n_points = field("grid", "n_points", auto(
        lambda raw: SpectralGrid(1.0, int(raw)).n_points))
    delta_max = field("grid", "delta_max", auto(
        lambda raw: SpectralGrid(float(raw), 3).delta_max))
    gamma_wg = field("tls", "gamma_wg",
                     lambda raw: TlsParams(gamma_wg=float(raw)).gamma_wg)
    p = field("tls", "beta", lambda raw: TlsParams.from_beta(
        float(raw), gamma_wg=gamma_wg or 1.0))
    betas = field("sweep", "beta_values", lambda raw: SweepSpec(
        beta_values=tuple(float(b) for b in raw.split(","))).beta_values)
    sigma_min = field("sweep", "sigma_min", float)
    sigma_max = field("sweep", "sigma_max", float)
    count = field("sweep", "sigma_count", lambda raw: _check(
        int(float(raw)), lambda n: n >= 2, "must be at least 2"))
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
                             sigma_count=count or 2, n_points=n_points)
        except ValueError as exc:
            diagnostics.append(f"sweep.sigma_min = {sigma_min}, "
                               f"sweep.sigma_max = {sigma_max}: {exc}")
    if None not in (n_points, delta_max, sigma):
        h = 2.0 * delta_max / (n_points - 1)
        if h > sigma / 10.0:
            diagnostics.append(
                f"grid resolution: spacing {h:.4g} exceeds sigma/10 "
                f"= {sigma / 10.0:.4g}")
    if diagnostics:
        return None, diagnostics
    return _Settings(p=p, spec=spec, n_points=n_points, delta_max=delta_max,
                     branch=branch, sigma=sigma, tolerance=tolerance), []


def validate_config(path: str) -> list:
    """Diagnostics for a config file: unknown keys, ranges, grid resolution."""
    diagnostics = []
    try:
        file_cfg = _parse_file(path)
    except ConfigError as exc:
        return [str(exc)]
    for sec, vals in file_cfg.items():
        if sec not in DEFAULTS:
            diagnostics.append(f"unknown section [{sec}]")
            continue
        for key in vals:
            if key not in DEFAULTS[sec]:
                diagnostics.append(f"unknown key {key!r} in section [{sec}]")
    if diagnostics:
        return diagnostics
    return _parse(load_config(path))[1]


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


def _demo_grid(s: _Settings) -> SpectralGrid:
    return SpectralGrid(
        _DEMO_DELTA_MAX if s.delta_max is None else s.delta_max,
        _DEMO_N_POINTS if s.n_points is None else s.n_points,
    )


def _refined_n(n_points: int | None, refine: int) -> int | None:
    """Sample count of the default grid policy refined ``refine`` times."""
    if refine == 1:
        return n_points
    base = SpectralGrid.for_pulse_width(1.0, n_points=n_points)
    return base.refine(refine).n_points


def _resolved_eta(p: TlsParams, sigma: float, n_points: int | None) -> float:
    """eta at width ``sigma`` on the default grid policy; unlike the root
    finder's evaluations, this refuses a grid that does not resolve the
    pulse."""
    if p.gamma_loss == 0.0:
        return eta_analytic(sigma, p.gamma_wg)
    grid = SpectralGrid.for_pulse_width(sigma, p.gamma_wg, n_points=n_points)
    return eta_numeric(p, make_pulse(PulseShape("lorentzian", sigma), grid))


def _operating_pulse(s: _Settings, grid: SpectralGrid):
    sigma = s.sigma
    if sigma is None:
        sigma = matching_sigma(s.p, branch=s.branch)
    pulse = make_pulse(PulseShape("lorentzian", sigma), grid)
    return sigma, pulse


# -- experiment table builders --------------------------------------------
# Each builder returns (columns, rows, headlines); headlines maps a scalar
# name to a callable taking a refinement factor (1 = base grid, 2 = doubled).


def _build_fig1b(s: _Settings):
    rows = fig1b_data(s.spec)
    columns = ["beta", "sigma_over_gamma", "eta", "half_eps1_sq",
               "is_crossing"]
    p = TlsParams.from_beta(s.spec.beta_values[0])

    def headline(refine):
        return _resolved_eta(p, 0.5, _refined_n(s.spec.n_points, refine))

    return columns, rows, {"eta_sigma_half": headline}


def _build_matched_curve(s: _Settings, columns, curve, name, figure):
    """Rows of a matched-point curve; the headline evaluates ``figure``
    (of eps_1) at the smallest matched beta."""
    rows = curve(s.spec, branch=s.branch)
    betas = [r["beta"] for r in rows if r["matched"]]
    p = TlsParams.from_beta(min(betas) if betas else 1.0)

    def headline(refine):
        sigma = matching_sigma(p, branch=s.branch,
                               n_points=_refined_n(s.spec.n_points, refine))
        return figure(epsilon1_analytic(p, sigma))

    return columns, rows, {name: headline}


def _build_loss_curves(s: _Settings):
    return _build_matched_curve(
        s, ["beta", "sigma", "two_photon_loss", "two_singles_loss",
            "matched"], loss_curves, "two_singles_loss",
        lambda eps1: 1.0 - eps1**2)


def _build_fig3(s: _Settings):
    return _build_matched_curve(
        s, ["beta", "bell_success", "cz_success", "matched"], fig3_data,
        "cz_success", lambda eps1: eps1**4)


def _build_matching_points(s: _Settings):
    p = s.p
    rows = []
    for branch in ("lower", "upper"):
        try:
            sigma = matching_sigma(p, branch=branch, n_points=s.n_points)
        except NoCrossingError:
            rows.append({"branch": branch, "sigma": float("nan"),
                         "eta_at_sigma": float("nan"),
                         "residual": float("nan"), "matched": False})
            continue
        eta = _resolved_eta(p, sigma, s.n_points)
        rows.append({
            "branch": branch,
            "sigma": sigma,
            "eta_at_sigma": eta,
            "residual": eta - 0.5 * epsilon1_analytic(p, sigma) ** 2,
            "matched": True,
        })
    columns = ["branch", "sigma", "eta_at_sigma", "residual", "matched"]

    def headline(refine):
        return matching_sigma(p, branch="upper",
                              n_points=_refined_n(s.n_points, refine))

    return columns, rows, {"sigma_upper": headline}


# Each demo's rows function takes (settings, grid) and returns the CSV rows
# and the value of its headline scalar on that grid.


def _sorter_rows(s: _Settings, grid):
    p = s.p
    sigma, pulse = _operating_pulse(s, grid)
    alpha = xi = 1.0 / np.sqrt(2.0)
    state = FewPhotonState.from_components(
        grid, ("sig",), ones={"sig": alpha * pulse.values},
        pairs={("sig", "sig"): xi * np.outer(pulse.values, pulse.values)})
    out = photon_sorter(state, "sig", p, pulse)
    anc_weight = project_detection(out, {sum_rail("sig"): 1})
    pump = make_pump(p, pulse)
    pair_out = scatter_two(p, product_state(pulse))
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


def _bell_rows(s: _Settings, grid):
    _, pulse = _operating_pulse(s, grid)
    rows = []
    success = {}
    for which in ("psi+", "psi-", "phi+", "phi-"):
        report = bell_analyzer(bell_state(grid, pulse, which), s.p, pulse)
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


def _ns_rows(s: _Settings, grid):
    p = s.p
    sigma, pulse = _operating_pulse(s, grid)
    amp = 1.0 / np.sqrt(3.0)

    def ns_state(pair_sign):
        return FewPhotonState.from_components(
            grid, ("sig",), amp, ones={"sig": amp * pulse.values},
            pairs={("sig", "sig"): pair_sign * amp
                   * np.outer(pulse.values, pulse.values)})

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


def _cz_rows(s: _Settings, grid):
    _, pulse = _operating_pulse(s, grid)
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
        report = cz_gate(logical_state(grid, pulse, amps_in), s.p, pulse)
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
    """A demo's rows on the demo grid; the headline reruns it only on a
    refined grid."""
    demo_rows, columns, name = _DEMOS[experiment]
    grid = _demo_grid(s)
    rows, base = demo_rows(s, grid)

    def headline(refine):
        return base if refine == 1 else demo_rows(s, grid.refine(refine))[1]

    return columns, rows, {name: headline}


_BUILDERS = {
    "fig1b": _build_fig1b,
    "loss-curves": _build_loss_curves,
    "fig3": _build_fig3,
    "matching-points": _build_matching_points,
    **{name: functools.partial(_build_demo, name) for name in _DEMOS},
}


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
        columns, rows, headlines = _BUILDERS[experiment](settings)
        values = {name: (fn(1), fn(2)) for name, fn in headlines.items()}
    except ResolutionError as exc:
        # grids the configuration does not spell out (sweep widths, the
        # matched operating point) are only checked when a pulse is sampled
        print(f"grid.n_points = {cfg['grid']['n_points']}, grid.delta_max = "
              f"{cfg['grid']['delta_max']}: {exc}", file=sys.stderr)
        return 2
    stem = experiment.replace("-", "_")
    try:
        write_csv(out / f"{stem}.csv", columns, rows)
    except OSError as exc:
        print(f"failed to write CSV: {exc}", file=sys.stderr)
        return 1

    tolerance = settings.tolerance
    conv_rows = []
    converged = True
    for name, (base, refined) in values.items():
        drift = abs(refined - base)
        ok = drift <= tolerance
        converged &= ok
        conv_rows.append({"scalar": name, "base_value": base,
                          "refined_value": refined, "drift": drift,
                          "tolerance": tolerance, "converged": ok})
    write_csv(out / "convergence.csv",
              ["scalar", "base_value", "refined_value", "drift", "tolerance",
               "converged"], conv_rows)

    manifest = {
        "experiment": experiment,
        "version": __version__,
        "config": cfg,
        "columns": columns,
        "convergence_tolerance": tolerance,
        "outputs": [f"{stem}.csv", "convergence.csv", f"plot_{stem}.py"],
    }
    with open(out / "manifest.json", "w", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    numeric = [c for c in columns[1:]
               if rows and isinstance(rows[0][c], (int, float, np.floating))
               and not isinstance(rows[0][c], bool)]
    plot = _PLOT_TEMPLATE.format(experiment=stem, csv_name=f"{stem}.csv",
                                 x=columns[0], y_cols=numeric[:4])
    (out / f"plot_{stem}.py").write_text(plot)

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
    runp.add_argument("--beta", type=float, default=None)
    runp.add_argument("--sigma", type=float, default=None)
    runp.add_argument("--grid-n", type=int, default=None)
    runp.add_argument("--grid-max", type=float, default=None)
    valp = sub.add_parser("validate", help="check a config file")
    valp.add_argument("--config", required=True)

    args = parser.parse_args(argv)
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
    if args.grid_max is not None:
        overrides["grid.delta_max"] = args.grid_max
    try:
        cfg = load_config(args.config, overrides)
    except (ConfigError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return run(args.experiment, cfg, args.out)


if __name__ == "__main__":
    sys.exit(main())
