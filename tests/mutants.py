"""Mutation gate: Tier-1 must kill every physics mutant listed here.

Each mutant is a one-line edit (name, file, old text, new text) of a file
under ``src/``; ``old`` may carry a neighbouring line as context, so that it
occurs exactly once.  For each mutant the repository is copied to a
temporary directory, the edit is applied to the copy, and Tier-1 runs there
with ``-x``.  A mutant is killed when a test fails, and the first failing
test is printed next to it.

    python tests/mutants.py [NAME ...]

runs every mutant, or those named.  Exit status: 0 if every mutant is
killed, 1 if any survives, 2 if an edit does not apply (its ``old`` text
does not occur exactly once) or pytest itself fails.  pytest does not
collect this file.  A verdict means something only if Tier-1 passes on the
unmutated tree.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
_NOT_COPIED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis",
                                     ".pytest_cache", "*.egg-info")

MUTANTS = [
    ("bound-term-sign", "src/tlsphot/scatter.py",
     "    kappa = 0.5j / np.pi\n",
     "    kappa = -0.5j / np.pi\n"),
    ("bound-term-phase", "src/tlsphot/scatter.py",
     "    kappa = 0.5j / np.pi\n",
     "    kappa = 0.5 / np.pi\n"),
    ("s-sign", "src/tlsphot/scatter.py",
     "    return (1.0 - t) / 1j\n",
     "    return (t - 1.0) / 1j\n"),
    ("memory-skips-single-photons", "src/tlsphot/modeops.py",
     "    ones = {r: _reversed(v) if r in selected else v\n",
     "    ones = {r: v if r in selected else v\n"),
    # inner(x, y) becomes <y|x>: the first argument is no longer conjugated
    ("inner-conjugates-wrong-side", "src/tlsphot/pairs.py",
     "def inner(x: FactoredPair, y: FactoredPair, w) -> complex:\n",
     "def inner(y: FactoredPair, x: FactoredPair, w) -> complex:\n"),
    ("prune-threshold-1e-14", "src/tlsphot/states.py",
     "_PRUNE_SQ = 1e-28 ",
     "_PRUNE_SQ = 1e-14 "),
    ("policy-window-30-widths", "src/tlsphot/grid.py",
     "DEFAULT_WINDOW_WIDTHS = 80\n",
     "DEFAULT_WINDOW_WIDTHS = 30\n"),
    ("closed-form-matching-factor", "src/tlsphot/scatter.py",
     "        return (eta_analytic(p, sigma)\n"
     "                - 0.5 * epsilon1_analytic(p, sigma) ** 2)\n",
     "        return (eta_analytic(p, sigma)\n"
     "                - 0.4999 * epsilon1_analytic(p, sigma) ** 2)\n"),
    ("epsilon1-3.9-sigma", "src/tlsphot/scatter.py",
     "    return 1.0 - 4 * g * (g + 1.0 + 4 * sigma) / (\n",
     "    return 1.0 - 4 * g * (g + 1.0 + 3.9 * sigma) / (\n"),
    # on real delta conj t(delta) = t(-delta): the emitter mirrored, its
    # group delay reversed, every modulus unchanged
    ("mirrored-transfer-coeff", "src/tlsphot/scatter.py",
     "    return num / den\n",
     "    return np.conj(num / den)\n"),
    # the sign gates' pair transmission eta2 applied as an amplitude
    ("eta2-exponent", "src/tlsphot/circuits.py",
     "transmission=np.sqrt(eta2))",
     "transmission=eta2)"),
    ("cz-outer-rails-sqrt-eps1", "src/tlsphot/circuits.py",
     "        eps1_amp = scatter_one(p, pulse).epsilon1\n",
     "        eps1_amp = np.sqrt(scatter_one(p, pulse).epsilon1)\n"),
    ("pump-not-normalized", "src/tlsphot/circuits.py",
     "            lambda: normalize(mode).values))\n",
     "            lambda: mode.values.copy()))\n"),
    ("cz-signs-swapped", "src/tlsphot/circuits.py",
     "(0, 1): -1.0, (1, 0): 1.0,",
     "(0, 1): 1.0, (1, 0): -1.0,"),
    # the sum-frequency detectors of q1u and q1l exchanged
    ("bell-detectors-swapped", "src/tlsphot/circuits.py",
     "    **{sum_rail(rail): d for d, rail in enumerate(RAILS4, 1)},\n",
     "    **{sum_rail(rail): d for d, rail in enumerate(\n"
     "        (\"q1l\", \"q1u\", \"q2u\", \"q2l\"), 1)},\n"),
    ("leakage-without-sqrt", "src/tlsphot/modeops.py",
     "    return float(np.sqrt(g_perp.norm_sq()))\n",
     "    return float(g_perp.norm_sq())\n"),
    # kappa = i / pi: the bound term's 2 pi dropped to pi
    ("bound-term-2pi", "src/tlsphot/scatter.py",
     "    kappa = 0.5j / np.pi\n",
     "    kappa = 1j / np.pi\n"),
    ("lost-mass-unclamped", "src/tlsphot/states.py",
     "max(lost, 0.0) if lossy else lost)",
     "lost if lossy else lost)"),
    # the door certifies no term: a rank-2 array would pass as one term
    ("door-skips-residual", "src/tlsphot/pairs.py",
     "    if _dense_norm_sq(values, w, (k, a, b)) > _DOOR_RTOL**2 * total:\n",
     "    if False:\n"),
]


def mutated(text: str, path: str, old: str, new: str) -> str:
    """``text`` of the file ``path`` with one edit, refusing an ``old`` that
    does not occur exactly once."""
    count = text.count(old)
    if count != 1:
        raise ValueError(f"{path}: {old!r} occurs {count} times, not once")
    return text.replace(old, new)


def run(path: str, old: str, new: str) -> tuple[int, str]:
    """Tier-1's exit status on a mutated copy, and its first failing test."""
    with tempfile.TemporaryDirectory(prefix="tlsphot-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_NOT_COPIED)
        file = copy / path
        file.write_text(mutated(file.read_text(), path, old, new))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [str(copy / "src"),
                                     os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(TIER1, cwd=copy, env=env, capture_output=True,
                              text=True)
    first = next((line.split(" - ")[0] for line in proc.stdout.splitlines()
                  if line.startswith(("FAILED ", "ERROR "))), "")
    return proc.returncode, first


def main(names: list) -> int:
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {', '.join(sorted(unknown))}")
        return 2
    # every edit must apply before any suite runs
    for name, path, old, new in chosen:
        try:
            mutated((ROOT / path).read_text(), path, old, new)
        except ValueError as exc:
            print(f"{name}: {exc}")
            return 2
    survived = errors = 0
    for name, path, old, new in chosen:
        start = time.perf_counter()
        status, first = run(path, old, new)
        took = f"{time.perf_counter() - start:5.1f} s"
        if status == 0:
            survived += 1
            print(f"survived  {name:30s} {took}")
        elif status in (1, 2) and first:
            print(f"killed    {name:30s} {took}  {first}")
        else:
            errors += 1
            print(f"error     {name:30s} {took}  pytest exited {status}")
    print(f"{len(chosen) - survived - errors} killed, {survived} survived, "
          f"{errors} errors, of {len(chosen)}")
    return 2 if errors else 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
