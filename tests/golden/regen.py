"""Golden outputs: the experiment CSV and ``convergence.csv`` of each run in
:data:`RUNS`, as this tree writes them.

    python tests/golden/regen.py

reruns every run in-process and rewrites the files under ``tests/golden/``;
``tests/test_golden.py`` reruns them and compares bytes.  Manifests are not
kept: they hold the package version, which a release changes.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parents[1] / "src"))

from tlsphot import cli  # noqa: E402

# (directory under tests/golden, experiment, CLI arguments): every
# experiment at beta 1 and 0.95, and the pair demos on a fine grid
RUNS = ([(f"beta1/{e}", e, []) for e in cli.EXPERIMENTS]
        + [(f"beta0.95/{e}", e, ["--beta", "0.95"]) for e in cli.EXPERIMENTS]
        + [(f"n16001-beta0.95/{e}", e, ["--grid-n", "16001", "--beta", "0.95"])
           for e in ("ns-demo", "cz-demo")])


def outputs(experiment: str) -> tuple:
    """The files of a run that are kept."""
    return f"{experiment.replace('-', '_')}.csv", "convergence.csv"


def produce(out: Path, experiment: str, args: list) -> None:
    """Run ``experiment`` with ``args``, writing its outputs to ``out``."""
    status = cli.main(["run", experiment, "--out", str(out), *args])
    if status != 0:
        raise RuntimeError(f"tlsphot run {experiment} {' '.join(args)} "
                           f"exited {status}")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="tlsphot-golden-") as tmp:
        for name, experiment, args in RUNS:
            produce(Path(tmp) / name, experiment, args)
            (HERE / name).mkdir(parents=True, exist_ok=True)
            for file in outputs(experiment):
                shutil.copyfile(Path(tmp) / name / file, HERE / name / file)
            print(f"wrote {name}")


if __name__ == "__main__":
    main()
