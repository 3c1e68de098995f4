"""Every golden CLI run (``golden/regen.py``) writes the bytes kept under
``tests/golden/``.  A mismatch names each moved cell; a deliberate change
reruns ``python tests/golden/regen.py`` and lists the moved cells."""

import csv

import pytest

from golden.regen import HERE, RUNS, outputs, produce


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _key_width(rows):
    """The fewest leading columns that tell the rows apart."""
    for width in range(1, len(rows[0]) + 1):
        if len({tuple(row[:width]) for row in rows}) == len(rows):
            return width
    return len(rows[0])


def moved_cells(label, old_path, new_path):
    """One line per cell of ``new_path`` that differs from ``old_path``."""
    if old_path.read_bytes() == new_path.read_bytes():
        return []
    old, new = _rows(old_path), _rows(new_path)
    if old[0] != new[0] or len(old) != len(new):
        return [f"{label}: header or row count changed: {old[0]} "
                f"({len(old) - 1} rows) -> {new[0]} ({len(new) - 1} rows)"]
    width = _key_width(old[1:])
    lines = []
    for a, b in zip(old[1:], new[1:]):
        for column, x, y in zip(old[0], a, b):
            if x == y:
                continue
            try:
                diff = f" (diff {float(y) - float(x):.3e})"
            except ValueError:
                diff = ""
            lines.append(f"{label}: row {','.join(a[:width])}, column "
                         f"{column}: {x} -> {y}{diff}")
    return lines or [f"{label}: bytes differ, cells equal"]


@pytest.mark.parametrize("name, experiment, args", RUNS,
                         ids=[run[0] for run in RUNS])
def test_run_matches_golden(tmp_path, name, experiment, args):
    produce(tmp_path, experiment, args)
    moved = [line for file in outputs(experiment)
             for line in moved_cells(f"{name}/{file}", HERE / name / file,
                                     tmp_path / file)]
    assert not moved, "\n".join(moved)
