"""Sweep rows and metrics of every experiment at small sizes, pinned.

``golden_sweeps.json`` holds, per experiment, each sweep row as its
``sweep.csv`` line without the ``assembly_seconds`` cell, and the
``metrics`` and ``orders`` of the result without the timing metrics.  A
refactor may move numbers only by summation order: numeric cells and
values agree within 1e-12 relative, every other cell exactly.  Regenerate
the file with ``PYTHONPATH=src python tests/test_golden_sweeps.py`` only
on a commit whose numbers are meant to be the reference.
"""

import json
import math
from pathlib import Path

import pytest

from mortar_rbf.experiments import (
    SWEEP_COLUMNS,
    ExperimentConfig,
    ExperimentKind,
    run_experiment,
)

GOLDEN = Path(__file__).with_name("golden_sweeps.json")
RTOL = 1e-12

#: Refinements per experiment; scheme_compare and kernel_study ignore them.
SIZES = {
    ExperimentKind.INTERP_1D: 2,
    ExperimentKind.INTERP_SURFACE: 2,
    ExperimentKind.KERNEL_STUDY: 1,
    ExperimentKind.POISSON_2D: 2,
    ExperimentKind.SCHEME_COMPARE: 1,
}

SECONDS_COLUMN = SWEEP_COLUMNS.index("assembly_seconds")


def snapshot(kind: ExperimentKind) -> dict:
    result = run_experiment(ExperimentConfig(kind, refinements=SIZES[kind]))
    return {
        "rows": [
            ",".join(c for i, c in enumerate(row.record()) if i != SECONDS_COLUMN)
            for row in result.rows
        ],
        "metrics": {
            k: v for k, v in result.metrics.items() if not k.startswith("time/")
        },
        "orders": result.orders,
    }


def _close(got: str | float, want: str | float) -> bool:
    if got == want:
        return True
    try:
        a, b = float(got), float(want)
    except ValueError:
        return False
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= RTOL * max(abs(a), abs(b))


@pytest.mark.parametrize("kind", list(SIZES), ids=lambda kind: kind.value)
def test_sweep_matches_golden_output(kind):
    want = json.loads(GOLDEN.read_text())[kind.value]
    got = snapshot(kind)
    assert len(got["rows"]) == len(want["rows"])
    for row, golden in zip(got["rows"], want["rows"]):
        cells, golden_cells = row.split(","), golden.split(",")
        assert len(cells) == len(golden_cells)
        assert all(map(_close, cells, golden_cells)), f"{row} != {golden}"
    for name in ("metrics", "orders"):
        assert got[name].keys() == want[name].keys()
        bad = [k for k in want[name] if not _close(got[name][k], want[name][k])]
        assert not bad, f"{name}: {[(k, got[name][k], want[name][k]) for k in bad]}"


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({kind.value: snapshot(kind) for kind in SIZES}, indent=1) + "\n"
    )
