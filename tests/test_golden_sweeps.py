"""Sweep rows and metrics of every experiment at small sizes, pinned.

``golden_sweeps.json`` holds, per experiment, each sweep row as its
``sweep.csv`` line without the ``assembly_seconds`` cell, and the
``metrics`` and ``orders`` of the result without the timing metrics.  A
refactor may move numbers only by summation order: numeric cells and
values agree within 1e-12 relative, every other cell exactly.  The
``kernel_study`` conditions are compared by verdict instead: a fit beyond
``COND_LIMIT`` is flagged unstable, and its condition has no correct
digits (one BLAS thread moves them by up to 111x), so two such
conditions agree when both exceed the limit.  The flag itself, the error
cells and every condition below the limit are compared as values.

``PYTHONPATH=src python tests/test_golden_sweeps.py [kind ...]`` reruns the
named experiments (every one by default) on one BLAS thread.  It rewrites
only their cells and values that fail that bound, prints each one before
and after, and carries every other experiment over byte for byte, so the
diff of a regeneration shows the moves of the change that made it and not
the rounding of the host it ran on.  Four stable ``kernel_study`` fits
on 10 points per edge still move with the thread count: the committed
values are those of the default threads on 2 vCPU, and one thread moves
three of their conditions (4.7e5 to 6.0e7) by 1e-12 to 1.6e-10 relative
and one error by 1.5e-11, so name the experiments a change moves.  An
experiment that no longer exists is deleted from the file by hand.
"""

import os

if __name__ == "__main__":  # numpy reads the BLAS thread count on import
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

import json
import math
import sys
from pathlib import Path

import pytest

from mortar_rbf.experiments import (
    SWEEP_COLUMNS,
    ExperimentConfig,
    ExperimentKind,
    run_experiment,
)
from mortar_rbf.rbf import COND_LIMIT

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

#: Cells compared by verdict, per experiment: a row column (it precedes
#: the dropped seconds column, so its index holds) and a metric prefix.
VERDICT_COLUMNS = {"kernel_study": SWEEP_COLUMNS.index("cond_estimate")}
VERDICT_METRICS = {"kernel_study": "cond/"}


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


def _close(got: str | float, want: str | float, verdict: bool = False) -> bool:
    """Whether a cell agrees with its golden value: within ``RTOL``, or for
    a ``verdict`` cell beyond ``COND_LIMIT``, both beyond it."""
    if got == want:
        return True
    try:
        a, b = float(got), float(want)
    except ValueError:
        return False
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if verdict and max(a, b) > COND_LIMIT:
        return min(a, b) > COND_LIMIT
    return abs(a - b) <= RTOL * max(abs(a), abs(b))


def _verdict(kind: str, place: int | str) -> bool:
    """Whether the cell at row column ``place``, or the metric or order
    named ``place``, of experiment ``kind`` is compared by verdict."""
    if isinstance(place, int):
        return place == VERDICT_COLUMNS.get(kind)
    prefix = VERDICT_METRICS.get(kind)
    return prefix is not None and place.startswith(prefix)


def merge(golden: dict, fresh: dict) -> tuple[dict, list[str]]:
    """``golden`` with the experiments of ``fresh`` merged in, and one line
    per value that moved: its place, the old value and the new (None where
    absent).

    A fresh row cell, metric or order that agrees with ``golden`` (see
    :func:`_close`) is kept as written there.  A row whose cell count changed
    and a new row or name are taken whole; rows and names gone from a fresh
    experiment are dropped.  Experiments missing from ``fresh`` are carried
    over as they are.
    """
    merged, changes = dict(golden), []

    def pick(where, new, old, verdict=False):
        if old is not None and _close(new, old, verdict):
            return old
        changes.append(f"{where}: {old} -> {new}")
        return new

    for kind, snap in fresh.items():
        old = golden.get(kind, {})
        old_rows = old.get("rows", [])
        rows = []
        for i, row in enumerate(snap["rows"]):
            want = old_rows[i] if i < len(old_rows) else None
            if want is None or want.count(",") != row.count(","):
                changes.append(f"{kind}/rows[{i}]: {want} -> {row}")
                rows.append(row)
                continue
            cells = zip(row.split(","), want.split(","))
            rows.append(
                ",".join(
                    pick(f"{kind}/rows[{i}][{j}]", *cell, _verdict(kind, j))
                    for j, cell in enumerate(cells)
                )
            )
        changes += [
            f"{kind}/rows[{i}]: {old_rows[i]} -> None"
            for i in range(len(rows), len(old_rows))
        ]
        merged[kind] = {"rows": rows}
        for name in ("metrics", "orders"):
            previous = old.get(name, {})
            merged[kind][name] = {
                key: pick(
                    f"{kind}/{name}/{key}", value, previous.get(key), _verdict(kind, key)
                )
                for key, value in snap[name].items()
            }
            changes += [
                f"{kind}/{name}/{key}: {previous[key]} -> None"
                for key in sorted(previous.keys() - snap[name].keys())
            ]
    return merged, changes


@pytest.mark.parametrize("kind", list(SIZES), ids=lambda kind: kind.value)
def test_sweep_matches_golden_output(kind):
    want = json.loads(GOLDEN.read_text())[kind.value]
    got = snapshot(kind)
    assert len(got["rows"]) == len(want["rows"])
    for row, golden in zip(got["rows"], want["rows"]):
        cells, golden_cells = row.split(","), golden.split(",")
        assert len(cells) == len(golden_cells)
        verdicts = [_verdict(kind.value, j) for j in range(len(cells))]
        assert all(map(_close, cells, golden_cells, verdicts)), f"{row} != {golden}"
    for name in ("metrics", "orders"):
        assert got[name].keys() == want[name].keys()
        bad = [
            k
            for k in want[name]
            if not _close(got[name][k], want[name][k], _verdict(kind.value, k))
        ]
        assert not bad, f"{name}: {[(k, got[name][k], want[name][k]) for k in bad]}"


def test_merge_rewrites_only_cells_past_the_bound():
    golden = {
        "study": {
            "rows": ["0,rb,1.0,0.5", "1,rb,2.0,0.25", "2,rb,3.0,0.125"],
            "metrics": {"kept": 0.1, "moved": 0.2, "gone": 0.3},
            "orders": {"rb": 2.0},
        },
    }
    fresh = {
        "study": {
            "rows": ["0,rb,1.0000000000000002,0.5", "1,eb,2.0,0.2500001", "2,rb,3.0"],
            "metrics": {
                "kept": 0.1 * (1 + 1e-13),
                "moved": 0.2 * (1 + 1e-11),
                "new": 1.0,
            },
            "orders": {"rb": 2.0, "eb": float("nan")},
        }
    }
    merged, changes = merge(golden, fresh)
    assert merged["study"]["rows"] == ["0,rb,1.0,0.5", "1,eb,2.0,0.2500001", "2,rb,3.0"]
    assert merged["study"]["metrics"] == {
        "kept": 0.1,
        "moved": fresh["study"]["metrics"]["moved"],
        "new": 1.0,
    }
    assert merged["study"]["orders"]["rb"] == 2.0
    assert math.isnan(merged["study"]["orders"]["eb"])
    assert changes == [
        "study/rows[1][1]: rb -> eb",
        "study/rows[1][3]: 0.25 -> 0.2500001",
        "study/rows[2]: 2,rb,3.0,0.125 -> 2,rb,3.0",
        f"study/metrics/moved: 0.2 -> {fresh['study']['metrics']['moved']}",
        "study/metrics/new: None -> 1.0",
        "study/metrics/gone: 0.3 -> None",
        "study/orders/eb: None -> nan",
    ]
    assert merge(merged, fresh) == (merged, [])


def test_conditions_beyond_the_limit_compare_by_verdict():
    beyond, below = 10.0 * float(COND_LIMIT), float(COND_LIMIT) / 10.0
    assert _close(repr(beyond), repr(100.0 * beyond), verdict=True)
    assert not _close(repr(beyond), repr(below), verdict=True)
    assert not _close(repr(below), repr(below * (1 + 1e-10)), verdict=True)
    assert not _close(repr(beyond), repr(100.0 * beyond))

    def study(condition, flag, metric):
        cells = ["0"] * VERDICT_COLUMNS["kernel_study"] + [repr(condition), flag]
        return {
            "rows": [",".join(cells)],
            "metrics": {"cond/fit": condition, "fit": metric},
            "orders": {},
        }

    golden = {"kernel_study": study(beyond, "unstable", math.nan)}
    assert merge(golden, {"kernel_study": study(100.0 * beyond, "unstable", math.nan)})[1] == []
    _, changes = merge(golden, {"kernel_study": study(below, "stable", 0.5)})
    column = VERDICT_COLUMNS["kernel_study"]
    assert changes == [
        f"kernel_study/rows[0][{column}]: {beyond!r} -> {below!r}",
        f"kernel_study/rows[0][{column + 1}]: unstable -> stable",
        f"kernel_study/metrics/cond/fit: {beyond!r} -> {below!r}",
        "kernel_study/metrics/fit: nan -> 0.5",
    ]
    # the class belongs to kernel_study alone
    other = {"study": study(beyond, "unstable", math.nan)}
    assert len(merge(other, {"study": study(100.0 * beyond, "unstable", math.nan)})[1]) == 2


def test_merge_carries_experiments_missing_from_fresh_byte_for_byte():
    snap = {"rows": ["0,rb,0.1,0.2"], "metrics": {"m": 0.3}, "orders": {"rb": 2.0}}
    # the file as written by a regeneration: carried over, then named
    text = json.dumps({"kept": snap, "named": snap}, indent=1) + "\n"
    fresh = {"named": {**snap, "metrics": {"m": 0.3 * (1 + 1e-11)}}}
    merged, changes = merge(json.loads(text), fresh)
    assert list(merged) == ["kept", "named"]
    assert changes == [f"named/metrics/m: 0.3 -> {fresh['named']['metrics']['m']}"]
    written = json.dumps(merged, indent=1) + "\n"
    moved = [
        (old, new)
        for old, new in zip(text.splitlines(), written.splitlines())
        if old != new
    ]
    assert moved == [('   "m": 0.3', f'   "m": {fresh["named"]["metrics"]["m"]}')]
    assert merge(json.loads(text), {})[0] == json.loads(text)


if __name__ == "__main__":
    names = sys.argv[1:] or [kind.value for kind in SIZES]
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    merged, changes = merge(
        golden, {name: snapshot(ExperimentKind(name)) for name in names}
    )
    print("\n".join(changes) or "every cell within the bound; golden file unchanged")
    GOLDEN.write_text(json.dumps(merged, indent=1) + "\n")
