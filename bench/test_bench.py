"""Tests of the benchmark itself: smoke mode, span arithmetic, empty checkout."""

import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracer  # noqa: E402


def test_smoke_reports_every_metric_and_gates_fire():
    lib = run.import_library()
    assert run.smoke(lib) == []


def test_self_time_subtracts_direct_children_only():
    spans = [
        {"id": 0, "name": "op.main", "parent": None, "run": "s1", "start": 0.0,
         "end": 10.0, "attrs": {"role": "main", "reps": 1}},
        {"id": 1, "name": "mortar.assemble", "parent": 0, "run": "s1", "start": 1.0,
         "end": 7.0, "attrs": {"scheme": "rb"}},
        {"id": 2, "name": "rbf.fit", "parent": 1, "run": "s1", "start": 2.0,
         "end": 4.0, "attrs": {"condition": 10.0}},
        {"id": 3, "name": "mortar.contact_search", "parent": 1, "run": "s1",
         "start": 4.0, "end": 5.0, "attrs": {"candidates": 3}},
    ]
    own = tracer.self_times(spans)
    assert own == {0: 4.0, 1: 3.0, 2: 2.0, 3: 1.0}
    summary = tracer.layer_summary(spans)
    assert summary["mortar.assemble_s.rb"] == 6.0
    assert summary["mortar.assemble_self_s.main"] == 3.0
    assert summary["rbf.fits"] == 1.0
    assert summary["mortar.candidates"] == 3.0
    assert tracer.coverage(spans) == {"main": 0.6}


def test_times_are_scaled_by_the_calibration_around_each_sample():
    calibration = run.Calibration()
    calibration.bursts = [{"mixed": m, "dense": 1.0} for m in (1.0, 3.0, 2.0)]
    assert calibration.around([0, 1, 2], "mixed") == [2.0, 2.5, 2.0]
    assert calibration.around([0, 1, 2], "dense") == [1.0, 1.0, 1.0]
    reference = run.CALIBRATION_REF_S["dense"]
    assert run.at_reference_speed([4.0, 8.0], [2.0, 4.0], "dense") == 2.0 * reference


def test_fails_without_printing_a_result_outside_a_checkout(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "transfer_1d",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
