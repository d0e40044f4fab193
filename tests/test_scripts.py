"""The command line scripts run end to end from a source checkout."""

import os
import re
import subprocess
import sys
from pathlib import Path

from mortar_rbf.experiments import ExperimentKind

ROOT = Path(__file__).resolve().parents[1]


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def run_script(name, *args):
    return run_python(str(ROOT / "scripts" / name), *args)


def test_import_loads_neither_scipy_stats_nor_scipy_spatial():
    # together they take about 0.9 s to import, paid by every fresh process
    done = run_python(
        "-c",
        "import sys, mortar_rbf; "
        "print([m for m in ('scipy.stats', 'scipy.spatial') if m in sys.modules])",
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_kernel_study_first_row_times_only_its_fit():
    # a one-time cost (an import) would show in every fresh process, a
    # scheduling hiccup only now and then: the better of two runs decides
    code = (
        "import statistics; from mortar_rbf.experiments import "
        "ExperimentConfig, ExperimentKind, run_kernel_study; "
        "seconds = [row.assembly_seconds for row in "
        "run_kernel_study(ExperimentConfig(ExperimentKind.KERNEL_STUDY)).rows]; "
        "print(seconds[0] / statistics.median(seconds))"
    )
    ratios = []
    for _ in range(2):
        done = run_python("-c", code)
        assert done.returncode == 0, done.stderr
        ratios.append(float(done.stdout))
    assert min(ratios) < 20.0, ratios


def test_reproduce_convergence_prints_both_studies():
    done = run_script("reproduce_convergence.py", "--levels", "2")
    assert done.returncode == 0, done.stderr
    assert "1D interpolation transfer study" in done.stdout
    assert "coupled Poisson study" in done.stdout


def test_run_all_experiments_writes_every_output(tmp_path):
    done = run_script("run_all_experiments.py", "--quick", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    for kind in ExperimentKind:
        assert (tmp_path / kind.value / "sweep.csv").is_file()
        assert (tmp_path / kind.value / "report.txt").is_file()


def test_readme_python_examples_run():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert blocks
    for block in blocks:
        done = run_python("-c", block)
        assert done.returncode == 0, done.stderr
