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


def test_transfer_crossover_reports_both_batch_paths():
    done = run_script("transfer_crossover.py", "--quick", "--repeats", "1")
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()[1:]]
    # a short pair keeps the dense product, a long one takes the factor
    assert [(row[0], row[-1]) for row in rows] == [("seg2", "dense"), ("seg2", "factor")]


def test_solve_memory_reports_both_solvers_at_the_quick_sizes():
    done = run_script("solve_memory.py", "--quick")
    assert done.returncode == 0, done.stderr
    header, *lines = done.stdout.splitlines()
    assert header.split() == [
        "solver", "n_m", "n_s", "free", "L+U", "factor_s", "solve_s", "peak_mb",
        "residual",
    ]
    rows = [line.split() for line in lines]
    assert [row[:3] for row in rows] == [
        [solver, n_master, n_slave]
        for n_master, n_slave in (("128", "85"), ("256", "171"))
        for solver in ("solve_condensed", "solve_saddle")
    ]
    for _, _, _, free, fill, factor_s, solve_s, peak, residual in rows:
        assert int(fill) > int(free) > 0
        assert float(solve_s) > float(factor_s) > 0.0 and float(peak) > 0.0
        assert float(residual) < 1e-10


def test_line_count_leaves_out_docstrings_comments_and_blank_lines(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        '"""Module docstring,\nover two lines."""\n'
        "\n"
        "# a comment\n"
        "def f(x):\n"
        '    """Docstring."""\n'
        "    return (x +  # a trailing comment\n"
        "            1)\n"
    )
    done = run_script("line_count.py", str(source))
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [
        "3", "code", "lines", str(source), "3", "code", "lines", "total",
    ]
