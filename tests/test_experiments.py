import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mortar_rbf import experiments
from mortar_rbf.errors import ConfigError
from mortar_rbf.experiments import (
    SWEEP_COLUMNS,
    ExperimentConfig,
    ExperimentKind,
    load_config,
    observed_order,
    parse_config,
    run_experiment,
    run_interp_1d,
    run_kernel_study,
    run_poisson_2d,
    run_scheme_compare,
    serialize_config,
    write_outputs,
)
from mortar_rbf.mortar import MortarConfig, Scheme
from mortar_rbf.rbf import COND_LIMIT, KernelFamily, LayoutKind, PointLayout

SECONDS_COLUMN = SWEEP_COLUMNS.index("assembly_seconds")


def rows_without_timing(result):
    return [
        [cell for idx, cell in enumerate(row.record()) if idx != SECONDS_COLUMN]
        for row in result.rows
    ]


def test_element_counts_follow_the_ratio():
    config = ExperimentConfig(ExperimentKind.INTERP_1D)
    assert config.element_counts(0) == (3, 2)
    assert config.element_counts(2) == (12, 8)
    coarser = ExperimentConfig(ExperimentKind.INTERP_1D, ratio=Fraction(3, 2))
    assert coarser.element_counts(0) == (2, 3)


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(ExperimentKind.INTERP_1D, refinements=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(ExperimentKind.INTERP_1D, refinements=9)
    with pytest.raises(ConfigError):
        ExperimentConfig(ExperimentKind.INTERP_1D, ratio=Fraction(-2, 3))
    with pytest.raises(ConfigError):
        ExperimentConfig(ExperimentKind.INTERP_1D, warp_amplitude=-0.1)


@pytest.mark.parametrize("key", ["refinements", "seed"])
def test_experiment_config_counts_must_be_integers(key):
    with pytest.raises(ConfigError, match=f"{key} must be an integer, got 2.5"):
        ExperimentConfig(**{key: 2.5})
    config = ExperimentConfig(**{key: np.int64(2)})
    assert type(getattr(config, key)) is int
    assert parse_config(serialize_config(config)) == config


def test_config_round_trips_through_the_text_format():
    config = ExperimentConfig(ExperimentKind.POISSON_2D, refinements=3, seed=7)
    text = serialize_config(config)
    assert parse_config(text) == config
    assert serialize_config(parse_config(text)) == text


def test_config_default_text_is_canonical():
    assert serialize_config(ExperimentConfig()) == (
        "experiment = interp_1d\n"
        "refinements = 5\n"
        "ratio = 2/3\n"
        "scheme = rb\n"
        "kernel = gaussian\n"
        "layout = uniform\n"
        "n_m = 6\n"
        "n_gauss = default\n"
        "epsilon = default\n"
        "warp_amplitude = 0.15\n"
        "seed = 0\n"
    )


def test_config_parsing_ignores_comments_and_blank_lines():
    config = parse_config(
        "# a comment\n\nexperiment = interp_1d\nrefinements = 2\n\n# trailing\n"
    )
    assert config.experiment is ExperimentKind.INTERP_1D
    assert config.refinements == 2


def test_kernel_aliases_are_accepted():
    config = parse_config("experiment = interp_1d\nkernel = ga\n")
    assert config.mortar.kernel_family is KernelFamily.GAUSSIAN
    config = parse_config("experiment = interp_1d\nkernel = wendland\n")
    assert config.mortar.kernel_family is KernelFamily.WENDLAND_C2


@pytest.mark.parametrize(
    "text",
    [
        "experiment = interp_1d\ncolor = red\n",
        "experiment = interp_1d\nrefinements = 2\nrefinements = 3\n",
        "experiment = interp_1d\nrefinements = soon\n",
        "experiment = interp_1d\nratio = 2/0\n",
        "experiment = interp_1d\nratio = fast\n",
        "experiment = warp_drive\n",
        "experiment = interp_1d\nkernel = cubic\n",
        "experiment = interp_1d\njust a line\n",
        "experiment = interp_1d\nn_m = 50\n",
        "experiment = interp_1d\nrefinements = 12\n",
        "experiment = interp_1d\nwarp_variant = flat\n",
        "experiment = interp_1d\nfunction = default\n",
        "experiment = interp_1d\nsupport_tol = 1e-06\n",
        "experiment = interp_1d\nnewton_tol = 1e-10\n",
        "experiment = interp_1d\nnewton_max_iter = 20\n",
    ],
)
def test_config_parse_errors(text):
    with pytest.raises(ConfigError):
        parse_config(text)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.cfg")


@settings(deadline=None, max_examples=40)
@given(
    experiment=st.sampled_from(list(ExperimentKind)),
    refinements=st.integers(min_value=1, max_value=8),
    ratio=st.fractions(min_value=Fraction(1, 9), max_value=Fraction(9, 1)),
    scheme=st.sampled_from(list(Scheme)),
    kernel=st.sampled_from(list(KernelFamily)),
    variant=st.sampled_from(list(LayoutKind)),
    n_m=st.integers(min_value=2, max_value=10),
    n_gauss=st.one_of(st.none(), st.integers(min_value=1, max_value=64)),
    seed=st.integers(min_value=0, max_value=10_000),
    warp_amplitude=st.sampled_from([0.0, 0.15, 0.4]),
)
def test_any_config_round_trips(
    experiment,
    refinements,
    ratio,
    scheme,
    kernel,
    variant,
    n_m,
    n_gauss,
    seed,
    warp_amplitude,
):
    config = ExperimentConfig(
        experiment=experiment,
        refinements=refinements,
        ratio=ratio,
        mortar=MortarConfig(
            scheme=scheme,
            n_gauss=n_gauss,
            kernel_family=kernel,
            layout=PointLayout(variant, n_m),
        ),
        warp_amplitude=warp_amplitude,
        seed=seed,
    )
    assert parse_config(serialize_config(config)) == config


def test_observed_order_recovers_synthetic_slopes():
    h = np.array([0.4, 0.2, 0.1, 0.05])
    assert observed_order(h, 3.0 * h**2.5) == pytest.approx(2.5, rel=1e-12)
    assert observed_order(h, 7.0 * h) == pytest.approx(1.0, rel=1e-12)
    assert math.isnan(observed_order(h, [1e-3, 1e-4, 0.0, 1e-6]))
    with pytest.raises(ValueError):
        observed_order([0.5], [1.0])


def test_interp_1d_produces_the_expected_sweep():
    result = run_interp_1d(ExperimentConfig(ExperimentKind.INTERP_1D, refinements=2))
    assert len(result.rows) == 16
    for row in result.rows:
        assert np.isfinite(row.l2_error)
        assert row.scheme in ("sb", "eb", "rb")
        if row.scheme == "rb":
            assert row.kernel in ("gaussian", "wendland")
            assert row.n_colloc == 6
        else:
            assert row.kernel == "" and row.n_colloc == 0
    assert set(result.orders) == {
        f"{kind}/{token}"
        for kind in ("seg2", "seg3")
        for token in ("sb", "eb", "rb/gaussian", "rb/wendland")
    }
    assert "seg3/sb" in result.report
    # Refinement from level 0 to 1 must shrink every scheme's error.
    by_key = {}
    for row in result.rows:
        by_key.setdefault((row.scheme, row.kernel, row.h_master), {})[row.level] = (
            row.l2_error
        )
    for levels in by_key.values():
        if len(levels) == 2:
            assert levels[1] < levels[0]


def test_interp_1d_with_wendland_configured_runs_it_once():
    config = ExperimentConfig(
        ExperimentKind.INTERP_1D,
        refinements=2,
        mortar=MortarConfig(kernel_family=KernelFamily.WENDLAND_C2),
    )
    result = run_interp_1d(config)
    assert len(result.rows) == 12
    labels = [
        f"{kind}/{token}"
        for kind in ("seg2", "seg3")
        for token in ("sb", "eb", "rb/wendland")
    ]
    assert list(result.orders) == labels
    # a title, then one block of three sweeps per element kind, and no
    # comparison of Wendland with itself
    title, *blocks = result.report.rstrip("\n").split("\n\n")
    assert title == "1D interpolation transfer study"
    assert [[line.split(":")[0] for line in block.split("\n")] for block in blocks] == [
        labels[:3],
        labels[3:],
    ]
    assert "finest-level quadratic-segment comparison" not in result.report


def test_scheme_compare_directionals():
    config = ExperimentConfig(ExperimentKind.SCHEME_COMPARE, refinements=3)
    result = run_scheme_compare(config)
    assert len(result.rows) == 15
    gauss_counts = (2, 4, 8, 16, 32)
    eb = [result.metrics[f"eb/n_gauss{n}"] for n in gauss_counts]
    sb = [result.metrics[f"sb/n_gauss{n}"] for n in gauss_counts]
    rb = [result.metrics[f"rb/n_gauss{n}"] for n in gauss_counts]
    assert all(a > b for a, b in zip(eb, eb[1:]))
    assert max(sb) < 1e-12
    assert rb[-1] < rb[0]
    for n in gauss_counts:
        assert result.metrics[f"time/eb/n_gauss{n}"] >= 0.0


def test_scheme_compare_is_deterministic_but_seed_sensitive():
    config = ExperimentConfig(ExperimentKind.SCHEME_COMPARE, refinements=3)
    first = run_scheme_compare(config)
    second = run_scheme_compare(config)
    assert rows_without_timing(first) == rows_without_timing(second)

    reseeded = run_scheme_compare(
        ExperimentConfig(ExperimentKind.SCHEME_COMPARE, refinements=3, seed=1)
    )
    eb_first = [first.metrics[f"eb/n_gauss{n}"] for n in (2, 4, 8)]
    eb_reseeded = [reseeded.metrics[f"eb/n_gauss{n}"] for n in (2, 4, 8)]
    assert eb_first != eb_reseeded


def test_kernel_study_directionals():
    result = run_kernel_study(ExperimentConfig(ExperimentKind.KERNEL_STUDY))
    assert len(result.rows) == 192
    for row in result.rows:
        names = tuple(name for name, _ in row.extra)
        assert names == ("element", "layout", "epsilon_policy", "stability")
    for element in ("seg3", "quad4"):
        for n in range(6, 11):
            clustered = result.metrics[f"{element}/wendland/sine/{n}/h_elem"]
            uniform = result.metrics[f"{element}/wendland/uniform/{n}/h_elem"]
            assert clustered <= uniform
    conds = [
        result.metrics[f"cond/seg3/gaussian/uniform/{n}/h_elem"] for n in range(3, 9)
    ]
    assert all(a < b for a, b in zip(conds, conds[1:]))
    for n in range(3, 11):
        ratio = (
            result.metrics[f"seg3/gaussian/sine/{n}/h_elem"]
            / result.metrics[f"seg3/gaussian/uniform/{n}/h_elem"]
        )
        assert ratio < 2.0
    for n in range(3, 7):
        ratio = (
            result.metrics[f"quad4/gaussian/sine/{n}/h_elem"]
            / result.metrics[f"quad4/gaussian/uniform/{n}/h_elem"]
        )
        assert ratio < 2.0
    fill_keys = [key for key in result.metrics if key.endswith("/2_fill")]
    assert fill_keys and all(np.isfinite(result.metrics[k]) for k in fill_keys)


def test_poisson_experiment_reports_constraints_and_field():
    config = ExperimentConfig(ExperimentKind.POISSON_2D, refinements=2)
    result = run_poisson_2d(config)
    assert len(result.rows) == 6
    for row in result.rows:
        assert row.h1_error is not None and np.isfinite(row.h1_error)
    for token in ("rb", "eb", "sb"):
        for level in (0, 1):
            assert result.metrics[f"flat/{token}/constraint/level{level}"] < 1e-10
    assert result.metrics["curved/constraint_residual"] < 1e-10
    assert np.isfinite(result.metrics["curved/l2"])
    assert result.field_points is not None
    assert result.field_points.shape[1] == 3
    assert np.all(result.field_points[:, 2] >= 0.0)


def test_one_level_poisson_study_fits_no_orders():
    result = run_poisson_2d(ExperimentConfig(ExperimentKind.POISSON_2D, refinements=1))
    assert [(row.scheme, row.level) for row in result.rows] == [
        ("rb", 0),
        ("eb", 0),
        ("sb", 0),
    ]
    assert result.orders == {}
    assert "observed orders" not in result.report
    assert "rb: broken L2 [" in result.report


def test_surface_experiment_directionals():
    config = ExperimentConfig(ExperimentKind.INTERP_SURFACE, refinements=2)
    result = run_experiment(config)
    for level in (0, 1):
        assert (
            result.metrics[f"flat/quad8/rb/6/level{level}"]
            <= result.metrics[f"flat/quad8/rb/4/level{level}"]
        )
    for role in ("coarse_master", "fine_master"):
        ratio = result.metrics[f"warped/{role}/rb"] / result.metrics[
            f"warped/{role}/eb"
        ]
        assert abs(ratio - 1.0) < 0.15


def test_write_outputs_layout(tmp_path):
    result = run_poisson_2d(ExperimentConfig(ExperimentKind.POISSON_2D, refinements=1))
    paths = write_outputs(result, tmp_path / "out")
    sweep = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert sweep[0] == ",".join(SWEEP_COLUMNS) == (
        "level,h_master,h_slave,scheme,kernel,n_M,n_gauss,l2_error,h1_error,"
        "rmse,cond_estimate,assembly_seconds,dropped_fraction"
    )
    assert len(sweep) == 1 + len(result.rows)
    assert (tmp_path / "out" / "report.txt").read_text() == result.report
    field = (tmp_path / "out" / "field.csv").read_text().splitlines()
    assert field[0] == "x,y,abs_error"
    assert len(field) == 1 + result.field_points.shape[0]
    assert set(paths) == {"sweep", "report", "field"}


def test_write_outputs_appends_extra_columns(tmp_path):
    result = run_kernel_study(ExperimentConfig(ExperimentKind.KERNEL_STUDY))
    write_outputs(result, tmp_path)
    header = (tmp_path / "sweep.csv").read_text().splitlines()[0]
    assert header == ",".join(
        SWEEP_COLUMNS + ("element", "layout", "epsilon_policy", "stability")
    )
    first = (tmp_path / "sweep.csv").read_text().splitlines()[1].split(",")
    assert len(first) == len(SWEEP_COLUMNS) + 4


def test_kernel_study_marks_fits_beyond_the_condition_limit(tmp_path):
    # quad4 Gaussian fits from 7 points per edge have conditions of 1e18 to
    # 1e20; their rmse is roundoff and must not be reported as a number
    result = run_kernel_study(ExperimentConfig(ExperimentKind.KERNEL_STUDY))
    unstable = [row for row in result.rows if ("stability", "unstable") in row.extra]
    assert unstable
    assert all(row.cond_estimate > COND_LIMIT for row in unstable)
    assert all(row.rmse is None and row.l2_error is None for row in unstable)
    stable = [row for row in result.rows if row not in unstable]
    assert all(row.cond_estimate <= COND_LIMIT for row in stable)
    assert all(np.isfinite(row.rmse) for row in stable)
    assert np.isnan(result.metrics["quad4/gaussian/uniform/10/h_elem"])

    write_outputs(result, tmp_path)
    lines = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    marked = [line.split(",") for line in lines if line.endswith(",unstable")]
    assert len(marked) == len(unstable)
    rmse_cell = SWEEP_COLUMNS.index("rmse")
    assert all(cells[rmse_cell] == "" for cells in marked)
    report = (tmp_path / "report.txt").read_text().splitlines()
    gaussian = next(line for line in report if line.startswith("quad4 gaussian:"))
    assert gaussian.count("(unstable at n=7,8,9,10)") == 2


def test_sweeps_are_reproducible_modulo_timing():
    config = ExperimentConfig(ExperimentKind.INTERP_1D, refinements=2)
    assert rows_without_timing(run_interp_1d(config)) == rows_without_timing(
        run_interp_1d(config)
    )


def test_each_sweep_row_assembles_once(monkeypatch):
    calls = Counter()

    def counted(name):
        original = getattr(experiments, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(experiments, name, call)

    counted("assemble")
    counted("build_system")
    for run, kind in (
        (run_interp_1d, ExperimentKind.INTERP_1D),
        (run_experiment, ExperimentKind.INTERP_SURFACE),
    ):
        calls.clear()
        result = run(ExperimentConfig(kind, refinements=1))
        assert calls == {"assemble": len(result.rows)}

    calls.clear()
    result = run_scheme_compare(ExperimentConfig(ExperimentKind.SCHEME_COMPARE))
    # one more for the exact sb reference the rows are measured against
    assert calls == {"assemble": len(result.rows) + 1}

    calls.clear()
    result = run_poisson_2d(ExperimentConfig(ExperimentKind.POISSON_2D, refinements=2))
    # the curved-interface solve may build its one system through here too
    assert calls["assemble"] == 0
    assert calls["build_system"] in (len(result.rows), len(result.rows) + 1)
