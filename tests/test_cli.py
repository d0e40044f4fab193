import pytest

from mortar_rbf.cli import _FLAGS, build_parser, main, resolve_config
from mortar_rbf.experiments import (
    _CONFIG_KEYS,
    ExperimentKind,
    parse_config,
    serialize_config,
)
from mortar_rbf.rbf import KernelFamily


def run_cli(*argv):
    return main(list(argv))


def test_small_run_writes_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    code = run_cli("interp-1d", "--levels", "2", "--out", str(out))
    captured = capsys.readouterr()
    assert code == 0
    assert (out / "sweep.csv").is_file()
    assert (out / "report.txt").is_file()
    assert not (out / "field.csv").exists()
    assert "1D interpolation transfer study" in captured.out
    assert f"wrote {out / 'sweep.csv'}" in captured.out
    # report.txt is the printed report, observed orders included, and no more
    report = (out / "report.txt").read_text()
    assert "order" in report
    assert captured.out.split("wrote ")[0] == report


def test_poisson_run_prints_its_orders(tmp_path, capsys):
    assert run_cli("poisson_2d", "--levels", "2", "--out", str(tmp_path)) == 0
    printed = capsys.readouterr().out
    assert "coupled Poisson study" in printed
    for token in ("rb", "eb", "sb"):
        assert f"  {token}: observed orders L2 " in printed


def test_unknown_experiment_is_a_config_error(capsys):
    assert run_cli("warp-drive") == 2
    err = capsys.readouterr().err
    assert "unknown experiment" in err
    assert "expected one of interp_1d, interp_surface" in err


def test_missing_config_file(tmp_path, capsys):
    code = run_cli("interp_1d", "--config", str(tmp_path / "absent.cfg"))
    assert code == 2
    assert "cannot read config file" in capsys.readouterr().err


def test_undecodable_config_file(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes("# r\xe9glage\nexperiment = interp_1d\n".encode("latin-1"))
    code = run_cli("interp_1d", "--config", str(path))
    assert code == 2
    assert "cannot read config file" in capsys.readouterr().err


def test_output_path_naming_a_file_is_refused_before_the_run(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    code = run_cli("interp_1d", "--levels", "2", "--out", str(out))
    captured = capsys.readouterr()
    assert code == 2
    assert f"error: cannot write to {out}:" in captured.err
    assert "1D interpolation transfer study" not in captured.out


def test_unknown_config_key(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("experiment = interp_1d\ncolor = red\n")
    assert run_cli("interp_1d", "--config", str(path)) == 2
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [
        ("epsilon", "nan"),
        ("epsilon", "inf"),
        ("warp_amplitude", "nan"),
        ("warp_amplitude", "inf"),
        ("seed", "-1"),
    ],
)
def test_out_of_range_settings_are_config_errors(tmp_path, capsys, key, value):
    path = tmp_path / "bad.cfg"
    path.write_text(f"{key} = {value}\n")
    code = run_cli(
        "scheme_compare", "--config", str(path), "--levels", "1",
        "--out", str(tmp_path / "run"),
    )
    assert code == 2
    assert key in capsys.readouterr().err


def test_bad_level_count(capsys):
    assert run_cli("interp_1d", "--levels", "0") == 2
    assert "refinements" in capsys.readouterr().err


def test_too_few_gauss_points_is_a_config_error(tmp_path, capsys):
    code = run_cli(
        "interp_1d", "--levels", "1", "--gauss", "1", "--out", str(tmp_path / "x")
    )
    assert code == 2
    assert "Gauss" in capsys.readouterr().err


def test_oversized_collocation_count(capsys):
    assert run_cli("interp_1d", "--nm", "50") == 2
    assert "n_per_edge" in capsys.readouterr().err


def test_exact_scheme_on_curved_interface_fails_numerically(tmp_path, capsys):
    code = run_cli(
        "poisson_2d", "--scheme", "sb", "--levels", "1", "--out", str(tmp_path / "p")
    )
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_print_config_reflects_overrides(tmp_path, capsys):
    out = tmp_path / "run"
    code = run_cli(
        "interp-1d",
        "--print-config",
        "--nm",
        "4",
        "--kernel",
        "wendland",
        "--levels",
        "2",
        "--out",
        str(out),
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    end = next(i for i, line in enumerate(lines) if line.startswith("out = "))
    config = parse_config("\n".join(lines[: end + 1]))
    assert config.experiment is ExperimentKind.INTERP_1D
    assert config.mortar.layout.n_per_edge == 4
    assert config.mortar.kernel_family is KernelFamily.WENDLAND_C2
    assert config.refinements == 2
    assert config.out == out


def test_config_file_with_flag_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "experiment = scheme_compare\nrefinements = 3\nseed = 5\nkernel = imq\n"
    )
    out = tmp_path / "results"
    code = run_cli(
        "interp-1d",
        "--config",
        str(path),
        "--levels",
        "2",
        "--print-config",
        "--out",
        str(out),
    )
    assert code == 0
    text = (out / "sweep.csv").read_text()
    assert "imq" in text


def test_flag_replaces_an_invalid_file_value(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("n_m = 50\n")
    code = run_cli(
        "interp_1d", "--config", str(path), "--nm", "4", "--levels", "1",
        "--out", str(tmp_path / "run"),
    )
    assert code == 0


def test_kernel_flag_accepts_every_config_alias(tmp_path, capsys):
    code = run_cli(
        "interp_1d", "--kernel", "gaussian", "--levels", "1", "--print-config",
        "--out", str(tmp_path / "run"),
    )
    assert code == 0
    assert "kernel = gaussian" in capsys.readouterr().out.splitlines()


def _printed_config(*argv):
    """The --print-config text of ``argv``, as key -> line."""
    text = serialize_config(resolve_config(build_parser().parse_args(list(argv))))
    return {line.partition(" = ")[0]: line for line in text.splitlines()}


# A non-default value for the key of every override flag.
_FLAG_VALUES = {
    "scheme": "eb",
    "kernel": "imq",
    "n_m": "4",
    "n_gauss": "8",
    "refinements": "2",
    "warp_amplitude": "0.05",
    "out": "X",
}


@pytest.mark.parametrize("flag, key", [entry[:2] for entry in _FLAGS])
def test_each_flag_sets_exactly_its_config_key(flag, key):
    assert key in {config_key.name for config_key in _CONFIG_KEYS}
    base = _printed_config("interp_1d")
    changed = _printed_config("interp_1d", flag, _FLAG_VALUES[key])
    differs = {k for k in base.keys() | changed.keys() if base.get(k) != changed.get(k)}
    assert differs == {key}
    assert changed[key] == f"{key} = {_FLAG_VALUES[key]}"


def test_flag_table_covers_every_override_flag():
    assert [entry[0] for entry in _FLAGS] == [
        "--scheme", "--kernel", "--nm", "--gauss", "--levels", "--warp", "--out",
    ]
