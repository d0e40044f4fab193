"""Command line driver for the experiment suite.

Usage follows ``mortar-rbf <experiment> [options]`` where the experiment
is one of interp_1d, interp_surface, kernel_study, poisson_2d or
scheme_compare (dashes are accepted in place of underscores).  Each
option flag sets one config key (see ``_FLAGS``); the flags are laid over
the ``--config`` file's settings and everything is parsed once, by the
same key table that reads config files.

Exit codes: 0 on success, 2 for configuration problems (unknown keys,
malformed values, unreadable files), 3 when the numerics fail (singular
operators, ill-conditioned kernel fits, solver breakdowns).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DegenerateElementError,
    IllConditionedKernelError,
    InvalidGeometryError,
    SingularOperatorError,
    SolverFailureError,
)
from .experiments import (
    _KERNEL_ALIASES,
    ExperimentConfig,
    ExperimentKind,
    _config_from_settings,
    _load_settings,
    run_experiment,
    serialize_config,
    write_outputs,
)
from .mortar import Scheme

_NUMERICAL_ERRORS = (
    DegenerateElementError,
    IllConditionedKernelError,
    InvalidGeometryError,
    SingularOperatorError,
    SolverFailureError,
    np.linalg.LinAlgError,
)

#: Each override flag, the config key it sets, and its --help metavar and
#: text.  Flag values are parsed as the key's text, like the config file.
_FLAGS = (
    ("--scheme", "scheme", "{%s}" % ",".join(s.value for s in Scheme),
     "mortar scheme override"),
    ("--kernel", "kernel", "{%s}" % ",".join(_KERNEL_ALIASES),
     "kernel family override"),
    ("--nm", "n_m", "N", "collocation points per element edge"),
    ("--gauss", "n_gauss", "N", "Gauss points per slave element"),
    ("--levels", "refinements", "N", "number of refinement levels"),
    ("--warp", "warp_amplitude", "AMPLITUDE", "out-of-plane warp amplitude"),
    ("--out", "out", "OUT", "output directory"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mortar-rbf",
        description="run one of the mortar coupling experiments",
    )
    parser.add_argument(
        "experiment",
        help="experiment name: %s" % ", ".join(k.value for k in ExperimentKind),
    )
    parser.add_argument("--config", type=Path, help="key = value config file")
    for flag, key, metavar, help_text in _FLAGS:
        parser.add_argument(flag, dest=key, metavar=metavar, help=help_text)
    parser.add_argument(
        "--print-config",
        action="store_true",
        help="print the effective config before running",
    )
    return parser


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    """Lay the experiment and the flags over the config file's settings.

    All settings, wherever they come from, are parsed once by the config
    key table, so a flag replaces its key's text before that text is read.
    """
    settings = _load_settings(args.config) if args.config else {}
    settings["experiment"] = args.experiment.replace("-", "_").lower()
    for _, key, _, _ in _FLAGS:
        if getattr(args, key) is not None:
            settings[key] = getattr(args, key)
    return _config_from_settings(settings)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.print_config:
        sys.stdout.write(serialize_config(config))

    try:
        result = run_experiment(config)
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # Config errors and parameter combinations rejected deep in the
        # library (for example a Gauss count below the admissible minimum)
        # are config mistakes.
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out_dir = config.out or Path(f"{config.experiment.value}_out")
    written = write_outputs(result, out_dir)
    sys.stdout.write(result.report)
    for stem in sorted(written):
        print(f"wrote {written[stem]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
