"""Experiment drivers: interpolation sweeps, kernel studies, Poisson convergence.

Each ``run_*`` function takes an :class:`ExperimentConfig` and returns an
:class:`ExperimentResult` holding sweep rows, a human-readable report and a
few named scalar metrics.  ``write_outputs`` serializes a result into the
``sweep.csv`` / ``report.txt`` / ``field.csv`` files the command line tool
emits.  Everything is deterministic for a fixed config and seed; only the
``assembly_seconds`` column varies between runs.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from .elements import ElementKind, gauss_rule, min_gauss_points, shape_values
from .errors import ConfigError
from .meshes import (
    InterfaceMesh,
    Side,
    element_geometry,
    mesh_size,
    segment_pair,
    sine_bump,
    split_unit_square,
    surface_pair,
)
from .mortar import (
    AssemblyStats,
    InterfacePair,
    MortarConfig,
    Scheme,
    assemble,
    compute_transfer,
    interface_transfer,
)
from .poisson import PoissonProblem, broken_norms, build_system, solve, solve_condensed
from .rbf import (
    KernelFamily,
    LayoutKind,
    PointLayout,
    basis_diagnostics,
    halton_reference_points,
    interpolation_points,
)

__all__ = [
    "SWEEP_COLUMNS",
    "ExperimentConfig",
    "ExperimentKind",
    "ExperimentResult",
    "SweepRow",
    "load_config",
    "observed_order",
    "parse_config",
    "run_experiment",
    "run_interp_1d",
    "run_interp_surface",
    "run_kernel_study",
    "run_poisson_2d",
    "run_scheme_compare",
    "serialize_config",
    "write_outputs",
]


class ExperimentKind(str, Enum):
    INTERP_1D = "interp_1d"
    INTERP_SURFACE = "interp_surface"
    KERNEL_STUDY = "kernel_study"
    POISSON_2D = "poisson_2d"
    SCHEME_COMPARE = "scheme_compare"


_KERNEL_ALIASES = {
    "ga": KernelFamily.GAUSSIAN,
    "gaussian": KernelFamily.GAUSSIAN,
    "imq": KernelFamily.INV_MULTIQUADRIC,
    "wendland": KernelFamily.WENDLAND_C2,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment run.

    ``ratio`` is the target master/slave mesh-size ratio as an exact
    rational; 2/3 makes the master side the finer one.  ``refinements``
    counts levels in a sweep (and sets the resolution of single-shot
    runs).  The mortar sub-config carries scheme, kernel, collocation
    layout and quadrature choices; experiments that compare schemes or
    kernels override those fields per run and keep the rest.
    """

    experiment: ExperimentKind = ExperimentKind.INTERP_1D
    refinements: int = 5
    ratio: Fraction = Fraction(2, 3)
    mortar: MortarConfig = field(default_factory=MortarConfig)
    warp_amplitude: float = 0.15
    seed: int = 0
    out: Path | None = None

    def __post_init__(self):
        object.__setattr__(self, "experiment", ExperimentKind(self.experiment))
        object.__setattr__(self, "ratio", Fraction(self.ratio))
        if not 1 <= self.refinements <= 8:
            raise ConfigError(
                f"refinements must lie in [1, 8], got {self.refinements}"
            )
        if self.ratio <= 0:
            raise ConfigError(f"mesh ratio must be positive, got {self.ratio}")
        if not 0.0 <= self.warp_amplitude < np.inf:
            raise ConfigError(
                f"warp_amplitude must be finite and non-negative, "
                f"got {self.warp_amplitude}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")

    def element_counts(self, level: int) -> tuple[int, int]:
        """(master, slave) element counts at a refinement level.

        The denominator of the ratio scales the master count so that
        h_master/h_slave equals the configured rational exactly on a
        shared span.
        """
        return (
            self.ratio.denominator * 2**level,
            self.ratio.numerator * 2**level,
        )


@dataclass(frozen=True)
class SweepRow:
    """One row of sweep.csv: its fields in order, then the ``extra`` cells.

    A cell reads empty for None, ``repr`` for a float and ``str`` for
    anything else.
    """

    level: int
    h_master: float
    h_slave: float
    scheme: str
    kernel: str
    n_colloc: int
    n_gauss: int
    l2_error: float | None
    h1_error: float | None = None
    rmse: float | None = None
    cond_estimate: float | None = None
    assembly_seconds: float = 0.0
    dropped_fraction: float = 0.0
    #: Extra (name, value) pairs appended after the standard columns;
    #: every row of one result must carry the same names.
    extra: tuple[tuple[str, str], ...] = ()

    def record(self) -> list[str]:
        cells = [_cell(getattr(self, f.name)) for f in _SWEEP_FIELDS]
        cells.extend(value for _, value in self.extra)
        return cells


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


_SWEEP_FIELDS = [f for f in fields(SweepRow) if f.name != "extra"]

#: Column order of sweep.csv.  The header names are part of the output
#: contract, so ``n_colloc`` keeps its column name ``n_M``.
SWEEP_COLUMNS = tuple(
    "n_M" if f.name == "n_colloc" else f.name for f in _SWEEP_FIELDS
)


@dataclass
class ExperimentResult:
    rows: list[SweepRow]
    report: str
    orders: dict[str, float] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)
    #: Optional point-wise error samples, columns (x, y[, z], abs_error).
    field_points: np.ndarray | None = None


def observed_order(h_values, errors) -> float:
    """Least-squares slope of log(error) vs log(h) over the finest levels.

    Uses the last three levels when available, which skips pre-asymptotic
    behavior on coarse grids.
    """
    h = np.asarray(h_values, float)
    e = np.asarray(errors, float)
    if h.size < 2:
        raise ValueError("order estimation needs at least two levels")
    n = min(3, h.size)
    if np.any(e[-n:] <= 0.0):
        return float("nan")
    return float(np.polyfit(np.log(h[-n:]), np.log(e[-n:]), 1)[0])


def _timed(call, *args, **kwargs):
    """``call(*args, **kwargs)`` and its wall seconds."""
    start = time.perf_counter()
    result = call(*args, **kwargs)
    return result, time.perf_counter() - start


def _sweep_row(
    level: int,
    master,
    slave,
    mortar: MortarConfig,
    kind: ElementKind,
    stats: AssemblyStats,
    seconds: float,
    **errors,
) -> SweepRow:
    """One sweep row of a run with ``mortar`` on slave interface elements
    of ``kind``; kernel and collocation columns are filled for ``rb`` only.
    """
    rb = mortar.scheme is Scheme.RB
    return SweepRow(
        level=level,
        h_master=mesh_size(master),
        h_slave=mesh_size(slave),
        scheme=mortar.scheme.value,
        kernel=mortar.kernel_family.value if rb else "",
        n_colloc=mortar.layout.n_per_edge if rb else 0,
        n_gauss=(
            mortar.n_gauss if mortar.n_gauss is not None else min_gauss_points(kind)
        ),
        assembly_seconds=seconds,
        dropped_fraction=stats.dropped_fraction,
        **errors,
    )


# ---------------------------------------------------------------------------
# Analytic test functions: the 1D, flat surface and warped surface transfer
# fields, and the manufactured Poisson problem


def _sin4_plus_square(p):
    return np.sin(4.0 * p[..., 0]) + p[..., 0] * p[..., 0]


def _sin4x_cos4y(p):
    return np.sin(4.0 * p[..., 0]) * np.cos(4.0 * p[..., 1])


def _sinx_plus_cosy(p):
    return np.sin(p[..., 0]) + np.cos(p[..., 1])


def _bubble_source(x, y):
    return 32.0 * (x * (1.0 - x) + y * (1.0 - y))


def _bubble_exact(x, y):
    return 16.0 * x * y * (1.0 - x) * (1.0 - y)


def _bubble_gradient(x, y):
    """Gradient of :func:`_bubble_exact`, components on a trailing axis."""
    gx = 16.0 * y * (1.0 - y) * (1.0 - 2.0 * x)
    gy = 16.0 * x * (1.0 - x) * (1.0 - 2.0 * y)
    return np.stack([gx, gy], axis=-1)


def _bubble_problem(master, slave) -> PoissonProblem:
    """The manufactured bubble problem on a split square."""
    return PoissonProblem(
        master,
        slave,
        _bubble_source,
        exact=_bubble_exact,
        exact_gradient=_bubble_gradient,
    )


def _transfer_l2_error(slave: InterfaceMesh, values: np.ndarray, fn: Callable) -> float:
    """L2 norm of (transferred FE field - exact) over the slave interface."""
    n_1d = 10
    rule = gauss_rule(
        slave.kind, n_1d if slave.kind.ref_dim == 1 else n_1d * n_1d
    )
    phys, metric = element_geometry(slave, rule.points)
    approx = values[slave.connectivity] @ shape_values(slave.kind, rule.points).T
    squared = rule.weights * np.sqrt(metric) * (approx - fn(phys)) ** 2
    return float(np.sqrt(squared.sum()))


def _transfer_row(
    level: int,
    master: InterfaceMesh,
    slave: InterfaceMesh,
    mortar: MortarConfig,
    fn: Callable,
) -> SweepRow:
    """Assemble the pair once, timing that call, transfer ``fn`` from the
    master nodes and report the slave L2 error."""
    mats, seconds = _timed(assemble, InterfacePair(master, slave), mortar)
    values = interface_transfer(compute_transfer(mats), fn(master.nodes))
    return _sweep_row(
        level,
        master,
        slave,
        mortar,
        slave.kind,
        mats.stats,
        seconds,
        l2_error=_transfer_l2_error(slave, values, fn),
    )


def _level_sweep(
    config: ExperimentConfig,
    n_levels: int,
    make_pair: Callable,
    fn: Callable,
    mortar: MortarConfig,
    label: str,
    rows: list[SweepRow],
    orders: dict[str, float],
) -> tuple[list[float], str]:
    """Transfer errors of one scheme over ``n_levels`` refinement levels.

    Appends one row per level to ``rows`` and, from two levels on, the
    observed order under ``label`` to ``orders``.  Returns the errors and
    the report line.
    """
    sweep = [
        _transfer_row(level, *make_pair(*config.element_counts(level)), mortar, fn)
        for level in range(n_levels)
    ]
    rows.extend(sweep)
    errors = [row.l2_error for row in sweep]
    if n_levels >= 2:
        orders[label] = observed_order([row.h_slave for row in sweep], errors)
    formatted = ", ".join(f"{e:.4e}" for e in errors)
    order_text = f"{orders[label]:.3f}" if label in orders else "n/a"
    return errors, f"{label}: errors [{formatted}], order {order_text}"


# ---------------------------------------------------------------------------
# Experiments


def run_interp_1d(config: ExperimentConfig) -> ExperimentResult:
    """Transfer-error convergence on 1D pairs over [-1, 1].

    Runs linear and quadratic segment pairs through SB, EB and RB (with
    the configured kernel plus Wendland for the smoothness contrast) and
    reports observed orders of the slave-side L2 error.
    """
    rb_kernels = [config.mortar.kernel_family]
    if KernelFamily.WENDLAND_C2 not in rb_kernels:
        rb_kernels.append(KernelFamily.WENDLAND_C2)

    rows: list[SweepRow] = []
    orders: dict[str, float] = {}
    metrics: dict[str, float] = {}
    lines = ["1D interpolation transfer study", ""]
    for kind in (ElementKind.SEG2, ElementKind.SEG3):
        runs = [
            replace(config.mortar, scheme=Scheme.SB1D),
            replace(config.mortar, scheme=Scheme.EB),
        ] + [
            replace(config.mortar, scheme=Scheme.RB, kernel_family=kernel)
            for kernel in rb_kernels
        ]
        for mortar in runs:
            label = f"{kind.value}/{mortar.scheme.value}"
            if mortar.scheme is Scheme.RB:
                label += f"/{mortar.kernel_family.value}"
            errors, line = _level_sweep(
                config,
                config.refinements,
                partial(segment_pair, kind=kind, span=(-1.0, 1.0)),
                _sin4_plus_square,
                mortar,
                label,
                rows,
                orders,
            )
            lines.append(line)
            metrics[f"finest/{label}"] = errors[-1]
        lines.append("")
    ga_key = f"finest/seg3/rb/{config.mortar.kernel_family.value}"
    wl_key = "finest/seg3/rb/wendland"
    if ga_key in metrics and wl_key in metrics and ga_key != wl_key:
        lines.append(
            "finest-level quadratic-segment comparison: "
            f"{config.mortar.kernel_family.value} {metrics[ga_key]:.4e} "
            f"vs wendland {metrics[wl_key]:.4e}"
        )
    return ExperimentResult(rows, "\n".join(lines).strip() + "\n", orders, metrics)


def run_interp_surface(config: ExperimentConfig) -> ExperimentResult:
    """Flat surface sweeps plus a warped non-conforming comparison.

    The flat part refines bilinear and serendipity quadrilateral pairs
    and runs EB against RB at 4 and 6 collocation points per edge.  The
    warped part runs one pair (both role assignments) with an identical
    out-of-plane bump on both sides, comparing RB and EB L2 errors.
    """
    rows: list[SweepRow] = []
    orders: dict[str, float] = {}
    metrics: dict[str, float] = {}
    lines = ["surface interpolation transfer study", "", "flat sweeps:"]

    flat_levels = min(config.refinements, 4)
    for kind in (ElementKind.QUAD4, ElementKind.QUAD8):
        runs = [replace(config.mortar, scheme=Scheme.EB)] + [
            replace(
                config.mortar,
                scheme=Scheme.RB,
                layout=replace(config.mortar.layout, n_per_edge=n_colloc),
            )
            for n_colloc in (4, 6)
        ]
        for mortar in runs:
            label = f"{kind.value}/{mortar.scheme.value}"
            if mortar.scheme is Scheme.RB:
                label += f"/{mortar.layout.n_per_edge}"
            errors, line = _level_sweep(
                config,
                flat_levels,
                partial(surface_pair, kind=kind),
                _sin4x_cos4y,
                mortar,
                label,
                rows,
                orders,
            )
            for idx, err in enumerate(errors):
                metrics[f"flat/{label}/level{idx}"] = err
            lines.append(f"  {line}")

    lines += ["", "warped pair (identical bump on both sides):"]
    warp = sine_bump(config.warp_amplitude)
    top_level = config.refinements - 1
    counts = config.element_counts(top_level)
    fine, coarse = max(counts), min(counts)
    for n_master, n_slave, role in (
        (coarse, fine, "coarse_master"),
        (fine, coarse, "fine_master"),
    ):
        master, slave = surface_pair(
            n_master, n_slave, ElementKind.QUAD4, warp_master=warp, warp_slave=warp
        )
        for scheme in (Scheme.RB, Scheme.EB):
            mortar = replace(config.mortar, scheme=scheme)
            row = _transfer_row(top_level, master, slave, mortar, _sinx_plus_cosy)
            rows.append(row)
            metrics[f"warped/{role}/{scheme.value}"] = row.l2_error
        rb_err = metrics[f"warped/{role}/rb"]
        eb_err = metrics[f"warped/{role}/eb"]
        lines.append(
            f"  {role}: rb {rb_err:.4e}  eb {eb_err:.4e}  ratio {rb_err / eb_err:.4f}"
        )
    return ExperimentResult(rows, "\n".join(lines) + "\n", orders, metrics)


def _fill_distance(
    mesh: InterfaceMesh, elem: int, layout: PointLayout, sample: np.ndarray
) -> float:
    """Largest distance from a dense element sample, given as reference
    points, to the collocation set."""
    colloc_ref = interpolation_points(mesh.kind, layout)
    colloc = element_geometry(mesh, colloc_ref, [elem])[0][0]
    probes = element_geometry(mesh, sample, [elem])[0][0]
    return float(np.linalg.norm(probes[:, None] - colloc, axis=-1).min(axis=1).max())


def _rmse_range(by_count: dict[int, float]) -> str:
    """First..last RMSE of the stable fits, then the unstable point counts."""
    stable = [v for v in by_count.values() if not np.isnan(v)]
    text = f"{stable[0]:.3e}..{stable[-1]:.3e}" if stable else "none stable"
    unstable = [str(n) for n, v in by_count.items() if np.isnan(v)]
    if unstable:
        text += f" (unstable at n={','.join(unstable)})"
    return text


def run_kernel_study(config: ExperimentConfig) -> ExperimentResult:
    """Basis-interpolation quality per kernel, layout and point count.

    Fits one master element per element family and records the RMSE of the
    rescaled basis reproduction together with the kernel matrix condition
    estimate.  Two shape-parameter policies run side by side: the element
    circumdiameter (default) and twice the collocation fill distance.
    Fits that :func:`~.rbf.basis_diagnostics` flags unstable (beyond
    :data:`~.rbf.COND_LIMIT`, where assembly refuses them) carry weights
    made of roundoff: their rows are marked unstable, with empty error
    cells and a NaN metric, instead of reporting an RMSE.
    """
    rows: list[SweepRow] = []
    metrics: dict[str, float] = {}
    lines = ["kernel and layout study", ""]

    meshes = (
        ("seg3", segment_pair(2, 3, ElementKind.SEG3)[0]),
        ("quad4", surface_pair(2, 3, ElementKind.QUAD4)[0]),
    )
    for element_label, mesh in meshes:
        h_elem = mesh_size(mesh)
        # drawn before any fit is timed: the first draw imports scipy.stats
        fill_sample = halton_reference_points(mesh.kind, 400)
        for family in KernelFamily:
            for variant in (LayoutKind.UNIFORM, LayoutKind.SINE):
                for n_colloc in range(3, 11):
                    layout = PointLayout(variant, n_colloc)
                    for policy in ("h_elem", "2_fill"):
                        epsilon = None
                        if policy == "2_fill":
                            epsilon = 2.0 * _fill_distance(
                                mesh, 0, layout, fill_sample
                            )
                        diag, seconds = _timed(
                            basis_diagnostics, mesh, 0, layout, family, epsilon=epsilon
                        )
                        error = None if diag.unstable else diag.rmse
                        stability = "unstable" if diag.unstable else "stable"
                        key = (
                            f"{element_label}/{family.value}/{variant.value}"
                            f"/{n_colloc}/{policy}"
                        )
                        metrics[key] = np.nan if error is None else error
                        metrics[f"cond/{key}"] = diag.condition_estimate
                        rows.append(
                            SweepRow(
                                level=n_colloc - 3,
                                h_master=h_elem,
                                h_slave=h_elem,
                                scheme="rb",
                                kernel=family.value,
                                n_colloc=n_colloc,
                                n_gauss=0,
                                l2_error=error,
                                rmse=error,
                                cond_estimate=diag.condition_estimate,
                                assembly_seconds=seconds,
                                extra=(
                                    ("element", element_label),
                                    ("layout", variant.value),
                                    ("epsilon_policy", policy),
                                    ("stability", stability),
                                ),
                            )
                        )
        for family in KernelFamily:
            prefix = f"{element_label}/{family.value}"
            ranges = [
                _rmse_range(
                    {n: metrics[f"{prefix}/{variant}/{n}/h_elem"] for n in range(6, 11)}
                )
                for variant in ("uniform", "sine")
            ]
            lines.append(
                f"{element_label} {family.value}: uniform rmse {ranges[0]}, "
                f"clustered {ranges[1]}"
            )
        lines.append("")
    return ExperimentResult(rows, "\n".join(lines).strip() + "\n", metrics=metrics)


def run_poisson_2d(config: ExperimentConfig) -> ExperimentResult:
    """Coupled Poisson convergence on a split unit square.

    Sweeps a flat-interface pairing over the configured refinements for
    RB, EB and SB, then solves one curved-interface problem at the finest
    resolution and exports point-wise nodal errors.
    """
    rows: list[SweepRow] = []
    orders: dict[str, float] = {}
    metrics: dict[str, float] = {}
    lines = ["coupled Poisson study (split unit square)", "", "flat interface:"]

    base_scale = 4
    for scheme in (Scheme.RB, Scheme.EB, Scheme.SB1D):
        mortar = replace(config.mortar, scheme=scheme)
        token = scheme.value
        sweep = []
        for level in range(config.refinements):
            n_master, n_slave = config.element_counts(level)
            master, slave = split_unit_square(
                base_scale * n_master, base_scale * n_slave
            )
            problem = _bubble_problem(master, slave)
            system, seconds = _timed(build_system, problem, mortar)
            fields = solve_condensed(system)
            report = broken_norms(problem, fields)
            metrics[f"flat/{token}/constraint/level{level}"] = (
                fields.constraint_residual
            )
            sweep.append(
                _sweep_row(
                    level,
                    master,
                    slave,
                    mortar,
                    system.slave_binding.mesh.kind,
                    system.mortar.stats,
                    seconds,
                    l2_error=report.l2_broken,
                    h1_error=report.h1_broken,
                )
            )
            metrics[f"flat/{token}/l2/level{level}"] = report.l2_broken
        rows.extend(sweep)
        h_slave = [row.h_slave for row in sweep]
        if config.refinements >= 2:
            l2 = [row.l2_error for row in sweep]
            h1 = [row.h1_error for row in sweep]
            orders[f"{token}/l2"] = observed_order(h_slave, l2)
            orders[f"{token}/h1"] = observed_order(h_slave, h1)
        formatted = ", ".join(f"{row.l2_error:.4e}" for row in sweep)
        lines.append(f"  {token}: broken L2 [{formatted}]")
        if f"{token}/l2" in orders:
            lines.append(
                f"  {token}: observed orders L2 {orders[f'{token}/l2']:.3f}, "
                f"H1 {orders[f'{token}/h1']:.3f}"
            )

    lines += ["", "curved interface:"]
    amplitude = config.warp_amplitude
    curve = (lambda x: amplitude * np.sin(np.pi * x)) if amplitude else None
    n_master, n_slave = config.element_counts(config.refinements - 1)
    master, slave = split_unit_square(
        base_scale * n_master, base_scale * n_slave, interface_offset=curve
    )
    problem = _bubble_problem(master, slave)
    fields = solve(problem, config.mortar)
    report = broken_norms(problem, fields)
    metrics["curved/constraint_residual"] = fields.constraint_residual
    metrics["curved/l2"] = report.l2_broken
    metrics["curved/h1"] = report.h1_broken
    lines.append(
        f"  scheme {config.mortar.scheme.value}: broken L2 {report.l2_broken:.4e}, "
        f"H1 {report.h1_broken:.4e}, constraint residual "
        f"{fields.constraint_residual:.3e}"
    )

    samples = []
    for mesh, values in (
        (master, fields.master_values),
        (slave, fields.slave_values),
    ):
        truth = _bubble_exact(mesh.nodes[:, 0], mesh.nodes[:, 1])
        samples.append(
            np.column_stack([mesh.nodes, np.abs(values - truth)])
        )
    field_points = np.vstack(samples)
    return ExperimentResult(
        rows, "\n".join(lines) + "\n", orders, metrics, field_points
    )


def run_scheme_compare(config: ExperimentConfig) -> ExperimentResult:
    """Accuracy and assembly cost against quadrature density on one pair.

    Builds a fixed 1D pair whose interior slave nodes are jittered (with
    the configured seed) so no slave element lines up with the master
    grid, then sweeps the Gauss count.  Errors are max-entry differences
    of the transfer operator against the exact-intersection reference.
    """
    n_master, n_slave = config.element_counts(2)
    master, _ = segment_pair(n_master, n_slave, ElementKind.SEG2, span=(-1.0, 1.0))
    rng = np.random.default_rng(config.seed)
    h_slave = 2.0 / n_slave
    xs = np.linspace(-1.0, 1.0, n_slave + 1)
    xs[1:-1] += rng.uniform(-0.3, 0.3, n_slave - 1) * h_slave
    connectivity = np.column_stack([np.arange(n_slave), np.arange(1, n_slave + 1)])
    slave = InterfaceMesh(
        np.column_stack([xs, np.zeros_like(xs)]),
        connectivity,
        ElementKind.SEG2,
        Side.SLAVE,
    )
    pair = InterfacePair(master, slave)

    reference = compute_transfer(
        assemble(pair, replace(config.mortar, scheme=Scheme.SB1D, n_gauss=2))
    ).matrix

    rows: list[SweepRow] = []
    metrics: dict[str, float] = {}
    lines = ["scheme comparison on a jittered 1D pair", ""]
    gauss_counts = (2, 4, 8, 16, 32)
    schemes = (Scheme.SB1D, Scheme.EB, Scheme.RB)
    for level, n_gauss in enumerate(gauss_counts):
        for scheme in schemes:
            mortar = replace(config.mortar, scheme=scheme, n_gauss=n_gauss)
            mats, seconds = _timed(assemble, pair, mortar)
            err = float(np.abs(compute_transfer(mats).matrix - reference).max())
            metrics[f"{scheme.value}/n_gauss{n_gauss}"] = err
            metrics[f"time/{scheme.value}/n_gauss{n_gauss}"] = seconds
            rows.append(
                _sweep_row(
                    level,
                    master,
                    slave,
                    mortar,
                    slave.kind,
                    mats.stats,
                    seconds,
                    l2_error=err,
                )
            )
    for scheme in schemes:
        errs = ", ".join(
            f"{metrics[f'{scheme.value}/n_gauss{n}']:.3e}" for n in gauss_counts
        )
        lines.append(f"{scheme.value}: operator error vs exact reference [{errs}]")
    lines.append("")
    lines.append(
        "assembly seconds time the one assembly call of each row; the transfer "
        "solve is excluded"
    )
    return ExperimentResult(rows, "\n".join(lines) + "\n", metrics=metrics)


_RUNNERS = {
    ExperimentKind.INTERP_1D: run_interp_1d,
    ExperimentKind.INTERP_SURFACE: run_interp_surface,
    ExperimentKind.KERNEL_STUDY: run_kernel_study,
    ExperimentKind.POISSON_2D: run_poisson_2d,
    ExperimentKind.SCHEME_COMPARE: run_scheme_compare,
}


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Dispatch to the configured experiment's runner."""
    return _RUNNERS[config.experiment](config)


# ---------------------------------------------------------------------------
# Config files


def _parser(convert: Callable[[str], object], message: str):
    """Parser ``parse(key, text)`` of a key's text: ``convert(text)``, or a
    :class:`ConfigError` with ``message`` formatted by ``key`` and
    ``value``, the text, when ``convert`` refuses it."""

    def parse(key: str, value: str):
        try:
            return convert(value)
        except (ValueError, KeyError, ZeroDivisionError):
            raise ConfigError(message.format(key=key, value=value)) from None

    return parse


def _one_of(names) -> str:
    """Message of a key whose text must be one of ``names``."""
    return "unknown {key} {value!r}; expected one of " + ", ".join(names)


_INT = _parser(int, "{key} expects an integer, got {value!r}")
_FLOAT = _parser(float, "{key} expects a number, got {value!r}")


@dataclass(frozen=True)
class _ConfigKey:
    """One key of the config format.

    ``path`` is the chain of attributes from :class:`ExperimentConfig` to
    the value; ``parse(key, text)`` reads it.  An ``optional`` key writes
    and reads ``default`` for None; any other key is left out of the
    serialized text while its value is None.
    """

    name: str
    path: tuple[str, ...]
    parse: Callable[[str, str], object]
    optional: bool = False


#: Every config key in canonical order: parsing, serializing and the
#: unknown-key check all read this table.
_CONFIG_KEYS = (
    _ConfigKey(
        "experiment",
        ("experiment",),
        _parser(ExperimentKind, _one_of(kind.value for kind in ExperimentKind)),
    ),
    _ConfigKey("refinements", ("refinements",), _INT),
    _ConfigKey(
        "ratio",
        ("ratio",),
        _parser(Fraction, "{key} expects a rational like 2/3, got {value!r}"),
    ),
    _ConfigKey(
        "scheme",
        ("mortar", "scheme"),
        _parser(Scheme, _one_of(scheme.value for scheme in Scheme)),
    ),
    _ConfigKey(
        "kernel",
        ("mortar", "kernel_family"),
        _parser(
            lambda text: _KERNEL_ALIASES[text.strip().lower()],
            _one_of(_KERNEL_ALIASES),
        ),
    ),
    _ConfigKey(
        "layout",
        ("mortar", "layout", "variant"),
        _parser(LayoutKind, _one_of(layout.value for layout in LayoutKind)),
    ),
    _ConfigKey("n_m", ("mortar", "layout", "n_per_edge"), _INT),
    _ConfigKey("n_gauss", ("mortar", "n_gauss"), _INT, optional=True),
    _ConfigKey("epsilon", ("mortar", "epsilon"), _FLOAT, optional=True),
    _ConfigKey("warp_amplitude", ("warp_amplitude",), _FLOAT),
    _ConfigKey("seed", ("seed",), _INT),
    _ConfigKey("out", ("out",), lambda key, value: Path(value)),
)


def _replaced(obj, path: tuple[str, ...], value):
    """Copy of ``obj`` with the attribute at ``path`` set to ``value``."""
    head, rest = path[0], path[1:]
    if rest:
        value = _replaced(getattr(obj, head), rest, value)
    return replace(obj, **{head: value})


def serialize_config(config: ExperimentConfig) -> str:
    """Render a config as the line-oriented key = value format."""
    lines = []
    for key in _CONFIG_KEYS:
        value = config
        for name in key.path:
            value = getattr(value, name)
        if value is None:
            if not key.optional:
                continue
            value = "default"
        elif isinstance(value, Enum):
            value = value.value
        lines.append(f"{key.name} = {value}")
    return "\n".join(lines) + "\n"


def _parse_settings(text: str) -> dict[str, str]:
    """Read config text into a dict of raw key -> value strings."""
    settings: dict[str, str] = {}
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {number} is not a key = value pair: {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key in settings:
            raise ConfigError(f"duplicate key {key!r} on line {number}")
        settings[key] = value
    return settings


def _config_from_settings(settings: dict[str, str]) -> ExperimentConfig:
    """Parse raw settings with the key table; unset keys keep their defaults."""
    unknown = sorted(set(settings) - {key.name for key in _CONFIG_KEYS})
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    config = ExperimentConfig()
    try:
        for key in _CONFIG_KEYS:
            if key.name not in settings:
                continue
            value = settings[key.name]
            parsed = (
                None
                if key.optional and value == "default"
                else key.parse(key.name, value)
            )
            config = _replaced(config, key.path, parsed)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{key.name}: {exc}") from None
    return config


def parse_config(text: str) -> ExperimentConfig:
    """Parse the key = value config format into an :class:`ExperimentConfig`.

    Blank lines and lines starting with ``#`` are ignored.  Unknown keys
    and malformed values raise :class:`ConfigError`.  Serializing the
    result reproduces the canonical form of the same settings.
    """
    return _config_from_settings(_parse_settings(text))


def _load_settings(path) -> dict[str, str]:
    try:
        return _parse_settings(Path(path).read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None


def load_config(path) -> ExperimentConfig:
    return _config_from_settings(_load_settings(path))


# ---------------------------------------------------------------------------
# Output files


def write_outputs(result: ExperimentResult, out_dir) -> dict[str, Path]:
    """Write sweep.csv, report.txt and (when present) field.csv.

    The sweep header appends the names of the rows' ``extra`` cells to
    :data:`SWEEP_COLUMNS`.  Returns the paths that were written, keyed by
    file stem.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}

    sweep_path = out / "sweep.csv"
    with sweep_path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        extra = result.rows[0].extra if result.rows else ()
        writer.writerow(list(SWEEP_COLUMNS) + [name for name, _ in extra])
        for row in result.rows:
            writer.writerow(row.record())
    written["sweep"] = sweep_path

    report_path = out / "report.txt"
    report = result.report
    if result.orders:
        order_lines = ["", "observed orders (finest-3 least squares):"]
        for label in sorted(result.orders):
            order_lines.append(f"  {label}: {result.orders[label]:.3f}")
        report = report.rstrip("\n") + "\n" + "\n".join(order_lines) + "\n"
    report_path.write_text(report)
    written["report"] = report_path

    if result.field_points is not None:
        field_path = out / "field.csv"
        n_coords = result.field_points.shape[1] - 1
        header = ["x", "y", "z"][:n_coords] + ["abs_error"]
        with field_path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            for sample in result.field_points:
                writer.writerow([repr(float(v)) for v in sample])
        written["field"] = field_path
    return written
