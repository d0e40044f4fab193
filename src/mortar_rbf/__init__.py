"""Mortar coupling of non-conforming finite element interfaces.

The package assembles the interface mass and coupling matrices of the
mortar method with three interchangeable quadrature treatments: exact
segment intersections in 1D, Gauss point projection, and a projection-free
variant that interpolates master basis functions with rescaled radial
basis kernels.  A small coupled Poisson solver and an experiment suite
sit on top.
"""

from .elements import ElementKind, QuadratureRule, gauss_rule, shape_values
from .errors import (
    ConfigError,
    DegenerateElementError,
    IllConditionedKernelError,
    InvalidGeometryError,
    SingularOperatorError,
    SolverFailureError,
)
from .experiments import (
    ExperimentConfig,
    ExperimentKind,
    ExperimentResult,
    SweepRow,
    load_config,
    parse_config,
    run_experiment,
    serialize_config,
    write_outputs,
)
from .meshes import (
    InterfaceMesh,
    Side,
    VolumeMesh,
    extract_interface,
    segment_pair,
    split_unit_square,
    surface_pair,
)
from .mortar import (
    InterfacePair,
    MortarConfig,
    MortarMatrices,
    NewtonSettings,
    Scheme,
    TransferOperator,
    assemble,
    compute_transfer,
    interface_transfer,
)
from .poisson import (
    PoissonProblem,
    SolutionFields,
    broken_norms,
    solve,
    solve_single_domain,
)
from .rbf import (
    KernelFamily,
    LayoutKind,
    PointLayout,
    fit_master_interpolant,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DegenerateElementError",
    "ElementKind",
    "ExperimentConfig",
    "ExperimentKind",
    "ExperimentResult",
    "IllConditionedKernelError",
    "InterfaceMesh",
    "InterfacePair",
    "InvalidGeometryError",
    "KernelFamily",
    "LayoutKind",
    "MortarConfig",
    "MortarMatrices",
    "NewtonSettings",
    "PointLayout",
    "PoissonProblem",
    "QuadratureRule",
    "Scheme",
    "Side",
    "SingularOperatorError",
    "SolutionFields",
    "SolverFailureError",
    "SweepRow",
    "TransferOperator",
    "VolumeMesh",
    "assemble",
    "broken_norms",
    "compute_transfer",
    "extract_interface",
    "fit_master_interpolant",
    "gauss_rule",
    "interface_transfer",
    "load_config",
    "parse_config",
    "run_experiment",
    "segment_pair",
    "serialize_config",
    "shape_values",
    "solve",
    "solve_single_domain",
    "split_unit_square",
    "surface_pair",
    "write_outputs",
]
