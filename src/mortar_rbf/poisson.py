"""Mortar-coupled Poisson solver on two non-conforming subdomains.

Each subdomain carries a standard P1 triangulation, assembled in
whole-mesh array passes: quadrature points and load contributions are
matrix products with the reference basis, stiffness blocks are products
of the constant basis gradients, and the load is scattered with one
``bincount``.  Continuity across the shared interface is imposed weakly
through the coupling matrices of :mod:`.mortar`.  The resulting saddle
system can be solved directly, or after static condensation, which
eliminates the multipliers together with the slave interface values and
leaves a symmetric positive definite system in the remaining unknowns.
Both paths recover the full solution fields including the multipliers,
and must agree to solver accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import norm as sparse_norm, splu

from .elements import shape_values, triangle_rule_for_degree
from .errors import DegenerateElementError, SolverFailureError
from .meshes import InterfaceMesh, Side, VolumeMesh, extract_interface
from .mortar import (
    InterfacePair,
    MortarConfig,
    MortarMatrices,
    _transfer_field,
    assemble,
    compute_transfer,
)

#: Bound on the normwise backward error |Ax - b| / (|A| |x| + |b|), in the
#: infinity norm, enforced after every linear solve.  Measuring the residual
#: against |b| or |Ax| alone rejects accurate solves whose right-hand side
#: is small next to |A| |x| (the saddle systems of fine split squares).
_SOLVE_RTOL = 1e-10

#: Quadrature degree for load vectors (integrands are basis times source).
_LOAD_DEGREE = 4

#: Quadrature degree for error norms.
_NORM_DEGREE = 6


@dataclass(frozen=True)
class PoissonProblem:
    """Two-subdomain Poisson problem coupled across a tagged interface.

    The meshes carry their boundary conditions as edge tags: "dirichlet"
    edges are constrained to ``dirichlet`` (zero when omitted), and the
    "interface" edges of the two meshes must trace the same curve for the
    coupling to make sense.  ``exact`` and ``exact_gradient`` enable error
    norms for manufactured-solution studies; ``exact_gradient(x, y)``
    returns the two gradient components stacked along a trailing axis.
    """

    master: VolumeMesh
    slave: VolumeMesh
    source: Callable
    dirichlet: Callable | None = None
    exact: Callable | None = None
    exact_gradient: Callable | None = None

    def __post_init__(self):
        for name, mesh in (("master", self.master), ("slave", self.slave)):
            if mesh.tagged_nodes("dirichlet").size == 0:
                raise ValueError(
                    f"{name} mesh has no 'dirichlet' boundary edges; the "
                    "coupled problem would be ill-posed"
                )


@dataclass(frozen=True)
class InterfaceBinding:
    """An extracted interface mesh and its volume-node numbering."""

    mesh: InterfaceMesh
    volume_nodes: np.ndarray


@dataclass(frozen=True)
class CoupledSystem:
    """Assembled per-subdomain operators plus the mortar coupling.

    Interface bindings give the partition of each subdomain's nodes into
    interior and interface sets; the mortar matrices are numbered in the
    local interface ordering of the bindings.
    """

    problem: PoissonProblem
    stiffness_master: sparse.csr_matrix
    stiffness_slave: sparse.csr_matrix
    load_master: np.ndarray
    load_slave: np.ndarray
    master_binding: InterfaceBinding
    slave_binding: InterfaceBinding
    mortar: MortarMatrices
    pinned_master: np.ndarray
    pinned_master_values: np.ndarray
    pinned_slave: np.ndarray
    pinned_slave_values: np.ndarray


@dataclass(frozen=True)
class SolutionFields:
    """Nodal solution of the coupled problem.

    ``master_trace`` and ``slave_trace`` restrict the subdomain fields to
    their interface nodes (in interface ordering); the slave trace equals
    the transferred master trace up to solver accuracy.  ``multipliers``
    live on the slave interface nodes.  ``constraint_residual`` is the
    max-norm mortar constraint defect relative to the coupling scale.
    """

    master_values: np.ndarray
    slave_values: np.ndarray
    multipliers: np.ndarray
    master_trace: np.ndarray
    slave_trace: np.ndarray
    constraint_residual: float
    path: str


@dataclass(frozen=True)
class ErrorReport:
    """Broken error norms over both subdomains."""

    l2_broken: float
    h1_broken: float


# --- P1 assembly -----------------------------------------------------------


def _triangle_geometry(mesh: VolumeMesh):
    """Vertex coordinates, double areas and constant basis gradients.

    Arrays are vertex-major: the vertex x and y coordinates and the x and
    y components of the three barycentric gradients are each (3, n_elems),
    the double areas (n_elems,).  Every per-vertex row is then contiguous,
    so products over all elements stream through memory.
    """
    conn = mesh.connectivity.T
    x, y = mesh.nodes[:, 0][conn], mesh.nodes[:, 1][conn]
    double_area = (x[1] - x[0]) * (y[2] - y[0]) - (y[1] - y[0]) * (x[2] - x[0])
    if np.any(double_area <= 0.0):
        bad = int(np.argmax(double_area <= 0.0))
        raise DegenerateElementError(
            f"triangle {bad} has non-positive area {double_area[bad] / 2.0:.3e}"
        )
    # gradient of barycentric function i: perpendicular of the opposite
    # edge (vertex i+1 to vertex i+2) over twice the area, with vertices
    # ordered counterclockwise
    ahead, behind = [2, 0, 1], [1, 2, 0]
    gx = (y[behind] - y[ahead]) / double_area
    gy = (x[ahead] - x[behind]) / double_area
    return x, y, double_area, gx, gy


def assemble_stiffness(mesh: VolumeMesh) -> sparse.csr_matrix:
    """Standard P1 stiffness matrix of the Laplace operator."""
    _, _, double_area, gx, gy = _triangle_geometry(mesh)
    # blocks[i, j, e] couples vertices i and j of element e
    blocks = gx[:, None] * gx[None, :] + gy[:, None] * gy[None, :]
    blocks *= 0.5 * double_area
    conn = mesh.connectivity.T
    rows = np.broadcast_to(conn[:, None], blocks.shape).ravel()
    cols = np.broadcast_to(conn[None, :], blocks.shape).ravel()
    matrix = sparse.coo_matrix(
        (blocks.ravel(), (rows, cols)), shape=(mesh.n_nodes, mesh.n_nodes)
    )
    return matrix.tocsr()


def assemble_load(mesh: VolumeMesh, source: Callable) -> np.ndarray:
    """P1 load vector by exact-enough triangle quadrature."""
    rule = triangle_rule_for_degree(_LOAD_DEGREE)
    basis = shape_values(mesh.kind, rule.points)
    x, y, double_area, _, _ = _triangle_geometry(mesh)
    values = np.asarray(source(basis @ x, basis @ y), float)
    contrib = (basis.T @ (rule.weights[:, None] * values)) * double_area
    return np.bincount(
        mesh.connectivity.T.ravel(), weights=contrib.ravel(), minlength=mesh.n_nodes
    )


# --- system construction ---------------------------------------------------


def interface_bindings(
    problem: PoissonProblem,
) -> tuple[InterfaceBinding, InterfaceBinding]:
    """Extract both interface traces with their volume numbering."""
    master_mesh, master_map = extract_interface(problem.master, Side.MASTER)
    slave_mesh, slave_map = extract_interface(problem.slave, Side.SLAVE)
    return (
        InterfaceBinding(master_mesh, master_map),
        InterfaceBinding(slave_mesh, slave_map),
    )


def _dirichlet_values(dirichlet: Callable | None, mesh: VolumeMesh, nodes):
    if dirichlet is None:
        return np.zeros(len(nodes))
    coords = mesh.nodes[nodes]
    return np.asarray(dirichlet(coords[:, 0], coords[:, 1]), float)


def build_system(problem: PoissonProblem, config: MortarConfig) -> CoupledSystem:
    """Assemble subdomain operators and the mortar coupling.

    The master keeps every Dirichlet-tagged node pinned, interface
    endpoints included.  The slave never pins its interface nodes, even
    where the interface meets the outer boundary: those values are
    determined by the mortar constraint, which keeps the multiplier space
    equal to the full slave trace space.
    """
    master_binding, slave_binding = interface_bindings(problem)
    pair = InterfacePair(master_binding.mesh, slave_binding.mesh)
    mortar = assemble(pair, config)

    pinned_master = problem.master.tagged_nodes("dirichlet")
    slave_tagged = problem.slave.tagged_nodes("dirichlet")
    pinned = np.zeros(problem.slave.n_nodes, bool)
    pinned[slave_tagged] = True
    pinned[slave_binding.volume_nodes] = False
    pinned_slave = np.flatnonzero(pinned)
    bc = problem.dirichlet

    return CoupledSystem(
        problem=problem,
        stiffness_master=assemble_stiffness(problem.master),
        stiffness_slave=assemble_stiffness(problem.slave),
        load_master=assemble_load(problem.master, problem.source),
        load_slave=assemble_load(problem.slave, problem.source),
        master_binding=master_binding,
        slave_binding=slave_binding,
        mortar=mortar,
        pinned_master=pinned_master,
        pinned_master_values=_dirichlet_values(bc, problem.master, pinned_master),
        pinned_slave=pinned_slave,
        pinned_slave_values=_dirichlet_values(bc, problem.slave, pinned_slave),
    )


# --- linear algebra helpers ------------------------------------------------


def _expand_columns(matrix, n_total: int, col_map: np.ndarray) -> sparse.csr_matrix:
    """Re-index matrix columns from local interface to volume numbering."""
    coo = sparse.coo_matrix(matrix)
    return sparse.coo_matrix(
        (coo.data, (coo.row, col_map[coo.col])), shape=(matrix.shape[0], n_total)
    ).tocsr()


def _apply_dirichlet(matrix, rhs, dofs: np.ndarray, values: np.ndarray):
    """Symmetric elimination: pinned dofs become identity rows/columns."""
    if dofs.size == 0:
        return matrix.tocsr(), rhs
    rhs = rhs - matrix.tocsc()[:, dofs] @ values
    keep = np.ones(matrix.shape[0])
    keep[dofs] = 0.0
    selector = sparse.diags(keep)
    pinned_diag = sparse.diags(1.0 - keep)
    matrix = selector @ matrix @ selector + pinned_diag
    rhs[dofs] = values
    return matrix.tocsr(), rhs


def _checked_solve(
    matrix: sparse.csr_matrix, rhs: np.ndarray, **ordering
) -> np.ndarray:
    """LU solve checked by its backward error; ``ordering`` goes to ``splu``."""
    try:
        factor = splu(matrix.tocsc(), **ordering)
    except RuntimeError as exc:
        raise SolverFailureError(f"factorization failed: {exc}") from exc
    solution = factor.solve(rhs)
    residual = np.max(np.abs(matrix @ solution - rhs), initial=0.0)
    scale = max(
        sparse_norm(matrix, np.inf) * np.max(np.abs(solution), initial=0.0)
        + np.max(np.abs(rhs), initial=0.0),
        np.finfo(float).tiny,
    )
    if residual > _SOLVE_RTOL * scale:
        raise SolverFailureError(
            f"linear solve residual {residual:.3e} exceeds "
            f"{_SOLVE_RTOL:.0e} relative to |A| |x| + |b| = {scale:.3e}"
        )
    return solution


def _constraint_residual(system: CoupledSystem, u_master, u_slave) -> float:
    trace_master = u_master[system.master_binding.volume_nodes]
    trace_slave = u_slave[system.slave_binding.volume_nodes]
    coupled = system.mortar.coupling @ trace_master
    defect = system.mortar.slave_mass @ trace_slave - coupled
    scale = max(np.max(np.abs(coupled), initial=0.0), np.finfo(float).tiny)
    return float(np.max(np.abs(defect), initial=0.0) / scale)


# --- solvers ---------------------------------------------------------------


def solve_saddle(system: CoupledSystem) -> SolutionFields:
    """Direct solve of the symmetric indefinite three-field system.

    Unknowns are the two subdomain fields and the multipliers; the
    constraint block row couples them, and Dirichlet data is eliminated
    symmetrically before factorization.
    """
    n_master = system.problem.master.n_nodes
    n_slave = system.problem.slave.n_nodes
    n_mult = system.mortar.n_slave_nodes

    coupling_cols = _expand_columns(
        system.mortar.coupling, n_master, system.master_binding.volume_nodes
    )
    mass_cols = _expand_columns(
        system.mortar.slave_mass, n_slave, system.slave_binding.volume_nodes
    )
    saddle = sparse.bmat(
        [
            [system.stiffness_master, None, -coupling_cols.T],
            [None, system.stiffness_slave, mass_cols.T],
            [-coupling_cols, mass_cols, None],
        ],
        format="csr",
    )
    rhs = np.concatenate(
        [system.load_master, system.load_slave, np.zeros(n_mult)]
    )
    pinned = np.concatenate([system.pinned_master, n_master + system.pinned_slave])
    pinned_values = np.concatenate(
        [system.pinned_master_values, system.pinned_slave_values]
    )
    saddle, rhs = _apply_dirichlet(saddle, rhs, pinned, pinned_values)
    solution = _checked_solve(saddle, rhs)

    u_master = solution[:n_master]
    u_slave = solution[n_master : n_master + n_slave]
    multipliers = solution[n_master + n_slave :]
    return SolutionFields(
        master_values=u_master,
        slave_values=u_slave,
        multipliers=multipliers,
        master_trace=u_master[system.master_binding.volume_nodes],
        slave_trace=u_slave[system.slave_binding.volume_nodes],
        constraint_residual=_constraint_residual(system, u_master, u_slave),
        path="saddle",
    )


def solve_condensed(system: CoupledSystem) -> SolutionFields:
    """Eliminate multipliers and slave interface values, then solve SPD.

    The slave interface values are an affine function of the master field
    through the transfer operator; substituting it turns the block
    diagonal stiffness into a symmetric positive definite system over the
    free master nodes and the free slave interior nodes.  Multipliers are
    recovered from the slave interface equilibrium afterwards.
    """
    transfer = compute_transfer(system.mortar)

    n_master = system.problem.master.n_nodes
    n_slave = system.problem.slave.n_nodes
    n_total = n_master + n_slave
    master_map = system.master_binding.volume_nodes
    slave_map = system.slave_binding.volume_nodes

    is_free = np.ones(n_total, bool)
    is_free[system.pinned_master] = False
    is_free[n_master + system.pinned_slave] = False
    is_free[n_master + slave_map] = False
    free = np.flatnonzero(is_free)
    n_free = free.size
    column = np.full(n_total, -1)
    column[free] = np.arange(n_free)

    # affine reconstruction u_full = P x + c over [master; slave] stacking:
    # free dofs copy their unknown, slave interface values are the transfer
    # of the master trace, whose pinned entries go to c
    shift = np.zeros(n_total)
    shift[system.pinned_master] = system.pinned_master_values
    shift[n_master + system.pinned_slave] = system.pinned_slave_values
    shift[n_master + slave_map] = _transfer_field(transfer, shift[master_map])
    local, k = np.nonzero(transfer.matrix)
    target = column[master_map[k]]
    linked = target >= 0
    rows = np.concatenate([free, n_master + slave_map[local[linked]]])
    cols = np.concatenate([np.arange(n_free), target[linked]])
    vals = np.concatenate([np.ones(n_free), transfer.matrix[local, k][linked]])

    prolongation = sparse.coo_matrix(
        (vals, (rows, cols)), shape=(n_total, n_free)
    ).tocsr()
    block = sparse.block_diag(
        [system.stiffness_master, system.stiffness_slave], format="csr"
    )
    load = np.concatenate([system.load_master, system.load_slave])
    condensed = (prolongation.T @ block @ prolongation).tocsr()
    rhs = prolongation.T @ (load - block @ shift)
    # minimum degree on the symmetric structure fills far less than COLAMD
    solution = _checked_solve(condensed, rhs, permc_spec="MMD_AT_PLUS_A")

    full = prolongation @ solution + shift
    u_master = full[:n_master]
    u_slave = full[n_master:]

    # slave interface equilibrium: the transposed slave mass applied to
    # the multipliers balances the residual of the slave block row
    residual = (system.load_slave - system.stiffness_slave @ u_slave)[slave_map]
    multipliers = transfer.factor.solve(residual, trans="T")

    return SolutionFields(
        master_values=u_master,
        slave_values=u_slave,
        multipliers=multipliers,
        master_trace=u_master[master_map],
        slave_trace=u_slave[slave_map],
        constraint_residual=_constraint_residual(system, u_master, u_slave),
        path="condensed",
    )


def solve(problem: PoissonProblem, config: MortarConfig | None = None) -> SolutionFields:
    """Assemble the coupled problem and solve it by static condensation.

    The saddle-point path is ``solve_saddle(build_system(problem, config))``.
    """
    system = build_system(problem, config if config is not None else MortarConfig())
    return solve_condensed(system)


def solve_single_domain(
    mesh: VolumeMesh,
    source: Callable,
    dirichlet: Callable | None = None,
) -> np.ndarray:
    """Conforming single-mesh Poisson solve, used as the merged-mesh oracle."""
    stiffness = assemble_stiffness(mesh)
    load = assemble_load(mesh, source)
    pinned = mesh.tagged_nodes("dirichlet")
    values = _dirichlet_values(dirichlet, mesh, pinned)
    matrix, rhs = _apply_dirichlet(stiffness, load, pinned, values)
    return _checked_solve(matrix, rhs)


# --- error norms -----------------------------------------------------------


def _domain_errors(
    mesh: VolumeMesh,
    values: np.ndarray,
    exact: Callable,
    exact_gradient: Callable,
) -> tuple[float, float]:
    rule = triangle_rule_for_degree(_NORM_DEGREE)
    basis = shape_values(mesh.kind, rule.points)
    x, y, double_area, gx, gy = _triangle_geometry(mesh)
    px, py = basis @ x, basis @ y
    nodal = values[mesh.connectivity.T]

    diff = basis @ nodal - np.asarray(exact(px, py), float)
    l2_sq = rule.weights @ diff**2 @ double_area

    grad_truth = np.asarray(exact_gradient(px, py), float)
    diff_x = (nodal * gx).sum(axis=0) - grad_truth[..., 0]
    diff_y = (nodal * gy).sum(axis=0) - grad_truth[..., 1]
    h1_sq = rule.weights @ (diff_x**2 + diff_y**2) @ double_area
    return float(l2_sq), float(h1_sq)


def broken_norms(problem: PoissonProblem, fields: SolutionFields) -> ErrorReport:
    """Broken L2 and H1-seminorm errors against the manufactured solution."""
    if problem.exact is None or problem.exact_gradient is None:
        raise ValueError(
            "broken norms need the problem's exact solution and gradient"
        )
    l2_m, h1_m = _domain_errors(
        problem.master, fields.master_values, problem.exact, problem.exact_gradient
    )
    l2_s, h1_s = _domain_errors(
        problem.slave, fields.slave_values, problem.exact, problem.exact_gradient
    )
    return ErrorReport(
        l2_broken=float(np.sqrt(l2_m + l2_s)),
        h1_broken=float(np.sqrt(h1_m + h1_s)),
    )
