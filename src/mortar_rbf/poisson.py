"""Mortar-coupled Poisson solver on two non-conforming subdomains.

Each subdomain carries a standard P1 triangulation, assembled in
whole-mesh array passes: quadrature points and load contributions are
matrix products with the reference basis, stiffness blocks are products
of the constant basis gradients, and the load is scattered with one
``bincount``.  Continuity across the shared interface is imposed weakly
through the coupling matrices of :mod:`.mortar`.  Both subdomains share
one stacked numbering, master nodes first.  The resulting saddle system
can be solved directly, or after static condensation, which eliminates
the multipliers together with the slave interface values and leaves a
symmetric positive definite system in the remaining unknowns.  Both
solves eliminate their fixed dofs by the same restriction x = P y + c
and factor with the same SuperLU settings, ``_FACTOR``, whose threshold
pivoting serves the indefinite saddle system and leaves the definite one
on its diagonal.  P is the identity on the free dofs but for a few link
rows, which the condensed solve fills with the dense transfer block T,
so the restricted matrix Pᵀ A P is formed without P: scipy's row and
column indexing takes the free block of A, and
the links add one sparse product S = Tᵀ A_LF with its transpose and a
small dense corner.  Each entry of a restricted system and its mirror sum
the same numbers, so the system is symmetric bit for bit, and SuperLU
reads its CSR arrays as those of the transposed CSC matrix, with no
format copy.  Both coupled paths recover the full solution fields
including the multipliers, and must agree to solver accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .elements import shape_values, triangle_rule_for_degree
from .errors import SolverFailureError
from .meshes import InterfaceMesh, Side, VolumeMesh, extract_interface
from .mortar import (
    InterfacePair,
    MortarConfig,
    MortarMatrices,
    assemble,
    compute_transfer,
    interface_transfer,
)

#: Bound on the normwise backward error |Ax - b| / (|A| |x| + |b|), in the
#: infinity norm, enforced after every linear solve.  Measuring the residual
#: against |b| or |Ax| alone rejects accurate solves whose right-hand side
#: is small next to |A| |x| (the saddle systems of fine split squares).
_SOLVE_RTOL = 1e-10

#: SuperLU settings of every solve: the condensed and saddle systems.
#: Minimum degree on the symmetric structure fills far less than COLAMD.
#: With supernode relaxation and panels turned off, the same fill
#: factors 18-27% faster on the condensed split-square systems.  A diagonal
#: pivot is kept while it is at least 1e-3 of its column's largest entry.
#: The symmetric positive definite systems pivot on the diagonal even at
#: the full threshold 1.0, so their factors do not change.  The saddle
#: system's zero multiplier block forces pivots off the diagonal; the low
#: threshold keeps them near the fill-reducing order, so at 256/171 its
#: factor has 17% fewer L+U entries than with SuperLU's defaults and the
#: solve adds a quarter less memory (Demmel, Eisenstat, Gilbert, Li & Liu
#: 1999, SIAM J. Matrix Anal. Appl. 20:720-755; Benzi, Golub & Liesen
#: 2005, Acta Numerica 14:1-137).
_FACTOR = {
    "permc_spec": "MMD_AT_PLUS_A",
    "relax": 1,
    "panel_size": 1,
    "diag_pivot_thresh": 1e-3,
}

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
    coupling to make sense.  ``dirichlet(x, y)`` returns one finite value
    per node, or one scalar for all of them.  ``exact`` and
    ``exact_gradient`` enable error norms for manufactured-solution
    studies; ``exact_gradient(x, y)`` returns the two gradient components
    stacked along a trailing axis.
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
    """Stacked operators of both subdomains plus the mortar coupling.

    Unknowns are numbered master nodes first, then slave nodes.
    ``stiffness`` is the block diagonal of the two subdomain stiffness
    matrices and ``load`` stacks their load vectors; ``pinned`` lists the
    Dirichlet dofs in that numbering and ``pinned_values`` their data.
    Interface bindings map each side's local interface ordering, in which
    the mortar matrices are numbered, to its volume nodes.
    """

    problem: PoissonProblem
    stiffness: sparse.csr_matrix
    load: np.ndarray
    pinned: np.ndarray
    pinned_values: np.ndarray
    master_binding: InterfaceBinding
    slave_binding: InterfaceBinding
    mortar: MortarMatrices


@dataclass(frozen=True)
class SolutionFields:
    """Nodal solution of the coupled problem.

    ``multipliers`` live on the slave interface nodes.
    ``constraint_residual`` is the max-norm mortar constraint defect
    relative to the coupling scale max|D u_master|, or the defect itself
    where that scale is zero.  A side's interface trace is its values at
    ``binding.volume_nodes``.
    """

    master_values: np.ndarray
    slave_values: np.ndarray
    multipliers: np.ndarray
    constraint_residual: float


@dataclass(frozen=True)
class ErrorReport:
    """Broken error norms over both subdomains."""

    l2_broken: float
    h1_broken: float


# --- P1 assembly -----------------------------------------------------------


def _triangle_coordinates(mesh: VolumeMesh):
    """Vertex coordinates and double areas, vertex-major.

    The vertex x and y coordinates are each (3, n_elems), the double areas
    (n_elems,).  Every per-vertex row is then contiguous, so products over
    all elements stream through memory.  The areas are the mesh's own,
    positive since the mesh refuses clockwise triangles.
    """
    conn = mesh.connectivity.T
    return mesh.nodes[:, 0][conn], mesh.nodes[:, 1][conn], mesh.double_areas


def _triangle_geometry(mesh: VolumeMesh):
    """Vertex coordinates, double areas and constant basis gradients.

    The x and y components of the three barycentric gradients are each
    (3, n_elems), vertex-major like the coordinates.
    """
    x, y, double_area = _triangle_coordinates(mesh)
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
    # rows and cols in the (i, j, e) order of blocks, as the int32 indices
    # the CSR matrix keeps
    conn = mesh.connectivity.T.astype(np.int32)
    rows = np.repeat(conn, 3, axis=0).ravel()
    cols = np.tile(conn, (3, 1)).ravel()
    matrix = sparse.coo_matrix(
        (blocks.ravel(), (rows, cols)), shape=(mesh.n_nodes, mesh.n_nodes)
    )
    return matrix.tocsr()


def assemble_load(mesh: VolumeMesh, source: Callable) -> np.ndarray:
    """P1 load vector by exact-enough triangle quadrature."""
    rule = triangle_rule_for_degree(_LOAD_DEGREE)
    basis = shape_values(mesh.kind, rule.points)
    x, y, double_area = _triangle_coordinates(mesh)
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
    master_mesh, master_dofs = extract_interface(problem.master, Side.MASTER)
    slave_mesh, slave_map = extract_interface(problem.slave, Side.SLAVE)
    return (
        InterfaceBinding(master_mesh, master_dofs),
        InterfaceBinding(slave_mesh, slave_map),
    )


def _dirichlet_values(dirichlet: Callable | None, coords: np.ndarray) -> np.ndarray:
    """One finite Dirichlet value per node; a scalar applies to every node."""
    if dirichlet is None:
        return np.zeros(len(coords))
    values = np.asarray(dirichlet(coords[:, 0], coords[:, 1]), float)
    if values.ndim == 0:
        values = np.full(len(coords), values)
    if values.shape != (len(coords),):
        raise ValueError(
            f"dirichlet returned shape {values.shape} for {len(coords)} "
            "nodes; expected one value per node or a scalar"
        )
    if not np.all(np.isfinite(values)):
        raise ValueError("dirichlet returned non-finite values")
    return values


def build_system(problem: PoissonProblem, config: MortarConfig) -> CoupledSystem:
    """Assemble the stacked subdomain operators and the mortar coupling.

    The master keeps every Dirichlet-tagged node pinned, interface
    endpoints included.  The slave never pins its interface nodes, even
    where the interface meets the outer boundary: those values are
    determined by the mortar constraint, which keeps the multiplier space
    equal to the full slave trace space.
    """
    master_binding, slave_binding = interface_bindings(problem)
    pair = InterfacePair(master_binding.mesh, slave_binding.mesh)
    mortar = assemble(pair, config)

    master, slave = problem.master, problem.slave
    pinned_master = master.tagged_nodes("dirichlet")
    pinned_slave = np.setdiff1d(
        slave.tagged_nodes("dirichlet"), slave_binding.volume_nodes
    )
    coords = np.vstack([master.nodes[pinned_master], slave.nodes[pinned_slave]])
    return CoupledSystem(
        problem=problem,
        stiffness=sparse.block_diag(
            (assemble_stiffness(master), assemble_stiffness(slave)), format="csr"
        ),
        load=np.concatenate(
            [assemble_load(mesh, problem.source) for mesh in (master, slave)]
        ),
        pinned=np.concatenate([pinned_master, master.n_nodes + pinned_slave]),
        pinned_values=_dirichlet_values(problem.dirichlet, coords),
        master_binding=master_binding,
        slave_binding=slave_binding,
        mortar=mortar,
    )


# --- linear algebra helpers ------------------------------------------------


def _checked_solve(matrix: sparse.csr_matrix, rhs: np.ndarray) -> np.ndarray:
    """LU solve of the symmetric ``matrix`` with the ``_FACTOR`` settings,
    checked by its backward error.

    SuperLU reads the CSR arrays as they are, as those of the CSC matrix
    ``matrix.T``, which equals ``matrix``: no format copy is made.  A NaN or
    infinite entry would pass the residual test, so it is refused first.
    """
    # before the factor exists, so that the copy of |A| is freed first
    norm = sparse.linalg.norm(matrix, np.inf)
    try:
        factor = splu(matrix.T, **_FACTOR)
    except RuntimeError as exc:
        raise SolverFailureError(f"factorization failed: {exc}") from exc
    solution = factor.solve(rhs)
    if not np.all(np.isfinite(solution)):
        raise SolverFailureError("linear solve returned non-finite values")
    residual = np.max(np.abs(matrix @ solution - rhs), initial=0.0)
    scale = max(
        norm * np.max(np.abs(solution), initial=0.0)
        + np.max(np.abs(rhs), initial=0.0),
        np.finfo(float).tiny,
    )
    if residual > _SOLVE_RTOL * scale:
        raise SolverFailureError(
            f"linear solve residual {residual:.3e} exceeds "
            f"{_SOLVE_RTOL:.0e} relative to |A| |x| + |b| = {scale:.3e}"
        )
    return solution


#: Links (rows, dofs, block) of a restriction without links.
_NO_LINKS = (np.empty(0, np.int64), np.empty(0, np.int64), np.empty((0, 0)))


def _placed(block, rows, cols, shape):
    """The dense ``block`` at ``rows`` × ``cols`` of a canonical CSR matrix
    of ``shape``; its zeros stay stored."""
    return sparse.coo_matrix(
        (block.ravel(), (np.repeat(rows, cols.size), np.tile(cols, rows.size))),
        shape=shape,
    ).tocsr()


def _restrict(matrix, rhs, is_free, links):
    """Pᵀ A P and Pᵀ b of the restriction in :func:`_restricted_solve`.

    P is the identity on the free dofs F but for the link rows L, which
    carry the dense block T over the free linked dofs K.  A is symmetric, so

        Pᵀ A P = A_FF + (S + Sᵀ) + Tᵀ A_LL T,    S = Tᵀ A_LF,

    with T's columns at the free columns of K.  A_FF indexes A's free rows,
    then its free columns; the free dofs increase, so each row's columns
    stay sorted.  S is one sparse product with Tᵀ placed as a CSR matrix
    over the free rows, and the K × K corner is a dense product, averaged
    with its transpose.  Every sum adds a term to its transpose or to a
    symmetric term, so each entry and its mirror add the same numbers and
    the result is exactly symmetric.  Explicit zeros, of A or of the sum,
    are dropped as a sparse product drops them: A's stored zeros would
    otherwise change the saddle factor's fill-reducing order.  The result
    is canonical.  Returns the restricted CSR matrix and Pᵀ b.
    """
    free = np.flatnonzero(is_free)
    restricted = matrix[free][:, free]
    restricted.eliminate_zeros()

    rows, dofs, block = links
    k_cols = np.searchsorted(free, dofs)
    reduced_rhs = rhs[is_free]
    reduced_rhs[k_cols] += block.T @ rhs[rows]
    if block.size == 0:
        return restricted, reduced_rhs

    link_block = matrix[rows]
    spread = _placed(block.T, k_cols, np.arange(rows.size), (free.size, rows.size))
    half = spread @ link_block[:, is_free]
    corner = block.T @ link_block[:, rows].toarray() @ block
    # sums of canonical CSR matrices stay canonical and store no zero
    half.sort_indices()
    links = (half + half.T) + _placed(
        0.5 * (corner + corner.T), k_cols, k_cols, restricted.shape
    )
    return restricted + links, reduced_rhs


def _restricted_solve(matrix, rhs, fixed, values, links=_NO_LINKS):
    """Solve the symmetric ``matrix x = rhs`` over x = P y + c, eliminating
    ``fixed``.

    The shift c holds ``values`` on the ``fixed`` dofs and zero elsewhere.
    P copies y onto the free dofs in increasing order, and the links
    (rows, dofs, block) add ``block`` times the unknowns of the free
    ``dofs`` to the fixed ``rows``.  Rows and dofs are distinct, and the
    columns of fixed dofs are dropped, so their part belongs in
    ``values``.  Pᵀ A P y = Pᵀ (b − A c) is solved and the full x
    returned; with no free dof, x = c.  P is never formed:
    :func:`_restrict` indexes the free block of A and adds the link terms,
    and P and Pᵀ act on vectors by indexing and the dense block.
    """
    n = matrix.shape[0]
    is_free = np.ones(n, bool)
    is_free[fixed] = False
    solution = np.zeros(n)
    solution[fixed] = values
    if not is_free.any():
        return solution

    rows, dofs, block = links
    linked = is_free[dofs]
    # C order whatever the caller's layout, so that the solution does not
    # depend on it through the rounding of the products
    dofs, block = dofs[linked], np.ascontiguousarray(block[:, linked])
    restricted, reduced_rhs = _restrict(
        matrix, rhs - matrix @ solution, is_free, (rows, dofs, block)
    )
    # drop this reference, so that a matrix built for the call is freed
    # before the factorization
    del matrix
    solution[is_free] = _checked_solve(restricted, reduced_rhs)
    solution[rows] += block @ solution[dofs]
    return solution


def _interface_dofs(system: CoupledSystem) -> tuple[np.ndarray, np.ndarray]:
    """Stacked dofs of the master and the slave interface nodes."""
    slave_dofs = system.problem.master.n_nodes + system.slave_binding.volume_nodes
    return system.master_binding.volume_nodes, slave_dofs


def _solution_fields(system: CoupledSystem, values, multipliers) -> SolutionFields:
    """Split stacked nodal values and measure their mortar constraint defect."""
    n_master = system.problem.master.n_nodes
    master_dofs, slave_dofs = _interface_dofs(system)
    coupled = system.mortar.coupling @ values[master_dofs]
    defect = system.mortar.slave_mass @ values[slave_dofs] - coupled
    peak = np.max(np.abs(coupled), initial=0.0)
    # a zero master trace sets no scale, so its defect is reported unscaled
    scale = max(peak, np.finfo(float).tiny) if peak > 0.0 else 1.0
    return SolutionFields(
        master_values=values[:n_master],
        slave_values=values[n_master:],
        multipliers=multipliers,
        constraint_residual=float(np.max(np.abs(defect), initial=0.0) / scale),
    )


# --- solvers ---------------------------------------------------------------


def solve_saddle(system: CoupledSystem) -> SolutionFields:
    """Direct solve of the symmetric indefinite three-field system.

    Unknowns are the stacked subdomain fields and the multipliers; the
    constraint rows -D u_master + M u_slave couple them, and the pinned
    dofs are eliminated before factorization.
    """
    n_total, n_mult = system.stiffness.shape[0], system.mortar.n_slave_nodes
    interface = np.concatenate(_interface_dofs(system))
    local = sparse.hstack([-system.mortar.coupling, system.mortar.slave_mass]).tocoo()
    constraint = sparse.coo_matrix(
        (local.data, (local.row, interface[local.col])), shape=(n_mult, n_total)
    ).tocsr()
    blocks = [[system.stiffness, constraint.T], [constraint, None]]
    rhs = np.concatenate([system.load, np.zeros(n_mult)])
    solution = _restricted_solve(
        sparse.bmat(blocks, format="csr"),
        rhs,
        system.pinned,
        system.pinned_values,
    )
    return _solution_fields(system, solution[:n_total], solution[n_total:])


def solve_condensed(system: CoupledSystem) -> SolutionFields:
    """Eliminate multipliers and slave interface values, then solve SPD.

    The slave interface values are an affine function of the master field
    through the transfer operator; fixing them with links to the free
    master interface nodes turns the block diagonal stiffness into a
    symmetric positive definite system over the free master nodes and the
    free slave interior nodes.  Multipliers are recovered from the slave
    interface equilibrium afterwards.
    """
    transfer = compute_transfer(system.mortar)
    master_dofs, slave_dofs = _interface_dofs(system)

    # the slave interface is the transfer of the master trace: its pinned
    # entries give the fixed values, its free ones the links
    pinned = np.zeros(system.stiffness.shape[0])
    pinned[system.pinned] = system.pinned_values
    full = _restricted_solve(
        system.stiffness,
        system.load,
        np.concatenate([system.pinned, slave_dofs]),
        np.concatenate(
            [system.pinned_values, interface_transfer(transfer, pinned[master_dofs])]
        ),
        (slave_dofs, master_dofs, transfer.matrix),
    )

    # slave interface equilibrium: the transposed slave mass applied to
    # the multipliers balances the residual of the slave block rows
    residual = system.load[slave_dofs] - system.stiffness[slave_dofs] @ full
    multipliers = transfer.factor.solve(residual, trans="T")
    return _solution_fields(system, full, multipliers)


def solve(problem: PoissonProblem, config: MortarConfig | None = None) -> SolutionFields:
    """Assemble the coupled problem and solve it by static condensation.

    The saddle-point path is ``solve_saddle(build_system(problem, config))``.
    """
    system = build_system(problem, config if config is not None else MortarConfig())
    return solve_condensed(system)


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
