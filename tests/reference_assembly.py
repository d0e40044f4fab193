"""Loop-based mortar assembly, kept as a test oracle.

This is the straightforward form of the ``rb``/``eb`` assembly that
``mortar._assemble_pointwise`` computes in array passes: a dense box test
for contact search, a Python loop over slave elements and their candidate
masters, a per-master box (:func:`reference_master_box`) that each slave
point must lie in, and a Newton projection batched per (slave element,
master element) pair that iterates until every point of the batch has
converged.
:func:`reference_assemble_sb` is the same for the exact ``sb`` assembly
that ``mortar.assemble_sb_1d`` computes in array passes: every slave
element is intersected with every master element, and each intersection
is inverted on its own.  :func:`reference_fit` and
:func:`reference_evaluate` are the per-element kernel fit and evaluation
that ``rbf.fit_interpolants`` and ``rbf.evaluate_interpolants`` batch:
``cdist``, an LU factorization with LAPACK's condition estimate and one
matrix product per element.  :func:`reference_project_points` is the
batched Newton projection with the full iteration budget, before points
at a fixed point or past the clamp box retired early; it shares the
library's Newton step, whose ``einsum`` form
:func:`reference_newton_terms` keeps.
:func:`reference_stiffness`,
:func:`reference_load` and :func:`reference_domain_errors` are the P1
volume assembly and error integrals of :mod:`mortar_rbf.poisson` written
with multi-operand ``einsum`` contractions, stacked per-vertex arrays and
an ``np.add.at`` scatter.  :func:`reference_transfer_l2_error` is the
per-element loop of the slave L2 error integral that
``experiments._transfer_l2_error`` computes in one array pass.
:func:`solve_single_domain` is the conforming single-mesh Poisson solve,
the merged-mesh oracle of the coupled solves, and :func:`translate` and
:func:`shape_second_derivatives` are the mesh move and the checked basis
Hessian that only tests need.  Tests compare the library against all of
them; nothing in the library imports them.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.linalg import lapack, lu_factor, lu_solve
from scipy.spatial.distance import cdist

from mortar_rbf import poisson
from mortar_rbf.elements import (
    _ELEMENTS,
    ElementKind,
    _prepare_points,
    gauss_rule,
    node_reference_coords,
    shape_gradients,
    shape_values,
    triangle_rule_for_degree,
)
from mortar_rbf.meshes import InterfaceMesh, element_circumdiameters, element_geometry
from mortar_rbf.mortar import (
    AssemblyStats,
    MortarMatrices,
    Scheme,
    _BOX_ROUNDING,
    _NEWTON_MAX_ITER,
    _NEWTON_TOL,
    _SLIVER_REL,
    _SUPPORT_TOL,
    _collinearity_residual,
    _newton_terms,
    _principal_direction,
    _solve_newton_step,
)
from mortar_rbf.errors import (
    DegenerateElementError,
    IllConditionedKernelError,
    InvalidGeometryError,
)
from mortar_rbf.rbf import (
    BREAKDOWN_TOL,
    COND_LIMIT,
    KernelFamily,
    _kernel_profile,
    interpolation_points,
)

_NEWTON_CLAMP = 1.45


def shape_second_derivatives(kind, xi) -> np.ndarray:
    """Second derivatives of the shape functions at reference points ``xi``,
    shape (n_pts, n_nodes, ref_dim, ref_dim), with the range and shape
    checks of ``elements.shape_values``."""
    kind = ElementKind(kind)
    return _ELEMENTS[kind].hessians(_prepare_points(kind, xi))


def translate(mesh, vector) -> InterfaceMesh:
    """Rigidly translate an interface mesh by ``vector``."""
    nodes = mesh.nodes + np.asarray(vector, float)
    return InterfaceMesh(nodes, mesh.connectivity, mesh.kind, mesh.side)


def _element_points(mesh, elem, xi):
    """Physical points and measures of one element at reference points
    ``xi``; a non-positive measure raises."""
    phys, metric = element_geometry(mesh, xi, [elem])
    if np.any(metric <= 0.0):
        raise DegenerateElementError(f"element {elem} has a degenerate surface metric")
    return phys[0], np.sqrt(metric[0])


def reference_contact_search(pair) -> list[np.ndarray]:
    """Candidates from the dense (slave x master x dim) box test."""
    gap = pair.resolved_gap_tolerance
    master = pair.master.nodes[pair.master.connectivity]
    slave = pair.slave.nodes[pair.slave.connectivity]
    master_lo, master_hi = master.min(axis=1), master.max(axis=1)
    slave_lo, slave_hi = slave.min(axis=1), slave.max(axis=1)
    low_ok = slave_lo[:, None, :] - gap <= master_hi[None, :, :]
    high_ok = slave_hi[:, None, :] + gap >= master_lo[None, :, :]
    hit = (low_ok & high_ok).all(axis=2)
    return [np.flatnonzero(row) for row in hit]


def reference_master_box(pair, elem, tol):
    """Lower and upper corners of the box a slave point must lie in to be
    offered to master element ``elem``.

    The node box grows by 2 tol (1 + tol) of its extent and, for a
    quadratic element, by (1 + tol) times the summed offsets of the mid
    nodes from the mean of their edge's corners (found from the reference
    node coordinates), then by the pair's gap and a rounding margin.
    """
    mesh = pair.master
    ref = node_reference_coords(mesh.kind)
    coords = mesh.nodes[mesh.connectivity[elem]]
    lo, hi = coords.min(axis=0), coords.max(axis=0)
    corner = (np.abs(ref) == 1.0).all(axis=1)
    bulge = np.zeros(coords.shape[1])
    for mid in np.flatnonzero(~corner):
        ends = corner & (np.abs(ref - ref[mid]).sum(axis=1) == 1.0)
        bulge += np.abs(coords[mid] - coords[ends].mean(axis=0))
    grow = (
        (1.0 + tol) * (2.0 * tol * (hi - lo) + bulge)
        + pair.resolved_gap_tolerance
        + _BOX_ROUNDING * np.maximum(np.abs(lo), np.abs(hi))
    )
    return lo - grow, hi + grow


def reference_project_batch(mesh, elem, targets):
    """Newton projection onto one element, stopping when all points converge.

    Returns the reference coordinates, the convergence flags and the number
    of (point, step) Newton updates: every point of the batch takes each
    step.
    """
    kind = mesh.kind
    coords = mesh.nodes[mesh.connectivity[elem]]
    xi = np.zeros((targets.shape[0], kind.ref_dim))
    scale = element_circumdiameters(mesh)[elem] ** 2

    def tangent_residual(current):
        grads = shape_gradients(kind, current)
        pos = shape_values(kind, current) @ coords
        jac = np.einsum("gnr,nd->gdr", grads, coords)
        gap = targets - pos
        return jac, gap, np.einsum("gdr,gd->gr", jac, gap)

    updates = 0
    for _ in range(_NEWTON_MAX_ITER):
        jac, gap, resid = tangent_residual(xi)
        if np.max(np.abs(resid)) <= _NEWTON_TOL * scale:
            break
        updates += targets.shape[0]
        curv = np.einsum(
            "gnrs,nd->gdrs", shape_second_derivatives(kind, xi), coords
        )
        hess = -np.einsum("gdr,gds->grs", jac, jac) + np.einsum(
            "gdrs,gd->grs", curv, gap
        )
        xi = np.clip(
            xi + _solve_newton_step(hess, -resid), -_NEWTON_CLAMP, _NEWTON_CLAMP
        )
    _, _, resid = tangent_residual(xi)
    converged = np.max(np.abs(resid), axis=1) <= _NEWTON_TOL * scale
    return xi, converged, updates


def reference_newton_terms(kind, coords, xi, targets):
    """Jacobian (p, dim, ref_dim), residual (p, ref_dim) and Hessian
    (p, ref_dim, ref_dim) of the Newton projection, as ``einsum``
    contractions over ``coords`` (p, n_nodes, dim): the arithmetic oracle
    of ``mortar._newton_terms``."""
    jac = np.einsum("pnr,pnd->pdr", shape_gradients(kind, xi), coords)
    gap = targets - np.einsum("pn,pnd->pd", shape_values(kind, xi), coords)
    resid = np.einsum("pdr,pd->pr", jac, gap)
    curv = np.einsum("pnrs,pnd->pdrs", shape_second_derivatives(kind, xi), coords)
    hess = -np.einsum("pdr,pds->prs", jac, jac) + np.einsum("pdrs,pd->prs", curv, gap)
    return jac, resid, hess


def reference_project_points(kind, coords, targets, scale):
    """``mortar._project_points`` with the full iteration budget.

    Every point iterates until its own residual converges or the budget
    runs out: no fixed-point retirement and no clamp retirement, so a
    point goes on after its Newton step leaves the clamp box and after its
    clamped iterate stops moving.  Each step is ``mortar._newton_terms``,
    so only the retirement differs from the library.  Returns the
    reference coordinates, the convergence flags and the number of
    (point, step) Newton updates.
    """
    nodes = np.ascontiguousarray(coords.transpose(0, 2, 1))
    xi = np.zeros((targets.shape[0], kind.ref_dim))
    converged = np.zeros(targets.shape[0], dtype=bool)
    active = np.arange(targets.shape[0])
    updates = 0
    for step in range(_NEWTON_MAX_ITER + 1):
        current = xi[active]
        _, resid, hess = _newton_terms(kind, nodes[active], current, targets[active])
        done = (np.abs(resid) <= _NEWTON_TOL * scale[active, None]).all(axis=1)
        converged[active[done]] = True
        go = ~done
        active = active[go]
        if step == _NEWTON_MAX_ITER or active.size == 0:
            break
        xi[active] = np.clip(
            current[go] + _solve_newton_step(hess[go], -resid[go]),
            -_NEWTON_CLAMP,
            _NEWTON_CLAMP,
        )
        updates += active.size
    return xi, converged, updates


def reference_fit(mesh, elem, layout, family, epsilon=None, cond_limit=COND_LIMIT):
    """One element's kernel fit: ((family, epsilon), points, weights, condition
    estimate).

    The condition is LAPACK's 1-norm estimate from the LU factors
    (``dgecon``), infinite when a pivot is exactly zero.
    """
    ref_pts = interpolation_points(mesh.kind, layout)
    phys = element_geometry(mesh, ref_pts, [elem])[0][0]
    family = KernelFamily(family)
    if epsilon is None:
        epsilon = element_circumdiameters(mesh)[elem]
    gram = _kernel_profile(family, cdist(phys, phys), epsilon)
    lu, piv = lu_factor(gram)
    rcond, info = lapack.dgecon(lu, np.linalg.norm(gram, 1), norm="1")
    condition = np.inf if info != 0 or rcond == 0.0 else float(1.0 / rcond)
    if cond_limit is not None and condition > cond_limit:
        raise IllConditionedKernelError(
            f"master element {elem}: kernel collocation matrix is numerically singular "
            f"(condition estimate {condition:.3e})",
            condition=condition,
        )
    weights = lu_solve((lu, piv), shape_values(mesh.kind, ref_pts))
    return (family, epsilon), phys, weights, condition


def reference_evaluate(fit, points):
    """Rescaled basis values and validity mask of one fit at ``points``."""
    (family, epsilon), phys, weights, _ = fit
    phi = _kernel_profile(family, cdist(points, phys), epsilon)
    numer = phi @ weights
    denom = numer.sum(axis=1)
    term_size = (np.abs(phi) @ np.abs(weights)).sum(axis=1)
    ok = (np.abs(denom) >= BREAKDOWN_TOL * term_size) & (term_size > 0.0)
    values = np.zeros_like(numer)
    values[ok] = numer[ok] / denom[ok, None]
    return values, ok


def _support(box, tol=_SUPPORT_TOL):
    """Acceptance flags and depths of the rows of box coordinates ``box``:
    a row is accepted when each entry lies in [-tol, 1 + tol], and its
    depth is the distance to the nearest face of the unit box."""
    inside = ((box >= -tol) & (box <= 1.0 + tol)).all(axis=1)
    return inside, np.min(np.minimum(box, 1.0 - box), axis=1)


def _kernel_evaluator(pair, config):
    mesh = pair.master
    ramps = (1.0 + node_reference_coords(mesh.kind)) / 2.0
    cache = {}

    def evaluate(elem, phys):
        if elem not in cache:
            cache[elem] = reference_fit(
                mesh, elem, config.layout, config.kernel_family, config.epsilon
            )
        vals, ok = reference_evaluate(cache[elem], phys)
        inside, depth = _support(vals @ ramps)
        return vals, ok & inside, depth

    return evaluate


def _projection_evaluator(pair, config):
    mesh = pair.master

    def evaluate(elem, phys):
        xi, converged, updates = reference_project_batch(mesh, elem, phys)
        inside, depth = _support((1.0 + xi) / 2.0)
        return shape_values(mesh.kind, xi), converged & inside, depth, updates

    return evaluate


def _triplets(row_nodes, col_nodes, block):
    return (
        np.repeat(row_nodes, len(col_nodes)),
        np.tile(col_nodes, len(row_nodes)),
        np.asarray(block).ravel(),
    )


def _build(triplets, shape):
    if not triplets:
        return sparse.csr_matrix(shape)
    rows, cols, vals = (np.concatenate(part) for part in zip(*triplets))
    return sparse.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()


def reference_assemble(pair, config) -> MortarMatrices:
    """``rb`` or ``eb`` assembly by the per-pair loop.

    Each Gauss point is offered to every candidate master element whose
    :func:`reference_master_box` holds it, in ascending index order; the
    deepest containment wins and a tie keeps the earlier (lower-index)
    master.
    """
    slave, master = pair.slave, pair.master
    if config.scheme is Scheme.RB:
        evaluator = _kernel_evaluator(pair, config)
    else:
        evaluator = _projection_evaluator(pair, config)
    rule = config.slave_rule(slave.kind)
    slave_basis = shape_values(slave.kind, rule.points)
    candidates = reference_contact_search(pair)

    mass, coupling = [], []
    pairs_visited = point_pairs = newton_updates = 0
    dropped = 0
    uncovered = []
    for s_elem in range(slave.n_elems):
        cands = candidates[s_elem]
        if cands.size == 0:
            dropped += rule.n_points
            uncovered.append(s_elem)
            continue
        phys, measure = _element_points(slave, s_elem, rule.points)

        best_depth = np.full(rule.n_points, -np.inf)
        best_master = np.full(rule.n_points, -1)
        best_vals = np.zeros((rule.n_points, master.kind.n_nodes))
        for m_elem in cands:
            pairs_visited += 1
            lo, hi = reference_master_box(pair, m_elem, _SUPPORT_TOL)
            held = np.flatnonzero(((phys >= lo) & (phys <= hi)).all(axis=1))
            if held.size == 0:
                continue
            point_pairs += held.size
            vals, inside, depth, *updates = evaluator(int(m_elem), phys[held])
            newton_updates += sum(updates)
            depth = np.where(inside, depth, -np.inf)
            better = depth > best_depth[held]
            best_depth[held[better]] = depth[better]
            best_master[held[better]] = m_elem
            best_vals[held[better]] = vals[better]

        keep = best_master >= 0
        dropped += rule.n_points - int(np.count_nonzero(keep))
        if not keep.any():
            uncovered.append(s_elem)
            continue
        weights = rule.weights * measure
        s_nodes = slave.connectivity[s_elem]
        mass.append(
            _triplets(
                s_nodes,
                s_nodes,
                np.einsum(
                    "g,gi,gj->ij", weights[keep], slave_basis[keep], slave_basis[keep]
                ),
            )
        )
        for m_elem in np.unique(best_master[keep]):
            sel = keep & (best_master == m_elem)
            block = np.einsum(
                "g,gi,gk->ik", weights[sel], slave_basis[sel], best_vals[sel]
            )
            coupling.append(_triplets(s_nodes, master.connectivity[m_elem], block))

    stats = AssemblyStats(
        pairs_visited=pairs_visited,
        point_pairs=point_pairs,
        newton_updates=newton_updates,
        gauss_points_total=rule.n_points * slave.n_elems,
        gauss_points_dropped=dropped,
        uncovered_slave_elements=tuple(uncovered),
    )
    n_slave, n_master = slave.nodes.shape[0], master.nodes.shape[0]
    return MortarMatrices(
        slave_mass=_build(mass, (n_slave, n_slave)),
        coupling=_build(coupling, (n_slave, n_master)),
        stats=stats,
    )


def _reference_line_inverse(kind, node_params, targets):
    """Reference coordinates of one intersection's points on one element,
    by Newton iteration to 1e-14 of the element's own parameter length."""
    ref = node_reference_coords(kind)[:, 0]
    lo, hi = np.argmin(ref), np.argmax(ref)
    denom = node_params[hi] - node_params[lo]
    xi = (2.0 * (targets - node_params[lo]) / denom - 1.0)[:, None]
    for _ in range(30):
        vals = shape_values(kind, xi) @ node_params - targets
        if np.max(np.abs(vals)) <= 1e-14 * abs(denom):
            break
        slope = shape_gradients(kind, xi)[:, :, 0] @ node_params
        xi = np.clip(xi - (vals / slope)[:, None], -_NEWTON_CLAMP, _NEWTON_CLAMP)
    else:
        raise InvalidGeometryError("could not invert the 1D element parameterization")
    return xi


def reference_assemble_sb(pair, config) -> MortarMatrices:
    """``sb`` assembly by the slave x master scan.

    Both meshes are projected onto the master line; every slave element is
    intersected with every master element in ascending order, and each
    intersection longer than a sliver gets its own Gauss rule.
    """
    master, slave = pair.master, pair.slave
    rule = config.slave_rule(slave.kind)
    direction = _principal_direction(master.nodes)
    t_master = (master.nodes - master.nodes.mean(axis=0)) @ direction
    t_slave = (slave.nodes - master.nodes.mean(axis=0)) @ direction
    span = max(np.ptp(t_master), np.ptp(t_slave))
    straightness = max(
        _collinearity_residual(master.nodes, direction),
        _collinearity_residual(slave.nodes, direction),
    )
    assert straightness <= 1e-9 * span

    base_points, base_weights = rule.points[:, 0], rule.weights
    master_params = [t_master[conn] for conn in master.connectivity]
    master_bounds = [(p.min(), p.max()) for p in master_params]
    sliver = _SLIVER_REL * span

    mass, coupling = [], []
    pairs_visited = 0
    uncovered = []
    for s_elem in range(slave.n_elems):
        s_nodes = slave.connectivity[s_elem]
        s_params = t_slave[s_nodes]
        s_lo, s_hi = s_params.min(), s_params.max()
        covered = False
        for m_elem, (m_lo, m_hi) in enumerate(master_bounds):
            lo, hi = max(s_lo, m_lo), min(s_hi, m_hi)
            if hi - lo <= sliver:
                continue
            covered = True
            pairs_visited += 1
            t_g = 0.5 * (lo + hi) + 0.5 * (hi - lo) * base_points
            weights = 0.5 * (hi - lo) * base_weights
            s_vals = shape_values(
                slave.kind, _reference_line_inverse(slave.kind, s_params, t_g)
            )
            m_vals = shape_values(
                master.kind,
                _reference_line_inverse(master.kind, master_params[m_elem], t_g),
            )
            mass.append(
                _triplets(
                    s_nodes, s_nodes, np.einsum("g,gi,gj->ij", weights, s_vals, s_vals)
                )
            )
            coupling.append(
                _triplets(
                    s_nodes,
                    master.connectivity[m_elem],
                    np.einsum("g,gi,gk->ik", weights, s_vals, m_vals),
                )
            )
        if not covered:
            uncovered.append(s_elem)

    stats = AssemblyStats(
        pairs_visited=pairs_visited,
        gauss_points_total=rule.n_points * pairs_visited,
        gauss_points_dropped=0,
        uncovered_slave_elements=tuple(uncovered),
    )
    n_slave, n_master = slave.nodes.shape[0], master.nodes.shape[0]
    return MortarMatrices(
        slave_mass=_build(mass, (n_slave, n_slave)),
        coupling=_build(coupling, (n_slave, n_master)),
        stats=stats,
    )


def reference_triangle_geometry(mesh):
    """Vertex coordinates, double areas and constant basis gradients."""
    verts = mesh.nodes[mesh.connectivity]
    e1 = verts[:, 1] - verts[:, 0]
    e2 = verts[:, 2] - verts[:, 0]
    double_area = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    if np.any(double_area <= 0.0):
        bad = int(np.argmax(double_area <= 0.0))
        raise DegenerateElementError(
            f"triangle {bad} has non-positive area {double_area[bad] / 2.0:.3e}"
        )
    # gradient of barycentric function i: perpendicular of the opposite
    # edge over twice the area, with vertices ordered counterclockwise
    opp = np.stack(
        [verts[:, 2] - verts[:, 1], verts[:, 0] - verts[:, 2], verts[:, 1] - verts[:, 0]],
        axis=1,
    )
    grads = np.stack([-opp[:, :, 1], opp[:, :, 0]], axis=2)
    grads /= double_area[:, None, None]
    return verts, double_area, grads


def reference_stiffness(mesh) -> sparse.csr_matrix:
    """Standard P1 stiffness matrix of the Laplace operator."""
    _, double_area, grads = reference_triangle_geometry(mesh)
    blocks = np.einsum("e,eid,ejd->eij", 0.5 * double_area, grads, grads)
    conn = mesh.connectivity
    rows = np.repeat(conn, 3, axis=1).ravel()
    cols = np.tile(conn, (1, 3)).ravel()
    matrix = sparse.coo_matrix(
        (blocks.ravel(), (rows, cols)), shape=(mesh.n_nodes, mesh.n_nodes)
    )
    return matrix.tocsr()


def reference_load(mesh, source) -> np.ndarray:
    """P1 load vector by exact-enough triangle quadrature."""
    rule = triangle_rule_for_degree(poisson._LOAD_DEGREE)
    basis = shape_values(mesh.kind, rule.points)
    verts = mesh.nodes[mesh.connectivity]
    phys = np.einsum("gn,end->egd", basis, verts)
    values = np.asarray(source(phys[..., 0], phys[..., 1]), float)
    _, double_area, _ = reference_triangle_geometry(mesh)
    contrib = np.einsum("g,eg,gn,e->en", rule.weights, values, basis, double_area)
    load = np.zeros(mesh.n_nodes)
    np.add.at(load, mesh.connectivity.ravel(), contrib.ravel())
    return load


def solve_single_domain(mesh, source, dirichlet=None) -> np.ndarray:
    """Conforming single-mesh Poisson solve, the merged-mesh oracle: the
    library's stiffness, load and restricted solve on one mesh."""
    pinned = mesh.tagged_nodes("dirichlet")
    values = poisson._dirichlet_values(dirichlet, mesh.nodes[pinned])
    return poisson._restricted_solve(
        poisson.assemble_stiffness(mesh),
        poisson.assemble_load(mesh, source),
        pinned,
        values,
    )


def reference_domain_errors(mesh, values, exact, exact_gradient):
    """Squared broken L2 and H1-seminorm errors on one subdomain."""
    rule = triangle_rule_for_degree(poisson._NORM_DEGREE)
    basis = shape_values(mesh.kind, rule.points)
    verts = mesh.nodes[mesh.connectivity]
    phys = np.einsum("gn,end->egd", basis, verts)
    nodal = values[mesh.connectivity]

    approx = nodal @ basis.T
    truth = np.asarray(exact(phys[..., 0], phys[..., 1]), float)
    _, double_area, grads = reference_triangle_geometry(mesh)
    l2_sq = np.einsum("g,eg,e->", rule.weights, (approx - truth) ** 2, double_area)

    grad_approx = np.einsum("en,end->ed", nodal, grads)
    grad_truth = np.asarray(exact_gradient(phys[..., 0], phys[..., 1]), float)
    grad_diff = grad_approx[:, None, :] - grad_truth
    h1_sq = np.einsum("g,egd,e->", rule.weights, grad_diff**2, double_area)
    return float(l2_sq), float(h1_sq)


def reference_transfer_l2_error(slave, values, fn) -> float:
    """L2 norm of (FE field ``values`` - ``fn``) over the slave interface,
    one element at a time; ``fn`` maps physical points to exact values."""
    n_1d = 10
    rule = gauss_rule(
        slave.kind, n_1d if slave.kind.ref_dim == 1 else n_1d * n_1d
    )
    basis = shape_values(slave.kind, rule.points)
    total = 0.0
    for elem in range(slave.n_elems):
        phys, measure = _element_points(slave, elem, rule.points)
        approx = basis @ values[slave.connectivity[elem]]
        total += np.sum(rule.weights * measure * (approx - fn(phys)) ** 2)
    return float(np.sqrt(total))
