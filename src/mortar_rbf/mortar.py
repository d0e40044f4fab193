"""Mortar coupling matrices for non-conforming interface pairs.

Three quadrature schemes fill the same two matrices, the slave-side
multiplier mass matrix and the master-slave coupling matrix:

* ``rb``: the master basis is replaced by a rescaled kernel interpolant,
  so slave Gauss points never need to be projected onto the master;
* ``eb``: slave Gauss points are Newton-projected onto candidate master
  elements and points landing outside every master are sorted out;
* ``sb``: exact interval intersection for 1D interfaces only, found by a
  sort-and-sweep and inverted in one batch per side; the reference oracle.

Whatever the scheme, both matrices integrate over the identical set of
surviving Gauss points with identical weights.  That shared-point rule is
what makes the transfer operator reproduce constants, so the pointwise
schemes enforce it structurally: each surviving point is assigned to
exactly one master element and contributes to both matrices at once.

The pointwise schemes work in array passes over (slave Gauss point,
candidate master element) pairs rather than loops over elements: a
sort-and-sweep contact search returns the candidate (slave element,
master element) pairs as two flat slave-major arrays, and each slave
Gauss point goes on only with the candidates of its element whose master
box holds it (see :func:`_master_boxes`).  ``rb`` fits and evaluates
those masters in chunked batches (see :mod:`mortar_rbf.rbf`), ``eb`` runs
one Newton iteration over all pairs in which every pair retires as soon
as its own residual converges or its step leaves the clamp box twice in
a row, one sort picks each point's master, and one COO build scatters
both matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import SuperLU, splu

from .elements import (
    ElementKind,
    gauss_rule,
    min_gauss_points,
    node_reference_coords,
    shape_gradients,
    shape_second_derivatives,
    shape_values,
)
from .errors import (
    DegenerateElementError,
    IllConditionedKernelError,
    InvalidGeometryError,
    SingularOperatorError,
)
from .meshes import (
    InterfaceMesh,
    element_circumdiameters,
    element_geometry,
)
from .rbf import (  # bench/tracer.py wraps the one-element faces here
    COND_LIMIT,
    KernelFamily,
    PointLayout,
    evaluate_interpolants,
    evaluate_rescaled_masked,
    fit_interpolants,
    fit_master_interpolant,
)

#: Support detection accepts values up to this far outside [0, 1], so a
#: slave point on a master element's boundary is not lost to the rounding
#: of the interpolated ramps or the Newton foot point.  Master boxes grow
#: to match (see :func:`_master_boxes`).
_SUPPORT_TOL = 1e-6

#: ``eb`` Newton stops when the tangential residual falls below this
#: fraction of the element's squared circumdiameter: the residual scales
#: as length squared, and 1e-10 puts the foot point far below the mortar
#: quadrature error.
_NEWTON_TOL = 1e-10

#: Newton steps per (point, master) pair.  A pair that converges needs a
#: handful; the budget only bounds the pairs that never do.
_NEWTON_MAX_ITER = 20

#: Newton iterates are clamped inside the widest reference box the shape
#: routines accept, so evaluation never fails mid-iteration.  An ``eb``
#: pair whose Newton step reaches it twice in a row retires as not
#: converged.
_NEWTON_CLAMP = 1.45

#: Intersection intervals shorter than this fraction of the interface span
#: are discarded as degenerate slivers.
_SLIVER_REL = 1e-14

#: Coupling columns densified per slave-mass solve (no full-size dense copy).
_SOLVE_COLUMNS = 64

#: Entries of the dense transfer smaller in magnitude than the smallest
#: normal double are stored as exact zeros (see :class:`TransferOperator`).
_TRANSFER_FLOOR = np.finfo(float).tiny

#: (mid node, corner, corner) of each quadratic element edge.
_MID_NODES = {
    ElementKind.SEG3: ((1, 0, 2),),
    ElementKind.QUAD8: ((4, 0, 1), (5, 1, 2), (6, 2, 3), (7, 3, 0)),
}

#: Master boxes also grow by this fraction of their coordinate size, so a
#: slave point lying on the master surface is never dropped by rounding.
_BOX_ROUNDING = 1e-12


class Scheme(str, Enum):
    """Quadrature scheme used to build the coupling matrices."""

    RB = "rb"
    EB = "eb"
    SB1D = "sb"


@dataclass(frozen=True)
class MortarConfig:
    """Assembly options shared by every scheme.

    ``n_gauss`` counts Gauss points per slave element (total, so tensor
    rules on quadrilaterals take 4, 9, 16, ...).  ``None`` picks the
    minimum admissible for the slave element degree.  ``epsilon`` forces a
    kernel shape parameter; by default each master element uses its own
    circumdiameter.  The support tolerance and the ``eb`` Newton stopping
    rule are fixed (``_SUPPORT_TOL``, ``_NEWTON_TOL``, ``_NEWTON_MAX_ITER``).
    """

    scheme: Scheme = Scheme.RB
    n_gauss: int | None = None
    kernel_family: KernelFamily = KernelFamily.GAUSSIAN
    layout: PointLayout = field(default_factory=PointLayout)
    epsilon: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "scheme", Scheme(self.scheme))
        object.__setattr__(self, "kernel_family", KernelFamily(self.kernel_family))
        if self.n_gauss is not None and self.n_gauss < 1:
            raise ValueError("n_gauss must be positive")
        if self.epsilon is not None and not 0.0 < self.epsilon < np.inf:
            raise ValueError(
                f"epsilon override must be finite and positive, got {self.epsilon}"
            )


@dataclass(frozen=True, eq=False)
class InterfacePair:
    """A master and a slave interface mesh glued by mortar conditions.

    ``gap_tolerance`` inflates the element boxes of the contact search
    and bounds each slave Gauss point's distance to the box of the master
    that takes it (see :func:`_master_boxes`).  It must cover the largest
    geometric gap between the two surfaces (warped or offset interfaces):
    a point farther than the gap from every candidate master's box is
    dropped and counted in ``gauss_points_dropped``.  The default, half
    the largest element circumdiameter on either side, covers moderate
    warps; pass an explicit value for larger offsets.
    """

    master: InterfaceMesh
    slave: InterfaceMesh
    gap_tolerance: float | None = None

    def __post_init__(self):
        for side, mesh in (("master", self.master), ("slave", self.slave)):
            if mesh.n_elems == 0:
                raise InvalidGeometryError(f"the {side} interface has no elements")
        if self.master.kind.ref_dim != self.slave.kind.ref_dim:
            raise InvalidGeometryError(
                "master and slave interfaces must both be curves or both "
                f"be surfaces, got {self.master.kind.value} and "
                f"{self.slave.kind.value}"
            )
        if self.master.nodes.shape[1] != self.slave.nodes.shape[1]:
            raise InvalidGeometryError(
                "master and slave interfaces live in different ambient "
                "dimensions"
            )
        if self.gap_tolerance is not None and not 0.0 <= self.gap_tolerance < np.inf:
            raise ValueError(
                f"gap_tolerance must be finite and non-negative, got {self.gap_tolerance}"
            )

    @cached_property
    def resolved_gap_tolerance(self) -> float:
        """The gap tolerance, computed once: the pair and its meshes are frozen."""
        if self.gap_tolerance is not None:
            return self.gap_tolerance
        return 0.5 * max(
            float(element_circumdiameters(mesh).max())
            for mesh in (self.master, self.slave)
        )


@dataclass
class AssemblyStats:
    """Bookkeeping emitted by every assembly run.

    ``pairs_visited`` counts (slave element, master element) pairs and
    ``point_pairs`` the (slave Gauss point, master element) pairs that
    ``rb``/``eb`` evaluate, those whose master box holds the point.
    ``newton_updates`` counts the (point pair, step) Newton updates that
    ``eb`` makes; it is 0 for ``rb`` and ``sb``.
    """

    pairs_visited: int = 0
    point_pairs: int = 0
    newton_updates: int = 0
    gauss_points_total: int = 0
    gauss_points_dropped: int = 0
    uncovered_slave_elements: tuple[int, ...] = ()

    @property
    def dropped_fraction(self) -> float:
        if self.gauss_points_total == 0:
            return 0.0
        return self.gauss_points_dropped / self.gauss_points_total


@dataclass(frozen=True, eq=False)
class MortarMatrices:
    """Slave mass and coupling matrices plus assembly bookkeeping.

    ``slave_mass`` is square over slave interface nodes and symmetric;
    ``coupling`` maps master nodes to slave test functions.  Both were
    integrated over the same surviving Gauss points.
    """

    slave_mass: sparse.csr_matrix
    coupling: sparse.csr_matrix
    stats: AssemblyStats

    @property
    def n_slave_nodes(self) -> int:
        return self.slave_mass.shape[0]

    @property
    def n_master_nodes(self) -> int:
        return self.coupling.shape[1]


@dataclass(frozen=True, eq=False)
class TransferOperator:
    """Maps master interface nodal values to slave interface nodal values.

    M^-1 D is kept as the slave mass LU ``factor`` and the CSC ``coupling``
    D, which transfer one field by a sparse product and a solve.  The
    inverse couples every slave node, so ``matrix``, M^-1 D as a dense
    (n_slave_nodes, n_master_nodes) array, costs an n_slave x n_master
    solve: it is built on first read, by batch transfers and the condensed
    prolongation, and kept.  The factor also serves multiplier recovery.

    The entries of the inverse of a banded mass matrix decay exponentially
    with the distance between nodes, so on long interfaces far entries of
    M^-1 D fall into the subnormal range, where every product costs many
    times a normal one.  ``matrix`` stores each entry with |m| below
    ``_TRANSFER_FLOOR``, the smallest normal double, as exact 0.0, flushed
    per solved block, so no second full-size array is made.  A product
    with ``b`` then moves by less than 2.23e-308 ||b||_1 per entry.
    """

    factor: SuperLU = field(repr=False)
    coupling: sparse.csc_matrix = field(repr=False)

    @property
    def n_slave_nodes(self) -> int:
        return self.coupling.shape[0]

    @property
    def n_master_nodes(self) -> int:
        return self.coupling.shape[1]

    @cached_property
    def matrix(self) -> np.ndarray:
        matrix = np.empty(self.coupling.shape, order="F")
        for start in range(0, self.n_master_nodes, _SOLVE_COLUMNS):
            columns = slice(start, start + _SOLVE_COLUMNS)
            block = self.factor.solve(self.coupling[:, columns].toarray())
            block[np.abs(block) < _TRANSFER_FLOOR] = 0.0
            matrix[:, columns] = block
        return matrix

    def row_sums(self) -> np.ndarray:
        # bench/tracer.py wraps interface_transfer and fails outside its operations
        return _transfer_field(self, np.ones(self.n_master_nodes))


def _resolve_rule(config: MortarConfig, kind: ElementKind):
    minimum = min_gauss_points(kind)
    n = config.n_gauss if config.n_gauss is not None else minimum
    if n < minimum:
        raise ValueError(
            f"{kind.value} mortar integrals need at least {minimum} Gauss "
            f"points per slave element, got {n}"
        )
    return gauss_rule(kind, n)


def _sweep_overlaps(master, slave, gap: float) -> tuple[np.ndarray, np.ndarray]:
    """Slave and master indices of the element boxes that touch or intersect.

    ``master``/``slave`` hold element nodes, shape (n_elems, n_nodes, dim);
    boxes are inflated by ``gap``.  With the masters sorted by their lower
    bound on the axis along which they spread most, two binary searches
    give each slave box a window of masters, and only pairs inside it get
    the full box test.  The window reaches back twice the widest master
    extent, so rounding never drops a master that reaches the slave.
    Pairs come slave-major with the master index ascending.
    """
    master_lo, master_hi = master.min(axis=1), master.max(axis=1)
    slave_lo, slave_hi = slave.min(axis=1), slave.max(axis=1)
    axis = int(np.argmax(np.ptp(master_lo + master_hi, axis=0)))
    order = np.argsort(master_lo[:, axis], kind="stable")
    sorted_lo = master_lo[order, axis]
    reach = 2.0 * float(np.max(master_hi[:, axis] - master_lo[:, axis]))
    start = np.searchsorted(sorted_lo, slave_lo[:, axis] - gap - reach, "left")
    stop = np.searchsorted(sorted_lo, slave_hi[:, axis] + gap, "right")

    counts = stop - start
    s_elem = np.repeat(np.arange(slave_lo.shape[0]), counts)
    offset = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    m_elem = order[np.repeat(start, counts) + offset]
    hit = (
        (slave_lo[s_elem] - gap <= master_hi[m_elem])
        & (slave_hi[s_elem] + gap >= master_lo[m_elem])
    ).all(axis=1)
    s_elem, m_elem = s_elem[hit], m_elem[hit]
    order = np.lexsort((m_elem, s_elem))
    return s_elem[order], m_elem[order]


def _candidate_pairs(pair: InterfacePair) -> tuple[np.ndarray, np.ndarray]:
    """Slave and master element indices of every candidate pair.

    Axis-aligned bounding boxes inflated by the pair's gap tolerance; a
    master is a candidate whenever the inflated boxes intersect, found by
    one sort-and-sweep.  Flat conforming interfaces produce no false
    negatives even at zero tolerance because touching boxes count as
    intersecting.  Pairs come slave-major with the master index ascending.
    """
    corners = [mesh.nodes[mesh.connectivity] for mesh in (pair.master, pair.slave)]
    return _sweep_overlaps(*corners, pair.resolved_gap_tolerance)


def contact_search(pair: InterfacePair) -> list[np.ndarray]:
    """Candidate master elements per slave element, in ascending order: the
    per-slave view of :func:`_candidate_pairs`, which assembly reads
    directly.  Kept for tests and the benchmark tracer only."""
    s_elem, m_elem = _candidate_pairs(pair)
    per_slave = np.bincount(s_elem, minlength=pair.slave.n_elems)
    return np.split(m_elem, np.cumsum(per_slave))[:-1]


def _uncovered(s_elem: np.ndarray, n_elems: int) -> tuple[int, ...]:
    """Slave elements, ascending, that no surviving Gauss point lies on."""
    return tuple(np.flatnonzero(np.bincount(s_elem, minlength=n_elems) == 0).tolist())


def _master_boxes(pair: InterfacePair, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper corners, each (n_master_elems, dim), of the master
    boxes: each holds every foot point its element can accept, grown by
    the pair's gap tolerance.

    The acceptance tests pass reference coordinates up to ``2 tol`` beyond
    the reference box.  There the linear or bilinear map of the corners
    leaves the node box by at most 2 tol (1 + tol) of its extent per axis.
    A ``seg3``/``quad8`` map adds sum_m N_m d_m, where d_m is mid node m's
    offset from the mean of its edge's two corners and |N_m| <= 1 + tol,
    so the bulge adds (1 + tol) sum_m |d_m| per axis.  The pair's gap
    tolerance then covers the distance from the slave point to the
    master surface.
    """
    mesh = pair.master
    nodes = mesh.nodes[mesh.connectivity]
    lo, hi = nodes.min(axis=1), nodes.max(axis=1)
    bulge = sum(
        np.abs(nodes[:, mid] - 0.5 * (nodes[:, a] + nodes[:, b]))
        for mid, a, b in _MID_NODES.get(mesh.kind, ())
    )
    grow = (
        (1.0 + tol) * (2.0 * tol * (hi - lo) + bulge)
        + pair.resolved_gap_tolerance
        + _BOX_ROUNDING * np.maximum(np.abs(lo), np.abs(hi))
    )
    return lo - grow, hi + grow


def support_detect(values, tol: float):
    """True for each probe row of ``values`` whose entries all lie within
    [-tol, 1+tol]; ``values`` has shape (n_points, n_probes).

    A probe row holds quantities that live in [0, 1] exactly when the
    point sits over the master element: interpolated coordinate ramps for
    the kernel scheme, normalized reference coordinates for the projection
    scheme.
    """
    values = np.asarray(values, float)
    return ((values >= -tol) & (values <= 1.0 + tol)).all(axis=1)


def _containment_depth(box_coords: np.ndarray) -> np.ndarray:
    """Distance to the nearest face of the unit reference box, signed.

    Positive inside, negative outside; the tie-break assigns boundary
    points to the candidate they sit deepest in.
    """
    return np.minimum(box_coords, 1.0 - box_coords).min(axis=1)


def _box_coordinate_data(kind: ElementKind) -> np.ndarray:
    """Nodal values of the reference box coordinates (1 + xi) / 2.

    Interpolating these ramps recovers the box coordinates of a query
    point because the shape functions reproduce linear functions.  The
    ramps and their complements are the positive corner-pair combinations
    used for support detection; raw corner bases would not do, since they
    dip below zero inside quadrilaterals.
    """
    return (1.0 + node_reference_coords(kind)) / 2.0


def _solve_newton_step(hess: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    tiny = np.finfo(float).tiny
    step = np.zeros_like(rhs)
    if rhs.shape[1] == 1:
        diag = hess[:, 0, 0]
        safe = np.abs(diag) > tiny
        step[safe, 0] = rhs[safe, 0] / diag[safe]
        return step
    a, b = hess[:, 0, 0], hess[:, 0, 1]
    c, d = hess[:, 1, 0], hess[:, 1, 1]
    det = a * d - b * c
    safe = np.abs(det) > tiny
    step[safe, 0] = (d[safe] * rhs[safe, 0] - b[safe] * rhs[safe, 1]) / det[safe]
    step[safe, 1] = (a[safe] * rhs[safe, 1] - c[safe] * rhs[safe, 0]) / det[safe]
    return step


def _project_points(
    kind: ElementKind,
    coords: np.ndarray,
    targets: np.ndarray,
    scale: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Newton projection of each target point onto its own element.

    ``coords`` (n_points, n_nodes, dim) holds the nodes of the element
    each target is projected onto and ``scale`` that element's squared
    circumdiameter.  Finds reference coordinates where the residual, the
    gap vector dotted with the surface tangents, vanishes; that is the
    foot point of the orthogonal projection.  The residual scales as
    length squared, so the tolerance is taken relative to ``scale``.

    Each point retires as soon as its own residual passes the tolerance,
    so a point's result does not depend on the other points in the batch.
    Iterates are clipped into the clamp box.  A point whose Newton step
    leaves the box (any |xi| >= the clamp) from an iterate already clipped
    there, so twice in a row, retires as not converged.  One such step is
    not enough: on a strongly curved element (a ``seg3`` spanning a
    quarter circle) the first step from the centre overshoots a foot
    point near an end node past the clamp, and the next one comes back.
    A point whose iterate stops changing exactly (say, a zero step from a
    singular Hessian) sits at a fixed point and retires as not converged
    too.  Returns the reference coordinates, the convergence flags and
    the number of (point, step) Newton updates.
    """
    xi = np.zeros((targets.shape[0], kind.ref_dim))
    converged = np.zeros(targets.shape[0], dtype=bool)
    active = np.arange(targets.shape[0])
    updates = 0
    for step in range(_NEWTON_MAX_ITER + 1):
        nodes, current = coords[active], xi[active]
        jac = np.einsum("pnr,pnd->pdr", shape_gradients(kind, current), nodes)
        gap = targets[active] - np.einsum(
            "pn,pnd->pd", shape_values(kind, current), nodes
        )
        resid = np.einsum("pdr,pd->pr", jac, gap)
        done = np.max(np.abs(resid), axis=1) <= _NEWTON_TOL * scale[active]
        converged[active[done]] = True
        go = ~done
        active = active[go]
        if step == _NEWTON_MAX_ITER or active.size == 0:
            break
        nodes, current, jac, gap = nodes[go], current[go], jac[go], gap[go]
        curv = np.einsum(
            "pnrs,pnd->pdrs", shape_second_derivatives(kind, current), nodes
        )
        hess = -np.einsum("pdr,pds->prs", jac, jac) + np.einsum(
            "pdrs,pd->prs", curv, gap
        )
        raw = current + _solve_newton_step(hess, -resid[go])
        new_xi = np.clip(raw, -_NEWTON_CLAMP, _NEWTON_CLAMP)
        xi[active] = new_xi
        updates += active.size
        moving = (new_xi != current).any(axis=1)
        clipped = (np.abs(current) == _NEWTON_CLAMP).any(axis=1)
        leaves = (np.abs(raw) >= _NEWTON_CLAMP).any(axis=1)
        active = active[moving & ~(clipped & leaves)]
    return xi, converged, updates


def _kernel_values(pair: InterfacePair, config: MortarConfig, masters, points):
    """Kernel-interpolated master bases; each candidate master is fitted once,
    and the lowest whose condition exceeds :data:`~.rbf.COND_LIMIT` raises."""
    mesh = pair.master
    used = np.bincount(masters, minlength=mesh.n_elems) > 0
    elems, owner = np.flatnonzero(used), (np.cumsum(used) - 1)[masters]
    interp = fit_interpolants(
        mesh, elems, config.layout, config.kernel_family, epsilon=config.epsilon
    )
    bad = np.flatnonzero(interp.condition > COND_LIMIT)
    if bad.size:
        condition = float(interp.condition[bad[0]])
        raise IllConditionedKernelError(
            f"master element {elems[bad[0]]}: kernel collocation matrix is "
            f"numerically singular (condition {condition:.3e})",
            condition=condition,
        )
    values, ok = evaluate_interpolants(interp, owner, points)
    probes = values @ _box_coordinate_data(mesh.kind)
    inside = ok & support_detect(probes, _SUPPORT_TOL)
    return values, inside, _containment_depth(probes)


def _projection_values(pair: InterfacePair, config: MortarConfig, masters, points):
    """Master bases at the Newton foot points of each (point, master) pair."""
    mesh = pair.master
    scale = element_circumdiameters(mesh) ** 2
    xi, converged, updates = _project_points(
        mesh.kind,
        mesh.nodes[mesh.connectivity[masters]],
        points,
        scale[masters],
    )
    box = (1.0 + xi) / 2.0
    inside = converged & support_detect(box, _SUPPORT_TOL)
    return shape_values(mesh.kind, xi), inside, _containment_depth(box), updates


def _scatter(
    pair: InterfacePair, s_elem, m_elem, weights, slave_vals, master_vals
) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """Slave mass and coupling from per-point contributions.

    Point k adds ``weights[k]`` times the outer products of its slave
    basis values with themselves and with its master basis values to the
    rows of slave element ``s_elem[k]`` and the columns of ``s_elem[k]``
    and master element ``m_elem[k]``; one COO build sums them.
    """
    s_nodes = pair.slave.connectivity[s_elem]
    weighted = weights[:, None] * slave_vals

    def build(col_nodes, col_vals, n_cols):
        rows, cols = np.broadcast_arrays(s_nodes[:, :, None], col_nodes[:, None, :])
        vals = weighted[:, :, None] * col_vals[:, None, :]
        return sparse.coo_matrix(
            (vals.ravel(), (rows.ravel(), cols.ravel())),
            shape=(pair.slave.n_nodes, n_cols),
        ).tocsr()

    return (
        build(s_nodes, slave_vals, pair.slave.n_nodes),
        build(pair.master.connectivity[m_elem], master_vals, pair.master.n_nodes),
    )


def _assemble_pointwise(
    pair: InterfacePair, config: MortarConfig, evaluate
) -> MortarMatrices:
    """Shared assembly of the kernel and projection schemes, in array passes.

    Every slave Gauss point is paired with each candidate master element
    of its slave element whose box (see :func:`_master_boxes`) holds it;
    ``evaluate`` returns the master basis values, an acceptance flag and a
    containment depth for all those pairs at once; the projection also
    returns its Newton update count.
    Among the masters accepting a point, the point is assigned to the one
    it sits deepest in, a tie going to the lowest master index.  Points
    accepted by nobody are dropped from both matrices, which keeps the
    quadrature sets of the two matrices identical.
    """
    slave = pair.slave
    rule = _resolve_rule(config, slave.kind)
    n_gauss = rule.n_points
    cand_slave, cand_master = _candidate_pairs(pair)
    n_cands = np.bincount(cand_slave, minlength=slave.n_elems)
    phys, metric = element_geometry(slave, rule.points)
    degenerate = np.flatnonzero((n_cands > 0) & (metric <= 0.0).any(axis=1))
    if degenerate.size:
        raise DegenerateElementError(
            f"element {degenerate[0]} has a degenerate surface metric"
        )

    # One entry per (slave Gauss point, candidate master) pair; a point is
    # numbered s_elem * n_gauss + gauss_index.
    pair_point = (cand_slave[:, None] * n_gauss + np.arange(n_gauss)).ravel()
    pair_master = np.repeat(cand_master, n_gauss)
    points = phys.reshape(-1, phys.shape[-1])[pair_point]
    lo, hi = _master_boxes(pair, _SUPPORT_TOL)
    held = ((points >= lo[pair_master]) & (points <= hi[pair_master])).all(axis=1)
    pair_point, pair_master = pair_point[held], pair_master[held]
    values, inside, depth, *newton_updates = evaluate(
        pair, config, pair_master, points[held]
    )

    hit = np.flatnonzero(inside)
    hit = hit[np.lexsort((pair_master[hit], -depth[hit], pair_point[hit]))]
    first = np.ones(hit.size, dtype=bool)
    first[1:] = pair_point[hit[1:]] != pair_point[hit[:-1]]
    win = hit[first]
    point = pair_point[win]
    s_elem, gauss = np.divmod(point, n_gauss)
    weights = rule.weights[gauss] * np.sqrt(metric[s_elem, gauss])
    slave_basis = shape_values(slave.kind, rule.points)
    mass, coupling = _scatter(
        pair, s_elem, pair_master[win], weights, slave_basis[gauss], values[win]
    )

    stats = AssemblyStats(
        pairs_visited=int(cand_slave.size),
        point_pairs=int(pair_point.size),
        newton_updates=sum(newton_updates),
        gauss_points_total=n_gauss * slave.n_elems,
        gauss_points_dropped=n_gauss * slave.n_elems - int(point.size),
        uncovered_slave_elements=_uncovered(s_elem, slave.n_elems),
    )
    return MortarMatrices(slave_mass=mass, coupling=coupling, stats=stats)


def _principal_direction(nodes: np.ndarray) -> np.ndarray:
    centered = nodes - nodes.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    direction = vt[0]
    lead = np.argmax(np.abs(direction))
    if direction[lead] < 0.0:
        direction = -direction
    return direction


def _collinearity_residual(nodes: np.ndarray, direction: np.ndarray) -> float:
    centered = nodes - nodes.mean(axis=0)
    along = centered @ direction
    return float(np.max(np.abs(centered - np.outer(along, direction)), initial=0.0))


def _line_parameter_inverse(side, kind, elem_params, elems, targets, span):
    """Reference coordinates where each point's element reaches its target.

    Point k lies on element ``elems[k]`` of the ``side`` mesh, whose nodes
    sit at line parameters ``elem_params[elems[k]]``; mesh validation
    rules out folded elements.  Raises :class:`InvalidGeometryError`
    naming the lowest element where the inversion does not converge.
    """
    node_params = elem_params[elems]
    # segment nodes run from xi = -1 to xi = 1, any mid node in between
    p_lo, p_hi = node_params[:, 0], node_params[:, -1]
    xi = (2.0 * (targets - p_lo) / (p_hi - p_lo) - 1.0)[:, None]
    active = np.arange(targets.size)
    for _ in range(30):
        x, params = xi[active], node_params[active]
        resid = np.einsum("pn,pn->p", shape_values(kind, x), params) - targets[active]
        go = np.abs(resid) > 1e-14 * span
        active, x, params, resid = active[go], x[go], params[go], resid[go]
        if active.size == 0:
            break
        slope = np.einsum("pn,pn->p", shape_gradients(kind, x)[:, :, 0], params)
        step = x - (resid / slope)[:, None]
        xi[active] = np.clip(step, -_NEWTON_CLAMP, _NEWTON_CLAMP)
    if active.size:
        raise InvalidGeometryError(
            f"could not invert the line parameterization of {side} element "
            f"{int(np.min(elems[active]))}; it is badly distorted"
        )
    return xi


def assemble_sb_1d(pair: InterfacePair, config: MortarConfig) -> MortarMatrices:
    """Exact assembly for straight 1D interfaces by interval intersection.

    Both meshes must be straight and parallel (the slave may sit at a
    normal offset; it is projected onto the master line).  Every
    slave-master intersection interval receives its own Gauss rule, which
    integrates the polynomial integrands exactly, so the result serves as
    the reference the other schemes are compared against.  A sort-and-sweep
    over the element intervals finds the intersections (slivers dropped);
    one batched inversion per side places all their Gauss points.
    """
    master, slave = pair.master, pair.slave
    if master.kind.ref_dim != 1:
        raise InvalidGeometryError(
            "exact intersection assembly handles 1D interfaces only"
        )
    rule = _resolve_rule(config, slave.kind)

    direction = _principal_direction(master.nodes)
    t_master = (master.nodes - master.nodes.mean(axis=0)) @ direction
    t_slave = (slave.nodes - master.nodes.mean(axis=0)) @ direction
    span = max(np.ptp(t_master), np.ptp(t_slave))
    straightness = max(
        _collinearity_residual(master.nodes, direction),
        _collinearity_residual(slave.nodes, direction),
    )
    if straightness > 1e-9 * span:
        raise InvalidGeometryError(
            "exact intersection assembly needs straight parallel meshes; "
            f"largest off-line deviation is {straightness:.3e}"
        )

    m_params, s_params = t_master[master.connectivity], t_slave[slave.connectivity]
    s_elem, m_elem = _sweep_overlaps(m_params[..., None], s_params[..., None], 0.0)
    lo = np.maximum(s_params[s_elem].min(axis=1), m_params[m_elem].min(axis=1))
    hi = np.minimum(s_params[s_elem].max(axis=1), m_params[m_elem].max(axis=1))
    keep = hi - lo > _SLIVER_REL * span
    s_elem, m_elem, lo, hi = s_elem[keep], m_elem[keep], lo[keep], hi[keep]

    # Point k * n_points + g is Gauss point g of intersection k.
    n_points = rule.n_points
    half = 0.5 * (hi - lo)
    t_g = ((0.5 * (lo + hi))[:, None] + half[:, None] * rule.points[:, 0]).ravel()
    s_point, m_point = np.repeat(s_elem, n_points), np.repeat(m_elem, n_points)
    xi_s = _line_parameter_inverse("slave", slave.kind, s_params, s_point, t_g, span)
    xi_m = _line_parameter_inverse("master", master.kind, m_params, m_point, t_g, span)
    weights = (half[:, None] * rule.weights).ravel()
    slave_vals = shape_values(slave.kind, xi_s)
    master_vals = shape_values(master.kind, xi_m)
    mass, coupling = _scatter(pair, s_point, m_point, weights, slave_vals, master_vals)
    stats = AssemblyStats(
        pairs_visited=int(s_elem.size),
        gauss_points_total=n_points * int(s_elem.size),
        uncovered_slave_elements=_uncovered(s_elem, slave.n_elems),
    )
    return MortarMatrices(slave_mass=mass, coupling=coupling, stats=stats)


def assemble(pair: InterfacePair, config: MortarConfig) -> MortarMatrices:
    """Dispatch on the configured scheme.

    ``rb`` fits one rescaled interpolant per candidate master element and
    classifies slave points by interpolated coordinate ramps, so no
    projection ever runs; ``eb`` projects slave Gauss points by Newton
    iteration.
    """
    if config.scheme is Scheme.RB:
        return _assemble_pointwise(pair, config, _kernel_values)
    if config.scheme is Scheme.EB:
        return _assemble_pointwise(pair, config, _projection_values)
    return assemble_sb_1d(pair, config)


def compute_transfer(matrices: MortarMatrices) -> TransferOperator:
    """Factorize the slave mass for transfers against the coupling matrix.

    Never forms an inverse, nor the dense M^-1 D until
    ``TransferOperator.matrix`` is read.  Raises :class:`SingularOperatorError`
    naming the slave nodes whose rows are empty (uncovered nodes), or
    wrapping the factorization failure otherwise.
    """
    mass = matrices.slave_mass.tocsr()
    row_weight = np.asarray(np.abs(mass).sum(axis=1)).ravel()
    empty = np.flatnonzero(row_weight == 0.0)
    if empty.size:
        raise SingularOperatorError(
            "slave mass matrix has empty rows; slave nodes "
            f"{empty.tolist()} received no surviving Gauss points",
            nodes=empty.tolist(),
        )
    try:
        factor = splu(mass.tocsc())
    except RuntimeError as exc:
        raise SingularOperatorError(
            f"slave mass factorization failed: {exc}"
        ) from exc
    return TransferOperator(factor=factor, coupling=matrices.coupling.tocsc())


def _transfer_field(transfer: TransferOperator, values: np.ndarray) -> np.ndarray:
    return transfer.factor.solve(transfer.coupling @ values)


def interface_transfer(transfer: TransferOperator, master_values) -> np.ndarray:
    """Apply the transfer operator to master interface nodal values.

    A field (n_master,) goes through the factor, a batch (n_master, k)
    through the dense ``matrix``.  That matrix stores its subnormal
    entries as zeros, which moves each batch entry by less than 2.23e-308
    times the 1-norm of its master values.
    """
    values = np.asarray(master_values, float)
    if values.ndim not in (1, 2):
        raise ValueError(f"master_values must be 1-d or 2-d, got shape {values.shape}")
    if values.shape[0] != transfer.n_master_nodes:
        raise ValueError(
            f"expected {transfer.n_master_nodes} master nodal values, "
            f"got {values.shape[0]}"
        )
    if values.ndim == 1:
        return _transfer_field(transfer, values)
    return transfer.matrix @ values
