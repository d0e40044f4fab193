"""Mortar coupling matrices for non-conforming interface pairs.

Three quadrature schemes fill the same two matrices, the slave-side
multiplier mass matrix and the master-slave coupling matrix:

* ``rb``: the master basis is replaced by a rescaled kernel interpolant,
  so slave Gauss points never need to be projected onto the master;
* ``eb``: slave Gauss points are Newton-projected onto candidate master
  elements and points landing outside every master are sorted out;
* ``sb``: exact interval intersection for 1D interfaces only, found by a
  sort-and-sweep and mapped back in closed form; the reference oracle.

Whatever the scheme, both matrices integrate over the identical set of
surviving Gauss points with identical weights.  That shared-point rule is
what makes the transfer operator reproduce constants, so the pointwise
schemes enforce it structurally: each surviving point is assigned to
exactly one master element and contributes to both matrices at once.

The pointwise schemes work in array passes over (slave Gauss point,
candidate master element) pairs rather than loops over elements: a
sort-and-sweep contact search returns the candidate (slave element,
master element) pairs as two flat slave-major arrays, and each slave
Gauss point goes on only with the candidates of its element whose
master box holds it (see :func:`_master_boxes`), and for ``eb`` whose
local-frame box holds it as well (see :func:`_local_box_holds`).  ``rb``
fits and evaluates those masters in chunked batches (see
:mod:`mortar_rbf.rbf`), ``eb`` runs one Newton iteration over all pairs
in which every pair retires as soon as its own residual converges or its
step leaves the clamp box twice in a row; both yield box coordinates, one
acceptance rule and one sort pick each point's master, and one COO build
scatters both matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from math import comb

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import SuperLU, splu

from .elements import (
    _ELEMENTS,
    ElementKind,
    QuadratureRule,
    as_count,
    gauss_rule,
    min_gauss_points,
    node_reference_coords,
    shape_values,
    tensor_points,
)
from .errors import (
    DegenerateElementError,
    IllConditionedKernelError,
    InvalidGeometryError,
    SingularOperatorError,
)
from .meshes import (
    InterfaceMesh,
    _cross,
    element_circumdiameters,
    element_frames,
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

#: Assembly accepts box coordinates up to this far outside [0, 1] (see
#: :func:`_containment_depth`), so a slave point on a master element's
#: boundary is not lost to the rounding of the interpolated ramps or the
#: Newton foot point.  Master boxes grow to match (see :func:`_master_boxes`).
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

#: A batch transfer multiplies by the dense ``matrix`` while the operator
#: has at most this many entries (1 MiB of float64), and goes through the
#: slave-mass factor above it.  For 64 fields the two paths cost the same
#: near 6e4 entries on seg2 pairs and near 3e5 on quad4 pairs (the factor
#: is denser on surfaces), so the constant sits between the two: the worst
#: measured loss is 1.5x, on seg2 pairs just below it and quad4 pairs just
#: above it.  ``scripts/transfer_crossover.py`` prints the timings.
_DENSE_BATCH_ENTRIES = 2**17

#: Entries of the dense transfer smaller in magnitude than the smallest
#: normal double are stored as exact zeros (see :class:`TransferOperator`).
_TRANSFER_FLOOR = np.finfo(float).tiny

#: Master boxes also grow by this fraction of their coordinate size, so a
#: slave point lying on the master surface is never dropped by rounding.
_BOX_ROUNDING = 1e-12

#: Local master boxes (see :func:`_local_box_holds`) grow by this fraction
#: of their largest tangential extent along each tangent axis.  It covers
#: the ``eb`` Newton tolerance: a converged foot point leaves the point's
#: tangential offset at about 1e-10 of the element size, times the
#: element's aspect ratio.
_FOOT_SLACK = 1e-3


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
        if self.n_gauss is not None:
            object.__setattr__(self, "n_gauss", as_count(self.n_gauss, "n_gauss"))
            if self.n_gauss < 1:
                raise ValueError("n_gauss must be positive")
        if self.epsilon is not None and not 0.0 < self.epsilon < np.inf:
            raise ValueError(
                f"epsilon override must be finite and positive, got {self.epsilon}"
            )

    def slave_rule(self, kind: ElementKind) -> QuadratureRule:
        """The Gauss rule on each slave element of ``kind``: ``n_gauss``
        points, or the minimum for the element degree when it is None."""
        minimum = min_gauss_points(kind)
        n = self.n_gauss if self.n_gauss is not None else minimum
        if n < minimum:
            raise ValueError(
                f"{kind.value} mortar integrals need at least {minimum} Gauss "
                f"points per slave element, got {n}"
            )
        return gauss_rule(kind, n)


@dataclass(frozen=True, eq=False)
class InterfacePair:
    """A master and a slave interface mesh glued by mortar conditions.

    ``gap_tolerance`` inflates the element boxes of the contact search
    and bounds each slave Gauss point's distance to the axis-aligned box
    of the master that takes it (see :func:`_master_boxes`).  It must
    cover the largest geometric gap between the two surfaces (warped or
    offset interfaces): a point farther than the gap from every candidate
    master's box is dropped and counted in ``gauss_points_dropped``.  The
    default, half the largest element circumdiameter on either side,
    covers moderate warps; pass an explicit value for larger offsets.  The
    gap grows the boxes along every axis, so it reaches about one element
    along the surface too; for ``eb`` the local-frame boxes of
    :func:`_local_box_holds` take that tangential share back, which the
    gap never needed, and leave the normal direction to the gap.
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
    ``rb``/``eb`` evaluate: those whose master's axis-aligned box holds
    the point, and for ``eb`` whose local-frame box holds it as well.
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
    D, which transfer one field, or a batch on a long interface, by a
    sparse product and a solve.  The inverse couples every slave node, so
    ``matrix``, M^-1 D as a dense (n_slave_nodes, n_master_nodes) array,
    costs an n_slave x n_master solve: it is built on first read, by batch
    transfers on short interfaces (see :func:`interface_transfer`) and the
    condensed prolongation, and kept.  The factor also serves multiplier
    recovery.

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


def _node_box(kind: ElementKind, nodes: np.ndarray):
    """Node box of each element and how far the element's map leaves it.

    ``nodes`` (n_elems, n_nodes, dim) holds node coordinates along any
    orthonormal axes.  Returns the lower and upper corners of the node
    boxes and, per axis, the reach beyond them of the map of the reference
    box grown by 2 tol, where tol is ``_SUPPORT_TOL``: the acceptance
    tests pass reference coordinates that far out.  There the linear or
    bilinear map of the corners leaves the node box by at most
    2 tol (1 + tol) of its extent per axis.  A ``seg3``/``quad8`` map adds
    sum_m N_m d_m, where d_m is mid node m's offset from the mean of its
    edge's two corners and |N_m| <= 1 + tol, so the bulge adds
    (1 + tol) sum_m |d_m| per axis.
    """
    lo, hi = nodes.min(axis=1), nodes.max(axis=1)
    bulge = sum(
        np.abs(nodes[:, mid] - 0.5 * (nodes[:, a] + nodes[:, b]))
        for mid, a, b in kind.mid_nodes
    )
    return lo, hi, (1.0 + _SUPPORT_TOL) * (2.0 * _SUPPORT_TOL * (hi - lo) + bulge)


def _master_boxes(pair: InterfacePair) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper corners, each (n_master_elems, dim), of the
    axis-aligned master boxes: each holds every foot point its element can
    accept (see :func:`_node_box`), grown by the pair's gap tolerance, which
    covers the distance from the slave point to the master surface.  A
    slave point outside a master's box never meets it, so these boxes are
    the gap contract.  The gap grows them along every axis, and the
    default gap is about one element wide, so they also hold points about
    an element away along the surface: ``eb`` projects only the pairs that
    the master's local box (see :func:`_local_box_holds`) holds as well.
    """
    mesh = pair.master
    nodes = mesh.nodes[mesh.connectivity]
    lo, hi, reach = _node_box(mesh.kind, nodes)
    grow = (
        reach
        + pair.resolved_gap_tolerance
        + _BOX_ROUNDING * np.maximum(np.abs(lo), np.abs(hi))
    )
    return lo - grow, hi + grow


@lru_cache(maxsize=None)
def _normal_net(kind: ElementKind) -> tuple[np.ndarray, np.ndarray]:
    """Sample points and Bernstein conversion of the normal of ``kind``.

    The normal N of :func:`_tilt_tangents` has degree q = ref_dim * degree
    - 1 per reference axis.  Sampled at the q + 1 equispaced points per
    axis of the reference box grown by 2 ``_SUPPORT_TOL`` (their tensor
    lattice), it gives the points of its Bernstein control net by one
    product with the returned matrix.
    """
    degree = kind.ref_dim * kind.degree - 1
    u = np.linspace(0.0, 1.0, degree + 1)
    k = np.arange(degree + 1)
    binomial = np.array([comb(degree, j) for j in k])
    to_net = np.linalg.inv(binomial * u[:, None] ** k * (1.0 - u[:, None]) ** (degree - k))
    if kind.ref_dim == 2:
        to_net = np.kron(to_net, to_net)
    xi = tensor_points((1.0 + 2.0 * _SUPPORT_TOL) * (2.0 * u - 1.0), kind.ref_dim)
    xi.setflags(write=False)
    to_net.setflags(write=False)
    return xi, to_net


def _tilt_tangents(kind: ElementKind, nodes: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """tan theta_max of each element, inf where it is 90 degrees or more.

    theta_max bounds the angle between the element normal N (x_xi turned a
    quarter turn on segments, x_xi x x_eta on quadrilaterals) and the frame
    normal n0 (the last row of ``axes``) over the reference box grown by
    2 ``_SUPPORT_TOL``.  N is a polynomial of degree ref_dim * degree - 1
    per reference axis, so over that box it is a convex combination of the
    points of its Bernstein control net (see :func:`_normal_net`).  The
    vectors at an angle of at most alpha < 90 degrees from n0 form a convex
    cone, which therefore holds all of N when it holds the net: the largest
    angle over the net bounds theta_max.  For ``seg3`` and ``quad4`` (an
    affine N) the net is N at the ends or corners, so the bound is exact;
    for ``seg2`` N is constant and the bound is 0.
    """
    xi, to_net = _normal_net(kind)
    # jac[e, g, r, d] = dx_d / dxi_r of element e at sample point g
    jac = np.tensordot(_ELEMENTS[kind].gradients(xi), nodes, axes=(1, 1))
    jac = jac.transpose(2, 0, 1, 3)
    if kind.ref_dim == 1:
        normal = np.stack([-jac[..., 0, 1], jac[..., 0, 0]], axis=-1)
    else:
        normal = _cross(jac[..., 0, :], jac[..., 1, :])
    net = (to_net @ normal) @ axes.transpose(0, 2, 1)
    along, across = net[..., -1], np.linalg.norm(net[..., :-1], axis=-1)
    ratio = np.divide(across, along, out=np.full_like(along, np.inf), where=along > 0.0)
    return ratio.max(axis=1)


def _local_box_holds(pair: InterfacePair, masters, points) -> np.ndarray:
    """Whether the local box of master ``masters[k]`` holds ``points[k]``.

    A master's local box lives in its frame (see
    :func:`~.meshes.element_frames`), origin c, tangent axes t_j and
    normal n0, so it turns with the element.  Along each t_j it spans the
    nodes, grown by the reach of the element's map (:func:`_node_box`),
    by ``_FOOT_SLACK`` times the largest tangential extent, by
    ``_BOX_ROUNDING`` times the largest node coordinate and by the tilt
    term (|n0 . (p - c)| + spread) tan theta_max, where spread bounds
    |n0 . (x - c)| over the element and theta_max is bounded by
    :func:`_tilt_tangents`.  The normal direction is left to the gap
    contract of :func:`_master_boxes`.

    The box holds every point ``eb`` accepts: such a point is
    p = x(xi) + d, with xi inside the grown reference box and d along the
    element normal at xi.  The reach keeps x(xi) inside the node box, and
    d makes an angle of at most theta_max with n0, so its tangential part
    is at most |n0 . d| tan theta_max <= (|n0 . (p - c)| + spread)
    tan theta_max.  An element whose tilt bound fails (90 degrees or
    more, or no frame) holds every point.

    ``rb`` accepts by interpolated ramps, not by geometry, so it does not
    use these boxes (see :func:`_kernel_values`).
    """
    mesh = pair.master
    nodes = mesh.nodes[mesh.connectivity]
    origin, axes = element_frames(mesh)
    local = (nodes - origin[:, None]) @ axes.transpose(0, 2, 1)
    lo, hi, reach = _node_box(mesh.kind, local)
    spread = np.maximum(reach - lo, hi + reach)[:, -1]
    tangential = slice(0, mesh.kind.ref_dim)
    extent = (hi - lo)[:, tangential]
    grow = (
        reach[:, tangential]
        + _FOOT_SLACK * extent.max(axis=1, keepdims=True)
        + _BOX_ROUNDING * np.abs(nodes).max(axis=(1, 2))[:, None]
    )
    low, high = lo[:, tangential] - grow, hi[:, tangential] + grow
    tilt = _tilt_tangents(mesh.kind, nodes, axes)
    bounded = np.isfinite(tilt)
    tilt[~bounded] = 0.0

    at = np.einsum("pd,pkd->pk", points - origin[masters], axes[masters])
    margin = ((np.abs(at[:, -1]) + spread[masters]) * tilt[masters])[:, None]
    inside = (at[:, tangential] >= low[masters] - margin) & (
        at[:, tangential] <= high[masters] + margin
    )
    return inside.all(axis=1) | ~bounded[masters]


def _containment_depth(box_coords: np.ndarray) -> np.ndarray:
    """Distance to the nearest face of the unit reference box, signed.

    Positive inside, negative outside.  A valid (point, master) pair is
    accepted when this is at least ``-_SUPPORT_TOL``, that is when every
    box coordinate lies in [-_SUPPORT_TOL, 1 + _SUPPORT_TOL]; the point
    goes to the accepting master it sits deepest in.
    """
    return np.minimum(box_coords, 1.0 - box_coords).min(axis=1)


def _solve_newton_step(hess: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve each (ref_dim x ref_dim) system in closed form; a system whose
    pivot or determinant is not above the smallest normal double gets a
    zero step."""
    tiny = np.finfo(float).tiny
    if rhs.shape[1] == 1:
        pivot = hess[:, :, 0]
        return np.divide(rhs, pivot, out=np.zeros_like(rhs), where=np.abs(pivot) > tiny)
    a, b = hess[:, 0, 0], hess[:, 0, 1]
    c, d = hess[:, 1, 0], hess[:, 1, 1]
    det = (a * d - b * c)[:, None]
    adjugate = np.stack(
        [d * rhs[:, 0] - b * rhs[:, 1], a * rhs[:, 1] - c * rhs[:, 0]], axis=1
    )
    return np.divide(adjugate, det, out=np.zeros_like(rhs), where=np.abs(det) > tiny)


def _newton_terms(
    kind: ElementKind, nodes: np.ndarray, xi: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Jacobian, residual and Hessian of the projection of each target.

    ``nodes`` (p, dim, n_nodes) holds the node coordinates X of each
    target's element as columns and ``xi`` (p, ref_dim) the iterates,
    which must lie inside the clamp box (the shape tables are read with
    no range check).  With the shape values N, gradients dN and second
    derivatives d2N at ``xi``, every term is a stacked matrix product:
    the Jacobian J = X dN, the gap g = t - X N, the residual gᵀJ
    (p, ref_dim) and the Hessian (gᵀX) d2N - JᵀJ.
    """
    element = _ELEMENTS[kind]
    jac = nodes @ element.gradients(xi)
    gap = (targets[:, :, None] - nodes @ element.values(xi)[:, :, None]).transpose(
        0, 2, 1
    )
    second = element.hessians(xi)
    p, n, r, _ = second.shape
    curv = ((gap @ nodes) @ second.reshape(p, n, r * r)).reshape(p, r, r)
    # a contiguous Jᵀ keeps matmul off its slower symmetric-product path
    jac_t = np.ascontiguousarray(jac.transpose(0, 2, 1))
    return jac, (gap @ jac)[:, 0], curv - jac_t @ jac


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

    Each step is a few stacked matrix products (see
    :func:`_newton_terms`) on the shape tables directly: the clamp keeps
    every iterate inside the evaluation bound, so the range check of
    :func:`shape_values` is skipped.  The arithmetic of ``rb`` (slave
    geometry, kernel fits and evaluation) is left alone on purpose: its
    Gaussian fits sit near condition 2e16, so reordering a sum there
    moves D by up to 1e-5 relative.
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
        go = np.flatnonzero(~done)
        active = active[go]
        if step == _NEWTON_MAX_ITER or active.size == 0:
            break
        current = current[go]
        raw = current + _solve_newton_step(hess[go], -resid[go])
        new_xi = np.clip(raw, -_NEWTON_CLAMP, _NEWTON_CLAMP)
        xi[active] = new_xi
        updates += active.size
        moving = (new_xi != current).any(axis=1)
        clipped = (np.abs(current) == _NEWTON_CLAMP).any(axis=1)
        leaves = (np.abs(raw) >= _NEWTON_CLAMP).any(axis=1)
        active = active[moving & ~(clipped & leaves)]
    return xi, converged, updates


def _kernel_values(pair: InterfacePair, config: MortarConfig, masters, points):
    """Kernel-interpolated master bases, validity flags, box coordinates
    and 0 Newton updates of each (point, master) pair.

    Each candidate master is fitted once, and the lowest whose condition
    exceeds :data:`~.rbf.COND_LIMIT` raises; a fit's condition is exact
    wherever its estimate nears the limit (see :class:`~.rbf.RbfInterpolant`),
    so the error reports an exact value.  Interpolating the ramps
    (1 + xi) / 2 gives the box coordinates.  The rescaled interpolant
    reproduces constants only (Deparis, Forti & Quarteroni 2014), not
    linear functions, so these carry the kernel's basis error, up to
    5.6e-2 of a box coordinate inside the element and more outside it.
    That error is why ``rb`` accepts points that no geometric box bounds,
    and so does not use the local boxes of :func:`_local_box_holds`: on a
    flat pair of jittered ``quad8`` masters (6 x 6) and slaves (2 x 2),
    Gaussian ramps accept points outside them, some of those points win,
    and a local test would move D by as much as its largest entry.
    """
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
    ramps = (1.0 + node_reference_coords(mesh.kind)) / 2.0
    return values, ok, values @ ramps, 0


def _projection_values(pair: InterfacePair, config: MortarConfig, masters, points):
    """Master bases, convergence flags and box coordinates at the Newton
    foot point of each (point, master) pair, and the Newton update count."""
    mesh = pair.master
    scale = element_circumdiameters(mesh) ** 2
    xi, converged, updates = _project_points(
        mesh.kind,
        mesh.nodes[mesh.connectivity[masters]],
        points,
        scale[masters],
    )
    return shape_values(mesh.kind, xi), converged, (1.0 + xi) / 2.0, updates


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
    of its slave element whose axis-aligned box (see :func:`_master_boxes`)
    holds it, and for ``eb`` whose local box (see :func:`_local_box_holds`)
    holds it too; ``evaluate`` returns the master basis values, a validity
    flag and the box coordinates of all those pairs at once, and its
    Newton update count.
    A valid pair whose :func:`_containment_depth` is at least
    ``-_SUPPORT_TOL`` accepts the point, which goes to the accepting master
    it sits deepest in, a tie going to the lowest master index.  Points
    accepted by nobody are dropped from both matrices, which keeps the
    quadrature sets of the two matrices identical.
    """
    slave = pair.slave
    rule = config.slave_rule(slave.kind)
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
    lo, hi = _master_boxes(pair)
    held = ((points >= lo[pair_master]) & (points <= hi[pair_master])).all(axis=1)
    if config.scheme is Scheme.EB:
        held[held] = _local_box_holds(pair, pair_master[held], points[held])
    pair_point, pair_master = pair_point[held], pair_master[held]
    values, ok, box, newton_updates = evaluate(pair, config, pair_master, points[held])
    depth = _containment_depth(box)

    hit = np.flatnonzero(ok & (depth >= -_SUPPORT_TOL))
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
        newton_updates=newton_updates,
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


def _line_reference(kind, elem_params, elems, targets):
    """Reference coordinates where each point's element reaches its target.

    Point k lies on element ``elems[k]``, whose nodes sit at line
    parameters ``elem_params[elems[k]]``.  A ``seg3`` map is t = p_mid +
    b xi + a xi^2 with b = (p_hi - p_lo) / 2, a = (p_lo + p_hi) / 2 - p_mid;
    mesh validation rules out folded elements, so it is monotone and its
    root is the quadratic formula's branch free of cancellation.
    """
    node_params = elem_params[elems]
    # segment nodes run from xi = -1 to xi = 1, any mid node in between
    p_lo, p_hi = node_params[:, 0], node_params[:, -1]
    if kind is ElementKind.SEG2:
        return (2.0 * (targets - p_lo) / (p_hi - p_lo) - 1.0)[:, None]
    a, b = 0.5 * (p_lo + p_hi) - node_params[:, 1], 0.5 * (p_hi - p_lo)
    rise = targets - node_params[:, 1]
    root = np.sqrt(np.maximum(b * b + 4.0 * a * rise, 0.0))
    return (2.0 * rise / (b + np.copysign(root, b)))[:, None]


def assemble_sb_1d(pair: InterfacePair, config: MortarConfig) -> MortarMatrices:
    """Exact assembly for straight 1D interfaces by interval intersection.

    Both meshes must be straight and parallel (the slave may sit at a
    normal offset; it is projected onto the master line).  Every
    slave-master intersection interval receives its own Gauss rule, which
    integrates the polynomial integrands exactly, so the result serves as
    the reference the other schemes are compared against.  A sort-and-sweep
    over the element intervals finds the intersections (slivers dropped);
    the closed-form root of each element's line map places their points.
    """
    master, slave = pair.master, pair.slave
    if master.kind.ref_dim != 1:
        raise InvalidGeometryError(
            "exact intersection assembly handles 1D interfaces only"
        )
    rule = config.slave_rule(slave.kind)

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
    # each slave element's intersections in their order along the line, so
    # that the sums do not depend on the numbering of the master elements
    order = np.lexsort((lo, s_elem))
    s_elem, m_elem, lo, hi = s_elem[order], m_elem[order], lo[order], hi[order]

    # Point k * n_points + g is Gauss point g of intersection k.
    n_points = rule.n_points
    half = 0.5 * (hi - lo)
    t_g = ((0.5 * (lo + hi))[:, None] + half[:, None] * rule.points[:, 0]).ravel()
    s_point, m_point = np.repeat(s_elem, n_points), np.repeat(m_elem, n_points)
    xi_s = _line_reference(slave.kind, s_params, s_point, t_g)
    xi_m = _line_reference(master.kind, m_params, m_point, t_g)
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

    A field (n_master,) goes through the factor.  A batch (n_master, k)
    goes through the factor too when the operator has more than
    ``_DENSE_BATCH_ENTRIES`` entries, and each column then equals its
    single-field transfer bit for bit.  A smaller operator's batch is one
    product with the dense ``matrix``, which stores its subnormal entries
    as zeros; that moves each batch entry by less than 2.23e-308 times the
    1-norm of its master values.  The path depends only on the shape, so
    a batch's result does not depend on whether ``matrix`` was read.
    Complex values are refused rather than cut to their real part, and
    values that are not numbers (strings, objects) rather than parsed.
    """
    values = np.asarray(master_values)
    if np.iscomplexobj(values):
        raise ValueError(
            "master values must be real; transfer the real and imaginary parts apart"
        )
    if values.dtype.kind not in "biuf":
        raise ValueError(f"master values must be numbers, got dtype {values.dtype}")
    values = values.astype(float, copy=False)
    if values.ndim not in (1, 2):
        raise ValueError(f"master_values must be 1-d or 2-d, got shape {values.shape}")
    if values.shape[0] != transfer.n_master_nodes:
        raise ValueError(
            f"expected {transfer.n_master_nodes} master nodal values, "
            f"got {values.shape[0]}"
        )
    if values.ndim == 1 or (
        transfer.n_slave_nodes * transfer.n_master_nodes > _DENSE_BATCH_ENTRIES
    ):
        return _transfer_field(transfer, values)
    return transfer.matrix @ values
