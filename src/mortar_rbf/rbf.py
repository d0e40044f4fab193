"""Rescaled radial-basis interpolation of master element basis functions.

A master element gets one interpolant: kernel collocation points are laid
out on the reference element, mapped through the isoparametric map, and the
nodal basis functions (plus the constant 1) are sampled there.  Solving the
collocation system once per element yields weight vectors that evaluate the
interpolated basis anywhere in physical space.

Master elements are interface elements: segments and quadrilaterals.
Fits and evaluations run in chunked array passes over many elements: one
batched LAPACK call solves a chunk's collocation systems, and one
block-sparse product evaluates a chunk of (query, element) pairs.  The
chunks of one call run concurrently on the CPUs the process may use (its
CPU affinity): the calling thread and a pool of threads owned by the
process share them, and each writes only its own rows of the result, so
the result is the same bit for bit on any number of CPUs.  Working
memory stays bounded by the CPU count times :data:`_CHUNK_ENTRIES`
entries.  A fit is one :class:`RbfInterpolant` holding the stacked arrays
of its batch; one element's fit is a batch of one.

Evaluation always returns the *rescaled* interpolant

    N_hat_j(x) = Pi[N_j](x) / Pi[1](x),

the plain interpolant divided by the interpolant of the constant one.  The
rescaling restores an exact partition of unity (rows of the evaluated basis
matrix sum to one) and, for the Gaussian kernel on flat elements, makes the
evaluation invariant under translations normal to the element plane.
"""

from __future__ import annotations

import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import sparse

from .elements import ElementKind, as_count, shape_values, tensor_points
from .meshes import Mesh, element_circumdiameters, element_geometry

__all__ = [
    "KernelFamily",
    "LayoutKind",
    "PointLayout",
    "RbfInterpolant",
    "InterpolationDiagnostics",
    "interpolation_points",
    "fit_master_interpolant",
    "fit_interpolants",
    "evaluate_interpolants",
    "evaluate_rescaled_masked",
    "halton_reference_points",
    "basis_diagnostics",
]

#: Rescaling denominators are compared against this times the absolute sum
#: of their kernel-weighted terms; smaller means catastrophic cancellation
#: and the query is treated as "out of support".  The test is relative so
#: that a uniform attenuation of every kernel value (a Gaussian interpolant
#: queried off the element plane scales all terms by exp(-s^2/eps^2)) does
#: not trigger it, preserving normal-translation invariance.
BREAKDOWN_TOL = 1e-12

#: Collocation matrices with a 1-norm condition number beyond this are
#: numerically singular (about 4.5e17 in double precision): assembly
#: refuses such fits, and :func:`basis_diagnostics` flags them unstable.
#: The bar is deliberately high: a Gaussian fit on a planar quadrilateral
#: with six points per edge already runs its gram matrix near 1e16, yet
#: the rescaled basis it produces is still accurate to coupling tolerances
#: because rescaling cancels the dominant error component.  Only fits
#: whose factorization is effectively rank-deficient are refused.
COND_LIMIT = 100.0 / np.finfo(float).eps

#: Fits whose condition estimate (see :class:`RbfInterpolant`) reaches
#: this also get their exact condition number, so a fit is refused on an
#: exact value.  The estimate is a lower bound.
COND_EXACT_FROM = COND_LIMIT / 10

#: So do fits whose estimate reaches this while their checkerboard probe
#: does not lead both random probes by a factor :data:`_TRUSTED_LEAD`.
#: The lattice's alternating mode is then not the inverse's dominant one,
#: as on sliver quadrilaterals, and the estimate can lie far below the
#: exact value: a factor 4e4 for the checkerboard alone on one sliver,
#: and up to 42 for all three probes on sheared elements.  Where the
#: checkerboard leads, the estimate lies within a factor 1.14 of the exact
#: value on the kernel-study grid, and 5.8 on sheared elements.  Of 5,457
#: sheared, sliver and jittered fits beyond :data:`COND_LIMIT`, each whose
#: checkerboard led estimated at 0.44 COND_LIMIT or more.
COND_DOUBT_FROM = COND_LIMIT / 1000
_TRUSTED_LEAD = 3.0

#: Seed of the two random sign probes of the condition estimate.
_PROBE_SEED = 20261021

#: Largest admissible points-per-edge count; denser sets are notoriously
#: unstable for smooth kernels.
MAX_POINTS_PER_EDGE = 10

#: Entries per stacked collocation matrix or kernel row array, so working
#: memory stays fixed however large the mesh is: one chunk per CPU runs at
#: a time.
_CHUNK_ENTRIES = 2**15

#: Halton probe points at which :func:`basis_diagnostics` measures a fit.
_DIAGNOSTIC_PROBES = 40


class KernelFamily(str, Enum):
    GAUSSIAN = "gaussian"
    INV_MULTIQUADRIC = "imq"
    WENDLAND_C2 = "wendland"


def _kernel_profile(family: KernelFamily, r: np.ndarray, eps) -> np.ndarray:
    """Kernel values (never negative) at distances ``r``; ``eps`` broadcasts.

    Gaussian:             exp(-(r/eps)^2)
    Inverse multiquadric: 1 / sqrt(r^2 + eps^2)
    Wendland C2:          (1 - r/eps)_+^4 (1 + 4 r/eps), zero for r >= eps
    """
    if family is KernelFamily.GAUSSIAN:
        return np.exp(-((r / eps) ** 2))
    if family is KernelFamily.INV_MULTIQUADRIC:
        return 1.0 / np.sqrt(r * r + eps * eps)
    # Wendland C2, compact support of radius eps.
    q = r / eps
    cut = np.maximum(1.0 - q, 0.0)
    return cut**4 * (1.0 + 4.0 * q)


def _kernel(family: KernelFamily, x: np.ndarray, y: np.ndarray, eps) -> np.ndarray:
    """Kernel values between the points ``x`` and ``y``, coordinates on the
    last axis and the other axes broadcast; the distances are summed in
    place in one array."""
    diff = x[..., 0] - y[..., 0]
    r = np.square(diff, out=diff)
    for c in range(1, x.shape[-1]):
        diff = x[..., c] - y[..., c]
        r += np.square(diff, out=diff)
    return _kernel_profile(family, np.sqrt(r, out=r), eps)


class LayoutKind(str, Enum):
    UNIFORM = "uniform"
    SINE = "sine"


@dataclass(frozen=True)
class PointLayout:
    """Collocation point layout on the reference element.

    ``n_per_edge`` counts points per edge, element vertices included, so a
    segment gets n points and a quadrilateral n^2.
    The "sine" variant remaps each uniform coordinate through sin(pi t / 2)
    (in edge-normalized coordinates), clustering points toward the element
    boundary where interpolation of the nodal basis is hardest.
    """

    variant: LayoutKind = LayoutKind.UNIFORM
    n_per_edge: int = 6

    def __post_init__(self):
        object.__setattr__(self, "variant", LayoutKind(self.variant))
        object.__setattr__(self, "n_per_edge", as_count(self.n_per_edge, "n_per_edge"))
        if not 2 <= self.n_per_edge <= MAX_POINTS_PER_EDGE:
            raise ValueError(
                f"n_per_edge must lie in [2, {MAX_POINTS_PER_EDGE}], "
                f"got {self.n_per_edge}"
            )


def _interface_kind(kind) -> ElementKind:
    """``kind`` as an :class:`ElementKind`; triangles are volume elements,
    and no interface mesh (the only kind that is fitted) is made of them."""
    kind = ElementKind(kind)
    if kind is ElementKind.TRI3:
        raise ValueError(f"{kind.value} is a volume element, not an interface element")
    return kind


def _check_epsilon(epsilon) -> None:
    """Raise ``ValueError`` unless the shape parameter override ``epsilon``
    is None or finite and positive: a negative one turns Wendland kernel
    values negative, which the breakdown test of the rescaling excludes."""
    if epsilon is not None and not 0.0 < epsilon < np.inf:
        raise ValueError(f"epsilon override must be finite and positive, got {epsilon}")


def interpolation_points(kind: ElementKind, layout: PointLayout) -> np.ndarray:
    """Reference coordinates of the collocation points, shape (M, ref_dim)."""
    kind = _interface_kind(kind)
    t = np.linspace(-1.0, 1.0, layout.n_per_edge)
    if layout.variant is LayoutKind.SINE:
        t = np.sin(0.5 * np.pi * t)
    return tensor_points(t, kind.ref_dim)


@dataclass(frozen=True, eq=False)
class RbfInterpolant:
    """Fitted rescaled interpolants of a batch of E master elements.

    Element k of the batch is collocated at the physical points
    ``points[k]`` (M, dim) with shape parameter ``epsilon[k]``.
    ``weights[k]`` (M, n_basis) has one column per basis function; their
    row sums weight the rescaling denominator, the interpolant of the
    constant one.  ``condition[k]`` estimates the 1-norm condition number
    ||G||_1 ||G^-1||_1 of its collocation matrix G from below, as the
    largest ||G||_1 ||G^-1 s||_inf over three sign vectors s (see
    :func:`_probes`).  It is the exact value from :data:`COND_EXACT_FROM`
    up, and from :data:`COND_DOUBT_FROM` up where the estimate is in
    doubt; it is infinite when G is exactly singular.  The arrays are
    read-only.
    """

    family: KernelFamily
    points: np.ndarray
    epsilon: np.ndarray
    weights: np.ndarray
    condition: np.ndarray

    def __post_init__(self):
        for array in (self.points, self.epsilon, self.weights, self.condition):
            array.setflags(write=False)


@dataclass(frozen=True)
class InterpolationDiagnostics:
    """Quality measures of a fitted interpolant: the RMSE of its basis
    reproduction, the condition of :class:`RbfInterpolant` (an estimate
    well below :data:`COND_LIMIT`, exact near and above it) and whether it
    exceeds :data:`COND_LIMIT`."""

    rmse: float
    condition_estimate: float
    unstable: bool


def fit_interpolants(
    mesh: Mesh,
    elems,
    layout: PointLayout,
    family: KernelFamily,
    epsilon: float | None = None,
) -> RbfInterpolant:
    """Fit the rescaled kernel interpolants of elements ``elems``, in chunks.

    Element k of the returned batch is ``elems[k]``.  Chunks of at most
    :data:`_CHUNK_ENTRIES` gram entries run concurrently on the process's
    CPUs (see the module docstring); the result does not depend on their
    number or size.  One LU factorization per fit solves for the weights
    and for G^-1 s, the three probes of the condition estimate; only a fit
    whose estimate reaches :data:`COND_EXACT_FROM`, or
    :data:`COND_DOUBT_FROM` in doubt, also solves for G^-1, its exact
    condition.
    ``epsilon`` overrides the default shape parameter, each element's
    circumdiameter.  No fit is refused here: each reports its
    ``condition``, and an exactly singular one gets NaN weights and an
    infinite condition, so its queries are flagged.  Raises ``ValueError``
    for a ``tri3`` mesh and for an ``epsilon`` that is not finite and
    positive.
    """
    _check_epsilon(epsilon)
    kind, family = ElementKind(mesh.kind), KernelFamily(family)
    elems = np.asarray(elems, dtype=np.int64).reshape(-1)
    basis = shape_values(kind, interpolation_points(kind, layout))
    points = basis @ mesh.nodes[mesh.connectivity[elems]]
    if epsilon is None:
        eps = element_circumdiameters(mesh)[elems]
    else:
        eps = np.full(elems.size, float(epsilon))
    n_points, n_basis = basis.shape
    rhs = np.column_stack([basis, _probes(kind, layout)])
    weights = np.empty((elems.size,) + basis.shape)
    condition = np.empty(elems.size)

    def fit(chunk: slice) -> None:
        p = points[chunk]
        gram = _kernel(family, p[:, :, None], p[:, None], eps[chunk, None, None])
        solved = _solve_each(gram, rhs)
        weights[chunk] = solved[:, :, :n_basis]
        norm = np.linalg.norm(gram, 1, axis=(1, 2))
        probed = norm[:, None] * np.abs(solved[:, :, n_basis:]).max(axis=1)
        cond = probed.max(axis=1)
        trusted = probed[:, 0] >= _TRUSTED_LEAD * probed[:, 1:].max(axis=1)
        bar = np.where(trusted, COND_EXACT_FROM, COND_DOUBT_FROM)
        near = ~(cond < bar)  # NaN, an exactly singular fit, too
        if near.any():
            inverse = _solve_each(gram[near], np.eye(n_points))
            cond[near] = norm[near] * np.linalg.norm(inverse, 1, axis=(1, 2))
        cond[np.isnan(cond)] = np.inf
        condition[chunk] = cond

    _each_chunk(elems.size, max(1, _CHUNK_ENTRIES // n_points**2), fit)
    return RbfInterpolant(family, points, eps, weights, condition)


@functools.cache
def _probes(kind: ElementKind, layout: PointLayout) -> np.ndarray:
    """The three sign vectors, (M, 3), of the condition estimate: the
    lattice's checkerboard, +1 or -1 by the parity of a point's lattice
    indices, then two fixed pseudo-random ones.  Made once per kind and
    layout; the array is read-only.

    The inverse of a smooth kernel's matrix on a point lattice tends to
    alternate in sign from point to point, so for the checkerboard s,
    ||G^-1 s||_inf nearly attains ||G^-1||_inf = ||G^-1||_1 (G is
    symmetric): the fixed-probe form of the estimators of Hager (1984) and
    Higham (1988).  The checkerboard is symmetric under the lattice's point
    reflection, so on a sheared lattice it can miss an antisymmetric
    dominant mode entirely; the random probes share no symmetry with it.
    """
    alternating = (-1.0) ** np.arange(layout.n_per_edge)
    checkerboard = tensor_points(alternating, kind.ref_dim).prod(axis=1)
    flips = np.random.default_rng(_PROBE_SEED).random((checkerboard.size, 2)) < 0.5
    probes = np.column_stack([checkerboard, np.where(flips, -1.0, 1.0)])
    probes.setflags(write=False)
    return probes


def _workers() -> int:
    """Number of CPUs this process may run on, its chunk worker count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@functools.cache
def _pool(pid: int) -> ThreadPoolExecutor:
    """The chunk threads of process ``pid``.  A forked child, with a pid
    of its own, makes its own pool: the parent's threads do not exist in
    it, and work queued to their pool would never run.  The executor
    starts its threads on first use only."""
    return ThreadPoolExecutor(max(1, _workers() - 1), thread_name_prefix="mortar-rbf")


def _each_chunk(n: int, step: int, work) -> None:
    """Call ``work(rows)`` on balanced slices ``rows`` that cover
    ``range(n)``, each at most ``step`` long.

    The :func:`_workers`, at most one per ``step`` rows, share them: the
    calling thread and the process's :func:`_pool` take slices in turn
    until none is left, and the slice count is rounded up to a multiple
    of the worker count, so that each takes about as many.  One worker,
    as for at most ``step`` rows, starts no thread.  Each ``work`` call
    must write only its own rows, so the result does not depend on which
    thread runs a slice, or when.  An exception raised in any slice
    reaches the caller once no thread runs a slice.
    """
    workers = max(1, min(-(-n // step), _workers()))
    count = min(n, -(-n // (step * workers)) * workers)
    ends = [n * k // count for k in range(1, count + 1)]
    chunks = iter([slice(a, b) for a, b in zip([0] + ends, ends)])
    lock = threading.Lock()

    def drain() -> None:
        while True:
            with lock:
                rows = next(chunks, None)
            if rows is None:
                return
            work(rows)

    helpers = [_pool(os.getpid()).submit(drain) for _ in range(workers - 1)]
    try:
        drain()
    finally:
        for helper in helpers:
            helper.result()


def _solve_each(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solutions of gram[k] X = rhs for stacked matrices, NaN where exactly
    singular; one batched LAPACK call unless some matrix is singular."""
    try:
        return np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        solved = np.full(gram.shape[:2] + rhs.shape[1:], np.nan)
        for k, matrix in enumerate(gram):
            try:
                solved[k] = np.linalg.solve(matrix, rhs)
            except np.linalg.LinAlgError:
                pass
        return solved


def fit_master_interpolant(
    mesh: Mesh,
    elem: int,
    layout: PointLayout,
    family: KernelFamily,
    epsilon: float | None = None,
) -> RbfInterpolant:
    """Fit one element's interpolant: :func:`fit_interpolants` of ``[elem]``."""
    return fit_interpolants(mesh, [elem], layout, family, epsilon=epsilon)


def evaluate_interpolants(
    interp: RbfInterpolant, owner, queries
) -> tuple[np.ndarray, np.ndarray]:
    """Rescaled basis values of each query under its own interpolant.

    Query k, row k of ``queries`` (n, dim), uses element ``owner[k]`` of
    the batch ``interp``.  Per chunk of at most :data:`_CHUNK_ENTRIES`
    kernel values, one block-sparse matrix of kernel rows times the
    stacked weights gives every numerator (no query copies its weights);
    their sum is the denominator, so valid rows sum to one however
    ill-conditioned the fit.  The chunks run concurrently on the process's
    CPUs, as in :func:`fit_interpolants`.

    Rows whose denominator is below :data:`BREAKDOWN_TOL` times the
    absolute sum of its kernel-weighted terms (cancellation), or whose
    kernel values all vanish (beyond the Wendland cutoff, or Gaussian
    underflow), are zeroed and flagged False: out of support.
    """
    points, epsilon, weights = interp.points, interp.epsilon, interp.weights
    _, n_points, n_basis = weights.shape
    # kernel values are non-negative, so rows times |weights| sum term sizes
    stacked = np.concatenate([weights, np.abs(weights)], axis=2).reshape(-1, 2 * n_basis)
    values = np.zeros((queries.shape[0], n_basis))
    ok = np.zeros(queries.shape[0], dtype=bool)

    def evaluate(rows: slice) -> None:
        own, q = owner[rows], queries[rows]
        phi = _kernel(interp.family, q[:, None], points[own], epsilon[own, None])
        cols = own[:, None] * n_points + np.arange(n_points)
        kernel_rows = sparse.csr_matrix(
            (phi.ravel(), cols.ravel(), np.arange(0, phi.size + 1, n_points)),
            shape=(own.size, stacked.shape[0]),
        )
        product = kernel_rows @ stacked
        numer, term_size = product[:, :n_basis], product[:, n_basis:].sum(axis=1)
        denom = numer.sum(axis=1)
        good = (np.abs(denom) >= BREAKDOWN_TOL * term_size) & (term_size > 0.0)
        values[rows][good] = numer[good] / denom[good, None]
        ok[rows] = good

    _each_chunk(queries.shape[0], max(1, _CHUNK_ENTRIES // n_points), evaluate)
    return values, ok


def evaluate_rescaled_masked(
    interp: RbfInterpolant, points
) -> tuple[np.ndarray, np.ndarray]:
    """Rescaled basis values and validity mask of every point under the
    batch's first interpolant, see :func:`evaluate_interpolants`."""
    pts = np.asarray(points, float)
    dim = interp.points.shape[2]
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise ValueError(f"query points must have shape (n, {dim}), got shape {pts.shape}")
    return evaluate_interpolants(interp, np.zeros(pts.shape[0], dtype=np.int64), pts)


def halton_reference_points(kind: ElementKind, n: int) -> np.ndarray:
    """Deterministic Halton probe points inside the reference element."""
    kind = _interface_kind(kind)
    from scipy.stats import qmc  # scipy.stats takes half a second to import

    return 2.0 * qmc.Halton(d=kind.ref_dim, scramble=False).random(n) - 1.0


def basis_diagnostics(
    mesh: Mesh,
    elem: int,
    layout: PointLayout,
    family: KernelFamily,
    epsilon: float | None = None,
) -> InterpolationDiagnostics:
    """Fit an element interpolant and measure how well it reproduces the basis.

    The RMSE compares rescaled interpolated basis values against the exact
    shape functions at :data:`_DIAGNOSTIC_PROBES` Halton points of the
    reference element.  A condition number beyond :data:`COND_LIMIT`,
    where assembly refuses the fit, is flagged ``unstable``.
    """
    interp = fit_interpolants(mesh, [elem], layout, family, epsilon=epsilon)
    ref = halton_reference_points(mesh.kind, _DIAGNOSTIC_PROBES)
    phys = element_geometry(mesh, ref, [elem])[0][0]
    exact = shape_values(mesh.kind, ref)
    values, ok = evaluate_interpolants(interp, np.zeros(len(phys), dtype=np.int64), phys)
    err = float(np.sqrt(np.mean((values[ok] - exact[ok]) ** 2))) if ok.any() else np.inf
    condition = float(interp.condition[0])
    return InterpolationDiagnostics(
        rmse=err, condition_estimate=condition, unstable=condition > COND_LIMIT
    )
