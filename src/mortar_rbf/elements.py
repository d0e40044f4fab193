"""Reference elements: shape functions, derivatives and Gauss quadrature.

Reference domains are [-1, 1] for segments, [-1, 1]^2 for quadrilaterals and
the unit simplex {(x, y) : x >= 0, y >= 0, x + y <= 1} for triangles.
Shape functions may be evaluated mildly outside the reference domain, up to
|coordinate| <= 1.5, because interpolant probing and closest-point searches
deliberately query beyond element boundaries.  Anything further out raises
``ValueError``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "ElementKind",
    "QuadratureRule",
    "as_count",
    "node_reference_coords",
    "shape_values",
    "shape_gradients",
    "shape_second_derivatives",
    "gauss_rule",
    "tensor_points",
]

#: Evaluation is rejected beyond this reference coordinate magnitude.
EVAL_BOUND = 1.5


class ElementKind(str, Enum):
    """Supported element topologies."""

    SEG2 = "seg2"
    SEG3 = "seg3"
    TRI3 = "tri3"
    QUAD4 = "quad4"
    QUAD8 = "quad8"

    @property
    def n_nodes(self) -> int:
        return _ELEMENTS[self].nodes.shape[0]

    @property
    def ref_dim(self) -> int:
        """Dimension of the reference domain (1 for segments, 2 otherwise)."""
        return _ELEMENTS[self].nodes.shape[1]

    @property
    def degree(self) -> int:
        """Polynomial degree of the nodal basis."""
        return _ELEMENTS[self].degree

    @property
    def mid_nodes(self) -> tuple[tuple[int, int, int], ...]:
        """(mid node, corner, corner) of each quadratic edge, mid node halfway."""
        return _ELEMENTS[self].mid_nodes


def as_count(value, name: str, error: type[Exception] = ValueError) -> int:
    """``value`` as an int by :func:`operator.index`, so NumPy integers pass
    and 2.5, 4.0 or "4" raise ``error`` naming the parameter ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None


def node_reference_coords(kind: ElementKind) -> np.ndarray:
    """Reference coordinates of the element nodes, shape (n_nodes, ref_dim)."""
    return _ELEMENTS[ElementKind(kind)].nodes.copy()


def _prepare_points(kind: ElementKind, xi) -> np.ndarray:
    """Check that query points form an (n_pts, ref_dim) array in range."""
    arr = np.asarray(xi, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != kind.ref_dim:
        raise ValueError(
            f"expected points of shape (n, {kind.ref_dim}), got shape {arr.shape}"
        )
    if arr.size and np.max(np.abs(arr)) > EVAL_BOUND:
        raise ValueError(
            f"reference coordinate out of range: |xi| must not exceed {EVAL_BOUND}"
        )
    return arr


def shape_values(kind: ElementKind, xi) -> np.ndarray:
    """Nodal shape function values at reference points ``xi``, shape
    (n_pts, ref_dim); returns shape (n_pts, n_nodes)."""
    kind = ElementKind(kind)
    return _ELEMENTS[kind].values(_prepare_points(kind, xi))


def shape_gradients(kind: ElementKind, xi) -> np.ndarray:
    """Shape function gradients with respect to reference coordinates,
    shape (n_pts, n_nodes, ref_dim)."""
    kind = ElementKind(kind)
    return _ELEMENTS[kind].gradients(_prepare_points(kind, xi))


def shape_second_derivatives(kind: ElementKind, xi) -> np.ndarray:
    """Second derivatives, shape (n_pts, n_nodes, ref_dim, ref_dim).

    Needed by the Newton closest-point projection on curved elements.
    """
    kind = ElementKind(kind)
    return _ELEMENTS[kind].hessians(_prepare_points(kind, xi))


# --- shape function tables -------------------------------------------------


def _seg2_values(p):
    x = p[:, 0]
    return np.stack([(1.0 - x) / 2.0, (1.0 + x) / 2.0], axis=1)


def _seg2_grads(p):
    n = p.shape[0]
    g = np.empty((n, 2, 1))
    g[:, 0, 0] = -0.5
    g[:, 1, 0] = 0.5
    return g


def _seg2_hess(p):
    return np.zeros((p.shape[0], 2, 1, 1))


def _seg3_values(p):
    x = p[:, 0]
    return np.stack(
        [x * (x - 1.0) / 2.0, 1.0 - x * x, x * (x + 1.0) / 2.0], axis=1
    )


def _seg3_grads(p):
    x = p[:, 0]
    g = np.empty((p.shape[0], 3, 1))
    g[:, 0, 0] = x - 0.5
    g[:, 1, 0] = -2.0 * x
    g[:, 2, 0] = x + 0.5
    return g


def _seg3_hess(p):
    h = np.empty((p.shape[0], 3, 1, 1))
    h[:, 0, 0, 0] = 1.0
    h[:, 1, 0, 0] = -2.0
    h[:, 2, 0, 0] = 1.0
    return h


def _tri3_values(p):
    x, y = p[:, 0], p[:, 1]
    return np.stack([1.0 - x - y, x, y], axis=1)


def _tri3_grads(p):
    n = p.shape[0]
    g = np.empty((n, 3, 2))
    g[:, 0] = (-1.0, -1.0)
    g[:, 1] = (1.0, 0.0)
    g[:, 2] = (0.0, 1.0)
    return g


def _tri3_hess(p):
    return np.zeros((p.shape[0], 3, 2, 2))


_QUAD4_SIGNS = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])


def _quad4_values(p):
    x, y = p[:, 0:1], p[:, 1:2]
    sx, sy = _QUAD4_SIGNS[:, 0], _QUAD4_SIGNS[:, 1]
    return 0.25 * (1.0 + x * sx) * (1.0 + y * sy)


def _quad4_grads(p):
    x, y = p[:, 0:1], p[:, 1:2]
    sx, sy = _QUAD4_SIGNS[:, 0], _QUAD4_SIGNS[:, 1]
    g = np.empty((p.shape[0], 4, 2))
    g[:, :, 0] = 0.25 * sx * (1.0 + y * sy)
    g[:, :, 1] = 0.25 * sy * (1.0 + x * sx)
    return g


def _quad4_hess(p):
    n = p.shape[0]
    h = np.zeros((n, 4, 2, 2))
    sx, sy = _QUAD4_SIGNS[:, 0], _QUAD4_SIGNS[:, 1]
    mixed = 0.25 * sx * sy
    h[:, :, 0, 1] = mixed
    h[:, :, 1, 0] = mixed
    return h


def _quad8_values(p):
    x, y = p[:, 0], p[:, 1]
    v = np.empty((p.shape[0], 8))
    for i in range(4):
        sx, sy = _QUAD4_SIGNS[i]
        v[:, i] = 0.25 * (1.0 + sx * x) * (1.0 + sy * y) * (sx * x + sy * y - 1.0)
    v[:, 4] = 0.5 * (1.0 - x * x) * (1.0 - y)
    v[:, 5] = 0.5 * (1.0 + x) * (1.0 - y * y)
    v[:, 6] = 0.5 * (1.0 - x * x) * (1.0 + y)
    v[:, 7] = 0.5 * (1.0 - x) * (1.0 - y * y)
    return v


def _quad8_grads(p):
    x, y = p[:, 0], p[:, 1]
    g = np.empty((p.shape[0], 8, 2))
    for i in range(4):
        sx, sy = _QUAD4_SIGNS[i]
        g[:, i, 0] = 0.25 * sx * (1.0 + sy * y) * (2.0 * sx * x + sy * y)
        g[:, i, 1] = 0.25 * sy * (1.0 + sx * x) * (sx * x + 2.0 * sy * y)
    g[:, 4, 0] = -x * (1.0 - y)
    g[:, 4, 1] = -0.5 * (1.0 - x * x)
    g[:, 5, 0] = 0.5 * (1.0 - y * y)
    g[:, 5, 1] = -y * (1.0 + x)
    g[:, 6, 0] = -x * (1.0 + y)
    g[:, 6, 1] = 0.5 * (1.0 - x * x)
    g[:, 7, 0] = -0.5 * (1.0 - y * y)
    g[:, 7, 1] = -y * (1.0 - x)
    return g


def _quad8_hess(p):
    x, y = p[:, 0], p[:, 1]
    h = np.empty((p.shape[0], 8, 2, 2))
    for i in range(4):
        sx, sy = _QUAD4_SIGNS[i]
        h[:, i, 0, 0] = 0.5 * (1.0 + sy * y)
        h[:, i, 1, 1] = 0.5 * (1.0 + sx * x)
        mixed = 0.25 * sx * sy * (2.0 * sx * x + 2.0 * sy * y + 1.0)
        h[:, i, 0, 1] = mixed
        h[:, i, 1, 0] = mixed
    h[:, 4, 0, 0] = -(1.0 - y)
    h[:, 4, 1, 1] = 0.0
    h[:, 4, 0, 1] = h[:, 4, 1, 0] = x
    h[:, 5, 0, 0] = 0.0
    h[:, 5, 1, 1] = -(1.0 + x)
    h[:, 5, 0, 1] = h[:, 5, 1, 0] = -y
    h[:, 6, 0, 0] = -(1.0 + y)
    h[:, 6, 1, 1] = 0.0
    h[:, 6, 0, 1] = h[:, 6, 1, 0] = -x
    h[:, 7, 0, 0] = 0.0
    h[:, 7, 1, 1] = -(1.0 - x)
    h[:, 7, 0, 1] = h[:, 7, 1, 0] = y
    return h


@dataclass(frozen=True)
class _Element:
    """Reference facts of one element kind: node coordinates, basis degree,
    minimum mortar Gauss count, basis evaluators and quadratic edges."""

    nodes: np.ndarray
    degree: int
    min_gauss: int
    values: Callable
    gradients: Callable
    hessians: Callable
    mid_nodes: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.array(self.nodes, dtype=float))


# Segments run left to right with the mid node (if any) second; quadrilaterals
# list the four corners counter-clockwise and then the four edge midpoints,
# bottom, right, top, left.  ``min_gauss`` is the smallest rule that
# integrates every product of two basis functions exactly.
_ELEMENTS = {
    ElementKind.SEG2: _Element(
        [[-1], [1]], 1, 2, _seg2_values, _seg2_grads, _seg2_hess
    ),
    ElementKind.SEG3: _Element(
        [[-1], [0], [1]], 2, 3, _seg3_values, _seg3_grads, _seg3_hess, ((1, 0, 2),)
    ),
    ElementKind.TRI3: _Element(
        [[0, 0], [1, 0], [0, 1]], 1, 3, _tri3_values, _tri3_grads, _tri3_hess
    ),
    ElementKind.QUAD4: _Element(
        _QUAD4_SIGNS, 1, 4, _quad4_values, _quad4_grads, _quad4_hess
    ),
    ElementKind.QUAD8: _Element(
        np.vstack([_QUAD4_SIGNS, [[0, -1], [1, 0], [0, 1], [-1, 0]]]),
        2,
        9,
        _quad8_values,
        _quad8_grads,
        _quad8_hess,
        ((4, 0, 1), (5, 1, 2), (6, 2, 3), (7, 3, 0)),
    ),
}


# --- quadrature ------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature points and weights on a reference domain.

    ``degree`` is the largest total polynomial degree integrated exactly.
    Weights sum to the reference measure (2 for segments, 4 for quads,
    1/2 for the unit triangle).
    """

    points: np.ndarray
    weights: np.ndarray
    degree: int

    def __post_init__(self):
        self.points.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def n_points(self) -> int:
        return self.weights.shape[0]


# Symmetric triangle rules with positive weights only.  Points are (x, y) on
# the unit simplex; weights are normalized to sum to 1/2.  The 6- and
# 12-point rules are the classical degree-4 and degree-6 symmetric rules,
# the 7-point one is the degree-5 rule built from (6 +- sqrt(15))/21 orbits.
def _tri_orbit3(a):
    b = 1.0 - 2.0 * a
    return [(a, a), (b, a), (a, b)]


def _tri_orbit6(a, b):
    c = 1.0 - a - b
    return [(a, b), (b, a), (a, c), (c, a), (b, c), (c, b)]


def _build_tri_rules():
    rules = {}

    rules[1] = (np.array([[1.0 / 3.0, 1.0 / 3.0]]), np.array([0.5]), 1)

    pts = np.array(_tri_orbit3(1.0 / 6.0))
    rules[3] = (pts, np.full(3, 1.0 / 6.0), 2)

    a1, w1 = 0.445948490915965, 0.223381589678011
    a2, w2 = 0.091576213509771, 0.109951743655322
    pts = np.array(_tri_orbit3(a1) + _tri_orbit3(a2))
    wts = 0.5 * np.array([w1] * 3 + [w2] * 3)
    rules[6] = (pts, wts, 4)

    s15 = np.sqrt(15.0)
    a1 = (6.0 + s15) / 21.0
    a2 = (6.0 - s15) / 21.0
    w0 = 9.0 / 40.0
    w1 = (155.0 + s15) / 1200.0
    w2 = (155.0 - s15) / 1200.0
    pts = np.array([(1.0 / 3.0, 1.0 / 3.0)] + _tri_orbit3(a1) + _tri_orbit3(a2))
    wts = 0.5 * np.array([w0] + [w1] * 3 + [w2] * 3)
    rules[7] = (pts, wts, 5)

    a1, w1 = 0.249286745170910, 0.116786275726379
    a2, w2 = 0.063089014491502, 0.050844906370207
    b1, b2 = 0.310352451033784, 0.053145049844817
    w3 = 0.082851075618374
    pts = np.array(
        _tri_orbit3(a1) + _tri_orbit3(a2) + _tri_orbit6(b1, b2)
    )
    wts = 0.5 * np.array([w1] * 3 + [w2] * 3 + [w3] * 6)
    rules[12] = (pts, wts, 6)

    return rules


_TRI_RULES = _build_tri_rules()

_MAX_1D_POINTS = 64


def tensor_points(t, ref_dim: int) -> np.ndarray:
    """Every ``ref_dim``-tuple of the entries of ``t``, shape
    (len(t) ** ref_dim, ref_dim), the first coordinate varying slowest."""
    return np.stack(np.meshgrid(*[t] * ref_dim, indexing="ij"), -1).reshape(-1, ref_dim)


def gauss_rule(kind: ElementKind, n_points: int) -> QuadratureRule:
    """Gauss rule with ``n_points`` points on the reference domain of ``kind``.

    Segments accept 1 to 64 points (Gauss-Legendre).  Quadrilaterals accept
    perfect squares of those counts (tensor rules).  Triangles accept the
    symmetric positive-weight rules with 1, 3, 6, 7 or 12 points, exact to
    degree 1, 2, 4, 5 and 6 respectively.
    """
    kind = ElementKind(kind)
    n_points = as_count(n_points, "n_points")
    if kind is ElementKind.TRI3:
        if n_points not in _TRI_RULES:
            raise ValueError(
                f"triangle rules exist for {sorted(_TRI_RULES)} points, got {n_points}"
            )
        pts, wts, deg = _TRI_RULES[n_points]
        return QuadratureRule(pts.copy(), wts.copy(), deg)
    dim = kind.ref_dim
    in_range = 1 <= n_points <= _MAX_1D_POINTS**dim
    per_axis = round(n_points ** (1.0 / dim)) if in_range else 0
    if not in_range or per_axis**dim != n_points:
        raise ValueError(
            f"{kind.value} rules are Gauss-Legendre rules with k^{dim} points, "
            f"1 <= k <= {_MAX_1D_POINTS}; got {n_points}"
        )
    return _tensor_gauss_rule(dim, per_axis)


# every assembly, interface mesh and error integral asks for the same few
# rules, and their arrays are read-only, so one copy of each is shared
@lru_cache(maxsize=None)
def _tensor_gauss_rule(dim: int, per_axis: int) -> QuadratureRule:
    """Tensor Gauss-Legendre rule with ``per_axis`` points on each of the
    ``dim`` axes of [-1, 1]^dim."""
    x, w = leggauss(per_axis)
    weights = tensor_points(w, dim).prod(axis=1)
    return QuadratureRule(tensor_points(x, dim), weights, 2 * per_axis - 1)


def triangle_rule_for_degree(degree: int) -> QuadratureRule:
    """Smallest tabulated triangle rule exact to at least ``degree``."""
    for n in sorted(_TRI_RULES):
        if _TRI_RULES[n][2] >= degree:
            return gauss_rule(ElementKind.TRI3, n)
    raise ValueError(f"no tabulated triangle rule reaches degree {degree}")


def min_gauss_points(kind: ElementKind) -> int:
    """Smallest Gauss point count for mortar integrals on ``kind``: the
    smallest rule that integrates every product of two basis functions
    exactly on the reference element."""
    return _ELEMENTS[ElementKind(kind)].min_gauss
