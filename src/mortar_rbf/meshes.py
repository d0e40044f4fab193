"""Mesh containers, isoparametric geometry and structured generation.

Two mesh flavours are used throughout:

* ``InterfaceMesh``: a mesh of segments (in R^2) or quadrilateral surface
  elements (in R^3) describing one side of a coupling interface.
* ``VolumeMesh``: a triangulation of a planar subdomain whose boundary
  edges carry string tags ("dirichlet", "interface", ...).

A mesh holds only read-only numpy arrays, so ``np.save`` and ``np.load``
round-trip every one of them.  Each mesh refuses its bad elements, and
every node index it holds passes one validator, when it is built.  Meshes
compare and hash by identity: two meshes built from equal arrays are two
distinct meshes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable, ClassVar

import numpy as np

from .elements import (
    ElementKind,
    as_count,
    gauss_rule,
    min_gauss_points,
    node_reference_coords,
    shape_gradients,
    shape_values,
)
from .errors import DegenerateElementError, InvalidGeometryError

__all__ = [
    "Side",
    "InterfaceMesh",
    "VolumeMesh",
    "element_geometry",
    "element_circumdiameters",
    "element_frames",
    "mesh_size",
    "translate",
    "segment_mesh",
    "segment_pair",
    "square_surface_mesh",
    "surface_pair",
    "sine_bump",
    "rectangle_mesh",
    "split_unit_square",
    "extract_interface",
]


class Side(str, Enum):
    """Role of an interface mesh in a mortar pairing."""

    MASTER = "master"
    SLAVE = "slave"


def _freeze(arr, dtype=None) -> np.ndarray:
    """A read-only C-ordered copy of ``arr``, so the caller's array stays
    writeable and later writes to it do not reach the mesh."""
    arr = np.array(arr, dtype=dtype, order="C")
    arr.setflags(write=False)
    return arr


def _coordinates(nodes, dim: int, what: str) -> np.ndarray:
    """``nodes`` as a read-only (n, dim) array of finite coordinates."""
    nodes = _freeze(nodes, float)
    if nodes.ndim != 2 or nodes.shape[1] != dim:
        raise ValueError(f"{what} nodes must live in R^{dim}")
    if not np.all(np.isfinite(nodes)):
        raise ValueError("mesh nodes contain non-finite coordinates")
    return nodes


def _node_indices(index, n_cols: int, n_nodes: int, what: str) -> np.ndarray:
    """``index`` as a read-only (k, n_cols) int64 array of node indices
    below ``n_nodes``; a float array (say, as ``np.load`` returns) must hold
    whole numbers.  The messages name the array ``what``."""
    index = np.asarray(index)
    if index.dtype.kind == "f":
        fractional = ~(np.isfinite(index) & (index == np.trunc(index)))
        if fractional.any():
            raise ValueError(
                f"{what} holds the non-integral node index {index[fractional][0]}"
            )
    index = _freeze(index, np.int64)
    if index.ndim != 2 or index.shape[1] != n_cols:
        raise ValueError(f"{what} must have {n_cols} columns, got shape {index.shape}")
    if index.size and (index.min() < 0 or index.max() >= n_nodes):
        raise ValueError(f"{what} refers to nodes outside the mesh")
    return index


@dataclass(frozen=True, eq=False)
class InterfaceMesh:
    """One side of a coupling interface.

    Attributes
    ----------
    nodes : ndarray, shape (n_nodes, dim)
        Coordinates; dim is 2 for segment meshes and 3 for surface meshes.
    connectivity : ndarray, shape (n_elems, nodes_per_elem)
        0-based node indices, ordered per the reference element convention.
    kind : ElementKind
    side : Side
    """

    nodes: np.ndarray
    connectivity: np.ndarray
    kind: ElementKind
    side: Side = Side.MASTER

    def __post_init__(self):
        if not isinstance(self.kind, str):
            raise ValueError(
                "kind must be an element kind name such as 'seg2', got type "
                f"{type(self.kind).__name__}; the fields are (nodes, "
                "connectivity, kind, side)"
            )
        kind = ElementKind(self.kind)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "side", Side(self.side))
        if kind is ElementKind.TRI3:
            raise ValueError("triangles are volume elements, not interface elements")
        nodes = _coordinates(self.nodes, kind.ref_dim + 1, f"{kind.value} interface")
        object.__setattr__(self, "nodes", nodes)
        conn = _node_indices(
            self.connectivity, kind.n_nodes, self.n_nodes, f"{kind.value} connectivity"
        )
        object.__setattr__(self, "connectivity", conn)
        if self.kind is ElementKind.SEG3:
            _validate_unfolded(self)
        probe = gauss_rule(self.kind, min_gauss_points(self.kind)).points
        _validate_measures(self, probe)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elems(self) -> int:
        return self.connectivity.shape[0]


def _validate_unfolded(mesh: InterfaceMesh) -> None:
    """Raise unless every element runs forward along its chord at each node.

    A mid node outside its end nodes turns the element's map back on
    itself: its tangent at some node then points against the chord from
    the first to the last end node.
    """
    coords = mesh.nodes[mesh.connectivity]
    grads = shape_gradients(mesh.kind, node_reference_coords(mesh.kind))[:, :, 0]
    tangents = np.einsum("qn,end->eqd", grads, coords)
    forward = np.einsum("eqd,ed->eq", tangents, coords[:, -1] - coords[:, 0]) > 0.0
    bad = np.flatnonzero(~forward.all(axis=1))
    if bad.size:
        raise InvalidGeometryError(
            f"{mesh.side.value} element {bad[0]} is folded: its map turns back "
            "against its chord"
        )


@dataclass(frozen=True, eq=False)
class VolumeMesh:
    """Linear triangulation of a planar subdomain.

    Every triangle must run counterclockwise: the first whose signed area
    is not positive raises :class:`DegenerateElementError` naming it by
    number.  ``boundary_edges`` (k, 2) lists node pairs, each an edge of
    exactly one triangle and listed once, and stores every row sorted;
    ``boundary_tags`` (k,) holds the string tag of each, conventionally
    "dirichlet" or "interface".  Both are empty by default.
    """

    kind: ClassVar[ElementKind] = ElementKind.TRI3
    nodes: np.ndarray
    connectivity: np.ndarray
    boundary_edges: np.ndarray = field(default_factory=lambda: np.empty((0, 2), int))
    boundary_tags: np.ndarray = field(default_factory=lambda: np.empty(0, str))

    def __post_init__(self):
        object.__setattr__(self, "nodes", _coordinates(self.nodes, 2, "volume mesh"))
        conn = _node_indices(self.connectivity, 3, self.n_nodes, "tri3 connectivity")
        object.__setattr__(self, "connectivity", conn)
        bad = np.flatnonzero(self.double_areas <= 0.0)
        if bad.size:
            area = self.double_areas[bad[0]] / 2.0
            raise DegenerateElementError(
                f"triangle {bad[0]} has non-positive area {area:.3e}"
            )
        edges = _node_indices(self.boundary_edges, 2, self.n_nodes, "boundary_edges")
        edges, tags = _freeze(np.sort(edges, axis=1)), _freeze(self.boundary_tags, str)
        if tags.shape != (len(edges),):
            raise ValueError(
                f"boundary_tags has shape {tags.shape}, not one tag per boundary edge"
            )
        _validate_boundary_edges(self, edges)
        object.__setattr__(self, "boundary_edges", edges)
        object.__setattr__(self, "boundary_tags", tags)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elems(self) -> int:
        return self.connectivity.shape[0]

    @cached_property
    def double_areas(self) -> np.ndarray:
        """Twice the signed area of every triangle, shape (n_elems,),
        positive when its vertices run counterclockwise; read-only."""
        conn = self.connectivity.T
        x, y = self.nodes[:, 0][conn], self.nodes[:, 1][conn]
        return _freeze((x[1] - x[0]) * (y[2] - y[0]) - (y[1] - y[0]) * (x[2] - x[0]))

    def tagged_edges(self, tag: str) -> np.ndarray:
        """The boundary edges carrying ``tag``, shape (m, 2)."""
        return self.boundary_edges[self.boundary_tags == tag]

    def tagged_nodes(self, tag: str) -> np.ndarray:
        """Sorted unique node ids lying on edges carrying ``tag``."""
        return np.unique(self.tagged_edges(tag))


def _validate_boundary_edges(mesh: VolumeMesh, pairs: np.ndarray) -> None:
    """Raise naming the first of the sorted node ``pairs`` that is not an
    edge of exactly one triangle, then the first that repeats an earlier
    one; the pair (a, b) with a <= b has the key a n + b."""
    n = mesh.n_nodes
    on_tags = np.zeros(n, dtype=bool)
    on_tags[pairs] = True
    tail, head = mesh.connectivity.ravel(), mesh.connectivity[:, [1, 2, 0]].ravel()
    both = on_tags[tail] & on_tags[head]
    tail, head = tail[both], head[both]
    keys, counts = np.unique(
        np.minimum(tail, head) * n + np.maximum(tail, head), return_counts=True
    )
    pair_keys = pairs @ np.array([n, 1])
    repeats = np.ones(len(pairs), dtype=bool)
    repeats[np.unique(pair_keys, return_index=True)[1]] = False
    one_triangle = np.isin(pair_keys, keys[counts == 1])
    for bad, reason in [
        (~one_triangle, "is not an edge of exactly one triangle"),
        (repeats, "is listed twice"),
    ]:
        if bad.any():
            edge = tuple(pairs[bad.argmax()].tolist())
            raise ValueError(f"boundary edge {edge} {reason}")


Mesh = InterfaceMesh | VolumeMesh


# --- isoparametric geometry ------------------------------------------------


def element_geometry(
    mesh: InterfaceMesh, xi, elems=slice(None)
) -> tuple[np.ndarray, np.ndarray]:
    """Physical points and squared measures of interface elements.

    Returns x(xi), shape (n_elems, n_points, dim), and the metric
    determinant det(J^T J) of the isoparametric map, shape (n_elems,
    n_points), at the reference points ``xi`` of every element or of those
    ``elems`` selects.  Nothing is checked: a degenerate element shows as
    a non-positive value.
    """
    coords = mesh.nodes[mesh.connectivity[elems]]
    vals = shape_values(mesh.kind, xi)
    grads = shape_gradients(mesh.kind, xi)
    J = np.einsum("gnr,end->egdr", grads, coords)
    G = np.einsum("egdr,egds->egrs", J, J)
    if G.shape[-1] == 1:
        det = G[..., 0, 0]
    else:
        det = G[..., 0, 0] * G[..., 1, 1] - G[..., 0, 1] * G[..., 1, 0]
    return vals @ coords, det


def element_circumdiameters(mesh: Mesh) -> np.ndarray:
    """Largest pairwise node distance of every element, shape (n_elems,)."""
    coords = mesh.nodes[mesh.connectivity]
    diff = coords[:, :, None, :] - coords[:, None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1)).max(axis=(1, 2))


def _unit(vectors: np.ndarray) -> np.ndarray:
    """Each row of ``vectors`` over its length; NaN where the length is 0."""
    length = np.linalg.norm(vectors, axis=-1, keepdims=True)
    return np.divide(vectors, length, out=np.full_like(vectors, np.nan), where=length > 0)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross products along the last axis (``np.cross`` costs ten times as
    much on arrays of a few hundred vectors)."""
    a1, a2, a3 = a[..., 0], a[..., 1], a[..., 2]
    b1, b2, b3 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1], axis=-1)


def element_frames(mesh: InterfaceMesh) -> tuple[np.ndarray, np.ndarray]:
    """Origin and orthonormal axes of every element's local frame.

    The origin, shape (n_elems, dim), is the centroid of the element's
    nodes.  The axes, shape (n_elems, dim, dim), hold one unit vector per
    row: the tangent axes, then the normal.  A segment's tangent is its
    chord from the first to the last end node, and its normal is the
    chord turned a quarter turn counter-clockwise.  A quadrilateral's
    normal is the cross product of its diagonals (the normal at the centre
    of a bilinear element), its first tangent the sum of its two xi-edges
    with the normal part taken out, and its second tangent the normal
    cross the first.  Closed forms, so no SVD runs; an element whose chord
    or diagonals give no direction gets NaN axes.
    """
    coords = mesh.nodes[mesh.connectivity]
    if mesh.kind.ref_dim == 1:
        tangent = _unit(coords[:, -1] - coords[:, 0])
        normal = np.stack([-tangent[:, 1], tangent[:, 0]], axis=1)
        return coords.mean(axis=1), np.stack([tangent, normal], axis=1)
    corner = coords[:, :4]
    normal = _unit(_cross(corner[:, 2] - corner[:, 0], corner[:, 3] - corner[:, 1]))
    edges = corner[:, 1] - corner[:, 0] + corner[:, 2] - corner[:, 3]
    first = _unit(edges - (edges * normal).sum(axis=1, keepdims=True) * normal)
    return coords.mean(axis=1), np.stack([first, _cross(normal, first), normal], axis=1)


def mesh_size(mesh: Mesh) -> float:
    """Largest element circumdiameter in the mesh."""
    return float(element_circumdiameters(mesh).max())


def translate(mesh: InterfaceMesh, vector) -> InterfaceMesh:
    """Rigidly translate an interface mesh by ``vector``."""
    nodes = mesh.nodes + np.asarray(vector, float)
    return InterfaceMesh(nodes, mesh.connectivity, mesh.kind, mesh.side)


def _validate_measures(mesh: InterfaceMesh, probe) -> None:
    """Raise :class:`DegenerateElementError` naming the first element with
    a non-positive measure at any of the reference points ``probe``."""
    _, det = element_geometry(mesh, probe)
    bad = np.flatnonzero(np.any(det <= 0.0, axis=1))
    if bad.size:
        raise DegenerateElementError(
            f"{mesh.side.value} element {bad[0]} has a degenerate surface metric"
        )


# --- structured generation -------------------------------------------------


def segment_mesh(
    n_elems: int,
    kind: ElementKind = ElementKind.SEG2,
    span: tuple[float, float] = (-1.0, 1.0),
    side: Side = Side.MASTER,
) -> InterfaceMesh:
    """Uniform segment mesh on the x-axis of R^2; :func:`translate` moves it."""
    kind = ElementKind(kind)
    if kind not in (ElementKind.SEG2, ElementKind.SEG3):
        raise ValueError("segment meshes require seg2 or seg3 elements")
    n_elems = as_count(n_elems, "n_elems")
    if n_elems < 1:
        raise ValueError("n_elems must be positive")
    a, b = span
    if not b > a:
        raise ValueError("span must be increasing")
    per_elem = kind.degree
    xs = np.linspace(a, b, per_elem * n_elems + 1)
    nodes = np.column_stack([xs, np.zeros_like(xs)])
    first = per_elem * np.arange(n_elems)[:, None]
    conn = first + np.arange(per_elem + 1)[None, :]
    return InterfaceMesh(nodes, conn, kind, side)


def segment_pair(
    n_master: int,
    n_slave: int,
    kind: ElementKind = ElementKind.SEG2,
) -> tuple[InterfaceMesh, InterfaceMesh]:
    """Master/slave segment meshes over [-1, 1] (conforming ends); build
    pairs over other intervals with :func:`segment_mesh`."""
    master = segment_mesh(n_master, kind, side=Side.MASTER)
    slave = segment_mesh(n_slave, kind, side=Side.SLAVE)
    return master, slave


def sine_bump(amplitude: float) -> Callable:
    """Out-of-plane warp z(x, y) = a sin(pi (x + 1)) sin(pi (y + 1)).

    The bump vanishes on the border of the square [-1, 1]^2 that
    :func:`square_surface_mesh` covers, and |z| reaches ``amplitude`` at
    the four points (+-1/2, +-1/2).
    """

    def warp(x, y):
        sx = np.sin(np.pi * (x + 1.0))
        sy = np.sin(np.pi * (y + 1.0))
        return amplitude * sx * sy

    return warp


def square_surface_mesh(
    n_per_side: int,
    kind: ElementKind = ElementKind.QUAD4,
    side: Side = Side.MASTER,
    warp: Callable | None = None,
) -> InterfaceMesh:
    """Structured quadrilateral surface mesh over [-1, 1]^2, embedded in R^3.

    ``warp`` is an optional out-of-plane displacement z = warp(x, y)
    applied to every node (corner and mid-side alike).  A warp that
    degenerates the surface metric raises :class:`DegenerateElementError`;
    :func:`translate` moves the mesh.
    """
    kind = ElementKind(kind)
    if kind not in (ElementKind.QUAD4, ElementKind.QUAD8):
        raise ValueError("surface meshes require quad4 or quad8 elements")
    n = as_count(n_per_side, "n_per_side")
    if n < 1:
        raise ValueError("n_per_side must be positive")
    xs = np.linspace(-1.0, 1.0, n + 1)
    cx, cy = np.meshgrid(xs, xs, indexing="xy")
    xy = np.column_stack([cx.ravel(), cy.ravel()])
    # element j * n + i covers cell i in x and cell j in y; corner nodes
    # count x fastest, as do the mid-side nodes of the x-parallel edges and
    # then of the y-parallel edges that quad8 appends
    j, i = np.divmod(np.arange(n * n), n)
    corner = j * (n + 1) + i
    conn = [corner, corner + 1, corner + n + 2, corner + n + 1]
    if kind is ElementKind.QUAD8:
        mids = 0.5 * (xs[:-1] + xs[1:])
        hx, hy = np.meshgrid(mids, xs, indexing="xy")
        vx, vy = np.meshgrid(xs, mids, indexing="xy")
        h = xy.shape[0] + j * n + i
        v = xy.shape[0] + hx.size + j * (n + 1) + i
        conn += [h, v + 1, h + n, v]
        xy = np.vstack([xy, np.column_stack([hx.ravel(), hy.ravel()])])
        xy = np.vstack([xy, np.column_stack([vx.ravel(), vy.ravel()])])

    z = warp(xy[:, 0], xy[:, 1]) if warp is not None else np.zeros(xy.shape[0])
    return InterfaceMesh(np.column_stack([xy, z]), np.column_stack(conn), kind, side)


def surface_pair(
    n_master: int,
    n_slave: int,
    kind: ElementKind = ElementKind.QUAD4,
    warp_master: Callable | None = None,
    warp_slave: Callable | None = None,
) -> tuple[InterfaceMesh, InterfaceMesh]:
    """Master/slave surface meshes over the square [-1, 1]^2.

    Distinct warps yield geometrically non-conforming interfaces with gaps
    that grow away from the (flat) boundary ring.
    """
    master = square_surface_mesh(n_master, kind, Side.MASTER, warp_master)
    slave = square_surface_mesh(n_slave, kind, Side.SLAVE, warp_slave)
    return master, slave


def rectangle_mesh(
    nx: int,
    ny: int,
    y_span: tuple[float, float] = (0.0, 1.0),
    interface_edge: str | None = None,
    interface_offset: Callable | None = None,
) -> VolumeMesh:
    """Uniform triangulation of [0, 1] x ``y_span`` with ``nx`` by ``ny`` cells.

    Every grid cell is split along its lower-left to upper-right diagonal,
    so that two meshes generated on nested grids share their triangles.
    ``interface_edge`` ("bottom" or "top") selects the horizontal boundary
    tagged "interface"; every other boundary edge is tagged "dirichlet".

    ``interface_offset`` shifts the interface row by offset(x), blending
    linearly to zero at the opposite edge.  A shift large enough to tangle
    the grid turns a triangle clockwise, which :class:`VolumeMesh` refuses
    with :class:`DegenerateElementError`.
    """
    nx, ny = as_count(nx, "nx"), as_count(ny, "ny")
    if nx < 1 or ny < 1:
        raise ValueError("need at least one cell in each direction")
    if interface_edge not in (None, "bottom", "top"):
        raise ValueError("interface_edge must be 'bottom', 'top' or None")

    xs = np.linspace(0.0, 1.0, nx + 1)
    ys = np.linspace(*y_span, ny + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    if interface_offset is not None:
        if interface_edge is None:
            raise ValueError("interface_offset requires an interface_edge")
        y0, y1 = ys[0], ys[-1]
        if interface_edge == "bottom":
            blend = (y1 - gy) / (y1 - y0)
        else:
            blend = (gy - y0) / (y1 - y0)
        gy = gy + blend * interface_offset(gx)
    nodes = np.column_stack([gx.ravel(), gy.ravel()])

    # node (i, j) is grid[j, i]; cell (i, j), taken row by row, gives
    # triangles 2c and 2c + 1 with c = j nx + i
    grid = np.arange(nodes.shape[0]).reshape(ny + 1, nx + 1)
    n00, n10 = grid[:-1, :-1].ravel(), grid[:-1, 1:].ravel()
    n11, n01 = grid[1:, 1:].ravel(), grid[1:, :-1].ravel()
    conn = np.stack([n00, n10, n11, n00, n11, n01], axis=1).reshape(-1, 3)

    lines = [grid[0], grid[-1], grid[:, 0], grid[:, -1]]
    edges = np.concatenate([np.column_stack([g[:-1], g[1:]]) for g in lines])
    bottom_tag = "interface" if interface_edge == "bottom" else "dirichlet"
    top_tag = "interface" if interface_edge == "top" else "dirichlet"
    tags = np.repeat([bottom_tag, top_tag, "dirichlet", "dirichlet"], [nx, nx, ny, ny])
    return VolumeMesh(nodes, conn, edges, tags)


def split_unit_square(
    n_master_x: int,
    n_slave_x: int,
    interface_offset: Callable | None = None,
) -> tuple[VolumeMesh, VolumeMesh]:
    """Two stacked subdomain meshes of the unit square, split at y = 1/2.

    The master subdomain is the upper half [0,1] x [1/2,1], the slave the
    lower half.  Cell counts in y keep cells near-square for each side's
    own resolution, so different ``n_master_x`` / ``n_slave_x`` produce a
    non-conforming interface at y = 1/2.  ``interface_offset`` bends the
    interface row of both meshes onto the same curve, each side sampling it
    with its own nodes (a geometrically non-conforming pairing).
    """
    n_master_x = as_count(n_master_x, "n_master_x")
    n_slave_x = as_count(n_slave_x, "n_slave_x")
    ny_m = max(1, round(n_master_x * 0.5))
    ny_s = max(1, round(n_slave_x * 0.5))
    master = rectangle_mesh(n_master_x, ny_m, (0.5, 1.0), "bottom", interface_offset)
    slave = rectangle_mesh(n_slave_x, ny_s, (0.0, 0.5), "top", interface_offset)
    return master, slave


def extract_interface(mesh: VolumeMesh, side: Side) -> tuple[InterfaceMesh, np.ndarray]:
    """Build the segment mesh of a volume mesh's "interface" edges.

    The edges must form one simple open chain.  Returns the interface mesh
    (nodes ordered along the chain, starting from the end with the smaller
    (x, y)) and the map from interface node index to volume node index.
    """
    edges = mesh.tagged_edges("interface").tolist()
    if not edges:
        raise InvalidGeometryError("mesh has no edges tagged 'interface'")
    adjacency: dict[int, list[int]] = {}
    for a, b in edges:
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    ends = [n for n, nbrs in adjacency.items() if len(nbrs) == 1]
    if len(ends) != 2 or any(len(v) > 2 for v in adjacency.values()):
        raise InvalidGeometryError("interface edges do not form a simple open chain")
    start = min(ends, key=lambda n: (mesh.nodes[n, 0], mesh.nodes[n, 1]))
    chain = [start]
    prev = -1
    while True:
        nbrs = [n for n in adjacency[chain[-1]] if n != prev]
        if not nbrs:
            break
        prev = chain[-1]
        chain.append(nbrs[0])
    if len(chain) != len(adjacency):
        raise InvalidGeometryError("interface edges are not contiguous")
    node_map = np.array(chain, dtype=np.int64)
    nodes = mesh.nodes[node_map]
    conn = np.column_stack(
        [np.arange(len(chain) - 1), np.arange(1, len(chain))]
    ).astype(np.int64)
    return InterfaceMesh(nodes, conn, ElementKind.SEG2, side), node_map
