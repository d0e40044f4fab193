"""Mesh containers, isoparametric geometry and structured generation.

Two mesh flavours are used throughout:

* ``InterfaceMesh``: a mesh of segments (in R^2) or quadrilateral surface
  elements (in R^3) describing one side of a coupling interface.
* ``VolumeMesh``: a triangulation of a planar subdomain with string tags on
  boundary edges ("dirichlet", "interface", ...).

Meshes are immutable after construction; node and connectivity arrays are
marked read-only.  Each mesh refuses its bad elements when it is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable, ClassVar

import numpy as np

from .elements import (
    ElementKind,
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


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


def _validate_connectivity(nodes, connectivity, kind):
    if connectivity.ndim != 2 or connectivity.shape[1] != kind.n_nodes:
        raise ValueError(
            f"{kind.value} connectivity must have {kind.n_nodes} columns, "
            f"got shape {connectivity.shape}"
        )
    if connectivity.size and (
        connectivity.min() < 0 or connectivity.max() >= nodes.shape[0]
    ):
        raise ValueError("connectivity refers to nodes outside the mesh")
    if not np.all(np.isfinite(nodes)):
        raise ValueError("mesh nodes contain non-finite coordinates")


@dataclass(frozen=True)
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
        object.__setattr__(self, "nodes", _freeze(np.asarray(self.nodes, float)))
        object.__setattr__(
            self, "connectivity", _freeze(np.asarray(self.connectivity, np.int64))
        )
        object.__setattr__(self, "kind", ElementKind(self.kind))
        object.__setattr__(self, "side", Side(self.side))
        if self.kind is ElementKind.TRI3:
            raise ValueError("triangles are volume elements, not interface elements")
        expected_dim = 2 if self.kind.ref_dim == 1 else 3
        if self.nodes.ndim != 2 or self.nodes.shape[1] != expected_dim:
            raise ValueError(
                f"{self.kind.value} interface nodes must live in R^{expected_dim}"
            )
        _validate_connectivity(self.nodes, self.connectivity, self.kind)
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


@dataclass(frozen=True)
class VolumeMesh:
    """Linear triangulation of a planar subdomain.

    ``boundary_tags`` maps sorted boundary edge node pairs to tag strings.
    The conventional tags are "dirichlet" and "interface".  Every triangle
    must run counterclockwise: the first whose signed area is not positive
    raises :class:`DegenerateElementError` naming it by number.
    """

    kind: ClassVar[ElementKind] = ElementKind.TRI3
    nodes: np.ndarray
    connectivity: np.ndarray
    boundary_tags: dict[tuple[int, int], str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "nodes", _freeze(np.asarray(self.nodes, float)))
        object.__setattr__(
            self, "connectivity", _freeze(np.asarray(self.connectivity, np.int64))
        )
        if self.nodes.ndim != 2 or self.nodes.shape[1] != 2:
            raise ValueError("volume mesh nodes must live in R^2")
        _validate_connectivity(self.nodes, self.connectivity, self.kind)
        bad = np.flatnonzero(self.double_areas <= 0.0)
        if bad.size:
            area = self.double_areas[bad[0]] / 2.0
            raise DegenerateElementError(
                f"triangle {bad[0]} has non-positive area {area:.3e}"
            )
        tags = {
            (int(min(a, b)), int(max(a, b))): str(t)
            for (a, b), t in self.boundary_tags.items()
        }
        for edge in tags:
            if edge[0] < 0 or edge[1] >= self.n_nodes:
                raise ValueError(
                    f"boundary tag edge {edge} names a node outside the mesh "
                    f"of {self.n_nodes} nodes"
                )
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

    def tagged_edges(self, tag: str) -> list[tuple[int, int]]:
        return [e for e, t in self.boundary_tags.items() if t == tag]

    def tagged_nodes(self, tag: str) -> np.ndarray:
        """Sorted unique node ids lying on edges carrying ``tag``."""
        return np.unique(np.array(self.tagged_edges(tag), dtype=np.int64))


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
    span: tuple[float, float] = (-1.0, 1.0),
) -> tuple[InterfaceMesh, InterfaceMesh]:
    """Master/slave segment meshes over the same interval (conforming ends)."""
    master = segment_mesh(n_master, kind, span, Side.MASTER)
    slave = segment_mesh(n_slave, kind, span, Side.SLAVE)
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
    if n_per_side < 1:
        raise ValueError("n_per_side must be positive")
    n = n_per_side
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

    tags: dict[tuple[int, int], str] = {}

    def tag_edge(a, b, name):
        tags[(min(a, b), max(a, b))] = name

    bottom_tag = "interface" if interface_edge == "bottom" else "dirichlet"
    top_tag = "interface" if interface_edge == "top" else "dirichlet"
    for i in range(nx):
        tag_edge(grid[0, i], grid[0, i + 1], bottom_tag)
        tag_edge(grid[ny, i], grid[ny, i + 1], top_tag)
    for j in range(ny):
        tag_edge(grid[j, 0], grid[j + 1, 0], "dirichlet")
        tag_edge(grid[j, nx], grid[j + 1, nx], "dirichlet")

    return VolumeMesh(nodes, conn, tags)


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
    edges = mesh.tagged_edges("interface")
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
