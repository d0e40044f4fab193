import re
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mortar_rbf.elements import ElementKind
from mortar_rbf.errors import DegenerateElementError, InvalidGeometryError
from mortar_rbf.meshes import (
    InterfaceMesh,
    Side,
    VolumeMesh,
    element_circumdiameters,
    element_frames,
    element_geometry,
    extract_interface,
    mesh_size,
    rectangle_mesh,
    segment_mesh,
    segment_pair,
    sine_bump,
    split_unit_square,
    square_surface_mesh,
    surface_pair,
    translate,
)


def test_segment_pair_counts_and_span():
    master, slave = segment_pair(4, 6, ElementKind.SEG2)
    assert master.n_elems == 4 and slave.n_elems == 6
    for mesh in (master, slave):
        assert mesh.nodes[0, 0] == -1.0 and mesh.nodes[-1, 0] == 1.0
    assert master.side is Side.MASTER and slave.side is Side.SLAVE
    assert mesh_size(master) == pytest.approx(0.5)
    assert mesh_size(slave) == pytest.approx(2.0 / 6.0)


def test_seg3_has_midside_nodes():
    mesh = segment_mesh(2, ElementKind.SEG3, span=(-1.0, 1.0))
    assert mesh.nodes.shape[0] == 5
    assert mesh.connectivity.shape == (2, 3)
    mids, _ = element_geometry(mesh, [[0.0]], [0])
    assert mids[0, 0, 0] == pytest.approx(-0.5)


def test_element_geometry_hits_vertices():
    mesh = segment_mesh(3, span=(0.0, 3.0))
    ends, _ = element_geometry(mesh, [[-1.0], [1.0]], [1])
    np.testing.assert_allclose(ends[0, :, 0], [1.0, 2.0], atol=1e-15)


def test_element_geometry_measure_of_affine_segment():
    mesh = segment_mesh(5, span=(0.0, 1.0))
    _, metric = element_geometry(mesh, [[-0.3], [0.8]], [2])
    np.testing.assert_allclose(np.sqrt(metric[0]), 0.1, atol=1e-15)


def test_nodes_are_read_only():
    mesh = segment_mesh(2)
    with pytest.raises(ValueError):
        mesh.nodes[0, 0] = 99.0


def test_surface_pair_warp_moves_interior_only():
    warp = sine_bump(0.2)
    flat = square_surface_mesh(4, ElementKind.QUAD4)
    bumped = square_surface_mesh(4, ElementKind.QUAD4, warp=warp)
    assert flat.nodes.shape[1] == 3 and bumped.nodes.shape[1] == 3
    border = np.any(np.isclose(np.abs(bumped.nodes[:, :2]), 1.0), axis=1)
    np.testing.assert_allclose(bumped.nodes[border, 2], 0.0, atol=1e-12)
    assert np.abs(bumped.nodes[~border, 2]).max() > 0.05
    np.testing.assert_allclose(flat.nodes[:, 2], 0.0)


def test_surface_pair_element_counts():
    master, slave = surface_pair(3, 2, ElementKind.QUAD8)
    assert master.n_elems == 9 and slave.n_elems == 4
    assert master.kind is ElementKind.QUAD8
    assert element_circumdiameters(master)[0] > 0.0


def test_rectangle_mesh_tags_partition_boundary():
    mesh = rectangle_mesh(4, 3, (0.0, 1.0), interface_edge="top")
    assert mesh.n_elems == 2 * 4 * 3
    interface_nodes = mesh.tagged_nodes("interface")
    assert interface_nodes.size == 5
    np.testing.assert_allclose(mesh.nodes[interface_nodes, 1], 1.0)
    dirichlet_nodes = mesh.tagged_nodes("dirichlet")
    # Corners of the top edge belong to the side walls too.
    assert np.intersect1d(interface_nodes, dirichlet_nodes).size == 2


def test_split_unit_square_interfaces_coincide():
    master, slave = split_unit_square(6, 4)
    top = master.tagged_nodes("interface")
    bottom = slave.tagged_nodes("interface")
    np.testing.assert_allclose(master.nodes[top, 1], 0.5, atol=1e-15)
    np.testing.assert_allclose(slave.nodes[bottom, 1], 0.5, atol=1e-15)
    assert top.size == 7 and bottom.size == 5


def test_split_unit_square_curved_interface():
    curve = lambda x: 0.1 * np.sin(np.pi * x)
    master, slave = split_unit_square(8, 6, interface_offset=curve)
    top = master.tagged_nodes("interface")
    xs = master.nodes[top, 0]
    np.testing.assert_allclose(
        master.nodes[top, 1], 0.5 + curve(xs), atol=1e-12
    )


def test_overlarge_offset_tangles_and_raises():
    with pytest.raises(DegenerateElementError, match="triangle 0 has non-positive area"):
        split_unit_square(2, 2, interface_offset=lambda x: 0.0 * x + 0.9)


def test_extract_interface_orders_chain():
    master, _ = split_unit_square(5, 3)
    chain, node_map = extract_interface(master, Side.MASTER)
    assert chain.kind is ElementKind.SEG2
    assert chain.side is Side.MASTER
    xs = chain.nodes[:, 0]
    assert np.all(np.diff(xs) > 0.0)
    np.testing.assert_allclose(master.nodes[node_map], chain.nodes)


def test_extract_interface_requires_tags():
    mesh = rectangle_mesh(2, 2)
    with pytest.raises(InvalidGeometryError):
        extract_interface(mesh, Side.MASTER)


def test_translate_returns_shifted_copy():
    mesh = segment_mesh(3, span=(0.0, 1.0))
    moved = translate(mesh, [2.0, -1.0])
    np.testing.assert_allclose(moved.nodes[:, 0], mesh.nodes[:, 0] + 2.0)
    np.testing.assert_allclose(moved.nodes[:, 1], -1.0)
    assert moved.side is mesh.side


def _saved_and_loaded(tmp_path, name, array):
    path = tmp_path / f"{name}.npy"
    np.save(path, array)
    return np.load(path)


def test_interface_mesh_array_round_trip(tmp_path):
    mesh = square_surface_mesh(3, ElementKind.QUAD8, warp=sine_bump(0.11))
    again = InterfaceMesh(
        _saved_and_loaded(tmp_path, "nodes", mesh.nodes),
        _saved_and_loaded(tmp_path, "connectivity", mesh.connectivity),
        mesh.kind,
        Side.SLAVE,
    )
    np.testing.assert_array_equal(again.nodes, mesh.nodes)
    np.testing.assert_array_equal(again.connectivity, mesh.connectivity)
    assert again.kind is mesh.kind
    assert again.side is Side.SLAVE


def test_empty_interface_mesh_array_round_trip(tmp_path):
    mesh = InterfaceMesh(np.zeros((0, 2)), np.zeros((0, 2), int), ElementKind.SEG2)
    again = InterfaceMesh(
        _saved_and_loaded(tmp_path, "nodes", mesh.nodes),
        _saved_and_loaded(tmp_path, "connectivity", mesh.connectivity),
        mesh.kind,
    )
    assert again.nodes.shape == (0, 2) and again.connectivity.shape == (0, 2)
    assert again.n_elems == 0


def test_volume_mesh_array_round_trip(tmp_path):
    mesh, _ = split_unit_square(3, 2)
    names = ["nodes", "connectivity", "boundary_edges", "boundary_tags"]
    again = VolumeMesh(
        *(_saved_and_loaded(tmp_path, name, getattr(mesh, name)) for name in names)
    )
    for name in names:
        np.testing.assert_array_equal(getattr(again, name), getattr(mesh, name))
        assert not getattr(again, name).flags.writeable
    interface, volume_nodes = extract_interface(again, Side.SLAVE)
    expected, expected_volume_nodes = extract_interface(mesh, Side.SLAVE)
    np.testing.assert_array_equal(interface.nodes, expected.nodes)
    np.testing.assert_array_equal(volume_nodes, expected_volume_nodes)


@settings(deadline=None, max_examples=25)
@given(
    n_x=st.integers(min_value=1, max_value=7),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_boundary_row_order_and_pair_order_do_not_matter(n_x, seed):
    mesh = split_unit_square(n_x, 3, interface_offset=lambda x: 0.1 * x)[0]
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(mesh.boundary_edges))
    edges = mesh.boundary_edges[order]
    flip = rng.random(len(edges)) < 0.5
    edges[flip] = edges[flip, ::-1]
    again = VolumeMesh(mesh.nodes, mesh.connectivity, edges, mesh.boundary_tags[order])
    np.testing.assert_array_equal(again.boundary_edges, np.sort(edges, axis=1))
    for tag in ("interface", "dirichlet"):
        np.testing.assert_array_equal(again.tagged_nodes(tag), mesh.tagged_nodes(tag))
    chain, node_map = extract_interface(again, Side.MASTER)
    want_chain, want_map = extract_interface(mesh, Side.MASTER)
    np.testing.assert_array_equal(chain.nodes, want_chain.nodes)
    np.testing.assert_array_equal(node_map, want_map)


SQUARE_NODES = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
SQUARE_CONNECTIVITY = np.array([[0, 1, 2], [0, 2, 3]])
NOT_AN_EDGE = "is not an edge of exactly one triangle"


@pytest.mark.parametrize(
    "edges, message",
    [
        ([[0, 999]], "boundary_edges refers to nodes outside the mesh"),
        ([[0, 2]], f"boundary edge (0, 2) {NOT_AN_EDGE}"),
        ([[1, 3]], f"boundary edge (1, 3) {NOT_AN_EDGE}"),
        ([[1, 1]], f"boundary edge (1, 1) {NOT_AN_EDGE}"),
        ([[0.5, 1.2]], "boundary_edges holds the non-integral node index 0.5"),
        ([[0, np.inf]], "boundary_edges holds the non-integral node index inf"),
        ([[0, np.nan]], "boundary_edges holds the non-integral node index nan"),
        ([[0, 1, 2]], "boundary_edges must have 2 columns, got shape (1, 3)"),
        ([[0, 1], [1, 2], [1, 0]], "boundary edge (0, 1) is listed twice"),
    ],
    ids=[
        "outside", "diagonal", "non-edge", "loop", "fractional", "inf", "nan", "triple",
        "duplicate",
    ],
)
def test_tags_naming_nodes_outside_the_mesh_are_rejected(edges, message):
    """Every tagged pair must be a boundary edge, listed once; (0, 2) is the
    interior diagonal of the two-triangle square, (1, 3) and (1, 1) no edge
    at all, (0.5, 1.2), (0, inf), (0, nan) and (0, 1, 2) no pair of node
    indices, and (1, 0) repeats (0, 1)."""
    tags = np.full(len(edges), "interface")
    with pytest.raises(ValueError, match=re.escape(message)):
        VolumeMesh(SQUARE_NODES, SQUARE_CONNECTIVITY, np.array(edges), tags)


@pytest.mark.parametrize(
    "tags, shape",
    [(["dirichlet"], (1,)), (["dirichlet"] * 3, (3,)), ("dirichlet", ())],
    ids=["short", "long", "scalar"],
)
def test_boundary_tags_need_one_tag_per_edge(tags, shape):
    edges = np.array([[0, 1], [1, 2]])
    message = f"boundary_tags has shape {shape}, not one tag per boundary edge"
    with pytest.raises(ValueError, match=re.escape(message)):
        VolumeMesh(SQUARE_NODES, SQUARE_CONNECTIVITY, edges, tags)


def test_meshes_keep_their_own_copy_of_the_callers_arrays():
    """Building a mesh leaves the caller's arrays writeable, and writing to
    them afterwards does not reach the mesh, whose arrays stay read-only."""
    builds = [
        (VolumeMesh, [[0, 1, 2], [0, 2, 3]]),
        (partial(InterfaceMesh, kind=ElementKind.SEG2), [[0, 1], [1, 2]]),
    ]
    for build, whole in builds:
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        connectivity = np.array(whole, dtype=np.int64)
        mesh = build(nodes, connectivity)
        nodes += 5.0
        connectivity[:] = 3
        assert not mesh.nodes.flags.writeable
        assert not mesh.connectivity.flags.writeable
        np.testing.assert_array_equal(mesh.nodes, nodes - 5.0)
        np.testing.assert_array_equal(mesh.connectivity, whole)


@pytest.mark.parametrize(
    "build",
    [lambda: segment_mesh(2), lambda: split_unit_square(2, 2)[0]],
    ids=["interface", "volume"],
)
def test_meshes_compare_and_hash_by_identity(build):
    mesh, twin = build(), build()
    np.testing.assert_array_equal(mesh.nodes, twin.nodes)
    assert mesh == mesh and not mesh != mesh
    assert mesh != twin and not mesh == twin
    assert hash(mesh) == hash(mesh)
    assert len({mesh, twin, mesh}) == 2


def test_interface_mesh_names_a_misplaced_kind():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="kind must be an element kind name"):
        InterfaceMesh("seg2", nodes, np.array([[0, 1]]))


@pytest.mark.parametrize(
    "mesh, connectivity, whole, message",
    [
        (
            partial(InterfaceMesh, kind=ElementKind.SEG2),
            [[0, 5]],
            [[0.0, 1.0]],
            "connectivity refers to nodes outside the mesh",
        ),
        (
            partial(InterfaceMesh, kind=ElementKind.SEG2),
            [[0.9, 1.9], [1.9, 2.9]],
            [[0.0, 1.0], [1.0, 2.0]],
            "seg2 connectivity holds the non-integral node index 0.9",
        ),
        (
            VolumeMesh,
            [[0, 1, 2.9]],
            [[0.0, 1.0, 2.0]],
            "tri3 connectivity holds the non-integral node index 2.9",
        ),
    ],
    ids=["outside", "fractional", "fractional-triangle"],
)
def test_interface_mesh_validates_connectivity(mesh, connectivity, whole, message):
    """Indices must name nodes of the mesh and be whole numbers, which a
    float array (as ``np.load`` may return) can hold."""
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match=re.escape(message)):
        mesh(nodes, connectivity)
    built = mesh(nodes, np.array(whole))
    assert built.connectivity.dtype == np.int64
    np.testing.assert_array_equal(built.connectivity, whole)


@settings(deadline=None, max_examples=25)
@given(
    n_master=st.integers(min_value=1, max_value=9),
    n_slave=st.integers(min_value=1, max_value=9),
    left=st.floats(min_value=-5.0, max_value=4.0),
    width=st.floats(min_value=0.1, max_value=10.0),
)
def test_segment_pair_mesh_size_property(n_master, n_slave, left, width):
    span = (left, left + width)
    master = segment_mesh(n_master, span=span)
    slave = segment_mesh(n_slave, span=span, side=Side.SLAVE)
    assert mesh_size(master) == pytest.approx(width / n_master, rel=1e-12)
    assert mesh_size(slave) == pytest.approx(width / n_slave, rel=1e-12)


def _frame_meshes():
    warp = sine_bump(0.1)
    bent = segment_mesh(5, ElementKind.SEG3)
    nodes = bent.nodes.copy()
    nodes[:, 1] = 0.3 * np.sin(2.0 * nodes[:, 0])
    return [
        segment_mesh(4),
        InterfaceMesh(nodes, bent.connectivity, bent.kind),
        square_surface_mesh(3, warp=warp),
        square_surface_mesh(3, ElementKind.QUAD8, warp=warp),
    ]


@pytest.mark.parametrize("mesh", _frame_meshes(), ids=lambda m: m.kind.value)
def test_element_frames_are_right_handed_and_turn_with_the_mesh(mesh):
    origin, axes = element_frames(mesh)
    coords = mesh.nodes[mesh.connectivity]
    np.testing.assert_allclose(origin, coords.mean(axis=1), rtol=0.0, atol=1e-15)
    identity = np.broadcast_to(np.eye(axes.shape[1]), axes.shape)
    np.testing.assert_allclose(axes @ axes.transpose(0, 2, 1), identity, atol=1e-15)
    np.testing.assert_allclose(np.linalg.det(axes), 1.0, rtol=1e-14)
    if mesh.kind.ref_dim == 1:
        chord = coords[:, -1] - coords[:, 0]
        np.testing.assert_allclose(
            axes[:, 0], chord / np.linalg.norm(chord, axis=1)[:, None], atol=1e-15
        )
    else:
        # the normal of a bilinear map at the element centre
        c = coords[:, :4]
        x_xi = c[:, 1] + c[:, 2] - c[:, 0] - c[:, 3]
        x_eta = c[:, 2] + c[:, 3] - c[:, 0] - c[:, 1]
        normal = np.cross(x_xi, x_eta)
        np.testing.assert_allclose(
            axes[:, -1], normal / np.linalg.norm(normal, axis=1)[:, None], atol=1e-15
        )
    q, _ = np.linalg.qr(np.random.default_rng(4).normal(size=(axes.shape[1],) * 2))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    turned = InterfaceMesh(mesh.nodes @ q.T + 2.0, mesh.connectivity, mesh.kind)
    turned_origin, turned_axes = element_frames(turned)
    np.testing.assert_allclose(turned_origin, origin @ q.T + 2.0, atol=1e-14)
    np.testing.assert_allclose(turned_axes, axes @ q.T, atol=1e-14)
