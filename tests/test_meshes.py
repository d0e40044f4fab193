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
    master, slave = segment_pair(4, 6, ElementKind.SEG2, span=(0.0, 2.0))
    assert master.n_elems == 4 and slave.n_elems == 6
    assert master.nodes[0, 0] == 0.0 and master.nodes[-1, 0] == 2.0
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
    edges = np.array(list(mesh.boundary_tags), dtype=np.int64)
    names = np.array(list(mesh.boundary_tags.values()))
    tags = zip(
        map(tuple, _saved_and_loaded(tmp_path, "edges", edges)),
        _saved_and_loaded(tmp_path, "names", names),
    )
    again = VolumeMesh(
        _saved_and_loaded(tmp_path, "nodes", mesh.nodes),
        _saved_and_loaded(tmp_path, "connectivity", mesh.connectivity),
        dict(tags),
    )
    np.testing.assert_array_equal(again.nodes, mesh.nodes)
    np.testing.assert_array_equal(again.connectivity, mesh.connectivity)
    assert again.boundary_tags == mesh.boundary_tags
    interface, volume_nodes = extract_interface(again, Side.SLAVE)
    expected, expected_volume_nodes = extract_interface(mesh, Side.SLAVE)
    np.testing.assert_array_equal(interface.nodes, expected.nodes)
    np.testing.assert_array_equal(volume_nodes, expected_volume_nodes)


def test_tags_naming_nodes_outside_the_mesh_are_rejected():
    mesh = split_unit_square(3, 2)[1]
    with pytest.raises(ValueError, match=r"edge \(0, 999\)"):
        VolumeMesh(mesh.nodes, mesh.connectivity, {(0, 999): "interface"})


def test_interface_mesh_validates_connectivity():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        InterfaceMesh(nodes, np.array([[0, 5]]), ElementKind.SEG2, Side.MASTER)


@settings(deadline=None, max_examples=25)
@given(
    n_master=st.integers(min_value=1, max_value=9),
    n_slave=st.integers(min_value=1, max_value=9),
    left=st.floats(min_value=-5.0, max_value=4.0),
    width=st.floats(min_value=0.1, max_value=10.0),
)
def test_segment_pair_mesh_size_property(n_master, n_slave, left, width):
    master, slave = segment_pair(
        n_master, n_slave, span=(left, left + width)
    )
    assert mesh_size(master) == pytest.approx(width / n_master, rel=1e-12)
    assert mesh_size(slave) == pytest.approx(width / n_slave, rel=1e-12)
