"""Metamorphic checks of the ``eb`` and ``sb`` assemblies.

Some changes of the input act on the mortar matrices in a known way, so
they give oracles on curved, warped and offset geometry that no exact
integral reaches:

* a rigid motion of both meshes leaves the slave mass M, the coupling D,
  the drop counts and every transferred field unchanged, up to rounding
  (1e-12 relative: the Newton iterates and the contact search run on
  rotated coordinates);
* a change of units by a power of two s scales M and D by s^ref_dim and
  leaves every count and transferred field unchanged, bit for bit;
* a reordering of the master elements changes nothing, bit for bit
  (an ``eb`` slave point on an edge shared by two masters would go to the
  lower index, but the drawn nodes are jittered, so no point lands
  exactly on one; ``sb`` sums each slave element's intersections in their
  order along the line);
* a renumbering of the master nodes permutes the columns of D the same
  way and leaves M and every count unchanged; the columns of D may move
  by rounding (1e-12 relative), since the sparse build sums a row's
  duplicate entries after sorting them by column, and so may the ``sb``
  slave mass, whose line is fitted to the master nodes in their order.

``eb`` runs on curved ``seg2``/``seg3`` arcs and warped ``quad4``/``quad8``
surfaces, ``sb`` on straight ``seg2``/``seg3`` lines with jittered nodes.
``rb`` is left out: its default Gaussian fits sit near condition 2e16 and
move D by up to 1e-5 under a rigid motion.  These checks add no tolerance
to any other test and loosen none.
"""

import numpy as np
from hypothesis import given, seed, settings, strategies as st

from mortar_rbf.elements import ElementKind
from mortar_rbf.meshes import InterfaceMesh, Side, sine_bump, square_surface_mesh
from mortar_rbf.mortar import (
    InterfacePair,
    MortarConfig,
    Scheme,
    assemble,
    compute_transfer,
    interface_transfer,
)

RTOL = 1e-12

#: (scheme, interface kind) of every case: ``sb`` needs straight lines.
CASES = [
    (Scheme.EB, ElementKind.SEG2),
    (Scheme.EB, ElementKind.SEG3),
    (Scheme.EB, ElementKind.QUAD4),
    (Scheme.EB, ElementKind.QUAD8),
    (Scheme.SB1D, ElementKind.SEG2),
    (Scheme.SB1D, ElementKind.SEG3),
]


def _chain(points, kind, side):
    """Segment mesh through ``points`` in order: every point a node, every
    second one a mid node for ``seg3``."""
    step = 1 if kind is ElementKind.SEG2 else 2
    n_elems = (len(points) - 1) // step
    connectivity = step * np.arange(n_elems)[:, None] + np.arange(step + 1)
    return InterfaceMesh(points, connectivity, kind, side)


def _curve(kind, n_elems, radius, side, rng):
    """An arc of ``radius`` over 2 radians, nodes jittered along it."""
    per = 1 if kind is ElementKind.SEG2 else 2
    t = np.linspace(0.0, 1.0, per * n_elems + 1)
    t[1:-1] += rng.uniform(-0.2, 0.2, t.size - 2) / (per * n_elems)
    angles = 0.3 + 2.0 * t
    points = radius * np.column_stack([np.cos(angles), np.sin(angles)])
    return _chain(points, kind, side)


def _line(kind, n_elems, offset, side, rng):
    """The straight line y = offset over [-1, 1], nodes jittered along it."""
    per = 1 if kind is ElementKind.SEG2 else 2
    x = np.linspace(-1.0, 1.0, per * n_elems + 1)
    x[1:-1] += rng.uniform(-0.2, 0.2, x.size - 2) * (2.0 / (per * n_elems))
    return _chain(np.column_stack([x, np.full_like(x, offset)]), kind, side)


def _surface(kind, n_elems, warp, side, rng):
    """The square [-1, 1]^2 lifted by ``warp``, interior nodes jittered in
    the plane by up to a tenth of the element size."""
    mesh = square_surface_mesh(n_elems, kind, side)
    x, y = mesh.nodes[:, 0].copy(), mesh.nodes[:, 1].copy()
    inner = (np.abs(x) < 1.0) & (np.abs(y) < 1.0)
    jitter = rng.uniform(-0.1, 0.1, (2, int(inner.sum()))) * (2.0 / n_elems)
    x[inner] += jitter[0]
    y[inner] += jitter[1]
    nodes = np.column_stack([x, y, warp(x, y)])
    return InterfaceMesh(nodes, mesh.connectivity, kind, side)


def build_pair(scheme, kind, n_master, n_slave, draw_seed):
    rng = np.random.default_rng(draw_seed)
    if kind.ref_dim == 2:
        master = _surface(kind, n_master, sine_bump(0.1), Side.MASTER, rng)
        slave = _surface(kind, n_slave, sine_bump(-0.05), Side.SLAVE, rng)
    elif scheme is Scheme.EB:
        master = _curve(kind, n_master, 1.0, Side.MASTER, rng)
        slave = _curve(kind, n_slave, 1.02, Side.SLAVE, rng)
    else:
        master = _line(kind, n_master, 0.0, Side.MASTER, rng)
        slave = _line(kind, n_slave, 0.03, Side.SLAVE, rng)
    return InterfacePair(master, slave)


def _moved(mesh, nodes=None, connectivity=None):
    return InterfaceMesh(
        mesh.nodes if nodes is None else nodes,
        mesh.connectivity if connectivity is None else connectivity,
        mesh.kind,
        mesh.side,
    )


def _run(pair, scheme, master_field):
    """Dense M and D, the assembly stats and the transfer of ``master_field``."""
    matrices = assemble(pair, MortarConfig(scheme=scheme))
    field = interface_transfer(compute_transfer(matrices), master_field)
    return (
        matrices.slave_mass.toarray(),
        matrices.coupling.toarray(),
        matrices.stats,
        field,
    )


def _field(nodes):
    return np.sin(2.0 * nodes[:, 0]) + nodes[:, 1] ** 2


def _rotation(dim, rng):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def _assert_close(got, want, what):
    scale = np.abs(want).max()
    assert np.abs(got - want).max() <= RTOL * scale, what


def _drops(stats):
    return (
        stats.gauss_points_total,
        stats.gauss_points_dropped,
        stats.uncovered_slave_elements,
    )


cases = st.sampled_from(CASES)
sizes = st.integers(2, 6)
draw_seeds = st.integers(0, 2**32 - 1)


@seed(20261020)
@settings(max_examples=24, deadline=None)
@given(case=cases, n_master=sizes, n_slave=sizes, draw_seed=draw_seeds)
def test_rigid_motion_leaves_matrices_unchanged(case, n_master, n_slave, draw_seed):
    scheme, kind = case
    pair = build_pair(scheme, kind, n_master, n_slave, draw_seed)
    rng = np.random.default_rng(draw_seed + 1)
    dim = pair.master.nodes.shape[1]
    rotation, shift = _rotation(dim, rng), rng.uniform(-3.0, 3.0, dim)
    moved = InterfacePair(
        *(
            _moved(mesh, mesh.nodes @ rotation.T + shift)
            for mesh in (pair.master, pair.slave)
        )
    )
    values = _field(pair.master.nodes)
    mass, coupling, stats, field = _run(pair, scheme, values)
    got_mass, got_coupling, got_stats, got_field = _run(moved, scheme, values)
    _assert_close(got_mass, mass, "slave mass")
    _assert_close(got_coupling, coupling, "coupling")
    _assert_close(got_field, field, "transferred field")
    assert _drops(got_stats) == _drops(stats)


@seed(20261021)
@settings(max_examples=24, deadline=None)
@given(
    case=cases,
    n_master=sizes,
    n_slave=sizes,
    draw_seed=draw_seeds,
    exponent=st.integers(-6, 6).filter(bool),
)
def test_power_of_two_scale_is_exact(case, n_master, n_slave, draw_seed, exponent):
    scheme, kind = case
    pair = build_pair(scheme, kind, n_master, n_slave, draw_seed)
    s = 2.0**exponent
    scaled = InterfacePair(
        *(_moved(mesh, s * mesh.nodes) for mesh in (pair.master, pair.slave))
    )
    values = _field(pair.master.nodes)
    mass, coupling, stats, field = _run(pair, scheme, values)
    got_mass, got_coupling, got_stats, got_field = _run(scaled, scheme, values)
    measure = s**kind.ref_dim
    np.testing.assert_array_equal(got_mass, measure * mass)
    np.testing.assert_array_equal(got_coupling, measure * coupling)
    np.testing.assert_array_equal(got_field, field)
    assert got_stats == stats


def _reordered(pair, draw_seed):
    order = np.random.default_rng(draw_seed + 2).permutation(pair.master.n_elems)
    master = _moved(pair.master, connectivity=pair.master.connectivity[order])
    return InterfacePair(master, pair.slave)


@seed(20261022)
@settings(max_examples=36, deadline=None)
@given(case=cases, n_master=sizes, n_slave=sizes, draw_seed=draw_seeds)
def test_master_element_reordering_is_exact(case, n_master, n_slave, draw_seed):
    scheme, kind = case
    pair = build_pair(scheme, kind, n_master, n_slave, draw_seed)
    values = _field(pair.master.nodes)
    mass, coupling, stats, field = _run(pair, scheme, values)
    got = _run(_reordered(pair, draw_seed), scheme, values)
    np.testing.assert_array_equal(got[0], mass)
    np.testing.assert_array_equal(got[1], coupling)
    np.testing.assert_array_equal(got[3], field)
    assert got[2] == stats


@seed(20261023)
@settings(max_examples=24, deadline=None)
@given(case=cases, n_master=sizes, n_slave=sizes, draw_seed=draw_seeds)
def test_master_node_renumbering_permutes_coupling_columns(
    case, n_master, n_slave, draw_seed
):
    scheme, kind = case
    pair = build_pair(scheme, kind, n_master, n_slave, draw_seed)
    master = pair.master
    # new node k is old node perm[k]
    perm = np.random.default_rng(draw_seed + 3).permutation(master.n_nodes)
    new_index = np.argsort(perm)
    renumbered = InterfacePair(
        _moved(master, master.nodes[perm], new_index[master.connectivity]), pair.slave
    )
    values = _field(master.nodes)
    mass, coupling, stats, field = _run(pair, scheme, values)
    got = _run(renumbered, scheme, values[perm])
    got_mass, got_coupling, got_stats, got_field = got
    if scheme is Scheme.EB:
        np.testing.assert_array_equal(got_mass, mass)
    else:  # sb fits its line to the master nodes in their new order
        _assert_close(got_mass, mass, "slave mass")
    _assert_close(got_coupling, coupling[:, perm], "coupling columns")
    _assert_close(got_field, field, "transferred field")
    assert got_stats == stats
