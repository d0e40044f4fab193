"""The local-frame master boxes of the ``eb`` assembly.

``eb`` pairs a slave Gauss point with a master element only when both the
axis-aligned box of ``mortar._master_boxes`` and the master's local box
(``mortar._local_box_holds``) hold it.  The local box must hold every pair
that assembly without it accepts, so switching it off (every point held)
leaves M, D and every stat but the point pair and Newton update counts
unchanged bit for bit, and those two counts can only grow.  Its tilt bound
must bound the true angle of the element normal, and it turns with the
pair, so a rigid rotation barely moves the point pair count.  ``rb``
accepts points by interpolated ramps, not by geometry, and keeps the
axis-aligned boxes alone.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mortar_rbf import mortar
from mortar_rbf.elements import ElementKind, shape_gradients, tensor_points
from mortar_rbf.errors import IllConditionedKernelError
from mortar_rbf.meshes import (
    InterfaceMesh,
    Side,
    element_frames,
    sine_bump,
    square_surface_mesh,
    surface_pair,
)
from mortar_rbf.mortar import InterfacePair, MortarConfig, Scheme, assemble
from mortar_rbf.rbf import KernelFamily

CONFIGS = {
    "eb": MortarConfig(scheme=Scheme.EB),
    "rb-gaussian": MortarConfig(kernel_family=KernelFamily.GAUSSIAN),
    "rb-imq": MortarConfig(kernel_family=KernelFamily.INV_MULTIQUADRIC),
    "rb-wendland": MortarConfig(kernel_family=KernelFamily.WENDLAND_C2),
}


KINDS = [ElementKind.SEG2, ElementKind.SEG3, ElementKind.QUAD4, ElementKind.QUAD8]


def _every_point(pair, masters, points):
    return np.ones(masters.size, dtype=bool)


def _arc(kind, n_elems, bend, offset, jitter, side, rng):
    """Segments along the arc of curvature ``bend`` over x in [-1, 1] (a
    line when ``bend`` is 0), moved ``offset`` along its normal, nodes
    jittered along it by up to ``jitter`` of the node spacing."""
    per = kind.degree
    t = np.linspace(-1.0, 1.0, per * n_elems + 1)
    t[1:-1] += rng.uniform(-jitter, jitter, t.size - 2) * (2.0 / (per * n_elems))
    if bend == 0.0:
        points = np.column_stack([t, np.full_like(t, offset)])
    else:
        radius = 1.0 / bend
        points = np.column_stack(
            [(radius - offset) * np.sin(t * bend), radius - (radius - offset) * np.cos(t * bend)]
        )
    connectivity = per * np.arange(n_elems)[:, None] + np.arange(per + 1)
    return InterfaceMesh(points, connectivity, kind, side)


def _sheet(kind, n_elems, warp, jitter, side, rng):
    """The square [-1, 1]^2 lifted by ``sine_bump(warp)``, interior nodes
    jittered in the plane by up to ``jitter`` of the element size."""
    mesh = square_surface_mesh(n_elems, kind, side)
    x, y = mesh.nodes[:, 0].copy(), mesh.nodes[:, 1].copy()
    inner = (np.abs(x) < 1.0) & (np.abs(y) < 1.0)
    shift = rng.uniform(-jitter, jitter, (2, int(inner.sum()))) * (2.0 / n_elems)
    x[inner] += shift[0]
    y[inner] += shift[1]
    nodes = np.column_stack([x, y, sine_bump(warp)(x, y)])
    return InterfaceMesh(nodes, mesh.connectivity, kind, side)


def _rotation(dim, rng):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def _moved(pair, rotation, shift=0.0):
    return InterfacePair(
        *(
            InterfaceMesh(mesh.nodes @ rotation.T + shift, mesh.connectivity, mesh.kind, mesh.side)
            for mesh in (pair.master, pair.slave)
        ),
        gap_tolerance=pair.gap_tolerance,
    )


@st.composite
def pairs(draw):
    """Jittered, warped or curved, separated and rotated pairs of every
    interface kind.  A separation past the default gap comes with an
    explicit gap that covers it, so the far side of a tilted master
    element still meets the slave points."""
    kind = draw(st.sampled_from(KINDS))
    n_master, n_slave = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    jitter = draw(st.floats(0.0, 0.15))
    if kind.ref_dim == 1:
        shape = draw(st.one_of(st.just(0.0), st.floats(0.1, 1.5)))
    else:
        shape = draw(st.floats(0.0, 0.15))
    separation = draw(st.floats(-0.3, 0.3))
    gap = draw(st.sampled_from([None, abs(separation) + 0.1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind.ref_dim == 1:
        master = _arc(kind, n_master, shape, 0.0, jitter, Side.MASTER, rng)
        slave = _arc(kind, n_slave, shape, separation, jitter, Side.SLAVE, rng)
    else:
        master = _sheet(kind, n_master, shape, jitter, Side.MASTER, rng)
        slave = _sheet(kind, n_slave, shape, jitter, Side.SLAVE, rng)
        slave = InterfaceMesh(
            slave.nodes + [0.0, 0.0, separation], slave.connectivity, kind, Side.SLAVE
        )
    pair = InterfacePair(master, slave, gap_tolerance=gap)
    if draw(st.booleans()):
        dim = master.nodes.shape[1]
        pair = _moved(pair, _rotation(dim, rng), rng.uniform(-3.0, 3.0, dim))
    return pair


def _assemble_recording(pair, config):
    """Assembly with the local test switched off, and the (master, point)
    pairs that it accepts."""
    accepted = []
    evaluators = {}
    for name in ("_kernel_values", "_projection_values"):
        real = getattr(mortar, name)

        def record(pair, config, masters, points, real=real):
            values, ok, box, updates = real(pair, config, masters, points)
            take = ok & (mortar._containment_depth(box) >= -mortar._SUPPORT_TOL)
            accepted.append((masters[take], points[take]))
            return values, ok, box, updates

        evaluators[name] = record
    with pytest.MonkeyPatch.context() as patch:
        for name, record in evaluators.items():
            patch.setattr(mortar, name, record)
        patch.setattr(mortar, "_local_box_holds", _every_point)
        result = assemble(pair, config)
    (masters, points), = accepted
    return result, masters, points


def _assert_same_csr(got, want):
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(got.data, want.data)


@settings(max_examples=200, deadline=None)
@given(pair=pairs(), config_name=st.sampled_from(list(CONFIGS)))
def test_local_boxes_hold_every_accepted_pair_and_change_no_matrix(pair, config_name):
    config = CONFIGS[config_name]
    try:
        every, masters, points = _assemble_recording(pair, config)
    except IllConditionedKernelError as exc:
        # the local test does not touch the fits, so neither does a refusal
        with pytest.raises(IllConditionedKernelError) as info:
            assemble(pair, config)
        assert str(info.value) == str(exc)
        return
    boxed = assemble(pair, config)
    _assert_same_csr(boxed.slave_mass, every.slave_mass)
    _assert_same_csr(boxed.coupling, every.coupling)
    if config.scheme is Scheme.RB:
        assert boxed.stats == every.stats
        return
    outside = ~mortar._local_box_holds(pair, masters, points)
    assert not outside.any(), f"accepted pairs outside the local box: {masters[outside]}"
    assert boxed.stats.point_pairs <= every.stats.point_pairs
    assert boxed.stats.newton_updates <= every.stats.newton_updates
    counts = {"point_pairs": 0, "newton_updates": 0}
    assert dataclasses.replace(boxed.stats, **counts) == dataclasses.replace(
        every.stats, **counts
    )


@pytest.mark.parametrize("kind", [ElementKind.QUAD4, ElementKind.QUAD8])
def test_rigid_rotation_barely_moves_the_point_pair_count(kind, monkeypatch):
    # the axis-aligned boxes alone hold 2,116 point pairs on the quad4 pair
    # and 3,064 once it is rotated, 4,624 and 6,884 on the quad8 pair
    warp = sine_bump(0.1)
    pair = InterfacePair(*surface_pair(12, 8, kind, warp_master=warp, warp_slave=warp))
    rotated = _moved(pair, _rotation(3, np.random.default_rng(3)))
    config = MortarConfig(scheme=Scheme.EB)

    def counts():
        return [assemble(p, config).stats.point_pairs for p in (pair, rotated)]

    flat, turned = counts()
    assert abs(turned - flat) <= 0.05 * flat
    monkeypatch.setattr(mortar, "_local_box_holds", _every_point)
    flat_aabb, turned_aabb = counts()
    assert flat <= flat_aabb / 4 and turned_aabb > 1.2 * flat_aabb


def _true_tangents(kind, nodes, axes, per_axis=41):
    """tan of the angle between the element normal and the frame normal,
    largest over a ``per_axis`` lattice of the grown reference box."""
    s = 1.0 + 2.0 * mortar._SUPPORT_TOL
    xi = tensor_points(np.linspace(-s, s, per_axis), kind.ref_dim)
    jac = np.einsum("gnr,end->egdr", shape_gradients(kind, xi), nodes)
    if kind.ref_dim == 1:
        normal = np.stack([-jac[..., 1, 0], jac[..., 0, 0]], axis=-1)
    else:
        normal = np.cross(jac[..., 0], jac[..., 1])
    local = normal @ axes.transpose(0, 2, 1)
    along, across = local[..., -1], np.linalg.norm(local[..., :-1], axis=-1)
    ratio = np.divide(across, along, out=np.full_like(along, np.inf), where=along > 0.0)
    return ratio.max(axis=1)


@settings(max_examples=20, deadline=None)
@given(pair=pairs())
def test_tilt_bound_holds_and_is_exact_for_affine_normals(pair):
    mesh = pair.master
    nodes = mesh.nodes[mesh.connectivity]
    _, axes = element_frames(mesh)
    # compared as angles: tan theta loses its accuracy near a right angle
    bound = np.arctan(mortar._tilt_tangents(mesh.kind, nodes, axes))
    sampled = np.arctan(_true_tangents(mesh.kind, nodes, axes))
    assert (bound >= sampled - 1e-12).all()
    if mesh.kind is ElementKind.SEG2:
        assert (bound <= 1e-12).all()
    elif mesh.kind is not ElementKind.QUAD8:
        # an affine normal takes its largest angle at an end or a corner
        np.testing.assert_allclose(bound, sampled, rtol=0.0, atol=1e-12)


def test_tilt_bound_is_infinite_once_the_normal_turns_past_a_right_angle():
    # the tangent at xi = 1 of this seg3 points back against its chord
    nodes = np.array([[[-1.0, 0.0], [0.8, 0.5], [1.0, 0.0]]])
    _, axes = element_frames(
        InterfaceMesh(nodes[0, [0, 2]], [[0, 1]], ElementKind.SEG2)
    )
    assert mortar._tilt_tangents(ElementKind.SEG3, nodes, axes)[0] == np.inf


def test_a_master_without_a_tilt_bound_holds_every_point(monkeypatch):
    warp = sine_bump(0.1)
    pair = InterfacePair(*surface_pair(4, 3, warp_master=warp, warp_slave=warp))
    points = np.random.default_rng(5).uniform(-1.0, 1.0, (50, 3))
    masters = np.zeros(50, dtype=np.int64)
    assert not mortar._local_box_holds(pair, masters, points).all()
    monkeypatch.setattr(
        mortar, "_tilt_tangents", lambda kind, nodes, axes: np.full(len(nodes), np.inf)
    )
    assert mortar._local_box_holds(pair, masters, points).all()


def test_rb_ramps_accept_points_outside_the_local_boxes(monkeypatch):
    # flat and coincident, but the jittered quad8 masters have curved
    # edges: Gaussian ramps accept points outside the local boxes, and a
    # local test would hand some points to other masters, moving D by as
    # much as its largest entry; so rb never asks for one
    rng = np.random.default_rng(2)
    pair = InterfacePair(
        _sheet(ElementKind.QUAD8, 6, 0.0, 0.15, Side.MASTER, rng),
        _sheet(ElementKind.QUAD8, 2, 0.0, 0.0, Side.SLAVE, rng),
    )
    _, masters, points = _assemble_recording(pair, MortarConfig())
    assert not mortar._local_box_holds(pair, masters, points).all()

    def refuse(pair, masters, points):
        raise AssertionError("rb asked for the local boxes")

    monkeypatch.setattr(mortar, "_local_box_holds", refuse)
    assemble(pair, MortarConfig())
