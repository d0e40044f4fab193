import re
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mortar_rbf import mortar
from mortar_rbf.elements import ElementKind, gauss_rule
from mortar_rbf.errors import (
    DegenerateElementError,
    InvalidGeometryError,
    SingularOperatorError,
)
from mortar_rbf.meshes import (
    InterfaceMesh,
    Side,
    element_circumdiameters,
    rectangle_mesh,
    segment_mesh,
    segment_pair,
    sine_bump,
    split_unit_square,
    square_surface_mesh,
    surface_pair,
    translate,
)
from mortar_rbf.mortar import (
    InterfacePair,
    MortarConfig,
    Scheme,
    _containment_depth,
    _line_reference,
    _project_points,
    assemble,
    compute_transfer,
    contact_search,
    interface_transfer,
)
from mortar_rbf.rbf import KernelFamily, PointLayout, fit_master_interpolant

ALL_SCHEMES = list(Scheme)

EXACT_UNIT_MASS = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0


def unit_pair(n_master, n_slave, kind=ElementKind.SEG2):
    return InterfacePair(*segment_pair(n_master, n_slave, kind, span=(0.0, 1.0)))


@pytest.mark.parametrize("scheme", [Scheme.SB1D, Scheme.EB])
def test_single_element_matrices_match_closed_form(scheme):
    matrices = assemble(unit_pair(1, 1), MortarConfig(scheme=scheme))
    np.testing.assert_allclose(
        matrices.slave_mass.toarray(), EXACT_UNIT_MASS, atol=1e-15
    )
    np.testing.assert_allclose(
        matrices.coupling.toarray(), EXACT_UNIT_MASS, atol=1e-15
    )
    assert matrices.stats.dropped_fraction == 0.0


def test_single_element_kernel_scheme_is_close_to_closed_form():
    matrices = assemble(unit_pair(1, 1), MortarConfig(scheme=Scheme.RB))
    np.testing.assert_allclose(
        matrices.slave_mass.toarray(), EXACT_UNIT_MASS, atol=1e-15
    )
    np.testing.assert_allclose(
        matrices.coupling.toarray(), EXACT_UNIT_MASS, atol=1e-6
    )


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_conforming_transfer_is_identity(scheme):
    pair = unit_pair(4, 4)
    transfer = compute_transfer(assemble(pair, MortarConfig(scheme=scheme)))
    identity = np.eye(transfer.n_slave_nodes)
    tol = 1e-6 if scheme is Scheme.RB else 1e-13
    np.testing.assert_allclose(transfer.matrix, identity, atol=tol)


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
@pytest.mark.parametrize("kind", [ElementKind.SEG2, ElementKind.SEG3])
def test_row_sums_and_mass_bookkeeping(scheme, kind):
    pair = unit_pair(3, 4, kind)
    matrices = assemble(pair, MortarConfig(scheme=scheme, n_gauss=4))
    transfer = compute_transfer(matrices)
    np.testing.assert_allclose(transfer.row_sums(), 1.0, atol=1e-12)

    mass = matrices.slave_mass.toarray()
    np.testing.assert_allclose(mass, mass.T, atol=1e-15)
    # Both matrices integrate partitions of unity over the same points, so
    # their totals equal each other and the interface length.
    assert mass.sum() == pytest.approx(1.0, rel=1e-12)
    assert matrices.coupling.sum() == pytest.approx(1.0, rel=1e-10)


def test_constant_transfer_is_exact():
    pair = unit_pair(5, 3)
    for scheme in ALL_SCHEMES:
        transfer = compute_transfer(assemble(pair, MortarConfig(scheme=scheme)))
        ones = interface_transfer(transfer, np.ones(transfer.n_master_nodes))
        np.testing.assert_allclose(ones, 1.0, atol=1e-12)


def test_large_transfer_forms_the_dense_array_only_when_read():
    # 901 x 1201 entries: more than a million, as on fine 1D pairs
    transfer = compute_transfer(
        assemble(unit_pair(1200, 900), MortarConfig(scheme=Scheme.RB))
    )
    rng = np.random.default_rng(0)
    batch = rng.standard_normal((transfer.n_master_nodes, 5))
    # single fields and row sums go through the slave-mass factor
    columns = [interface_transfer(transfer, column) for column in batch.T]
    np.testing.assert_allclose(transfer.row_sums(), 1.0, atol=1e-12)
    assert "matrix" not in vars(transfer)

    # so does a batch on an operator this large, column for column
    first = interface_transfer(transfer, batch)
    assert "matrix" not in vars(transfer)
    assert np.array_equal(first, np.column_stack(columns))

    # reading the dense matrix builds it once and keeps it, and a batch
    # still takes the same path afterwards
    assert transfer.matrix.shape == (901, 1201)
    assert type(vars(transfer)["matrix"]) is np.ndarray
    assert transfer.matrix is vars(transfer)["matrix"]
    assert np.array_equal(interface_transfer(transfer, batch), first)


def test_small_transfer_batches_multiply_by_the_dense_matrix():
    # 81 x 169 entries, below the size at which batches take the factor
    warp = sine_bump(0.1)
    pair = InterfacePair(*surface_pair(12, 8, warp_master=warp, warp_slave=warp))
    transfer = compute_transfer(assemble(pair, MortarConfig(scheme=Scheme.RB)))
    batch = np.random.default_rng(3).standard_normal((transfer.n_master_nodes, 64))
    out = interface_transfer(transfer, batch)
    assert "matrix" in vars(transfer)
    assert np.array_equal(out, transfer.matrix @ batch)


@pytest.fixture(scope="module")
def jittered_long_pair():
    """Straight 1500/1000 seg2 pair, interior slave nodes jittered by 0.3 h."""
    n_master, n_slave = 1500, 1000
    rng = np.random.default_rng(1)
    xs = np.linspace(-1.0, 1.0, n_slave + 1)
    xs[1:-1] += rng.uniform(-0.3, 0.3, n_slave - 1) * (2.0 / n_slave)
    slave = InterfaceMesh(
        np.column_stack([xs, np.zeros_like(xs)]),
        np.column_stack([np.arange(n_slave), np.arange(1, n_slave + 1)]),
        "seg2",
        Side.SLAVE,
    )
    return InterfacePair(segment_mesh(n_master), slave)


def test_dense_transfer_stores_subnormal_entries_as_zeros(jittered_long_pair):
    transfer = compute_transfer(
        assemble(jittered_long_pair, MortarConfig(scheme=Scheme.RB))
    )
    tiny = np.finfo(float).tiny
    unflushed = transfer.factor.solve(transfer.coupling.toarray())
    # the inverse slave mass decays exponentially away from the diagonal
    assert np.count_nonzero((unflushed != 0.0) & (np.abs(unflushed) < tiny)) > 10_000

    magnitude = np.abs(transfer.matrix)
    assert not np.any((magnitude > 0.0) & (magnitude < tiny))
    normal = np.abs(unflushed) >= tiny
    assert np.array_equal(transfer.matrix[normal], unflushed[normal])
    assert not np.any(transfer.matrix[~normal])

    batch = np.random.default_rng(7).standard_normal((transfer.n_master_nodes, 64))
    assert np.array_equal(transfer.matrix @ batch, unflushed @ batch)


def test_dense_transfer_without_subnormals_is_the_plain_solve():
    warp = sine_bump(0.1)
    pair = InterfacePair(*surface_pair(12, 8, warp_master=warp, warp_slave=warp))
    transfer = compute_transfer(assemble(pair, MortarConfig(scheme=Scheme.RB)))
    unflushed = transfer.factor.solve(transfer.coupling.toarray())
    assert np.array_equal(transfer.matrix, unflushed)


def test_dense_transfer_is_flushed_block_by_block(jittered_long_pair):
    transfer = compute_transfer(
        assemble(jittered_long_pair, MortarConfig(scheme=Scheme.RB))
    )
    tracemalloc.start()
    try:
        matrix = transfer.matrix
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a pass over the whole matrix would hold a second full-size array
    assert peak < matrix.nbytes + 4 * 2**20


def test_long_transfer_batch_never_holds_the_dense_matrix(jittered_long_pair):
    transfer = compute_transfer(
        assemble(jittered_long_pair, MortarConfig(scheme=Scheme.RB))
    )
    batch = np.random.default_rng(7).standard_normal((transfer.n_master_nodes, 64))
    tracemalloc.start()
    try:
        out = interface_transfer(transfer, batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the coupling product and the solve each hold one batch-sized array
    # (about 1 MiB together); the dense matrix alone is 11.5 MiB
    assert peak < 4 * out.nbytes
    assert 4 * out.nbytes < transfer.n_slave_nodes * transfer.n_master_nodes * 8 / 5


def test_projection_scheme_ignores_normal_offset():
    reference = assemble(unit_pair(3, 4), MortarConfig(scheme=Scheme.EB))
    master = segment_mesh(3, span=(0.0, 1.0))
    slave = segment_mesh(4, span=(0.0, 1.0), side=Side.SLAVE)
    lifted = translate(slave, [0.0, 0.05])
    offset = assemble(InterfacePair(master, lifted), MortarConfig(scheme=Scheme.EB))
    np.testing.assert_allclose(
        offset.coupling.toarray(), reference.coupling.toarray(), atol=1e-9
    )
    np.testing.assert_allclose(
        offset.slave_mass.toarray(), reference.slave_mass.toarray(), atol=1e-12
    )


def test_projection_scheme_converges_to_exact_intersections():
    pair = unit_pair(2, 3)
    exact = assemble(pair, MortarConfig(scheme=Scheme.SB1D)).coupling.toarray()
    errors = []
    for n_gauss in (2, 8, 32):
        approx = assemble(
            pair, MortarConfig(scheme=Scheme.EB, n_gauss=n_gauss)
        ).coupling.toarray()
        errors.append(np.abs(approx - exact).max())
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 1e-4


@pytest.mark.parametrize("scheme", [Scheme.RB, Scheme.EB])
def test_master_element_order_does_not_matter(scheme):
    pair = unit_pair(3, 4)
    shuffled_master = InterfaceMesh(
        pair.master.nodes.copy(),
        pair.master.connectivity[::-1].copy(),
        pair.master.kind,
        pair.master.side,
    )
    base = assemble(pair, MortarConfig(scheme=scheme))
    shuffled = assemble(
        InterfacePair(shuffled_master, pair.slave), MortarConfig(scheme=scheme)
    )
    np.testing.assert_allclose(
        shuffled.coupling.toarray(), base.coupling.toarray(), atol=1e-13
    )
    np.testing.assert_allclose(
        shuffled.slave_mass.toarray(), base.slave_mass.toarray(), atol=1e-13
    )


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_uncovered_slave_elements_are_reported(scheme):
    master = segment_mesh(2, span=(0.0, 0.5))
    slave = segment_mesh(4, span=(0.0, 1.0), side=Side.SLAVE)
    matrices = assemble(InterfacePair(master, slave), MortarConfig(scheme=scheme))
    assert matrices.stats.uncovered_slave_elements == (2, 3)

    with pytest.raises(SingularOperatorError) as info:
        compute_transfer(matrices)
    assert tuple(info.value.nodes) == (3, 4)


def test_dropped_fraction_counts_points_outside_the_master():
    master = segment_mesh(2, span=(0.0, 0.5))
    slave = segment_mesh(4, span=(0.0, 1.0), side=Side.SLAVE)
    matrices = assemble(
        InterfacePair(master, slave), MortarConfig(scheme=Scheme.EB, n_gauss=2)
    )
    assert matrices.stats.gauss_points_total == 8
    assert matrices.stats.dropped_fraction == pytest.approx(0.5)


@pytest.mark.parametrize("scheme", [Scheme.RB, Scheme.EB])
def test_an_explicit_gap_below_the_separation_drops_and_counts_points(scheme):
    # the two warped surfaces interpolate the same bump on different grids,
    # so at gap 0 some slave points lie outside every master box
    warp = sine_bump(0.1)
    meshes = surface_pair(6, 4, warp_master=warp, warp_slave=warp)
    config = MortarConfig(scheme=scheme)
    tight = assemble(InterfacePair(*meshes, gap_tolerance=0.0), config).stats
    assert (tight.gauss_points_dropped, tight.gauss_points_total) == (16, 64)
    assert tight.uncovered_slave_elements == ()
    assert assemble(InterfacePair(*meshes), config).stats.gauss_points_dropped == 0


def test_stats_count_point_pairs_in_master_boxes_and_newton_updates():
    # rb evaluates the 2,116 point pairs that the axis-aligned master boxes
    # hold; eb projects each of the 256 Gauss points onto the one master
    # whose local box holds it too, with 752 Newton updates (4,760 over
    # the 2,116 pairs)
    warp = sine_bump(0.1)
    pair = InterfacePair(*surface_pair(12, 8, warp_master=warp, warp_slave=warp))
    rb = assemble(pair, MortarConfig(scheme=Scheme.RB)).stats
    eb = assemble(pair, MortarConfig(scheme=Scheme.EB)).stats
    assert (rb.pairs_visited, rb.point_pairs, rb.newton_updates) == (1296, 2116, 0)
    assert (eb.pairs_visited, eb.point_pairs) == (1296, 256)
    assert 0 < eb.newton_updates <= 760
    sb = assemble(unit_pair(3, 2), MortarConfig(scheme=Scheme.SB1D)).stats
    assert (sb.point_pairs, sb.newton_updates) == (0, 0)


def test_default_gap_tolerance_is_computed_once_per_pair(monkeypatch):
    measured = []

    def counted(mesh):
        measured.append(mesh)
        return element_circumdiameters(mesh)

    monkeypatch.setattr(mortar, "element_circumdiameters", counted)
    pair = unit_pair(6, 4)
    first = assemble(pair, MortarConfig()).stats
    assert assemble(pair, MortarConfig()).stats == first
    assert len(measured) == 2
    assert measured[0] is pair.master and measured[1] is pair.slave


def test_contact_search_finds_every_true_overlap():
    pair = unit_pair(3, 5)
    candidates = contact_search(pair)
    slave_x = pair.slave.nodes[:, 0]
    master_x = pair.master.nodes[:, 0]
    for s_elem, cands in enumerate(candidates):
        s_lo, s_hi = sorted(slave_x[pair.slave.connectivity[s_elem]])
        for m_elem in range(pair.master.n_elems):
            m_lo, m_hi = sorted(master_x[pair.master.connectivity[m_elem]])
            if min(s_hi, m_hi) - max(s_lo, m_lo) > 1e-12:
                assert m_elem in cands


def _accepted(rows, tol):
    return (_containment_depth(np.asarray(rows, float)) >= -tol).tolist()


def test_acceptance_is_the_closed_tolerance_interval():
    """A row of box coordinates is accepted exactly when every entry lies
    in [-tol, 1 + tol]: the bounds themselves pass, the next double past
    either bound and NaN do not."""
    assert _accepted([[0.0, 0.5, 1.0]], tol=0.0) == [True]
    rows = [[-0.01, 0.5], [0.2, 0.8], [1.2, 0.5]]
    assert _accepted(rows, tol=1e-6) == [False, True, False]
    assert _accepted(rows, tol=0.05) == [True, True, False]
    low, high = -1e-6, 1.0 + 1e-6
    bounds = [low, high, np.nextafter(low, -1.0), np.nextafter(high, 2.0)]
    assert _accepted([[b, 0.5] for b in bounds], tol=1e-6) == [True, True, False, False]
    assert _accepted([[np.nan, 0.5]], tol=1e-6) == [False]


def test_point_projection_on_affine_segment():
    mesh = segment_mesh(3, span=(0.0, 1.0))
    targets = np.array([[1.0 / 6.0, 0.0], [1.0 / 3.0, 0.2]])
    xi, converged, _ = _project_points(
        mesh.kind,
        mesh.nodes[mesh.connectivity[[0, 0]]],
        targets,
        np.full(2, element_circumdiameters(mesh)[0] ** 2),
    )
    assert converged.all()
    assert xi[0, 0] == pytest.approx(0.0, abs=1e-10)
    assert xi[1, 0] == pytest.approx(1.0, abs=1e-8)


def test_exact_scheme_requires_straight_meshes():
    master = segment_mesh(2, span=(0.0, 1.0))
    kinked = InterfaceMesh(
        np.array([[0.0, 0.0], [0.5, 0.08], [1.0, 0.0]]),
        np.array([[0, 1], [1, 2]]),
        ElementKind.SEG2,
        Side.SLAVE,
    )
    with pytest.raises(InvalidGeometryError):
        assemble(InterfacePair(master, kinked), MortarConfig(scheme=Scheme.SB1D))


def test_exact_scheme_inverts_off_centre_seg3_maps_to_rounding():
    # 4000 seg3 elements on [-1, 1], every second one reversed, mid nodes
    # up to 0.49 half-lengths off centre; the targets are each element's
    # Gauss points, and the map back is evaluated in extended precision
    kind, n = ElementKind.SEG3, 4000
    rng = np.random.default_rng(4)
    ends = np.linspace(-1.0, 1.0, n + 1)
    centres, halves = 0.5 * (ends[:-1] + ends[1:]), 0.5 * np.diff(ends)
    params = np.column_stack(
        [ends[:-1], centres + halves * rng.uniform(-0.49, 0.49, n), ends[1:]]
    )
    params[1::2] = params[1::2, ::-1]
    gauss = gauss_rule(ElementKind.SEG2, 5).points[:, 0]
    targets = (centres[:, None] + halves[:, None] * gauss).ravel()
    elems = np.repeat(np.arange(n), gauss.size)
    xi = _line_reference(kind, params, elems, targets)[:, 0]
    assert np.all(np.abs(xi) <= 1.0)
    p, x = params[elems].astype(np.longdouble), xi.astype(np.longdouble)
    basis = np.stack([x * (x - 1.0) / 2.0, 1.0 - x * x, x * (x + 1.0) / 2.0], axis=1)
    t = (basis * p).sum(axis=1)
    ulp = np.spacing(np.max(np.abs(targets)))
    assert np.max(np.abs(t - targets)) <= 4.0 * ulp


FOLDED_SEG3 = {
    # the mid node of element 1 lies past its right end node
    "mid_past_end": (
        np.column_stack([[0.0, 0.1, 0.2, 0.4, 0.3, 0.5, 0.6], np.zeros(7)]),
        np.array([[0, 1, 2], [2, 3, 4], [4, 5, 6]]),
        1,
    ),
    # end nodes at 0 and 0.55, mid node at 1
    "single": (
        np.array([[0.0, 0.0], [1.0, 0.0], [0.55, 0.0]]),
        np.array([[0, 1, 2]]),
        0,
    ),
}


@pytest.mark.parametrize("side", [Side.MASTER, Side.SLAVE])
@pytest.mark.parametrize("name", list(FOLDED_SEG3))
def test_every_scheme_refuses_a_folded_element(name, side):
    # A folded element's map runs back on itself.  Mesh validation names
    # it, so no scheme assembles it and all of them report the same error.
    nodes, connectivity, elem = FOLDED_SEG3[name]
    other_side = Side.SLAVE if side is Side.MASTER else Side.MASTER
    other = segment_mesh(4, span=(0.0, 0.6), side=other_side)
    expected = f"{side.value} element {elem} is folded"
    messages = set()
    for scheme in Scheme:
        with pytest.raises(InvalidGeometryError, match=expected) as info:
            folded = InterfaceMesh(nodes, connectivity, ElementKind.SEG3, side)
            meshes = (folded, other) if side is Side.MASTER else (other, folded)
            assemble(InterfacePair(*meshes), MortarConfig(scheme=scheme))
        messages.add(str(info.value))
    assert len(messages) == 1


@pytest.mark.parametrize("side", [Side.MASTER, Side.SLAVE])
@pytest.mark.parametrize("scheme", [Scheme.RB, Scheme.EB])
def test_a_zero_length_element_is_refused_by_name(scheme, side):
    # Element 2 collapses onto one node.  Left to assembly, a zero-length
    # master wins points at depth 0.5 under eb and breaks the rb kernel
    # fit with a misleading condition number; mesh validation names it.
    xs = np.array([0.0, 0.25, 0.5, 0.5, 0.75, 1.0])
    meshes = dict(zip(Side, segment_pair(4, 3, span=(0.0, 1.0))))
    expected = f"{side.value} element 2 has a degenerate surface metric"
    with pytest.raises(DegenerateElementError, match=expected):
        meshes[side] = InterfaceMesh(
            np.column_stack([xs, np.zeros_like(xs)]),
            np.column_stack([np.arange(5), np.arange(1, 6)]),
            ElementKind.SEG2,
            side,
        )
        assemble(
            InterfacePair(meshes[Side.MASTER], meshes[Side.SLAVE]),
            MortarConfig(scheme=scheme),
        )


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
@pytest.mark.parametrize("side", ["master", "slave"])
def test_an_empty_interface_side_is_refused_by_name(side, scheme):
    meshes = dict(zip(("master", "slave"), segment_pair(3, 2)))
    meshes[side] = InterfaceMesh(np.zeros((0, 2)), np.zeros((0, 2), int), ElementKind.SEG2)
    expected = f"the {side} interface has no elements"
    with pytest.raises(InvalidGeometryError, match=expected):
        assemble(InterfacePair(**meshes), MortarConfig(scheme=scheme))


def test_curved_seg3_elements_are_not_folded():
    # a quarter of a circle per element bends each tangent 45 degrees away
    # from its chord at the end nodes
    angles = np.linspace(0.0, np.pi, 5)
    nodes = np.column_stack([np.cos(angles), np.sin(angles)])
    mesh = InterfaceMesh(nodes, np.array([[0, 1, 2], [2, 3, 4]]), ElementKind.SEG3)
    assert mesh.n_elems == 2


def test_exact_scheme_on_disjoint_meshes_is_empty_and_uncovered():
    master = segment_mesh(4, span=(0.0, 1.0))
    slave = segment_mesh(3, span=(2.0, 3.0), side=Side.SLAVE)
    matrices = assemble(InterfacePair(master, slave), MortarConfig(scheme=Scheme.SB1D))
    assert matrices.slave_mass.shape == (4, 4)
    assert matrices.coupling.shape == (4, 5)
    assert matrices.slave_mass.nnz == matrices.coupling.nnz == 0
    assert matrices.stats.pairs_visited == 0
    assert matrices.stats.uncovered_slave_elements == (0, 1, 2)


def test_transfer_keeps_the_slave_mass_factor():
    matrices = assemble(unit_pair(5, 3), MortarConfig(scheme=Scheme.SB1D))
    transfer = compute_transfer(matrices)
    mass = matrices.slave_mass.toarray()
    probe = np.arange(1.0, transfer.n_slave_nodes + 1.0)
    np.testing.assert_allclose(transfer.factor.solve(mass @ probe), probe, rtol=1e-12)
    np.testing.assert_allclose(
        transfer.factor.solve(mass.T @ probe, trans="T"), probe, rtol=1e-12
    )
    assert "factor" not in repr(transfer)


def test_array_holding_results_compare_by_identity():
    pair = unit_pair(4, 3)
    matrices = assemble(pair, MortarConfig())

    def fit():
        return fit_master_interpolant(pair.master, 0, PointLayout(), KernelFamily.GAUSSIAN)

    for first, second in [
        (pair, InterfacePair(pair.master, pair.slave)),
        (matrices, assemble(pair, MortarConfig())),
        (compute_transfer(matrices), compute_transfer(matrices)),
        (fit(), fit()),
    ]:
        assert (first == second) is False
        assert (first == first) is True


def test_tolerances_are_fixed_not_configured():
    for retired in ("support_tol", "newton"):
        with pytest.raises(TypeError):
            MortarConfig(**{retired: None})
    with pytest.raises(ImportError):
        from mortar_rbf import NewtonSettings  # noqa: F401


def test_pair_and_config_validation():
    seg = segment_mesh(2)
    with pytest.raises(ValueError):
        MortarConfig(n_gauss=0)
    with pytest.raises(ValueError):
        MortarConfig(epsilon=-1.0)
    for gap in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="gap_tolerance"):
            InterfacePair(seg, seg, gap_tolerance=gap)
    with pytest.raises(ValueError):
        assemble(unit_pair(1, 1), MortarConfig(n_gauss=1))
    transfer = compute_transfer(assemble(unit_pair(3, 2), MortarConfig()))
    for values in (np.float64(1.0), np.ones((transfer.n_master_nodes, 2, 3))):
        with pytest.raises(ValueError, match="master_values must be 1-d or 2-d"):
            interface_transfer(transfer, values)


@pytest.mark.parametrize(
    "config, name",
    [
        (MortarConfig, "n_gauss"),
        (PointLayout, "n_per_edge"),
        (segment_mesh, "n_elems"),
        (square_surface_mesh, "n_per_side"),
        (partial(rectangle_mesh, ny=2), "nx"),
        (partial(rectangle_mesh, 2), "ny"),
        (partial(split_unit_square, n_slave_x=3), "n_master_x"),
        (partial(split_unit_square, 4), "n_slave_x"),
    ],
)
def test_config_counts_must_be_integers(config, name):
    # configs and mesh builders alike name the count they refuse
    for count in (2.5, 4.0, "4"):
        message = f"{name} must be an integer, got {count!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            config(**{name: count})
    built = config(**{name: np.int64(4)})
    if hasattr(built, name):
        assert type(getattr(built, name)) is int


@pytest.mark.parametrize("shape", [(), (2,)])
def test_complex_master_values_are_refused(shape):
    # a field takes the factor and a batch on this small operator the matrix
    transfer = compute_transfer(assemble(unit_pair(3, 2), MortarConfig()))
    values = 1j * np.ones((transfer.n_master_nodes, *shape))
    with pytest.raises(ValueError, match="master values must be real"):
        interface_transfer(transfer, values)


@pytest.mark.parametrize("dtype", [str, object, "S1", "datetime64[s]"])
def test_master_values_that_are_not_numbers_are_refused(dtype):
    # astype(float) would parse the strings "1" as ones
    transfer = compute_transfer(assemble(unit_pair(3, 2), MortarConfig()))
    values = np.array(["1"] * transfer.n_master_nodes).astype(dtype)
    with pytest.raises(ValueError, match="master values must be numbers, got dtype"):
        interface_transfer(transfer, values)
    ones = np.ones(transfer.n_master_nodes)
    for numbers in (ones.astype(bool), ones.astype(np.uint8), ones.astype(np.float32)):
        np.testing.assert_array_equal(
            interface_transfer(transfer, numbers), interface_transfer(transfer, ones)
        )


@settings(deadline=None, max_examples=15)
@given(
    n_master=st.integers(min_value=1, max_value=6),
    n_slave=st.integers(min_value=1, max_value=6),
    scheme=st.sampled_from(ALL_SCHEMES),
)
def test_row_sums_are_one_for_any_pair(n_master, n_slave, scheme):
    config = MortarConfig(scheme=scheme, kernel_family=KernelFamily.WENDLAND_C2)
    transfer = compute_transfer(assemble(unit_pair(n_master, n_slave), config))
    np.testing.assert_allclose(transfer.row_sums(), 1.0, atol=1e-10)
    # the factor path agrees with the dense matrix
    np.testing.assert_allclose(
        transfer.row_sums(), transfer.matrix.sum(axis=1), rtol=0.0, atol=1e-12
    )
