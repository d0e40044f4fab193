"""The array-pass assembly against the loop-based oracles.

Tolerances: the slave mass only changes summation order (1e-13
relative).  ``eb`` foot points now stop at the Newton tolerance instead of
iterating on with their batch (1e-10).  ``rb`` entries on quadrilaterals
move by a few 1e-9 when only the shape of the evaluated batch changes:
the Gaussian fits there have condition numbers near 1e16 and weights near
1e7, so the last bits of the kernel products are amplified (1e-7).  The
batched ``rb`` fits sum each kernel row against its weights in another
order than the oracle's per-element product, which moves entries by up
to 1e-9 relative on segment fits with ten points per edge (conditions
1e9 to 5e14) and by 1.5e-13 at a condition of 7e7; pairs with a fit
whose condition exceeds 1e7 get the 1e-7 bound, the others 1e-13
relative.  The exact ``sb`` assembly places the same Gauss points with the same weights
as its per-pair scan and only sums in another order (1e-13 relative for
both matrices).  Retiring ``eb`` points at a fixed point or once their
Newton step leaves the clamp box twice in a row changes no convergence
flag, no converged foot point, no matrix and no count other than the
Newton updates (exact equality).  The loop oracle iterates each batch
until all its points converge, so its Newton update count bounds the
library's.  The oracle pairs a point with every master whose
axis-aligned box holds it; the library's ``eb`` also asks the master's
local box to hold it, so the oracle's point pair count bounds the
library's too.  The full-budget oracle of the retirement test shares the
library's Newton step, whose stacked products agree with their
``einsum`` form to 1e-13 of each term's largest entry.  The P1
stiffness, load and error integrals multiply in another order than the
``einsum`` oracle (1e-13 relative); condensed solutions
built on them agree to 1e-12 relative.  The array-pass slave L2 error
integral of the experiments sums in another order than its per-element
loop (1e-13 relative).
"""

import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, seed, settings, strategies as st
from scipy import sparse

from mortar_rbf import experiments, poisson
from mortar_rbf.elements import (
    ElementKind,
    gauss_rule,
    min_gauss_points,
    node_reference_coords,
)
from mortar_rbf.meshes import (
    InterfaceMesh,
    Side,
    element_circumdiameters,
    VolumeMesh,
    element_geometry,
    extract_interface,
    segment_mesh,
    segment_pair,
    sine_bump,
    split_unit_square,
    square_surface_mesh,
    surface_pair,
    translate,
)
from mortar_rbf import mortar
from mortar_rbf.errors import DegenerateElementError, IllConditionedKernelError
from mortar_rbf.mortar import (
    InterfacePair,
    MortarConfig,
    Scheme,
    _NEWTON_CLAMP,
    _newton_terms,
    _project_points,
    assemble,
    contact_search,
)
from mortar_rbf.rbf import (
    COND_LIMIT,
    KernelFamily,
    LayoutKind,
    PointLayout,
    fit_interpolants,
)

from reference_assembly import (
    reference_assemble,
    reference_assemble_sb,
    reference_contact_search,
    reference_newton_terms,
    reference_domain_errors,
    reference_fit,
    reference_load,
    reference_master_box,
    reference_project_points,
    reference_stiffness,
    reference_transfer_l2_error,
    reference_triangle_geometry,
)


def jittered_seg2():
    rng = np.random.default_rng(7)
    n_slave = 14
    xs = np.linspace(-1.0, 1.0, n_slave + 1)
    xs[1:-1] += rng.uniform(-0.3, 0.3, n_slave - 1) * (2.0 / n_slave)
    slave = InterfaceMesh(
        np.column_stack([xs, np.zeros_like(xs)]),
        np.column_stack([np.arange(n_slave), np.arange(1, n_slave + 1)]),
        ElementKind.SEG2,
        Side.SLAVE,
    )
    return InterfacePair(segment_mesh(21), slave)


def seg3():
    return InterfacePair(*segment_pair(5, 7, ElementKind.SEG3))


def flat_quad4():
    return InterfacePair(*surface_pair(5, 4))


def warped_quad4():
    warp = sine_bump(0.1)
    return InterfacePair(*surface_pair(6, 4, warp_master=warp, warp_slave=warp))


def quad8():
    return InterfacePair(*surface_pair(3, 2, ElementKind.QUAD8))


def conforming_quad4():
    return InterfacePair(*surface_pair(4, 4))


def nested_quad4():
    # Run with a 3x3 rule: the middle Gauss points of each slave element lie
    # exactly on shared master edges, so two masters contain them equally.
    return InterfacePair(*surface_pair(4, 2))


def overlapping_quad4():
    master = square_surface_mesh(4)
    slave = translate(square_surface_mesh(5, side=Side.SLAVE), [1.0, 1.0, 0.0])
    return InterfacePair(master, slave)


PAIRS = {
    "jittered_seg2": jittered_seg2,
    "seg3": seg3,
    "flat_quad4": flat_quad4,
    "warped_quad4": warped_quad4,
    "quad8": quad8,
    "conforming_quad4": conforming_quad4,
    "nested_quad4": nested_quad4,
    "overlapping_quad4": overlapping_quad4,
}

N_GAUSS = {"nested_quad4": 9}


def _assert_stats_match_oracle(new, ref):
    """Every stat equal but the point pair and Newton update counts,
    which the oracle's only bound."""
    assert new.point_pairs <= ref.point_pairs
    assert new.newton_updates <= ref.newton_updates
    counts = {"point_pairs": 0, "newton_updates": 0}
    assert dataclasses.replace(new, **counts) == dataclasses.replace(ref, **counts)


def _max_rel(a, b):
    a, b = a.toarray(), b.toarray()
    return np.max(np.abs(a - b), initial=0.0) / max(np.max(np.abs(b)), 1e-300)


@pytest.mark.parametrize("scheme", [Scheme.RB, Scheme.EB])
@pytest.mark.parametrize("name", list(PAIRS))
def test_array_pass_matches_loop_oracle(name, scheme):
    pair = PAIRS[name]()
    candidates = contact_search(pair)
    expected = reference_contact_search(pair)
    assert len(candidates) == len(expected)
    for got, want in zip(candidates, expected):
        np.testing.assert_array_equal(got, want)

    config = MortarConfig(scheme=scheme, n_gauss=N_GAUSS.get(name))
    new = assemble(pair, config)
    ref = reference_assemble(pair, config)
    _assert_stats_match_oracle(new.stats, ref.stats)
    assert new.coupling.nnz == ref.coupling.nnz
    assert new.slave_mass.nnz == ref.slave_mass.nnz
    assert _max_rel(new.slave_mass, ref.slave_mass) <= 1e-13
    coupling_gap = np.max(np.abs((new.coupling - ref.coupling).toarray()), initial=0.0)
    if scheme is Scheme.EB:
        assert coupling_gap <= 1e-10
    elif pair.master.kind.ref_dim == 1:
        assert _max_rel(new.coupling, ref.coupling) <= 1e-13
    else:
        assert coupling_gap <= 1e-7


@pytest.mark.parametrize("name", list(PAIRS))
def test_contact_search_is_the_per_slave_view_of_the_flat_pairs(name):
    pair = PAIRS[name]()
    s_elem, m_elem = mortar._candidate_pairs(pair)
    np.testing.assert_array_equal(np.lexsort((m_elem, s_elem)), np.arange(s_elem.size))
    candidates = contact_search(pair)
    assert len(candidates) == pair.slave.n_elems
    for slave_elem, got in enumerate(candidates):
        np.testing.assert_array_equal(got, m_elem[s_elem == slave_elem])
    config = MortarConfig(n_gauss=N_GAUSS.get(name))
    assert assemble(pair, config).stats.pairs_visited == s_elem.size


def overhanging_seg2():
    """A slave reaching past both master ends; at gap 0 its first and last
    elements have no candidate master at all."""
    return InterfacePair(
        segment_mesh(6),
        segment_mesh(9, span=(-1.5, 1.5), side=Side.SLAVE),
        gap_tolerance=0.0,
    )


def _assert_csr_equal(got, want):
    got, want = got.copy(), want.copy()
    got.sort_indices()
    want.sort_indices()
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(got.data, want.data)


@pytest.mark.parametrize("scheme", [Scheme.RB, Scheme.EB])
def test_slaves_without_candidates_at_both_ends_match_loop_oracle(scheme):
    pair, config = overhanging_seg2(), MortarConfig(scheme=scheme)
    candidates = contact_search(pair)
    assert candidates[0].size == candidates[-1].size == 0
    new = assemble(pair, config)
    ref = reference_assemble(pair, config)
    assert new.stats == ref.stats
    assert new.stats.uncovered_slave_elements == (0, pair.slave.n_elems - 1)
    _assert_csr_equal(new.slave_mass, ref.slave_mass)
    if scheme is Scheme.EB:
        _assert_csr_equal(new.coupling, ref.coupling)
    else:  # the batched fits sum in another order than the oracle's
        assert new.coupling.nnz == ref.coupling.nnz
        assert _max_rel(new.coupling, ref.coupling) <= 1e-13


@pytest.mark.parametrize(
    "name", ["jittered_seg2", "seg3", "flat_quad4", "warped_quad4", "quad8"]
)
def test_transfer_error_matches_per_element_loop(name):
    slave = PAIRS[name]().slave
    values = np.random.default_rng(11).standard_normal(slave.n_nodes)

    def exact(p):
        return np.sin(3.0 * p[..., 0]) * np.cos(2.0 * p[..., 1]) + p[..., -1]

    got = experiments._transfer_l2_error(slave, values, exact)
    want = reference_transfer_l2_error(slave, values, exact)
    assert abs(got - want) <= 1e-13 * want


RB_PAIRS = {
    "seg2": jittered_seg2,
    "seg3": seg3,
    "quad4": warped_quad4,
    "quad8": quad8,
}

RB_CONFIGS = {
    f"{family.value}-{variant.value}{n}": MortarConfig(
        kernel_family=family, layout=PointLayout(variant, n)
    )
    for family in KernelFamily
    for variant in LayoutKind
    for n in (3, 6, 10)
} | {
    f"{family.value}-epsilon0.3": MortarConfig(kernel_family=family, epsilon=0.3)
    for family in KernelFamily
}


@pytest.mark.parametrize("config_name", list(RB_CONFIGS))
@pytest.mark.parametrize("name", list(RB_PAIRS))
def test_rb_matches_per_element_fits(name, config_name):
    pair, config = RB_PAIRS[name](), RB_CONFIGS[config_name]
    try:
        ref = reference_assemble(pair, config)
    except IllConditionedKernelError as exc:
        # quadrilaterals with ten points per edge: both refuse the same fit
        with pytest.raises(IllConditionedKernelError) as info:
            assemble(pair, config)
        assert info.value.condition > COND_LIMIT
        assert str(info.value).split(":")[0] == str(exc).split(":")[0]
        return
    new = assemble(pair, config)
    assert new.stats == ref.stats
    assert new.coupling.nnz == ref.coupling.nnz
    assert new.slave_mass.nnz == ref.slave_mass.nnz
    assert _max_rel(new.slave_mass, ref.slave_mass) <= 1e-13
    worst = max(
        reference_fit(
            pair.master, elem, config.layout, config.kernel_family, config.epsilon
        )[3]
        for elem in range(pair.master.n_elems)
    )
    if worst < 1e7:
        assert _max_rel(new.coupling, ref.coupling) <= 1e-13
    else:
        assert np.max(np.abs((new.coupling - ref.coupling).toarray())) <= 1e-7


WINNER_CASES = {
    # inverse multiquadric ramps read inside [0, 1] far from the element,
    # so without the box test masters two or more elements away win points
    "seg2-imq-uniform3": (jittered_seg2, RB_CONFIGS["imq-uniform3"]),
    "seg2-imq-sine3": (jittered_seg2, RB_CONFIGS["imq-sine3"]),
    "quad8-imq-epsilon0.3": (quad8, RB_CONFIGS["imq-epsilon0.3"]),
    "warped_quad4-eb": (warped_quad4, MortarConfig(scheme=Scheme.EB)),
}


@pytest.mark.parametrize("name", list(WINNER_CASES))
def test_every_winning_master_box_holds_its_point(monkeypatch, name):
    build, config = WINNER_CASES[name]
    pair = build()
    winners = []
    scatter = mortar._scatter

    def record(pair, s_elem, m_elem, weights, slave_vals, master_vals):
        winners.append((s_elem, m_elem, slave_vals))
        return scatter(pair, s_elem, m_elem, weights, slave_vals, master_vals)

    monkeypatch.setattr(mortar, "_scatter", record)
    assemble(pair, config)
    (s_elem, m_elem, slave_vals), = winners
    slave = pair.slave
    points = np.einsum(
        "pn,pnd->pd", slave_vals, slave.nodes[slave.connectivity[s_elem]]
    )
    boxes = [reference_master_box(pair, m, mortar._SUPPORT_TOL) for m in m_elem]
    outside = [
        (int(s), int(m))
        for s, m, point, (lo, hi) in zip(s_elem, m_elem, points, boxes)
        if not ((lo <= point) & (point <= hi)).all()
    ]
    assert not outside, f"(slave element, master) pairs won outside the box: {outside}"


def curved_seg3(gap_tolerance=None):
    """5 master and 7 slave seg3 elements with their nodes on one circular arc."""

    def arc(n_elems, side):
        angles = np.linspace(0.2, np.pi - 0.2, 2 * n_elems + 1)
        return InterfaceMesh(
            np.column_stack([np.cos(angles), np.sin(angles)]),
            2 * np.arange(n_elems)[:, None] + np.arange(3),
            ElementKind.SEG3,
            side,
        )

    return InterfacePair(
        arc(5, Side.MASTER), arc(7, Side.SLAVE), gap_tolerance=gap_tolerance
    )


def _unbounded_boxes(pair):
    shape = (pair.master.n_elems, pair.master.nodes.shape[1])
    return np.full(shape, -np.inf), np.full(shape, np.inf)


@pytest.mark.parametrize("gap_tolerance", [0.0, None], ids=["gap0", "default_gap"])
@pytest.mark.parametrize("scheme", [Scheme.RB, Scheme.EB])
def test_master_boxes_leave_curved_seg3_matrices_unchanged(
    monkeypatch, scheme, gap_tolerance
):
    # the slave points sit off the master's quadratic arc by far less than
    # the mid-node bulge, so even at gap 0 every box test keeps the winner:
    # switching off both the axis-aligned and the local boxes changes no
    # matrix
    pair, config = curved_seg3(gap_tolerance), MortarConfig(scheme=scheme)
    boxed = assemble(pair, config)
    monkeypatch.setattr(mortar, "_master_boxes", _unbounded_boxes)
    monkeypatch.setattr(
        mortar, "_local_box_holds", lambda pair, masters, points: masters >= 0
    )
    every_pair = assemble(pair, config)
    assert boxed.stats.gauss_points_dropped == 0
    assert boxed.stats.point_pairs < every_pair.stats.point_pairs
    ignored = {"point_pairs": 0, "newton_updates": 0}
    assert dataclasses.replace(boxed.stats, **ignored) == dataclasses.replace(
        every_pair.stats, **ignored
    )
    for got, want in (
        (boxed.slave_mass, every_pair.slave_mass),
        (boxed.coupling, every_pair.coupling),
    ):
        np.testing.assert_array_equal(got.indptr, want.indptr)
        np.testing.assert_array_equal(got.indices, want.indices)
        np.testing.assert_array_equal(got.data, want.data)


@pytest.mark.parametrize("variant", list(LayoutKind))
@pytest.mark.parametrize("n_per_edge", [3, 6])
@pytest.mark.parametrize("family", list(KernelFamily))
@pytest.mark.parametrize("build", [jittered_seg2, seg3])
def test_batched_condition_matches_lapack_estimate_on_segments(
    build, family, n_per_edge, variant
):
    # LAPACK's estimate is exact on these well-conditioned fits; on
    # quadrilaterals it can fall short of the exact value by several percent
    mesh, layout = build().master, PointLayout(variant, n_per_edge)
    condition = fit_interpolants(mesh, np.arange(mesh.n_elems), layout, family).condition
    estimate = [reference_fit(mesh, e, layout, family)[3] for e in range(mesh.n_elems)]
    np.testing.assert_allclose(condition, estimate, rtol=1e-10, atol=0.0)


def test_overlapping_pair_drops_points_and_reports_uncovered_elements():
    stats = assemble(overlapping_quad4(), MortarConfig(scheme=Scheme.EB)).stats
    assert 0 < stats.gauss_points_dropped < stats.gauss_points_total
    assert stats.uncovered_slave_elements


def test_newton_mask_keeps_each_point_independent_of_its_batch():
    mesh = segment_mesh(3, ElementKind.SEG3, span=(0.0, 1.0))
    nodes = mesh.nodes.copy()
    nodes[3, 1] = 0.02  # bend the middle element through its mid node
    curved = InterfaceMesh(nodes, mesh.connectivity, mesh.kind)
    elem = 1
    targets = np.array([[0.45, 0.03], [0.5, -0.01], [0.6, 0.1], [5.0, 2.0]])
    coords = np.repeat(curved.nodes[curved.connectivity[elem]][None], len(targets), 0)
    scale = np.full(len(targets), element_circumdiameters(curved)[elem] ** 2)
    xi, converged, _ = _project_points(curved.kind, coords, targets, scale)
    for k in range(len(targets)):
        solo = slice(k, k + 1)
        solo_xi, solo_converged, _ = _project_points(
            curved.kind, coords[solo], targets[solo], scale[solo]
        )
        np.testing.assert_allclose(xi[k], solo_xi[0], rtol=0.0, atol=1e-12)
        assert converged[k] == solo_converged[0]
    assert converged[:3].all()
    assert not converged[3]


def warped_pair(n_master, n_slave, kind=ElementKind.QUAD4, amplitude=0.1):
    warp = sine_bump(amplitude)
    return InterfacePair(
        *surface_pair(n_master, n_slave, kind, warp_master=warp, warp_slave=warp)
    )


def poisson_split_interface():
    """The curved 256/171 interface of the split-square Poisson problem."""
    master, slave = split_unit_square(256, 171, interface_offset=_curve)
    return InterfacePair(
        extract_interface(master, Side.MASTER)[0],
        extract_interface(slave, Side.SLAVE)[0],
    )


def semicircle_seg3(n_slave):
    """2 master and ``n_slave`` slave seg3 elements on one semicircle.

    Each master spans a quarter circle.  From the element centre, the
    first Newton step towards a foot point beyond xi = 0.975 or so
    overshoots the clamp box, and the next step comes back.  With 20 slave
    elements Gauss points project to xi = +-0.98 near every master end
    node; with 5 the middle Gauss point sits on the shared master node.
    """

    def arc(n_elems, side):
        angles = np.linspace(0.0, np.pi, 2 * n_elems + 1)
        return InterfaceMesh(
            np.column_stack([np.cos(angles), np.sin(angles)]),
            2 * np.arange(n_elems)[:, None] + np.arange(3),
            ElementKind.SEG3,
            side,
        )

    return InterfacePair(arc(2, Side.MASTER), arc(n_slave, Side.SLAVE))


RETIREMENT_PAIRS = {
    "warped_quad4_6_4": lambda: warped_pair(6, 4),
    "warped_quad4_12_8": lambda: warped_pair(12, 8),
    "curved_seg3": curved_seg3,
    "semicircle_seg3_2_20": lambda: semicircle_seg3(20),
    "semicircle_seg3_2_5": lambda: semicircle_seg3(5),
    "warped_quad8_0.1": lambda: warped_pair(6, 4, ElementKind.QUAD8),
    "warped_quad8_0.3": lambda: warped_pair(6, 4, ElementKind.QUAD8, 0.3),
    "poisson_split": poisson_split_interface,
}


@pytest.mark.parametrize("name", list(RETIREMENT_PAIRS))
def test_newton_retirement_leaves_eb_unchanged(monkeypatch, name):
    # Most (point, master) pairs never converge: their Newton step leaves
    # the clamp box again and again, or their clamped iterate stops
    # moving.  Retiring them early must keep the full-budget loop's
    # convergence flags, converged foot points, matrices and stats
    # exactly; the discarded foot points of the others may differ.
    pair = RETIREMENT_PAIRS[name]()
    master, slave = pair.master, pair.slave
    rule = gauss_rule(slave.kind, min_gauss_points(slave.kind))
    points = element_geometry(slave, rule.points)[0].reshape(-1, slave.nodes.shape[1])
    s_idx, m_idx = np.divmod(np.arange(points.shape[0] * master.n_elems), master.n_elems)
    coords = master.nodes[master.connectivity[m_idx]]
    scale = element_circumdiameters(master)[m_idx] ** 2
    xi, converged, updates = _project_points(master.kind, coords, points[s_idx], scale)
    ref_xi, ref_converged, ref_updates = reference_project_points(
        master.kind, coords, points[s_idx], scale
    )
    assert 0 < converged.sum() < converged.size
    np.testing.assert_array_equal(converged, ref_converged)
    np.testing.assert_array_equal(xi[converged], ref_xi[converged])
    assert updates < ref_updates

    config = MortarConfig(scheme=Scheme.EB)
    new = assemble(pair, config)
    monkeypatch.setattr(mortar, "_project_points", reference_project_points)
    ref = assemble(pair, config)
    assert new.stats.newton_updates <= ref.stats.newton_updates
    assert dataclasses.replace(new.stats, newton_updates=0) == dataclasses.replace(
        ref.stats, newton_updates=0
    )
    for got, want in ((new.slave_mass, ref.slave_mass), (new.coupling, ref.coupling)):
        np.testing.assert_array_equal(got.indptr, want.indptr)
        np.testing.assert_array_equal(got.indices, want.indices)
        np.testing.assert_array_equal(got.data, want.data)


@seed(20261020)
@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(
        [ElementKind.SEG2, ElementKind.SEG3, ElementKind.QUAD4, ElementKind.QUAD8]
    ),
    n_points=st.integers(1, 16),
    distortion=st.floats(0.0, 0.4),
    reach=st.floats(0.0, 2.0),
    draw_seed=st.integers(0, 2**32 - 1),
)
def test_newton_terms_match_einsum_oracle(kind, n_points, distortion, reach, draw_seed):
    # Each point gets its own element: a random affine image of the
    # reference element with every node moved by up to ``distortion``,
    # an iterate anywhere in the clamp box and a target around it.
    rng = np.random.default_rng(draw_seed)
    dim = kind.ref_dim + 1
    frame = rng.normal(size=(kind.ref_dim, dim))
    coords = (
        node_reference_coords(kind) @ frame
        + rng.uniform(-distortion, distortion, (n_points, kind.n_nodes, dim))
        + rng.normal(size=dim)
    )
    xi = rng.uniform(-_NEWTON_CLAMP, _NEWTON_CLAMP, (n_points, kind.ref_dim))
    targets = coords.mean(axis=1) + rng.normal(scale=reach, size=(n_points, dim))
    nodes = np.ascontiguousarray(coords.transpose(0, 2, 1))
    got = _newton_terms(kind, nodes, xi, targets)
    want = reference_newton_terms(kind, coords, xi, targets)
    for name, a, b in zip(("jacobian", "residual", "hessian"), got, want):
        assert a.shape == b.shape, name
        assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max(), name


def line_mesh(xs, kind, side, angle=0.0, offset=0.0):
    """Mesh whose nodes sit at parameters ``xs`` along a line at ``angle``.

    Nodes are listed in element order (ends and, for seg3, mid nodes), and
    the whole line is shifted by ``offset`` along its normal.
    """
    direction = np.array([np.cos(angle), np.sin(angle)])
    normal = np.array([-direction[1], direction[0]])
    step = kind.degree
    n_elems = (len(xs) - 1) // step
    return InterfaceMesh(
        np.outer(xs, direction) + offset * normal,
        step * np.arange(n_elems)[:, None] + np.arange(step + 1),
        kind,
        side,
    )


def line_params(n_elems, kind, span, rng, jitter=0.0, mid_shift=0.0):
    """Node parameters of ``n_elems`` elements over ``span``.

    Interior end nodes move by up to ``jitter`` element lengths and seg3
    mid nodes by up to ``mid_shift`` half-lengths off the element center.
    """
    ends = np.linspace(*span, n_elems + 1)
    h = (span[1] - span[0]) / n_elems
    ends[1:-1] += rng.uniform(-jitter, jitter, n_elems - 1) * h
    if kind is ElementKind.SEG2:
        return ends
    half = 0.5 * np.diff(ends)
    xs = np.empty(2 * n_elems + 1)
    xs[0::2] = ends
    xs[1::2] = ends[:-1] + half * (1.0 + rng.uniform(-mid_shift, mid_shift, n_elems))
    return xs


def sb_seg3_off_center():
    rng = np.random.default_rng(11)
    kind = ElementKind.SEG3
    master = line_mesh(line_params(5, kind, (-1, 1), rng, 0.0, 0.4), kind, Side.MASTER)
    slave = line_mesh(line_params(7, kind, (-1, 1), rng, 0.2, 0.4), kind, Side.SLAVE)
    return InterfacePair(master, slave)


def sb_normal_offset():
    rng = np.random.default_rng(12)
    kind = ElementKind.SEG2
    master = line_mesh(line_params(9, kind, (-1, 1), rng), kind, Side.MASTER)
    slave = line_mesh(
        line_params(6, kind, (-1, 1), rng, 0.3), kind, Side.SLAVE, offset=0.05
    )
    return InterfacePair(master, slave)


def sb_slanted():
    rng = np.random.default_rng(13)
    master = line_mesh(
        line_params(6, ElementKind.SEG3, (0, 2), rng, 0.2, 0.3),
        ElementKind.SEG3,
        Side.MASTER,
        angle=0.6,
    )
    slave = line_mesh(
        line_params(8, ElementKind.SEG2, (0, 2), rng, 0.3),
        ElementKind.SEG2,
        Side.SLAVE,
        angle=0.6,
    )
    return InterfacePair(master, slave)


def sb_shuffled_reversed_master():
    rng = np.random.default_rng(14)
    kind = ElementKind.SEG3
    master = line_mesh(line_params(9, kind, (-1, 1), rng, 0.2, 0.3), kind, Side.MASTER)
    shuffled = InterfaceMesh(
        master.nodes,
        master.connectivity[rng.permutation(master.n_elems), ::-1],
        kind,
        Side.MASTER,
    )
    slave = line_mesh(line_params(6, kind, (-1, 1), rng, 0.3, 0.3), kind, Side.SLAVE)
    return InterfacePair(shuffled, slave)


def sb_partial_overlap():
    rng = np.random.default_rng(15)
    kind = ElementKind.SEG2
    master = line_mesh(line_params(8, kind, (-1, 1), rng, 0.2), kind, Side.MASTER)
    slave = line_mesh(line_params(5, kind, (0.3, 2), rng, 0.3), kind, Side.SLAVE)
    return InterfacePair(master, slave)


SB_PAIRS = {
    "jittered_seg2": (jittered_seg2, None),
    "seg3_off_center": (sb_seg3_off_center, None),
    "normal_offset": (sb_normal_offset, None),
    "slanted": (sb_slanted, None),
    "shuffled_reversed_master": (sb_shuffled_reversed_master, None),
    "partial_overlap": (sb_partial_overlap, None),
    "jittered_seg2_n_gauss5": (jittered_seg2, 5),
    "overhanging_seg2": (overhanging_seg2, None),
}


def assert_sb_matches_oracle(pair, n_gauss=None):
    config = MortarConfig(scheme=Scheme.SB1D, n_gauss=n_gauss)
    new = assemble(pair, config)
    ref = reference_assemble_sb(pair, config)
    assert new.stats == ref.stats
    assert new.slave_mass.nnz == ref.slave_mass.nnz
    assert new.coupling.nnz == ref.coupling.nnz
    assert _max_rel(new.slave_mass, ref.slave_mass) <= 1e-13
    assert _max_rel(new.coupling, ref.coupling) <= 1e-13
    return new


@pytest.mark.parametrize("name", list(SB_PAIRS))
def test_sb_matches_per_pair_scan(name):
    build, n_gauss = SB_PAIRS[name]
    matrices = assert_sb_matches_oracle(build(), n_gauss)
    assert matrices.stats.pairs_visited > 0
    if name == "partial_overlap":
        assert matrices.stats.uncovered_slave_elements
    if name == "overhanging_seg2":
        assert matrices.stats.uncovered_slave_elements == (0, 8)


@seed(20240607)
@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from([ElementKind.SEG2, ElementKind.SEG3]),
    n_master=st.integers(1, 12),
    n_slave=st.integers(1, 12),
    jitter=st.floats(0.0, 0.35),
    mid_shift=st.floats(0.0, 0.49),
    offset=st.floats(-0.2, 0.2),
    shift=st.floats(-2.5, 2.5),
    draw_seed=st.integers(0, 2**32 - 1),
)
@example(  # mid nodes up to 0.49 half-lengths off centre
    kind=ElementKind.SEG3,
    n_master=12,
    n_slave=11,
    jitter=0.35,
    mid_shift=0.49,
    offset=0.1,
    shift=0.3,
    draw_seed=0,
)
@example(  # failed an oracle that stopped at 1e-14 of the interface span
    kind=ElementKind.SEG3,
    n_master=9,
    n_slave=10,
    jitter=0.0,
    mid_shift=0.3671875,
    offset=0.0,
    shift=0.0,
    draw_seed=4,
)
@example(  # the same, one master element and strongly off-centre mid nodes
    kind=ElementKind.SEG3,
    n_master=1,
    n_slave=9,
    jitter=0.0,
    mid_shift=0.484375,
    offset=0.0,
    shift=0.0,
    draw_seed=0,
)
def test_sb_matches_per_pair_scan_on_random_pairs(
    kind, n_master, n_slave, jitter, mid_shift, offset, shift, draw_seed
):
    rng = np.random.default_rng(draw_seed)
    master = line_mesh(
        line_params(n_master, kind, (-1, 1), rng, jitter, mid_shift), kind, Side.MASTER
    )
    slave = line_mesh(
        line_params(n_slave, kind, (-1 + shift, 1 + shift), rng, jitter, mid_shift),
        kind,
        Side.SLAVE,
        offset=offset,
    )
    assert_sb_matches_oracle(InterfacePair(master, slave))


# --- P1 volume assembly ------------------------------------------------------


def _curve(x):
    return 0.05 * np.sin(np.pi * x)


def jittered_split_square():
    # interior nodes move by up to 0.3 of a cell width; nodes on tagged
    # edges stay, so both interfaces still trace the same line
    rng = np.random.default_rng(11)
    meshes = []
    for mesh, n_x in zip(split_unit_square(24, 17), (24, 17)):
        nodes = mesh.nodes.copy()
        interior = np.setdiff1d(np.arange(mesh.n_nodes), mesh.boundary_edges)
        nodes[interior] += rng.uniform(-0.3, 0.3, (interior.size, 2)) / n_x
        meshes.append(
            VolumeMesh(nodes, mesh.connectivity, mesh.boundary_edges, mesh.boundary_tags)
        )
    return tuple(meshes)


SPLIT_SQUARES = {
    "flat": lambda: split_unit_square(24, 17),
    "curved": lambda: split_unit_square(24, 17, interface_offset=_curve),
    "jittered": jittered_split_square,
}


def _volume_source(x, y):
    return 32.0 * (x * (1.0 - x) + y * (1.0 - y)) + np.sin(3.0 * x) * y


def _volume_exact(x, y):
    return np.sin(2.0 * x) * np.cos(y)


def _volume_gradient(x, y):
    gx = 2.0 * np.cos(2.0 * x) * np.cos(y)
    return np.stack([gx, -np.sin(2.0 * x) * np.sin(y)], axis=-1)


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("name", list(SPLIT_SQUARES))
def test_p1_assembly_matches_einsum_oracle(name):
    for mesh in SPLIT_SQUARES[name]():
        stiffness, want = poisson.assemble_stiffness(mesh), reference_stiffness(mesh)
        np.testing.assert_array_equal(stiffness.indptr, want.indptr)
        np.testing.assert_array_equal(stiffness.indices, want.indices)
        assert _rel(stiffness.data, want.data) <= 1e-13
        load = poisson.assemble_load(mesh, _volume_source)
        assert _rel(load, reference_load(mesh, _volume_source)) <= 1e-13

        values = _volume_exact(*mesh.nodes.T) + 1e-3 * np.cos(7.0 * mesh.nodes[:, 0])
        got = poisson._domain_errors(mesh, values, _volume_exact, _volume_gradient)
        ref = reference_domain_errors(mesh, values, _volume_exact, _volume_gradient)
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("n_master, n_slave", [(64, 43), (128, 85)])
def test_p1_stiffness_assembly_peak_memory(n_master, n_slave):
    """numpy's peak while assembling stays within 9x the CSR arrays it
    returns (11.6x with broadcast int64 row and column copies), and the
    int32 indices give the matrix those copies give, bit for bit."""
    for mesh in split_unit_square(n_master, n_slave, interface_offset=_curve):
        tracemalloc.start()
        try:
            stiffness = poisson.assemble_stiffness(mesh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = (stiffness.indptr, stiffness.indices, stiffness.data)
        assert peak <= 9 * sum(array.nbytes for array in arrays)

        want = reference_stiffness(mesh)
        np.testing.assert_array_equal(stiffness.indptr, want.indptr)
        np.testing.assert_array_equal(stiffness.indices, want.indices)
        _, _, double_area, gx, gy = poisson._triangle_geometry(mesh)
        blocks = gx[:, None] * gx[None, :] + gy[:, None] * gy[None, :]
        blocks *= 0.5 * double_area
        conn = mesh.connectivity.T
        rows, cols = np.broadcast_arrays(conn[:, None], conn[None, :])
        wide = sparse.coo_matrix(
            (blocks.ravel(), (rows.ravel(), cols.ravel())), shape=stiffness.shape
        ).tocsr()
        for array, wanted in zip(arrays, (wide.indptr, wide.indices, wide.data)):
            np.testing.assert_array_equal(array, wanted)


def test_degenerate_triangle_message_matches_oracle():
    # the second triangle runs clockwise
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    connectivity = np.array([[0, 1, 2], [1, 2, 3]])
    with pytest.raises(DegenerateElementError) as want:
        reference_triangle_geometry(SimpleNamespace(nodes=nodes, connectivity=connectivity))
    with pytest.raises(DegenerateElementError) as got:
        VolumeMesh(nodes, connectivity)
    expected = "triangle 1 has non-positive area -5.000e-01"
    assert str(got.value) == str(want.value) == expected


def test_condensed_fields_match_einsum_assembly(monkeypatch):
    master, slave = split_unit_square(256, 171, interface_offset=_curve)
    problem = poisson.PoissonProblem(master, slave, _volume_source)
    system = poisson.build_system(problem, MortarConfig())
    fields = poisson.solve_condensed(system)
    monkeypatch.setattr(poisson, "assemble_stiffness", reference_stiffness)
    monkeypatch.setattr(poisson, "assemble_load", reference_load)
    oracle = poisson.solve_condensed(poisson.build_system(problem, MortarConfig()))
    for field in ("master_values", "slave_values", "multipliers"):
        got, want = getattr(fields, field), getattr(oracle, field)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

