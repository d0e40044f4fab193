import contextlib
import multiprocessing
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings, strategies as st

from mortar_rbf.elements import ElementKind, node_reference_coords, shape_values
from mortar_rbf.errors import IllConditionedKernelError
from mortar_rbf import experiments, rbf
from mortar_rbf.meshes import (
    InterfaceMesh,
    Side,
    VolumeMesh,
    element_geometry,
    segment_mesh,
    segment_pair,
    sine_bump,
    surface_pair,
    translate,
)
from mortar_rbf.mortar import InterfacePair, MortarConfig, assemble
from mortar_rbf.rbf import (
    COND_DOUBT_FROM,
    COND_EXACT_FROM,
    COND_LIMIT,
    KernelFamily,
    LayoutKind,
    PointLayout,
    RbfInterpolant,
    basis_diagnostics,
    evaluate_interpolants,
    evaluate_rescaled_masked,
    fit_interpolants,
    fit_master_interpolant,
    halton_reference_points,
    interpolation_points,
)

ALL_FAMILIES = list(KernelFamily)
TRIANGLE = VolumeMesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]]))


def physical_points(mesh, elem, ref):
    return element_geometry(mesh, ref, [elem])[0][0]


def evaluate_all(interp, points):
    """Rescaled values at points that must all lie in the kernel support."""
    values, ok = evaluate_rescaled_masked(interp, points)
    assert ok.all()
    return values


def check_layout(kind, layout):
    """Points per edge to the power ref_dim, inside [-1, 1]^ref_dim; tri3,
    a volume element, is refused by name."""
    if kind is ElementKind.TRI3:
        with pytest.raises(ValueError, match="tri3"):
            interpolation_points(kind, layout)
        return
    pts = interpolation_points(kind, layout)
    assert pts.shape == (layout.n_per_edge**kind.ref_dim, kind.ref_dim)
    assert np.all(np.abs(pts) <= 1.0 + 1e-12)


@pytest.mark.parametrize("kind", list(ElementKind))
@pytest.mark.parametrize("variant", list(LayoutKind))
def test_interpolation_point_counts(kind, variant):
    check_layout(kind, PointLayout(variant, 5))


def test_triangles_are_refused_by_name():
    layout = PointLayout()
    with pytest.raises(ValueError, match="tri3"):
        halton_reference_points(ElementKind.TRI3, 10)
    with pytest.raises(ValueError, match="tri3"):
        fit_interpolants(TRIANGLE, [0], layout, KernelFamily.GAUSSIAN)


def test_sine_layout_clusters_toward_boundary():
    uniform = interpolation_points(ElementKind.SEG2, PointLayout("uniform", 7))[:, 0]
    sine = interpolation_points(ElementKind.SEG2, PointLayout("sine", 7))[:, 0]
    assert sine[0] == pytest.approx(-1.0) and sine[-1] == pytest.approx(1.0)
    assert sine[1] - sine[0] < uniform[1] - uniform[0]
    np.testing.assert_allclose(sine, -sine[::-1], atol=1e-15)


def test_layout_validation():
    with pytest.raises(ValueError):
        PointLayout("uniform", 1)
    with pytest.raises(ValueError):
        PointLayout("uniform", 11)
    with pytest.raises(ValueError):
        PointLayout("spiral", 5)


def test_kernel_profile_shapes_and_limits():
    r = np.linspace(0.0, 3.0, 50)
    for family in ALL_FAMILIES:
        values = rbf._kernel_profile(family, r, 1.0)
        assert values[0] == pytest.approx(1.0)
        assert np.all(np.diff(values) <= 1e-15)
    wendland = rbf._kernel_profile(KernelFamily.WENDLAND_C2, r, 1.0)
    assert np.all(wendland[r >= 1.0] == 0.0)
    assert np.all(wendland[r < 1.0] > 0.0)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_interpolation_property_at_collocation_points(family):
    mesh, _ = segment_pair(2, 3, ElementKind.SEG3)
    layout = PointLayout(n_per_edge=5)
    interp = fit_master_interpolant(mesh, 0, layout, family)
    ref = interpolation_points(ElementKind.SEG3, layout)
    values = evaluate_all(interp, physical_points(mesh, 0, ref))
    np.testing.assert_allclose(values, shape_values(ElementKind.SEG3, ref), atol=1e-11)


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("kind", [ElementKind.SEG2, ElementKind.QUAD4])
def test_rescaled_rows_sum_to_one(family, kind):
    if kind.ref_dim == 1:
        mesh, _ = segment_pair(3, 2, kind)
    else:
        mesh, _ = surface_pair(3, 2, kind)
    interp = fit_master_interpolant(mesh, 1, PointLayout(n_per_edge=6), family)
    probes = physical_points(mesh, 1, halton_reference_points(kind, 80))
    values = evaluate_all(interp, probes)
    np.testing.assert_allclose(values.sum(axis=1), 1.0, atol=1e-12)


def test_translation_leaves_interpolant_unchanged():
    mesh, _ = surface_pair(2, 3, ElementKind.QUAD4)
    layout = PointLayout(n_per_edge=3)
    probes = physical_points(mesh, 0, halton_reference_points(ElementKind.QUAD4, 30))
    base = evaluate_all(
        fit_master_interpolant(mesh, 0, layout, KernelFamily.GAUSSIAN), probes
    )
    shift = np.array([0.37, -1.25, 0.41])
    moved = evaluate_all(
        fit_master_interpolant(
            translate(mesh, shift), 0, layout, KernelFamily.GAUSSIAN
        ),
        probes + shift,
    )
    np.testing.assert_allclose(moved, base, atol=1e-10)


def test_far_queries_are_masked_not_poisoned():
    mesh = segment_mesh(1, span=(0.0, 1.0))
    interp = fit_master_interpolant(
        mesh, 0, PointLayout(n_per_edge=4), KernelFamily.WENDLAND_C2
    )
    points = np.array([[0.5, 0.0], [80.0, 0.0]])
    values, ok = evaluate_rescaled_masked(interp, points)
    assert ok.tolist() == [True, False]
    np.testing.assert_array_equal(values[1], 0.0)
    assert np.all(np.isfinite(values))


def test_cancelling_denominator_is_masked():
    # Opposite weights on two collocation points: the denominator cancels
    # midway between them (exactly, and to 1e-14 just beside), although
    # both kernel-weighted terms are of order one.
    interp = RbfInterpolant(
        KernelFamily.GAUSSIAN,
        points=np.array([[[0.0, 0.0], [1.0, 0.0]]]),
        epsilon=np.array([1.0]),
        weights=np.array([[[1.0, 0.0], [0.0, -1.0]]]),
        condition=np.array([1.0]),
    )
    queries = np.array([[0.5, 0.0], [0.5 + 1e-14, 0.0], [0.1, 0.0]])
    values, ok = evaluate_interpolants(
        interp, np.zeros(len(queries), dtype=np.int64), queries
    )
    assert ok.tolist() == [False, False, True]
    np.testing.assert_array_equal(values[:2], 0.0)
    np.testing.assert_allclose(values[2].sum(), 1.0, rtol=1e-14)


def test_overly_flat_kernel_is_refused():
    master = segment_mesh(1, span=(0.0, 1.0))
    slave = segment_mesh(2, span=(0.0, 1.0), side=Side.SLAVE)
    config = MortarConfig(layout=PointLayout(n_per_edge=10), epsilon=5000.0)
    fit = fit_master_interpolant(
        master, 0, config.layout, config.kernel_family, epsilon=config.epsilon
    )
    assert fit.condition[0] > COND_LIMIT
    with pytest.raises(IllConditionedKernelError, match="^master element 0:") as info:
        assemble(InterfacePair(master, slave), config)
    assert info.value.condition == fit.condition[0]


def test_diagnostics_flag_instability_without_raising():
    mesh = segment_mesh(1, span=(0.0, 1.0))
    diag = basis_diagnostics(
        mesh,
        0,
        PointLayout(n_per_edge=10),
        KernelFamily.GAUSSIAN,
        epsilon=5000.0,
    )
    assert diag.unstable
    assert diag.condition_estimate > 1e10


def far_apart_segments():
    # Elements 2 and 4 are one unit long, the others 1e13.  With epsilon
    # 1e12 every Gaussian value on the short ones rounds to exactly 1, so
    # their collocation matrices are exactly singular; the long ones are
    # regular.
    xs = np.array([0.0, 1e13, 2e13, 2e13 + 1, 3e13 + 1, 3e13 + 2])
    return InterfaceMesh(
        np.column_stack([xs, np.zeros_like(xs)]),
        np.column_stack([np.arange(5), np.arange(1, 6)]),
        ElementKind.SEG2,
    )


def test_exactly_singular_fit_is_refused_naming_the_lowest_master():
    master = far_apart_segments()
    slave = segment_mesh(3, span=(0.0, 3e13 + 2), side=Side.SLAVE)
    with pytest.raises(IllConditionedKernelError) as info:
        assemble(InterfacePair(master, slave), MortarConfig(epsilon=1e12))
    assert info.value.condition == np.inf
    assert str(info.value).startswith("master element 2:")


def test_exactly_singular_fit_leaves_the_rest_of_its_batch_alone():
    mesh, layout = far_apart_segments(), PointLayout()
    batch = fit_interpolants(mesh, np.arange(5), layout, KernelFamily.GAUSSIAN, epsilon=1e12)
    np.testing.assert_array_equal(np.isinf(batch.condition), [0, 0, 1, 0, 1])
    assert np.isnan(batch.weights[[2, 4]]).all()
    for elem in (0, 1, 3):
        alone = fit_master_interpolant(
            mesh, elem, layout, KernelFamily.GAUSSIAN, epsilon=1e12
        )
        np.testing.assert_array_equal(batch.weights[elem], alone.weights[0])
        assert batch.condition[elem] == alone.condition[0] < 1e3
    diag = basis_diagnostics(mesh, 2, layout, KernelFamily.GAUSSIAN, epsilon=1e12)
    assert diag.unstable and diag.condition_estimate == np.inf


#: Bound on the condition estimate's excess over the exact value, per unit
#: of kappa * eps: the probe solve and the inverse round differently, and
#: the computed inverse is symmetric only to about kappa * eps.  Measured
#: at most 2.6 over 18,800 estimated fits of sheared and warped elements
#: (drawn as in the test below, at default and one BLAS thread; all 1,626
#: fits beyond the limit kept their refusal), and 4.1 over 21,000 estimated
#: fits of unsheared jittered and warped elements.
EXCESS_PER_KAPPA_EPS = 8.0


def checkerboard(kind, n_per_edge):
    """(-1)^(i + j) over the collocation lattice, in its point order."""
    return (-1.0) ** np.indices((n_per_edge,) * kind.ref_dim).sum(axis=0).ravel()


def summed_square_gram(fit, k):
    """Element k's collocation matrix, built from summed squared
    coordinate differences without the library's in-place helper."""
    p = fit.points[k]
    d2 = sum((p[:, None, c] - p[None, :, c]) ** 2 for c in range(p.shape[1]))
    return rbf._kernel_profile(fit.family, np.sqrt(d2), fit.epsilon[k])


def check_condition_oracle(fit, kind, layout):
    """Per element: weights as a plain solve, the refusal decision of the
    exact formula ||G||_1 ||G^-1||_1, and that formula's value from
    :data:`COND_EXACT_FROM` up and, where the checkerboard probe does not
    lead the two random ones by ``rbf._TRUSTED_LEAD``, from
    :data:`COND_DOUBT_FROM` up; elsewhere the three-probe estimate, at most
    the exact value beyond rounding.  Returns the exact conditions."""
    basis = shape_values(kind, interpolation_points(kind, layout))
    n_points, n_basis = basis.shape
    probes = rbf._probes(kind, layout)
    np.testing.assert_array_equal(probes[:, 0], checkerboard(kind, layout.n_per_edge))
    assert probes.shape == (n_points, 3) and set(np.unique(probes)) == {-1.0, 1.0}
    exact = np.empty(len(fit.condition))
    for k, condition in enumerate(fit.condition):
        gram = summed_square_gram(fit, k)
        try:
            weights = np.linalg.solve(gram, basis)
        except np.linalg.LinAlgError:
            assert condition == np.inf and np.isnan(fit.weights[k]).all()
            exact[k] = np.inf
            continue
        np.testing.assert_array_equal(fit.weights[k], weights)
        norm = np.linalg.norm(gram, 1)
        inverse = np.linalg.solve(gram, np.column_stack([basis, np.eye(n_points)]))
        exact[k] = norm * np.linalg.norm(inverse[:, n_basis:], 1)
        probed = np.linalg.solve(gram, np.column_stack([basis, probes]))[:, n_basis:]
        estimates = norm * np.abs(probed).max(axis=0)
        estimate = estimates.max()
        trusted = estimates[0] >= rbf._TRUSTED_LEAD * estimates[1:].max()
        assert (condition > COND_LIMIT) == (exact[k] > COND_LIMIT)
        if estimate >= COND_EXACT_FROM or (not trusted and estimate >= COND_DOUBT_FROM):
            assert condition == exact[k]
        else:
            assert condition == estimate
            kappa_eps = np.finfo(float).eps * exact[k]
            assert condition <= exact[k] * (1.0 + EXCESS_PER_KAPPA_EPS * kappa_eps)
    return exact


def test_condition_estimate_on_the_kernel_study_grid():
    # every fit of kernel_study: seg3 and quad4, each family and layout,
    # 3-10 points per edge and both shape-parameter policies
    exact = []
    for mesh in (
        segment_pair(2, 3, ElementKind.SEG3)[0],
        surface_pair(2, 3, ElementKind.QUAD4)[0],
    ):
        sample = halton_reference_points(mesh.kind, 400)
        for family in ALL_FAMILIES:
            for variant in LayoutKind:
                for n in range(3, 11):
                    layout = PointLayout(variant, n)
                    fill = experiments._fill_distance(mesh, 0, layout, sample)
                    for epsilon in (None, 2.0 * fill):
                        fit = fit_interpolants(mesh, [0], layout, family, epsilon=epsilon)
                        exact.extend(check_condition_oracle(fit, mesh.kind, layout))
    exact = np.array(exact)
    # both sides of the bar are reached: 181 fits lie below it and 10
    # beyond the limit
    assert len(exact) == 192
    assert (exact < COND_EXACT_FROM).sum() > 150
    assert (exact > COND_LIMIT).sum() >= 5


def sheared_elements(kind, jitter, warp, angle, aspect, rng, n_elems=3):
    """``n_elems`` disjoint elements of ``kind``: the reference element with
    each node moved by up to ``jitter`` and lifted by up to ``warp`` (a
    curve on seg3, a bump on quadrilaterals); a quadrilateral's second
    axis is then stretched by ``aspect`` and sheared to meet the first at
    ``angle`` degrees.  Each is scaled by 0.5-2 and turned."""
    ref = node_reference_coords(kind)
    dim = kind.ref_dim + 1
    frame = np.eye(dim)
    if kind.ref_dim == 2:
        turn = np.radians(angle)
        frame[1, :2] = aspect * np.array([np.cos(turn), np.sin(turn)])
    blocks = []
    for k in range(n_elems):
        xi = ref + rng.uniform(-jitter, jitter, ref.shape)
        lift = warp * np.sin(xi[:, 0] + rng.uniform(0.0, np.pi))
        if kind.ref_dim == 2:
            lift = lift * np.cos(xi[:, 1])
        rotation = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
        nodes = rng.uniform(0.5, 2.0) * np.column_stack([xi, lift]) @ frame @ rotation.T
        blocks.append(nodes + 50.0 * k)
    n = kind.n_nodes
    return InterfaceMesh(np.vstack(blocks), np.arange(n_elems * n).reshape(n_elems, n), kind)


@seed(20261021)
@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(
        [ElementKind.SEG2, ElementKind.SEG3, ElementKind.QUAD4, ElementKind.QUAD8]
    ),
    family=st.sampled_from(ALL_FAMILIES),
    variant=st.sampled_from(list(LayoutKind)),
    n_per_edge=st.integers(3, 10),
    epsilon=st.floats(0.1, 8.0),
    jitter=st.floats(0.0, 0.3),
    warp=st.floats(0.0, 0.4),
    angle=st.floats(1.0, 90.0),
    aspect=st.floats(1.0, 10.0),
    draw_seed=st.integers(0, 2**32 - 1),
)
def test_condition_estimate_on_sheared_and_warped_elements(
    kind, family, variant, n_per_edge, epsilon, jitter, warp, angle, aspect, draw_seed
):
    # one forced epsilon over elements of different sizes, so a batch can
    # hold estimated and exact conditions side by side
    rng = np.random.default_rng(draw_seed)
    try:
        mesh = sheared_elements(kind, jitter, warp, angle, aspect, rng)
    except ValueError:  # a folded element
        assume(False)
    layout = PointLayout(variant, n_per_edge)
    fit = fit_interpolants(mesh, np.arange(mesh.n_elems), layout, family, epsilon=epsilon)
    check_condition_oracle(fit, kind, layout)


#: A sliver quadrilateral (an 11.7 degree corner) on which the checkerboard
#: probe alone estimates an IMQ fit with 10 x 10 uniform points at 6.6e13
#: (2.7e15 at one BLAS thread), below :data:`COND_EXACT_FROM`, though its
#: exact condition is 2.7e18, beyond the limit.
SLIVER_QUAD = np.array(
    [
        [-1.3430248613443052, 0.4035487413612183, 3.1071103921430856],
        [-0.19801086864423556, -1.0653547753933417, -1.7129103746594763],
        [1.5016898538741936, -1.78714679265823, -5.806461151638954],
        [0.3860089366900875, -0.30582803815048293, -1.0560805474488817],
    ]
)


def test_condition_of_a_sliver_the_checkerboard_misses_is_exact_and_refused():
    mesh = InterfaceMesh(SLIVER_QUAD, np.arange(4)[None], ElementKind.QUAD4)
    layout, family = PointLayout(LayoutKind.UNIFORM, 10), KernelFamily.INV_MULTIQUADRIC
    epsilon = 3.866603858789148
    fit = fit_interpolants(mesh, [0], layout, family, epsilon=epsilon)
    gram = summed_square_gram(fit, 0)
    alone = np.linalg.solve(gram, checkerboard(mesh.kind, layout.n_per_edge))
    assert np.linalg.norm(gram, 1) * np.abs(alone).max() < COND_EXACT_FROM
    (exact,) = check_condition_oracle(fit, mesh.kind, layout)
    assert fit.condition[0] == exact > COND_LIMIT
    assert basis_diagnostics(mesh, 0, layout, family, epsilon=epsilon).unstable


def test_default_fits_solve_for_no_inverse(monkeypatch):
    # the default Gaussian fits of the warped 12/8 pair (condition about
    # 2e16) solve for their weights and the three probes only
    widths = []
    solve_each = rbf._solve_each

    def spy(gram, rhs):
        widths.append(rhs.shape[1])
        return solve_each(gram, rhs)

    monkeypatch.setattr(rbf, "_solve_each", spy)
    warp = sine_bump(0.1)
    pair = surface_pair(12, 8, warp_master=warp, warp_slave=warp)
    assemble(InterfacePair(*pair), MortarConfig())
    assert widths and set(widths) == {ElementKind.QUAD4.n_nodes + 3}


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize(
    "mesh",
    [
        segment_pair(3, 2, ElementKind.SEG3)[0],
        surface_pair(3, 2, ElementKind.QUAD8, warp_master=sine_bump(0.1))[0],
    ],
    ids=["seg3", "warped_quad8"],
)
def test_one_element_fit_is_its_element_of_the_batch(mesh, family):
    layout = PointLayout("sine", 5)
    batch = fit_interpolants(mesh, np.arange(mesh.n_elems), layout, family)
    for elem in range(mesh.n_elems):
        alone = fit_master_interpolant(mesh, elem, layout, family)
        assert alone.family is batch.family is family
        for field in ("points", "epsilon", "weights", "condition"):
            one, all_ = getattr(alone, field), getattr(batch, field)
            assert one.shape == (1,) + all_.shape[1:]
            assert not one.flags.writeable and not all_.flags.writeable
            np.testing.assert_array_equal(one[0], all_[elem])


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_one_element_evaluation_reads_the_first_interpolant(family):
    mesh = surface_pair(3, 2, ElementKind.QUAD4, warp_master=sine_bump(0.1))[0]
    batch = fit_interpolants(mesh, [4, 1], PointLayout(n_per_edge=5), family)
    probes = physical_points(mesh, 4, halton_reference_points(ElementKind.QUAD4, 30))
    probes[-1] += 50.0  # out of every kernel's support but the inverse multiquadric's
    values, ok = evaluate_rescaled_masked(batch, probes)
    expected = evaluate_interpolants(batch, np.zeros(len(probes), dtype=np.int64), probes)
    np.testing.assert_array_equal(values, expected[0])
    np.testing.assert_array_equal(ok, expected[1])
    with pytest.raises(ValueError, match="shape"):
        evaluate_rescaled_masked(batch, probes[:, :2])


@pytest.mark.parametrize(
    "pair",
    [
        segment_pair(21, 14),
        surface_pair(4, 3, warp_master=sine_bump(0.1), warp_slave=sine_bump(0.1)),
    ],
    ids=["seg2", "warped_quad4"],
)
def test_chunk_size_does_not_change_the_matrices(pair, monkeypatch):
    pair = InterfacePair(*pair)
    whole = assemble(pair, MortarConfig())
    # one fit per chunk, and one to six (point, master) pairs per chunk
    monkeypatch.setattr(rbf, "_CHUNK_ENTRIES", 40)
    chunked = assemble(pair, MortarConfig())
    assert (whole.coupling != chunked.coupling).nnz == 0
    assert (whole.slave_mass != chunked.slave_mass).nnz == 0


def one_element_per_chunk(monkeypatch, workers):
    """Chunks of one element or query, shared out over ``workers``."""
    monkeypatch.setattr(rbf, "_CHUNK_ENTRIES", 1)
    monkeypatch.setattr(rbf, "_workers", lambda: workers)


def fit_and_evaluate(mesh, elems, layout, family, epsilon=None):
    """A fit of ``elems`` and its values at points in and around each
    element, one of them far off the mesh."""
    fit = fit_interpolants(mesh, elems, layout, family, epsilon=epsilon)
    ref = 1.2 * halton_reference_points(mesh.kind, 7)
    queries = element_geometry(mesh, ref, elems)[0].reshape(-1, mesh.nodes.shape[1])
    queries[-1] += 1e3
    owner = np.repeat(np.arange(len(elems)), len(ref))
    return fit, evaluate_interpolants(fit, owner, queries)


def assert_same_fit_and_values(one, other):
    (fit, (values, ok)), (fit_other, (values_other, ok_other)) = one, other
    for field in ("points", "epsilon", "weights", "condition"):
        np.testing.assert_array_equal(getattr(fit, field), getattr(fit_other, field))
    np.testing.assert_array_equal(values, values_other)
    np.testing.assert_array_equal(ok, ok_other)


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize(
    "mesh",
    [
        segment_pair(30, 20)[0],
        segment_pair(20, 13, ElementKind.SEG3)[0],
        surface_pair(6, 4, warp_master=sine_bump(0.1))[0],
        surface_pair(4, 3, ElementKind.QUAD8, warp_master=sine_bump(0.1))[0],
    ],
    ids=["seg2", "seg3", "warped_quad4", "warped_quad8"],
)
def test_fits_and_values_do_not_depend_on_chunks_or_workers(mesh, family, monkeypatch):
    layout, elems = PointLayout("sine", 6), np.arange(mesh.n_elems)
    default = fit_and_evaluate(mesh, elems, layout, family)
    one_element_per_chunk(monkeypatch, workers=1)
    serial = fit_and_evaluate(mesh, elems, layout, family)
    assert_same_fit_and_values(serial, default)
    # more workers than CPUs, switching threads often
    one_element_per_chunk(monkeypatch, workers=4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        shared = fit_and_evaluate(mesh, elems, layout, family)
    finally:
        sys.setswitchinterval(interval)
    assert_same_fit_and_values(serial, shared)


def hold_caller_until_a_pool_chunk(monkeypatch, name, pool_call):
    """Wrap ``rbf.<name>`` so that the calling thread's calls wait until a
    pool thread has called it with ``pool_call(result)`` true; returns
    the results of the pool threads' calls."""
    caller, done, pool_results = threading.get_ident(), threading.Event(), []
    inner = getattr(rbf, name)

    def wrapped(*args):
        if threading.get_ident() == caller:
            assert done.wait(timeout=30), "no pool thread ran the chunk"
            return inner(*args)
        result = inner(*args)
        pool_results.append(result)
        if pool_call(result):
            done.set()
        return result

    monkeypatch.setattr(rbf, name, wrapped)
    return pool_results


@pytest.mark.parametrize(
    "mesh, layout, family, epsilon, elems",
    [
        (far_apart_segments(), PointLayout(), KernelFamily.GAUSSIAN, 1e12, np.arange(5)),
        (
            InterfaceMesh(SLIVER_QUAD, np.arange(4)[None], ElementKind.QUAD4),
            PointLayout(LayoutKind.UNIFORM, 10),
            KernelFamily.INV_MULTIQUADRIC,
            3.866603858789148,
            np.zeros(3, dtype=np.int64),
        ),
    ],
    ids=["exactly_singular", "exact_condition"],
)
def test_singular_and_exact_condition_fits_in_a_pool_chunk(
    mesh, layout, family, epsilon, elems, monkeypatch
):
    one_element_per_chunk(monkeypatch, workers=1)
    serial = fit_and_evaluate(mesh, elems, layout, family, epsilon)
    one_element_per_chunk(monkeypatch, workers=3)
    n_points = layout.n_per_edge**mesh.kind.ref_dim
    # a NaN solution is a singular fit; an n_points-wide one is an inverse
    solved = hold_caller_until_a_pool_chunk(
        monkeypatch,
        "_solve_each",
        lambda x: np.isnan(x).any() or x.shape[2] == n_points,
    )
    shared = fit_and_evaluate(mesh, elems, layout, family, epsilon)
    assert_same_fit_and_values(serial, shared)
    condition = serial[0].condition
    if np.isinf(condition).any():
        np.testing.assert_array_equal(np.isinf(condition), [0, 0, 1, 0, 1])
        assert any(np.isnan(x).all() for x in solved)
    else:
        assert (condition > COND_LIMIT).all()
        assert any(x.shape[2] == n_points for x in solved)


def test_an_exception_in_a_pool_chunk_reaches_the_caller(monkeypatch):
    mesh = surface_pair(4, 3, warp_master=sine_bump(0.1))[0]
    fit = fit_interpolants(mesh, [0], PointLayout(), KernelFamily.GAUSSIAN)
    one_element_per_chunk(monkeypatch, workers=2)
    caller, raised, kernel = threading.get_ident(), threading.Event(), rbf._kernel

    def kernel_failing_in_the_pool(*args):
        if threading.get_ident() == caller:
            assert raised.wait(timeout=30), "no pool thread ran a chunk"
            return kernel(*args)
        raised.set()
        raise FloatingPointError("a pool chunk failed")

    monkeypatch.setattr(rbf, "_kernel", kernel_failing_in_the_pool)
    with pytest.raises(FloatingPointError, match="a pool chunk failed"):
        fit_interpolants(mesh, np.arange(mesh.n_elems), PointLayout(), KernelFamily.GAUSSIAN)
    raised.clear()
    with pytest.raises(FloatingPointError, match="a pool chunk failed"):
        evaluate_interpolants(fit, np.zeros(20, dtype=np.int64), mesh.nodes[:20])


def test_a_single_chunk_call_starts_no_thread(monkeypatch):
    # the size of the poisson_split benchmark's seg2 interface, 256 masters
    monkeypatch.setattr(rbf, "_workers", lambda: 4)

    def no_pool(pid):
        raise AssertionError("a single-chunk call asked for the thread pool")

    monkeypatch.setattr(rbf, "_pool", no_pool)
    assemble(InterfacePair(*segment_pair(256, 171)), MortarConfig())


def assemble_warped_12_8():
    warp = sine_bump(0.1)
    pair = surface_pair(12, 8, warp_master=warp, warp_slave=warp)
    return assemble(InterfacePair(*pair), MortarConfig())


def send_warped_matrices(queue):
    matrices = assemble_warped_12_8()
    queue.put((matrices.coupling, matrices.slave_mass))


def assert_bitwise_equal(matrix, other):
    assert matrix.format == other.format and matrix.shape == other.shape
    for field in ("data", "indices", "indptr"):
        one, two = getattr(matrix, field), getattr(other, field)
        assert one.dtype == two.dtype and one.tobytes() == two.tobytes()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork here"
)
def test_a_forked_child_fits_on_threads_of_its_own(monkeypatch):
    # two workers, so that the parent's pool runs even on one CPU; the
    # child inherits the count, and the parent's pool threads do not exist
    # in it
    monkeypatch.setattr(rbf, "_workers", lambda: 2)
    parent = assemble_warped_12_8()
    assert any(t.name.startswith("mortar-rbf") for t in threading.enumerate())
    context = multiprocessing.get_context("fork")
    queue = context.Queue()
    child = context.Process(target=send_warped_matrices, args=(queue,))
    # Python 3.12 and later warn of a fork while threads run, as here
    forking = (
        pytest.warns(DeprecationWarning, match="fork")
        if sys.version_info >= (3, 12)
        else contextlib.nullcontext()
    )
    with forking:
        child.start()
    try:
        coupling, slave_mass = queue.get(timeout=60)  # raises if the child hangs
        child.join(timeout=60)
        assert not child.is_alive() and child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
            child.join(timeout=10)
    assert_bitwise_equal(parent.coupling, coupling)
    assert_bitwise_equal(parent.slave_mass, slave_mass)


def test_probes_are_made_once_per_kind_and_layout():
    layout = PointLayout("sine", 5)
    probes = rbf._probes(ElementKind.QUAD4, layout)
    assert probes is rbf._probes(ElementKind.QUAD4, PointLayout("sine", 5))
    assert not probes.flags.writeable
    np.testing.assert_array_equal(probes, rbf._probes.__wrapped__(ElementKind.QUAD4, layout))


def test_gaussian_rmse_improves_with_more_points():
    mesh, _ = segment_pair(2, 3, ElementKind.SEG3)
    coarse = basis_diagnostics(mesh, 0, PointLayout(n_per_edge=3), KernelFamily.GAUSSIAN)
    fine = basis_diagnostics(mesh, 0, PointLayout(n_per_edge=6), KernelFamily.GAUSSIAN)
    assert fine.rmse < coarse.rmse
    assert fine.condition_estimate > coarse.condition_estimate


def test_quadratic_basis_interpolation_error_bounds():
    # Frozen from a verified run: a quadratic segment basis fitted with 6
    # Gauss-kernel points reproduces the endpoint basis functions to about
    # 9e-4 sup and the interior bubble to about 2e-3.
    mesh = segment_mesh(1, ElementKind.SEG3, span=(0.0, 2.0))
    interp = fit_master_interpolant(
        mesh, 0, PointLayout(n_per_edge=6), KernelFamily.GAUSSIAN
    )
    ref = np.linspace(-1.0, 1.0, 201).reshape(-1, 1)
    values = evaluate_all(interp, physical_points(mesh, 0, ref))
    exact = shape_values(ElementKind.SEG3, ref)
    errors = np.abs(values - exact)
    endpoint_sup = max(errors[:, 0].max(), errors[:, 2].max())
    bubble_sup = errors[:, 1].max()
    assert 1e-5 < endpoint_sup < 5e-3
    assert 1e-4 < bubble_sup < 1e-2
    # Collocation includes the element ends, so the error vanishes there.
    assert errors[0].max() < 1e-12 and errors[-1].max() < 1e-12


@settings(deadline=None, max_examples=20)
@given(
    n=st.integers(min_value=2, max_value=8),
    variant=st.sampled_from(list(LayoutKind)),
    kind=st.sampled_from(list(ElementKind)),
)
def test_interpolation_points_stay_in_reference_domain(n, variant, kind):
    check_layout(kind, PointLayout(variant, n))
