import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mortar_rbf.elements import ElementKind, shape_values
from mortar_rbf.errors import IllConditionedKernelError
from mortar_rbf import rbf
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
    master, slave = segment_pair(1, 2, span=(0.0, 1.0))
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
