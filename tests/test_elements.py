import numpy as np
import pytest
from hypothesis import given, strategies as st

from mortar_rbf.elements import (
    ElementKind,
    gauss_rule,
    min_gauss_points,
    node_reference_coords,
    shape_gradients,
    shape_values,
    triangle_rule_for_degree,
)

from reference_assembly import shape_second_derivatives

ALL_KINDS = list(ElementKind)


def reference_samples(kind, n=40, seed=0):
    """Random points inside the reference domain of the element."""
    rng = np.random.default_rng(seed)
    if kind.ref_dim == 1:
        return rng.uniform(-1.0, 1.0, (n, 1))
    if kind is ElementKind.TRI3:
        u = rng.uniform(0.0, 1.0, (n, 2))
        over = u.sum(axis=1) > 1.0
        u[over] = 1.0 - u[over]
        return u
    return rng.uniform(-1.0, 1.0, (n, 2))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_shape_values_are_nodal(kind):
    coords = node_reference_coords(kind)
    assert coords.shape == (kind.n_nodes, kind.ref_dim)
    values = shape_values(kind, coords)
    np.testing.assert_allclose(values, np.eye(kind.n_nodes), atol=1e-14)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_partition_of_unity(kind):
    pts = reference_samples(kind)
    sums = shape_values(kind, pts).sum(axis=1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-13)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_gradients_match_finite_differences(kind):
    pts = reference_samples(kind, n=15, seed=3) * 0.9
    grads = shape_gradients(kind, pts)
    step = 1e-6
    for axis in range(kind.ref_dim):
        shift = np.zeros(kind.ref_dim)
        shift[axis] = step
        fd = (shape_values(kind, pts + shift) - shape_values(kind, pts - shift)) / (
            2.0 * step
        )
        np.testing.assert_allclose(grads[..., axis], fd, atol=5e-9)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_second_derivatives_match_finite_differences(kind):
    pts = reference_samples(kind, n=10, seed=7) * 0.9
    hess = shape_second_derivatives(kind, pts)
    step = 1e-5
    for a in range(kind.ref_dim):
        shift = np.zeros(kind.ref_dim)
        shift[a] = step
        fd = (
            shape_gradients(kind, pts + shift) - shape_gradients(kind, pts - shift)
        ) / (2.0 * step)
        np.testing.assert_allclose(hess[..., a], fd, atol=5e-8)


def test_evaluation_rejects_far_outside_points():
    with pytest.raises(ValueError):
        shape_values(ElementKind.SEG2, [[2.0]])
    # Mildly outside is allowed for projection and probing.
    shape_values(ElementKind.SEG2, [[1.4]])


@pytest.mark.parametrize("kind", [ElementKind.SEG2, ElementKind.QUAD4])
@pytest.mark.parametrize(
    "func", [shape_values, shape_gradients, shape_second_derivatives]
)
def test_evaluation_takes_point_arrays_only(kind, func):
    # one point is a (1, ref_dim) array; a scalar or a bare coordinate row
    # is refused rather than squeezed
    func(kind, np.zeros((1, kind.ref_dim)))
    for point in (0.0, np.zeros(kind.ref_dim), np.zeros((1, kind.ref_dim + 1))):
        with pytest.raises(ValueError, match="expected points of shape"):
            func(kind, point)


def test_segment_rule_exactness():
    for n in (1, 2, 5, 10, 16):
        rule = gauss_rule(ElementKind.SEG2, n)
        assert rule.degree == 2 * n - 1
        for power in range(rule.degree + 1):
            integral = float(rule.weights @ rule.points[:, 0] ** power)
            exact = 0.0 if power % 2 else 2.0 / (power + 1)
            assert integral == pytest.approx(exact, abs=1e-13)


def test_quad_rule_is_tensor_product():
    rule = gauss_rule(ElementKind.QUAD4, 9)
    assert rule.points.shape == (9, 2)
    assert rule.weights.sum() == pytest.approx(4.0)
    # Exact for x^a y^b with a, b <= 5
    x, y = rule.points[:, 0], rule.points[:, 1]
    for a, b in ((2, 4), (5, 5), (3, 1)):
        integral = float(rule.weights @ (x**a * y**b))
        exact_1d = lambda p: 0.0 if p % 2 else 2.0 / (p + 1)
        assert integral == pytest.approx(exact_1d(a) * exact_1d(b), abs=1e-13)


def tri_monomial_integral(a, b):
    # int_T x^a y^b over the unit simplex
    from math import factorial

    return factorial(a) * factorial(b) / factorial(a + b + 2)


@pytest.mark.parametrize("n_points", [1, 3, 6, 7, 12])
def test_triangle_rules_match_monomial_integrals(n_points):
    rule = gauss_rule(ElementKind.TRI3, n_points)
    assert rule.weights.sum() == pytest.approx(0.5, abs=1e-14)
    assert np.all(rule.weights > 0.0)
    x, y = rule.points[:, 0], rule.points[:, 1]
    for a in range(rule.degree + 1):
        for b in range(rule.degree + 1 - a):
            integral = float(rule.weights @ (x**a * y**b))
            assert integral == pytest.approx(
                tri_monomial_integral(a, b), abs=1e-14
            ), (a, b)


def test_triangle_rule_for_degree_picks_smallest():
    assert triangle_rule_for_degree(1).points.shape[0] == 1
    assert triangle_rule_for_degree(2).points.shape[0] == 3
    assert triangle_rule_for_degree(4).points.shape[0] == 6
    assert triangle_rule_for_degree(6).points.shape[0] == 12
    with pytest.raises(ValueError):
        triangle_rule_for_degree(7)


def test_gauss_rule_rejects_bad_counts():
    with pytest.raises(ValueError):
        gauss_rule(ElementKind.SEG2, 0)
    with pytest.raises(ValueError):
        gauss_rule(ElementKind.SEG2, 65)
    with pytest.raises(ValueError):
        gauss_rule(ElementKind.QUAD4, 5)
    with pytest.raises(ValueError):
        gauss_rule(ElementKind.TRI3, 4)
    with pytest.raises(ValueError):
        gauss_rule(ElementKind.QUAD4, 0)
    with pytest.raises(ValueError, match="2.5"):
        gauss_rule(ElementKind.SEG2, 2.5)
    with pytest.raises(ValueError, match="3.0"):
        gauss_rule(ElementKind.TRI3, 3.0)
    with pytest.raises(ValueError, match="4.0"):
        gauss_rule(ElementKind.QUAD4, 4.0)


def test_min_gauss_points():
    assert min_gauss_points(ElementKind.SEG2) == 2
    assert min_gauss_points(ElementKind.SEG3) == 3
    assert min_gauss_points(ElementKind.TRI3) == 3
    assert min_gauss_points(ElementKind.QUAD4) == 4
    assert min_gauss_points(ElementKind.QUAD8) == 9


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_min_gauss_rule_integrates_basis_products_exactly(kind):
    """The minimum rule integrates every N_i N_j on the reference element
    exactly, checked against a 64-point (12 on triangles) rule."""
    reference = gauss_rule(kind, 12 if kind is ElementKind.TRI3 else 64)
    rule = gauss_rule(kind, min_gauss_points(kind))

    def products(rule):
        values = shape_values(kind, rule.points)
        return np.einsum("q,qi,qj->ij", rule.weights, values, values)

    np.testing.assert_allclose(products(rule), products(reference), atol=1e-15)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_mid_nodes_sit_halfway_between_their_corners(kind):
    coords = node_reference_coords(kind)
    for mid, a, b in kind.mid_nodes:
        np.testing.assert_array_equal(coords[mid], (coords[a] + coords[b]) / 2.0)
    mids = [mid for mid, _, _ in kind.mid_nodes]
    corners = {c for _, a, b in kind.mid_nodes for c in (a, b)}
    if kind.degree == 1:
        assert mids == []
    else:
        assert sorted(mids + list(corners)) == list(range(kind.n_nodes))


@given(n=st.integers(min_value=1, max_value=64))
def test_segment_weights_sum_to_interval_length(n):
    rule = gauss_rule(ElementKind.SEG2, n)
    assert float(rule.weights.sum()) == pytest.approx(2.0, abs=1e-12)
    assert np.all(np.abs(rule.points) < 1.0)
