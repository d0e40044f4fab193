import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import sparse
from scipy.sparse.linalg import splu

from mortar_rbf import poisson
from mortar_rbf.errors import SolverFailureError
from mortar_rbf.meshes import VolumeMesh, rectangle_mesh, split_unit_square
from mortar_rbf.mortar import MortarConfig, Scheme
from mortar_rbf.poisson import (
    PoissonProblem,
    assemble_load,
    assemble_stiffness,
    broken_norms,
    build_system,
    solve,
    solve_condensed,
    solve_saddle,
    solve_single_domain,
)

UNIT_TRIANGLE = VolumeMesh(
    np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
    np.array([[0, 1, 2]]),
)


def zero_source(x, y):
    return np.zeros_like(x)


def bubble_source(x, y):
    return 32.0 * (x * (1.0 - x) + y * (1.0 - y))


def bubble_exact(x, y):
    return 16.0 * x * y * (1.0 - x) * (1.0 - y)


def bubble_gradient(x, y):
    gx = 16.0 * y * (1.0 - y) * (1.0 - 2.0 * x)
    gy = 16.0 * x * (1.0 - x) * (1.0 - 2.0 * y)
    return np.stack([gx, gy], axis=-1)


def split_problem(n_master, n_slave, **kwargs):
    master, slave = split_unit_square(n_master, n_slave)
    return PoissonProblem(master, slave, **kwargs)


def test_unit_triangle_stiffness_matches_closed_form():
    expected = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    np.testing.assert_allclose(
        assemble_stiffness(UNIT_TRIANGLE).toarray(), expected, atol=1e-15
    )


def test_unit_triangle_constant_load():
    load = assemble_load(UNIT_TRIANGLE, lambda x, y: np.ones_like(x))
    np.testing.assert_allclose(load, 1.0 / 6.0, atol=1e-15)


def test_stiffness_annihilates_constants():
    mesh = rectangle_mesh(3, 4)
    stiffness = assemble_stiffness(mesh)
    np.testing.assert_allclose(stiffness @ np.ones(mesh.n_nodes), 0.0, atol=1e-13)


def test_zero_data_gives_zero_solution():
    fields = solve(split_problem(4, 3, source=zero_source))
    assert np.abs(fields.master_values).max() < 1e-14
    assert np.abs(fields.slave_values).max() < 1e-14
    assert fields.constraint_residual < 1e-14


def linear_problem(n_master, n_slave):
    def linear(x, y):
        return 1.0 + 2.0 * x + 3.0 * y

    return split_problem(
        n_master,
        n_slave,
        source=zero_source,
        dirichlet=linear,
        exact=linear,
        exact_gradient=lambda x, y: np.stack(
            [np.full_like(x, 2.0), np.full_like(x, 3.0)], axis=-1
        ),
    )


@pytest.mark.parametrize("scheme", ["sb", "eb", "rb"])
def test_linear_data_is_reproduced_to_discretization_accuracy(scheme):
    # Interface endpoints on the outer boundary keep their multiplier, so a
    # linear field is not reproduced identically; the consistency error it
    # causes is local to the cross points and vanishes under refinement.
    coarse = broken_norms(
        linear_problem(4, 3), solve(linear_problem(4, 3), MortarConfig(scheme=scheme))
    )
    fine = broken_norms(
        linear_problem(16, 12),
        solve(linear_problem(16, 12), MortarConfig(scheme=scheme)),
    )
    assert coarse.l2_broken < 1e-2
    assert fine.l2_broken < 1e-3
    assert coarse.l2_broken / fine.l2_broken > 4.0


def test_linear_data_is_exact_on_pinned_boundaries():
    problem = linear_problem(4, 3)
    fields = solve(problem, MortarConfig(scheme=Scheme.SB1D))
    exact = 1.0 + 2.0 * problem.master.nodes[:, 0] + 3.0 * problem.master.nodes[:, 1]
    pinned = problem.master.tagged_nodes("dirichlet")
    np.testing.assert_allclose(fields.master_values[pinned], exact[pinned], atol=1e-12)
    assert fields.constraint_residual < 1e-12


@pytest.mark.parametrize(
    "problem",
    [
        pytest.param(lambda: split_problem(6, 4, source=bubble_source), id="bubble"),
        # non-zero Dirichlet data: the pinned master interface endpoints
        # enter the condensed reconstruction through its affine shift
        pytest.param(lambda: linear_problem(6, 4), id="linear"),
        # every condensed dof is pinned or linked: the restriction has no
        # free dof, while the saddle system keeps its multipliers
        pytest.param(lambda: linear_problem(1, 1), id="tiny-1-1"),
        pytest.param(lambda: linear_problem(1, 2), id="tiny-1-2"),
        # both master interface nodes are pinned: the condensed link block
        # has no free column, so the restriction adds no link term
        pytest.param(lambda: linear_problem(1, 4), id="tiny-1-4"),
    ],
)
@pytest.mark.parametrize("scheme", ["rb", "eb", "sb"])
def test_saddle_and_condensed_paths_agree(scheme, problem):
    system = build_system(problem(), MortarConfig(scheme=scheme))
    saddle = solve_saddle(system)
    condensed = solve_condensed(system)
    for values in (condensed.master_values, condensed.slave_values):
        assert np.all(np.isfinite(values))
    np.testing.assert_allclose(
        saddle.master_values, condensed.master_values, atol=1e-10
    )
    np.testing.assert_allclose(saddle.slave_values, condensed.slave_values, atol=1e-10)
    np.testing.assert_allclose(saddle.multipliers, condensed.multipliers, atol=1e-8)
    assert saddle.constraint_residual < 1e-10
    assert condensed.constraint_residual < 1e-10


def curved_split_problem(n_master, n_slave):
    """The benchmark's split square: a curved interface, the bubble source."""
    master, slave = split_unit_square(
        n_master, n_slave, interface_offset=lambda x: 0.05 * np.sin(np.pi * x)
    )
    return PoissonProblem(master, slave, bubble_source)


def test_coupled_stiffness_is_the_block_diagonal_of_both_subdomains():
    problem = curved_split_problem(16, 11)
    system = build_system(problem, MortarConfig(scheme="rb"))
    expected = sparse.block_diag(
        [assemble_stiffness(problem.master), assemble_stiffness(problem.slave)],
        format="csr",
    )
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(
            getattr(system.stiffness, name), getattr(expected, name)
        )


def assert_exactly_symmetric(matrix):
    mirror = matrix.T.tocsr()
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(mirror, name), getattr(matrix, name))


@pytest.fixture
def factored(monkeypatch):
    """Every matrix ``_checked_solve`` receives; inside it a CSR to CSC
    conversion raises, so SuperLU must read the CSR arrays as they are."""
    matrices = []
    checked_solve = poisson._checked_solve

    def refuse(self, copy=False):
        raise AssertionError("_checked_solve converted its matrix to CSC")

    def spy(matrix, rhs):
        matrices.append(matrix)
        with monkeypatch.context() as patch:
            patch.setattr(sparse.csr_matrix, "tocsc", refuse)
            return checked_solve(matrix, rhs)

    monkeypatch.setattr(poisson, "_checked_solve", spy)
    return matrices


@pytest.mark.parametrize("solver", [solve_condensed, solve_saddle])
def test_restricted_systems_store_no_zeros(factored, solver):
    # right-angle triangles cancel to exact zeros in the stiffness; the
    # restriction drops them, as the sparse product Pᵀ (A P) does, so the
    # fill-reducing order sees the pattern of the nonzero entries only
    system = build_system(curved_split_problem(32, 21), MortarConfig(scheme="rb"))
    assert np.any(system.stiffness.data == 0.0)
    solver(system)
    (matrix,) = factored
    assert matrix.has_canonical_format
    assert np.all(matrix.data != 0.0)


@pytest.mark.parametrize("n_master, n_slave", [(16, 11), (256, 171)])
@pytest.mark.parametrize("scheme", ["rb", "eb", "sb"])
def test_coupled_systems_are_factored_exactly_symmetric(
    factored, scheme, n_master, n_slave
):
    # sb needs a straight interface; rb and eb run on the benchmark's curve
    if scheme == "sb":
        problem = split_problem(n_master, n_slave, source=bubble_source)
    else:
        problem = curved_split_problem(n_master, n_slave)
    system = build_system(problem, MortarConfig(scheme=scheme))
    solve_saddle(system)
    solve_condensed(system)
    assert len(factored) == 2
    for matrix in factored:
        assert_exactly_symmetric(matrix)


@pytest.mark.parametrize("cells", [16, 256])
def test_single_mesh_system_is_factored_exactly_symmetric(factored, cells):
    solve_single_domain(rectangle_mesh(cells, cells), bubble_source)
    (matrix,) = factored
    assert_exactly_symmetric(matrix)


def test_saddle_factor_fills_less_than_superlu_defaults(monkeypatch):
    fills = []

    def spy(matrix, **options):
        factor, default = splu(matrix, **options), splu(matrix)
        fills.append((factor.L.nnz + factor.U.nnz, default.L.nnz + default.U.nnz))
        return factor

    system = build_system(curved_split_problem(32, 21), MortarConfig(scheme="rb"))
    monkeypatch.setattr(poisson, "splu", spy)
    solve_saddle(system)
    ((fill, default_fill),) = fills
    assert fill < default_fill


@pytest.mark.parametrize("scheme", ["rb", "eb"])
def test_saddle_and_condensed_paths_agree_on_a_curved_interface(scheme):
    # measured gaps on the 32/21 square: 1.4e-14 (rb) and 6.2e-15 (eb)
    system = build_system(curved_split_problem(32, 21), MortarConfig(scheme=scheme))
    saddle, condensed = solve_saddle(system), solve_condensed(system)
    np.testing.assert_allclose(
        saddle.master_values, condensed.master_values, rtol=0.0, atol=1e-12
    )
    np.testing.assert_allclose(
        saddle.slave_values, condensed.slave_values, rtol=0.0, atol=1e-12
    )
    np.testing.assert_allclose(saddle.multipliers, condensed.multipliers, atol=1e-10)
    assert saddle.constraint_residual < 1e-12


@pytest.mark.parametrize("n_slave", [1, 2])
@pytest.mark.parametrize("scheme", ["rb", "eb", "sb"])
def test_zero_master_trace_reports_the_unscaled_defect(scheme, n_slave):
    # one master cell pins its whole interface row to the zero Dirichlet
    # data, so D u_master = 0 and the saddle defect is pure roundoff
    system = build_system(
        split_problem(1, n_slave, source=bubble_source), MortarConfig(scheme=scheme)
    )
    saddle, condensed = solve_saddle(system), solve_condensed(system)
    assert np.abs(saddle.master_values[system.master_binding.volume_nodes]).max() == 0.0
    assert saddle.constraint_residual < 1e-15
    assert condensed.constraint_residual == 0.0


def test_traces_satisfy_the_mortar_constraint():
    system = build_system(split_problem(5, 3, source=bubble_source), MortarConfig())
    fields = solve_condensed(system)
    master_trace = fields.master_values[system.master_binding.volume_nodes]
    slave_trace = fields.slave_values[system.slave_binding.volume_nodes]
    assert master_trace.shape == (6,)
    assert slave_trace.shape == (4,)
    assert fields.multipliers.shape == slave_trace.shape
    assert fields.constraint_residual < 1e-10
    defect = (
        system.mortar.slave_mass @ slave_trace - system.mortar.coupling @ master_trace
    )
    assert np.max(np.abs(defect)) < 1e-10


def test_conforming_coupling_matches_merged_mesh():
    master, slave = split_unit_square(4, 4)
    problem = PoissonProblem(master, slave, source=bubble_source)
    fields = solve(problem, MortarConfig(scheme=Scheme.SB1D))

    merged = rectangle_mesh(4, 4)
    merged_values = solve_single_domain(merged, bubble_source)
    lookup = {
        (round(x, 12), round(y, 12)): value
        for (x, y), value in zip(merged.nodes, merged_values)
    }
    for mesh, values in ((master, fields.master_values), (slave, fields.slave_values)):
        for (x, y), value in zip(mesh.nodes, values):
            assert value == pytest.approx(lookup[(round(x, 12), round(y, 12))], abs=1e-9)


# on one square every node lies on the Dirichlet boundary: no dof is free
@pytest.mark.parametrize("cells", [(5, 4), (1, 1)], ids=["5x4", "1x1"])
def test_single_domain_reproduces_linear_dirichlet_data(cells):
    # a linear field is in the P1 space, so eliminating its non-zero
    # boundary values must give it back to roundoff
    def linear(x, y):
        return 1.0 + x + 2.0 * y

    mesh = rectangle_mesh(*cells)
    values = solve_single_domain(mesh, zero_source, linear)
    exact = linear(mesh.nodes[:, 0], mesh.nodes[:, 1])
    np.testing.assert_allclose(values, exact, rtol=0.0, atol=1e-12)


SOLVES = {
    "condensed": lambda problem: solve(problem),
    "saddle": lambda problem: solve_saddle(build_system(problem, MortarConfig())),
    "single": lambda problem: solve_single_domain(
        rectangle_mesh(6, 6), problem.source, problem.dirichlet
    ),
}


def solved_values(fields):
    if isinstance(fields, np.ndarray):
        return fields
    return np.concatenate([fields.master_values, fields.slave_values])


@pytest.mark.parametrize("path", SOLVES)
def test_constant_dirichlet_callback_applies_to_every_node(path):
    # a constant is reproduced by the P1 space and by the mortar transfer
    problem = split_problem(8, 5, source=zero_source, dirichlet=lambda x, y: 1.0)
    values = solved_values(SOLVES[path](problem))
    np.testing.assert_allclose(values, 1.0, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("path", SOLVES)
@pytest.mark.parametrize(
    "dirichlet, message",
    [
        pytest.param(lambda x, y: np.ones(3), "shape", id="too-few"),
        pytest.param(lambda x, y: np.ones((len(x), 1)), "shape", id="column"),
        pytest.param(lambda x, y: np.full_like(x, np.nan), "non-finite", id="nan"),
        pytest.param(
            lambda x, y: np.where(x > 0.5, np.inf, 0.0), "non-finite", id="inf"
        ),
    ],
)
def test_dirichlet_callback_must_give_one_finite_value_per_node(
    path, dirichlet, message
):
    problem = split_problem(8, 5, source=zero_source, dirichlet=dirichlet)
    with pytest.raises(ValueError, match=f"dirichlet returned {message}"):
        SOLVES[path](problem)


def test_manufactured_solution_converges():
    errors = []
    for n_master, n_slave in ((8, 6), (16, 12)):
        problem = split_problem(
            n_master,
            n_slave,
            source=bubble_source,
            exact=bubble_exact,
            exact_gradient=bubble_gradient,
        )
        report = broken_norms(problem, solve(problem))
        errors.append(report)
    l2_ratio = errors[0].l2_broken / errors[1].l2_broken
    h1_ratio = errors[0].h1_broken / errors[1].h1_broken
    assert 3.2 < l2_ratio < 4.8
    assert 1.6 < h1_ratio < 2.6


def test_broken_norms_need_the_exact_solution():
    problem = split_problem(4, 3, source=bubble_source)
    fields = solve(problem)
    with pytest.raises(ValueError):
        broken_norms(problem, fields)


def test_problem_requires_dirichlet_tags():
    with pytest.raises(ValueError):
        PoissonProblem(UNIT_TRIANGLE, UNIT_TRIANGLE, source=zero_source)


# A nearly singular system whose right-hand side is small next to |A| |x|:
# the LU solution is accurate to roundoff (backward error near 1e-17), but
# its residual is large relative to |b| alone.
NEAR_SINGULAR = sparse.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-9]]))
SMALL_RHS = np.array([0.3e-9, 1.3e-9])


def test_checked_solve_accepts_an_accurate_solve_of_a_small_rhs():
    solution = poisson._checked_solve(NEAR_SINGULAR, SMALL_RHS)
    np.testing.assert_allclose(solution, [-1.0 + 3e-10, 1.0], rtol=1e-6)


def test_checked_solve_rejects_a_wrong_solution(monkeypatch):
    class PerturbedFactor:
        def __init__(self, matrix, **options):
            self.exact = splu(matrix, **options)

        def solve(self, rhs):
            solution = self.exact.solve(rhs)
            solution[0] += 1e-6 * np.max(np.abs(solution))
            return solution

    monkeypatch.setattr(poisson, "splu", PerturbedFactor)
    with pytest.raises(SolverFailureError):
        poisson._checked_solve(NEAR_SINGULAR, SMALL_RHS)
    with pytest.raises(SolverFailureError):
        poisson._checked_solve(sparse.csr_matrix(np.eye(3)), np.ones(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_checked_solve_rejects_a_non_finite_solution(monkeypatch, bad):
    # a NaN residual, or an infinite one against an infinite scale, fails
    # no comparison with the bound
    class SpoiledFactor:
        def __init__(self, matrix, **options):
            self.exact = splu(matrix, **options)

        def solve(self, rhs):
            solution = self.exact.solve(rhs)
            solution[0] = bad
            return solution

    monkeypatch.setattr(poisson, "splu", SpoiledFactor)
    with pytest.raises(SolverFailureError, match="non-finite"):
        poisson._checked_solve(sparse.csr_matrix(np.eye(3)), np.ones(3))


# exactly singular: the first two rows are equal
SINGULAR = sparse.csr_matrix(
    np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
)


def test_checked_solve_names_a_failed_factorization():
    with pytest.raises(SolverFailureError, match="factorization failed"):
        poisson._checked_solve(SINGULAR, np.ones(3))


# --- restriction against the prolongation product ---------------------------


def prolongation(n, fixed, links):
    """The prolongation P of ``poisson._restricted_solve`` as a CSR matrix."""
    is_free = np.ones(n, bool)
    is_free[fixed] = False
    free = np.flatnonzero(is_free)
    column = np.full(n, -1)
    column[free] = np.arange(free.size)
    rows, dofs, block = links
    linked = column[dofs] >= 0
    link_rows, link_columns = np.meshgrid(rows, column[dofs[linked]], indexing="ij")
    return sparse.coo_matrix(
        (
            np.concatenate([np.ones(free.size), block[:, linked].ravel()]),
            (
                np.concatenate([free, link_rows.ravel()]),
                np.concatenate([np.arange(free.size), link_columns.ravel()]),
            ),
        ),
        shape=(n, free.size),
    ).tocsr()


def random_restriction(n, n_fixed, n_rows, n_dofs, explicit_zeros, draw_seed):
    """A sparse SPD matrix with a right-hand side, ``n_fixed`` fixed dofs
    with their values and links: up to ``n_rows`` distinct fixed link rows,
    up to ``n_dofs`` distinct dofs, fixed ones among them, and a dense
    block over both with about a quarter of exact zeros.  The matrix is
    B + Bᵀ plus a dominant diagonal, so each entry and its mirror hold the
    same bits, as in the P1 stiffness."""
    rng = np.random.default_rng(draw_seed)
    rows, cols = rng.integers(0, n, (2, 2 * n))
    half = sparse.coo_matrix(
        (rng.uniform(-1.0, 1.0, 2 * n), (rows, cols)), shape=(n, n)
    ).tocsr()
    matrix = (half + half.T + (4.0 * n + 1.0) * sparse.eye(n, format="csr")).tocoo()
    parts = [(matrix.row, matrix.col, matrix.data)]
    if explicit_zeros:
        # stored zeros at mirrored places, which the COO to CSR conversion
        # keeps; added to a stored entry, a zero leaves its bits
        i, j = rng.integers(0, n, (2, n))
        parts.append((np.concatenate([i, j]), np.concatenate([j, i]), np.zeros(2 * n)))
    i, j, values = (np.concatenate(part) for part in zip(*parts))
    matrix = sparse.coo_matrix((values, (i, j)), shape=(n, n)).tocsr()
    fixed = rng.choice(n, n_fixed, replace=False)
    link_rows = rng.choice(fixed, min(n_rows, n_fixed), replace=False)
    link_dofs = rng.choice(n, min(n_dofs, n), replace=False)
    block = rng.uniform(-1.0, 1.0, (link_rows.size, link_dofs.size))
    block[rng.random(block.shape) < 0.25] = 0.0
    links = link_rows, link_dofs, block
    return matrix, rng.normal(size=n), fixed, rng.normal(size=n_fixed), links


def assert_close_relative(got, want, rtol=1e-13):
    """Agreement within ``rtol`` of the largest entry of ``want``."""
    scale = np.max(np.abs(want), initial=0.0)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=rtol * scale)


@settings(max_examples=60)
@given(
    n=st.integers(1, 24),
    fixed_share=st.floats(0.0, 1.0),
    n_rows=st.integers(0, 24),
    n_dofs=st.integers(0, 24),
    explicit_zeros=st.booleans(),
    draw_seed=st.integers(0, 2**32 - 1),
)
# a block over every dof, most of them fixed, whose columns are dropped
@example(n=6, fixed_share=0.8, n_rows=4, n_dofs=6, explicit_zeros=False, draw_seed=0)
@example(n=12, fixed_share=0.3, n_rows=0, n_dofs=0,  # no links
         explicit_zeros=False, draw_seed=0)
@example(n=5, fixed_share=1.0, n_rows=4, n_dofs=4,  # no free dof
         explicit_zeros=False, draw_seed=0)
@example(n=5, fixed_share=0.8, n_rows=3, n_dofs=5,  # one free dof
         explicit_zeros=True, draw_seed=0)
@example(n=20, fixed_share=0.3, n_rows=6, n_dofs=12, explicit_zeros=True, draw_seed=0)
@example(n=20, fixed_share=0.3, n_rows=6, n_dofs=12, explicit_zeros=False, draw_seed=0)
def test_restriction_matches_the_prolongation_product(
    n, fixed_share, n_rows, n_dofs, explicit_zeros, draw_seed
):
    matrix, rhs, fixed, values, links = random_restriction(
        n, round(fixed_share * n), n_rows, n_dofs, explicit_zeros, draw_seed
    )
    p = prolongation(n, fixed, links)
    shift = np.zeros(n)
    shift[fixed] = values
    residual = rhs - matrix @ shift
    is_free = np.ones(n, bool)
    is_free[fixed] = False

    # _restricted_solve drops the columns of fixed dofs before restricting
    rows, dofs, block = links
    linked = is_free[dofs]
    restricted, reduced_rhs = poisson._restrict(
        matrix, residual, is_free, (rows, dofs[linked], block[:, linked])
    )
    expected = p.T.tocsr() @ (matrix @ p)
    expected.sort_indices()
    assert restricted.has_canonical_format
    assert_exactly_symmetric(restricted)
    np.testing.assert_array_equal(restricted.indptr, expected.indptr)
    np.testing.assert_array_equal(restricted.indices, expected.indices)
    assert np.all(restricted.data != 0.0)
    if block[:, linked].size == 0:
        # P only selects the free dofs, so Pᵀ (A P) is exact
        np.testing.assert_array_equal(restricted.data, expected.data)
    assert_close_relative(restricted.data, expected.data)
    expected_rhs = p.T @ residual
    assert_close_relative(reduced_rhs, expected_rhs)

    solution = poisson._restricted_solve(matrix, rhs, fixed, values, links)
    expected_solution = shift
    if p.shape[1]:
        expected_solution = shift + p @ np.linalg.solve(
            expected.toarray(), expected_rhs
        )
    assert_close_relative(solution, expected_solution)


def linear_exact(x, y):
    return 1.0 + x + 2.0 * y


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 8: the multiplier space keeps the slave interface ends "
    "on the Dirichlet boundary, so the wall flux at the two corners leaks into "
    "the multipliers",
)
@pytest.mark.parametrize("n_master, n_slave", [(16, 11), (32, 21), (64, 43)])
def test_linear_patch_test_is_exact_with_exact_integrals(n_master, n_slave):
    # u = 1 + x + 2y solves the problem on both halves, and sb integrates
    # the mortar terms exactly, so the coupled solution should be u to
    # rounding and every multiplier the flux -2 across y = 1/2.  The nodal
    # errors read 6.72e-3, 4.73e-3 and 1.99e-3 at these sizes, and the
    # multipliers span [-3.48, -0.52] at 16/11.
    problem = split_problem(
        n_master, n_slave, source=zero_source, dirichlet=linear_exact
    )
    fields = solve_condensed(build_system(problem, MortarConfig(scheme=Scheme.SB1D)))
    error = max(
        np.abs(values - linear_exact(*mesh.nodes.T)).max()
        for values, mesh in (
            (fields.master_values, problem.master),
            (fields.slave_values, problem.slave),
        )
    )
    assert error <= 1e-11
    np.testing.assert_allclose(fields.multipliers, -2.0, rtol=0.0, atol=1e-10)
