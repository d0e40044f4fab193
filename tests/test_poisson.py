import numpy as np
import pytest
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
    ],
)
@pytest.mark.parametrize("scheme", ["rb", "eb", "sb"])
def test_saddle_and_condensed_paths_agree(scheme, problem):
    system = build_system(problem(), MortarConfig(scheme=scheme))
    saddle = solve_saddle(system)
    condensed = solve_condensed(system)
    np.testing.assert_allclose(
        saddle.master_values, condensed.master_values, atol=1e-10
    )
    np.testing.assert_allclose(saddle.slave_values, condensed.slave_values, atol=1e-10)
    np.testing.assert_allclose(saddle.multipliers, condensed.multipliers, atol=1e-8)
    assert saddle.constraint_residual < 1e-10
    assert condensed.constraint_residual < 1e-10


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


def test_single_domain_reproduces_linear_dirichlet_data():
    # a linear field is in the P1 space, so eliminating its non-zero
    # boundary values must give it back to roundoff
    def linear(x, y):
        return 1.0 + x + 2.0 * y

    mesh = rectangle_mesh(5, 4)
    values = solve_single_domain(mesh, zero_source, linear)
    exact = linear(mesh.nodes[:, 0], mesh.nodes[:, 1])
    np.testing.assert_allclose(values, exact, rtol=0.0, atol=1e-12)


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
        def __init__(self, matrix):
            self.exact = splu(matrix)

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
        def __init__(self, matrix):
            self.exact = splu(matrix)

        def solve(self, rhs):
            solution = self.exact.solve(rhs)
            solution[0] = bad
            return solution

    monkeypatch.setattr(poisson, "splu", SpoiledFactor)
    with pytest.raises(SolverFailureError, match="non-finite"):
        poisson._checked_solve(sparse.csr_matrix(np.eye(3)), np.ones(3))
