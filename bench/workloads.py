"""The three benchmark workloads and the correctness gates on their outputs.

Every workload has the same three operations, so every run reports the
same end-to-end metrics:

* ``main``: the paper's path.  An ``rb`` transfer (assemble, transfer
  operator, one transferred field) on the transfer workloads; on
  ``poisson_split`` the ``rb``-coupled condensed solve (``build_system`` and
  ``solve_condensed``).
* ``ref``: the path ``main`` is compared against.  The exact ``sb``
  transfer on ``transfer_1d``, the Newton-projection ``eb`` transfer on
  ``warped_surface`` and the ``eb``-coupled condensed solve on
  ``poisson_split``.
* ``apply``: one already built ``rb`` transfer operator applied to a batch
  of 64 master fields (the reuse path).

``poisson_split`` also probes the ``rb``-coupled saddle-point solve once per
run.  It raises a known ``SolverFailureError`` at this size (see
``limits.json``), so it is reported but not timed in rounds: an operation
that fails in every round would make the failure count depend on how many
rounds fit in the run.

Inputs are generated from the seed alone.  Each workload also has a tiny
``smoke`` size used by the benchmark's own tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

LIMITS = json.loads(Path(__file__).with_name("limits.json").read_text())

#: Number of master fields the ``apply`` operation transfers at once.
BATCH = 64


@dataclass
class Op:
    """One timed operation of a workload.

    ``label`` names its time and ``error_label`` the error norm its check
    measures in the per-workload report.  ``call`` runs it once and returns
    its output; ``check`` returns the gate failures of that output (empty
    when correct) and the error norm, or None where there is none.
    ``calibration`` names the part of the runner's calibration block its
    time is scaled by.
    """

    role: str
    label: str
    error_label: str | None
    call: Callable[[], object]
    check: Callable[[object], tuple[list[str], float | None]]
    calibration: str = "mixed"


@dataclass
class Workload:
    """Generated inputs and the operations that run on them.

    ``probe``, where there is one, is an operation run once after the timed
    rounds, for a path whose outcome is reported but not timed in rounds.
    """

    name: str
    setup: Callable[[], dict]
    ops: Callable[[dict], list[Op]]
    probe: Callable[[dict], Op] | None = None


def _gate(failures: list[str], ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


def _ceiling(workload: str, size: str, metric: str) -> float:
    return LIMITS["error_ceilings"][size][workload][metric]


# --- error norms ------------------------------------------------------------


def interface_l2_error(lib, mesh, values: np.ndarray, exact: Callable) -> float:
    """L2 norm over an interface mesh of (nodal field - exact field).

    Vectorized over elements with a 10-point (1D) or 10x10 (surface) Gauss
    rule, so the gate costs little next to the operation it checks.
    """
    elements = lib["elements"]
    kind = mesh.kind
    rule = elements.gauss_rule(kind, 10 if kind.ref_dim == 1 else 100)
    basis = elements.shape_values(kind, rule.points)
    grads = elements.shape_gradients(kind, rule.points)
    coords = mesh.nodes[mesh.connectivity]
    phys = np.einsum("gn,end->egd", basis, coords)
    jac = np.einsum("gnr,end->egdr", grads, coords)
    metric = np.einsum("egdr,egds->egrs", jac, jac)
    if kind.ref_dim == 1:
        det = metric[..., 0, 0]
    else:
        det = metric[..., 0, 0] * metric[..., 1, 1] - metric[..., 0, 1] ** 2
    approx = values[mesh.connectivity] @ basis.T
    diff = approx - exact(phys)
    return float(np.sqrt(np.sum(rule.weights * np.sqrt(det) * diff**2)))


def field_1d(points):
    """The 1D analytic field sin 4x + x^2."""
    x = points[..., 0]
    return np.sin(4.0 * x) + x * x


def field_surface(points):
    """The surface analytic field sin x + cos y."""
    return np.sin(points[..., 0]) + np.cos(points[..., 1])


def bubble_problem(lib, master, slave):
    """Manufactured problem u = 16 x y (1 - x)(1 - y) on the split square."""

    def source(x, y):
        return 32.0 * (x * (1.0 - x) + y * (1.0 - y))

    def exact(x, y):
        return 16.0 * x * y * (1.0 - x) * (1.0 - y)

    def exact_gradient(x, y):
        gx = 16.0 * y * (1.0 - y) * (1.0 - 2.0 * x)
        gy = 16.0 * x * (1.0 - x) * (1.0 - 2.0 * y)
        return np.stack([gx, gy], axis=-1)

    return lib["poisson"].PoissonProblem(
        master, slave, source, exact=exact, exact_gradient=exact_gradient
    )


# --- shared operation builders ---------------------------------------------


def _master_batch(rng, master_field: np.ndarray) -> np.ndarray:
    """Batch of master fields: ones, the analytic field, then random fields."""
    batch = rng.standard_normal((master_field.size, BATCH))
    batch[:, 0] = 1.0
    batch[:, 1] = master_field
    return batch


def _apply_op(lib, state: dict) -> Op:
    """The reuse path: one built operator applied to the whole batch.

    The operator is the one the first checked ``main`` call built (see
    :func:`_keep_operator`).  The gate compares the ones column with 1 and
    the analytic column with that call's single-field transfer.
    """
    mortar = lib["mortar"]
    tol = LIMITS["gates"]["apply_tol"]

    def call():
        return mortar.interface_transfer(state["operator"], state["batch"])

    def check(out):
        failures: list[str] = []
        out = np.asarray(out)
        _gate(failures, out.shape == (state["operator"].n_slave_nodes, BATCH),
              f"apply: output shape {out.shape}")
        if not failures:
            ones = float(np.max(np.abs(out[:, 0] - 1.0)))
            _gate(failures, ones <= tol, f"apply: constant field defect {ones:.3e}")
            single = state["single"]
            scale = max(float(np.max(np.abs(single))), 1.0)
            diff = float(np.max(np.abs(out[:, 1] - single)))
            _gate(failures, diff <= tol * scale,
                  f"apply: batch column differs from single transfer by {diff:.3e}")
        return failures, None

    return Op("apply", "apply_s", None, call, check, calibration="dense")


def _keep_operator(state: dict, operator, single: np.ndarray) -> None:
    """Keep the first ``rb`` operator and its transfer of ``batch[:, 1]``."""
    if "operator" not in state:
        state["operator"], state["single"] = operator, np.asarray(single)


# --- transfer workloads ----------------------------------------------------


def _transfer_ops(lib, name: str, size: str, state: dict, ref_scheme: str) -> list[Op]:
    """Transfers with ``rb`` and ``ref_scheme``, checked against ``state["exact"]``."""
    mortar = lib["mortar"]
    pair = state["pair"]
    master_field = state["exact"](pair.master.nodes)
    row_tol = LIMITS["gates"]["row_sum_tol"]

    def transfer(scheme):
        def call():
            matrices = mortar.assemble(pair, mortar.MortarConfig(scheme=scheme))
            operator = mortar.compute_transfer(matrices)
            return operator, mortar.interface_transfer(operator, master_field)

        def check(out):
            operator, values = out
            if scheme == "rb":
                _keep_operator(state, operator, values)
            failures: list[str] = []
            defect = float(np.max(np.abs(operator.row_sums() - 1.0)))
            _gate(failures, defect <= row_tol,
                  f"{scheme}: transfer row sums off by {defect:.3e}")
            err = interface_l2_error(
                lib, pair.slave, np.asarray(values), state["exact"]
            )
            ceiling = _ceiling(name, size, f"l2_err.{scheme}")
            _gate(failures, err <= ceiling,
                  f"{scheme}: l2 error {err:.6e} above ceiling {ceiling:.3e}")
            return failures, err

        return call, check

    state["batch"] = _master_batch(np.random.default_rng(state["seed"]), master_field)
    return [
        Op("main", "transfer_s.rb", "l2_err.rb", *transfer("rb")),
        Op("ref", f"transfer_s.{ref_scheme}", f"l2_err.{ref_scheme}",
           *transfer(ref_scheme)),
        _apply_op(lib, state),
    ]


SIZES = {
    "transfer_1d": {"full": (1500, 1000), "smoke": (24, 16)},
    "warped_surface": {"full": (12, 8), "smoke": (4, 3)},
    "poisson_split": {"full": (256, 171), "smoke": (16, 11)},
}


def transfer_1d(lib, seed: int, size: str = "full") -> Workload:
    """Straight seg2 pair; interior slave nodes jittered by up to 0.3 h."""
    n_master, n_slave = SIZES["transfer_1d"][size]
    meshes = lib["meshes"]

    def setup():
        rng = np.random.default_rng(seed)
        master = meshes.segment_mesh(n_master, span=(-1.0, 1.0))
        xs = np.linspace(-1.0, 1.0, n_slave + 1)
        xs[1:-1] += rng.uniform(-0.3, 0.3, n_slave - 1) * (2.0 / n_slave)
        slave = meshes.InterfaceMesh(
            np.column_stack([xs, np.zeros_like(xs)]),
            np.column_stack([np.arange(n_slave), np.arange(1, n_slave + 1)]),
            "seg2",
            meshes.Side.SLAVE,
        )
        pair = lib["mortar"].InterfacePair(master, slave)
        return {"seed": seed, "pair": pair, "exact": field_1d}

    def ops(state):
        return _transfer_ops(lib, "transfer_1d", size, state, "sb")

    return Workload("transfer_1d", setup, ops)


def warped_surface(lib, seed: int, size: str = "full") -> Workload:
    """quad4 pair with the same sine_bump(0.1) warp on both sides."""
    n_master, n_slave = SIZES["warped_surface"][size]
    meshes = lib["meshes"]

    def setup():
        warp = meshes.sine_bump(0.1)
        master, slave = meshes.surface_pair(
            n_master, n_slave, warp_master=warp, warp_slave=warp
        )
        pair = lib["mortar"].InterfacePair(master, slave)
        return {"seed": seed, "pair": pair, "exact": field_surface}

    def ops(state):
        return _transfer_ops(lib, "warped_surface", size, state, "eb")

    return Workload("warped_surface", setup, ops)


# --- coupled Poisson workload ----------------------------------------------


def poisson_split(lib, seed: int, size: str = "full") -> Workload:
    """Split unit square with the curved interface 0.05 sin(pi x)."""
    n_master, n_slave = SIZES["poisson_split"][size]
    meshes, mortar, poisson = lib["meshes"], lib["mortar"], lib["poisson"]
    gates = LIMITS["gates"]

    def setup():
        master, slave = meshes.split_unit_square(
            n_master, n_slave, interface_offset=lambda x: 0.05 * np.sin(np.pi * x)
        )
        problem = bubble_problem(lib, master, slave)
        return {"seed": seed, "problem": problem, "reference": problem}

    def solve(state, solver, scheme):
        """``build_system`` with ``scheme`` coupling, then ``solver`` on it."""
        config = mortar.MortarConfig(scheme=scheme)

        def call():
            system = poisson.build_system(state["problem"], config)
            return system, getattr(poisson, solver)(system)

        return call

    def ops(state):
        master_interface = poisson.interface_bindings(state["problem"])[0].mesh
        state["batch"] = _master_batch(
            np.random.default_rng(seed), field_1d(master_interface.nodes)
        )

        def condensed_check(scheme, error_label):
            """Constraint residual and error ceiling of a condensed solve.

            The ``rb`` check also keeps the solution, for the saddle probe,
            and the transfer operator of its first system, for ``apply``.
            """

            def check(out):
                system, fields = out
                if scheme == "rb":
                    if "operator" not in state:
                        operator = mortar.compute_transfer(system.mortar)
                        _keep_operator(state, operator, mortar.interface_transfer(
                            operator, state["batch"][:, 1]))
                    state["condensed"] = fields
                failures: list[str] = []
                residual = fields.constraint_residual
                _gate(failures, residual < gates["constraint_residual_tol"],
                      f"{scheme} condensed: constraint residual {residual:.3e}")
                err = poisson.broken_norms(state["reference"], fields).l2_broken
                ceiling = _ceiling("poisson_split", size, error_label)
                _gate(failures, err <= ceiling,
                      f"{scheme} condensed: broken L2 {err:.6e} above ceiling {ceiling:.3e}")
                return failures, err

            return check

        return [
            Op("main", "solve_s.condensed", "poisson_l2",
               solve(state, "solve_condensed", "rb"), condensed_check("rb", "poisson_l2")),
            Op("ref", "solve_s.condensed_eb", "poisson_l2.eb",
               solve(state, "solve_condensed", "eb"), condensed_check("eb", "poisson_l2.eb")),
            _apply_op(lib, state),
        ]

    def probe(state):
        """The ``rb``-coupled saddle solve, checked against the condensed one."""

        def check(out):
            _, fields = out
            failures: list[str] = []
            residual = fields.constraint_residual
            _gate(failures, residual < gates["constraint_residual_tol"],
                  f"saddle: constraint residual {residual:.3e}")
            reference = state["condensed"]
            gap = max(
                float(np.max(np.abs(fields.master_values - reference.master_values))),
                float(np.max(np.abs(fields.slave_values - reference.slave_values))),
            )
            _gate(failures, gap <= gates["path_agreement_tol"],
                  f"saddle and condensed nodal values differ by {gap:.3e}")
            err = poisson.broken_norms(state["reference"], fields).l2_broken
            return failures, err

        return Op("probe", "solve_s.saddle", "poisson_l2.saddle",
                  solve(state, "solve_saddle", "rb"), check)

    return Workload("poisson_split", setup, ops, probe)


WORKLOADS = {
    "transfer_1d": transfer_1d,
    "warped_surface": warped_surface,
    "poisson_split": poisson_split,
}
