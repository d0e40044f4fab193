"""Acceptance gate: ten verifiable claims about the coupling library.

Each test prints exactly one pass/fail line (run pytest with ``-s`` to see
them on success).  Tolerances were frozen from the first verified runs and
are not to be loosened casually; every bound has margin of at least one
order of magnitude over the measured noise floor.
"""

import time

import numpy as np

from mortar_rbf import (
    ElementKind,
    ExperimentConfig,
    ExperimentKind,
    InterfacePair,
    KernelFamily,
    MortarConfig,
    PointLayout,
    PoissonProblem,
    Scheme,
    Side,
    assemble,
    compute_transfer,
    extract_interface,
    gauss_rule,
    interface_transfer,
    shape_values,
    solve,
    split_unit_square,
    surface_pair,
)
from mortar_rbf.experiments import run_interp_1d, run_kernel_study, run_poisson_2d
from mortar_rbf.meshes import (
    element_geometry,
    mesh_size,
    rectangle_mesh,
    segment_mesh,
    sine_bump,
)
from mortar_rbf.poisson import build_system, solve_condensed, solve_saddle
from mortar_rbf.rbf import (
    evaluate_rescaled_masked,
    fit_master_interpolant,
    halton_reference_points,
)

from reference_assembly import solve_single_domain, translate


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d}: {status}  {detail}", flush=True)
    assert ok, f"criterion {number}: {detail}"


def row_sum_defect(pair, config):
    transfer = compute_transfer(assemble(pair, config))
    return float(np.abs(transfer.row_sums() - 1.0).max())


def transfer_l2_error(pair, config, fn):
    """L2 error of the transferred master field over the slave surface."""
    transfer = compute_transfer(assemble(pair, config))
    values = interface_transfer(transfer, fn(pair.master.nodes))
    slave = pair.slave
    rule = gauss_rule(slave.kind, 25 if slave.kind.ref_dim == 2 else 10)
    basis = shape_values(slave.kind, rule.points)
    total = 0.0
    for elem in range(slave.n_elems):
        phys, metric = element_geometry(slave, rule.points, [elem])
        phys, measure = phys[0], np.sqrt(metric[0])
        interp = basis @ values[slave.connectivity[elem]]
        total += float(np.sum(rule.weights * measure * (interp - fn(phys)) ** 2))
    return np.sqrt(total)


def test_row_sum_consistency_on_randomized_pairs():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    pairs_1d = []
    for k in range(12):
        kind = ElementKind.SEG2 if k % 2 == 0 else ElementKind.SEG3
        n_master = int(rng.integers(1, 7))
        n_slave = int(rng.integers(1, 7))
        left = float(rng.uniform(-2.0, 0.0))
        span = (left, left + float(rng.uniform(0.5, 2.5)))
        pairs_1d.append(
            InterfacePair(
                segment_mesh(n_master, kind, span),
                segment_mesh(n_slave, kind, span, Side.SLAVE),
            )
        )
    pairs_2d = []
    for k in range(8):
        kind = ElementKind.QUAD4 if k % 2 == 0 else ElementKind.QUAD8
        n_master = int(rng.integers(1, 4))
        n_slave = int(rng.integers(1, 4))
        pairs_2d.append(InterfacePair(*surface_pair(n_master, n_slave, kind)))

    rb = MortarConfig(scheme=Scheme.RB, layout=PointLayout(n_per_edge=6))
    eb = MortarConfig(scheme=Scheme.EB)
    sb = MortarConfig(scheme=Scheme.SB1D)
    worst_rb = max(row_sum_defect(p, rb) for p in pairs_1d + pairs_2d)
    worst_eb = max(row_sum_defect(p, eb) for p in pairs_1d + pairs_2d)
    worst_sb = max(row_sum_defect(p, sb) for p in pairs_1d)
    elapsed = time.perf_counter() - start
    report(
        1,
        worst_rb <= 1e-10 and worst_eb <= 1e-10 and worst_sb <= 1e-14 and elapsed < 5.0,
        f"20 randomized pairs, worst row-sum defect rb {worst_rb:.2e} "
        f"eb {worst_eb:.2e} sb {worst_sb:.2e} in {elapsed:.2f}s",
    )


def test_constant_transfer_exactness():
    start = time.perf_counter()
    pair_1d = InterfacePair(
        segment_mesh(3, span=(0.0, 1.0)),
        segment_mesh(4, span=(0.0, 1.0), side=Side.SLAVE),
    )
    pair_2d = InterfacePair(*surface_pair(2, 3, ElementKind.QUAD4))
    defects = []
    for pair, schemes in (
        (pair_1d, (Scheme.SB1D, Scheme.EB, Scheme.RB)),
        (pair_2d, (Scheme.EB, Scheme.RB)),
    ):
        for scheme in schemes:
            kernels = list(KernelFamily) if scheme is Scheme.RB else [KernelFamily.GAUSSIAN]
            for kernel in kernels:
                config = MortarConfig(scheme=scheme, kernel_family=kernel)
                transfer = compute_transfer(assemble(pair, config))
                ones = interface_transfer(transfer, np.ones(transfer.n_master_nodes))
                defects.append(float(np.abs(ones - 1.0).max()))
    worst = max(defects)
    elapsed = time.perf_counter() - start
    report(
        2,
        worst <= 1e-10 and elapsed < 1.0,
        f"all-ones transfer defect {worst:.2e} over every scheme and kernel "
        f"in {elapsed:.2f}s",
    )


def test_normal_translation_invariance():
    start = time.perf_counter()
    master, slave = surface_pair(2, 3, ElementKind.QUAD4)
    config = MortarConfig(scheme=Scheme.RB, layout=PointLayout(n_per_edge=3))
    epsilon = mesh_size(master)
    worst = 0.0
    baseline = None
    for factor in (0.0, 0.1, 1.0, 10.0):
        shifted = translate(slave, [0.0, 0.0, factor * epsilon])
        pair = InterfacePair(master, shifted, gap_tolerance=(factor + 1.0) * epsilon)
        coupling = assemble(pair, config).coupling.toarray()
        if baseline is None:
            baseline = coupling
            scale = float(np.abs(baseline).max())
        else:
            worst = max(worst, float(np.abs(coupling - baseline).max()) / scale)
    elapsed = time.perf_counter() - start
    report(
        3,
        worst <= 1e-10 and elapsed < 1.0,
        f"coupling drift {worst:.2e} for normal offsets up to 10x the kernel "
        f"width in {elapsed:.2f}s",
    )


def test_exact_intersection_oracle_equivalence():
    start = time.perf_counter()
    pair = InterfacePair(
        segment_mesh(3, span=(0.0, 1.0)),
        segment_mesh(6, span=(0.0, 1.0), side=Side.SLAVE),
    )
    exact = assemble(pair, MortarConfig(scheme=Scheme.SB1D)).coupling.toarray()

    eb_errors = []
    for n_gauss in (2, 4, 8, 16):
        approx = assemble(
            pair, MortarConfig(scheme=Scheme.EB, n_gauss=n_gauss)
        ).coupling.toarray()
        eb_errors.append(float(np.abs(approx - exact).max()))
    monotone = all(b <= a + 1e-13 for a, b in zip(eb_errors, eb_errors[1:]))

    rb = assemble(
        pair,
        MortarConfig(scheme=Scheme.RB, n_gauss=8, layout=PointLayout(n_per_edge=6)),
    ).coupling.toarray()
    rb_error = float(np.abs(rb - exact).max())
    elapsed = time.perf_counter() - start
    report(
        4,
        monotone and eb_errors[-1] <= 1e-12 and rb_error <= 5e-6 and elapsed < 5.0,
        f"projection-vs-exact errors {eb_errors[0]:.1e}..{eb_errors[-1]:.1e} "
        f"monotone={monotone}, kernel-vs-exact {rb_error:.2e} in {elapsed:.2f}s",
    )


def test_interp_1d_convergence_orders():
    start = time.perf_counter()
    result = run_interp_1d(ExperimentConfig(ExperimentKind.INTERP_1D, refinements=5))
    orders = result.orders
    bands_ok = all(
        abs(orders[f"seg2/{token}"] - 2.0) <= 0.25
        and abs(orders[f"seg3/{token}"] - 3.0) <= 0.3
        for token in ("sb", "eb", "rb/gaussian")
    )
    by_level = {}
    for row in result.rows:
        key = (row.h_slave, row.scheme, row.kernel)
        by_level[key] = row.l2_error
    ratios = [
        by_level[(h, "rb", "gaussian")] / by_level[(h, "eb", "")]
        for (h, scheme, kernel) in by_level
        if scheme == "eb"
    ]
    ratio_ok = max(ratios) <= 1.1
    wendland_penalty = (
        result.metrics["finest/seg3/rb/wendland"]
        > result.metrics["finest/seg3/rb/gaussian"]
    )
    elapsed = time.perf_counter() - start
    report(
        5,
        bands_ok and ratio_ok and wendland_penalty and elapsed < 30.0,
        f"orders seg2 {orders['seg2/rb/gaussian']:.2f} seg3 "
        f"{orders['seg3/rb/gaussian']:.2f}, worst rb/eb ratio {max(ratios):.4f}, "
        f"wendland penalty {wendland_penalty} in {elapsed:.1f}s",
    )


def test_warped_surface_scheme_agreement():
    start = time.perf_counter()
    warp = sine_bump(0.15)

    def field(points):
        return np.sin(points[:, 0]) + np.cos(points[:, 1])

    ratios = {}
    for label, (n_master, n_slave) in (
        ("coarse_master", (8, 12)),
        ("fine_master", (12, 8)),
    ):
        master, slave = surface_pair(
            n_master, n_slave, ElementKind.QUAD4, warp_master=warp, warp_slave=warp
        )
        pair = InterfacePair(master, slave)
        rb = transfer_l2_error(
            pair, MortarConfig(scheme=Scheme.RB, n_gauss=16), field
        )
        eb = transfer_l2_error(
            pair, MortarConfig(scheme=Scheme.EB, n_gauss=16), field
        )
        ratios[label] = rb / eb
    agree = all(abs(r - 1.0) <= 0.15 for r in ratios.values())
    elapsed = time.perf_counter() - start
    report(
        6,
        agree and elapsed < 60.0,
        "warped-pair rb/eb error ratios "
        f"{ratios['coarse_master']:.4f} and {ratios['fine_master']:.4f} "
        f"(band 15%) in {elapsed:.1f}s",
    )


def test_poisson_convergence_orders():
    start = time.perf_counter()
    result = run_poisson_2d(ExperimentConfig(ExperimentKind.POISSON_2D, refinements=4))
    l2_order = result.orders["rb/l2"]
    h1_order = result.orders["rb/h1"]
    ratios = [
        result.metrics[f"flat/rb/l2/level{level}"]
        / result.metrics[f"flat/eb/l2/level{level}"]
        for level in range(4)
    ]
    constraints = [
        result.metrics[f"flat/{token}/constraint/level{level}"]
        for token in ("rb", "eb", "sb")
        for level in range(4)
    ]
    ok = (
        abs(l2_order - 2.0) <= 0.2
        and abs(h1_order - 1.0) <= 0.2
        and max(ratios) <= 1.1
        and max(constraints) <= 1e-9
    )
    elapsed = time.perf_counter() - start
    report(
        7,
        ok and elapsed < 120.0,
        f"broken-norm orders L2 {l2_order:.3f} H1 {h1_order:.3f}, worst rb/eb "
        f"ratio {max(ratios):.5f}, worst constraint {max(constraints):.2e} "
        f"in {elapsed:.1f}s",
    )


def test_conforming_limit_identity():
    start = time.perf_counter()

    def source(x, y):
        return 32.0 * (x * (1.0 - x) + y * (1.0 - y))

    master, slave = split_unit_square(4, 4)
    problem = PoissonProblem(master, slave, source)
    fields = solve(problem, MortarConfig(scheme=Scheme.SB1D))
    merged = rectangle_mesh(4, 4)
    merged_values = solve_single_domain(merged, source)
    lookup = {
        (round(x, 12), round(y, 12)): value
        for (x, y), value in zip(merged.nodes, merged_values)
    }
    node_defect = 0.0
    for mesh, values in ((master, fields.master_values), (slave, fields.slave_values)):
        for (x, y), value in zip(mesh.nodes, values):
            node_defect = max(
                node_defect, abs(value - lookup[(round(x, 12), round(y, 12))])
            )

    interface_master, _ = extract_interface(master, Side.MASTER)
    interface_slave, _ = extract_interface(slave, Side.SLAVE)
    transfer = compute_transfer(
        assemble(
            InterfacePair(interface_master, interface_slave),
            MortarConfig(scheme=Scheme.RB, layout=PointLayout(n_per_edge=6)),
        )
    )
    identity_defect = float(
        np.abs(np.asarray(transfer.matrix) - np.eye(transfer.n_slave_nodes)).max()
    )
    elapsed = time.perf_counter() - start
    report(
        8,
        node_defect <= 1e-9 and identity_defect <= 1e-6 and elapsed < 10.0,
        f"conforming coupled-vs-merged defect {node_defect:.2e}, kernel-scheme "
        f"transfer identity defect {identity_defect:.2e} in {elapsed:.2f}s",
    )


def test_kernel_study_directionals():
    start = time.perf_counter()
    result = run_kernel_study(ExperimentConfig(ExperimentKind.KERNEL_STUDY))
    clustered_ok = all(
        result.metrics[f"{element}/wendland/sine/{n}/h_elem"]
        <= result.metrics[f"{element}/wendland/uniform/{n}/h_elem"]
        for element in ("seg3", "quad4")
        for n in range(6, 11)
    )
    conds = [
        result.metrics[f"cond/seg3/gaussian/uniform/{n}/h_elem"] for n in range(3, 9)
    ]
    cond_monotone = all(a < b for a, b in zip(conds, conds[1:]))

    constant_defect = 0.0
    mesh = segment_mesh(2, ElementKind.SEG3, span=(0.0, 1.0))
    probes = element_geometry(
        mesh, halton_reference_points(ElementKind.SEG3, 40), [0]
    )[0][0]
    for family in KernelFamily:
        interp = fit_master_interpolant(mesh, 0, PointLayout(n_per_edge=6), family)
        # a masked (out of support) row is zero, so its defect is one
        sums = evaluate_rescaled_masked(interp, probes)[0].sum(axis=1)
        constant_defect = max(constant_defect, float(np.abs(sums - 1.0).max()))
    elapsed = time.perf_counter() - start
    report(
        9,
        clustered_ok and cond_monotone and constant_defect <= 1e-12 and elapsed < 10.0,
        f"clustered<=uniform {clustered_ok}, condition monotone {cond_monotone}, "
        f"constant defect {constant_defect:.2e} in {elapsed:.1f}s",
    )


def test_solution_path_equivalence():
    start = time.perf_counter()

    def source(x, y):
        return 32.0 * (x * (1.0 - x) + y * (1.0 - y))

    worst = 0.0
    cases = [
        split_unit_square(12, 8),
        split_unit_square(24, 16),
        split_unit_square(12, 8, interface_offset=lambda x: 0.15 * np.sin(np.pi * x)),
    ]
    for master, slave in cases:
        system = build_system(
            PoissonProblem(master, slave, source), MortarConfig(scheme=Scheme.RB)
        )
        saddle = solve_saddle(system)
        condensed = solve_condensed(system)
        worst = max(
            worst,
            float(np.abs(saddle.master_values - condensed.master_values).max()),
            float(np.abs(saddle.slave_values - condensed.slave_values).max()),
        )
    elapsed = time.perf_counter() - start
    report(
        10,
        worst <= 1e-8,
        f"saddle vs condensed nodal difference {worst:.2e} over flat and "
        f"curved pairings in {elapsed:.2f}s",
    )
