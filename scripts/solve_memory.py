#!/usr/bin/env python3
"""Fill, factor time and peak memory of the coupled Poisson solves.

On the split unit square with the benchmark's curved interface
(0.05 sin(pi x)), the bubble source, zero Dirichlet data and ``rb``
coupling, runs ``solve_condensed`` and ``solve_saddle`` each in a fresh
child process at three sizes (master/slave elements per edge).  Each row
gives the free dofs of the factored system, its L+U entries, the seconds
SuperLU took to factor it, the seconds of the whole solver call (the
restriction, the factorization, the checked solve and the recovery of the
fields), the child's peak resident set in MB (import and assembly
included) and the solve's constraint residual.  The fill and the factor
time are read by wrapping ``poisson.splu``.

BLAS runs on one thread unless the environment sets the thread count.
``--quick`` runs the two smallest sizes.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import resource
import subprocess
import sys
import time

import numpy as np

from mortar_rbf import poisson
from mortar_rbf.meshes import split_unit_square
from mortar_rbf.mortar import MortarConfig

#: (master, slave) elements per edge of the split square.
SIZES = [(128, 85), (256, 171), (512, 341)]

SOLVERS = ("solve_condensed", "solve_saddle")


def measure(solver: str, n_master: int, n_slave: int) -> dict:
    """Build and solve one problem in this process; the row as a dict."""
    master, slave = split_unit_square(
        n_master, n_slave, interface_offset=lambda x: 0.05 * np.sin(np.pi * x)
    )
    problem = poisson.PoissonProblem(
        master, slave, lambda x, y: 32.0 * (x * (1.0 - x) + y * (1.0 - y))
    )
    system = poisson.build_system(problem, MortarConfig(scheme="rb"))

    factors = []
    splu = poisson.splu

    def timed_splu(matrix, **options):
        start = time.perf_counter()
        factor = splu(matrix, **options)
        seconds = time.perf_counter() - start
        factors.append((matrix.shape[0], factor.L.nnz + factor.U.nnz, seconds))
        return factor

    poisson.splu = timed_splu
    start = time.perf_counter()
    fields = getattr(poisson, solver)(system)
    solve_seconds = time.perf_counter() - start
    (free, fill, seconds), = factors
    return {
        "free": free,
        "fill": fill,
        "factor_s": seconds,
        "solve_s": solve_seconds,
        # kilobytes on Linux
        "peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "residual": fields.constraint_residual,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--child", nargs=3, metavar=("SOLVER", "N_M", "N_S"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.child:
        solver, n_master, n_slave = args.child
        print(json.dumps(measure(solver, int(n_master), int(n_slave))))
        return 0

    print(f"{'solver':<16}{'n_m':>5}{'n_s':>5}{'free':>9}{'L+U':>11}"
          f"{'factor_s':>10}{'solve_s':>9}{'peak_mb':>9}{'residual':>10}")
    for n_master, n_slave in SIZES[:2] if args.quick else SIZES:
        for solver in SOLVERS:
            done = subprocess.run(
                [sys.executable, __file__, "--child", solver,
                 str(n_master), str(n_slave)],
                stdout=subprocess.PIPE, text=True, check=True,
            )
            row = json.loads(done.stdout)
            print(f"{solver:<16}{n_master:>5}{n_slave:>5}{row['free']:>9}"
                  f"{row['fill']:>11}{row['factor_s']:>10.3f}{row['solve_s']:>9.3f}"
                  f"{row['peak_mb']:>9.1f}{row['residual']:>10.1e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
