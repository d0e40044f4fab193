#!/usr/bin/env python3
"""Time the two batch transfer paths against the size of the operator.

For straight seg2 pairs and flat quad4 pairs of growing size, builds the
``rb`` transfer operator and times a batch of 64 random master fields
through the dense M^-1 D (``TransferOperator.matrix``) and through the
slave-mass factor (a sparse product with the coupling and a solve).  Each
row gives the median of both in microseconds and the path that
``interface_transfer`` took for one batch on a fresh operator: ``dense``
when it built ``matrix``, ``factor`` otherwise.  The size at which the two
timings cross is what ``mortar._DENSE_BATCH_ENTRIES`` is chosen from.

BLAS runs on one thread unless the environment sets the thread count.
``--quick`` times one short and one long seg2 pair only.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import statistics
import sys
import time

import numpy as np

from mortar_rbf.elements import ElementKind
from mortar_rbf.meshes import segment_pair, surface_pair
from mortar_rbf.mortar import (
    InterfacePair,
    MortarConfig,
    assemble,
    compute_transfer,
    interface_transfer,
)

#: Fields per batch, as in the benchmark's ``apply`` operation.
BATCH = 64

#: (kind, master elements per edge, slave elements per edge).
PAIRS = [
    (ElementKind.SEG2, 200, 133),
    (ElementKind.SEG2, 300, 200),
    (ElementKind.SEG2, 400, 266),
    (ElementKind.SEG2, 800, 533),
    (ElementKind.SEG2, 1500, 1000),
    (ElementKind.QUAD4, 12, 8),
    (ElementKind.QUAD4, 20, 13),
    (ElementKind.QUAD4, 24, 16),
    (ElementKind.QUAD4, 32, 21),
    (ElementKind.QUAD4, 48, 32),
]

QUICK_PAIRS = [PAIRS[0], PAIRS[3]]


def build(kind: ElementKind, n_master: int, n_slave: int):
    make = segment_pair if kind is ElementKind.SEG2 else surface_pair
    pair = InterfacePair(*make(n_master, n_slave, kind))
    return compute_transfer(assemble(pair, MortarConfig()))


def median_us(call, repeats: int) -> float:
    seconds = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        seconds.append(time.perf_counter() - start)
    return 1e6 * statistics.median(seconds)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--repeats", type=int, default=25)
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    print(f"{'kind':<6}{'n_s':>7}{'n_m':>7}{'entries':>11}"
          f"{'dense_us':>11}{'factor_us':>11}  path")
    for kind, n_master, n_slave in QUICK_PAIRS if args.quick else PAIRS:
        transfer = build(kind, n_master, n_slave)
        batch = rng.standard_normal((transfer.n_master_nodes, BATCH))
        interface_transfer(transfer, batch)
        path = "dense" if "matrix" in vars(transfer) else "factor"
        matrix = transfer.matrix
        dense = median_us(lambda: matrix @ batch, args.repeats)
        factor = median_us(
            lambda: transfer.factor.solve(transfer.coupling @ batch), args.repeats
        )
        n_s, n_m = transfer.n_slave_nodes, transfer.n_master_nodes
        print(f"{kind.value:<6}{n_s:>7}{n_m:>7}{n_s * n_m:>11}"
              f"{dense:>11.0f}{factor:>11.0f}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
