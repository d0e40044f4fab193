#!/usr/bin/env python3
"""Benchmark of mortar-rbf: field transfer and coupled-solve times.

Run from the repository root:

    python3 bench/run.py --workload transfer_1d --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1 --seconds 30
    python3 bench/run.py --smoke

One run sets the workload up several times, then repeats rounds of its
three operations (``main``, ``ref``, ``apply``, see ``workloads.py``) until
``--seconds`` have passed, checks every output against the gates in
``limits.json`` and prints a report.  Times are scaled to a reference
host speed by calibration blocks run between the samples (see
:class:`Calibration`).  The last line of standard output is
one JSON object with the metrics ``BENCHMARK.json`` names: its end-to-end
metrics with ``--trace 0``, its per-layer metrics with ``--trace 1``.  A
traced run alternates untraced and traced rounds, so the difference between
them is the tracing overhead; it also writes its spans and a per-layer
summary under ``.bench_out/``.

Without ``--workload`` every workload runs, each in its own process, and a
table of their metrics follows the reports.  ``--smoke`` runs every
workload at a tiny size, checks that every metric is reported and that
the gates fire against a deliberately wrong reference.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

#: An operation faster than this is timed as a block of repeated calls.
MIN_BLOCK_S = 0.1

#: Each round, every operation runs for at least this share of the time of
#: the slowest single operation seen in the first round.
SLICE_SHARE = 0.25

#: Calibration blocks run before each set-up and sample for at least this
#: share of the previous one of the same kind.
CALIBRATION_SHARE = 0.15

#: Seconds each part of a calibration block takes at the reference speed:
#: about the median on a 2-vCPU Xeon VM, the host the bounds in
#: BENCHMARK.json were set on.  Reported times are scaled to this speed.
CALIBRATION_REF_S = {"mixed": 0.04, "dense": 0.01}

#: BLAS threads.  The workloads make only small BLAS calls, and a second
#: OpenBLAS thread busy-waits on another core for the whole run, which
#: doubles the CPU time used and makes the timed thread slower and noisier.
BLAS_THREADS = 1

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def import_library() -> dict:
    """Import numpy, scipy and mortar_rbf from this checkout's ``src``.

    The BLAS thread count is pinned first, since numpy reads it on import.
    """
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "mortar_rbf" / "__init__.py").is_file():
        raise ImportError("mortar_rbf sources not found under src/ of the checkout")
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401
    from mortar_rbf import elements, errors, meshes, mortar, poisson

    return {
        "elements": elements,
        "errors": errors,
        "meshes": meshes,
        "mortar": mortar,
        "poisson": poisson,
    }


def blas_threads_in_force() -> dict[str, int]:
    """Thread count each loaded OpenBLAS reports, by library file name."""
    symbols = (
        "openblas_get_num_threads",
        "openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads",
        "scipy_openblas_get_num_threads64_",
    )
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as maps:
            paths = {
                line.split()[-1]
                for line in maps
                if "openblas" in line.lower() and line.split()[-1].startswith("/")
            }
    except OSError:
        return {}
    found = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in symbols:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                found[Path(path).name] = int(getter())
                break
    return found


def git_revision() -> str:
    """Commit of the checkout, read from ``.git``; "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads_in_force": blas_threads_in_force(),
        "machine": platform.machine(),
    }


class Calibration:
    """A fixed block of numpy work, timed between the benchmark's samples.

    The host this benchmark runs on changes speed by up to about 2x over
    seconds to minutes, and a timed operation changes with it.  Blocks of
    this work run between the timed samples; an operation's time divided
    by the time of the blocks next to it does not depend on the host's
    speed of the moment.  A block has two parts, timed apart, because
    the host's changes of speed hit them differently:

    * ``mixed``: half numpy calls on arrays of a few dozen entries (small
      solves, gathers, reductions), whose cost is per-call overhead, as in
      kernel fits and Newton steps; half elementwise, gather and sort
      passes over arrays larger than the cache, as in contact search and
      the transfer.  Of the mixes tried, this one followed the speed of
      the transfers and solves most closely.
    * ``dense``: products of a 100x200 and a 200x64 matrix, which followed
      the speed of ``apply`` (a transfer operator times 64 fields).

    Each operation names the part it is scaled by.  The blocks never call
    the library, so a change to the library does not move them.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.systems = rng.random((50, 6, 6)) + 6.0 * np.eye(6)
        self.rhs = rng.random(6)
        self.points = rng.random((40, 3))
        self.picks = rng.integers(0, 40, 10)
        self.large = rng.random(1_000_000)
        self.index = rng.integers(0, self.large.size, 200_000)
        self.left = rng.random((100, 200))
        self.right = rng.random((200, 64))
        self.blocks: list[dict[str, float]] = []
        self.bursts: list[dict[str, float]] = []

    def block(self) -> float:
        """Run one block; returns its seconds."""
        import numpy as np

        start = time.perf_counter()
        for k in range(1000):
            np.linalg.solve(self.systems[k % 50], self.rhs)
            picked = self.points[self.picks]
            norms = np.einsum("ij,ij->i", picked, picked)
            np.sqrt(norms).sum()
            np.where(norms > 0.5, norms, 0.0)
        for _ in range(3):
            (1.5 * self.large + self.large)[self.index].sum()
            np.sort(self.large[:100000])
        middle = time.perf_counter()
        for _ in range(150):
            self.left @ self.right
        end = time.perf_counter()
        self.blocks.append({"mixed": middle - start, "dense": end - middle})
        return end - start

    def burst(self, seconds: float) -> int:
        """Run blocks for at least ``seconds``, at least one; the burst's index."""
        spent, first = 0.0, len(self.blocks)
        while len(self.blocks) == first or spent < seconds:
            spent += self.block()
        run = self.blocks[first:]
        self.bursts.append(
            {kind: statistics.fmean(b[kind] for b in run) for kind in CALIBRATION_REF_S}
        )
        return len(self.bursts) - 1

    def around(self, bursts: list[int], kind: str) -> list[float]:
        """Mean ``kind`` part time next to each sample whose preceding burst
        is given.

        A sample is bracketed by its preceding burst and the next one, so
        both ends of a long sample count.
        """
        last = len(self.bursts) - 1
        return [0.5 * (self.bursts[b][kind] + self.bursts[min(b + 1, last)][kind])
                for b in bursts]


def at_reference_speed(times, blocks, kind: str) -> float:
    """Mean of ``times`` over the mean of ``blocks``, the time of the
    calibration part ``kind`` next to each, in seconds at the host speed
    where that part takes :data:`CALIBRATION_REF_S`."""
    times, blocks = list(times), list(blocks)
    if not times or not blocks:
        return 0.0
    return statistics.fmean(times) / statistics.fmean(blocks) * CALIBRATION_REF_S[kind]


def fresh_import_seconds() -> float:
    """Wall seconds of a new interpreter that imports the library and exits.

    A process imports only once, so each set-up pays the import in a child.
    """
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c",
         f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); "
         "import run; run.import_library()"],
        check=True,
    )
    return time.perf_counter() - start


def measure(lib, workload, seconds: float, trace: bool, min_rounds: int) -> dict:
    """Set the workload up, then time rounds of its operations.

    Rounds repeat until the next one would end after ``seconds``, with at
    least ``min_rounds``.  Each round runs every operation at least once,
    and samples it again until it has used :data:`SLICE_SHARE` of the
    slowest sample of the first round, so fast operations get many samples
    while the slow ones still run in every round.  Operations faster than
    :data:`MIN_BLOCK_S` are timed in blocks of calls, sized in the first
    round by blocks that are then discarded.  Before every set-up and every
    sample, and once after the last, :class:`Calibration` blocks run for
    :data:`CALIBRATION_SHARE` of the previous sample of the same operation.

    Untraced rounds give the times; with ``trace`` every other round runs
    with the library instrumented.  Every output is checked by its gates;
    an operation that raises is timed up to the raise and counted failed.
    The workload's probe runs once at the end, untraced; its outcome is
    reported and checked but not counted among the operations.
    """
    import tracer as tr
    from workloads import LIMITS

    tracer = tr.Tracer()
    calibration = Calibration()

    def instrumented(on):
        return tr.instrument(tracer, lib) if on else contextlib.nullcontext()

    setup_times, setup_bursts, setup_import_s = [], [], []
    for k in range(SETUP_REPEATS):
        setup_bursts.append(calibration.burst(
            CALIBRATION_SHARE * (setup_times[-1] if setup_times else 0.0)))
        root = tracer.span("setup", run=f"setup{k}") if trace else contextlib.nullcontext()
        setup_import_s.append(fresh_import_seconds())
        with instrumented(trace), root:
            start = time.perf_counter()
            state = workload.setup()
            setup_times.append(setup_import_s[-1] + time.perf_counter() - start)
    ops = workload.ops(state)

    known = [
        (k["label"], k["error"])
        for k in LIMITS["known_failures"]
        if k["workload"] == workload.name
    ]
    reps = {op.role: 1 for op in ops}
    kinds = {op.role: op.calibration for op in ops}
    samples: dict[tuple[bool, str], list[float]] = {}
    bursts: dict[tuple[bool, str], list[int]] = {}
    last_block = {op.role: 0.0 for op in ops}
    errors: dict[str, float] = {}
    failures: list[dict] = []
    attempted = 0

    def timed(op, n: int, root) -> tuple[object, Exception | None, int, float]:
        """Run ``op`` ``n`` times; output, exception, calls made, seconds."""
        out, raised, calls = None, None, 0
        began = time.perf_counter()
        try:
            with root:
                for _ in range(n):
                    calls += 1
                    out = op.call()
        # the boundary that keeps a run going: any exception an operation
        # raises is recorded with its text (and, in a sample, counted failed)
        except Exception as exc:  # noqa: BLE001
            raised = exc
        return out, raised, calls, time.perf_counter() - began

    def checked(op, out, raised, number: int) -> list[dict]:
        """Failures of one output: the exception it raised, or its gates."""
        if raised is not None:
            name = type(raised).__name__
            return [{
                "sample": number, "op": op.label, "kind": "raised",
                "error": name, "message": str(raised),
                "known": (op.label, name) in known,
            }]
        gate_failures, err = op.check(out)
        if op.error_label is not None and err is not None:
            errors[op.error_label] = err
        return [{
            "sample": number, "op": op.label, "kind": "gate",
            "error": "GateFailure", "message": message, "known": False,
        } for message in gate_failures]

    def sample(op, rnd: int, traced: bool) -> tuple[float, bool]:
        """Run one timed block of ``op`` and check it.

        Returns the block time and whether the block only sized the next
        one (a first-round block shorter than :data:`MIN_BLOCK_S`).
        """
        nonlocal attempted
        n = reps[op.role]
        attempted += 1
        burst = calibration.burst(CALIBRATION_SHARE * last_block[op.role])
        root = (
            tracer.span(f"op.{op.role}", run=f"s{attempted}", role=op.role, reps=n)
            if traced else contextlib.nullcontext()
        )
        out, raised, calls, block = timed(op, n, root)
        last_block[op.role] = block
        sizing = rnd == 0 and raised is None and block < MIN_BLOCK_S
        if sizing:
            reps[op.role] = math.ceil(n * MIN_BLOCK_S / max(block, 1e-9))
        else:
            samples.setdefault((traced, op.role), []).append(block / calls)
            bursts.setdefault((traced, op.role), []).append(burst)
        failures.extend(checked(op, out, raised, attempted))
        return block, sizing

    start = time.perf_counter()
    rnd = 0
    longest = 0.0
    round_s = 0.0
    # stop before a round that would end after ``seconds``
    while rnd < min_rounds or time.perf_counter() - start + round_s <= seconds:
        round_start = time.perf_counter()
        traced = trace and rnd % 2 == 1
        slice_s = SLICE_SHARE * longest
        with instrumented(traced):
            for op in ops:
                spent = 0.0
                while True:
                    block, sizing = sample(op, rnd, traced)
                    spent += block
                    if rnd == 0:
                        longest = max(longest, block)
                    if spent >= slice_s and not sizing:
                        break
        round_s = time.perf_counter() - round_start
        rnd += 1
    calibration.burst(CALIBRATION_SHARE * max(last_block.values()))

    probe = None
    if workload.probe is not None:
        op = workload.probe(state)
        out, raised, _, took = timed(op, 1, contextlib.nullcontext())
        probe = {"op": op, "seconds": took,
                 "failures": checked(op, out, raised, 0)}

    return {
        "ops": ops,
        "rounds": rnd,
        "reps": reps,
        "setup_times": setup_times,
        "setup_blocks": calibration.around(setup_bursts, "mixed"),
        "setup_import_s": setup_import_s,
        "samples": samples,
        "blocks": {key: calibration.around(b, kinds[key[1]]) for key, b in bursts.items()},
        "traced_blocks": calibration.around(
            [b for (traced, _), v in bursts.items() if traced for b in v], "mixed"),
        "calibration_blocks": calibration.blocks,
        "errors": errors,
        "failures": failures,
        "probe": probe,
        "attempted": attempted,
        "failed": len({f["sample"] for f in failures}),
        "peak_mem_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": tracer.spans,
    }


def report_metrics(result: dict, import_s: float) -> dict[str, dict]:
    """Every metric of the run, under its per-workload and its role name.

    The per-workload names (``transfer_s.rb``, ``solve_s.saddle``, ...) are
    what the report prints; the role names (``main_s``, ``ref_s``, ...) are
    shared by all workloads and are the ones ``BENCHMARK.json`` lists.
    Times are at reference speed (:func:`at_reference_speed`); the medians
    of the raw wall times ride along as ``wall_median``.
    """
    import tracer as tr

    metrics: dict[str, dict] = {}

    def put(names, value, unit, **extra):
        for name in names:
            metrics[name] = {"value": value, "unit": unit, **extra}

    setups = result["setup_times"]
    put(["setup_s"], tr.median(
        at_reference_speed([t], [b], "mixed")
        for t, b in zip(setups, result["setup_blocks"])
    ), "s", wall_median=tr.median(setups), setups=len(setups),
        import_median_s=tr.median(result["setup_import_s"]), first_import_s=import_s)
    for op in result["ops"]:
        times = result["samples"].get((False, op.role), [])
        if times:
            put([op.label, f"{op.role}_s"],
                at_reference_speed(times, result["blocks"][(False, op.role)],
                                   op.calibration), "s",
                n=len(times), wall_median=tr.median(times),
                wall_min=min(times), wall_max=max(times))
        if op.error_label in result["errors"]:
            names = [op.error_label] + (["main_err"] if op.role == "main" else [])
            put(names, result["errors"][op.error_label], "1")
    probe = result["probe"]
    if probe is not None:
        op = probe["op"]
        put([op.label], probe["seconds"], "s", wall_once=probe["seconds"])
        if op.error_label in result["errors"]:
            put([op.error_label], result["errors"][op.error_label], "1")
    put(["peak_mem_mb"], result["peak_mem_mb"], "MB")
    put(["failed_ops"], result["failed"] / result["attempted"], "1",
        failed=result["failed"], attempted=result["attempted"])
    for kind, reference in CALIBRATION_REF_S.items():
        put([f"calibration_s.{kind}"],
            tr.median(b[kind] for b in result["calibration_blocks"]), "s",
            reference=reference, blocks=len(result["calibration_blocks"]))
    return metrics


def trace_metrics(result: dict) -> dict[str, dict]:
    """Per-layer metrics of the traced rounds plus the tracing overhead.

    Layer times are scaled to reference speed by the ``mixed`` calibration
    part of the traced rounds.
    """
    import tracer as tr

    values = tr.layer_summary(result["spans"])
    scale = at_reference_speed([1.0], result["traced_blocks"], "mixed")
    for name in values:
        if tr.layer_unit(name) == "s":
            values[name] *= scale
    plain = traced = 0.0
    for op in result["ops"]:
        key = (False, op.role), (True, op.role)
        plain += at_reference_speed(result["samples"].get(key[0], []),
                                    result["blocks"].get(key[0], []), op.calibration)
        traced += at_reference_speed(result["samples"].get(key[1], []),
                                     result["blocks"].get(key[1], []), op.calibration)
    values["trace.overhead_share"] = (traced - plain) / plain if plain else 0.0
    values["trace.span_cost_us"] = tr.span_cost() * 1e6
    for role, share in tr.coverage(result["spans"]).items():
        values[f"trace.coverage.{role}"] = share
    return {name: {"value": v, "unit": tr.layer_unit(name)} for name, v in values.items()}


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def print_report(header: str, env: dict, metrics: dict, failures: list[dict]) -> None:
    print(header)
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for name, m in metrics.items():
        detail = ", ".join(f"{k} {v:.6g}" for k, v in m.items() if k not in ("value", "unit"))
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}  {detail}".rstrip())
    shown = set()
    for f in failures:
        key = (f["op"], f["kind"], f["message"])
        if key not in shown:
            shown.add(key)
            tag = "known failure" if f["known"] else "FAILURE"
            print(f"  {tag}: {f['op']}: {f['error']}: {f['message']}")


def load_library() -> tuple[dict | None, float]:
    """The imported library (None when it cannot be imported) and import seconds."""
    start = time.perf_counter()
    try:
        lib = import_library()
    except ImportError as exc:
        print(f"cannot import the library: {exc}", file=sys.stderr)
        return None, 0.0
    return lib, time.perf_counter() - start


def run(args) -> int:
    lib, import_s = load_library()
    if lib is None:
        return 2
    from workloads import WORKLOADS

    spec = benchmark_spec()
    workload = WORKLOADS[args.workload](lib, args.seed)
    result = measure(lib, workload, args.seconds, bool(args.trace),
                     min_rounds=4 if args.trace else 3)
    env = environment()
    metrics = report_metrics(result, import_s)
    wanted = [m["name"] for m in spec["end_to_end"]]
    if args.trace:
        metrics.update(trace_metrics(result))
        wanted = [m["name"] for m in spec["per_layer"]]
    header = (f"mortar-rbf benchmark: workload {args.workload}, seed {args.seed}, "
              f"{args.seconds} s, trace {args.trace}, {result['rounds']} rounds, "
              f"block sizes {result['reps']}")
    probe_failures = result["probe"]["failures"] if result["probe"] else []
    print_report(header, env, metrics, result["failures"] + probe_failures)

    missing = [name for name in wanted if name not in metrics]
    for name in missing:
        print(f"  FAILURE: metric {name} was not measured")
    correct = not missing and all(
        f["known"] for f in result["failures"] + probe_failures
    )

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "metrics": metrics,
        "failures": result["failures"], "probe_failures": probe_failures,
        "correct": correct,
        "samples": {f"{'traced' if t else 'plain'}.{role}": v
                    for (t, role), v in result["samples"].items()},
        "calibration_blocks": result["calibration_blocks"],
    }
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        Path(f"{stem}-spans.json").write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "spans": result["spans"]}))

    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
                    for name in wanted if name in metrics},
    }))
    return 0


def run_all(args, names: list[str]) -> int:
    """Run every workload, each in its own process, and tabulate the results.

    Separate processes keep peak memory and imports per workload.
    """
    results = {}
    status = 0
    for name in names:
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            status = done.returncode
            continue
        results[name] = json.loads(done.stdout.splitlines()[-1])
    metrics = sorted({m for r in results.values() for m in r["metrics"]})
    print(f"{'metric':34s}" + "".join(f"{name:>18s}" for name in results))
    for metric in metrics:
        cells = "".join(
            f"{r['metrics'][metric]['value']:18.6g}" if metric in r["metrics"] else f"{'-':>18s}"
            for r in results.values()
        )
        print(f"{metric:34s}{cells}")
    print(f"{'correct':34s}" + "".join(f"{str(r['correct']):>18s}" for r in results.values()))
    print(f"{'failed/attempted':34s}"
          + "".join(f"{r['failed']:>11d}/{r['attempted']:<6d}" for r in results.values()))
    return status


def main(argv=None) -> int:
    names = [w["name"] for w in benchmark_spec()["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names,
                        help="run one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke_main()
    if args.workload is None:
        return run_all(args, names)
    return run(args)


def smoke_main() -> int:
    lib, _ = load_library()
    if lib is None:
        return 2
    problems = smoke(lib)
    for problem in problems:
        print(f"smoke: {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 0 if not problems else 1


def smoke(lib, seed: int = 0) -> list[str]:
    """Tiny-size runs of every workload; returns the problems found.

    Checks that every metric ``BENCHMARK.json`` names is measured in its
    unit, that the gates pass on the right reference, and that they fire when the
    reference (exact field, exact solution or single-field transfer) is
    deliberately wrong.
    """
    import dataclasses

    from workloads import WORKLOADS

    spec = benchmark_spec()
    wanted = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    problems = []
    for name, factory in WORKLOADS.items():
        workload = factory(lib, seed, size="smoke")
        result = measure(lib, workload, 0.0, trace=True, min_rounds=3)
        metrics = report_metrics(result, 0.0)
        metrics.update(trace_metrics(result))
        for metric, unit in wanted.items():
            if metric not in metrics:
                problems.append(f"{name}: metric {metric} missing")
            elif metrics[metric]["unit"] != unit:
                problems.append(f"{name}: metric {metric} in {metrics[metric]['unit']}, "
                                f"BENCHMARK.json says {unit}")
        probe_failures = result["probe"]["failures"] if result["probe"] else []
        problems += [
            f"{name}: {f['op']}: {f['message']}"
            for f in result["failures"] + probe_failures if not f["known"]
        ]

        state = workload.setup()
        ops = {op.role: op for op in workload.ops(state)}
        ops["main"].check(ops["main"].call())
        state["single"] = state["single"] + 1e-3
        if not ops["apply"].check(ops["apply"].call())[0]:
            problems.append(f"{name}: apply gate missed a wrong single-field transfer")
        if "exact" in state:
            exact = state["exact"]
            state["exact"] = lambda p, exact=exact: exact(p) + 0.5
            for role in ("main", "ref"):
                if not ops[role].check(ops[role].call())[0]:
                    problems.append(f"{name}: {role} error gate missed a wrong field")
        else:
            problem = state["problem"]
            state["reference"] = dataclasses.replace(
                problem, exact=lambda x, y: problem.exact(x, y) + 0.5
            )
            for role in ("main", "ref"):
                if not ops[role].check(ops[role].call())[0]:
                    problems.append(f"{name}: {role} error gate missed a wrong solution")
            state["reference"] = problem
            fields = ops["main"].call()[1]
            state["condensed"] = dataclasses.replace(
                fields, master_values=fields.master_values + 1e-3
            )
            probe = workload.probe(state)
            try:
                saddle = probe.call()
            except lib["errors"].SolverFailureError:
                pass
            else:
                if not probe.check(saddle)[0]:
                    problems.append(f"{name}: path agreement gate missed a wrong solution")
    return problems


if __name__ == "__main__":
    sys.exit(main())
