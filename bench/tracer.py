"""In-memory spans around the library calls a benchmark round makes.

A :class:`Tracer` keeps every span in a list and writes nothing until the
run ends.  :func:`instrument` wraps public functions of the library at the
module attributes through which both the benchmark and the library itself
call them, so spans cover calls made deep inside ``assemble`` or
``build_system`` without any change to the library.  The wrappers are
removed again when the ``with`` block ends, so untraced rounds run the
original functions.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time

import numpy as np

#: Transfer entries at or below this magnitude count as stored but useless.
USEFUL_ENTRY = 1e-12


class Tracer:
    """Collects spans: name, start, end, parent span and run id.

    ``run`` groups the spans of one benchmark operation (one "request");
    every span opened while an operation span is active inherits it.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    @contextlib.contextmanager
    def span(self, name: str, run: str | None = None, **attrs):
        parent = self._stack[-1] if self._stack else None
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": parent["id"] if parent else None,
            "run": run if run is not None else (parent["run"] if parent else None),
            "start": 0.0,
            "end": 0.0,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


def _traced(tracer: Tracer, name: str, func, count=None):
    """Wrap ``func`` in a span; ``count(span_attrs, args, result)`` adds counts."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as record:
            result = func(*args, **kwargs)
        if count is not None:
            count(record["attrs"], args, result)
        return result

    return wrapper


def _count_candidates(attrs, args, result):
    attrs["candidates"] = int(sum(len(c) for c in result))


def _count_fit(attrs, args, result):
    attrs["condition"] = float(result.condition)


def _count_assembly(attrs, args, result):
    stats = result.stats
    attrs["scheme"] = args[1].scheme.value
    attrs["pairs_visited"] = stats.pairs_visited
    attrs["gauss_points"] = stats.gauss_points_total
    attrs["gauss_dropped"] = stats.gauss_points_dropped
    attrs["coupling_nnz"] = int(result.coupling.nnz)


def transfer_footprint(matrix) -> tuple[int, int, int]:
    """Stored entries, entries above :data:`USEFUL_ENTRY`, bytes held.

    Bytes are computed from the array sizes of the representation (data,
    and for CSR the index arrays), not measured from the allocator.
    """
    if hasattr(matrix, "indptr"):
        data = matrix.data
        nbytes = data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
    else:
        data = np.asarray(matrix)
        nbytes = data.nbytes
    useful = int(np.count_nonzero(np.abs(data) > USEFUL_ENTRY))
    return int(data.size), useful, int(nbytes)


def _count_transfer(attrs, args, result):
    stored, useful, nbytes = transfer_footprint(result.matrix)
    attrs["transfer_stored"] = stored
    attrs["transfer_useful"] = useful
    attrs["transfer_bytes"] = nbytes


def _count_system(attrs, args, result):
    attrs["dofs"] = int(
        result.problem.master.n_nodes
        + result.problem.slave.n_nodes
        + result.mortar.n_slave_nodes
    )


@contextlib.contextmanager
def instrument(tracer: Tracer, lib):
    """Install span wrappers on the library for the duration of the block.

    ``lib`` maps module short names (``meshes``, ``mortar``, ``poisson``) to
    the imported modules.  A function imported by name into a second module
    is wrapped there too, so calls from inside the library are traced.
    """
    meshes, mortar, poisson = lib["meshes"], lib["mortar"], lib["poisson"]
    plan = [
        (meshes, "segment_mesh", "meshes.generate", None),
        (meshes, "surface_pair", "meshes.generate", None),
        (meshes, "split_unit_square", "meshes.generate", None),
        (mortar, "contact_search", "mortar.contact_search", _count_candidates),
        (mortar, "fit_master_interpolant", "rbf.fit", _count_fit),
        (mortar, "evaluate_rescaled_masked", "rbf.eval", None),
        (mortar, "assemble", "mortar.assemble", _count_assembly),
        (mortar, "compute_transfer", "mortar.compute_transfer", _count_transfer),
        (mortar, "interface_transfer", "mortar.interface_transfer", None),
        (poisson, "extract_interface", "meshes.extract_interface", None),
        (poisson, "assemble", "mortar.assemble", _count_assembly),
        (poisson, "compute_transfer", "mortar.compute_transfer", _count_transfer),
        (poisson, "assemble_stiffness", "poisson.stiffness", None),
        (poisson, "assemble_load", "poisson.load", None),
        (poisson, "build_system", "poisson.build_system", _count_system),
        (poisson, "solve_condensed", "poisson.solve_condensed", None),
        (poisson, "solve_saddle", "poisson.solve_saddle", None),
    ]
    originals = []
    try:
        for module, attr, name, count in plan:
            original = getattr(module, attr)
            originals.append((module, attr, original))
            setattr(module, attr, _traced(tracer, name, original, count))
        yield tracer
    finally:
        for module, attr, original in reversed(originals):
            setattr(module, attr, original)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time covered by its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None and s["parent"] in own:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def span_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds over a plain call, measured here."""

    def noop():
        return None

    wrapped = _traced(Tracer(), "calibrate", noop)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    plain = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        wrapped()
    traced = time.perf_counter() - start
    return max(traced - plain, 0.0) / calls


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


#: Span name -> per-layer self-time metric, for layers reported as-is.
_SELF_TIME = {
    "meshes.extract_interface": "meshes.extract_interface_s",
    "mortar.contact_search": "mortar.contact_search_s",
    "rbf.fit": "rbf.fit_s",
    "rbf.eval": "rbf.eval_s",
    "mortar.compute_transfer": "mortar.compute_transfer_s",
    "mortar.interface_transfer": "mortar.interface_transfer_s",
    "poisson.stiffness": "poisson.stiffness_s",
    "poisson.load": "poisson.load_s",
    "poisson.build_system": "poisson.build_system_s",
    "poisson.solve_condensed": "poisson.condensed_s",
    "poisson.solve_saddle": "poisson.saddle_s",
}

#: Span attribute -> per-layer count.
_COUNTS = {
    "candidates": "mortar.candidates",
    "pairs_visited": "mortar.pairs_visited",
    "gauss_points": "mortar.gauss_points",
    "gauss_dropped": "mortar.gauss_dropped",
    "coupling_nnz": "mortar.coupling_nnz",
    "transfer_stored": "mortar.transfer_stored",
    "transfer_useful": "mortar.transfer_useful",
    "transfer_bytes": "mortar.transfer_bytes",
    "dofs": "poisson.dofs",
}

#: Every layer metric the summary reports; zero where a workload never
#: calls the layer.
LAYER_METRICS = (
    ["meshes.generate_s"]
    + list(_SELF_TIME.values())
    + list(_COUNTS.values())
    + ["rbf.fits", "rbf.evals", "rbf.cond_median", "rbf.cond_max"]
    + [
        f"mortar.{kind}_s.{key}"
        for kind in ("assemble", "assemble_self")
        for key in ("main", "ref", "rb", "eb", "sb")
    ]
    + ["mortar.apply_s", "mortar.dropped_fraction", "mortar.transfer_useful_fraction"]
    + ["trace.spans"]
)


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith(("_fraction", "_share")) or name.startswith(("rbf.cond", "trace.coverage")):
        return "1"
    return "count"


def layer_summary(spans: list[dict]) -> dict[str, float]:
    """Per-layer self times and counts for one call of every operation.

    Spans are grouped by the operation span at their root; an operation
    timed as a block of ``reps`` calls contributes 1/reps of its spans.
    For each operation the median over its samples is taken, and a metric
    sums these medians over the operations.  ``meshes.generate_s`` is the
    median over the set-ups.
    """
    own = self_times(spans)
    roots = {s["run"]: s for s in spans if s["parent"] is None}
    per_sample: dict[str, dict[str, float]] = {}
    setups: dict[str, float] = {}
    conditions: list[float] = []
    for s in spans:
        root = roots.get(s["run"])
        if root is None or s is root:
            continue
        if root["name"] == "setup":
            if s["name"] == "meshes.generate":
                setups[s["run"]] = setups.get(s["run"], 0.0) + s["end"] - s["start"]
            continue
        role = root["attrs"]["role"]
        weight = 1.0 / root["attrs"]["reps"]
        acc = per_sample.setdefault(s["run"], {})

        def add(key, value):
            acc[key] = acc.get(key, 0.0) + weight * value

        name, attrs = s["name"], s["attrs"]
        add("trace.spans", 1)
        if name in _SELF_TIME:
            add(_SELF_TIME[name], own[s["id"]])
        for attr, key in _COUNTS.items():
            if attr in attrs:
                add(key, attrs[attr])
        if name == "rbf.fit":
            add("rbf.fits", 1)
            conditions.append(attrs["condition"])
        elif name == "rbf.eval":
            add("rbf.evals", 1)
        elif name == "mortar.assemble":
            for key in (role, attrs.get("scheme")):
                add(f"mortar.assemble_s.{key}", s["end"] - s["start"])
                add(f"mortar.assemble_self_s.{key}", own[s["id"]])
        elif name == "mortar.interface_transfer" and role == "apply":
            add("mortar.apply_s", own[s["id"]])
    by_role: dict[str, list[dict[str, float]]] = {}
    for run, acc in per_sample.items():
        by_role.setdefault(roots[run]["attrs"]["role"], []).append(acc)
    summary = {
        key: sum(median(acc.get(key, 0.0) for acc in accs) for accs in by_role.values())
        for key in LAYER_METRICS
    }
    summary["meshes.generate_s"] = median(setups.values())
    if summary["mortar.gauss_points"]:
        summary["mortar.dropped_fraction"] = (
            summary["mortar.gauss_dropped"] / summary["mortar.gauss_points"]
        )
    if summary["mortar.transfer_stored"]:
        summary["mortar.transfer_useful_fraction"] = (
            summary["mortar.transfer_useful"] / summary["mortar.transfer_stored"]
        )
    if conditions:
        summary["rbf.cond_median"] = median(conditions)
        summary["rbf.cond_max"] = float(max(conditions))
    return summary


def coverage(spans: list[dict]) -> dict[str, float]:
    """Share of each operation's time its direct child spans account for.

    Near 1 means the spans cover the blocking steps of the operation; the
    rest is the benchmark's own glue between library calls.
    """
    children: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] = children.get(s["parent"], 0.0) + s["end"] - s["start"]
    shares: dict[str, list[float]] = {}
    for s in spans:
        if s["parent"] is None and s["name"].startswith("op."):
            duration = s["end"] - s["start"]
            shares.setdefault(s["attrs"]["role"], []).append(
                children.get(s["id"], 0.0) / duration if duration > 0 else 0.0
            )
    return {role: median(values) for role, values in shares.items()}
