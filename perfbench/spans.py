"""In-memory span tracer for the benchmark's traced run.

A span is one call into a layer: name, start, end, parent span, op id and
process id, plus whatever counts the layer reports (nodes, samples, bytes).
Spans are kept in a list and written out when the run ends.

Layers are timed by wrapping public names in the namespace of the module
that calls them (``helispin.cli.build_grid``, ``helispin.density.
spin_components_to_helicity``, ...), so a nested call such as ``build_grid``
inside ``execute_scenario`` gets its own span. The wrappers are installed
only while a traced op runs and are removed afterwards, so untraced ops call
the library's own functions.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterable

#: Bytes per node that a mesh reduction's four entry passes read: two
#: complex128 operands per entry. A basis change adds the transform's two
#: complex128 inputs and two outputs. Computed from array sizes.
REDUCE_MESH_BYTES_PER_NODE = 4 * 2 * 16
TRANSFORM_BYTES_PER_NODE = 4 * 16
#: Bytes per node ``integrate`` reads: four float64 node arrays (p, theta,
#: phi, measure) and one float64 integrand value. Computed from array sizes.
INTEGRATE_BYTES_PER_NODE = 5 * 8


def _reduce_name(args, kwargs) -> str:
    state = args[0] if args else kwargs["state"]
    return "density.reduce_product" if state.product is not None else "density.reduce_mesh"


def _grid_arg(args, kwargs, position: int):
    return args[position] if len(args) > position else kwargs["grid"]


def _reduce_counts(target: str):
    def counts(args, kwargs, result) -> dict[str, int]:
        state = args[0] if args else kwargs["state"]
        if state.product is not None:
            return {}
        nodes = _grid_arg(args, kwargs, 1).n_nodes
        per_node = REDUCE_MESH_BYTES_PER_NODE
        if state.basis != target:
            per_node += TRANSFORM_BYTES_PER_NODE
        return {"nodes": nodes, "bytes_computed": nodes * per_node}

    return counts


def _grid_counts(args, kwargs, result) -> dict[str, int]:
    return {"nodes": result.n_nodes}


def _integrate_counts(args, kwargs, result) -> dict[str, int]:
    nodes = _grid_arg(args, kwargs, 0).n_nodes
    return {"nodes": nodes, "bytes_computed": nodes * INTEGRATE_BYTES_PER_NODE}


def _transform_counts(args, kwargs, result) -> dict[str, int]:
    return {"nodes": int(getattr(result[0], "size", 1))}


def _mc_counts(args, kwargs, result) -> dict[str, int]:
    return {"samples": int(result.n_samples)}


# (layer name or name function, count function) for each public name.
_LAYERS: dict[str, tuple[Any, Callable | None]] = {
    "load_input": ("cli.parse", None),
    "parse_scenario": ("cli.parse", None),
    "parse_sweep": ("cli.parse", None),
    "execute_scenario": ("cli.execute_scenario", None),
    "execute_sweep": ("cli.execute_sweep", None),
    "report_tree": ("cli.report", None),
    "dumps_deterministic": ("cli.report", None),
    "build_grid": ("quadrature.build_grid", _grid_counts),
    "integrate": ("quadrature.integrate", _integrate_counts),
    "normalize": ("states.normalize", None),
    "reduced_spin_density": (_reduce_name, _reduce_counts("spin")),
    "reduced_helicity_density": (_reduce_name, _reduce_counts("helicity")),
    "von_neumann_entropy": ("entropy.von_neumann_entropy", None),
    "mc_density": ("oracles.mc_density", _mc_counts),
    "spin_components_to_helicity": ("su2.transform", _transform_counts),
    "helicity_components_to_spin": ("su2.transform", _transform_counts),
}

# Calling module -> the public names it imports and calls.
_TARGETS: dict[str, tuple[str, ...]] = {
    "helispin.cli": (
        "load_input", "parse_scenario", "parse_sweep", "execute_scenario",
        "execute_sweep", "report_tree", "dumps_deterministic", "build_grid",
        "normalize", "reduced_spin_density", "reduced_helicity_density",
        "von_neumann_entropy", "mc_density",
    ),
    # the benchmark's own calls go through the package namespace
    "helispin": (
        "build_grid", "integrate", "normalize", "reduced_spin_density",
        "reduced_helicity_density", "von_neumann_entropy", "mc_density",
    ),
    "helispin.density": ("spin_components_to_helicity", "helicity_components_to_spin"),
    "helispin.states": ("spin_components_to_helicity", "helicity_components_to_spin"),
    "helispin.oracles": ("spin_components_to_helicity", "helicity_components_to_spin"),
}


class Tracer:
    """Records spans of the benchmark's calls into helispin's layers."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self.events: list[dict[str, Any]] = []
        self._stack: list[tuple[int, str]] = []
        self._next_id = 0
        self._op: int | None = None
        self._pid = os.getpid()
        self._originals: list[tuple[Any, str, Callable]] = []
        self._wrapped: list[tuple[Any, str, Callable]] = []

    # -- recording ---------------------------------------------------------

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _record(self, sid: int, name: str, start: float, end: float, counts=None) -> None:
        parent = self._stack[-1][0] if self._stack else None
        span = {"id": sid, "name": name, "start": start, "end": end,
                "parent": parent, "op": self._op, "pid": self._pid}
        if counts:
            span.update(counts)
        self.spans.append(span)

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a span timed by the caller (e.g. an import)."""
        self._record(self._new_id(), name, start, end)

    @contextmanager
    def op(self, op_id: int):
        """Root span of one timed op; layer spans inside it carry ``op_id``."""
        sid = self._new_id()
        self._op = op_id
        self._stack.append((sid, "op"))
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._record(sid, "op", start, end)
            self._op = None

    def tally(self, name: str) -> None:
        """Count one event, attributed to the innermost open layer span."""
        layer = self._stack[-1][1] if self._stack else None
        self.events.append({"name": name, "layer": layer, "op": self._op})

    def absorb(self, spans: Iterable[dict[str, Any]], root: int, op_id: int) -> None:
        """Adopt spans written by a child process under the op span ``root``.

        Child ids are renumbered; child spans without a parent hang off
        ``root``. Times stay comparable because perf_counter is the
        system-wide monotonic clock.
        """
        spans = list(spans)
        mapping = {s["id"]: self._new_id() for s in spans}
        for s in spans:
            adopted = dict(s)
            adopted["id"] = mapping[s["id"]]
            adopted["parent"] = mapping[s["parent"]] if s["parent"] is not None else root
            adopted["op"] = op_id
            self.spans.append(adopted)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, attr: str, fn: Callable) -> Callable:
        name, counts = _LAYERS[attr]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            layer = name(args, kwargs) if callable(name) else name
            sid = self._new_id()
            self._stack.append((sid, layer))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
            self._record(sid, layer, start, end,
                         counts(args, kwargs, result) if counts else None)
            return result

        return wrapper

    def install(self) -> None:
        """Swap the wrapped names in; the first call builds the wrappers."""
        if not self._wrapped:
            for module_name, attrs in _TARGETS.items():
                module = importlib.import_module(module_name)
                for attr in attrs:
                    fn = getattr(module, attr)
                    self._originals.append((module, attr, fn))
                    self._wrapped.append((module, attr, self._wrap(attr, fn)))
        for module, attr, fn in self._wrapped:
            setattr(module, attr, fn)

    def uninstall(self) -> None:
        for module, attr, fn in self._originals:
            setattr(module, attr, fn)

    # -- output ------------------------------------------------------------

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            for event in self.events:
                fh.write(json.dumps({"event": event}) + "\n")


def load(path: Path) -> list[dict[str, Any]]:
    """The spans of a file written by :meth:`Tracer.dump`."""
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    return [row for row in rows if "event" not in row]


def summarize(spans: list[dict[str, Any]], events: list[dict[str, Any]]) -> dict[str, float]:
    """Per-layer metrics from the spans of traced ops, per op.

    A layer's self time is its span minus its direct child spans (calls on
    one thread nest, so the children never overlap). The op span's self time
    is the untraced remainder, so the layer self times plus the remainder
    add up to the op wall time.
    """
    ops = {s["op"] for s in spans if s["name"] == "op"}
    n_ops = len(ops)
    out: dict[str, float] = {}
    if n_ops == 0:
        return out
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]

    totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    first_call: dict[str, dict[int, float]] = defaultdict(dict)
    min_call: dict[str, float] = {}
    for s in sorted(spans, key=lambda s: s["start"]):
        name, dur = s["name"], s["end"] - s["start"]
        first_call[name].setdefault(s["pid"], dur)
        if s["op"] not in ops:
            continue
        stats = totals[name]
        stats["calls"] += 1
        stats["self_ms"] += 1e3 * (dur - child_time[s["id"]])
        stats["wall_ms"] += 1e3 * dur
        for key in ("nodes", "samples", "bytes_computed"):
            if key in s:
                stats[key] += s[key]
        min_call[name] = min(min_call.get(name, dur), dur)

    op_stats = totals.pop("op")
    out["trace.op_wall_ms"] = op_stats["wall_ms"] / n_ops
    out["trace.remainder_ms"] = op_stats["self_ms"] / n_ops
    out["trace.ops"] = n_ops
    for name in sorted(totals):
        for key, value in totals[name].items():
            if key != "wall_ms":
                out[f"{name}.{key}"] = value / n_ops
        out[f"{name}.min_ms"] = 1e3 * min_call[name]

    # first call in each process (set-up spans included), averaged over processes
    for name, label in (("import.helispin_cli", "import.helispin_cli.ms"),
                        ("quadrature.build_grid", "quadrature.build_grid.first_ms")):
        if first_call.get(name):
            per_pid = first_call[name].values()
            out[label] = 1e3 * sum(per_pid) / len(per_pid)

    if "density.reduce_mesh" in totals:
        evals = [e for e in events if e["name"] == "states.amplitude_evals" and e["op"] in ops]
        out["states.amplitude_evals"] = len(evals) / n_ops
        in_reduce = sum(1 for e in evals if e["layer"] == "density.reduce_mesh")
        calls = totals["density.reduce_mesh"]["calls"]
        out["density.reduce_mesh.cache_hits"] = (calls - in_reduce) / n_ops
    return out
