"""Declarative scenario runner.

Scenario and sweep inputs are JSON trees with a ``schema_version`` field.
``parse_scenario`` and ``parse_sweep`` return the checked tree as plain data,
``grid`` ``{}`` and ``mc`` ``None`` filled in where absent, and
``execute_scenario`` runs that tree. A grid's ``r_max`` defaults to 8 state
widths; a default that overflows is an input error that asks for
``grid.r_max``. Reports are JSON emitted by a deterministic writer (sorted
keys, each float as the shortest text that reads back to the same double,
complex numbers as [re, im] pairs, LF endings, no timestamps), so identical
inputs produce byte-identical reports on one machine, numpy build and CPU
dispatch. Sweep tables are CSV with a header row.

Exit codes: 0 all checks pass, 1 check failure, 2 input error, 3 numerical
error, 4 I/O error.
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import asdict
from importlib import resources
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import __version__
from .density import (
    DensityMatrix2,
    EntropyReport,
    reduced_helicity_density,
    reduced_spin_density,
    von_neumann_entropy,
)
from .errors import ConfigurationError, HelispinError, ScenarioParseError
from .oracles import MAX_MC_SAMPLES, ORACLES, mc_density
from .quadrature import R_MAX_WIDTHS, QuadratureGrid, build_grid, refine
from .states import FAMILIES, OneParticleState, build_state, normalize

SCHEMA_VERSION = 1
OUTPUT_QUANTITIES = ("spin_density", "helicity_density", "spin_entropy", "helicity_entropy")
_DENSITY_FOR_ENTROPY = {"spin_entropy": "spin_density", "helicity_entropy": "helicity_density"}
MC_SIGMA_BOUND = 4.0
#: Largest n_r, n_theta or n_phi a scenario may ask for. Each Gauss-Legendre
#: rule costs O(n^2) time and memory, and the convergence pass doubles it.
MAX_GRID_COUNT = 512


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _expect(cond: bool, where: str, message: str) -> None:
    if not cond:
        raise ScenarioParseError(f"{where}: {message}")


def _is_int(x: Any) -> bool:
    """A JSON integer; a JSON bool is not one, though Python's bool is an int."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x: Any) -> bool:
    """A finite JSON number. Python's json also reads Infinity, NaN and
    integers beyond the float range; a JSON bool is not one either, though
    Python's bool is an int."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _known_fields(node: dict, keys: set[str], where: str) -> None:
    _expect(set(node) <= keys, where, f"unknown fields {sorted(set(node) - keys)}")


def _parse_grid(node: Any, where: str) -> dict[str, Any]:
    """The counts and ``r_max`` a grid node gives, as ``build_grid``
    keywords; ``build_grid`` and the state's width fill in the rest."""
    if node is None:
        return {}
    _expect(isinstance(node, dict), where, "grid must be an object")
    _known_fields(node, {"n_r", "n_theta", "n_phi", "r_max"}, where)
    grid = {}
    for key in ("n_r", "n_theta", "n_phi"):
        if key in node:
            _expect(_is_int(node[key]), f"{where}.{key}", "must be an integer")
            _expect(node[key] <= MAX_GRID_COUNT, f"{where}.{key}",
                    f"must be at most {MAX_GRID_COUNT}")
            grid[key] = node[key]
    if node.get("r_max") is not None:
        _expect(_is_number(node["r_max"]), f"{where}.r_max", "must be a finite number")
        grid["r_max"] = float(node["r_max"])
    return grid


def _parse_reference(node: Any, quantity: str, where: str) -> Any:
    if isinstance(node, str):
        _expect(node in ORACLES, where, f"unknown oracle reference {node!r}")
        _expect(node.endswith("_entropy") == quantity.endswith("_entropy"), where,
                f"oracle {node!r} is not a reference for {quantity!r}")
        return node
    if quantity.endswith("_entropy"):
        _expect(_is_number(node), where,
                "entropy reference must be a finite number or oracle name")
        return float(node)
    _expect(isinstance(node, list) and len(node) == 2, where,
            "density reference must be a 2x2 matrix or oracle name")
    matrix = np.zeros((2, 2), dtype=np.complex128)
    for i, row in enumerate(node):
        _expect(isinstance(row, list) and len(row) == 2, f"{where}[{i}]", "must be a 2-element row")
        for j, entry in enumerate(row):
            if _is_number(entry):
                matrix[i, j] = float(entry)
            elif (isinstance(entry, list) and len(entry) == 2 and all(map(_is_number, entry))
                  and math.isfinite(math.hypot(*entry))):  # a finite |entry|, so a finite deviation
                matrix[i, j] = complex(entry[0], entry[1])
            else:
                raise ScenarioParseError(
                    f"{where}[{i}][{j}]: matrix entries must be finite numbers or [re, im] pairs"
                )
    return matrix


def _parse_name(tree: Any, where: str, kind: str, fields: set[str]) -> str:
    """Check a document's header (schema version, known fields); returns its name."""
    _expect(isinstance(tree, dict), where, f"{kind} must be an object")
    _expect(tree.get("schema_version") == SCHEMA_VERSION, f"{where}.schema_version",
            f"must be {SCHEMA_VERSION}")
    _known_fields(tree, {"schema_version", "name"} | fields, where)
    name = tree.get("name")
    _expect(isinstance(name, str) and bool(name), f"{where}.name", "must be a non-empty string")
    return name


def parse_scenario(tree: Any, where: str = "scenario") -> dict[str, Any]:
    """The checked scenario: name, state, grid, outputs, checks and mc."""
    name = _parse_name(tree, where, "scenario", {"state", "grid", "outputs", "checks", "mc"})

    state_node = tree.get("state")
    _expect(isinstance(state_node, dict), f"{where}.state", "must be an object")
    family = state_node.get("family")
    _expect(isinstance(family, str) and family in FAMILIES, f"{where}.state.family",
            f"must be one of {sorted(FAMILIES)}, got {family!r}")
    params = state_node.get("params", {})
    _expect(isinstance(params, dict), f"{where}.state.params", "must be an object")
    for key, value in params.items():
        _expect(_is_number(value) or isinstance(value, str), f"{where}.state.params.{key}",
                "must be a finite number or a string")
    _known_fields(state_node, {"family", "params"}, f"{where}.state")

    outputs = tree.get("outputs")
    _expect(isinstance(outputs, list) and outputs, f"{where}.outputs",
            "must be a non-empty list")
    for i, q in enumerate(outputs):
        _expect(q in OUTPUT_QUANTITIES, f"{where}.outputs[{i}]",
                f"unknown quantity {q!r}; expected one of {list(OUTPUT_QUANTITIES)}")

    check_nodes = tree.get("checks")
    _expect(check_nodes is None or isinstance(check_nodes, list), f"{where}.checks",
            "must be a list")
    checks = []
    for i, node in enumerate(check_nodes or []):
        cw = f"{where}.checks[{i}]"
        _expect(isinstance(node, dict), cw, "must be an object")
        _known_fields(node, {"quantity", "reference", "tol"}, cw)
        quantity = node.get("quantity")
        _expect(quantity in OUTPUT_QUANTITIES, f"{cw}.quantity",
                f"unknown quantity {quantity!r}")
        _expect(quantity in _computed(outputs), f"{cw}.quantity",
                f"{quantity!r} is not computed; list it (or its entropy) in outputs")
        tol = node.get("tol")
        _expect(_is_number(tol) and tol > 0, f"{cw}.tol", "must be a positive finite number")
        reference = _parse_reference(node.get("reference"), quantity, f"{cw}.reference")
        checks.append({"quantity": quantity, "reference": reference, "tol": float(tol)})

    mc = None
    if tree.get("mc") is not None:
        node = tree["mc"]
        mw = f"{where}.mc"
        _expect(isinstance(node, dict), mw, "must be an object")
        _known_fields(node, {"n_samples", "seed"}, mw)
        n = node.get("n_samples")
        seed = node.get("seed")
        _expect(_is_int(n) and n >= 100, f"{mw}.n_samples", "must be an integer >= 100")
        _expect(n <= MAX_MC_SAMPLES, f"{mw}.n_samples", f"must be at most {MAX_MC_SAMPLES}")
        _expect(_is_int(seed) and 0 <= seed < 2**64, f"{mw}.seed",
                "must be an integer in [0, 2**64)")
        _expect(any(q.endswith("_density") for q in outputs), mw,
                "mc requires at least one density output")
        mc = {"n_samples": n, "seed": seed}

    return {
        "name": name,
        "state": {"family": family, "params": dict(params)},
        "grid": _parse_grid(tree.get("grid"), f"{where}.grid"),
        "outputs": list(outputs),
        "checks": checks,
        "mc": mc,
    }


def parse_sweep(tree: Any, where: str = "sweep") -> dict[str, Any]:
    """The checked sweep: name, path, values as written, points (the parsed
    scenario at each value), outputs and selectors ((quantity, component))."""
    name = _parse_name(tree, where, "sweep", {"scenario", "parameter", "outputs"})
    scenario = tree.get("scenario")
    _expect(isinstance(scenario, dict), f"{where}.scenario", "must be an object")
    base = parse_scenario(scenario, where=f"{where}.scenario")

    parameter = tree.get("parameter")
    _expect(isinstance(parameter, dict), f"{where}.parameter", "must be an object")
    _known_fields(parameter, {"path", "values"}, f"{where}.parameter")
    path = parameter.get("path")
    _expect(isinstance(path, str) and all(key.isidentifier() for key in path.split(".")),
            f"{where}.parameter.path", f"must be dot-separated identifiers, got {path!r}")
    keys = path.split(".")
    node = scenario
    for key in keys:
        _expect(isinstance(node, dict) and key in node, f"{where}.parameter.path",
                f"{path!r} does not address a field of the base scenario")
        node = node[key]
    values = parameter.get("values")
    _expect(isinstance(values, list) and values, f"{where}.parameter.values",
            "must be a non-empty list")
    for i, v in enumerate(values):
        _expect(_is_number(v), f"{where}.parameter.values[{i}]", "must be a finite number")

    outputs = tree.get("outputs")
    _expect(isinstance(outputs, list) and outputs, f"{where}.outputs",
            "must be a non-empty list")
    selectors = []
    for i, sel in enumerate(outputs):
        _expect(isinstance(sel, str), f"{where}.outputs[{i}]", "must be a string")
        quantity, component = _parse_selector(sel, f"{where}.outputs[{i}]")
        _expect(quantity in _computed(base["outputs"]), f"{where}.outputs[{i}]",
                f"{quantity!r} is not computed; list it (or its entropy) in the scenario's outputs")
        selectors.append((quantity, component))

    return {
        "name": name,
        "path": path,
        "values": list(values),
        "points": [
            parse_scenario(_with_value(scenario, keys, v), f"{where}.scenario[{path}={v!r}]")
            for v in values
        ],
        "outputs": list(outputs),
        "selectors": selectors,
    }


def _with_value(tree: dict, keys: list[str], value: Any) -> dict:
    """A copy of ``tree`` with the field at ``keys`` set to ``value``; the
    branches off that path are shared, not copied."""
    head, *rest = keys
    return {**tree, head: _with_value(tree[head], rest, value) if rest else value}


_SELECTOR_RE = re.compile(r"(spin|helicity)_density\[([01])\]\[([01])\]\.(re|im)")


def _parse_selector(selector: str, where: str):
    """A scalar selector: an entropy name or a density entry component."""
    if selector in _DENSITY_FOR_ENTROPY:
        return selector, None
    m = _SELECTOR_RE.fullmatch(selector)
    _expect(m is not None, where, f"invalid scalar selector {selector!r}")
    return f"{m.group(1)}_density", (int(m.group(2)), int(m.group(3)), m.group(4))


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def _computed(outputs: Sequence[str]) -> set[str]:
    """The outputs and the densities their entropies are computed from."""
    return set(outputs) | {_DENSITY_FOR_ENTROPY[q] for q in outputs if q in _DENSITY_FOR_ENTROPY}


def _compute_quantities(
    state: OneParticleState, grid: QuadratureGrid, quantities: Sequence[str]
) -> dict[str, Any]:
    needed = _computed(quantities)
    out: dict[str, Any] = {}
    prepared = normalize(state, grid)
    for density, reduce in (("spin_density", reduced_spin_density),
                            ("helicity_density", reduced_helicity_density)):
        if density in needed:
            out[density] = reduce(prepared, grid)
    for entropy, density in _DENSITY_FOR_ENTROPY.items():
        if entropy in needed:
            out[entropy] = von_neumann_entropy(out[density])
    return out


def _deviation(quantity: str, computed: Any, reference: Any) -> float:
    """The largest entry of |computed - reference|; the reference is an oracle
    name, a number, a matrix or another result of the same quantity."""
    if isinstance(reference, str):
        reference = ORACLES[reference]()
    if quantity.endswith("_entropy"):
        bits = reference.entropy_bits if isinstance(reference, EntropyReport) else reference
        return abs(computed.entropy_bits - float(bits))
    ref = reference.entries if isinstance(reference, DensityMatrix2) else np.asarray(reference)
    return float(np.max(np.abs(computed.entries - ref)))


def execute_scenario(scenario: dict[str, Any], compute_convergence: bool = True) -> dict[str, Any]:
    """Run one parsed scenario (build, normalize, reduce, check); returns its
    report tree, :func:`report_tree`'s head and the verdicts."""
    state = build_state(**scenario["state"])
    r_max = R_MAX_WIDTHS * state.characteristic_width  # the default: 8 widths
    if "r_max" not in scenario["grid"] and not math.isfinite(r_max):
        raise ConfigurationError(f"the default r_max, {R_MAX_WIDTHS:g} x the state's width "
                                 f"{state.characteristic_width:g}, is not finite; set grid.r_max")
    grid = build_grid(**{"r_max": r_max, **scenario["grid"]})
    outputs = scenario["outputs"]
    results = _compute_quantities(state, grid, outputs)
    report = report_tree(scenario, grid, results)

    if compute_convergence:
        refined_grid = refine(grid)
        refined = _compute_quantities(state, refined_grid, outputs)
        delta = max(_deviation(key, value, refined[key]) for key, value in results.items())
        report["convergence"] = {"refined_grid": refined_grid, "max_delta": delta}

    checks = []
    for check in scenario["checks"]:
        deviation = _deviation(check["quantity"], results[check["quantity"]], check["reference"])
        checks.append({**check, "deviation": deviation, "passed": deviation <= check["tol"]})
    if checks:
        report["checks"] = checks

    mc = scenario["mc"]
    if mc is not None:
        estimates: dict[str, Any] = {}
        for quantity in outputs:
            if not quantity.endswith("_density"):
                continue
            basis = quantity.split("_")[0]
            estimate = mc_density(state, basis, mc["n_samples"], mc["seed"])
            max_sigma = float(np.max(estimate.sigma_distance(results[quantity].entries)))
            estimates[quantity] = {
                "value": estimate.value,
                "std_error": estimate.std_error,
                "effective_sample_size": estimate.ess,
                # JSON has no infinity: a real gap over a zero standard error is null
                "max_sigma_distance": max_sigma if math.isfinite(max_sigma) else None,
                "within_bound": bool(max_sigma <= MC_SIGMA_BOUND),
            }
        report["mc"] = {**mc, "sigma_bound": MC_SIGMA_BOUND, "estimates": estimates}
    report["all_checks_passed"] = not failed_quantities(report)
    return report


def failed_quantities(report: dict[str, Any]) -> list[str]:
    """The quantities of a report's failed checks, then of its Monte-Carlo
    estimates outside their bound."""
    failed = [c["quantity"] for c in report.get("checks", ()) if not c["passed"]]
    if "mc" in report:
        failed += [q for q, block in report["mc"]["estimates"].items() if not block["within_bound"]]
    return failed


def execute_sweep(sweep: dict[str, Any], failures: list[str] | None = None) -> list[list[str]]:
    """Run every sweep point as parsed; returns CSV rows (header first).

    A row's status is ``ok``, ``fail:<quantity>`` naming its first failing
    check or Monte-Carlo estimate, or ``error:<exception type>`` with empty
    cells. Each row that is not ok appends ``point <value>: <status>`` to
    ``failures``, an error with its message.
    """
    rows = [[sweep["path"], *sweep["outputs"], "status"]]
    for value, point in zip(sweep["values"], sweep["points"]):
        cells = [repr(value)]  # a JSON integer as written, a float as in reports
        try:
            result = execute_scenario(point, compute_convergence=False)
        except HelispinError as exc:
            status = f"error:{type(exc).__name__}"
            rows.append(cells + [""] * len(sweep["selectors"]) + [status])
            reason = f"{status}: {exc}"
        else:
            for quantity, component in sweep["selectors"]:
                value_obj = result["results"][quantity]
                if component is None:
                    cells.append(_format_float(value_obj.entropy_bits))
                else:
                    i, j, part = component
                    entry = value_obj.entries[i, j]
                    cells.append(_format_float(entry.real if part == "re" else entry.imag))
            failed = failed_quantities(result)
            status = reason = f"fail:{failed[0]}" if failed else "ok"
            rows.append(cells + [status])
        if status != "ok" and failures is not None:
            failures.append(f"point {cells[0]}: {reason}")
    return rows


# ---------------------------------------------------------------------------
# Deterministic serialization
# ---------------------------------------------------------------------------

def _format_float(x: float) -> str:
    """The shortest text that reads back to the same double, as in reports."""
    return repr(float(x))


def report_tree(scenario: dict[str, Any], grid: QuadratureGrid, results: dict) -> dict[str, Any]:
    """The head of a scenario's report, a tree of JSON values and the result
    objects that :func:`dumps_deterministic` knows how to write."""
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "helispin", "version": __version__},
        "scenario": {key: scenario[key] for key in ("name", "state", "outputs")},
        "grid": grid,
        "results": results,
    }


def _report_value(obj: Any) -> Any:
    """The JSON form of a result object; complex arrays as [re, im] pairs."""
    if isinstance(obj, DensityMatrix2):
        return {"basis": obj.basis, "matrix": obj.entries}
    if isinstance(obj, QuadratureGrid):
        return {"n_r": obj.n_r, "n_theta": obj.n_theta, "n_phi": obj.n_phi, "r_max": obj.r_max}
    if isinstance(obj, EntropyReport):
        return asdict(obj)
    if isinstance(obj, np.ndarray):
        return (np.stack([obj.real, obj.imag], axis=-1) if np.iscomplexobj(obj) else obj).tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def dumps_deterministic(tree: Any) -> str:
    """JSON with sorted keys and shortest round-trip floats; byte-stable across runs."""
    try:
        return json.dumps(tree, indent=2, sort_keys=True, allow_nan=False,
                          default=_report_value) + "\n"
    except (TypeError, ValueError) as exc:  # a non-finite float or a non-JSON value
        raise ConfigurationError(f"cannot serialize report: {exc}") from exc


def write_csv(rows: list[list[str]], path: Path) -> None:
    path.write_text("\n".join(",".join(row) for row in rows) + "\n", encoding="utf-8", newline="\n")


# ---------------------------------------------------------------------------
# Bundled scenarios and file resolution
# ---------------------------------------------------------------------------

def _read_json(path: Any) -> Any:
    """The JSON tree of a file or a bundled resource (anything with
    ``read_text(encoding=...)``); text that is not UTF-8 JSON is an input error."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ScenarioParseError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}")
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}")


def bundled_scenarios() -> dict[str, dict]:
    """Name -> parsed JSON tree of every bundled scenario/sweep file."""
    out = {}
    root = resources.files("helispin").joinpath("scenarios")
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            out[entry.name[: -len(".json")]] = _read_json(entry)
    return out


def load_input(path_or_name: str) -> dict:
    """Load a scenario/sweep tree from a file path or a bundled name."""
    path = Path(path_or_name)
    if path.exists():
        return _read_json(path)
    name = path_or_name.removesuffix(".json")
    entry = resources.files("helispin") / "scenarios" / f"{name}.json"
    if Path(name).name == name and entry.is_file():  # a bare name, not a path into the package
        return _read_json(entry)
    raise ScenarioParseError(
        f"{path_or_name!r} is neither an existing file nor a bundled scenario "
        f"(bundled: {', '.join(sorted(bundled_scenarios()))})"
    )


# ---------------------------------------------------------------------------
# Command-line front end
# ---------------------------------------------------------------------------

def _option_tree(text: str, keys: tuple[str, ...], flag: str) -> dict[str, Any]:
    """A comma-separated override as the scenario field it replaces, one JSON value a key."""
    parts = text.split(",")
    if len(parts) != len(keys):
        raise ScenarioParseError(f"{flag} expects {','.join(keys)}")
    try:
        return dict(zip(keys, map(json.loads, parts)))
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"{flag}: {exc.doc!r} is not a JSON value")


def _cmd_run(args: argparse.Namespace) -> int:
    tree = load_input(args.scenario)
    if isinstance(tree, dict):  # parse_scenario rejects any other tree
        if args.grid is not None:
            tree["grid"] = _option_tree(args.grid, ("n_r", "n_theta", "n_phi", "r_max"), "--grid")
        if args.mc is not None:
            tree["mc"] = _option_tree(args.mc, ("n_samples", "seed"), "--mc")
    scenario = parse_scenario(tree)
    report = execute_scenario(scenario)
    text = dumps_deterministic(report)
    out_path = Path(args.out) if args.out else Path(f"{scenario['name']}.report.json")
    out_path.write_text(text, encoding="utf-8", newline="\n")
    for check in report.get("checks", ()):
        status = "PASS" if check["passed"] else "FAIL"
        print(f"check {check['quantity']}: deviation {_format_float(check['deviation'])} "
              f"tol {_format_float(check['tol'])} {status}")
    if "mc" in report:
        for key, block in sorted(report["mc"]["estimates"].items()):
            status = "PASS" if block["within_bound"] else "FAIL"
            distance = block["max_sigma_distance"]
            print(f"mc {key}: max sigma distance "
                  f"{'inf' if distance is None else _format_float(distance)} {status}")
    print(f"report: {out_path}")
    return 0 if report["all_checks_passed"] else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    sweep = parse_sweep(load_input(args.sweep))
    failures: list[str] = []
    rows = execute_sweep(sweep, failures)
    out_path = Path(args.out) if args.out else Path(f"{sweep['name']}.csv")
    write_csv(rows, out_path)
    for line in failures:
        print(line)
    print(f"table: {out_path}")
    return 1 if failures else 0


def _cmd_list_scenarios(_: argparse.Namespace) -> int:
    for name, tree in sorted(bundled_scenarios().items()):
        kind = "sweep" if "parameter" in tree else "scenario"
        print(f"{name}  [{kind}]")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="helispin",
        description="Reduced spin/helicity density matrices and entanglement "
        "entropies of one-particle momentum wave packets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario file or bundled scenario")
    run.add_argument("scenario", help="scenario file path or bundled name")
    run.add_argument("--out", help="report output path (default: <name>.report.json)")
    run.add_argument("--grid", help="override grid: n_r,n_theta,n_phi,r_max")
    run.add_argument("--mc", help="add a Monte-Carlo cross-check: n_samples,seed")
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser("sweep", help="run a sweep file or bundled sweep")
    sweep.add_argument("sweep", help="sweep file path or bundled name")
    sweep.add_argument("--out", help="CSV output path (default: <name>.csv)")
    sweep.set_defaults(func=_cmd_sweep)

    ls = sub.add_parser("list-scenarios", help="list bundled scenarios and sweeps")
    ls.set_defaults(func=_cmd_list_scenarios)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(all="ignore"):  # a non-finite value meets a check with its own message
            return args.func(args)
    except HelispinError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
