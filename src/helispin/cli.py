"""Declarative scenario runner.

Scenario and sweep inputs are JSON trees with a ``schema_version`` field;
reports are JSON emitted by a deterministic writer (sorted keys, floats
rendered with 17 significant digits, complex numbers as [re, im] pairs, LF
endings, no timestamps), so identical inputs produce byte-identical reports.
Sweep tables and plot series are CSV with a header row.

Exit codes: 0 all checks pass, 1 check failure, 2 input error, 3 numerical
error, 4 I/O error.
"""
from __future__ import annotations

import argparse
import copy
import json
import re
import sys
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import __version__
from .density import DensityMatrix2, reduced_helicity_density, reduced_spin_density
from .entropy import von_neumann_entropy
from .errors import (
    ConfigurationError,
    ContractViolationError,
    DegenerateInputError,
    NumericalDomainError,
    ScenarioParseError,
)
from .oracles import (
    mc_density,
    oracle_helicity_matrix_theta_independent,
    oracle_spin_matrix_isotropic_helicity,
    oracle_spin_up_helicity_entropy,
)
from .quadrature import (
    DEFAULT_N_PHI,
    DEFAULT_N_R,
    DEFAULT_N_THETA,
    R_MAX_WIDTHS,
    QuadratureGrid,
    build_grid,
)
from .states import (
    OneParticleState,
    anisotropic_spin_up,
    gaussian_helicity_up,
    gaussian_spin_up,
    normalize,
    radial_profile,
    theta_independent_spin_up,
)

SCHEMA_VERSION = 1
OUTPUT_QUANTITIES = ("spin_density", "helicity_density", "spin_entropy", "helicity_entropy")
_DENSITY_FOR_ENTROPY = {"spin_entropy": "spin_density", "helicity_entropy": "helicity_density"}
MC_SIGMA_BOUND = 4.0

#: Named references usable in scenario checks.
ORACLES: dict[str, Any] = {
    "theta_independent_helicity_matrix": oracle_helicity_matrix_theta_independent,
    "isotropic_helicity_spin_matrix": oracle_spin_matrix_isotropic_helicity,
    "spin_up_helicity_entropy": oracle_spin_up_helicity_entropy,
    "maximally_mixed_entropy": lambda: 1.0,
    "pure_state_entropy": lambda: 0.0,
}


# ---------------------------------------------------------------------------
# Configuration dataclasses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    n_r: int = DEFAULT_N_R
    n_theta: int = DEFAULT_N_THETA
    n_phi: int = DEFAULT_N_PHI
    r_max: float | None = None  # None: 8x the state's characteristic width

    def resolve(self, state: OneParticleState) -> tuple["GridSpec", QuadratureGrid]:
        r_max = self.r_max if self.r_max is not None else R_MAX_WIDTHS * state.characteristic_width
        spec = GridSpec(self.n_r, self.n_theta, self.n_phi, float(r_max))
        return spec, build_grid(spec.n_r, spec.n_theta, spec.n_phi, spec.r_max)


@dataclass(frozen=True)
class CheckSpec:
    quantity: str
    reference: Any  # oracle name, scalar, or 2x2 matrix
    tol: float


@dataclass(frozen=True)
class McSpec:
    n_samples: int
    seed: int


@dataclass(frozen=True)
class Scenario:
    name: str
    family: str
    params: dict[str, Any]
    grid: GridSpec
    outputs: tuple[str, ...]
    checks: tuple[CheckSpec, ...] = ()
    mc: McSpec | None = None


@dataclass(frozen=True)
class SweepSpec:
    name: str
    scenario: dict[str, Any]
    parameter_path: str
    values: tuple[float, ...]
    outputs: tuple[str, ...]


@dataclass
class CheckResult:
    quantity: str
    reference: Any
    tol: float
    deviation: float
    passed: bool


@dataclass
class ScenarioResult:
    scenario: Scenario
    grid: GridSpec
    results: dict[str, Any] = field(default_factory=dict)
    convergence: dict[str, Any] | None = None
    checks: list[CheckResult] = field(default_factory=list)
    mc: dict[str, Any] | None = None

    @property
    def all_passed(self) -> bool:
        ok = all(c.passed for c in self.checks)
        if self.mc is not None:
            ok = ok and all(block["within_bound"] for block in self.mc["estimates"].values())
        return ok


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _expect(cond: bool, where: str, message: str) -> None:
    if not cond:
        raise ScenarioParseError(f"{where}: {message}")


def _parse_grid(node: Any, where: str) -> GridSpec:
    if node is None:
        return GridSpec()
    _expect(isinstance(node, dict), where, "grid must be an object")
    known = {"n_r", "n_theta", "n_phi", "r_max"}
    _expect(set(node) <= known, where, f"unknown grid fields {sorted(set(node) - known)}")
    counts = {}
    for key in ("n_r", "n_theta", "n_phi"):
        if key in node:
            _expect(isinstance(node[key], int) and not isinstance(node[key], bool),
                    f"{where}.{key}", "must be an integer")
            counts[key] = node[key]
    r_max = node.get("r_max")
    if r_max is not None:
        _expect(isinstance(r_max, (int, float)) and not isinstance(r_max, bool),
                f"{where}.r_max", "must be a number")
        r_max = float(r_max)
    return GridSpec(
        n_r=counts.get("n_r", DEFAULT_N_R),
        n_theta=counts.get("n_theta", DEFAULT_N_THETA),
        n_phi=counts.get("n_phi", DEFAULT_N_PHI),
        r_max=r_max,
    )


def _parse_reference(node: Any, quantity: str, where: str) -> Any:
    if isinstance(node, str):
        _expect(node in ORACLES, where, f"unknown oracle reference {node!r}")
        return node
    if quantity.endswith("_entropy"):
        _expect(isinstance(node, (int, float)) and not isinstance(node, bool),
                where, "entropy reference must be a number or oracle name")
        return float(node)
    _expect(isinstance(node, list) and len(node) == 2, where,
            "density reference must be a 2x2 matrix or oracle name")
    matrix = np.zeros((2, 2), dtype=np.complex128)
    for i, row in enumerate(node):
        _expect(isinstance(row, list) and len(row) == 2, f"{where}[{i}]", "must be a 2-element row")
        for j, entry in enumerate(row):
            if isinstance(entry, (int, float)) and not isinstance(entry, bool):
                matrix[i, j] = float(entry)
            elif (isinstance(entry, list) and len(entry) == 2
                  and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)):
                matrix[i, j] = complex(entry[0], entry[1])
            else:
                raise ScenarioParseError(
                    f"{where}[{i}][{j}]: matrix entries must be numbers or [re, im] pairs"
                )
    return matrix


def parse_scenario(tree: Any, where: str = "scenario") -> Scenario:
    _expect(isinstance(tree, dict), where, "scenario must be an object")
    _expect(tree.get("schema_version") == SCHEMA_VERSION, f"{where}.schema_version",
            f"must be {SCHEMA_VERSION}")
    known = {"schema_version", "name", "state", "grid", "outputs", "checks", "mc"}
    _expect(set(tree) <= known, where, f"unknown fields {sorted(set(tree) - known)}")

    name = tree.get("name")
    _expect(isinstance(name, str) and bool(name), f"{where}.name", "must be a non-empty string")

    state_node = tree.get("state")
    _expect(isinstance(state_node, dict), f"{where}.state", "must be an object")
    family = state_node.get("family")
    _expect(isinstance(family, str), f"{where}.state.family", "must be a string")
    params = state_node.get("params", {})
    _expect(isinstance(params, dict), f"{where}.state.params", "must be an object")
    _expect(set(state_node) <= {"family", "params"}, f"{where}.state",
            f"unknown fields {sorted(set(state_node) - {'family', 'params'})}")

    outputs = tree.get("outputs")
    _expect(isinstance(outputs, list) and outputs, f"{where}.outputs",
            "must be a non-empty list")
    for i, q in enumerate(outputs):
        _expect(q in OUTPUT_QUANTITIES, f"{where}.outputs[{i}]",
                f"unknown quantity {q!r}; expected one of {list(OUTPUT_QUANTITIES)}")

    checks = []
    for i, node in enumerate(tree.get("checks", []) or []):
        cw = f"{where}.checks[{i}]"
        _expect(isinstance(node, dict), cw, "must be an object")
        _expect(set(node) <= {"quantity", "reference", "tol"}, cw,
                f"unknown fields {sorted(set(node) - {'quantity', 'reference', 'tol'})}")
        quantity = node.get("quantity")
        _expect(quantity in OUTPUT_QUANTITIES, f"{cw}.quantity",
                f"unknown quantity {quantity!r}")
        tol = node.get("tol")
        _expect(isinstance(tol, (int, float)) and not isinstance(tol, bool) and tol > 0,
                f"{cw}.tol", "must be a positive number")
        reference = _parse_reference(node.get("reference"), quantity, f"{cw}.reference")
        checks.append(CheckSpec(quantity=quantity, reference=reference, tol=float(tol)))

    mc = None
    if tree.get("mc") is not None:
        node = tree["mc"]
        mw = f"{where}.mc"
        _expect(isinstance(node, dict), mw, "must be an object")
        _expect(set(node) <= {"n_samples", "seed"}, mw,
                f"unknown fields {sorted(set(node) - {'n_samples', 'seed'})}")
        n = node.get("n_samples")
        seed = node.get("seed")
        _expect(isinstance(n, int) and not isinstance(n, bool) and n >= 100,
                f"{mw}.n_samples", "must be an integer >= 100")
        _expect(isinstance(seed, int) and not isinstance(seed, bool) and seed >= 0,
                f"{mw}.seed", "must be a non-negative integer")
        _expect(any(q.endswith("_density") for q in outputs), mw,
                "mc requires at least one density output")
        mc = McSpec(n_samples=n, seed=seed)

    return Scenario(
        name=name,
        family=family,
        params=dict(params),
        grid=_parse_grid(tree.get("grid"), f"{where}.grid"),
        outputs=tuple(outputs),
        checks=tuple(checks),
        mc=mc,
    )


def parse_sweep(tree: Any, where: str = "sweep") -> SweepSpec:
    _expect(isinstance(tree, dict), where, "sweep must be an object")
    _expect(tree.get("schema_version") == SCHEMA_VERSION, f"{where}.schema_version",
            f"must be {SCHEMA_VERSION}")
    known = {"schema_version", "name", "scenario", "parameter", "outputs"}
    _expect(set(tree) <= known, where, f"unknown fields {sorted(set(tree) - known)}")
    name = tree.get("name")
    _expect(isinstance(name, str) and bool(name), f"{where}.name", "must be a non-empty string")
    scenario = tree.get("scenario")
    _expect(isinstance(scenario, dict), f"{where}.scenario", "must be an object")
    parse_scenario(scenario, where=f"{where}.scenario")  # validate the base point

    parameter = tree.get("parameter")
    _expect(isinstance(parameter, dict), f"{where}.parameter", "must be an object")
    _expect(set(parameter) <= {"path", "values"}, f"{where}.parameter",
            "must have fields 'path' and 'values'")
    path = parameter.get("path")
    _expect(isinstance(path, str) and bool(path), f"{where}.parameter.path",
            "must be a non-empty string")
    node = scenario
    for key in path.split(".")[:-1]:
        _expect(isinstance(node, dict) and key in node, f"{where}.parameter.path",
                f"{path!r} does not address a field of the base scenario")
        node = node[key]
    _expect(isinstance(node, dict), f"{where}.parameter.path",
            f"{path!r} does not address an object field")
    values = parameter.get("values")
    _expect(isinstance(values, list) and values, f"{where}.parameter.values",
            "must be a non-empty list")
    for i, v in enumerate(values):
        _expect(isinstance(v, (int, float)) and not isinstance(v, bool),
                f"{where}.parameter.values[{i}]", "must be a number")

    outputs = tree.get("outputs")
    _expect(isinstance(outputs, list) and outputs, f"{where}.outputs",
            "must be a non-empty list")
    for i, sel in enumerate(outputs):
        _expect(isinstance(sel, str), f"{where}.outputs[{i}]", "must be a string")
        _parse_selector(sel, f"{where}.outputs[{i}]")

    return SweepSpec(
        name=name,
        scenario=scenario,
        parameter_path=path,
        values=tuple(float(v) for v in values),
        outputs=tuple(outputs),
    )


_SELECTOR_RE = re.compile(r"^(spin|helicity)_density\[([01])\]\[([01])\]\.(re|im)$")


def _parse_selector(selector: str, where: str):
    """A scalar selector: an entropy name or a density entry component."""
    if selector in ("spin_entropy", "helicity_entropy"):
        return selector, None
    m = _SELECTOR_RE.match(selector)
    _expect(m is not None, where, f"invalid scalar selector {selector!r}")
    return f"{m.group(1)}_density", (int(m.group(2)), int(m.group(3)), m.group(4))


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def build_state(family: str, params: dict[str, Any]) -> OneParticleState:
    """Construct a built-in family from its scenario parameters."""
    params = dict(params)
    try:
        if family == "gaussian_spin_up":
            return gaussian_spin_up(**params)
        if family == "gaussian_helicity_up":
            return gaussian_helicity_up(**params)
        if family == "anisotropic_spin_up":
            return anisotropic_spin_up(**params)
        if family == "theta_independent_spin_up":
            profile_name = params.pop("profile", "gaussian")
            winding = params.pop("winding", 0)
            profile, width = radial_profile(profile_name, **params)
            return theta_independent_spin_up(
                profile, azimuthal_winding=winding, characteristic_width=width
            )
    except TypeError as exc:  # wrong keyword set for the family constructor
        raise ConfigurationError(f"bad parameters for family {family!r}: {exc}") from exc
    raise ConfigurationError(f"unknown state family {family!r}")


def _compute_quantities(
    state: OneParticleState, grid: QuadratureGrid, quantities: Sequence[str]
) -> dict[str, Any]:
    needed = set(quantities)
    for q in quantities:
        if q in _DENSITY_FOR_ENTROPY:
            needed.add(_DENSITY_FOR_ENTROPY[q])
    out: dict[str, Any] = {}
    prepared = normalize(state, grid)
    if "spin_density" in needed:
        out["spin_density"] = reduced_spin_density(prepared, grid)
    if "helicity_density" in needed:
        out["helicity_density"] = reduced_helicity_density(prepared, grid)
    if "spin_entropy" in needed:
        out["spin_entropy"] = von_neumann_entropy(out["spin_density"])
    if "helicity_entropy" in needed:
        out["helicity_entropy"] = von_neumann_entropy(out["helicity_density"])
    return out


def _deviation(quantity: str, computed: Any, reference: Any) -> float:
    if quantity.endswith("_entropy"):
        ref = float(reference)
        return abs(computed.entropy_bits - ref)
    ref = reference.entries if isinstance(reference, DensityMatrix2) else np.asarray(reference)
    return float(np.max(np.abs(computed.entries - ref)))


def _resolve_reference(reference: Any) -> Any:
    if isinstance(reference, str):
        return ORACLES[reference]()
    return reference


def execute_scenario(
    scenario: Scenario, compute_convergence: bool = True
) -> ScenarioResult:
    """Run one scenario: build, normalize, reduce, check."""
    state = build_state(scenario.family, scenario.params)
    grid_spec, grid = scenario.grid.resolve(state)
    results = _compute_quantities(state, grid, scenario.outputs)
    out = ScenarioResult(scenario=scenario, grid=grid_spec, results=results)

    if compute_convergence:
        refined_spec = GridSpec(
            grid_spec.n_r * 2, grid_spec.n_theta * 2, grid_spec.n_phi * 2, grid_spec.r_max
        )
        refined_grid = build_grid(
            refined_spec.n_r, refined_spec.n_theta, refined_spec.n_phi, refined_spec.r_max
        )
        refined = _compute_quantities(state, refined_grid, scenario.outputs)
        delta = 0.0
        for key, value in results.items():
            if key.endswith("_density"):
                delta = max(delta, float(np.max(np.abs(value.entries - refined[key].entries))))
            else:
                delta = max(delta, abs(value.entropy_bits - refined[key].entropy_bits))
        out.convergence = {"refined_grid": refined_spec, "max_delta": delta}

    for check in scenario.checks:
        reference = _resolve_reference(check.reference)
        deviation = _deviation(check.quantity, results[check.quantity], reference)
        out.checks.append(
            CheckResult(
                quantity=check.quantity,
                reference=check.reference,
                tol=check.tol,
                deviation=deviation,
                passed=deviation <= check.tol,
            )
        )

    if scenario.mc is not None:
        estimates: dict[str, Any] = {}
        for quantity in scenario.outputs:
            if not quantity.endswith("_density"):
                continue
            basis = quantity.split("_")[0]
            estimate = mc_density(
                state, basis, scenario.mc.n_samples, scenario.mc.seed
            )
            quad = results[quantity].entries
            gap = np.abs(quad - estimate.value)
            with np.errstate(divide="ignore", invalid="ignore"):
                sigmas = np.where(gap == 0.0, 0.0, gap / estimate.std_error)
            max_sigma = float(np.max(sigmas))
            estimates[quantity] = {
                "value": estimate.value,
                "std_error": estimate.std_error,
                "max_sigma_distance": max_sigma,
                "within_bound": bool(max_sigma <= MC_SIGMA_BOUND),
            }
        out.mc = {
            "n_samples": scenario.mc.n_samples,
            "seed": scenario.mc.seed,
            "sigma_bound": MC_SIGMA_BOUND,
            "estimates": estimates,
        }
    return out


def execute_sweep(sweep: SweepSpec) -> list[list[str]]:
    """Run every sweep point; returns CSV rows (header first)."""
    selectors = [(_parse_selector(s, "outputs"), s) for s in sweep.outputs]
    header = [sweep.parameter_path, *sweep.outputs, "status"]
    rows = [header]
    needed = sorted({sel[0] for sel, _ in selectors})
    for value in sweep.values:
        tree = copy.deepcopy(sweep.scenario)
        cells = [_format_float(value)]
        try:
            _set_path(tree, sweep.parameter_path, value)
            scenario = parse_scenario(tree)
            scenario = replace(
                scenario, outputs=tuple(sorted(set(scenario.outputs) | set(needed))), mc=None
            )
            result = execute_scenario(scenario, compute_convergence=False)
        except (
            ScenarioParseError,
            ConfigurationError,
            DegenerateInputError,
            NumericalDomainError,
            ContractViolationError,
        ) as exc:
            rows.append(cells + [""] * len(selectors) + [f"error:{type(exc).__name__}"])
            continue
        for (quantity, component), _ in selectors:
            value_obj = result.results[quantity]
            if component is None:
                cells.append(_format_float(value_obj.entropy_bits))
            else:
                i, j, part = component
                entry = value_obj.entries[i, j]
                cells.append(_format_float(entry.real if part == "re" else entry.imag))
        rows.append(cells + ["ok"])
    return rows


def _set_path(tree: dict, path: str, value: Any) -> None:
    keys = path.split(".")
    node = tree
    for key in keys[:-1]:
        if not isinstance(node, dict) or key not in node:
            raise ScenarioParseError(f"parameter path {path!r} not found in scenario")
        node = node[key]
    if not isinstance(node, dict):
        raise ScenarioParseError(f"parameter path {path!r} does not address an object field")
    node[keys[-1]] = value


# ---------------------------------------------------------------------------
# Deterministic serialization
# ---------------------------------------------------------------------------

def _format_float(x: float) -> str:
    return f"{float(x):.17g}"


def _complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _matrix_tree(m: np.ndarray) -> list[list[list[float]]]:
    return [[_complex_pair(complex(m[i, j])) for j in range(2)] for i in range(2)]


def _grid_tree(spec: GridSpec) -> dict[str, Any]:
    return {
        "n_r": spec.n_r,
        "n_theta": spec.n_theta,
        "n_phi": spec.n_phi,
        "r_max": spec.r_max,
    }


def _reference_tree(reference: Any) -> Any:
    if isinstance(reference, str):
        return reference
    if isinstance(reference, np.ndarray):
        return _matrix_tree(reference)
    return float(reference)


def report_tree(result: ScenarioResult) -> dict[str, Any]:
    """The report as a plain tree of JSON-serializable values."""
    sc = result.scenario
    tree: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "helispin", "version": __version__},
        "scenario": {
            "name": sc.name,
            "state": {"family": sc.family, "params": dict(sc.params)},
            "outputs": list(sc.outputs),
        },
        "grid": _grid_tree(result.grid),
        "results": {},
        "all_checks_passed": result.all_passed,
    }
    for key in sorted(result.results):
        value = result.results[key]
        if key.endswith("_density"):
            tree["results"][key] = {"basis": value.basis, "matrix": _matrix_tree(value.entries)}
        else:
            tree["results"][key] = {
                "eigenvalues": list(value.eigenvalues),
                "entropy_bits": value.entropy_bits,
            }
    if result.convergence is not None:
        tree["convergence"] = {
            "refined_grid": _grid_tree(result.convergence["refined_grid"]),
            "max_delta": result.convergence["max_delta"],
        }
    if result.checks:
        tree["checks"] = [
            {
                "quantity": c.quantity,
                "reference": _reference_tree(c.reference),
                "tol": c.tol,
                "deviation": c.deviation,
                "passed": c.passed,
            }
            for c in result.checks
        ]
    if result.mc is not None:
        tree["mc"] = {
            "n_samples": result.mc["n_samples"],
            "seed": result.mc["seed"],
            "sigma_bound": result.mc["sigma_bound"],
            "estimates": {
                key: {
                    "value": _matrix_tree(block["value"]),
                    "std_error": [
                        [float(block["std_error"][i, j]) for j in range(2)] for i in range(2)
                    ],
                    "max_sigma_distance": block["max_sigma_distance"],
                    "within_bound": block["within_bound"],
                }
                for key, block in sorted(result.mc["estimates"].items())
            },
        }
    return tree


def dumps_deterministic(tree: Any) -> str:
    """JSON with sorted keys and %.17g floats; byte-stable across runs."""
    pieces: list[str] = []
    _emit(tree, pieces, 0)
    return "".join(pieces) + "\n"


def _emit(node: Any, out: list[str], indent: int) -> None:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(node, dict):
        if not node:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(node)
        for i, key in enumerate(keys):
            if not isinstance(key, str):
                raise ConfigurationError("report keys must be strings")
            out.append(f"{inner}{json.dumps(key)}: ")
            _emit(node[key], out, indent + 1)
            out.append(",\n" if i < len(keys) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(node, (list, tuple)):
        if not node:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(node):
            out.append(inner)
            _emit(item, out, indent + 1)
            out.append(",\n" if i < len(node) - 1 else "\n")
        out.append(pad + "]")
    elif isinstance(node, bool):
        out.append("true" if node else "false")
    elif isinstance(node, (int, np.integer)):
        out.append(str(int(node)))
    elif isinstance(node, (float, np.floating)):
        if not np.isfinite(node):
            raise ConfigurationError(f"cannot serialize non-finite float {node}")
        out.append(_format_float(float(node)))
    elif isinstance(node, str):
        out.append(json.dumps(node))
    elif node is None:
        out.append("null")
    else:
        raise ConfigurationError(f"cannot serialize value of type {type(node).__name__}")


def write_csv(rows: list[list[str]], path: Path) -> None:
    path.write_text("\n".join(",".join(row) for row in rows) + "\n", encoding="utf-8", newline="\n")


# ---------------------------------------------------------------------------
# Bundled scenarios and file resolution
# ---------------------------------------------------------------------------

def bundled_scenarios() -> dict[str, dict]:
    """Name -> parsed JSON tree of every bundled scenario/sweep file."""
    out = {}
    root = resources.files("helispin").joinpath("scenarios")
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            out[entry.name[: -len(".json")]] = json.loads(entry.read_text(encoding="utf-8"))
    return out


def load_input(path_or_name: str) -> dict:
    """Load a scenario/sweep tree from a file path or a bundled name."""
    path = Path(path_or_name)
    if path.exists():
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ScenarioParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}")
    name = path_or_name.removesuffix(".json")
    bundled = bundled_scenarios()
    if name in bundled:
        return bundled[name]
    raise ScenarioParseError(
        f"{path_or_name!r} is neither an existing file nor a bundled scenario "
        f"(bundled: {', '.join(sorted(bundled))})"
    )


# ---------------------------------------------------------------------------
# Plot data
# ---------------------------------------------------------------------------

def emit_plotdata(source: Path, out_dir: Path) -> list[Path]:
    """Emit (x, y) series CSV files from a sweep table or a report."""
    written: list[Path] = []
    if source.suffix == ".csv":
        lines = source.read_text(encoding="utf-8").splitlines()
        if not lines:
            raise ScenarioParseError(f"{source}: empty table")
        header = lines[0].split(",")
        if len(header) < 3 or header[-1] != "status":
            raise ScenarioParseError(f"{source}: not a sweep table")
        data = [line.split(",") for line in lines[1:] if line]
        for col in range(1, len(header) - 1):
            rows = [["x", "y"]]
            for cells in data:
                if cells[-1] == "ok":
                    rows.append([cells[0], cells[col]])
            target = out_dir / f"{source.stem}__{_sanitize(header[col])}.csv"
            write_csv(rows, target)
            written.append(target)
        return written
    tree = json.loads(source.read_text(encoding="utf-8"))
    results = tree.get("results")
    if not isinstance(results, dict):
        raise ScenarioParseError(f"{source}: not a scenario report")
    for key in sorted(results):
        if not key.endswith("_entropy"):
            continue
        rows = [["x", "y"], ["0", _format_float(results[key]["entropy_bits"])]]
        target = out_dir / f"{source.stem}__{_sanitize(key)}.csv"
        write_csv(rows, target)
        written.append(target)
    if not written:
        raise ScenarioParseError(f"{source}: report contains no entropy series")
    return written


def _sanitize(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_]+", "_", name).strip("_")


# ---------------------------------------------------------------------------
# Command-line front end
# ---------------------------------------------------------------------------

def _parse_grid_option(text: str) -> GridSpec:
    parts = text.split(",")
    if len(parts) != 4:
        raise ScenarioParseError("--grid expects n_r,n_theta,n_phi,r_max")
    try:
        return GridSpec(int(parts[0]), int(parts[1]), int(parts[2]), float(parts[3]))
    except ValueError as exc:
        raise ScenarioParseError(f"--grid: {exc}")


def _parse_mc_option(text: str) -> McSpec:
    parts = text.split(",")
    if len(parts) != 2:
        raise ScenarioParseError("--mc expects n_samples,seed")
    try:
        return McSpec(n_samples=int(parts[0]), seed=int(parts[1]))
    except ValueError as exc:
        raise ScenarioParseError(f"--mc: {exc}")


def _cmd_run(args: argparse.Namespace) -> int:
    tree = load_input(args.scenario)
    scenario = parse_scenario(tree)
    if args.grid is not None:
        scenario = replace(scenario, grid=_parse_grid_option(args.grid))
    if args.mc is not None:
        mc = _parse_mc_option(args.mc)
        if not any(q.endswith("_density") for q in scenario.outputs):
            raise ScenarioParseError("--mc requires a density output in the scenario")
        scenario = replace(scenario, mc=mc)
    result = execute_scenario(scenario)
    text = dumps_deterministic(report_tree(result))
    out_path = Path(args.out) if args.out else Path(f"{scenario.name}.report.json")
    _write_text(out_path, text)
    for check in result.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"check {check.quantity}: deviation {_format_float(check.deviation)} "
              f"tol {_format_float(check.tol)} {status}")
    if result.mc is not None:
        for key, block in sorted(result.mc["estimates"].items()):
            status = "PASS" if block["within_bound"] else "FAIL"
            print(f"mc {key}: max sigma distance "
                  f"{_format_float(block['max_sigma_distance'])} {status}")
    print(f"report: {out_path}")
    return 0 if result.all_passed else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    tree = load_input(args.sweep)
    sweep = parse_sweep(tree)
    rows = execute_sweep(sweep)
    out_path = Path(args.out) if args.out else Path(f"{sweep.name}.csv")
    write_csv(rows, out_path)
    failures = [row for row in rows[1:] if row[-1] != "ok"]
    for row in failures:
        print(f"point {row[0]}: {row[-1]}")
    print(f"table: {out_path}")
    return 0 if not failures else 1


def _cmd_list_scenarios(_: argparse.Namespace) -> int:
    for name, tree in sorted(bundled_scenarios().items()):
        kind = "sweep" if "parameter" in tree else "scenario"
        print(f"{name}  [{kind}]")
    return 0


def _cmd_plotdata(args: argparse.Namespace) -> int:
    source = Path(args.source)
    if not source.exists():
        raise ScenarioParseError(f"no such file: {source}")
    out_dir = Path(args.out) if args.out else source.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    for path in emit_plotdata(source, out_dir):
        print(f"series: {path}")
    return 0


def _write_text(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8", newline="\n")


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

    plot = sub.add_parser("plotdata", help="emit (x, y) series CSVs from a report or table")
    plot.add_argument("source", help="report JSON or sweep CSV")
    plot.add_argument("--out", help="output directory (default: alongside the source)")
    plot.set_defaults(func=_cmd_plotdata)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioParseError, ConfigurationError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (NumericalDomainError, DegenerateInputError, ContractViolationError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
