#!/usr/bin/env python3
"""Run every bundled scenario and sweep, writing reports/tables to out/.

The two density scenarios also get a 10^6-sample Monte-Carlo cross-check
with fixed seeds, so the whole script doubles as an end-to-end smoke test.
It also writes generic_state.json: the non-separable state of
mc_crosscheck.py reduced on the mesh path in both bases, directly and after
``with_basis``, and its seeded Monte-Carlo estimates, so that
compare_outputs.py sees the mesh path and the su2 transforms bit for bit;
and profiles.json: each theta_independent_spin_up case of mc_crosscheck.py,
its characteristic width and its reductions in both bases, so that the
named radial profiles are compared too.

No bundled input fails a check or errors on a sweep point, so two more
inputs are written to <out_dir>/inputs/ and run through the CLI: a scenario
whose check fails (a report with "all_checks_passed": false) and a sweep
whose rows are ok, fail:<quantity> and error:<type>.

A fixed list of malformed inputs (ERROR_INPUTS: every parse rule of
scenarios, sweeps and the --grid/--mc flags, plus the input, numerical and
I/O errors of execution) also runs through the CLI. errors.json records each
one's exit code and stderr text, with <out_dir> in place of the output
directory, so compare_outputs.py compares error messages too. The script
exits 0 only when every command ends with its expected exit code.
"""
import contextlib
import io
import json
import sys
from pathlib import Path

import helispin as hs
from helispin.cli import bundled_scenarios, dumps_deterministic, main
from mc_crosscheck import PROFILE_CASES, generic_state

MC_OVERRIDES = {
    "eq10_theta_independent": "1000000,20260808",
    "eq15_isotropic_helicity": "1000000,31415926",
}
GENERIC_MC = (100_000, 20261020)

#: alpha = 1 makes the helicity matrix anisotropic, so the theta-independent
#: oracle fails; alpha = 0 passes it and alpha = 2 is outside [-1, 1].
FAILING_SCENARIO = {
    "schema_version": 1,
    "name": "failing_check",
    "state": {"family": "anisotropic_spin_up", "params": {"tau": 1.0, "alpha": 1.0}},
    "outputs": ["helicity_density", "helicity_entropy"],
    "checks": [{"quantity": "helicity_density",
                "reference": "theta_independent_helicity_matrix", "tol": 1e-8}],
}
FAILING_SWEEP = {
    "schema_version": 1,
    "name": "failing_sweep",
    "scenario": FAILING_SCENARIO,
    "parameter": {"path": "state.params.alpha", "values": [0, 1, 2]},
    "outputs": ["helicity_density[0][1].re", "helicity_entropy"],
}
#: name -> (command, input tree, expected exit code)
VERDICT_INPUTS = {
    "failing_check": ("run", FAILING_SCENARIO, 1),
    "failing_sweep": ("sweep", FAILING_SWEEP, 1),
}

BASE = {
    "schema_version": 1,
    "name": "base",
    "state": {"family": "gaussian_spin_up", "params": {"tau": 1.0}},
    "outputs": ["helicity_density", "helicity_entropy"],
}
BASE_SWEEP = {
    "schema_version": 1,
    "name": "base_sweep",
    "scenario": BASE,
    "parameter": {"path": "state.params.tau", "values": [1.0]},
    "outputs": ["helicity_entropy"],
}
INF = float("inf")  # json.dumps writes Infinity, which Python's json reads back


def _check(**fields) -> dict:
    """BASE with one check, its fields over a passing density check."""
    check = {"quantity": "helicity_density", "reference": "theta_independent_helicity_matrix",
             "tol": 1e-8, **fields}
    return {**BASE, "checks": [check]}


def _mc(**fields) -> dict:
    return {**BASE, "mc": {"n_samples": 1000, "seed": 1, **fields}}


def _parameter(**fields) -> dict:
    return {**BASE_SWEEP, "parameter": {**BASE_SWEEP["parameter"], **fields}}


#: name -> (command, input, extra CLI arguments, expected exit code). An input
#: is a tree written as JSON, bytes written as they are, or a string passed
#: as the command's argument; "<input>" in the arguments is the input's path.
ERROR_INPUTS = {
    # documents and their headers
    "not_json": ("run", b'{"schema_version": 1,,}', [], 2),
    "not_utf8": ("run", '{"name": "caf\u00e9"}'.encode("latin-1"), [], 2),
    "unknown_input": ("run", "no_such_scenario", [], 2),
    "scenario_not_object": ("run", [1], [], 2),
    "schema_version": ("run", {**BASE, "schema_version": 2}, [], 2),
    "unknown_field": ("run", {**BASE, "extra": 1}, [], 2),
    "missing_name": ("run", {**BASE, "name": ""}, [], 2),
    "run_a_sweep": ("run", "eq12_tau_sweep", [], 2),
    "sweep_a_scenario": ("sweep", "eq10_theta_independent", [], 2),
    # state
    "state_not_object": ("run", {**BASE, "state": []}, [], 2),
    "unknown_family": ("run", {**BASE, "state": {"family": "no_such_family"}}, [], 2),
    "params_not_object": ("run", {**BASE, "state": {"family": "gaussian_spin_up",
                                                    "params": [1.0]}}, [], 2),
    "param_not_finite": ("run", {**BASE, "state": {"family": "gaussian_spin_up",
                                                   "params": {"tau": INF}}}, [], 2),
    "state_unknown_field": ("run", {**BASE, "state": {**BASE["state"], "basis": "spin"}}, [], 2),
    # outputs
    "outputs_empty": ("run", {**BASE, "outputs": []}, [], 2),
    "unknown_output": ("run", {**BASE, "outputs": ["charm_density"]}, [], 2),
    # checks and their references
    "checks_not_list": ("run", {**BASE, "checks": {}}, [], 2),
    "check_not_object": ("run", {**BASE, "checks": [1]}, [], 2),
    "check_unknown_field": ("run", _check(weight=1), [], 2),
    "check_unknown_quantity": ("run", _check(quantity="charm_density"), [], 2),
    "check_not_computed": ("run", _check(quantity="spin_density"), [], 2),
    "check_tol": ("run", _check(tol=0), [], 2),
    "unknown_oracle": ("run", _check(reference="no_such_oracle"), [], 2),
    "oracle_quantity": ("run", _check(reference="spin_up_helicity_entropy"), [], 2),
    "entropy_reference": ("run", _check(quantity="helicity_entropy", reference=[0.5]), [], 2),
    "density_reference": ("run", _check(reference=[0.5, 0.5, 0.5]), [], 2),
    "reference_row": ("run", _check(reference=[[0.5, 0.0], [0.5]]), [], 2),
    "reference_entry": ("run", _check(reference=[[0.5, "x"], [0.0, 0.5]]), [], 2),
    "reference_modulus": ("run", _check(reference=[[[1.7e308, 1.7e308], 0], [0, 0]]), [], 2),
    # mc
    "mc_not_object": ("run", {**BASE, "mc": 1}, [], 2),
    "mc_unknown_field": ("run", _mc(chains=2), [], 2),
    "mc_too_few": ("run", _mc(n_samples=99), [], 2),
    "mc_too_many": ("run", _mc(n_samples=10**30), [], 2),
    "mc_seed": ("run", _mc(seed=-1), [], 2),
    "mc_no_density": ("run", {**_mc(), "outputs": ["helicity_entropy"]}, [], 2),
    # grid
    "grid_not_object": ("run", {**BASE, "grid": 8}, [], 2),
    "grid_unknown_field": ("run", {**BASE, "grid": {"n_psi": 8}}, [], 2),
    "grid_count_type": ("run", {**BASE, "grid": {"n_r": 8.0}}, [], 2),
    "grid_count_cap": ("run", {**BASE, "grid": {"n_theta": 513}}, [], 2),
    "grid_r_max": ("run", {**BASE, "grid": {"r_max": INF}}, [], 2),
    "grid_flag_arity": ("run", "eq10_theta_independent", ["--grid", "32,32,32"], 2),
    "grid_flag_value": ("run", "eq10_theta_independent", ["--grid", "32,32,32,x"], 2),
    "mc_flag_arity": ("run", "eq10_theta_independent", ["--mc", "20000"], 2),
    # sweeps
    "sweep_not_object": ("sweep", [1], [], 2),
    "sweep_scenario": ("sweep", {**BASE_SWEEP, "scenario": 1}, [], 2),
    "sweep_base_family": ("sweep", {**BASE_SWEEP, "scenario": {**BASE, "state": {"family": "x"}}},
                          [], 2),
    "sweep_parameter": ("sweep", {**BASE_SWEEP, "parameter": []}, [], 2),
    "sweep_parameter_field": ("sweep", _parameter(step=1), [], 2),
    "sweep_path_syntax": ("sweep", _parameter(path="state.params.tau,x"), [], 2),
    "sweep_path_missing": ("sweep", _parameter(path="state.params.tua"), [], 2),
    "sweep_values_empty": ("sweep", _parameter(values=[]), [], 2),
    "sweep_value_finite": ("sweep", _parameter(values=[1.0, INF]), [], 2),
    "sweep_point": ("sweep", _parameter(path="state.family"), [], 2),
    "sweep_outputs": ("sweep", {**BASE_SWEEP, "outputs": []}, [], 2),
    "sweep_output_type": ("sweep", {**BASE_SWEEP, "outputs": [1]}, [], 2),
    "sweep_selector": ("sweep", {**BASE_SWEEP, "outputs": ["helicity_density[0][2].re"]}, [], 2),
    "sweep_selector_computed": ("sweep", {**BASE_SWEEP, "outputs": ["spin_entropy"]}, [], 2),
    # execution: input, numerical and I/O errors
    "family_keyword": ("run", {**BASE, "state": {"family": "gaussian_spin_up",
                                                 "params": {"tua": 1.0}}}, [], 2),
    "family_params": ("run", {**BASE, "state": {"family": "anisotropic_spin_up",
                                                "params": {"tau": 1.0, "alpha": 2.0}}}, [], 2),
    "r_max_overflow_tau": ("run", {**BASE, "state": {"family": "gaussian_spin_up",
                                                     "params": {"tau": 1e308}}}, [], 2),
    "r_max_overflow_scale": ("run", {**BASE, "state": {
        "family": "theta_independent_spin_up",
        "params": {"profile": "linear_exp", "scale": 1e307}}}, [], 2),
    "empty_shell": ("run", {**BASE, "grid": {"r_max": 8.0}, "state": {
        "family": "theta_independent_spin_up",
        "params": {"profile": "shell", "p_min": 100.0, "p_max": 101.0}}}, [], 3),
    "norm_overflow": ("run", {**BASE, "state": {"family": "gaussian_spin_up",
                                                "params": {"tau": 1e150}}}, [], 3),
    "unwritable_report": ("run", BASE, ["--out", "<input>/report.json"], 4),
}


def generic_state_tree() -> dict:
    """The generic state's reductions and Monte-Carlo estimates, by basis."""
    state = generic_state()  # stored in the helicity basis
    grid = hs.build_grid(r_max=8.0 * state.characteristic_width)
    direct = hs.normalize(state, grid)
    converted = hs.normalize(hs.with_basis(state, hs.SPIN), grid)
    tree = {}
    for basis, reduce in ((hs.SPIN, hs.reduced_spin_density),
                          (hs.HELICITY, hs.reduced_helicity_density)):
        estimate = hs.mc_density(state, basis, *GENERIC_MC)
        tree[basis] = {
            "direct": reduce(direct, grid),
            "with_basis": reduce(converted, grid),
            "mc": {"value": estimate.value, "std_error": estimate.std_error},
        }
    return tree


def profiles_tree() -> list:
    """Each profile case, normalized at 8 widths and reduced in both bases."""
    tree = []
    for profile, params, winding, _ in PROFILE_CASES:
        radial, width = hs.radial_profile(profile, **params)
        state = hs.theta_independent_spin_up(radial, winding, width)
        grid = hs.build_grid(r_max=8.0 * state.characteristic_width)
        normalized = hs.normalize(state, grid)
        tree.append({
            "profile": profile,
            "params": params,
            "winding": winding,
            "characteristic_width": state.characteristic_width,
            hs.SPIN: hs.reduced_spin_density(normalized, grid),
            hs.HELICITY: hs.reduced_helicity_density(normalized, grid),
        })
    return tree


def commands(out_dir: Path) -> list:
    """(CLI arguments, expected exit code) of every command; writes the
    verdict inputs to out_dir/inputs."""
    out = []
    for name, tree in sorted(bundled_scenarios().items()):
        if "parameter" in tree:
            args = ["sweep", name, "--out", str(out_dir / f"{name}.csv")]
        else:
            args = ["run", name, "--out", str(out_dir / f"{name}.report.json")]
            if name in MC_OVERRIDES:
                args += ["--mc", MC_OVERRIDES[name]]
        out.append((args, 0))
    (out_dir / "inputs").mkdir(exist_ok=True)
    for name, (command, tree, expected) in VERDICT_INPUTS.items():
        path = out_dir / "inputs" / f"{name}.json"
        path.write_text(json.dumps(tree, indent=2) + "\n", encoding="utf-8")
        suffix = ".csv" if command == "sweep" else ".report.json"
        out.append(([command, str(path), "--out", str(out_dir / f"{name}{suffix}")], expected))
    return out


def error_runs(out_dir: Path) -> tuple[dict, int]:
    """Run every ERROR_INPUTS entry; returns {name: exit code and stderr}
    and the number of unexpected exit codes. Inputs and any output go to
    out_dir/errors."""
    directory = out_dir / "errors"
    directory.mkdir(exist_ok=True)
    tree, unexpected = {}, 0
    for name, (command, given, extra, expected) in ERROR_INPUTS.items():
        arg = str(directory / f"{name}.json")
        if isinstance(given, bytes):
            Path(arg).write_bytes(given)
        elif isinstance(given, str):
            arg = given
        else:
            Path(arg).write_text(json.dumps(given) + "\n", encoding="utf-8")
        extra = [a.replace("<input>", arg) for a in extra] or ["--out", str(directory / name)]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            rc = main([command, arg, *extra])
        tree[name] = {"exit_code": rc,
                      "stderr": stderr.getvalue().replace(str(out_dir), "<out_dir>")}
        if rc != expected:
            print(f"error input {name}: exit {rc} (expected {expected})")
            unexpected += 1
    return tree, unexpected


def run(out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    unexpected = 0
    for args, expected in commands(out_dir):
        print(f"$ helispin {' '.join(args)}")
        rc = main(args)
        print(f"-> exit {rc} (expected {expected})\n")
        unexpected += rc != expected
    errors, wrong = error_runs(out_dir)
    unexpected += wrong
    path = out_dir / "errors.json"
    path.write_text(dumps_deterministic(errors), encoding="utf-8", newline="\n")
    print(f"errors: {path} ({len(errors)} inputs)")
    for name, tree in (("generic_state", generic_state_tree()), ("profiles", profiles_tree())):
        path = out_dir / f"{name}.json"
        path.write_text(dumps_deterministic(tree), encoding="utf-8", newline="\n")
        print(f"{name}: {path}")
    return 1 if unexpected else 0


if __name__ == "__main__":
    target = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out")
    raise SystemExit(run(target))
