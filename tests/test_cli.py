import copy
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helispin as hs
from helispin.cli import (
    bundled_scenarios,
    dumps_deterministic,
    execute_scenario,
    main,
    parse_scenario,
    parse_sweep,
)
from helispin.errors import ConfigurationError, ScenarioParseError

PI8 = np.pi / 8.0


def _write(tmp_path, name, tree):
    path = tmp_path / name
    path.write_text(json.dumps(tree), encoding="utf-8")
    return path


def test_run_bundled_scenario_passes(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["run", "eq10_theta_independent", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["all_checks_passed"] is True
    assert report["tool"] == {"name": "helispin", "version": hs.__version__}
    matrix = np.array(
        [[complex(*entry) for entry in row]
         for row in report["results"]["helicity_density"]["matrix"]]
    )
    np.testing.assert_allclose(matrix, [[0.5, -PI8], [-PI8, 0.5]], atol=1e-8)
    assert "PASS" in capsys.readouterr().out


def test_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["run", "eq11_entropy", "--out", str(a)]) == 0
    assert main(["run", "eq11_entropy", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_convergence_metadata_below_check_tolerance(tmp_path):
    out = tmp_path / "report.json"
    assert main(["run", "eq10_theta_independent", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    delta = report["convergence"]["max_delta"]
    assert 0.0 <= delta < 1e-8
    refined = report["convergence"]["refined_grid"]
    assert refined["n_theta"] == 2 * report["grid"]["n_theta"]


def test_unknown_family_exit_2_no_report(tmp_path, capsys):
    scenario = {
        "schema_version": 1,
        "name": "bogus",
        "state": {"family": "no_such_family", "params": {}},
        "outputs": ["spin_density"],
    }
    path = _write(tmp_path, "bogus.json", scenario)
    out = tmp_path / "report.json"
    assert main(["run", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    # a sweep's base is parsed as a scenario, so its family is an input error too
    sweep = {
        "schema_version": 1,
        "name": "bogus_sweep",
        "scenario": {**scenario, "state": {"family": "no_such_family", "params": {"tau": 1.0}}},
        "parameter": {"path": "state.params.tau", "values": [1.0]},
        "outputs": ["spin_density[0][0].re"],
    }
    table = tmp_path / "table.csv"
    capsys.readouterr()
    assert main(["sweep", str(_write(tmp_path, "sweep.json", sweep)), "--out", str(table)]) == 2
    assert "sweep.scenario.state.family" in capsys.readouterr().err
    assert not table.exists()


def test_invalid_json_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"schema_version": 1,,}', encoding="utf-8")
    assert main(["run", str(path)]) == 2
    assert "line" in capsys.readouterr().err
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
    assert main(["run", str(latin1)]) == 2
    assert "UTF-8" in capsys.readouterr().err
    not_object = _write(tmp_path, "not_object.json", [1])
    assert main(["run", str(not_object)]) == 2
    assert "must be an object" in capsys.readouterr().err


def test_schema_violations_exit_2(tmp_path, capsys):
    bad_quantity = {
        "schema_version": 1,
        "name": "x",
        "state": {"family": "gaussian_spin_up", "params": {"tau": 1.0}},
        "outputs": ["charm_density"],
    }
    assert main(["run", str(_write(tmp_path, "bad1.json", bad_quantity))]) == 2
    missing_name = {
        "schema_version": 1,
        "state": {"family": "gaussian_spin_up", "params": {"tau": 1.0}},
        "outputs": ["spin_density"],
    }
    assert main(["run", str(_write(tmp_path, "bad2.json", missing_name))]) == 2
    wrong_version = {
        "schema_version": 99,
        "name": "x",
        "state": {"family": "gaussian_spin_up", "params": {"tau": 1.0}},
        "outputs": ["spin_density"],
    }
    assert main(["run", str(_write(tmp_path, "bad3.json", wrong_version))]) == 2
    checks_not_a_list = {
        "schema_version": 1,
        "name": "x",
        "state": {"family": "gaussian_spin_up", "params": {"tau": 1.0}},
        "outputs": ["spin_density"],
        "checks": 5,
    }
    assert main(["run", str(_write(tmp_path, "bad4.json", checks_not_a_list))]) == 2
    # a string is a profile name, never a number's text; a width so small that
    # the grid's radial measure underflows is an input error too
    for i, params in enumerate(({"tau": "wide"}, {"winding": "two"}, {"winding": 1.5},
                                {"profile": "gaussian", "tau": "2.0"}, {"winding": "2"},
                                {"tau": "nan"}, {"profile": "gaussian", "tau": 1e-300},
                                {"profile": "linear_exp", "scale": 1e-200})):
        bad_param = {
            "schema_version": 1,
            "name": "x",
            "state": {"family": "theta_independent_spin_up", "params": params},
            "outputs": ["spin_density"],
        }
        assert main(["run", str(_write(tmp_path, f"bad{5 + i}.json", bad_param))]) == 2
    # a width whose Gaussian prefactor overflows a double is an input error
    tiny_tau = {**bad_param, "state": {"family": "gaussian_spin_up", "params": {"tau": 1e-300}}}
    assert main(["run", str(_write(tmp_path, "tiny_tau.json", tiny_tau))]) == 2
    # "no checks" is an absent field, not a falsy value; a JSON bool is not a number
    eq11 = bundled_scenarios()["eq11_entropy"]
    for i, checks in enumerate(({}, False, 0, "")):
        falsy_checks = {**eq11, "checks": checks}
        assert main(["run", str(_write(tmp_path, f"checks{i}.json", falsy_checks))]) == 2
    bool_tau = {**eq11, "state": {"family": "gaussian_spin_up", "params": {"tau": True}}}
    assert main(["run", str(_write(tmp_path, "bool_tau.json", bool_tau))]) == 2
    # a check needs its quantity computed: listed in outputs, or the density
    # an entropy output implies
    check = {"quantity": "spin_entropy", "reference": 0.0, "tol": 1e-8}
    unchecked = {**eq11, "outputs": ["helicity_density", "helicity_entropy"], "checks": [check]}
    capsys.readouterr()
    assert main(["run", str(_write(tmp_path, "unchecked.json", unchecked))]) == 2
    assert "checks[0].quantity" in capsys.readouterr().err
    implied = {**eq11, "checks": [{**check, "quantity": "helicity_density",
                                   "reference": "theta_independent_helicity_matrix"}]}
    assert parse_scenario(implied).checks[0].quantity == "helicity_density"
    # an oracle reference gives a matrix or an entropy, as its check needs
    matrix_oracle = {**eq11, "checks": [{**check, "quantity": "helicity_entropy",
                                         "reference": "isotropic_helicity_spin_matrix"}]}
    capsys.readouterr()
    assert main(["run", str(_write(tmp_path, "matrix_oracle.json", matrix_oracle))]) == 2
    assert "checks[0].reference" in capsys.readouterr().err
    # Python's json reads Infinity and NaN; numbers must be finite, at parse time
    inf, nan = float("inf"), float("nan")
    non_finite = (
        ("params.tau", {**eq11, "state": {"family": "gaussian_spin_up", "params": {"tau": inf}}}),
        ("checks[0].tol", {**eq11, "checks": [{**check, "quantity": "helicity_entropy",
                                               "tol": inf}]}),
        ("checks[0].reference", {**eq11, "checks": [{**check, "quantity": "helicity_entropy",
                                                     "reference": nan}]}),
        ("checks[0].reference[0][1]", {**eq11, "outputs": ["helicity_density"], "checks": [
            {"quantity": "helicity_density", "reference": [[0.5, nan], [0.0, 0.5]], "tol": 1.0}
        ]}),
    )
    for i, (field, tree) in enumerate(non_finite):
        capsys.readouterr()
        assert main(["run", str(_write(tmp_path, f"non_finite{i}.json", tree))]) == 2
        err = capsys.readouterr().err
        assert field in err and "finite" in err


def test_check_failure_exit_1(tmp_path, capsys):
    scenario = {
        "schema_version": 1,
        "name": "impossible",
        "state": {"family": "gaussian_spin_up", "params": {"tau": 1.0}},
        "outputs": ["spin_entropy"],
        "checks": [{"quantity": "spin_entropy", "reference": 1.0, "tol": 1e-8}],
    }
    path = _write(tmp_path, "impossible.json", scenario)
    out = tmp_path / "report.json"
    assert main(["run", str(path), "--out", str(out)]) == 1
    assert "FAIL" in capsys.readouterr().out
    report = json.loads(out.read_text())
    # spin entropy of a pure spin state is 0, a deviation of 1 from the target
    assert abs(report["checks"][0]["deviation"] - 1.0) <= 1e-10


def test_degenerate_state_exit_3(tmp_path, capsys):
    scenario = {
        "schema_version": 1,
        "name": "empty_shell",
        "state": {
            "family": "theta_independent_spin_up",
            "params": {"profile": "shell", "p_min": 100.0, "p_max": 101.0},
        },
        "grid": {"r_max": 8.0},
        "outputs": ["helicity_density"],
    }
    assert main(["run", str(_write(tmp_path, "shell.json", scenario))]) == 3
    # a squared norm that overflows to NaN is named as such
    wide = {**scenario, "state": {"family": "gaussian_spin_up", "params": {"tau": 1e150}},
            "grid": {}}
    capsys.readouterr()
    assert main(["run", str(_write(tmp_path, "wide.json", wide))]) == 3
    assert "squared norm is nan" in capsys.readouterr().err


def test_numerical_error_is_one_stderr_line(tmp_path, capsys):
    """numpy's floating-point warnings stay out of the CLI's stderr: the
    overflow in the radial measure ends in the one numerical-error line."""
    wide = {
        "schema_version": 1,
        "name": "wide",
        "state": {"family": "gaussian_spin_up", "params": {"tau": 1e150}},
        "outputs": ["helicity_density"],
    }
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", str(_write(tmp_path, "wide.json", wide))]) == 3
    assert caught == []
    assert capsys.readouterr().err == (
        "numerical error: cannot normalize a state whose squared norm is nan\n"
    )


def test_unwritable_report_exit_4(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    assert main(["run", "eq11_entropy", "--out", str(blocker / "report.json")]) == 4
    assert main(["sweep", "eq12_tau_sweep", "--out", str(blocker / "t.csv")]) == 4


def test_grid_and_mc_overrides(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(
        ["run", "eq10_theta_independent", "--out", str(out),
         "--grid", "32,512,16,8.0", "--mc", "20000,99"]
    )
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["grid"] == {"n_r": 32, "n_theta": 512, "n_phi": 16, "r_max": 8.0}
    assert report["mc"]["n_samples"] == 20000
    assert report["mc"]["seed"] == 99
    assert report["mc"]["estimates"]["helicity_density"]["within_bound"] is True
    # the flags are scenario fields and pass the same schema checks
    for grid in ("2.5,32,32,8.0", "32,32,32", "32,32,32,x", "true,32,32,8.0", "513,8,8,8.0"):
        assert main(["run", "eq10_theta_independent", "--grid", grid]) == 2
    for mc, field in (("20000", "--mc"), ("20000,-1", "scenario.mc.seed"),
                      ("20000,1.5", "scenario.mc.seed"),
                      ("20000,18446744073709551616", "scenario.mc.seed"),
                      ("1000000000000000000000000000000,1", "scenario.mc.n_samples")):
        capsys.readouterr()
        assert main(["run", "eq10_theta_independent", "--mc", mc]) == 2
        assert field in capsys.readouterr().err
    # the sample cap holds in a file as it does for --mc
    huge = {**bundled_scenarios()["eq10_theta_independent"], "mc": {"n_samples": 10**30, "seed": 1}}
    assert main(["run", str(_write(tmp_path, "huge_mc.json", huge))]) == 2
    assert "scenario.mc.n_samples: must be at most 1000000000" in capsys.readouterr().err
    # every family has a Monte-Carlo cross-check, with its effective sample size
    tree = {
        "schema_version": 1,
        "name": "shell",
        "state": {
            "family": "theta_independent_spin_up",
            "params": {"profile": "shell", "winding": 2.0},
        },
        "outputs": ["helicity_density"],
    }
    path = _write(tmp_path, "shell.json", tree)
    assert main(["run", str(path), "--out", str(out), "--mc", "20000,99"]) == 0
    block = json.loads(out.read_text())["mc"]["estimates"]["helicity_density"]
    assert 0.0 < block["effective_sample_size"] <= 20000


def test_run_scenario_by_explicit_path(tmp_path):
    tree = bundled_scenarios()["eq11_entropy"]
    path = _write(tmp_path, "copy.json", tree)
    out = tmp_path / "r.json"
    assert main(["run", str(path), "--out", str(out)]) == 0


def test_unknown_scenario_name_exit_2(capsys):
    assert main(["run", "definitely_not_bundled"]) == 2
    assert "bundled" in capsys.readouterr().err


def test_tau_sweep_constant_column(tmp_path):
    out = tmp_path / "tau.csv"
    assert main(["sweep", "eq12_tau_sweep", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "state.params.tau,helicity_entropy,status"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(values) == 5
    assert max(values) - min(values) <= 1e-8
    assert all(line.endswith(",ok") for line in lines[1:])


def test_alpha_sweep_varies_and_hits_closed_form(tmp_path):
    out = tmp_path / "alpha.csv"
    assert main(["sweep", "anisotropy_alpha_sweep", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    entropy = [float(r[1]) for r in rows]
    # alpha = 0 reproduces the isotropic entropy; every row the closed form
    # [[1/2 + alpha/6, -pi/8], [-pi/8, 1/2 - alpha/6]] (2/3 at alpha = 1)
    assert abs(entropy[0] - hs.oracle_spin_up_helicity_entropy()) <= 1e-7
    for r in rows:
        alpha, top_left, off_diagonal = float(r[0]), float(r[2]), float(r[3])
        assert abs(top_left - (0.5 + alpha / 6.0)) <= 1e-8
        assert abs(off_diagonal + PI8) <= 1e-8
    # anisotropy lowers the helicity entropy monotonically on this family
    assert all(a > b for a, b in zip(entropy, entropy[1:]))
    assert header[-1] == "status"


def test_run_rejects_sweep_file_and_vice_versa():
    assert main(["run", "eq12_tau_sweep"]) == 2
    assert main(["sweep", "eq10_theta_independent"]) == 2


def test_sweep_empty_values_exit_2(tmp_path, capsys):
    sweep = {
        "schema_version": 1,
        "name": "empty",
        "scenario": bundled_scenarios()["eq11_entropy"],
        "parameter": {"path": "state.params.tau", "values": []},
        "outputs": ["helicity_entropy"],
    }
    assert main(["sweep", str(_write(tmp_path, "empty.json", sweep))]) == 2
    sweep["parameter"]["values"] = [1.0, float("inf")]
    assert main(["sweep", str(_write(tmp_path, "infinite.json", sweep))]) == 2
    assert "parameter.values[1]: must be a finite number" in capsys.readouterr().err


def test_sweep_records_point_errors(tmp_path, capsys):
    sweep = {
        "schema_version": 1,
        "name": "partial",
        "scenario": {
            "schema_version": 1,
            "name": "point",
            "state": {"family": "anisotropic_spin_up", "params": {"tau": 1.0, "alpha": 0.0}},
            "outputs": ["helicity_entropy"],
        },
        "parameter": {"path": "state.params.alpha", "values": [0.5, 2.0]},
        "outputs": ["helicity_entropy"],
    }
    out = tmp_path / "partial.csv"
    assert main(["sweep", str(_write(tmp_path, "partial.json", sweep)), "--out", str(out)]) == 1
    lines = out.read_text().splitlines()
    assert lines[1].endswith(",ok")
    assert lines[2].endswith("error:ConfigurationError")
    assert lines[2].split(",")[1] == ""  # failed point has empty cells
    # the printed line keeps the reason that the table's cell leaves out
    assert ("point 2.0: error:ConfigurationError: alpha must lie in [-1, 1], got 2.0"
            in capsys.readouterr().out)
    # values are set as given, so a sweep over an integer grid field runs,
    # and its integers are written as integers
    sweep["scenario"]["grid"] = {"n_theta": 32}
    sweep["parameter"] = {"path": "grid.n_theta", "values": [8, 16, 32]}
    path = _write(tmp_path, "n_theta.json", sweep)
    assert main(["sweep", str(path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4 and all(line.endswith(",ok") for line in lines[1:])
    assert [line.split(",")[0] for line in lines[1:]] == ["8", "16", "32"]
    # every point is parsed before any runs: a count above the cap is an
    # input error with its reason
    sweep["parameter"]["values"] = [8, 1000]
    path = _write(tmp_path, "too_many.json", sweep)
    assert main(["sweep", str(path), "--out", str(out)]) == 2
    assert "grid.n_theta: must be at most 512" in capsys.readouterr().err


def test_sweep_rows_run_the_base_checks(tmp_path, capsys):
    """Each row is the base scenario at its value, checks included: at
    alpha = 1 the theta-independent matrix misses by 1/6."""
    sweep = {
        "schema_version": 1,
        "name": "checked",
        "scenario": {
            "schema_version": 1,
            "name": "point",
            "state": {"family": "anisotropic_spin_up", "params": {"tau": 1.0, "alpha": 0.0}},
            "outputs": ["helicity_density"],
            "checks": [{"quantity": "helicity_density",
                        "reference": "theta_independent_helicity_matrix", "tol": 1e-8}],
        },
        "parameter": {"path": "state.params.alpha", "values": [0.0, 1.0]},
        "outputs": ["helicity_density[0][0].re"],
    }
    out = tmp_path / "checked.csv"
    assert main(["sweep", str(_write(tmp_path, "checked.json", sweep)), "--out", str(out)]) == 1
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [row[-1] for row in rows] == ["ok", "fail:helicity_density"]
    assert abs(float(rows[1][1]) - 2.0 / 3.0) <= 1e-8  # failed rows keep their cells
    assert "point 1.0: fail:helicity_density" in capsys.readouterr().out


def test_sweep_selector_must_be_computed(tmp_path, capsys):
    sweep = {
        "schema_version": 1,
        "name": "uncomputed",
        "scenario": bundled_scenarios()["eq11_entropy"],
        "parameter": {"path": "state.params.tau", "values": [1.0]},
        "outputs": ["spin_density[0][0].re"],
    }
    assert main(["sweep", str(_write(tmp_path, "uncomputed.json", sweep))]) == 2
    assert "sweep.outputs[0]: 'spin_density' is not computed" in capsys.readouterr().err


def test_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    for name in (
        "eq10_theta_independent",
        "eq11_entropy",
        "eq12_tau_sweep",
        "eq15_isotropic_helicity",
        "anisotropy_alpha_sweep",
    ):
        assert name in out
    assert "[sweep]" in out and "[scenario]" in out


def test_mc_requires_density_output(tmp_path):
    assert main(["run", "eq11_entropy", "--mc", "5000,1"]) == 2


def test_deterministic_writer_formats():
    text = dumps_deterministic({"b": 0.5, "a": [1, True, None, "x"], "c": {}})
    assert text == '{\n  "a": [\n    1,\n    true,\n    null,\n    "x"\n  ],\n  "b": 0.5,\n  "c": {}\n}\n'
    # every finite float reads back bit for bit, the sign of zero included
    for x in (0.1, 1e-07, -0.0, 5e-324, 1.7976931348623157e308, 1 / 3):
        assert float.hex(json.loads(dumps_deterministic([x]))[0]) == float.hex(x)
    for x in (float("nan"), float("inf")):
        with pytest.raises(ConfigurationError):
            dumps_deterministic({"x": x})


def test_parse_selector_validation(tmp_path):
    sweep = {
        "schema_version": 1,
        "name": "bad_selector",
        "scenario": bundled_scenarios()["eq11_entropy"],
        "parameter": {"path": "state.params.tau", "values": [1.0]},
    }
    # a trailing newline would split the table's header over two lines
    for selector in ("helicity_density[0][2].re", "helicity_density[0][1].re\n"):
        with pytest.raises(ScenarioParseError, match="invalid scalar selector"):
            parse_sweep({**sweep, "outputs": [selector]})


def test_grid_spec_resolves_width_scaled_r_max():
    scenario = parse_scenario(
        {
            "schema_version": 1,
            "name": "wide",
            "state": {"family": "gaussian_spin_up", "params": {"tau": 2.0}},
            "outputs": ["spin_density"],
        }
    )
    result = execute_scenario(scenario, compute_convergence=False)
    assert result.grid.r_max == 16.0  # 8 widths


def test_sweep_parameter_path_must_exist():
    # the path heads the table's first column, so a comma would add a cell
    for path, message in (("state.missing.tau", "does not address"),
                          ("state.params.tua", "does not address"),
                          ("state.params.tau,x", "must be dot-separated identifiers")):
        with pytest.raises(ScenarioParseError, match=f"sweep.parameter.path: .*{message}"):
            parse_sweep(
                {
                    "schema_version": 1,
                    "name": "bad_path",
                    "scenario": bundled_scenarios()["eq11_entropy"],
                    "parameter": {"path": path, "values": [1.0]},
                    "outputs": ["helicity_entropy"],
                }
            )


# CLI fuzz: mutations of small-grid scenarios and sweeps must end in a
# documented exit code (0-4), never an exception. Grid counts stay small so no
# mutation can ask for a large rule. Mutations favour early positions, so the
# bases list the fields that depend on each other (outputs, checks, state)
# first.
_FUZZ_SHELL = {
    "outputs": ["helicity_density", "helicity_entropy"],
    "checks": [
        {"quantity": "helicity_entropy", "reference": "spin_up_helicity_entropy", "tol": 1e-6}
    ],
    "state": {
        "family": "theta_independent_spin_up",
        "params": {"profile": "shell", "p_min": 0.5, "p_max": 1.5, "winding": 2},
    },
    "grid": {"n_r": 8, "n_theta": 8, "n_phi": 4, "r_max": 4.0},
    "mc": {"n_samples": 200, "seed": 1},
    "name": "fuzz_shell",
    "schema_version": 1,
}
_FUZZ_BASES = (
    _FUZZ_SHELL,
    {
        "outputs": ["spin_density", "spin_entropy"],
        "checks": [{"quantity": "spin_density", "reference": [[1, 0], [0, [0, 0]]], "tol": 1e-6}],
        "state": {"family": "anisotropic_spin_up", "params": {"tau": 1.0, "alpha": 0.5}},
        "grid": {"n_r": 8, "n_theta": 8, "n_phi": 4},
        "name": "fuzz_gaussian",
        "schema_version": 1,
    },
    {
        "outputs": ["helicity_entropy", "helicity_density[0][1].im"],
        "parameter": {"path": "state.params.p_max", "values": [1.0, 2.5]},
        "scenario": _FUZZ_SHELL,
        "name": "fuzz_sweep",
        "schema_version": 1,
    },
)
_WORDS = (
    "spin_density", "helicity_density", "spin_entropy", "helicity_entropy",
    "gaussian_spin_up", "gaussian_helicity_up", "anisotropic_spin_up",
    "theta_independent_spin_up", "gaussian", "linear_exp", "shell",
    "spin_up_helicity_entropy", "isotropic_helicity_spin_matrix", "tau",
)
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40), st.floats(), st.sampled_from(_WORDS),
    st.text(max_size=6),
)
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(_WORDS), inner,
                                                               max_size=2),
    max_leaves=6,
)


def _like(value):
    if isinstance(value, bool):
        return st.booleans()
    if isinstance(value, int):
        return st.integers(-3, 40)
    if isinstance(value, float):
        return st.floats()
    if isinstance(value, str):
        return st.sampled_from(_WORDS)
    return _values


def _nodes(tree, path=()):
    """The key path of every value in a tree, parents first."""
    items = tree.items() if isinstance(tree, dict) else enumerate(tree)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _nodes(value, path + (key,))


@st.composite
def _mutated_scenarios(draw):
    tree = copy.deepcopy(draw(st.sampled_from(_FUZZ_BASES)))
    rnd = draw(st.randoms(use_true_random=False))
    for _ in range(draw(st.integers(1, 2))):
        path = rnd.choice(list(_nodes(tree)))
        parent = tree
        for key in path[:-1]:
            parent = parent[key]
        action = rnd.choice(("like", "replace", "delete", "add"))
        if action == "like":  # a value of the same JSON type
            parent[path[-1]] = draw(_like(parent[path[-1]]))
        elif action == "replace":
            parent[path[-1]] = draw(_values)
        elif action == "delete":
            del parent[path[-1]]
        elif isinstance(parent, dict):
            parent[draw(st.sampled_from(_WORDS))] = draw(_values)
        else:
            parent.append(draw(_values))
    return tree


@settings(derandomize=True, max_examples=300, deadline=None)
@given(tree=_mutated_scenarios())
def test_run_fuzz_exit_codes(tmp_path_factory, tree):
    directory = tmp_path_factory.mktemp("fuzz")
    path = directory / "input.json"
    path.write_text(json.dumps(tree), encoding="utf-8")
    command = "sweep" if "parameter" in tree else "run"
    assert main([command, str(path), "--out", str(directory / "output")]) in range(5)
