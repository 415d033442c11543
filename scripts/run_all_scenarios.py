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
"""
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


def run(out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    worst = 0
    for name, tree in sorted(bundled_scenarios().items()):
        if "parameter" in tree:
            args = ["sweep", name, "--out", str(out_dir / f"{name}.csv")]
        else:
            args = ["run", name, "--out", str(out_dir / f"{name}.report.json")]
            if name in MC_OVERRIDES:
                args += ["--mc", MC_OVERRIDES[name]]
        print(f"$ helispin {' '.join(args)}")
        rc = main(args)
        print(f"-> exit {rc}\n")
        worst = max(worst, rc)
    for name, tree in (("generic_state", generic_state_tree()), ("profiles", profiles_tree())):
        path = out_dir / f"{name}.json"
        path.write_text(dumps_deterministic(tree), encoding="utf-8", newline="\n")
        print(f"{name}: {path}")
    return worst


if __name__ == "__main__":
    target = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out")
    raise SystemExit(run(target))
