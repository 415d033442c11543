#!/usr/bin/env python3
"""Polar-count convergence of the helicity reduction's off-diagonal entry.

The slowest-converging integrand in scope is the sin(theta) matrix element
behind the -pi/8 off-diagonal. The grid's polar rule, Gauss-Legendre in theta
on (0, pi) with sin(theta) weights, integrates it geometrically fast. The
table sets it beside Gauss-Legendre in u = cos(theta), where the same
integrand is sqrt(1 - u^2), whose endpoint singularity limits convergence to
about n^-3. The u-rule is built here only for the comparison.

Run: PYTHONPATH=src python scripts/convergence_study.py
"""
from dataclasses import replace

import numpy as np

import helispin as hs

TARGET = -np.pi / 8.0


def cos_theta_rule(grid: hs.QuadratureGrid) -> hs.QuadratureGrid:
    """``grid`` with its polar rule replaced by Gauss-Legendre in cos(theta)."""
    u, w = np.polynomial.legendre.leggauss(grid.n_theta)
    return replace(grid, polar_angles=np.arccos(u), polar_weights=w)


def offdiag_error(state: hs.OneParticleState, grid: hs.QuadratureGrid) -> float:
    rho = hs.reduced_helicity_density(hs.normalize(state, grid), grid)
    return abs(rho.entries[0, 1].real - TARGET)


def main() -> None:
    state = hs.gaussian_spin_up(1.0)
    print(f"{'n_theta':>8} {'theta-rule error':>17} {'u-rule error':>13}")
    for n_theta in (4, 6, 8, 12, 16, 24, 32, 48, 64):
        grid = hs.build_grid(64, n_theta, 16, r_max=8.0)
        theta_error = offdiag_error(state, grid)
        u_error = offdiag_error(state, cos_theta_rule(grid))
        print(f"{n_theta:>8} {theta_error:17.3e} {u_error:13.3e}")


if __name__ == "__main__":
    main()
