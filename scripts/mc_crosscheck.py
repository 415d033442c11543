#!/usr/bin/env python3
"""Quadrature vs Monte-Carlo cross-check for the built-in families.

Prints, per case, the per-entry sigma distance between the deterministic
reduction and a seeded importance-sampling estimate, and the estimate's
effective sample size; every distance should sit within a few standard
errors. The cases cover every family, the theta_independent profiles and a
generic (non-separable) state.
"""
import numpy as np

import helispin as hs


def _theta_independent(profile: str, winding: int = 0, **params) -> hs.OneParticleState:
    """theta_independent_spin_up with a named radial profile."""
    radial, width = hs.radial_profile(profile, **params)
    return hs.theta_independent_spin_up(radial, winding, width)


def generic_state() -> hs.OneParticleState:
    """A helicity state whose angular modulation depends on p: no product form."""

    def amp(p, theta, phi):
        radial = np.exp(-p * p / 2.0)
        return (
            radial * (1.0 + 0.3 * np.sin(theta) * np.cos(phi - p)),
            0.4j * radial * np.cos(theta),
        )

    return hs.OneParticleState(basis=hs.HELICITY, amplitude=amp, label="generic")


CASES = [
    ("gaussian_spin_up -> helicity", hs.gaussian_spin_up(1.0), hs.HELICITY, 20260808),
    ("gaussian_helicity_up -> spin", hs.gaussian_helicity_up(1.0), hs.SPIN, 31415926),
    ("anisotropic(alpha=0.7) -> helicity", hs.anisotropic_spin_up(1.0, 0.7), hs.HELICITY, 424242),
    ("theta_independent(gaussian, tau=2) -> helicity",
     _theta_independent("gaussian", tau=2.0), hs.HELICITY, 11),
    ("theta_independent(linear_exp) -> helicity",
     _theta_independent("linear_exp"), hs.HELICITY, 12),
    ("theta_independent(shell) -> helicity",
     _theta_independent("shell"), hs.HELICITY, 13),
    ("theta_independent(gaussian, winding 2) -> helicity",
     _theta_independent("gaussian", 2), hs.HELICITY, 14),
    ("generic helicity state -> spin", generic_state(), hs.SPIN, 15),
]


def main(n_samples: int = 1_000_000) -> None:
    for label, state, target, seed in CASES:
        grid = hs.build_grid(r_max=8.0 * state.characteristic_width)
        reduce_fn = (
            hs.reduced_helicity_density if target == hs.HELICITY else hs.reduced_spin_density
        )
        quad = reduce_fn(hs.normalize(state, grid), grid).entries
        est = hs.mc_density(state, target, n_samples, seed=seed)
        distance = est.sigma_distance(quad)
        print(f"{label}: max sigma distance {distance.max():.2f}, "
              f"ESS {est.ess:.0f} of {est.n_samples}")
        print(np.array2string(distance, precision=2))


if __name__ == "__main__":
    main()
