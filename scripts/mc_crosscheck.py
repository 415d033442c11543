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


#: The theta_independent_spin_up cases: radial profile, its params, winding
#: and seed.
PROFILE_CASES = [
    ("gaussian", {"tau": 2.0}, 0, 11),
    ("linear_exp", {}, 0, 12),
    ("shell", {}, 0, 13),
    ("gaussian", {}, 2, 14),
]


def generic_state() -> hs.OneParticleState:
    """A helicity state whose angular modulation depends on p: no product form."""

    def amp(p, theta, phi):
        radial = np.exp(-p * p / 2.0)
        return (
            radial * (1.0 + 0.3 * np.sin(theta) * np.cos(phi - p)),
            0.4j * radial * np.cos(theta),
        )

    return hs.OneParticleState(basis=hs.HELICITY, amplitude=amp, label="generic")


def cases() -> list:
    """(label, state, target basis, seed) of every case."""
    return [
        ("gaussian_spin_up -> helicity", hs.gaussian_spin_up(1.0), hs.HELICITY, 20260808),
        ("gaussian_helicity_up -> spin", hs.gaussian_helicity_up(1.0), hs.SPIN, 31415926),
        ("anisotropic(alpha=0.7) -> helicity", hs.anisotropic_spin_up(1.0, 0.7), hs.HELICITY,
         424242),
        *(
            (f"theta_independent({profile}, {params}, winding {winding}) -> helicity",
             hs.states.build_state(
                 "theta_independent_spin_up", {"profile": profile, "winding": winding, **params}
             ),
             hs.HELICITY, seed)
            for profile, params, winding, seed in PROFILE_CASES
        ),
        ("generic helicity state -> spin", generic_state(), hs.SPIN, 15),
    ]


def main(n_samples: int = 1_000_000) -> None:
    for label, state, target, seed in cases():
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
