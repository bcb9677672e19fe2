"""Density-matrix reconstruction and Wigner view of the superposition.

Synthesizes finite-atom-number projection data for the superposition
state, reconstructs the density matrix by convex least squares with a
tie-break on the unobserved directions, certified by a duality gap and
a distance bound, attaches bootstrap error bars, and maps the
Wigner function before and after a stretch of field-noise dephasing.
"""

import argparse
import math

import numpy as np

from mesospin import (
    NoiseModel,
    bootstrap_errors,
    coherence_ratio,
    fidelity,
    fit_density_matrix,
    kitten_dephase,
    kitten_state,
    synthesize_dataset,
    wigner,
)

J = 8.0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--atoms", type=int, default=90000,
                        help="atom number per measurement setting")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--resamples", type=int, default=8,
                        help="bootstrap refits for the error bars")
    args = parser.parse_args()

    truth = kitten_state(J)
    data = synthesize_dataset(truth, atom_total=args.atoms, seed=args.seed)
    fit = fit_density_matrix(data)
    rho = fit.rho
    print(f"reconstruction from z + {len(data.equatorial.phis)} equatorial "
          f"settings at N={args.atoms}")
    print(f"  converged {fit.converged} after {fit.n_iterations} iterations, "
          f"objective {fit.objective:.3e}, duality gap {fit.duality_gap:.1e}, "
          f"distance bound {fit.distance_bound:.1e}")
    print(f"  {fit.unobserved_dimension} directions unobserved by the design, "
          f"fixed by the tie-break toward 1/d")
    print(f"  fidelity with truth {fidelity(truth, rho):.4f}")
    print(f"  coherence ratio {coherence_ratio(rho):.4f} (ideal 1.0)")

    boot = bootstrap_errors(data, n_resamples=args.resamples,
                            seed=args.seed + 1)
    d = rho.shape[0]
    print(f"  pole populations {rho[0, 0].real:.4f}(+-{boot[0, 0]:.4f}), "
          f"{rho[d - 1, d - 1].real:.4f}(+-{boot[d - 1, d - 1]:.4f})")
    print(f"  extremal coherence |rho(-J,J)| {abs(rho[0, d - 1]):.4f}"
          f"(+-{boot[0, d - 1]:.4f})")

    thetas = np.linspace(0.0, math.pi, 181)
    phis = np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False)
    w, residue = wigner(rho, thetas, phis, with_residue=True)
    print(f"\nwigner map on a {len(thetas)}x{len(phis)} grid "
          f"(imaginary residue {residue:.2e})")
    print(f"  minimum {w.min():+.4f} (negativity marks non-classicality)")

    noise = NoiseModel.static_from_time(740e-6)
    for t in (46e-6, 70e-6, 150e-6):
        w_t = wigner(kitten_dephase(rho, noise, t), thetas, phis)
        print(f"  after {t * 1e6:5.0f} us dephasing: minimum {w_t.min():+.4f}")


if __name__ == "__main__":
    main()
