"""Gain budget of the realistic state-preparation pulse.

Switches each experimental imperfection on individually, reports the
metrological-gain correction it costs, then combines all of them and
compares the readout schemes available on the resulting mixed state.
"""

import argparse
import time
from dataclasses import replace

from mesospin import default_config, gain_budget, measurement_scheme_gains


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=150,
                        help="ensemble samples per budget row")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    cfg = default_config()
    coupling = replace(cfg.coupling, include_jx4=True)
    imp = replace(cfg.imperfections, ensemble_samples=args.samples)

    start = time.perf_counter()
    budget = gain_budget(coupling, imp, j=cfg.j, seed=args.seed)
    elapsed = time.perf_counter() - start

    print(f"ideal gain {budget.ideal_gain:.3f}  "
          f"({args.samples} samples, seed {args.seed}, {elapsed:.1f}s)\n")
    print(f"{'imperfection':<28} {'gain':>7} {'corr':>7}  flag")
    for row in budget.rows:
        flag = "geometry" if row.flagged else ""
        print(f"{row.label:<28} {row.gain:>7.3f} {row.correction:>+7.3f}  {flag}")
    row = budget.combined
    print(f"{row.label:<28} {row.gain:>7.3f} {row.correction:>+7.3f}")
    print(f"recalibrated pulse time {row.pulse_time * 1e9:.2f} ns")

    schemes = measurement_scheme_gains(budget.combined_state)
    print("\nreadout schemes on the combined state")
    for name, rep in [("parity", schemes.parity),
                      ("hellinger", schemes.hellinger),
                      ("magnetization", schemes.magnetization),
                      ("pulse+hellinger", schemes.pulse_hellinger)]:
        print(f"  {name:<16} gain {rep.gain:>7.3f} +- {rep.uncertainty:.3f} "
              f"(bound {rep.bound:.3f})")


if __name__ == "__main__":
    main()
