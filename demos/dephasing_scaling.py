"""Coherence-order scaling of field-noise dephasing.

Shows why the superposition decoheres (2J)^2 = 256 times faster than a
coherent state under Markovian noise but only 2J = 16 times faster
under static shot-to-shot noise, verifies the static time-rescaling
identity by Monte Carlo, and fits Ramsey-style decay envelopes.
"""

import argparse

import numpy as np

from mesospin import (
    NoiseModel,
    coherence_decay,
    coherence_time,
    fit_decay,
    ramsey_simulate,
    scaling_identity_check,
)

TAU0 = 740e-6


def ratio_section():
    static = NoiseModel.static_from_time(TAU0)
    markov = NoiseModel.markovian_from_time(TAU0)
    print(f"coherent-state 1/e time {coherence_time(static, 1) * 1e6:.0f} us")
    print(f"{'order n':>8} {'static tau (us)':>16} {'markovian tau (us)':>19}")
    for n in (1, 2, 4, 8, 16):
        print(f"{n:>8} {coherence_time(static, n) * 1e6:>16.2f} "
              f"{coherence_time(markov, n) * 1e6:>19.3f}")
    s = coherence_time(static, 1) / coherence_time(static, 16)
    m = coherence_time(markov, 1) / coherence_time(markov, 16)
    print(f"order-16 enhancement: static {s:.1f} (= 2J), "
          f"markovian {m:.1f} (= (2J)^2)")


def identity_section(runs, seed):
    static = NoiseModel.static_from_time(TAU0)
    times = np.linspace(5e-6, 1.2e-4, 9)
    report = scaling_identity_check(static, times, order=16, runs=runs,
                                    seed=seed)
    print(f"\ntime-rescaling identity <e^(i 16 dphi(t))> = <e^(i dphi(16 t))>")
    print(f"  analytic difference {report.analytic_difference:.2e}")
    print(f"  monte carlo ({runs} shots): worst z = {report.monte_carlo_z:.2f}"
          f" -> {'consistent' if report.passed else 'inconsistent'}")


def envelope_section(seed):
    static = NoiseModel.static_from_time(TAU0)
    times = np.linspace(0.0, 3.0 * TAU0, 41)
    curve = ramsey_simulate(static, times, 400, seed)
    print(f"\nramsey envelope fit ({curve.model} model, 400 shots/point)")
    print(f"  amplitude {curve.amplitude:.2f}, "
          f"tau {curve.tau * 1e6:.0f} us (input {TAU0 * 1e6:.0f} us)")

    ts = np.linspace(0.0, 3.0 * TAU0 / 16.0, 41)
    fit = fit_decay(ts, coherence_decay(16, static, ts), model="gaussian")
    print(f"  order-16 analytic envelope: tau {fit.tau * 1e6:.1f} us "
          f"(ratio {curve.tau / fit.tau:.1f})")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=100000,
                        help="Monte-Carlo shots for the identity check")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    ratio_section()
    identity_section(args.runs, args.seed)
    envelope_section(args.seed)


if __name__ == "__main__":
    main()
