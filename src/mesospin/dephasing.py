"""Classical magnetic-field noise models and their coherence signatures.

A fluctuating field along z adds a random angle delta_phi to the Larmor
precession, which multiplies each density-matrix coherence of order
n = m - m' by <exp(i n delta_phi)> while leaving populations untouched.
Two noise models are covered: shot-to-shot Gaussian fields (static
within a run) and Markovian phase diffusion.  The order-n coherence
then decays n^2 times faster in the Gaussian exponent (static) or in
the rate (markovian), which is what makes superpositions of extremal
projections fragile: their n = 2j coherence dies (2j) or (2j)^2 times
faster than a coherent state's.

The field generated by the atoms themselves (an order of magnitude
below the applied noise) is not modeled.  The gyromagnetic ratio uses
the CODATA 2022 Bohr magneton and the exact SI value of hbar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import HBAR
from .fitting import fit_decay
from .rng import substream

__all__ = [
    "G_FACTOR",
    "gyromagnetic_ratio",
    "NoiseModel",
    "DecayCurve",
    "coherence_decay",
    "coherence_time",
    "ramsey_simulate",
    "kitten_dephase",
    "scaling_identity_check",
    "ScalingIdentityReport",
]

_BOHR_MAGNETON = 9.2740100657e-24  # J/T, CODATA 2022 recommended value

# Ground-state Lande factor of dysprosium, giving a magnetic moment of
# g_J * J ~ 10 Bohr magnetons for J = 8
G_FACTOR = 1.2416


def gyromagnetic_ratio():
    """Angular precession rate per field, mu_B g_J / hbar, in rad/(s T)."""
    return _BOHR_MAGNETON * G_FACTOR / HBAR


@dataclass(frozen=True)
class NoiseModel:
    """Classical field-noise model along the quantization axis.

    kind "static-gaussian" draws one Gaussian field offset of rms
    `rms_field` (tesla) per run; kind "markovian" accumulates white
    phase noise with field diffusion constant `diffusion` (tesla^2 s),
    giving <delta_phi^2> = 2 D gamma^2 t.
    """

    kind: str
    rms_field: float = 0.0
    diffusion: float = 0.0

    def __post_init__(self):
        if self.kind not in ("static-gaussian", "markovian"):
            raise ValueError("kind must be 'static-gaussian' or 'markovian'")
        scale = self.rms_field if self.kind == "static-gaussian" else self.diffusion
        if scale <= 0:
            raise ValueError("noise scale must be strictly positive")

    @property
    def gamma(self):
        return gyromagnetic_ratio()

    @classmethod
    def static(cls, rms_field):
        return cls(kind="static-gaussian", rms_field=rms_field)

    @classmethod
    def markovian(cls, diffusion):
        return cls(kind="markovian", diffusion=diffusion)

    @classmethod
    def static_from_time(cls, tau):
        """Static model whose order-1 coherence reaches 1/e at time tau."""
        return cls.static(math.sqrt(2.0) / (gyromagnetic_ratio() * tau))

    @classmethod
    def markovian_from_time(cls, tau):
        """Markovian model whose order-1 coherence reaches 1/e at time tau."""
        return cls.markovian(1.0 / (gyromagnetic_ratio()**2 * tau))


def _decay_factor(n_sq, model, t):
    t = np.asarray(t, dtype=float)
    if model.kind == "static-gaussian":
        return np.exp(-0.5 * n_sq * (model.gamma * model.rms_field * t) ** 2)
    # phase diffusion <delta_phi^2> = 2 D gamma^2 t gives rate n^2 / tau_1
    # with tau_1 = 1 / (gamma^2 D)
    return np.exp(-n_sq * model.gamma**2 * model.diffusion * np.abs(t))


def coherence_decay(n, model, t):
    """Decay factor <exp(i n delta_phi(t))> of an order-n coherence.

    n = 1 is the transverse spin of a coherent state, J_perp(t) / j;
    n = 2j is the extremal coherence of an equal superposition of
    m = -j and m = +j.  Monotone non-increasing in both t >= 0 and n.
    """
    if n < 1:
        raise ValueError("coherence order must be at least 1")
    return _decay_factor(float(n) ** 2, model, t)


def coherence_time(model, n=1):
    """Analytic 1/e time of the order-n coherence."""
    if model.kind == "static-gaussian":
        return math.sqrt(2.0) / (n * model.gamma * model.rms_field)
    return 1.0 / (n**2 * model.gamma**2 * model.diffusion)


@dataclass(frozen=True)
class DecayCurve:
    """Envelope samples with a fitted 1/e time.

    model "exponential" fits A exp(-t/tau), "gaussian" fits
    A exp(-(t/tau)^2); tau is the 1/e time in both.
    """

    times: np.ndarray
    values: np.ndarray
    tau: float
    model: str
    amplitude: float

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.shape != values.shape:
            raise ValueError("times and values must align")
        if np.any(values < -1e-9):
            raise ValueError("envelope values must be non-negative")
        if not self.tau > 0:
            raise ValueError("fitted 1/e time must be positive")
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)


def _phase_draws(model, times, runs, seed):
    """Random precession-angle offsets, shape (runs, len(times))."""
    rng = substream(seed)
    times = np.asarray(times, dtype=float)
    if model.kind == "static-gaussian":
        fields = rng.normal(0.0, model.rms_field, size=runs)
        return model.gamma * fields[:, None] * times[None, :]
    if np.any(np.diff(times) <= 0) or times[0] < 0:
        raise ValueError("markovian sampling needs increasing non-negative times")
    dt = np.diff(times, prepend=0.0)
    steps = rng.normal(0.0, 1.0, size=(runs, len(times)))
    increments = steps * np.sqrt(2.0 * model.diffusion * dt)[None, :]
    return model.gamma * np.cumsum(increments, axis=1)


def ramsey_simulate(model, times, runs, seed, *, j=8.0, coherence_order=1):
    """Monte-Carlo transverse-spin envelope J_perp(t) under field noise.

    The magnetization oscillates as j * cos(omega_larmor t + phi) with a
    noisy phase; demodulating at the Larmor frequency leaves the
    envelope j * |<exp(i n delta_phi)>|, which does not depend on that
    frequency and which this returns with a fitted 1/e time.
    coherence_order n = 1 probes a coherent state, n = 2j the extremal
    coherence.  The fit model follows the noise kind: gaussian for
    static noise, exponential for markovian noise.
    """
    if runs < 1:
        raise ValueError("need at least one run")
    times = np.asarray(times, dtype=float)
    phases = coherence_order * _phase_draws(model, times, runs, seed)
    envelope = j * np.abs(np.exp(1j * phases).mean(axis=0))
    fit_model = "gaussian" if model.kind == "static-gaussian" else "exponential"
    fit = fit_decay(times, envelope, model=fit_model)
    return DecayCurve(times=times, values=envelope, tau=fit.tau,
                      model=fit_model, amplitude=fit.amplitude)


def kitten_dephase(rho0, model, t):
    """Average e^{-i delta_phi Jz} rho e^{+i delta_phi Jz} over noise.

    The average is exact: each coherence of order n = m - m' is
    multiplied by coherence_decay(|n|), and populations stay invariant.
    """
    rho0 = np.asarray(rho0)
    if rho0.ndim != 2:
        raise ValueError("expected a density matrix")
    orders = np.arange(rho0.shape[0])[:, None] - np.arange(rho0.shape[0])[None, :]
    return rho0 * _decay_factor(orders.astype(float) ** 2, model, t)


@dataclass(frozen=True)
class ScalingIdentityReport:
    """Pointwise comparison of <e^{i n delta_phi(t)}> with <e^{i delta_phi(n t)}>."""

    times: np.ndarray
    analytic_difference: float
    monte_carlo_z: float
    runs: int
    passed: bool


def scaling_identity_check(model, times, *, order=16, runs=None, seed=None):
    """Verify the static-noise time-rescaling identity on a time grid.

    For static Gaussian noise the phase grows linearly with time in
    every realization, so the order-n coherence at time t equals the
    order-1 coherence at time n t.  The analytic check compares the two
    closed forms; with runs set, two independent Monte-Carlo averages
    are compared and the worst z-score reported.  Markovian noise obeys
    a different rescaling (n^2 t) and is rejected.
    """
    if model.kind != "static-gaussian":
        raise ValueError(
            "identity holds for static noise only; markovian noise scales as n^2 t"
        )
    times = np.asarray(times, dtype=float)
    lhs = coherence_decay(order, model, times)
    rhs = coherence_decay(1, model, order * times)
    analytic_difference = float(np.max(np.abs(lhs - rhs)))

    z_worst = 0.0
    if runs is not None:
        scale = model.gamma * model.rms_field
        draws_a = substream(seed, 0).normal(0.0, 1.0, runs)
        draws_b = substream(seed, 1).normal(0.0, 1.0, runs)
        z = []
        for t in times:
            a = np.cos(order * scale * t * draws_a)
            b = np.cos(scale * (order * t) * draws_b)
            err = math.sqrt((a.var(ddof=1) + b.var(ddof=1)) / runs)
            if err > 0:
                z.append(abs(a.mean() - b.mean()) / err)
        z_worst = float(max(z)) if z else 0.0
    passed = analytic_difference <= 1e-12 and z_worst < 3.0
    return ScalingIdentityReport(
        times=times, analytic_difference=analytic_difference,
        monte_carlo_z=z_worst, runs=0 if runs is None else runs, passed=passed,
    )
