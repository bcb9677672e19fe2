"""Damped least-squares fitting with analytic Jacobians.

A small Levenberg-Marquardt loop shared by the oscillation and decay
fits.  Steps are only accepted when they lower the objective, so the
recorded objective history is non-increasing by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LeastSquaresResult",
    "damped_least_squares",
    "SinusoidFit",
    "fit_sinusoid",
    "DecayFit",
    "fit_decay",
]


# Stop once an accepted step lowers the objective by less than this
# relative amount, or after _MAX_ITER accepted steps; the damping starts
# at _LAM0 and gives up past _LAM_MAX.
_REL_TOL = 1e-12
_MAX_ITER = 200
_LAM0 = 1e-3
_LAM_MAX = 1e12


@dataclass(frozen=True)
class LeastSquaresResult:
    params: np.ndarray
    covariance: np.ndarray
    objective_history: tuple
    converged: bool
    n_iterations: int


def damped_least_squares(residual, jacobian, p0):
    """Minimize 0.5*||residual(p)||^2 with a damped Gauss-Newton loop.

    The loop takes at most 200 accepted steps and stops earlier once a
    step lowers the objective by less than a relative 1e-12, or once no
    step lowers it.  Either way `converged` is set only at an optimum: a
    stall counts when the gradient or the residual is at the rounding
    floor.

    Parameters
    ----------
    residual, jacobian : callables
        Map a parameter vector to the residual vector and to its
        Jacobian (n_residuals x n_params).
    p0 : array-like
        Starting point.

    Returns
    -------
    LeastSquaresResult
        With the covariance estimated from the final Jacobian and the
        (non-increasing) history of accepted objective values.
    """
    p = np.asarray(p0, dtype=float).copy()
    r = residual(p)
    obj = 0.5 * float(r @ r)
    history = [obj]
    lam = _LAM0
    converged = False
    iterations = 0
    jac = jacobian(p)
    for iterations in range(1, _MAX_ITER + 1):
        a = jac.T @ jac
        g = jac.T @ r
        accepted = False
        while lam <= _LAM_MAX:
            damped = a + lam * np.diag(np.clip(np.diag(a), 1e-14, None))
            try:
                step = np.linalg.solve(damped, -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = p + step
            r_trial = residual(trial)
            obj_trial = 0.5 * float(r_trial @ r_trial)
            if obj_trial < obj:
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            # No damping lowers the objective.  That is an optimum at the
            # rounding floor if the residual has vanished, or if even a
            # step along the gradient, which lowers the objective by about
            # ||J^T r||^2 / (2 ||J||^2), would gain less than _REL_TOL of
            # it: ||J^T r|| <= sqrt(_REL_TOL) ||J|| ||r||.  A stall with a
            # larger gradient (say, from a wrong Jacobian) stays unconverged.
            floor = math.sqrt(2.0 * _REL_TOL * obj) * np.linalg.norm(jac, 2)
            converged = bool(obj <= _REL_TOL * history[0]
                             or np.linalg.norm(g) <= floor)
            break
        rel_drop = (obj - obj_trial) / max(obj, 1e-300)
        p, r, obj = trial, r_trial, obj_trial
        history.append(obj)
        jac = jacobian(p)
        lam = max(lam / 3.0, 1e-12)
        if rel_drop < _REL_TOL:
            converged = True
            break
    n, k = len(r), len(p)
    scale = 2.0 * obj / (n - k) if n > k else 0.0
    cov = scale * np.linalg.pinv(jac.T @ jac)
    return LeastSquaresResult(
        params=p,
        covariance=cov,
        objective_history=tuple(history),
        converged=converged,
        n_iterations=iterations,
    )


@dataclass(frozen=True)
class SinusoidFit:
    """Parameters of y = amplitude * sin(frequency * x + phase) + offset."""

    amplitude: float
    frequency: float
    phase: float
    offset: float
    covariance: np.ndarray
    objective_history: tuple
    converged: bool

    @property
    def period(self):
        return 2.0 * math.pi / self.frequency

    @property
    def amplitude_error(self):
        return math.sqrt(max(self.covariance[0, 0], 0.0))

    def __call__(self, x):
        return self.amplitude * np.sin(self.frequency * np.asarray(x) + self.phase) + self.offset


def fit_sinusoid(x, y, frequency_guess):
    """Fit A sin(kx + phi) + c, all four free, with an analytic Jacobian.

    Every point has unit weight.  The amplitude and phase are
    initialized from the discrete Fourier component of y at the guessed
    frequency, which is accurate whenever the grid covers about an
    integer number of periods.  The returned amplitude is non-negative.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    c0 = float(np.mean(y))
    z = np.sum((y - c0) * np.exp(-1j * frequency_guess * x)) * 2.0 / len(x)
    p0 = [abs(z), frequency_guess, float(np.angle(z) + math.pi / 2), c0]

    def residual(p):
        a, k, phi, c = p
        return a * np.sin(k * x + phi) + c - y

    def jacobian(p):
        a, k, phi, c = p
        s = np.sin(k * x + phi)
        cc = np.cos(k * x + phi)
        return np.column_stack([s, a * x * cc, a * cc, np.ones_like(x)])

    res = damped_least_squares(residual, jacobian, p0)
    a, k, phi, c = res.params
    if a < 0:
        a, phi = -a, phi + math.pi
    phi = (phi + math.pi) % (2 * math.pi) - math.pi
    return SinusoidFit(
        amplitude=float(a),
        frequency=float(k),
        phase=float(phi),
        offset=float(c),
        covariance=res.covariance,
        objective_history=res.objective_history,
        converged=res.converged,
    )


@dataclass(frozen=True)
class DecayFit:
    """Parameters of an exponential or gaussian 1/e decay fit.

    amplitude * exp(-t/tau) for model "exponential", and
    amplitude * exp(-(t/tau)^2) for model "gaussian"; tau is the 1/e
    time in both conventions.
    """

    amplitude: float
    tau: float
    model: str
    covariance: np.ndarray
    converged: bool

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.model == "gaussian":
            return self.amplitude * np.exp(-((t / self.tau) ** 2))
        return self.amplitude * np.exp(-t / self.tau)


def fit_decay(times, values, model="exponential"):
    """Fit a decaying envelope, every point at unit weight, and report its 1/e time."""
    if model not in ("exponential", "gaussian"):
        raise ValueError(f"unknown decay model {model!r}")
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    a0 = float(y[np.argmin(t)])
    below = np.nonzero(y < a0 / math.e)[0]
    tau0 = float(t[below[0]]) if below.size else float(t[-1])
    tau0 = max(tau0, 1e-12 + float(np.min(t[t > 0], initial=1e-12)))

    def residual(p):
        a, tau = p
        if model == "gaussian":
            return a * np.exp(-((t / tau) ** 2)) - y
        return a * np.exp(-t / tau) - y

    def jacobian(p):
        a, tau = p
        if model == "gaussian":
            e = np.exp(-((t / tau) ** 2))
            return np.column_stack([e, a * e * 2 * t**2 / tau**3])
        e = np.exp(-t / tau)
        return np.column_stack([e, a * e * t / tau**2])

    res = damped_least_squares(residual, jacobian, [a0, tau0])
    a, tau = res.params
    return DecayFit(
        amplitude=float(a),
        tau=float(abs(tau)),
        model=model,
        covariance=res.covariance,
        converged=res.converged,
    )
