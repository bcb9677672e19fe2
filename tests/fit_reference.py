"""Reference forms of the tomography fit, kept to check `tomography._fit`.

`evaluate` is F of `fit_density_matrix` and its gradient in the direct
form D^T W (D x - t) + mu P_N (x - c): two products with the design
matrix D and a projection onto its null space.  `reference_fit` is the
FISTA loop that compares directly evaluated objectives to accept a step
and runs both certificates after every iteration.
"""

import math

import numpy as np

from mesospin.tomography import (
    _DISTANCE_TOL,
    _GAP_ATOL,
    _GAP_RTOL,
    _MAX_ITERATIONS,
    _MU,
    _coordinates,
    _hermitian,
    _project,
)


def evaluate(design, observations, weights, x):
    """(F, gradient) at coordinates x, from the design matrix itself."""
    matrix, basis = design.matrix, design.range_basis
    d = math.isqrt(matrix.shape[1])
    w = np.ones(observations.size) if weights is None else np.ravel(weights)
    r = matrix @ x - (observations.ravel() - 1.0 / d)
    unobserved = x - _coordinates(np.eye(d, dtype=complex) / d)
    unobserved -= basis @ (basis.T @ unobserved)
    return (0.5 * float(w @ (r * r)) + 0.5 * _MU * float(unobserved @ unobserved),
            matrix.T @ (w * r) + _MU * unobserved)


def reference_fit(design, observations, weights):
    """(rho, n_iterations, converged) of FISTA certified at every iteration."""
    d = math.isqrt(design.matrix.shape[1])
    if weights is None:
        lowest, highest = design.range_values[[0, -1]]
    else:
        scaled = (np.sqrt(np.ravel(weights))[:, None] * design.matrix) @ design.range_basis
        lowest, highest = np.linalg.eigvalsh(scaled.T @ scaled)[[0, -1]]
    convexity, lipschitz = min(_MU, lowest), max(_MU, highest)
    step = 1.0 / lipschitz

    def at(rho):
        obj, g = evaluate(design, observations, weights, _coordinates(rho))
        return obj, _hermitian(g, d)

    def certified(rho, obj, grad):
        gap = float(np.vdot(grad, rho).real) - float(np.linalg.eigvalsh(grad)[0])
        moved = float(np.linalg.norm(rho - _project(rho - step * grad)))
        return (gap <= _GAP_RTOL * obj + _GAP_ATOL
                and 2.0 * lipschitz * moved / convexity <= _DISTANCE_TOL)

    rho = np.eye(d, dtype=complex) / d
    obj, grad = at(rho)
    y, grad_y, t, restarted = rho, grad, 1.0, True
    iterations = 0
    while not certified(rho, obj, grad) and iterations < _MAX_ITERATIONS:
        iterations += 1
        trial = _project(y - step * grad_y)
        obj_trial, grad_trial = at(trial)
        if obj_trial >= obj:
            if restarted:
                break
            y, grad_y, t, restarted = rho, grad, 1.0, True
            continue
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        y = trial + beta * (trial - rho)
        grad_y = grad_trial + beta * (grad_trial - grad)
        rho, obj, grad, t, restarted = trial, obj_trial, grad_trial, t_next, False
    return rho, iterations, certified(rho, obj, grad)
