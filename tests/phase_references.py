"""Per-angle reference readouts of a z-rotated state, for the tests.

Each angle is computed on its own: the state is rotated by
exp(-i phi Jz) and read out in a fixed basis, R_y(pi/2) for the
equatorial scan and the Fisher information, the pulse for the Ramsey
scan.  The Fisher information differentiates the rotated state exactly
through d sigma/d phi = -i [Jz, sigma].  The library evaluates all
angles from one Fourier table of the state and is held to these
readouts.  The moments and the Hellinger distance are likewise taken
one distribution at a time, against the library's one product per scan.
"""

import math

import numpy as np

from mesospin.core import m_values, projector, spin_of
from mesospin.measurement import (
    _polar_rotation,
    equatorial_direction,
    projection_probs,
)

PROBABILITY_FLOOR = 1e-12


def equatorial_scan(state, phis):
    """One `projection_probs` call per equatorial azimuth."""
    return [projection_probs(state, equatorial_direction(phi)) for phi in phis]


def ramsey_scan(state, phis, pulse):
    """The pulse applied after exp(-i phi Jz), then read out along z, per phase."""
    state = np.asarray(state)
    if state.ndim == 1:
        state = projector(state)
    pulse = np.asarray(pulse)
    m = m_values(spin_of(state))
    out = []
    for phi in phis:
        u = pulse * np.exp(-1j * phi * m)[None, :]
        out.append(projection_probs(u @ state @ u.conj().T))
    return out


def parity(p, j):
    """sum((-1)^m p_m) of one probability vector."""
    m = np.round(m_values(j)).astype(int)
    return float(np.where(m % 2 == 0, 1.0, -1.0) @ p)


def magnetization(p, j):
    """sum(m p_m) of one probability vector."""
    return float(m_values(j) @ p)


def variance(p, j):
    """sum(m^2 p_m) - magnetization^2 of one probability vector."""
    m = m_values(j)
    return float(m**2 @ p - (m @ p) ** 2)


def hellinger_distance(p, q):
    """sqrt(0.5 sum_m (sqrt(p_m) - sqrt(q_m))^2) of two probability vectors."""
    d2 = 0.5 * np.sum((np.sqrt(p) - np.sqrt(q)) ** 2)
    return math.sqrt(min(max(d2, 0.0), 1.0))


def fisher_information(state, phi=0.0):
    """Fisher information of the Larmor phase at offset phi, by rotation.

    Outcomes with probability at or below 1e-12 are dropped.
    """
    state = np.asarray(state)
    j = spin_of(state)
    rho = state if state.ndim == 2 else np.outer(state, state.conj())
    m = m_values(j)
    basis = _polar_rotation(int(round(2 * j)), math.pi / 2)
    rz = np.exp(-1j * phi * m)
    sigma = (rz[:, None] * rho) * rz.conj()[None, :]
    dsigma = -1j * (m[:, None] - m[None, :]) * sigma
    p = np.real(np.einsum("im,ik,km->m", basis.conj(), sigma, basis))
    dp = np.real(np.einsum("im,ik,km->m", basis.conj(), dsigma, basis))
    mask = p > PROBABILITY_FLOOR
    return float(np.sum(dp[mask] ** 2 / p[mask]))


def fisher_gain(state, *, n_phi=360):
    """max over n_phi angles in [0, pi/4) of `fisher_information`, over 2j."""
    j = spin_of(np.asarray(state))
    best = 0.0
    for phi in np.linspace(0.0, math.pi / 4, n_phi, endpoint=False):
        best = max(best, fisher_information(state, phi))
    return best / (2 * j)
