"""Time evolution under the twisting Hamiltonian.

The ideal coupling is H = omega_L Jz + omega Jx^2 (hbar = 1, so H is
in rad/s).  Pure Jx^2 evolution from |-J>_z admits closed forms for the
state and its z moments; those serve as oracles for the numerical
propagator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    Direction,
    basis_state,
    expi_hermitian,
    m_values,
    _two_j,
)

__all__ = [
    "CouplingConfig",
    "hamiltonian",
    "evolve",
    "kitten_state",
    "revival_state",
    "oat_closed_form",
    "analytic_mz",
    "analytic_varz",
    "gaussian_mz",
    "gaussian_varz",
]

HBAR = 6.62607015e-34 / (2 * math.pi)  # J s, exact in SI


@dataclass(frozen=True)
class CouplingConfig:
    """Parameters of the spin coupling H = omega_L Jz + omega Jx^2.

    omega is the non-linear (twisting) rate and omega_larmor the Larmor
    precession rate about the z field axis, both in rad/s (a tilted
    field is an imperfection, `ImperfectionConfig.field_axis_components`).
    When include_jx4 is set, the leading quartic correction
    (omega^2/detuning) [(2J^2+3J+1) Jx^2 + Jx^4] is added, which requires
    a nonzero detuning (rad/s).  The configuration file carries no key
    for it: `mesospin budget` turns it on and every other command runs
    without it.
    """

    omega: float
    omega_larmor: float = 0.0
    detuning: float = 0.0
    include_jx4: bool = False

    def __post_init__(self):
        if self.omega < 0:
            raise ValueError("coupling rate omega must be non-negative")
        if self.include_jx4 and self.detuning == 0:
            raise ValueError("include_jx4 requires a nonzero detuning")


def hamiltonian(cfg: CouplingConfig, ops):
    """Coupling Hamiltonian omega_L Jz + omega Jx^2 (plus the optional
    quartic correction) for the given configuration, in rad/s."""
    j = ops.j
    h = cfg.omega * (ops.jx @ ops.jx)
    if cfg.omega_larmor != 0.0:
        h = h + cfg.omega_larmor * ops.jz
    if cfg.include_jx4:
        jx2 = ops.jx @ ops.jx
        h = h + (cfg.omega**2 / cfg.detuning) * (
            (2 * j**2 + 3 * j + 1) * jx2 + jx2 @ jx2
        )
    return h


def evolve(state, h, t):
    """Propagate a state vector (or density matrix) by exp(-i H t)."""
    u = expi_hermitian(h, t)
    state = np.asarray(state)
    if state.ndim == 1:
        return u @ state
    return u @ state @ u.conj().T


def revival_state(j, n):
    """State reached at omega*t = n*pi/2 under pure Jx^2 coupling from |-J>_z.

    For odd n this is the two-component superposition
    (e^{-i n pi/4} |-J>_z + e^{+i n pi/4} |+J>_z) / sqrt(2); for even n
    the spin re-polarizes, alternating |+J>_z (n/2 odd) and |-J>_z
    (n/2 even).  Only integer j supports this revival structure.
    """
    two_j = _two_j(j)
    if two_j % 2:
        raise ValueError("revival states require integer j")
    if n < 0 or n != int(n):
        raise ValueError("n must be a non-negative integer")
    n = int(n)
    v = np.zeros(two_j + 1, dtype=complex)
    if n % 2:
        v[0] = np.exp(-1j * n * np.pi / 4) / math.sqrt(2)
        v[-1] = np.exp(1j * n * np.pi / 4) / math.sqrt(2)
    elif (n // 2) % 2:
        v[-1] = 1.0
    else:
        v[0] = 1.0
    return v


def kitten_state(j):
    """Two-component superposition reached at omega*t = pi/2 from |-J>_z."""
    return revival_state(j, 1)


@lru_cache(maxsize=None)
def _x_expansion(two_j):
    # columns of x_basis are |m>_x in the z basis; coeffs = <m|_x|-J>_z
    j = two_j / 2.0
    x_basis = np.column_stack(
        [basis_state(j, m, axis=Direction(np.pi / 2, 0.0)) for m in m_values(j)]
    )
    coeffs = x_basis.conj().T[:, 0].copy()
    x_basis.setflags(write=False)
    coeffs.setflags(write=False)
    return x_basis, coeffs


def oat_closed_form(j, omega_t):
    """State after pure Jx^2 evolution of |-J>_z, from the x-basis expansion.

    Each x-basis amplitude of the initial state picks up the quadratic
    phase e^{-i m^2 omega t}; the result is returned in the z basis.
    Agrees with `evolve` under H = omega Jx^2 to machine precision.
    """
    x_basis, coeffs = _x_expansion(_two_j(j))
    phases = np.exp(-1j * m_values(j) ** 2 * omega_t)
    return x_basis @ (phases * coeffs)


def analytic_mz(j, omega_t):
    """Closed-form magnetization <Jz>(t) = -j cos(omega t)^(2j-1)."""
    omega_t = np.asarray(omega_t, dtype=float)
    return -j * np.cos(omega_t) ** (_two_j(j) - 1)


def analytic_varz(j, omega_t):
    """Closed-form variance of Jz under pure twisting from |-j>_z."""
    omega_t = np.asarray(omega_t, dtype=float)
    two_j = _two_j(j)
    var = j**2 * (1.0 - np.cos(omega_t) ** (2 * (two_j - 1)))
    var -= 0.5 * j * (j - 0.5) * (1.0 - np.cos(2 * omega_t) ** (two_j - 2))
    return var


def collapse_time(j, omega=1.0):
    """Gaussian collapse timescale t_c = 1/(sqrt(2j) * omega)."""
    return 1.0 / (math.sqrt(2 * j) * omega)


def gaussian_mz(j, omega_t):
    """Gaussian-collapse approximation -j exp(-(t/t_c)^2 / 2)."""
    x = np.asarray(omega_t, dtype=float) * math.sqrt(2 * j)
    return -j * np.exp(-(x**2) / 2.0)


def gaussian_varz(j, omega_t):
    """Gaussian-collapse approximation of the Jz variance.

    Tends to the plateau value j(j+1/2)/2 once the magnetization has
    collapsed.
    """
    x2 = (np.asarray(omega_t, dtype=float) * math.sqrt(2 * j)) ** 2
    plateau = 0.5 * j * (j + 0.5)
    rate = (2 * j**2 - 2 * j + 1) / (j * (j - 0.5))
    return plateau - j**2 * np.exp(-x2) + plateau * np.exp(-rate * x2)
