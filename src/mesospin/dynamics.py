"""Time evolution under the twisting Hamiltonian and the light-shift model.

The ideal coupling is H = omega_L Jz + omega Jx^2 (hbar = 1, so H is
in rad/s).  Pure Jx^2 evolution from |-J>_z admits closed forms for the
state and its z moments; those serve as oracles for the numerical
propagator.  The full light-shift operator, from which the Jx^2 coupling
derives, is also provided for polarization and scattering studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    Direction,
    basis_state,
    dimension,
    expi_hermitian,
    m_values,
    _two_j,
)

__all__ = [
    "CouplingConfig",
    "LightShiftParams",
    "hamiltonian",
    "evolve",
    "kitten_state",
    "revival_state",
    "oat_closed_form",
    "analytic_mz",
    "analytic_varz",
    "gaussian_mz",
    "gaussian_varz",
    "light_shift_operator",
    "coupling_rate",
    "intensity_for_coupling",
]

SPEED_OF_LIGHT = 299792458.0  # m/s, exact in SI
HBAR = 6.62607015e-34 / (2 * math.pi)  # J s, exact in SI


@dataclass(frozen=True)
class CouplingConfig:
    """Parameters of the spin coupling H = omega_L Jz + omega Jx^2.

    omega is the non-linear (twisting) rate and omega_larmor the Larmor
    precession rate about the z field axis, both in rad/s (a tilted
    field is an imperfection, `ImperfectionConfig.field_axis_components`).
    When include_jx4 is set, the leading quartic correction
    (omega^2/detuning) [(2J^2+3J+1) Jx^2 + Jx^4] is added, which requires
    a nonzero detuning (rad/s).
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


@dataclass(frozen=True)
class LightShiftParams:
    """Physical parameters of the off-resonant light coupling.

    linewidth (1/s) and resonance_wavelength (m) describe the optical
    transition to the J' = J+1 excited level; detuning (rad/s) is the
    laser offset from it; intensity is in W/m^2; polarization is a
    complex unit 3-vector (Jones vector in the x, y, z frame).
    """

    linewidth: float
    resonance_wavelength: float
    detuning: float
    intensity: float
    polarization: tuple = (1.0, 0.0, 0.0)

    def __post_init__(self):
        u = np.asarray(self.polarization, dtype=complex)
        if u.shape != (3,):
            raise ValueError("polarization must be a 3-vector")
        if abs(np.vdot(u, u).real - 1.0) > 1e-12:
            raise ValueError("polarization must be a unit vector")
        object.__setattr__(self, "polarization", tuple(u))


def elliptical_polarization(epsilon):
    """Unit polarization (x + i*epsilon*y)/sqrt(1+epsilon^2)."""
    n = math.sqrt(1.0 + epsilon**2)
    return (1.0 / n, 1j * epsilon / n, 0.0)


def _v0_over_hbar(p: LightShiftParams):
    # V0/hbar = 3 pi c^2 Gamma I / (2 hbar w0^3 Delta); negative for red detuning
    omega0 = 2 * np.pi * SPEED_OF_LIGHT / p.resonance_wavelength
    return (
        3 * np.pi * SPEED_OF_LIGHT**2 * p.linewidth * p.intensity
        / (2 * HBAR * omega0**3 * p.detuning)
    )


def light_shift_operator(p: LightShiftParams, ops):
    """Second-order light-shift operator, in angular-frequency units.

    Contains a scalar part, a vector part along i(u* x u) (fictitious
    magnetic field, nonzero only for elliptical polarization), and a
    rank-2 part that reduces to the Jx^2 twisting term for linear
    polarization along x.  Returned divided by hbar, consistent with the
    hbar = 1 convention of `hamiltonian`.
    """
    u = np.asarray(p.polarization, dtype=complex)
    j = ops.j
    d = dimension(j)
    v0 = _v0_over_hbar(p)
    a = sum(np.conj(u[k]) * op for k, op in enumerate((ops.jx, ops.jy, ops.jz)))
    b = a.conj().T
    w = np.cross(np.conj(u), u)  # purely imaginary vector
    vec = sum(w[k] * op for k, op in enumerate((ops.jx, ops.jy, ops.jz)))
    scalar = (2 * j + 3) / (3 * (2 * j + 1)) * np.eye(d)
    vector = -1j * (2 * j + 3) / (2 * (j + 1) * (2 * j + 1)) * vec
    rank2 = (3 * (a @ b + b @ a) - 2 * j * (j + 1) * np.eye(d)) / (
        6 * (j + 1) * (2 * j + 1)
    )
    return v0 * (scalar + vector - rank2)


def coupling_rate(p: LightShiftParams, j):
    """Twisting rate omega implied by the light-shift parameters."""
    return -_v0_over_hbar(p) / ((j + 1) * (2 * j + 1))


def intensity_for_coupling(omega, linewidth, wavelength, detuning, j):
    """Light intensity (W/m^2) that produces a given twisting rate omega.

    Positive omega requires red detuning (detuning < 0).
    """
    omega0 = 2 * np.pi * SPEED_OF_LIGHT / wavelength
    intensity = (
        -omega * (j + 1) * (2 * j + 1)
        * 2 * HBAR * omega0**3 * detuning
        / (3 * np.pi * SPEED_OF_LIGHT**2 * linewidth)
    )
    if intensity < 0:
        raise ValueError("requested coupling sign is inconsistent with the detuning")
    return intensity
