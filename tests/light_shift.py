"""Reference model of the off-resonant light coupling, for the tests.

The second-order light-shift operator of a drive near the J -> J' = J+1
line, with its scalar, vector and rank-2 parts written out (Le Kien,
Schneeweiss & Rauschenbeutel, Eur. Phys. J. D 67, 92 (2013)).  The
ensemble's coupling operator, its light term and its scattering
channels are held to it.
"""

import math
from dataclasses import dataclass

import numpy as np

from mesospin.core import dimension
from mesospin.dynamics import HBAR

SPEED_OF_LIGHT = 299792458.0  # m/s, exact in SI


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
    hbar = 1 convention of `mesospin.hamiltonian`.
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
