"""Reference multipole expansion of the angular Wigner function, for the tests.

A density matrix is expanded on the orthonormal tensor operators,
rho = sum rho_ell^q T_ell^q with rho_ell^q = Tr(T_ell^q^dag rho), and
the Wigner function is W(theta, phi) = sum rho_ell^q Y_ell^q(theta, phi)
(Agarwal, PRA 24, 2889 (1981)).  Spherical harmonics use
Y_ell^q(theta, phi) = sqrt((2 ell + 1)/(4 pi)) e^{i q phi} d^ell_{q0}(theta)
with d^ell(theta) = exp(-i theta Jy) (Varshalovich, Moskalev &
Khersonskii, Quantum Theory of Angular Momentum, 1988).  The library's
Wigner map, a fixed kernel applied to projection distributions, is
held to this expansion.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from mesospin.angular import tensor_operator
from mesospin.core import make_operators, spin_of


@lru_cache(maxsize=None)
def _polar_coefficients(ell):
    # d^ell_{q0}(theta) = sum_m v[q+ell, m+ell] conj(v[ell, m+ell]) e^{-i m theta} over the
    # eigenvalues m = -ell..ell of Jy; d is real, so Re sum_{m>=0} c[q+ell, m] e^{-i m theta}
    _, v = np.linalg.eigh(make_operators(ell).jy)
    p = v * v[ell].conj()
    c = p[:, ell:].copy()
    c[:, 1:] += p[:, :ell][:, ::-1].conj()
    c.setflags(write=False)
    return c


def spherical_harmonic(ell, q, theta, phi):
    """Y_ell^q(theta, phi) with the Y_0^0 = 1/sqrt(4 pi) normalization.

    Condon-Shortley phases; theta and phi broadcast against each other.
    Negative q use d^ell_{-q,0} = (-1)^q d^ell_{q0}, so that
    Y_ell^{-q} = (-1)^q conj(Y_ell^q) holds exactly.
    """
    c = _polar_coefficients(ell)[abs(q) + ell]
    theta = np.asarray(theta, dtype=float)
    powers = np.ones(theta.shape + (ell + 1,), dtype=complex)
    powers[..., 1:] = np.exp(-1j * theta)[..., None]
    d = (np.cumprod(powers, axis=-1) @ c).real * (-1.0 if q < 0 and q % 2 else 1.0)
    return math.sqrt((2 * ell + 1) / (4 * math.pi)) * d * np.exp(1j * q * np.asarray(phi))


@dataclass(frozen=True)
class MultipoleDecomposition:
    """Coefficients rho_ell^q = Tr(T_ell^q^dag rho) of a state.

    Stored as a dense array indexed [ell, q + 2j]; entries with
    |q| > ell are zero.  Reality of the Wigner function corresponds to
    rho_ell^{-q} = (-1)^q conj(rho_ell^q).
    """

    j: float
    coefficients: np.ndarray

    def coefficient(self, ell, q):
        return self.coefficients[ell, q + self.coefficients.shape[0] - 1]

    def reality_residue(self):
        lmax = self.coefficients.shape[0] - 1
        worst = 0.0
        for ell in range(lmax + 1):
            for q in range(ell + 1):
                a = self.coefficient(ell, q)
                b = self.coefficient(ell, -q)
                worst = max(worst, abs(b - (-1) ** q * np.conj(a)))
        return worst


def multipole_decompose(rho):
    """Expand a density matrix on the orthonormal tensor operators."""
    rho = np.asarray(rho)
    j = spin_of(rho)
    lmax = int(round(2 * j))
    coeffs = np.zeros((lmax + 1, 2 * lmax + 1), dtype=complex)
    for ell in range(lmax + 1):
        for q in range(-ell, ell + 1):
            coeffs[ell, q + lmax] = np.vdot(tensor_operator(j, ell, q), rho)
    return MultipoleDecomposition(j=j, coefficients=coeffs)


def reconstruct_density(decomp):
    """Sum the multipole expansion back into a density matrix."""
    j = decomp.j
    lmax = decomp.coefficients.shape[0] - 1
    d = int(round(2 * j)) + 1
    rho = np.zeros((d, d), dtype=complex)
    for ell in range(lmax + 1):
        for q in range(-ell, ell + 1):
            rho += decomp.coefficient(ell, q) * tensor_operator(j, ell, q)
    return rho


def multipole_wigner(rho, thetas, phis):
    """W(theta, phi) = sum rho_ell^q Y_ell^q on a grid, as a complex field."""
    thetas = np.asarray(thetas, dtype=float)
    phis = np.asarray(phis, dtype=float)
    decomp = multipole_decompose(rho)
    lmax = decomp.coefficients.shape[0] - 1
    w = np.zeros((len(thetas), len(phis)), dtype=complex)
    for q in range(-lmax, lmax + 1):
        profile = np.zeros(len(thetas), dtype=complex)
        for ell in range(abs(q), lmax + 1):
            c = decomp.coefficient(ell, q)
            if c != 0:
                profile += c * spherical_harmonic(ell, q, thetas, 0.0)
        if np.any(profile):
            w += np.outer(profile, np.exp(1j * q * phis))
    return w
