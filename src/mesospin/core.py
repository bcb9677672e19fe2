"""Exact spin-J algebra on the (2J+1)-dimensional Hilbert space.

States are plain complex arrays of 2J+1 amplitudes in the |m>_z basis,
ordered m = -J ... +J (index i holds m = i - J).  Density matrices are
(2J+1) x (2J+1) complex arrays in the same basis.  hbar = 1 throughout,
so spin operators are dimensionless and Hamiltonians carry
angular-frequency units.

All matrix exponentials go through the eigendecomposition of the
Hermitian generator, which is exact to machine precision at these
dimensions.  States are only defined up to a global phase; compare them
with `fidelity`, not elementwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Direction",
    "SpinOperatorSet",
    "X_AXIS",
    "Y_AXIS",
    "Z_AXIS",
    "dimension",
    "m_values",
    "spin_of",
    "make_operators",
    "basis_state",
    "expi_hermitian",
    "expectation",
    "spin_variance",
    "projector",
    "fidelity",
]

_TWO_PI = 2.0 * math.pi


def _two_j(j):
    two_j = int(round(2 * j))
    if abs(2 * j - two_j) > 1e-9 or two_j < 0:
        raise ValueError(f"j must be a non-negative multiple of 1/2, got {j}")
    return two_j


def dimension(j):
    """Hilbert-space dimension 2j+1."""
    return _two_j(j) + 1


def m_values(j):
    """Projection quantum numbers -j ... +j in basis order."""
    two_j = _two_j(j)
    return np.arange(two_j + 1) - two_j / 2.0


def spin_of(state):
    """Spin quantum number j carried by a state vector or density matrix."""
    return (np.shape(state)[0] - 1) / 2.0


@dataclass(frozen=True)
class Direction:
    """Unit vector given by polar angle theta and azimuth phi (radians).

    The azimuth is stored reduced to [0, 2*pi).  theta must lie in
    [0, pi].
    """

    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi + 1e-12:
            raise ValueError(f"polar angle must lie in [0, pi], got {self.theta}")
        object.__setattr__(self, "theta", float(min(self.theta, math.pi)))
        object.__setattr__(self, "phi", float(self.phi) % _TWO_PI)

    @property
    def vector(self):
        st = math.sin(self.theta)
        return np.array(
            [st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta)]
        )


X_AXIS = Direction(math.pi / 2, 0.0)
Y_AXIS = Direction(math.pi / 2, math.pi / 2)
Z_AXIS = Direction(0.0, 0.0)


@dataclass(frozen=True)
class SpinOperatorSet:
    """Dense matrices of the spin components for a single spin j.

    jz is diagonal with entries -j ... +j; jx and jy derive from the
    raising operator J+ in the Condon-Shortley phase convention.
    """

    j: float
    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray


@lru_cache(maxsize=None)
def _operators(two_j):
    j = two_j / 2.0
    d = two_j + 1
    m = np.arange(d) - j
    jz = np.diag(m.astype(complex))
    jplus = np.zeros((d, d), dtype=complex)
    # <m+1| J+ |m> = sqrt(j(j+1) - m(m+1))
    jplus[np.arange(1, d), np.arange(d - 1)] = np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1))
    jminus = jplus.conj().T
    jx = (jplus + jminus) / 2.0
    jy = (jplus - jminus) / 2.0j
    for a in (jx, jy, jz):
        a.setflags(write=False)
    return SpinOperatorSet(j=j, jx=jx, jy=jy, jz=jz)


def make_operators(j) -> SpinOperatorSet:
    """Spin matrices for quantum number j (integer or half-integer)."""
    return _operators(_two_j(j))


def expi_hermitian(generator, scale=1.0):
    """exp(-i * scale * G) for a Hermitian matrix G, via eigendecomposition."""
    w, v = np.linalg.eigh(generator)
    return (v * np.exp(-1j * scale * w)) @ v.conj().T


def basis_state(j, m, axis=Z_AXIS):
    """Eigenstate of u . J with eigenvalue m, expressed in the z basis.

    The z basis is carried onto the axis (theta, phi) by the rotation
    exp(-i phi Jz) exp(-i theta Jy), which fixes the phases of the
    returned amplitudes.  For the +z axis this is the unit vector with a
    single nonzero amplitude at index m + j.

    Parameters
    ----------
    j : number
        Spin quantum number (integer or half-integer).
    m : number
        Projection quantum number; must differ from j by an integer and
        satisfy |m| <= j.
    axis : Direction, optional
        Quantization axis; defaults to +z.
    """
    two_j = _two_j(j)
    j = two_j / 2.0
    idx = int(round(m + j))
    if abs((m + j) - idx) > 1e-9 or not 0 <= idx <= two_j:
        raise ValueError(f"m={m} is not a valid projection for j={j}")
    v = np.zeros(two_j + 1, dtype=complex)
    v[idx] = 1.0
    if axis.theta == 0.0 and axis.phi == 0.0:
        return v
    ops = make_operators(j)
    return expi_hermitian(ops.jz, axis.phi) @ (expi_hermitian(ops.jy, axis.theta) @ v)


def _check_hermitian(op):
    op = np.asarray(op)
    scale = max(1.0, np.linalg.norm(op))
    if np.linalg.norm(op - op.conj().T) > 1e-10 * scale:
        raise ValueError("operator is not Hermitian")
    return op


def expectation(op, state):
    """<psi|O|psi> for a state vector, Tr(rho O) for a density matrix.

    The operator must be Hermitian; the (rounding-level) imaginary part
    of the result is checked against 1e-10 and discarded.
    """
    op = _check_hermitian(op)
    state = np.asarray(state)
    if state.ndim == 1:
        val = np.vdot(state, op @ state)
    else:
        val = np.trace(op @ state)
    if abs(val.imag) > 1e-10 * max(1.0, abs(val)):
        raise ValueError("expectation value has a non-negligible imaginary part")
    return float(val.real)


def spin_variance(op, state):
    """Variance <O^2> - <O>^2 of a Hermitian operator in a given state."""
    op = np.asarray(op)
    return expectation(op @ op, state) - expectation(op, state) ** 2


def projector(psi):
    """Rank-1 density matrix |psi><psi|."""
    psi = np.asarray(psi)
    return np.outer(psi, psi.conj())


def fidelity(a, b):
    """Quantum fidelity between two states, in [0, 1].

    For two vectors this is |<a|b>|^2; mixed inputs give <psi|rho|psi>;
    for two density matrices the Uhlmann fidelity
    (Tr sqrt(sqrt(a) b sqrt(a)))^2.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim == 1 and b.ndim == 1:
        return float(abs(np.vdot(a, b)) ** 2)
    if a.ndim == 1:
        return float(np.real(np.vdot(a, b @ a)))
    if b.ndim == 1:
        return float(np.real(np.vdot(b, a @ b)))
    wa, va = np.linalg.eigh(a)
    sqrt_a = (va * np.sqrt(np.clip(wa, 0.0, None))) @ va.conj().T
    w = np.linalg.eigvalsh(sqrt_a @ b @ sqrt_a)
    return float(np.sum(np.sqrt(np.clip(w, 0.0, None))) ** 2)
