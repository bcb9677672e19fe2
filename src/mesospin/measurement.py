"""Projective spin measurements and derived observables.

Projection probabilities are computed in the eigenbasis of u.J for an
arbitrary axis u.  Equatorial axes are parameterized by a scan angle phi
with measurement direction u(phi) = (cos phi, -sin phi, 0); the azimuth
runs clockwise about +z, which orients the parity oscillation of the
two-component superposition states as +sin(2J phi).
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
    make_operators,
    spin_of,
)
from .dephasing import gyromagnetic_ratio
from .rng import substream

__all__ = [
    "DimensionError",
    "ProjectionDistribution",
    "projection_probs",
    "parity",
    "magnetization",
    "variance",
    "sample_counts",
    "equatorial_direction",
    "equatorial_scan",
    "ramsey_scan",
    "by_pulse_map",
    "tune_by_pulse",
]


class DimensionError(ValueError):
    """A probability vector whose length is not the 2j+1 outcomes of its j."""


@dataclass(frozen=True)
class ProjectionDistribution:
    """Probabilities of the 2j+1 projection outcomes along one axis.

    `counts` and `atom_total` are present for finite-sample data, in
    which case `probabilities` holds the empirical frequencies.
    """

    j: float
    axis: Direction
    probabilities: np.ndarray
    counts: np.ndarray = None
    atom_total: int = None

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        outcomes = 2 * self.j + 1
        if p.shape != (outcomes,):
            raise DimensionError(f"{p.size} projection probabilities for "
                                 f"j = {self.j:g}, which has 2j+1 = "
                                 f"{outcomes:g} outcomes")
        if p.min() < -1e-10:
            raise ValueError("negative projection probability")
        if abs(p.sum() - 1.0) > 1e-10:
            raise ValueError("projection probabilities must sum to 1")
        p = np.clip(p, 0.0, None)
        p.setflags(write=False)
        object.__setattr__(self, "probabilities", p)
        if self.counts is not None:
            c = np.asarray(self.counts)
            if self.atom_total is None or c.sum() != self.atom_total:
                raise ValueError("counts must sum to atom_total")


@lru_cache(maxsize=None)
def _polar_rotation(two_j, theta):
    ops = make_operators(two_j / 2.0)
    r = expi_hermitian(ops.jy, theta)
    r.setflags(write=False)
    return r


def _axis_basis(j, axis):
    """Matrix whose column m+j is the |m> eigenvector of u.J, in the z basis."""
    if not isinstance(axis, Direction):
        axis = Direction.from_vector(axis)
    ry = _polar_rotation(int(round(2 * j)), axis.theta)
    phases = np.exp(-1j * axis.phi * m_values(j))
    return phases[:, None] * ry, axis


def projection_probs(state, axis=Direction(0.0, 0.0)):
    """Projection probabilities of a state along an arbitrary axis.

    Works on state vectors and density matrices; the outcome labels are
    the eigenvalues m = -j ... +j of u.J.
    """
    state = np.asarray(state)
    j = spin_of(state)
    basis, axis = _axis_basis(j, axis)
    if state.ndim == 1:
        probs = np.abs(basis.conj().T @ state) ** 2
    else:
        probs = np.real(np.einsum("im,ik,km->m", basis.conj(), state, basis))
    total = probs.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError("state is not normalized")
    return ProjectionDistribution(j=j, axis=axis, probabilities=probs / total)


def parity(dist):
    """Parity sum((-1)^m Pi_m) of a projection distribution."""
    m = m_values(dist.j)
    if np.any(np.abs(m - np.round(m)) > 1e-9):
        raise ValueError("parity requires integer j")
    signs = np.where(np.round(m).astype(int) % 2 == 0, 1.0, -1.0)
    return float(signs @ dist.probabilities)


def magnetization(dist):
    """Mean projection sum(m Pi_m)."""
    return float(m_values(dist.j) @ dist.probabilities)


def variance(dist):
    """Projection variance sum(m^2 Pi_m) - magnetization^2."""
    m = m_values(dist.j)
    return float(m**2 @ dist.probabilities - (m @ dist.probabilities) ** 2)


def sample_counts(dist, n, seed):
    """Multinomial draw of n atoms from a projection distribution.

    Returns a new distribution holding the counts and the empirical
    frequencies; a fixed seed reproduces the same counts.
    """
    if n < 1:
        raise ValueError("need at least one atom")
    rng = substream(seed)
    counts = rng.multinomial(int(n), dist.probabilities)
    return ProjectionDistribution(
        j=dist.j,
        axis=dist.axis,
        probabilities=counts / n,
        counts=counts,
        atom_total=int(n),
    )


def equatorial_direction(phi):
    """Measurement direction u(phi) = (cos phi, -sin phi, 0)."""
    return Direction(math.pi / 2, -phi)


def equatorial_scan(state, phis):
    """Projection distributions along a sequence of equatorial azimuths."""
    return [projection_probs(state, equatorial_direction(phi)) for phi in phis]


def ramsey_scan(state, phis, pulse):
    """Two-pulse sequence read out along z, versus interpulse Larmor phase.

    For each phase phi the state acquires exp(-i phi Jz), the unitary
    `pulse` is applied, and the z projection distribution is recorded.
    With a two-component superposition as input and the twisting pulse
    as `pulse`, the magnetization follows j cos(2j phi).
    """
    state = np.asarray(state)
    pulse = np.asarray(pulse)
    m = m_values(spin_of(state))
    out = []
    for phi in phis:
        phases = np.exp(-1j * phi * m)
        if state.ndim == 1:
            rotated = pulse @ (phases * state)
        else:
            u = pulse * phases[None, :]
            rotated = u @ state @ u.conj().T
        out.append(projection_probs(rotated))
    return out


_BY_PULSE_STEPS = 1000


def _by_pulse_unitary(j, pulse_peak, duration, static_bz, gamma):
    ops = make_operators(j)
    dt = duration / _BY_PULSE_STEPS
    hz = gamma * static_bz * ops.jz
    u = np.eye(int(round(2 * j)) + 1, dtype=complex)
    for k in range(_BY_PULSE_STEPS):
        t_mid = (k + 0.5) * dt
        by = pulse_peak * math.sin(math.pi * t_mid / duration) ** 2
        u = expi_hermitian(gamma * by * ops.jy + hz, dt) @ u
    return u


def by_pulse_map(state, pulse_peak, duration, static_bz):
    """Evolution under a smooth B_y pulse on top of a static B_z field.

    The pulse B_y(t) = pulse_peak * sin^2(pi t / duration) (tesla) adds
    to the static field static_bz along z; the state is propagated with
    1000 equal midpoint time steps.  With the peak
    amplitude tuned, this maps one equatorial spin direction onto +z.
    """
    if duration <= 0:
        raise ValueError("pulse duration must be positive")
    state = np.asarray(state)
    gamma = gyromagnetic_ratio()
    u = _by_pulse_unitary(spin_of(state), pulse_peak, duration, static_bz, gamma)
    if state.ndim == 1:
        return u @ state
    return u @ state @ u.conj().T


def tune_by_pulse(j, duration, static_bz):
    """Peak field that makes the B_y pulse map an equatorial axis onto +z.

    Returns (pulse_peak, phi) where phi is the equatorial scan angle of
    the direction that is carried to +z (the pulse is a pure rotation,
    so exactly one direction is; it lies on the equator when the peak is
    tuned right).  The peak is searched between 0.25 and 1.75 times
    pi / (gamma duration), the peak of a quarter turn without the
    static field, by regula falsi with the Illinois modification.
    """
    gamma = gyromagnetic_ratio()
    ops = make_operators(j)
    top = basis_state(j, j)

    def mapped_direction(peak):
        u = _by_pulse_unitary(j, peak, duration, static_bz, gamma)
        psi = u.conj().T @ top
        return np.array(
            [float(np.real(np.vdot(psi, op @ psi))) / j for op in (ops.jx, ops.jy, ops.jz)]
        )

    # sin^2 pulse area gamma*peak*duration/2: a quarter turn needs ~pi/2
    scale = math.pi / (gamma * duration)
    # b is the newest iterate and a the other end of the bracket; an end
    # that is kept has its value halved (Illinois)
    a, b = 0.25 * scale, 1.75 * scale
    f_a, f_b = mapped_direction(a)[2], mapped_direction(b)[2]
    if f_a * f_b > 0:
        raise ValueError("the peak search bracket holds no sign change")
    while True:
        peak = float(b - f_b * (b - a) / (f_b - f_a))
        if abs(b - a) <= 1e-18 or not min(a, b) < peak < max(a, b):
            break
        f_peak = mapped_direction(peak)[2]
        if f_peak * f_b < 0:
            a, f_a = b, f_b
        else:
            f_a /= 2
        b, f_b = peak, f_peak
    nx, ny, _ = mapped_direction(peak)
    phi = (-math.atan2(ny, nx)) % (2 * math.pi)
    return peak, phi
