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
    expi_hermitian,
    m_values,
    make_operators,
    projector,
    spin_of,
)
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
]


class DimensionError(ValueError):
    """Probabilities whose shape is not the 2j+1 outcomes of their j (per
    angle, for a scan)."""


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
        p, c = _validated(self.j, self.probabilities, self.counts, self.atom_total)
        object.__setattr__(self, "probabilities", p)
        object.__setattr__(self, "counts", c)


def _validated(j, probabilities, counts, atom_total, angles=None):
    """Checked, read-only probabilities and counts of one distribution, or
    of `angles` distributions stacked as rows.

    The probabilities must have 2j+1 outcomes (else DimensionError), be
    finite, not below -1e-10 and sum to 1 within 1e-10 in every row;
    they are returned clipped at 0.  Counts, when given, must sum to
    atom_total in every row (atom_total may hold one total per row).
    """
    p = np.asarray(probabilities, dtype=float)
    outcomes = 2 * j + 1
    if angles is None and p.shape != (outcomes,):
        raise DimensionError(f"{p.size} projection probabilities for "
                             f"j = {j:g}, which has 2j+1 = {outcomes:g} outcomes")
    if angles is not None and p.shape != (angles, outcomes):
        raise DimensionError(f"projection probabilities of shape {p.shape} for "
                             f"{angles} angles and j = {j:g}, which has "
                             f"2j+1 = {outcomes:g} outcomes")
    if not np.isfinite(p).all():  # NaN passes the comparisons below
        raise ValueError("non-finite projection probability")
    if np.any(p < -1e-10):
        raise ValueError("negative projection probability")
    if np.any(np.abs(p.sum(axis=-1) - 1.0) > 1e-10):
        raise ValueError("projection probabilities must sum to 1")
    p = np.clip(p, 0.0, None)
    p.setflags(write=False)
    if counts is not None:
        counts = np.array(counts)
        if (atom_total is None or counts.shape != p.shape
                or np.any(counts.sum(axis=-1) != atom_total)):
            raise ValueError("counts must sum to atom_total")
        counts.setflags(write=False)
    return p, counts


@lru_cache(maxsize=None)
def _polar_rotation(two_j, theta):
    ops = make_operators(two_j / 2.0)
    r = expi_hermitian(ops.jy, theta)
    r.setflags(write=False)
    return r


def _axis_basis(j, axis):
    """Matrix whose column m+j is the |m> eigenvector of u.J, in the z basis."""
    ry = _polar_rotation(int(round(2 * j)), axis.theta)
    phases = np.exp(-1j * axis.phi * m_values(j))
    return phases[:, None] * ry


def projection_probs(state, axis=Direction(0.0, 0.0)):
    """Projection probabilities of a state along the Direction `axis`.

    Works on state vectors and density matrices; the outcome labels are
    the eigenvalues m = -j ... +j of u.J.
    """
    state = np.asarray(state)
    j = spin_of(state)
    basis = _axis_basis(j, axis)
    if state.ndim == 1:
        probs = np.abs(basis.conj().T @ state) ** 2
    else:
        probs = np.real(np.einsum("im,ik,km->m", basis.conj(), state, basis))
    return ProjectionDistribution(j=j, axis=axis, probabilities=_normalized(probs))


def _normalized(probs):
    """Probabilities divided by their sum along the last axis; raises
    ValueError for an unnormalized state."""
    totals = probs.sum(axis=-1, keepdims=True)
    if np.any(np.abs(totals - 1.0) > 1e-9):
        raise ValueError("state is not normalized")
    return probs / totals


def _diagonal_sums(x):
    """Sums of x along each diagonal k = b - a of its last two axes.

    Returns the sums for k = 1-d ... d-1 along a new last axis.
    """
    d = x.shape[-1]
    return np.stack([np.trace(x, offset=k, axis1=-2, axis2=-1)
                     for k in range(1 - d, d)], axis=-1)


def _phase_scan(state, basis, phis):
    """Readout of a z-rotated state at many phases, from one Fourier table.

    The state exp(-i phi Jz) rho exp(i phi Jz) is read out in the basis
    whose column m is `basis[:, m]`.  Its outcome probabilities are the
    trigonometric polynomial p_m(phi) = sum_k e^{ik phi} D_k[m], with
    D_k[m] = sum_a conj(B_am) rho_{a,a+k} B_{a+k,m} for k = -2j ... 2j
    (Agarwal, PRA 24, 2889 (1981)).  Returns p[i, m] and its exact
    derivative dp/dphi at each phis[i]; a state vector is taken as its
    density matrix.
    """
    state = np.asarray(state)
    rho = projector(state) if state.ndim == 1 else state
    d = rho.shape[0]
    # rho times the transposed outcome projectors conj(B_am) B_bm, summed along
    # k = b - a; forming the projectors first leaves the outcomes a pure state
    # never reaches about 30 times closer to 0 than conj(B)^T rho B does
    table = _diagonal_sums(rho * (basis.conj().T[:, :, None] * basis.T[:, None, :])).T
    k = np.arange(1 - d, d)
    e = np.exp(1j * np.multiply.outer(np.asarray(phis, dtype=float), k))
    return (e @ table).real, ((1j * k * e) @ table).real


def _parity_signs(j):
    m = m_values(j)
    if np.any(np.abs(m - np.round(m)) > 1e-9):
        raise ValueError("parity requires integer j")
    return np.where(np.round(m).astype(int) % 2 == 0, 1.0, -1.0)


# The moments take a distribution, or a scan of one distribution per row
# (`metrology.PhaseScan`), and return one value per row.


def parity(dist):
    """Parity sum((-1)^m Pi_m) of a distribution, or per angle of a scan."""
    return np.vecdot(dist.probabilities, _parity_signs(dist.j))


def magnetization(dist):
    """Mean projection sum(m Pi_m), of a distribution or per angle of a scan."""
    return np.vecdot(dist.probabilities, m_values(dist.j))


def variance(dist):
    """Projection variance sum(m^2 Pi_m) - magnetization^2, of a
    distribution or per angle of a scan."""
    m = m_values(dist.j)
    return np.vecdot(dist.probabilities, m**2) - np.vecdot(dist.probabilities, m) ** 2


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
    """Projection probabilities along a sequence of equatorial azimuths.

    Row i holds the 2j+1 outcome probabilities along
    `equatorial_direction(phis[i])`.  Every angle comes from one Fourier
    table of the state read out in the basis R_y(pi/2) (`_phase_scan`);
    raises ValueError for an unnormalized state.
    """
    j = spin_of(state)
    probs, _ = _phase_scan(state, _polar_rotation(int(round(2 * j)), math.pi / 2),
                           phis)
    return _normalized(probs)


def ramsey_scan(state, phis, pulse):
    """Two-pulse sequence read out along z, versus interpulse Larmor phase.

    For each phase phi the state acquires exp(-i phi Jz), the unitary
    `pulse` is applied, and row i holds the z projection probabilities
    at phis[i].  Every phase comes from one Fourier table of the state
    read out in the basis pulse^dagger (`_phase_scan`); a state vector
    is taken as its density matrix, and an unnormalized state raises
    ValueError.  With a two-component superposition as input and the
    twisting pulse as `pulse`, the magnetization follows j cos(2j phi).
    """
    probs, _ = _phase_scan(state, np.asarray(pulse).conj().T, phis)
    return _normalized(probs)
