"""Projection measurements and equatorial and Ramsey scans."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mesospin import (
    DimensionError,
    Direction,
    PhaseScan,
    ProjectionDistribution,
    X_AXIS,
    basis_state,
    equatorial_direction,
    equatorial_phase_scan,
    expi_hermitian,
    kitten_state,
    magnetization,
    make_operators,
    parity,
    projection_probs,
    ramsey_scan,
    sample_counts,
    variance,
)


def test_projection_on_own_eigenbasis_is_deterministic():
    axis = Direction(1.1, -2.3)
    for m in (-8, 0, 5):
        dist = projection_probs(basis_state(8, m, axis), axis)
        expected = np.zeros(17)
        expected[m + 8] = 1.0
        assert np.allclose(dist.probabilities, expected, atol=1e-12)
        assert dist.j == 8.0


def test_projection_of_pole_state_along_x_is_binomial():
    dist = projection_probs(basis_state(8, -8), X_AXIS)
    binomial = np.array([math.comb(16, k) for k in range(17)]) / 2**16
    assert np.allclose(dist.probabilities, binomial, atol=1e-12)


def test_projection_accepts_density_matrix():
    psi = kitten_state(8)
    rho = np.outer(psi, psi.conj())
    for phi in (0.0, 0.1, 0.7):
        axis = equatorial_direction(phi)
        pv = projection_probs(psi, axis).probabilities
        pr = projection_probs(rho, axis).probabilities
        assert np.allclose(pv, pr, atol=1e-12)


def test_projection_rejects_unnormalized_state():
    with pytest.raises(ValueError):
        projection_probs(1.2 * basis_state(8, 0))


def test_distribution_validation():
    good = np.zeros(17)
    good[3] = 1.0
    bad_sum = good * 0.9
    with pytest.raises(ValueError):
        ProjectionDistribution(j=8.0, axis=Direction(0, 0), probabilities=bad_sum)
    negative = good.copy()
    negative[0] = -0.2
    negative[3] = 1.2
    with pytest.raises(ValueError):
        ProjectionDistribution(j=8.0, axis=Direction(0, 0), probabilities=negative)
    # NaN passes the sign and sum checks, so finiteness is checked first
    for bad in (np.full(17, np.nan), np.where(good > 0, np.inf, 0.0)):
        with pytest.raises(ValueError, match="non-finite"):
            ProjectionDistribution(j=8.0, axis=Direction(0, 0), probabilities=bad)
    # nine entries are the outcomes of j = 4, not of j = 4.5
    with pytest.raises(DimensionError, match="9 projection probabilities"):
        ProjectionDistribution(j=4.5, axis=Direction(0, 0), probabilities=good[:9])
    counts = np.zeros(17, dtype=int)
    counts[3] = 10
    with pytest.raises(ValueError):
        ProjectionDistribution(
            j=8.0, axis=Direction(0, 0), probabilities=good, counts=counts, atom_total=11
        )


def test_moments_match_hand_computed_distribution():
    p = np.zeros(17)
    p[8 + 2] = 0.25
    p[8 - 1] = 0.75
    dist = ProjectionDistribution(j=8.0, axis=Direction(0, 0), probabilities=p)
    assert parity(dist) == pytest.approx(-0.5, abs=1e-15)
    assert magnetization(dist) == pytest.approx(-0.25, abs=1e-15)
    assert variance(dist) == pytest.approx(1.6875, abs=1e-15)


def test_parity_requires_integer_spin():
    dist = projection_probs(basis_state(3.5, 0.5))
    with pytest.raises(ValueError):
        parity(dist)


def test_kitten_parity_oscillates_as_sin_2j_phi():
    phis = np.linspace(0.0, math.pi / 8, 40)
    vals = parity(equatorial_phase_scan(kitten_state(8), phis))
    assert np.max(np.abs(vals - np.sin(16 * phis))) < 1e-12


def test_coherent_parity_decays_as_cos_power_2j():
    phis = np.linspace(0.0, math.pi / 2, 31)
    coh = basis_state(8, 8, X_AXIS)
    vals = parity(equatorial_phase_scan(coh, phis))
    assert np.max(np.abs(vals - np.cos(phis) ** 16)) < 1e-12


def test_ramsey_magnetization_follows_j_cos_2j_phi():
    phis = np.linspace(0.0, math.pi / 8, 40)
    ops = make_operators(8.0)
    pulse = expi_hermitian(ops.jx @ ops.jx, math.pi / 2)
    probs = ramsey_scan(kitten_state(8), phis, pulse)
    mz = magnetization(PhaseScan(j=8.0, phis=phis, probabilities=probs))
    assert np.max(np.abs(mz - 8 * np.cos(16 * phis))) < 1e-12


def test_ramsey_scan_accepts_density_matrix():
    psi = kitten_state(8)
    rho = np.outer(psi, psi.conj())
    ops = make_operators(8.0)
    pulse = expi_hermitian(ops.jx @ ops.jx, math.pi / 2)
    pv = ramsey_scan(psi, [0.3], pulse)[0]
    pr = ramsey_scan(rho, [0.3], pulse)[0]
    assert np.allclose(pv, pr, atol=1e-12)


def test_sample_counts_reproducible_and_consistent():
    dist = projection_probs(kitten_state(8), equatorial_direction(0.05))
    n = 90000
    s1 = sample_counts(dist, n, 7)
    s2 = sample_counts(dist, n, 7)
    s3 = sample_counts(dist, n, 8)
    assert np.array_equal(s1.counts, s2.counts)
    assert not np.array_equal(s1.counts, s3.counts)
    assert s1.counts.sum() == n
    assert s1.atom_total == n
    assert np.allclose(s1.probabilities, s1.counts / n, atol=1e-15)
    sigma = np.sqrt(dist.probabilities * (1 - dist.probabilities) / n)
    assert np.all(np.abs(s1.probabilities - dist.probabilities) < 6 * sigma + 1e-3)


def test_sample_counts_requires_atoms():
    dist = projection_probs(basis_state(8, 0))
    with pytest.raises(ValueError):
        sample_counts(dist, 0, 1)


def test_equatorial_direction_geometry():
    d = equatorial_direction(0.7)
    assert d.theta == pytest.approx(math.pi / 2, abs=1e-15)
    assert np.allclose(d.vector, [math.cos(0.7), -math.sin(0.7), 0.0], atol=1e-12)
    state = basis_state(8, 8, d)
    assert projection_probs(state, d).probabilities[-1] == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    theta=st.floats(min_value=0.0, max_value=math.pi),
    phi=st.floats(min_value=-math.pi, max_value=math.pi),
)
def test_probabilities_are_a_distribution_for_any_axis(theta, phi):
    dist = projection_probs(kitten_state(8), Direction(theta, phi))
    p = dist.probabilities
    assert p.min() >= 0.0
    assert p.sum() == pytest.approx(1.0, abs=1e-9)
