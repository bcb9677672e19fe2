"""Equatorial and Ramsey scans and the Fisher sweep from one Fourier table,
held to the per-angle readouts of `phase_references`."""

import math

import numpy as np
import pytest

import phase_references as ref
from mesospin import (
    PhaseScan,
    equatorial_phase_scan,
    equatorial_scan,
    expi_hermitian,
    fisher_gain,
    fisher_information,
    hellinger_curve,
    kitten_state,
    magnetization,
    make_operators,
    parity,
    ramsey_scan,
    sample_scan,
    variance,
)
from mesospin.measurement import _phase_scan, _polar_rotation

SPINS = (4.0, 4.5, 8.0)
PHIS = np.linspace(-0.3, 3.5, 23)


def _random_state(j, kind, seed):
    rng = np.random.default_rng(seed)
    d = int(2 * j) + 1
    a = rng.normal(size=(d, d if kind == "mixed" else 1))
    a = a + 1j * rng.normal(size=a.shape)
    if kind == "vector":
        return a[:, 0] / np.linalg.norm(a)
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _random_pulse(j, seed):
    rng = np.random.default_rng(seed)
    d = int(2 * j) + 1
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return expi_hermitian(h + h.conj().T, 0.7)


def _states():
    for i, j in enumerate(SPINS):
        for kind in ("vector", "mixed"):
            yield pytest.param(j, _random_state(j, kind, 10 * i + len(kind)),
                               id=f"j{j:g}-{kind}")
    yield pytest.param(8.0, kitten_state(8.0), id="kitten")


def _same_distributions(got, want):
    """Rows of a scan against per-angle distributions of the same j."""
    assert got.shape == (len(want), int(2 * want[0].j) + 1)
    for g, w in zip(got, want):
        assert np.allclose(g, w.probabilities, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("j, state", _states())
def test_equatorial_scan_matches_per_angle_projection(j, state):
    _same_distributions(equatorial_scan(state, PHIS), ref.equatorial_scan(state, PHIS))


@pytest.mark.parametrize("j, state", _states())
def test_ramsey_scan_matches_rotated_loop(j, state):
    ops = make_operators(j)
    for pulse in (expi_hermitian(ops.jx @ ops.jx, math.pi / 2), _random_pulse(j, 3)):
        _same_distributions(ramsey_scan(state, PHIS, pulse),
                            ref.ramsey_scan(state, PHIS, pulse))


def _scans(j, state):
    """An exact equatorial scan, a Ramsey scan and a sampled scan of a state."""
    pulse = _random_pulse(j, 4)
    exact = equatorial_phase_scan(state, PHIS)
    yield exact
    yield PhaseScan(j=j, phis=PHIS, probabilities=ramsey_scan(state, PHIS, pulse))
    yield sample_scan(exact, 300, 9)


@pytest.mark.parametrize("j, state", _states())
def test_curves_match_per_row_references(j, state):
    for scan in _scans(j, state):
        rows = scan.probabilities
        first = rows[0]
        curves = [(magnetization, ref.magnetization), (variance, ref.variance)]
        if j % 1 == 0:
            curves.append((parity, ref.parity))
        for curve, per_row in curves:
            want = [per_row(p, j) for p in rows]
            assert np.allclose(curve(scan), want, rtol=0.0, atol=1e-15)
        want = [ref.hellinger_distance(p, first) for p in rows]
        assert np.allclose(hellinger_curve(scan), want, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("j, state", _states())
def test_fisher_information_and_gain_match_rotated_reference(j, state):
    for phi in PHIS:
        assert fisher_information(state, phi) == pytest.approx(
            ref.fisher_information(state, phi), rel=1e-12, abs=1e-12)
    assert fisher_gain(state) == pytest.approx(ref.fisher_gain(state),
                                               rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("j, state", _states())
def test_phase_derivative_matches_centred_difference(j, state):
    basis = _polar_rotation(int(2 * j), math.pi / 2)
    h = 1e-5
    _, dp = _phase_scan(state, basis, PHIS)
    p_plus, _ = _phase_scan(state, basis, PHIS + h)
    p_minus, _ = _phase_scan(state, basis, PHIS - h)
    # truncation h^2 |p'''| / 6 <= h^2 (2j)^3 / 6 stays below 1e-6
    assert np.allclose(dp, (p_plus - p_minus) / (2 * h), rtol=0.0, atol=1e-6)


@pytest.mark.parametrize("j", SPINS)
def test_scans_reject_unnormalized_states(j):
    pulse = _random_pulse(j, 5)
    for state in (1.2 * _random_state(j, "vector", 1), 1.2 * _random_state(j, "mixed", 2)):
        with pytest.raises(ValueError, match="not normalized"):
            equatorial_scan(state, PHIS)
        with pytest.raises(ValueError, match="not normalized"):
            ramsey_scan(state, PHIS, pulse)
