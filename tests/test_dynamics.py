"""Twisting dynamics, closed forms, and the light-shift operator."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mesospin import (
    CouplingConfig,
    X_AXIS,
    analytic_mz,
    analytic_varz,
    basis_state,
    collapse_time,
    evolve,
    expectation,
    fidelity,
    gaussian_mz,
    gaussian_varz,
    hamiltonian,
    kitten_state,
    make_operators,
    oat_closed_form,
    projection_probs,
    revival_state,
    spin_variance,
)
from light_shift import (
    LightShiftParams,
    coupling_rate,
    elliptical_polarization,
    intensity_for_coupling,
    light_shift_operator,
)

OMEGA = 2 * math.pi * 1.98e6
CFG = CouplingConfig(omega=OMEGA)


GAMMA_OPT = 0.85e6
LAMBDA0 = 626e-9
DETUNING = -2 * math.pi * 1.5e9


def _light(omega, j=8.0, epsilon=0.0):
    intensity = intensity_for_coupling(omega, GAMMA_OPT, LAMBDA0, DETUNING, j)
    return LightShiftParams(
        linewidth=GAMMA_OPT, resonance_wavelength=LAMBDA0, detuning=DETUNING,
        intensity=intensity, polarization=elliptical_polarization(epsilon),
    )


def _twisted(j, omega_t):
    """State after pure-twisting evolution to the given pulse area."""
    ops = make_operators(j)
    return evolve(basis_state(j, -j), ops.jx @ ops.jx, omega_t)


def test_numeric_evolution_matches_analytic_moments():
    # the closed forms for m_z and Delta Jz^2 are exact for pure twisting
    j = 8.0
    ops = make_operators(j)
    worst_mz = worst_var = 0.0
    for g in np.linspace(0.0, 2 * math.pi, 200):
        psi = _twisted(j, g)
        worst_mz = max(worst_mz, abs(expectation(ops.jz, psi) - analytic_mz(j, g)))
        worst_var = max(worst_var, abs(spin_variance(ops.jz, psi) - analytic_varz(j, g)))
    assert worst_mz < 1e-9
    assert worst_var < 1e-9


def test_analytic_moments_at_markers():
    assert analytic_mz(8, 0.0) == pytest.approx(-8.0, abs=1e-12)
    assert analytic_mz(8, math.pi) == pytest.approx(8.0, abs=1e-12)
    assert analytic_mz(8, 2 * math.pi) == pytest.approx(-8.0, abs=1e-12)
    assert analytic_varz(8, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_kitten_state_from_evolution():
    j = 8.0
    h = hamiltonian(CFG, make_operators(j))
    psi = evolve(basis_state(j, -j), h, (math.pi / 2) / OMEGA)
    assert fidelity(kitten_state(j), psi) > 1 - 1e-10


def test_revival_states_from_evolution():
    j = 8.0
    h = hamiltonian(CFG, make_operators(j))
    for n in range(1, 9):
        psi = evolve(basis_state(j, -j), h, n * (math.pi / 2) / OMEGA)
        assert fidelity(revival_state(j, n), psi) > 1 - 1e-10, n


def test_revival_state_structure():
    j = 8.0
    k = revival_state(j, 1)
    np.testing.assert_allclose(k, kitten_state(j), atol=1e-15)
    assert abs(k[0]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert abs(k[-1]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    # full revivals return to a pole
    np.testing.assert_allclose(np.abs(revival_state(j, 2)), np.abs(basis_state(j, j)), atol=1e-12)
    np.testing.assert_allclose(np.abs(revival_state(j, 4)), np.abs(basis_state(j, -j)), atol=1e-12)


def test_revival_state_requires_integer_spin():
    with pytest.raises(ValueError):
        revival_state(7.5, 1)


def test_oat_closed_form_matches_evolution():
    j = 8.0
    for g in (0.1, 0.5, math.pi / 2, 1.9, math.pi):
        psi = _twisted(j, g)
        np.testing.assert_allclose(oat_closed_form(j, g), psi, atol=1e-10)


def test_twisting_conserves_m_parity():
    # Jx^2 only couples m to m+-2, so even and odd sectors never mix
    j = 8.0
    psi = _twisted(j, 0.77)
    odd = np.abs(psi[1::2])
    assert np.max(odd) < 1e-14


@given(st.floats(min_value=0.0, max_value=2 * math.pi))
@settings(max_examples=25, deadline=None)
def test_twisted_z_distribution_stays_even(g):
    probs = projection_probs(_twisted(8.0, g)).probabilities
    assert np.max(probs[1::2]) < 1e-12


def test_gaussian_approximation_early_times():
    # short-time collapse: Gaussian envelope tracks the exact curve
    j = 8.0
    for g in np.linspace(0.0, 0.3 * math.pi, 50):
        assert abs(gaussian_mz(j, g) - analytic_mz(j, g)) < 0.05 * j


def test_gaussian_variance_plateau_limit():
    j = 8.0
    assert gaussian_varz(j, math.pi / 2) == pytest.approx(j * (j + 0.5) / 2, abs=1e-6)
    assert j * (j + 0.5) / 2 == 34.0


def test_collapse_time():
    assert collapse_time(8.0, OMEGA) == pytest.approx(1.0 / (4 * OMEGA), rel=1e-12)
    # the collapse time marks where the Gaussian envelope hits 1/sqrt(e)
    j = 8.0
    g = OMEGA * collapse_time(j, OMEGA)
    assert gaussian_mz(j, g) == pytest.approx(-j * math.exp(-0.5), rel=1e-12)


def test_hamiltonian_pure_twisting_matrix():
    ops = make_operators(8)
    h = hamiltonian(CouplingConfig(omega=2.0), ops)
    np.testing.assert_allclose(h, 2.0 * ops.jx @ ops.jx, atol=1e-12)


def test_hamiltonian_with_field_term():
    ops = make_operators(8)
    cfg = CouplingConfig(omega=2.0, omega_larmor=0.5)
    h = hamiltonian(cfg, ops)
    np.testing.assert_allclose(h, 2.0 * ops.jx @ ops.jx + 0.5 * ops.jz, atol=1e-12)


def test_evolution_is_unitary_family():
    h = hamiltonian(CFG, make_operators(8))
    psi = evolve(basis_state(8, -8), h, 37e-9)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)


def test_light_shift_reproduces_twisting_coupling():
    # V/hbar for linear x polarization is a scalar offset plus -omega Jx^2
    ops = make_operators(8)
    p = _light(OMEGA)
    assert coupling_rate(p, 8.0) == pytest.approx(OMEGA, rel=1e-12)
    h = light_shift_operator(p, ops)
    coeff = (h[2, 0] / (ops.jx @ ops.jx)[2, 0]).real
    diag = h - coeff * ops.jx @ ops.jx
    np.testing.assert_allclose(diag, diag[0, 0] * np.eye(17), atol=abs(coeff) * 1e-9)
    assert coeff == pytest.approx(OMEGA, rel=1e-9)


def test_elliptical_light_shift_structure():
    # (Jx^2 + eps^2 Jy^2)/(1+eps^2) - (2J+3) eps/(1+eps^2) Jz, in omega units
    j, eps = 8.0, 3e-3
    ops = make_operators(j)
    p = _light(OMEGA, j=j, epsilon=eps)
    h = light_shift_operator(p, ops)
    pre = 1.0 / (1.0 + eps * eps)
    expected = OMEGA * (
        pre * (ops.jx @ ops.jx + eps * eps * ops.jy @ ops.jy)
        - (2 * j + 3) * eps * pre * ops.jz
    )
    body = h - np.trace(h - expected).real / 17 * np.eye(17)
    np.testing.assert_allclose(body, expected, atol=OMEGA * 1e-9)


def test_coupling_sign_follows_detuning():
    # red detuning gives a positive twisting rate; blue flips it
    p = _light(OMEGA)
    assert p.detuning < 0
    blue = replace(p, detuning=-p.detuning)
    assert coupling_rate(blue, 8.0) == pytest.approx(-OMEGA, rel=1e-12)
    with pytest.raises(ValueError):
        intensity_for_coupling(OMEGA, GAMMA_OPT, LAMBDA0, -DETUNING, 8.0)


def test_kitten_is_equal_pole_superposition():
    k = kitten_state(8.0)
    probs = projection_probs(k).probabilities
    assert probs[0] == pytest.approx(0.5, abs=1e-12)
    assert probs[-1] == pytest.approx(0.5, abs=1e-12)
    assert abs(k[0] / k[-1] - np.exp(-1j * math.pi / 2)) < 1e-12


def test_x_polarized_coherent_state_under_twisting_phase():
    # |J>_x is a Jx^2 eigenstate: twisting only adds a global phase
    x = basis_state(8, 8, X_AXIS)
    out = evolve(x, hamiltonian(CFG, make_operators(8)), 1e-7)
    assert abs(abs(np.vdot(x, out)) - 1.0) < 1e-10
