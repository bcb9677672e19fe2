"""Field-noise models, coherence scaling, and dephasing channels."""

import math

import numpy as np
import pytest

from mesospin import (
    DecayCurve,
    NoiseModel,
    coherence_decay,
    coherence_ratio,
    coherence_time,
    gyromagnetic_ratio,
    kitten_dephase,
    kitten_state,
    ramsey_simulate,
    scaling_identity_check,
)
from mesospin.core import m_values, spin_of
from mesospin.rng import substream

TAU0 = 740e-6
STATIC = NoiseModel.static_from_time(TAU0)
MARKOV = NoiseModel.markovian_from_time(TAU0)


def test_gyromagnetic_ratio_definition():
    # CODATA 2022 Bohr magneton (J/T) and the exact SI h/(2 pi) (J s)
    mu_b = 9.2740100657e-24
    hbar = 6.62607015e-34 / (2 * math.pi)
    assert gyromagnetic_ratio() == pytest.approx(1.2416 * mu_b / hbar, rel=1e-12)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(kind="pink", rms_field=1e-8)
    with pytest.raises(ValueError):
        NoiseModel.static(0.0)
    with pytest.raises(ValueError):
        NoiseModel.markovian(-1e-12)


def test_one_over_e_time_round_trips():
    assert coherence_time(STATIC) == pytest.approx(TAU0, rel=1e-12)
    assert coherence_time(MARKOV) == pytest.approx(TAU0, rel=1e-12)
    gamma = gyromagnetic_ratio()
    assert STATIC.rms_field == pytest.approx(math.sqrt(2) / (gamma * TAU0), rel=1e-12)


def test_order_scaling_of_coherence_times():
    assert coherence_time(STATIC) / coherence_time(STATIC, 16) == pytest.approx(
        16.0, rel=1e-12
    )
    assert coherence_time(MARKOV) / coherence_time(MARKOV, 16) == pytest.approx(
        256.0, rel=1e-12
    )


def test_decay_factor_closed_forms():
    t = 1e-4
    gamma_b = STATIC.gamma * STATIC.rms_field
    assert coherence_decay(1, STATIC, t) == pytest.approx(
        math.exp(-0.5 * (gamma_b * t) ** 2), rel=1e-12
    )
    assert coherence_decay(16, STATIC, TAU0 / 16) == pytest.approx(
        1 / math.e, rel=1e-12
    )
    assert coherence_decay(1, MARKOV, TAU0) == pytest.approx(1 / math.e, rel=1e-12)
    assert coherence_decay(16, MARKOV, TAU0 / 256) == pytest.approx(1 / math.e, rel=1e-12)
    with pytest.raises(ValueError):
        coherence_decay(0, STATIC, t)


def test_time_rescaling_identity_analytic_and_sampled():
    times = np.linspace(1e-6, 1.5e-4, 7)
    report = scaling_identity_check(STATIC, times, order=16, runs=100000, seed=0)
    assert report.analytic_difference <= 1e-12
    assert report.monte_carlo_z < 3.0
    assert report.passed
    assert report.runs == 100000


def test_time_rescaling_identity_rejects_markovian():
    with pytest.raises(ValueError):
        scaling_identity_check(MARKOV, np.linspace(1e-6, 1e-4, 5))


def test_ramsey_envelope_recovers_coherence_time():
    times = np.linspace(0.0, 2e-3, 60)
    curve = ramsey_simulate(STATIC, times, 3000, 2)
    assert curve.model == "gaussian"
    assert curve.tau == pytest.approx(TAU0, rel=0.1)
    assert curve.amplitude == pytest.approx(8.0, rel=0.05)
    again = ramsey_simulate(STATIC, times, 3000, 2)
    assert np.array_equal(curve.values, again.values)


def test_ramsey_extremal_coherence_dies_sixteen_times_faster():
    times = np.linspace(0.0, 1.5e-4, 50)
    curve = ramsey_simulate(STATIC, times, 3000, 4, coherence_order=16)
    assert curve.tau == pytest.approx(TAU0 / 16, rel=0.1)


def test_kitten_dephase_exact_channel():
    rho = np.outer(kitten_state(8), kitten_state(8).conj())
    out = kitten_dephase(rho, STATIC, 70e-6)
    assert np.allclose(np.diag(out), np.diag(rho), atol=1e-15)
    assert np.allclose(out, out.conj().T, atol=1e-15)
    want = coherence_decay(16, STATIC, 70e-6)
    assert coherence_ratio(out) == pytest.approx(want, rel=1e-12)


def _sampled_dephase(rho, model, t, runs, seed):
    """Monte-Carlo average of e^{-i delta_phi Jz} rho e^{+i delta_phi Jz}
    over `runs` drawn precession angles, the reference that the closed
    form of `kitten_dephase` is held to."""
    if model.kind == "static-gaussian":
        sigma = model.gamma * model.rms_field * t
    else:
        sigma = model.gamma * math.sqrt(2.0 * model.diffusion * t)
    draws = substream(seed).normal(0.0, sigma, runs)
    # per draw, U = e^{-i delta_phi Jz} is diagonal, so U rho U^dag is
    # rho * outer(u, u*) with u its diagonal
    u = np.exp(-1j * draws[:, None] * m_values(spin_of(rho))[None, :])
    return rho * (u.T @ u.conj()) / runs


def test_kitten_dephase_sampled_matches_analytic():
    rho = np.outer(kitten_state(8), kitten_state(8).conj())
    t = 40e-6
    exact = kitten_dephase(rho, STATIC, t)
    sampled = _sampled_dephase(rho, STATIC, t, runs=20000, seed=3)
    assert np.allclose(np.diag(sampled), np.diag(rho), atol=1e-15)
    assert abs(sampled[0, 16] - exact[0, 16]) < 0.02
    with pytest.raises(ValueError):
        kitten_dephase(kitten_state(8), STATIC, t)


def test_decay_curve_validation():
    times = np.linspace(0.0, 1e-3, 20)
    values = 8 * np.exp(-((times / TAU0) ** 2))
    DecayCurve(times=times, values=values, tau=TAU0, model="gaussian", amplitude=8.0)
    with pytest.raises(ValueError):
        DecayCurve(times=times, values=values[:-1], tau=TAU0, model="gaussian", amplitude=8.0)
    with pytest.raises(ValueError):
        DecayCurve(times=times, values=values - 2.0, tau=TAU0, model="gaussian", amplitude=8.0)
    with pytest.raises(ValueError):
        DecayCurve(times=times, values=values, tau=0.0, model="gaussian", amplitude=8.0)
