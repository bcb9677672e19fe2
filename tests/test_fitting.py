"""Damped least squares, sinusoid fits, and decay fits."""

import math

import numpy as np
import pytest

from mesospin import damped_least_squares, fit_decay, fit_sinusoid


def test_damped_least_squares_on_rosenbrock_residual():
    def residual(p):
        return np.array([10.0 * (p[1] - p[0] ** 2), 1.0 - p[0]])

    def jacobian(p):
        return np.array([[-20.0 * p[0], 10.0], [-1.0, 0.0]])

    res = damped_least_squares(residual, jacobian, [-1.2, 1.0])
    assert res.converged
    assert np.allclose(res.params, [1.0, 1.0], atol=1e-6)
    hist = np.array(res.objective_history)
    assert np.all(np.diff(hist) <= 0.0)
    assert hist[-1] < 1e-12


def test_stall_at_the_rounding_floor_is_converged():
    # near-noise-free sinusoids stall after a few steps with a residual
    # that is small but nonzero; the stall is the optimum
    x = np.linspace(0.0, math.pi / 8, 65)
    for seed in range(40):
        rng = np.random.default_rng(seed)
        for noise in (1e-5, 1e-4, 1e-3):
            y = 0.9 * np.sin(16 * x + 0.3) + 0.05 + noise * rng.standard_normal(x.size)
            fit = fit_sinusoid(x, y, 16.0)
            assert fit.converged, (seed, noise)
            assert fit.amplitude == pytest.approx(0.9, abs=10 * noise)


def test_stall_with_a_large_gradient_stays_unconverged():
    # a wrong-signed Jacobian makes every damped step go uphill, so the
    # loop stops at once, far from the optimum
    def residual(p):
        return np.array([10.0 * (p[1] - p[0] ** 2), 1.0 - p[0]])

    def jacobian(p):
        return -np.array([[-20.0 * p[0], 10.0], [-1.0, 0.0]])

    res = damped_least_squares(residual, jacobian, [-1.2, 1.0])
    assert not res.converged
    assert len(res.objective_history) == 1


def test_sinusoid_exact_recovery():
    x = np.linspace(0.0, 2 * math.pi, 200)
    y = 2.5 * np.sin(16 * x + 0.4) - 1.2
    fit = fit_sinusoid(x, y, 16.0)
    assert fit.converged
    assert fit.amplitude == pytest.approx(2.5, abs=1e-9)
    assert fit.frequency == pytest.approx(16.0, abs=1e-9)
    assert fit.phase == pytest.approx(0.4, abs=1e-9)
    assert fit.offset == pytest.approx(-1.2, abs=1e-9)
    assert fit.period == pytest.approx(2 * math.pi / 16, abs=1e-9)
    assert np.max(np.abs(fit(x) - y)) < 1e-8
    assert fit.amplitude_error < 1e-6
    hist = np.array(fit.objective_history)
    assert np.all(np.diff(hist) <= 0.0)


def test_sinusoid_recovers_from_detuned_guess():
    x = np.linspace(0.0, 2 * math.pi, 300)
    y = 1.5 * np.sin(16 * x - 0.9) + 0.3
    fit = fit_sinusoid(x, y, 15.7)
    assert fit.frequency == pytest.approx(16.0, rel=1e-6)
    assert fit.amplitude == pytest.approx(1.5, rel=1e-6)


def test_sinusoid_amplitude_is_non_negative():
    x = np.linspace(0.0, 2 * math.pi, 200)
    y = -2.0 * np.sin(16 * x)
    fit = fit_sinusoid(x, y, 16.0)
    assert fit.amplitude == pytest.approx(2.0, abs=1e-9)
    assert abs(fit.phase) == pytest.approx(math.pi, abs=1e-6)


def test_decay_exact_recovery_both_models():
    t = np.linspace(0.0, 5e-4, 120)
    for model, curve in (
        ("exponential", 7.5 * np.exp(-t / 1e-4)),
        ("gaussian", 7.5 * np.exp(-((t / 1e-4) ** 2))),
    ):
        fit = fit_decay(t, curve, model)
        assert fit.converged
        assert fit.model == model
        assert fit.amplitude == pytest.approx(7.5, rel=1e-9)
        assert fit.tau == pytest.approx(1e-4, rel=1e-9)
        assert fit(1e-4) == pytest.approx(7.5 / math.e, rel=1e-9)
        assert np.max(np.abs(fit(t) - curve)) < 1e-8


def test_decay_rejects_unknown_model():
    with pytest.raises(ValueError):
        fit_decay([0.0, 1.0], [1.0, 0.5], model="lorentzian")


def test_decay_tolerates_small_noise():
    rng = np.random.default_rng(11)
    t = np.linspace(0.0, 5.0, 200)
    y = 3.0 * np.exp(-t / 0.8) + 1e-3 * rng.standard_normal(t.size)
    fit = fit_decay(t, y)
    assert fit.tau == pytest.approx(0.8, rel=0.01)
    assert fit.amplitude == pytest.approx(3.0, rel=0.01)
