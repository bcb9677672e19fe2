"""Ensemble averaging over pulse imperfections and photon scattering."""

import math
from dataclasses import replace

import numpy as np
import pytest

from mesospin import (
    CouplingConfig,
    ImperfectionConfig,
    LightShiftParams,
    basis_state,
    coherence_ratio,
    ensemble_evolve,
    evolve,
    fidelity,
    intensity_for_coupling,
    kitten_state,
    light_shift_operator,
    magnetization,
    make_operators,
    mcwf_scattering,
    projection_probs,
    scattering_channels,
    scattering_probability,
    spin_of,
)
from mesospin import ensemble
from mesospin.config import default_config
from mesospin.ensemble import _calibrate_ensemble_rate, _pulse_duration

OMEGA = 2 * math.pi * 1.98e6
DETUNING = -2 * math.pi * 1.5e9
CFG = CouplingConfig(omega=OMEGA, detuning=DETUNING)
T_KITTEN = (math.pi / 2) / OMEGA
DOWN = basis_state(8, -8)
KITTEN = kitten_state(8)

# rho of ensemble_evolve(basis_state(4, -4)) at the default coupling and
# imperfections (leak, rise time and scattering on), 10 samples, seed 3,
# with the pulse duration solved to rounding; the earlier duration root,
# which missed the pulse area by 1.2e-7 relative, moved it by 2.1e-7
_PIN_DIAGONAL = [
    0.4727443132659508, 0.014056130589692479, 0.011207589918103255,
    0.0004753017054741825, 0.0031109849586138127, 0.0018627587100716676,
    0.015287275527940201, 0.013635524572987426, 0.4676201207511663,
]
_PIN_UPPER = [  # row-major, above the diagonal
    (0.0018212121910155651, 0.0016997076715895667),
    (-0.014809707109984756, -0.03463499268771821),
    (-0.001584738288453464, -0.0002561608228703378),
    (-0.0004068547872087403, -8.122545004559645e-05),
    (0.0019405294255855244, 4.686085214279392e-05),
    (-0.05428987960129841, 0.03093914828592806),
    (-0.00106014216788557, -0.0007236641134291758),
    (0.03422817975367658, -0.468889392087056),
    (-0.00013761172515256546, -3.9645736454806376e-05),
    (-0.0002901625962180278, -0.0020909192056657922),
    (-2.5376537967493153e-05, -1.3281600956306715e-06),
    (-0.0030557674713084636, 0.0010728804741713719),
    (-4.271273609742369e-05, 0.0003071059226484477),
    (-0.00010919516357873121, -0.013817396783081089),
    (-0.001622938207968858, -0.0019834821539539116),
    (9.03493597113352e-05, -9.591861444643945e-05),
    (-0.00444599666364322, -0.0017691605541686074),
    (-5.003790596877843e-05, 0.0001271394826168548),
    (-0.002320146201396405, -0.01221606758525303),
    (5.7126223950888096e-05, -0.0001290460176149035),
    (0.03309096162114893, 0.017263490605064696),
    (-1.4076811125640667e-05, -1.010407134409106e-06),
    (-0.00017393746314584382, -0.0008425048720355912),
    (0.00014248528055457903, -0.00014905821808122052),
    (0.0020222994822305935, 0.0002700620115566486),
    (0.00014973210408359414, 0.0015835061984328651),
    (-3.83593603249168e-06, 1.09792983051014e-05),
    (0.0026508838398081255, 0.003325014735377496),
    (3.607320544741133e-06, 4.36038286912504e-05),
    (7.038104126891895e-05, 0.0004408277012482827),
    (-0.00021055414297307682, 0.00010717377101754712),
    (-0.0010282480380181126, 0.0028457179529058733),
    (0.00010112820742684255, -0.0019088178040716913),
    (0.0001056056352765547, 0.00011451049549740568),
    (-0.03474825896831668, 0.05140198223430308),
    (0.0006939563216481168, 0.0010356720527704567),
]


def _light_params():
    intensity = intensity_for_coupling(OMEGA, 0.85e6, 626e-9, DETUNING, 8.0)
    return LightShiftParams(
        linewidth=0.85e6, resonance_wavelength=626e-9, detuning=DETUNING,
        intensity=intensity, polarization=(1.0, 0.0, 0.0),
    )


def test_imperfection_config_validation():
    with pytest.raises(ValueError):
        ImperfectionConfig(intensity_rms_fraction=1.5)
    with pytest.raises(ValueError):
        ImperfectionConfig(pulse_rise_time=-1e-9)
    with pytest.raises(ValueError):
        ImperfectionConfig(sampling="uniform")
    with pytest.raises(ValueError):
        ImperfectionConfig(ensemble_samples=0)
    with pytest.raises(ValueError):
        ImperfectionConfig(field_axis_components=(0.0, 0.0, 0.0))
    imp = ImperfectionConfig(field_axis_components=(0.09, -0.11, 0.98))
    assert np.linalg.norm(imp.field_axis) == pytest.approx(1.0, abs=1e-12)


def test_no_imperfections_reproduces_unitary_kitten():
    imp = ImperfectionConfig(ensemble_samples=1)
    rho = ensemble_evolve(DOWN, CFG, imp, T_KITTEN, seed=0)
    assert fidelity(rho, KITTEN) > 1 - 1e-10
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)


def test_intensity_spread_degrades_revival():
    imp = ImperfectionConfig(intensity_rms_fraction=0.06, ensemble_samples=200)
    rho = ensemble_evolve(DOWN, CFG, imp, math.pi / OMEGA, seed=0)
    mz = magnetization(projection_probs(rho))
    assert 6.3 < mz < 7.5
    cr = coherence_ratio(ensemble_evolve(DOWN, CFG, imp, T_KITTEN, seed=0))
    assert cr < 1.0


def test_ensemble_is_deterministic_in_the_seed():
    imp = ImperfectionConfig(intensity_rms_fraction=0.06, ensemble_samples=50)
    a = ensemble_evolve(DOWN, CFG, imp, T_KITTEN, seed=3)
    b = ensemble_evolve(DOWN, CFG, imp, T_KITTEN, seed=3)
    c = ensemble_evolve(DOWN, CFG, imp, T_KITTEN, seed=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_population_leak_mixes_in_orthogonal_component():
    imp = ImperfectionConfig(initial_leak_fraction=0.03, ensemble_samples=1)
    rho = ensemble_evolve(DOWN, CFG, imp, T_KITTEN, seed=0)
    assert fidelity(rho, KITTEN) == pytest.approx(0.97, abs=1e-6)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(rho).min() > -1e-12


def test_finite_rise_time_with_area_recalibration_is_benign():
    imp = ImperfectionConfig(pulse_rise_time=50e-9, ensemble_samples=1)
    rho = ensemble_evolve(DOWN, CFG, imp, T_KITTEN, seed=0)
    assert fidelity(rho, KITTEN) > 1 - 1e-6


def test_pulse_duration_preserves_integrated_area():
    area, rise = 1e-7, 5e-8
    total = _pulse_duration(area, rise)
    assert total > area
    assert total - rise * (1 - math.exp(-total / rise)) == pytest.approx(area, abs=1e-12)
    assert _pulse_duration(area, 0.0) == area
    # pulse areas of 50 ns - 1 us (the default coupling's is 126 ns) and
    # rise times of 1 - 200 ns meet the area to rounding
    for area in (5e-8, 1e-7, T_KITTEN, 2.5e-7, 5e-7, 1e-6):
        for rise in (1e-9, 1e-8, 2e-8, 5e-8, 1e-7, 2e-7):
            total = _pulse_duration(area, rise)
            gap = total + rise * math.expm1(-total / rise) - area
            assert abs(gap) <= 1e-14 * area, (area, rise)


def test_full_imperfection_set_revival_window():
    cfg = CouplingConfig(omega=OMEGA, omega_larmor=2 * math.pi * 31.7e3, detuning=DETUNING)
    imp = ImperfectionConfig(
        intensity_rms_fraction=0.06, stokes_s3=1e-3,
        field_axis_components=(0.09, -0.11, 0.98), initial_leak_fraction=0.03,
        pulse_rise_time=50e-9, scattering_probability=0.007, ensemble_samples=120,
    )
    rho = ensemble_evolve(DOWN, cfg, imp, math.pi / OMEGA, seed=0)
    mz = magnetization(projection_probs(rho))
    assert 5.8 < mz < 7.4


def test_scattering_channel_sum_matches_light_shift():
    p = _light_params()
    channels, kmat = scattering_channels(8.0, p.polarization)
    h = light_shift_operator(p, make_operators(8.0))
    scale = h[0, 0].real / kmat[0, 0].real
    assert np.max(np.abs(h - scale * kmat)) < 1e-12 * np.max(np.abs(h))
    assert np.allclose(kmat, kmat.conj().T, atol=1e-14)
    assert np.linalg.eigvalsh(kmat).min() > -1e-12
    assert len(channels) == 3


def test_scattering_probability_matches_perturbative_integral():
    p = _light_params()
    got = scattering_probability(DOWN, p, T_KITTEN)
    # first order: integrate the jump rate along the unperturbed path
    ops = make_operators(8.0)
    h = light_shift_operator(p, ops)
    rate = (p.linewidth / p.detuning) * h
    times = np.linspace(0.0, T_KITTEN, 201)
    expect = [
        float(np.real(np.vdot(psi, rate @ psi)))
        for psi in (evolve(DOWN, h, t) for t in times)
    ]
    estimate = 1.0 - math.exp(-np.trapezoid(expect, times))
    assert 0.0 < got < 0.05
    assert got == pytest.approx(estimate, rel=0.01)


def test_mcwf_zero_target_reproduces_unitary_evolution():
    p = _light_params()
    rho = mcwf_scattering(DOWN, p, T_KITTEN, 3, 0, target_probability=0.0)
    psi = evolve(DOWN, light_shift_operator(p, make_operators(8.0)), T_KITTEN)
    assert fidelity(rho, psi) > 1 - 1e-10


def test_mcwf_small_target_stays_close_to_kitten():
    p = _light_params()
    a = mcwf_scattering(DOWN, p, T_KITTEN, 40, 0, target_probability=0.007)
    b = mcwf_scattering(DOWN, p, T_KITTEN, 40, 0, target_probability=0.007)
    assert np.array_equal(a, b)
    assert np.trace(a).real == pytest.approx(1.0, abs=1e-9)
    assert fidelity(a, KITTEN) > 0.99


def test_mcwf_validation():
    p = _light_params()
    with pytest.raises(ValueError):
        mcwf_scattering(DOWN, p, T_KITTEN, 0, 0)
    with pytest.raises(ValueError):
        mcwf_scattering(DOWN, p, T_KITTEN, 2, 0, target_probability=1.0)


def _default_physics(samples=10):
    base = default_config()
    return base.coupling, replace(base.imperfections, ensemble_samples=samples)


def _rate(initial, coupling, imp, t):
    return _calibrate_ensemble_rate(initial, coupling, imp, t,
                                    make_operators(spin_of(initial)))


def test_stepped_ensemble_matches_pinned_density():
    coupling, imp = _default_physics()
    down = basis_state(4, -4)
    rho = ensemble_evolve(down, coupling, imp, T_KITTEN, seed=3)
    expect = np.diag(np.array(_PIN_DIAGONAL, dtype=complex))
    expect[np.triu_indices(9, 1)] = [complex(re, im) for re, im in _PIN_UPPER]
    expect += np.triu(expect, 1).conj().T
    assert np.max(np.abs(rho - expect)) < 1e-12


def test_calibrated_rate_ignores_samples_seed_and_sampling(monkeypatch):
    coupling, imp = _default_physics()
    rate = _rate(DOWN, coupling, imp, T_KITTEN)
    assert rate > 0
    for other in (replace(imp, ensemble_samples=1),
                  replace(imp, sampling="gaussian"),
                  replace(imp, intensity_rms_fraction=0.0, stokes_s3=0.0),
                  replace(imp, cloud_sigma=2e-5, initial_leak_fraction=0.0)):
        assert _rate(DOWN, coupling, other, T_KITTEN) == rate
    # the seed enters only the samples, never the calibration
    used = []
    calibrate = ensemble._calibrate_ensemble_rate

    def recording(*args):
        used.append(calibrate(*args))
        return used[-1]

    monkeypatch.setattr(ensemble, "_calibrate_ensemble_rate", recording)
    for seed in (9, 10):
        f, eps = ensemble._imperfection_draws(imp, seed)
        ensemble._ensemble_density(DOWN, coupling, imp, T_KITTEN, f, eps, seed,
                                   make_operators(8.0))
    assert used == [rate, rate]


def test_calibrated_rate_follows_the_physics():
    coupling, imp = _default_physics()
    rate = _rate(DOWN, coupling, imp, T_KITTEN)
    for changed_coupling, changed, t in (
            (coupling, replace(imp, scattering_probability=0.014), T_KITTEN),
            (coupling, replace(imp, pulse_rise_time=100e-9), T_KITTEN),
            (coupling, imp, 1.5 * T_KITTEN),
            (replace(coupling, omega=1.1 * coupling.omega), imp, T_KITTEN),
            (replace(coupling, omega_larmor=0.0), imp, T_KITTEN),
            (coupling, replace(imp, field_axis_components=(0.0, 0.6, 0.8)), T_KITTEN),
            (replace(coupling, include_jx4=not coupling.include_jx4), imp, T_KITTEN)):
        other = _rate(DOWN, changed_coupling, changed, t)
        assert other != pytest.approx(rate, rel=1e-9)
    # twice the probability needs about twice the rate
    doubled = _rate(DOWN, coupling, replace(imp, scattering_probability=0.014), T_KITTEN)
    assert doubled == pytest.approx(2 * rate, rel=0.02)


# 0.5: most samples jump; 1 - 1e-7: about 16 jumps each, so the
# channel-pick draws are refilled from the replenishment substream
@pytest.mark.parametrize("samples, probability", [(1, 0.5), (3, 0.5), (3, 1 - 1e-7)])
def test_batched_starters_match_starters_stepped_alone(samples, probability):
    # reference: each starter stepped on its own with its own copy of
    # the draws.  BLAS rounds a one-row product unlike a stack of rows,
    # so the batch must keep the starters' products apart to match.
    coupling, imp = _default_physics(samples)
    imp = replace(imp, scattering_probability=probability)
    ops = make_operators(8.0)
    f, eps = ensemble._imperfection_draws(imp, 2)
    pulse = ensemble._stepped_pulse(coupling, imp, ops, f, eps, T_KITTEN)
    rate = _calibrate_ensemble_rate(DOWN, coupling, imp, T_KITTEN, ops)
    decay = (rate * f, ensemble._jump_basis(16))
    draws = ensemble._jump_draws(2, samples, pulse.env.size)
    expect = np.zeros((17, 17), dtype=complex)
    for weight, start in ((1.0 - imp.initial_leak_fraction, DOWN),
                          (imp.initial_leak_fraction, basis_state(8, -7))):
        psi = np.repeat(start[None, None], samples, axis=1)
        psi = ensemble._run_steps(psi, pulse, decay, (draws[None].copy(), 2))[0]
        norms = np.real(np.einsum("ni,ni->n", psi, psi.conj()))
        psi = psi / np.sqrt(norms)[:, None]
        expect += weight * np.einsum("ni,nk->ik", psi, psi.conj())
    rho = ensemble_evolve(DOWN, coupling, imp, T_KITTEN, seed=2)
    assert np.array_equal(rho, expect / samples)
