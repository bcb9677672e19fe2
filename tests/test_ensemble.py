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
    fidelity,
    intensity_for_coupling,
    kitten_state,
    light_shift_operator,
    magnetization,
    make_operators,
    projection_probs,
    scattering_channels,
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
# with the pulse duration solved to rounding, on steps of PULSE_STEP_S
# that take the exact envelope means
_PIN_DIAGONAL = [
    0.47274244880474187, 0.014055951730828934, 0.011209280539731708,
    0.00047538599870190475, 0.0031116721221637637, 0.0018630245466109464,
    0.015288713536671494, 0.013635340959485362, 0.46761818176106423,
]
_PIN_UPPER = [  # row-major, above the diagonal
    (0.0018211655782435108, 0.0016986441956313753),
    (-0.014816986806771106, -0.034646122857465884),
    (-0.001584729882798102, -0.0002562278125669978),
    (-0.00040789185208521767, -7.694334390591043e-05),
    (0.0019404644200102254, 4.675332887985818e-05),
    (-0.054299606439837125, 0.03093592258906307),
    (-0.0010591143214720156, -0.0007237727197868808),
    (0.03422877746617122, -0.4688874400179316),
    (-0.0001376055827747339, -3.970540717006764e-05),
    (-0.0002904881851712251, -0.0020912751666835134),
    (-2.5358411907881935e-05, -1.3247205097324355e-06),
    (-0.003056334621762675, 0.0010728089422778057),
    (-4.2782660761143925e-05, 0.00030699521683816175),
    (-0.00010909104710132953, -0.013817224192240754),
    (-0.001621814679009668, -0.0019833605032163987),
    (9.038537601866744e-05, -9.596344067859441e-05),
    (-0.004446713830621994, -0.0017695600611993144),
    (-5.005466249203486e-05, 0.00012717113679973778),
    (-0.002319625529042558, -0.012217994204781585),
    (5.7183527458011985e-05, -0.00012898988931941475),
    (0.033101473855623384, 0.017271772222281608),
    (-1.4073467474761428e-05, -1.0320638378570091e-06),
    (-0.00017385590752834847, -0.0008426467886695984),
    (0.00014252693978759556, -0.00014905512654561724),
    (0.002022643408119131, 0.00027040171173156727),
    (0.0001497982405495868, 0.001583512460050866),
    (-3.842112262165555e-06, 1.096840963622519e-05),
    (0.0026516642123124374, 0.003325702725408838),
    (3.601492053139136e-06, 4.362593884185129e-05),
    (6.599301401329834e-05, 0.00044141533337440644),
    (-0.00021059893879314058, 0.00010713805905150197),
    (-0.0010282024941606599, 0.0028462365910144104),
    (0.0001012212394567034, -0.0019087479544372234),
    (0.0001055194536528701, 0.00011445525302710869),
    (-0.034746026509063714, 0.051411776596972825),
    (0.0006941332007122485, 0.001034729305548382),
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
    # certain scattering leaves no survival to calibrate the rate on
    with pytest.raises(ValueError):
        ImperfectionConfig(scattering_probability=1.0)
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
    # rise times of 1 - 200 ns meet the area to rounding, and so do the
    # steps' envelope means and squared-envelope means
    ops = make_operators(1.0)
    for area in (5e-8, 1e-7, T_KITTEN, 2.5e-7, 5e-7, 1e-6):
        for rise in (1e-9, 1e-8, 2e-8, 5e-8, 1e-7, 2e-7):
            total = _pulse_duration(area, rise)
            gap = total + rise * math.expm1(-total / rise) - area
            assert abs(gap) <= 1e-14 * area, (area, rise)
            imp = ImperfectionConfig(pulse_rise_time=rise, ensemble_samples=1)
            pulse = ensemble._stepped_pulse(CFG, imp, ops, np.ones(1),
                                            np.zeros(1), area)
            assert abs(pulse.env.sum() * pulse.ds - area) <= 1e-14 * area
            # integral of (1 - e^(-s/rise))^2 over the pulse
            area2 = (total + 2 * rise * math.expm1(-total / rise)
                     - 0.5 * rise * math.expm1(-2 * total / rise))
            assert abs(pulse.env2.sum() * pulse.ds - area2) <= 1e-14 * area2


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


# Frobenius distance of 40 samples (seed 7) from a 0.05 ns reference,
# as PULSE_STEP_S states it
@pytest.mark.parametrize("j, bound", [(4.0, 1.8e-5), (8.0, 4.1e-5)])
def test_production_step_meets_its_stated_error(j, bound, monkeypatch):
    coupling, imp = _default_physics(40)
    down = basis_state(j, -j)
    rho = ensemble_evolve(down, coupling, imp, T_KITTEN, seed=7)
    monkeypatch.setattr(ensemble, "PULSE_STEP_S", 0.05e-9)
    reference = ensemble_evolve(down, coupling, imp, T_KITTEN, seed=7)
    assert np.linalg.norm(rho - reference) < bound


# which samples jump follows the seed, not the step grid: on a 0.5 ns
# grid every call jumps as often as at the production step, and rho
# moves by at most 3.9e-3 (seed 10), the error of one step in one jump
# time
def test_jumps_do_not_depend_on_the_step_grid(monkeypatch):
    coupling, imp = _default_physics(40)
    jumps = [0]
    apply_jump = ensemble._apply_jump

    def counting(*args):
        jumps[0] += 1
        return apply_jump(*args)

    monkeypatch.setattr(ensemble, "_apply_jump", counting)
    steps = (ensemble.PULSE_STEP_S, 0.5e-9)
    jumped = 0
    for seed in range(16):
        counts, rhos = [], []
        for step in steps:
            monkeypatch.setattr(ensemble, "PULSE_STEP_S", step)
            jumps[0] = 0
            rhos.append(ensemble_evolve(DOWN, coupling, imp, T_KITTEN, seed))
            counts.append(jumps[0])
        assert counts[0] == counts[1]
        assert np.linalg.norm(rhos[0] - rhos[1]) < 5e-3
        jumped += counts[0] > 0
    assert jumped >= 3


def test_kitten_pulse_step_count():
    coupling, imp = _default_physics()
    steps = ensemble.pulse_steps(imp, T_KITTEN)
    assert steps <= 50
    pulse = ensemble._stepped_pulse(coupling, imp, make_operators(8.0),
                                    np.ones(1), np.zeros(1), T_KITTEN)
    assert pulse.env.size == steps
    # no rise time and no scattering: one exact propagator per sample
    exact = replace(imp, pulse_rise_time=0.0, scattering_probability=0.0)
    assert ensemble.pulse_steps(exact, T_KITTEN) == 0


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


# 0.5: most samples jump; 1 - 1e-7: about 16 jumps each, so each
# trajectory draws from its substreams up to about k = 16
@pytest.mark.parametrize("samples, probability", [(1, 0.5), (3, 0.5), (3, 1 - 1e-7)])
def test_batched_starters_match_starters_stepped_alone(samples, probability):
    # reference: each starter stepped on its own, drawing from the same
    # substreams.  BLAS rounds a one-row product unlike a stack of rows,
    # so the batch must keep the starters' products apart to match.
    coupling, imp = _default_physics(samples)
    imp = replace(imp, scattering_probability=probability)
    ops = make_operators(8.0)
    f, eps = ensemble._imperfection_draws(imp, 2)
    pulse = ensemble._stepped_pulse(coupling, imp, ops, f, eps, T_KITTEN)
    rate = _calibrate_ensemble_rate(DOWN, coupling, imp, T_KITTEN, ops)
    decay = (rate * f, ensemble._jump_basis(16))
    expect = np.zeros((17, 17), dtype=complex)
    for weight, start in ((1.0 - imp.initial_leak_fraction, DOWN),
                          (imp.initial_leak_fraction, basis_state(8, -7))):
        psi = np.repeat(start[None, None], samples, axis=1)
        psi = ensemble._run_steps(psi, pulse, decay, 2)[0]
        norms = np.real(np.einsum("ni,ni->n", psi, psi.conj()))
        psi = psi / np.sqrt(norms)[:, None]
        expect += weight * np.einsum("ni,nk->ik", psi, psi.conj())
    rho = ensemble_evolve(DOWN, coupling, imp, T_KITTEN, seed=2)
    assert np.array_equal(rho, expect / samples)
