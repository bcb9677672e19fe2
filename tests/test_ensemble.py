"""Ensemble averaging over pulse imperfections and photon scattering."""

import itertools
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from mesospin import (
    CouplingConfig,
    ImperfectionConfig,
    basis_state,
    coherence_ratio,
    ensemble_evolve,
    fidelity,
    kitten_state,
    magnetization,
    make_operators,
    projection_probs,
    scattering_channels,
    spin_of,
)
from mesospin import ensemble
from mesospin.config import default_config
from mesospin.ensemble import _calibrate_ensemble_rate, _pulse_duration
import march_reference
from light_shift import (
    LightShiftParams,
    coupling_rate,
    elliptical_polarization,
    intensity_for_coupling,
    light_shift_operator,
)

OMEGA = 2 * math.pi * 1.98e6
DETUNING = -2 * math.pi * 1.5e9
CFG = CouplingConfig(omega=OMEGA, detuning=DETUNING)
T_KITTEN = (math.pi / 2) / OMEGA
DOWN = basis_state(8, -8)
KITTEN = kitten_state(8)

# rho of ensemble_evolve(basis_state(4, -4)) at the default coupling and
# imperfections (leak, rise time and scattering on), 10 samples, seed 3,
# with the pulse duration solved to rounding, on steps of PULSE_STEP_S
# that take the exact envelope means, each sample's light, decay and
# jump channels taken from its own coupling operator
_PIN_DIAGONAL = [
    0.4727420143793073, 0.014055954096604074, 0.011209270668401976,
    0.0004753862199677093, 0.0031116794102057374, 0.0018630233242264928,
    0.015288676847603669, 0.013635339586596474, 0.46761865546708653,
]
_PIN_UPPER = [  # row-major, above the diagonal
    (0.0018211643891098252, 0.0016986432130839954),
    (-0.014816696822610935, -0.03464610562135152),
    (-0.0015847287268666022, -0.0002562270683530828),
    (-0.0004081102875745273, -7.696573602286578e-05),
    (0.0019404634431243227, 4.675313180070193e-05),
    (-0.054299443043831754, 0.030935927100453203),
    (-0.0010591133731590507, -0.0007237727867686903),
    (0.03422881478835089, -0.46888746069977216),
    (-0.00013760444888455148, -3.9706476549611413e-05),
    (-0.0002904903545461931, -0.0020912756757576947),
    (-2.5359380183762424e-05, -1.3239811465439535e-06),
    (-0.0030563323459230993, 0.0010728087617387567),
    (-4.2782024354961026e-05, 0.00030699474224812884),
    (-0.00010909103660548065, -0.013817224705554187),
    (-0.0016218152997997497, -0.0019833612851500337),
    (9.038442018884016e-05, -9.596357525278208e-05),
    (-0.0044467113114746515, -0.0017695846112321025),
    (-5.005340296940057e-05, 0.00012717108919976176),
    (-0.002319668766144362, -0.012217971427340064),
    (5.7182994789872983e-05, -0.00012899031655378503),
    (0.03310151469737593, 0.017271496173843756),
    (-1.4072778571163183e-05, -1.032110406116663e-06),
    (-0.0001738554312044875, -0.000842646305796072),
    (0.00014252646792292957, -0.00014905496976493657),
    (0.002022643602854266, 0.0002704038508616946),
    (0.00014979766946626394, 0.0015835126852508513),
    (-3.843060275377925e-06, 1.0968563225734473e-05),
    (0.002651690774180785, 0.003325692324407308),
    (3.601984081784231e-06, 4.362627545087953e-05),
    (6.60096193907969e-05, 0.0004416435802174091),
    (-0.00021059838034832919, 0.00010713810398121616),
    (-0.0010282023927895817, 0.0028462338032828488),
    (0.00010122174938449723, -0.0019087488868200963),
    (0.00010551906406308183, 0.00011445507549791477),
    (-0.03474604830885245, 0.05141167744488983),
    (0.0006941339723571785, 0.0010347293337004235),
]


# ellipticities at which the coupling operator is held to the light shift
ELLIPTICITIES = (0.0, 5e-4, 0.01, 0.2)


def _light_params(eps=0.0):
    intensity = intensity_for_coupling(OMEGA, 0.85e6, 626e-9, DETUNING, 8.0)
    return LightShiftParams(
        linewidth=0.85e6, resonance_wavelength=626e-9, detuning=DETUNING,
        intensity=intensity, polarization=elliptical_polarization(eps),
    )


def test_imperfection_config_validation():
    with pytest.raises(ValueError):
        ImperfectionConfig(cloud_sigma=-1e-6)
    with pytest.raises(ValueError):
        ImperfectionConfig(initial_leak_fraction=1.5)
    with pytest.raises(ValueError):
        ImperfectionConfig(pulse_rise_time=-1e-9)
    with pytest.raises(ValueError):
        ImperfectionConfig(ensemble_samples=0)
    with pytest.raises(ValueError):
        ImperfectionConfig(field_axis_components=(0.0, 0.0, 0.0))
    # certain scattering leaves no survival to calibrate the rate on
    with pytest.raises(ValueError):
        ImperfectionConfig(scattering_probability=1.0)
    imp = ImperfectionConfig(field_axis_components=(0.09, -0.11, 0.98))
    assert np.linalg.norm(imp.field_axis) == pytest.approx(1.0, abs=1e-12)


def test_point_cloud_draws_nothing(monkeypatch):
    # a cloud of zero width puts every sample on the beam axis without
    # seeding a generator
    def no_draws(*args):
        raise AssertionError("a point cloud must not draw positions")

    monkeypatch.setattr(ensemble, "substream", no_draws)
    f, eps = ensemble._imperfection_draws(ImperfectionConfig(ensemble_samples=7), 3)
    assert np.array_equal(f, np.ones(7))
    assert np.array_equal(eps, np.zeros(7))


def test_no_imperfections_reproduces_unitary_kitten():
    imp = ImperfectionConfig(ensemble_samples=1)
    rho = ensemble_evolve(DOWN, CFG, imp, T_KITTEN, seed=0)
    assert fidelity(rho, KITTEN) > 1 - 1e-10
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)


def test_intensity_spread_degrades_revival():
    imp = ImperfectionConfig(cloud_sigma=7.3e-6, ensemble_samples=200)
    rho = ensemble_evolve(DOWN, CFG, imp, math.pi / OMEGA, seed=0)
    mz = magnetization(projection_probs(rho))
    assert 6.3 < mz < 7.5
    cr = coherence_ratio(ensemble_evolve(DOWN, CFG, imp, T_KITTEN, seed=0))
    assert cr < 1.0


def test_ensemble_is_deterministic_in_the_seed():
    imp = ImperfectionConfig(cloud_sigma=7.3e-6, ensemble_samples=50)
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
        cloud_sigma=7.3e-6,
        field_axis_components=(0.09, -0.11, 0.98), initial_leak_fraction=0.03,
        pulse_rise_time=50e-9, scattering_probability=0.007, ensemble_samples=120,
    )
    rho = ensemble_evolve(DOWN, cfg, imp, math.pi / OMEGA, seed=0)
    mz = magnetization(projection_probs(rho))
    assert 5.8 < mz < 7.4


def test_scattering_channel_sum_matches_light_shift():
    # kmat(eps) is sum_q L_q^dag L_q of the channels at eps, and the
    # light-shift operator of that drive is V0 kmat(eps), V0 = -(j+1)(2j+1) omega
    ops = make_operators(8.0)
    for eps in ELLIPTICITIES:
        p = _light_params(eps)
        channels = scattering_channels(8.0, eps)
        kmat = ensemble._kmat(16, [eps])[0]
        h = light_shift_operator(p, ops)
        v0 = -9 * 17 * coupling_rate(p, 8.0)
        assert np.max(np.abs(h - v0 * kmat)) < 1e-12 * np.max(np.abs(h)), eps
        total = sum(ch.conj().T @ ch for ch in channels)
        assert np.max(np.abs(total - kmat)) < 1e-14, eps
        assert np.allclose(kmat, kmat.conj().T, atol=1e-14)
        assert np.linalg.eigvalsh(kmat).min() > -1e-12
        assert len(channels) == 3


@pytest.mark.parametrize("j", [4.0, 8.0])
def test_light_term_is_the_coupling_operator(j):
    # each sample's light term is -(j+1)(2j+1) omega f kmat(eps), the
    # closed form of the light shift less its global phase (j+1)^2 omega
    # f, and it commutes with the decay sum_q L_q^dag L_q of that
    # sample's own jump channels
    ops = make_operators(j)
    eps = np.array(ELLIPTICITIES)
    f = np.linspace(0.8, 1.1, eps.size)
    (scale, kmat), _, _ = ensemble._hamiltonian_parts(
        CFG, ImperfectionConfig(), ops, f, eps)
    jx2, jy2 = ops.jx @ ops.jx, ops.jy @ ops.jy
    for f_i, e, s, k in zip(f, eps, scale, kmat):
        omega = OMEGA * f_i
        closed = (omega / (1 + e * e) * (jx2 + e * e * jy2)
                  - omega * (2 * j + 3) * e / (1 + e * e) * ops.jz)
        light = s * k + (j + 1) ** 2 * omega * np.eye(k.shape[0])
        assert np.max(np.abs(light - closed)) <= 1e-14 * np.max(np.abs(closed)), e
        decay = sum(ch.T @ ch for ch in scattering_channels(j, e))
        commutator = closed @ decay - decay @ closed
        size = np.linalg.norm(closed) * np.linalg.norm(decay)
        assert np.linalg.norm(commutator) <= 1e-14 * size, e


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


def test_calibrated_rate_ignores_samples_and_seed(monkeypatch):
    coupling, imp = _default_physics()
    rate = _rate(DOWN, coupling, imp, T_KITTEN)
    assert rate > 0
    for other in (replace(imp, ensemble_samples=1),
                  replace(imp, cloud_sigma=0.0),
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


# p = 1 - 1e-7 takes the rate far beyond the exponential model's first
# guess: three fixed-point updates left it 4.5 % (j = 4) and 6.4 % (j = 8)
# short of its target
@pytest.mark.parametrize("j", [4.0, 8.0])
@pytest.mark.parametrize("probability", [0.007, 0.3, 0.9, 1 - 1e-7])
def test_calibrated_rate_meets_its_converged_reference(j, probability):
    coupling, imp = _default_physics()
    imp = replace(imp, scattering_probability=probability)
    down = basis_state(j, -j)
    expect = march_reference.reference_rate(down, coupling, imp, T_KITTEN,
                                            make_operators(j))
    assert _rate(down, coupling, imp, T_KITTEN) == pytest.approx(expect, rel=1e-10)


def test_calibration_that_does_not_converge_raises(monkeypatch):
    # p = 0.9 takes two rounds at j = 8
    coupling, imp = _default_physics()
    imp = replace(imp, scattering_probability=0.9)
    monkeypatch.setattr(ensemble, "_RATE_ROUNDS", 1)
    with pytest.raises(RuntimeError, match="did not converge"):
        _rate(DOWN, coupling, imp, T_KITTEN)


@pytest.mark.parametrize("two_j", [1, 7, 8, 16])
def test_parity_blocks_rebuild_kmat(two_j):
    # kmat couples only m of equal parity: its entries at odd offset are
    # exactly 0, and the eigensolves of the even and the odd block give
    # an orthogonal kv with kv diag(kw) kv^T = kmat
    eps = [0.0, 1e-3, 0.3]
    kmat = ensemble._kmat(two_j, eps)
    index = np.arange(two_j + 1)
    odd = (index[:, None] - index[None, :]) % 2 == 1
    assert np.all(kmat[:, odd] == 0)
    kw, kv = ensemble._parity_eigh(kmat)
    assert np.all(kv.imag == 0)
    eye = np.eye(two_j + 1)
    for e, k, w, v in zip(eps, kmat, kw, kv.real):
        assert np.max(np.abs(v @ np.diag(w) @ v.T - k)) < 1e-14, e
        assert np.max(np.abs(v.T @ v - eye)) < 1e-14, e


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
    decay = (rate * f, 16)
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


@pytest.mark.parametrize("j", [3.5, 4.0, 8.0])
@pytest.mark.parametrize("probability", [0.007, 0.3])
def test_march_matches_its_per_step_reference(j, probability, monkeypatch):
    # the per-step loop of march_reference on one starter block at a time,
    # with the static field, the quartic term and the rise each on and
    # off; at 0.3 rows jump repeatedly.  The largest gap, 5.3e-14, is
    # without field and quartic term, where the reference still rotates
    # into and out of kv at every step and the march does not.
    base, imp = _default_physics(24)
    imp = replace(imp, scattering_probability=probability)
    ops = make_operators(j)
    draws = Counter()
    real_substream = ensemble.substream

    def recording(seed, *key):
        if key[0] == 1 and key[2] > 0:
            draws[key[1]] += 1  # one draw per jump of the row's sample
        return real_substream(seed, *key)

    monkeypatch.setattr(ensemble, "substream", recording)
    monkeypatch.setattr(march_reference, "substream", recording)
    most = 0
    for field, quartic, rise in itertools.product((True, False), repeat=3):
        coupling = replace(base, include_jx4=quartic,
                           omega_larmor=base.omega_larmor if field else 0.0)
        physics = replace(imp, pulse_rise_time=imp.pulse_rise_time if rise else 0.0)
        f, eps = ensemble._imperfection_draws(physics, 5)
        pulse = ensemble._stepped_pulse(coupling, physics, ops, f, eps, T_KITTEN)
        assert (pulse.field_half is not None) == field
        assert (pulse.quartic is not None) == quartic
        rate = _calibrate_ensemble_rate(basis_state(j, -j), coupling, physics,
                                        T_KITTEN, ops)
        decay = (rate * f, int(2 * j))
        for start in (basis_state(j, -j), basis_state(j, -j + 1)):
            psi = np.repeat(start[None, None].astype(complex), f.size, axis=1)
            outs, jumps = [], []
            for march in (ensemble._run_steps, march_reference.reference_steps):
                draws.clear()
                outs.append(march(psi, pulse, decay, 5))
                jumps.append(dict(draws))
            assert np.max(np.abs(outs[0] - outs[1])) < 1e-13, (field, quartic, rise)
            assert jumps[0] == jumps[1], (field, quartic, rise)
            most = max([most, *jumps[0].values()])
    assert most >= (2 if probability > 0.1 else 0)
