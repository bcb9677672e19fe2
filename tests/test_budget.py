"""Gain budget wiring and the measurement-scheme comparison."""

import math

import numpy as np
import pytest

from mesospin import (
    CouplingConfig,
    ImperfectionConfig,
    ensemble_evolve,
    basis_state,
    gain_budget,
    kitten_state,
    measurement_scheme_gains,
)
from mesospin.ensemble import _imperfection_draws

OMEGA = 2 * math.pi * 1.98e6
DETUNING = -2 * math.pi * 1.5e9
NOMINAL_T = (math.pi / 2) / OMEGA
ROW_LABELS = (
    "intensity inhomogeneity",
    "polarization ellipticity",
    "static field amplitude",
    "field axis tilt",
    "initial state leak",
    "quartic coupling correction",
    "pulse rise time",
    "photon scattering",
)


@pytest.fixture(scope="module")
def ideal_budget():
    cfg = CouplingConfig(omega=OMEGA, detuning=DETUNING)
    return gain_budget(cfg, ImperfectionConfig(ensemble_samples=1), seed=0)


SMALL_CFG = CouplingConfig(omega=OMEGA, omega_larmor=2 * math.pi * 31.7e3,
                           detuning=DETUNING, include_jx4=True)
SMALL_IMP = ImperfectionConfig(
    cloud_sigma=7.3e-6,
    field_axis_components=(0.09, -0.11, 0.98), initial_leak_fraction=0.03,
    pulse_rise_time=50e-9, scattering_probability=0.007, ensemble_samples=40,
)


@pytest.fixture(scope="module")
def small_budget():
    return gain_budget(SMALL_CFG, SMALL_IMP, seed=0)


def test_row_labels_and_flags(ideal_budget):
    assert tuple(r.label for r in ideal_budget.rows) == ROW_LABELS
    flagged = {r.label for r in ideal_budget.rows if r.flagged}
    assert flagged == {"intensity inhomogeneity", "polarization ellipticity"}
    with pytest.raises(KeyError):
        ideal_budget.row("beam pointing")


def test_everything_off_reproduces_ideal_gain(ideal_budget):
    assert ideal_budget.ideal_gain == pytest.approx(16.0, abs=1e-6)
    for row in ideal_budget.rows:
        if row.label == "quartic coupling correction":
            continue
        assert row.gain == pytest.approx(16.0, abs=1e-6), row.label
        assert row.correction == pytest.approx(0.0, abs=1e-6), row.label
        assert row.pulse_time == pytest.approx(NOMINAL_T, rel=1e-12), row.label
    assert ideal_budget.combined.gain == pytest.approx(16.0, abs=1e-6)
    assert ideal_budget.combined.pulse_time == pytest.approx(NOMINAL_T, rel=1e-12)


def test_quartic_row_recalibrates_pulse_duration(ideal_budget):
    row = ideal_budget.row("quartic coupling correction")
    # coupling renormalization lengthens the pulse by over twenty percent
    assert row.pulse_time > 1.2 * NOMINAL_T
    assert -0.6 < row.correction < -0.1


def test_small_sample_budget_magnitudes(small_budget):
    b = small_budget
    assert b.combined.correction == pytest.approx(b.combined.gain - b.ideal_gain, abs=1e-12)
    assert 13.5 < b.combined.gain < 16.0
    assert b.row("intensity inhomogeneity").correction < -0.5
    for row in b.rows:
        assert 14.0 < row.gain < 16.2, row.label
    field = b.row("static field amplitude")
    for label in ("field axis tilt", "pulse rise time"):
        row = b.row(label)
        assert row.correction == pytest.approx(row.gain - field.gain, abs=1e-12)


def test_combined_state_is_the_ensemble_at_the_combined_pulse_time(small_budget):
    rho = ensemble_evolve(basis_state(8, -8), SMALL_CFG, SMALL_IMP,
                          small_budget.combined.pulse_time, seed=0)
    assert np.array_equal(small_budget.combined_state, rho)


def test_one_draw_of_the_cloud_serves_the_budget(ideal_budget, small_budget):
    f, eps = _imperfection_draws(SMALL_IMP, 0)
    assert np.array_equal(small_budget.intensities, f)
    assert np.array_equal(small_budget.ellipticities, eps)
    assert np.std(f) > 0 and np.std(eps) > 0
    # a point cloud puts every sample on the beam axis
    assert np.array_equal(ideal_budget.intensities, [1.0])
    assert np.array_equal(ideal_budget.ellipticities, [0.0])


def test_scheme_gains_on_ideal_superposition():
    sg = measurement_scheme_gains(kitten_state(8.0))
    assert sg.bound == pytest.approx(16.0, abs=1e-9)
    assert sg.parity.gain == pytest.approx(16.0, abs=1e-6)
    assert sg.parity.bound == pytest.approx(16.0, abs=1e-9)
    assert sg.hellinger.gain == pytest.approx(16.0, rel=0.02)
    assert sg.pulse_hellinger.gain == pytest.approx(16.0, rel=0.02)
    assert 15.5 < sg.magnetization.gain < 16.6


def test_scheme_gains_respect_bound_on_mixed_state():
    imp = ImperfectionConfig(cloud_sigma=7.3e-6, ensemble_samples=100)
    cfg = CouplingConfig(omega=OMEGA, detuning=DETUNING)
    rho = ensemble_evolve(basis_state(8, -8), cfg, imp, NOMINAL_T, seed=0)
    sg = measurement_scheme_gains(rho)
    assert sg.bound < 16.0
    for report in (sg.parity, sg.hellinger):
        assert report.gain < 16.0
        assert report.gain <= sg.bound + 0.05
