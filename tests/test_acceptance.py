"""Acceptance suite: one test per numbered behavioral guarantee.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail
line per criterion.  Every random quantity uses fixed seeds and the
counter-based generator, so each criterion is fully deterministic.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from mesospin import (
    CouplingConfig,
    NoiseModel,
    X_AXIS,
    analytic_mz,
    analytic_varz,
    basis_state,
    bootstrap_errors,
    classical_fisher,
    coherence_decay,
    coherence_ratio,
    config_to_json,
    default_config,
    equatorial_phase_scan,
    evolve,
    fidelity,
    fit_decay,
    fit_density_matrix,
    gain_budget,
    gain_from_hellinger,
    gain_from_parity,
    gaussian_varz,
    hamiltonian,
    kitten_state,
    magnetization,
    make_operators,
    parity_gain_from_contrast,
    projection_probs,
    revival_state,
    scaling_identity_check,
    sphere_integral,
    synthesize_dataset,
    variance,
    wigner,
)
from mesospin.cli import main

J = 8.0
OMEGA = 2 * math.pi * 1.98e6


def _twisted_moments(grid):
    """Numerically evolved (m_z, varz) under the pure twisting generator."""
    ops = make_operators(J)
    initial = basis_state(J, -J)
    mz, varz = [], []
    for g in grid:
        dist = projection_probs(evolve(initial, ops.jx @ ops.jx, g))
        mz.append(magnetization(dist))
        varz.append(variance(dist))
    return np.array(mz), np.array(varz)


def test_criterion_01_evolution_matches_closed_forms():
    grid = np.linspace(0.0, 2.0 * math.pi, 200)
    mz, varz = _twisted_moments(grid)
    mz_ref = np.array([analytic_mz(J, g) for g in grid])
    varz_ref = np.array([analytic_varz(J, g) for g in grid])
    assert np.max(np.abs(mz - mz_ref)) < 1e-9
    assert np.max(np.abs(varz - varz_ref)) < 1e-9


def test_criterion_02_kitten_and_revival_fidelities():
    h = hamiltonian(CouplingConfig(omega=OMEGA), make_operators(J))
    initial = basis_state(J, -J)
    psi = evolve(initial, h, (math.pi / 2.0) / OMEGA)
    assert fidelity(kitten_state(J), psi) > 1 - 1e-10
    for n in (2, 3, 4):
        psi = evolve(initial, h, n * (math.pi / 2.0) / OMEGA)
        assert fidelity(revival_state(J, n), psi) > 1 - 1e-10, n


def test_criterion_03_collapse_plateau():
    grid = np.linspace(0.2 * math.pi, 0.36 * math.pi, 200)
    _, varz = _twisted_moments(grid)
    assert 33.0 <= varz.min() and varz.max() <= 34.5
    limit = J * (J + 0.5) / 2.0
    assert limit == 34.0
    assert gaussian_varz(J, math.pi / 2.0) == pytest.approx(limit, abs=1e-6)


def test_criterion_04_parity_metrology():
    phis = np.linspace(0.0, math.pi / 4.0, 257)
    report = gain_from_parity(equatorial_phase_scan(kitten_state(J), phis))
    assert report.fit.amplitude == pytest.approx(1.000, abs=0.001)
    assert report.fit.period == pytest.approx(math.pi / 8.0, abs=1e-6)
    assert report.gain == pytest.approx(16.00, abs=0.05)
    assert parity_gain_from_contrast(J, 0.74) == pytest.approx(8.76, abs=0.005)


def test_criterion_05_hellinger_metrology():
    window = 0.3 / (2 * J)
    phis = np.linspace(0.0, 3.0 * window, 25)
    kitten = kitten_state(J)
    coherent = basis_state(J, J, axis=X_AXIS)
    report_k = gain_from_hellinger(equatorial_phase_scan(kitten, phis))
    report_c = gain_from_hellinger(equatorial_phase_scan(coherent, phis))

    # gains are squared slopes normalized by the coherent slope sqrt(j/4)
    assert report_k.gain / report_c.gain == pytest.approx(16.0, rel=0.02)
    slope_c = math.sqrt(report_c.gain * J / 4.0)
    assert slope_c == pytest.approx(math.sqrt(2.0), rel=0.01)

    fine = np.linspace(0.0, math.pi / 8.0, 129)
    fisher = classical_fisher(equatorial_phase_scan(kitten, fine), 0.0)
    assert 8.0 * report_k.gain * J / 4.0 == pytest.approx(fisher, rel=0.01)

    varz_k = variance(projection_probs(kitten))
    varz_c = variance(projection_probs(coherent))
    assert report_k.gain <= 2.0 * varz_k / J + 1e-9
    assert report_c.gain <= 2.0 * varz_c / J + 1e-9
    assert fisher / (2.0 * J) <= 2.0 * varz_k / J + 1e-9


def test_criterion_06_imperfection_budget():
    cfg = default_config()
    coupling = replace(cfg.coupling, include_jx4=True)
    start = time.perf_counter()
    budget = gain_budget(coupling, cfg.imperfections, j=cfg.j, seed=cfg.seed)
    elapsed = time.perf_counter() - start
    assert cfg.imperfections.ensemble_samples == 2000
    assert elapsed <= 300.0

    expected = {
        "intensity inhomogeneity": -1.43,
        "polarization ellipticity": -0.41,
        "static field amplitude": -0.22,
        "field axis tilt": -0.34,
        "initial state leak": -0.06,
        "quartic coupling correction": -0.18,
        "pulse rise time": -0.18,
        "photon scattering": -0.09,
    }
    flagged = {row.label for row in budget.rows if row.flagged}
    assert flagged == {"intensity inhomogeneity", "polarization ellipticity"}
    for label, correction in expected.items():
        assert budget.row(label).correction == pytest.approx(correction,
                                                            abs=0.4), label

    combined = budget.combined.gain
    assert combined == pytest.approx(14.5, abs=0.5)
    assert combined - 1.0 <= 13.9 <= combined


def test_criterion_07_tomography_round_trip():
    truth = kitten_state(J)
    exact = fit_density_matrix(synthesize_dataset(truth))
    assert exact.converged
    assert fidelity(truth, exact.rho) > 0.999

    ratios, elements = [], []
    for seed in range(50):
        data = synthesize_dataset(truth, atom_total=90000, seed=seed)
        fit = fit_density_matrix(data)
        assert fit.converged, seed
        ratios.append(coherence_ratio(fit.rho))
        elements.append([abs(fit.rho[0, 0]), abs(fit.rho[-1, -1]),
                         abs(fit.rho[0, -1])])
    assert float(np.median(ratios)) == pytest.approx(1.0, abs=0.05)

    scatter = np.array(elements).std(axis=0)
    data0 = synthesize_dataset(truth, atom_total=90000, seed=0)
    boot = bootstrap_errors(data0, n_resamples=16, seed=1000)
    boot_vals = np.array([boot[0, 0], boot[-1, -1], boot[0, -1]])
    for b, s in zip(boot_vals, scatter):
        assert 0.5 <= b / s <= 2.0


def test_criterion_08_wigner_properties():
    thetas = np.linspace(0.0, math.pi, 181)
    phis = np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False)
    kitten = kitten_state(J)
    rho = np.outer(kitten, kitten.conj())
    w, residue = wigner(rho, thetas, phis, with_residue=True)
    assert residue < 1e-10
    total = sphere_integral(w, thetas, phis)
    assert total == pytest.approx(math.sqrt(4.0 * math.pi / 17.0), abs=1e-6)
    assert w.min() < 0.0

    mixed = np.eye(17) / 17.0
    w_mixed = wigner(mixed, thetas, phis)
    assert w_mixed.max() - w_mixed.min() < 1e-10


def test_criterion_09_dephasing_scaling():
    # fitted laboratory ratios carry fit-model dependence and are
    # reported by the artifact commands, not asserted here
    tau0 = 740e-6
    static = NoiseModel.static_from_time(tau0)
    times = np.linspace(5e-6, 1.2e-4, 9)
    report = scaling_identity_check(static, times, order=16, runs=100000,
                                    seed=0)
    assert report.analytic_difference <= 1e-12
    assert report.monte_carlo_z < 3.0
    assert report.passed

    def fitted_tau(model, n, fit_model, horizon):
        ts = np.linspace(0.0, 3.0 * horizon, 60)
        return fit_decay(ts, coherence_decay(n, model, ts),
                         model=fit_model).tau

    static_ratio = (fitted_tau(static, 1, "gaussian", tau0) /
                    fitted_tau(static, 16, "gaussian", tau0 / 16.0))
    assert static_ratio == pytest.approx(16.0, rel=1e-6)

    markov = NoiseModel.markovian_from_time(tau0)
    markov_ratio = (fitted_tau(markov, 1, "exponential", tau0) /
                    fitted_tau(markov, 16, "exponential", tau0 / 256.0))
    assert markov_ratio == pytest.approx(256.0, rel=1e-6)


def test_criterion_10_rerun_determinism(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config_to_json(default_config())))

    def payloads(out):
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    for cmd in ("parity", "hellinger", "evolve"):
        out = tmp_path / cmd
        args = [cmd, "--config", str(cfg_path), "--seed", "11",
                "--out", str(out), "--samples", "5"]
        assert main(args) == 0
        first = payloads(out)
        assert main(args) == 0
        assert payloads(out) == first
