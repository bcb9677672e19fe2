"""Reconstruction and the angular Wigner function.

The Wigner map is held to the multipole expansion of `tests/multipole.py`.
"""

import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import mesospin
from mesospin import (
    DatasetError,
    Direction,
    NoiseModel,
    X_AXIS,
    basis_state,
    bootstrap_errors,
    coherence_ratio,
    dataset_from_json,
    dataset_to_json,
    default_config,
    default_equatorial_angles,
    ensemble_evolve,
    equatorial_direction,
    fidelity,
    fit_density_matrix,
    forward_model,
    kitten_dephase,
    kitten_state,
    projection_probs,
    sphere_integral,
    substream,
    synthesize_dataset,
    wigner,
)
from mesospin.tomography import (
    _MU,
    _Objective,
    _coordinates,
    _design,
    _fit,
    _hermitian,
    _project,
    _resample_observations,
    _wigner_kernel,
)
from fit_reference import evaluate, reference_fit
from multipole import multipole_decompose, multipole_wigner, reconstruct_density

KITTEN = kitten_state(8)
RHO_KITTEN = np.outer(KITTEN, KITTEN.conj())


def _mixed_state():
    model = NoiseModel.static_from_time(740e-6)
    return kitten_dephase(RHO_KITTEN, model, 46e-6)


def _imperfect_kitten(j=8.0):
    # the benchmark's imperfect kitten: 200 samples of intensity and
    # ellipticity on the closed-form path; unlike the kitten, it has
    # weight on directions the design does not observe
    cfg = default_config()
    imp = replace(cfg.imperfections, pulse_rise_time=0.0,
                  scattering_probability=0.0, ensemble_samples=200)
    coupling = replace(cfg.coupling, include_jx4=False)
    return ensemble_evolve(basis_state(j, -j), coupling, imp,
                           cfg.kitten_pulse_time(), 0)


def test_default_angles_cover_half_turn():
    phis = default_equatorial_angles()
    assert len(phis) == 33
    assert phis[0] == 0.0
    assert phis[-1] < math.pi
    assert np.allclose(np.diff(phis), math.pi / 33, atol=1e-15)


def test_forward_model_matches_projection_probabilities():
    data = synthesize_dataset(KITTEN)
    pred = forward_model(RHO_KITTEN, data.settings)
    assert np.allclose(pred, data.observations, atol=1e-12)
    assert np.allclose(pred.sum(axis=1), 1.0, atol=1e-12)


def test_exact_reconstruction_of_pure_state():
    fit = fit_density_matrix(synthesize_dataset(KITTEN))
    assert fit.converged
    assert fit.underdetermined  # equatorial bases are real, so the linear
    # design leaves half the off-diagonal information to the positivity
    # constraint
    assert fit.unobserved_dimension == 17 * 17 - 1 - 160
    assert fit.objective < 1e-12
    assert fidelity(fit.rho, KITTEN) > 0.999
    hist = np.array(fit.objective_history)
    assert np.all(np.diff(hist) <= 0.0)


def test_exact_reconstruction_of_mixed_state():
    rho = _mixed_state()
    fit = fit_density_matrix(synthesize_dataset(rho))
    assert fit.converged
    assert fidelity(fit.rho, rho) > 0.999
    assert coherence_ratio(fit.rho) == pytest.approx(coherence_ratio(rho), abs=0.01)


def test_sampled_reconstruction_recovers_coherence():
    data = synthesize_dataset(KITTEN, atom_total=90000, seed=0)
    fit = fit_density_matrix(data)
    assert fidelity(fit.rho, KITTEN) > 0.99
    assert coherence_ratio(fit.rho) == pytest.approx(1.0, abs=0.05)


def _null_basis(design):
    """Orthonormal rows spanning the null space of a design, from its SVD."""
    _, s, vt = np.linalg.svd(design)
    return vt[np.count_nonzero(s > s[0] * max(design.shape) * np.finfo(float).eps):]


def _objective(rho, data):
    """F of `fit_density_matrix`: least squares plus the tie-break toward 1/d."""
    r = forward_model(rho, data.settings) - data.observations
    d = len(rho)
    null = _null_basis(_design(data.j, data.settings).matrix)
    unobserved = null @ _coordinates(rho - np.eye(d) / d)
    return 0.5 * float(np.sum(r * r)) + 0.5 * _MU * float(unobserved @ unobserved)


def test_sampled_fit_is_certified_optimal(monkeypatch):
    truth = basis_state(4.0, 4.0, axis=X_AXIS)
    data = synthesize_dataset(truth, atom_total=2000, seed=3)
    fit = fit_density_matrix(data)
    assert fit.converged
    assert fit.objective == pytest.approx(_objective(fit.rho, data), rel=1e-9)

    monkeypatch.setattr(mesospin.tomography, "_GAP_RTOL", 1e-12)
    monkeypatch.setattr(mesospin.tomography, "_GAP_ATOL", 0.0)
    reference = fit_density_matrix(data)
    assert reference.objective <= fit.objective
    assert fit.duality_gap >= fit.objective - reference.objective

    assert fit.objective <= _objective(np.outer(truth, truth.conj()), data)
    mixed = 0.99 * fit.rho + 0.01 * np.eye(9) / 9
    assert fit.objective <= _objective(mixed, data)


def test_weighted_fits_step_by_the_exact_lipschitz_constant():
    # refits under the Exp(1) weights of the probability-only bootstrap;
    # stepping by the bound max(w) * sigma_max^2 instead of the exact
    # ||sqrt(W) D||^2, these six fits took 333-1950 iterations, 4220 in all
    data = synthesize_dataset(kitten_state(4.0), atom_total=2000, seed=11)
    design = mesospin.tomography._design(data.j, data.settings)
    obs = data.observations
    iterations = 0
    for r in range(6):
        weights = substream(5, r).exponential(1.0, size=obs.shape)
        fit = mesospin.tomography._fit(design, obs, weights)
        assert fit.converged
        iterations += fit.n_iterations
    assert iterations < 2000


@pytest.mark.parametrize("atoms", [2000, 90000])
@pytest.mark.parametrize("state", ["kitten", "imperfect"])
def test_fit_lies_within_its_distance_bound_of_the_estimate(monkeypatch, state, atoms):
    truth = KITTEN if state == "kitten" else _imperfect_kitten()
    data = synthesize_dataset(truth, atom_total=atoms, seed=2)
    fit = fit_density_matrix(data)
    assert fit.converged
    # the reference runs on until a plain step no longer descends, which
    # the rounding of the projection allows down to a bound of about 1e-8
    monkeypatch.setattr(mesospin.tomography, "_DISTANCE_TOL", 1e-10)
    reference = fit_density_matrix(data)
    assert np.linalg.norm(fit.rho - reference.rho) <= fit.distance_bound <= 1e-6


def test_weighted_fit_lies_within_its_distance_bound_of_the_estimate(monkeypatch):
    data = synthesize_dataset(kitten_state(4.0), atom_total=2000, seed=11)
    design = _design(data.j, data.settings)
    obs = data.observations
    weights = substream(5, 0).exponential(1.0, size=obs.shape)
    fit = _fit(design, obs, weights)
    assert fit.converged
    monkeypatch.setattr(mesospin.tomography, "_DISTANCE_TOL", 1e-10)
    reference = _fit(design, obs, weights)
    assert np.linalg.norm(fit.rho - reference.rho) <= fit.distance_bound <= 1e-6


def test_estimate_does_not_depend_on_the_start():
    # plain projected gradient steps on the F of `_objective`, from the
    # projected linear inversion and from a random state, reach the
    # estimate FISTA finds from 1/d
    data = synthesize_dataset(_imperfect_kitten(), atom_total=2000, seed=3)
    fit = fit_density_matrix(data)
    design = _design(data.j, data.settings).matrix
    null = _null_basis(design)
    target = data.observations.ravel() - 1.0 / 17
    center = _coordinates(np.eye(17) / 17)
    step = 1.0 / max(_MU, np.linalg.norm(design, 2) ** 2)

    def gradient(rho):
        x = _coordinates(rho)
        g = design.T @ (design @ x - target) + _MU * null.T @ (null @ (x - center))
        return _hermitian(g, 17)

    inversion = np.linalg.lstsq(design, target, rcond=None)[0]
    starts = (_project(_hermitian(inversion, 17) + np.eye(17) / 17),
              _random_mixed_state(17, np.random.default_rng(8)))
    for rho in starts:
        for _ in range(3000):
            rho = _project(rho - step * gradient(rho))
        assert np.linalg.norm(rho - fit.rho) <= 1e-6


@pytest.mark.parametrize("weighted", [False, True])
def test_spectral_gradient_and_trapezoid_decrease_match_the_design_form(weighted):
    data = synthesize_dataset(KITTEN, atom_total=2000, seed=6)
    design = _design(data.j, data.settings)
    obs = data.observations
    weights = substream(7, 0).exponential(1.0, size=obs.shape) if weighted else None
    objective = _Objective(design, obs, weights)
    rho, sigma = RHO_KITTEN, _random_mixed_state(17, np.random.default_rng(3))
    x, x_sigma = _coordinates(rho), _coordinates(sigma)
    for point in (x, x_sigma):
        want_value, want_gradient = evaluate(design, obs, weights, point)
        assert objective(point) == pytest.approx(want_value, rel=1e-12)
        error = np.linalg.norm(objective.gradient(point) - want_gradient)
        assert error <= 1e-12 * np.linalg.norm(want_gradient)
    # F is quadratic, so the trapezoid rule on its gradients is exact
    decrease = 0.5 * (objective.gradient(x) + objective.gradient(x_sigma)) @ (x_sigma - x)
    if weighted:
        change = (evaluate(design, obs, weights, x_sigma)[0]
                  - evaluate(design, obs, weights, x)[0])
    else:
        change = _objective(sigma, data) - _objective(rho, data)
    assert abs(change) > 1e-2
    assert decrease == pytest.approx(change, rel=1e-12)


# eigendecompositions a fit spends beyond one projection per iteration:
# the certificates once a step puts the estimate within reach, and the
# spectrum of D^T W D for a weighted fit; 6 to 49 in the cases below,
# where a fit certified at every iteration spends n_iterations more
_EXTRA_DECOMPOSITIONS = 60


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("j", [4.0, 8.0])
@pytest.mark.parametrize("state", ["kitten", "coherent", "imperfect"])
def test_fit_spends_one_eigendecomposition_per_iteration(monkeypatch, state, j, weighted):
    truth = {"kitten": lambda: kitten_state(j),
             "coherent": lambda: basis_state(j, j, axis=X_AXIS),
             "imperfect": lambda: _imperfect_kitten(j)}[state]()
    data = synthesize_dataset(truth, atom_total=2000, seed=2)
    design = _design(data.j, data.settings)
    obs = data.observations
    weights = substream(5, 0).exponential(1.0, size=obs.shape) if weighted else None
    want_rho, want_iterations, want_converged = reference_fit(design, obs, weights)

    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(*args, _decompose=getattr(np.linalg, name), **kwargs):
            calls.append(1)
            return _decompose(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    fit = _fit(design, obs, weights)
    monkeypatch.undo()

    assert fit.converged and want_converged
    assert fit.n_iterations == want_iterations
    assert len(calls) <= fit.n_iterations + _EXTRA_DECOMPOSITIONS
    assert np.max(np.abs(fit.rho - want_rho)) <= 1e-10


def test_design_is_shared_per_settings_and_read_only():
    data = synthesize_dataset(KITTEN, atom_total=2000, seed=4)
    design = mesospin.tomography._design(data.j, data.settings)
    assert not design.matrix.flags.writeable
    assert not design.range_basis.flags.writeable
    # other data on the same settings reuse the matrix and its spectrum,
    # corrected angles do not
    assert mesospin.tomography._design(8.0, synthesize_dataset(KITTEN).settings) is design
    shifted = replace(data, phase_corrections=np.full(33, 0.01))
    assert mesospin.tomography._design(8.0, shifted.settings) is not design


_FIT_IN_SUBPROCESS = """
import sys
import numpy as np
from mesospin import fit_density_matrix, kitten_state, synthesize_dataset
data = synthesize_dataset(kitten_state(8.0), atom_total=2000, seed=5)
np.save(sys.argv[1], fit_density_matrix(data).rho)
"""


def test_fit_does_not_depend_on_blas_thread_count(tmp_path):
    src = os.path.dirname(os.path.dirname(mesospin.__file__))
    rhos = []
    for threads in ("1", "2"):
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, PYTHONPATH=path)
        out = tmp_path / f"rho{threads}.npy"
        subprocess.run([sys.executable, "-c", _FIT_IN_SUBPROCESS, str(out)],
                       env=env, check=True, timeout=300)
        rhos.append(np.load(out))
    assert np.max(np.abs(rhos[0] - rhos[1])) < 1e-8


def test_dataset_json_round_trip_exact_and_sampled():
    exact = synthesize_dataset(KITTEN)
    back = dataset_from_json(dataset_to_json(exact))
    assert np.allclose(back.observations, exact.observations, atol=1e-15)
    assert np.allclose(back.equatorial.phis, exact.equatorial.phis, atol=1e-15)
    assert back.equatorial.provenance == "exact"

    sampled = synthesize_dataset(KITTEN, atom_total=5000, seed=9)
    doc = dataset_to_json(sampled)
    back = dataset_from_json(doc)
    assert back.z_distribution.atom_total == 5000
    assert np.array_equal(back.z_distribution.counts, sampled.z_distribution.counts)
    assert np.array_equal(back.equatorial.counts, sampled.equatorial.counts)
    assert back.equatorial.provenance == "sampled"


def test_dataset_settings_keep_their_own_atom_totals():
    sampled = synthesize_dataset(KITTEN, phis=default_equatorial_angles(9),
                                 atom_total=500, seed=2)
    doc = dataset_to_json(sampled)
    doc["settings"][1]["counts"] = [2 * c for c in doc["settings"][1]["counts"]]
    back = dataset_from_json(doc)
    assert back.equatorial.atom_total.tolist() == [500, 1000] + [500] * 7
    assert np.array_equal(back.observations, sampled.observations)
    redrawn = _resample_observations(back, np.random.default_rng(0))
    assert np.array_equal(redrawn[2] * 1000, np.round(redrawn[2] * 1000))
    assert not np.array_equal(redrawn[2] * 500, np.round(redrawn[2] * 500))
    # a document holds counts for every setting or for none
    doc["settings"][3] = {"phi": doc["settings"][3]["phi"],
                          "probs": sampled.equatorial.probabilities[3].tolist()}
    with pytest.raises(DatasetError, match="'counts'"):
        dataset_from_json(doc)


def test_synthesis_determinism_and_seed_requirement():
    a = synthesize_dataset(KITTEN, atom_total=2000, seed=4)
    b = synthesize_dataset(KITTEN, atom_total=2000, seed=4)
    c = synthesize_dataset(KITTEN, atom_total=2000, seed=5)
    assert np.array_equal(a.z_distribution.counts, b.z_distribution.counts)
    assert not np.array_equal(a.z_distribution.counts, c.z_distribution.counts)
    with pytest.raises(ValueError):
        synthesize_dataset(KITTEN, atom_total=2000)


def test_dataset_validation_and_phase_corrections():
    with pytest.raises(ValueError):
        synthesize_dataset(KITTEN, phis=np.linspace(0.0, 1.1 * math.pi, 12))
    data = synthesize_dataset(KITTEN, phis=[0.0, 0.1])
    with pytest.raises(ValueError):
        replace(data, phase_corrections=[0.01])
    data = replace(data, phase_corrections=[0.01, -0.02])
    assert data.settings[1].phi == equatorial_direction(0.01).phi
    assert data.settings[2].phi == equatorial_direction(0.08).phi


def test_bootstrap_errors_deterministic_and_positive():
    data = synthesize_dataset(KITTEN, phis=default_equatorial_angles(9),
                              atom_total=5000, seed=1)
    s1 = bootstrap_errors(data, n_resamples=3, seed=11)
    s2 = bootstrap_errors(data, n_resamples=3, seed=11)
    assert s1.shape == (17, 17)
    assert np.array_equal(s1, s2)
    assert np.all(s1 >= 0.0)
    assert s1.max() > 0.0
    with pytest.raises(ValueError):
        bootstrap_errors(data, n_resamples=1)


def test_multipole_round_trip_and_reality():
    for rho in (RHO_KITTEN, _mixed_state()):
        decomp = multipole_decompose(rho)
        assert decomp.coefficient(0, 0) == pytest.approx(1 / math.sqrt(17), abs=1e-12)
        assert decomp.reality_residue() < 1e-12
        assert np.allclose(reconstruct_density(decomp), rho, atol=1e-12)


def _random_mixed_state(d, rng):
    a = rng.normal(size=(d, 3)) + 1j * rng.normal(size=(d, 3))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_wigner_matches_multipole_expansion():
    rng = np.random.default_rng(17)
    # a non-uniform grid that reaches both poles and azimuths past 2 pi
    thetas = np.concatenate([[0.0], np.sort(rng.uniform(0.0, math.pi, 21)), [math.pi]])
    phis = rng.uniform(-1.0, 7.0, 29)
    for two_j in (1, 2, 3, 5, 8, 15, 16):
        rho = _random_mixed_state(two_j + 1, rng)
        w, residue = wigner(rho, thetas, phis, with_residue=True)
        reference = multipole_wigner(rho, thetas, phis)
        assert np.max(np.abs(w - reference.real)) < 1e-13, two_j
        assert residue < 1e-13, two_j


def test_wigner_is_the_kernel_weighting_projection_probabilities():
    rng = np.random.default_rng(5)
    for two_j in (3, 16):
        rho = _random_mixed_state(two_j + 1, rng)
        delta = _wigner_kernel(two_j)
        for theta, phi in ((0.0, 0.0), (0.4, 2.1), (math.pi / 2, 5.9), (math.pi, 1.0)):
            want = delta @ projection_probs(rho, Direction(theta, phi)).probabilities
            got = wigner(rho, [theta], [phi])[0, 0]
            assert got == pytest.approx(want, abs=1e-13), (two_j, theta, phi)


def test_wigner_reality_normalization_and_negativity():
    thetas = np.linspace(0.0, math.pi, 181)
    phis = np.arange(360) * 2 * math.pi / 360
    w, residue = wigner(RHO_KITTEN, thetas, phis, with_residue=True)
    assert residue < 1e-10
    assert sphere_integral(w, thetas, phis) == pytest.approx(
        math.sqrt(4 * math.pi / 17), abs=1e-6
    )
    assert w.min() < 0.0


def test_wigner_of_maximally_mixed_state_is_flat():
    thetas = np.linspace(0.0, math.pi, 61)
    phis = np.arange(72) * 2 * math.pi / 72
    w = wigner(np.eye(17) / 17, thetas, phis)
    assert w.max() - w.min() < 1e-10
    assert w[0, 0] == pytest.approx(1 / math.sqrt(68 * math.pi), abs=1e-12)


def test_coherence_ratio_values_and_validation():
    assert coherence_ratio(RHO_KITTEN) == pytest.approx(1.0, abs=1e-12)
    model = NoiseModel.static_from_time(740e-6)
    t = 46e-6
    dephased = kitten_dephase(RHO_KITTEN, model, t)
    assert coherence_ratio(dephased) == pytest.approx(
        math.exp(-0.5 * (16 * model.gamma * model.rms_field * t) ** 2), rel=1e-12
    )
    middle = np.zeros((17, 17))
    middle[8, 8] = 1.0
    with pytest.raises(ValueError):
        coherence_ratio(middle)
