"""Gain extraction, Hellinger and Fisher analyses, and their bounds."""

import math

import numpy as np
import pytest

from mesospin import (
    Direction,
    PhaseScan,
    ProjectionDistribution,
    X_AXIS,
    basis_state,
    classical_fisher,
    equatorial_phase_scan,
    fisher_gain,
    fisher_information,
    gain_from_hellinger,
    gain_from_magnetization,
    gain_from_parity,
    hellinger_curve,
    kitten_state,
    parity_gain_from_contrast,
    projection_probs,
    sample_scan,
    variance_bound,
)

J = 8.0
KITTEN = kitten_state(J)
COHERENT = basis_state(J, J, X_AXIS)


def _hellinger_grid():
    w = 0.3 / (2 * J)
    return np.linspace(0.0, 3 * w, 25)


def _two_rows():
    rows = np.zeros((2, 17))
    rows[:, 3] = 1.0
    return rows


def _with(rows, index, value):
    rows = rows.copy()
    rows[index] = value
    return rows


_COUNTS = 10 * _two_rows().astype(int)


@pytest.mark.parametrize("kwargs, match", [
    (dict(phis=[0.0], probabilities=_two_rows()), "shape"),
    (dict(phis=[0.0, 0.1], probabilities=_two_rows()[:, :9]), "shape"),
    (dict(phis=[0.1, 0.1], probabilities=_two_rows()), "increasing"),
    (dict(phis=[0.1, 0.0], probabilities=_two_rows()), "increasing"),
    (dict(phis=[0.0, np.nan], probabilities=_two_rows()), "increasing"),
    (dict(phis=[0.0, 0.1], probabilities=_with(_two_rows(), (1, 5), np.nan)),
     "non-finite"),
    (dict(phis=[0.0, 0.1],
          probabilities=_with(_with(_two_rows(), (1, 0), -0.2), (1, 3), 1.2)),
     "negative"),
    (dict(phis=[0.0, 0.1], probabilities=_with(_two_rows(), (1, 3), 0.9)),
     "sum to 1"),
    (dict(phis=[0.0, 0.1], probabilities=_two_rows(), counts=_COUNTS,
          atom_total=11), "atom_total"),
    (dict(phis=[0.0, 0.1], probabilities=_two_rows(), counts=_COUNTS,
          atom_total=[10, 11]), "atom_total"),
    (dict(phis=[0.0, 0.1], probabilities=_two_rows(), counts=_COUNTS), "atom_total"),
])
def test_phase_scan_rejects_each_fault(kwargs, match):
    with pytest.raises(ValueError, match=match):
        PhaseScan(j=8.0, **kwargs)


def test_phase_scan_validation():
    probs = np.array([projection_probs(KITTEN).probabilities] * 2)
    with pytest.raises(ValueError):
        PhaseScan(j=J, phis=[0.0], probabilities=probs)
    with pytest.raises(ValueError):
        PhaseScan(j=J, phis=[0.1, 0.1], probabilities=probs)
    with pytest.raises(ValueError):
        PhaseScan(j=J, phis=[0.0, 0.1], probabilities=probs, provenance="guessed")


def test_phase_scan_is_read_only_and_takes_per_angle_totals():
    scan = PhaseScan(j=8.0, phis=[0.0, 0.1], probabilities=_two_rows(),
                     counts=_COUNTS * [[1], [2]], atom_total=[10, 20])
    for array in (scan.phis, scan.probabilities, scan.counts):
        assert not array.flags.writeable
    # rounding below the tolerance is clipped away
    tiny = PhaseScan(j=8.0, phis=[0.0, 0.1],
                     probabilities=_with(_two_rows(), (0, 0), -1e-12))
    assert tiny.probabilities.min() == 0.0


def test_sampled_scan_is_deterministic_and_needs_seed():
    phis = np.linspace(0.0, 0.01, 5)
    exact = equatorial_phase_scan(KITTEN, phis)
    s1 = sample_scan(exact, 1000, 5)
    s2 = sample_scan(equatorial_phase_scan(KITTEN, phis), 1000, 5)
    assert s1.provenance == "sampled"
    assert s1.atom_total == 1000
    assert np.array_equal(s1.counts, s2.counts)
    assert np.array_equal(s1.counts.sum(axis=1), np.full(5, 1000))
    assert np.array_equal(s1.probabilities, s1.counts / 1000)
    with pytest.raises(ValueError):
        sample_scan(exact, 1000, None)
    with pytest.raises(ValueError):
        sample_scan(exact, 0, 5)


def test_sample_scan_seeds_one_stream_and_draws_no_distributions(monkeypatch):
    from mesospin import measurement, metrology, tomography

    calls = {"substream": 0, "sample_counts": 0}

    def counting(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(metrology, "substream",
                        counting("substream", metrology.substream))
    for module in (measurement, tomography):
        monkeypatch.setattr(module, "sample_counts",
                            counting("sample_counts", module.sample_counts))
    scan = sample_scan(equatorial_phase_scan(KITTEN, np.linspace(0.0, 0.3, 65)),
                       500, 7)
    assert calls == {"substream": 1, "sample_counts": 0}
    assert scan.counts.shape == (65, 17)


def test_grids_sharing_a_prefix_share_its_counts():
    head = np.linspace(0.0, 0.05, 6)
    grid_a = np.concatenate([head, [0.07, 0.2]])
    grid_b = np.concatenate([head, [0.06, 0.1, 0.3, 0.5]])
    a = sample_scan(equatorial_phase_scan(KITTEN, grid_a), 2000, 11)
    b = sample_scan(equatorial_phase_scan(KITTEN, grid_b), 2000, 11)
    assert np.array_equal(a.counts[:6], b.counts[:6])
    assert not np.array_equal(a.counts[6], b.counts[6])


def test_parity_gain_of_ideal_superposition():
    phis = np.linspace(0.0, math.pi / 8, 129)
    rep = gain_from_parity(equatorial_phase_scan(KITTEN, phis), varz_bound=64.0)
    assert rep.gain == pytest.approx(16.0, abs=1e-9)
    assert rep.fit.period == pytest.approx(math.pi / 8, abs=1e-9)
    assert rep.bound == pytest.approx(16.0, abs=1e-9)
    assert rep.gain <= rep.bound + 1e-9


def test_parity_gain_from_contrast_value():
    assert parity_gain_from_contrast(8, 0.74) == pytest.approx(8.7616, abs=1e-12)
    assert parity_gain_from_contrast(8, 1.0) == pytest.approx(16.0, abs=1e-12)


def test_hellinger_distance_extremes_and_validation():
    z0 = projection_probs(basis_state(8, 0)).probabilities
    z1 = projection_probs(basis_state(8, 1)).probabilities
    scan = PhaseScan(j=8.0, phis=[0.0, 0.1, 0.2], probabilities=[z0, z0, z1])
    assert np.allclose(hellinger_curve(scan), [0.0, 0.0, 1.0], rtol=0.0, atol=1e-15)
    # one scan holds one j: rows of another spin do not stack into it
    half = projection_probs(basis_state(3.5, 0.5)).probabilities
    with pytest.raises(ValueError):
        PhaseScan(j=8.0, phis=[0.0, 0.1], probabilities=[z0, half])
    with pytest.raises(ValueError):
        PhaseScan(j=3.5, phis=[0.0, 0.1], probabilities=[half, z0])


def test_hellinger_gain_and_slope_ratio():
    phis = _hellinger_grid()
    gk = gain_from_hellinger(equatorial_phase_scan(KITTEN, phis))
    gc = gain_from_hellinger(equatorial_phase_scan(COHERENT, phis))
    assert gk.gain == pytest.approx(16.0, rel=0.02)
    assert gc.gain == pytest.approx(1.0, rel=0.02)
    # slope^2 = gain * j/4, so the squared slope ratio is the gain ratio
    assert gk.gain / gc.gain == pytest.approx(16.0, rel=0.02)
    coherent_slope = math.sqrt(gc.gain * J / 4.0)
    assert coherent_slope == pytest.approx(math.sqrt(2.0), rel=0.01)


def test_hellinger_gain_needs_fine_scan():
    phis = np.linspace(0.0, math.pi / 8, 33)
    scan = equatorial_phase_scan(KITTEN, phis)
    with pytest.raises(ValueError):
        gain_from_hellinger(scan)


def test_hellinger_bias_correction_needs_atom_total():
    exact = equatorial_phase_scan(KITTEN, _hellinger_grid())
    # marked sampled, but without counts to size the bias correction
    scan = PhaseScan(j=J, phis=exact.phis, probabilities=exact.probabilities,
                     provenance="sampled")
    with pytest.raises(ValueError):
        gain_from_hellinger(scan)


def test_sampled_hellinger_gain_near_ideal():
    scan = sample_scan(equatorial_phase_scan(KITTEN, _hellinger_grid()), 90000, 3)
    rep = gain_from_hellinger(scan)
    assert 13.0 < rep.gain < 19.0
    assert rep.uncertainty > 0.0


def _three_outcome_dist(mu):
    """Support {-8, 0, +8} with mean mu and constant second moment 49."""
    p = np.zeros(17)
    p[16] = (49 / 64 + mu / 8) / 2
    p[0] = (49 / 64 - mu / 8) / 2
    p[8] = 1.0 - p[0] - p[16]
    return ProjectionDistribution(j=8.0, axis=Direction(0.0, 0.0), probabilities=p)


def test_magnetization_gain_hand_computed():
    phis = np.arange(64) * math.pi / 64
    dists = [_three_outcome_dist(6 * math.cos(16 * phi)) for phi in phis]
    scan = PhaseScan(j=8.0, phis=phis, probabilities=[d.probabilities for d in dists])
    rep = gain_from_magnetization(scan)
    assert rep.fit.amplitude == pytest.approx(6.0, abs=1e-9)
    # variance at the zero crossings is 49 - mu^2 = 49, so G = 2j A^2/49
    assert rep.gain == pytest.approx(576 / 49, rel=1e-9)


def test_classical_fisher_matches_exact_information():
    phis = np.linspace(0.0, math.pi / 8, 129)
    scan = equatorial_phase_scan(KITTEN, phis)
    assert classical_fisher(scan, 0.0) == pytest.approx(256.0, rel=0.01)


def test_exact_fisher_information_values():
    assert fisher_information(KITTEN, 0.0) == pytest.approx(256.0, abs=1e-9)
    assert fisher_information(COHERENT, math.pi / 2) == pytest.approx(16.0, abs=1e-9)
    assert fisher_information(COHERENT, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_fisher_gain_saturates_heisenberg_for_ideal_state():
    assert fisher_gain(KITTEN) == pytest.approx(16.0, abs=1e-9)


def test_variance_bound_values():
    assert variance_bound(KITTEN) == pytest.approx(16.0, abs=1e-9)
    assert variance_bound(COHERENT) == pytest.approx(1.0, abs=1e-9)
    rho = np.outer(KITTEN, KITTEN.conj())
    assert variance_bound(rho) == pytest.approx(16.0, abs=1e-9)
