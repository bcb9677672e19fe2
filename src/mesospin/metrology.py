"""Phase-estimation analysis: gains, bounds, Hellinger and Fisher tools.

The metrological gain G compares the phase sensitivity of a protocol to
the standard quantum limit 1/sqrt(2j) of a coherent spin state; the
Heisenberg limit 1/(2j) corresponds to G = 2j.  Gains are extracted
from parity oscillations, magnetization oscillations, the small-angle
slope of the Hellinger distance, or the classical Fisher information,
and are bounded by 2*varz/j for a state of z variance varz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import make_operators, spin_of, spin_variance
from .fitting import fit_sinusoid
from .measurement import (
    _phase_scan,
    _polar_rotation,
    _validated,
    equatorial_scan,
    magnetization,
    parity,
    variance,
)
from .rng import substream

__all__ = [
    "PhaseScan",
    "GainReport",
    "equatorial_phase_scan",
    "sample_scan",
    "gain_from_parity",
    "parity_gain_from_contrast",
    "hellinger_curve",
    "hellinger_window",
    "gain_from_hellinger",
    "gain_from_magnetization",
    "classical_fisher",
    "fisher_information",
    "fisher_gain",
    "variance_bound",
]


@dataclass(frozen=True)
class PhaseScan:
    """Projection probabilities recorded on an increasing grid of phases.

    Row i of `probabilities` holds the 2j+1 outcome probabilities at
    phis[i].  A sampled scan also holds the `counts` they were drawn as,
    each row summing to `atom_total` (one total, or one per angle), and
    its probabilities are the empirical frequencies.  The rows pass the
    checks of `ProjectionDistribution`, all at once; the arrays are
    read-only.  `parity`, `magnetization` and `variance` of a scan give
    one value per angle.
    """

    j: float
    phis: np.ndarray
    probabilities: np.ndarray
    counts: np.ndarray = None
    atom_total: int = None
    provenance: str = "exact"

    def __post_init__(self):
        phis = np.array(self.phis, dtype=float)
        if (phis.ndim != 1 or not np.isfinite(phis).all()
                or np.any(np.diff(phis) <= 0)):
            raise ValueError("phis must be a strictly increasing sequence")
        if self.provenance not in ("exact", "sampled"):
            raise ValueError("provenance must be 'exact' or 'sampled'")
        p, c = _validated(self.j, self.probabilities, self.counts, self.atom_total,
                          len(phis))
        phis.setflags(write=False)
        object.__setattr__(self, "phis", phis)
        object.__setattr__(self, "probabilities", p)
        object.__setattr__(self, "counts", c)


def equatorial_phase_scan(state, phis):
    """Exact equatorial scan of a state; `sample_scan` draws atoms from it."""
    return PhaseScan(j=spin_of(state), phis=phis,
                     probabilities=equatorial_scan(state, phis))


def sample_scan(scan, atom_total, seed):
    """Multinomial draw of atom_total atoms at every angle of a scan.

    Every angle is drawn, in order, from the one generator
    substream(seed), so the counts at angle i depend on the seed and on
    the probabilities at angles 0 ... i: grids that share a leading run
    of angles share its counts.
    """
    if seed is None:
        raise ValueError("sampling requires a seed")
    n = int(atom_total)
    if n < 1:
        raise ValueError("need at least one atom")
    counts = substream(seed).multinomial(n, scan.probabilities)
    return PhaseScan(j=scan.j, phis=scan.phis, probabilities=counts / n,
                     counts=counts, atom_total=n, provenance="sampled")


@dataclass(frozen=True)
class GainReport:
    """Metrological gain extracted by one analysis method."""

    gain: float
    uncertainty: float
    bound: float = None
    fit: object = None

    def __post_init__(self):
        if self.gain < 0:
            raise ValueError("gain must be non-negative")


def _bound(j, varz_bound):
    return None if varz_bound is None else 2.0 * varz_bound / j


def gain_from_parity(scan, *, varz_bound=None):
    """Gain 2j*C^2 from the contrast C of the parity oscillation.

    Fits C sin(k*phi + phi0) + c to the parity curve, starting from
    k = 2j; the frequency stays free so the fitted period can be checked
    against pi/j.
    """
    j = scan.j
    y = parity(scan)
    fit = fit_sinusoid(scan.phis, y, 2 * j)
    if not fit.converged and fit.amplitude < 1e-6:
        raise RuntimeError("parity curve shows no oscillation to fit")
    contrast = min(fit.amplitude, 1.0)
    gain = 2 * j * contrast**2
    return GainReport(
        gain=gain,
        uncertainty=4 * j * contrast * fit.amplitude_error,
        bound=_bound(j, varz_bound),
        fit=fit,
    )


def parity_gain_from_contrast(j, contrast):
    """Gain 2j*C^2 for a given parity contrast."""
    return 2 * j * contrast**2


def hellinger_curve(scan):
    """Hellinger distance from the scan's first angle to each of its angles.

    d_H^2 = 0.5 * sum_m (sqrt(p_m) - sqrt(q_m))^2, in [0, 1], with q the
    distribution at phis[0].
    """
    root = np.sqrt(scan.probabilities)
    d2 = 0.5 * np.sum((root - root[0]) ** 2, axis=-1)
    return np.sqrt(np.clip(d2, 0.0, 1.0))


def hellinger_window(j):
    """Half-width 0.3/(2j) of the small-angle Hellinger slope fit, in rad."""
    return 0.3 / (2 * j)


def gain_from_hellinger(scan, *, varz_bound=None):
    """Gain from the small-angle slope of the Hellinger distance.

    The reference is the scan's first angle phi0.  Fits
    d_H = s * (phi - phi0) through the origin within the window
    phi - phi0 <= 0.3/(2j) and normalizes by the coherent-state slope
    sqrt(j/4), so G = s^2/(j/4).  For sampled scans (provenance
    "sampled") the leading multinomial bias (2j)/(8N) is subtracted from
    d_H^2 before fitting.
    """
    j = scan.j
    sep = scan.phis - scan.phis[0]
    inside = slice(1, int(np.searchsorted(sep, hellinger_window(j), side="right")))
    dx = sep[inside]
    d2 = hellinger_curve(scan)[inside] ** 2
    if scan.provenance == "sampled":
        if scan.atom_total is None:
            raise ValueError("bias correction needs the atom total")
        bias = 2 * j / (8 * np.broadcast_to(scan.atom_total, sep.shape)[inside])
        d2 = np.maximum(d2 - bias, 0.0)
    dh = np.sqrt(d2)
    if len(dx) < 4:
        raise ValueError("need at least 5 scan angles within the fit window")
    slope = float(dx @ dh / (dx @ dx))
    resid = dh - slope * dx
    slope_err = math.sqrt(float(resid @ resid) / max(len(dx) - 1, 1) / float(dx @ dx))
    gain = slope**2 / (j / 4.0)
    return GainReport(
        gain=gain,
        uncertainty=2 * slope * slope_err / (j / 4.0),
        bound=_bound(j, varz_bound),
        fit=None,
    )


def gain_from_magnetization(scan, *, varz_bound=None):
    """Gain 2j*(A/delta_Jz)^2 from the magnetization oscillation.

    A is the fitted amplitude of A cos(2j*phi + phi0) and the variance
    is averaged over the scan points where the fitted oscillation
    crosses zero (|model| < 0.2 A).
    """
    j = scan.j
    fit = fit_sinusoid(scan.phis, magnetization(scan), 2 * j)
    var = variance(scan)
    if fit.amplitude < 1e-9 * j:
        return GainReport(
            gain=0.0, uncertainty=0.0,
            bound=_bound(j, varz_bound), fit=fit,
        )
    model = fit(scan.phis) - fit.offset
    near_zero = np.abs(model) < 0.2 * fit.amplitude
    if not np.any(near_zero):
        near_zero = np.ones_like(var, dtype=bool)
    varz0 = float(np.mean(var[near_zero]))
    gain = 2 * j * fit.amplitude**2 / varz0
    var_err = float(np.std(var[near_zero]) / math.sqrt(max(near_zero.sum(), 1)))
    rel = math.sqrt(
        (2 * fit.amplitude_error / max(fit.amplitude, 1e-300)) ** 2
        + (var_err / varz0) ** 2
    )
    return GainReport(
        gain=gain,
        uncertainty=gain * rel,
        bound=_bound(j, varz_bound),
        fit=fit,
    )


# Fisher sums drop outcomes this improbable as ill-conditioned.
_PROBABILITY_FLOOR = 1e-12


def classical_fisher(scan, phi):
    """Classical Fisher information F(phi) = sum (d Pi_m/dphi)^2 / Pi_m.

    The derivative is a centered finite difference on the scan grid;
    outcomes with Pi_m <= 1e-12 are dropped as ill-conditioned.
    """
    i = int(np.argmin(np.abs(scan.phis - phi)))
    lo, hi = max(i - 1, 0), min(i + 1, len(scan.phis) - 1)
    if lo == hi:
        raise ValueError("scan too short to differentiate")
    probs, phis = scan.probabilities, scan.phis
    p = probs[i]
    dp = (probs[hi] - probs[lo]) / (phis[hi] - phis[lo])
    mask = p > _PROBABILITY_FLOOR
    return float(np.sum(dp[mask] ** 2 / p[mask]))


def _fisher(state, phis):
    """Fisher information of the Larmor phase at each of phis.

    Probabilities and their exact phase derivatives come from one
    Fourier table of the state read out in the basis R_y(pi/2)
    (`measurement._phase_scan`); at each angle, outcomes with
    probability at or below 1e-12 are dropped.
    """
    j = spin_of(state)
    p, dp = _phase_scan(state, _polar_rotation(int(round(2 * j)), math.pi / 2), phis)
    terms = np.divide(dp**2, p, out=np.zeros_like(p), where=p > _PROBABILITY_FLOOR)
    return terms.sum(axis=-1)


def fisher_information(state, phi=0.0):
    """Exact Fisher information of the Larmor phase at offset phi.

    The state is rotated by exp(-i phi Jz) and read out in a fixed
    equatorial basis; the probabilities are the trigonometric polynomial
    of `measurement._phase_scan`, differentiated exactly.  Outcomes with probability at or below 1e-12 are dropped, as in
    `classical_fisher`.
    """
    return float(_fisher(state, [phi])[0])


def fisher_gain(state, *, n_phi=360):
    """Best Fisher gain max_phi F(phi)/(2j) over a quarter parity period.

    All n_phi angles are evaluated from one Fourier table of the state.
    For the ideal two-component superposition this evaluates to exactly
    2j; imperfect states fall below it.
    """
    j = spin_of(np.asarray(state))
    phis = np.linspace(0.0, math.pi / 4, n_phi, endpoint=False)
    return float(np.max(_fisher(state, phis), initial=0.0)) / (2 * j)


def variance_bound(state):
    """Upper bound 2*varz/j on the gain of a state."""
    state = np.asarray(state)
    j = spin_of(state)
    ops = make_operators(j)
    return 2.0 * spin_variance(ops.jz, state) / j
