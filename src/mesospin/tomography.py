"""Density-matrix reconstruction and the angular Wigner function.

The reconstruction minimizes the weighted squared difference between
predicted and observed projection probabilities over the density
matrices.  The predictions are linear in rho and the density matrices
form a convex set, so the fit is a convex problem.  The z plus
equatorial design leaves directions unobserved (128 of the 288
traceless ones for J = 8), so a term that pulls those directions toward
1/d breaks the tie among equally good fits (Teo et al., PRL 107, 020404
(2011)) and makes the objective F strongly convex, with one minimizer.
It is solved by accelerated projected gradient (FISTA with monotone
restarts) started from 1/d; the projection moves the eigenvalues of a
Hermitian matrix onto the probability simplex, and is the one
eigendecomposition of an iteration.  Two certificates stop it: the
duality gap <grad F, rho> - lambda_min(grad F), an upper bound on how
far F lies above its minimum, and a bound from the gradient mapping on
the distance from rho to the minimizer.  They run only once a step has
brought rho within reach of the distance tolerance.

The Wigner function is W(u) = Tr(rho Delta(u)) with a kernel Delta(u)
that is diagonal in the eigenbasis of u.J (Agarwal, PRA 24, 2889
(1981); Dowling, Agarwal & Schleich, PRA 49, 4101 (1994)).  Its fixed
diagonal weights the projection distribution along u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .angular import tensor_operator
from .core import Z_AXIS, make_operators, spin_of
from .measurement import (
    DimensionError,
    ProjectionDistribution,
    _axis_basis,
    _diagonal_sums,
    equatorial_direction,
    projection_probs,
    sample_counts,
)
from .metrology import PhaseScan
from .rng import substream

__all__ = [
    "DatasetError",
    "TomographyDataset",
    "TomographyFit",
    "synthesize_dataset",
    "dataset_to_json",
    "dataset_from_json",
    "forward_model",
    "fit_density_matrix",
    "bootstrap_errors",
    "wigner",
    "coherence_ratio",
    "default_equatorial_angles",
]


class DatasetError(ValueError):
    """A dataset document whose structure is not that of `dataset_to_json`,
    or whose equatorial angles span more than a half turn."""


@dataclass(frozen=True)
class TomographyDataset:
    """Projection data for one reconstruction.

    One z-axis distribution plus an equatorial scan covering at most a
    half turn; `phase_corrections` holds per-record angle offsets
    (field-drift corrections) added to the scan angles before fitting.
    """

    z_distribution: ProjectionDistribution
    equatorial: PhaseScan
    phase_corrections: np.ndarray = None

    def __post_init__(self):
        phis = self.equatorial.phis
        if phis[-1] - phis[0] > math.pi + 1e-9:
            raise DatasetError("equatorial angles must stay within a half turn, "
                               f"not span {phis[-1] - phis[0]:g} rad")
        corr = self.phase_corrections
        corr = np.zeros(len(phis)) if corr is None else np.asarray(corr, dtype=float)
        if len(corr) != len(phis):
            raise ValueError("need one phase correction per equatorial record")
        corr.setflags(write=False)
        object.__setattr__(self, "phase_corrections", corr)

    @property
    def j(self):
        return self.z_distribution.j

    @property
    def settings(self):
        """Measurement axes: z first, then the corrected equatorial angles."""
        return (Z_AXIS, *(equatorial_direction(phi + corr) for phi, corr
                          in zip(self.equatorial.phis, self.phase_corrections)))

    @property
    def observations(self):
        """Observed probabilities, one row per setting."""
        return np.vstack([self.z_distribution.probabilities,
                          self.equatorial.probabilities])


def default_equatorial_angles(n=33):
    """n uniform scan angles over [0, pi)."""
    return np.linspace(0.0, math.pi, n, endpoint=False)


def synthesize_dataset(state, phis=None, *, atom_total=None, seed=None):
    """Dataset generated from a known state, exact or multinomially sampled."""
    if phis is None:
        phis = default_equatorial_angles()
    phis = np.asarray(phis, dtype=float)
    zd = projection_probs(state, Z_AXIS)
    # not `equatorial_scan`: its ~1e-17 for an exact 0 redirects the multinomial draws
    dists = [projection_probs(state, equatorial_direction(p)) for p in phis]
    counts = None
    if atom_total is not None:
        if seed is None:
            raise ValueError("sampling requires a seed")
        zd = sample_counts(zd, atom_total, substream(seed, 0).integers(2**63))
        dists = [
            sample_counts(d, atom_total, substream(seed, 1 + i).integers(2**63))
            for i, d in enumerate(dists)
        ]
        counts = [d.counts for d in dists]
    scan = PhaseScan(j=zd.j, phis=phis, probabilities=[d.probabilities for d in dists],
                     counts=counts, atom_total=zd.atom_total,
                     provenance="exact" if counts is None else "sampled")
    return TomographyDataset(z_distribution=zd, equatorial=scan)


def dataset_to_json(data: TomographyDataset):
    """JSON-ready dict with counts when present, probabilities otherwise."""
    doc = {
        "j": data.j,
        "atom_total": data.z_distribution.atom_total,
        "phase_corrections": [float(c) for c in data.phase_corrections],
    }
    zd = data.z_distribution
    if zd.counts is not None:
        doc["z_counts"] = [int(c) for c in zd.counts]
    else:
        doc["z_probs"] = [float(p) for p in zd.probabilities]
    scan = data.equatorial
    key, rows = (("probs", scan.probabilities) if scan.counts is None
                 else ("counts", scan.counts))
    doc["settings"] = [{"phi": phi, key: row}
                       for phi, row in zip(scan.phis.tolist(), rows.tolist())]
    return doc


def _json_list(value, key, read):
    if not isinstance(value, list):
        raise DatasetError(f"'{key}' must be a list, not {value!r}")
    return [read(v, key) for v in value]


def _json_number(value, key):
    # float("4") and float(True) parse: a number is a JSON number
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DatasetError(f"'{key}' must be a number, not {value!r}")
    return float(value)


def _json_finite(value, key):
    if not math.isfinite(_json_number(value, key)):
        raise DatasetError(f"'{key}' must be a finite number, not {value!r}")
    return float(value)


def _json_count(value, key):
    # int(2.7) is 2 and int(True) is 1: a fractional count must not be truncated
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise DatasetError(f"'{key}' must hold integer counts, not {value!r}")
    return value


def dataset_from_json(doc):
    """Inverse of `dataset_to_json`; raises DatasetError, naming the key,
    on a document of another structure."""
    j = _json_finite(doc["j"], "j")
    n_total = doc.get("atom_total")

    def row(rec, key_counts, key_probs, where=""):
        """(probabilities, counts, atom total) of one record; the last two
        are None for a record of probabilities."""
        counted = key_counts in rec
        key = where + (key_counts if counted else key_probs)
        values = (_json_list(rec[key_counts], key, _json_count) if counted
                  else _json_list(rec[key_probs], key, _json_number))
        if len(values) != 2 * j + 1:
            raise DimensionError(
                f"'{key}' holds {len(values)} "
                f"{'counts' if counted else 'projection probabilities'} for "
                f"j = {j:g}, which has 2j+1 = {2 * j + 1:g} outcomes")
        if not counted:
            return np.asarray(values, dtype=float), None, None
        counts = np.asarray(values, dtype=int)
        total = int(counts.sum())
        if total == 0:  # probabilities 0/0
            raise ValueError("non-finite projection probability: all counts are zero")
        return counts / total, counts, total

    zp, zc, zn = row(doc, "z_counts", "z_probs")
    zd = ProjectionDistribution(j=j, axis=Z_AXIS, probabilities=zp, counts=zc,
                                atom_total=zn)
    records = doc["settings"]
    if not isinstance(records, list) or not records:
        raise DatasetError(f"'settings' must be a non-empty list, not {records!r}")
    phis, rows = [], []
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise DatasetError(f"'settings[{i}]' must be an object, not {rec!r}")
        phis.append(_json_finite(rec["phi"], f"settings[{i}].phi"))
        rows.append(row(rec, "counts", "probs", f"settings[{i}]."))
    probs, counts, totals = zip(*rows)
    if None in totals:
        if any(t is not None for t in totals):
            raise DatasetError("either every setting or none holds 'counts'")
        counts = totals = None
    provenance = "sampled" if (n_total or zd.counts is not None) else "exact"
    scan = PhaseScan(j=j, phis=phis, probabilities=probs, counts=counts,
                     atom_total=None if totals is None else np.array(totals),
                     provenance=provenance)
    corr = doc.get("phase_corrections")
    if corr is not None:
        corr = _json_list(corr, "phase_corrections", _json_finite)
        if len(corr) != len(phis):
            raise DatasetError(f"'phase_corrections' holds {len(corr)} entries "
                               f"for {len(phis)} settings")
    return TomographyDataset(z_distribution=zd, equatorial=scan, phase_corrections=corr)


def _setting_bases(j, settings):
    return np.stack([_axis_basis(j, ax).conj().T for ax in settings])


def forward_model(rho, settings):
    """Born-rule probabilities of rho for each measurement axis; linear in rho."""
    rho = np.asarray(rho)
    bd = _setting_bases(spin_of(rho), settings)
    return np.real(np.einsum("smi,ik,smk->sm", bd, rho, bd.conj()))


@dataclass(frozen=True)
class TomographyFit:
    """Reconstruction result with solver diagnostics.

    `objective_history` records the objective F of `fit_density_matrix`
    (least squares plus the tie-break on the unobserved directions) at
    the accepted iterates: the last, `objective`, evaluated at `rho`,
    each earlier one that value minus the exact decreases after it, so
    they are non-increasing.
    `unobserved_dimension` counts the traceless directions the linear
    design does not observe (128 for J = 8 on the default angles), and
    `underdetermined` flags a nonzero count.  `duality_gap` bounds how
    far the final F lies above its minimum over all density matrices,
    `distance_bound` bounds the Frobenius distance from `rho` to that
    minimizer, and `converged` is set exactly when both bounds meet the
    solver's tolerances.
    """

    rho: np.ndarray
    objective_history: tuple
    converged: bool
    underdetermined: bool
    unobserved_dimension: int
    n_iterations: int
    duality_gap: float
    distance_bound: float

    @property
    def objective(self):
        return self.objective_history[-1]


# Weight of the tie-break toward 1/d on the unobserved directions.  A
# larger weight converges faster but pulls harder on the data fit.  Over
# the 20 fits of the benchmark's tomo pass, stopping on the gap alone,
# with fits from 1/d, the projected linear inversion and a random state:
# 0.01 took 3894 iterations, its starts up to 1.8e-3 apart; 0.1 took
# 2122, its starts 1.3e-4 apart, and raised the least-squares part by a
# median of 2.7e-4 (at most 1.5e-2) relative to the unregularized fit;
# 1 took 992 but raised it by up to 6.2 % and lowered the mean fidelity
# to the truth by 3.2e-4.
_MU = 0.1
# A fit is converged once its duality gap is at most _GAP_RTOL times its
# objective plus _GAP_ATOL, the floor for data that a state fits exactly,
# and its distance bound is at most _DISTANCE_TOL.  The gap cannot bound
# the distance itself: sqrt(2 gap / m) stalls, because fits stop near a
# gap of 1e-9, where a step moves rho by about 1e-10 and changes F by
# less than the rounding of the projection.  With both, the pass above
# takes 2783 iterations and its three starts agree to 9.2e-7.
_GAP_RTOL = 1e-4
_GAP_ATOL = 1e-12
_DISTANCE_TOL = 1e-6
# The certificates cost an eigvalsh and a projection, so they run only
# once an accepted step bounds the distance within _GATE times
# _DISTANCE_TOL.  Over the 28 fits of the seed-1 tomo pass (3941
# iterations) and 48 more sampled fits (6310), a factor of 1 added 3 and
# 6 iterations; 1.5, 2 and 3 added none and ran the gap 243, 365 and
# 536 times in the pass.  Noise-free data of a pure state, where a step
# lands on the minimizer, take two more iterations than a fit certified
# at every iteration.
_GATE = 2.0
# Guards a fit that cannot reach the certificates; the slowest fits seen
# take about 200 iterations (at most 196 in the tomo pass and 223 for
# the Exp(1)-weighted refits of the tests).
_MAX_ITERATIONS = 20000


@lru_cache(maxsize=None)
def _upper_triangle(d):
    """Row and column indices of the strict upper triangle of d x d matrices."""
    rows, cols = np.triu_indices(d, 1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def _coordinates(h):
    """Real coordinates of Hermitian matrices (last two axes).

    The diagonal, then sqrt(2) times the real and the imaginary parts of
    the upper triangle: an orthonormal basis, so dot products of
    coordinates are Frobenius inner products of the matrices.
    """
    rows, cols = _upper_triangle(h.shape[-1])
    upper = math.sqrt(2.0) * h[..., rows, cols]
    return np.concatenate([np.diagonal(h, axis1=-2, axis2=-1).real,
                           upper.real, upper.imag], axis=-1)


def _hermitian(x, d):
    """The d x d Hermitian matrix with coordinates x."""
    rows, cols = _upper_triangle(d)
    n = len(rows)
    upper = (x[d:d + n] + 1j * x[d + n:]) / math.sqrt(2.0)
    h = np.diag(x[:d].astype(complex))
    h[rows, cols] = upper
    h[cols, rows] = upper.conj()
    return h


class _Design(NamedTuple):
    """Design matrix D of one tuple of settings and the spectrum of D^T D."""

    matrix: np.ndarray        # `_design_matrix` of the settings
    range_basis: np.ndarray   # orthonormal eigenvectors B of the nonzero eigenvalues
    range_values: np.ndarray  # those eigenvalues, ascending: D^T D = B diag(values) B^T


def _design_matrix(j, settings):
    """Design matrix of one tuple of measurement settings.

    Row (s, m) holds the coordinates of the outcome projector
    |b_sm><b_sm| minus 1/d, so predictions = matrix @ _coordinates(rho)
    + 1/d for unit-trace rho.  Without the identity, which the trace
    fixes, gradients are traceless and steps need not be shortened for
    a direction the fit cannot move in.
    """
    kets = _setting_bases(j, settings).conj()
    n_settings, d, _ = kets.shape
    projectors = kets[:, :, :, None] * kets[:, :, None, :].conj()
    projectors -= np.eye(d) / d
    return _coordinates(projectors).reshape(n_settings * d, d * d)


@lru_cache(maxsize=4)
def _design(j, settings):
    """The read-only `_Design` of one tuple of settings, computed once."""
    matrix = _design_matrix(j, settings)
    matrix.setflags(write=False)
    values, vectors = np.linalg.eigh(matrix.T @ matrix)
    # unobserved directions leave eigenvalues at the Gram's rounding floor
    observed = values > values[-1] * matrix.shape[1] * np.finfo(float).eps
    basis, values = vectors[:, observed], values[observed]
    basis.setflags(write=False)
    values.setflags(write=False)
    return _Design(matrix, basis, values)


def _project(rho):
    """Nearest density matrix (Frobenius norm): eigenvalues onto the simplex."""
    w, v = np.linalg.eigh(rho)
    desc = w[::-1]
    excess = np.cumsum(desc) - 1.0
    k = np.count_nonzero(desc - excess / np.arange(1, len(w) + 1) > 0)
    w = np.maximum(w - excess[k - 1] / k, 0.0)
    return (v * w) @ v.conj().T


class _Objective:
    """F of `fit_density_matrix` under weights w, at coordinates x of rho.

    With P_N = 1 - B B^T and D c = 0 for the coordinates c of 1/d, the
    gradient D^T W (D x - t) + _MU P_N (x - c) is
    B ((values - _MU) B^T x) + _MU x - (D^T W t + _MU c), where B and
    `values` are the range basis and the eigenvalues of D^T W D.
    """

    def __init__(self, design, observations, weights):
        self.matrix, self.basis = design.matrix, design.range_basis
        self.values = design.range_values
        d = math.isqrt(self.matrix.shape[1])
        if weights is None:
            self.weights = np.ones(observations.size)
        else:
            self.weights = np.ravel(weights)
            # D^T W D vanishes on the null space of D, so its block on the
            # range, in its own eigenbasis V, gives D^T W D = (B V) diag (B V)^T
            scaled = (np.sqrt(self.weights)[:, None] * self.matrix) @ self.basis
            self.values, vectors = np.linalg.eigh(scaled.T @ scaled)
            self.basis = self.basis @ vectors
        self.center = _coordinates(np.eye(d, dtype=complex) / d)
        self.target = observations.ravel() - 1.0 / d
        self._curvature = self.values - _MU
        self._offset = self.matrix.T @ (self.weights * self.target) + _MU * self.center

    def __call__(self, x):
        r = self.matrix @ x - self.target
        unobserved = x - self.center
        unobserved -= self.basis @ (self.basis.T @ unobserved)
        return (0.5 * float(self.weights @ (r * r))
                + 0.5 * _MU * float(unobserved @ unobserved))

    def gradient(self, x):
        return self.basis @ (self._curvature * (self.basis.T @ x)) + _MU * x - self._offset


def _fit(design, observations, weights):
    """FISTA with monotone restarts over the density matrices, from 1/d.

    `design` is the `_Design` of the observations' settings.  An
    iteration costs one `eigh`, in the projection, and products with the
    range basis B: the gradient comes from the spectrum of the Hessian
    (`_Objective`), and the trapezoid rule, exact for the quadratic F,
    decides whether a step descends.  The certificates, an `eigvalsh`
    and one more projection, run only once the accepted step bounds the
    distance to the minimizer within _GATE times _DISTANCE_TOL;
    `converged`, `duality_gap` and `distance_bound` are those of the
    returned rho.
    """
    objective = _Objective(design, observations, weights)
    gradient = objective.gradient
    d = math.isqrt(design.matrix.shape[1])
    # F's Hessian is D^T W D on the range and _MU on the null space, so F
    # is m-strongly convex and projected steps of 1/L never raise it
    convexity = float(min(_MU, objective.values[0]))
    lipschitz = float(max(_MU, objective.values[-1]))
    step = 1.0 / lipschitz

    def certificates(rho, x, g, lazy=False):
        """F, the duality gap and the distance bound at rho, and whether
        they meet the tolerances; a lazy call skips the bound (an eigh)
        when the gap fails."""
        obj = objective(x)
        # F is convex, so F(rho) - min F <= <grad, rho> - min_sigma <grad, sigma>,
        # and the minimum over density matrices sigma is lambda_min(grad)
        grad = _hermitian(g, d)
        gap = float(g @ x) - float(np.linalg.eigvalsh(grad)[0])
        gap_holds = gap <= _GAP_RTOL * obj + _GAP_ATOL
        if lazy and not gap_holds:
            return obj, gap, math.inf, False
        # ||rho - rho_hat|| <= 2 ||G|| / m for the gradient mapping
        # G = L (rho - P(rho - grad / L)) (Beck, First-Order Methods in
        # Optimization (2017), ch. 10)
        moved = float(np.linalg.norm(rho - _project(rho - step * grad)))
        bound = 2.0 * lipschitz * moved / convexity
        return obj, gap, bound, gap_holds and bound <= _DISTANCE_TOL

    rho, x = np.eye(d, dtype=complex) / d, objective.center
    g = gradient(x)
    y, grad_y, t, restarted = x, g, 1.0, True
    decreases = []
    iterations, converged = 0, False
    while not converged and iterations < _MAX_ITERATIONS:
        iterations += 1
        trial = _project(_hermitian(y - step * grad_y, d))
        x_trial = _coordinates(trial)
        g_trial = gradient(x_trial)
        # F is quadratic, so the trapezoid rule gives F(trial) - F(rho) exactly
        decrease = 0.5 * float((g + g_trial) @ (x_trial - x))
        if decrease >= 0.0:
            if restarted:
                break  # a plain gradient step from rho no longer descends
            # drop the momentum and retry from the last accepted state
            y, grad_y, t, restarted = x, g, 1.0, True
            continue
        # trial is y's projected gradient step: 2 ||G(y)|| / m bounds y's
        # distance to the minimizer, and the step does not lengthen it
        reach = 2.0 * lipschitz * float(np.linalg.norm(y - x_trial)) / convexity
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        # the gradient is affine in x, so it extrapolates with y
        y = x_trial + beta * (x_trial - x)
        grad_y = g_trial + beta * (g_trial - g)
        rho, x, g, t, restarted = trial, x_trial, g_trial, t_next, False
        decreases.append(decrease)
        if reach <= _GATE * _DISTANCE_TOL:
            obj, gap, bound, converged = certificates(rho, x, g, lazy=True)
    if not converged:
        obj, gap, bound, converged = certificates(rho, x, g)
    # F of the returned rho is evaluated directly; each earlier value adds
    # back the exact decreases after it, so the history never increases
    later = np.cumsum(decreases[::-1])[::-1]
    history = obj - np.append(later, 0.0)
    # the identity direction, which no design row sees, is fixed by the trace
    unobserved = d * d - 1 - design.range_basis.shape[1]
    return TomographyFit(
        rho=rho,
        objective_history=tuple(history.tolist()),
        converged=converged,
        underdetermined=unobserved > 0,
        unobserved_dimension=unobserved,
        n_iterations=iterations,
        duality_gap=gap,
        distance_bound=bound,
    )


def fit_density_matrix(data):
    """Least-squares reconstruction of a physical density matrix, made unique.

    Minimizes F(rho) = 0.5 * sum of (predicted - observed)^2
    + 0.5 * mu * ||P_N (rho - 1/d)||^2 over the density matrices, where
    P_N projects onto the directions the design does not observe and
    mu = 0.1.  The second term breaks the tie among the states that fit
    the data equally well in favour of the least structured one (Teo
    et al., PRL 107, 020404 (2011)) and makes F strongly convex, so the
    minimizer is unique.  FISTA starts from 1/d and spends one
    eigendecomposition, the projection onto the density matrices, per
    iteration; the certificates add theirs only once a step has brought
    rho within twice the distance tolerance.  `objective` is F of the
    returned rho, evaluated directly; the earlier entries of the
    non-increasing `objective_history` add back the exact decreases of
    the accepted steps.  `converged` certifies, on the returned rho,
    F(rho) - min F <= duality_gap <= 1e-4 * F(rho) + 1e-12 and
    ||rho - argmin F||_F <= distance_bound <= 1e-6.
    """
    return _fit(_design(data.j, data.settings), data.observations, None)


def _resample_observations(data, rng):
    """Redrawn observation table; the equatorial settings are drawn first."""
    scan, zd = data.equatorial, data.z_distribution
    totals = np.asarray(scan.atom_total)  # one total, or one per setting
    equatorial = rng.multinomial(totals, scan.probabilities) / totals[..., None]
    return np.vstack([rng.multinomial(zd.atom_total, zd.probabilities) / zd.atom_total,
                      equatorial])


def bootstrap_errors(data, *, n_resamples=100, seed=0):
    """Elementwise std of |rho| over bootstrap refits.

    Counted data are resampled parametrically: every setting is redrawn
    from a multinomial with its recorded atom total and refitted from
    scratch, exactly as an independent experiment would be, so the
    spread estimates the projection-noise error of the reconstruction.
    Probability-only data carry no noise scale; those refits instead
    draw independent Exp(1) weights (mean 1) per (setting, outcome)
    record, probing the weighting sensitivity of the fit.  Every refit
    shares the design matrix of the dataset's settings and minimizes the
    F of `fit_density_matrix` under its weights, so each refit is unique
    and the spread carries no dependence on the solver's path.
    """
    if n_resamples < 2:
        raise ValueError("need at least two resamples")
    counted = (data.z_distribution.atom_total is not None
               and data.equatorial.atom_total is not None)
    d = int(2 * data.j) + 1
    design = _design(data.j, data.settings)
    obs = data.observations
    moduli = np.empty((n_resamples, d, d))
    for r in range(n_resamples):
        rng = substream(seed, r)
        if counted:
            fit = _fit(design, _resample_observations(data, rng), None)
        else:
            fit = _fit(design, obs, rng.exponential(1.0, size=obs.shape))
        moduli[r] = np.abs(fit.rho)
    return moduli.std(axis=0)


@lru_cache(maxsize=None)
def _wigner_kernel(two_j):
    """Diagonal Delta_m = sum_ell Y_ell^0(0) (T_ell^0)_mm of the kernel along +z."""
    j = two_j / 2.0
    delta = sum(math.sqrt((2 * ell + 1) / (4 * math.pi))
                * np.diagonal(tensor_operator(j, ell, 0)).real
                for ell in range(two_j + 1))
    delta.setflags(write=False)
    return delta


def wigner(rho, thetas, phis, *, with_residue=False):
    """Angular Wigner function W(theta, phi) = Tr(rho Delta(theta, phi)).

    Delta(theta, phi) is the kernel `_wigner_kernel` carried onto the
    axis (theta, phi), so W = sum_m Delta_m Pi_m(theta, phi) over the
    projection probabilities Pi_m along that axis.  Returns the real
    field on the (theta, phi) grid; with_residue=True additionally
    returns the largest imaginary part discarded.  The integral over
    the sphere equals sqrt(4 pi / (2j+1)) for any unit trace state.
    """
    rho = np.asarray(rho)
    thetas = np.asarray(thetas, dtype=float)
    phis = np.asarray(phis, dtype=float)
    d = rho.shape[0]
    # exp(-i theta Jy) for every theta from one eigendecomposition of Jy
    lam, v = np.linalg.eigh(make_operators(spin_of(rho)).jy)
    ry = (v * np.exp(-1j * np.multiply.outer(thetas, lam))[:, None, :]) @ v.conj().T
    # Pi_m = sum_ab e^{i (a-b) phi} conj(R_am) rho_ab R_bm, so the map is
    # sum_ab rho_ab e^{i (a-b) phi} sum_m Delta_m conj(R_am) R_bm
    weighted = rho * ((ry.conj() * _wigner_kernel(d - 1)) @ ry.transpose(0, 2, 1))
    offsets = np.arange(1 - d, d)
    w = _diagonal_sums(weighted) @ np.exp(-1j * np.multiply.outer(offsets, phis))
    residue = float(np.max(np.abs(w.imag))) if w.size else 0.0
    if with_residue:
        return w.real, residue
    return w.real


def coherence_ratio(rho):
    """Extremal coherence to population ratio 2|rho_{-j,j}| / (rho_{-j,-j} + rho_{j,j})."""
    rho = np.asarray(rho)
    pops = float(rho[0, 0].real + rho[-1, -1].real)
    if pops <= 1e-12:
        raise ValueError("extremal populations vanish; ratio undefined")
    return 2.0 * abs(rho[0, -1]) / pops
