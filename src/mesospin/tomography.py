"""Density-matrix reconstruction, multipole decomposition, Wigner function.

The reconstruction minimizes the weighted squared difference between
predicted and observed projection probabilities over the density
matrices.  The predictions are linear in rho and the density matrices
form a convex set, so the fit is a convex problem.  It is solved by
accelerated projected gradient (FISTA with monotone restarts) started
from the linear inversion; the projection moves the eigenvalues of a
Hermitian matrix onto the probability simplex.  Convergence is
certified by the duality gap <grad f, rho> - lambda_min(grad f), an
upper bound on how far the objective lies above its minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angular import spherical_harmonic, tensor_operator
from .core import Z_AXIS, spin_of
from .measurement import (
    ProjectionDistribution,
    _axis_basis,
    equatorial_direction,
    projection_probs,
    sample_counts,
)
from .metrology import PhaseScan
from .rng import substream

__all__ = [
    "TomographyDataset",
    "TomographyFit",
    "MultipoleDecomposition",
    "synthesize_dataset",
    "dataset_to_json",
    "dataset_from_json",
    "forward_model",
    "fit_density_matrix",
    "bootstrap_errors",
    "multipole_decompose",
    "reconstruct_density",
    "wigner",
    "coherence_ratio",
    "default_equatorial_angles",
]


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
            raise ValueError("equatorial angles must stay within a half turn")
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
        axes = [Z_AXIS]
        for phi, corr in zip(self.equatorial.phis, self.phase_corrections):
            axes.append(equatorial_direction(phi + corr))
        return axes

    @property
    def observations(self):
        """Observed probabilities, one row per setting."""
        rows = [self.z_distribution.probabilities]
        rows.extend(d.probabilities for d in self.equatorial.distributions)
        return np.array(rows)


def default_equatorial_angles(n=33):
    """n uniform scan angles over [0, pi)."""
    return np.linspace(0.0, math.pi, n, endpoint=False)


def synthesize_dataset(state, phis=None, *, atom_total=None, seed=None,
                       phase_corrections=None):
    """Dataset generated from a known state, exact or multinomially sampled."""
    if phis is None:
        phis = default_equatorial_angles()
    phis = np.asarray(phis, dtype=float)
    zd = projection_probs(state, Z_AXIS)
    dists = [projection_probs(state, equatorial_direction(p)) for p in phis]
    provenance = "exact"
    if atom_total is not None:
        if seed is None:
            raise ValueError("sampling requires a seed")
        zd = sample_counts(zd, atom_total, substream(seed, 0).integers(2**63))
        dists = [
            sample_counts(d, atom_total, substream(seed, 1 + i).integers(2**63))
            for i, d in enumerate(dists)
        ]
        provenance = "sampled"
    scan = PhaseScan(phis=phis, distributions=dists, provenance=provenance)
    return TomographyDataset(z_distribution=zd, equatorial=scan,
                             phase_corrections=phase_corrections)


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
    settings = []
    for phi, d in zip(data.equatorial.phis, data.equatorial.distributions):
        rec = {"phi": float(phi)}
        if d.counts is not None:
            rec["counts"] = [int(c) for c in d.counts]
        else:
            rec["probs"] = [float(p) for p in d.probabilities]
        settings.append(rec)
    doc["settings"] = settings
    return doc


def dataset_from_json(doc):
    """Inverse of `dataset_to_json`."""
    j = float(doc["j"])
    n_total = doc.get("atom_total")

    def dist(axis, rec, key_counts, key_probs):
        if key_counts in rec:
            counts = np.asarray(rec[key_counts], dtype=int)
            total = int(counts.sum())
            if total == 0:  # probabilities 0/0
                raise ValueError(
                    "non-finite projection probability: all counts are zero")
            return ProjectionDistribution(
                j=j, axis=axis, probabilities=counts / total,
                counts=counts, atom_total=total,
            )
        return ProjectionDistribution(
            j=j, axis=axis, probabilities=np.asarray(rec[key_probs], dtype=float)
        )

    zd = dist(Z_AXIS, doc, "z_counts", "z_probs")
    phis, dists = [], []
    for rec in doc["settings"]:
        phis.append(rec["phi"])
        dists.append(dist(equatorial_direction(rec["phi"]), rec, "counts", "probs"))
    provenance = "sampled" if (n_total or zd.counts is not None) else "exact"
    scan = PhaseScan(phis=np.asarray(phis), distributions=dists, provenance=provenance)
    return TomographyDataset(
        z_distribution=zd, equatorial=scan,
        phase_corrections=np.asarray(doc.get("phase_corrections")) if doc.get("phase_corrections") else None,
    )


def _setting_bases(j, settings):
    return np.stack([_axis_basis(j, ax)[0].conj().T for ax in settings])


def forward_model(rho, settings):
    """Born-rule probabilities of rho for each measurement axis; linear in rho."""
    rho = np.asarray(rho)
    bd = _setting_bases(spin_of(rho), settings)
    return np.real(np.einsum("smi,ik,smk->sm", bd, rho, bd.conj()))


@dataclass(frozen=True)
class TomographyFit:
    """Reconstruction result with solver diagnostics.

    `objective_history` records the accepted objective values, which are
    non-increasing; `underdetermined` flags datasets whose linear design
    does not fix every density-matrix coefficient.  `duality_gap` bounds
    how far the final objective lies above its minimum over all density
    matrices, and `converged` is set exactly when that bound meets the
    solver's tolerance.
    """

    rho: np.ndarray
    objective_history: tuple
    converged: bool
    underdetermined: bool
    n_iterations: int
    duality_gap: float

    @property
    def objective(self):
        return self.objective_history[-1]


# A fit is converged once its duality gap is at most _GAP_RTOL times its
# objective plus _GAP_ATOL, the floor for data that a state fits exactly.
_GAP_RTOL = 1e-4
_GAP_ATOL = 1e-12
# Guards a fit that cannot reach the certificate; the slowest fits seen
# on sampled J = 8 data take about 4300 iterations.
_MAX_ITERATIONS = 20000


def _coordinates(h):
    """Real coordinates of Hermitian matrices (last two axes).

    The diagonal, then sqrt(2) times the real and the imaginary parts of
    the upper triangle: an orthonormal basis, so dot products of
    coordinates are Frobenius inner products of the matrices.
    """
    rows, cols = np.triu_indices(h.shape[-1], 1)
    upper = math.sqrt(2.0) * h[..., rows, cols]
    return np.concatenate([np.diagonal(h, axis1=-2, axis2=-1).real,
                           upper.real, upper.imag], axis=-1)


def _hermitian(x, d):
    """The d x d Hermitian matrix with coordinates x."""
    rows, cols = np.triu_indices(d, 1)
    n = len(rows)
    upper = (x[d:d + n] + 1j * x[d + n:]) / math.sqrt(2.0)
    h = np.diag(x[:d].astype(complex))
    h[rows, cols] = upper
    h[cols, rows] = upper.conj()
    return h


def _design(j, settings):
    """Design matrix of one set of measurement settings.

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


def _project(rho):
    """Nearest density matrix (Frobenius norm): eigenvalues onto the simplex."""
    w, v = np.linalg.eigh(rho)
    desc = w[::-1]
    excess = np.cumsum(desc) - 1.0
    k = np.count_nonzero(desc - excess / np.arange(1, len(w) + 1) > 0)
    w = np.maximum(w - excess[k - 1] / k, 0.0)
    return (v * w) @ v.conj().T


def _fit(design, observations, weights):
    """FISTA with monotone restarts over the density matrices."""
    d = math.isqrt(design.shape[1])
    w = np.ones(observations.size) if weights is None else np.ravel(weights)
    target = observations.ravel() - 1.0 / d
    start, _, rank, singular = np.linalg.lstsq(design, target, rcond=None)
    # projected steps of 1/L never raise f, with L = ||sqrt(W) D||_2^2
    # the Lipschitz constant of the gradient; unit weights give
    # singular[0]^2 without another decomposition
    if weights is None:
        lipschitz = singular[0] ** 2
    else:
        lipschitz = np.linalg.norm(np.sqrt(w)[:, None] * design, 2) ** 2
    step = 1.0 / lipschitz

    def evaluate(rho):
        r = design @ _coordinates(rho) - target
        return 0.5 * float(w @ (r * r)), _hermitian(design.T @ (w * r), d)

    def duality_gap(rho, grad):
        # f is convex, so f(rho) - min f <= <grad, rho> - min_sigma <grad, sigma>,
        # and the minimum over density matrices sigma is lambda_min(grad)
        return float(np.vdot(grad, rho).real) - float(np.linalg.eigvalsh(grad)[0])

    rho = _project(_hermitian(start, d) + np.eye(d) / d)
    obj, grad = evaluate(rho)
    history = [obj]
    gap = duality_gap(rho, grad)
    y, grad_y, t, restarted = rho, grad, 1.0, True
    iterations = 0
    while gap > _GAP_RTOL * obj + _GAP_ATOL and iterations < _MAX_ITERATIONS:
        iterations += 1
        trial = _project(y - step * grad_y)
        obj_trial, grad_trial = evaluate(trial)
        if obj_trial >= obj:
            if restarted:
                break  # a plain gradient step from rho no longer descends
            # drop the momentum and retry from the last accepted state
            y, grad_y, t, restarted = rho, grad, 1.0, True
            continue
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        # the gradient is affine in rho, so it extrapolates with y
        y = trial + beta * (trial - rho)
        grad_y = grad_trial + beta * (grad_trial - grad)
        rho, obj, grad, t, restarted = trial, obj_trial, grad_trial, t_next, False
        history.append(obj)
        gap = duality_gap(rho, grad)
    return TomographyFit(
        rho=rho,
        objective_history=tuple(history),
        converged=gap <= _GAP_RTOL * obj + _GAP_ATOL,
        # the identity direction left out of the design is fixed by the trace
        underdetermined=bool(rank + 1 < d * d),
        n_iterations=iterations,
        duality_gap=gap,
    )


def fit_density_matrix(data):
    """Least-squares reconstruction of a physical density matrix.

    Minimizes f(rho) = 0.5 * sum of (predicted - observed)^2 over the
    density matrices by FISTA from the projected linear inversion; the
    objective history is non-increasing.  `converged` certifies
    f(rho) - min f <= duality_gap <= 1e-4 * f(rho) + 1e-12.
    """
    return _fit(_design(data.j, data.settings), data.observations, None)


def _resample_observations(data, rng):
    """Redrawn observation table; the equatorial settings are drawn first."""
    def draw(dist):
        return rng.multinomial(dist.atom_total, dist.probabilities) / dist.atom_total
    equatorial = [draw(d) for d in data.equatorial.distributions]
    return np.array([draw(data.z_distribution), *equatorial])


def bootstrap_errors(data, *, n_resamples=100, seed=0):
    """Elementwise std of |rho| over bootstrap refits.

    Counted data are resampled parametrically: every setting is redrawn
    from a multinomial with its recorded atom total and refitted from
    scratch, exactly as an independent experiment would be, so the
    spread estimates the projection-noise error of the reconstruction.
    Probability-only data carry no noise scale; those refits instead
    draw independent Exp(1) weights (mean 1) per (setting, outcome)
    record, probing the weighting sensitivity of the fit.  Every refit
    shares the design matrix of the dataset's settings.
    """
    if n_resamples < 2:
        raise ValueError("need at least two resamples")
    counted = (data.z_distribution.atom_total is not None and
               all(dd.atom_total is not None
                   for dd in data.equatorial.distributions))
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


@dataclass(frozen=True)
class MultipoleDecomposition:
    """Coefficients rho_ell^q = Tr(T_ell^q^dag rho) of a state.

    Stored as a dense array indexed [ell, q + 2j]; entries with
    |q| > ell are zero.  Reality of the Wigner function corresponds to
    rho_ell^{-q} = (-1)^q conj(rho_ell^q).
    """

    j: float
    coefficients: np.ndarray

    def coefficient(self, ell, q):
        return self.coefficients[ell, q + self.coefficients.shape[0] - 1]

    def reality_residue(self):
        lmax = self.coefficients.shape[0] - 1
        worst = 0.0
        for ell in range(lmax + 1):
            for q in range(ell + 1):
                a = self.coefficient(ell, q)
                b = self.coefficient(ell, -q)
                worst = max(worst, abs(b - (-1) ** q * np.conj(a)))
        return worst


def multipole_decompose(rho):
    """Expand a density matrix on the orthonormal tensor operators."""
    rho = np.asarray(rho)
    j = spin_of(rho)
    lmax = int(round(2 * j))
    coeffs = np.zeros((lmax + 1, 2 * lmax + 1), dtype=complex)
    for ell in range(lmax + 1):
        for q in range(-ell, ell + 1):
            coeffs[ell, q + lmax] = np.vdot(tensor_operator(j, ell, q), rho)
    return MultipoleDecomposition(j=j, coefficients=coeffs)


def reconstruct_density(decomp):
    """Sum the multipole expansion back into a density matrix."""
    j = decomp.j
    lmax = decomp.coefficients.shape[0] - 1
    d = int(round(2 * j)) + 1
    rho = np.zeros((d, d), dtype=complex)
    for ell in range(lmax + 1):
        for q in range(-ell, ell + 1):
            rho += decomp.coefficient(ell, q) * tensor_operator(j, ell, q)
    return rho


def wigner(rho, thetas, phis, *, with_residue=False):
    """Angular Wigner function W(theta, phi) = sum rho_ell^q Y_ell^q.

    Returns the real field on the (theta, phi) grid; with_residue=True
    additionally returns the largest imaginary part discarded.  The
    integral over the sphere equals sqrt(4 pi / (2j+1)) for any unit
    trace state.
    """
    thetas = np.asarray(thetas, dtype=float)
    phis = np.asarray(phis, dtype=float)
    decomp = multipole_decompose(rho)
    lmax = decomp.coefficients.shape[0] - 1
    w = np.zeros((len(thetas), len(phis)), dtype=complex)
    for q in range(-lmax, lmax + 1):
        profile = np.zeros(len(thetas), dtype=complex)
        for ell in range(abs(q), lmax + 1):
            c = decomp.coefficient(ell, q)
            if c != 0:
                profile += c * spherical_harmonic(ell, q, thetas, 0.0)
        if np.any(profile):
            w += np.outer(profile, np.exp(1j * q * phis))
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
