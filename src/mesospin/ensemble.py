"""Ensemble averages over experimental imperfections and photon scattering.

A cloud of independent spins sees slightly different light pulses:
atoms away from the beam axis see less intensity, atoms away from the
focus see an elliptical polarization, the quantization field is tilted
and adds Larmor precession, the prepared state has a small population
leak, the pulse has a finite rise time, and a small fraction of atoms
scatters a photon.  Averaging pure-state evolutions over these
imperfections yields the mixed state actually probed, and each effect
can be toggled individually to budget its impact.

The light shift and the photon scattering are one coupling: the drive
near the J -> J+1 line, polarized (x + i eps y)/sqrt(1 + eps^2), has the
real absorption operator (X - eps Y)/sqrt(1 + eps^2), and each sample's
light shift (up to a global phase), its decay and its jump channels all
come from that operator at the sample's own intensity and ellipticity
(Deutsch & Jessen, Opt. Commun. 283, 681 (2010)).  A sample's jumps
therefore follow its local polarization.

Photon scattering uses the Monte Carlo wavefunction (MCWF) method:
between jumps the state evolves under H - (i/2) sum L_q^dag L_q, and it
jumps through one of the Rayleigh/Raman channels L_q once its squared
norm falls below a uniform threshold, one draw per jump (Dum, Zoller &
Ritsch, PRA 45, 4879 (1992)).  One stepped engine, `_run_steps`, serves
every stepped evolution: the ensemble average with a finite rise time
or scattering, in which the main and leak starters step in one batch,
and the calibration of the jump rate on the nominal atom.  Each step
lasts at most PULSE_STEP_S and takes the exact means of the rise
envelope and of its square over the step: each sample's light, decay
and quartic terms commute with themselves at every envelope value, and
the light and decay terms share one eigenbasis, so only the Strang
splitting against the static field is left to converge.  Each state
stays in its sample's eigenbasis for the whole pulse, where a step is
one diagonal phase and one product with a fixed per-sample matrix that
carries the static field.  kmat couples only m of equal parity, so each
sample's eigenbasis comes from two half-size eigensolves.  These step
errors hold between jumps; a jump's time is resolved to one step.  The
jump rate is calibrated on the nominal atom alone, so it depends on the
physics and never on the samples, the cloud, the leak or the seed.  The
nominal atom rides as extra rows of the ensemble's one stepped pulse,
and the calibration marches it at three trial rates in one batch, one
round per ensemble call unless the scattering probability is large.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .angular import clebsch_gordan
from .core import basis_state, expi_hermitian, make_operators, spin_of
from .rng import substream

__all__ = [
    "ImperfectionConfig",
    "ensemble_evolve",
    "scattering_channels",
    "pulse_steps",
]


@dataclass(frozen=True)
class ImperfectionConfig:
    """Experimental imperfections entering the ensemble average.

    Each sample draws an atom position in the Gaussian cloud (rms
    radius `cloud_sigma`); the beam profile (waist `beam_waist`) then
    fixes its relative intensity and the beam divergence (half-angle
    `beam_divergence`) its polarization ellipticity.  A point cloud,
    `cloud_sigma` = 0 (the default), puts every sample on the beam axis
    with unit intensity and no ellipticity.
    """

    field_axis_components: tuple = None
    initial_leak_fraction: float = 0.0
    pulse_rise_time: float = 0.0
    scattering_probability: float = 0.0
    ensemble_samples: int = 2000
    cloud_sigma: float = 0.0
    beam_waist: float = 50e-6
    beam_divergence: float = 4e-3

    def __post_init__(self):
        if not 0.0 <= self.initial_leak_fraction <= 1.0:
            raise ValueError("initial_leak_fraction must lie in [0, 1]")
        # certain scattering leaves no no-jump survival to calibrate on
        if not 0.0 <= self.scattering_probability < 1.0:
            raise ValueError("scattering_probability must lie in [0, 1)")
        if self.pulse_rise_time < 0:
            raise ValueError("pulse rise time must be non-negative")
        if self.ensemble_samples < 1:
            raise ValueError("need at least one ensemble sample")
        if self.cloud_sigma < 0:
            raise ValueError("cloud_sigma must be non-negative")
        for name in ("beam_waist", "beam_divergence"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        axis = self.field_axis_components
        if axis is not None:
            vec = np.asarray(axis, dtype=float)
            norm = np.linalg.norm(vec)
            if vec.shape != (3,) or norm == 0:
                raise ValueError("field axis must be a nonzero 3-vector")
            # printed component lists may be slightly off unit norm; keep
            # already-normalized vectors bit-stable so serialization
            # round-trips to the same configuration hash
            if abs(norm - 1.0) > 1e-12:
                vec = vec / norm
            object.__setattr__(self, "field_axis_components",
                               tuple(float(c) for c in vec))

    @property
    def field_axis(self):
        if self.field_axis_components is None:
            return None
        return np.array(self.field_axis_components)


def _imperfection_draws(imp, seed):
    """Per-sample relative intensity f and polarization ellipticity."""
    n = imp.ensemble_samples
    f = np.ones(n)
    eps = np.zeros(n)
    if imp.cloud_sigma == 0:
        return f, eps
    sigma = imp.cloud_sigma / math.sqrt(2.0)
    for i in range(n):
        x, z = substream(seed, 0, i).normal(0.0, sigma, 2)
        f[i] = math.exp(-2.0 * (x * x + z * z) / imp.beam_waist**2)
        eps[i] = imp.beam_divergence * x / imp.beam_waist
    return f, eps


def _hamiltonian_parts(cfg, imp, ops, f, eps):
    """Split per-sample Hamiltonians into light, quartic, and field terms.

    The light term is -(j+1)(2j+1) omega f kmat(eps) per sample, which
    is omega f [(Jx^2 + eps^2 Jy^2) - (2j+3) eps Jz]/(1 + eps^2) less a
    global phase.  The light and quartic parts scale with the local
    intensity (once and twice respectively) and are returned as (scale,
    operator) pairs; the static-field term is shared.  All terms are in
    rad/s.
    """
    j = ops.j
    omega = cfg.omega * f
    light = (-(j + 1) * (2 * j + 1) * omega, _kmat(int(round(2 * j)), eps))
    quartic = None
    if cfg.include_jx4:
        jx2 = ops.jx @ ops.jx
        qmat = (2 * j * j + 3 * j + 1) * jx2 + jx2 @ jx2
        quartic = (omega**2 / cfg.detuning, qmat)
    field = None
    if cfg.omega_larmor:
        b = imp.field_axis
        field = cfg.omega_larmor * (
            ops.jz if b is None else b[0] * ops.jx + b[1] * ops.jy + b[2] * ops.jz)
    return light, quartic, field


def _pulse_duration(area_time, rise):
    """Duration of a pulse with exponential rise and the same area.

    Solves T - rise * (1 - exp(-T/rise)) = area_time, so the integrated
    intensity matches a square pulse of length area_time.  The left
    side is convex and increasing in T and overshoots at T = area_time
    + rise, so Newton steps from there fall monotonically onto the root;
    they stop once a step no longer lowers T.
    """
    if rise == 0:
        return area_time
    total = area_time + rise
    while True:
        slope = -math.expm1(-total / rise)
        lower = total - (total - rise * slope - area_time) / slope
        if not lower < total:
            return total
        total = lower


@lru_cache(maxsize=None)
def _dipole_blocks(two_j):
    """Coupling matrices ground J -> excited J+1 for photon polarization q."""
    j = two_j / 2.0
    d = two_j + 1
    blocks = []
    for q in (-1, 0, 1):
        block = np.zeros((d + 2, d))
        for col in range(d):
            m = col - j
            block[col + q + 1, col] = clebsch_gordan(j, m, 1, q, j + 1, m + q)
        block.setflags(write=False)
        blocks.append(block)
    return tuple(blocks)


@lru_cache(maxsize=None)
def _light_coupling(two_j):
    """Fixed real parts X, Y and (A0, A1, A2) of the drive's coupling.

    At ellipticity eps the absorption operator is (X - eps Y)/sqrt(1 +
    eps^2).  The dipole blocks sum to the identity on the excited level,
    so kmat = sum_q L_q^dag L_q is (A0 - eps A1 + eps^2 A2)/(1 + eps^2).
    """
    minus, _, plus = _dipole_blocks(two_j)
    x = (minus - plus) / math.sqrt(2.0)
    y = (minus + plus) / math.sqrt(2.0)
    xy = x.T @ y
    parts = (x, y, np.stack([x.T @ x, xy + xy.T, y.T @ y]))
    for arr in parts:
        arr.setflags(write=False)
    return parts


def _kmat(two_j, eps):
    """kmat = sum_q L_q^dag L_q at each ellipticity in eps, stacked."""
    e = np.asarray(eps, dtype=float)
    weights = np.stack([np.ones_like(e), -e, e * e], axis=1) / (1.0 + e * e)[:, None]
    return np.einsum("np,pij->nij", weights, _light_coupling(two_j)[2])


def scattering_channels(j, eps=0.0):
    """Jump operators for photon scattering on the J -> J+1 line.

    Returns three real ground-state operators L_q, one per
    emitted-photon polarization, at unit overall rate, for the drive
    polarization (x + i eps y)/sqrt(1 + eps^2).  Their sum kmat =
    sum L_q^dag L_q is proportional to the light shift of that drive.
    """
    two_j = int(round(2 * j))
    x, y, _ = _light_coupling(two_j)
    absorb = (x - eps * y) / math.sqrt(1.0 + eps * eps)
    return [b.T @ absorb for b in _dipole_blocks(two_j)]


def _apply_jump(psi, channels, rng_value):
    """Replace psi by one normalized jump channel, chosen by branching ratio."""
    outs = [ch @ psi for ch in channels]
    weights = np.array([np.real(np.vdot(out, out)) for out in outs])
    edges = np.cumsum(weights) / weights.sum()
    pick = min(int(np.searchsorted(edges, rng_value)), len(channels) - 1)
    return outs[pick] / math.sqrt(float(weights[pick]))


# Longest step of the stepped engine.  The error is second order in the
# step: at 3.5 ns, rho of 40 samples of the default physics (seed 7) lies
# within 1.8e-5 (j = 4) and 4.1e-5 (j = 8) in Frobenius norm of a
# 0.05 ns reference, less than a 1 ns grid of midpoint envelope values
# leaves (2.9e-5 and 4.5e-5).  The kitten pulse (174.7 ns) takes 50 steps.
# A jump's time is resolved to one step: on a 0.5 ns grid, j = 8, 40
# samples and seeds 0-39 jump as often and rho moves by at most 3.9e-3.
PULSE_STEP_S = 3.5e-9
# The rise dominates short pulses; 24 steps keep the first ten fig2
# pulse times (areas of 3-32 ns, j = 8, no scattering) within 2.8e-5.
_MIN_STEPS = 24


class _Pulse(NamedTuple):
    """A pulse cut into steps, as the stepped engine consumes it."""

    env: np.ndarray          # mean intensity envelope over each step
    env2: np.ndarray         # mean squared envelope over each step
    ds: float                # step length
    light: tuple             # (per-sample scale, eigh (kw, kv) of each sample's kmat)
    eps: np.ndarray          # per-sample ellipticity, which sets its jump channels
    quartic: tuple | None    # (per-sample scale, qw, qv) of the quartic term
    field_half: np.ndarray | None  # static-field propagator over ds / 2


def _step_count(duration):
    """Steps of a stepped pulse lasting `duration` seconds."""
    return max(_MIN_STEPS, math.ceil(duration / PULSE_STEP_S))


def pulse_steps(imp, t):
    """Steps the ensemble takes for a pulse of area time t.

    0 without rise time and scattering: each sample then takes one exact
    propagator.
    """
    if imp.pulse_rise_time == 0 and imp.scattering_probability == 0:
        return 0
    return _step_count(_pulse_duration(t, imp.pulse_rise_time))


def _envelope_means(n_steps, ds, rise):
    """Exact means of env = 1 - exp(-s/rise) and of env^2 over each step.

    With x = exp(-s_k/rise) at the step's start, the means are
    1 - c1 x and 1 - 2 c1 x + c2 x^2, where c1 and c2 are the means of
    exp(-u/rise) and exp(-2u/rise) over one step.
    """
    if rise == 0 or ds == 0:  # no rise, or a pulse of zero area
        ones = np.ones(n_steps)
        return ones, ones
    x = np.exp(-np.arange(n_steps) * (ds / rise))
    c1 = -math.expm1(-ds / rise) * rise / ds
    c2 = -math.expm1(-2.0 * ds / rise) * rise / (2.0 * ds)
    return 1.0 - c1 * x, 1.0 - 2.0 * c1 * x + c2 * x * x


def _stepped_pulse(cfg, imp, ops, f, eps, t):
    """Pulse of area time t for the samples with intensities f, ellipticities eps."""
    (light_scale, kmat), quartic, field = _hamiltonian_parts(cfg, imp, ops, f, eps)
    duration = _pulse_duration(t, imp.pulse_rise_time)
    n_steps = _step_count(duration)
    ds = duration / n_steps
    env, env2 = _envelope_means(n_steps, ds, imp.pulse_rise_time)
    quartic_eig = None
    if quartic is not None:
        scale, qmat = quartic
        quartic_eig = (scale, *np.linalg.eigh(qmat))
    field_half = None if field is None else expi_hermitian(field, ds / 2.0)
    kw, kv = _parity_eigh(kmat)
    return _Pulse(env, env2, ds, (light_scale, kw, kv), eps, quartic_eig,
                  field_half)


def _parity_eigh(kmat):
    """(kw, kv) of each kmat in the stack, from one eigensolve per parity.

    kmat couples only m of equal parity: Jx^2, Jy^2 and Jz change m by
    an even amount, so its entries between indices of odd offset are
    exactly 0.  The eigenvectors of the even and the odd indices fill
    the first ceil(d/2) and the last floor(d/2) columns of kv.  The
    eigenvalues are sorted within each block only; the march uses
    kv diag(kw) kv^T alone, so neither the order nor the basis of a
    degenerate eigenspace matters.  kv is complex, so that no step
    casts the real eigenvectors again.
    """
    n, d, _ = kmat.shape
    half = (d + 1) // 2
    kw = np.empty((n, d))
    kv = np.zeros((n, d, d), dtype=complex)
    for parity, cols in ((0, slice(None, half)), (1, slice(half, None))):
        kw[:, cols], kv[:, parity::2, cols] = np.linalg.eigh(
            kmat[:, parity::2, parity::2])
    return kw, kv


def _pulse_rows(pulse, rows):
    """The pulse of the samples in the slice `rows` alone."""
    scale, kw, kv = pulse.light
    quartic = pulse.quartic
    if quartic is not None:
        quartic = (quartic[0][rows], *quartic[1:])
    return pulse._replace(light=(scale[rows], kw[rows], kv[rows]),
                          eps=pulse.eps[rows], quartic=quartic)


def _rows(c, mats, out=None):
    """Each row of c times its sample's matrix, one row per product.

    c has shape (blocks, samples, dim) and mats (samples, dim, dim), or
    one (dim, dim) for every row.  BLAS rounds a single row unlike a
    stack of rows, so a row rounds alike in any batch.  The rows go
    into `out` when given, an array like c that does not overlap it.
    """
    if out is None:
        return (c[:, :, None, :] @ mats)[:, :, 0, :]
    np.matmul(c[:, :, None, :], mats, out=out[:, :, None, :])
    return out


def _squared_norms(c):
    return np.real(np.einsum("bni,bni->bn", c, c.conj()))


class _March:
    """The stepped pulse as row products in each sample's own eigenbasis.

    A row holds a state's coordinates in the basis of the current stage
    of a step: its sample's kmat eigenbasis kv for the light and decay
    terms, then the quartic eigenbasis qv.  In either basis a stage is
    one diagonal phase.  Both bases are real, so a basis B takes a row
    of states into its coordinates as row @ B and back as B @ column.
    Two row-form matrices per sample carry a row between the stages:
    `inner` from kv into qv, and `wrap` from a step's last basis through
    the whole static field F_h F_h into kv.  A step therefore costs one
    product, or two with the quartic term, and none without field and
    quartic.  Rows enter kv through the leading half field F_h and leave
    the last basis through the trailing one only once per pulse.
    """

    def __init__(self, pulse, decay):
        light_scale, kw, kv = pulse.light
        rates = 0.0 if decay is None else decay[0]
        self.pulse = pulse
        self.exponent = (-1j * light_scale - 0.5 * rates)[:, None] * kw
        self.kv = kv
        self.inner = None
        self.last = kv  # the basis a step ends in, where a row jumps
        if pulse.quartic is not None:
            scale, qw, qv = pulse.quartic
            self.quartic_phase = -1j * scale[:, None] * qw[None, :]
            self.inner = kv.transpose(0, 2, 1) @ qv
            self.last = np.ascontiguousarray(qv, dtype=complex)
        self.field_t = self.wrap = None
        if pulse.field_half is not None:
            self.field_t = np.ascontiguousarray(pulse.field_half.T)
            whole = self.field_t @ self.field_t
            self.wrap = np.swapaxes(self.last, -1, -2) @ (whole @ kv)
        elif self.inner is not None:
            self.wrap = self.last.T @ kv

    def run(self, psi, samples=slice(None), on_step=None):
        """(states, squared norms) after the pulse.

        Row i of each block of psi belongs to sample samples[i].  The
        squared norms are those at the end of the last step, before the
        trailing half field.  on_step(c) sees the rows after the light,
        decay and quartic terms of every step and may change them.  A
        step allocates nothing: its phases and row products go into
        buffers made once per march.
        """
        ds = self.pulse.ds
        kv, inner, wrap, last = (
            m if m is None or m.ndim == 2 else m[samples]
            for m in (self.kv, self.inner, self.wrap, self.last))
        if self.field_t is not None:
            psi = _rows(psi, self.field_t)
        c = _rows(psi, kv)
        spare = np.empty_like(c)
        exponent = self.exponent[samples]
        phase = np.empty_like(exponent)
        if inner is not None:
            quartic_phase = self.quartic_phase[samples]
        for k, (e_k, e2_k) in enumerate(zip(self.pulse.env, self.pulse.env2)):
            if k and wrap is not None:
                c, spare = _rows(c, wrap, spare), c
            c *= np.exp(np.multiply(exponent, e_k * ds, out=phase), out=phase)
            if inner is not None:
                c, spare = _rows(c, inner, spare), c
                c *= np.exp(np.multiply(quartic_phase, e2_k * ds, out=phase),
                            out=phase)
            if on_step is not None:
                on_step(c)
        psi = (last @ c[:, :, :, None])[:, :, :, 0]
        if self.field_t is not None:
            psi = _rows(psi, self.field_t)
        return psi, _squared_norms(c)


def _run_steps(psi, pulse, decay=None, seed=None):
    """March states through the stepped pulse: the one MCWF engine.

    `_ensemble_density` steps the samples with it and
    `_calibrate_ensemble_rate` the nominal atom.

    psi has shape (blocks, samples, dim); per-sample terms broadcast
    over blocks, so several initial states step in one batch.  Each
    step applies half the static field, the light and decay terms at
    the step's mean envelope, the quartic term at its mean squared
    envelope, then the other half of the field.  Each row stays in its
    sample's eigenbasis for the whole pulse (see `_March`) and leaves it
    only at the end and at a jump.  decay = (rates, two_j) holds each
    sample's jump rate and the spin's 2j; states are never renormalised,
    so their norms decay, which is all the rate calibration (seed None)
    needs.  With a seed, state (b, i) jumps after the light and decay
    terms of the first step that takes its squared norm below a uniform
    threshold from substream(seed, 1, i, 0), through the channels of
    its own ellipticity; its k-th jump draws the channel pick and the
    next threshold from substream(seed, 1, i, k), shared by every block.
    A no-jump norm only falls, so the batch marches without a norm test
    and only the rows that end below their threshold replay from the
    start, with the same row products.  The PULSE_STEP_S errors hold
    between jumps; a jump's time is resolved to one step.
    """
    march = _March(pulse, decay)
    out, norms = march.run(psi)
    if decay is None or seed is None:
        return out
    threshold = np.array([substream(seed, 1, i, 0).random()
                          for i in range(psi.shape[1])])
    blocks, samples = np.nonzero(norms < threshold)
    if blocks.size == 0:
        return out
    # the replayed rows, each with its own threshold and jump count; the
    # channels are built once per sample
    threshold, jumps = threshold[samples], np.zeros(samples.size, dtype=int)
    channels = {i: scattering_channels(decay[1] / 2.0, pulse.eps[i])
                for i in set(samples.tolist())}

    def jump(c):
        for r in np.nonzero(_squared_norms(c)[0] < threshold)[0]:
            i = int(samples[r])
            jumps[r] += 1
            pick, threshold[r] = substream(seed, 1, i, int(jumps[r])).random(2)
            basis = march.last if march.last.ndim == 2 else march.last[i]
            c[0, r] = _apply_jump(basis @ c[0, r], channels[i], pick) @ basis

    out[blocks, samples] = march.run(psi[None, blocks, samples], samples, jump)[0][0]
    return out


def _ensemble_density(initial, cfg, imp, t, f, eps, seed, ops):
    """Average the per-sample evolutions into a density matrix."""
    dim = initial.size
    n = len(f)
    starters = [(1.0 - imp.initial_leak_fraction, initial)]
    if imp.initial_leak_fraction > 0:
        starters.append((imp.initial_leak_fraction, basis_state(ops.j, -ops.j + 1)))

    rho = np.zeros((dim, dim), dtype=complex)
    if pulse_steps(imp, t) == 0:
        (light_scale, kmat), quartic, field = _hamiltonian_parts(
            cfg, imp, ops, f, eps)
        h = light_scale[:, None, None] * kmat
        if field is not None:
            h = h + field[None]
        if quartic is not None:
            scale, qmat = quartic
            h = h + scale[:, None, None] * qmat[None]
        w, v = np.linalg.eigh(h)
        for weight, psi0 in starters:
            amp = np.einsum("nmk,m->nk", v.conj(), psi0)
            amp *= np.exp(-1j * w * t)
            psis = np.einsum("nik,nk->ni", v, amp)
            rho += weight * np.einsum("ni,nk->ik", psis, psis.conj())
        return rho / n

    # the nominal atom rides as _TRIAL_OFFSETS.size extra rows of the one
    # pulse, for the rate calibration
    calibrate = imp.scattering_probability > 0 and t > 0
    extra = _TRIAL_OFFSETS.size if calibrate else 0
    pulse = _stepped_pulse(cfg, imp, ops, np.concatenate([f, np.ones(extra)]),
                           np.concatenate([eps, np.zeros(extra)]), t)
    decay = None
    if calibrate:
        gamma = _calibrate_ensemble_rate(initial, cfg, imp, t, ops,
                                         _pulse_rows(pulse, slice(n, None)))
        decay = (gamma * f, int(round(2 * ops.j)))
    # one block per starter, stepped in one batch
    psi = np.stack([np.repeat(psi0[None, :], n, axis=0)
                    for _, psi0 in starters]).astype(complex)
    psi = _run_steps(psi, _pulse_rows(pulse, slice(None, n)), decay, seed)
    norms = _squared_norms(psi)
    psi = psi / np.sqrt(norms)[:, :, None]
    for (weight, _), block in zip(starters, psi):
        rho += weight * np.einsum("ni,nk->ik", block, block.conj())
    return rho / n


_TRIAL_OFFSETS = np.array([-1.0, 0.0, 1.0])  # trial rates g + x h, per round
_RATE_BRACKET = 0.01                         # h / g
_RATE_TOL = 1e-10                            # estimated error / rate
_RATE_ROUNDS = 8


def _calibrate_ensemble_rate(initial, cfg, imp, t, ops, nominal=None):
    """Unit-intensity jump rate hitting the configured pulse probability.

    The rate belongs to the nominal atom (unit intensity, no
    ellipticity), so it depends on the physics alone and never on the
    samples, the cloud, the leak or the seed.  Its no-jump survival S
    over the pulse is 1 - p, p the scattering probability.  `nominal` is
    the pulse of the nominal atom's _TRIAL_OFFSETS.size rows that
    `_ensemble_density` builds with its samples; without it the
    calibration builds its own.  Eigensolves and row products treat
    each row on its own, so both give the same rate bit for bit.

    The first centre g is the exponential model's -log(1 - p)/(<kmat> t).
    A round marches the trial rates in one batch, fits log S as a
    quadratic in the rate through them, and moves g to its root nearest
    g (to Newton's root where the quadratic has none).  The cubic term
    that the exact log S(0) = 0 adds to the quadratic estimates the
    root's error.  The calibration ends once the root lies within the
    bracket and that error is at most _RATE_TOL of the rate: over
    2j = 7, 8 and 16, after one round for p <= 0.3, two at p = 0.9 and
    three or four at p = 1 - 1e-7, within 4e-11 of the converged rate.
    After _RATE_ROUNDS rounds, or if S does not fall with the rate, it
    raises RuntimeError, which the command line reports as a numerical
    failure.
    """
    target = imp.scattering_probability
    if target == 0:
        return 0.0
    initial = np.asarray(initial, dtype=complex)
    two_j = int(round(2 * ops.j))
    if nominal is None:
        nominal = _stepped_pulse(cfg, imp, ops, np.ones(_TRIAL_OFFSETS.size),
                                 np.zeros(_TRIAL_OFFSETS.size), t)
    psi = np.repeat(initial[None, None, :], _TRIAL_OFFSETS.size, axis=1)
    goal = math.log1p(-target)
    expect = float(np.real(np.vdot(initial, _kmat(two_j, [0.0])[0] @ initial)))
    gamma = -goal / max(expect * t, 1e-300)
    for _ in range(_RATE_ROUNDS):
        h = _RATE_BRACKET * gamma
        out = _run_steps(psi, nominal, (gamma + h * _TRIAL_OFFSETS, two_j))
        low, mid, high = np.log(_squared_norms(out)[0])
        slope = (high - low) / (2.0 * h)
        if not slope < 0:
            break
        curve = (high - 2.0 * mid + low) / (2.0 * h * h)
        miss = goal - mid
        disc = slope * slope + 4.0 * curve * miss
        move = miss / slope if disc < 0 else (
            2.0 * miss / (slope - math.sqrt(disc)))
        # the cubic d u^3, d = q(-g)/g^3 for the quadratic q(u) about g,
        # moves the root u by d u (u^2 - h^2) / slope
        cubic = (mid - slope * gamma + curve * gamma * gamma) / gamma**3
        error = abs(cubic * move * (move * move - h * h) / slope)
        gamma += move
        if abs(move) <= h and error <= _RATE_TOL * gamma:
            return gamma
    raise RuntimeError("the scattering-rate calibration did not converge")


def ensemble_evolve(initial, cfg, imp, t, seed):
    """Mixed state after the pulse, averaged over sampled imperfections.

    Each sample draws a relative intensity and ellipticity, evolves the
    (possibly leaky) initial state under its own Hamiltonian for time t
    with the configured pulse shape and scattering, and the projectors
    are averaged.  Fixed seeds reproduce the result bit for bit.
    """
    initial = np.asarray(initial, dtype=complex)
    if initial.ndim != 1:
        raise ValueError("ensemble evolution starts from a state vector")
    ops = make_operators(spin_of(initial))
    f, eps = _imperfection_draws(imp, seed)
    return _ensemble_density(initial, cfg, imp, t, f, eps, seed, ops)
