"""Reference forms of the stepped MCWF march and of its rate calibration.

`reference_steps` is the per-step loop the engine replaced: every step
applies half the static field, rotates each row into its sample's kmat
eigenbasis for the light and decay terms and back, applies the quartic
term in its own eigenbasis, tests every row's squared norm against its
jump threshold, and applies the other half of the field.  It takes the
same `_Pulse`, decay and seed as `_run_steps` and draws its thresholds
and channel picks from the same substreams.

`reference_rate` is the rate calibration's former fixed-point update,
gamma <- -log(1 - p) / (-log S(gamma) / gamma), iterated until it moves
by at most 1e-12 relative instead of three times (at p = 0.007 the
rounding of log S leaves it jittering at about 1e-14).  It marches one
row of the nominal atom with `ensemble._run_steps`.
"""

import math

import numpy as np

from mesospin import ensemble
from mesospin.ensemble import _apply_jump, scattering_channels
from mesospin.rng import substream


def reference_rate(initial, cfg, imp, t, ops):
    """Converged unit-intensity jump rate of the nominal atom."""
    target = imp.scattering_probability
    two_j = int(round(2 * ops.j))
    initial = np.asarray(initial, dtype=complex)
    pulse = ensemble._stepped_pulse(cfg, imp, ops, np.ones(1), np.zeros(1), t)
    kmat = ensemble._kmat(two_j, [0.0])[0]
    expect = float(np.real(np.vdot(initial, kmat @ initial)))
    gamma = target / (expect * t)
    for _ in range(1000):
        psi = ensemble._run_steps(initial[None, None, :], pulse,
                                  (np.array([gamma]), two_j))
        survival = float(np.real(np.vdot(psi[0, 0], psi[0, 0])))
        update = -math.log1p(-target) * gamma / -math.log(survival)
        if abs(update - gamma) <= 1e-12 * gamma:
            return update
        gamma = update
    raise AssertionError("the fixed-point update did not settle")


def reference_steps(psi, pulse, decay=None, seed=None):
    """States after the stepped pulse, marched step by step."""
    light_scale, kw, kv = pulse.light
    kv_t = kv.transpose(0, 2, 1)  # kv is real, so kv^dag = kv^T
    rates = 0.0 if decay is None else decay[0]
    exponent = (-1j * light_scale - 0.5 * rates)[:, None] * kw
    ds = pulse.ds
    field_t = None if pulse.field_half is None else pulse.field_half.T
    if pulse.quartic is not None:
        scale, qw, qv = pulse.quartic
        quartic_phase = -1j * scale[:, None] * qw[None, :]
        qv_c, qv_t = qv.conj(), qv.T
    jumping = decay is not None and seed is not None
    if jumping:
        first = [substream(seed, 1, i, 0).random() for i in range(psi.shape[1])]
        threshold = np.tile(first, (psi.shape[0], 1))
        jumps = np.zeros(psi.shape[:2], dtype=int)
    for e_k, e2_k in zip(pulse.env, pulse.env2):
        if field_t is not None:
            psi = psi @ field_t
        amp = psi[:, :, None, :] @ kv
        amp *= np.exp(exponent * (e_k * ds))[:, None, :]
        psi = (amp @ kv_t)[:, :, 0, :]
        if pulse.quartic is not None:
            amp = psi @ qv_c
            amp *= np.exp(quartic_phase * (e2_k * ds))
            psi = amp @ qv_t
        if jumping:
            norms = np.real(np.einsum("bni,bni->bn", psi, psi.conj()))
            for b, i in zip(*np.nonzero(norms < threshold)):
                jumps[b, i] += 1
                pick, threshold[b, i] = substream(
                    seed, 1, i, int(jumps[b, i])).random(2)
                channels = scattering_channels(decay[1] / 2.0, pulse.eps[i])
                psi[b, i] = _apply_jump(psi[b, i], channels, pick)
        if field_t is not None:
            psi = psi @ field_t
    return psi
