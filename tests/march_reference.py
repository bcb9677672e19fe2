"""Reference form of the stepped MCWF march, kept to check `ensemble._run_steps`.

`reference_steps` is the per-step loop the engine replaced: every step
applies half the static field, rotates each row into its sample's kmat
eigenbasis for the light and decay terms and back, applies the quartic
term in its own eigenbasis, tests every row's squared norm against its
jump threshold, and applies the other half of the field.  It takes the
same `_Pulse`, decay and seed as `_run_steps` and draws its thresholds
and channel picks from the same substreams.
"""

import numpy as np

from mesospin.ensemble import _apply_jump, scattering_channels
from mesospin.rng import substream


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
