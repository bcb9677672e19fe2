"""Run configuration: versioned JSON schema with unit-suffixed keys.

Every physical quantity carries its unit in the key name
(omega_rad_per_s, cloud_sigma_m, ...) so files stay unambiguous, and
the document less its output section hashes to a stable identifier
that artifact metadata embeds for reproducibility.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, replace

from .dephasing import NoiseModel
from .dynamics import CouplingConfig
from .ensemble import ImperfectionConfig

__all__ = [
    "SCHEMA_VERSION",
    "RunConfig",
    "default_config",
    "config_to_json",
    "config_from_json",
    "load_config",
    "canonical_json",
    "config_hash",
    "apply_overrides",
]

SCHEMA_VERSION = 4

# One (JSON key, attribute, type) row per setting.  The tables are the
# only place a key is named: writing, reading and the unknown/missing
# key check all follow them.  A `tuple` setting may be null.
_RUN_KEYS = (
    ("j", "j", float),
    ("atom_total", "atom_total", int),
    ("seed", "seed", int),
)
_COUPLING_KEYS = (
    ("omega_rad_per_s", "omega", float),
    ("omega_larmor_rad_per_s", "omega_larmor", float),
    ("detuning_rad_per_s", "detuning", float),
)
_IMPERFECTION_KEYS = (
    ("field_axis_components", "field_axis_components", tuple),
    ("initial_leak_fraction", "initial_leak_fraction", float),
    ("pulse_rise_time_s", "pulse_rise_time", float),
    ("scattering_probability", "scattering_probability", float),
    ("ensemble_samples", "ensemble_samples", int),
    ("cloud_sigma_m", "cloud_sigma", float),
    ("beam_waist_m", "beam_waist", float),
    ("beam_divergence_rad", "beam_divergence", float),
)
_OUTPUT_KEYS = (
    ("directory", "out_dir", str),
    ("format", "out_format", str),
)
# noise kind -> (JSON key, attribute) of its scale
_NOISE_SCALES = {
    "static-gaussian": ("rms_field_t", "rms_field"),
    "markovian": ("diffusion_t2_s", "diffusion"),
}
_SECTIONS = ("coupling", "imperfections", "noise", "output")


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs: physics, imperfections, sampling, output."""

    j: float
    coupling: CouplingConfig
    imperfections: ImperfectionConfig
    noise: NoiseModel
    atom_total: int
    seed: int
    out_dir: str = "."
    out_format: str = "csv"

    def __post_init__(self):
        if self.j <= 0 or (2 * self.j) % 1:
            raise ValueError("j must be a positive integer or half-integer")
        if self.atom_total < 1:
            raise ValueError("atom_total must be at least 1")
        # every command times its pulse as pi/2 over omega
        if self.coupling.omega <= 0:
            raise ValueError("omega_rad_per_s must be positive")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit an unsigned 64-bit integer")
        if self.out_format not in ("csv", "json"):
            raise ValueError("output format must be 'csv' or 'json'")

    def kitten_pulse_time(self):
        """Nominal quarter-revival pulse duration (pi/2 of twisting phase)."""
        return (math.pi / 2.0) / self.coupling.omega


def default_config():
    """Experimental parameters of the dysprosium J=8 measurements."""
    coupling = CouplingConfig(
        omega=2 * math.pi * 1.98e6,
        omega_larmor=2 * math.pi * 31.7e3,
        detuning=-2 * math.pi * 1.5e9,
    )
    imperfections = ImperfectionConfig(
        field_axis_components=(0.09, -0.11, 0.98),
        initial_leak_fraction=0.03,
        pulse_rise_time=50e-9,
        scattering_probability=0.007,
        ensemble_samples=2000,
        cloud_sigma=7.3e-6,
        beam_waist=50e-6,
        beam_divergence=4e-3,
    )
    noise = NoiseModel.static_from_time(740e-6)
    return RunConfig(
        j=8.0,
        coupling=coupling,
        imperfections=imperfections,
        noise=noise,
        atom_total=90000,
        seed=0,
    )


def _plain(value):
    return list(value) if isinstance(value, tuple) else value


def _write(obj, table):
    return {key: _plain(getattr(obj, attr)) for key, attr, _ in table}


def config_to_json(cfg):
    """JSON document for a RunConfig, with unit-suffixed keys."""
    key, attr = _NOISE_SCALES[cfg.noise.kind]
    return {
        "schema_version": SCHEMA_VERSION,
        **_write(cfg, _RUN_KEYS),
        "coupling": _write(cfg.coupling, _COUPLING_KEYS),
        "imperfections": _write(cfg.imperfections, _IMPERFECTION_KEYS),
        "noise": {"kind": cfg.noise.kind, key: getattr(cfg.noise, attr)},
        "output": _write(cfg, _OUTPUT_KEYS),
    }


def _keys(table):
    return [key for key, _, _ in table]


def _take(section, name, required, allowed=None):
    if not isinstance(section, dict):
        raise ValueError(f"'{name}' must be a JSON object")
    unknown = set(section) - set(required if allowed is None else allowed)
    if unknown:
        raise ValueError(f"unknown keys in '{name}': {sorted(unknown)}")
    missing = set(required) - set(section)
    if missing:
        raise ValueError(f"missing keys in '{name}': {sorted(missing)}")


def _convert(value, kind, key):
    if kind is tuple:
        return None if value is None else tuple(value)
    if kind is int:
        # int(2.7) is 2: a fractional count must not be truncated
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"'{key}' must be an integer, not {value!r}")
        return value
    if kind is float:
        # float("1.2e7") and float(True) parse, and NaN fails every
        # comparison: a float setting is a finite JSON number
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not -sys.float_info.max <= value <= sys.float_info.max:
            raise ValueError(f"'{key}' must be a finite number, not {value!r}")
        return float(value)
    if not isinstance(value, str):
        raise ValueError(f"'{key}' must be of JSON type string")
    return value


def _values(section, table):
    """Attribute values of the table's keys present in `section`."""
    return {attr: _convert(section[key], kind, key)
            for key, attr, kind in table if key in section}


def _noise_from_json(doc):
    """The noise model of a section: its kind and that kind's one scale."""
    if not isinstance(doc, dict):
        raise ValueError("'noise' must be a JSON object")
    kind = doc.get("kind", "static-gaussian")
    if kind not in _NOISE_SCALES:
        raise ValueError(f"unknown noise kind {kind!r}")
    key, attr = _NOISE_SCALES[kind]
    _take(doc, "noise", [key], ["kind", key])
    return NoiseModel(kind=kind, **{attr: _convert(doc[key], float, key)})


def config_from_json(doc):
    """Parse and validate a configuration document."""
    if not isinstance(doc, dict):
        raise ValueError("configuration must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {version!r} "
                         f"(expected {SCHEMA_VERSION})")
    doc = {"output": {}, **doc}
    _take(doc, "config", ["schema_version", *_SECTIONS, *_keys(_RUN_KEYS)])
    coupling, imperfections = doc["coupling"], doc["imperfections"]
    output = doc["output"] or {}
    _take(coupling, "coupling", _keys(_COUPLING_KEYS))
    _take(imperfections, "imperfections", _keys(_IMPERFECTION_KEYS))
    _take(output, "output", (), _keys(_OUTPUT_KEYS))
    return RunConfig(
        coupling=CouplingConfig(**_values(coupling, _COUPLING_KEYS)),
        imperfections=ImperfectionConfig(
            **_values(imperfections, _IMPERFECTION_KEYS)),
        noise=_noise_from_json(doc["noise"]),
        **_values(doc, _RUN_KEYS),
        **_values(output, _OUTPUT_KEYS),
    )


def load_config(path):
    with open(path, "r", encoding="utf-8") as handle:
        return config_from_json(json.load(handle))


def canonical_json(doc):
    """Key-sorted, whitespace-free JSON text; stable across runs."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def config_hash(cfg):
    """Hex digest identifying the physics and sampling of a configuration.

    The `output` section is left out, so one run written to two
    directories or in both formats carries the same hash.
    """
    doc = config_to_json(cfg)
    del doc["output"]
    text = canonical_json(doc)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def apply_overrides(cfg, *, seed=None, out_dir=None, out_format=None,
                    samples=None):
    """Command-line overrides folded into the effective configuration."""
    if samples is not None:
        cfg = replace(cfg, imperfections=replace(
            cfg.imperfections, ensemble_samples=int(samples)))
    updates = {}
    if seed is not None:
        updates["seed"] = int(seed)
    if out_dir is not None:
        updates["out_dir"] = out_dir
    if out_format is not None:
        updates["out_format"] = out_format
    return replace(cfg, **updates) if updates else cfg
