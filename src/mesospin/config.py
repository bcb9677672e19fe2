"""Run configuration: versioned JSON schema with unit-suffixed keys.

Every physical quantity carries its unit in the key name
(omega_rad_per_s, cloud_sigma_m, ...) so files stay unambiguous, and
the whole document hashes to a stable identifier that artifact
metadata embeds for reproducibility.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace

from .dephasing import DEFAULT_G_FACTOR, NoiseModel
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

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs: physics, imperfections, sampling, output."""

    j: float
    coupling: CouplingConfig
    linewidth: float
    resonance_wavelength: float
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
        include_jx4=False,
    )
    imperfections = ImperfectionConfig(
        intensity_rms_fraction=0.06,
        stokes_s3=1e-3,
        field_axis_components=(0.09, -0.11, 0.98),
        initial_leak_fraction=0.03,
        pulse_rise_time=50e-9,
        scattering_probability=0.007,
        ensemble_samples=2000,
        sampling="positional",
        cloud_sigma=7.3e-6,
        beam_waist=50e-6,
        beam_divergence=4e-3,
    )
    noise = NoiseModel.static_from_time(740e-6)
    return RunConfig(
        j=8.0,
        coupling=coupling,
        linewidth=0.85e6,
        resonance_wavelength=626e-9,
        imperfections=imperfections,
        noise=noise,
        atom_total=90000,
        seed=0,
    )


def config_to_json(cfg):
    """JSON document for a RunConfig, with unit-suffixed keys."""
    imp = cfg.imperfections
    noise = {"kind": cfg.noise.kind, "g_factor": cfg.noise.g_factor}
    if cfg.noise.kind == "static-gaussian":
        noise["rms_field_t"] = cfg.noise.rms_field
    else:
        noise["diffusion_t2_s"] = cfg.noise.diffusion
    return {
        "schema_version": SCHEMA_VERSION,
        "j": cfg.j,
        "coupling": {
            "omega_rad_per_s": cfg.coupling.omega,
            "omega_larmor_rad_per_s": cfg.coupling.omega_larmor,
            "detuning_rad_per_s": cfg.coupling.detuning,
            "include_jx4": cfg.coupling.include_jx4,
        },
        "light": {
            "linewidth_per_s": cfg.linewidth,
            "resonance_wavelength_m": cfg.resonance_wavelength,
        },
        "imperfections": {
            "intensity_rms_fraction": imp.intensity_rms_fraction,
            "stokes_s3": imp.stokes_s3,
            "field_axis_components": list(imp.field_axis_components)
            if imp.field_axis_components is not None else None,
            "initial_leak_fraction": imp.initial_leak_fraction,
            "pulse_rise_time_s": imp.pulse_rise_time,
            "scattering_probability": imp.scattering_probability,
            "ensemble_samples": imp.ensemble_samples,
            "sampling": imp.sampling,
            "cloud_sigma_m": imp.cloud_sigma,
            "beam_waist_m": imp.beam_waist,
            "beam_divergence_rad": imp.beam_divergence,
        },
        "noise": noise,
        "atom_total": cfg.atom_total,
        "seed": cfg.seed,
        "output": {"directory": cfg.out_dir, "format": cfg.out_format},
    }


def _take(section, name, keys):
    unknown = set(section) - set(keys)
    if unknown:
        raise ValueError(f"unknown keys in '{name}': {sorted(unknown)}")
    missing = set(keys) - set(section)
    if missing:
        raise ValueError(f"missing keys in '{name}': {sorted(missing)}")


def _noise_from_json(doc):
    kind = doc.get("kind", "static-gaussian")
    g_factor = doc.get("g_factor", DEFAULT_G_FACTOR)
    scales = [k for k in ("rms_field_t", "diffusion_t2_s", "coherence_time_s")
              if k in doc]
    if len(scales) != 1:
        raise ValueError("noise needs exactly one of rms_field_t, "
                         "diffusion_t2_s, coherence_time_s")
    unknown = set(doc) - {"kind", "g_factor", scales[0]}
    if unknown:
        raise ValueError(f"unknown keys in 'noise': {sorted(unknown)}")
    key = scales[0]
    if key == "coherence_time_s":
        maker = (NoiseModel.static_from_time if kind == "static-gaussian"
                 else NoiseModel.markovian_from_time)
        return maker(doc[key], g_factor=g_factor)
    if key == "rms_field_t":
        if kind != "static-gaussian":
            raise ValueError("rms_field_t applies to static-gaussian noise")
        return NoiseModel.static(doc[key], g_factor=g_factor)
    if kind != "markovian":
        raise ValueError("diffusion_t2_s applies to markovian noise")
    return NoiseModel.markovian(doc[key], g_factor=g_factor)


def config_from_json(doc):
    """Parse and validate a configuration document."""
    if not isinstance(doc, dict):
        raise ValueError("configuration must be a JSON object")
    doc = dict(doc)
    doc.setdefault("output", {})
    _take(doc, "config", ["schema_version", "j", "coupling", "light",
                          "imperfections", "noise", "atom_total", "seed",
                          "output"])
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {doc['schema_version']}")
    cp = doc["coupling"]
    _take(cp, "coupling", ["omega_rad_per_s", "omega_larmor_rad_per_s",
                           "detuning_rad_per_s", "include_jx4"])
    coupling = CouplingConfig(
        omega=float(cp["omega_rad_per_s"]),
        omega_larmor=float(cp["omega_larmor_rad_per_s"]),
        detuning=float(cp["detuning_rad_per_s"]),
        include_jx4=bool(cp["include_jx4"]),
    )
    lt = doc["light"]
    _take(lt, "light", ["linewidth_per_s", "resonance_wavelength_m"])
    im = doc["imperfections"]
    _take(im, "imperfections", [
        "intensity_rms_fraction", "stokes_s3", "field_axis_components",
        "initial_leak_fraction", "pulse_rise_time_s", "scattering_probability",
        "ensemble_samples", "sampling", "cloud_sigma_m", "beam_waist_m",
        "beam_divergence_rad",
    ])
    axis = im["field_axis_components"]
    imperfections = ImperfectionConfig(
        intensity_rms_fraction=float(im["intensity_rms_fraction"]),
        stokes_s3=float(im["stokes_s3"]),
        field_axis_components=None if axis is None else tuple(axis),
        initial_leak_fraction=float(im["initial_leak_fraction"]),
        pulse_rise_time=float(im["pulse_rise_time_s"]),
        scattering_probability=float(im["scattering_probability"]),
        ensemble_samples=int(im["ensemble_samples"]),
        sampling=im["sampling"],
        cloud_sigma=float(im["cloud_sigma_m"]),
        beam_waist=float(im["beam_waist_m"]),
        beam_divergence=float(im["beam_divergence_rad"]),
    )
    out = doc.get("output") or {}
    unknown = set(out) - {"directory", "format"}
    if unknown:
        raise ValueError(f"unknown keys in 'output': {sorted(unknown)}")
    return RunConfig(
        j=float(doc["j"]),
        coupling=coupling,
        linewidth=float(lt["linewidth_per_s"]),
        resonance_wavelength=float(lt["resonance_wavelength_m"]),
        imperfections=imperfections,
        noise=_noise_from_json(doc["noise"]),
        atom_total=int(doc["atom_total"]),
        seed=int(doc["seed"]),
        out_dir=out.get("directory", "."),
        out_format=out.get("format", "csv"),
    )


def load_config(path):
    with open(path, "r", encoding="utf-8") as handle:
        return config_from_json(json.load(handle))


def canonical_json(doc):
    """Key-sorted, whitespace-free JSON text; stable across runs."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def config_hash(cfg):
    """Hex digest identifying the effective configuration."""
    text = canonical_json(config_to_json(cfg))
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
