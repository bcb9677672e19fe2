"""Configuration schema, hashing, and overrides."""

import json
import math

import pytest

from mesospin import (
    apply_overrides,
    canonical_json,
    config_from_json,
    config_hash,
    config_to_json,
    default_config,
    load_config,
)
from mesospin.cli import main


def test_default_config_values():
    cfg = default_config()
    assert cfg.j == 8.0
    assert cfg.coupling.omega == pytest.approx(2 * math.pi * 1.98e6)
    assert cfg.coupling.omega_larmor == pytest.approx(2 * math.pi * 31.7e3)
    assert cfg.coupling.detuning == pytest.approx(-2 * math.pi * 1.5e9)
    assert not cfg.coupling.include_jx4
    assert cfg.imperfections.initial_leak_fraction == 0.03
    assert cfg.imperfections.scattering_probability == 0.007
    assert cfg.atom_total == 90000
    assert cfg.noise.kind == "static-gaussian"
    assert cfg.kitten_pulse_time() == pytest.approx(
        (math.pi / 2) / cfg.coupling.omega, rel=1e-15
    )


def test_round_trip_and_stable_hash():
    cfg = default_config()
    doc = config_to_json(cfg)
    back = config_from_json(doc)
    assert back == cfg
    assert config_hash(back) == config_hash(cfg)
    # canonical text ignores key order
    shuffled = json.loads(canonical_json(dict(reversed(list(doc.items())))))
    assert config_from_json(shuffled) == cfg
    assert canonical_json(shuffled) == canonical_json(doc)


def test_unknown_and_missing_keys_are_rejected():
    doc = config_to_json(default_config())
    bad = json.loads(canonical_json(doc))
    bad["beam_power_w"] = 1.0
    with pytest.raises(ValueError):
        config_from_json(bad)
    short = json.loads(canonical_json(doc))
    del short["coupling"]["detuning_rad_per_s"]
    with pytest.raises(ValueError):
        config_from_json(short)
    wrong_version = json.loads(canonical_json(doc))
    wrong_version["schema_version"] = 99
    with pytest.raises(ValueError):
        config_from_json(wrong_version)


def test_noise_section_needs_exactly_one_scale():
    doc = config_to_json(default_config())
    both = json.loads(canonical_json(doc))
    both["noise"]["diffusion_t2_s"] = 740e-6
    with pytest.raises(ValueError):
        config_from_json(both)
    neither = json.loads(canonical_json(doc))
    del neither["noise"]["rms_field_t"]
    with pytest.raises(ValueError):
        config_from_json(neither)
    mismatch = json.loads(canonical_json(doc))
    mismatch["noise"]["kind"] = "markovian"
    with pytest.raises(ValueError):
        config_from_json(mismatch)
    pink = json.loads(canonical_json(doc))
    pink["noise"]["kind"] = "pink"
    with pytest.raises(ValueError):
        config_from_json(pink)


def test_load_config_and_overrides(tmp_path):
    cfg = default_config()
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config_to_json(cfg)))
    loaded = load_config(path)
    assert loaded == cfg
    changed = apply_overrides(loaded, seed=7, out_dir="out", out_format="json",
                              samples=12)
    assert changed.seed == 7
    assert changed.out_dir == "out"
    assert changed.out_format == "json"
    assert changed.imperfections.ensemble_samples == 12
    # the hash covers the physics, the seed and the sample count, but
    # not the output routing
    assert config_hash(changed) != config_hash(cfg)
    rerouted = apply_overrides(loaded, out_dir="out", out_format="json")
    assert config_hash(rerouted) == config_hash(cfg)
    assert apply_overrides(loaded) == loaded


def test_run_config_validation():
    cfg = default_config()
    doc = config_to_json(cfg)

    def mutate(**kwargs):
        new = json.loads(canonical_json(doc))
        new.update(kwargs)
        return new

    with pytest.raises(ValueError):
        config_from_json(mutate(j=8.3))
    with pytest.raises(ValueError):
        config_from_json(mutate(atom_total=0))
    with pytest.raises(ValueError):
        config_from_json(mutate(seed=-1))
    bad_fmt = json.loads(canonical_json(doc))
    bad_fmt["output"]["format"] = "parquet"
    with pytest.raises(ValueError):
        config_from_json(bad_fmt)
    bad_dir = json.loads(canonical_json(doc))
    bad_dir["output"]["directory"] = 5
    with pytest.raises(ValueError):
        config_from_json(bad_dir)
    # integer settings are not truncated: 2.7 samples is no count
    for value in (90000.9, "90000", True):
        with pytest.raises(ValueError):
            config_from_json(mutate(atom_total=value))
    fractional = json.loads(canonical_json(doc))
    fractional["imperfections"]["ensemble_samples"] = 2.7
    with pytest.raises(ValueError):
        config_from_json(fractional)
    # an integral float is the integer it spells
    assert config_from_json(mutate(atom_total=90000.0)).atom_total == 90000
    # float settings are finite JSON numbers: float("1.2e7") and
    # float(True) would parse
    for value in ("1.2e7", True, math.nan, math.inf):
        bad_omega = json.loads(canonical_json(doc))
        bad_omega["coupling"]["omega_rad_per_s"] = value
        with pytest.raises(ValueError):
            config_from_json(bad_omega)
    with pytest.raises(ValueError):
        config_from_json(mutate(j="8"))
    quoted_time = json.loads(canonical_json(doc))
    quoted_time["noise"] = {"kind": "markovian", "diffusion_t2_s": "7.4e-4"}
    with pytest.raises(ValueError):
        config_from_json(quoted_time)
    # every command times its pulse by omega
    still = json.loads(canonical_json(doc))
    still["coupling"]["omega_rad_per_s"] = 0.0
    with pytest.raises(ValueError):
        config_from_json(still)


def _retired_documents():
    """Documents carrying a setting that schema version 2, 3 or 4 removed."""
    doc = config_to_json(default_config())
    light = json.loads(canonical_json(doc))
    light["light"] = {"linewidth_per_s": 0.85e6,
                      "resonance_wavelength_m": 626e-9}
    g_factor = json.loads(canonical_json(doc))
    g_factor["noise"]["g_factor"] = 1.2416
    # a complete version-1 document has both and its own version number
    v1 = json.loads(canonical_json(light))
    v1["noise"]["g_factor"] = 1.2416
    v1["schema_version"] = 1
    # version 3 removed the Gaussian imperfection sampling
    sampling = json.loads(canonical_json(doc))
    sampling["imperfections"]["sampling"] = "positional"
    # a complete version-2 document has it and its own version number
    v2 = json.loads(canonical_json(sampling))
    v2["schema_version"] = 2
    # version 4 removed four keys that no command read
    removed = {
        "intensity_rms_fraction": ("imperfections", 0.06),
        "stokes_s3": ("imperfections", 1e-3),
        "include_jx4": ("coupling", False),
        "coherence_time_s": ("noise", 740e-6),
    }
    # a complete version-3 document has all four and its own version number
    v3 = json.loads(canonical_json(doc))
    v3["schema_version"] = 3
    singles = {}
    for key, (section, value) in removed.items():
        v3[section][key] = value
        singles[key] = json.loads(canonical_json(doc))
        singles[key][section][key] = value
    del v3["noise"]["rms_field_t"]
    # the 1/e time stood in place of the noise scale
    del singles["coherence_time_s"]["noise"]["rms_field_t"]
    return {"v1": v1, "light": light, "g_factor": g_factor,
            "v2": v2, "sampling": sampling, "v3": v3, **singles}


@pytest.mark.parametrize("name", ["v1", "light", "g_factor", "v2", "sampling",
                                  "v3", "intensity_rms_fraction", "stokes_s3",
                                  "include_jx4", "coherence_time_s"])
def test_retired_settings_are_rejected(name, tmp_path, capsys):
    doc = _retired_documents()[name]
    with pytest.raises(ValueError):
        config_from_json(doc)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    assert main(["parity", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


def test_one_run_in_two_places_carries_one_hash(tmp_path):
    # the output section is routing, not physics: two directories and
    # both formats share the configuration hash, so the two directories
    # of one format hold the same bytes
    hashes = set()
    for fmt in ("csv", "json"):
        trees = []
        for place in ("a", "b"):
            out = tmp_path / fmt / place
            assert main(["parity", "--seed", "5", "--samples", "2",
                         "--format", fmt, "--out", str(out)]) == 0
            trees.append({path.name: path.read_bytes() for path in out.iterdir()})
            manifest = json.loads(trees[-1]["manifest.json"])
            hashes |= {entry["metadata"]["config_sha256"]
                       for entry in manifest["artifacts"].values()}
        assert trees[0] == trees[1]
    run = apply_overrides(default_config(), seed=5, samples=2)
    assert hashes == {config_hash(run)}
