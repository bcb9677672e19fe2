"""End-to-end checks of the command-line interface.

Commands run in process through `mesospin.cli.main`, which returns the
exit code that the console script would report.
"""

import ast
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import mesospin
from mesospin import kitten_state, pulse_steps
from mesospin.cli import main
from mesospin.config import config_to_json, default_config
from mesospin.tomography import (
    dataset_to_json,
    default_equatorial_angles,
    synthesize_dataset,
)


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("config") / "run.json"
    path.write_text(json.dumps(config_to_json(default_config())))
    return str(path)


# steps of the default configuration's nominal pulse
NOMINAL_STEPS = pulse_steps(default_config().imperfections,
                            default_config().kitten_pulse_time())


def _run(command, config_path, out_dir, *extra):
    return main([command, "--config", config_path, "--seed", "3",
                 "--out", str(out_dir), *extra])


def _read_manifest(out_dir):
    with open(os.path.join(str(out_dir), "manifest.json")) as handle:
        return json.load(handle)


def _tree_bytes(out_dir):
    out = {}
    for name in sorted(os.listdir(str(out_dir))):
        with open(os.path.join(str(out_dir), name), "rb") as handle:
            out[name] = handle.read()
    return out


def test_parity_artifacts_metadata_and_manifest(config_path, tmp_path):
    assert _run("parity", config_path, tmp_path, "--samples", "6") == 0
    names = sorted(os.listdir(tmp_path))
    assert names == ["fig3a.csv", "fig3a.summary.json", "fig3c.csv",
                     "fig3c.summary.json", "manifest.json"]

    lines = (tmp_path / "fig3a.csv").read_text().splitlines()
    assert lines[0] == "phi (rad),m (hbar),pi_exact (1),pi_sampled (1)"
    cells = lines[1].split(",")
    assert len(cells) == 4
    assert float(cells[0]) == 0.0

    sidecar = json.loads((tmp_path / "fig3a.summary.json").read_text())
    meta = sidecar["metadata"]
    assert set(meta) == {"config_sha256", "seed", "code_version", "rng"}
    assert meta["seed"] == 3
    assert meta["rng"] == "philox4x64x10"
    assert len(meta["config_sha256"]) == 64
    summary = sidecar["summary"]
    assert 0.8 < summary["contrast"] <= 1.0
    assert summary["period_rad"] == pytest.approx(math.pi / 8, rel=1e-2)
    assert 10.0 < summary["gain"] < 18.0
    assert summary["pulse_steps"] == NOMINAL_STEPS > 0

    manifest = _read_manifest(tmp_path)
    assert set(manifest["artifacts"]) == {"fig3a", "fig3c"}
    for entry in manifest["artifacts"].values():
        assert entry["metadata"] == meta
        for fname, expected in entry["files"].items():
            digest = hashlib.sha256((tmp_path / fname).read_bytes()).hexdigest()
            assert digest == expected


def test_json_format_embeds_records_and_summary(config_path, tmp_path):
    assert _run("hellinger", config_path, tmp_path, "--samples", "6",
                "--format", "json") == 0
    assert sorted(os.listdir(tmp_path)) == ["fig3d.json", "manifest.json"]
    doc = json.loads((tmp_path / "fig3d.json").read_text())
    assert doc["artifact"] == "fig3d"
    assert set(doc) == {"artifact", "metadata", "columns", "records", "summary"}
    assert doc["columns"][0] == {"name": "dphi", "unit": "rad"}
    assert len(doc["records"]) == 25
    assert doc["summary"]["sql_slope"] == pytest.approx(math.sqrt(2.0))
    assert doc["summary"]["gain_ideal"] == pytest.approx(16.0, rel=0.02)
    assert doc["summary"]["pulse_steps"] == NOMINAL_STEPS


def test_rerun_is_byte_identical(config_path, tmp_path):
    for cmd, extra in [("parity", ("--samples", "6")),
                       ("budget", ("--samples", "8"))]:
        out = tmp_path / cmd
        assert _run(cmd, config_path, out, *extra) == 0
        before = _tree_bytes(out)
        assert _run(cmd, config_path, out, *extra) == 0
        assert _tree_bytes(out) == before
    # further stepped requests in the same process, with other sample
    # counts, rerun byte for byte as well
    for samples in ("5", "9"):
        out = tmp_path / f"parity-{samples}"
        assert _run("parity", config_path, out, "--samples", samples) == 0
        first = _tree_bytes(out)
        assert _run("parity", config_path, out, "--samples", samples) == 0
        assert _tree_bytes(out) == first


def test_seed_changes_sampled_output(config_path, tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    assert _run("parity", config_path, first, "--samples", "6") == 0
    assert main(["parity", "--config", config_path, "--seed", "4",
                 "--out", str(second), "--samples", "6"]) == 0
    assert (first / "fig3a.csv").read_bytes() != (second / "fig3a.csv").read_bytes()


def test_method_table_merges_across_commands(config_path, tmp_path):
    assert _run("parity", config_path, tmp_path, "--samples", "6") == 0
    assert _run("ramsey", config_path, tmp_path, "--samples", "6") == 0
    lines = (tmp_path / "fig3c.csv").read_text().splitlines()
    methods = [line.split(",")[0] for line in lines[1:]]
    assert methods == ["magnetization", "parity"]
    summary = json.loads((tmp_path / "fig3c.summary.json").read_text())["summary"]
    assert {"parity_gain", "parity_uncertainty", "magnetization_gain",
            "magnetization_uncertainty"} <= set(summary)
    ramsey = json.loads((tmp_path / "fig3b.summary.json").read_text())["summary"]
    assert ramsey["pulse_steps"] == NOMINAL_STEPS

    # re-running one method replaces its row instead of duplicating it
    assert _run("parity", config_path, tmp_path, "--samples", "6") == 0
    lines = (tmp_path / "fig3c.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["magnetization",
                                                         "parity"]


def test_evolve_summaries(config_path, tmp_path):
    assert _run("evolve", config_path, tmp_path, "--samples", "6") == 0
    summary = json.loads((tmp_path / "fig2.summary.json").read_text())["summary"]
    assert summary["mz_ideal_revival"] == pytest.approx(8.0, abs=1e-9)
    assert 5.5 < summary["mz_imperfect_revival"] < 7.6
    assert 33.0 < summary["plateau_varz_min"] <= summary["plateau_varz_max"] < 34.5
    side = json.loads((tmp_path / "figS1.summary.json").read_text())["summary"]
    assert side["limit_varz"] == pytest.approx(34.0)
    lines = (tmp_path / "fig2.csv").read_text().splitlines()
    assert len(lines) == 162
    assert lines[0].startswith("omega_t (rad),pi_m_-8 (1)")


def test_config_errors_exit_2(config_path, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    doc = config_to_json(default_config())
    doc["beam_power_w"] = 1.0
    bad.write_text(json.dumps(doc))
    assert main(["parity", "--config", str(bad)]) == 2
    assert "configuration error" in capsys.readouterr().err

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["parity", "--config", str(broken)]) == 2
    assert main(["parity", "--config", str(tmp_path / "absent.json")]) == 2
    assert main(["parity", "--config", config_path, "--samples", "0"]) == 2
    doc = config_to_json(default_config())
    doc["imperfections"]["ensemble_samples"] = 2.7
    bad.write_text(json.dumps(doc))
    assert main(["parity", "--config", str(bad)]) == 2
    assert "'ensemble_samples' must be an integer" in capsys.readouterr().err
    for section, key, value in (("coupling", "omega_rad_per_s", "1.2e7"),
                                ("coupling", "omega_rad_per_s", 0.0),
                                ("imperfections", "scattering_probability", 1.0)):
        doc = config_to_json(default_config())
        doc[section][key] = value
        bad.write_text(json.dumps(doc))
        assert main(["parity", "--config", str(bad)]) == 2
        assert "configuration error" in capsys.readouterr().err

    # a malformed manifest in the output directory stops the command
    # before it writes a payload
    out = tmp_path / "out"
    out.mkdir()
    (out / "manifest.json").write_text(json.dumps({"artifacts": []}))
    assert main(["parity", "--config", config_path, "--out", str(out),
                 "--samples", "1"]) == 2
    assert "malformed manifest" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]

    with pytest.raises(SystemExit) as info:
        main(["parity", "--format", "parquet"])
    assert info.value.code == 2
    capsys.readouterr()


def test_dataset_errors(config_path, tmp_path, capsys):
    missing = tmp_path / "absent.json"
    assert main(["tomo", "--config", config_path, "--out", str(tmp_path),
                 "--dataset", str(missing)]) == 2
    assert "configuration error" in capsys.readouterr().err

    broken = tmp_path / "broken.json"
    broken.write_text("[not json")
    assert main(["tomo", "--config", config_path, "--out", str(tmp_path),
                 "--dataset", str(broken)]) == 2

    # well-formed JSON that is no dataset: a configuration error, not a
    # crash with a traceback
    for malformed in ({"j": 4}, {"j": 4, "z_probs": [1.0], "settings": 5},
                      {"j": [4], "z_probs": [1.0], "settings": []}, [1, 2]):
        bad = tmp_path / "malformed.json"
        bad.write_text(json.dumps(malformed))
        assert main(["tomo", "--config", config_path, "--out", str(tmp_path),
                     "--dataset", str(bad)]) == 2
        assert "configuration error" in capsys.readouterr().err

    # a j that disagrees with the J = 4 vectors: named with both lengths
    j4 = dataset_to_json(synthesize_dataset(kitten_state(4.0)))
    for j, outcomes in ((8, "17"), (4.5, "10")):
        bad = tmp_path / "mismatch.json"
        bad.write_text(json.dumps({**j4, "j": j}))
        assert main(["tomo", "--config", config_path, "--out", str(tmp_path),
                     "--dataset", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "9 projection probabilities" in err
        assert f"2j+1 = {outcomes} outcomes" in err

    data = synthesize_dataset(kitten_state(8.0),
                              phis=default_equatorial_angles()[::4])
    doc = dataset_to_json(data)
    doc["settings"][0]["probs"][0] = -0.25
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text(json.dumps(doc))
    assert main(["tomo", "--config", config_path, "--out", str(tmp_path),
                 "--dataset", str(corrupt)]) == 3
    assert "numerical failure" in capsys.readouterr().err

    # NaN probabilities, given or from all-zero counts (0/0), are named
    # before the fit starts, and all-zero counts are never divided
    for key, values in (("z_probs", [float("nan")] * 17), ("z_counts", [0] * 17)):
        doc = dataset_to_json(data)
        doc.pop("z_probs")
        doc[key] = values
        corrupt.write_text(json.dumps(doc))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["tomo", "--config", config_path, "--out", str(tmp_path),
                         "--dataset", str(corrupt)]) == 3
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "non-finite projection probability" in err


def test_tomo_dataset_sets_j(config_path, tmp_path):
    # a J = 4 dataset under the J = 8 configuration
    data = synthesize_dataset(kitten_state(4.0))
    path = tmp_path / "j4.json"
    path.write_text(json.dumps(dataset_to_json(data)))
    assert main(["tomo", "--config", config_path, "--out", str(tmp_path),
                 "--dataset", str(path)]) == 0
    lines = (tmp_path / "fig4.csv").read_text().splitlines()[1:]
    rows = sorted({int(line.split(",")[0]) for line in lines})
    assert rows == list(range(-4, 5))
    assert len(lines) == 81
    summary = json.loads((tmp_path / "fig5.summary.json").read_text())["summary"]
    # static noise: the order-2J coherence decays 2J = 8 times faster
    assert summary["enhancement_ratio"] == pytest.approx(8.0, rel=1e-3)


def test_verify_reports_ok_missing_and_mismatch(config_path, tmp_path, capsys):
    assert _run("parity", config_path, tmp_path, "--samples", "6") == 0
    assert main(["verify", "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[-1] for line in lines] == [
        "fig3a.csv", "fig3a.summary.json", "fig3c.csv", "fig3c.summary.json"]
    assert all(line.startswith("ok") for line in lines)

    target = tmp_path / "fig3a.csv"
    payload = target.read_bytes()
    target.write_bytes(payload + b"tampered\n")
    assert main(["verify", "--out", str(tmp_path)]) == 3
    assert "mismatch fig3a.csv" in capsys.readouterr().out
    target.write_bytes(payload)

    (tmp_path / "fig3c.summary.json").unlink()
    assert main(["verify", "--out", str(tmp_path)]) == 3
    assert "missing" in capsys.readouterr().out

    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["verify", "--out", str(empty)]) == 2
    assert "no manifest" in capsys.readouterr().err

    # a manifest that is no JSON, or whose file list is no object
    manifest = tmp_path / "manifest.json"
    doc = json.loads(manifest.read_text())
    doc["artifacts"]["fig3a"]["files"] = ["fig3a.csv"]
    for text in ("{not json", json.dumps(doc)):
        manifest.write_text(text)
        assert main(["verify", "--out", str(tmp_path)]) == 2
        assert "malformed manifest" in capsys.readouterr().err


def test_tomo_with_external_dataset(config_path, tmp_path):
    # every second default angle still samples the outermost coherence
    # below its aliasing limit
    data = synthesize_dataset(kitten_state(8.0),
                              phis=default_equatorial_angles()[::2])
    dataset = tmp_path / "dataset.json"
    dataset.write_text(json.dumps(dataset_to_json(data)))
    out = tmp_path / "out"
    assert _run("tomo", config_path, out, "--dataset", str(dataset)) == 0

    summary = json.loads((out / "fig4.summary.json").read_text())["summary"]
    assert "fidelity_truth" not in summary
    assert summary["coherence_ratio"] == pytest.approx(1.0, abs=0.01)
    assert summary["wigner_min"] < 0.0
    assert summary["wigner_imag_residue"] < 1e-8
    assert summary["underdetermined"] is True

    decay = json.loads((out / "fig5.summary.json").read_text())["summary"]
    assert decay["enhancement_ratio"] == pytest.approx(16.0, abs=0.5)
    assert -0.1 < decay["wigner_min_dephased_70us"] < -0.01
    assert decay["wigner_min_initial"] == pytest.approx(summary["wigner_min"])

    assert (out / "fig4.wigner.csv").exists()
    manifest = _read_manifest(out)
    assert "fig4.wigner.csv" in manifest["artifacts"]["fig4"]["files"]
    wigner_lines = (out / "fig4.wigner.csv").read_text().splitlines()
    assert wigner_lines[0] == "theta (rad),phi (rad),w (1)"
    assert len(wigner_lines) == 1 + 91 * 180


def test_cli_imports_no_third_party_package_but_numpy():
    # numpy is the only runtime dependency; a fresh interpreter shows
    # every module the console script pulls in beyond numpy itself
    src = os.path.dirname(os.path.dirname(mesospin.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import sys, numpy; before = set(sys.modules); import mesospin.cli; "
            "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
            "print(sorted(new - set(sys.stdlib_module_names)))")
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    assert done.stdout.strip() == "['mesospin']"


# Library definitions that no command, demo, acceptance test or
# benchmark run reaches, kept because a test holds other code to them
REFERENCES = (
    ("tomography.forward_model",
     "objective of test_sampled_fit_is_certified_optimal"),
    ("tomography.reconstruct_density",
     "round trip of multipole_decompose, which wigner uses"),
    ("tomography.dataset_to_json", "writes this file's --dataset fixtures"),
    ("core.Y_AXIS", "the y axis that test_core checks beside X_AXIS and Z_AXIS"),
    ("core.dimension", "the 2j+1 that test_core checks operators against"),
    ("core.projector", "builds the mixed states of test_fidelity_cases"),
)


def _defined_names(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def test_library_holds_only_what_commands_demos_and_paper_checks_reach():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    package = os.path.join(root, "src", "mesospin")

    def parse(path):
        with open(path, encoding="utf-8") as handle:
            return ast.parse(handle.read())

    trees = {name[:-3]: parse(os.path.join(package, name))
             for name in os.listdir(package) if name.endswith(".py")}
    # per module: its top-level definitions and the (module, name) of
    # each mesospin name it imports; a reference resolves to the
    # (module, name) of a definition, or to (module, None) for a module
    defs = {mod: {} for mod in trees}
    imports = {mod: {} for mod in trees}

    def read_imports(scope, tree):
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 1:
                mod = node.module or "__init__"
            elif (node.module or "").split(".")[0] == "mesospin":
                mod = node.module.partition(".")[2] or "__init__"
            else:
                continue
            for alias in node.names:
                imports[scope][alias.asname or alias.name] = (mod, alias.name)

    for mod, tree in trees.items():
        read_imports(mod, tree)
        for node in tree.body:
            for name in _defined_names(node):
                defs[mod][name] = node

    def lookup(mod, name):
        if name in defs[mod]:
            return mod, name
        if mod == "__init__" and name in trees:
            return name, None
        if name in imports[mod]:
            return lookup(*imports[mod][name])
        return None

    def resolve(scope, node):
        # an assignment target names a new value, not a definition
        if not isinstance(getattr(node, "ctx", None), ast.Load):
            return None
        if isinstance(node, ast.Name):
            return lookup(scope, node.id)
        if isinstance(node, ast.Attribute):
            base = resolve(scope, node.value)
            if base is not None and base[1] is None:
                return lookup(base[0], node.attr)
        return None

    def references(scope, tree):
        found = (resolve(scope, node) for node in ast.walk(tree))
        return {ref for ref in found if ref is not None and ref[1] is not None}

    # roots: the CLI's definitions and what the demos, acceptance tests
    # and benchmark use
    roots = {("cli", name) for name in defs["cli"]}
    outside = [os.path.join(root, "tests", "test_acceptance.py")]
    for folder in ("demos", "perfbench"):
        outside += [os.path.join(root, folder, name)
                    for name in sorted(os.listdir(os.path.join(root, folder)))
                    if name.endswith(".py")]
    for path in outside:
        scope, tree = path, parse(path)
        defs[scope], imports[scope] = {}, {}
        read_imports(scope, tree)
        roots |= references(scope, tree)

    reached, todo = set(), list(roots)
    while todo:
        ref = todo.pop()
        if ref not in reached:
            reached.add(ref)
            todo.extend(references(ref[0], defs[ref[0]][ref[1]]))
    kept = {tuple(name.split(".")) for name, _ in REFERENCES}
    library = {(mod, name) for mod in trees if mod != "__init__"
               for name in defs[mod] if not name.startswith("__")}
    assert sorted(".".join(ref) for ref in library - reached - kept) == []
    # every kept reference exists and is reached no other way
    assert sorted(".".join(ref) for ref in kept - library) == []
    assert sorted(".".join(ref) for ref in kept & reached) == []
