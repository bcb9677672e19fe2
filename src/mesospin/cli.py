"""Command-line front end emitting figure and table data as files.

Each subcommand reproduces one analysis as a CSV or JSON artifact plus
provenance metadata (configuration hash, seed, code version, RNG
algorithm; no timestamps), and a manifest of payload hashes lets
`verify` re-check file integrity.  Re-running a command with the same
configuration and seed rewrites byte-identical payloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .budget import gain_budget, measurement_scheme_gains
from .config import (
    apply_overrides,
    canonical_json,
    config_hash,
    default_config,
    load_config,
)
from .core import X_AXIS, basis_state, expi_hermitian, fidelity, make_operators
from .dephasing import coherence_decay, coherence_time, kitten_dephase
from .dynamics import (
    analytic_mz,
    analytic_varz,
    collapse_time,
    gaussian_mz,
    gaussian_varz,
    kitten_state,
    oat_closed_form,
)
from .ensemble import (
    _ensemble_density,
    _imperfection_draws,
    ensemble_evolve,
    pulse_steps,
)
from .measurement import (
    DimensionError,
    magnetization,
    projection_probs,
    ramsey_scan,
    variance,
)
from .metrology import (
    PhaseScan,
    equatorial_phase_scan,
    gain_from_hellinger,
    gain_from_magnetization,
    gain_from_parity,
    hellinger_distance,
    hellinger_window,
    parity_curve,
    sample_scan,
)
from .rng import RNG_ALGORITHM
from .tomography import (
    bootstrap_errors,
    coherence_ratio,
    dataset_from_json,
    fit_density_matrix,
    synthesize_dataset,
    wigner,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

_MANIFEST = "manifest.json"


# ---------------------------------------------------------------- artifacts


def _metadata(cfg):
    return {
        "config_sha256": config_hash(cfg),
        "seed": int(cfg.seed),
        "code_version": __version__,
        "rng": RNG_ALGORITHM,
    }


def _cell_text(value):
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    text = str(value)
    if "," in text or "\n" in text:
        raise ValueError(f"cell value {text!r} would break the CSV layout")
    return text


def _cell_json(value):
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    return float(value)


def _summary_json(summary):
    return {key: _cell_json(value) for key, value in summary.items()}


def _write_text(path, text):
    data = text.encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(data)
    return hashlib.sha256(data).hexdigest()


class _InputError(Exception):
    """A malformed auxiliary input file: a configuration error."""


def _read_manifest(out_dir):
    """The manifest in out_dir, an object of objects, or None without one."""
    path = os.path.join(out_dir, _MANIFEST)
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        if all(isinstance(e["files"], dict) for e in doc["artifacts"].values()):
            return doc
    except (ValueError, TypeError, LookupError, AttributeError) as exc:
        raise _InputError(f"malformed manifest {path}: {exc!r}") from exc
    raise _InputError(f"malformed manifest {path}: file lists must be objects")


def _load_existing(out_dir, name, fmt):
    """Previously written records and summary of a mergeable artifact."""
    if fmt == "json":
        path = os.path.join(out_dir, f"{name}.json")
        if not os.path.exists(path):
            return [], {}
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        return doc.get("records", []), doc.get("summary", {})
    path = os.path.join(out_dir, f"{name}.csv")
    if not os.path.exists(path):
        return [], {}
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    records = [line.split(",") for line in lines[1:] if line]
    summary = {}
    spath = os.path.join(out_dir, f"{name}.summary.json")
    if os.path.exists(spath):
        with open(spath, "r", encoding="utf-8") as handle:
            summary = json.load(handle).get("summary", {})
    return records, summary


def _write_table(out_dir, fname, meta, columns, records, summary=None):
    """One table file in the requested format; returns its payload hash."""
    if fname.endswith(".json"):
        doc = {
            "artifact": fname[:-len(".json")],
            "metadata": meta,
            "columns": [{"name": n, "unit": u} for n, u in columns],
            "records": [[_cell_json(c) if not isinstance(c, str) else c
                         for c in r] for r in records],
        }
        if summary is not None:
            doc["summary"] = _summary_json(summary)
        return _write_text(os.path.join(out_dir, fname), canonical_json(doc))
    header = ",".join(f"{n} ({u})" if u else n for n, u in columns)
    lines = [header]
    lines.extend(",".join(_cell_text(c) for c in r) for r in records)
    return _write_text(os.path.join(out_dir, fname), "\n".join(lines) + "\n")


def write_artifact(cfg, name, columns, records, summary, *, merge=False,
                   extras=None):
    """Write one artifact in the configured format and update the manifest.

    With merge=True the first column is treated as a method key:
    existing rows with other keys are kept, rows with the same keys are
    replaced, and summaries are merged key-wise.  `extras` maps a key to
    an additional (columns, records) table stored as `name.key.*` under
    the same manifest entry.
    """
    out_dir = cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    manifest = _read_manifest(out_dir) or {"schema_version": 1, "artifacts": {}}
    meta = _metadata(cfg)
    if merge:
        old_records, old_summary = _load_existing(out_dir, name, cfg.out_format)
        new_keys = {str(r[0]) for r in records}
        kept = [r for r in old_records if str(r[0]) not in new_keys]
        records = sorted(kept + list(records), key=lambda r: str(r[0]))
        summary = {**old_summary, **_summary_json(summary)}

    ext = cfg.out_format
    files = {}
    if ext == "json":
        fname = f"{name}.json"
        files[fname] = _write_table(out_dir, fname, meta, columns, records,
                                    summary)
    else:
        fname = f"{name}.csv"
        files[fname] = _write_table(out_dir, fname, meta, columns, records)
        sname = f"{name}.summary.json"
        sdoc = {"artifact": name, "metadata": meta,
                "summary": _summary_json(summary)}
        files[sname] = _write_text(os.path.join(out_dir, sname),
                                   canonical_json(sdoc))
    for key, (ecols, erecs) in (extras or {}).items():
        ename = f"{name}.{key}.{ext}"
        files[ename] = _write_table(out_dir, ename, meta, ecols, erecs)
    manifest["artifacts"][name] = {"files": files, "metadata": meta}
    _write_text(os.path.join(out_dir, _MANIFEST), canonical_json(manifest))
    return files


# ---------------------------------------------------------------- commands


def cmd_evolve(cfg):
    """Collapse-and-revival curves with analytic and Gaussian oracles."""
    j = cfg.j
    omega = cfg.coupling.omega
    grid = np.linspace(0.0, 2.0 * math.pi, 161)
    states = [oat_closed_form(j, g) for g in grid]

    imp = cfg.imperfections
    coupling = replace(cfg.coupling, include_jx4=False)
    ops = make_operators(j)
    f, eps = _imperfection_draws(imp, cfg.seed)
    initial = basis_state(j, -j)

    m_range = range(-int(j), int(j) + 1)
    columns = ([("omega_t", "rad")] +
               [(f"pi_m_{m:+d}", "1") for m in m_range] +
               [(f"pi_imp_m_{m:+d}", "1") for m in m_range] +
               [("mz_ideal", "hbar"), ("varz_ideal", "hbar^2"),
                ("mz_imperfect", "hbar"), ("varz_imperfect", "hbar^2"),
                ("mz_analytic", "hbar"), ("varz_analytic", "hbar^2"),
                ("mz_gaussian", "hbar"), ("varz_gaussian", "hbar^2")])
    records = []
    mz_imp_pi = None
    for g, state in zip(grid, states):
        dist = projection_probs(state)
        rho = _ensemble_density(initial, coupling, imp, g / omega, f, eps,
                                cfg.seed, ops)
        dist_imp = projection_probs(rho)
        row = ([g] + [float(p) for p in dist.probabilities] +
               [float(p) for p in dist_imp.probabilities] +
               [magnetization(dist), variance(dist),
                magnetization(dist_imp), variance(dist_imp),
                analytic_mz(j, g), analytic_varz(j, g),
                gaussian_mz(j, g), gaussian_varz(j, g)])
        records.append(row)
        if abs(g - math.pi) < 1e-12:
            mz_imp_pi = magnetization(dist_imp)

    plateau = [variance(projection_probs(s))
               for g, s in zip(grid, states) if 0.2 * math.pi <= g <= 0.36 * math.pi]
    summary = {
        "mz_ideal_revival": analytic_mz(j, math.pi),
        "mz_imperfect_revival": mz_imp_pi,
        "plateau_varz_min": min(plateau),
        "plateau_varz_max": max(plateau),
        "collapse_omega_t": omega * collapse_time(j, omega),
        "ensemble_samples": imp.ensemble_samples,
    }
    write_artifact(cfg, "fig2", columns, records, summary)

    gap_grid = np.linspace(0.0, 0.5 * math.pi, 201)
    records_s1 = [
        [g, analytic_mz(j, g), gaussian_mz(j, g),
         gaussian_mz(j, g) - analytic_mz(j, g),
         analytic_varz(j, g), gaussian_varz(j, g),
         gaussian_varz(j, g) - analytic_varz(j, g)]
        for g in gap_grid
    ]
    early = gap_grid <= 0.3 * math.pi
    gaps = np.array([abs(r[3]) for r in records_s1])
    summary_s1 = {
        "max_mz_gap_early": float(np.max(gaps[early])),
        "limit_varz": j * (j + 0.5) / 2.0,
    }
    write_artifact(cfg, "figS1",
                   [("omega_t", "rad"), ("mz_analytic", "hbar"),
                    ("mz_gaussian", "hbar"), ("mz_gap", "hbar"),
                    ("varz_analytic", "hbar^2"), ("varz_gaussian", "hbar^2"),
                    ("varz_gap", "hbar^2")],
                   records_s1, summary_s1)


def _imperfect_state(cfg):
    """Ensemble-averaged superposition state at the nominal pulse time."""
    coupling = replace(cfg.coupling, include_jx4=False)
    initial = basis_state(cfg.j, -cfg.j)
    return ensemble_evolve(initial, coupling, cfg.imperfections,
                           cfg.kitten_pulse_time(), cfg.seed)


def _write_scan_gain(cfg, name, method, scan, scan_sampled, report, summary):
    """Exact and sampled scan distributions as `name`, plus the fit's gain,
    merged into the fig3c method table as the `method` row."""
    records = []
    for i, phi in enumerate(scan.phis):
        exact = scan.distributions[i].probabilities
        sampled = scan_sampled.distributions[i].probabilities
        for k, m in enumerate(range(-int(cfg.j), int(cfg.j) + 1)):
            records.append([float(phi), m, float(exact[k]), float(sampled[k])])
    summary = {**summary, "period_rad": report.fit.period, "gain": report.gain,
               "gain_uncertainty": report.uncertainty, "bound": report.bound,
               "pulse_steps": pulse_steps(cfg.imperfections,
                                          cfg.kitten_pulse_time())}
    write_artifact(cfg, name,
                   [("phi", "rad"), ("m", "hbar"), ("pi_exact", "1"),
                    ("pi_sampled", "1")], records, summary)
    write_artifact(cfg, "fig3c",
                   [("method", ""), ("gain", "1"), ("uncertainty", "1"),
                    ("bound", "1")],
                   [[method, report.gain, report.uncertainty, report.bound]],
                   {f"{method}_gain": report.gain,
                    f"{method}_uncertainty": report.uncertainty},
                   merge=True)


def cmd_parity(cfg):
    """Equatorial scan of the superposition with its parity metrology."""
    rho = _imperfect_state(cfg)
    phis = np.linspace(0.0, math.pi / cfg.j, 65)
    scan = equatorial_phase_scan(rho, phis)
    scan_sampled = sample_scan(scan, cfg.atom_total, cfg.seed)
    varz = variance(projection_probs(rho))
    report = gain_from_parity(scan_sampled, varz_bound=varz)
    _write_scan_gain(cfg, "fig3a", "parity", scan, scan_sampled, report,
                     {"contrast": report.fit.amplitude,
                      "parity_first_point": float(parity_curve(scan)[0])})


def cmd_ramsey(cfg):
    """Second twisting pulse after a Larmor phase, read out along z."""
    rho = _imperfect_state(cfg)
    ops = make_operators(cfg.j)
    pulse = expi_hermitian(ops.jx @ ops.jx, math.pi / 2.0)
    phis = np.linspace(0.0, math.pi / cfg.j, 65)
    scan = PhaseScan(phis=phis, distributions=ramsey_scan(rho, phis, pulse))
    scan_sampled = sample_scan(scan, cfg.atom_total, cfg.seed)
    varz = variance(projection_probs(rho))
    report = gain_from_magnetization(scan_sampled, varz_bound=varz)
    _write_scan_gain(cfg, "fig3b", "magnetization", scan, scan_sampled, report,
                     {"amplitude": report.fit.amplitude})


def cmd_hellinger(cfg):
    """Hellinger-distance slopes for coherent, ideal, and imperfect states."""
    j = cfg.j
    window = hellinger_window(j)
    phis = np.linspace(0.0, 3.0 * window, 25)
    coherent = basis_state(j, j, axis=X_AXIS)
    kitten = kitten_state(j)
    rho = _imperfect_state(cfg)

    scan_c = equatorial_phase_scan(coherent, phis)
    scan_k = equatorial_phase_scan(kitten, phis)
    scan_i = equatorial_phase_scan(rho, phis, atom_total=cfg.atom_total,
                                   seed=cfg.seed)
    records = []
    for i, phi in enumerate(phis):
        records.append([
            float(phi),
            hellinger_distance(scan_c.distributions[0], scan_c.distributions[i]),
            hellinger_distance(scan_k.distributions[0], scan_k.distributions[i]),
            hellinger_distance(scan_i.distributions[0], scan_i.distributions[i]),
        ])

    report_k = gain_from_hellinger(scan_k, 0.0)
    varz = variance(projection_probs(rho))
    report_i = gain_from_hellinger(scan_i, 0.0, varz_bound=varz)
    summary = {
        "gain_ideal": report_k.gain,
        "gain_imperfect_sampled": report_i.gain,
        "bound_imperfect": report_i.bound,
        "sql_slope": math.sqrt(j / 4.0),
        "heisenberg_slope": 2 * j / (2.0 * math.sqrt(2.0)),
        "window_rad": window,
        "pulse_steps": pulse_steps(cfg.imperfections, cfg.kitten_pulse_time()),
    }
    write_artifact(cfg, "fig3d",
                   [("dphi", "rad"), ("dh_coherent", "1"),
                    ("dh_kitten_exact", "1"), ("dh_imperfect_sampled", "1")],
                   records, summary)


def _read_dataset(path):
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    try:
        return dataset_from_json(doc)
    except (KeyError, TypeError, DimensionError) as exc:
        raise _InputError(f"malformed dataset {path}: {exc!r}") from exc


def cmd_tomo(cfg, dataset_path=None):
    """Density-matrix reconstruction and coherence-decay analysis.

    A dataset read from `dataset_path` carries its own j, which then
    replaces the configured one.
    """
    if dataset_path is None:
        truth = kitten_state(cfg.j)
        data = synthesize_dataset(truth, atom_total=cfg.atom_total,
                                  seed=cfg.seed)
    else:
        data = _read_dataset(dataset_path)
    j = data.j
    fit = fit_density_matrix(data)
    if not fit.converged:
        raise RuntimeError(
            f"reconstruction did not converge in {fit.n_iterations} iterations "
            f"(objective {fit.objective:.3e}, duality gap {fit.duality_gap:.3e})")
    boot = bootstrap_errors(data, n_resamples=16, seed=(cfg.seed + 1) % 2**64)
    rho = fit.rho
    d = rho.shape[0]
    records = []
    for a in range(d):
        for b in range(d):
            records.append([a - int(j), b - int(j), abs(rho[a, b]),
                            float(rho[a, b].real), float(rho[a, b].imag),
                            float(boot[a, b])])
    thetas = np.linspace(0.0, math.pi, 181)
    phis = np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False)
    w, residue = wigner(rho, thetas, phis, with_residue=True)
    grid_t = thetas[::2]
    grid_p = phis[::2]
    wigner_records = [
        [float(th), float(ph), float(w[it * 2, ip * 2])]
        for it, th in enumerate(grid_t)
        for ip, ph in enumerate(grid_p)
    ]
    summary = {
        "coherence_ratio": coherence_ratio(rho),
        "coherence_ratio_bootstrap_std":
            float(2.0 * boot[0, d - 1] / (rho[0, 0].real + rho[-1, -1].real)),
        "underdetermined": fit.underdetermined,
        "objective": fit.objective,
        "converged": fit.converged,
        "n_iterations": fit.n_iterations,
        "duality_gap": fit.duality_gap,
        "wigner_min": float(np.min(w)),
        "wigner_imag_residue": residue,
    }
    if dataset_path is None:
        summary["fidelity_truth"] = fidelity(truth, rho)
    write_artifact(cfg, "fig4",
                   [("row_m", "hbar"), ("col_m", "hbar"), ("abs_rho", "1"),
                    ("re_rho", "1"), ("im_rho", "1"), ("bootstrap_std", "1")],
                   records, summary,
                   extras={"wigner": (
                       [("theta", "rad"), ("phi", "rad"), ("w", "1")],
                       wigner_records)})

    # coherence decay of the reconstructed state under the configured noise
    tau0 = coherence_time(cfg.noise, 1)
    tau_k = coherence_time(cfg.noise, int(2 * j))
    times_k = np.linspace(0.0, 3.0 * tau_k, 41)
    times_c = np.linspace(0.0, 3.0 * tau0, 41)
    extremal = abs(rho[0, -1])
    records5 = []
    for t in times_k:
        records5.append(["extremal_coherence", float(t),
                         float(extremal * coherence_decay(int(2 * j), cfg.noise, t))])
    for t in times_c:
        records5.append(["transverse_spin", float(t),
                         float(j * coherence_decay(1, cfg.noise, t))])
    dephased = kitten_dephase(rho, cfg.noise, 70e-6)
    w70 = wigner(dephased, thetas, phis)
    summary5 = {
        "tau_extremal_s": tau_k,
        "tau_transverse_s": tau0,
        "enhancement_ratio": tau0 / tau_k,
        "wigner_min_initial": float(np.min(w)),
        "wigner_min_dephased_70us": float(np.min(w70)),
    }
    write_artifact(cfg, "fig5",
                   [("curve", ""), ("time", "s"), ("value", "1")],
                   records5, summary5)


def cmd_budget(cfg):
    """Imperfection budget of the metrological gain."""
    coupling = replace(cfg.coupling, include_jx4=True)
    budget = gain_budget(coupling, cfg.imperfections, j=cfg.j, seed=cfg.seed)
    records = [
        [row.label, row.gain, row.correction, row.pulse_time, row.flagged]
        for row in budget.rows
    ]
    records.append([budget.combined.label, budget.combined.gain,
                    budget.combined.correction, budget.combined.pulse_time,
                    budget.combined.flagged])
    summary = {
        "ideal_gain": budget.ideal_gain,
        "combined_gain": budget.combined.gain,
        "combined_correction": budget.combined.correction,
        "ensemble_samples": cfg.imperfections.ensemble_samples,
    }
    write_artifact(cfg, "tableS1",
                   [("imperfection", ""), ("gain", "1"), ("correction", "1"),
                    ("pulse_time", "s"), ("geometry_flagged", "")],
                   records, summary)

    schemes = measurement_scheme_gains(budget.combined_state)
    rows = [
        ("parity", schemes.parity),
        ("hellinger", schemes.hellinger),
        ("magnetization", schemes.magnetization),
        ("pulse_hellinger", schemes.pulse_hellinger),
    ]
    records2 = [[name, rep.gain, rep.uncertainty, rep.bound]
                for name, rep in rows]
    write_artifact(cfg, "tableS2",
                   [("scheme", ""), ("gain", "1"), ("uncertainty", "1"),
                    ("bound", "1")],
                   records2, {"variance_bound": schemes.bound})


def cmd_verify(out_dir):
    """Re-check artifact payload hashes against the manifest."""
    doc = _read_manifest(out_dir)
    if doc is None:
        print(f"no manifest at {os.path.join(out_dir, _MANIFEST)}", file=sys.stderr)
        return EXIT_CONFIG
    failures = 0
    for name, entry in sorted(doc["artifacts"].items()):
        for fname, expected in sorted(entry["files"].items()):
            fpath = os.path.join(out_dir, fname)
            if not os.path.exists(fpath):
                print(f"missing  {fname}")
                failures += 1
                continue
            with open(fpath, "rb") as handle:
                actual = hashlib.sha256(handle.read()).hexdigest()
            if actual == expected:
                print(f"ok       {fname}")
            else:
                print(f"mismatch {fname}")
                failures += 1
    return EXIT_NUMERIC if failures else EXIT_OK


# ---------------------------------------------------------------- entry


def _parser():
    parser = argparse.ArgumentParser(
        prog="mesospin",
        description="Reproduce collective-spin superposition analyses as data files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    names = ["evolve", "parity", "ramsey", "hellinger", "tomo", "budget",
             "verify"]
    for name in names:
        p = sub.add_parser(name)
        p.add_argument("--config", metavar="PATH")
        p.add_argument("--seed", type=int, metavar="U64")
        p.add_argument("--out", metavar="DIR")
        p.add_argument("--format", choices=["csv", "json"])
        p.add_argument("--samples", type=int, metavar="N")
        if name == "tomo":
            p.add_argument("--dataset", metavar="PATH")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else default_config()
        cfg = apply_overrides(cfg, seed=args.seed, out_dir=args.out,
                              out_format=args.format, samples=args.samples)
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "verify":
            return cmd_verify(cfg.out_dir)
        if args.command == "evolve":
            cmd_evolve(cfg)
        elif args.command == "parity":
            cmd_parity(cfg)
        elif args.command == "ramsey":
            cmd_ramsey(cfg)
        elif args.command == "hellinger":
            cmd_hellinger(cfg)
        elif args.command == "tomo":
            cmd_tomo(cfg, dataset_path=args.dataset)
        elif args.command == "budget":
            cmd_budget(cfg)
    except (OSError, json.JSONDecodeError, _InputError) as exc:
        # unreadable or unparseable auxiliary inputs are configuration
        # problems, not computation failures
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, RuntimeError, FloatingPointError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
