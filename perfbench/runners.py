"""Execution and correctness checks of the benchmark workloads.

Every call into mesospin goes through a module attribute looked up at
call time (`cli.main`, `tomography.fit_density_matrix`, ...), so the
wrappers that the traced run installs see the benchmark's own calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from dataclasses import replace

import numpy as np

from mesospin import budget, cli, config, core, dynamics, ensemble, metrology, tomography

import workloads


class CheckFailure(Exception):
    """A program output failed a correctness check."""


def _cli(argv):
    """In-process `mesospin` invocation; returns the exit code."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main([str(a) for a in argv])


def _write_config(path, j):
    cfg = replace(config.default_config(), j=j)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(config.config_to_json(cfg), handle)
    return cfg


def read_artifact(out_dir, name, fmt):
    """(records, summary) of one artifact in either output format."""
    if fmt == "json":
        with open(os.path.join(out_dir, f"{name}.json"), encoding="utf-8") as handle:
            doc = json.load(handle)
        return doc["records"], doc["summary"]
    with open(os.path.join(out_dir, f"{name}.csv"), encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    records = [line.split(",") for line in lines[1:] if line]
    with open(os.path.join(out_dir, f"{name}.summary.json"), encoding="utf-8") as handle:
        summary = json.load(handle)["summary"]
    return records, summary


def _manifest_files(out_dir, name):
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as handle:
        return json.load(handle)["artifacts"][name]["files"]


def _require(condition, message):
    if not condition:
        raise CheckFailure(message)


def hellinger_gain(records, j, atom_total, window):
    """Sampled Hellinger gain recomputed from the fig3d distance column.

    Repeats the slope fit of `gain_from_hellinger`: bias-corrected
    distances within the window, fitted through the origin.
    """
    dx, dh = [], []
    for row in records:
        sep, dist = float(row[0]), float(row[3])
        if sep == 0.0 or sep > window:
            continue
        dx.append(sep)
        dh.append(math.sqrt(max(dist * dist - 2 * j / (8 * atom_total), 0.0)))
    dx, dh = np.asarray(dx), np.asarray(dh)
    slope = float(dx @ dh / (dx @ dx))
    return slope**2 / (j / 4.0)


class Workload:
    """Requests of one workload, run and checked in one process."""

    name = ""
    # measure exactly one pass over the request list, whatever the time
    one_pass = False
    min_ops = 2

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.requests = workloads.GENERATORS[self.name](seed)
        self.out_dirs = {}

    def warm_up(self):
        """One request per spin size, filling the package's caches."""
        raise NotImplementedError

    def run(self, request):
        raise NotImplementedError

    def check(self, request, result):
        """Raise CheckFailure on a wrong output; False marks a failed op."""
        raise NotImplementedError

    def finish(self):
        """`mesospin verify` on every artifact directory of the run."""
        for out_dir in self.out_dirs.values():
            _require(_cli(["verify", "--out", out_dir]) == 0,
                     f"mesospin verify failed on {out_dir}")


class ScanWorkload(Workload):
    """parity / ramsey / hellinger CLI requests into shared out dirs."""

    name = "scan"
    # keeps at least ten requests beyond the 95th latency percentile
    min_ops = 200
    _ARTIFACT = {"parity": "fig3a", "ramsey": "fig3b", "hellinger": "fig3d"}
    # A sampled gain may exceed the variance bound by its sampling noise.
    # Parity and Ramsey gains carry an uncertainty and get 4 sigma.  The
    # sampled Hellinger gain exceeded its bound in 24% of 600 requests,
    # by up to 11%, far beyond its reported slope error (the reference
    # distribution's noise is shared by every point), so it gets a fixed
    # relative allowance that only catches gross errors.
    HELLINGER_ALLOWANCE = 0.25

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.configs = {}
        for j in workloads.SCAN_J:
            path = os.path.join(workdir, f"config-j{int(j)}.json")
            self.configs[j] = (path, _write_config(path, j))
        self.hashes = {}
        self.repeats_checked = 0

    def _out(self, j, fmt):
        return self.out_dirs.setdefault(
            (j, fmt), os.path.join(self.workdir, f"out-j{int(j)}-{fmt}"))

    def _argv(self, request, out_dir):
        return [request.command, "--config", self.configs[request.j][0],
                "--samples", request.samples, "--seed", request.seed,
                "--out", out_dir, "--format", request.fmt]

    def warm_up(self):
        out_dir = os.path.join(self.workdir, "warm-up")
        for j in workloads.SCAN_J:
            request = workloads.ScanRequest("parity", j, 10, "json", 0)
            _require(_cli(self._argv(request, out_dir)) == 0, "warm-up request failed")

    def run(self, request):
        return _cli(self._argv(request, self._out(request.j, request.fmt)))

    def check(self, request, code):
        if code != 0:
            return False
        out_dir = self._out(request.j, request.fmt)
        name = self._ARTIFACT[request.command]
        records, summary = read_artifact(out_dir, name, request.fmt)
        j = request.j
        if request.command == "hellinger":
            _require(0.0 <= summary["gain_ideal"] <= 2 * j * (1 + 1e-9),
                     f"ideal Hellinger gain {summary['gain_ideal']} outside [0, 2j]")
            gain = summary["gain_imperfect_sampled"]
            recomputed = hellinger_gain(records, j, self.configs[j][1].atom_total,
                                        summary["window_rad"])
            _require(abs(gain - recomputed) <= 1e-9 * max(1.0, gain),
                     f"{request}: Hellinger gain {gain} does not follow from "
                     f"its distance column ({recomputed})")
            limit = summary["bound_imperfect"] * (1.0 + self.HELLINGER_ALLOWANCE)
        else:
            gain = summary["gain"]
            limit = summary["bound"] + 4.0 * summary["gain_uncertainty"]
        _require(0.0 <= gain <= limit, f"{request}: gain {gain} outside [0, {limit}]")
        files = _manifest_files(out_dir, name)
        if request in self.hashes:
            self.repeats_checked += 1
            _require(self.hashes[request] == files,
                     f"{request}: repeated request changed {name} bytes")
        else:
            self.hashes[request] = files
        return True


class TomoWorkload(Workload):
    """synthesize_dataset -> fit_density_matrix -> (bootstrap) -> wigner,
    then the Fisher and readout-scheme gains of the reconstructed state."""

    name = "tomo"
    one_pass = True
    FIDELITY_FLOOR = 0.85
    IMPERFECT_SAMPLES = 200
    # the sphere grid of `mesospin tomo`
    THETAS = np.linspace(0.0, math.pi, 181)
    PHIS = np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False)

    def _truth(self, request):
        j = request.j
        if request.state == "kitten":
            return dynamics.kitten_state(j)
        if request.state == "revival":
            return dynamics.revival_state(j, 2)
        if request.state == "coherent":
            return core.basis_state(j, j, axis=core.X_AXIS)
        base = config.default_config()
        imp = replace(base.imperfections, pulse_rise_time=0.0,
                      scattering_probability=0.0,
                      ensemble_samples=self.IMPERFECT_SAMPLES)
        coupling = replace(base.coupling, include_jx4=False)
        return ensemble.ensemble_evolve(core.basis_state(j, -j), coupling, imp,
                                        base.kitten_pulse_time(), request.data_seed)

    def warm_up(self):
        # noise-free data: the caches fill without a long fit
        for j in workloads.TOMO_J:
            truth = dynamics.kitten_state(j)
            fit = tomography.fit_density_matrix(tomography.synthesize_dataset(truth))
            tomography.wigner(fit.rho, self.THETAS, self.PHIS)

    def run(self, request):
        truth = self._truth(request)
        data = tomography.synthesize_dataset(truth, atom_total=request.atom_total,
                                             seed=request.data_seed)
        fit = tomography.fit_density_matrix(data)
        if not fit.converged:
            # `mesospin tomo` stops here with exit code 3
            return truth, fit, None, None, None
        boot = None
        if request.bootstrap:
            boot = tomography.bootstrap_errors(data, n_resamples=request.bootstrap,
                                               seed=request.bootstrap_seed)
        w = tomography.wigner(fit.rho, self.THETAS, self.PHIS)
        gains = (metrology.fisher_gain(fit.rho),
                 budget.measurement_scheme_gains(fit.rho))
        return truth, fit, boot, w, gains

    def check(self, request, result):
        truth, fit, boot, w, gains = result
        rho = fit.rho
        _require(np.max(np.abs(rho - rho.conj().T)) <= 1e-10, f"{request}: rho not Hermitian")
        _require(np.linalg.eigvalsh(rho).min() >= -1e-10, f"{request}: rho not PSD")
        _require(abs(np.trace(rho).real - 1.0) <= 1e-10, f"{request}: trace of rho is not 1")
        fid = core.fidelity(truth, rho)
        _require(fid >= self.FIDELITY_FLOOR, f"{request}: fidelity {fid:.4f} below floor")
        if not fit.converged:
            return False
        if boot is not None:
            _require(np.all(np.isfinite(boot)) and boot.min() >= 0.0,
                     f"{request}: bootstrap errors not finite and non-negative")
        _require(np.all(np.isfinite(w)), f"{request}: Wigner map not finite")
        fisher, schemes = gains
        two_j = 2 * request.j
        # F(phi) <= 4 Var(Jz) <= (2j)^2, so the Fisher gain is at most 2j
        _require(0.0 <= fisher <= two_j * (1 + 1e-9),
                 f"{request}: Fisher gain {fisher} outside [0, 2j]")
        for scheme in ("parity", "hellinger", "magnetization", "pulse_hellinger"):
            gain = getattr(schemes, scheme).gain
            _require(math.isfinite(gain) and gain >= 0.0,
                     f"{request}: {scheme} gain {gain} not finite and non-negative")
        return True


WORKLOAD_TYPES = {w.name: w for w in (ScanWorkload, TomoWorkload)}


class Outcome:
    """Latencies (s) and failed-op count of one loop, and the check error."""

    def __init__(self):
        self.latencies = []
        self.failed = 0
        self.error = None


def drive(workload, *, seconds=None, count=None, tracer=None):
    """Closed loop over the workload's requests, one at a time.

    Runs until the busy time reaches `seconds` (with at least the
    workload's `min_ops` ops), for one pass of a one-pass workload, or
    for exactly `count` ops.  A failed correctness check counts as a
    failed op and stops the loop.
    """
    out = Outcome()
    requests = workload.requests
    n = len(requests)
    busy = 0.0
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif workload.one_pass:
            if i >= n:
                break
        elif busy >= seconds and i >= workload.min_ops:
            break
        request = requests[i % n]
        if tracer is not None:
            tracer.op_id = i
            tracer.active = True
            span = tracer.begin(f"op.{workload.name}", "bench")
        t0 = time.perf_counter()
        try:
            result = workload.run(request)
        finally:
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.end(span)
                tracer.active = False
        busy += dt
        out.latencies.append(dt)
        i += 1
        try:
            if not workload.check(request, result):
                out.failed += 1
        except CheckFailure as exc:
            out.failed += 1
            out.error = str(exc)
            break
    return out
