"""Tests of the benchmark itself: generators, span arithmetic, metric names.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(name):
    make = workloads.GENERATORS[name]
    assert make(11) == make(11)
    assert make(11) != make(12)


def test_scan_blocks_hold_every_draw_once_plus_repeats():
    requests = workloads.scan_requests(5)
    draws = (len(workloads.SCAN_COMMANDS) * len(workloads.SCAN_J)
             * len(workloads.SCAN_SAMPLES) * len(workloads.FORMATS))
    first = requests[:draws]
    assert len({(r.command, r.j, r.samples, r.fmt) for r in first}) == draws
    repeats = len(requests) - len(set(requests))
    assert repeats == (workloads.SCAN_BLOCKS - 1) * workloads.SCAN_REPEATS_PER_BLOCK


def test_tomo_pass_has_every_case_once_and_fixed_datasets():
    a, b = workloads.tomo_requests(1), workloads.tomo_requests(2)
    cases = {(r.j, r.state, r.atom_total) for r in a if not r.bootstrap}
    assert len(cases) == len(workloads.TOMO_J) * len(workloads.TOMO_STATES) * len(workloads.TOMO_ATOMS)
    assert sum(1 for r in a if r.bootstrap) == len(workloads.TOMO_STATES)
    assert sorted(a) == sorted(b)


def _span(i, parent, layer, start, end, op=0):
    return [i, parent, op, f"{layer}.f{i}", layer, start, end]


def test_self_time_on_hand_built_tree():
    spans = [
        _span(0, None, "bench", 0.0, 10.0),
        _span(1, 0, "cli", 1.0, 9.0),
        _span(2, 1, "ensemble", 2.0, 5.0),
        _span(3, 2, "rng", 2.5, 3.0),
        _span(4, 1, "ensemble", 6.0, 7.0),
        _span(5, 1, "config", 8.0, 8.25),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({0: 2.0, 1: 3.75, 2: 2.5, 3: 0.5, 4: 1.0, 5: 0.25})
    layers = tracing.layer_self_seconds(spans)
    assert layers == pytest.approx({"bench": 2.0, "cli": 3.75, "ensemble": 3.5,
                                    "rng": 0.5, "config": 0.25})
    assert sum(layers.values()) == pytest.approx(10.0)


def test_self_time_merges_overlapping_children():
    spans = [
        _span(0, None, "a", 0.0, 4.0),
        _span(1, 0, "b", 1.0, 3.0),
        _span(2, 0, "b", 2.0, 3.5),
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(1.5)


def test_tracer_records_nesting_and_op_ids():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    tracer.active = True
    tracer.op_id = 7
    outer = tracer.begin("op.x", "bench")
    assert tracer.call("rng.substream", "rng", lambda a: a + 1, (1,), {}) == 2
    tracer.end(outer)
    assert [s[:5] for s in tracer.spans] == [[0, None, 7, "op.x", "bench"],
                                            [1, 0, 7, "rng.substream", "rng"]]
    assert tracer.counts["rng.substream.calls"] == 1


def test_instrument_counts_cross_module_calls_and_restores():
    from mesospin import dynamics, measurement, rng, tomography

    modules = {"tomography": tomography, "measurement": measurement, "rng": rng}
    original = tomography.substream
    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer, modules)
    try:
        assert tomography.substream is not original
        state = dynamics.kitten_state(2.0)
        tomography.synthesize_dataset(state, atom_total=100, seed=3)  # inactive
        assert not tracer.spans
        tracer.active = True
        tomography.synthesize_dataset(state, atom_total=100, seed=3)
    finally:
        restore()
    assert tomography.substream is original
    settings = 1 + len(tomography.default_equatorial_angles())
    # one substream per setting in tomography, one inside sample_counts
    assert tracer.counts["rng.substream.calls"] == 2 * settings
    assert tracer.counts["measurement.sample_counts.calls"] == settings
    assert tracer.counts["tomography.synthesize_dataset.calls"] == 1


def _benchmark_doc():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_printed_metric_names_match_benchmark_json():
    doc = _benchmark_doc()
    declared_e2e = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in doc["per_layer"]}

    e2e = run.end_to_end_metrics([1.0, 2.0, 3.0], [0.1, 0.2, 0.3], 2048)
    assert {k: v["unit"] for k, v in e2e.items()} == declared_e2e
    layer = run.per_layer_metrics({}, {}, 1, 0.0)
    assert {k: v["unit"] for k, v in layer.items()} == declared_layer
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_end_to_end_values():
    e2e = run.end_to_end_metrics([3.0, 1.0, 2.0], [0.1, 0.2, 0.3, 0.4], 2048)
    assert e2e["setup_s"]["value"] == 2.0
    assert e2e["ops_per_s"]["value"] == pytest.approx(4.0)
    assert e2e["latency_p50_ms"]["value"] == pytest.approx(250.0)
    assert e2e["latency_p95_ms"]["value"] == pytest.approx(385.0)
    assert e2e["peak_rss_mb"]["value"] == 2.0
