"""Tests of the benchmark itself: smoke-size workloads and its checker.

    python -m pytest perfbench -q

Each workload runs once at smoke size (fewer epochs and requests), checked
by the same code the benchmark uses; then corrupted copies of a run are fed
to the checker, which must reject them.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import metrics
import workloads
from tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def _smoke(workload: workloads.Workload) -> workloads.Workload:
    pipeline = workload.pipeline
    serving = workload.serving
    return dataclasses.replace(
        workload,
        pipeline=dataclasses.replace(
            pipeline,
            pretrain_epochs=min(pipeline.pretrain_epochs, 3),
            qavat_epochs=min(pipeline.qavat_epochs, 2),
        ),
        serving=dataclasses.replace(serving, requests=min(serving.requests, 256)),
    )


@pytest.fixture(scope="module", autouse=True)
def smoke_workloads():
    """Swaps in the smoke sizes; yields the full-size workloads."""
    full = dict(workloads.WORKLOADS)
    workloads.WORKLOADS.update({name: _smoke(w) for name, w in full.items()})
    yield full
    workloads.WORKLOADS.update(full)


@pytest.fixture(scope="module")
def runs(smoke_workloads):
    """One untraced and one traced smoke repeat per workload."""
    results = {}
    for name in workloads.WORKLOADS:
        plain = workloads.repeat(name, SEED)
        tracer = Tracer()
        with tracer, tracer.span("bench.repeat"):
            traced = workloads.repeat(name, SEED, span=tracer.span)
        results[name] = (plain, traced, tracer)
    return results


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["paths"] == [HERE.name]
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_each_half_of_every_trace_is_whole_passes(smoke_workloads):
    for workload in smoke_workloads.values():
        assert workload.serving.requests % (2 * 80) == 0
    images = workloads.request_images(80, 480, seed=SEED)
    for half in (images[:240], images[240:]):
        assert np.array_equal(np.bincount(half, minlength=80), np.full(80, 3))
    assert np.array_equal(images, workloads.request_images(80, 480, seed=SEED))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_passes_every_check(runs, name):
    plain, traced, _ = runs[name]
    workload = workloads.WORKLOADS[name]
    for repeat in (plain, traced):
        assert checks.check_pipeline(repeat.pipeline, tuned_must_win=False) == []
        assert checks.check_serving(repeat.serve, workload.serving.max_resident_chips) == []
    assert checks.check_agree([checks.fingerprint(plain), checks.fingerprint(traced)]) == []


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_reports_every_metric(runs, name):
    plain, traced, tracer = runs[name]
    end_to_end = metrics.end_to_end(
        [metrics.serving_summary(plain.serve)], [plain.setup_s], [plain.offline_s],
        plain.pipeline, 100.0,
    )
    assert list(end_to_end) == list(metrics.END_TO_END)
    for entry in end_to_end.values():
        assert np.isfinite(entry["value"]) and entry["value"] > 0
    per_layer = metrics.per_layer(tracer, traced, 0.0, LAYERS)
    assert list(per_layer) == list(metrics.PER_LAYER)
    assert all(np.isfinite(entry["value"]) for entry in per_layer.values())
    assert per_layer["engine.ticks"]["value"] == traced.serve.engine.now
    assert per_layer["training.steps"]["value"] > 0
    assert per_layer["backends.program_calls"]["value"] > 0


def test_layers_do_work_where_the_workload_says(runs):
    def layer(name, metric):
        _, traced, tracer = runs[name]
        return metrics.per_layer(tracer, traced, 0.0, LAYERS)[metric]["value"]

    assert layer("serve-circuit", "pim.mvm_calls") > 0
    assert layer("serve", "pim.mvm_calls") == 0
    assert layer("serve", "backends.fused_calls") > 0
    assert layer("lifetime", "lifecycle.probes") > 0
    assert layer("lifetime", "cache.spills") > 0
    assert layer("offline", "quant.mmse_calls") > layer("serve", "quant.mmse_calls")


def test_tracing_restores_every_entry_point(runs):
    import repro.nn.conv as conv
    import repro.serve.engine as engine

    assert conv.im2col.__module__ == "repro.nn.conv"
    assert not hasattr(conv.im2col, "__wrapped__")
    assert not hasattr(engine.InferenceEngine.step, "__wrapped__")


def _copy(serve, **changes):
    return dataclasses.replace(serve, **changes)


def test_checker_rejects_a_dropped_request(runs):
    serve = runs["serve"][0].serve
    outputs = dict(serve.outputs)
    outputs.pop(serve.ids[3])
    failures = checks.check_serving(_copy(serve, outputs=outputs))
    assert any("neither served nor dead-lettered" in f for f in failures)


def test_checker_rejects_permuted_logits(runs):
    serve = runs["serve"][0].serve
    order = np.random.default_rng(0).permutation(len(serve.ids))
    outputs = {rid: serve.outputs[serve.ids[j]] for rid, j in zip(serve.ids, order)}
    failures = checks.check_serving(_copy(serve, outputs=outputs))
    assert any("not above chance" in f for f in failures)
    assert checks.outputs_digest(_copy(serve, outputs=outputs)) != checks.outputs_digest(serve)


def test_checker_counts_distinct_images_not_requests(runs):
    """Requests repeat the 80 test images, so a fleet right on only 14 of
    them (17.5%) must fail, though the request count alone would make that
    accuracy look well above chance."""
    serve = runs["serve"][0].serve
    eye = np.eye(serve.num_classes)
    outputs = {
        rid: eye[label if image < 14 else (label + 1) % serve.num_classes]
        for rid, image, label in zip(serve.ids, serve.images, serve.labels)
    }
    near_chance = _copy(serve, outputs=outputs)
    correct, count = checks.served_correct(near_chance)
    assert checks.above_chance(correct / count, count, serve.num_classes)
    assert any("not above chance" in f for f in checks.check_serving(near_chance))


def test_checker_rejects_repeats_that_disagree(runs):
    plain = checks.fingerprint(runs["offline"][0])
    other = dict(plain, mc_accs=list(reversed(plain["mc_accs"])) + [0.0])
    assert checks.check_agree([plain, other]) == ["repeat 1 differs from repeat 0 in mc_accs"]


def test_checker_rejects_a_resident_bound_overrun(runs):
    serve = runs["lifetime"][0].serve
    bound = serve.engine.cache.stats.peak_resident - 1
    assert any("peak resident" in f for f in checks.check_serving(serve, bound))


def test_tail_percentile_keeps_ten_samples_beyond():
    assert metrics.tail_percentile(9600) == 99.5
    assert metrics.tail_percentile(19200) == 99.9
    assert metrics.tail_percentile(480) == 95.0
    assert metrics.tail_percentile(5) == 50.0


def test_command_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the command must fail."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "serve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
