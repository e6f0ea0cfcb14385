"""Metric definitions and how each is computed from a run.

End-to-end metrics come from untraced repeats and are reported as medians
over the repeats of one run.  Per-layer metrics come from one traced repeat.
The names and units are those ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import numpy as np

from checks import served_correct
from tracer import inside

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
#: name -> unit, for the end-to-end metrics of an untraced run.
END_TO_END = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
#: name -> unit, for the per-layer metrics of a traced run.
PER_LAYER = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}

#: Percentile ladder for tails: the highest rung with at least ten samples
#: beyond it is reported, so a tail is never one or two stragglers.
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99)


def tail_percentile(count: int) -> float:
    """The highest ladder rung with at least ten of ``count`` samples beyond it."""
    rungs = [p for p in TAIL_LADDER if count * (100.0 - p) / 100.0 >= 10.0]
    return rungs[-1] if rungs else TAIL_LADDER[0]


def median(values) -> float:
    return float(statistics.median(values))


def serving_summary(serve) -> dict:
    """Per-repeat serving numbers (host times plus exact simulated ones)."""
    served = len(serve.outputs)
    tail = tail_percentile(served)
    latencies = np.array([serve.latencies_s[rid] for rid in serve.ids if rid in serve.outputs])
    queue = np.array([serve.queue_ticks[rid] for rid in serve.ids if rid in serve.outputs])
    correct, _ = served_correct(serve)
    second_half = serve.ids[len(serve.ids) // 2:]
    end_correct, end_served = served_correct(serve, second_half)
    return {
        "throughput_sps": served / serve.wall_s,
        "request_p50_ms": 1e3 * float(np.percentile(latencies, 50)),
        "request_tail_ms": 1e3 * float(np.percentile(latencies, tail)),
        "queue_tail_ticks": float(np.percentile(queue, tail, method="higher")),
        "served_acc": correct / served,
        "end_acc": end_correct / end_served,
        "served_share": served / len(serve.ids),
        "energy_uj_per_req": serve.energy_uj / served,
        "tail_percentile": tail,
        "served": served,
    }


def end_to_end(summaries, setup_samples, offline_samples, pipeline, peak_rss_mb: float) -> dict:
    """The end-to-end metric block: medians over the run's repeats.

    ``summaries`` are :func:`serving_summary` results, one per repeat;
    ``pipeline`` is a repeat's pipeline result (exact, so any repeat's).
    """
    values = {
        "setup_s": median(setup_samples),
        "offline_s": median(offline_samples),
        "peak_rss_mb": peak_rss_mb,
        "mc_acc": float(np.mean(pipeline.mc_accs)),
        "mc_acc_tuned": float(np.mean(pipeline.mc_tuned_accs)),
    }
    for name in END_TO_END:
        if name not in values:
            values[name] = median([summary[name] for summary in summaries])
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _mean_attr(spans, key: str) -> float:
    return float(np.mean([span.attrs[key] for span in spans])) if spans else 0.0


def per_layer(tracer, repeat, overhead: float, layers: list[str]) -> dict:
    """Per-layer metrics of one traced repeat, plus self time per layer."""
    serve = repeat.serve
    engine, lifecycle = serve.engine, serve.lifecycle
    report = engine.telemetry.report()
    cache = engine.cache.stats
    steps = tracer.by_name("training.step")
    mc = tracer.by_name("eval.mc")
    mc_s = sum(span.seconds for span in mc if not span.attrs["tuned"])
    mc_tuned_s = sum(span.seconds for span in mc if span.attrs["tuned"])
    forwards = tracer.by_name("backends.forward")
    fused = tracer.by_name("backends.fused")
    ticks = [span.seconds for span in tracer.by_name("engine.step")]
    in_serve = inside("bench.serve")
    probes = [span for span in tracer.by_name("lifecycle.probe") if in_serve(span)]
    events = lifecycle.events if lifecycle is not None else []
    useful = [
        event for event in events
        if event.quality_after >= lifecycle.floor_for(engine.chip_by_id(event.chip_id))
    ]
    fused_report = report["fused"]
    fused_attempted = fused_report["batches"] + fused_report["fallback_batches"]
    serve_wall = tracer.total_s("bench.serve")
    probe_s = sum(span.seconds for span in probes)
    values = {
        "training.pretrain_s": tracer.total_s("training.pretrain_epoch"),
        "training.qavat_s": tracer.total_s("training.qavat_fit"),
        "training.step_ms": 1e3 * median([s.seconds for s in steps]) if steps else 0.0,
        "training.steps": len(steps),
        "quant.convert_s": tracer.total_s("quant.convert"),
        "quant.calibrate_s": tracer.total_s("quant.calibrate"),
        "quant.mmse_calls": len(tracer.by_name("quant.mmse")),
        "nn.conv_fwd_s": tracer.total_s("nn.conv_fwd"),
        "nn.conv_bwd_s": tracer.total_s("nn.conv_bwd"),
        "nn.conv_calls": len(tracer.by_name("nn.conv_fwd")),
        "nn.im2col_mb": sum(s.attrs["bytes"] for s in tracer.by_name("nn.im2col")) / 1e6,
        "eval.mc_s": mc_s,
        "eval.mc_chips": sum(span.attrs["chips"] for span in mc),
        "eval.mc_tuned_s": mc_tuned_s,
        "selftuning.overhead": _ratio(mc_tuned_s, mc_s),
        "backends.program_calls": len(tracer.by_name("backends.program")),
        "backends.program_s": tracer.total_s("backends.program"),
        "backends.forward_calls": len(forwards),
        "backends.forward_s": tracer.total_s("backends.forward"),
        "backends.forward_rows_mean": _mean_attr(forwards, "rows"),
        "backends.fused_calls": len(fused),
        "backends.fused_s": tracer.total_s("backends.fused"),
        "backends.fused_rows_mean": _mean_attr(fused, "rows"),
        "pim.mvm_calls": len(tracer.by_name("pim.mvm")),
        "pim.mvm_s": tracer.total_s("pim.mvm"),
        "pim.program_calls": len(tracer.by_name("pim.program")),
        "engine.ticks": len(ticks),
        "engine.tick_p50_ms": 1e3 * float(np.percentile(ticks, 50)),
        "engine.tick_tail_ms": 1e3 * float(
            np.percentile(ticks, tail_percentile(len(ticks)))
        ),
        "engine.step_self_s": tracer.total_s("engine.step")
        - tracer.nested_layer_s("engine.step", "backends"),
        "batcher.batches": report["batches"],
        "batcher.occupancy": report["occupancy_mean"],
        "fused.groups": fused_report["groups"],
        "fused.batches": fused_report["batches"],
        "fused.fallback_batches": fused_report["fallback_batches"],
        "fused.share": _ratio(fused_report["batches"], fused_attempted),
        "cache.hits": cache.hits,
        "cache.misses": cache.misses,
        "cache.hit_rate": cache.hit_rate,
        "cache.spills": cache.spills,
        "cache.peak_resident": cache.peak_resident,
        "cache.program_s": cache.program_seconds,
        "lifecycle.install_s": tracer.total_s("lifecycle.install"),
        "lifecycle.advance_s": tracer.total_s("lifecycle.advance"),
        "lifecycle.probes": len(probes),
        "lifecycle.probe_s": probe_s,
        "lifecycle.probe_share": _ratio(probe_s, serve_wall),
        "lifecycle.recalibrations": len(events),
        "lifecycle.recal_useful": _ratio(len(useful), len(events)),
        "variability.realizations": len(tracer.by_name("variability.realize")),
        "trace.overhead": overhead,
    }
    table = tracer.layer_table()
    values.update({f"self.{layer}_s": table[layer]["self_s"] for layer in layers})
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in PER_LAYER.items()}

