"""Fleet serving end-to-end: batched inference across self-tuned chips.

The deployment story of the paper is per-chip self-tuning: every
fabricated chip carries its own sampled variation, so real traffic is
answered by a *fleet* of non-identical accelerators.  This example builds
that fleet with :mod:`repro.serve`:

1. train QAVAT against within-chip variation and calibrate, as usual;
2. stand up an :class:`~repro.serve.InferenceEngine` over a pool of
   mixed-variation chips, each programmed once (deep-copied model +
   injected variation + GTM/LTM self-tuning) into an LRU mapping cache;
3. probe per-chip calibration quality, then serve the same request
   stream under each scheduling policy and compare chip load/telemetry;
4. shrink the mapping cache below the fleet size to watch reprogramming
   (cache misses/evictions) appear in the stats.

Run:  python examples/serving_fleet.py
"""

import time

import numpy as np

from repro import QConfig, VariabilitySpec, evaluate_clean, train_qavat
from repro.datasets import batch_source, synthetic_mnist
from repro.eval.metrics import top1_accuracy
from repro.models import build_model
from repro.nn import init
from repro.selftuning import SelfTuningConfig
from repro.serve import InferenceEngine, ServeConfig
from repro.variability import LayerFixedVariance

SIGMA_TOTAL = 0.5
NUM_CHIPS = 4
REQUESTS = 160


def main() -> None:
    train, test = synthetic_mnist(train_per_class=32, test_per_class=8)
    variance_model = LayerFixedVariance()
    sigma_each = SIGMA_TOTAL / np.sqrt(2.0)

    # Step 1: the usual single-model pipeline — QAVAT against within-chip
    # variation; deployment adds the between-chip component.
    init.seed(1)
    model = build_model("lenet5-mini")
    train_spec = VariabilitySpec.within_only(sigma_each, variance_model)
    train_qavat(
        model,
        batch_source(train, 32, seed=0),
        QConfig.from_notation("A4W2"),
        train_spec,
        epochs=10,
        lr=0.02,
        float_pretrain_epochs=5,
        n_variation_samples=4,
    )
    model.eval()
    print(f"clean accuracy: {100 * evaluate_clean(model, test):.1f}%")

    deploy_spec = VariabilitySpec.mixed(sigma_each, variance_model)
    workload = np.concatenate([test.images] * (1 + (REQUESTS - 1) // len(test)))[:REQUESTS]
    labels = np.concatenate([test.labels] * (1 + (REQUESTS - 1) // len(test)))[:REQUESTS]
    ids = [f"r{i:05d}" for i in range(REQUESTS)]

    # Steps 2-3: one engine per scheduling policy, same fleet seed — the
    # chips are identical across engines, only dispatch differs.
    print(f"\nfleet of {NUM_CHIPS} chips, {REQUESTS} requests, batch<=32:")
    for policy in ("round-robin", "least-loaded", "accuracy-weighted"):
        engine = InferenceEngine(
            model,
            deploy_spec,
            num_chips=NUM_CHIPS,
            config=ServeConfig(
                max_batch=32,
                max_wait=2,
                policy=policy,
                seed=7,
                self_tuning=SelfTuningConfig(kind="layer"),
            ),
        )
        qualities = engine.probe_fleet(test, k=1)
        started = time.perf_counter()
        outputs = engine.run(workload, ids=ids)
        seconds = time.perf_counter() - started
        logits = np.stack([outputs[rid] for rid in ids])
        accuracy = top1_accuracy(logits, labels)
        load = "  ".join(
            f"{cid}={n}" for cid, n in sorted(engine.telemetry.per_chip_samples.items())
        )
        print(f"\n  policy={policy}")
        print(f"    chip quality: " + "  ".join(
            f"{cid}={100 * q:.0f}%" for cid, q in sorted(qualities.items())))
        print(f"    chip load:    {load}")
        print(f"    fleet accuracy {100 * accuracy:.1f}%  "
              f"throughput {REQUESTS / seconds:.0f} req/s  "
              f"queue ticks p-max {engine.telemetry.queue_ticks.max:.0f}")

    # Step 4: a cache smaller than the fleet forces reprogramming.
    engine = InferenceEngine(
        model,
        deploy_spec,
        num_chips=NUM_CHIPS,
        config=ServeConfig(max_batch=16, max_wait=1, max_resident_chips=2, seed=7),
    )
    engine.run(workload, ids=ids)
    stats = engine.cache.stats
    print(f"\ncache capacity 2 vs fleet of {NUM_CHIPS}: "
          f"hits={stats.hits} misses={stats.misses} evictions={stats.evictions} "
          f"(reprogram cost {1e3 * stats.program_seconds:.1f} ms)")
    print("\ntakeaway: batching + a mapping cache turn the per-chip self-tuning "
          "story into a serving system — chips are programmed once, requests are "
          "fused into crossbar-friendly batches, and scheduling decides which "
          "(non-identical) chip answers.")


if __name__ == "__main__":
    main()
