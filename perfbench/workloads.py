"""The benchmark's four workloads, built only from the repo's public API.

Every workload runs both halves of the product: a model pipeline (train or
convert, calibrate, Monte-Carlo robustness with and without GTM
self-tuning) and an open-loop serving phase on a simulated chip fleet.  The
workloads differ in which half is heavy:

* ``offline``: the pipeline is the timed phase (VGG-11 table cell plus a
  ResNet-18 conversion); its serving phase is a deployment check under the
  ``serve`` workload's traffic.
* ``serve``, ``serve-circuit``, ``lifetime``: a LeNet-5 pipeline is set-up
  work; serving under a seeded arrival trace is the timed phase.

``repeat(name, seed)`` runs one set-up and its timed phase and returns a
:class:`Repeat` holding the wall times and the raw outputs the checker
needs.  Layer entry points are looked up through their modules at call
time (``baselines.train_qavat``, ``robustness.evaluate_robustness``), so
``tracer.py`` can patch them where the callers look them up.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import time
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

import repro.eval.robustness as robustness
import repro.quant.calibration as calibration
import repro.quant.ptq as ptq
import repro.training.baselines as baselines
from repro.backends import make_backend
from repro.datasets.loaders import batch_iterator, batch_source
from repro.experiments.configs import EXPERIMENT_SCALES, dataset_for, model_for
from repro.models.registry import build_model
from repro.nn import init
from repro.quant.qconfig import QConfig
from repro.selftuning.tuner import SelfTuningConfig
from repro.serve import (
    ChipLifecycle,
    FleetSpec,
    InferenceEngine,
    LifecycleConfig,
    PoissonTrace,
    ServeConfig,
    UniformTrace,
)
from repro.variability.models import variance_model_by_name
from repro.variability.sampler import VariabilitySpec

SCALE = EXPERIMENT_SCALES["tiny"]
NOTATION = "A4W2"
# sigma_tot = 0.3 split evenly into within- and between-chip components
# (the paper's mixed scenario); training sees the within-chip part only.
SIGMA_EACH = 0.3 / np.sqrt(2.0)
MC_CHIPS = 10
#: Seed of everything that makes up the system under test: model
#: initialization, batch order and training noise, the Monte-Carlo chip
#: population, the serving fleet and its drift streams.  ``--seed`` drives
#: the inputs: the arrival trace and the order in which test images are
#: requested.
#: Seeded training would make accuracy spread beyond any useful bound: at
#: tiny scale some training seeds do not converge (LeNet-5 from seed 11
#: serves at 39% accuracy).
SYSTEM_SEED = 0


@dataclass(frozen=True)
class Pipeline:
    """The model half of a workload."""

    model: str
    dataset: str
    pretrain_epochs: int
    qavat_epochs: int
    resnet_stage: bool = False


@dataclass(frozen=True)
class Serving:
    """The serving half of a workload: fleet, batching and arrival trace."""

    backend: str
    num_chips: int
    fleet: str | None
    max_batch: int
    max_wait: int
    policy: str
    trace: str
    rate: float
    requests: int
    max_resident_chips: int | None = None
    lifecycle: bool = False


@dataclass(frozen=True)
class Workload:
    """Both halves of a workload and which one is the timed phase."""

    pipeline: Pipeline
    serving: Serving
    timed: str  # "pipeline" or "serving"


_LENET = Pipeline("lenet5", "mnist", SCALE.float_pretrain_epochs, SCALE.train_epochs)


def _read_path(backend: str, rate: float, requests: int) -> Serving:
    """The ``serve`` traffic shape: 16 chips, ``max_batch`` 16, ``max_wait`` 4,
    round-robin, seeded Poisson arrivals."""
    return Serving(backend, 16, None, 16, 4, "round-robin", "poisson", rate, requests)


_SERVE = _read_path("fake-quant", 32.0, 9600)

WORKLOADS: dict[str, Workload] = {
    "offline": Workload(
        Pipeline("vgg11", "cifar10", 4, 4, resnet_stage=True), _SERVE, timed="pipeline"
    ),
    "serve": Workload(_LENET, _SERVE, timed="serving"),
    "serve-circuit": Workload(_LENET, _read_path("circuit", 64.0, 9600), timed="serving"),
    "lifetime": Workload(
        _LENET,
        Serving(
            "fake-quant", 48, "rram:24,flash:24", 32, 4, "drift-aware", "uniform", 4.0,
            480, max_resident_chips=16, lifecycle=True,
        ),
        timed="serving",
    ),
}


@dataclass
class PipelineResult:
    """What the model pipeline produced (all exact for a given seed)."""

    model: object
    test: object
    eval_spec: VariabilitySpec
    num_classes: int
    clean_acc: float
    mc_accs: list[float]
    mc_tuned_accs: list[float]
    weights_digest: str


@dataclass
class ServeResult:
    """One serving phase: requests, outputs, timings and the objects that ran."""

    ids: list[str]
    images: np.ndarray
    labels: np.ndarray
    outputs: dict[str, np.ndarray]
    dead_letters: set[str]
    latencies_s: dict[str, float]
    queue_ticks: dict[str, int]
    wall_s: float
    num_classes: int
    energy_uj: float
    digest: str
    engine: InferenceEngine
    lifecycle: ChipLifecycle | None
    describe: dict


@dataclass
class Repeat:
    """One set-up, pipeline and serving phase, with its wall times.

    ``serve`` is None for a set-up-only repeat.
    """

    setup_s: float | None
    offline_s: float | None
    timed_s: float
    wall_s: float
    pipeline: PipelineResult
    serve: ServeResult | None


def _specs() -> tuple[VariabilitySpec, VariabilitySpec]:
    variance = variance_model_by_name("weight-proportional")
    return (
        VariabilitySpec.within_only(SIGMA_EACH, variance),
        VariabilitySpec.mixed(SIGMA_EACH, variance),
    )


def _weights_digest(model) -> str:
    digest = hashlib.sha256()
    for parameter in model.parameters():
        digest.update(np.ascontiguousarray(parameter.data).tobytes())
    return digest.hexdigest()


def prepare_pipeline(pipeline: Pipeline) -> dict:
    """Set-up for the pipeline: datasets and freshly initialized models."""
    train, test = dataset_for(pipeline.dataset, SCALE)
    model = model_for(pipeline.model, pipeline.dataset, SCALE, seed=1 + SYSTEM_SEED)
    state = {"train": train, "test": test, "model": model}
    if pipeline.resnet_stage:
        state["resnet_train"], _ = dataset_for("cifar100", SCALE)
        init.seed(2 + SYSTEM_SEED)
        state["resnet"] = build_model(
            "resnet18", num_classes=100, in_channels=3, width_multiplier=0.25
        )
    return state


def run_pipeline(pipeline: Pipeline, state: dict) -> PipelineResult:
    """train_qavat -> clean accuracy -> MC robustness plain and with GTM.

    The chips are sampled as the experiments CLI samples them for seed 0.
    """
    train_spec, eval_spec = _specs()
    qconfig = QConfig.from_notation(NOTATION)
    model, test = state["model"], state["test"]
    baselines.train_qavat(
        model,
        batch_source(state["train"], SCALE.batch_size, seed=SYSTEM_SEED),
        qconfig,
        train_spec,
        epochs=pipeline.qavat_epochs,
        lr=SCALE.lr,
        float_pretrain_epochs=pipeline.pretrain_epochs,
        seed=SYSTEM_SEED,
    )
    model.eval()
    clean = robustness.evaluate_clean(model, test, batch_size=SCALE.batch_size)
    backend = make_backend("fake-quant")
    common = dict(num_chips=MC_CHIPS, batch_size=SCALE.batch_size, seed=4321 + SYSTEM_SEED)
    plain = robustness.evaluate_robustness(model, test, eval_spec, backend=backend, **common)
    tuned = robustness.evaluate_robustness(
        model, test, eval_spec, backend=backend, self_tuning=SelfTuningConfig(), **common
    )
    if pipeline.resnet_stage:
        resnet = state["resnet"]
        ptq.convert_to_quantized(resnet, qconfig)
        calibration.calibrate_model(
            resnet,
            batch_iterator(state["resnet_train"], SCALE.batch_size, shuffle=False),
            max_batches=4,
        )
    return PipelineResult(
        model=model,
        test=test,
        eval_spec=eval_spec,
        num_classes=test.num_classes,
        clean_acc=float(clean),
        mc_accs=[float(a) for a in plain.accuracies],
        mc_tuned_accs=[float(a) for a in tuned.accuracies],
        weights_digest=_weights_digest(model),
    )


def _trace(serving: Serving, seed: int):
    if serving.trace == "poisson":
        return PoissonTrace(rate=serving.rate, seed=seed)
    return UniformTrace(rate=serving.rate)


def request_images(num_images: int, requests: int, seed: int) -> np.ndarray:
    """The test image each request carries: whole passes over the test set,
    each in its own seeded order.

    Every workload's request count is a whole number of passes in each half
    of the trace, so ``served_acc`` and ``end_acc`` weigh every image alike
    and the seed moves them only through which chip serves which image.
    """
    rng = np.random.default_rng((seed, 0x5E12E))
    passes = -(-requests // num_images)
    return np.concatenate([rng.permutation(num_images) for _ in range(passes)])[:requests]


def prepare_serving(serving: Serving, result: PipelineResult, seed: int) -> dict:
    """Set-up for serving: the fleet, programmed (or lifecycle-installed),
    and the seeded requests: arrival ticks and which test images."""
    config = ServeConfig(
        max_batch=serving.max_batch,
        max_wait=serving.max_wait,
        policy=serving.policy,
        seed=SYSTEM_SEED,
        backend=serving.backend,
        max_resident_chips=serving.max_resident_chips,
    )
    fleet_spec = FleetSpec.parse(serving.fleet) if serving.fleet else None
    engine = InferenceEngine(
        result.model, result.eval_spec, serving.num_chips, config, fleet_spec=fleet_spec
    )
    lifecycle = None
    if serving.lifecycle:
        lifecycle = ChipLifecycle(engine, result.test, LifecycleConfig(seed=SYSTEM_SEED))
        lifecycle.install()
    else:
        engine.warm_up()
    picks = request_images(len(result.test), serving.requests, seed)
    return {
        "engine": engine,
        "lifecycle": lifecycle,
        "images": picks,
        "inputs": result.test.images[picks],
        "labels": result.test.labels[picks],
        "ids": [f"r{i:06d}" for i in range(serving.requests)],
        "trace": _trace(serving, seed),
    }


def run_serving(state: dict, num_classes: int) -> ServeResult:
    """Open-loop ``run_trace``; times each request from its due tick.

    ``run_trace`` submits a request on the tick its arrival is pinned to,
    so the wall clock read in ``submit`` is when the request was due.  The
    completion time is read when ``step`` hands the request back.
    """
    engine = state["engine"]
    due: dict[str, float] = {}
    done: dict[str, float] = {}
    submit, step = engine.submit, engine.step

    def timed_submit(payload, request_id=None, deadline=None):
        due[request_id] = time.perf_counter()
        return submit(payload, request_id, deadline=deadline)

    def timed_step(ticks=1):
        served = step(ticks)
        now = time.perf_counter()
        for request in served:
            done[request.id] = now
        return served

    engine.submit, engine.step = timed_submit, timed_step
    started = time.perf_counter()
    try:
        outputs = engine.run_trace(
            state["inputs"], state["trace"], ids=state["ids"], lifecycle=state["lifecycle"]
        )
    finally:
        wall = time.perf_counter() - started
        del engine.submit, engine.step
        engine.close()
    completed = engine.completed
    return ServeResult(
        ids=state["ids"],
        images=state["images"],
        labels=state["labels"],
        outputs=outputs,
        dead_letters=set(engine.dead_letters),
        latencies_s={rid: done[rid] - due[rid] for rid in outputs},
        queue_ticks={rid: completed[rid].queue_ticks for rid in outputs},
        wall_s=wall,
        num_classes=num_classes,
        energy_uj=float(engine.telemetry.total_energy_uj),
        digest=engine.telemetry.digest(),
        engine=engine,
        lifecycle=state["lifecycle"],
        describe={
            "backend": engine.backend.name,
            "chips": len(engine.fleet),
            "config": {
                "max_batch": engine.config.max_batch,
                "max_wait": engine.config.max_wait,
                "policy": engine.policy.name,
                "fused": engine.config.fused,
                "shards": engine.config.shards,
                "max_resident_chips": engine.config.max_resident_chips,
                "seed": engine.config.seed,
            },
            "fleet": dict(Counter(chip.technology for chip in engine.fleet)),
            "trace": {
                "kind": type(state["trace"]).__name__,
                **asdict(state["trace"]),
                "requests": len(state["ids"]),
                "ticks": engine.now,
            },
        },
    )


def repeat(name: str, seed: int, span=None, trained=None, serve: bool = True) -> Repeat:
    """One set-up, pipeline and serving phase of workload ``name``.

    ``span(label)`` returns a context manager around each phase (the
    tracer's root spans).  ``trained`` reuses a pipeline result instead of
    running the pipeline again.  On the serving workloads that makes set-up
    partial, so ``setup_s`` is None; on ``offline``, where the pipeline is
    the timed phase, set-up is complete and ``timed_s`` is 0.
    ``serve=False`` stops after set-up: an extra set-up sample.
    """
    span = span or (lambda label: contextlib.nullcontext())
    workload = WORKLOADS[name]
    # Frees the previous repeat's fleet (engines hold reference cycles)
    # before this one builds its own.
    gc.collect()
    clock = time.perf_counter
    started = clock()
    setup_s = 0.0
    offline_s = None
    if trained is None or workload.timed == "pipeline":
        with span("bench.prepare"):
            state = prepare_pipeline(workload.pipeline)
        setup_s += clock() - started
    if trained is None:
        # A collection before each timed region: every repeat then starts
        # from the same collector state, so whether a slow full collection
        # lands inside the region repeats too.
        gc.collect()
        piped = clock()
        with span("bench.pipeline"):
            result = run_pipeline(workload.pipeline, state)
        offline_s = clock() - piped
        if workload.timed == "serving":
            setup_s += offline_s
    else:
        result = trained
    ready = clock()
    with span("bench.prepare"):
        serving_state = prepare_serving(workload.serving, result, seed)
    setup_s += clock() - ready
    served = None
    if serve:
        gc.collect()
        with span("bench.serve"):
            served = run_serving(serving_state, result.num_classes)
    else:
        serving_state["engine"].close()
    if workload.timed == "pipeline":
        timed_s = offline_s or 0.0
    else:
        timed_s = served.wall_s if served is not None else 0.0
        if trained is not None:
            setup_s = None
    return Repeat(
        setup_s=setup_s,
        offline_s=offline_s,
        timed_s=timed_s,
        wall_s=clock() - started,
        pipeline=result,
        serve=served,
    )
