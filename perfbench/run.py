"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0

``--trace 0`` repeats the workload until ``--seconds`` of timed work are
done and reports the end-to-end metrics as medians over the repeats.
``--trace 1`` alternates untraced and traced repeats and reports the
per-layer metrics, ``trace.overhead`` and a self-time table.  Every
repeat is checked for correctness; a failed check exits with status 1.
The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record (host fingerprint, the
workload as it ran, every check) is printed above it and written under
``.perfbench/`` in the working directory.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
#: One BLAS thread per process (never more than ``nproc``).  OpenBLAS on
#: its default of one thread per core made single-shot throughput swing by
#: about 20% on a 2-core host; a single thread also leaves a core for the
#: interpreter and the rest of the machine.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The pin must precede the first numpy import, here and in ``repro``.
for _variable in BLAS_ENV:
    os.environ[_variable] = str(min(BLAS_THREADS, os.cpu_count() or 1))
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import metrics  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

#: Full set-ups per run; ``setup_s`` is their median.
MIN_SETUPS = 3
#: Where full run records go, relative to the working directory.
RECORDS = ".perfbench"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                function.argtypes = []
                return int(function())
    return None


def host_fingerprint() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": blas_threads(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """What a run keeps of each repeat: samples, exact outputs and checks.

    Repeats are folded in as they finish and then dropped, so the process
    holds one fleet at a time and ``peak_rss_mb`` does not grow with the
    number of repeats.
    """

    def __init__(self, workload) -> None:
        self.workload = workload
        self.repeats = 0
        self.timed_s = 0.0
        self.setups: list[float] = []
        self.offlines: list[float] = []
        self.summaries: list[dict] = []
        self.fingerprints: list[dict] = []
        self.failures: list[str] = []
        self.attempted = self.failed = 0
        self.pipeline = None
        self.serving = None

    def add(self, repeat) -> None:
        index = len(self.fingerprints)
        self.repeats += 1
        self.timed_s += repeat.timed_s
        self.pipeline = self.pipeline or repeat.pipeline
        if repeat.setup_s is not None:
            self.setups.append(repeat.setup_s)
        if repeat.offline_s is not None:
            self.offlines.append(repeat.offline_s)
        self.fingerprints.append(checks.fingerprint(repeat))
        problems = checks.check_pipeline(
            repeat.pipeline, tuned_must_win=self.workload.timed == "pipeline"
        )
        if repeat.serve is not None:
            serve = repeat.serve
            problems += checks.check_serving(serve, self.workload.serving.max_resident_chips)
            self.summaries.append(metrics.serving_summary(serve))
            self.attempted += len(serve.ids)
            self.failed += len(serve.ids) - len(serve.outputs)
            self.serving = self.serving or serve.describe
        self.failures += [f"repeat {index}: {problem}" for problem in problems]

    def check_agree(self) -> None:
        self.failures += checks.check_agree(self.fingerprints)


def untraced(name: str, seed: int, seconds: float, tally: Tally) -> None:
    """Repeat until ``seconds`` of timed work are done.

    Set-up runs in full at least ``MIN_SETUPS`` times, with set-up-only
    repeats if the timed phase finished in fewer.  Beyond the full set-ups
    the serving workloads reuse the trained model and only build a fresh
    fleet.
    """
    import workloads

    serving = tally.workload.timed == "serving"
    while tally.timed_s < seconds:
        full = not serving or tally.repeats < MIN_SETUPS
        tally.add(workloads.repeat(name, seed, trained=None if full else tally.pipeline))
    while len(tally.setups) < MIN_SETUPS:
        tally.add(workloads.repeat(
            name, seed, trained=None if serving else tally.pipeline, serve=False
        ))


def traced(name: str, seed: int, tally: Tally):
    """Untraced and traced repeats of the same seed.

    Untraced and traced repeats run in the order U T U, so a host whose
    speed drifts steadily weighs on both sides alike.  Returns the traced
    repeat, its tracer and ``trace.overhead``: the traced wall time over
    the mean untraced one, minus 1.
    """
    import workloads

    walls = {False: [], True: []}
    last = None
    for traced_now in (False, True, False):
        if traced_now:
            tracer = Tracer()
            with tracer, tracer.span("bench.repeat"):
                repeat = workloads.repeat(name, seed, span=tracer.span)
            last = (repeat, tracer)
        else:
            repeat = workloads.repeat(name, seed)
        walls[traced_now].append(repeat.wall_s)
        tally.add(repeat)
    overhead = metrics.median(walls[True]) / metrics.median(walls[False]) - 1.0
    return (*last, overhead)


def format_metrics(values: dict) -> str:
    width = max(len(name) for name in values)
    return "\n".join(
        f"  {name:<{width}}  {entry['value']:>14.6g} {entry['unit']}"
        for name, entry in values.items()
    )


def format_layers(tracer) -> str:
    table = tracer.layer_table()
    wall = tracer.total_s("bench.repeat")
    lines = [f"  {'layer':<12} {'calls':>9} {'total s':>10} {'self s':>10} {'self %':>7}"]
    for layer, row in sorted(table.items(), key=lambda item: -item[1]["self_s"]):
        lines.append(
            f"  {layer:<12} {row['calls']:>9d} {row['total_s']:>10.4f} "
            f"{row['self_s']:>10.4f} {100 * row['self_s'] / wall:>6.1f}%"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the repro package is not at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tally = Tally(workloads.WORKLOADS[args.workload])
    if args.trace:
        repeat, tracer, overhead = traced(args.workload, args.seed, tally)
        result_metrics = metrics.per_layer(tracer, repeat, overhead, LAYERS)
    else:
        untraced(args.workload, args.seed, args.seconds, tally)
        result_metrics = metrics.end_to_end(
            tally.summaries, tally.setups, tally.offlines, tally.pipeline, peak_rss_mb()
        )
    tally.check_agree()
    failures = tally.failures
    record = {
        "workload": {
            "name": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "pipeline": {
                "model": type(tally.pipeline.model).__name__,
                "notation": workloads.NOTATION,
                "mc_chips": len(tally.pipeline.mc_accs),
                "test_samples": len(tally.pipeline.test),
            },
            "serving": tally.serving,
            "repeats": len(tally.summaries),
            "setup_samples": len(tally.setups),
            "tail_percentile": tally.summaries[0]["tail_percentile"],
            "tail_n": tally.summaries[0]["served"],
        },
        "host": host_fingerprint(),
        "checks": {"passed": not failures, "failures": failures},
        "metrics": result_metrics,
    }
    print(f"workload {args.workload} seed {args.seed} "
          f"({'traced' if args.trace else 'untraced'}, {len(tally.summaries)} repeats)")
    print(format_metrics(result_metrics))
    if args.trace:
        print("where the wall time went (traced repeat):")
        print(format_layers(tracer))
    for message in failures:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    out = Path(RECORDS)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, default=str))
    print("record: " + json.dumps({k: record[k] for k in ("workload", "host", "checks")},
                                  default=str))
    print(json.dumps({
        "correct": not failures,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": result_metrics,
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
