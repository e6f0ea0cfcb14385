"""Correctness checks: a benchmark number only counts if these pass.

Each check returns a list of failure messages (empty means it passed), so a
test can feed it a deliberately corrupted run and see it fail.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np


def above_chance(accuracy: float, samples: int, num_classes: int) -> bool:
    """Accuracy beats guessing by more than three binomial standard errors.

    ``samples`` counts independent draws: distinct test images, not the
    requests or chips that repeat them.  A bare ``> 1/classes`` would pass
    shuffled outputs about half the time; the margin makes a permutation of
    logits across requests fail.
    """
    chance = 1.0 / num_classes
    margin = 3.0 * math.sqrt(chance * (1.0 - chance) / max(1, samples))
    return samples > 0 and accuracy > chance + margin


def served_correct(serve, ids=None) -> tuple[int, int]:
    """``(correct, served)`` over ``ids`` (default: every request)."""
    ids = serve.ids if ids is None else ids
    labels = dict(zip(serve.ids, serve.labels))
    served = [rid for rid in ids if rid in serve.outputs]
    correct = sum(int(np.argmax(serve.outputs[rid]) == labels[rid]) for rid in served)
    return correct, len(served)


def outputs_digest(serve) -> str:
    """SHA-256 over every served output, in request order."""
    digest = hashlib.sha256()
    for rid in serve.ids:
        if rid in serve.outputs:
            digest.update(rid.encode())
            digest.update(np.ascontiguousarray(serve.outputs[rid]).tobytes())
    return digest.hexdigest()


def check_pipeline(result, tuned_must_win: bool) -> list[str]:
    failures = []
    images = len(result.test)
    if not above_chance(result.clean_acc, images, result.num_classes):
        failures.append(f"clean accuracy {result.clean_acc:.3f} is not above chance")
    mc_acc = float(np.mean(result.mc_accs))
    tuned_acc = float(np.mean(result.mc_tuned_accs))
    if not above_chance(mc_acc, images, result.num_classes):
        failures.append(f"MC accuracy {mc_acc:.3f} is not above chance")
    if tuned_must_win and tuned_acc < mc_acc:
        failures.append(f"GTM-tuned MC accuracy {tuned_acc:.3f} < untuned {mc_acc:.3f}")
    return failures


def check_serving(serve, max_resident_chips: int | None = None) -> list[str]:
    failures = []
    attempted = set(serve.ids)
    served = set(serve.outputs)
    dead = set(serve.dead_letters)
    if served & dead:
        failures.append(f"{len(served & dead)} requests both served and dead-lettered")
    unaccounted = attempted - served - dead
    if unaccounted:
        failures.append(
            f"{len(unaccounted)} requests neither served nor dead-lettered "
            f"(e.g. {sorted(unaccounted)[0]})"
        )
    if served - attempted:
        failures.append(f"{len(served - attempted)} outputs for requests never sent")
    correct, count = served_correct(serve)
    images = len({image for rid, image in zip(serve.ids, serve.images) if rid in served})
    if not above_chance(correct / max(1, count), images, serve.num_classes):
        failures.append(
            f"served accuracy {correct}/{count} over {images} distinct images "
            "is not above chance"
        )
    if max_resident_chips is not None:
        peak = serve.engine.cache.stats.peak_resident
        if peak > max_resident_chips:
            failures.append(f"peak resident chips {peak} > bound {max_resident_chips}")
    return failures


def fingerprint(repeat) -> dict:
    """Everything that must repeat exactly for one seed."""
    exact = {
        "weights": repeat.pipeline.weights_digest,
        "mc_accs": repeat.pipeline.mc_accs,
        "mc_tuned_accs": repeat.pipeline.mc_tuned_accs,
    }
    if repeat.serve is not None:
        exact["telemetry"] = repeat.serve.digest
        exact["outputs"] = outputs_digest(repeat.serve)
    return exact


def check_agree(fingerprints: list[dict]) -> list[str]:
    """Repeats of one seed must agree on every exact output."""
    failures = []
    first = fingerprints[0]
    for index, other in enumerate(fingerprints[1:], start=1):
        for key in first.keys() & other.keys():
            if other[key] != first[key]:
                failures.append(f"repeat {index} differs from repeat 0 in {key}")
    return failures
