"""Tests for the result store and the experiments CLI."""

import json
import os

import numpy as np
import pytest

from repro.experiments.cli import build_parser, main
from repro.experiments.store import ResultStore


class TestResultStore:
    def test_save_and_load_round_trip(self, tmp_path):
        store = ResultStore(str(tmp_path))
        path = store.save("exp", {"mean": 0.75, "accuracies": [0.7, 0.8]})
        assert os.path.exists(path)
        record = store.load("exp")
        assert record["mean"] == 0.75
        assert record["accuracies"] == [0.7, 0.8]

    def test_run_indexes_increment(self, tmp_path):
        store = ResultStore(str(tmp_path))
        first = store.save("exp", {"v": 1})
        second = store.save("exp", {"v": 2})
        assert first != second
        assert store.load("exp")["v"] == 2  # latest by default
        assert store.load("exp", run=0)["v"] == 1

    def test_numpy_values_serialized(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.save(
            "np", {"a": np.float64(0.5), "b": np.int64(3), "c": np.arange(3)}
        )
        record = store.load("np")
        assert record == {"a": 0.5, "b": 3, "c": [0, 1, 2]}

    def test_list_names(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.save("alpha", {})
        store.save("beta", {})
        store.save("alpha", {})
        assert store.list_names() == ["alpha", "beta"]
        assert len(store.list_runs("alpha")) == 2

    def test_missing_record_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ResultStore(str(tmp_path)).load("ghost")

    def test_unsafe_name_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ResultStore(str(tmp_path)).save("../evil", {})

    def test_nested_objects_serialized(self, tmp_path):
        from repro.variability.sampler import VariabilitySpec

        store = ResultStore(str(tmp_path))
        store.save("spec", {"spec": VariabilitySpec(0.1, 0.2)})
        record = store.load("spec")
        assert record["spec"]["sigma_within"] == 0.1


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.method == "qavat"
        assert args.scenario == "within"
        assert args.self_tuning == "none"

    def test_invalid_method_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--method", "magic"])

    def test_compare_has_no_method_flag(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--method", "qat"])

    def test_sweep_accepts_sigma_list(self):
        args = build_parser().parse_args(["sweep", "--sigmas", "0.1", "0.2"])
        assert args.sigmas == [0.1, 0.2]
        assert args.method == "qavat"

    def test_serve_bench_defaults(self):
        args = build_parser().parse_args(["serve-bench"])
        assert args.command == "serve-bench"
        assert args.num_chips == 4
        assert args.max_batch == 32
        assert args.policy == "round-robin"
        assert args.max_resident_chips is None
        assert not args.skip_training

    def test_serve_bench_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve-bench", "--policy", "chaos"])

    def test_serve_bench_rejects_bad_counts_at_parse_time(self):
        for flags in (
            ["--requests", "0"],
            ["--num-chips", "0"],
            ["--max-batch", "-3"],
            ["--max-wait", "-1"],
            ["--max-resident-chips", "0"],
            ["--probe-k", "0"],
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["serve-bench", *flags])

    def test_serve_bench_modes_are_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve-bench", "--chaos", "--slo"])

    def test_drift_flags_belong_to_lifetime_bench(self):
        for flags in (["--drift"], ["--drift-nu", "0.2"], ["--cache-capacity", "2"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["serve-bench", *flags])
        args = build_parser().parse_args(
            ["lifetime-bench", "--trace", "bursty", "--fleet", "rram:2,flash:2",
             "--drift-kind", "temperature"]
        )
        assert args.trace == "bursty"
        assert args.fleet == "rram:2,flash:2"
        assert args.drift_kind == "temperature"

    def test_drift_aware_policy_accepted(self):
        args = build_parser().parse_args(["serve-bench", "--policy", "drift-aware"])
        assert args.policy == "drift-aware"

    def test_lifetime_bench_defaults(self):
        args = build_parser().parse_args(["lifetime-bench"])
        assert args.command == "lifetime-bench"
        assert not hasattr(args, "policy")  # it races --policies
        assert args.policies == ["round-robin", "accuracy-weighted", "drift-aware"]
        assert args.probe_every == 8.0

    def test_lifetime_bench_rejects_unknown_trace(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["lifetime-bench", "--trace", "tsunami"])


class TestCliEndToEnd:
    def test_list_exit_code(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "qavat" in out and "tiny" in out

    @pytest.mark.slow
    def test_run_produces_record(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "--method", "qat",
                "--model", "lenet5",
                "--notation", "A4W2",
                "--sigma", "0.1",
                "--scale", "tiny",
                "--results-dir", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mean %" in out
        store = ResultStore(str(tmp_path))
        record = store.load("run-qat-lenet5")
        assert record["notation"] == "A4W2"
        assert 0.0 <= record["summary"]["mean"] <= 1.0
        assert len(record["accuracies"]) > 0

    def test_serve_bench_skip_training(self, tmp_path, capsys):
        code = main(
            [
                "serve-bench",
                "--skip-training",
                "--requests", "48",
                "--max-batch", "16",
                "--num-chips", "2",
                "--results-dir", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "batched" in out
        record = ResultStore(str(tmp_path)).load("serve-bench-lenet5")
        assert record["requests"] == 48
        assert record["speedup"] > 0
        assert record["telemetry"]["requests"] == 48
        assert record["cache"]["misses"] >= 2

    def test_lifetime_bench_end_to_end(self, tmp_path, capsys):
        code = main(
            [
                "lifetime-bench",
                "--skip-training",
                "--requests", "64",
                "--max-batch", "8",
                "--trace-rate", "4",
                "--policies", "accuracy-weighted", "drift-aware", "round-robin",
                "--results-dir", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy-weighted vs round-robin end-of-trace accuracy" in out
        assert "drift-aware vs round-robin end-of-trace accuracy" in out
        assert "probed accuracy over time" in out
        assert "best end-of-trace policy" in out
        record = ResultStore(str(tmp_path)).load("lifetime-bench-lenet5")
        assert record["fleet"] == "rram:2,flash:2"
        assert [entry["policy"] for entry in record["policies"]] == [
            "accuracy-weighted", "drift-aware", "round-robin",
        ]
        for entry in record["policies"]:
            assert 0.0 <= entry["end_accuracy"] <= 1.0
            assert entry["telemetry"]["quality_series"]

    def test_lifetime_bench_without_round_robin_prints_no_lead(self, tmp_path, capsys):
        code = main(
            [
                "lifetime-bench",
                "--skip-training",
                "--requests", "32",
                "--max-batch", "8",
                "--policies", "drift-aware",
                "--results-dir", str(tmp_path),
            ]
        )
        assert code == 0
        assert "vs round-robin" not in capsys.readouterr().out

    def test_output_digest_sees_the_backend(self, tmp_path, capsys):
        """The telemetry digest hashes accounting only, so it is blind to a
        fake-quant vs circuit swap; the output digest must not be."""
        digests = {}
        for backend in ("fake-quant", "circuit"):
            code = main(
                [
                    "serve-bench",
                    "--backend", backend,
                    "--skip-training",
                    "--num-chips", "2",
                    "--requests", "32",
                    "--max-batch", "16",
                    "--results-dir", str(tmp_path),
                ]
            )
            assert code == 0
            digests[backend] = [
                line for line in capsys.readouterr().out.splitlines()
                if line.startswith("output digest: ")
            ]
        assert len(digests["fake-quant"]) == len(digests["circuit"]) == 1
        assert digests["fake-quant"] != digests["circuit"]

    def test_bench_record_counts_the_fleet_that_ran(self, tmp_path, capsys):
        """--fleet overrides --num-chips, so the BENCH scale block must
        report the chips the engine built, not the --num-chips default."""
        from repro.obs import BenchRecorder

        bench_json = tmp_path / "BENCH_lifetime.json"
        code = main(
            [
                "lifetime-bench",
                "--skip-training",
                "--fleet", "rram:3,flash:2",
                "--requests", "32",
                "--max-batch", "8",
                "--trace-rate", "4",
                "--policies", "round-robin",
                "--results-dir", str(tmp_path),
                "--bench-json", str(bench_json),
            ]
        )
        assert code == 0
        scale = BenchRecorder(str(bench_json), bench="lifetime").latest()["scale"]
        assert scale["fleet"] == "rram:3,flash:2"
        assert scale["num_chips"] == 5

    @pytest.mark.slow
    def test_run_with_self_tuning(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "--model", "lenet5",
                "--sigma", "0.3",
                "--scenario", "mixed",
                "--self-tuning", "global",
                "--scale", "tiny",
                "--results-dir", str(tmp_path),
            ]
        )
        assert code == 0
        record = ResultStore(str(tmp_path)).load("run-qavat-lenet5")
        assert record["self_tuning"] == "global"
