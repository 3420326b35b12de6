import argparse
import csv
import json
import re
import shlex
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import relmeta.cli as cli
import relmeta.harness as hz
import relmeta.metalearn as ml
import relmeta.nn as nn
import relmeta.relation as rel
import relmeta.tasks as tk
import test_golden_artifacts as gold


def tiny_overrides(**kw):
    base = dict(hidden="8", batch_tasks=3, sim_heads=2, epochs=1,
                batches_per_epoch=2, runs=2, eval_tasks=4, val_tasks=0,
                shots=5, queries=5, pool_size=16, seed=0)
    base.update(kw)
    return {k: v if isinstance(v, str) else v for k, v in base.items()}


def tiny_spec(out, **kw):
    return hz.parse_config(None, tiny_overrides(out=str(out), **kw))


class TestParseConfig:
    def test_defaults(self):
        spec = hz.parse_config(None, None)
        assert spec.lam == 0.6 and spec.beta == 0.1 and spec.runs == 5
        assert spec.dataset == "sinusoid" and spec.shots == 10

    def test_empty_file_keeps_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("# nothing but comments\n\n")
        spec = hz.parse_config(path)
        assert spec == hz.parse_config(None, None)

    def test_file_keys_and_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("lam=0.3\nmethod=anil  # head-only\nhidden=8,8\n")
        spec = hz.parse_config(path)
        assert spec.lam == 0.3 and spec.method == "anil" and spec.hidden == (8, 8)

    def test_overrides_beat_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("lam=0.6\n")
        spec = hz.parse_config(path, {"lam": 0.0})
        assert spec.lam == 0.0

    def test_unknown_keys_listed(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("lam=0.5\nbogus=1\nworse=2\n")
        with pytest.raises(hz.ConfigError, match="bogus, worse"):
            hz.parse_config(path)

    def test_invalid_values_rejected(self):
        with pytest.raises(hz.ConfigError, match="shots"):
            hz.parse_config(None, {"shots": -1})
        with pytest.raises(hz.ConfigError, match="method"):
            hz.parse_config(None, {"method": "reptile"})
        with pytest.raises(hz.ConfigError, match="true/false"):
            hz.parse_config(None, {"trlearner": "maybe"})

    def test_optional_ints(self):
        spec = hz.parse_config(None, {"pool_size": "none", "eval_inner_steps": "7"})
        assert spec.pool_size is None and spec.eval_inner_steps == 7

    def test_bool_words(self):
        for word, value in (("on", True), ("off", False), ("true", True)):
            assert hz.parse_config(None, {"timing": word}).timing is value

    def test_missing_file(self, tmp_path):
        with pytest.raises(hz.ConfigError, match="config file"):
            hz.parse_config(tmp_path / "absent.cfg")

    def test_line_without_equals(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("lam 0.5\n")
        with pytest.raises(hz.ConfigError, match="key=value"):
            hz.parse_config(path)

    def test_echo_round_trips(self, tmp_path):
        spec = tiny_spec(tmp_path, lam=0.45, method="metasgd", pool_size="none")
        hz.echo_config(spec, tmp_path)
        reloaded = hz.parse_config(tmp_path / "config.txt")
        assert reloaded == spec


class TestResultRow:
    def test_single_run_ci_is_na(self):
        row = hz.ResultRow(hz.parse_config(None, {"pool_size": "none"}), [1.5])
        values = dict(zip(hz.RESULT_COLUMNS, row.csv_values()))
        assert values["ci95"] == "n/a"
        assert values["seconds"] == ""
        assert values["pool_size"] == "none"

    def test_values_come_from_spec_and_runs(self):
        spec = hz.parse_config(None, {"lam": 1, "alpha": 0, "beta": 2, "trlearner": False})
        row = hz.ResultRow(spec, [1.0, 3.0], seconds=2.0)
        assert row.lam == 1 and row.method == "maml" and row.runs == 2 and spec.runs == 5
        assert (row.mse_mean, row.ci95) == ml.summarize([1.0, 3.0])
        values = dict(zip(hz.RESULT_COLUMNS, row.csv_values()))
        assert (values["lambda"], values["alpha"], values["beta"]) == ("1.0", "0.0", "2.0")
        assert values["trlearner"] == "off" and values["runs"] == "2"
        assert values["mse_mean"] == "2.0" and values["seconds"] == "2.000"


class TestRunBenchmark:
    def test_artifacts_and_header(self, tmp_path):
        spec = tiny_spec(tmp_path)
        rows = hz.run_benchmark(spec)
        assert len(rows) == 1 and rows[0].runs == 2
        with open(tmp_path / "results.csv") as fh:
            reader = csv.reader(fh)
            assert tuple(next(reader)) == hz.RESULT_COLUMNS
            record = dict(zip(hz.RESULT_COLUMNS, next(reader)))
        assert record["dataset"] == "sinusoid" and record["runs"] == "2"
        assert float(record["mse_mean"]) == pytest.approx(rows[0].mse_mean)
        assert (tmp_path / "summary.txt").read_text().startswith("sinusoid 5-shot")
        assert (tmp_path / "config.txt").exists()

    def test_rerun_byte_identical(self, tmp_path):
        spec = tiny_spec(tmp_path / "unused")
        a, b = tmp_path / "a", tmp_path / "b"
        hz.run_benchmark(spec, out_dir=a)
        hz.run_benchmark(spec, out_dir=b)
        for name in ("results.csv", "log.jsonl", "config.txt", "summary.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_log_records_per_run_and_epoch(self, tmp_path):
        spec = tiny_spec(tmp_path, runs=2, epochs=2)
        hz.run_benchmark(spec)
        records = [json.loads(line)
                   for line in (tmp_path / "log.jsonl").read_text().splitlines()]
        assert len(records) == 4
        assert [(r["run"], r["epoch"]) for r in records] == [
            (0, 0), (0, 1), (1, 0), (1, 1)]
        assert records[2]["seed"] == spec.seed + 1

    def test_run_seed_discipline(self, tmp_path):
        spec = tiny_spec(tmp_path)
        outcome = hz.single_run(spec, 1)
        config = spec.to_meta_config(spec.seed + 1)
        model = nn.init_model([1, *config.hidden], config.batch_tasks, spec.seed + 1)
        layer = rel.SimilarityLayer(config.sim_heads, model.feature_width)
        source = tk.TaskSource(spec.dataset, spec.shots, spec.queries,
                               noise_sd=spec.noise_sd, seed=spec.seed + 1,
                               pool_size=spec.pool_size)
        ml.train(model, layer, source, config)
        evaluated = ml.evaluate(
            model, [source.eval_task(i) for i in range(spec.eval_tasks)], config)
        assert outcome["mse"] == evaluated["mean"]

    def test_input_scale_follows_dataset(self, tmp_path):
        wide = hz.single_run(tiny_spec(tmp_path / "h", dataset="harmonic"), 0)
        assert wide["model"].input_scale == hz.INPUT_SCALES["harmonic"]
        unit = hz.single_run(tiny_spec(tmp_path / "s"), 0)
        assert unit["model"].input_scale == 1.0

    def test_partial_failure_flagged(self, tmp_path, monkeypatch):
        spec = tiny_spec(tmp_path, runs=3)
        real = hz.single_run

        def flaky(spec, run_index):
            if run_index == 1:
                raise ml.MetaLearnError("boom")
            return real(spec, run_index)

        monkeypatch.setattr(hz, "single_run", flaky)
        with pytest.raises(hz.RunError, match="run 1"):
            hz.run_benchmark(spec)
        with open(tmp_path / "results.csv") as fh:
            record = dict(zip(hz.RESULT_COLUMNS, list(csv.reader(fh))[1]))
        assert record["runs"] == "1"
        assert "PARTIAL" in (tmp_path / "summary.txt").read_text()

    def test_timing_fills_seconds(self, tmp_path):
        spec = tiny_spec(tmp_path, timing=True)
        hz.run_benchmark(spec)
        with open(tmp_path / "results.csv") as fh:
            record = dict(zip(hz.RESULT_COLUMNS, list(csv.reader(fh))[1]))
        assert float(record["seconds"]) > 0

    def test_heatmaps_written_when_logged(self, tmp_path):
        spec = tiny_spec(tmp_path, log_matrix_every=1)
        hz.run_benchmark(spec)
        assert (tmp_path / "matrix_epoch001.csv").exists()
        assert (tmp_path / "matrix_epoch001.svg").exists()

    def test_no_heatmaps_or_warning_without_trlearner(self, tmp_path, caplog):
        spec = tiny_spec(tmp_path, log_matrix_every=1, trlearner="off")
        with caplog.at_level("WARNING"):
            hz.run_benchmark(spec)
        assert "no matrix snapshots" not in caplog.text
        assert not list(tmp_path.glob("matrix_epoch*"))


class TestSweepAndAblate:
    def test_sweep_rows_match_grid(self, tmp_path):
        spec = tiny_spec(tmp_path, runs=1)
        rows = hz.sweep_lambda(spec, values=(0.4, 0.6))
        assert [row.lam for row in rows] == [0.4, 0.6]
        with open(tmp_path / "results.csv") as fh:
            records = list(csv.DictReader(fh))
        assert [(r["lambda"], r["mse_mean"], r["ci95"]) for r in records] == [
            ("0.4", repr(rows[0].mse_mean), "n/a"), ("0.6", repr(rows[1].mse_mean), "n/a")]
        assert not (tmp_path / "sweep.csv").exists()
        assert (tmp_path / "sweep.svg").read_text().startswith("<svg")

    def test_sweep_single_value_degenerates_to_bench(self, tmp_path):
        spec = tiny_spec(tmp_path / "sweep", runs=1)
        rows = hz.sweep_lambda(spec, values=(0.6,))
        bench = hz.run_benchmark(tiny_spec(tmp_path / "bench", runs=1))
        assert rows[0].per_run == bench[0].per_run

    def test_sweep_rejects_empty_grid(self, tmp_path):
        with pytest.raises(hz.ConfigError, match="grid"):
            hz.sweep_lambda(tiny_spec(tmp_path), values=())

    def test_ablate_modes_and_frozen_omega(self, tmp_path):
        spec = tiny_spec(tmp_path, runs=1)
        rows = hz.ablate_matrix(spec)
        assert [row.matrix_mode for row in rows] == ["learned", "fixed"]
        assert all(row.trlearner for row in rows)

    def test_ablate_unfrozen_omega_is_partial(self, tmp_path, monkeypatch):
        real = hz.single_run

        def leaky(spec, run_index):
            outcome = real(spec, run_index)
            if spec.matrix_mode == "fixed":
                outcome["layer"].omega[0, 0] = 2.0
            return outcome

        monkeypatch.setattr(hz, "single_run", leaky)
        with pytest.raises(hz.RunError, match="fixed matrix mode updated omega"):
            hz.ablate_matrix(tiny_spec(tmp_path, runs=1))
        with open(tmp_path / "results.csv") as fh:
            assert [r["matrix_mode"] for r in csv.DictReader(fh)] == ["learned", "fixed"]
        summary = (tmp_path / "summary.txt").read_text().splitlines()
        assert summary[-1] == "PARTIAL: fixed matrix mode updated omega"

    def test_learned_mode_moves_omega(self, tmp_path):
        spec = tiny_spec(tmp_path, batches_per_epoch=5, matrix_mode="learned")
        outcome = hz.single_run(spec, 0)
        omega = outcome["layer"].omega
        assert not np.array_equal(omega, np.ones_like(omega))

    def test_fixed_mode_keeps_omega(self, tmp_path):
        spec = tiny_spec(tmp_path, batches_per_epoch=5, matrix_mode="fixed")
        outcome = hz.single_run(spec, 0)
        omega = outcome["layer"].omega
        assert np.array_equal(omega, np.ones_like(omega))


class TestHeatmapExport:
    def test_round_trip_and_row_sums(self, tmp_path):
        spec = tiny_spec(tmp_path, log_matrix_every=1, runs=1)
        outcome = hz.single_run(spec, 0)
        written = hz.export_heatmaps(outcome["records"], tmp_path)
        assert len(written) == 2
        logged = np.array(outcome["records"][-1]["matrix"])
        loaded = np.loadtxt(tmp_path / "matrix_epoch001.csv", delimiter=",")
        assert np.max(np.abs(loaded - logged)) < 1e-9
        assert np.allclose(loaded.sum(axis=1), 1.0, atol=1e-12)

    def test_no_snapshots_warns_and_writes_nothing(self, tmp_path, caplog):
        with caplog.at_level("WARNING"):
            written = hz.export_heatmaps([{"epoch": 0}], tmp_path)
        assert written == []
        assert "no matrix snapshots" in caplog.text


class TestCli:
    def bench_args(self, out, extra=()):
        return ["bench", "--out", str(out), "--shots", "5", "--queries", "5",
                "--batch-tasks", "3", "--heads", "2", "--epochs", "1",
                "--batches-per-epoch", "2", "--runs", "1", "--eval-tasks", "4",
                *extra]

    def test_bench_success(self, tmp_path, capsys):
        assert cli.main(self.bench_args(tmp_path)) == 0
        assert (tmp_path / "results.csv").exists()
        assert "MSE" in capsys.readouterr().out

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("lam=0.6\n")
        args = cli.build_parser().parse_args(
            self.bench_args(tmp_path, ["--config", str(path), "--lambda", "0.0"]))
        spec = hz.parse_config(args.config, cli._overrides(args))
        assert spec.lam == 0.0

    def test_first_order_and_trlearner_flags(self, tmp_path):
        args = cli.build_parser().parse_args(
            self.bench_args(tmp_path, ["--first-order", "--trlearner", "off"]))
        spec = hz.parse_config(None, cli._overrides(args))
        assert spec.second_order is False and spec.trlearner is False

    def test_config_error_exit_code(self, tmp_path, capsys):
        assert cli.main(self.bench_args(tmp_path, ["--shots", "-1"])) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["alpha", "beta", "lambda", "momentum", "weight-decay",
                                      "noise-sd"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_float_exit_code(self, tmp_path, capsys, flag, value):
        assert cli.main(self.bench_args(tmp_path, [f"--{flag}={value}"])) == 2
        key = {"lambda": "lam"}.get(flag, flag.replace("-", "_"))
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"{key}={float(value)}" in err
        assert not (tmp_path / "results.csv").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--metadata-samples", "6"], "metadata_samples=6 exceeds shots=5"),
        (["--metadata-samples", "0"], "metadata_samples=0"),
        (["--log-matrix-every", "-1"], "log_matrix_every=-1"),
    ], ids=["samples-above-shots", "zero-samples", "negative-matrix-every"])
    def test_out_of_range_int_exit_code(self, tmp_path, capsys, flags, message):
        assert cli.main(self.bench_args(tmp_path, flags)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert not (tmp_path / "config.txt").exists()

    @pytest.mark.parametrize("command, flags, message", [
        ("bench", ["--seed", "-1"], "seed=-1"),
        ("bench", ["--noise-sd", "-1"], "noise_sd=-1.0"),
        ("bench", ["--hidden", "0"], "hidden=(0,)"),
        ("bench", ["--hidden", "8,-3"], "hidden=(8, -3)"),
        ("bench", ["--metadata-strategy", "bogus"], "metadata_strategy='bogus'"),
        ("sweep-lambda", ["--values", "0.3,-1"], "lam=-1.0"),
        ("ablate-matrix", ["--batch-tasks", "1", "--trlearner", "off"], "batch_tasks >= 2"),
        ("bench", ["--optimizer", "adam", "--momentum", "1"], "momentum=1.0"),
        ("bench", ["--momentum", "-0.5"], "momentum=-0.5"),
        ("bench", ["--weight-decay", "-1"], "weight_decay=-1.0"),
    ], ids=["seed", "noise-sd", "hidden-zero", "hidden-negative", "strategy", "sweep-value",
            "ablate-one-task", "adam-momentum-one", "negative-momentum",
            "negative-weight-decay"])
    def test_invalid_value_writes_nothing(self, tmp_path, capsys, command, flags, message):
        out = tmp_path / "out"
        assert cli.main([command, *self.bench_args(out)[1:], *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert not out.exists()

    def test_malformed_pool_size_exit_code(self, tmp_path, capsys):
        assert cli.main(self.bench_args(tmp_path, ["--pool-size", "abc"])) == 2
        assert "config error: pool_size" in capsys.readouterr().err

    def test_malformed_hidden_in_file_exit_code(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("hidden = 4,x\n")
        assert cli.main(self.bench_args(tmp_path, ["--config", str(path)])) == 2
        assert "config error: hidden" in capsys.readouterr().err

    def test_malformed_lambda_values_exit_code(self, tmp_path, capsys):
        args = ["sweep-lambda", *self.bench_args(tmp_path)[1:], "--values", "0.3,abc"]
        assert cli.main(args) == 2
        assert "config error: values" in capsys.readouterr().err

    def test_diverging_run_reports_without_numpy_warnings(self, tmp_path, capsys):
        args = ["bench", "--out", str(tmp_path), "--method", "metasgd", "--runs", "1",
                "--epochs", "1", "--batches-per-epoch", "60", "--val-tasks", "0",
                "--eval-tasks", "2"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(args) == 3
        assert "non-finite outer objective" in capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_run_error_exit_code(self, tmp_path, capsys, monkeypatch):
        def boom(spec, run_index):
            raise ml.MetaLearnError("boom")

        monkeypatch.setattr(hz, "single_run", boom)
        assert cli.main(self.bench_args(tmp_path)) == 3
        assert "run failed" in capsys.readouterr().err

    @pytest.mark.parametrize("command, finished", [
        ("sweep-lambda", {"lambda": "0.3"}), ("ablate-matrix", {"matrix_mode": "learned"})])
    def test_aborted_run_keeps_finished_rows(self, tmp_path, capsys, monkeypatch, command, finished):
        real, calls = hz.single_run, []

        def second_fails(spec, run_index):
            calls.append(run_index)
            if len(calls) == 2:
                raise ml.MetaLearnError("non-finite outer objective")
            return real(spec, run_index)

        monkeypatch.setattr(hz, "single_run", second_fails)
        assert cli.main([command, *self.bench_args(tmp_path)[1:]]) == 3
        assert "run failed: run 0 (seed 0) failed: non-finite" in capsys.readouterr().err
        with open(tmp_path / "results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1 and rows[0].items() >= finished.items()

    @pytest.mark.parametrize("command, n_rows", [("sweep-lambda", 6), ("ablate-matrix", 2)],
                             ids=["sweep-lambda", "ablate-matrix"])
    def test_timing_fills_every_row(self, tmp_path, command, n_rows):
        assert cli.main([command, *self.bench_args(tmp_path)[1:], "--timing"]) == 0
        with open(tmp_path / "results.csv") as fh:
            seconds = [r["seconds"] for r in csv.DictReader(fh)]
        assert len(seconds) == n_rows and all(float(s) > 0 for s in seconds)

    def test_pool_size_none_flag(self, tmp_path):
        args = cli.build_parser().parse_args(
            self.bench_args(tmp_path, ["--pool-size", "none"]))
        spec = hz.parse_config(None, cli._overrides(args))
        assert spec.pool_size is None

    def test_bool_flags_take_optional_value(self):
        parse = cli.build_parser().parse_args
        assert hz.parse_config(None, cli._overrides(parse(["bench", "--timing"]))).timing is True
        spec = hz.parse_config(None, cli._overrides(parse(["bench", "--trlearner"])))
        assert spec.trlearner is True
        spec = hz.parse_config(None, cli._overrides(parse(["bench", "--timing", "off"])))
        assert spec.timing is False


def spec_flags(settings: dict) -> list:
    """Command-line flags for a dict of config key -> value string."""
    flags = []
    for key, value in settings.items():
        if key == "second_order":
            flags += [] if hz._parse_value(key, value) else ["--first-order"]
        else:
            flags += [cli._FLAG_NAMES.get(key, "--" + key.replace("_", "-")), value]
    return flags


class TestCliSurface:
    def bench_parser(self):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        return sub.choices["bench"]

    def test_one_flag_per_spec_field(self):
        dests = [a.dest for a in self.bench_parser()._actions if a.dest not in ("help", "config")]
        assert sorted(dests) == sorted(f.name for f in fields(hz.ExperimentSpec))

    def test_config_txt_as_flags_rebuilds_spec(self, tmp_path):
        spec = tiny_spec(tmp_path, method="metasgd", trlearner="off", second_order="false",
                         pool_size="none", lam=0.45, timing="true", metadata_strategy="scored",
                         metadata_samples=4, eval_inner_steps=3, hidden="8,8")
        hz.echo_config(spec, tmp_path)
        settings = dict(line.split("=", 1)
                        for line in (tmp_path / "config.txt").read_text().splitlines())
        args = cli.build_parser().parse_args(["bench", *spec_flags(settings)])
        assert hz.parse_config(None, cli._overrides(args)) == spec

    def test_readme_cli_block_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"^## CLI\n+```sh\n(.*?)^```", readme, re.S | re.M).group(1)
        commands = [line for line in block.splitlines() if line.startswith("relmeta ")]
        assert len(commands) >= 4
        for line in commands:
            cli.build_parser().parse_args(shlex.split(line)[1:])

    def test_golden_case_through_cli(self, tmp_path, capsys):
        golden = json.loads(gold.FIXTURE.read_text())["maml-trl"]
        settings = {**gold.BASE, **gold.CASES["maml-trl"], "out": str(tmp_path)}
        assert cli.main(["bench", *spec_flags(settings)]) == 0
        assert gold.digests_of(tmp_path) == golden
