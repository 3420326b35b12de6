import csv
import json

import numpy as np
import pytest

import relmeta.cli as cli
import relmeta.harness as hz
import relmeta.metalearn as ml
import relmeta.nn as nn
import relmeta.relation as rel
import relmeta.tasks as tk


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
    def row(self, **kw):
        base = dict(dataset="sinusoid", shots=10, method="maml", trlearner=True,
                    matrix_mode="learned", lam=0.6, alpha=0.05, beta=0.1,
                    inner_steps=1, batch_tasks=4, epochs=1, batches_per_epoch=2,
                    pool_size=None, runs=2, seed=0, per_run=[1.0, 3.0],
                    mse_mean=2.0, ci95=1.0)
        base.update(kw)
        return hz.ResultRow(**base)

    def test_mean_invariant(self):
        with pytest.raises(hz.RunError, match="arithmetic mean"):
            self.row(mse_mean=2.5)

    def test_run_count_invariant(self):
        with pytest.raises(hz.RunError, match="per-run"):
            self.row(runs=3)

    def test_single_run_ci_is_na(self):
        row = self.row(runs=1, per_run=[1.5], mse_mean=1.5, ci95=0.0)
        values = dict(zip(hz.RESULT_COLUMNS, row.csv_values()))
        assert values["ci95"] == "n/a"
        assert values["seconds"] == ""
        assert values["pool_size"] == "none"


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


class TestSweepAndAblate:
    def test_sweep_rows_match_grid(self, tmp_path):
        spec = tiny_spec(tmp_path, runs=1)
        rows = hz.sweep_lambda(spec, values=(0.4, 0.6))
        assert [row.lam for row in rows] == [0.4, 0.6]
        with open(tmp_path / "sweep.csv") as fh:
            lines = list(csv.reader(fh))
        assert lines[0] == ["lambda", "mse_mean", "ci95"]
        assert [line[0] for line in lines[1:]] == ["0.4", "0.6"]
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

    def test_multi_run_log_exports_first_run_only(self, tmp_path):
        records = [
            {"run": 0, "epoch": 0, "matrix": [[0.0, 1.0], [1.0, 0.0]]},
            {"run": 1, "epoch": 0, "matrix": [[0.0, 0.5], [0.5, 0.0]]},
        ]
        written = hz.export_heatmaps(records, tmp_path)
        assert len(written) == 2
        loaded = np.loadtxt(tmp_path / "matrix_epoch001.csv", delimiter=",")
        assert loaded[0, 1] == 1.0


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

    def test_run_error_exit_code(self, tmp_path, capsys, monkeypatch):
        def boom(spec, run_index):
            raise ml.MetaLearnError("boom")

        monkeypatch.setattr(hz, "single_run", boom)
        assert cli.main(self.bench_args(tmp_path)) == 3
        assert "run failed" in capsys.readouterr().err

    def test_heatmap_subcommand(self, tmp_path):
        spec = tiny_spec(tmp_path / "run", log_matrix_every=1, runs=1)
        hz.run_benchmark(spec)
        out = tmp_path / "maps"
        code = cli.main(["heatmap", "--log", str(tmp_path / "run" / "log.jsonl"),
                         "--out", str(out)])
        assert code == 0
        assert (out / "matrix_epoch001.csv").exists()

    def test_pool_size_none_flag(self, tmp_path):
        args = cli.build_parser().parse_args(
            self.bench_args(tmp_path, ["--pool-size", "none"]))
        spec = hz.parse_config(None, cli._overrides(args))
        assert spec.pool_size is None
