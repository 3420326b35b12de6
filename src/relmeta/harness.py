"""Experiment runner: config parsing, seeded benchmarks, sweeps, reports.

An ExperimentSpec is a flat bag of key=value settings covering the task
stream, the engine config, and the run protocol.  Benchmarks execute
`runs` independent train+evaluate cycles on seeds base, base+1, ... and
aggregate query MSE into a ResultRow.  All CSV/JSONL artifacts are
byte-deterministic for a fixed spec; wall-clock timing is opt-in because
it breaks that property.
"""

from __future__ import annotations

import csv
import json
import logging
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

import relmeta.metalearn as ml
import relmeta.nn as nn
import relmeta.relation as rel
import relmeta.svgplot as sp
import relmeta.tasks as tk

log = logging.getLogger(__name__)


class ConfigError(Exception):
    pass


class RunError(Exception):
    pass


LAMBDA_GRID = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8)

# The per-family input widening lives in tasks; perfbench/checks.py reads it here.
INPUT_SCALES = tk.INPUT_SCALES

RESULT_COLUMNS = (
    "dataset", "shots", "method", "trlearner", "matrix_mode", "lambda",
    "alpha", "beta", "inner_steps", "batch_tasks", "epochs",
    "batches_per_epoch", "pool_size", "runs", "seed",
    "mse_mean", "ci95", "seconds",
)


@dataclass
class ExperimentSpec(ml.MetaConfig):
    """Everything one benchmark needs, flat so it maps 1:1 to config keys.

    The engine settings are the inherited MetaConfig fields; the fields
    declared here describe the task stream and the run protocol.
    """

    dataset: str = "sinusoid"
    shots: int = 10
    queries: int = 15
    noise_sd: float = tk.DEFAULT_NOISE_SD
    pool_size: object = 480
    runs: int = 5
    eval_tasks: int = 200
    out: str = "results"
    timing: bool = False

    def __post_init__(self):
        bad = []
        if self.dataset not in tk.GENERATORS:
            bad.append(f"dataset={self.dataset!r}")
        if self.shots < 1:
            bad.append(f"shots={self.shots}")
        if self.queries < 1:
            bad.append(f"queries={self.queries}")
        if self.metadata_samples is not None and self.metadata_samples > self.shots:
            bad.append(f"metadata_samples={self.metadata_samples} exceeds shots={self.shots}")
        if self.runs < 1:
            bad.append(f"runs={self.runs}")
        if self.eval_tasks < 1:
            bad.append(f"eval_tasks={self.eval_tasks}")
        if self.pool_size is not None and self.pool_size < 1:
            bad.append(f"pool_size={self.pool_size}")
        if not np.isfinite(self.noise_sd) or self.noise_sd < 0:
            bad.append(f"noise_sd={self.noise_sd}")
        if bad:
            raise ConfigError("invalid values: " + ", ".join(bad))
        try:
            super().__post_init__()
        except ml.MetaLearnError as exc:
            raise ConfigError(str(exc)) from exc

    def to_meta_config(self, seed: int) -> ml.MetaConfig:
        return replace(self, seed=int(seed))


_DEFAULTS = {f.name: f.default for f in fields(ExperimentSpec)}
_OPTIONAL_INT_KEYS = ("pool_size", "metadata_samples", "eval_inner_steps")
_BOOL_WORDS = {"true": True, "on": True, "1": True, "yes": True,
               "false": False, "off": False, "0": False, "no": False}


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    kind = type(_DEFAULTS[key])
    if kind is bool:
        try:
            return _BOOL_WORDS[raw.lower()]
        except KeyError:
            raise ConfigError(f"{key}: expected true/false, got {raw!r}") from None
    try:
        if key in _OPTIONAL_INT_KEYS:
            return None if raw.lower() in ("none", "") else int(raw)
        if key == "hidden":
            return tuple(int(part) for part in raw.split(",") if part.strip())
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _read_config_file(path) -> dict:
    """Flat key=value lines; '#' starts a comment, blank lines ignored."""
    try:
        text = open(path, encoding="utf-8").read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    data = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        data[key.strip()] = value.strip()
    return data


def parse_config(path=None, overrides=None) -> ExperimentSpec:
    """Merge defaults <- config file <- overrides into a validated spec."""
    valid = {f.name for f in fields(ExperimentSpec)}
    merged = {}
    unknown = []
    for source in (_read_config_file(path) if path else {}, overrides or {}):
        for key, value in source.items():
            if key not in valid:
                unknown.append(key)
                continue
            merged[key] = _parse_value(key, value) if isinstance(value, str) else value
    if unknown:
        raise ConfigError("unknown config keys: " + ", ".join(sorted(set(unknown))))
    return ExperimentSpec(**merged)


def format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def echo_config(spec: ExperimentSpec, out_dir) -> None:
    """Write the effective settings as a reloadable key=value file."""
    lines = [f"{f.name}={format_value(getattr(spec, f.name))}"
             for f in sorted(fields(spec), key=lambda f: f.name)]
    (out_dir / "config.txt").write_text("\n".join(lines) + "\n")


@dataclass
class ResultRow:
    """One aggregated benchmark line: the spec that ran and its MSE stats.

    Spec settings read through (`row.lam`, `row.method`, ...); `runs`,
    `mse_mean` and `ci95` are derived from `per_run`.
    """

    spec: ExperimentSpec
    per_run: list
    seconds: object = None

    def __post_init__(self):
        self.mse_mean, self.ci95 = ml.summarize(self.per_run)

    def __getattr__(self, name):
        if name == "spec":  # not yet set while unpickling or copying
            raise AttributeError(name)
        return getattr(self.spec, name)

    @property
    def runs(self) -> int:
        return len(self.per_run)

    def csv_values(self) -> list:
        spec = self.spec
        return [
            spec.dataset, str(spec.shots), spec.method,
            "on" if spec.trlearner else "off", spec.matrix_mode,
            repr(float(spec.lam)), repr(float(spec.alpha)), repr(float(spec.beta)),
            str(spec.inner_steps), str(spec.batch_tasks), str(spec.epochs),
            str(spec.batches_per_epoch),
            "none" if spec.pool_size is None else str(spec.pool_size),
            str(self.runs), str(spec.seed), repr(float(self.mse_mean)),
            "n/a" if self.runs == 1 else repr(float(self.ci95)),
            "" if self.seconds is None else f"{self.seconds:.3f}",
        ]


def write_results_csv(rows: list, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULT_COLUMNS)
        for row in rows:
            writer.writerow(row.csv_values())


def summary_line(row: ResultRow, key=None) -> str:
    """One human-readable line per row, tagged [key=value] for a sweep over `key`."""
    label = row.method + ("+trl" if row.trlearner else "")
    ci = "n/a" if row.runs == 1 else f"{row.ci95:.3f}"
    tag = "" if key is None else f" [{key}={format_value(getattr(row.spec, key))}]"
    return (f"{row.dataset} {row.shots}-shot {label}: "
            f"MSE {row.mse_mean:.3f} +/- {ci} ({row.runs} runs){tag}")


def single_run(spec: ExperimentSpec, run_index: int) -> dict:
    """Train and evaluate one seed; returns seed, mse, epoch records, model, layer."""
    seed = spec.seed + run_index
    config = spec.to_meta_config(seed)
    model = nn.init_model([1, *config.hidden], config.batch_tasks, seed,
                          input_scale=tk.INPUT_SCALES[spec.dataset])
    layer = rel.SimilarityLayer(config.sim_heads, model.feature_width)
    source = tk.TaskSource(spec.dataset, spec.shots, spec.queries,
                           noise_sd=spec.noise_sd, seed=seed,
                           pool_size=spec.pool_size)
    # A diverging run overflows inside the engine, which reports the
    # non-finite loss itself and names the task.
    with np.errstate(over="ignore", invalid="ignore"):
        records = ml.train(model, layer, source, config)
        result = ml.evaluate(model, [source.eval_task(i) for i in range(spec.eval_tasks)],
                             config)
    return {"seed": seed, "mse": result["mean"], "records": records,
            "model": model, "layer": layer}


def _run_specs(spec: ExperimentSpec, specs, out_dir) -> tuple:
    """The one runner: every seeded run of each of `specs`, into one directory.

    Creates the directory (`out_dir`, else `spec.out`), echoes `spec` to
    config.txt and writes results.csv: one ResultRow per spec, timed when
    that spec sets `timing`.  Returns (out, rows, outcomes, failure), with
    one (spec, outcome) per finished run.  The first run that raises ends
    the sequence and names the failure; its spec's finished runs still
    make a row.  A fixed-mode run whose similarity masks moved is a
    failure too.  Callers write their own artifacts, then raise RunError.
    """
    out = Path(out_dir) if out_dir is not None else Path(spec.out)
    out.mkdir(parents=True, exist_ok=True)
    echo_config(spec, out)
    rows, outcomes, failure = [], [], None
    for sub in specs:
        started = time.perf_counter()
        per_run = []
        for run_index in range(sub.runs):
            try:
                outcome = single_run(sub, run_index)
            except Exception as exc:  # any aborted run must flag partial output
                failure = f"run {run_index} (seed {sub.seed + run_index}) failed: {exc}"
                break
            outcomes.append((sub, outcome))
            per_run.append(outcome["mse"])
        if per_run:
            seconds = time.perf_counter() - started if sub.timing else None
            rows.append(ResultRow(sub, per_run, seconds))
        if failure:
            break
    if failure is None and any(sub.matrix_mode == "fixed" and np.any(o["layer"].omega != 1.0)
                               for sub, o in outcomes):
        failure = "fixed matrix mode updated omega"
    write_results_csv(rows, out / "results.csv")
    return out, rows, outcomes, failure


def run_benchmark(spec: ExperimentSpec, out_dir=None) -> list:
    """Execute spec.runs seeded cycles; adds log.jsonl, summary.txt and heatmaps.

    A run that aborts still leaves the completed runs' artifacts behind
    (flagged in summary.txt) before the error propagates as RunError.
    """
    out, rows, outcomes, failure = _run_specs(spec, [spec], out_dir)
    with open(out / "log.jsonl", "w") as fh:
        for run_index, (_, outcome) in enumerate(outcomes):
            for record in outcome["records"]:
                line = {"run": run_index, "seed": outcome["seed"], **record}
                fh.write(json.dumps(line, sort_keys=True) + "\n")
    if outcomes and spec.trlearner and spec.log_matrix_every > 0:
        export_heatmaps(outcomes[0][1]["records"], out)
    _write_summary(out, [summary_line(row) for row in rows], failure)
    return rows


def _write_summary(out, lines: list, failure) -> None:
    """summary.txt from `lines`, flagged PARTIAL and raised as RunError on a failure."""
    lines = lines + ([f"PARTIAL: {failure}"] if failure else [])
    (out / "summary.txt").write_text("".join(line + "\n" for line in lines))
    if failure:
        raise RunError(failure)


def sweep(spec: ExperimentSpec, key: str, values, out_dir=None) -> list:
    """One benchmark per value of config key `key`, all on `spec`'s seeds.

    Values are parsed like the config file and every spec is checked before
    the directory exists; sweep.svg is drawn when every value is a number.
    """
    if key not in _DEFAULTS:
        raise ConfigError(f"unknown sweep key {key!r}")
    if not values:
        raise ConfigError(f"no values to sweep {key} over")
    values = [_parse_value(key, v) if isinstance(v, str) else v for v in values]
    specs = [replace(spec, **{key: value}) for value in values]
    out, rows, _, failure = _run_specs(spec, specs, out_dir)
    if failure is None and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                               for v in values):
        svg = sp.line_plot([float(v) for v in values], [row.mse_mean for row in rows],
                           title=f"{spec.dataset} {spec.shots}-shot",
                           x_label=key, y_label="query MSE")
        (out / "sweep.svg").write_text(svg)
    _write_summary(out, [summary_line(row, key) for row in rows], failure)
    return rows


def sweep_lambda(spec: ExperimentSpec, values=LAMBDA_GRID, out_dir=None) -> list:
    """The λ curve: `sweep` over `lam`."""
    return sweep(spec, "lam", values, out_dir)


def export_heatmaps(records: list, out_dir) -> list:
    """Write matrix_epochNNN.csv/.svg for every matrix snapshot in one run's records."""
    written = []
    for record in records:
        rows = record.get("matrix")
        if rows is None:
            continue
        tag = f"matrix_epoch{record['epoch'] + 1:03d}"
        csv_path = out_dir / f"{tag}.csv"
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            for row in rows:
                writer.writerow([repr(v) for v in row])
        svg_path = out_dir / f"{tag}.svg"
        svg_path.write_text(sp.heatmap(rows, title=f"epoch {record['epoch'] + 1}"))
        written.extend([csv_path, svg_path])
    if not written:
        log.warning("no matrix snapshots in log; nothing exported")
    return written
