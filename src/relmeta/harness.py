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

# Model-side input widening per task family (see nn.MetaModel input_scale).
INPUT_SCALES = {"sinusoid": 1.0, "harmonic": 10.0}

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
        if self.runs < 1:
            bad.append(f"runs={self.runs}")
        if self.eval_tasks < 1:
            bad.append(f"eval_tasks={self.eval_tasks}")
        if self.pool_size is not None and self.pool_size < 1:
            bad.append(f"pool_size={self.pool_size}")
        if bad:
            raise ConfigError("invalid values: " + ", ".join(bad))
        try:
            super().__post_init__()
        except ml.MetaLearnError as exc:
            raise ConfigError(str(exc)) from exc

    def to_meta_config(self, seed: int) -> ml.MetaConfig:
        kw = {f.name: getattr(self, f.name) for f in fields(ml.MetaConfig)}
        kw["seed"] = int(seed)
        return ml.MetaConfig(**kw)


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
        text = open(path).read()
    except OSError as exc:
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
    """One aggregated benchmark line, Table-style: identity + MSE stats."""

    dataset: str
    shots: int
    method: str
    trlearner: bool
    matrix_mode: str
    lam: float
    alpha: float
    beta: float
    inner_steps: int
    batch_tasks: int
    epochs: int
    batches_per_epoch: int
    pool_size: object
    runs: int
    seed: int
    per_run: list
    mse_mean: float
    ci95: float
    seconds: object = None

    def __post_init__(self):
        if self.runs != len(self.per_run):
            raise RunError(f"runs={self.runs} but {len(self.per_run)} per-run values")
        if abs(self.mse_mean - float(np.mean(self.per_run))) > 1e-12:
            raise RunError("mse_mean is not the arithmetic mean of per_run")

    def csv_values(self) -> list:
        return [
            self.dataset, str(self.shots), self.method,
            "on" if self.trlearner else "off", self.matrix_mode,
            repr(float(self.lam)), repr(float(self.alpha)), repr(float(self.beta)),
            str(self.inner_steps), str(self.batch_tasks), str(self.epochs),
            str(self.batches_per_epoch),
            "none" if self.pool_size is None else str(self.pool_size),
            str(self.runs), str(self.seed), repr(float(self.mse_mean)),
            "n/a" if self.runs == 1 else repr(float(self.ci95)),
            "" if self.seconds is None else f"{self.seconds:.3f}",
        ]


def _aggregate(spec: ExperimentSpec, per_run: list, seconds) -> ResultRow:
    mean, ci = ml.summarize(per_run)
    return ResultRow(
        dataset=spec.dataset, shots=spec.shots, method=spec.method,
        trlearner=spec.trlearner, matrix_mode=spec.matrix_mode, lam=spec.lam,
        alpha=spec.alpha, beta=spec.beta, inner_steps=spec.inner_steps,
        batch_tasks=spec.batch_tasks, epochs=spec.epochs,
        batches_per_epoch=spec.batches_per_epoch, pool_size=spec.pool_size,
        runs=len(per_run), seed=spec.seed, per_run=per_run,
        mse_mean=mean, ci95=ci, seconds=seconds,
    )


def write_results_csv(rows: list, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULT_COLUMNS)
        for row in rows:
            writer.writerow(row.csv_values())


def summary_line(row: ResultRow) -> str:
    label = row.method + ("+trl" if row.trlearner else "")
    ci = "n/a" if row.runs == 1 else f"{row.ci95:.3f}"
    return (f"{row.dataset} {row.shots}-shot {label}: "
            f"MSE {row.mse_mean:.3f} +/- {ci} ({row.runs} runs)")


def single_run(spec: ExperimentSpec, run_index: int) -> dict:
    """Train and evaluate one seed; returns mse, epoch records, model, layer."""
    seed = spec.seed + run_index
    config = spec.to_meta_config(seed)
    model = nn.init_model([1, *config.hidden], config.batch_tasks, seed,
                          input_scale=INPUT_SCALES.get(spec.dataset, 1.0))
    layer = rel.SimilarityLayer(config.sim_heads, model.feature_width)
    source = tk.TaskSource(spec.dataset, spec.shots, spec.queries,
                           noise_sd=spec.noise_sd, seed=seed,
                           pool_size=spec.pool_size)
    records = ml.train(model, layer, source, config)
    result = ml.evaluate(model, [source.eval_task(i) for i in range(spec.eval_tasks)],
                         config)
    return {"seed": seed, "mse": result["mean"], "ci95": result["ci95"],
            "records": records, "model": model, "layer": layer}


def _write_log(out_dir, run_records: list) -> None:
    with open(out_dir / "log.jsonl", "w") as fh:
        for run_index, seed, records in run_records:
            for record in records:
                line = {"run": run_index, "seed": seed, **record}
                fh.write(json.dumps(line, sort_keys=True) + "\n")


def run_benchmark(spec: ExperimentSpec, out_dir=None) -> list:
    """Execute spec.runs seeded cycles; write results.csv/log.jsonl/summary.txt.

    A run that aborts still leaves the completed runs' artifacts behind
    (flagged in summary.txt) before the error propagates as RunError.
    """
    out = _ensure_out(spec, out_dir)
    echo_config(spec, out)
    per_run, run_records, failure = [], [], None
    first = None
    started = time.perf_counter()
    for run_index in range(spec.runs):
        try:
            outcome = single_run(spec, run_index)
        except Exception as exc:  # any aborted run must flag partial output
            failure = f"run {run_index} (seed {spec.seed + run_index}) failed: {exc}"
            break
        per_run.append(outcome["mse"])
        run_records.append((run_index, outcome["seed"], outcome["records"]))
        if first is None:
            first = outcome
    seconds = time.perf_counter() - started if spec.timing else None
    rows = [_aggregate(spec, per_run, seconds)] if per_run else []
    write_results_csv(rows, out / "results.csv")
    _write_log(out, run_records)
    lines = [summary_line(row) for row in rows]
    if failure:
        lines.append(f"PARTIAL: {failure}")
    (out / "summary.txt").write_text("".join(line + "\n" for line in lines))
    if first is not None and spec.log_matrix_every > 0:
        export_heatmaps(first["records"], out)
    if failure:
        raise RunError(failure)
    return rows


def sweep_lambda(spec: ExperimentSpec, values=LAMBDA_GRID, out_dir=None) -> list:
    """One benchmark per λ on shared seeds; writes sweep.csv and sweep.svg."""
    if not values:
        raise ConfigError("empty lambda grid")
    out = _ensure_out(spec, out_dir)
    echo_config(spec, out)
    rows = []
    for value in values:
        sub = replace(spec, lam=float(value), trlearner=True)
        per_run = [single_run(sub, r)["mse"] for r in range(sub.runs)]
        rows.append(_aggregate(sub, per_run, None))
    write_results_csv(rows, out / "results.csv")
    with open(out / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["lambda", "mse_mean", "ci95"])
        for value, row in zip(values, rows):
            ci = "n/a" if row.runs == 1 else repr(float(row.ci95))
            writer.writerow([format_value(float(value)), repr(float(row.mse_mean)), ci])
    svg = sp.line_plot([float(v) for v in values], [row.mse_mean for row in rows],
                       title=f"{spec.dataset} {spec.shots}-shot",
                       x_label="lambda", y_label="query MSE")
    (out / "sweep.svg").write_text(svg)
    return rows


def ablate_matrix(spec: ExperimentSpec, out_dir=None) -> list:
    """Learned vs fixed relation matrix on paired seeds; fixed must not train."""
    out = _ensure_out(spec, out_dir)
    echo_config(spec, out)
    rows = []
    for mode in ml.MATRIX_MODES:
        sub = replace(spec, matrix_mode=mode, trlearner=True)
        outcomes = [single_run(sub, r) for r in range(sub.runs)]
        if mode == "fixed":
            for outcome in outcomes:
                if not np.array_equal(outcome["layer"].omega,
                                      np.ones_like(outcome["layer"].omega)):
                    raise RunError("fixed matrix mode updated omega")
        rows.append(_aggregate(sub, [o["mse"] for o in outcomes], None))
    write_results_csv(rows, out / "results.csv")
    lines = [summary_line(row) + f" [matrix={row.matrix_mode}]" for row in rows]
    (out / "summary.txt").write_text("\n".join(lines) + "\n")
    return rows


def export_heatmaps(records: list, out_dir) -> list:
    """Write matrix_epochNNN.csv/.svg for every logged snapshot in records.

    Multi-run logs export only the first run; later runs revisit the
    same epochs and would silently overwrite the files.
    """
    with_matrix = [r for r in records if r.get("matrix") is not None]
    if with_matrix:
        first_run = min(r.get("run", 0) for r in with_matrix)
        with_matrix = [r for r in with_matrix if r.get("run", 0) == first_run]
    written = []
    for record in with_matrix:
        matrix = record["matrix"]
        rows = [[float(v) for v in row] for row in matrix]
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


def _ensure_out(spec: ExperimentSpec, out_dir) -> Path:
    out = Path(out_dir) if out_dir is not None else Path(spec.out)
    out.mkdir(parents=True, exist_ok=True)
    return out
