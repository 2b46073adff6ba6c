"""Command-line front end: run, probe, ablate and validate-otd subcommands.

Configuration is a flat key-value text file with dotted keys (``arc.beta =
0.8``, ``#`` comments); every key can be overridden by a flag of the same
name (``--arc.beta 0.7``). ``ARCBENCH_OUTPUT_DIR`` overrides ``run.output_dir``
from the file; an explicit ``--run.output_dir`` flag wins over both. Reports
are written to a temporary directory first and promoted only on success, so
failures never leave a partial bundle.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import io
import os
import platform
import shutil
import sys
import tempfile
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from dataclasses import astuple, dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from . import __version__
from .arc import ArcConfig
from .core import TrainConfig
from .data import SyntheticSpec, TaskStream, generate_synthetic, load_embeddings
from .harness import (
    OtdValidationReport,
    ProbeRow,
    RMatrix,
    StageTrace,
    ablation_grid,
    average_accuracy,
    bias_histogram,
    forgetting,
    linear_probe_experiment,
    otd_validation,
    pipeline_traces,
    run_stream,
)
from .otd import RECORD_DTYPE

OUTPUT_DIR_ENV = "ARCBENCH_OUTPUT_DIR"


class ConfigError(ValueError):
    """Configuration problem; the message names the offending key."""


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _list_of(item: type):
    """Parser for a comma-separated list. A list value names each item once:
    a repeat would duplicate output rows, and no item would leave none."""
    def parse(text: str) -> list:
        values = [item(part) for part in map(str.strip, text.split(",")) if part]
        if not values:
            raise ValueError("must list at least one value")
        for i, value in enumerate(values):
            if value in values[:i]:
                raise ValueError(f"repeated value {value!r}")
        return values
    return parse


# key -> (parser, default, help); a key backed by a config class takes its
# default from that class
SCHEMA: dict[str, tuple] = {
    "data.source": (str, "synthetic", "synthetic | embeddings"),
    "data.path": (str, "", "EMB1 file (required when data.source=embeddings)"),
    "data.num_tasks": (int, SyntheticSpec.num_tasks, "tasks in the stream"),
    "data.step": (int, SyntheticSpec.step, "classes per task"),
    "data.dim": (int, SyntheticSpec.dim, "feature dimension"),
    "data.mean_scale": (float, SyntheticSpec.mean_scale, "stddev of class-mean draws"),
    "data.noise_sigma": (float, SyntheticSpec.noise_sigma, "within-class stddev"),
    "data.train_per_class": (int, SyntheticSpec.train_per_class, "training examples per class"),
    "data.test_per_class": (int, SyntheticSpec.test_per_class, "test examples per class"),
    "train.epochs": (int, TrainConfig.epochs, "epochs per task"),
    "train.lr": (float, TrainConfig.lr, "training learning rate"),
    "train.batch_size": (int, TrainConfig.batch_size, "training mini-batch size"),
    "train.weight_decay": (float, TrainConfig.weight_decay, "per-step weight decay"),
    "train.replay_per_class": (int, TrainConfig.replay_per_class,
                               "replay exemplars per past class (0 = memory-free)"),
    "arc.beta": (float, ArcConfig.beta, "retention confidence threshold"),
    "arc.gamma": (float, ArcConfig.gamma, "correction ratio threshold"),
    "arc.temperature": (float, ArcConfig.temperature,
                        "task-score temperature (1 disables scaling)"),
    "arc.lr": (float, ArcConfig.lr, "retention learning rate"),
    "arc.retention": (_parse_bool, ArcConfig.retention, "enable test-time retention"),
    "arc.correction": (_parse_bool, ArcConfig.correction, "enable test-time correction"),
    "arc.batch_size": (int, ArcConfig.batch_size, "online evaluation batch size"),
    "arc.arc_last": (_parse_bool, ArcConfig.arc_last, "adapt only after the final task"),
    "arc.w_mode": (str, ArcConfig.w_mode, "misclassification statistic: ratio | raw"),
    "arc.retention_loss": (str, ArcConfig.retention_loss, "retention objective: both | ce | em"),
    "run.seeds": (_list_of(int), [0], "comma-separated seeds"),
    "run.output_dir": (str, "arcbench-out", "report bundle directory"),
    "ablate.losses": (_list_of(str), ["ce", "em", "both"],
                      "retention-loss variants: ce | em | both"),
    "ablate.temperatures": (_list_of(str), ["on", "off"],
                            "temperature variants: on (arc.temperature) | off (1)"),
    "ablate.w_modes": (_list_of(str), ["ratio", "raw"], "w-statistic variants: ratio | raw"),
    "ablate.betas": (_list_of(float), [0.6, 0.7, 0.8, 0.9], "beta sweep"),
    "ablate.gammas": (_list_of(float), [0.6, 0.7, 0.8, 0.9, 1.0], "gamma sweep"),
    "otd.betas": (_list_of(float), [0.0, 0.8], "betas compared by validate-otd"),
}


def read_config_file(path: str) -> dict[str, str]:
    """Parse ``key = value`` lines; unknown and repeated keys are an error."""
    if not os.path.isfile(path):
        raise ConfigError(f"config file is not a file: {path}")
    raw: dict[str, str] = {}
    line_of: dict[str, int] = {}
    with open(path, "rb") as fh:
        data = fh.read()
    try:  # decoded whole, so the error's position is the file offset
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{path}:{lineno}: not UTF-8 text: {exc}") from exc
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: config key {key!r} repeats line "
                              f"{line_of[key]}")
        raw[key], line_of[key] = value.strip(), lineno
    return raw


def _effective_config(file_values: dict[str, str], flag_values: dict[str, str]) -> dict:
    """defaults <- config file <- environment <- command-line flags."""
    cfg = {key: default for key, (_, default, _) in SCHEMA.items()}
    for source, values in (("config file", file_values), ("flag", flag_values)):
        for key, text in values.items():
            parser = SCHEMA[key][0]
            try:
                cfg[key] = parser(text)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r} (from {source}): {exc}") from exc
    env_dir = os.environ.get(OUTPUT_DIR_ENV)
    if env_dir and "run.output_dir" not in flag_values:
        cfg["run.output_dir"] = env_dir
    return cfg


@contextmanager
def _named(prefix: str):
    """Re-raise a ValueError from the block as a ConfigError starting with prefix."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def _by_field(cls, values: dict, prefix: str, **given):
    """cls with each field not given read from the key <prefix>.<field>."""
    return cls(**{f.name: values[f"{prefix}.{f.name}"] for f in fields(cls) if f.name not in given},
               **given)


def _with_temperature(arc: ArcConfig, setting: str) -> ArcConfig:
    """"on" keeps arc.temperature; "off" is 1, which disables the scaling."""
    if setting not in ("on", "off"):
        raise ValueError(f"temperature must be on or off, got {setting!r}")
    return arc if setting == "on" else replace(arc, temperature=1.0)


# each ablate.* axis, in the grid's product order: how one of its values sets
# an arc config; ABLATE_COLUMNS are their ablation.csv columns
ABLATE_AXES = {
    "ablate.losses": lambda arc, loss: replace(arc, retention_loss=loss),
    "ablate.temperatures": _with_temperature,
    "ablate.w_modes": lambda arc, w_mode: replace(arc, w_mode=w_mode),
    "ablate.betas": lambda arc, beta: replace(arc, beta=beta),
    "ablate.gammas": lambda arc, gamma: replace(arc, gamma=gamma),
}
ABLATE_COLUMNS = ["loss", "temperature", "w_mode", "beta", "gamma"]


@dataclass
class RunConfig:
    """Validated, typed view of the effective configuration, with the configs
    it feeds; ``spec`` is seed 0's, None when data.source=embeddings."""

    values: dict
    train: TrainConfig = field(init=False)
    arc: ArcConfig = field(init=False)
    otd_arcs: list[ArcConfig] = field(init=False)  # cfg.arc at each otd.betas value
    # (one value per ablate.* axis, in ABLATE_COLUMNS order; its arc config) per ablation.csv row
    ablate_cells: list[tuple[tuple, ArcConfig]] = field(init=False)
    spec: SyntheticSpec | None = field(init=False, default=None)

    def __post_init__(self):
        v = self.values
        if v["data.source"] not in ("synthetic", "embeddings"):
            raise ConfigError(f"data.source must be synthetic or embeddings, got {v['data.source']!r}")
        if v["data.source"] == "embeddings":
            if not v["data.path"]:
                raise ConfigError("data.path is required when data.source=embeddings")
            if not os.path.isfile(v["data.path"]):
                raise ConfigError(f"data.path is not a file: {v['data.path']!r}")
        elif v["data.path"]:
            raise ConfigError("data.path is set but data.source is synthetic")
        if any(seed < 0 for seed in v["run.seeds"]):
            raise ConfigError("run.seeds must be nonnegative")
        _check_output_dir(v["run.output_dir"])
        # build and keep every sub-config now so bad values fail at parse time;
        # the train, arc and data messages start with the field, the last part of its key
        with _named("train."):
            self.train = _by_field(TrainConfig, v, "train")
        with _named("arc."):
            self.arc = _by_field(ArcConfig, v, "arc")
        with _named("otd.betas: "):
            self.otd_arcs = [replace(self.arc, beta=beta) for beta in v["otd.betas"]]
        cells = [((), self.arc)]
        for key, set_axis in ABLATE_AXES.items():
            with _named(f"{key}: "):
                cells = [((*cell, value), set_axis(arc, value))
                         for cell, arc in cells for value in v[key]]
        # sorted as text by row_key, so gamma 10 comes before gamma 2
        row_key = "loss={},temp={},w={},beta={:g},gamma={:g}".format
        self.ablate_cells = sorted(cells, key=lambda pair: row_key(*pair[0]))
        if v["data.source"] == "synthetic":
            with _named("data."):
                self.spec = _by_field(SyntheticSpec, v, "data", seed=0)

    @property
    def seeds(self) -> list[int]:
        return list(self.values["run.seeds"])

    @property
    def output_dir(self) -> str:
        return self.values["run.output_dir"]

    @cached_property
    def _embeddings(self) -> TaskStream:
        """The EMB1 stream, read once per command and shared by every seed."""
        return load_embeddings(self.values["data.path"])

    def stream_for_seed(self, seed: int) -> TaskStream:
        if self.values["data.source"] == "embeddings":
            return self._embeddings
        return generate_synthetic(replace(self.spec, seed=seed))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def render_csv(header: list[str], rows: list[list]) -> str:
    """Header plus rows, cells through _fmt. No cell needs quoting: every
    string cell is a fixed name checked at parse time."""
    return "".join(",".join(map(_fmt, row)) + "\n" for row in [header, *rows])


def _columns(cls) -> list[str]:
    return [f.name for f in fields(cls)]


def blas_name() -> str:
    """numpy's BLAS as "name version", or "unknown"."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        return "unknown"


def blas_core() -> str:
    """The kernel family OpenBLAS runs on this CPU (its core type), read from the
    scipy-openblas library numpy loaded, or "unknown" for a BLAS that does not say."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for path in libs:
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def _metadata(command: str, cfg: RunConfig) -> str:
    """Provenance and the effective config; called once the command's work is done.
    The BLAS and its thread settings can move a result's last bits."""
    threads = ", ".join(f"{var}={os.environ.get(var, 'unset')}"
                        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"))
    lines = [f"arcbench version = {__version__}", f"command = {command}",
             f"numpy version = {np.__version__}",
             f"python version = {platform.python_version()}",
             f"platform = {platform.platform()}",
             f"blas = {blas_name()}, core {blas_core()}",
             f"blas threads = {threads}"]
    if cfg.values["data.source"] == "embeddings":
        stream = cfg._embeddings  # the data.* generator keys below do not apply to it
        lines.append(f"data.path sha256 = {stream.sha256}")  # hashed as it loaded
        lines.append(f"data.path layout = num_tasks {stream.layout.num_tasks}, "
                     f"step {stream.layout.step}, dim {stream.dim}, "
                     f"train records {sum(map(len, stream.train))}, "
                     f"test records {sum(map(len, stream.test))}")
    for key in sorted(SCHEMA):
        value = cfg.values[key]
        if isinstance(value, list):
            rendered = ",".join(_fmt(item) for item in value)
        else:
            rendered = _fmt(value)
        lines.append(f"{key} = {rendered}")
    return "\n".join(lines) + "\n"


def _check_output_dir(output_dir: str) -> None:
    """Reject a bundle location that is, or lies below, a file or a dangling
    link, and a directory with entries."""
    path = os.path.abspath(output_dir)  # "" names the working directory
    entry = path  # the nearest existing entry: the path or an ancestor
    while not os.path.lexists(entry):
        entry = os.path.dirname(entry)
    where = "is" if entry == path else "lies below"
    if not os.path.exists(entry):
        raise ConfigError(f"run.output_dir {where} a dangling link: {entry}")
    if not os.path.isdir(entry):
        raise ConfigError(f"run.output_dir {where} a file: {entry}")
    if entry == path and os.listdir(path):
        raise ConfigError(f"run.output_dir already exists and is not empty: {path}")


class Chunks:
    """One report file's text as the chunks that make it up. Each pass calls
    ``make`` afresh, so a chunk is rendered only when it is written and can be
    dropped once written; ``encode`` joins a whole pass (perfbench's traced
    write counts a bundle's bytes with it)."""

    def __init__(self, make: Callable[[], Iterable[str]]):
        self.make = make

    def __iter__(self) -> Iterator[str]:
        return iter(self.make())

    def encode(self, encoding: str = "utf-8") -> bytes:
        return "".join(self).encode(encoding)


def write_bundle(output_dir: str, files: dict[str, str | Chunks]) -> None:
    """Write each file, whole text or chunks as they come, to a temp directory,
    then promote the directory atomically; a chunk that raises leaves nothing.
    A link to an empty directory gets the bundle in its target and stays."""
    _check_output_dir(output_dir)  # again: it may have appeared while the command ran
    output_dir = os.path.realpath(output_dir)  # checked first: no dangling link on it
    parent = os.path.dirname(output_dir)
    os.makedirs(parent, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=".bundle-", dir=parent)
    try:
        for name, content in files.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8", newline="") as fh:
                fh.writelines([content] if isinstance(content, str) else content)
        if os.path.isdir(output_dir):
            os.rmdir(output_dir)
        os.rename(tmp, output_dir)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


def _scores(r: RMatrix) -> list:
    """A matrix's SCORE_COLUMNS cells: forgetting is undefined for one task."""
    return [average_accuracy(r), forgetting(r) if r.num_tasks >= 2 else None]


def _metrics_rows(score_rows: list[list]) -> list:
    """metrics.csv: the [seed, pipeline, *scores] rows sorted by (seed,
    pipeline), then each pipeline's mean and std rows."""
    rows = sorted(score_rows, key=lambda row: (row[0], row[1]))
    for pipeline in sorted({row[1] for row in rows}):
        group = [row for row in rows if row[1] == pipeline]
        accs = [row[2] for row in group]
        forgets = [row[3] for row in group if row[3] is not None]
        rows.append(["mean", pipeline, float(np.mean(accs)),
                     float(np.mean(forgets)) if forgets else None])
        rows.append(["std", pipeline, float(np.std(accs)),
                     float(np.std(forgets)) if forgets else None])
    return rows


def _record_text(seed: int, trace: StageTrace, beta: float | None = None) -> str:
    """One stage trace's arc_records.csv rows as render_csv would give them, one
    f-string per row: no cell is ever quoted (numbers, empty for an undefined
    NaN, decision names)."""
    lead = f"{seed}," if beta is None else f"{seed},{beta:.17g},"
    rec = trace.records
    columns = (trace.true_tasks, trace.true_labels, rec.initial_class, rec.final_class,
               rec.decision, rec.retention_applied, rec.confidence,
               rec.masked_confidence, rec.ratio)
    lines = []
    for position, row in enumerate(zip(*(column.tolist() for column in columns))):
        task, label, initial, final, decision, applied, c, masked, ratio = row
        masked = "" if masked != masked else f"{masked:.17g}"
        ratio = "" if ratio != ratio else f"{ratio:.17g}"
        lines.append(
            f"{lead}{trace.stage},{position},{task},{label},{initial},{final},"
            f"{decision.value},{1 if applied else 0},{c:.17g},{masked},{ratio}\n"
        )
    return "".join(lines)


# arc_records.csv after its seed (and beta) columns: _record_text's order
RECORD_COLUMNS = ["stage", "position", "true_task", "true_label", *RECORD_DTYPE.names]
# the cells of _scores, after each row's seed and pipeline or ablate.* cell
SCORE_COLUMNS = ["average_accuracy", "forgetting"]
OTD_HEADER = ["seed", "beta", *_columns(OtdValidationReport)]


def _records(header: list[str], runs: list[tuple[int, float | None, list[StageTrace]]]) -> Chunks:
    """arc_records.csv: the header, then one chunk per stage trace of each
    (seed, beta, traces) run, so at most one stage's rows are text at once."""
    def chunks():
        yield render_csv(header, [])
        for seed, beta, traces in runs:
            for trace in traces:
                yield _record_text(seed, trace, beta)
    return Chunks(chunks)


def _otd_row(seed: int, beta: float, traces: list[StageTrace]) -> list:
    return [seed, beta, *astuple(otd_validation(traces))]


def cmd_run(cfg: RunConfig) -> tuple[dict[str, str | Chunks], str]:
    score_rows, r_rows, bias_rows, otd_rows, pred_rows, record_runs = [], [], [], [], [], []
    for seed in cfg.seeds:
        stream = cfg.stream_for_seed(seed)
        result = run_stream(stream, cfg.train, cfg.arc, seed)
        for pipeline, r in (("arc", result.r_with_arc), ("baseline", result.r_without_arc)):
            score_rows.append([seed, pipeline, *_scores(r)])
            for t in range(1, r.num_tasks + 1):
                for i in range(1, t + 1):
                    r_rows.append([seed, pipeline, t, i, r.entry(t, i)])
        predicted, labels = result.task1_predictions, stream.test[0].labels
        if predicted is not None:
            for task, count in enumerate(bias_histogram(predicted, labels, stream.layout), start=1):
                bias_rows.append([seed, task, int(count)])
            for sample, (label, pred) in enumerate(zip(labels, predicted)):
                pred_rows.append([seed, sample, int(label), int(pred)])
        otd_rows.append(_otd_row(seed, cfg.arc.beta, result.arc_traces))
        record_runs.append((seed, None, result.arc_traces))

    metrics_rows = _metrics_rows(score_rows)
    files = {
        "metrics.csv": render_csv(["seed", "pipeline", *SCORE_COLUMNS], metrics_rows),
        "r_matrices.csv": render_csv(["seed", "pipeline", "stage", "task", "accuracy"], r_rows),
        "bias_histogram.csv": render_csv(["seed", "task", "count"], bias_rows),
        "task1_final_predictions.csv": render_csv(["seed", "sample", "true_label", "predicted"],
                                                  pred_rows),
        "otd_validation.csv": render_csv(OTD_HEADER, otd_rows),
        "arc_records.csv": _records(["seed", *RECORD_COLUMNS], record_runs),
    }
    means = {row[1]: row[2] for row in metrics_rows if row[0] == "mean"}
    summary = (f"seeds: {len(cfg.seeds)}\n"
               f"mean average_accuracy arc={means['arc']:.4f} baseline={means['baseline']:.4f}")
    return files, summary


def cmd_probe(cfg: RunConfig) -> tuple[dict[str, str], str]:
    rows = []
    for seed in cfg.seeds:
        stream = cfg.stream_for_seed(seed)
        for row in linear_probe_experiment(stream, cfg.train, seed):
            rows.append([seed, *astuple(row)])
    return ({"probe.csv": render_csv(["seed", *_columns(ProbeRow)], rows)},
            f"probe rows: {len(rows)}")


def cmd_ablate(cfg: RunConfig) -> tuple[dict[str, str], str]:
    cells = cfg.ablate_cells
    rows = []
    for seed in cfg.seeds:
        stream = cfg.stream_for_seed(seed)
        matrices = ablation_grid(stream, cfg.train, [arc for _, arc in cells], seed)
        for (cell, _), r in zip(cells, matrices):
            rows.append([seed, *cell, *_scores(r)])
    return ({"ablation.csv": render_csv(["seed", *ABLATE_COLUMNS, *SCORE_COLUMNS], rows)},
            f"variants: {len(cells)}, rows: {len(rows)}")


def cmd_validate_otd(cfg: RunConfig) -> tuple[dict[str, str | Chunks], str]:
    otd_rows, record_runs = [], []
    for seed in cfg.seeds:
        stream = cfg.stream_for_seed(seed)
        # training never sees beta: train once, then run the pipeline per beta
        for arc, traces in zip(cfg.otd_arcs, pipeline_traces(stream, cfg.train, cfg.otd_arcs, seed)):
            otd_rows.append(_otd_row(seed, arc.beta, traces))
            record_runs.append((seed, arc.beta, traces))
    files = {
        "otd_validation.csv": render_csv(OTD_HEADER, otd_rows),
        "arc_records.csv": _records(["seed", "beta", *RECORD_COLUMNS], record_runs),
    }
    return files, f"rows: {len(otd_rows)}"


# each subcommand: its function and its --help line
COMMANDS = {
    "run": (cmd_run, "train sequentially and report paired arc/baseline metrics"),
    "probe": (cmd_probe, "per-task probe heads vs the shared head"),
    "ablate": (cmd_ablate, "full variant grid over losses, temperature, w-mode and thresholds"),
    "validate-otd": (cmd_validate_otd, "detection precision at each requested beta"),
}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command; each flag's dest is its key (argparse keeps the dot)."""
    parser = argparse.ArgumentParser(
        prog="arcbench",
        description="Class-incremental benchmark with test-time classifier "
                    "retention and correction.",
        epilog=f"Environment: {OUTPUT_DIR_ENV} overrides run.output_dir.",
    )
    parser.add_argument("--version", action="version", version=f"arcbench {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text) in COMMANDS.items():
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--config", metavar="FILE", default=None,
                        help="flat key=value config file")
        for key, (_, default, key_help) in SCHEMA.items():
            sp.add_argument(f"--{key}", metavar="V", default=None,
                            help=f"{key_help} (default: {default})")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        file_values = read_config_file(args.config) if args.config else {}
        flag_values = {key: value for key, value in vars(args).items()
                       if key in SCHEMA and value is not None}
        cfg = RunConfig(_effective_config(file_values, flag_values))
        files, summary = COMMANDS[args.command][0](cfg)
        write_bundle(cfg.output_dir, {"metadata.txt": _metadata(args.command, cfg), **files})
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(summary)
    print(f"report bundle: {cfg.output_dir}")
    return 0
