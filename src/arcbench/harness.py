"""Experiment orchestration over a task stream.

A run trains the shared head sequentially (task by task, optionally with a
small replay reservoir) and evaluates every seen test set twice after each
stage: plain argmax and the full test-time pipeline. On Linux with a second
CPU the training runs in one forked child per seed (StageHeads), so each
stage is evaluated here while the next one trains; probe fits its probe
heads here too, one per task, while the child trains. Accuracies land in
two lower-triangular matrices from which the summary metrics derive.
Harness RNG substreams are keyed (seed, stage, tag[, extra]) with the tags
below; probe keys use stage 0, which belongs to no stage.
"""

from __future__ import annotations

import operator
import os
import sys
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

import numpy as np

from .arc import ArcConfig, arc_evaluate
from .core import LinearHead, TaskLayout, TrainConfig, expand_head, fit_task, forward, new_head
from .data import TaskStream
from .otd import OtdDecision, Thresholds
from .seeding import substream

TRAIN_TAG = 11
EVAL_TAG = 12
REPLAY_TAG = 13
PROBE_TAG = 14


@dataclass
class RMatrix:
    """Lower-triangular accuracy matrix: entry (stage t, task i) for i <= t."""

    values: np.ndarray  # (N, N), NaN where unfilled

    @classmethod
    def empty(cls, num_tasks: int) -> "RMatrix":
        if num_tasks < 1:
            raise ValueError("num_tasks must be >= 1")
        return cls(np.full((num_tasks, num_tasks), np.nan))

    @property
    def num_tasks(self) -> int:
        return self.values.shape[0]

    def set_entry(self, stage: int, task: int, accuracy: float) -> None:
        if not 1 <= task <= stage <= self.num_tasks:
            raise ValueError(f"entry ({stage}, {task}) outside the lower triangle")
        if not 0.0 <= accuracy <= 1.0:
            raise ValueError(f"accuracy {accuracy} outside [0, 1]")
        self.values[stage - 1, task - 1] = accuracy

    def entry(self, stage: int, task: int) -> float:
        v = self.values[stage - 1, task - 1]
        if np.isnan(v):
            raise ValueError(f"entry ({stage}, {task}) not filled")
        return float(v)

    def row(self, stage: int) -> np.ndarray:
        return self.values[stage - 1, :stage]


def average_accuracy(r: RMatrix) -> float:
    """Mean of the final row: (1/T) * sum_i R[T][i]."""
    final = r.row(r.num_tasks)
    if np.any(np.isnan(final)):
        raise ValueError("final row incomplete")
    return float(np.mean(final))


def forgetting(r: RMatrix) -> float:
    """Mean drop from each task's own-stage accuracy to its final accuracy."""
    t = r.num_tasks
    if t < 2:
        raise ValueError("forgetting undefined for a single task")
    drops = [r.entry(i, i) - r.entry(t, i) for i in range(1, t)]
    return float(np.mean(drops))


def bias_histogram(
    predicted: np.ndarray, labels: np.ndarray, layout: TaskLayout, visible_tasks: int
) -> np.ndarray:
    """Bucket each wrong prediction by the task owning its predicted class.

    Input arrays are one entry per evaluated sample (typically the first
    task's test set after the final stage); counts[j-1] is the number of
    wrong predictions landing in task j's class range.
    """
    predicted = np.asarray(predicted, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if visible_tasks < 2:
        raise ValueError("bias histogram needs at least two visible tasks")
    if predicted.shape != labels.shape:
        raise ValueError("predicted and labels must align")
    if len(predicted) and (predicted.min() < 0 or predicted.max() >= layout.step * visible_tasks):
        raise ValueError("predicted classes outside the visible range")
    wrong = predicted != labels
    return np.bincount(predicted[wrong] // layout.step, minlength=visible_tasks)


@dataclass
class MetricsReport:
    """Summary of one evaluation pipeline over a full run."""

    seed: int
    pipeline: str  # "arc" or "baseline"
    average_accuracy: float
    forgetting: float | None  # None for single-task streams


@dataclass
class StageTrace:
    """Pipeline records for one stage's shuffled test stream, with ground truth.

    ``records`` is arc_evaluate's table (otd.RECORD_DTYPE) for the group's
    first config and ``final_classes`` holds every config's final classes, one
    row per config; both are aligned with ``true_labels`` and ``true_tasks``.
    """

    stage: int
    records: np.recarray
    final_classes: np.ndarray
    true_labels: np.ndarray
    true_tasks: np.ndarray
    retention_updates: int
    warnings: list[str]


@dataclass
class OtdValidationReport:
    """How well the two detection branches match ground truth.

    Precisions are None when nothing was flagged; counts are kept so every
    ratio can be recomputed from persisted records.
    """

    assumption1_precision: float | None
    assumption1_rate: float
    assumption2_precision: float | None
    assumption2_rate: float
    flagged1: int
    flagged1_true: int
    flagged2: int
    flagged2_true: int
    samples: int


@dataclass
class ProbeRow:
    stage: int
    task: int
    independent_accuracy: float
    shared_accuracy: float


@dataclass
class RunResult:
    seed: int
    r_with_arc: RMatrix
    r_without_arc: RMatrix
    metrics_with_arc: MetricsReport
    metrics_without_arc: MetricsReport
    stage_heads: list[LinearHead]
    arc_traces: list[StageTrace]
    bias_histogram: np.ndarray | None  # None for single-task streams
    task1_predictions: np.ndarray | None
    task1_labels: np.ndarray | None


def _train_stages(stream: TaskStream, train_cfg: TrainConfig, seed: int) -> Iterator[LinearHead]:
    """Sequential training: yields the head as of the end of each stage."""
    stream.validate()
    layout = stream.layout
    head = new_head(stream.dim, layout.step)
    replay_x: list[np.ndarray] = []
    replay_y: list[np.ndarray] = []
    for t in range(1, layout.num_tasks + 1):
        if t > 1:
            head = expand_head(head, layout)
        data = stream.train[t - 1]
        x, y = data.features, data.labels
        if replay_x:
            x = np.vstack([x, *replay_x])
            y = np.concatenate([y, *replay_y])
        head = fit_task(head, x, y, train_cfg, seed=(seed, t, TRAIN_TAG))
        yield head
        if train_cfg.replay_per_class > 0:
            for cls in layout.class_range(t):
                mask = np.flatnonzero(data.labels == cls)
                keep = min(train_cfg.replay_per_class, len(mask))
                rng = substream(seed, t, REPLAY_TAG, cls)
                picks = mask[rng.choice(len(mask), size=keep, replace=False)]
                replay_x.append(data.features[picks])
                replay_y.append(data.labels[picks])


def train_sequence(stream: TaskStream, train_cfg: TrainConfig, seed: int) -> list[LinearHead]:
    """Sequential training in this process; returns the head as of the end of
    each stage. StageHeads gives the same heads from a child process."""
    return list(_train_stages(stream, train_cfg, seed))


def _probe_accuracy(stream: TaskStream, train_cfg: TrainConfig, seed: int, task: int) -> float:
    """Fit a fresh step-wide head on one task alone (same epoch budget as the
    shared head) and score it on that task's test set. Stage 0 in its key
    belongs to no stage, so no training, eval or data substream shares it."""
    layout = stream.layout
    train, test = stream.train[task - 1], stream.test[task - 1]
    base = layout.step * (task - 1)
    probe = fit_task(new_head(stream.dim, layout.step), train.features,
                     train.labels - base, train_cfg, seed=(seed, 0, PROBE_TAG, task))
    predicted = forward(probe, test.features).argmax(axis=1)
    return float(np.mean(predicted == test.labels - base))


def trains_in_child() -> bool:
    """Whether StageHeads trains in a forked child: on Linux, when
    this process may run on a second CPU. With one CPU the processes could
    only take turns, so the work stays in this process."""
    return sys.platform.startswith("linux") and len(os.sched_getaffinity(0)) > 1


def _send_heads(heads: Iterator[LinearHead], conn) -> None:
    """Child side of StageHeads: each stage's head as it is trained, or the error."""
    try:
        for head in heads:
            conn.send(head)
    except Exception as exc:
        conn.send(exc)


class StageHeads(Sequence):
    """Each stage's trained head, trained while the caller works.

    Item t is the head trained through stage t, as from train_sequence.
    Where trains_in_child(), the training runs in a child started by fork (it
    inherits the stream and configs; only heads or one exception come back
    over a one-way pipe); elsewhere it runs in this process, lazily. The
    length is the number of stages at once; item t blocks until it has
    arrived. An error raised in training is re-raised here with its type and
    message, and a child that exits without reporting raises
    ChildProcessError naming the training child. Use it as a context manager:
    leaving the block, even early or by an exception, stops and joins the
    child.
    """

    def __init__(self, stream: TaskStream, train_cfg: TrainConfig, seed: int):
        self._num_stages = stream.layout.num_tasks
        self._items: list[LinearHead] = []
        self._process = None
        heads = _train_stages(stream, train_cfg, seed)
        if not trains_in_child():
            self._next = heads.__next__
            return
        import multiprocessing  # here, so that start-up before training does not pay for it

        ctx = multiprocessing.get_context("fork")
        self._conn, child_conn = ctx.Pipe(duplex=False)
        self._process = ctx.Process(target=_send_heads, args=(heads, child_conn), daemon=True)
        self._process.start()
        child_conn.close()
        self._next = self._receive

    def _receive(self) -> LinearHead:
        try:
            item = self._conn.recv()
        except EOFError:
            self._process.join()
            raise ChildProcessError(
                f"training child exited with code {self._process.exitcode} before "
                f"sending stage {len(self._items) + 1} of {self._num_stages}") from None
        if isinstance(item, BaseException):
            raise item
        return item

    def __len__(self) -> int:
        return self._num_stages

    def __getitem__(self, index: int) -> LinearHead:
        i = operator.index(index)
        if i < 0:
            i += self._num_stages
        if not 0 <= i < self._num_stages:
            raise IndexError(f"stage index {index} outside {self._num_stages} stages")
        while len(self._items) <= i:
            self._items.append(self._next())
        return self._items[i]

    def close(self) -> None:
        """Stop the child (if still running) and wait for it."""
        if self._process is not None:
            self._conn.close()
            self._process.terminate()
            self._process.join()
            self._process = None

    def __enter__(self) -> "StageHeads":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _stage_trace(
    stream: TaskStream, head: LinearHead, t: int, cfgs: list[ArcConfig], seed: int
) -> StageTrace:
    """Evaluate tasks 1..t as one shuffled online stream through the pipeline."""
    x = np.vstack([stream.test[i - 1].features for i in range(1, t + 1)])
    y = np.concatenate([stream.test[i - 1].labels for i in range(1, t + 1)])
    tasks = np.concatenate(
        [np.full(len(stream.test[i - 1]), i, dtype=np.int64) for i in range(1, t + 1)]
    )
    perm = substream(seed, t, EVAL_TAG).permutation(len(y))
    x, y, tasks = x[perm], y[perm], tasks[perm]
    size = cfgs[0].batch_size
    batches = [x[i : i + size] for i in range(0, len(y), size)]
    result = arc_evaluate(head, batches, t, stream.layout.step, cfgs)
    return StageTrace(t, result.records, result.final_classes, y, tasks,
                      result.retention_updates, result.warnings)


def evaluate_stages(
    stream: TaskStream, heads: Sequence[LinearHead], cfgs: Sequence[ArcConfig], seed: int
) -> Iterator[StageTrace]:
    """Run every stage of a trained sequence through the pipeline.

    ``heads`` holds each stage's trained head, as from train_sequence or
    StageHeads (stage t is evaluated as soon as head t is there), and
    ``cfgs`` is a group of configs sharing one head trajectory (see
    arc_evaluate). Each stage's online evaluation starts from that stage's
    head and its updates are discarded afterwards, so they never leak across
    stages. A stage's trace is yielded when the stage ends, so a caller that
    keeps only accuracies holds one stage's records at a time.
    """
    n = stream.layout.num_tasks
    if len(heads) != n:
        raise ValueError(f"expected one head per stage ({n}), got {len(heads)}")
    for t, head in enumerate(heads, start=1):
        stage_cfgs = [cfg.for_stage(is_final_stage=(t == n)) for cfg in cfgs]
        # a stage's arrays die with _stage_trace's frame, before the next stage
        yield _stage_trace(stream, head, t, stage_cfgs, seed)


def _accuracy_matrices(
    traces: Iterable[StageTrace], num_tasks: int, num_configs: int
) -> list[RMatrix]:
    """Pipeline accuracies, one matrix per config of the group: each trace's
    final classes against its ground truth, per task."""
    matrices = [RMatrix.empty(num_tasks) for _ in range(num_configs)]
    for trace in traces:
        correct = trace.final_classes == trace.true_labels
        for i in range(1, trace.stage + 1):
            accuracies = correct[:, trace.true_tasks == i].mean(axis=1)
            for r, accuracy in zip(matrices, accuracies):
                r.set_entry(trace.stage, i, float(accuracy))
    return matrices


def _metrics(seed: int, pipeline: str, r: RMatrix) -> MetricsReport:
    return MetricsReport(
        seed=seed,
        pipeline=pipeline,
        average_accuracy=average_accuracy(r),
        forgetting=forgetting(r) if r.num_tasks >= 2 else None,
    )


def run_stream(
    stream: TaskStream,
    train_cfg: TrainConfig,
    arc_cfg: ArcConfig,
    seed: int,
) -> RunResult:
    """Full protocol: sequential training plus paired plain / pipeline evaluation.

    Pipeline-side head updates never leak across stages (see evaluate_stages).
    Both evaluations of stage t run as soon as its head is trained.
    """
    layout = stream.layout
    n = layout.num_tasks
    r_plain = RMatrix.empty(n)
    traces: list[StageTrace] = []
    with StageHeads(stream, train_cfg, seed) as stage_heads:
        for trace in evaluate_stages(stream, stage_heads, [arc_cfg], seed):
            t = trace.stage
            for i in range(1, t + 1):
                data = stream.test[i - 1]
                preds = forward(stage_heads[t - 1], data.features).argmax(axis=1)
                r_plain.set_entry(t, i, float(np.mean(preds == data.labels)))
            traces.append(trace)
        heads = list(stage_heads)
    r_arc, = _accuracy_matrices(traces, n, 1)

    bias = task1_preds = task1_labels = None
    if n >= 2:
        data = stream.test[0]
        task1_preds = forward(heads[-1], data.features).argmax(axis=1)
        task1_labels = data.labels
        bias = bias_histogram(task1_preds, task1_labels, layout, n)

    return RunResult(
        seed=seed,
        r_with_arc=r_arc,
        r_without_arc=r_plain,
        metrics_with_arc=_metrics(seed, "arc", r_arc),
        metrics_without_arc=_metrics(seed, "baseline", r_plain),
        stage_heads=heads,
        arc_traces=traces,
        bias_histogram=bias,
        task1_predictions=task1_preds,
        task1_labels=task1_labels,
    )


def otd_validation(traces: list[StageTrace]) -> OtdValidationReport:
    """Precision and flag rates of the two detection branches vs ground truth.

    A PAST_CORRECT flag counts as true when the sample really is from a past
    task and its initial prediction matched the ground-truth label; a
    PAST_MISCLASSIFIED flag counts as true when the sample is from a past task.
    """
    flagged1 = flagged1_true = flagged2 = flagged2_true = samples = 0
    for trace in traces:
        rec = trace.records
        samples += len(rec)
        past = trace.true_tasks < trace.stage
        flag1 = rec.decision == OtdDecision.PAST_CORRECT
        flag2 = rec.decision == OtdDecision.PAST_MISCLASSIFIED
        flagged1 += int(flag1.sum())
        flagged1_true += int((flag1 & past & (rec.initial_class == trace.true_labels)).sum())
        flagged2 += int(flag2.sum())
        flagged2_true += int((flag2 & past).sum())
    return OtdValidationReport(
        assumption1_precision=flagged1_true / flagged1 if flagged1 else None,
        assumption1_rate=flagged1 / samples if samples else 0.0,
        assumption2_precision=flagged2_true / flagged2 if flagged2 else None,
        assumption2_rate=flagged2 / samples if samples else 0.0,
        flagged1=flagged1,
        flagged1_true=flagged1_true,
        flagged2=flagged2,
        flagged2_true=flagged2_true,
        samples=samples,
    )


def linear_probe_experiment(
    stream: TaskStream, train_cfg: TrainConfig, seed: int
) -> list[ProbeRow]:
    """Per-task probe heads vs the shared sequential head on past test sets.

    Probe i is a fresh step-wide head trained on task i alone (same epoch
    budget as the shared head) and scored on task i's test set. Features are
    frozen, so it is fitted once and its accuracy fills every stage t > i;
    the shared head as of stage t is scored on the same test sets. The
    widening gap is the shared classifier's bias. Probe t - 1 is fitted here
    before waiting for shared head t, so each fit overlaps the training
    child (see StageHeads).
    """
    rows: list[ProbeRow] = []
    probes: list[float] = []
    with StageHeads(stream, train_cfg, seed) as heads:
        for t in range(2, stream.layout.num_tasks + 1):
            probes.append(_probe_accuracy(stream, train_cfg, seed, t - 1))
            shared = heads[t - 1]
            for i, (probe_acc, test) in enumerate(zip(probes, stream.test), start=1):
                shared_acc = float(np.mean(forward(shared, test.features).argmax(axis=1)
                                           == test.labels))
                rows.append(ProbeRow(t, i, probe_acc, shared_acc))
    return rows


@dataclass(frozen=True)
class Variant:
    """One cell of the ablation grid over the pipeline's knobs."""

    loss: str = "both"         # retention objective: "ce" | "em" | "both"
    temperature: str = "on"    # "on" = configured value, "off" = 1.0
    w_mode: str = "ratio"      # "ratio" | "raw"
    beta: float = 0.8
    gamma: float = 0.8

    def __post_init__(self):
        if self.temperature not in ("on", "off"):
            raise ValueError(f"unknown temperature variant {self.temperature!r}")
        self.apply(ArcConfig())  # ArcConfig rejects unknown loss and w_mode names

    def key(self) -> str:
        return (
            f"loss={self.loss},temp={self.temperature},w={self.w_mode},"
            f"beta={self.beta:g},gamma={self.gamma:g}"
        )

    def apply(self, base: ArcConfig) -> ArcConfig:
        return replace(
            base,
            thresholds=Thresholds(self.beta, self.gamma),
            temperature=base.temperature if self.temperature == "on" else 1.0,
            w_mode=self.w_mode,
            retention_loss=self.loss,
        )


def ablation_grid(
    stream: TaskStream,
    train_cfg: TrainConfig,
    base_arc: ArcConfig,
    variants: list[Variant],
    seed: int,
) -> list[tuple[Variant, MetricsReport]]:
    """One pipeline MetricsReport per variant, in input order.

    Training is shared across all variants, and the pipeline runs once per
    head trajectory: variants that agree on ArcConfig.trajectory (the same
    loss and beta over one base) are evaluated as one group.
    """
    if not variants:
        return []
    n = stream.layout.num_tasks
    cfgs = [variant.apply(base_arc) for variant in variants]
    groups: dict[tuple, list[int]] = {}
    for index, cfg in enumerate(cfgs):
        groups.setdefault(tuple(cfg.trajectory().values()), []).append(index)
    reports: list[MetricsReport | None] = [None] * len(variants)
    with StageHeads(stream, train_cfg, seed) as heads:
        for members in groups.values():
            traces = evaluate_stages(stream, heads, [cfgs[i] for i in members], seed)
            for i, r in zip(members, _accuracy_matrices(traces, n, len(members))):
                reports[i] = _metrics(seed, "arc", r)
    return list(zip(variants, reports))
