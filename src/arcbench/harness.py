"""Experiment orchestration over a task stream.

A run trains the shared head sequentially (task by task, optionally with a
small replay reservoir) and evaluates every seen test set twice after each
stage: plain argmax and the full test-time pipeline. Stage t is evaluated
from head t alone, so every experiment is one map_stages call (which on
Linux with a second CPU trains in a forked child and shares the stages
between the two processes) and then assembles the per-stage results; probe
t is fitted in stage t's work. Accuracies land in two lower-triangular
matrices from which the summary metrics derive. Harness
RNG substreams are keyed (seed, stage, tag[, extra]) with the tags below;
probe keys use stage 0, which belongs to no stage.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .arc import ArcConfig, arc_evaluate
from .core import LinearHead, TaskLayout, TrainConfig, expand_head, fit_task, forward, new_head
from .data import TaskData, TaskStream
from .otd import OtdDecision
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

    def set_row(self, stage: int, accuracies) -> None:
        """Entries (stage, 1), (stage, 2), ... from accuracies, in task order."""
        for task, accuracy in enumerate(accuracies, start=1):
            self.set_entry(stage, task, float(accuracy))

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
    each stage. map_stages trains the same heads, in a child process where it can."""
    return list(_train_stages(stream, train_cfg, seed))


def _plain_accuracy(head: LinearHead, data: TaskData, base: int = 0) -> tuple[float, np.ndarray]:
    """Plain argmax over one labeled set, no pipeline: (accuracy, predicted
    classes). A head whose class c is global class base + c scores against
    labels - base."""
    predicted = forward(head, data.features).argmax(axis=1)
    return float(np.mean(predicted == data.labels - base)), predicted


def _probe_accuracy(stream: TaskStream, train_cfg: TrainConfig, seed: int, task: int) -> float:
    """Fit a fresh step-wide head on one task alone (same epoch budget as the
    shared head) and score it on that task's test set. Stage 0 in its key
    belongs to no stage, so no training, eval or data substream shares it."""
    layout = stream.layout
    train = stream.train[task - 1]
    base = layout.step * (task - 1)
    probe = fit_task(new_head(stream.dim, layout.step), train.features,
                     train.labels - base, train_cfg, seed=(seed, 0, PROBE_TAG, task))
    return _plain_accuracy(probe, stream.test[task - 1], base)[0]


def trains_in_child() -> bool:
    """Whether map_stages trains, and evaluates the last stages, in a forked
    child: on Linux, when this process may run on a second CPU. With one CPU
    the processes could only take turns, so the work stays in this process."""
    return sys.platform.startswith("linux") and len(os.sched_getaffinity(0)) > 1


def _drain(conn, inbox) -> None:
    """map_stages' reader thread: moves each item the child sends into inbox as
    it arrives, so the child never blocks on a full pipe. None marks the end
    of the pipe: the child has exited."""
    try:
        while True:
            inbox.put(conn.recv())
    except EOFError:
        inbox.put(None)
    except Exception as exc:  # an item that cannot be read: the caller raises it
        inbox.put(exc)


def _claim(claims, t: int) -> bool:
    """Claim stage t for the calling process, unless it is already claimed."""
    with claims.get_lock():
        if claims[t - 1]:
            return False
        claims[t - 1] = 1
        return True


def _child(conn, trained: Iterator[LinearHead], claims, work) -> None:
    """The child's side: every head, then stages from the top down while they
    are unclaimed, each result dropped once sent; or the error."""
    try:
        heads = []
        for head in trained:
            conn.send(head)
            heads.append(head)
        for t in range(len(heads), 0, -1):
            if not _claim(claims, t):
                break
            conn.send((t, work(t, heads[t - 1])))
    except Exception as exc:
        conn.send(exc)


def map_stages(stream: TaskStream, train_cfg: TrainConfig, seed: int,
               work: Callable[[int, LinearHead], object]) -> tuple[list[LinearHead], list]:
    """(heads, results): head t is the shared head trained through stage t, as
    from train_sequence, and result t is work(t, head t), both in stage order.

    Where trains_in_child(), a child started by fork (it inherits the stream,
    the configs and work) trains and sends every head, then claims stages n,
    n - 1, ... until one is already claimed and sends their results, which
    must pickle. This process claims stages 1, 2, ... and does the work of
    each one it claims once its head arrives. A claim is a flag set under the
    lock of a shared table, so each stage is done once. A thread here empties
    the pipe as items arrive, so the child never waits on this process.
    Elsewhere all of it runs here, each head trained when its stage is reached.

    An error raised in the child is re-raised here with its type and message,
    and a child that exits without reporting raises ChildProcessError naming
    the training child, its exit code and the stage it did not send. Either
    way, and on success, the child and the thread are stopped and joined
    before this returns.
    """
    n = stream.layout.num_tasks
    trained = _train_stages(stream, train_cfg, seed)
    heads: list[LinearHead] = []
    if not trains_in_child():
        results = []
        for t in range(1, n + 1):
            heads.append(next(trained))
            results.append(work(t, heads[-1]))
        return heads, results
    # imported here, so that start-up before training does not pay for them
    import multiprocessing
    import queue
    import threading

    ctx = multiprocessing.get_context("fork")
    claims = ctx.Array("b", n)  # stage t's flag at t - 1
    conn, child_conn = ctx.Pipe(duplex=False)
    process = ctx.Process(target=_child, args=(child_conn, trained, claims, work), daemon=True)
    process.start()
    child_conn.close()
    inbox = queue.SimpleQueue()
    reader = threading.Thread(target=_drain, args=(conn, inbox), daemon=True)
    reader.start()
    done: dict[int, object] = {}
    try:
        for t in range(1, n + 1):
            mine = _claim(claims, t)  # if not, the child claimed t and every later stage
            while (len(heads) < t) if mine else (t not in done):
                item = inbox.get()  # the child's next item
                if item is None:
                    process.join()
                    raise ChildProcessError(f"training child exited with code "
                                            f"{process.exitcode} before sending stage {t} of {n}")
                if isinstance(item, BaseException):
                    raise item
                if isinstance(item, LinearHead):
                    heads.append(item)
                else:
                    done[item[0]] = item[1]
            if mine:
                done[t] = work(t, heads[t - 1])
    finally:
        process.terminate()
        process.join()
        reader.join()  # the pipe ends with the child
        conn.close()
    return heads, [done[t] for t in range(1, n + 1)]


def _stage_trace(
    stream: TaskStream, head: LinearHead, t: int, cfgs: list[ArcConfig], seed: int
) -> StageTrace:
    """Evaluate tasks 1..t as one shuffled online stream through the pipeline.

    ``cfgs`` is a group of configs sharing one head trajectory (see
    arc_evaluate). The evaluation starts from head t and its updates are
    discarded with it, so they never leak across stages.
    """
    cfgs = [cfg.for_stage(is_final_stage=(t == stream.layout.num_tasks)) for cfg in cfgs]
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


def _task_accuracies(trace: StageTrace) -> np.ndarray:
    """Pipeline accuracies of a trace, one row per config of its group and one
    column per task 1..t: final classes against the ground truth."""
    correct = trace.final_classes == trace.true_labels
    return np.stack([correct[:, trace.true_tasks == i].mean(axis=1)
                     for i in range(1, trace.stage + 1)], axis=1)


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

    Each stage's plain accuracies and pipeline trace come from its own head
    (see map_stages), so pipeline-side head updates never leak across stages.
    The bias histogram reads the final stage's plain predictions on task 1.
    """
    layout = stream.layout
    n = layout.num_tasks

    def evaluate(t: int, head: LinearHead):
        plain = [_plain_accuracy(head, test) for test in stream.test[:t]]
        task1_preds = plain[0][1] if n >= 2 and t == n else None
        return (_stage_trace(stream, head, t, [arc_cfg], seed),
                [accuracy for accuracy, _ in plain], task1_preds)

    heads, stages = map_stages(stream, train_cfg, seed, evaluate)
    r_arc, r_plain = RMatrix.empty(n), RMatrix.empty(n)
    for t, (trace, plain, _) in enumerate(stages, start=1):
        r_arc.set_row(t, _task_accuracies(trace)[0])
        r_plain.set_row(t, plain)
    task1_preds = stages[-1][2]
    bias = task1_labels = None
    if task1_preds is not None:
        task1_labels = stream.test[0].labels
        bias = bias_histogram(task1_preds, task1_labels, layout, n)

    return RunResult(
        seed=seed,
        r_with_arc=r_arc,
        r_without_arc=r_plain,
        metrics_with_arc=_metrics(seed, "arc", r_arc),
        metrics_without_arc=_metrics(seed, "baseline", r_plain),
        stage_heads=heads,
        arc_traces=[trace for trace, _, _ in stages],
        bias_histogram=bias,
        task1_predictions=task1_preds,
        task1_labels=task1_labels,
    )


def pipeline_traces(
    stream: TaskStream, train_cfg: TrainConfig, cfgs: list[ArcConfig], seed: int
) -> list[list[StageTrace]]:
    """Every stage's pipeline trace for each config, from one training run:
    list c is run_stream's arc_traces for cfgs[c]. Each config is evaluated
    on its own, so each keeps its own record table."""
    def evaluate(t: int, head: LinearHead) -> list[StageTrace]:
        return [_stage_trace(stream, head, t, [cfg], seed) for cfg in cfgs]

    _, per_stage = map_stages(stream, train_cfg, seed, evaluate)
    return [list(traces) for traces in zip(*per_stage)]


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
    widening gap is the shared classifier's bias. Probe t is fitted in stage
    t's work (see map_stages), beside the shared head's scores; the final
    stage fits none.
    """
    n = stream.layout.num_tasks

    def scores(t: int, head: LinearHead) -> tuple[list[float], float | None]:
        shared = [_plain_accuracy(head, test)[0] for test in stream.test[:t - 1]]
        return shared, _probe_accuracy(stream, train_cfg, seed, t) if t < n else None

    _, stages = map_stages(stream, train_cfg, seed, scores)
    probes = [probe for _, probe in stages]
    return [ProbeRow(t, i, probes[i - 1], shared_acc)
            for t, (shared, _) in enumerate(stages, start=1)
            for i, shared_acc in enumerate(shared, start=1)]


def ablation_grid(
    stream: TaskStream,
    train_cfg: TrainConfig,
    cfgs: list[ArcConfig],
    seed: int,
) -> list[MetricsReport]:
    """One pipeline MetricsReport per config, in input order.

    Training is shared across all configs, and each stage's pipeline runs
    once per head trajectory: configs that agree on ArcConfig.trajectory are
    evaluated as one group.
    """
    if not cfgs:
        return []
    n = stream.layout.num_tasks
    groups: dict[tuple, list[int]] = {}
    for index, cfg in enumerate(cfgs):
        groups.setdefault(tuple(cfg.trajectory().values()), []).append(index)
    members = list(groups.values())

    def evaluate(t: int, head: LinearHead) -> list[np.ndarray]:
        return [_task_accuracies(_stage_trace(stream, head, t, [cfgs[i] for i in group], seed))
                for group in members]

    _, stages = map_stages(stream, train_cfg, seed, evaluate)
    matrices = [RMatrix.empty(n) for _ in cfgs]
    for t, per_group in enumerate(stages, start=1):
        for group, accuracies in zip(members, per_group):
            for i, row in zip(group, accuracies):
                matrices[i].set_row(t, row)
    return [_metrics(seed, "arc", r) for r in matrices]
