"""Test-time retention and correction over an online stream of batches.

Flagged past-task samples drive a single classifier gradient update per batch
(retention); suspected misclassifications into the current task are relabeled
through per-task softmax scores (correction). The evaluation loop visits each
batch exactly once and never revisits a sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from .core import LinearHead, forward, loss_gradient, sgd_step, softmax
from .otd import OtdDecision, Thresholds, classify_sample

W_MODES = ("ratio", "raw")
RETENTION_LOSSES = ("both", "ce", "em")

# one row per test sample; the two float columns are NaN at stage 1, where
# they are undefined
RECORD_DTYPE = np.dtype([
    ("initial_class", np.int64),
    ("final_class", np.int64),
    ("decision", object),
    ("retention_applied", bool),
    ("confidence", np.float64),
    ("masked_confidence", np.float64),
    ("ratio", np.float64),
])


@dataclass(frozen=True)
class ArcConfig:
    """Settings for the test-time pipeline.

    ``temperature`` flattens earlier tasks' score prefixes; 1.0 disables the
    scaling (ablation mode), the standard setting is > 1. ``arc_last``
    restricts retention/correction to the final stage.
    """

    thresholds: Thresholds = field(default_factory=Thresholds)
    temperature: float = 2.0
    lr: float = 0.1
    retention_enabled: bool = True
    correction_enabled: bool = True
    batch_size: int = 64
    arc_last: bool = False
    w_mode: str = "ratio"
    retention_loss: str = "both"

    def __post_init__(self):
        if not self.temperature >= 1.0:
            raise ValueError(f"temperature must be >= 1, got {self.temperature}")
        if not 0 < self.lr < np.inf:
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.w_mode not in W_MODES:
            raise ValueError(f"w_mode must be one of {W_MODES}, got {self.w_mode!r}")
        if self.retention_loss not in RETENTION_LOSSES:
            raise ValueError(
                f"retention_loss must be one of {RETENTION_LOSSES}, got {self.retention_loss!r}"
            )

    def trajectory(self) -> dict:
        """The fields, by name, that decide how the head moves over a stream.

        Retention alone moves the head, on the rows with c >= beta; gamma,
        w_mode, temperature and correction never feed back into it.
        """
        return {"thresholds.beta": self.thresholds.beta, "retention_loss": self.retention_loss,
                "lr": self.lr, "batch_size": self.batch_size,
                "retention_enabled": self.retention_enabled}

    def for_stage(self, is_final_stage: bool) -> "ArcConfig":
        """Stage-effective config: with arc_last, only the final stage adapts."""
        if not self.arc_last or is_final_stage:
            return self
        return replace(self, retention_enabled=False, correction_enabled=False)


def tss(z: np.ndarray, t: int, s: int, temperature: float) -> np.ndarray:
    """Per-task softmax scores S_1..S_t for logits (s*t,) or a batch (..., s*t).

    The score for task i is the max softmax probability over task i's class
    block, with the softmax taken over only the first s*i logits after
    dividing them by temperature**(t - i). Later tasks' logits never enter
    earlier tasks' scores. The result has shape (..., t).
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim < 1 or z.shape[-1] != s * t:
        raise ValueError(f"expected {s * t} logits per row, got shape {z.shape}")
    if not temperature >= 1.0:
        raise ValueError(f"temperature must be >= 1, got {temperature}")
    scores = np.empty(z.shape[:-1] + (t,))
    for i in range(1, t + 1):
        p = softmax(z[..., : s * i] / temperature ** (t - i))
        scores[..., i - 1] = np.max(p[..., s * (i - 1) :], axis=-1)
    return scores


def adaptive_correction(z: np.ndarray, t: int, s: int, temperature: float) -> tuple:
    """Reassign suspected misclassifications to their most plausible task.

    Takes logits (s*t,) or a batch (..., s*t) and returns (chosen task,
    corrected class, scores), with the leading shape of ``z``. The chosen
    task is the argmax of the per-task scores (lowest index on ties) and the
    corrected class is the raw-logit argmax inside that task's class range.
    """
    scores = tss(z, t, s, temperature)
    task = np.argmax(scores, axis=-1)
    blocks = np.asarray(z, dtype=np.float64).reshape(scores.shape[:-1] + (t, s))
    chosen = np.take_along_axis(blocks, task[..., None, None], axis=-2)
    cls = s * task + np.argmax(chosen[..., 0, :], axis=-1)
    return task + 1, cls, scores


def adaptive_retention(
    head: LinearHead,
    features: np.ndarray,
    logits: np.ndarray,
    cfg: ArcConfig,
) -> tuple[LinearHead, np.ndarray, bool]:
    """One mean-gradient SGD update of the head on a batch of flagged samples.

    ``logits`` are the head's logits for ``features``, one row each. The
    pseudo-label of each sample is its own predicted class, the logits'
    argmax; only the classifier moves, never the features. Returns the
    (possibly) updated head, argmax predictions for the batch under the
    returned head, and whether the step was applied. A non-finite gradient,
    or a step after which the head's logits for the batch overflow or leave
    softmax's range, is skipped and keeps the head.
    """
    x = np.asarray(features, dtype=np.float64)
    z = np.asarray(logits, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != head.dim:
        raise ValueError(f"features shape {x.shape} incompatible with head dim {head.dim}")
    if z.shape != (x.shape[0], head.num_classes):
        raise ValueError(f"logits shape {z.shape} incompatible with features {x.shape}")
    pseudo_labels = z.argmax(axis=1)
    if x.shape[0] == 0:
        return head, pseudo_labels, False

    include_ce = cfg.retention_loss in ("both", "ce")
    include_em = cfg.retention_loss in ("both", "em")
    dw, db, _ = loss_gradient(z, x, pseudo_labels, include_ce, include_em)
    try:
        with np.errstate(over="raise", invalid="raise"):
            updated = sgd_step(head, dw, db, cfg.lr)
            z = forward(updated, x)
            softmax(z)  # the next batch's detection needs logits its softmax can take
    except (ValueError, FloatingPointError):  # non-finite gradient, overflow
        return head, pseudo_labels, False
    return updated, z.argmax(axis=1), True


def _suspects(table: np.ndarray, t: int, s: int, raw: float = -np.inf,
              ratio: float = -np.inf) -> np.ndarray:
    """Current-predicted rows of a record table (t >= 2) with c <= ``raw`` or w <= ``ratio``.

    A config's PAST_MISCLASSIFIED rows are this mask with its gamma under its w_mode.
    """
    current = table["initial_class"] >= s * (t - 1)
    return current & ((table["confidence"] <= raw) | (table["ratio"] <= ratio))


@dataclass
class ArcEvalResult:
    records: np.recarray  # RECORD_DTYPE for the group's first config, in stream order
    final_classes: np.ndarray  # (configs, samples): each config's final class per sample
    head: LinearHead
    retention_updates: int
    warnings: list[str]


def arc_evaluate(
    head: LinearHead,
    batches: Iterable[np.ndarray],
    t: int,
    s: int,
    cfgs: Sequence[ArcConfig],
) -> ArcEvalResult:
    """Run the full test-time loop for a group of configs over one ordered stream.

    The configs must agree on every field of ``ArcConfig.trajectory``, so one
    head trajectory serves them all. For each batch: classify all its samples
    in one call against the head as of the batch's arrival; if retention is
    enabled, the PAST_CORRECT subset feeds exactly one gradient update and
    those samples are re-predicted with the updated head. Updates only ever
    affect later batches. Correction never moves the head, so it runs once the
    stream ends: each correcting config's PAST_MISCLASSIFIED rows (under its own
    gamma and w_mode) are relabeled from their arrival logits, with one
    adaptive_correction call per distinct temperature over the group's suspects.
    ``records`` is the first config's table.
    """
    if not cfgs:
        raise ValueError("arc_evaluate needs at least one config")
    first = cfgs[0]
    for cfg in cfgs[1:]:
        for (name, a), b in zip(first.trajectory().items(), cfg.trajectory().values()):
            if a != b:
                raise ValueError(f"configs of one group must agree on {name}: {a!r} vs {b!r}")
    if head.visible_tasks != t:
        raise ValueError(f"head sees {head.visible_tasks} tasks, expected {t}")
    if head.num_classes != s * t:
        raise ValueError("head width inconsistent with s * t")

    # nothing is suspect at t = 1; later, a current-predicted row is some config's
    # suspect iff its statistic is at most the largest gamma of that w_mode
    correcting = [cfg for cfg in cfgs if cfg.correction_enabled] if t >= 2 else []
    max_gamma = {mode: max((cfg.thresholds.gamma for cfg in correcting if cfg.w_mode == mode),
                           default=-np.inf) for mode in W_MODES}
    tables: list[np.ndarray] = []
    suspect_logits: list[np.ndarray] = []
    warnings: list[str] = []
    updates = 0
    for batch_index, x in enumerate(batches):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != head.dim:
            raise ValueError(f"batch {batch_index} shape {x.shape} incompatible with head")
        z = forward(head, x)
        decisions, report = classify_sample(z, t, s, first.thresholds, first.w_mode == "raw")
        table = np.zeros(len(x), RECORD_DTYPE)
        table["initial_class"] = table["final_class"] = report.predicted_class
        table["decision"] = decisions
        table["confidence"] = report.confidence
        if t >= 2:
            table["masked_confidence"] = report.masked_confidence
            table["ratio"] = report.ratio
        else:
            table["masked_confidence"] = table["ratio"] = np.nan

        flagged = decisions == OtdDecision.PAST_CORRECT
        if first.retention_enabled and flagged.any():
            head2, repreds, ok = adaptive_retention(head, x[flagged], z[flagged], first)
            if ok:
                head = head2
                updates += 1
                table["final_class"][flagged] = repreds
                table["retention_applied"][flagged] = True
            else:
                warnings.append(f"batch {batch_index}: non-finite retention gradient or "
                                "update, step skipped")
        suspect_logits.append(z[_suspects(table, t, s, **max_gamma)])
        tables.append(table)

    records = (np.concatenate(tables) if tables else np.zeros(0, RECORD_DTYPE)).view(np.recarray)
    final = np.repeat(records.final_class[None, :], len(cfgs), axis=0)
    union = _suspects(records, t, s, **max_gamma)
    if union.any():
        z = np.concatenate(suspect_logits)
        suspect_logits.clear()  # the rows live on in z alone; this lowers the stage's peak
        corrected = {temperature: adaptive_correction(z, t, s, temperature)[1]
                     for temperature in dict.fromkeys(cfg.temperature for cfg in correcting)}
        for v, cfg in enumerate(cfgs):
            if cfg.correction_enabled:
                mine = _suspects(records, t, s, **{cfg.w_mode: cfg.thresholds.gamma})
                final[v, mine] = corrected[cfg.temperature][mine[union]]
    records.final_class = final[0]
    return ArcEvalResult(records, final, head, updates, warnings)
