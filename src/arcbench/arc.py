"""Test-time retention and correction over an online stream of batches.

Flagged past-task samples drive a single classifier gradient update per batch
(retention); suspected misclassifications into the current task are relabeled
through per-task softmax scores (correction). The evaluation loop visits each
batch exactly once and never revisits a sample.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .core import LOSSES, LinearHead, forward, loss_gradient, sgd_step, softmax
from .otd import (RECORD_DTYPE, W_MODES, OtdDecision, check_thresholds, classify_sample,
                  logits_stage, misclassified)


@dataclass(frozen=True)
class ArcConfig:
    """Settings for the test-time pipeline, one field per ``arc.*`` key.

    ``beta`` gates retention and ``gamma`` gates correction (see
    otd.classify_sample). ``temperature`` flattens earlier tasks' score
    prefixes; 1.0 disables the scaling (ablation mode), the standard setting
    is > 1. ``arc_last`` restricts retention/correction to the final stage.
    """

    beta: float = 0.8
    gamma: float = 0.8
    temperature: float = 2.0
    lr: float = 0.1
    retention: bool = True
    correction: bool = True
    batch_size: int = 64
    arc_last: bool = False
    w_mode: str = "ratio"
    retention_loss: str = "both"

    def __post_init__(self):
        check_thresholds(self.beta, self.gamma)
        if not self.temperature >= 1.0:
            raise ValueError(f"temperature must be >= 1, got {self.temperature}")
        if not 0 < self.lr < np.inf:
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.w_mode not in W_MODES:
            raise ValueError(f"w_mode must be one of {W_MODES}, got {self.w_mode!r}")
        if self.retention_loss not in LOSSES:
            raise ValueError(f"retention_loss must be one of {LOSSES}, got {self.retention_loss!r}")

    def trajectory(self) -> dict:
        """The fields, by name, that decide how the head moves over a stage's stream.

        Retention alone moves the head, on the rows with c >= beta, and
        arc_last decides at which stages it runs; gamma, w_mode, temperature
        and correction never feed back into it.
        """
        return {name: getattr(self, name)
                for name in ("beta", "retention_loss", "lr", "batch_size", "retention", "arc_last")}

    def for_stage(self, is_final_stage: bool) -> "ArcConfig":
        """Stage-effective config: with arc_last, only the final stage adapts."""
        if not self.arc_last or is_final_stage:
            return self
        return replace(self, retention=False, correction=False)


def tss(z: np.ndarray, s: int, temperature: float) -> np.ndarray:
    """Per-task softmax scores S_1..S_t, shape (n, t), for a batch of logits (n, s*t).

    The score for task i is the max softmax probability over task i's class
    block, with the softmax taken over only the first s*i logits after
    dividing them by temperature**(t - i). Later tasks' logits never enter
    earlier tasks' scores.
    """
    z, t = logits_stage(z, s)
    if not temperature >= 1.0:
        raise ValueError(f"temperature must be >= 1, got {temperature}")
    scores = np.empty((len(z), t))
    for i in range(1, t + 1):
        try:
            scale = float(temperature) ** (t - i)
        except OverflowError:  # beyond float range: the T -> inf limit, a flat prefix
            scale = np.inf
        p = softmax(z[:, : s * i] / scale)
        scores[:, i - 1] = np.max(p[:, s * (i - 1) :], axis=-1)
    return scores


def adaptive_correction(z: np.ndarray, s: int, temperature: float) -> tuple:
    """Reassign suspected misclassifications to their most plausible task.

    Takes a batch of logits (n, s*t) and returns (chosen task, corrected
    class, scores): two (n,) arrays and the (n, t) ``tss`` scores. The chosen
    task is the argmax of the per-task scores (lowest index on ties) and the
    corrected class is the raw-logit argmax inside that task's class range.
    """
    scores = tss(z, s, temperature)
    task = np.argmax(scores, axis=1)
    n, t = scores.shape
    blocks = np.asarray(z, dtype=np.float64).reshape(n, t, s)
    cls = s * task + np.argmax(blocks[np.arange(n), task], axis=1)
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

    dw, db = loss_gradient(z, x, pseudo_labels, cfg.retention_loss)
    try:
        with np.errstate(over="raise", invalid="raise"):
            updated = sgd_step(head, dw, db, cfg.lr)
            z = forward(updated, x)
            softmax(z)  # the next batch's detection needs logits its softmax can take
    except (ValueError, FloatingPointError):  # non-finite gradient, overflow
        return head, pseudo_labels, False
    return updated, z.argmax(axis=1), True


def _suspects(table: np.ndarray, t: int, s: int, gammas: dict) -> np.ndarray:
    """Rows of a record table that ``misclassified`` flags under any {w_mode: gamma}."""
    mask = np.zeros(len(table), bool)
    for w_mode, gamma in gammas.items():
        mask |= misclassified(table, t, s, gamma, w_mode)
    return mask


@dataclass
class ArcEvalResult:
    records: np.recarray  # RECORD_DTYPE for the group's first config, in stream order
    final_classes: np.ndarray  # (configs, samples): each config's final class per sample
    retention_updates: int
    warnings: list[str]


def arc_evaluate(
    head: LinearHead,
    batches: Iterable[np.ndarray],
    s: int,
    cfgs: Sequence[ArcConfig],
) -> ArcEvalResult:
    """Run the full test-time loop for a group of configs over one ordered stream.

    The configs must agree on every field of ``ArcConfig.trajectory``, so one
    head trajectory serves them all. For each batch: classify all its samples
    in one call against the head as of the batch's arrival, which writes
    their records; if retention is enabled, the PAST_CORRECT subset feeds
    exactly one gradient update and those samples are re-predicted with the
    updated head, which sets their final_class and retention_applied.
    Updates only ever affect later batches. Correction never moves the head,
    so it runs once the stream ends: each correcting config's
    PAST_MISCLASSIFIED rows (``otd.misclassified`` under its own gamma and
    w_mode) are relabeled from their arrival logits, with one
    adaptive_correction call per distinct temperature over the group's
    suspects. ``records`` is the first config's table.
    """
    if not cfgs:
        raise ValueError("arc_evaluate needs at least one config")
    first = cfgs[0]
    for cfg in cfgs[1:]:
        for (name, a), b in zip(first.trajectory().items(), cfg.trajectory().values()):
            if a != b:
                raise ValueError(f"configs of one group must agree on {name}: {a!r} vs {b!r}")
    t, extra = divmod(head.num_classes, s)  # a head of s * t classes serves stage t
    if extra or not t:
        raise ValueError(f"head width {head.num_classes} is not a positive multiple of {s}")

    # a current-predicted row is some config's suspect iff its statistic is at
    # most the largest gamma of that w_mode (otd flags nothing at t = 1)
    correcting = [cfg for cfg in cfgs if cfg.correction]
    max_gamma = {mode: max(cfg.gamma for cfg in correcting if cfg.w_mode == mode)
                 for mode in {cfg.w_mode for cfg in correcting}}
    tables: list[np.ndarray] = []
    suspect_logits: list[np.ndarray] = []
    warnings: list[str] = []
    updates = 0
    for batch_index, x in enumerate(batches):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != head.dim:
            raise ValueError(f"batch {batch_index} shape {x.shape} incompatible with head")
        z = forward(head, x)
        table = classify_sample(z, s, first.beta, first.gamma, first.w_mode)
        flagged = table["decision"] == OtdDecision.PAST_CORRECT
        if first.retention and flagged.any():
            head2, repreds, ok = adaptive_retention(head, x[flagged], z[flagged], first)
            if ok:
                head = head2
                updates += 1
                table["final_class"][flagged] = repreds
                table["retention_applied"][flagged] = True
            else:
                warnings.append(f"batch {batch_index}: non-finite retention gradient or "
                                "update, step skipped")
        suspect_logits.append(z[_suspects(table, t, s, max_gamma)])
        tables.append(table)

    records = (np.concatenate(tables) if tables else np.zeros(0, RECORD_DTYPE)).view(np.recarray)
    final = np.repeat(records.final_class[None, :], len(cfgs), axis=0)
    union = _suspects(records, t, s, max_gamma)
    if union.any():
        z = np.concatenate(suspect_logits)
        suspect_logits.clear()  # the rows live on in z alone; this lowers the stage's peak
        corrected = {temperature: adaptive_correction(z, s, temperature)[1]
                     for temperature in dict.fromkeys(cfg.temperature for cfg in correcting)}
        for v, cfg in enumerate(cfgs):
            if cfg.correction:
                mine = misclassified(records, t, s, cfg.gamma, cfg.w_mode)
                final[v, mine] = corrected[cfg.temperature][mine[union]]
    records.final_class = final[0]
    return ArcEvalResult(records, final, updates, warnings)
