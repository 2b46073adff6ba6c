"""Out-of-task detection from the head's own confidence quantities.

At stage t with step s, a test sample predicted into a past task's class
range with high max-softmax confidence is taken to be a correctly classified
past-task sample; one predicted into the current task's range whose
confidence is low relative to its confidence over past classes alone is
taken to be a misclassified past-task sample. Everything else passes through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import softmax


class OtdDecision(Enum):
    PAST_CORRECT = "past_correct"
    PAST_MISCLASSIFIED = "past_misclassified"
    PASSTHROUGH = "passthrough"


@dataclass(frozen=True)
class Thresholds:
    """Detection thresholds: beta gates retention, gamma gates correction.

    beta = 0 flags every past-predicted sample; gamma = inf flags every
    current-predicted one (both are useful diagnostic extremes).
    """

    beta: float = 0.8
    gamma: float = 0.8

    def __post_init__(self):
        if math.isnan(self.beta) or not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")
        if math.isnan(self.gamma) or self.gamma < 0.0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")


@dataclass(frozen=True)
class ConfidenceReport:
    """Per-sample confidence quantities feeding the detection branches.

    ``confidence`` is the max softmax probability over all visible classes;
    ``masked_confidence`` is the same over past-task logits only (undefined at
    stage 1), and ``ratio`` is their quotient.
    """

    predicted_class: int
    confidence: float
    masked_confidence: float | None
    ratio: float | None


def confidence(z: np.ndarray) -> tuple:
    """Predicted class (argmax, lowest index on ties) and its softmax probability.

    Takes logits (K,) or a batch (n, K); a batch gives (n,) arrays.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim not in (1, 2):
        raise ValueError(f"confidence expects logits (K,) or (n, K), got shape {z.shape}")
    rows = z.reshape(-1, z.shape[-1])
    p = softmax(rows)  # rejects empty / non-finite input
    k = rows.argmax(axis=-1)
    c = p[np.arange(len(k)), k]
    return (int(k[0]), float(c[0])) if z.ndim == 1 else (k, c)


def masked_confidence(z: np.ndarray, t: int, s: int):
    """Max softmax probability over the first s*(t-1) logits only.

    Takes logits (s*t,) or a batch (n, s*t); a batch gives an (n,) array.
    """
    z = np.asarray(z, dtype=np.float64)
    if t < 2:
        raise ValueError("masked confidence is undefined at the first task")
    if z.ndim not in (1, 2) or z.shape[-1] != s * t:
        raise ValueError(f"expected {s * t} logits per row, got shape {z.shape}")
    c_hat = np.max(softmax(z[..., : s * (t - 1)]), axis=-1)
    return float(c_hat) if z.ndim == 1 else c_hat


def classify_sample(
    z: np.ndarray,
    t: int,
    s: int,
    thresholds: Thresholds,
    raw_confidence_w: bool = False,
) -> tuple[OtdDecision, ConfidenceReport] | list[tuple[OtdDecision, ConfidenceReport]]:
    """Sort test samples into detection branches.

    Takes one sample's logits (s*t,) and returns its (decision, report), or
    a batch (n, s*t) and returns the list of per-row pairs. A past-predicted
    sample with confidence >= beta is PAST_CORRECT; a current-predicted one
    (t >= 2) whose ratio w = c / c_hat is <= gamma is PAST_MISCLASSIFIED;
    anything else is PASSTHROUGH. At t = 1 every class is current so every
    sample passes through. ``raw_confidence_w`` is an ablation switch
    replacing the ratio test with c <= gamma.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim not in (1, 2) or z.shape[-1] != s * t:
        raise ValueError(f"expected {s * t} logits per row, got shape {z.shape}")
    rows = z.reshape(-1, s * t)
    if len(rows) == 0:
        return []
    predicted, c = confidence(rows)
    decisions = np.full(len(rows), OtdDecision.PASSTHROUGH, dtype=object)
    if t == 1:
        c_hat = w = [None] * len(rows)
    else:
        c_hat = masked_confidence(rows, t, s)
        w = c / c_hat
        stat = c if raw_confidence_w else w
        past = predicted < s * (t - 1)
        decisions[past & (c >= thresholds.beta)] = OtdDecision.PAST_CORRECT
        decisions[~past & (stat <= thresholds.gamma)] = OtdDecision.PAST_MISCLASSIFIED
        c_hat, w = c_hat.tolist(), w.tolist()
    pairs = [
        (d, ConfidenceReport(k, ck, hk, wk))
        for d, k, ck, hk, wk in zip(decisions.tolist(), predicted.tolist(), c.tolist(), c_hat, w)
    ]
    return pairs if z.ndim == 2 else pairs[0]
