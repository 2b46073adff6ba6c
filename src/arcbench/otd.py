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
    """Confidence quantities feeding the detection branches.

    ``confidence`` is the max softmax probability over all visible classes;
    ``masked_confidence`` is the same over past-task logits only and ``ratio``
    is their quotient; both are None at stage 1, where they are undefined.
    For a batch every other field is an (n,) array, one entry per sample.
    """

    predicted_class: int | np.ndarray
    confidence: float | np.ndarray
    masked_confidence: float | np.ndarray | None
    ratio: float | np.ndarray | None


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
) -> tuple:
    """Sort test samples into detection branches.

    Takes one sample's logits (s*t,) and returns its (decision, report), or
    a batch (n, s*t) and returns (decisions, report): an (n,) object array
    of decisions and one report of (n,) arrays. A past-predicted sample with
    confidence >= beta is PAST_CORRECT; a current-predicted one (t >= 2)
    whose ratio w = c / c_hat is <= gamma is PAST_MISCLASSIFIED; anything
    else is PASSTHROUGH. At t = 1 every class is current so every sample
    passes through. ``raw_confidence_w`` is an ablation switch replacing the
    ratio test with c <= gamma.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim not in (1, 2) or z.shape[-1] != s * t:
        raise ValueError(f"expected {s * t} logits per row, got shape {z.shape}")
    rows = z.reshape(-1, s * t)
    n = len(rows)
    decisions = np.full(n, OtdDecision.PASSTHROUGH, dtype=object)
    predicted, c = confidence(rows) if n else (np.empty(0, dtype=np.int64), np.empty(0))
    c_hat = w = None
    if t >= 2:
        c_hat = masked_confidence(rows, t, s) if n else np.empty(0)
        w = c / c_hat
        stat = c if raw_confidence_w else w
        past = predicted < s * (t - 1)
        decisions[past & (c >= thresholds.beta)] = OtdDecision.PAST_CORRECT
        decisions[~past & (stat <= thresholds.gamma)] = OtdDecision.PAST_MISCLASSIFIED
    if z.ndim == 2:
        return decisions, ConfidenceReport(predicted, c, c_hat, w)
    row = (None if a is None else a[0].item() for a in (predicted, c, c_hat, w))
    return decisions[0], ConfidenceReport(*row)
