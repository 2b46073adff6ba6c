"""Out-of-task detection from the head's own confidence quantities.

At stage t with step s, a test sample predicted into a past task's class
range with max-softmax confidence at least beta is taken to be a correctly
classified past-task sample; one predicted into the current task's range
whose confidence relative to its confidence over past classes alone is at
most gamma is taken to be a misclassified past-task sample. Everything else
passes through. beta and gamma are ArcConfig fields, passed here as floats.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .core import softmax

W_MODES = ("ratio", "raw")  # the statistic misclassified compares with gamma


class OtdDecision(Enum):
    PAST_CORRECT = "past_correct"
    PAST_MISCLASSIFIED = "past_misclassified"
    PASSTHROUGH = "passthrough"


def check_thresholds(beta: float, gamma: float) -> None:
    """Reject a beta outside [0, 1] or a negative gamma; NaN is neither.

    beta gates retention and gamma gates correction. beta = 0 flags every
    past-predicted sample and gamma = inf every current-predicted one (both
    are useful diagnostic extremes).
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    if not gamma >= 0.0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")


# one row per test sample, written by classify_sample; the pipeline sets
# final_class and retention_applied. The two float columns are NaN at stage 1,
# where they are undefined
RECORD_DTYPE = np.dtype([
    ("initial_class", np.int64),
    ("final_class", np.int64),
    ("decision", object),
    ("retention_applied", bool),
    ("confidence", np.float64),
    ("masked_confidence", np.float64),
    ("ratio", np.float64),
])


def confidence(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predicted class (argmax, lowest index on ties) and its softmax probability.

    Takes a batch of logits (n, K) and gives two (n,) arrays.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2:
        raise ValueError(f"confidence expects logits (n, K), got shape {z.shape}")
    p = softmax(z)  # rejects empty / non-finite input
    k = z.argmax(axis=-1)
    return k, p[np.arange(len(k)), k]


def logits_stage(z: np.ndarray, s: int) -> tuple[np.ndarray, int]:
    """Logits (n, s*t) as float64 and the stage t their width names; any other shape raises."""
    z = np.asarray(z, dtype=np.float64)
    t, extra = divmod(z.shape[1], s) if z.ndim == 2 else (0, 0)
    if extra or not t:
        raise ValueError(f"expected logits (n, s*t) for step s = {s}, got shape {z.shape}")
    return z, t


def masked_confidence(z: np.ndarray, s: int) -> np.ndarray:
    """Max softmax probability over the first s*(t-1) logits of each row of (n, s*t)."""
    z, t = logits_stage(z, s)
    if t < 2:
        raise ValueError("masked confidence is undefined at the first task")
    return np.max(softmax(z[:, : s * (t - 1)]), axis=-1)


def misclassified(records: np.ndarray, t: int, s: int, gamma: float,
                  w_mode: str = "ratio") -> np.ndarray:
    """The PAST_MISCLASSIFIED rows of a detection table under (gamma, w_mode).

    A row is one at t >= 2 when it is predicted into the current task and its
    statistic, the ratio w (``w_mode="ratio"``) or the confidence c
    (``"raw"``, an ablation switch), is <= gamma.
    """
    if w_mode not in W_MODES:
        raise ValueError(f"w_mode must be one of {W_MODES}, got {w_mode!r}")
    stat = records["confidence" if w_mode == "raw" else "ratio"]
    return (t >= 2) & (records["initial_class"] >= s * (t - 1)) & (stat <= gamma)


def classify_sample(z: np.ndarray, s: int, beta: float, gamma: float,
                    w_mode: str = "ratio") -> np.recarray:
    """Sort a batch of test samples, logits (n, s*t), into detection branches.

    Returns one RECORD_DTYPE row per sample: the argmax as initial and final
    class, the decision, c, c_hat and w = c / c_hat. A past-predicted sample
    with c >= beta is PAST_CORRECT; a ``misclassified`` one is
    PAST_MISCLASSIFIED; anything else is PASSTHROUGH. At t = 1 every class is
    current, so every sample passes through.
    """
    check_thresholds(beta, gamma)
    z, t = logits_stage(z, s)
    records = np.zeros(len(z), RECORD_DTYPE)
    records["decision"] = OtdDecision.PASSTHROUGH
    records["masked_confidence"] = records["ratio"] = np.nan
    if len(z):
        records["initial_class"], records["confidence"] = confidence(z)
        records["final_class"] = records["initial_class"]
        if t >= 2:
            records["masked_confidence"] = masked_confidence(z, s)
            records["ratio"] = records["confidence"] / records["masked_confidence"]
    correct = (records["initial_class"] < s * (t - 1)) & (records["confidence"] >= beta)
    wrong = misclassified(records, t, s, gamma, w_mode)
    records["decision"][correct] = OtdDecision.PAST_CORRECT
    records["decision"][wrong] = OtdDecision.PAST_MISCLASSIFIED
    return records.view(np.recarray)
