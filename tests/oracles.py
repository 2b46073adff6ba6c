"""Independent reference implementations used to pin expected values.

Everything here deliberately avoids the library's own numerics: matrix
products and softmax terms are evaluated with mpmath at 50 digits, the
gradient oracle is central finite differences of the composed loss, and
the scalar losses it composes are written out term by term.
"""

import mpmath as mp
import numpy as np

from arcbench.core import EPS_LOG

mp.mp.dps = 50


def mp_matvec(w, b, x):
    """High-precision W @ x + b."""
    w = np.asarray(w)
    b = np.asarray(b)
    x = np.asarray(x)
    out = []
    for i in range(w.shape[0]):
        acc = mp.mpf(0)
        for j in range(w.shape[1]):
            acc += mp.mpf(w[i, j]) * mp.mpf(x[j])
        out.append(float(acc + mp.mpf(b[i])))
    return np.array(out)


def mp_softmax(z):
    """High-precision softmax of a float vector."""
    exps = [mp.e ** mp.mpf(v) for v in np.asarray(z)]
    total = mp.fsum(exps)
    return np.array([float(e / total) for e in exps])


def mp_tss(z, t, s, temperature):
    """Direct term-by-term evaluation of the per-task softmax scores.

    For task i, every logit in the prefix of the first s*i classes is scaled
    by 1 / temperature**(t - i) before the softmax; the score is the max over
    task i's own class block.
    """
    z = np.asarray(z)
    scores = []
    for i in range(1, t + 1):
        scale = mp.mpf(temperature) ** (t - i)
        exps = [mp.e ** (mp.mpf(z[j]) / scale) for j in range(s * i)]
        total = mp.fsum(exps)
        block = [exps[k] / total for k in range(s * (i - 1), s * i)]
        scores.append(float(max(block)))
    return np.array(scores)


def cross_entropy(p, label):
    """-log p[label], with p[label] floored at EPS_LOG."""
    p = np.asarray(p, dtype=np.float64)
    if not 0 <= label < p.shape[-1]:
        raise ValueError(f"label {label} outside 0..{p.shape[-1] - 1}")
    return float(-np.log(max(p[label], EPS_LOG)))


def entropy(p):
    """-sum p_i log p_i with the 0*log(0) terms taken as 0."""
    p = np.asarray(p, dtype=np.float64)
    return float(-np.sum(p * np.log(np.clip(p, EPS_LOG, None))))


def task_of_class(layout, cls):
    """1-based task whose class_range holds a 0-based class, found by search."""
    for task in range(1, layout.num_tasks + 1):
        if cls in layout.class_range(task):
            return task
    raise ValueError(f"class {cls} outside 0..{layout.num_classes - 1}")


def fd_gradient(loss_fn, w, b, step=1e-4):
    """Central finite differences of loss_fn(w, b) over every entry."""
    w = np.asarray(w, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    dw = np.zeros_like(w)
    for i in range(w.shape[0]):
        for j in range(w.shape[1]):
            wp, wm = w.copy(), w.copy()
            wp[i, j] += step
            wm[i, j] -= step
            dw[i, j] = (loss_fn(wp, b) - loss_fn(wm, b)) / (2 * step)
    db = np.zeros_like(b)
    for i in range(b.shape[0]):
        bp, bm = b.copy(), b.copy()
        bp[i] += step
        bm[i] -= step
        db[i] = (loss_fn(w, bp) - loss_fn(w, bm)) / (2 * step)
    return dw, db


def relative_error(analytic, reference, floor=1e-6):
    """Max elementwise |a - r| / max(|a|, |r|, floor)."""
    analytic = np.asarray(analytic, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(reference)), floor)
    return float(np.max(np.abs(analytic - reference) / denom))
