"""Dense numerics for an incrementally expanding linear classification head.

The head is the only trainable object in the package: features are frozen
vectors, and everything here is float64 numpy (inputs are widened at entry)
acting on a caller-owned ``LinearHead``. All update operations are
functional (they return a new head). ``substream`` keys every random draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Floor under log() so losses stay finite; far below every test tolerance.
EPS_LOG = 1e-12
LOSSES = ("both", "ce", "em")  # loss_gradient's objectives: CE and entropy, or one


def substream(*key: int) -> np.random.Generator:
    """Philox generator for the substream keyed by a tuple of nonnegative ints.

    Every random draw in the package comes from one documented key, so results
    are reproducible independent of draw order:

        substream(seed)                      -> one-off generator
        substream(seed, task, cls, code)     -> per-class data substream
                                                (code 0 train, 1 test, 2 class mean)
        substream(seed, stage, TRAIN_TAG)    -> shared head's training at a stage
        substream(seed, stage, EVAL_TAG)     -> a stage's test-stream order
        substream(seed, stage, REPLAY_TAG, cls) -> a class's replay picks
        substream(seed, 0, PROBE_TAG, task)  -> a task's probe fit (stage 0 is
                                                no stage, so no other key shares it)

    Tasks and stages count from 1; the tags live in harness. Two kinds of
    harness key seed the same stream as a data key (ROADMAP item 4 makes them
    disjoint). Padding: keys of up to four parts that differ only by trailing
    zeros are one key, so (seed, t, TRAIN_TAG) is class 11's train-draw key
    when task t owns class 11, and (seed, t, EVAL_TAG) is class 12's when it
    owns class 12. Exact: at step >= 14, the stage-1 replay keys
    (seed, 1, REPLAY_TAG, c) for c = 0, 1, 2 are class 13's train, test and
    mean keys.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


@dataclass(frozen=True)
class TaskLayout:
    """Fixed class layout: task i (1-based) owns 0-based classes [step*(i-1), step*i)."""

    num_tasks: int
    step: int

    def __post_init__(self):
        if self.num_tasks < 1:
            raise ValueError(f"num_tasks must be >= 1, got {self.num_tasks}")
        if self.step < 1:
            raise ValueError(f"step must be >= 1, got {self.step}")

    @property
    def num_classes(self) -> int:
        return self.num_tasks * self.step

    def class_range(self, task: int) -> range:
        """0-based class indices owned by a 1-based task."""
        if not 1 <= task <= self.num_tasks:
            raise ValueError(f"task {task} outside 1..{self.num_tasks}")
        return range(self.step * (task - 1), self.step * task)


@dataclass
class LinearHead:
    """Expandable linear classifier: logits = weights @ x + bias.

    ``weights`` is (K, D) and ``bias`` is (K,) where K = step * t for a head
    that sees tasks 1..t. Rows for a class keep their index across expansions.
    """

    weights: np.ndarray
    bias: np.ndarray

    @property
    def num_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.weights.shape[1]


def new_head(dim: int, step: int) -> LinearHead:
    """Zero-initialized head seeing only the first task."""
    if dim < 1 or step < 1:
        raise ValueError("dim and step must be >= 1")
    return LinearHead(np.zeros((step, dim)), np.zeros(step))


def forward(head: LinearHead, x: np.ndarray) -> np.ndarray:
    """Logits (n, K) = x W^T + b for a batch of feature rows x (n, D).

    One einsum over C-contiguous rows of x and W reduces each logit over the
    feature axis in an order that depends only on D (never on the number of
    classes, the batch size or the memory order of ``x``), so expanding the
    head preserves old classes' logits bit for bit and any split of a batch
    gives the same logits. ``x @ W.T`` and einsum on non-contiguous input
    both break these invariances. The whole input is widened to float64
    first: einsum casts a float32 operand in 8192-element buffers, which
    splits the reduction over D, so above D = 8192 a float32 batch would
    not give the logits of its float64 widening.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != head.dim:
        raise ValueError(f"feature shape {x.shape} incompatible with head dim {head.dim}")
    return np.einsum("nd,kd->nk", np.ascontiguousarray(x),
                     np.ascontiguousarray(head.weights)) + head.bias


def softmax(z: np.ndarray) -> np.ndarray:
    """Numerically stabilized softmax along the last axis."""
    z = np.asarray(z, dtype=np.float64)
    if z.size == 0:
        raise ValueError("empty logits")
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite logits")
    # one temporary, worked in place: the same ufuncs in the same order as
    # exp(z - max) / sum, so the same bits
    e = z - np.max(z, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.sum(e, axis=-1, keepdims=True)
    return e


def loss_gradient(z: np.ndarray, x: np.ndarray, labels: np.ndarray,
                  loss: str) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient of the softmax loss named by ``loss``, averaged over a batch.

    Takes logits z (n, K) = x W^T + b for features x (n, D) and one label
    per row. Each row's objective is one of LOSSES: "ce", cross-entropy
    against its label (training's objective; fit_task adds weight decay
    outside), "em", the entropy of its predicted distribution, or "both",
    their sum (retention's objective; the other two are its ablations).
    With p = softmax(z) for a row:

        d(CE)/dz = p - onehot(label)
        d(EM)/dz_i = -p_i * (log p_i - sum_j p_j log p_j)

    Returns (dW, db) averaged over the n rows: with dz the (n, K) stack of
    each row's dL/dz, scaled by 1/n first, dW = (dz / n)^T x and
    db = sum(dz / n).
    """
    if loss not in LOSSES:
        raise ValueError(f"loss must be one of {LOSSES}, got {loss!r}")
    n = z.shape[0]
    p = softmax(z)
    dz = np.zeros_like(p)
    if loss != "em":
        dz += p
        dz[np.arange(n), labels] -= 1.0
    if loss != "ce":
        logp = np.log(np.clip(p, EPS_LOG, None))
        ent = -(p * logp).sum(axis=1)
        dz += -p * (logp + ent[:, None])
    dz /= n
    return dz.T @ x, dz.sum(axis=0)


def sgd_step(head: LinearHead, dw: np.ndarray, db: np.ndarray, lr: float) -> LinearHead:
    """One plain SGD update: W - lr*dW, b - lr*db. Exactly one update per call."""
    dw = np.asarray(dw, dtype=np.float64)
    db = np.asarray(db, dtype=np.float64)
    if dw.shape != head.weights.shape or db.shape != head.bias.shape:
        raise ValueError("gradient shapes do not match head")
    if not (np.all(np.isfinite(dw)) and np.all(np.isfinite(db))):
        raise ValueError("non-finite gradient")
    if not np.isfinite(lr):
        raise ValueError("non-finite learning rate")
    return LinearHead(head.weights - lr * dw, head.bias - lr * db)


def expand_head(head: LinearHead, layout: TaskLayout) -> LinearHead:
    """Grow the head by one task's worth of zero-initialized rows.

    Zero init makes expansion logit-preserving: old classes keep bit-identical
    rows, new classes score exactly 0 until trained.
    """
    if head.num_classes % layout.step:
        raise ValueError("head shape inconsistent with layout")
    if head.num_classes >= layout.num_classes:
        raise ValueError(f"cannot expand past {layout.num_tasks} tasks")
    weights = np.vstack([head.weights, np.zeros((layout.step, head.dim))])
    bias = np.concatenate([head.bias, np.zeros(layout.step)])
    return LinearHead(weights, bias)


@dataclass(frozen=True)
class TrainConfig:
    """Mini-batch SGD settings for fitting the head on one task.

    ``weight_decay`` shrinks the weight rows a little on every step. During
    sequential fitting only the current task's rows are regrown, so decay is
    what makes the shared head drift toward the newest task at desk scale;
    set it to 0 for pure cross-entropy fitting.
    """

    epochs: int = 20
    lr: float = 5.0
    batch_size: int = 64
    weight_decay: float = 1.5e-4
    replay_per_class: int = 0  # exemplars kept per past class; 0 = memory-free

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not 0 < self.lr < np.inf:
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0 <= self.weight_decay < np.inf:
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.replay_per_class < 0:
            raise ValueError("replay_per_class must be >= 0")


def fit_task(
    head: LinearHead,
    features: np.ndarray,
    labels: np.ndarray,
    cfg: TrainConfig,
    seed: tuple[int, ...],
) -> LinearHead:
    """Train the head with mini-batch SGD on cross-entropy over the given examples.

    Deterministic given ``seed``, the key of the substream that shuffles.
    Labels must fall inside the head's visible class range; the caller is
    responsible for restricting them to the current task when running
    memory-free.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if x.ndim != 2 or x.shape[1] != head.dim:
        raise ValueError(f"features shape {x.shape} incompatible with head dim {head.dim}")
    if y.shape != (x.shape[0],):
        raise ValueError("labels must be one per feature row")
    if x.shape[0] == 0:
        raise ValueError("empty dataset")
    if y.min() < 0 or y.max() >= head.num_classes:
        raise ValueError("labels outside the head's visible classes")

    rng = substream(*seed)
    n = x.shape[0]
    try:  # an overflowing step, or a head too large for its logits
        with np.errstate(over="raise", invalid="raise"):
            for _ in range(cfg.epochs):
                order = rng.permutation(n)
                for start in range(0, n, cfg.batch_size):
                    idx = order[start : start + cfg.batch_size]
                    batch = x[idx]
                    # plain matmul here: training is a hot loop and nothing
                    # downstream depends on its reduction order
                    dw, db = loss_gradient(batch @ head.weights.T + head.bias, batch, y[idx], "ce")
                    if cfg.weight_decay:
                        dw += cfg.weight_decay * head.weights
                    head = sgd_step(head, dw, db, cfg.lr)
    except FloatingPointError:
        raise ValueError(f"training overflows at learning rate {cfg.lr:g}, "
                         f"weight decay {cfg.weight_decay:g}") from None
    return head
